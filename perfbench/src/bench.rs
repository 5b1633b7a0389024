//! Booting the benchmark cluster and driving it with verified calls.

use crate::measure::Totals;
use crate::trace::Tracer;
use crate::workload::{
    Op, OpStream, Workload, BURST, IDS, PAYLOAD_BYTES, SERVERS_PER_SWITCH, SWITCHES, TOPOLOGY_SEED,
};
use bytes::Bytes;
use gred::plane::forwarding::route;
use gred::{GredConfig, GredNetwork};
use gred_cluster::{Client, ClientConfig, Cluster, ClusterConfig, NodeConfig, Reply};
use gred_dataplane::StatsSnapshot;
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use std::time::{Duration, Instant};

/// The stored payload of version `version` of id `i`: exactly
/// [`PAYLOAD_BYTES`] bytes naming both, so a stale or misrouted answer
/// can never match.
pub fn payload(i: usize, version: u32) -> Bytes {
    let mut p = format!("perfbench id={i:05} version={version:010} ").into_bytes();
    p.resize(PAYLOAD_BYTES, b'.');
    Bytes::from(p)
}

/// Where set-up time went, for one set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    /// `GredNetwork::build_reported`, by phase.
    pub build_phases: Vec<(&'static str, Duration)>,
    /// The whole control-plane build.
    pub build: Duration,
    /// In-process placement of every id before boot.
    pub preload: Duration,
    /// `Cluster::boot` (binds, spawns, copies the preloaded stores).
    pub boot: Duration,
    /// Client connects and the warm-up traffic.
    pub warmup: Duration,
    /// Everything above, end to end.
    pub total: Duration,
}

/// A booted, preloaded and warmed cluster with its measuring client.
pub struct Bench {
    /// The workload this cluster was configured for.
    pub workload: Workload,
    /// The in-process network the cluster was booted from.
    pub net: GredNetwork,
    cluster: Cluster,
    /// Switch the measuring client enters at.
    pub access: usize,
    /// The id table; operations index into it.
    pub ids: Vec<DataId>,
    /// Latest acknowledged version of every id.
    versions: Vec<u32>,
    /// Physical hops of the in-process `route()` from `access`, by id.
    route_hops: Vec<u16>,
    /// Hop counts at which a cached answer may come back, by id: the
    /// position of every overlay switch before the owner on the route.
    cached_hops: Vec<Vec<u16>>,
    /// Owner switch of every id.
    owners: Vec<usize>,
    /// The measuring client (one connection, closed loop).
    client: Client,
    /// One scrape client per node, opened during set-up so scrapes add
    /// no connections while measuring.
    scrapers: Vec<Client>,
}

/// How long a drive lasts.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Exactly this many client calls.
    Calls(usize),
    /// Calls until this much time has passed.
    For(Duration),
}

/// Kind of one client call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `retrieve`.
    Read,
    /// `place`.
    Write,
    /// `retrieve_many` of [`BURST`] ids.
    Burst,
}

/// One timed client call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// What was called.
    pub kind: CallKind,
    /// Client-side latency, ns.
    pub ns: u64,
    /// `Reply.hops` of a read or write (0 for a burst).
    pub hops: u32,
}

/// Everything a drive observed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every call, in order.
    pub calls: Vec<Call>,
    /// Reads attempted (burst members included).
    pub reads: u64,
    /// Writes attempted.
    pub writes: u64,
    /// Writes that acked clean.
    pub clean_writes: u64,
    /// Sum of `Reply.hops` over verified reads.
    pub read_hops: u64,
    /// Reads or writes attempted.
    pub attempted: u64,
    /// Reads or writes that failed a check or returned an error.
    pub failed: u64,
    /// The first failure, described.
    pub first_failure: Option<String>,
    /// Wall time of the drive.
    pub elapsed: Duration,
}

impl Phase {
    /// Verified reads or writes.
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }

    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.first_failure.get_or_insert(why);
    }

    /// Folds `other` (a later drive) into `self`.
    pub fn absorb(&mut self, other: Phase) {
        self.calls.extend(other.calls);
        self.reads += other.reads;
        self.writes += other.writes;
        self.clean_writes += other.clean_writes;
        self.read_hops += other.read_hops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.elapsed += other.elapsed;
    }
}

impl Bench {
    /// Builds the network, preloads every id, boots the cluster, opens
    /// every connection the workload will use and warms it with the
    /// workload's own traffic drawn from `warm_seed`.
    ///
    /// # Errors
    ///
    /// A description of the first build, boot or warm-up failure.
    pub fn setup(workload: Workload, warm_seed: u64) -> Result<(Bench, SetupReport), String> {
        let mut report = SetupReport::default();
        let start = Instant::now();

        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(SWITCHES, TOPOLOGY_SEED));
        let pool = ServerPool::uniform(SWITCHES, SERVERS_PER_SWITCH, u64::MAX);
        let cfg = GredConfig {
            auto_extend: false,
            ..GredConfig::with_iterations(8).seeded(TOPOLOGY_SEED)
        };
        let (mut net, build) = GredNetwork::build_reported(topo, pool, cfg)
            .map_err(|e| format!("network build failed: {e}"))?;
        report.build_phases = build.phases.iter().map(|p| (p.name, p.wall)).collect();
        report.build = start.elapsed();

        let t = Instant::now();
        let access = net.members()[0];
        let ids: Vec<DataId> = (0..IDS)
            .map(|i| DataId::new(format!("perfbench/{i}")))
            .collect();
        let mut route_hops = Vec::with_capacity(IDS);
        let mut cached_hops = Vec::with_capacity(IDS);
        let mut owners = Vec::with_capacity(IDS);
        for (i, id) in ids.iter().enumerate() {
            let r = route(net.dataplanes(), access, net.position_of_id(id), id)
                .map_err(|e| format!("in-process route of {id:?} failed: {e}"))?;
            let hops = |s: &usize| r.switches.iter().position(|x| x == s).map(|p| p as u16);
            cached_hops.push(
                r.overlay[..r.overlay.len() - 1]
                    .iter()
                    .filter_map(hops)
                    .collect(),
            );
            route_hops.push(r.physical_hops() as u16);
            owners.push(r.dest);
            net.place(id, payload(i, 0), access)
                .map_err(|e| format!("preload of {id:?} failed: {e}"))?;
        }
        report.preload = t.elapsed();

        let t = Instant::now();
        let cluster_cfg = ClusterConfig {
            node: NodeConfig {
                cache_bytes: workload.cache_bytes(),
                ..NodeConfig::default()
            },
            // No silent retries: every failed attempt must show.
            client: ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            },
        };
        let cluster = Cluster::boot(&net, cluster_cfg).map_err(|e| format!("boot failed: {e}"))?;
        report.boot = t.elapsed();

        let t = Instant::now();
        let client = cluster
            .client(access)
            .map_err(|e| format!("client connect failed: {e}"))?;
        let scrapers = (0..cluster.len())
            .map(|s| cluster.client(s))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("scrape client connect failed: {e}"))?;
        let mut bench = Bench {
            workload,
            net,
            cluster,
            access,
            ids,
            versions: vec![0; IDS],
            route_hops,
            cached_hops,
            owners,
            client,
            scrapers,
        };
        bench.warm_up(warm_seed)?;
        report.warmup = t.elapsed();
        report.total = start.elapsed();
        Ok((bench, report))
    }

    /// Opens every link and worker the measured phase will use, so none
    /// is opened or spawned while timing.
    fn warm_up(&mut self, warm_seed: u64) -> Result<(), String> {
        // Every node's scrape connection.
        self.scrape()?;
        // Every forwarding link from the access switch, by a pipelined
        // sweep over all ids (which also fills caches on the way).
        let all: Vec<usize> = (0..IDS).collect();
        let mut sweep = Phase::default();
        for chunk in all.chunks(BURST) {
            self.run_op(&Op::Burst(chunk.to_vec()), &mut sweep, None);
        }
        if self.workload == Workload::HotWriteMix {
            // One write owned by every switch opens each owner's
            // invalidation links to all of its peers.
            for owner in 0..SWITCHES {
                if let Some(i) = self.owners.iter().position(|&o| o == owner) {
                    self.run_op(&Op::Write(i), &mut sweep, None);
                }
            }
        }
        // The workload's own traffic: Plain-path links, dispatch workers
        // and the steady cache content.
        let mut stream = OpStream::new(self.workload, warm_seed);
        let own = self.drive(&mut stream, Limit::Calls(self.workload.warmup_ops()), None);
        sweep.absorb(own);
        match sweep.first_failure {
            Some(why) => Err(format!("warm-up failed: {why}")),
            None => Ok(()),
        }
    }

    /// One scrape of every node, over the wire.
    ///
    /// # Errors
    ///
    /// The first scrape failure.
    pub fn scrape(&mut self) -> Result<Vec<StatsSnapshot>, String> {
        self.scrapers
            .iter_mut()
            .map(|c| c.scrape().map_err(|e| format!("scrape failed: {e}")))
            .collect()
    }

    /// Cluster-wide totals of one scrape.
    ///
    /// # Errors
    ///
    /// The first scrape failure.
    pub fn totals(&mut self) -> Result<Totals, String> {
        self.scrape().map(|s| Totals::of(&s))
    }

    /// One `Client::scrape` round trip to the access node, in ns.
    ///
    /// # Errors
    ///
    /// The scrape failure.
    pub fn scrape_access_ns(&mut self) -> Result<u64, String> {
        let client = &mut self.scrapers[self.access];
        let t = Instant::now();
        client.scrape().map_err(|e| format!("scrape failed: {e}"))?;
        Ok(t.elapsed().as_nanos() as u64)
    }

    /// Issues client calls from `stream` until `limit`, verifying every
    /// answer. With a tracer, each call gets a root span, a span around
    /// the client call and one around the verification.
    pub fn drive(
        &mut self,
        stream: &mut OpStream,
        limit: Limit,
        mut tracer: Option<&mut Tracer>,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut calls = 0usize;
        loop {
            match limit {
                Limit::Calls(n) if calls >= n => break,
                Limit::For(d) if start.elapsed() >= d => break,
                _ => {}
            }
            let op = stream.next_op();
            self.run_op(&op, &mut phase, tracer.as_deref_mut());
            calls += 1;
        }
        phase.elapsed = start.elapsed();
        phase
    }

    /// Issues one call and checks its answer into `phase`.
    pub fn run_op(&mut self, op: &Op, phase: &mut Phase, mut tracer: Option<&mut Tracer>) {
        let request = phase.calls.len() as u64 + 1;
        let root = tracer
            .as_deref_mut()
            .map_or(0, |t| t.begin("op", 0, request));
        let span = |t: &mut Option<&mut Tracer>, name| {
            t.as_deref_mut().map_or(0, |t| t.begin(name, root, request))
        };
        let close = |t: &mut Option<&mut Tracer>, id| {
            if let Some(t) = t.as_deref_mut() {
                t.end(id);
            }
        };
        phase.attempted += op.weight();
        match op {
            Op::Read(i) => {
                phase.reads += 1;
                let s = span(&mut tracer, "client.retrieve");
                let t = Instant::now();
                let result = self.client.retrieve(&self.ids[*i]);
                let ns = t.elapsed().as_nanos() as u64;
                close(&mut tracer, s);
                let s = span(&mut tracer, "bench.verify");
                match result {
                    Ok(reply) => {
                        let hops = u32::from(reply.hops);
                        match self.check_read(*i, &reply) {
                            Ok(()) => phase.read_hops += u64::from(hops),
                            Err(why) => phase.fail(1, why),
                        }
                        phase.calls.push(Call {
                            kind: CallKind::Read,
                            ns,
                            hops,
                        });
                    }
                    Err(e) => phase.fail(1, format!("retrieve of id {i} failed: {e}")),
                }
                close(&mut tracer, s);
            }
            Op::Write(i) => {
                phase.writes += 1;
                let version = self.versions[*i] + 1;
                let s = span(&mut tracer, "client.place");
                let t = Instant::now();
                let result = self.client.place(&self.ids[*i], payload(*i, version));
                let ns = t.elapsed().as_nanos() as u64;
                close(&mut tracer, s);
                let s = span(&mut tracer, "bench.verify");
                match result {
                    Ok(reply) => {
                        // A write that reached the store supersedes the
                        // old version even when its ack is not clean.
                        self.versions[*i] = version;
                        if !reply.is_clean() {
                            phase.fail(1, format!("place of id {i} acked {:?}", reply.status));
                        } else if reply.hops != self.route_hops[*i] {
                            phase.fail(
                                1,
                                format!(
                                    "place of id {i} took {} hops, route() says {}",
                                    reply.hops, self.route_hops[*i]
                                ),
                            );
                        } else {
                            phase.clean_writes += 1;
                        }
                        phase.calls.push(Call {
                            kind: CallKind::Write,
                            ns,
                            hops: u32::from(reply.hops),
                        });
                    }
                    Err(e) => phase.fail(1, format!("place of id {i} failed: {e}")),
                }
                close(&mut tracer, s);
            }
            Op::Burst(members) => {
                phase.reads += members.len() as u64;
                let ids: Vec<DataId> = members.iter().map(|&i| self.ids[i].clone()).collect();
                let s = span(&mut tracer, "client.retrieve_many");
                let t = Instant::now();
                let result = self.client.retrieve_many(&ids);
                let ns = t.elapsed().as_nanos() as u64;
                close(&mut tracer, s);
                let s = span(&mut tracer, "bench.verify");
                match result {
                    Ok(replies) if replies.len() == members.len() => {
                        for (&i, reply) in members.iter().zip(&replies) {
                            match self.check_read(i, reply) {
                                Ok(()) => phase.read_hops += u64::from(reply.hops),
                                Err(why) => phase.fail(1, why),
                            }
                        }
                        phase.calls.push(Call {
                            kind: CallKind::Burst,
                            ns,
                            hops: 0,
                        });
                    }
                    Ok(replies) => phase.fail(
                        members.len() as u64,
                        format!(
                            "burst of {} ids got {} replies",
                            members.len(),
                            replies.len()
                        ),
                    ),
                    Err(e) => {
                        phase.fail(members.len() as u64, format!("retrieve_many failed: {e}"))
                    }
                }
                close(&mut tracer, s);
            }
        }
        close(&mut tracer, root);
    }

    /// A read must be clean, carry the latest acknowledged version and
    /// report the hop count of the in-process route (or, with caching,
    /// the hop count of an overlay switch on that route).
    fn check_read(&self, i: usize, reply: &Reply) -> Result<(), String> {
        if !reply.is_clean() {
            return Err(format!("retrieve of id {i} answered {:?}", reply.status));
        }
        if reply.payload != payload(i, self.versions[i]) {
            return Err(format!(
                "retrieve of id {i} returned {:?}, latest acked version is {}",
                String::from_utf8_lossy(&reply.payload),
                self.versions[i]
            ));
        }
        let expected = self.route_hops[i];
        let cached = self.workload.cached() && self.cached_hops[i].contains(&reply.hops);
        if reply.hops != expected && !cached {
            return Err(format!(
                "retrieve of id {i} took {} hops, route() says {expected}",
                reply.hops
            ));
        }
        Ok(())
    }

    /// Closes every connection and shuts the cluster down.
    pub fn shutdown(self) {
        drop(self.client);
        drop(self.scrapers);
        self.cluster.shutdown();
    }
}
