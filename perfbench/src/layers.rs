//! In-process replay of a run's inputs through each layer's public
//! functions, timed per call.
//!
//! Each timing is the median of several rounds over the same inputs, so
//! one descheduled round does not set the figure.

use crate::bench::payload;
use crate::measure::median;
use bytes::Bytes;
use gred::plane::forwarding::route;
use gred::GredNetwork;
use gred_cache::ReadCache;
use gred_cluster::{encode_frame, FrameDecoder};
use gred_dataplane::{wire, ForwardDecision, Packet};
use gred_hash::DataId;
use gred_runtime::ShardedMap;
use std::hint::black_box;
use std::time::Instant;

/// Timing rounds per layer; the median round is reported.
const ROUNDS: usize = 7;

/// Time per call of every replayed layer function.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `GredNetwork::position_of_id`, ns.
    pub position_ns: f64,
    /// `forwarding::route` from the access switch, ns.
    pub route_ns: f64,
    /// `SwitchDataplane::decide`, per greedy step of those routes, ns.
    pub decide_ns: f64,
    /// `wire::encode_into` of a request or a 64-byte response, ns.
    pub encode_ns: f64,
    /// `wire::parse_bytes` of the same packets, ns.
    pub parse_ns: f64,
    /// `wire::encode_batch_into` of 256 packets, µs.
    pub batch_encode_us: f64,
    /// `wire::parse_batch_bytes` of 256 packets, µs.
    pub batch_parse_us: f64,
    /// `FrameDecoder` yield of one frame from a buffered stream, ns.
    pub frame_decode_ns: f64,
    /// `ReadCache::get` of a cached id, ns.
    pub cache_get_ns: f64,
    /// `ReadCache::begin_read` plus `insert_if_fresh`, ns.
    pub cache_fill_ns: f64,
    /// `ReadCache::invalidate`, ns.
    pub cache_invalidate_ns: f64,
    /// `ShardedMap::get_cloned`, ns.
    pub shard_get_ns: f64,
    /// `ShardedMap::insert` over an existing key, ns.
    pub shard_insert_ns: f64,
}

/// Median over [`ROUNDS`] runs of `round`, divided by `calls` per round.
fn per_call_ns(calls: usize, mut round: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            round();
            t.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&rounds)
}

/// Replays `inputs` (indices into `ids`, as the run issued them) through
/// every layer. `access` is the measuring client's switch.
pub fn replay(net: &GredNetwork, access: usize, ids: &[DataId], inputs: &[usize]) -> LayerTimes {
    let planes = net.dataplanes();
    let keys: Vec<&DataId> = inputs.iter().map(|&i| &ids[i]).collect();
    let positions: Vec<_> = keys.iter().map(|id| net.position_of_id(id)).collect();
    let mut t = LayerTimes {
        position_ns: per_call_ns(keys.len(), || {
            for id in &keys {
                black_box(net.position_of_id(black_box(id)));
            }
        }),
        route_ns: per_call_ns(keys.len(), || {
            for (id, &p) in keys.iter().zip(&positions) {
                black_box(route(planes, access, p, id).expect("benchmark ids route"));
            }
        }),
        ..LayerTimes::default()
    };

    // Every greedy step of those routes, replayed against its switch.
    let steps: Vec<(usize, usize)> = keys
        .iter()
        .zip(&positions)
        .enumerate()
        .flat_map(|(k, (id, &p))| {
            let r = route(planes, access, p, id).expect("benchmark ids route");
            r.overlay.into_iter().map(move |s| (k, s))
        })
        .collect();
    t.decide_ns = per_call_ns(steps.len(), || {
        for &(k, s) in &steps {
            let d = planes[s].decide(positions[k], keys[k]);
            black_box(matches!(d, ForwardDecision::DeliverLocal { .. }));
        }
    });

    // Requests and 64-byte responses alternate, as they do on the path.
    let packets: Vec<Packet> = inputs
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            if k % 2 == 0 {
                Packet::retrieval(ids[i].clone())
            } else {
                Packet::response(ids[i].clone(), payload(i, 0))
            }
        })
        .collect();
    let mut scratch = Vec::new();
    t.encode_ns = per_call_ns(packets.len(), || {
        for p in &packets {
            scratch.clear();
            wire::encode_into(black_box(p), &mut scratch);
            black_box(&scratch);
        }
    });
    let encoded: Vec<Bytes> = packets
        .iter()
        .map(|p| Bytes::from(wire::encode(p)))
        .collect();
    t.parse_ns = per_call_ns(encoded.len(), || {
        for b in &encoded {
            black_box(wire::parse_bytes(black_box(b)).expect("encoded packets parse"));
        }
    });

    let batch: Vec<Packet> = packets.iter().take(256).cloned().collect();
    let mut batch_buf = Vec::new();
    t.batch_encode_us = per_call_ns(100, || {
        for _ in 0..100 {
            batch_buf.clear();
            wire::encode_batch_into(black_box(&batch), &mut batch_buf);
            black_box(&batch_buf);
        }
    }) / 1e3;
    let batch_bytes = Bytes::from(batch_buf.clone());
    t.batch_parse_us = per_call_ns(100, || {
        for _ in 0..100 {
            black_box(wire::parse_batch_bytes(black_box(&batch_bytes)).expect("batch parses"));
        }
    }) / 1e3;

    let stream: Vec<u8> = encoded.iter().flat_map(|b| encode_frame(b)).collect();
    t.frame_decode_ns = per_call_ns(encoded.len(), || {
        let mut dec = FrameDecoder::new();
        dec.feed(black_box(&stream));
        while let Some(frame) = dec.next_frame().expect("well-formed stream") {
            black_box(frame);
        }
    });

    let cache = ReadCache::new(8 * 1024 * 1024);
    let bodies: Vec<Bytes> = inputs.iter().map(|&i| payload(i, 0)).collect();
    t.cache_fill_ns = per_call_ns(keys.len(), || {
        for (id, body) in keys.iter().zip(&bodies) {
            let token = cache.begin_read(id);
            black_box(cache.insert_if_fresh(token, (*id).clone(), body.clone()));
        }
    });
    t.cache_get_ns = per_call_ns(keys.len(), || {
        for id in &keys {
            black_box(cache.get(black_box(id)));
        }
    });
    t.cache_invalidate_ns = per_call_ns(keys.len(), || {
        for id in &keys {
            black_box(cache.invalidate(black_box(id)));
        }
    });

    let store: ShardedMap<DataId, Bytes> = ShardedMap::new();
    for (id, body) in keys.iter().zip(&bodies) {
        store.insert((*id).clone(), body.clone());
    }
    t.shard_insert_ns = per_call_ns(keys.len(), || {
        for (id, body) in keys.iter().zip(&bodies) {
            black_box(store.insert((*id).clone(), body.clone()));
        }
    });
    t.shard_get_ns = per_call_ns(keys.len(), || {
        for id in &keys {
            black_box(store.get_cloned(black_box(id)));
        }
    });
    t
}
