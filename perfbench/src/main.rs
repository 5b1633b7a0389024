//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against a freshly booted loopback cluster and ends
//! its output with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when any
//! answer or check is wrong, 2 on a usage error.

use gred_perfbench::run::{traced, untraced, Settings};
use gred_perfbench::workload::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <forward_lockstep|forward_burst|hot_write_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Settings, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value:?} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let settings = Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    };
    Ok((settings, trace.unwrap_or(false)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (settings, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if trace {
        traced(&settings)
    } else {
        untraced(&settings)
    };
    match result {
        Ok(outcome) => {
            for v in &outcome.violations {
                eprintln!("check failed: {v}");
            }
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("benchmark failed: {why}");
            ExitCode::FAILURE
        }
    }
}
