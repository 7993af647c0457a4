//! Benchmark of the diversity-indicator engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `record.json` for why each was chosen):
//!
//! * `serve_cold` — one closed-loop client, never-repeated 4 × 5
//!   requests to the in-process indicator service;
//! * `serve_mixed` — two closed-loop clients on one seeded stream of
//!   memo hits, top-ups, fresh misses and back-to-back duplicates;
//! * `pipeline_doe` — one caller running `Pipeline::try_run`;
//! * `fleet_campaign` — one caller measuring plans on a ~10^4-node fleet.
//!
//! Every input derives from `--seed`. Each run sets up several times
//! (the median is `setup_s`), measures for `--seconds`, then checks every
//! operation's output bit for bit against a serial local reference.
//! With `--trace 0` the last line of standard output is a JSON object of
//! the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics of a traced run, whose spans are written under `traces/` of
//! this package. The process exits non-zero if any operation failed.

// A benchmark harness: a broken invariant of its own should stop the run
// loudly, so `expect` is allowed here.
#![allow(clippy::disallowed_methods)]

mod check;
mod fleet;
mod host;
mod inputs;
mod layers;
mod pipeline;
mod quiet;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "serve_cold",
    "serve_mixed",
    "pipeline_doe",
    "fleet_campaign",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds: f64 = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must lie in (0, 600]".to_string());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Calls `op(0)`, `op(1)`, … back to back until `window` has passed.
pub fn closed_loop(window: Duration, mut op: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed() < window {
        op(i);
        i += 1;
    }
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = host::Host::describe();
    println!("host: {host}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let out = match args.workload.as_str() {
        "serve_cold" => serve::run(&serve::cold(), &args),
        "serve_mixed" => serve::run(&serve::mixed(), &args),
        "pipeline_doe" => pipeline::run(&args),
        "fleet_campaign" => fleet::run(&args),
        _ => unreachable!("parse checks the workload"),
    };
    for line in &out.lines {
        println!("{line}");
    }
    for reason in &out.tally.reasons {
        println!("FAILED: {reason}");
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("FAILED: a metric is not finite");
    }
    println!("{}", out.json());
    if out.tally.failed == 0 && out.tally.attempted > 0 && finite {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse("--workload serve_mixed --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, "serve_mixed");
        assert_eq!(args.seed, 42);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve_cold --seed 1 --trace 2").is_err());
        assert!(parse("--workload serve_cold").is_err());
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in layers::PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }
}
