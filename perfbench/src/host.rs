//! The host a run was measured on: core count, CPU model, compiler and
//! build profile. Printed with every result, because parallel speed-ups
//! and latencies mean nothing without it.

use std::fmt;

/// Description of the measuring host and build.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// Cargo build profile of this binary.
    pub profile: &'static str,
}

impl Host {
    /// Describes the current host.
    pub fn describe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" rustc=\"{}\" profile={}",
            self.nproc, self.cpu, self.rustc, self.profile
        )
    }
}

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
