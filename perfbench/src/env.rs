//! The environment stamp printed with every result.

use std::fmt::Write;

/// Hardware and toolchain facts a measurement depends on.
#[derive(Clone, Debug)]
pub struct EnvStamp {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Pool workers in use: `PACE_THREADS` capped at `nproc`, `0` for all
    /// of them, and one when unset.
    pub threads: usize,
    /// The `PACE_THREADS` value as given, or `unset`.
    pub threads_requested: String,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
}

/// Resolves the pool size, applies it to the runtime, and returns the
/// stamp.
///
/// The benchmark runs one pool worker unless `PACE_THREADS` asks for more
/// (`0` means every hardware thread). On a shared two-vCPU machine every
/// fork/join region waits whenever the host deschedules one vCPU: measured
/// there, two-worker campaigns intermittently ran 3× slower (0.80 s → 2.6 s
/// on `pace-tpch-fcn`), while one-worker campaigns stayed within 0.83–0.88 s.
pub fn resolve() -> EnvStamp {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let requested = std::env::var("PACE_THREADS").ok();
    let threads = match requested.as_deref().map(|v| v.trim().parse::<usize>()) {
        None => 1,
        Some(Ok(0)) => nproc,
        Some(Ok(n)) => n.min(nproc),
        Some(Err(_)) => 1,
    };
    pace_runtime::set_threads(threads);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    EnvStamp {
        nproc,
        threads,
        threads_requested: requested.unwrap_or_else(|| "unset".to_string()),
        cpu,
        rustc: env!("PERFBENCH_RUSTC"),
    }
}

impl EnvStamp {
    /// One JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"nproc\": {}, \"pace_threads\": {}, \"pace_threads_requested\": {}, \
             \"cpu\": {}, \"rustc\": {}}}",
            self.nproc,
            self.threads,
            crate::report::json_str(&self.threads_requested),
            crate::report::json_str(&self.cpu),
            crate::report::json_str(self.rustc)
        );
        s
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
