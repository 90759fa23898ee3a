//! The machine record printed with every result, so numbers from
//! different hosts, compilers or commits never get mixed up.

use crate::json::{Json, Obj};

/// `git rev-parse HEAD` of the working directory, or `unknown` outside
/// a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine and build this run measured.
pub fn record() -> Obj {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Obj::new()
        .with("available_parallelism", Json::Int(cores as i64))
        .with("cpu", Json::Str(cpu_model()))
        .with("profile", Json::Str(env!("BENCH_PROFILE").into()))
        .with("opt_level", Json::Str(env!("BENCH_OPT_LEVEL").into()))
        .with("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").into()))
        .with("git_rev", Json::Str(git_rev()))
}
