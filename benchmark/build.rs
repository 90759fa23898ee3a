//! Records the compiler and profile that built the benchmark, for the
//! machine record every run prints.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    for key in ["PROFILE", "OPT_LEVEL"] {
        let v = std::env::var(key).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env=BENCH_{key}={v}");
    }
    println!("cargo:rerun-if-env-changed=RUSTC");
    println!("cargo:rerun-if-changed=build.rs");
}
