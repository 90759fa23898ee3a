//! The finecc benchmark: closed-loop clients drive one workload through
//! the public `finecc-runtime` API, and the last line of standard output
//! is one JSON object with the run's correctness, counts and metrics.
//!
//! ```text
//! finecc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--clients <n>] [--tiny] [--work-dir <dir>] [--out-dir <dir>]
//! ```
//!
//! A run repeats *trials* until `--seconds` of timed work is done. Each
//! trial sets the program up from scratch, runs the workload's fixed
//! number of transactions, and checks the outcome. With `--trace 0` the
//! end-to-end metrics are reported (medians over trials); with
//! `--trace 1` traced and untraced trials alternate, and the per-layer
//! metrics come from the traced ones plus the layer replays. See
//! `README.md` next to this crate for the workloads and metrics.

mod hist;
mod json;
mod machine;
mod replay;
mod run;
mod spec;
mod trace;

use json::{Json, Obj};
use run::Trial;
use spec::Spec;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Trials a run makes at least.
const MIN_TRIALS: usize = 3;
/// Trials a traced run makes at least (half of them traced).
const MIN_TRACED_TRIALS: usize = 4;
/// No new trial starts after this much wall time.
const WALL_CAP_S: f64 = 140.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    clients: usize,
    tiny: bool,
    work_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        clients: 2,
        tiny: false,
        work_dir: PathBuf::from(".bench_work"),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            a.tiny = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v != "0",
            "--clients" => a.clients = v.parse().map_err(|e| bad(&e))?,
            "--work-dir" => a.work_dir = v.into(),
            "--out-dir" => a.out_dir = v.into(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    Ok(a)
}

fn main() {
    match real_main() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("finecc-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let mut spec = Spec::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<_> = spec::all().iter().map(|s| s.name).collect();
        format!("unknown workload {:?}; one of {names:?}", args.workload)
    })?;
    if args.tiny {
        spec = spec.tiny();
    }
    let started = Instant::now();
    let inp = run::inputs(&spec, args.seed);

    let mut trials: Vec<Trial> = Vec::new();
    let obs = args
        .trace
        .then(|| Arc::new(finecc_obs::Obs::new(finecc_obs::ObsConfig::enabled())));
    let min_trials = match (args.tiny, args.trace) {
        (true, t) => 1 + t as usize,
        (false, false) => MIN_TRIALS,
        (false, true) => MIN_TRACED_TRIALS,
    };
    let mut timed_s = 0.0;
    while trials.len() < min_trials
        || (timed_s < args.seconds && started.elapsed().as_secs_f64() < WALL_CAP_S)
    {
        let k = trials.len();
        let traced = obs.as_ref().filter(|_| k.is_multiple_of(2));
        let dir = run::trial_dir(&args.work_dir, spec.name, k);
        let t = run::trial(&inp, args.clients, traced, &dir, k as u32)?;
        eprintln!(
            "trial {k}{}: setup {:.4} s, {} txns in {:.3} s = {:.0} txn/s, \
             p50 {:.2} us, p99 {:.2} us, checks {:.3} s",
            if traced.is_some() { " (traced)" } else { "" },
            t.setup.total_s,
            t.counts.attempted,
            t.elapsed_s,
            t.counts.committed as f64 / t.elapsed_s,
            t.latency.quantile(0.5) / 1e3,
            t.latency.quantile(0.99) / 1e3,
            t.check_s,
        );
        timed_s += t.elapsed_s;
        trials.push(t);
    }
    let _ = std::fs::remove_dir(&args.work_dir);

    let mut problems: Vec<String> = Vec::new();
    let mut counts = run::Counts::default();
    for (k, t) in trials.iter().enumerate() {
        counts.merge(&t.counts);
        problems.extend(t.problems.iter().map(|p| format!("trial {k}: {p}")));
        if spec.scheme.isolation().is_some() && t.deltas.lock.requests != 0 {
            problems.push(format!(
                "trial {k}: {} lock requests under a scheme that takes no locks",
                t.deltas.lock.requests
            ));
        }
    }

    let mut rec = machine::record()
        .with("workload", Json::Str(spec.name.into()))
        .with("seed", Json::Int(args.seed as i64))
        .with("clients", Json::Int(args.clients as i64))
        .with("trials", Json::Int(trials.len() as i64))
        .with("txns_per_trial", Json::Int(spec.txns_per_trial as i64))
        .with("txns", Json::Int(counts.attempted as i64))
        .with("timed_s", Json::Num(timed_s));
    if args.tiny {
        rec.push("tiny", Json::Bool(true));
    }
    println!("machine {rec}");
    println!(
        "workload {}: scheme {}, durability {}, store {} classes x {} instances, \
         mix one/some/all {}/{}/{}, {}% of picks over {} hot objects, \
         {} closed-loop clients",
        spec.name,
        spec.scheme.name(),
        spec.durability.name(),
        spec.classes,
        spec.per_class,
        spec.mix.one,
        spec.mix.some,
        spec.mix.all,
        spec.hot_frac * 100.0,
        spec.hot_set,
        args.clients
    );
    println!(
        "counts: attempted {} committed {} exhausted {} failed {} retries {}",
        counts.attempted, counts.committed, counts.exhausted, counts.failed, counts.retries
    );
    let metrics = if args.trace {
        layer_metrics(&args, &inp, &mut trials, obs.as_deref(), &mut problems)
    } else {
        end_to_end_metrics(&trials)
    };

    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let mut out = Obj::new();
    for mt in &metrics {
        println!("{} = {} {}", mt.name, mt.value, mt.unit);
        out.push(
            mt.name,
            Json::Obj(
                Obj::new()
                    .with("value", Json::Num(mt.value))
                    .with("unit", Json::Str(mt.unit.into())),
            ),
        );
    }
    let result = Obj::new()
        .with("correct", Json::Bool(problems.is_empty()))
        .with("attempted", Json::Int(counts.attempted as i64))
        .with(
            "failed",
            Json::Int((counts.exhausted + counts.failed) as i64),
        )
        .with("metrics", Json::Obj(out));
    println!("{result}");
    Ok(())
}

/// The end-to-end metrics: medians over trials.
fn end_to_end_metrics(trials: &[Trial]) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Trial) -> f64| median(trials.iter().map(f).collect());
    let n: u64 = trials.iter().map(|t| t.latency.count()).sum();
    println!(
        "latency samples: {n} ({} per trial)",
        n / trials.len() as u64
    );
    vec![
        m("setup_s", per(&|t| t.setup.total_s), "s"),
        m(
            "txn_per_s",
            per(&|t| t.counts.committed as f64 / t.elapsed_s),
            "1/s",
        ),
        m("txn_p50_us", per(&|t| t.latency.quantile(0.50) / 1e3), "us"),
        m("txn_p99_us", per(&|t| t.latency.quantile(0.99) / 1e3), "us"),
        m("rss_peak_mb", machine::rss_peak_mb(), "MiB"),
    ]
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    args: &Args,
    inp: &run::Inputs,
    trials: &mut [Trial],
    obs: Option<&finecc_obs::Obs>,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    use finecc_obs::Phase;
    let obs = obs.expect("traced runs record into an Obs");
    let tps = |traced: bool| {
        median(
            trials
                .iter()
                .filter(|t| t.tracer.is_some() == traced)
                .map(|t| t.counts.committed as f64 / t.elapsed_s)
                .collect(),
        )
    };
    let overhead_pct = (1.0 - tps(true) / tps(false)) * 100.0;
    let traced: Vec<&mut Trial> = trials.iter_mut().filter(|t| t.tracer.is_some()).collect();
    let (mut txns, mut commits) = (0u64, 0u64);
    let mut lock = finecc_lock::StatsSnapshot::default();
    let mut mv = finecc_mvcc::MvccStatsSnapshot::default();
    let (mut log_bytes, mut fsyncs) = (0u64, 0u64);
    let mut batches = finecc_obs::HistSnapshot::default();
    let mut tracer: Option<trace::Tracer> = None;
    let setup = |f: &dyn Fn(&run::SetupTimes) -> f64, ts: &[&mut Trial]| {
        median(ts.iter().map(|t| f(&t.setup)).collect())
    };
    let build_schema_ms = setup(&|s| s.build_schema_ms, &traced);
    let compile_ms = setup(&|s| s.compile_ms, &traced);
    let populate_ms = setup(&|s| s.populate_ms, &traced);
    let checkpoint_ms = setup(&|s| s.checkpoint_ms, &traced);
    for t in traced {
        txns += t.counts.attempted;
        commits += t.counts.committed;
        let (l, d) = (&t.deltas.lock, &t.deltas.mvcc);
        lock.requests += l.requests;
        lock.blocks += l.blocks;
        lock.deadlocks += l.deadlocks;
        lock.upgrades += l.upgrades;
        mv.write_conflicts += d.write_conflicts;
        mv.ssi_aborts += d.ssi_aborts;
        mv.read_retries += d.read_retries;
        mv.chain_len_sum += d.chain_len_sum;
        mv.chain_len_samples += d.chain_len_samples;
        log_bytes += t.deltas.wal.log_bytes;
        fsyncs += t.deltas.wal.log_fsyncs;
        if let Some(b) = &t.wal_batches {
            batches.merge(b);
        }
        if let Some(tr) = t.tracer.take() {
            trace::Tracer::absorb(&mut tracer, tr);
        }
    }
    let tracer = tracer.expect("at least one traced trial");
    let spans_path = args
        .out_dir
        .join(format!("spans-{}-seed{}.csv", inp.spec.name, args.seed));
    match tracer.write_spans(&spans_path) {
        Ok(n) => println!("spans: {n} records written to {}", spans_path.display()),
        Err(e) => problems.push(format!("writing spans: {e}")),
    }
    let layers = replay::replay(inp).unwrap_or_else(|e| {
        problems.push(format!("layer replay: {e}"));
        replay::LayerReplay::default()
    });
    println!(
        "layer replays over {} transactions of the pool",
        layers.txns
    );

    let phase = |p: Phase| obs.phase_summary(p);
    let us = |ns: u64| ns as f64 / 1e3;
    let hus = |h: &hist::Hist, q: f64| h.quantile(q) / 1e3;
    vec![
        m("lang.build_schema_ms", build_schema_ms, "ms"),
        m("lang.interp_us_per_txn", layers.interp_us_per_txn, "us"),
        m("lang.top_msgs_per_txn", layers.top_msgs_per_txn, "count"),
        m("lang.self_msgs_per_txn", layers.self_msgs_per_txn, "count"),
        m(
            "lang.field_accesses_per_txn",
            layers.field_accesses_per_txn,
            "count",
        ),
        m("core.compile_ms", compile_ms, "ms"),
        m("core.mode_lookup_ns", layers.mode_lookup_ns, "ns"),
        m("store.populate_ms", populate_ms, "ms"),
        m("store.field_access_ns", layers.field_access_ns, "ns"),
        m("store.undo_capture_ns", layers.undo_capture_ns, "ns"),
        m("lock.requests_per_txn", ratio(lock.requests, txns), "count"),
        m("lock.blocks_per_txn", ratio(lock.blocks, txns), "count"),
        m(
            "lock.deadlocks_per_txn",
            ratio(lock.deadlocks, txns),
            "count",
        ),
        m("lock.upgrades_per_txn", ratio(lock.upgrades, txns), "count"),
        m("lock.acquire_ns.t1", layers.acquire_ns_t1, "ns"),
        m("lock.acquire_ns.t2", layers.acquire_ns_t2, "ns"),
        m("lock.wait_us.p50", us(phase(Phase::LockWait).p50), "us"),
        m("lock.wait_us.p99", us(phase(Phase::LockWait).p99), "us"),
        m(
            "mvcc.ww_conflicts_per_commit",
            ratio(mv.write_conflicts, commits),
            "count",
        ),
        m(
            "mvcc.ssi_aborts_per_commit",
            ratio(mv.ssi_aborts, commits),
            "count",
        ),
        m(
            "mvcc.read_retries_per_txn",
            ratio(mv.read_retries, txns),
            "count",
        ),
        m("mvcc.chain_len_mean", mv.mean_chain_len(), "count"),
        m(
            "mvcc.commit_us.p50",
            us(phase(Phase::CommitTotal).p50),
            "us",
        ),
        m(
            "mvcc.commit_us.p99",
            us(phase(Phase::CommitTotal).p99),
            "us",
        ),
        m(
            "mvcc.ts_draw_us.p50",
            us(phase(Phase::CommitTsDraw).p50),
            "us",
        ),
        m("mvcc.flip_us.p50", us(phase(Phase::CommitFlip).p50), "us"),
        m(
            "mvcc.publish_us.p50",
            us(phase(Phase::CommitPublish).p50),
            "us",
        ),
        m("wal.bytes_per_commit", ratio(log_bytes, commits), "bytes"),
        m("wal.fsyncs_per_commit", ratio(fsyncs, commits), "count"),
        m(
            "wal.batch.p50",
            batches.value_at_quantile(0.5) as f64,
            "count",
        ),
        m("wal.ack_us.p50", us(phase(Phase::GroupCommitAck).p50), "us"),
        m("wal.ack_us.p99", us(phase(Phase::GroupCommitAck).p99), "us"),
        m("wal.checkpoint_ms", checkpoint_ms, "ms"),
        m("runtime.begin_us.p50", hus(&tracer.begin, 0.5), "us"),
        m("runtime.send_us.p50", hus(&tracer.send, 0.5), "us"),
        m("runtime.send_us.p99", hus(&tracer.send, 0.99), "us"),
        m("runtime.commit_us.p50", hus(&tracer.commit, 0.5), "us"),
        m("runtime.commit_us.p99", hus(&tracer.commit, 0.99), "us"),
        m("runtime.abort_us.p50", hus(&tracer.abort, 0.5), "us"),
        m("runtime.txn_self_us.p50", hus(&tracer.txn_self, 0.5), "us"),
        m(
            "runtime.commits_per_attempt",
            ratio(commits, tracer.attempts),
            "ratio",
        ),
        m("obs.trace_overhead_pct", overhead_pct, "%"),
    ]
}
