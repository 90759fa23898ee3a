//! One trial: set the program up, drive a fixed number of closed-loop
//! transactions through it, then check what it did.

use crate::hist::Hist;
use crate::spec::Spec;
use crate::trace::Tracer;
use finecc_lock::StatsSnapshot;
use finecc_model::{FieldId, Oid, Value};
use finecc_mvcc::{CommitPath, MvccHeap, MvccStatsSnapshot};
use finecc_obs::Obs;
use finecc_runtime::{
    run_txn_with, CcScheme, DurabilityLevel, Env, MvccScheme, RetryPolicy, TxnOutcome, WalConfig,
};
use finecc_sim::workload::{
    generate_source, generate_workload, populate_random, SchemaGenConfig, TxnOp,
};
use finecc_store::StoreError;
use finecc_wal::WalStatsSnapshot;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The clients' retry loop: 100 retryable aborts at most before a
/// transaction counts as exhausted, and 64 yields per backoff unit, so
/// attempt `n` yields `64 * min(n, 8)` times before it runs again.
///
/// A write-write conflict under mvcc-ssi aborts at once against a
/// rival's *pending* version, so the retries of the loser are a wait for
/// the rival to finish. With `run_txn`'s default of one yield per unit a
/// retry takes about 8 us, and 100 of them last about 1 ms: a rival slowed
/// past that by the host made the loser exhaust its budget at random (1 in
/// about 30 million transactions). With 64 yields per unit the budget
/// spans tens of milliseconds, and conflict chains that took 10-20 quick
/// retries take 2-4.
pub const RETRY: RetryPolicy = RetryPolicy {
    max_retries: 100,
    backoff_unit: 64,
};

/// The benchmark's inputs: schema source and op pool. Generating them
/// is not part of any measured time.
pub struct Inputs {
    /// The workload.
    pub spec: Spec,
    /// Method-language source of the generated schema.
    pub source: String,
    /// The op pool every trial cycles through.
    pub pool: Vec<TxnOp>,
}

/// Generates the schema source (bumping the generator seed past the
/// rare schemas the language rejects, as `generate_env` does) and the
/// op pool for `seed`.
pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let mut cfg: SchemaGenConfig = spec.schema_config();
    let (source, env) = (0..16)
        .find_map(|_| {
            let src = generate_source(&cfg);
            let env = Env::from_source(&src).ok();
            cfg.seed = cfg.seed.wrapping_add(0x9e37_79b9);
            env.map(|e| (src, e))
        })
        .expect("schema generation failed 16 times");
    populate_random(&env, spec.per_class);
    let pool = generate_workload(&env, &spec.workload_config(seed)).ops;
    Inputs {
        spec: spec.clone(),
        source,
        pool,
    }
}

/// Outcome counts of a set of transactions.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Transactions started by a client.
    pub attempted: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that used up their retry budget.
    pub exhausted: u64,
    /// Transactions that failed with a non-retryable error.
    pub failed: u64,
    /// Retryable aborts across all transactions.
    pub retries: u64,
    /// The first non-retryable error seen.
    pub first_error: Option<String>,
}

impl Counts {
    /// Counts one outcome.
    pub fn add<T>(&mut self, out: &TxnOutcome<T>) {
        self.attempted += 1;
        match out {
            TxnOutcome::Committed { retries, .. } => {
                self.committed += 1;
                self.retries += *retries as u64;
            }
            TxnOutcome::Exhausted { retries } => {
                self.exhausted += 1;
                self.retries += *retries as u64;
            }
            TxnOutcome::Failed(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    /// Adds another set of counts.
    pub fn merge(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.committed += o.committed;
        self.exhausted += o.exhausted;
        self.failed += o.failed;
        self.retries += o.retries;
        if self.first_error.is_none() {
            self.first_error = o.first_error.clone();
        }
    }
}

/// The set-up time and, in a traced trial, its parts.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up, seconds.
    pub total_s: f64,
    /// `finecc_lang::build_schema` (traced trials only), ms.
    pub build_schema_ms: f64,
    /// `finecc_core::compile` (traced trials only), ms.
    pub compile_ms: f64,
    /// Populating the store (traced trials only), ms.
    pub populate_ms: f64,
    /// Building the scheme, ms: for a durable workload, opening the log
    /// and writing the genesis checkpoint (0 without durability).
    pub checkpoint_ms: f64,
}

/// A built scheme, plus the version heap when the scheme has one.
pub struct Built {
    /// The scheme under test.
    pub scheme: Box<dyn CcScheme>,
    /// The mvcc schemes' heap (its snapshot is the live committed state).
    pub heap: Option<Arc<MvccHeap>>,
}

fn build_scheme(spec: &Spec, env: Env, dir: &Path) -> std::io::Result<Built> {
    match spec.scheme.isolation() {
        Some(isolation) => {
            let s = MvccScheme::with_durability(env, isolation, spec.durability, dir)?;
            let heap = Some(Arc::clone(s.heap()));
            Ok(Built {
                scheme: Box::new(s),
                heap,
            })
        }
        None => Ok(Built {
            scheme: spec.scheme.build_durable(env, spec.durability, dir)?,
            heap: None,
        }),
    }
}

/// Sets the program up: parse, analyze and compile the schema, populate
/// the store, build the scheme (opening its log and writing the genesis
/// checkpoint when durable). An untraced trial goes through
/// `Env::from_source`; a traced one spells it out so each part is timed.
fn setup(inp: &Inputs, obs: Option<&Arc<Obs>>, dir: &Path) -> Result<(Built, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let t0 = Instant::now();
    let env = match obs {
        None => Env::from_source(&inp.source).map_err(|e| e.to_string())?,
        Some(obs) => {
            let (schema, bodies) =
                finecc_lang::build_schema(&inp.source).map_err(|e| e.to_string())?;
            t.build_schema_ms = ms(t0);
            let t1 = Instant::now();
            let compiled = finecc_core::compile(&schema, &bodies).map_err(|e| e.to_string())?;
            t.compile_ms = ms(t1);
            Env::new(schema, bodies, compiled).with_obs(Arc::clone(obs))
        }
    };
    let t2 = Instant::now();
    populate_random(&env, inp.spec.per_class);
    t.populate_ms = ms(t2);
    let t3 = Instant::now();
    let built = build_scheme(&inp.spec, env, dir).map_err(|e| format!("build scheme: {e}"))?;
    if inp.spec.durability != DurabilityLevel::None {
        t.checkpoint_ms = ms(t3);
    }
    t.total_s = t0.elapsed().as_secs_f64();
    Ok((built, t))
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Program counters over one trial's timed window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Deltas {
    /// Lock-manager counters.
    pub lock: StatsSnapshot,
    /// Version-heap counters.
    pub mvcc: MvccStatsSnapshot,
    /// Log counters.
    pub wal: WalStatsSnapshot,
}

/// What one trial measured.
pub struct Trial {
    /// Set-up time.
    pub setup: SetupTimes,
    /// Timed window, seconds.
    pub elapsed_s: f64,
    /// Client-side latency of every transaction, ns.
    pub latency: Hist,
    /// Outcome counts.
    pub counts: Counts,
    /// Program counters over the timed window.
    pub deltas: Deltas,
    /// Log group-commit batch sizes over the timed window.
    pub wal_batches: Option<finecc_obs::HistSnapshot>,
    /// Per-call spans and histograms (traced trials only).
    pub tracer: Option<Tracer>,
    /// Correctness problems found after the timed window.
    pub problems: Vec<String>,
    /// Time the checks took, seconds.
    pub check_s: f64,
}

/// Runs one trial with `clients` closed-loop client threads. With
/// `obs`, the trial is traced: the program's histograms record into
/// `obs` and every call into the scheme is spanned.
pub fn trial(
    inp: &Inputs,
    clients: usize,
    obs: Option<&Arc<Obs>>,
    dir: &Path,
    trial_no: u32,
) -> Result<Trial, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (built, setup) = setup(inp, obs, dir)?;
    let scheme = built.scheme.as_ref();
    let n = inp.spec.txns_per_trial;
    let wal = scheme.env().wal.clone();
    let (lock0, mvcc0) = (scheme.stats(), scheme.mvcc_stats().unwrap_or_default());
    let wal0 = wal
        .as_ref()
        .map(|w| (w.stats().snapshot(), w.stats().batch_snapshot()));

    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(clients + 1);
    let epoch = Instant::now();
    let (elapsed_s, per_client) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut lat = Hist::default();
                    let mut counts = Counts::default();
                    let mut tracer = obs.map(|_| Tracer::new(epoch, trial_no));
                    barrier.wait();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let op = &inp.pool[i % inp.pool.len()];
                        let t = Instant::now();
                        let out = match tracer.as_mut() {
                            None => run_txn_with(scheme, RETRY, |txn| op.run(scheme, txn)),
                            Some(tr) => tr.txn(scheme, op, i as u64, RETRY),
                        };
                        lat.record(t.elapsed().as_nanos() as u64);
                        counts.add(&out);
                    }
                    (lat, counts, tracer)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let per_client: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (t0.elapsed().as_secs_f64(), per_client)
    });

    let mut t = Trial {
        setup,
        elapsed_s,
        latency: Hist::default(),
        counts: Counts::default(),
        deltas: Deltas {
            lock: scheme.stats().since(&lock0),
            mvcc: scheme.mvcc_stats().unwrap_or_default().since(&mvcc0),
            wal: Default::default(),
        },
        wal_batches: None,
        tracer: None,
        problems: Vec::new(),
        check_s: 0.0,
    };
    if let (Some(w), Some((s0, b0))) = (wal, wal0) {
        t.deltas.wal = w.stats().snapshot().since(&s0);
        t.wal_batches = Some(w.stats().batch_snapshot().since(&b0));
    }
    for (lat, counts, tracer) in per_client {
        t.latency.merge(&lat);
        t.counts.merge(&counts);
        if let Some(tr) = tracer {
            Tracer::absorb(&mut t.tracer, tr);
        }
    }
    let t0 = Instant::now();
    t.problems = check(inp, &t.counts, built, dir);
    t.check_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    Ok(t)
}

/// The correctness checks, run after the timed window. Consumes the
/// scheme: durable workloads are shut down and recovered.
fn check(inp: &Inputs, c: &Counts, built: Built, dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    if c.committed + c.exhausted + c.failed != c.attempted {
        problems.push(format!(
            "committed {} + exhausted {} + failed {} != attempted {}",
            c.committed, c.exhausted, c.failed, c.attempted
        ));
    }
    if c.attempted != inp.spec.txns_per_trial as u64 {
        problems.push(format!(
            "attempted {} of {} transactions",
            c.attempted, inp.spec.txns_per_trial
        ));
    }
    if c.failed > 0 {
        problems.push(format!(
            "{} non-retryable failures, first: {}",
            c.failed,
            c.first_error.as_deref().unwrap_or("?")
        ));
    }
    if built.scheme.env().wal.is_some() {
        if let Err(e) = check_recovery(inp, built, dir) {
            problems.push(e);
        }
    }
    problems
}

/// Field values of every instance, in OID order.
type State = Vec<(Oid, Vec<Value>)>;

/// Syncs the log, records the live committed state, shuts the scheme
/// down, recovers the log directory and compares every field.
fn check_recovery(inp: &Inputs, built: Built, dir: &Path) -> Result<(), String> {
    let mut env = built.scheme.env().clone();
    env.wal
        .as_ref()
        .expect("durable")
        .sync()
        .map_err(|e| format!("log sync: {e}"))?;
    let live = match &built.heap {
        Some(heap) => {
            let snap = heap.snapshot();
            read_state(&env, |oid, f| snap.read(oid, f))
        }
        None => read_state(&env, |oid, f| env.db.read(oid, f)),
    }
    .map_err(|e| format!("live state: {e}"))?;
    // Shut the live log down (its flusher drains and exits) before the
    // directory is reopened for recovery.
    drop(built);
    drop(env.wal.take());
    let recovered = match inp.spec.scheme.isolation() {
        Some(iso) => {
            let (heap, _) = MvccHeap::recover(dir, iso, CommitPath::Sharded, WalConfig::default())
                .map_err(|e| format!("mvcc recovery: {e}"))?;
            let snap = Arc::new(heap).snapshot();
            read_state(&env, |oid, f| snap.read(oid, f))
        }
        None => {
            let (db, _) =
                finecc_wal::recover_database(dir).map_err(|e| format!("recovery: {e}"))?;
            if db.len() != live.len() {
                return Err(format!(
                    "recovered {} instances, live store has {}",
                    db.len(),
                    live.len()
                ));
            }
            read_state(&env, |oid, f| db.read(oid, f))
        }
    }
    .map_err(|e| format!("recovered state: {e}"))?;
    match live.iter().zip(&recovered).find(|(a, b)| a != b) {
        Some((a, b)) => Err(format!(
            "recovered state differs from the live one at {:?}: live {:?}, recovered {:?}",
            a.0, a.1, b.1
        )),
        None => Ok(()),
    }
}

/// Reads every field of every instance of `env`'s store through `read`.
fn read_state(
    env: &Env,
    read: impl Fn(Oid, FieldId) -> Result<Value, StoreError>,
) -> Result<State, StoreError> {
    let mut out = Vec::with_capacity(env.db.len());
    for class in env.schema.classes() {
        for oid in env.db.extent(class.id) {
            let vals = class
                .all_fields
                .iter()
                .map(|&f| read(oid, f))
                .collect::<Result<Vec<_>, _>>()?;
            out.push((oid, vals));
        }
    }
    Ok(out)
}

/// The directory a trial's log lives in.
pub fn trial_dir(work: &Path, workload: &str, trial: usize) -> PathBuf {
    work.join(format!("{workload}-{}-{trial}", std::process::id()))
}
