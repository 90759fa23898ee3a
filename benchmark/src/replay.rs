//! Layer replays: the op pool run through one layer at a time, from the
//! benchmark's own code, with no concurrency control around it.
//!
//! A first, untimed pass runs the ops through `Interpreter::send` over a
//! private store and records what the layers below would see: top
//! messages (receiver, class, method), field accesses, and the
//! (resource, mode) requests the TAV scheme makes for them. Timed
//! passes then feed each recording to one layer's public functions.

use crate::run::Inputs;
use finecc_core::CompiledSchema;
use finecc_lang::{DataAccess, ExecError, Interpreter};
use finecc_lock::{CommutSource, LockManager, LockMode, ResourceId};
use finecc_model::{ClassId, FieldId, MethodId, Oid, Value};
use finecc_runtime::Env;
use finecc_sim::workload::{populate_random, TxnOp};
use finecc_store::{Database, UndoLog};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the layers below the interpreter saw, per transaction.
#[derive(Default)]
struct Recording {
    /// Top messages: receiver, its class, the resolved method.
    tops: Vec<(Oid, ClassId, MethodId)>,
    /// End of each transaction's slice of `tops`.
    txn_tops: Vec<usize>,
    /// Field accesses: `None` reads, `Some(v)` writes `v`.
    accesses: Vec<(Oid, FieldId, Option<Value>)>,
    /// The TAV scheme's lock requests.
    locks: Vec<(ResourceId, LockMode)>,
    /// End of each transaction's slice of `locks`.
    txn_locks: Vec<usize>,
}

/// A `DataAccess` straight onto a store, counting what passes through
/// and, when recording, remembering it.
struct Replay<'a> {
    db: &'a Database,
    compiled: &'a CompiledSchema,
    rec: Option<&'a mut Recording>,
    /// Classes covered by a hierarchical domain lock (no instance locks).
    covered: Vec<ClassId>,
    tops: u64,
    self_msgs: u64,
    fields: u64,
}

impl DataAccess for Replay<'_> {
    fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
        self.db.class_of(oid).map_err(Env::store_err)
    }

    fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
        self.fields += 1;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.accesses.push((oid, field, None));
        }
        self.db.read(oid, field).map_err(Env::store_err)
    }

    fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
        self.fields += 1;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.accesses.push((oid, field, Some(value.clone())));
        }
        self.db
            .write(oid, field, value)
            .map(drop)
            .map_err(Env::store_err)
    }

    fn on_message(&mut self, oid: Oid, class: ClassId, mid: MethodId) -> Result<(), ExecError> {
        self.tops += 1;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.tops.push((oid, class, mid));
            let idx = self
                .compiled
                .class(class)
                .index_of_mid(mid)
                .expect("resolved methods have a mode") as u16;
            if !self.covered.contains(&class) {
                rec.locks
                    .push((ResourceId::Class(class), LockMode::class(idx, false)));
                rec.locks
                    .push((ResourceId::Instance(oid, class), LockMode::plain(idx)));
            }
        }
        Ok(())
    }

    fn on_self_message(&mut self, _: Oid, _: ClassId, _: MethodId) -> Result<(), ExecError> {
        self.self_msgs += 1;
        Ok(())
    }
}

impl<'a> Replay<'a> {
    fn new(env: &'a Env, rec: Option<&'a mut Recording>) -> Replay<'a> {
        Replay {
            db: &env.db,
            compiled: &env.compiled,
            rec,
            covered: Vec::new(),
            tops: 0,
            self_msgs: 0,
            fields: 0,
        }
    }

    /// Runs one op the way the TAV scheme would, minus the locking.
    fn op(&mut self, env: &Env, interp: &Interpreter<'_>, op: &TxnOp) -> Result<(), ExecError> {
        self.covered.clear();
        match op {
            TxnOp::One { oid, method, args } => interp.send(self, *oid, method, args).map(drop),
            TxnOp::Some_ {
                root,
                oids,
                method,
                args,
            } => {
                self.domain_locks(env, *root, method, false);
                oids.iter()
                    .try_for_each(|&oid| interp.send(self, oid, method, args).map(drop))
            }
            TxnOp::All { root, method, args } => {
                self.domain_locks(env, *root, method, true);
                self.covered = env.schema.domain(*root).to_vec();
                env.db
                    .deep_extent(*root)
                    .into_iter()
                    .try_for_each(|oid| interp.send(self, oid, method, args).map(drop))
            }
        }
    }

    fn domain_locks(&mut self, env: &Env, root: ClassId, method: &str, hierarchical: bool) {
        if let Some(rec) = self.rec.as_deref_mut() {
            for &c in env.schema.domain(root) {
                if let Some(idx) = self.compiled.class(c).index_of(method) {
                    rec.locks.push((
                        ResourceId::Class(c),
                        LockMode::class(idx as u16, hierarchical),
                    ));
                }
            }
        }
    }
}

/// The layer metrics the replays produce.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerReplay {
    /// Transactions replayed.
    pub txns: usize,
    /// Interpreter time per transaction, µs.
    pub interp_us_per_txn: f64,
    /// Top messages per transaction.
    pub top_msgs_per_txn: f64,
    /// Self-directed messages per transaction.
    pub self_msgs_per_txn: f64,
    /// Field reads and writes per transaction.
    pub field_accesses_per_txn: f64,
    /// `ClassTable::index_of_mid` + `commute`, ns per top message.
    pub mode_lookup_ns: f64,
    /// `Database::read`/`write`, ns per field access.
    pub field_access_ns: f64,
    /// `UndoLog::record_projection`, ns per top message.
    pub undo_capture_ns: f64,
    /// `LockManager::acquire` from one thread, ns per request
    /// (`release_all` per transaction included).
    pub acquire_ns_t1: f64,
    /// The same stream from two threads on one manager, ns per request
    /// per thread.
    pub acquire_ns_t2: f64,
}

/// Each timed replay repeats its recording until it has run this long.
const MIN_TIMED: Duration = Duration::from_millis(150);

/// Repeats `pass` (which returns the operations it did) until
/// [`MIN_TIMED`] has passed; returns ns per operation.
fn timed(mut pass: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while ops == 0 || t0.elapsed() < MIN_TIMED {
        ops += pass();
    }
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn fresh_env(inp: &Inputs) -> Result<Env, String> {
    let env = Env::from_source(&inp.source).map_err(|e| e.to_string())?;
    populate_random(&env, inp.spec.per_class);
    Ok(env)
}

fn interpreter(env: &Env) -> Interpreter<'_> {
    let mut i = Interpreter::new(&env.schema, &env.bodies, &env.builtins);
    i.max_depth = env.max_depth;
    i.max_fuel = env.max_fuel;
    i
}

/// Runs every layer replay over the first `replay_ops` ops of the pool.
pub fn replay(inp: &Inputs) -> Result<LayerReplay, String> {
    let env = fresh_env(inp)?;
    let interp = interpreter(&env);
    let ops = &inp.pool[..inp.spec.replay_ops.min(inp.pool.len())];
    let mut out = LayerReplay {
        txns: ops.len(),
        ..LayerReplay::default()
    };
    let n = ops.len() as f64;

    // Recording pass (untimed): exact counts, and the streams below.
    let mut rec = Recording::default();
    let (tops, self_msgs, fields) = {
        let mut r = Replay::new(&env, Some(&mut rec));
        for op in ops {
            r.op(&env, &interp, op)
                .map_err(|e| format!("replay of {op:?}: {e}"))?;
            let rec = r.rec.as_deref_mut().expect("recording");
            rec.txn_tops.push(rec.tops.len());
            rec.txn_locks.push(rec.locks.len());
        }
        (r.tops, r.self_msgs, r.fields)
    };
    out.top_msgs_per_txn = tops as f64 / n;
    out.self_msgs_per_txn = self_msgs as f64 / n;
    out.field_accesses_per_txn = fields as f64 / n;

    // lang: the interpreter over a store, nothing else.
    let mut err = None;
    out.interp_us_per_txn = timed(|| {
        let mut r = Replay::new(&env, None);
        for op in ops {
            if let Err(e) = r.op(&env, &interp, op) {
                err.get_or_insert(e);
            }
        }
        ops.len() as u64
    }) / 1e3;
    if let Some(e) = err {
        return Err(format!("timed replay: {e}"));
    }

    // core: mode lookup and one commutativity check per top message.
    let mut last = vec![0usize; env.schema.class_count()];
    out.mode_lookup_ns = timed(|| {
        let mut commuting = 0u64;
        for &(_, class, mid) in &rec.tops {
            let table = env.compiled.class(class);
            let idx = table.index_of_mid(mid).unwrap_or(0);
            commuting += table.commute(idx, last[class.index()]) as u64;
            last[class.index()] = idx;
        }
        black_box(commuting);
        rec.tops.len() as u64
    });

    // store: the recorded field accesses, then undo capture.
    out.field_access_ns = timed(|| {
        for (oid, field, write) in &rec.accesses {
            match write {
                None => drop(black_box(env.db.read(*oid, *field))),
                Some(v) => drop(black_box(env.db.write(*oid, *field, v.clone()))),
            }
        }
        rec.accesses.len() as u64
    });
    let mut undo = UndoLog::new();
    out.undo_capture_ns = timed(|| {
        let mut start = 0;
        for &end in &rec.txn_tops {
            for &(oid, class, mid) in &rec.tops[start..end] {
                let table = env.compiled.class(class);
                let idx = table.index_of_mid(mid).unwrap_or(0);
                let _ =
                    black_box(undo.record_projection(&env.db, oid, table.tav(idx).write_fields()));
            }
            undo.clear();
            start = end;
        }
        rec.tops.len() as u64
    });

    // lock: the TAV request stream into a standalone manager.
    let txns: Vec<&[(ResourceId, LockMode)]> = {
        let mut start = 0;
        rec.txn_locks
            .iter()
            .map(|&end| {
                let s = &rec.locks[start..end];
                start = end;
                s
            })
            .collect()
    };
    let manager = || {
        LockManager::new(CommutSource::new(Arc::clone(&env.compiled)))
            .with_timeout(Duration::from_secs(1))
    };
    let lm = manager();
    out.acquire_ns_t1 = timed(|| lock_pass(&lm, &txns, 0));
    let lm = manager();
    let t0 = Instant::now();
    let mut acquires = 0u64;
    while acquires == 0 || t0.elapsed() < MIN_TIMED {
        acquires += std::thread::scope(|s| {
            let lm = &lm;
            let txns = &txns;
            let hs: Vec<_> = (0..2)
                .map(|k| s.spawn(move || lock_pass(lm, txns, k * txns.len() / 2)))
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("lock replay thread"))
                .sum::<u64>()
        });
    }
    out.acquire_ns_t2 = t0.elapsed().as_nanos() as f64 * 2.0 / acquires.max(1) as f64;
    Ok(out)
}

/// One pass over the request stream, starting at transaction `from`:
/// one `acquire` per request, one `release_all` per transaction. A
/// deadlock victim releases and moves on. Returns the requests made.
fn lock_pass(
    lm: &LockManager<CommutSource>,
    txns: &[&[(ResourceId, LockMode)]],
    from: usize,
) -> u64 {
    let mut n = 0u64;
    for k in 0..txns.len() {
        let id = lm.begin();
        for &(res, mode) in txns[(from + k) % txns.len()] {
            n += 1;
            if lm.acquire(id, res, mode).is_err() {
                break;
            }
        }
        lm.release_all(id);
    }
    n
}
