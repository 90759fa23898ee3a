//! Spans around every call the benchmark makes into a scheme.
//!
//! A traced client runs the same retry loop as `finecc_runtime::run_txn_with`
//! (same budget, same backoff), spelled out so that `begin`, the send,
//! `commit` and `abort` can each be timed. Every call's duration goes
//! into a per-call histogram; the full span records (name, start, end,
//! parent, trial and request id) of one request in [`KEEP_EVERY`] stay
//! in memory and are written out when the run ends. A request's self
//! time is its root span minus the calls inside it: the client loop's
//! own work, backoff included.

use crate::hist::Hist;
use finecc_runtime::{CcScheme, RetryPolicy, TxnOutcome};
use finecc_sim::workload::TxnOp;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Keep the span records of one request in this many.
const KEEP_EVERY: u64 = 64;
/// Most span records one client keeps.
const KEEP_CAP: usize = 20_000;

/// One timed call. Times are ns since the trial's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Trial the request ran in.
    pub trial: u32,
    /// Request id (the op's position in the trial), shared by the
    /// request's spans.
    pub req: u64,
    /// Call name: `txn` (the request), `begin`, `send`, `send_some`,
    /// `send_all`, `commit`, `abort`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the parent span in the same buffer (`None` for a root).
    pub parent: Option<usize>,
}

/// A client's spans and per-call histograms.
pub struct Tracer {
    epoch: Instant,
    trial: u32,
    /// `begin` durations, ns.
    pub begin: Hist,
    /// `send`/`send_some`/`send_all` durations, ns.
    pub send: Hist,
    /// `commit` durations, ns.
    pub commit: Hist,
    /// `abort` durations, ns.
    pub abort: Hist,
    /// Request self time (root span minus its calls), ns.
    pub txn_self: Hist,
    /// Begins issued (attempts).
    pub attempts: u64,
    /// Kept span records.
    pub spans: Vec<Span>,
}

fn send_name(op: &TxnOp) -> &'static str {
    match op {
        TxnOp::One { .. } => "send",
        TxnOp::Some_ { .. } => "send_some",
        TxnOp::All { .. } => "send_all",
    }
}

impl Tracer {
    /// A tracer for trial `trial`, whose span times count from `epoch`.
    pub fn new(epoch: Instant, trial: u32) -> Tracer {
        Tracer {
            epoch,
            trial,
            begin: Hist::default(),
            send: Hist::default(),
            commit: Hist::default(),
            abort: Hist::default(),
            txn_self: Hist::default(),
            attempts: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one call that ran from `t0` to `t1`; returns its length.
    fn call(
        &mut self,
        keep: Option<(u64, usize)>,
        name: &'static str,
        t0: Instant,
        t1: Instant,
    ) -> u64 {
        let d = t1.duration_since(t0).as_nanos() as u64;
        match name {
            "begin" => self.begin.record(d),
            "commit" => self.commit.record(d),
            "abort" => self.abort.record(d),
            _ => self.send.record(d),
        }
        if let Some((req, root)) = keep {
            self.spans.push(Span {
                trial: self.trial,
                req,
                name,
                start: self.ns(t0),
                end: self.ns(t1),
                parent: Some(root),
            });
        }
        d
    }

    /// Runs `op` as request `req`, retrying retryable aborts as
    /// `run_txn_with` does under `policy`.
    pub fn txn(
        &mut self,
        scheme: &dyn CcScheme,
        op: &TxnOp,
        req: u64,
        policy: RetryPolicy,
    ) -> TxnOutcome<()> {
        let start = Instant::now();
        let keep = (req.is_multiple_of(KEEP_EVERY) && self.spans.len() < KEEP_CAP).then(|| {
            self.spans.push(Span {
                trial: self.trial,
                req,
                name: "txn",
                start: self.ns(start),
                end: 0,
                parent: None,
            });
            (req, self.spans.len() - 1)
        });
        let mut inside = 0u64;
        let mut retries = 0;
        let outcome = loop {
            self.attempts += 1;
            let t0 = Instant::now();
            let mut txn = scheme.begin();
            let t1 = Instant::now();
            inside += self.call(keep, "begin", t0, t1);
            let res = op.run(scheme, &mut txn);
            let t2 = Instant::now();
            inside += self.call(keep, send_name(op), t1, t2);
            let err = match res {
                Ok(()) => {
                    let res = scheme.commit(txn);
                    inside += self.call(keep, "commit", t2, Instant::now());
                    match res {
                        Ok(_) => break TxnOutcome::Committed { value: (), retries },
                        Err(e) => e,
                    }
                }
                Err(e) => {
                    scheme.abort(txn);
                    inside += self.call(keep, "abort", t2, Instant::now());
                    e
                }
            };
            if !err.is_retryable() {
                break TxnOutcome::Failed(err);
            }
            retries += 1;
            if retries > policy.max_retries {
                break TxnOutcome::Exhausted { retries };
            }
            for _ in 0..retries.min(8).saturating_mul(policy.backoff_unit) {
                std::thread::yield_now();
            }
        };
        let end = Instant::now();
        self.txn_self
            .record((end.duration_since(start).as_nanos() as u64).saturating_sub(inside));
        if let Some((_, root)) = keep {
            self.spans[root].end = self.ns(end);
        }
        outcome
    }

    /// Adds `tr` to the tracer in `slot`, or puts it there when empty.
    pub fn absorb(slot: &mut Option<Tracer>, tr: Tracer) {
        match slot {
            Some(all) => all.merge(tr),
            None => *slot = Some(tr),
        }
    }

    /// Adds another tracer's histograms and spans (parent indices
    /// rebased).
    fn merge(&mut self, other: Tracer) {
        self.begin.merge(&other.begin);
        self.send.merge(&other.send);
        self.commit.merge(&other.commit);
        self.abort.merge(&other.abort);
        self.txn_self.merge(&other.txn_self);
        self.attempts += other.attempts;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes the kept spans as CSV
    /// (`trial,req,name,start_ns,end_ns,parent`, parent being a row
    /// index or empty). Returns the rows written.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "trial,req,name,start_ns,end_ns,parent")?;
        for s in &self.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.trial, s.req, s.name, s.start, s.end, parent
            )?;
        }
        w.flush()?;
        Ok(self.spans.len())
    }
}
