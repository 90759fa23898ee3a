//! The four workloads: scheme, durability, store size, traffic mix.
//!
//! The schema is part of a workload's definition (a fixed generator
//! seed, like a fixed table layout), so run-to-run differences come
//! from the traffic, not from a different program. `--seed` drives the
//! op generator only.

use finecc_runtime::{DurabilityLevel, SchemeKind};
use finecc_sim::workload::{SchemaGenConfig, TxnMix, WorkloadConfig};

/// Operations in the op pool each trial cycles through.
pub const POOL_OPS: usize = 65_536;
/// Instances per some-of-domain transaction.
const SOME_SIZE: usize = 3;

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// The concurrency-control scheme.
    pub scheme: SchemeKind,
    /// The durability level.
    pub durability: DurabilityLevel,
    /// Classes in the generated schema.
    pub classes: usize,
    /// Instances created per class.
    pub per_class: usize,
    /// Seed of the schema generator.
    pub schema_seed: u64,
    /// Access-pattern mix.
    pub mix: TxnMix,
    /// Share of instance picks that fall in the hot set.
    pub hot_frac: f64,
    /// Hot-set size (the first OIDs of the store).
    pub hot_set: usize,
    /// Transactions one trial executes.
    pub txns_per_trial: usize,
    /// Ops of the pool the traced run's layer replays execute.
    pub replay_ops: usize,
    /// Ops in the pool.
    pub pool_ops: usize,
}

const POINT_HEAVY: TxnMix = TxnMix {
    one: 0.90,
    some: 0.10,
    all: 0.0,
};

/// Every workload, in report order.
pub fn all() -> Vec<Spec> {
    let big_store = Spec {
        name: "tav-hot",
        scheme: SchemeKind::Tav,
        durability: DurabilityLevel::None,
        classes: 40,
        per_class: 2_500,
        schema_seed: 11,
        mix: TxnMix {
            one: 0.95,
            some: 0.05,
            all: 0.0,
        },
        hot_frac: 0.5,
        hot_set: 64,
        txns_per_trial: 400_000,
        replay_ops: 32_768,
        pool_ops: POOL_OPS,
    };
    vec![
        big_store.clone(),
        Spec {
            name: "rw-domain",
            scheme: SchemeKind::Rw,
            classes: 10,
            per_class: 100,
            schema_seed: 5,
            mix: TxnMix {
                one: 0.80,
                some: 0.15,
                all: 0.05,
            },
            hot_frac: 0.3,
            hot_set: 8,
            txns_per_trial: 60_000,
            replay_ops: 8_192,
            ..big_store.clone()
        },
        Spec {
            name: "ssi-wal",
            scheme: SchemeKind::MvccSsi,
            durability: DurabilityLevel::Wal,
            mix: POINT_HEAVY,
            hot_frac: 0.2,
            txns_per_trial: 200_000,
            ..big_store.clone()
        },
        Spec {
            name: "tav-walsync",
            durability: DurabilityLevel::WalSync,
            mix: POINT_HEAVY,
            hot_frac: 0.2,
            txns_per_trial: 40_000,
            ..big_store
        },
    ]
}

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        all().into_iter().find(|s| s.name == name)
    }

    /// Shrinks the workload for smoke tests: a small store, short
    /// trials, a small pool.
    pub fn tiny(mut self) -> Spec {
        self.per_class = (self.per_class / 100).max(4);
        self.txns_per_trial = 300;
        self.replay_ops = 200;
        self.pool_ops = 1_024;
        self.hot_set = self.hot_set.min(8);
        self
    }

    /// The schema generator's configuration.
    pub fn schema_config(&self) -> SchemaGenConfig {
        SchemaGenConfig {
            classes: self.classes,
            seed: self.schema_seed,
            ..SchemaGenConfig::default()
        }
    }

    /// The op generator's configuration for `seed`.
    pub fn workload_config(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            txns: self.pool_ops,
            hot_frac: self.hot_frac,
            hot_set: self.hot_set,
            some_size: SOME_SIZE,
            mix: self.mix,
            seed,
        }
    }
}
