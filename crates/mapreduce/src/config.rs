//! How a simulated cluster is described: [`ClusterConfig`] is the one value
//! an [`Engine`] is built from, and [`Engine::new`] checks it once.

use crate::cost::CostModel;
use crate::engine::{Engine, DEFAULT_BROADCAST_BUDGET_BYTES};
use crate::error::MrError;
use crate::faults::FaultConfig;
use crate::trace::TraceSink;
use crate::triples::{load_store, TRIPLES_FILE};
use crate::workflow::RecoveryPolicy;
use rdf_model::TripleStore;
use std::sync::Arc;

/// Describes the simulated cluster for an experiment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (the paper uses 5–80).
    pub nodes: u32,
    /// Disk bytes per node (the paper's VCL nodes had only 20 GB);
    /// `u64::MAX`, the default, is an unbounded disk at any node count.
    pub disk_per_node: u64,
    /// HDFS replication factor (`dfs.replication`; 1 or 2 in the paper).
    pub replication: u32,
    /// Cost model.
    pub cost: CostModel,
    /// Deterministic fault injection applied to every engine this config
    /// builds (default: no faults).
    pub faults: FaultConfig,
    /// Recovery policy workflows inherit (default: fail fast, the paper's
    /// behavior).
    pub recovery: RecoveryPolicy,
    /// Worker-thread override; `None` uses one worker per core.
    pub workers: Option<usize>,
    /// Optional trace sink attached to every engine this config builds;
    /// `None` keeps tracing disabled (and free).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Memory budget (bytes) for a job's broadcast side files — the
    /// simulated distributed cache a task must hold in memory. A job whose
    /// declared broadcast payload exceeds this fails with
    /// [`MrError::BroadcastTooLarge`]; the optimizer uses the same bound
    /// as its broadcast-join threshold.
    pub broadcast_budget_bytes: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 60,
            disk_per_node: u64::MAX,
            replication: 1,
            cost: CostModel::default(),
            faults: FaultConfig::none(),
            recovery: RecoveryPolicy::FailFast,
            workers: None,
            trace: None,
            broadcast_budget_bytes: DEFAULT_BROADCAST_BUDGET_BYTES,
        }
    }
}

impl ClusterConfig {
    /// Build a fresh engine with the triple store loaded at [`TRIPLES_FILE`];
    /// [`Engine::new`]'s [`MrError::Op`] for a setting out of range,
    /// `DiskFull` when the input alone does not fit the configured disk.
    pub fn try_engine_with(&self, store: &TripleStore) -> Result<Engine, MrError> {
        let engine = Engine::new(self.clone())?;
        load_store(&engine, TRIPLES_FILE, store)?;
        Ok(engine)
    }

    /// [`try_engine_with`](Self::try_engine_with) for configurations known
    /// to be valid and to hold their input.
    ///
    /// # Panics
    /// Panics when a setting is out of range or the input does not fit the
    /// configured disk.
    pub fn engine_with(&self, store: &TripleStore) -> Engine {
        self.try_engine_with(store).expect("the cluster must be valid and hold its input")
    }

    /// Attach a trace sink to every engine built from this config.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Enable deterministic fault injection on every engine built from
    /// this config.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Set the recovery policy workflows inherit.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Pin the worker-thread count (simulated runs are deterministic
    /// either way; this exercises scheduling variety in tests).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Constrain the disk to `factor ×` the input's replicated size — the
    /// way the paper's 20 GB-per-node clusters were tight relative to
    /// their datasets.
    pub fn tight_disk(mut self, store: &TripleStore, factor: f64) -> Self {
        let input = store.text_bytes() * u64::from(self.replication);
        let total = (input as f64 * factor) as u64;
        self.disk_per_node = (total / u64::from(self.nodes.max(1))).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::STriple;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<go1>", "<gl>", "\"x\""),
        ])
    }

    #[test]
    fn every_out_of_range_setting_is_refused_by_name() {
        let faulty = |faults| ClusterConfig::default().with_faults(faults);
        let none = FaultConfig::none;
        let mut rows = vec![
            ("nodes", ClusterConfig { nodes: 0, ..Default::default() }),
            ("replication", ClusterConfig { replication: 0, ..Default::default() }),
            ("workers", ClusterConfig::default().with_workers(0)),
            ("max_attempts", faulty(none().with_max_attempts(0))),
            ("straggler_slowdown", faulty(none().with_stragglers(0.1, 0.5))),
            ("straggler_slowdown", faulty(none().with_stragglers(0.1, f64::NAN))),
            ("speculative_multiple", faulty(none().with_speculation(-0.1))),
            ("speculative_multiple", faulty(none().with_speculation(f64::NAN))),
        ];
        let cost = |cost| ClusterConfig { cost, ..Default::default() };
        let model = CostModel::default;
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            rows.extend([
                ("hdfs_read_bps", cost(CostModel { hdfs_read_bps: bad, ..model() })),
                ("hdfs_write_bps", cost(CostModel { hdfs_write_bps: bad, ..model() })),
                ("shuffle_bps", cost(CostModel { shuffle_bps: bad, ..model() })),
            ]);
        }
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            rows.extend([
                ("job_startup_s", cost(CostModel { job_startup_s: bad, ..model() })),
                ("sort_s_per_byte_log", cost(CostModel { sort_s_per_byte_log: bad, ..model() })),
                ("map_cpu_s_per_record", cost(CostModel { map_cpu_s_per_record: bad, ..model() })),
                (
                    "reduce_cpu_s_per_record",
                    cost(CostModel { reduce_cpu_s_per_record: bad, ..model() }),
                ),
            ]);
        }
        for p in [1.0, -0.1, f64::NAN] {
            rows.extend([
                ("task_failure_probability", faulty(FaultConfig::with_probability(p, 0))),
                ("node_loss_probability", faulty(none().with_node_loss(p))),
                ("straggler_probability", faulty(none().with_stragglers(p, 6.0))),
                ("corruption_probability", faulty(none().with_corruption(p))),
            ]);
        }
        for (field, config) in rows {
            // Refused by `Engine::new`, and so before `try_engine_with`
            // loads anything.
            let errs = [Engine::new(config.clone()).err(), config.try_engine_with(&store()).err()];
            for err in errs {
                let err = err.unwrap_or_else(|| panic!("{field}: {config:?} was accepted"));
                assert!(matches!(&err, MrError::Op(m) if m.contains(field)), "{field}: {err}");
            }
        }
        // Both ends of every range are in it, and speculation at 0 is off.
        let edge = FaultConfig::with_probability(0.0, 0)
            .with_max_attempts(1)
            .with_stragglers(0.999, 1.0)
            .with_speculation(0.0);
        let engine =
            Engine::new(ClusterConfig { nodes: 1, ..Default::default() }.with_faults(edge));
        assert_eq!(engine.unwrap().faults.straggler_outcome(), (1.0, false, false));
        // `Engine::unbounded` builds the default, which is in range, and so
        // are the scaled and unit-test cost models, zero costs included.
        assert!(Engine::new(ClusterConfig::default().with_workers(1)).is_ok());
        for model in [CostModel::scaled_to(0), CostModel::zero_overhead()] {
            assert!(Engine::new(cost(model)).is_ok());
        }
    }

    #[test]
    fn default_disk_is_unbounded_at_any_node_count() {
        // Regression: "unbounded" used to be recognised by comparing
        // `disk_per_node` with `u64::MAX / nodes`, so overriding `nodes`
        // alone overflowed `nodes * disk_per_node` (debug: panic; release:
        // a silently wrapped, bounded cluster).
        let store = store();
        for nodes in [1, 5, 60, 80, u32::MAX] {
            let engine = ClusterConfig { nodes, ..Default::default() }.engine_with(&store);
            assert_eq!(engine.hdfs().lock().capacity(), u64::MAX, "{nodes} nodes");
        }
        // A bounded disk stays the product, whichever way `nodes` moves.
        for nodes in [5, 80] {
            let cfg = ClusterConfig { nodes, disk_per_node: 1 << 20, ..Default::default() };
            let capacity = cfg.engine_with(&store).hdfs().lock().capacity();
            assert_eq!(capacity, u64::from(nodes) << 20);
        }
    }

    #[test]
    fn input_that_does_not_fit_is_a_typed_error() {
        let store = store();
        let cfg = ClusterConfig { nodes: 1, ..Default::default() }.tight_disk(&store, 0.5);
        let err = cfg.try_engine_with(&store).err().expect("half the input cannot fit");
        assert!(err.is_disk_full(), "{err}");
    }
}
