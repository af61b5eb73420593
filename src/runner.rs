//! Uniform runner over every execution approach the paper compares: each
//! [`Approach`] becomes a [`PhysicalPlan`] ([`Approach::plan`]) that the one
//! driver, [`ntga_core::execute_plan`], runs.

use mr_rdf::{load_store, PlanError, QueryRun, TRIPLES_FILE};
use mrsim::{CostModel, Engine, FaultConfig, MrError, RecoveryPolicy, SimHdfs, TraceSink};
use ntga_core::{execute_plan, OptimizerConfig, PhysicalPlan, Strategy};
use rdf_model::TripleStore;
use rdf_query::Query;
use std::sync::Arc;

/// An execution approach from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Apache-Pig-like relational plan.
    Pig,
    /// Apache-Hive-like relational plan (Figure 3's SJ-per-cycle grouping).
    Hive,
    /// Figure 3's Sel-SJ-first grouping of a two-star query.
    SelSjFirst,
    /// NTGA with eager β-unnesting.
    NtgaEager,
    /// NTGA with lazy full β-unnesting (`TG_UnbJoin`).
    NtgaLazyFull,
    /// NTGA with lazy partial β-unnesting (`TG_OptUnbJoin`, `φ_m`).
    NtgaLazyPartial(u64),
    /// NTGA with the paper's recommended policy (full for partially-bound
    /// objects, partial otherwise).
    NtgaAuto(u64),
    /// NTGA with cost-based plan selection: per-star unnest placement,
    /// per-cycle exact/partial/broadcast choice and reducer sizing derived
    /// from [`rdf_model::StoreStats`] and the engine's cost model.
    NtgaAutoCost,
}

impl Approach {
    /// Report label.
    pub fn label(self) -> String {
        match self {
            Approach::Pig => "Pig".into(),
            Approach::Hive => "Hive".into(),
            Approach::SelSjFirst => "Sel-SJ-first".into(),
            Approach::NtgaEager => "EagerUnnest".into(),
            Approach::NtgaLazyFull => "LazyUnnest-full".into(),
            Approach::NtgaLazyPartial(m) => format!("LazyUnnest-phi{m}"),
            Approach::NtgaAuto(m) => format!("LazyUnnest-auto{m}"),
            Approach::NtgaAutoCost => "CostBased".into(),
        }
    }

    /// What [`Approach::from_str`](std::str::FromStr::from_str) accepts —
    /// the grammar of `ntga-cli --approach`. `M` is the φ range and
    /// defaults to 1024.
    pub const GRAMMAR: &'static str = "pig | hive | sel-sj-first | eager | lazy | lazyfull | \
        lazy-full | partial[:M] | lazy-partial[:M] | auto[:M] | auto-cost | cost";

    /// The plan this approach runs `query` with on `engine`: the one place
    /// an approach becomes a plan. Only the cost-based approach reads
    /// `engine`: it optimizes under the engine's cost model and broadcast
    /// budget for the statistics of the relation at [`TRIPLES_FILE`].
    pub fn plan(self, query: &Query, engine: &Engine) -> Result<PhysicalPlan, PlanError> {
        match self {
            Approach::Pig => PhysicalPlan::pig(query),
            Approach::Hive => PhysicalPlan::hive(query),
            Approach::SelSjFirst => PhysicalPlan::sel_sj_first(query),
            Approach::NtgaEager => Strategy::Eager.plan(query),
            Approach::NtgaLazyFull => Strategy::LazyFull.plan(query),
            Approach::NtgaLazyPartial(m) => Strategy::LazyPartial(m).plan(query),
            Approach::NtgaAuto(m) => Strategy::Auto(m).plan(query),
            Approach::NtgaAutoCost => {
                let stats = mr_rdf::analyze(engine, TRIPLES_FILE)
                    .map_err(|e| PlanError::Internal(format!("reading {TRIPLES_FILE}: {e}")))?;
                let config = OptimizerConfig::for_engine(engine);
                ntga_core::optimize(query, &stats, &engine.cost, &config)
            }
        }
    }
}

impl std::str::FromStr for Approach {
    type Err = String;

    fn from_str(spec: &str) -> Result<Approach, String> {
        let (name, param) = match spec.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (spec, None),
        };
        let m = || match param.unwrap_or("1024").parse() {
            Ok(m) if m > 0 => Ok(m),
            _ => Err(format!("bad φ range in '{spec}'")),
        };
        // An approach without a φ range refuses one rather than drop it.
        let fixed = |approach| match param {
            None => Ok(approach),
            Some(_) => Err(format!("'{name}' takes no φ range, in '{spec}'")),
        };
        match name {
            "pig" => fixed(Approach::Pig),
            "hive" => fixed(Approach::Hive),
            "sel-sj-first" => fixed(Approach::SelSjFirst),
            "eager" => fixed(Approach::NtgaEager),
            "lazy" | "lazyfull" | "lazy-full" => fixed(Approach::NtgaLazyFull),
            "partial" | "lazy-partial" => Ok(Approach::NtgaLazyPartial(m()?)),
            "auto" => Ok(Approach::NtgaAuto(m()?)),
            "auto-cost" | "cost" => fixed(Approach::NtgaAutoCost),
            other => Err(format!("unknown approach '{other}' (expected {})", Approach::GRAMMAR)),
        }
    }
}

/// Run one query with one approach against a triple relation already
/// loaded at [`TRIPLES_FILE`].
pub fn run_query(
    approach: Approach,
    engine: &Engine,
    query: &Query,
    label: &str,
    extract_solutions: bool,
) -> Result<QueryRun, PlanError> {
    let plan = approach.plan(query, engine)?;
    let label = format!("{}-{label}", approach.label());
    execute_plan(&plan, engine, TRIPLES_FILE, &label, extract_solutions)
}

/// Describes the simulated cluster for an experiment.
#[derive(Clone)]
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
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("nodes", &self.nodes)
            .field("disk_per_node", &self.disk_per_node)
            .field("replication", &self.replication)
            .field("cost", &self.cost)
            .field("faults", &self.faults)
            .field("recovery", &self.recovery)
            .field("workers", &self.workers)
            .field("trace", &self.trace.as_ref().map(|_| "<sink>"))
            .finish()
    }
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
        }
    }
}

impl ClusterConfig {
    /// Build a fresh engine with the triple store loaded at
    /// [`TRIPLES_FILE`]; `DiskFull` when the input alone does not fit the
    /// configured disk, [`MrError::Op`] for a replication factor of 0.
    pub fn try_engine_with(&self, store: &TripleStore) -> Result<Engine, MrError> {
        if self.replication == 0 {
            return Err(MrError::Op("cluster replication factor must be >= 1".into()));
        }
        let capacity = u64::from(self.nodes).saturating_mul(self.disk_per_node);
        let mut engine = Engine::new(SimHdfs::new(capacity, self.replication))
            .with_cost(self.cost.clone())
            .with_faults(self.faults.clone())
            .with_recovery(self.recovery);
        if let Some(workers) = self.workers {
            engine = engine.with_workers(workers);
        }
        if let Some(sink) = &self.trace {
            engine = engine.with_trace(sink.clone());
        }
        load_store(&engine, TRIPLES_FILE, store)?;
        Ok(engine)
    }

    /// [`try_engine_with`](Self::try_engine_with) for configurations known
    /// to hold their input.
    ///
    /// # Panics
    /// Panics when the input does not fit the configured disk.
    pub fn engine_with(&self, store: &TripleStore) -> Engine {
        self.try_engine_with(store).expect("input must fit in the cluster")
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
    fn all_approaches_run_and_agree() {
        let q =
            rdf_query::parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }")
                .unwrap();
        let store = store();
        let gold = rdf_query::naive::evaluate(&q, &store);
        for approach in [
            Approach::Pig,
            Approach::Hive,
            Approach::SelSjFirst,
            Approach::NtgaEager,
            Approach::NtgaLazyFull,
            Approach::NtgaLazyPartial(16),
            Approach::NtgaAuto(16),
            Approach::NtgaAutoCost,
        ] {
            let engine = ClusterConfig::default().engine_with(&store);
            let run = run_query(approach, &engine, &q, "t", true).unwrap();
            assert!(run.succeeded(), "{approach:?}");
            assert_eq!(run.solutions.unwrap(), gold, "{approach:?}");
        }
    }

    #[test]
    fn tight_disk_fails_relational_only() {
        let q =
            rdf_query::parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }")
                .unwrap();
        let store = store();
        // Just enough room for input + tiny intermediates.
        let cfg = ClusterConfig { replication: 1, ..Default::default() }.tight_disk(&store, 1.6);
        let engine = cfg.engine_with(&store);
        let pig = run_query(Approach::Pig, &engine, &q, "t", false).unwrap();
        assert!(!pig.succeeded());
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

    #[test]
    fn zero_replication_is_a_typed_error() {
        let cfg = ClusterConfig { replication: 0, ..Default::default() };
        let err = cfg.try_engine_with(&store()).err().expect("no copy of any block");
        assert!(matches!(&err, MrError::Op(m) if m.contains("replication")), "{err}");
    }

    #[test]
    fn every_spelling_parses_and_is_in_the_grammar() {
        for (spelling, approach) in [
            ("pig", Approach::Pig),
            ("hive", Approach::Hive),
            ("sel-sj-first", Approach::SelSjFirst),
            ("eager", Approach::NtgaEager),
            ("lazy", Approach::NtgaLazyFull),
            ("lazyfull", Approach::NtgaLazyFull),
            ("lazy-full", Approach::NtgaLazyFull),
            ("partial", Approach::NtgaLazyPartial(1024)),
            ("partial:8", Approach::NtgaLazyPartial(8)),
            ("lazy-partial:8", Approach::NtgaLazyPartial(8)),
            ("auto", Approach::NtgaAuto(1024)),
            ("auto:8", Approach::NtgaAuto(8)),
            ("auto-cost", Approach::NtgaAutoCost),
            ("cost", Approach::NtgaAutoCost),
        ] {
            assert_eq!(spelling.parse(), Ok(approach), "{spelling}");
            let name = spelling.split(':').next().unwrap();
            assert!(Approach::GRAMMAR.contains(name), "{name} missing from the usage grammar");
        }
        let err = "bogus".parse::<Approach>().unwrap_err();
        assert!(err.contains("unknown approach") && err.contains(Approach::GRAMMAR), "{err}");
        for spelling in ["partial:x", "partial:0", "lazy-partial:0", "auto:0"] {
            let err = spelling.parse::<Approach>().unwrap_err();
            assert_eq!(err, format!("bad φ range in '{spelling}'"));
        }
        for spelling in ["eager:16", "pig:8", "lazy-full:2", "auto-cost:4", "hive:"] {
            let err = spelling.parse::<Approach>().unwrap_err();
            let name = spelling.split(':').next().unwrap();
            assert_eq!(err, format!("'{name}' takes no φ range, in '{spelling}'"));
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<String> = [
            Approach::Pig,
            Approach::Hive,
            Approach::SelSjFirst,
            Approach::NtgaEager,
            Approach::NtgaLazyFull,
            Approach::NtgaLazyPartial(2),
            Approach::NtgaAuto(2),
            Approach::NtgaAutoCost,
        ]
        .iter()
        .map(|a| a.label())
        .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }
}
