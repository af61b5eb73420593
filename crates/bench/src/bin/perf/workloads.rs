//! The four workloads, their set-up (datasets, oracle check, verification
//! run) and the execution of one op.
//!
//! An *op* is one cell — one `(query, Approach)` — run by `run_query` on a
//! fresh engine; a *pass* runs the workload's cell list once, in order.

use crate::spans::ms_since;
use mr_rdf::QueryRun;
use mrsim::{FaultConfig, RecoveryPolicy, WorkflowStats};
use ntga::testbed::{self, TestQuery};
use ntga::{run_query, Approach, ClusterConfig};
use rdf_model::TripleStore;
use rdf_query::SolutionSet;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// BSBM-like; `scale` is the product count. Runs the B-series.
    Bsbm,
    /// Bio2RDF-like; `scale` is the gene count. Runs the A-series.
    Bio2Rdf,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Dataset scale the passes run at.
    pub scale: usize,
    /// Resolve the final output to a `SolutionSet` inside `run_query`.
    pub extract: bool,
    /// Inject task failures, node loss and corruption, and recover.
    pub chaos: bool,
    pub cells: &'static [(&'static str, Approach)],
}

const AUTO: Approach = Approach::NtgaAuto(1024);

/// Scales are frozen so that a pass takes 0.3–0.4 s on the reference box
/// (2 vCPU): the 20 s a run measures hold fifty-odd passes, and the forty
/// that `pass_ms_p75` needs still fit the driver's time cap when the
/// machine runs half as fast, as it sometimes does (README, *Load shape*).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ntga_multicycle",
        dataset: Dataset::Bsbm,
        scale: 320,
        extract: false,
        chaos: false,
        cells: &[
            ("B1", Approach::NtgaLazyFull),
            ("B1", AUTO),
            ("B1", Approach::NtgaEager),
            ("B3", Approach::NtgaLazyFull),
            ("B3", AUTO),
            ("B5", AUTO),
            ("B6", AUTO),
        ],
    },
    Workload {
        name: "relational_flat",
        dataset: Dataset::Bsbm,
        scale: 200,
        extract: false,
        chaos: false,
        cells: &[
            ("B0", Approach::Pig),
            ("B0", Approach::Hive),
            ("B1", Approach::Pig),
            ("B1", Approach::Hive),
            ("B4", Approach::Pig),
            ("B4", Approach::Hive),
        ],
    },
    Workload {
        name: "explore_extract",
        dataset: Dataset::Bio2Rdf,
        scale: 750,
        extract: true,
        chaos: false,
        cells: &[
            ("A1", AUTO),
            ("A1", Approach::NtgaAutoCost),
            ("A1", Approach::Hive),
            ("A2", AUTO),
            ("A2", Approach::NtgaAutoCost),
            ("A2", Approach::Hive),
            ("A5", AUTO),
            ("A5", Approach::NtgaAutoCost),
            ("A5", Approach::Hive),
            ("A6", AUTO),
            ("A6", Approach::NtgaAutoCost),
            ("A6", Approach::Hive),
        ],
    },
    Workload {
        name: "chaos_recovery",
        dataset: Dataset::Bsbm,
        scale: 190,
        extract: false,
        chaos: true,
        cells: &[("B1", AUTO), ("B1", Approach::Hive), ("B5", AUTO), ("B5", Approach::Hive)],
    },
];

/// Engine worker threads: the reference box's core count, and never more
/// than this machine's.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

const DRAWS: u64 = 15;

impl Dataset {
    fn generate(self, scale: usize, seed: u64) -> TripleStore {
        match self {
            Dataset::Bsbm => {
                datagen::bsbm::generate(&datagen::BsbmConfig::with_products(scale).with_seed(seed))
            }
            Dataset::Bio2Rdf => datagen::bio2rdf::generate(
                &datagen::Bio2RdfConfig::with_genes(scale).with_seed(seed),
            ),
        }
    }

    /// The benchmark-scale dataset for `seed`: the median-sized of
    /// [`DRAWS`] datasets drawn from it. A BSBM dataset's size moves only
    /// with its `productFeature` count, which flat star joins square: at
    /// these scales one draw differs from the next by ±15 % in flat-join
    /// bytes, and pass time and peak RSS follow (README, *Seeds and
    /// datasets*, has the spread between seeds with and without this).
    fn generate_median(self, scale: usize, seed: u64) -> TripleStore {
        let draw = |i: u64| self.generate(scale, seed.wrapping_mul(DRAWS).wrapping_add(i));
        // Only the sizes are kept: fifteen live datasets would set the
        // run's peak RSS.
        let mut sizes: Vec<(usize, u64)> = (0..DRAWS).map(|i| (draw(i).len(), i)).collect();
        sizes.sort_unstable();
        draw(sizes[sizes.len() / 2].1)
    }

    /// A dataset small enough for the naive evaluator, which is far too
    /// slow at benchmark scale (B1 at 1000 products: ~89 s). BSBM features
    /// are capped because B3's two unbound patterns square them.
    fn generate_for_oracle(self, seed: u64) -> TripleStore {
        match self {
            Dataset::Bsbm => datagen::bsbm::generate(&datagen::BsbmConfig {
                features: 20,
                max_features_per_product: 4,
                ..datagen::BsbmConfig::with_products(20).with_seed(seed)
            }),
            Dataset::Bio2Rdf => self.generate(60, seed),
        }
    }
}

fn cluster_config(seed: u64, chaos: bool) -> ClusterConfig {
    let config = ClusterConfig::default().with_workers(workers());
    if !chaos {
        return config;
    }
    config
        .with_faults(
            FaultConfig::with_probability(0.2, seed).with_node_loss(0.5).with_corruption(0.4),
        )
        .with_recovery(RecoveryPolicy::RetryStage { max_retries: 3, backoff_s: 1.0 })
}

/// Exact per-pass counts by metric name, summed over a pass's cells from
/// the `WorkflowStats` that `run_query` returns (`peak_arena_bytes`: max).
pub type Counts = BTreeMap<&'static str, f64>;

fn absorb(counts: &mut Counts, stats: &WorkflowStats) {
    let mut add = |name: &'static str, v: u64| *counts.entry(name).or_default() += v as f64;
    add("mrsim.jobs", stats.jobs.len() as u64);
    add("mrsim.stage_retries", stats.stage_retries);
    for job in &stats.jobs {
        add("mrsim.map_tasks", job.map_tasks);
        add("mrsim.reduce_tasks", job.reduce_tasks);
        add("mrsim.input_records", job.input_records);
        add("mrsim.hdfs_read_bytes", job.hdfs_read_bytes);
        add("mrsim.map_output_records", job.map_output_records);
        add("mrsim.shuffle_text_bytes", job.shuffle_bytes());
        add("mrsim.shuffle_wire_bytes", job.shuffle_wire_bytes());
        add("mrsim.reduce_groups", job.reduce_groups);
        add("mrsim.output_records", job.output_records);
        add("mrsim.hdfs_write_bytes", job.hdfs_write_bytes);
        add("mrsim.task_retries", job.task_retries);
        add("mrsim.maps_reexecuted", job.faults.maps_reexecuted);
        add("mrsim.corruptions_detected", job.faults.corruptions_detected);
        add("mrsim.refetches", job.faults.corrupt_refetches + job.faults.dfs_refetches);
        add("ntga-core.unnest_in", job.ops.get("ntga.unnest.in"));
        add("ntga-core.unnest_out", job.ops.get("ntga.unnest.out"));
        add("ntga-core.partial_out", job.ops.get("ntga.partial.out"));
        add("ntga-core.group_admitted", job.ops.get("ntga.group.admitted"));
    }
    *counts.entry("mrsim.sim_s").or_default() += stats.sim_seconds;
    let peak = counts.entry("mrsim.peak_arena_bytes").or_default();
    *peak = peak.max(stats.peak_arena_bytes() as f64);
}

/// The deterministic per-job counters of one run. Every timed op must
/// reproduce its cell's verification run exactly.
fn fingerprint(stats: &WorkflowStats) -> Vec<u64> {
    let mut f = vec![
        u64::from(stats.succeeded),
        stats.mr_cycles,
        stats.peak_disk_bytes,
        stats.stage_retries,
    ];
    for job in &stats.jobs {
        f.extend([
            job.input_records,
            job.hdfs_read_bytes,
            job.map_output_records,
            job.map_output_bytes,
            job.map_output_encoded_bytes,
            job.reduce_groups,
            job.output_records,
            job.output_text_bytes,
            job.hdfs_write_bytes,
            job.map_tasks,
            job.reduce_tasks,
            job.task_retries,
            job.faults.maps_reexecuted,
            job.faults.corruptions_detected,
        ]);
    }
    f
}

/// A cell ready to be timed, with what its verification run produced.
pub struct Cell {
    pub query: TestQuery,
    pub approach: Approach,
    fingerprint: Vec<u64>,
    solutions: Option<usize>,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{}x{}", self.query.id, self.approach.label())
    }

    /// Did a timed op succeed and reproduce the verification run?
    pub fn reproduced_by(&self, run: &QueryRun) -> bool {
        run.succeeded()
            && fingerprint(&run.stats) == self.fingerprint
            && run.solutions.as_ref().map(SolutionSet::len) == self.solutions
    }
}

/// What set-up hands to the timed passes.
pub struct Prepared {
    pub store: TripleStore,
    pub cluster: ClusterConfig,
    pub extract: bool,
    pub cells: Vec<Cell>,
    pub counts: Counts,
    /// Max over cells of peak DFS bytes ÷ replicated input text bytes.
    pub dfs_peak_ratio: f64,
}

/// Wall readings and result of one op.
pub struct Op {
    /// `ClusterConfig::engine_with`: encode and seal the triple relation.
    pub load_ms: f64,
    /// Clock readings around `run_query`, in ms since `epoch`.
    pub call: f64,
    pub ret: f64,
    pub run: Result<QueryRun, mr_rdf::PlanError>,
}

/// Run one op on a fresh engine. The engine (and with it the DFS holding
/// the op's output) is dropped after `ret` is read.
pub fn run_op(
    cluster: &ClusterConfig,
    store: &TripleStore,
    query: &TestQuery,
    approach: Approach,
    extract: bool,
    epoch: Instant,
) -> Op {
    let start = ms_since(epoch);
    let engine = cluster.engine_with(store);
    let call = ms_since(epoch);
    let run = run_query(approach, &engine, &query.query, &query.id, extract);
    let ret = ms_since(epoch);
    Op { load_ms: call - start, call, ret, run }
}

fn must_run(
    cluster: &ClusterConfig,
    store: &TripleStore,
    query: &TestQuery,
    approach: Approach,
    extract: bool,
) -> Result<QueryRun, String> {
    let what = format!("{} x {}", query.id, approach.label());
    let run = run_op(cluster, store, query, approach, extract, Instant::now())
        .run
        .map_err(|e| format!("{what}: {e}"))?;
    if !run.succeeded() {
        return Err(format!("{what}: workflow failed: {:?}", run.stats.failure));
    }
    Ok(run)
}

/// Set-up: generate the datasets from `seed`, parse the catalog, check
/// every cell against the oracle at the small scale, and run every cell
/// once at benchmark scale to record what the timed ops must reproduce.
pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let catalog = match w.dataset {
        Dataset::Bsbm => testbed::b_series(),
        Dataset::Bio2Rdf => testbed::a_series(),
    };
    let query = |id: &str| {
        catalog.iter().find(|q| q.id == id).cloned().ok_or_else(|| format!("no query {id}"))
    };
    let cluster = cluster_config(seed, w.chaos);
    let calm_cluster = cluster_config(seed, false);

    let small = w.dataset.generate_for_oracle(seed);
    let mut gold: BTreeMap<&str, SolutionSet> = BTreeMap::new();
    for &(id, approach) in w.cells {
        let q = query(id)?;
        let expected =
            gold.entry(id).or_insert_with(|| rdf_query::naive::evaluate(&q.query, &small));
        let run = must_run(&cluster, &small, &q, approach, true)?;
        if run.solutions.as_ref() != Some(&*expected) {
            return Err(format!("{id} x {}: differs from the naive evaluator", approach.label()));
        }
    }

    let store = w.dataset.generate_median(w.scale, seed);
    let input_bytes = (store.text_bytes() * u64::from(cluster.replication)) as f64;
    let mut cells = Vec::new();
    let mut counts = Counts::default();
    let mut dfs_peak_ratio = 0.0f64;
    let mut by_query: BTreeMap<&str, SolutionSet> = BTreeMap::new();
    for &(id, approach) in w.cells {
        let q = query(id)?;
        let run = must_run(&cluster, &store, &q, approach, w.extract)?;
        if let Some(solutions) = &run.solutions {
            // Every approach of a query must return the same solutions.
            if by_query.entry(id).or_insert_with(|| solutions.clone()) != solutions {
                return Err(format!(
                    "{id} x {}: solutions differ across approaches",
                    approach.label()
                ));
            }
        }
        if w.chaos {
            let calm = must_run(&calm_cluster, &store, &q, approach, w.extract)?;
            let output =
                |s: &WorkflowStats| (s.final_output_records(), s.final_output_text_bytes());
            if output(&run.stats) != output(&calm.stats) {
                return Err(format!("{id} x {}: recovery changed the output", approach.label()));
            }
        }
        absorb(&mut counts, &run.stats);
        dfs_peak_ratio = dfs_peak_ratio.max(run.stats.peak_disk_bytes as f64 / input_bytes);
        cells.push(Cell {
            fingerprint: fingerprint(&run.stats),
            solutions: run.solutions.as_ref().map(SolutionSet::len),
            query: q,
            approach,
        });
    }
    if w.chaos {
        for path in ["mrsim.task_retries", "mrsim.maps_reexecuted", "mrsim.corruptions_detected"] {
            if counts[path] == 0.0 {
                return Err(format!("{}: {path} is 0, the recovery path is not exercised", w.name));
            }
        }
    }
    Ok(Prepared { store, cluster, extract: w.extract, cells, counts, dfs_peak_ratio })
}
