//! The paper's figures as values: per panel a dataset, a cluster, queries,
//! approaches and the claims the paper makes about the table. [`main`] is
//! the whole of every paper-figure binary: it prints each table and one
//! verdict line per claim, writes the `--profile` (first panel), `--json`
//! and `--trace` outputs, and exits 1 naming each claim that does not hold.
//! The claims are stated at `NTGA_SCALE=small`; `EXPERIMENTS.md`'s figure
//! blocks are [`Run::markdown`] there, re-rendered by `tests/figure_smoke.rs`.

mod claim;

pub use claim::Verdict;

use claim::*;

use crate::report::{self, human_bytes, Row};
use crate::{BenchOpts, Scale};
use datagen::BsbmConfig;
use mr_rdf::{PlanError, QueryRun};
use ntga::Approach;
use rdf_model::TripleStore;
use rdf_query::Query;
use std::process::ExitCode;

const PIG: &str = "Pig";
const HIVE: &str = "Hive";
const EAGER: &str = "EagerUnnest";
const LAZY: &str = "LazyUnnest(auto,phi_1024)";

/// One exhibit of the paper's evaluation section.
pub struct Figure {
    id: &'static str,
    title: &'static str,
    caption: &'static str,
    /// Figure 11 tabulates each run's last MR cycle, not its workflow.
    last_cycle: bool,
    panels: Vec<Panel>,
}

struct Panel {
    dataset: &'static str,
    cluster: ntga::ClusterConfig,
    store: TripleStore,
    queries: Vec<(String, Query)>,
    /// Each approach under the label its rows carry.
    approaches: Vec<(&'static str, Approach)>,
    claims: Vec<Claim>,
}

/// The `main` of a figure binary: build the figure at `NTGA_SCALE`, run
/// and print it, write the flags' outputs, exit 1 if a claim fails.
pub fn main(figure: fn(Scale) -> Figure) -> ExitCode {
    let opts = BenchOpts::from_env();
    let figure = figure(Scale::from_env());
    let run = figure.run(&opts);
    run.print();
    let first = &figure.panels[0];
    let rows: Vec<_> = run.panels.iter().flat_map(|(rows, _)| rows.clone()).collect();
    if let Err(e) =
        opts.finish(&opts.cluster(first.cluster.clone()), &first.store, &first.queries, &rows)
    {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let failed = run.verdicts().filter(|v| !v.holds()).inspect(|v| eprintln!("{}: {v}", figure.id));
    if failed.count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

impl Figure {
    fn new(
        id: &'static str,
        title: &'static str,
        caption: &'static str,
        panels: Vec<Panel>,
    ) -> Self {
        Figure { id, title, caption, last_cycle: false, panels }
    }

    /// The figure's binary name (`fig3`, `fig9a`, …).
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// Run every panel on clusters carrying `opts`' trace sink and check
    /// its claims. A query an approach cannot plan is a failed verdict.
    pub fn run(&self, opts: &BenchOpts) -> Run<'_> {
        let panels = self.panels.iter().map(|panel| {
            let cluster = opts.cluster(panel.cluster.clone());
            let (mut rows, mut verdicts) = (Vec::new(), Vec::new());
            for (qid, query) in &panel.queries {
                for (label, approach) in &panel.approaches {
                    let run_label = format!("{qid}-{label}");
                    match run_cell(&cluster, &panel.store, query, *approach, &run_label) {
                        Ok(run) => rows.push(Row::from_run(qid, label, &run)),
                        Err(e) => verdicts.push(Verdict {
                            holds: false,
                            words: format!("{qid}/{label} plans"),
                            measured: e.to_string(),
                            deviation: None,
                        }),
                    }
                }
            }
            verdicts.extend(panel.claims.iter().map(|claim| claim.check(&rows)));
            (rows, verdicts)
        });
        Run { figure: self, panels: panels.collect() }
    }
}

impl Panel {
    /// `queries` on `dataset` under the paper's four approaches, on a
    /// `nodes`-node cluster at `replication` with the cost model scaled to
    /// the store. A `disk` bounds the total disk to that multiple of the
    /// *unreplicated* input: the paper's nodes had a fixed 20 GB, so
    /// replication 2 doubles the pressure on the same disk.
    fn new(
        dataset: &'static str,
        store: TripleStore,
        (nodes, replication, disk): (u32, u32, Option<f64>),
        queries: Vec<(String, Query)>,
        claims: Vec<Claim>,
    ) -> Panel {
        let cost = mrsim::CostModel::scaled_to(store.text_bytes());
        let mut cluster = ntga::ClusterConfig { nodes, replication, cost, ..Default::default() };
        if let Some(factor) = disk {
            let total = (store.text_bytes() as f64 * factor) as u64;
            cluster.disk_per_node = (total / u64::from(nodes)).max(1);
        }
        let approaches = vec![
            (PIG, Approach::Pig),
            (HIVE, Approach::Hive),
            (EAGER, Approach::NtgaEager),
            (LAZY, Approach::NtgaAuto(1024)),
        ];
        Panel { dataset, store, cluster, queries, approaches, claims }
    }

    /// The dataset and cluster line above the panel's table.
    fn describe(&self) -> String {
        let (c, store) = (&self.cluster, &self.store);
        let disk = match c.disk_per_node {
            u64::MAX => "unbounded disk".to_string(),
            d => format!("disk budget {}", human_bytes(d * u64::from(c.nodes))),
        };
        let (triples, bytes) = (store.len(), human_bytes(store.text_bytes()));
        let cluster = format!("{} nodes, replication {}, {disk}", c.nodes, c.replication);
        format!("dataset: {}, {triples} triples ({bytes}); {cluster}", self.dataset)
    }
}

/// Run `query` under `approach` on a fresh engine built from `cluster`, as
/// `label`. A disk too small for the input itself is a failed run with no
/// jobs, like any other `DiskFull`; an unplannable query is an `Err`.
pub(crate) fn run_cell(
    cluster: &ntga::ClusterConfig,
    store: &TripleStore,
    query: &Query,
    approach: Approach,
    label: &str,
) -> Result<QueryRun, PlanError> {
    let engine = match cluster.try_engine_with(store) {
        Ok(engine) => engine,
        Err(e) => {
            let (label, failure) = (label.to_string(), Some(e.to_string()));
            let stats = mrsim::WorkflowStats { label, failure, ..Default::default() };
            return Ok(QueryRun { stats, solutions: None });
        }
    };
    let plan = approach.plan(query, &engine)?;
    ntga_core::execute_plan(&plan, &engine, mr_rdf::TRIPLES_FILE, label, false)
}

/// A figure's measured rows and its claims' verdicts, per panel.
pub struct Run<'f> {
    figure: &'f Figure,
    panels: Vec<(Vec<Row>, Vec<Verdict>)>,
}

impl Run<'_> {
    /// Every verdict, panel by panel.
    pub fn verdicts(&self) -> impl Iterator<Item = &Verdict> {
        self.panels.iter().flat_map(|(_, verdicts)| verdicts)
    }

    /// Print each panel's dataset line, table and verdict lines.
    pub fn print(&self) {
        let f = self.figure;
        for (i, (panel, (rows, verdicts))) in f.panels.iter().zip(&self.panels).enumerate() {
            let title = match f.panels.len() {
                1 => f.title.to_string(),
                _ => format!("{} ({})", f.title, panel.dataset),
            };
            println!("{}{}", if i > 0 { "\n" } else { "" }, panel.describe());
            let table =
                if f.last_cycle { report::print_last_cycle_table } else { report::print_table };
            table(&title, f.caption, rows);
            verdicts.iter().for_each(|v| println!("{v}"));
        }
    }

    /// The figure's block of `EXPERIMENTS.md`: per panel, the dataset line
    /// and a table of claims with what was measured.
    pub fn markdown(&self) -> String {
        let blocks = self.figure.panels.iter().zip(&self.panels).map(|(panel, (_, verdicts))| {
            let rows: Vec<String> = verdicts.iter().map(Verdict::markdown).collect();
            let header = "| claim | measured | paper, where it differs |\n|---|---|---|";
            format!("{}\n\n{header}\n{}\n", panel.describe(), rows.join("\n"))
        });
        blocks.collect::<Vec<_>>().join("\n")
    }
}

/// The BSBM-like analog of Figures 9, 10 and 12: products with up to 16 of
/// 40 features each.
fn bsbm(products: usize) -> TripleStore {
    let config =
        BsbmConfig { products, features: 40, max_features_per_product: 16, ..Default::default() };
    datagen::bsbm::generate(&config)
}

/// The catalog queries named `ids`, or all of them.
fn queries(catalog: Vec<ntga::testbed::TestQuery>, ids: &[&str]) -> Vec<(String, Query)> {
    let wanted = |id: &str| ids.is_empty() || ids.contains(&id);
    catalog.into_iter().filter(|t| wanted(&t.id)).map(|t| (t.id, t.query)).collect()
}

fn b_series(ids: &[&str]) -> Vec<(String, Query)> {
    queries(ntga::testbed::b_series(), ids)
}

fn b1_varying_bound() -> Vec<(String, Query)> {
    queries((3..=6).map(ntga::testbed::b1_varying_bound).collect(), &[])
}

/// `claim` of every query × approach cell.
fn each(qs: &[&'static str], approaches: &[&'static str], claim: fn(Cell) -> Claim) -> Vec<Claim> {
    qs.iter().flat_map(|&q| approaches.iter().map(move |&a| claim((q, a)))).collect()
}

/// Figure 3 — star-join groupings on the bound two-star case study.
pub fn fig3(scale: Scale) -> Figure {
    // SJ-per-cycle (one star join per cycle, then the join) is Hive's plan.
    let (sj, sel) = ("SJ-per-cycle", "Sel-SJ-first");
    let claims = ["Q1a", "Q1b", "Q2a", "Q2b", "Q3a", "Q3b"].into_iter().flat_map(|q| {
        // Object-object joins (Q3*) cost Sel-SJ-first a cycle and a scan.
        let (sel_mr, order) =
            if q.starts_with("Q3") { (3, [LAZY, sj, sel]) } else { (2, [LAZY, sel, sj]) };
        [
            Claim::Cycles { cell: (q, sj), mr: 3, fs: 2 },
            Claim::Cycles { cell: (q, sel), mr: sel_mr, fs: sel_mr },
            Claim::Cycles { cell: (q, LAZY), mr: 2, fs: 1 },
            Claim::order(SECONDS, q, &order),
            Claim::less(READS, (q, LAZY), (q, sj), 0.4),
        ]
    });
    let store = datagen::bsbm::generate(&BsbmConfig::with_products(scale.entities(120)));
    let queries = queries(ntga::testbed::case_study(), &[]);
    let mut panel = Panel::new("BSBM-like", store, (60, 1, None), queries, claims.collect());
    panel.approaches =
        vec![(sj, Approach::Hive), (sel, Approach::SelSjFirst), (LAZY, Approach::NtgaAuto(1024))];
    Figure::new(
        "fig3",
        "Figure 3: groupings of star-joins (MR = cycles, FS = full scans)",
        "paper shape: SJ-per-cycle 3MR/2FS; Sel-SJ-first 2MR/2FS (OS: Q1,Q2) or 3MR/3FS (OO: Q3); NTGA 2MR/1FS",
        vec![panel],
    )
}

/// Figure 9(a) — BSBM-2M analog, replication 2, constrained disk.
pub fn fig9a(scale: Scale) -> Figure {
    let mut claims = each(&["B1", "B3", "B4"], &[PIG, HIVE], Claim::Fails);
    claims.extend(each(&["B0", "B2"], &[PIG, HIVE], |cell| {
        Claim::Completes(cell)
            .deviation("paper: X — BSBM's multiplicities push B0 and B2 over the disk too")
    }));
    claims.extend(each(&["B0", "B1", "B2"], &[EAGER], Claim::Completes));
    claims.extend(each(&["B3", "B4"], &[EAGER], Claim::Fails));
    claims.extend(each(&["B0", "B1", "B2", "B3", "B4"], &[LAZY], Claim::Completes));
    let (store, queries) = (bsbm(scale.entities(150)), b_series(&["B0", "B1", "B2", "B3", "B4"]));
    Figure::new(
        "fig9a",
        "Figure 9(a): BSBM-2M, replication 2, constrained disk — failures marked X",
        "paper shape: Pig/Hive fail the unbound queries; EagerUnnest fails B3,B4; LazyUnnest completes all",
        // 13 × the input is 6.5 × the replicated input: the paper's 60 ×
        // 20 GB nodes against 172 GB at replication 2 were as tight.
        vec![Panel::new("BSBM-2M analog", store, (60, 2, Some(13.0)), queries, claims)],
    )
}

/// Figure 9(b) — BSBM-2M analog, replication 1: execution times.
pub fn fig9b(scale: Scale) -> Figure {
    let mut claims = each(&["B3", "B4"], &[PIG, HIVE], Claim::Fails);
    claims.extend([
        Claim::Fails(("B3", EAGER)).deviation("paper: EagerUnnest completes B3 at replication 1"),
        Claim::Completes(("B3", LAZY)),
        Claim::order(SECONDS, "B0", &[LAZY, HIVE, PIG]),
        Claim::order(SECONDS, "B1", &[LAZY, EAGER, HIVE, PIG]),
        Claim::order(SECONDS, "B2", &[LAZY, HIVE, PIG]),
        Claim::order(SECONDS, "B4", &[LAZY, EAGER]),
        Claim::less(SECONDS, ("B1", LAZY), ("B1", EAGER), 0.3).deviation("paper: 21 % faster"),
        Claim::less(WRITES, ("B1", LAZY), ("B1", EAGER), 0.5),
        Claim::less(WRITES, ("B4", LAZY), ("B4", EAGER), 0.6),
        // B2's object filter prunes in the map phase: it runs like B0.
        Claim::less(SECONDS, ("B2", LAZY), ("B0", LAZY), -0.1),
    ]);
    let (store, queries) = (bsbm(scale.entities(150)), b_series(&["B0", "B1", "B2", "B3", "B4"]));
    Figure::new(
        "fig9b",
        "Figure 9(b): BSBM-2M, replication 1 — execution times",
        "paper shape: NTGA fastest everywhere; Pig/Hive still fail B3/B4; lazy beats eager on B1/B3/B4",
        vec![Panel::new("BSBM-2M analog", store, (60, 1, Some(25.0)), queries, claims)],
    )
}

/// Figure 9(c) — execution times against the bound-property count.
pub fn fig9c(scale: Scale) -> Figure {
    let (hive, fast) =
        ("paper: Hive completes it", "paper: ≈25 % faster; our cost model has no fixed costs");
    let claims = vec![
        Claim::Completes(("B1-3bnd", PIG)),
        Claim::Completes(("B1-3bnd", HIVE)),
        Claim::Completes(("B1-4bnd", PIG))
            .deviation("paper: Pig fails beyond three bound patterns"),
        Claim::Completes(("B1-4bnd", HIVE)),
        Claim::Fails(("B1-5bnd", PIG)),
        Claim::Fails(("B1-5bnd", HIVE)).deviation(hive),
        Claim::Fails(("B1-6bnd", PIG)),
        Claim::Fails(("B1-6bnd", HIVE)).deviation(hive),
        Claim::Completes(("B1-6bnd", EAGER)),
        Claim::less(SECONDS, ("B1-3bnd", LAZY), ("B1-3bnd", HIVE), 0.8).deviation(fast),
        Claim::less(SECONDS, ("B1-4bnd", LAZY), ("B1-4bnd", HIVE), 0.8).deviation(fast),
        Claim::less(SECONDS, ("B1-3bnd", HIVE), ("B1-4bnd", HIVE), 0.0),
        Claim::less(SECONDS, ("B1-6bnd", LAZY), ("B1-3bnd", LAZY), -0.2),
    ];
    let (store, queries) = (bsbm(scale.entities(150)), b1_varying_bound());
    Figure::new(
        "fig9c",
        "Figure 9(c): execution times, varying bound-property count",
        "paper shape: Pig fails beyond 3 bound patterns (here: beyond 4, and Hive beyond 4 too);\nNTGA untroubled and ~flat as bound arity grows while relational times grow",
        vec![Panel::new("BSBM-2M analog", store, (60, 1, Some(36.0)), queries, claims)],
    )
}

/// Figure 10 — HDFS writes against the bound-property count.
pub fn fig10(scale: Scale) -> Figure {
    let bnd = ["B1-3bnd", "B1-4bnd", "B1-5bnd", "B1-6bnd"];
    let mut claims: Vec<Claim> = bnd.map(|q| Claim::less(WRITES, (q, LAZY), (q, HIVE), 0.8)).into();
    claims.extend([
        Claim::less(WRITES, ("B1-6bnd", LAZY), ("B1-3bnd", LAZY), -0.25),
        Claim::less(WRITES, ("B1-3bnd", HIVE), ("B1-6bnd", HIVE), 0.25),
    ]);
    let (store, queries) = (bsbm(scale.entities(150)), b1_varying_bound());
    Figure::new(
        "fig10",
        "Figure 10: total HDFS writes, varying bound-property count",
        "paper shape: LazyUnnest 80-86% less writes than Hive/Pig; NTGA writes ~flat in bound arity",
        vec![Panel::new("BSBM-2M analog", store, (60, 1, None), queries, claims)],
    )
}

/// Figure 11 — lazy full vs partial β-unnest, on the last MR cycle (the
/// join on the unbound-property pattern).
pub fn fig11(scale: Scale) -> Figure {
    let (full, phi16) = ("LazyUnnest(full)", "LazyUnnest(phi_16)");
    let claims = vec![
        Claim::less(LAST_CYCLE_SHUFFLE, ("B1", phi16), ("B1", full), 0.5),
        Claim::less(LAST_CYCLE_SECONDS, ("B1", phi16), ("B1", full), 0.2),
        Claim::less(LAST_CYCLE_SECONDS, ("B2", full), ("B2", phi16), -0.05),
        Claim::less(LAST_CYCLE_SECONDS, ("B3", phi16), ("B3", full), 0.2)
            .deviation("paper: full unnest suffices for B3's partially-bound objects"),
    ];
    let store = datagen::bsbm::generate(&BsbmConfig {
        products: scale.entities(150),
        features: 120,
        max_features_per_product: 48,
        multi_feature_fraction: 0.97,
        ..Default::default()
    });
    let mut panel =
        Panel::new("BSBM-2M analog", store, (60, 1, None), b_series(&["B1", "B2", "B3"]), claims);
    panel.approaches = vec![
        (full, Approach::NtgaLazyFull),
        (phi16, Approach::NtgaLazyPartial(16)),
        ("LazyUnnest(phi_64)", Approach::NtgaLazyPartial(64)),
        ("LazyUnnest(phi_1K)", Approach::NtgaLazyPartial(1024)),
    ];
    let figure = Figure::new(
        "fig11",
        "Figure 11: last MR cycle (join on unbound pattern), lazy full vs partial",
        "paper shape: partial unnest wins for unbound objects (B1); full is sufficient for partially-bound objects (B2)",
        vec![panel],
    );
    Figure { last_cycle: true, ..figure }
}

/// Figure 12 — BSBM-1M analog, replication 2: B0–B6.
pub fn fig12(scale: Scale) -> Figure {
    let mut claims = vec![
        Claim::order(SECONDS, "B0", &[LAZY, HIVE, PIG]),
        Claim::Fails(("B1", PIG)).deviation("paper: Pig completes B1"),
        Claim::order(SECONDS, "B1", &[LAZY, EAGER, HIVE]),
        Claim::less(INTERMEDIATE_WRITES, ("B1", LAZY), ("B1", HIVE), 0.8),
        Claim::order(SECONDS, "B2", &[LAZY, HIVE, PIG]),
        Claim::less(SECONDS, ("B2", LAZY), ("B2", HIVE), 0.5).deviation("paper: ≈75 % faster"),
    ];
    claims.extend(each(&["B3", "B4", "B5"], &[PIG, HIVE], Claim::Fails));
    claims.extend([
        Claim::Fails(("B3", EAGER)).deviation("paper: EagerUnnest completes B3"),
        Claim::Completes(("B3", LAZY)),
        Claim::less(SECONDS, ("B4", LAZY), ("B4", EAGER), 0.5),
        Claim::order(SECONDS, "B5", &[LAZY, EAGER]),
        Claim::order(SECONDS, "B6", &[LAZY, EAGER, HIVE, PIG])
            .deviation("paper: Pig and Hive fail B6; our second star is selective enough to fit"),
    ]);
    // Half the fig9 scale: the paper's BSBM-1M (85 GB) vs BSBM-2M (172 GB).
    let (store, queries) = (bsbm(scale.entities(75)), b_series(&[]));
    Figure::new(
        "fig12",
        "Figure 12: BSBM-1M analog, replication 2 — B0-B6",
        "paper shape: NTGA completes everything; Pig/Hive fail B3/B4 and the complex B5/B6; lazy beats eager",
        vec![Panel::new("BSBM-1M analog", store, (60, 2, Some(40.0)), queries, claims)],
    )
}

/// Figure 13 — Bio2RDF-like queries A1–A6 on an 80-node cluster.
pub fn fig13(scale: Scale) -> Figure {
    let a = ["A1", "A2", "A3", "A4", "A5", "A6"];
    let mut claims: Vec<Claim> =
        a.map(|q| Claim::order(SECONDS, q, &[LAZY, EAGER, HIVE, PIG])).into();
    claims.extend([
        Claim::Completes(("A4", PIG)).deviation("paper: Pig fails A4"),
        Claim::less(WRITES, ("A1", LAZY), ("A1", EAGER), 0.5),
        Claim::less(WRITES, ("A3", LAZY), ("A3", HIVE), 0.5)
            .deviation("paper: 1.3 GB against Hive's 26 GB of star-join intermediates"),
        Claim::less(WRITES, ("A4", LAZY), ("A4", HIVE), 0.8)
            .deviation("paper: 0.6 GB against Hive's 152 GB"),
        Claim::Cycles { cell: ("A5", LAZY), mr: 2, fs: 1 },
        Claim::Cycles { cell: ("A5", HIVE), mr: 3, fs: 2 },
        Claim::Cycles { cell: ("A6", LAZY), mr: 2, fs: 1 },
        Claim::Cycles { cell: ("A6", HIVE), mr: 3, fs: 2 },
    ]);
    let (genes, go_terms) = (scale.entities(150), scale.entities(60));
    let config =
        datagen::Bio2RdfConfig { genes, go_terms, references: genes, ..Default::default() };
    let store = datagen::bio2rdf::generate(&config);
    let queries = queries(ntga::testbed::a_series(), &[]);
    Figure::new(
        "fig13",
        "Figure 13: Bio2RDF A1-A6",
        "paper shape: NTGA writes orders of magnitude less; lazy < eager < Hive < Pig everywhere; A5/A6 save a full scan",
        // Room for the lazily-unnested plans, not for runaway relational
        // intermediates.
        vec![Panel::new("Bio2RDF-like", store, (80, 2, Some(25.4)), queries, claims)],
    )
}

/// Figure 14 — queries C1–C4 on DBpedia-Infobox-like data (5 nodes) and
/// BTC-09-like data (40 nodes).
pub fn fig14(scale: Scale) -> Figure {
    let dbpedia = vec![
        Claim::less(SECONDS, ("C1", LAZY), ("C1", HIVE), 0.2)
            .deviation("paper: no NTGA benefit on C1"),
        Claim::less(SECONDS, ("C2", HIVE), ("C2", LAZY), -0.05),
        Claim::less(READS, ("C3", HIVE), ("C3", PIG), 0.4),
        Claim::less(WRITES, ("C3", LAZY), ("C3", HIVE), 0.4).deviation("paper: ≈80 % fewer writes"),
        Claim::less(SECONDS, ("C3", LAZY), ("C3", HIVE), 0.2),
        Claim::less(SECONDS, ("C3", LAZY), ("C3", PIG), 0.5),
        Claim::less(WRITES, ("C4", LAZY), ("C4", HIVE), 0.75),
        // The nested star-join intermediate against the flat one: C4's
        // redundancy factor.
        Claim::less(INTERMEDIATE_WRITES, ("C4", LAZY), ("C4", HIVE), 0.6)
            .deviation("paper: redundancy factor ≈ 0.89; our infobox values are shorter"),
        Claim::less(SECONDS, ("C4", LAZY), ("C4", HIVE), 0.5),
        Claim::less(SECONDS, ("C4", LAZY), ("C4", PIG), 0.5),
    ];
    let btc = vec![
        Claim::less(WRITES, ("C3", LAZY), ("C3", HIVE), 0.4),
        Claim::less(READS, ("C4", LAZY), ("C4", HIVE), 0.5),
        Claim::less(WRITES, ("C4", LAZY), ("C4", HIVE), 0.75).deviation("paper: 98 % fewer writes"),
        Claim::less(SECONDS, ("C4", LAZY), ("C4", HIVE), 0.5),
    ];
    let generate = |config| datagen::dbpedia::generate(&config);
    let dbpedia_store = generate(datagen::DbpediaConfig::with_entities(scale.entities(250)));
    let btc_store = generate(datagen::DbpediaConfig::btc_like(scale.entities(500)));
    let c_series = || queries(ntga::testbed::c_series(), &[]);
    Figure::new(
        "fig14",
        "Figure 14: C1-C4",
        "paper shape: little NTGA benefit on C1/C2 (small data); 20-50% gains and ~80% fewer writes on C3/C4;\non BTC scan sharing halves reads and lazy unnesting writes up to 98% less on C4",
        vec![
            Panel::new("DBInfobox-like", dbpedia_store, (5, 2, None), c_series(), dbpedia),
            Panel::new("BTC-09-like", btc_store, (40, 2, None), c_series(), btc),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bsbm20() -> TripleStore {
        datagen::bsbm::generate(&datagen::BsbmConfig::with_products(20))
    }

    #[test]
    fn paper_panel_runs_and_reports() {
        let store = bsbm20();
        let q = rdf_query::parse_query(
            "SELECT * WHERE { ?p <rdfs:label> ?l . ?p ?u ?x . ?x <rdfs:label> ?l2 . }",
        )
        .unwrap();
        let panel = Panel::new("BSBM", store, (60, 1, None), vec![("B1ish".into(), q)], vec![]);
        let rows: Vec<Row> = panel
            .approaches
            .iter()
            .map(|(label, approach)| {
                let run =
                    run_cell(&panel.cluster, &panel.store, &panel.queries[0].1, *approach, "t");
                Row::from_run("B1ish", label, &run.unwrap())
            })
            .collect();
        let labels: Vec<&str> = rows.iter().map(|r| r.approach.as_str()).collect();
        assert_eq!(labels, [PIG, HIVE, EAGER, LAZY]);
        assert!(rows.iter().all(|r| r.ok()));
        // NTGA rows should show fewer cycles than relational rows.
        assert!(rows[3].stats.mr_cycles < rows[1].stats.mr_cycles);
        // The NTGA rows carry operator counters; relational plans record
        // none (their operators don't count yet).
        for r in &rows[2..] {
            assert!(r.ops().get(ntga_core::physical::op::GROUPS_IN) > 0, "{}", r.approach);
        }
        mrsim::trace::validate_json(&report::rows_json(&rows)).unwrap();
    }

    #[test]
    fn a_query_the_approach_cannot_plan_is_an_error_not_a_panic() {
        let q = rdf_query::parse_query("SELECT * WHERE { ?p <rdfs:label> ?l . }").unwrap();
        let cluster = ntga::ClusterConfig::default();
        let err = run_cell(&cluster, &bsbm20(), &q, Approach::SelSjFirst, "one-star").unwrap_err();
        assert!(err.to_string().contains("Sel-SJ-first groups the star joins of two"), "{err}");
    }

    #[test]
    fn input_larger_than_the_disk_is_a_failed_row_not_a_panic() {
        let store = bsbm20();
        let q = rdf_query::parse_query("SELECT * WHERE { ?p <rdfs:label> ?l . }").unwrap();
        let cluster = ntga::ClusterConfig::default().tight_disk(&store, 0.5);
        let run = run_cell(&cluster, &store, &q, Approach::NtgaLazyFull, "tiny").unwrap();
        assert!(!run.succeeded());
        assert!(run.stats.failure.as_deref().is_some_and(|f| f.contains("full")), "{run:?}");
        assert!(run.stats.jobs.is_empty());
    }
}
