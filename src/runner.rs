//! Uniform runner over every execution approach the paper compares: each
//! [`Approach`] becomes a [`PhysicalPlan`] ([`Approach::plan`]) that the one
//! driver, [`ntga_core::execute_plan`], runs.

use mr_rdf::{PlanError, QueryRun, TRIPLES_FILE};
use mrsim::Engine;
use ntga_core::{execute_plan, OptimizerConfig, PhysicalPlan, Strategy};
use rdf_query::Query;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use rdf_model::{STriple, TripleStore};

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
