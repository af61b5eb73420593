//! Criterion micro-benchmarks for the kernels workflows run: Job 1's
//! reduce, join expansions, the relational joins' reduce groups, the final
//! β-unnest over a workflow's output, ANALYZE over an encoded relation,
//! record codecs, the query parser, and the engine's map→reduce shuffle.
//! The algebra of `ntga_core::logical` is the kernels' specification, run
//! by no workflow, so nothing here times it.

use criterion::{criterion_group, criterion_main, Criterion};
use mrsim::Rec;
use ntga_core::logical::group_by_subject;
use ntga_core::physical::{JoinMap, JoinRole, JoinSide, UnnestMode};
use std::hint::black_box;

fn anntg_with_candidates(n: usize) -> ntga_core::AnnTg {
    ntga_core::AnnTg {
        subject: "<gene9>".into(),
        ec: 0,
        bound: vec![("<rdfs:label>".into(), vec!["\"retinoid receptor\"".into()])],
        unbound: vec![(0..n).map(|i| ("<bio:xRef>".into(), format!("<ref{i}>").into())).collect()],
    }
}

/// Job 1's reduce over the largest BSBM product group, against a star with
/// a bound label, a bound multi-valued feature and an unbound `?u ?x`,
/// nested and eagerly unnested.
fn bench_group_reduce(c: &mut Criterion) {
    use ntga_core::physical::GroupReduce;
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(500));
    let product = group_by_subject(store.triples())
        .into_iter()
        .filter(|tg| tg.subject.starts_with("<bsbm:product"))
        .max_by_key(|tg| tg.pairs.len())
        .unwrap();
    let key = product.subject.to_bytes();
    let mut values: Vec<Vec<u8>> = product.pairs.iter().map(Rec::to_bytes).collect();
    values.sort();
    let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
    let query = "SELECT * WHERE { ?p <rdfs:label> ?l . ?p <bsbm:productFeature> ?f . ?p ?u ?x . }";
    let stars = rdf_query::parse_query(query).unwrap().stars;
    let ctx = mrsim::TaskContext::new();
    for (placement, eager) in [("lazy", false), ("eager", true)] {
        let reduce = GroupReduce::new(&stars, &[eager]);
        c.bench_function(&format!("group_reduce/kernel/{placement}"), |b| {
            b.iter(|| {
                let mut emit = |star, record, text| {
                    black_box((star, record, text));
                    Ok(())
                };
                reduce.filter(&ctx, black_box(&key), black_box(&values), &mut emit).unwrap()
            })
        });
    }
}

/// One map-side unnest of the join kernel over an encoded tuple: every
/// shuffle record `TG_UnbJoin`'s map writes for it.
fn bench_join_expansions(c: &mut Criterion) {
    let bytes = ntga_core::TgTuple(vec![anntg_with_candidates(256)]).to_bytes();
    let ctx = mrsim::TaskContext::new();
    for (name, role) in [("unbound_256", JoinRole::UnboundObj(0)), ("subject", JoinRole::Subject)] {
        let spec = JoinSide { file: String::new(), component: 0, role };
        let map = JoinMap { side: 0, spec, mode: UnnestMode::Exact };
        let mut value = Vec::new();
        c.bench_function(&format!("join_expansions/{name}"), |b| {
            b.iter(|| {
                map.expand(&ctx, black_box(&bytes), |key, text, write| {
                    value.clear();
                    write(&mut value);
                    black_box((key, &value, text));
                })
            })
        });
    }
}

/// One reduce group of each relational join kernel, no engine around it.
fn bench_relational_reduce(c: &mut Criterion) {
    use mr_rdf::Row;
    use rdf_model::atom::atom;
    use relbase::row_join::RowJoinReduce;
    use relbase::star_join::StarReduce;

    // One key group of 32 left and 32 right 6-column rows: 1024 joined.
    let sided = |side: u64, i: usize| {
        let s = format!("<gene{i}>");
        let row: Row =
            [&s[..], "<rdfs:label>", "\"retinoid receptor\"", &s[..], "<bio:xGO>", "<go:0042>"]
                .map(atom)
                .to_vec();
        (side, row).to_bytes()
    };
    let values: Vec<Vec<u8>> = (0..64).map(|i| sided((i / 32) as u64, i)).collect();
    let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
    c.bench_function("row_join/reduce_32x32", |b| {
        b.iter(|| {
            RowJoinReduce::join(black_box(&values), |record, text| {
                black_box((record, text));
                Ok(())
            })
        })
    });

    // One subject of a 3-pattern star: one match each for the two bound
    // patterns, 8 for the unbound one.
    let key = atom("<gene9>").to_bytes();
    let tagged = |idx: u64, p: &str, o: String| (idx, (atom(p), atom(&o))).to_bytes();
    let mut values = vec![
        tagged(0, "<rdfs:label>", "\"retinoid receptor\"".into()),
        tagged(1, "<bio:xGO>", "<go:0042>".into()),
    ];
    values.extend((0..8).map(|i| tagged(2, "<bio:xRef>", format!("<ref{i}>"))));
    let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
    let reduce = StarReduce { patterns: 3 };
    c.bench_function("star_join/reduce_k3", |b| {
        b.iter(|| {
            reduce.join(black_box(&key), black_box(&values), |record, text| {
                black_box((record, text));
                Ok(())
            })
        })
    });
}

/// The solutions of DFS file `file`, each record's rows appended by
/// `add_rows`, as the plan driver reads a final relation.
fn extract(
    engine: &mrsim::Engine,
    file: &str,
    vars: &[String],
    mut add_rows: impl FnMut(&[u8], &mut rdf_query::SolutionRows) -> Result<(), mr_rdf::PlanError>,
) -> rdf_query::SolutionSet {
    let file = engine.hdfs().lock().get(file).unwrap();
    let mut rows = rdf_query::SolutionRows::new(vars.to_vec());
    for record in file.iter() {
        add_rows(record, &mut rows).unwrap();
    }
    rows.finish()
}

/// The epilogue kernels on what A2 leaves behind on 750 genes: the final
/// β-unnest of NTGA's nested tuples (750 → 13 k rows) and of Hive's flat
/// rows, each with the one sort + dedup; and ANALYZE of the 17 k-triple
/// relation where it lies.
fn bench_extract(c: &mut Criterion) {
    use ntga::{run_query, Approach, ClusterConfig};
    let store = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(750));
    let query = ntga::testbed::a_series().remove(1).query; // A2
    let vars = query.solution_vars();
    // The one file a workflow leaves beside its input.
    let run = |approach| {
        let engine = ClusterConfig::default().engine_with(&store);
        assert!(run_query(approach, &engine, &query, "bench", false).unwrap().succeeded());
        let files = engine.hdfs().lock().file_names();
        let last = files.into_iter().find(|f| f != mr_rdf::TRIPLES_FILE).expect("final relation");
        (engine, last)
    };
    let (engine, file) = run(Approach::NtgaAuto(1024));
    c.bench_function("extract/tg_tuples", |b| {
        b.iter(|| {
            let mut unnest = ntga_core::FinalUnnest::new(&query, &[0], &vars).unwrap();
            extract(&engine, &file, &vars, |r, out| unnest.add_rows(r, out))
        })
    });
    let (engine, file) = run(Approach::Hive);
    let schema = relbase::star_join::star_join_job("s", &query.stars[0], "in", "out", false).1;
    c.bench_function("extract/rows", |b| {
        b.iter(|| extract(&engine, &file, &vars, schema.extractor(&vars).unwrap()))
    });
    c.bench_function("analyze/17k_triples", |b| {
        b.iter(|| mr_rdf::analyze(black_box(&engine), mr_rdf::TRIPLES_FILE).unwrap())
    });
}

fn bench_codecs(c: &mut Criterion) {
    let tg = anntg_with_candidates(64);
    let tuple = ntga_core::TgTuple(vec![tg]);
    let bytes = tuple.to_bytes();
    c.bench_function("codec/anntg_encode_64cand", |b| b.iter(|| black_box(&tuple).to_bytes()));
    c.bench_function("codec/anntg_decode_64cand", |b| {
        b.iter(|| ntga_core::TgTuple::from_bytes(black_box(&bytes)).unwrap())
    });
    c.bench_function("codec/anntg_text_size", |b| b.iter(|| black_box(&tuple).text_size()));

    // One 12-column row per case: 20-byte ASCII tokens, then the same row
    // with its third column a 200-byte literal (a length byte ≥ 0x80) or
    // a literal with multi-byte characters. No ledger workload has the
    // last two.
    let ascii: Vec<String> = (0..12).map(|i| format!("<http://ex.org/r{i:03}>")).collect();
    let long = format!("\"{}\"", "x".repeat(198));
    let non_ascii = "\"caf\u{e9} cr\u{e8}me \u{4e2d}\u{6587} na\u{ef}ve\"".to_string();
    for (name, third) in
        [("short_ascii", None), ("long_literal", Some(long)), ("non_ascii", Some(non_ascii))]
    {
        let mut row = ascii.clone();
        if let Some(third) = third {
            row[2] = third;
        }
        let rec = row.to_bytes();
        c.bench_function(&format!("codec/row_view_{name}"), |b| {
            b.iter(|| mr_rdf::RowView::from_bytes(black_box(&rec), Some(0)).unwrap())
        });
    }
}

fn bench_parser(c: &mut Criterion) {
    let text = "SELECT ?g ?p WHERE {
        ?g <rdfs:label> ?l . ?g <bio:xGO> ?go . ?g ?p ?x .
        ?go <go:label> ?gl .
        FILTER contains(?x, \"hexokinase\") . }";
    c.bench_function("parser/two_star_unbound", |b| {
        b.iter(|| rdf_query::parse_query(black_box(text)).unwrap())
    });
    let doc = {
        let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(100));
        store.iter().map(|t| format!("{t}\n")).collect::<String>()
    };
    c.bench_function("parser/ntriples_3k_rows", |b| {
        b.iter(|| rdf_model::parse_str(black_box(&doc)).unwrap())
    });
}

/// The engine's own test operators: the word count below runs them.
#[path = "../../mapreduce/tests/common/mod.rs"]
mod common;

/// The engine end to end: an 8-worker wordcount whose cost is dominated by
/// the map→reduce shuffle (spill, sort, seal, fetch, merge).
fn bench_engine_wordcount(c: &mut Criterion) {
    use std::sync::Arc;
    const PARTITIONS: usize = 8;
    let engine = mrsim::Engine::new(mrsim::ClusterConfig::default().with_workers(8)).unwrap();
    engine
        .put_records("bench-shuffle-in", (0..40_000).map(|i| format!("<subject{}>", i % 4096)))
        .unwrap();
    c.bench_function("shuffle/engine_wordcount_8workers", |b| {
        b.iter(|| {
            let _ = engine.hdfs().lock().delete("bench-shuffle-out");
            let mapper = Arc::new(common::WordOne);
            let spec = mrsim::JobSpec::map_reduce(
                "bench-shuffle",
                vec![mrsim::InputBinding { file: "bench-shuffle-in".into(), mapper }],
                Arc::new(common::CountReduce),
                PARTITIONS,
                "bench-shuffle-out",
            );
            engine.run_job(&spec).unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_group_reduce,
    bench_join_expansions,
    bench_relational_reduce,
    bench_extract,
    bench_codecs,
    bench_parser,
    bench_engine_wordcount
);
criterion_main!(benches);
