//! Aggregation on the nested representation — the paper's stated future
//! work ("unbound-property queries with aggregation constraints"),
//! implemented without β-unnesting.
//!
//! "How many facts are recorded per gene?" is a COUNT over an
//! unbound-property query. A relational plan must materialize every
//! (gene, property, object) combination before counting; the TripleGroup
//! plan counts the *implicit* combinations of the nested triplegroups —
//! the multiplication the flat plan performs with disk I/O happens here in
//! arithmetic.
//!
//! ```sh
//! cargo run --release --example aggregation
//! ```

use ntga::prelude::*;
use ntga_core::aggregate;

fn main() {
    let store = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(80));
    println!("warehouse: {} triples\n", store.len());

    // A B4-shaped query: the unbound pattern is not part of the join, so
    // lazy unnesting carries it nested into the final output.
    let query = parse_query(
        "SELECT * WHERE {
            ?gene <rdfs:label> ?l .
            ?gene <bio:xGO> ?go .
            ?gene ?p ?fact .
            ?go <go:label> ?gl .
         }",
    )
    .unwrap();

    let engine = ClusterConfig::default().engine_with(&store);
    let plan = Strategy::LazyFull.plan(&query).expect("plannable query");
    ntga_core::execute_plan(&plan, &engine, TRIPLES_FILE, "agg", false).expect("plannable query");

    // The final output file is the last tgjoin the planner wrote.
    let final_file = engine
        .hdfs()
        .lock()
        .file_names()
        .into_iter()
        .filter(|n| n.contains("agg.tgjoin"))
        .max()
        .expect("final join output");
    let tuples: Vec<ntga_core::TgTuple> = engine.read_records(&final_file).unwrap();

    // COUNT(*) without unnesting: arithmetic over nested list lengths.
    let total = aggregate::solution_count_fast(&tuples);
    println!(
        "COUNT(*) = {total} solutions, computed from {} nested tuples ({} B)",
        tuples.len(),
        tuples.iter().map(mrsim::Rec::text_size).sum::<u64>()
    );

    // GROUP BY gene: top genes by fact count.
    let groups = aggregate::group_count_by_subject(&tuples, 0);
    let mut ranked: Vec<_> = groups.into_iter().collect();
    ranked.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("\ntop genes by (go-term × fact) combinations:");
    for (gene, count) in ranked.iter().take(5) {
        println!("  {gene:<12} {count}");
    }

    // Contrast: what a flat plan would have had to materialize first.
    let naive = rdf_query::naive::evaluate(&query, &store);
    assert_eq!(naive.len() as u64, total, "fast count equals the real solution count");
    println!("verified against the naive evaluator: {} solutions ✓", naive.len());
}
