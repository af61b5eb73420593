//! Quickstart: parse N-Triples, write an unbound-property query, run it
//! with the NTGA plan, and inspect both solutions and MapReduce cost
//! counters.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ntga::prelude::*;

fn main() {
    // 1. A tiny RDF dataset — the paper's running example: gene9 carries a
    //    label, two GO cross-references and a synonym; GO terms carry
    //    labels.
    let data = r#"
        <gene9>  <bio:label>   "retinoid receptor" .
        <gene9>  <bio:xGO>     <go1> .
        <gene9>  <bio:xGO>     <go9> .
        <gene9>  <bio:synonym> "RCoR-1" .
        <homod2> <bio:label>   "homeobox 2" .
        <go1>    <go:label>    "nucleus" .
        <go9>    <go:label>    "membrane" .
    "#;
    let store = TripleStore::from_ntriples(data).expect("valid N-Triples");
    println!("loaded {} triples", store.len());

    // 2. An unbound-property query: "genes with a label, related *somehow*
    //    (?p is a don't-care edge) to something that has a GO label".
    let query = parse_query(
        "SELECT * WHERE {
            ?gene <bio:label> ?name .
            ?gene ?p ?go .
            ?go <go:label> ?goname .
         }",
    )
    .expect("valid query");
    println!(
        "query: {} stars, {} unbound-property pattern(s)",
        query.stars.len(),
        query.unbound_pattern_count()
    );

    // 3. Run it on a simulated MapReduce cluster with the paper's
    //    recommended strategy (lazy β-unnesting, partial for unbound
    //    objects).
    let engine = ClusterConfig::default().engine_with(&store);
    let run = run_query(Approach::NtgaAuto(1024), &engine, &query, "quickstart", true)
        .expect("plannable query");

    // One table: a sorted header, and the rows in lexicographic order.
    let solutions = run.solutions.as_ref().expect("extracted");
    println!("\n{} solutions over ?{}:", solutions.len(), solutions.vars().join(" ?"));
    for binding in solutions.iter() {
        println!("  {binding}");
    }

    // 4. The cost counters the paper's evaluation is built on.
    let stats = &run.stats;
    println!("\nexecution profile ({}):", stats.label);
    println!("  MR cycles:        {}", stats.mr_cycles);
    println!("  full input scans: {}", stats.full_scans);
    println!("  HDFS read:        {} B", stats.total_read_bytes());
    println!("  HDFS written:     {} B", stats.total_write_bytes());
    println!("  shuffled:         {} B", stats.total_shuffle_bytes());

    // 5. Sanity: the MapReduce result equals the naive in-memory
    //    evaluation.
    let gold = rdf_query::naive::evaluate(&query, &store);
    assert_eq!(run.solutions.unwrap(), gold);
    println!("\nresult verified against the naive evaluator ✓");
}
