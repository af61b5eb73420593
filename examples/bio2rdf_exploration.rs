//! Exploring an unfamiliar warehouse with unbound-property queries — the
//! paper's motivating scenario (Section 1): a Bio2RDF-style integrated
//! life-sciences dataset whose relationship vocabulary the user does not
//! know.
//!
//! The example asks three progressively-structured questions:
//!   1. "What is known about hexokinase genes?"          (A6-shaped)
//!   2. "How are genes connected to things with labels?" (A3-shaped)
//!   3. "Which relationships exist at all?"              (schema discovery)
//!
//! and compares every execution approach on the same cluster.
//!
//! ```sh
//! cargo run --release --example bio2rdf_exploration
//! ```

use ntga::prelude::*;

fn main() {
    let store = datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(120));
    let stats = store.stats();
    println!(
        "warehouse: {} triples, {} properties ({:.0}% multi-valued), max xRef multiplicity {}",
        stats.triples,
        stats.distinct_properties,
        stats.multi_valued_fraction * 100.0,
        stats.per_property[&rdf_model::atom::atom(datagen::vocab::bio2rdf::X_REF)].max_multiplicity
    );

    // --- 1. everything about hexokinase -----------------------------------
    let q1 = parse_query(
        r#"SELECT * WHERE {
            ?gene <bio:geneSymbol> ?sym .
            ?gene ?p ?x .
            FILTER contains(?x, "hexokinase") .
        }"#,
    )
    .unwrap();
    let engine = ClusterConfig::default().engine_with(&store);
    let run = run_query(Approach::NtgaAuto(1024), &engine, &q1, "hexo", true).unwrap();
    let solutions = run.solutions.unwrap();
    println!("\n[1] 'what mentions hexokinase?': {} solutions via ?p edges:", solutions.len());
    // Rows are sorted by ?gene first, so ?p still needs its own dedup.
    let mut props: Vec<&str> = solutions.iter().filter_map(|b| b.get("p")).map(|p| &**p).collect();
    props.sort_unstable();
    props.dedup();
    println!("    discovered relationships: {}", props.join(", "));

    // --- 2. unknown gene→reference connections, comparing approaches ------
    let q2 = parse_query(
        "SELECT * WHERE {
            ?gene <rdfs:label> ?l .
            ?gene ?p ?r .
            ?r <ref:database> ?db .
         }",
    )
    .unwrap();
    println!("\n[2] 'genes connected somehow to reference records' — approach comparison:");
    println!(
        "    {:<22} {:>6} {:>12} {:>12} {:>12}",
        "approach", "cycles", "read", "written", "shuffled"
    );
    for approach in [
        Approach::Pig,
        Approach::Hive,
        Approach::NtgaEager,
        Approach::NtgaLazyFull,
        Approach::NtgaAuto(1024),
    ] {
        let engine = ClusterConfig::default().engine_with(&store);
        let run = run_query(approach, &engine, &q2, "conn", false).unwrap();
        println!(
            "    {:<22} {:>6} {:>12} {:>12} {:>12}",
            approach.label(),
            run.stats.mr_cycles,
            run.stats.total_read_bytes(),
            run.stats.total_write_bytes(),
            run.stats.total_shuffle_bytes(),
        );
    }

    // --- 3. schema discovery: which properties exist, how multi-valued ----
    println!("\n[3] property inventory (top by multiplicity):");
    let mut props: Vec<_> = stats.per_property.iter().collect();
    props.sort_by_key(|(_, s)| std::cmp::Reverse(s.max_multiplicity));
    for (prop, pstats) in props.iter().take(5) {
        println!(
            "    {:<18} count={:<6} subjects={:<6} max-multiplicity={}",
            prop, pstats.count, pstats.distinct_subjects, pstats.max_multiplicity
        );
    }
    println!(
        "\nhigh-multiplicity properties like {} are exactly what makes relational\n\
         evaluation of the unbound queries above explode — see `cargo run -p ntga-bench --bin fig13`.",
        datagen::vocab::bio2rdf::X_REF
    );
}
