//! Property-based tests for the N-Triples parser/serializer: every term
//! the model can represent round-trips through its textual form, and
//! store statistics behave as set-theoretic functions of the triples.

use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest};
use proptest::strategy::Strategy;
use rdf_model::{parse_line, STriple, Term, TripleStore};

fn arb_iri() -> impl Strategy<Value = Term> {
    "[a-zA-Z][a-zA-Z0-9:/#._-]{0,30}".prop_map(Term::iri)
}

fn arb_bnode() -> impl Strategy<Value = Term> {
    "[a-zA-Z0-9][a-zA-Z0-9_-]{0,15}".prop_map(Term::BNode)
}

fn arb_literal() -> impl Strategy<Value = Term> {
    // Lexical forms include the characters that need escaping.
    let lex = prop::collection::vec(
        prop::sample::select(vec!['a', 'b', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', 'é', '中']),
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect::<String>());
    let kind = prop::sample::select(vec![0u8, 1, 2]);
    (lex, kind, "[a-z][a-z0-9]{0,8}").prop_map(|(lexical, kind, tag)| match kind {
        0 => Term::Literal { lexical, datatype: None, language: None },
        1 => Term::Literal { lexical, datatype: Some(format!("http://dt/{tag}")), language: None },
        _ => Term::Literal { lexical, datatype: None, language: Some(tag) },
    })
}

fn arb_subject() -> impl Strategy<Value = Term> {
    prop::strategy::Union::new([arb_iri().boxed(), arb_bnode().boxed()])
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop::strategy::Union::new([arb_iri().boxed(), arb_bnode().boxed(), arb_literal().boxed()])
}

proptest! {
    #[test]
    fn term_roundtrip(s in arb_subject(), p in arb_iri(), o in arb_object()) {
        let line = format!("{s} {p} {o} .");
        let (s2, p2, o2) = parse_line(&line)
            .expect("serialized triple must parse")
            .expect("not a comment");
        prop_assert_eq!((s, p, o), (s2, p2, o2), "line was: {}", line);
    }

    #[test]
    fn text_size_matches_rendered_length(s in arb_subject(), p in arb_iri(), o in arb_object()) {
        let st = STriple::from_terms(&s, &p, &o);
        prop_assert_eq!(st.text_size(), st.to_string().len() as u64 + 1);
    }

    #[test]
    fn store_stats_are_consistent(
        triples in prop::collection::vec((arb_subject(), arb_iri(), arb_object()), 0..25)
    ) {
        let store: TripleStore = triples
            .iter()
            .map(|(s, p, o)| STriple::from_terms(s, p, o))
            .collect();
        let stats = store.stats();
        prop_assert_eq!(stats.triples, store.len() as u64);
        // Per-property counts must sum to the total.
        let sum: u64 = stats.per_property.values().map(|p| p.count).sum();
        prop_assert_eq!(sum, stats.triples);
        // Every property's distinct subjects is bounded by the store's.
        for p in stats.per_property.values() {
            prop_assert!(p.distinct_subjects <= stats.distinct_subjects);
            prop_assert!(p.max_multiplicity as f64 >= p.mean_multiplicity);
            prop_assert!(p.mean_multiplicity >= 1.0);
        }
        prop_assert_eq!(stats.text_bytes, store.text_bytes());
    }

    #[test]
    fn document_roundtrip(
        triples in prop::collection::vec((arb_subject(), arb_iri(), arb_object()), 0..15)
    ) {
        let doc: String = triples
            .iter()
            .map(|(s, p, o)| format!("{s} {p} {o} .\n"))
            .collect();
        let parsed = rdf_model::parse_str(&doc).expect("document must parse");
        prop_assert_eq!(parsed.len(), triples.len());
        // Serialize again: byte-identical document.
        let doc2: String = parsed.iter().map(|t| format!("{t}\n")).collect();
        prop_assert_eq!(doc, doc2);
    }

    #[test]
    fn garbage_never_panics(line in "[ -~]{0,60}") {
        // Parsing arbitrary printable ASCII must return Ok/Err, not panic.
        let _ = parse_line(&line);
    }
}
