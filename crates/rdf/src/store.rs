//! In-memory triple store with the statistics that drive the paper's
//! redundancy analysis.
//!
//! The phenomenon the paper studies — intermediate-result redundancy under
//! unbound-property joins — is governed by *property multiplicity*: how many
//! triples a subject has for a given property (and in total). Real
//! warehouses like Uniprot have properties with multiplicity up to 13K.
//! [`TripleStore::stats`] computes these distributions so experiments can
//! verify their synthetic data matches the paper's regimes.

use crate::atom::Atom;
use crate::ntriples::{parse_str, NtParseError};
use crate::triple::STriple;
use std::collections::{BTreeMap, HashMap, HashSet};

/// An in-memory collection of lexical triples.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    triples: Vec<STriple>,
}

/// Per-property statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyStats {
    /// Total triples with this property.
    pub count: u64,
    /// Distinct subjects having this property.
    pub distinct_subjects: u64,
    /// Distinct object tokens this property takes.
    pub distinct_objects: u64,
    /// Maximum number of triples one subject has for this property.
    pub max_multiplicity: u64,
    /// Mean triples-per-subject for subjects that have the property at all.
    pub mean_multiplicity: f64,
}

impl PropertyStats {
    /// True if at least one subject carries this property more than once.
    pub fn is_multi_valued(&self) -> bool {
        self.max_multiplicity > 1
    }
}

/// Whole-store statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreStats {
    /// Number of triples.
    pub triples: u64,
    /// Number of distinct subjects.
    pub distinct_subjects: u64,
    /// Number of distinct object tokens.
    pub distinct_objects: u64,
    /// Number of distinct properties.
    pub distinct_properties: u64,
    /// Total text size of the store in bytes (as N-Triples rows).
    pub text_bytes: u64,
    /// Fraction of properties that are multi-valued (the paper reports
    /// >45 % for DBpedia Infobox and BTC-09).
    pub multi_valued_fraction: f64,
    /// Per-property statistics, keyed by property token.
    pub per_property: BTreeMap<Atom, PropertyStats>,
}

impl TripleStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a store from a vector of triples.
    pub fn from_triples(triples: Vec<STriple>) -> Self {
        TripleStore { triples }
    }

    /// Parse an N-Triples document into a store.
    pub fn from_ntriples(doc: &str) -> Result<Self, NtParseError> {
        Ok(TripleStore { triples: parse_str(doc)? })
    }

    /// Append one triple.
    pub fn insert(&mut self, t: STriple) {
        self.triples.push(t);
    }

    /// Append many triples.
    pub fn extend(&mut self, ts: impl IntoIterator<Item = STriple>) {
        self.triples.extend(ts);
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Borrow the triples.
    pub fn triples(&self) -> &[STriple] {
        &self.triples
    }

    /// Iterate over triples.
    pub fn iter(&self) -> std::slice::Iter<'_, STriple> {
        self.triples.iter()
    }

    /// Total text size (N-Triples rows) in bytes.
    pub fn text_bytes(&self) -> u64 {
        self.triples.iter().map(STriple::text_size).sum()
    }

    /// The set of distinct property tokens, sorted.
    pub fn properties(&self) -> Vec<Atom> {
        let set: HashSet<&Atom> = self.triples.iter().map(|t| &t.p).collect();
        let mut v: Vec<Atom> = set.into_iter().cloned().collect();
        v.sort();
        v
    }

    /// Compute full store statistics in a single pass.
    pub fn stats(&self) -> StoreStats {
        /// Accumulator per property: count, subject multiplicities, objects.
        type PropAcc<'a> = (u64, HashMap<&'a Atom, u64>, HashSet<&'a Atom>);
        let mut subjects: HashSet<&Atom> = HashSet::new();
        let mut objects: HashSet<&Atom> = HashSet::new();
        let mut per_prop: HashMap<&Atom, PropAcc<'_>> = HashMap::new();
        let mut text_bytes = 0u64;
        for t in &self.triples {
            subjects.insert(&t.s);
            objects.insert(&t.o);
            text_bytes += t.text_size();
            let entry = per_prop.entry(&t.p).or_default();
            entry.0 += 1;
            *entry.1.entry(&t.s).or_insert(0) += 1;
            entry.2.insert(&t.o);
        }
        let mut per_property = BTreeMap::new();
        let mut multi = 0u64;
        for (p, (count, subs, objs)) in &per_prop {
            let max_multiplicity = subs.values().copied().max().unwrap_or(0);
            let distinct_subjects = subs.len() as u64;
            let distinct_objects = objs.len() as u64;
            let mean_multiplicity =
                if distinct_subjects == 0 { 0.0 } else { *count as f64 / distinct_subjects as f64 };
            if max_multiplicity > 1 {
                multi += 1;
            }
            per_property.insert(
                (*p).clone(),
                PropertyStats {
                    count: *count,
                    distinct_subjects,
                    distinct_objects,
                    max_multiplicity,
                    mean_multiplicity,
                },
            );
        }
        let distinct_properties = per_prop.len() as u64;
        StoreStats {
            triples: self.triples.len() as u64,
            distinct_subjects: subjects.len() as u64,
            distinct_objects: objects.len() as u64,
            distinct_properties,
            text_bytes,
            multi_valued_fraction: if distinct_properties == 0 {
                0.0
            } else {
                multi as f64 / distinct_properties as f64
            },
            per_property,
        }
    }
}

impl IntoIterator for TripleStore {
    type Item = STriple;
    type IntoIter = std::vec::IntoIter<STriple>;
    fn into_iter(self) -> Self::IntoIter {
        self.triples.into_iter()
    }
}

impl<'a> IntoIterator for &'a TripleStore {
    type Item = &'a STriple;
    type IntoIter = std::slice::Iter<'a, STriple>;
    fn into_iter(self) -> Self::IntoIter {
        self.triples.iter()
    }
}

impl FromIterator<STriple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = STriple>>(iter: I) -> Self {
        TripleStore { triples: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g2>", "<label>", "\"b\""),
        ])
    }

    #[test]
    fn stats_counts() {
        let s = sample().stats();
        assert_eq!(s.triples, 4);
        assert_eq!(s.distinct_subjects, 2);
        assert_eq!(s.distinct_properties, 2);
    }

    #[test]
    fn stats_multiplicity() {
        let s = sample().stats();
        let go = &s.per_property[&crate::atom::atom("<xGO>")];
        assert_eq!(go.count, 2);
        assert_eq!(go.distinct_subjects, 1);
        assert_eq!(go.distinct_objects, 2);
        assert_eq!(go.max_multiplicity, 2);
        assert!((go.mean_multiplicity - 2.0).abs() < 1e-9);
        assert!(go.is_multi_valued());
        let label = &s.per_property[&crate::atom::atom("<label>")];
        assert_eq!(label.max_multiplicity, 1);
        assert!(!label.is_multi_valued());
    }

    #[test]
    fn stats_multi_valued_fraction() {
        let s = sample().stats();
        assert!((s.multi_valued_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn text_bytes_matches_serialization() {
        let store = sample();
        let manual: u64 = store.iter().map(|t| t.to_string().len() as u64 + 1).sum();
        assert_eq!(store.text_bytes(), manual);
        assert_eq!(store.stats().text_bytes, manual);
    }

    #[test]
    fn empty_store_stats() {
        let s = TripleStore::new().stats();
        assert_eq!(s.triples, 0);
        assert_eq!(s.multi_valued_fraction, 0.0);
    }

    #[test]
    fn properties_sorted_distinct() {
        let props = sample().properties();
        assert_eq!(props.len(), 2);
        assert!(props[0] < props[1]);
    }

    #[test]
    fn from_ntriples_roundtrip() {
        let doc = "<a> <p> <b> .\n<a> <q> \"x\" .\n";
        let store = TripleStore::from_ntriples(doc).unwrap();
        assert_eq!(store.len(), 2);
    }
}
