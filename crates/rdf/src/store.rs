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
use crate::hash::TokenBuildHasher;
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
        let mut acc = StatsBuilder::default();
        for t in &self.triples {
            acc.add(&t.s, &t.p, &t.o);
        }
        acc.finish()
    }
}

/// Accumulator per property: count, subject multiplicities, objects.
#[derive(Default)]
struct PropAcc<'a> {
    count: u64,
    subjects: HashMap<&'a str, u64, TokenBuildHasher>,
    objects: HashSet<&'a str, TokenBuildHasher>,
}

/// The one ANALYZE pass: [`StoreStats`] accumulated over borrowed tokens,
/// whoever holds them — a [`TripleStore`]'s atoms or an encoded relation
/// read in place. Integer counts only until [`finish`](Self::finish), so
/// the result does not depend on the order of the triples or of the hash
/// tables.
#[derive(Default)]
pub struct StatsBuilder<'a> {
    triples: u64,
    text_bytes: u64,
    subjects: HashSet<&'a str, TokenBuildHasher>,
    objects: HashSet<&'a str, TokenBuildHasher>,
    per_prop: HashMap<&'a str, PropAcc<'a>, TokenBuildHasher>,
}

impl<'a> StatsBuilder<'a> {
    /// Count one triple.
    pub fn add(&mut self, s: &'a str, p: &'a str, o: &'a str) {
        self.triples += 1;
        self.text_bytes += STriple::text_size_of(s, p, o);
        self.subjects.insert(s);
        self.objects.insert(o);
        let prop = self.per_prop.entry(p).or_default();
        prop.count += 1;
        *prop.subjects.entry(s).or_insert(0) += 1;
        prop.objects.insert(o);
    }

    /// The statistics of everything added.
    pub fn finish(self) -> StoreStats {
        let mut per_property = BTreeMap::new();
        let mut multi = 0u64;
        for (p, acc) in &self.per_prop {
            let max_multiplicity = acc.subjects.values().copied().max().unwrap_or(0);
            let distinct_subjects = acc.subjects.len() as u64;
            if max_multiplicity > 1 {
                multi += 1;
            }
            per_property.insert(
                Atom::from(*p),
                PropertyStats {
                    count: acc.count,
                    distinct_subjects,
                    distinct_objects: acc.objects.len() as u64,
                    max_multiplicity,
                    // A property is only here through a triple that has it.
                    mean_multiplicity: acc.count as f64 / distinct_subjects as f64,
                },
            );
        }
        let distinct_properties = self.per_prop.len() as u64;
        StoreStats {
            triples: self.triples,
            distinct_subjects: self.subjects.len() as u64,
            distinct_objects: self.objects.len() as u64,
            distinct_properties,
            text_bytes: self.text_bytes,
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
        let label = &s.per_property[&crate::atom::atom("<label>")];
        assert_eq!(label.max_multiplicity, 1);
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
