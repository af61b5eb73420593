//! Bio2RDF-like life-sciences dataset generator.
//!
//! Structurally mirrors the integrated biological warehouse of the paper's
//! A-series experiments: genes carrying `label`/`geneSymbol` plus
//! multi-valued `synonym`, `xGO` and — crucially — **high-multiplicity**
//! `xRef` edges (Uniprot properties reach multiplicity ≈ 13 K; here the
//! ceiling is configurable), GO terms with labels and namespaces, and
//! reference records. Literals include gene-name words ("hexokinase",
//! "nur77", …) so the paper's partially-bound-object queries (A1, A5, A6)
//! are selective in the same way.

use crate::dist::{sample_multiplicity, Zipf};
use crate::vocab::bio2rdf as v;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::{STriple, TripleStore};

/// Gene-name word list used in labels/symbols; queries bind against these.
pub const GENE_WORDS: [&str; 8] =
    ["hexokinase", "nur77", "retinoid", "homeobox", "kinase", "amylase", "insulin", "collagen"];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct Bio2RdfConfig {
    /// Number of gene records.
    pub genes: usize,
    /// Number of GO terms.
    pub go_terms: usize,
    /// Number of external reference records.
    pub references: usize,
    /// Maximum `xRef` multiplicity (high-multiplicity skew ceiling).
    pub max_xref: usize,
    /// Maximum `xGO` multiplicity.
    pub max_xgo: usize,
    /// Fraction of genes with multi-valued properties.
    pub multi_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Bio2RdfConfig {
    fn default() -> Self {
        Bio2RdfConfig {
            genes: 500,
            go_terms: 150,
            references: 400,
            max_xref: 64,
            max_xgo: 8,
            multi_fraction: 0.8,
            seed: 42,
        }
    }
}

impl Bio2RdfConfig {
    /// Convenience constructor for a gene count.
    pub fn with_genes(genes: usize) -> Self {
        let refs = genes.max(10);
        Bio2RdfConfig {
            genes,
            go_terms: (genes / 3).max(10),
            references: refs,
            ..Default::default()
        }
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generate the dataset.
pub fn generate(cfg: &Bio2RdfConfig) -> TripleStore {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = TripleStore::new();
    let xref_zipf = Zipf::new(cfg.max_xref.max(1), 1.1);
    let xgo_zipf = Zipf::new(cfg.max_xgo.max(1), 0.9);
    let syn_zipf = Zipf::new(4, 1.0);

    for i in 0..cfg.genes {
        let s = format!("<gene{i}>");
        let word = GENE_WORDS[rng.random_range(0..GENE_WORDS.len())];
        store.insert(STriple::new(&s, v::LABEL, format!("\"{word} gene {i}\"")));
        store.insert(STriple::new(&s, v::SYMBOL, format!("\"{}{}\"", &word[..3], i)));
        let syns = sample_multiplicity(&mut rng, 4, cfg.multi_fraction, &syn_zipf);
        for k in 0..syns {
            store.insert(STriple::new(&s, v::SYNONYM, format!("\"{word}-alias-{k}\"")));
        }
        let gos = sample_multiplicity(&mut rng, cfg.max_xgo, cfg.multi_fraction, &xgo_zipf);
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < gos.min(cfg.go_terms) {
            seen.insert(rng.random_range(0..cfg.go_terms));
        }
        for g in seen {
            store.insert(STriple::new(&s, v::X_GO, format!("<go{g}>")));
        }
        // High-multiplicity xRef — the redundancy driver for A-queries.
        let refs = sample_multiplicity(&mut rng, cfg.max_xref, cfg.multi_fraction, &xref_zipf);
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < refs.min(cfg.references) {
            seen.insert(rng.random_range(0..cfg.references));
        }
        for r in seen {
            store.insert(STriple::new(&s, v::X_REF, format!("<ref{r}>")));
        }
        store.insert(STriple::new(&s, v::PATHWAY, format!("<pathway{}>", rng.random_range(0..40))));
        if rng.random_bool(0.7) {
            store.insert(STriple::new(&s, v::ENCODES, format!("<protein{i}>")));
        }
    }

    for g in 0..cfg.go_terms {
        let s = format!("<go{g}>");
        let ns = ["process", "function", "component"][g % 3];
        store.insert(STriple::new(&s, v::GO_LABEL, format!("\"GO term {g}\"")));
        store.insert(STriple::new(&s, v::GO_NAMESPACE, format!("\"{ns}\"")));
    }

    for r in 0..cfg.references {
        let s = format!("<ref{r}>");
        let db = ["pubmed", "omim", "embl", "pdb"][r % 4];
        store.insert(STriple::new(&s, v::REF_DB, format!("\"{db}\"")));
        store.insert(STriple::new(&s, v::REF_ID, format!("\"{db}:{r}\"")));
        if r % 4 == 0 {
            store.insert(STriple::new(
                &s,
                v::ARTICLE_TITLE,
                format!("\"Study {r} of gene function\""),
            ));
        }
    }

    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = generate(&Bio2RdfConfig::with_genes(40));
        let b = generate(&Bio2RdfConfig::with_genes(40));
        assert_eq!(a.triples(), b.triples());
    }

    #[test]
    fn xref_has_high_multiplicity_tail() {
        let cfg = Bio2RdfConfig { genes: 400, max_xref: 64, ..Default::default() };
        let stats = generate(&cfg).stats();
        let xref = &stats.per_property[&rdf_model::atom::atom(v::X_REF)];
        assert!(xref.max_multiplicity >= 16, "max mult {}", xref.max_multiplicity);
    }

    #[test]
    fn labels_contain_gene_words() {
        let store = generate(&Bio2RdfConfig::with_genes(100));
        let hexo = store.iter().filter(|t| &*t.p == v::LABEL && t.o.contains("hexokinase")).count();
        assert!(hexo > 0, "no hexokinase labels generated");
    }

    #[test]
    fn go_terms_have_labels() {
        let store = generate(&Bio2RdfConfig::with_genes(30));
        let gos: std::collections::BTreeSet<_> =
            store.iter().filter(|t| &*t.p == v::X_GO).map(|t| t.o.clone()).collect();
        let labelled: std::collections::BTreeSet<_> =
            store.iter().filter(|t| &*t.p == v::GO_LABEL).map(|t| t.s.clone()).collect();
        for g in gos {
            assert!(labelled.contains(&g), "GO {g} has no label");
        }
    }

    #[test]
    fn multi_valued_fraction_is_high() {
        let stats = generate(&Bio2RdfConfig::with_genes(300)).stats();
        // Paper: real biological data has many multi-valued properties.
        assert!(stats.multi_valued_fraction >= 0.2, "{}", stats.multi_valued_fraction);
    }
}
