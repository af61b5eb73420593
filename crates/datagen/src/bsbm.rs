//! BSBM-like synthetic dataset generator.
//!
//! Mirrors the structure of the Berlin SPARQL Benchmark data the paper
//! uses for scalability experiments (BSBM-1M ≈ 370 M triples, BSBM-2M ≈
//! 700 M triples): products with a multi-valued `productFeature` property,
//! producers, offers and reviews. The `scale` knob is the number of
//! products; all other entity counts derive from it with BSBM-like ratios,
//! so ~`scale × 37` triples are produced — the paper's ratio of triples to
//! products.

use crate::dist::{sample_multiplicity, Zipf};
use crate::vocab::bsbm as v;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::{STriple, TripleStore};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct BsbmConfig {
    /// Number of products (the paper's "1M"/"2M" scale knob).
    pub products: usize,
    /// Distinct product features (objects of `productFeature`).
    pub features: usize,
    /// Maximum `productFeature` multiplicity per product.
    pub max_features_per_product: usize,
    /// Fraction of products with more than one feature.
    pub multi_feature_fraction: f64,
    /// Offers per product (average).
    pub offers_per_product: f64,
    /// Reviews per product (average).
    pub reviews_per_product: f64,
    /// RNG seed — equal seeds produce identical datasets.
    pub seed: u64,
}

impl Default for BsbmConfig {
    fn default() -> Self {
        BsbmConfig {
            products: 1000,
            features: 200,
            max_features_per_product: 20,
            multi_feature_fraction: 0.9,
            offers_per_product: 4.0,
            reviews_per_product: 2.0,
            seed: 42,
        }
    }
}

impl BsbmConfig {
    /// Convenience constructor for a given product count.
    pub fn with_products(products: usize) -> Self {
        BsbmConfig { products, ..Default::default() }
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generate the dataset.
pub fn generate(cfg: &BsbmConfig) -> TripleStore {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = TripleStore::new();
    let producers = (cfg.products / 20).max(1);
    let feature_zipf = Zipf::new(cfg.max_features_per_product.max(1), 0.8);

    // Producers.
    for i in 0..producers {
        let s = format!("<bsbm:producer{i}>");
        store.insert(STriple::new(&s, v::TYPE, v::CLASS_PRODUCER));
        store.insert(STriple::new(&s, v::LABEL, format!("\"Producer {i}\"")));
        store.insert(STriple::new(&s, v::COUNTRY, format!("<country{}>", i % 24)));
        store.insert(STriple::new(&s, v::HOMEPAGE, format!("<http://producer{i}.example>")));
    }

    // Products.
    for i in 0..cfg.products {
        let s = format!("<bsbm:product{i}>");
        store.insert(STriple::new(&s, v::TYPE, v::CLASS_PRODUCT));
        store.insert(STriple::new(&s, v::LABEL, format!("\"Product {i}\"")));
        store.insert(STriple::new(
            &s,
            v::COMMENT,
            format!("\"A fine product number {i} with a longer descriptive comment.\""),
        ));
        store.insert(STriple::new(
            &s,
            v::PRODUCER,
            format!("<bsbm:producer{}>", rng.random_range(0..producers)),
        ));
        for p in v::NUMERIC {
            store.insert(STriple::new(&s, p, format!("\"{}\"", rng.random_range(0..2000))));
        }
        for p in v::TEXTUAL {
            store.insert(STriple::new(
                &s,
                p,
                format!("\"text value {}\"", rng.random_range(0..500)),
            ));
        }
        // Multi-valued productFeature — the redundancy driver.
        let k = sample_multiplicity(
            &mut rng,
            cfg.max_features_per_product,
            cfg.multi_feature_fraction,
            &feature_zipf,
        );
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < k.min(cfg.features) {
            seen.insert(rng.random_range(0..cfg.features));
        }
        for f in seen {
            store.insert(STriple::new(&s, v::PRODUCT_FEATURE, format!("<bsbm:feature{f}>")));
        }
    }

    // Feature entities (so OS joins through productFeature have targets).
    for f in 0..cfg.features {
        let s = format!("<bsbm:feature{f}>");
        store.insert(STriple::new(&s, v::LABEL, format!("\"Feature {f}\"")));
    }

    // Offers.
    let offers = (cfg.products as f64 * cfg.offers_per_product) as usize;
    for i in 0..offers {
        let s = format!("<bsbm:offer{i}>");
        store.insert(STriple::new(&s, v::TYPE, v::CLASS_OFFER));
        store.insert(STriple::new(
            &s,
            v::OFFER_PRODUCT,
            format!("<bsbm:product{}>", rng.random_range(0..cfg.products)),
        ));
        store.insert(STriple::new(&s, v::PRICE, format!("\"{}\"", rng.random_range(1..10_000))));
        store.insert(STriple::new(&s, v::VENDOR, format!("<bsbm:vendor{}>", i % 50)));
    }

    // Reviews.
    let reviews = (cfg.products as f64 * cfg.reviews_per_product) as usize;
    for i in 0..reviews {
        let s = format!("<bsbm:review{i}>");
        store.insert(STriple::new(&s, v::TYPE, v::CLASS_REVIEW));
        store.insert(STriple::new(
            &s,
            v::REVIEW_FOR,
            format!("<bsbm:product{}>", rng.random_range(0..cfg.products)),
        ));
        store.insert(STriple::new(&s, v::RATING, format!("\"{}\"", rng.random_range(1..=10))));
        store.insert(STriple::new(&s, v::REVIEW_TITLE, format!("\"Review {i}\"")));
    }

    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&BsbmConfig::with_products(50));
        let b = generate(&BsbmConfig::with_products(50));
        assert_eq!(a.triples(), b.triples());
        let c = generate(&BsbmConfig::with_products(50).with_seed(7));
        assert_ne!(a.triples(), c.triples());
    }

    #[test]
    fn product_feature_is_multi_valued() {
        let store = generate(&BsbmConfig::with_products(200));
        let stats = store.stats();
        let pf = &stats.per_property[&rdf_model::atom::atom(v::PRODUCT_FEATURE)];
        assert!(pf.max_multiplicity > 1, "max mult {}", pf.max_multiplicity);
        assert!(pf.mean_multiplicity > 1.5, "mean {}", pf.mean_multiplicity);
        assert!(pf.max_multiplicity <= 20);
    }

    #[test]
    fn label_is_single_valued() {
        let store = generate(&BsbmConfig::with_products(100));
        let stats = store.stats();
        let label = &stats.per_property[&rdf_model::atom::atom(v::LABEL)];
        assert_eq!(label.max_multiplicity, 1);
    }

    #[test]
    fn scale_ratio_roughly_bsbm() {
        // Paper: 1M products ≈ 370M triples (~37× products + fixed cost).
        let store = generate(&BsbmConfig::with_products(500));
        let ratio = store.len() as f64 / 500.0;
        assert!((15.0..60.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn all_offers_reference_existing_products() {
        let store = generate(&BsbmConfig::with_products(30));
        for t in store.iter() {
            if &*t.p == v::OFFER_PRODUCT {
                assert!(t.o.starts_with("<bsbm:product"));
            }
        }
    }
}
