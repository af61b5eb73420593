//! The small generated datasets the catalog-wide suites run on: each
//! testbed series is paired with the generator the paper evaluates it on.

use ntga::prelude::*;

pub fn bsbm() -> TripleStore {
    datagen::bsbm::generate(&datagen::BsbmConfig {
        products: 30,
        features: 20,
        max_features_per_product: 10,
        ..Default::default()
    })
}

pub fn bio() -> TripleStore {
    datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(35))
}

pub fn dbp() -> TripleStore {
    datagen::dbpedia::generate(&datagen::DbpediaConfig::with_entities(60))
}
