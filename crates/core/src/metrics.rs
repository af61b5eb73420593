//! Redundancy metrics.
//!
//! The paper characterizes intermediate results by their *redundancy
//! factor* (e.g. 0.89 for query C4 on DBpedia): the fraction of bytes in
//! the flat relational representation that are repetitions a nested
//! triplegroup representation avoids.

use crate::tg::AnnTg;
use mrsim::Rec;

/// Redundancy factor of a flat representation versus its concise
/// (nested) equivalent: `1 − nested_bytes / flat_bytes`.
///
/// Returns 0 when the flat representation is empty or not larger.
pub fn redundancy_factor(flat_bytes: u64, nested_bytes: u64) -> f64 {
    if flat_bytes == 0 || nested_bytes >= flat_bytes {
        return 0.0;
    }
    1.0 - nested_bytes as f64 / flat_bytes as f64
}

/// Bytes of the flat (fully unnested, relational-style) representation a
/// set of annotated triplegroups stands for: each implicit combination
/// costs the subject plus one `(property, object)` pair per pattern
/// position.
pub fn flat_bytes_of(tgs: &[AnnTg]) -> u64 {
    let mut total = 0u64;
    for tg in tgs {
        // Row bytes: subject repeated per position + each chosen pair.
        // Compute Σ over combinations without enumerating: for each
        // position, each choice appears (combinations / n_position) times.
        let combos = tg.combination_count();
        if combos == 0 {
            continue;
        }
        let mut add = |n: u64, bytes: u64| total = total.saturating_add(n.saturating_mul(bytes));
        let positions = tg.bound.len() as u64 + tg.unbound.len() as u64;
        let subj = tg.subject.len() as u64 + 1;
        add(combos, subj * positions.max(1));
        for (p, objs) in &tg.bound {
            let per_choice = combos / objs.len() as u64;
            for o in objs {
                add(per_choice, p.len() as u64 + o.len() as u64 + 2);
            }
        }
        for cands in &tg.unbound {
            let per_choice = combos / cands.len() as u64;
            for (p, o) in cands {
                add(per_choice, p.len() as u64 + o.len() as u64 + 2);
            }
        }
    }
    total
}

/// Bytes of the nested representation (sum of triplegroup text sizes).
pub fn nested_bytes_of(tgs: &[AnnTg]) -> u64 {
    tgs.iter().map(Rec::text_size).sum()
}

/// Redundancy factor of a set of annotated triplegroups: how much of the
/// equivalent flat representation is repetition.
pub fn tg_redundancy(tgs: &[AnnTg]) -> f64 {
    redundancy_factor(flat_bytes_of(tgs), nested_bytes_of(tgs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tg(n_unbound: usize) -> AnnTg {
        AnnTg {
            subject: "<gene9>".into(),
            ec: 0,
            bound: vec![("<label>".into(), vec!["\"retinoid\"".into()])],
            unbound: vec![(0..n_unbound)
                .map(|i| ("<xRef>".into(), format!("<ref{i}>").into()))
                .collect()],
        }
    }

    #[test]
    fn factor_basics() {
        assert_eq!(redundancy_factor(0, 0), 0.0);
        assert_eq!(redundancy_factor(100, 100), 0.0);
        assert!((redundancy_factor(100, 25) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn flat_bytes_match_enumeration() {
        let tg = tg(3);
        // Enumerate by hand: 3 combos, each row = subj×2 positions + label
        // pair + one candidate pair.
        let subj = "<gene9>".len() as u64 + 1;
        let label_pair = "<label>".len() as u64 + "\"retinoid\"".len() as u64 + 2;
        let mut expected = 0;
        for i in 0..3 {
            let cand = "<xRef>".len() as u64 + format!("<ref{i}>").len() as u64 + 2;
            expected += subj * 2 + label_pair + cand;
        }
        assert_eq!(flat_bytes_of(&[tg]), expected);
    }

    #[test]
    fn flat_bytes_saturate_past_u64_max_combinations() {
        // 300^8 combinations: more than u64::MAX.
        let mut wide = tg(300);
        wide.unbound = vec![wide.unbound[0].clone(); 8];
        assert_eq!(wide.combination_count(), u64::MAX);
        assert_eq!(flat_bytes_of(&[wide.clone(), wide.clone()]), u64::MAX);
        assert!(tg_redundancy(&[wide]) > 0.99);
    }

    #[test]
    fn redundancy_grows_with_multiplicity() {
        let low = tg_redundancy(&[tg(2)]);
        let high = tg_redundancy(&[tg(50)]);
        assert!(high > low, "high {high} <= low {low}");
        // With 50 candidates the bound component repeats 50×: redundancy
        // approaches the paper's 0.89–0.98 regime.
        assert!(high > 0.5, "{high}");
    }

    #[test]
    fn no_redundancy_for_single_combination() {
        let t = AnnTg {
            subject: "<s>".into(),
            ec: 0,
            bound: vec![("<p>".into(), vec!["<o>".into()])],
            unbound: vec![],
        };
        // Flat and nested are nearly the same size (one row).
        let f = tg_redundancy(&[t]);
        assert!(f < 0.35, "{f}");
    }
}
