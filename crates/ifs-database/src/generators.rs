//! Workload generators.
//!
//! The lower-bound experiments build their own adversarial databases inside
//! `ifs-lowerbounds`; the generators here produce the *benign* workloads used
//! by the upper-bound experiments, the examples, and the mining/streaming
//! comparisons:
//!
//! * [`uniform`] — i.i.d. Bernoulli(p) cells, the null model.
//! * [`planted`] — a uniform background with itemsets planted at prescribed
//!   frequencies, so ground-truth frequent itemsets are known exactly.
//! * [`market_basket`] — Zipf-distributed item popularity plus correlated
//!   bundles, the workload the paper's introduction motivates (shopping-cart
//!   analysis).
//! * [`categorical_to_binary`] — footnote 1 of the paper: an attribute with
//!   `m` values becomes `2⌈log₂ m⌉` binary attributes, two per bit position
//!   (one marking bit = 0, one marking bit = 1), so every conjunction over
//!   categorical values is an itemset over the binary attributes.

use crate::{Database, Itemset};
use ifs_util::Rng64;

/// i.i.d. Bernoulli(p) database with `n` rows and `d` attributes.
pub fn uniform(n: usize, d: usize, p: f64, rng: &mut Rng64) -> Database {
    Database::from_fn(n, d, |_, _| rng.bernoulli(p))
}

/// Specification of one planted itemset.
#[derive(Clone, Debug)]
pub struct Plant {
    /// The itemset to plant.
    pub itemset: Itemset,
    /// Target frequency in [0, 1]: each row independently receives the full
    /// itemset with this probability.
    pub frequency: f64,
}

/// Uniform background of density `background_p` with [`Plant`]s overlaid.
///
/// Planting is a union: a row receives the plant's columns in addition to its
/// background bits, so the realized frequency of each plant is at least the
/// target (background can only add support). Tests account for this one-sided
/// bias.
pub fn planted(
    n: usize,
    d: usize,
    background_p: f64,
    plants: &[Plant],
    rng: &mut Rng64,
) -> Database {
    let mut db = uniform(n, d, background_p, rng);
    for plant in plants {
        assert!(plant.itemset.max_item().map_or(0, |m| m as usize) < d);
        for row in 0..n {
            if rng.bernoulli(plant.frequency) {
                for &c in plant.itemset.items() {
                    db.matrix_mut().set(row, c as usize, true);
                }
            }
        }
    }
    db
}

/// Parameters for the synthetic market-basket generator.
#[derive(Clone, Debug)]
pub struct MarketBasketSpec {
    /// Number of transactions (rows).
    pub transactions: usize,
    /// Catalogue size (attributes).
    pub items: usize,
    /// Zipf exponent for item popularity (1.0 is classic Zipf).
    pub zipf_exponent: f64,
    /// Mean number of independently chosen items per transaction.
    pub mean_basket: f64,
    /// Bundles: sets of items bought together, with adoption probability.
    pub bundles: Vec<(Vec<u32>, f64)>,
}

impl Default for MarketBasketSpec {
    fn default() -> Self {
        Self {
            transactions: 1000,
            items: 64,
            zipf_exponent: 1.0,
            mean_basket: 6.0,
            bundles: Vec::new(),
        }
    }
}

/// Synthetic shopping-cart data: Zipf item popularity + correlated bundles.
///
/// Each transaction draws `Poisson`-ish many items (binomial approximation)
/// from a Zipf popularity distribution, then adopts each bundle independently
/// with its probability.
pub fn market_basket(spec: &MarketBasketSpec, rng: &mut Rng64) -> Database {
    let d = spec.items;
    // Zipf weights w_i = 1 / (i+1)^s, normalized.
    let weights: Vec<f64> =
        (0..d).map(|i| 1.0 / ((i + 1) as f64).powf(spec.zipf_exponent)).collect();
    let total: f64 = weights.iter().sum();
    // Per-item inclusion probability scaled to the target mean basket size.
    let probs: Vec<f64> = weights.iter().map(|w| (w / total * spec.mean_basket).min(1.0)).collect();
    let mut db = Database::zeros(spec.transactions, d);
    for row in 0..spec.transactions {
        for (col, &p) in probs.iter().enumerate() {
            if rng.bernoulli(p) {
                db.matrix_mut().set(row, col, true);
            }
        }
        for (bundle, adopt) in &spec.bundles {
            if rng.bernoulli(*adopt) {
                for &c in bundle {
                    db.matrix_mut().set(row, c as usize, true);
                }
            }
        }
    }
    db
}

/// Footnote 1 of the paper: decomposes rows of categorical values into binary
/// attributes.
///
/// Attribute `a` with `m_a` possible values occupies `2⌈log₂ m_a⌉` binary
/// columns: for each bit position `b` of the value's binary representation,
/// one column fires when bit `b` is 0 and the next when bit `b` is 1. Any
/// equality predicate `a = v` is then the conjunction of `⌈log₂ m_a⌉` binary
/// attributes, i.e. an itemset.
pub fn categorical_to_binary(rows: &[Vec<u32>], cardinalities: &[u32]) -> Database {
    let widths: Vec<usize> = cardinalities
        .iter()
        .map(|&m| {
            assert!(m >= 1, "attribute cardinality must be >= 1");
            if m == 1 {
                1
            } else {
                (32 - (m - 1).leading_zeros()) as usize
            }
        })
        .collect();
    let offsets: Vec<usize> = widths
        .iter()
        .scan(0usize, |acc, &w| {
            let o = *acc;
            *acc += 2 * w;
            Some(o)
        })
        .collect();
    let d: usize = widths.iter().map(|w| 2 * w).sum();
    let mut db = Database::zeros(rows.len(), d);
    for (r, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), cardinalities.len(), "row arity mismatch");
        for (a, &v) in row.iter().enumerate() {
            assert!(v < cardinalities[a], "value {v} out of range for attribute {a}");
            for b in 0..widths[a] {
                let bit = (v >> b) & 1;
                // Column pair for bit b: offset + 2b is "bit==0", +2b+1 is "bit==1".
                db.matrix_mut().set(r, offsets[a] + 2 * b + bit as usize, true);
            }
        }
    }
    db
}

/// The itemset expressing `attribute == value` over the binary decomposition
/// produced by [`categorical_to_binary`].
pub fn categorical_predicate(cardinalities: &[u32], attribute: usize, value: u32) -> Itemset {
    let widths: Vec<usize> = cardinalities
        .iter()
        .map(|&m| if m == 1 { 1 } else { (32 - (m - 1).leading_zeros()) as usize })
        .collect();
    let offset: usize = widths.iter().take(attribute).map(|w| 2 * w).sum();
    let mut items = Vec::new();
    for b in 0..widths[attribute] {
        let bit = (value >> b) & 1;
        items.push((offset + 2 * b + bit as usize) as u32);
    }
    Itemset::new(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_density_near_p() {
        let mut rng = Rng64::seeded(1);
        let db = uniform(500, 64, 0.25, &mut rng);
        assert!((db.density() - 0.25).abs() < 0.02, "density {}", db.density());
    }

    #[test]
    fn planted_itemset_reaches_target_frequency() {
        let mut rng = Rng64::seeded(2);
        let t = Itemset::new(vec![3, 7, 11]);
        let db = planted(2000, 32, 0.05, &[Plant { itemset: t.clone(), frequency: 0.4 }], &mut rng);
        let f = db.frequency(&t);
        // One-sided: background can only add support.
        assert!(f >= 0.35, "freq {f}");
        assert!(f <= 0.50, "freq {f}");
    }

    #[test]
    fn market_basket_bundles_cooccur() {
        let mut rng = Rng64::seeded(3);
        let spec = MarketBasketSpec {
            transactions: 2000,
            items: 50,
            bundles: vec![(vec![40, 41, 42], 0.3)],
            ..Default::default()
        };
        let db = market_basket(&spec, &mut rng);
        let bundle = Itemset::new(vec![40, 41, 42]);
        let f = db.frequency(&bundle);
        assert!(f > 0.25, "bundle frequency {f}");
        // Unpopular tail items are rare individually outside the bundle.
        let tail = Itemset::new(vec![45, 46, 47]);
        assert!(db.frequency(&tail) < f / 2.0);
    }

    #[test]
    fn market_basket_popularity_is_monotone() {
        let mut rng = Rng64::seeded(4);
        let spec = MarketBasketSpec { transactions: 4000, items: 20, ..Default::default() };
        let db = market_basket(&spec, &mut rng);
        let f0 = db.frequency(&Itemset::singleton(0));
        let f10 = db.frequency(&Itemset::singleton(10));
        assert!(f0 > f10, "zipf head {f0} should beat tail {f10}");
    }

    #[test]
    fn categorical_decomposition_width() {
        // Cardinalities 4 and 3 need 2 bits each -> 2*(2+2) = 8 columns.
        let db = categorical_to_binary(&[vec![0, 0]], &[4, 3]);
        assert_eq!(db.dims(), 8);
        // Every bit position sets exactly one of its column pair.
        assert_eq!(db.row_itemset(0).len(), 4);
    }

    #[test]
    fn categorical_predicate_matches_exactly() {
        let cards = [4u32, 3u32];
        let rows = vec![vec![2, 1], vec![2, 2], vec![3, 1], vec![0, 1]];
        let db = categorical_to_binary(&rows, &cards);
        // attribute 0 == 2 holds for rows 0 and 1.
        let p = categorical_predicate(&cards, 0, 2);
        assert_eq!(db.support(&p), 2);
        // attribute 1 == 1 holds for rows 0, 2, 3.
        let p = categorical_predicate(&cards, 1, 1);
        assert_eq!(db.support(&p), 3);
        // Conjunction (a0==2 AND a1==1): only row 0.
        let conj = categorical_predicate(&cards, 0, 2).union(&categorical_predicate(&cards, 1, 1));
        assert_eq!(db.support(&conj), 1);
    }

    #[test]
    fn categorical_cardinality_one() {
        let db = categorical_to_binary(&[vec![0], vec![0]], &[1]);
        assert_eq!(db.dims(), 2);
        let p = categorical_predicate(&[1], 0, 0);
        assert_eq!(db.support(&p), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn categorical_value_out_of_range() {
        categorical_to_binary(&[vec![4]], &[4]);
    }
}
