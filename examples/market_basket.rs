//! Market-basket analysis on a sketch — the scenario the paper's
//! introduction opens with: "given shopping cart data, identify bundles of
//! items that are frequently bought together", without keeping the data.
//!
//! Run with: `cargo run --release --example market_basket`

use itemset_sketches::mining::{self, oracle, rules, summary};
use itemset_sketches::prelude::*;

fn main() {
    let mut rng = Rng64::seeded(42);

    // Synthetic transactions: Zipf-popular catalogue + two real bundles.
    let spec = generators::MarketBasketSpec {
        transactions: 60_000,
        items: 40,
        zipf_exponent: 1.1,
        mean_basket: 5.0,
        bundles: vec![
            (vec![30, 31, 32], 0.20), // e.g. pasta + sauce + parmesan
            (vec![35, 36], 0.15),     // e.g. chips + salsa
        ],
    };
    let db = generators::market_basket(&spec, &mut rng);
    println!("transactions: {} over {} items, density {:.3}", db.rows(), db.dims(), db.density());

    // Keep only a For-All-Estimator sample; pretend the raw data is gone.
    let params = SketchParams::new(3, 0.03, 0.05);
    let sketch = Subsample::build(&db, &params, Guarantee::ForAllEstimator, &mut rng);
    let full_bits = ReleaseDb::build(&db, params.epsilon).size_bits();
    // The Lemma 9 sample size depends on d, k, ε and δ, not on n: at this ε
    // and n the sample is the smaller summary, which is its whole point.
    assert!(sketch.size_bits() < full_bits, "the sample must be smaller than the database");
    println!(
        "sketch: {} sampled rows, {} bits ({:.1}% of the database's RELEASE-DB frame)",
        sketch.rows(),
        sketch.size_bits(),
        100.0 * sketch.size_bits() as f64 / full_bits as f64
    );

    // Mine frequent bundles from the sketch alone ([MT96]: mine at θ − ε).
    let theta = 0.12;
    let mined = oracle::mine_with_estimator(&sketch, db.dims(), theta - params.epsilon, 3);
    let exact = mining::apriori::mine(&db, theta, 3);
    let (recall, precision) = oracle::recall_precision(&mined, &exact);
    println!(
        "\nmining at θ = {theta}: {} itemsets from sketch, {} exact (recall {:.3}, precision {:.3})",
        mined.len(),
        exact.len(),
        recall,
        precision
    );

    // Condensed representation: maximal bundles only.
    let maximal = summary::maximal(&mined);
    println!("\nmaximal frequent bundles (from sketch):");
    let mut sorted = maximal.clone();
    sorted.sort_by(|a, b| b.frequency.partial_cmp(&a.frequency).unwrap());
    for m in sorted.iter().take(8) {
        println!("  {:<14} est. frequency {:.3}", m.itemset.to_string(), m.frequency);
    }

    // Association rules with estimated confidences.
    let derived = rules::derive(&mined, 0.6);
    println!("\ntop rules (confidence ≥ 0.6):");
    for r in derived.iter().take(6) {
        println!(
            "  {} => {}   conf {:.3}  lift {:.2}",
            r.antecedent, r.consequent, r.confidence, r.lift
        );
    }

    // Ground truth check on the planted bundles.
    println!("\nplanted bundle frequencies (truth vs sketch):");
    for bundle in [Itemset::new(vec![30, 31, 32]), Itemset::new(vec![35, 36])] {
        println!(
            "  {:<14} truth {:.3}  sketch {:.3}",
            bundle.to_string(),
            db.frequency(&bundle),
            sketch.estimate(&bundle)
        );
    }
}
