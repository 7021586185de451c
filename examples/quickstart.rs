//! Quickstart: build a database, sketch it four ways, query itemsets.
//!
//! Run with: `cargo run --release --example quickstart`

use itemset_sketches::prelude::*;

fn main() {
    let mut rng = Rng64::seeded(2016);

    // A database with 50k rows over 24 attributes and two planted itemsets.
    let hot = Itemset::new(vec![1, 5, 9]);
    let warm = Itemset::new(vec![2, 3, 7]);
    let db = generators::planted(
        50_000,
        24,
        0.05,
        &[
            generators::Plant { itemset: hot.clone(), frequency: 0.30 },
            generators::Plant { itemset: warm.clone(), frequency: 0.12 },
        ],
        &mut rng,
    );
    let params = SketchParams::new(3, 0.05, 0.05);

    // The three naive algorithms of the paper (§2). RELEASE-DB ships the
    // database itself, so its frame is the "full database" size.
    let release_db = ReleaseDb::build(&db, params.epsilon);
    let full_bits = release_db.size_bits();
    println!(
        "database: {} rows x {} attributes ({} bits as a RELEASE-DB frame)",
        db.rows(),
        db.dims(),
        full_bits
    );
    let answers = ReleaseAnswersEstimator::build(&db, 3, params.epsilon);
    let sample = Subsample::build(&db, &params, Guarantee::ForAllEstimator, &mut rng);

    println!("\n{:<22} {:>14} {:>12}", "sketch", "size (bits)", "vs full db");
    for (name, bits) in [
        ("RELEASE-DB", release_db.size_bits()),
        ("RELEASE-ANSWERS", answers.size_bits()),
        ("SUBSAMPLE", sample.size_bits()),
    ] {
        println!("{:<22} {:>14} {:>11.2}x", name, bits, bits as f64 / full_bits as f64);
    }

    // Query both planted itemsets and a cold one through every sketch.
    let cold = Itemset::new(vec![20, 21, 22]);
    println!(
        "\n{:<12} {:>9} {:>12} {:>12} {:>12}",
        "itemset", "truth", "release-db", "answers", "subsample"
    );
    for t in [&hot, &warm, &cold] {
        println!(
            "{:<12} {:>9.4} {:>12.4} {:>12.4} {:>12.4}",
            t.to_string(),
            db.frequency(t),
            release_db.estimate(t),
            answers.estimate(t),
            sample.estimate(t),
        );
    }

    // Indicator queries: is the itemset ε-frequent?
    println!("\nindicator @ ε = {}:", params.epsilon);
    for t in [&hot, &warm, &cold] {
        println!(
            "  {:<10} frequent? {}",
            t.to_string(),
            if sample.is_frequent(t) { "yes" } else { "no" }
        );
    }

    // The worst estimation error over all 3-itemsets for the subsample —
    // should be within ε (the For-All guarantee).
    let mut worst: f64 = 0.0;
    for comb in itemset_sketches::util::combin::Combinations::new(24, 3) {
        let t = Itemset::new(comb);
        worst = worst.max((sample.estimate(&t) - db.frequency(&t)).abs());
    }
    println!(
        "\nworst error over all C(24,3) = 2024 itemsets: {:.4} (ε = {})",
        worst, params.epsilon
    );
}
