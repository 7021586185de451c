//! Integration: mining and streaming pipelines built on sketches.

use itemset_sketches::mining::{self, oracle, rules, summary};
use itemset_sketches::prelude::*;
use itemset_sketches::streaming::{adapter, MisraGries};

#[test]
fn three_miners_agree_on_market_basket_data() {
    let mut rng = Rng64::seeded(401);
    let spec = generators::MarketBasketSpec {
        transactions: 3_000,
        items: 24,
        bundles: vec![(vec![20, 21], 0.25)],
        ..Default::default()
    };
    let db = generators::market_basket(&spec, &mut rng);
    let mut a = mining::apriori::mine(&db, 0.08, 4);
    let mut g = mining::fpgrowth::mine(&db, 0.08, 4);
    let mut o = oracle::mine_with_estimator(&ReleaseDb::build(&db, 0.08), spec.items, 0.08, 4);
    mining::sort_results(&mut a);
    mining::sort_results(&mut g);
    mining::sort_results(&mut o);
    assert_eq!(a, g, "apriori vs fp-growth");
    assert_eq!(a, o, "apriori vs mining from RELEASE-DB");
    assert!(!a.is_empty());
}

#[test]
fn sketch_mining_pipeline_end_to_end() {
    let mut rng = Rng64::seeded(402);
    let spec = generators::MarketBasketSpec {
        transactions: 25_000,
        items: 28,
        bundles: vec![(vec![24, 25, 26], 0.2), (vec![20, 21], 0.15)],
        ..Default::default()
    };
    let db = generators::market_basket(&spec, &mut rng);
    let theta = 0.1;
    let eps = 0.02;
    let params = SketchParams::new(3, eps, 0.05);
    let sketch = Subsample::build(&db, &params, Guarantee::ForAllEstimator, &mut rng);

    // [MT96]: mining the sketch at θ − ε catches every θ-frequent itemset.
    let mined = oracle::mine_with_estimator(&sketch, db.dims(), theta - eps, 3);
    let exact = mining::apriori::mine(&db, theta, 3);
    let (recall, _) = oracle::recall_precision(&mined, &exact);
    assert!(recall >= 0.98, "recall {recall}");

    // And nothing below θ − 2ε sneaks in.
    for m in &mined {
        assert!(
            db.frequency(&m.itemset) >= theta - 2.0 * eps - 1e-9,
            "itemset {} with true frequency {} < θ − 2ε",
            m.itemset,
            db.frequency(&m.itemset)
        );
    }

    // Condensed representations and rules compose on sketch output.
    let maximal = summary::maximal(&mined);
    assert!(summary::covers_all(&maximal, &mined));
    let derived = rules::derive(&mined, 0.7);
    for r in &derived {
        assert!(r.confidence >= 0.7);
        // Estimated confidence close to exact confidence.
        let exact_conf =
            db.frequency(&r.antecedent.union(&r.consequent)) / db.frequency(&r.antecedent);
        assert!(
            (r.confidence - exact_conf).abs() < 0.25,
            "rule {} => {}: est {} vs exact {}",
            r.antecedent,
            r.consequent,
            r.confidence,
            exact_conf
        );
    }
}

#[test]
fn streaming_adapter_matches_exact_counts_with_big_budget() {
    let mut rng = Rng64::seeded(403);
    let db = generators::uniform(800, 14, 0.25, &mut rng);
    // Budget large enough to track every pair exactly: C(14,2) = 91.
    let mut mg = MisraGries::new(200, adapter::itemset_id_bits(14, 2));
    adapter::feed_rows(&db, 2, &mut mg, usize::MAX);
    for comb in itemset_sketches::util::combin::Combinations::new(14, 2) {
        let t = Itemset::new(comb);
        let est = adapter::itemset_frequency(&mg, &t, db.rows());
        let truth = db.frequency(&t);
        assert!(
            (est - truth).abs() < 1e-9,
            "{t}: stream {est} vs exact {truth} (no evictions should occur)"
        );
    }
}

#[test]
fn closed_itemsets_preserve_all_frequencies() {
    let mut rng = Rng64::seeded(404);
    let db = generators::uniform(400, 12, 0.4, &mut rng);
    let all = mining::apriori::mine(&db, 0.15, 3);
    let closed = summary::closed(&all);
    // Defining property: every frequent itemset's frequency equals the max
    // frequency among closed supersets (including itself).
    for m in &all {
        let best = closed
            .iter()
            .filter(|c| m.itemset.items().iter().all(|i| c.itemset.contains(*i)))
            .map(|c| c.frequency)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (best - m.frequency).abs() < 1e-9,
            "{}: closed reconstruction {} vs {}",
            m.itemset,
            best,
            m.frequency
        );
    }
}
