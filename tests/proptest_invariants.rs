//! Property-based tests (proptest) on the core data structures and the
//! paper's invariants.

use itemset_sketches::codes::{ConcatenatedCode, ReedSolomon};
use itemset_sketches::database::{Database, Itemset};
use itemset_sketches::prelude::*;
use itemset_sketches::solver::repair;
use itemset_sketches::util::{bits, combin};
use proptest::prelude::*;

proptest! {
    // Fixed case count AND RNG seed: tier-1 CI must be bit-for-bit
    // reproducible, so a failure here can be replayed locally as-is.
    #![proptest_config(ProptestConfig::with_cases_and_seed(64, 0x1F5_5EED))]

    /// Colex rank/unrank is a bijection for arbitrary combinations.
    #[test]
    fn combin_rank_roundtrip(mut items in proptest::collection::btree_set(0u32..64, 1..6)) {
        let comb: Vec<u32> = items.iter().copied().collect();
        let rank = combin::rank_colex(&comb);
        let back = combin::unrank_colex(rank, comb.len() as u32);
        prop_assert_eq!(back, comb);
        items.clear();
    }

    /// Bit pack/unpack roundtrip at arbitrary lengths.
    #[test]
    fn bits_pack_roundtrip(bools in proptest::collection::vec(any::<bool>(), 0..300)) {
        let words = bits::pack(&bools);
        prop_assert_eq!(bits::unpack(&words, bools.len()), bools);
    }

    /// Frequency is monotone under subset: f(T1) >= f(T2) when T1 ⊆ T2.
    #[test]
    fn frequency_antimonotone(seed in any::<u64>()) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(60, 12, 0.5, &mut rng);
        let sup = Itemset::new(vec![1, 4, 7]);
        let sub = Itemset::new(vec![1, 7]);
        prop_assert!(db.frequency(&sub) >= db.frequency(&sup));
        prop_assert!(db.frequency(&Itemset::empty()) >= db.frequency(&sub));
    }

    /// Reed–Solomon corrects any ≤ t random corruption pattern.
    #[test]
    fn rs_corrects_random_errors(
        seed in any::<u64>(),
        num_err in 0usize..4,
    ) {
        let rs = ReedSolomon::new(15, 7); // t = 4
        let mut rng = Rng64::seeded(seed);
        let data: Vec<u8> = (0..7).map(|_| rng.below(256) as u8).collect();
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        for &p in &rng.distinct_sorted(15, num_err) {
            rx[p] ^= 1 + rng.below(255) as u8;
        }
        prop_assert_eq!(rs.decode(&rx).unwrap(), cw);
    }

    /// Concatenated code survives any ≤ guaranteed-fraction random flips.
    #[test]
    fn concat_code_guarantee(seed in any::<u64>()) {
        let code = ConcatenatedCode::for_codeword_bits(1024, 0.04).unwrap();
        let mut rng = Rng64::seeded(seed);
        let msg: Vec<bool> = (0..code.message_bits()).map(|_| rng.bernoulli(0.5)).collect();
        let mut cw = code.encode(&msg);
        let budget = (code.guaranteed_error_fraction() * cw.len() as f64).floor() as usize;
        for &p in &rng.distinct_sorted(cw.len(), budget) {
            cw[p] = !cw[p];
        }
        prop_assert_eq!(code.decode(&cw), Some(msg));
    }

    /// Lemma 19 consistency: any reconstructed vector is within the
    /// 2⌈εv⌉ Hamming bound, for arbitrary truths and adversarial dead zones.
    #[test]
    fn repair_within_hamming_bound(
        truth in 0u64..(1 << 12),
        seed in any::<u64>(),
    ) {
        let v = 12;
        let eps = 0.3; // εv = 3.6: non-trivial dead zone
        let mut adversary = Rng64::seeded(seed);
        let answers = repair::honest_answers(v, eps, truth, |_| adversary.bernoulli(0.5));
        let mut rng = Rng64::seeded(seed ^ 0xABCD);
        let rec = repair::reconstruct(v, eps, &answers, &mut rng);
        if let Some(rec) = rec {
            let dist = (rec ^ truth).count_ones() as usize;
            prop_assert!(dist <= repair::hamming_bound(v, eps),
                "distance {} > bound {}", dist, repair::hamming_bound(v, eps));
        }
    }

    /// SUBSAMPLE size is independent of n and monotone in 1/ε.
    #[test]
    fn subsample_size_invariants(seed in any::<u64>()) {
        let mut rng = Rng64::seeded(seed);
        let db1 = generators::uniform(500, 16, 0.3, &mut rng);
        let db2 = generators::uniform(5_000, 16, 0.3, &mut rng);
        let p1 = SketchParams::new(2, 0.1, 0.1);
        let p2 = SketchParams::new(2, 0.05, 0.1);
        let s11 = Subsample::build(&db1, &p1, Guarantee::ForEachEstimator, &mut rng);
        let s21 = Subsample::build(&db2, &p1, Guarantee::ForEachEstimator, &mut rng);
        let s12 = Subsample::build(&db1, &p2, Guarantee::ForEachEstimator, &mut rng);
        prop_assert_eq!(s11.size_bits(), s21.size_bits());
        prop_assert!(s12.size_bits() > s11.size_bits());
    }

    /// Itemset mask layout agrees with Database::row_contains for random
    /// itemsets.
    #[test]
    fn itemset_mask_consistency(
        seed in any::<u64>(),
        raw_items in proptest::collection::vec(0u32..70, 1..5),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(30, 70, 0.6, &mut rng);
        let t = Itemset::new(raw_items);
        let mask = db.mask_of(&t);
        for r in 0..db.rows() {
            let direct = t.items().iter().all(|&c| db.get(r, c as usize));
            prop_assert_eq!(db.matrix().row_contains_mask(r, &mask), direct);
        }
        prop_assert_eq!(db.support_mask(&mask), db.support(&t));
    }

    /// RELEASE-ANSWERS estimator quantization error stays within ε for
    /// arbitrary databases.
    #[test]
    fn release_answers_quantization(seed in any::<u64>()) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(37, 8, 0.5, &mut rng);
        let eps = 0.08;
        let sk = ReleaseAnswersEstimator::build(&db, 2, eps);
        for comb in combin::Combinations::new(8, 2) {
            let t = Itemset::new(comb);
            prop_assert!((sk.estimate(&t) - db.frequency(&t)).abs() <= eps + 1e-12);
        }
    }
}

#[test]
fn empty_database_edge_cases() {
    let db = Database::zeros(0, 10);
    assert_eq!(db.frequency(&Itemset::singleton(0)), 0.0);
}
