//! The ε = o(1) amplification of Theorem 15 (and the same trick inside
//! Theorem 16).
//!
//! Take `m = 1/(50ε)` independent Theorem 15 instances `D₁,…,D_m` (each
//! `v × 2d`), tag every row of `Dᵢ` with the indicator vector of a distinct
//! `((k−1)/2)`-itemset `Tᵢ` over a third block of `d` attributes, and stack:
//! `D` has `m·v` rows and `3d` columns. For an inner query `T*` on `Dᵢ`,
//! the `k`-itemset `T* ∪ T′ᵢ` (tag shifted to the third block) satisfies
//! `f_{T*∪T′ᵢ}(D) = f_{T*}(Dᵢ)/m`, so a single sketch with threshold
//! `ε = (1/50)/m` answers 1/50-threshold queries on **every** `Dᵢ`
//! simultaneously — multiplying the hidden payload by `m = Θ(1/ε)`.

use ifs_core::FrequencyIndicator;
use ifs_database::{BitMatrix, Database, Itemset};
use ifs_util::{combin, Rng64};

use crate::thm15::Thm15Instance;

/// The amplified instance: `m` tagged copies of the Theorem 15 core.
pub struct AmplifiedInstance {
    inner: Vec<Thm15Instance>,
    d: usize,
    k: usize,
    db: Database,
}

impl AmplifiedInstance {
    /// Feasibility: `k` odd ≥ 3, the inner instance (with `k_inner =
    /// (k+1)/2`) feasible, and `m` distinct tags available.
    pub fn feasible(d: usize, k: usize, m: usize) -> bool {
        if k < 3 || k.is_multiple_of(2) || m < 1 {
            return false;
        }
        let tag_size = (k - 1) / 2;
        Thm15Instance::feasible(d, k.div_ceil(2))
            && combin::binomial(d as u64, tag_size as u64) >= m as u128
    }

    /// Message capacity **per sub-instance**; total hidden bits are
    /// `m × this`.
    pub fn capacity_per_instance(d: usize, k: usize) -> Option<usize> {
        Thm15Instance::message_capacity(d, k.div_ceil(2))
    }

    /// Encodes `m` messages (each of [`Self::capacity_per_instance`] bits).
    pub fn encode(d: usize, k: usize, messages: &[Vec<bool>]) -> Self {
        let m = messages.len();
        assert!(Self::feasible(d, k, m), "infeasible (d={d}, k={k}, m={m})");
        let k_inner = k.div_ceil(2);
        let tag_size = ((k - 1) / 2) as u32;
        let inner: Vec<Thm15Instance> =
            messages.iter().map(|msg| Thm15Instance::encode(d, k_inner, msg)).collect();
        let v = inner[0].v();
        let mut big = BitMatrix::zeros(m * v, 3 * d);
        for (idx, inst) in inner.iter().enumerate() {
            let tag = combin::unrank_colex(idx as u64, tag_size);
            for row in 0..v {
                for c in ifs_util::bits::ones(inst.database().matrix().row_words(row)) {
                    big.set(idx * v + row, c, true);
                }
                for &t in &tag {
                    big.set(idx * v + row, 2 * d + t as usize, true);
                }
            }
        }
        Self { inner, d, k, db: Database::from_matrix(big) }
    }

    /// The stacked database (`m·v × 3d`).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Number of sub-instances `m`.
    pub fn m(&self) -> usize {
        self.inner.len()
    }

    /// The sketch threshold this instance is built for: `(1/50)/m`.
    pub fn epsilon(&self) -> f64 {
        (1.0 / 50.0) / self.m() as f64
    }

    /// Total hidden payload bits across all sub-instances.
    pub fn total_message_bits(&self) -> usize {
        self.inner.iter().map(|i| i.message().len()).sum()
    }

    /// The outer `k`-itemset querying sub-instance `idx` with inner pattern
    /// `s` and payload column `j`.
    pub fn query(&self, idx: usize, s: &[bool], j: usize) -> Itemset {
        let inner_query = self.inner[idx].query(s, j);
        let tag = combin::unrank_colex(idx as u64, ((self.k - 1) / 2) as u32);
        let tag_itemset: Itemset = tag.iter().map(|&t| t + 2 * self.d as u32).collect();
        inner_query.union(&tag_itemset)
    }

    /// Attacks every sub-instance through one sketch (threshold
    /// [`Self::epsilon`]); returns per-instance
    /// `(codeword_accuracy, decoded_message)`.
    pub fn attack_all<S: FrequencyIndicator>(
        &self,
        sketch: &S,
        rng: &mut Rng64,
    ) -> Vec<(f64, Option<Vec<bool>>)> {
        let inner_eps = 1.0 / 50.0;
        let v = self.inner[0].v();
        self.inner
            .iter()
            .enumerate()
            .map(|(idx, inst)| {
                let mut recovered = vec![false; inst.d() * v];
                for j in 0..inst.d() {
                    let size = 1usize << v;
                    let mut answers = Vec::with_capacity(size);
                    for mask in 0..size {
                        let s: Vec<bool> = (0..v).map(|i| (mask >> i) & 1 == 1).collect();
                        answers.push(sketch.is_frequent(&self.query(idx, &s, j)));
                    }
                    if let Some(t) = ifs_solver::repair::reconstruct(v, inner_eps, &answers, rng) {
                        for i in 0..v {
                            recovered[j * v + i] = (t >> i) & 1 == 1;
                        }
                    }
                }
                let acc = inst.codeword_accuracy(&recovered);
                let decoded = decode_codeword(&recovered);
                (acc, decoded)
            })
            .collect()
    }
}

/// Decodes a recovered codeword with the same deterministic code the inner
/// instance used (parameters are derived from the codeword length alone).
fn decode_codeword(recovered: &[bool]) -> Option<Vec<bool>> {
    ifs_codes::ConcatenatedCode::for_codeword_bits(recovered.len(), 0.04)
        .and_then(|code| code.decode(recovered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_core::ReleaseDb;

    fn random_messages(m: usize, len: usize, rng: &mut Rng64) -> Vec<Vec<bool>> {
        (0..m).map(|_| (0..len).map(|_| rng.bernoulli(0.5)).collect()).collect()
    }

    #[test]
    fn feasibility() {
        assert!(AmplifiedInstance::feasible(32, 3, 4)); // inner k=2
        assert!(AmplifiedInstance::feasible(32, 5, 8)); // inner k=3
        assert!(!AmplifiedInstance::feasible(32, 4, 4)); // even k
        assert!(!AmplifiedInstance::feasible(32, 3, 1_000_000)); // too many tags
    }

    #[test]
    fn frequencies_scale_by_m() {
        let mut rng = Rng64::seeded(181);
        let (d, k, m) = (32, 3, 4);
        let cap = AmplifiedInstance::capacity_per_instance(d, k).unwrap();
        let msgs = random_messages(m, cap, &mut rng);
        let amp = AmplifiedInstance::encode(d, k, &msgs);
        for idx in 0..m {
            let inst = &amp.inner[idx];
            for _ in 0..20 {
                let v = inst.v();
                let s: Vec<bool> = (0..v).map(|_| rng.bernoulli(0.5)).collect();
                let j = rng.below(d);
                let inner_f = inst.database().frequency(&inst.query(&s, j));
                let outer_f = amp.database().frequency(&amp.query(idx, &s, j));
                assert!(
                    (outer_f - inner_f / m as f64).abs() < 1e-12,
                    "scaling broken: {outer_f} vs {inner_f}/{m}"
                );
            }
        }
    }

    #[test]
    fn exact_sketch_recovers_all_instances() {
        let mut rng = Rng64::seeded(182);
        let (d, k, m) = (32, 3, 3);
        let cap = AmplifiedInstance::capacity_per_instance(d, k).unwrap();
        let msgs = random_messages(m, cap, &mut rng);
        let amp = AmplifiedInstance::encode(d, k, &msgs);
        let sketch = ReleaseDb::build(amp.database(), amp.epsilon());
        let results = amp.attack_all(&sketch, &mut rng);
        assert_eq!(results.len(), m);
        for (idx, (acc, decoded)) in results.iter().enumerate() {
            assert_eq!(*acc, 1.0, "instance {idx} accuracy");
            assert_eq!(decoded.as_deref().expect("decodes"), &msgs[idx][..], "instance {idx}");
        }
    }

    #[test]
    fn total_payload_scales_linearly_in_m() {
        let mut rng = Rng64::seeded(183);
        let (d, k) = (32, 3);
        let cap = AmplifiedInstance::capacity_per_instance(d, k).unwrap();
        let a2 = AmplifiedInstance::encode(d, k, &random_messages(2, cap, &mut rng));
        let a4 = AmplifiedInstance::encode(d, k, &random_messages(4, cap, &mut rng));
        assert_eq!(a4.total_message_bits(), 2 * a2.total_message_bits());
        assert!(a4.epsilon() < a2.epsilon());
    }

    #[test]
    fn outer_queries_have_cardinality_k() {
        let mut rng = Rng64::seeded(184);
        let (d, k, m) = (32, 5, 2);
        let cap = AmplifiedInstance::capacity_per_instance(d, k).unwrap();
        let msgs = random_messages(m, cap, &mut rng);
        let amp = AmplifiedInstance::encode(d, k, &msgs);
        let v = amp.inner[0].v();
        let s = vec![true; v];
        assert_eq!(amp.query(1, &s, 0).len(), k);
    }
}
