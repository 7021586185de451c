//! Sketch parameters `(k, ε, δ)` and the four guarantee variants.

/// Which of the paper's four sketching problems a sketch is built for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Guarantee {
    /// Definition 1: with probability 1−δ, *every* `k`-itemset's threshold
    /// bit is correct.
    ForAllIndicator,
    /// Definition 2: with probability 1−δ, *every* `k`-itemset's frequency is
    /// estimated within ±ε.
    ForAllEstimator,
    /// Definition 3: each itemset's threshold bit is correct with probability
    /// 1−δ individually.
    ForEachIndicator,
    /// Definition 4: each itemset's frequency is within ±ε with probability
    /// 1−δ individually.
    ForEachEstimator,
}

impl Guarantee {
    /// All four variants, in definition order.
    pub const ALL: [Guarantee; 4] = [
        Guarantee::ForAllIndicator,
        Guarantee::ForAllEstimator,
        Guarantee::ForEachIndicator,
        Guarantee::ForEachEstimator,
    ];

    /// True for the two estimator contracts.
    pub fn is_estimator(self) -> bool {
        matches!(self, Guarantee::ForAllEstimator | Guarantee::ForEachEstimator)
    }

    /// Short human name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Guarantee::ForAllIndicator => "forall-indicator",
            Guarantee::ForAllEstimator => "forall-estimator",
            Guarantee::ForEachIndicator => "foreach-indicator",
            Guarantee::ForEachEstimator => "foreach-estimator",
        }
    }
}

impl std::fmt::Display for Guarantee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The input-parameter triple `(k, ε, δ)` of Definitions 1–4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SketchParams {
    /// Itemset cardinality the sketch must answer.
    pub k: usize,
    /// Precision / threshold parameter ε ∈ (0, 1).
    pub epsilon: f64,
    /// Failure probability δ ∈ (0, 1).
    pub delta: f64,
}

impl SketchParams {
    /// Creates and validates a parameter triple.
    ///
    /// # Panics
    /// If `k == 0`, `ε ∉ (0, 1)`, or `δ ∉ (0, 1)`.
    pub fn new(k: usize, epsilon: f64, delta: f64) -> Self {
        assert!(k >= 1, "itemset size k must be >= 1");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1), got {epsilon}");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1), got {delta}");
        Self { k, epsilon, delta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params() {
        let p = SketchParams::new(3, 0.1, 0.05);
        assert_eq!((p.k, p.epsilon, p.delta), (3, 0.1, 0.05));
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        SketchParams::new(2, 1.5, 0.1);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_bad_delta() {
        SketchParams::new(2, 0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn rejects_zero_k() {
        SketchParams::new(0, 0.5, 0.1);
    }

    #[test]
    fn guarantee_classification() {
        assert!(Guarantee::ForAllEstimator.is_estimator());
        assert!(!Guarantee::ForEachIndicator.is_estimator());
        assert_eq!(Guarantee::ALL.len(), 4);
    }
}
