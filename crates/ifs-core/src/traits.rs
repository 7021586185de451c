//! The query-side contracts shared by every sketch.

use ifs_database::Itemset;

/// Anything with a measurable summary size, in bits.
///
/// The paper's space complexity `|S(n,d,k,ε,δ)|` (Definition 5) is the
/// maximum of this over databases; experiments report the realized size.
pub trait Sketch {
    /// Size of the serialized summary in bits.
    fn size_bits(&self) -> u64;
}

/// Query procedure of an **estimator** sketch: returns `Q(S, T) ∈ [0, 1]`.
pub trait FrequencyEstimator: Sketch {
    /// Estimate of `f_T(D)`.
    fn estimate(&self, itemset: &Itemset) -> f64;

    /// Estimates for a whole query log, in order.
    ///
    /// Contract: element `i` equals `self.estimate(&itemsets[i])` exactly —
    /// batching is an execution strategy, never an approximation. The
    /// default delegates to [`FrequencyEstimator::estimate`] so external
    /// implementations keep compiling; sketches backed by a database
    /// override it to run on the shared columnar layer (DESIGN.md §7).
    fn estimate_batch(&self, itemsets: &[Itemset]) -> Vec<f64> {
        itemsets.iter().map(|t| self.estimate(t)).collect()
    }
}

/// Query procedure of an **indicator** sketch: returns the threshold bit.
pub trait FrequencyIndicator: Sketch {
    /// `true` must be returned when `f_T > ε`; `false` when `f_T < ε/2`
    /// (either answer is acceptable in between).
    fn is_frequent(&self, itemset: &Itemset) -> bool;

    /// Threshold bits for a whole query log, in order.
    ///
    /// Contract: element `i` equals `self.is_frequent(&itemsets[i])`
    /// exactly; see [`FrequencyEstimator::estimate_batch`] for the batching
    /// policy.
    fn is_frequent_batch(&self, itemsets: &[Itemset]) -> Vec<bool> {
        itemsets.iter().map(|t| self.is_frequent(t)).collect()
    }
}

/// The thread-count knob of the parallel execution layer (DESIGN.md §8).
///
/// Sketches whose batched query paths can run on the sharded columnar
/// engine implement this; the knob defaults to 1 (serial) and is purely an
/// execution hint: answers are **required to be bit-identical** at every
/// thread count (enforced by `tests/sharded_queries.rs`). Wrappers like
/// [`EstimatorAsIndicator`] forward the knob to their inner sketch.
pub trait Parallel {
    /// Sets the number of worker threads used by the batched query paths
    /// (`0` and `1` both mean serial).
    fn set_threads(&mut self, threads: usize);

    /// The current thread count (1 = serial).
    fn threads(&self) -> usize;

    /// Builder-style convenience: `sketch.with_threads(4)`.
    fn with_threads(mut self, threads: usize) -> Self
    where
        Self: Sized,
    {
        self.set_threads(threads);
        self
    }
}

/// Adapter: any estimator answers indicator queries by thresholding at the
/// dead-zone midpoint `3ε/4`.
///
/// If the estimator's additive error is at most `ε/4`, the adapter meets the
/// indicator contract exactly: `f_T > ε` implies an estimate `> 3ε/4`, and
/// `f_T < ε/2` implies an estimate `< 3ε/4`.
pub struct EstimatorAsIndicator<E> {
    inner: E,
    threshold: f64,
}

impl<E: FrequencyEstimator> EstimatorAsIndicator<E> {
    /// Wraps `inner`, thresholding at `3ε/4` for the given ε.
    pub fn new(inner: E, epsilon: f64) -> Self {
        Self { inner, threshold: 0.75 * epsilon }
    }
}

impl<E: FrequencyEstimator> Sketch for EstimatorAsIndicator<E> {
    fn size_bits(&self) -> u64 {
        self.inner.size_bits()
    }
}

impl<E: FrequencyEstimator> FrequencyIndicator for EstimatorAsIndicator<E> {
    fn is_frequent(&self, itemset: &Itemset) -> bool {
        self.inner.estimate(itemset) >= self.threshold
    }

    /// One batched estimator pass, thresholded — so the adapter inherits
    /// whatever columnar execution the inner estimator provides.
    fn is_frequent_batch(&self, itemsets: &[Itemset]) -> Vec<bool> {
        self.inner.estimate_batch(itemsets).into_iter().map(|f| f >= self.threshold).collect()
    }
}

/// The adapter's thread knob is the inner estimator's: its batched path is
/// one `estimate_batch` call, so forwarding is the whole implementation.
impl<E: FrequencyEstimator + Parallel> Parallel for EstimatorAsIndicator<E> {
    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }
}

/// Blanket impls so `&S` can be passed wherever a sketch is expected.
impl<S: Sketch + ?Sized> Sketch for &S {
    fn size_bits(&self) -> u64 {
        (**self).size_bits()
    }
}

impl<S: FrequencyEstimator + ?Sized> FrequencyEstimator for &S {
    fn estimate(&self, itemset: &Itemset) -> f64 {
        (**self).estimate(itemset)
    }

    fn estimate_batch(&self, itemsets: &[Itemset]) -> Vec<f64> {
        (**self).estimate_batch(itemsets)
    }
}

impl<S: FrequencyIndicator + ?Sized> FrequencyIndicator for &S {
    fn is_frequent(&self, itemset: &Itemset) -> bool {
        (**self).is_frequent(itemset)
    }

    fn is_frequent_batch(&self, itemsets: &[Itemset]) -> Vec<bool> {
        (**self).is_frequent_batch(itemsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);

    impl Sketch for Fixed {
        fn size_bits(&self) -> u64 {
            64
        }
    }

    impl FrequencyEstimator for Fixed {
        fn estimate(&self, _: &Itemset) -> f64 {
            self.0
        }
    }

    #[test]
    fn adapter_thresholds_at_three_quarters_eps() {
        let t = Itemset::singleton(0);
        let eps = 0.2;
        assert!(EstimatorAsIndicator::new(Fixed(0.151), eps).is_frequent(&t));
        assert!(!EstimatorAsIndicator::new(Fixed(0.149), eps).is_frequent(&t));
    }

    #[test]
    fn adapter_preserves_size() {
        let a = EstimatorAsIndicator::new(Fixed(0.5), 0.1);
        assert_eq!(a.size_bits(), 64);
        // The threshold is 3ε/4 = 0.075 for ε = 0.1.
        let t = Itemset::empty();
        assert!(EstimatorAsIndicator::new(Fixed(0.0751), 0.1).is_frequent(&t));
        assert!(!EstimatorAsIndicator::new(Fixed(0.0749), 0.1).is_frequent(&t));
    }

    #[test]
    fn reference_blanket_impls() {
        let f = Fixed(0.9);
        fn takes_est(e: impl FrequencyEstimator) -> f64 {
            e.estimate(&Itemset::empty())
        }
        assert_eq!(takes_est(&f), 0.9);
    }

    #[test]
    fn default_batch_impls_delegate_to_scalar() {
        let f = Fixed(0.4);
        let queries = vec![Itemset::empty(), Itemset::singleton(1), Itemset::new(vec![2, 3])];
        assert_eq!(f.estimate_batch(&queries), vec![0.4; 3]);
        // Through a reference, too (the blanket impl must forward batches).
        fn batch_via_ref(e: impl FrequencyEstimator, q: &[Itemset]) -> Vec<f64> {
            e.estimate_batch(q)
        }
        assert_eq!(batch_via_ref(&f, &queries), vec![0.4; 3]);
        let ind = EstimatorAsIndicator::new(f, 0.5);
        assert_eq!(ind.is_frequent_batch(&queries), vec![true; 3]); // 0.4 >= 0.375
        fn ind_via_ref(i: impl FrequencyIndicator, q: &[Itemset]) -> Vec<bool> {
            i.is_frequent_batch(q)
        }
        assert_eq!(ind_via_ref(&ind, &queries), vec![true; 3]);
        assert_eq!(ind.is_frequent_batch(&[]), Vec::<bool>::new());
    }

    #[test]
    fn adapter_forwards_thread_knob_to_inner() {
        struct Knobbed(f64, usize);
        impl Sketch for Knobbed {
            fn size_bits(&self) -> u64 {
                64
            }
        }
        impl FrequencyEstimator for Knobbed {
            fn estimate(&self, _: &Itemset) -> f64 {
                self.0
            }
        }
        impl Parallel for Knobbed {
            fn set_threads(&mut self, threads: usize) {
                self.1 = threads.max(1);
            }
            fn threads(&self) -> usize {
                self.1
            }
        }
        let adapter = EstimatorAsIndicator::new(Knobbed(0.5, 1), 0.1).with_threads(4);
        // The adapter reads its knob back from the inner estimator.
        assert_eq!(adapter.threads(), 4);
    }

    #[test]
    fn adapter_batch_matches_scalar_at_threshold_boundary() {
        // Estimate exactly equal to the threshold: both paths must agree on
        // the >= comparison.
        let eps = 0.2;
        let ind = EstimatorAsIndicator::new(Fixed(0.15), eps);
        let t = Itemset::singleton(0);
        assert_eq!(ind.is_frequent_batch(std::slice::from_ref(&t)), vec![ind.is_frequent(&t)]);
    }
}
