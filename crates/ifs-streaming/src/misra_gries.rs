//! Misra–Gries ("Frequent"): deterministic heavy hitters with `m` counters.
//!
//! Guarantee: the estimate underestimates the true count by at most `N/(m+1)`
//! where `N` is the stream length; every item with true frequency above
//! `1/(m+1)` is retained.

use crate::StreamCounter;
use std::collections::HashMap;
use std::hash::Hash;

/// Misra–Gries summary with a fixed counter budget.
#[derive(Clone, Debug)]
pub struct MisraGries<T> {
    capacity: usize,
    counters: HashMap<T, u64>,
    len: u64,
    item_bits: u64,
}

impl<T: Hash + Eq + Clone> MisraGries<T> {
    /// Creates a summary with `capacity ≥ 1` counters. `item_bits` is the
    /// size of one item identifier for space accounting.
    pub fn new(capacity: usize, item_bits: u64) -> Self {
        assert!(capacity >= 1);
        Self { capacity, counters: HashMap::with_capacity(capacity + 1), len: 0, item_bits }
    }

    /// The deterministic underestimation bound `N/(m+1)`.
    pub fn error_bound(&self) -> u64 {
        self.len / (self.capacity as u64 + 1)
    }
}

impl<T: Hash + Eq + Clone> StreamCounter<T> for MisraGries<T> {
    fn update(&mut self, item: T) {
        self.len += 1;
        if let Some(c) = self.counters.get_mut(&item) {
            *c += 1;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(item, 1);
            return;
        }
        // Decrement-all step; drop zeros.
        self.counters.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
    }

    fn estimate(&self, item: &T) -> u64 {
        self.counters.get(item).copied().unwrap_or(0)
    }

    fn stream_len(&self) -> u64 {
        self.len
    }

    fn size_bits(&self) -> u64 {
        // capacity × (item id + 64-bit counter).
        self.capacity as u64 * (self.item_bits + 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_under_capacity() {
        let mut mg = MisraGries::new(10, 32);
        for _ in 0..5 {
            mg.update("a");
        }
        for _ in 0..3 {
            mg.update("b");
        }
        assert_eq!(mg.estimate(&"a"), 5);
        assert_eq!(mg.estimate(&"b"), 3);
        assert_eq!(mg.stream_len(), 8);
    }

    #[test]
    fn underestimate_within_bound() {
        // Stream: heavy item 40%, 60 distinct light items.
        let mut mg = MisraGries::new(9, 32);
        let mut stream = Vec::new();
        for i in 0..600u32 {
            stream.push(if i % 5 < 2 { 0u32 } else { 1 + i });
        }
        for &x in &stream {
            mg.update(x);
        }
        let truth = stream.iter().filter(|&&x| x == 0).count() as u64;
        let est = mg.estimate(&0);
        assert!(est <= truth, "MG never overestimates");
        assert!(
            truth - est <= mg.error_bound(),
            "gap {} > bound {}",
            truth - est,
            mg.error_bound()
        );
    }

    #[test]
    fn frequent_item_survives() {
        // Item with frequency > 1/(m+1) must be tracked.
        let mut mg = MisraGries::new(4, 32); // threshold 1/5
        for i in 0..1000u32 {
            mg.update(if i % 3 == 0 { 999_999 } else { i });
        }
        assert!(mg.estimate(&999_999) > 0, "1/3-frequent item must survive m=4 counters");
    }

    #[test]
    fn frequency_helper() {
        let mut mg = MisraGries::new(4, 32);
        for _ in 0..10 {
            mg.update(7u32);
        }
        assert_eq!(mg.frequency(&7), 1.0);
        assert_eq!(mg.frequency(&8), 0.0);
    }
}
