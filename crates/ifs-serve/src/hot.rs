//! The hot set: decoded sketches under an LRU bound measured in bits.
//!
//! The serving tier retains every *admitted frame* (cheap: encoded bytes),
//! but only a bounded working set stays **decoded**. The bound is the sum
//! of measured `size_bits()` over decoded entries — the same measured
//! quantity the paper's `|S|` experiments report. It bounds the frame bits
//! of the decoded set, not its resident memory: a decoded `ReleaseDb` or
//! `Subsample` holds its row words and, once queried, its tid-set words
//! too, which on a 10k × 128, 3 %-dense database is about 4.7× its frame.
//! Eviction drops the decoded form only; the frame bytes remain admitted,
//! and the next query re-decodes them — bit-identically, by the snapshot
//! layer's round-trip contract (DESIGN.md §10), which is what makes
//! eviction an execution detail rather than an approximation (asserted by
//! `tests/serving_protocol.rs`).

use crate::sketch::ServedSketch;
use std::collections::BTreeMap;
use std::sync::Arc;

struct HotEntry {
    sketch: Arc<ServedSketch>,
    size_bits: u64,
}

/// Decoded sketches, recency-ordered, bounded by total measured bits.
///
/// Entries hand out [`Arc`]s so a query batch keeps executing on a sketch
/// even if a concurrent load evicts it mid-batch; the memory is reclaimed
/// when the last in-flight batch drops its handle.
pub struct HotSet {
    budget_bits: u64,
    hot_bits: u64,
    evictions: u64,
    entries: BTreeMap<u64, HotEntry>,
    /// Recency order: least-recently-used first.
    recency: Vec<u64>,
}

impl HotSet {
    /// An empty hot set with the given budget, in bits.
    pub fn new(budget_bits: u64) -> Self {
        Self {
            budget_bits,
            hot_bits: 0,
            evictions: 0,
            entries: BTreeMap::new(),
            recency: Vec::new(),
        }
    }

    /// The configured budget, in bits.
    pub fn budget_bits(&self) -> u64 {
        self.budget_bits
    }

    /// Sum of measured `size_bits` over decoded entries.
    pub fn hot_bits(&self) -> u64 {
        self.hot_bits
    }

    /// Number of decoded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is decoded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evictions performed since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Ids currently decoded, least-recently-used first.
    pub fn ids_by_recency(&self) -> &[u64] {
        &self.recency
    }

    fn touch(&mut self, id: u64) {
        if let Some(pos) = self.recency.iter().position(|&x| x == id) {
            self.recency.remove(pos);
        }
        self.recency.push(id);
    }

    /// The decoded sketch at `id`, marking it most recently used.
    pub fn get(&mut self, id: u64) -> Option<Arc<ServedSketch>> {
        let sketch = Arc::clone(&self.entries.get(&id)?.sketch);
        self.touch(id);
        Some(sketch)
    }

    /// The decoded sketch at `id` *without* touching recency — for
    /// observers (hot-reload tests, stats probes) that must not perturb
    /// the LRU order the serving path maintains.
    pub fn peek(&self, id: u64) -> Option<Arc<ServedSketch>> {
        self.entries.get(&id).map(|e| Arc::clone(&e.sketch))
    }

    /// Drops the decoded form of `id` (the admitted frame, which this type
    /// never held, stays behind). Returns whether it was decoded.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.entries.remove(&id) {
            Some(e) => {
                self.hot_bits -= e.size_bits;
                if let Some(pos) = self.recency.iter().position(|&x| x == id) {
                    self.recency.remove(pos);
                }
                true
            }
            None => false,
        }
    }

    /// Inserts a decoded sketch as most recently used, evicting
    /// least-recently-used entries until it fits, and returns the evicted
    /// ids, oldest first. Replaces any previous entry at `id`.
    ///
    /// Callers must have refused frames over the whole budget up front
    /// ([`ServeError::FrameOverBudget`](crate::ServeError::FrameOverBudget));
    /// given that, the loop always terminates with the new entry resident.
    pub fn insert(&mut self, id: u64, sketch: Arc<ServedSketch>, size_bits: u64) -> Vec<u64> {
        debug_assert!(size_bits <= self.budget_bits, "admission must refuse over-budget frames");
        self.remove(id);
        let mut evicted = Vec::new();
        while self.hot_bits + size_bits > self.budget_bits && !self.recency.is_empty() {
            let victim = self.recency[0];
            self.remove(victim);
            self.evictions += 1;
            evicted.push(victim);
        }
        self.hot_bits += size_bits;
        self.entries.insert(id, HotEntry { sketch, size_bits });
        self.recency.push(id);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_core::ReleaseDb;
    use ifs_database::Database;

    fn sketch() -> Arc<ServedSketch> {
        Arc::new(ServedSketch::ReleaseDb(ReleaseDb::build(&Database::zeros(1, 4), 0.1)))
    }

    #[test]
    fn lru_evicts_oldest_first_and_touch_reorders() {
        let mut hot = HotSet::new(300);
        assert_eq!(hot.insert(1, sketch(), 100), Vec::<u64>::new());
        assert_eq!(hot.insert(2, sketch(), 100), Vec::<u64>::new());
        assert_eq!(hot.insert(3, sketch(), 100), Vec::<u64>::new());
        assert_eq!(hot.hot_bits(), 300);
        // Touch 1: now 2 is the LRU victim.
        assert!(hot.get(1).is_some());
        assert_eq!(hot.insert(4, sketch(), 100), vec![2]);
        assert_eq!(hot.ids_by_recency(), &[3, 1, 4]);
        assert_eq!(hot.evictions(), 1);
        // A big insert evicts several, oldest first.
        assert_eq!(hot.insert(5, sketch(), 250), vec![3, 1, 4]);
        assert_eq!(hot.hot_bits(), 250);
        assert_eq!(hot.len(), 1);
    }

    #[test]
    fn replacing_an_id_keeps_accounting_exact() {
        let mut hot = HotSet::new(300);
        hot.insert(1, sketch(), 120);
        hot.insert(1, sketch(), 80);
        assert_eq!(hot.hot_bits(), 80);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot.ids_by_recency(), &[1]);
        assert!(hot.remove(1));
        assert!(!hot.remove(1));
        assert_eq!(hot.hot_bits(), 0);
        assert!(hot.is_empty());
    }

    #[test]
    fn exact_fit_does_not_evict() {
        let mut hot = HotSet::new(200);
        hot.insert(1, sketch(), 100);
        assert_eq!(hot.insert(2, sketch(), 100), Vec::<u64>::new());
        assert_eq!(hot.hot_bits(), 200);
    }
}
