//! Count-Min sketch (Cormode–Muthukrishnan) with optional conservative
//! update.
//!
//! `depth` rows of `width` counters with pairwise-independent hashing;
//! estimates are minima over rows and never underestimate. With
//! `width = ⌈e/ε⌉` and `depth = ⌈ln(1/δ)⌉` the overestimate is at most `εN`
//! with probability `1 − δ`. Conservative update (increment only the
//! minimal counters) tightens estimates in practice — an ablation target in
//! the streaming experiment.

use crate::StreamCounter;
use ifs_core::snapshot::{Snapshot, KIND_COUNT_MIN};
use ifs_core::streaming::{MergeError, MergeableSketch};
use ifs_database::codec::{DecodeError, Reader, Writer};
use ifs_util::StableHasher;
use std::hash::{Hash, Hasher};

/// Count-Min sketch over any hashable item type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountMinSketch<T> {
    width: usize,
    depth: usize,
    counters: Vec<u64>,
    seeds: Vec<u64>,
    len: u64,
    conservative: bool,
    _marker: std::marker::PhantomData<fn(&T)>,
}

impl<T: Hash> CountMinSketch<T> {
    /// Creates a sketch with explicit dimensions.
    pub fn new(width: usize, depth: usize, conservative: bool, seed: u64) -> Self {
        assert!(width >= 1 && depth >= 1);
        let seeds =
            (0..depth as u64).map(|i| seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
        Self {
            width,
            depth,
            counters: vec![0; width * depth],
            seeds,
            len: 0,
            conservative,
            _marker: std::marker::PhantomData,
        }
    }

    /// Row-`row` bucket of `item`, via the in-tree seeded mixer
    /// ([`StableHasher`]): `DefaultHasher` is SipHash with no cross-release
    /// stability guarantee, which would silently relocate every counter on a
    /// toolchain upgrade. Golden values are pinned in `stable_hashing_golden`.
    fn bucket(&self, row: usize, item: &T) -> usize {
        let mut h = StableHasher::seeded(self.seeds[row]);
        item.hash(&mut h);
        row * self.width + (h.finish() as usize % self.width)
    }
}

/// Counter-wise merge (DESIGN.md §9): a plain Count-Min over stream A ⧺ B
/// is the cell-wise sum of the sketches over A and B, so merging is
/// **commutative** and associative and bit-identical to one-pass updating.
///
/// Two refusals guard the contract: structurally different sketches
/// (width, depth, or hash seeds — identical `seeds` is what makes cell-wise
/// addition meaningful) are [`MergeError::Incompatible`], and sketches with
/// **conservative update** are [`MergeError::Unmergeable`] — conservative
/// increments depend on the counter state at each arrival, so the sum of
/// two conservatively-updated halves is *not* the conservatively-updated
/// whole, and pretending otherwise would silently change estimates.
impl<T: Hash> MergeableSketch for CountMinSketch<T> {
    fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        if other.width != self.width || other.depth != self.depth || other.seeds != self.seeds {
            return Err(MergeError::Incompatible(format!(
                "Count-Min shapes differ: {}x{} vs {}x{} (or unequal hash seeds)",
                self.depth, self.width, other.depth, other.width
            )));
        }
        if self.conservative || other.conservative {
            return Err(MergeError::Unmergeable(
                "conservative update is order- and state-dependent; merged counters would not \
                 equal a one-pass conservative build"
                    .into(),
            ));
        }
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters) {
            *mine += theirs;
        }
        self.len += other.len;
        Ok(())
    }
}

/// Body: `width`, `depth`, `conservative` flag, stream length, the `depth`
/// per-row hash seeds, then `width·depth` counters as varints — so a
/// lightly loaded sketch costs far fewer bytes than its 64-bit-per-cell
/// RAM footprint, and `size_bits()` reports what a serving tier would
/// actually ship.
///
/// The item type `T` is *not* part of the wire format (the sketch stores
/// only hashed buckets); decoding the bytes at a different `T` than the
/// encoder used yields a structurally valid sketch whose estimates answer
/// the wrong key space. Keep the item type with the snapshot's provenance,
/// as with any hash-keyed store.
impl<T: Hash> Snapshot for CountMinSketch<T> {
    const KIND: u16 = KIND_COUNT_MIN;

    fn encode_body(&self, w: &mut Writer) {
        w.varint(self.width as u64);
        w.varint(self.depth as u64);
        w.u8(u8::from(self.conservative));
        w.varint(self.len);
        for &s in &self.seeds {
            w.u64(s);
        }
        for &c in &self.counters {
            w.varint(c);
        }
    }

    fn decode_body(r: &mut Reader, _version: u16) -> Result<Self, DecodeError> {
        let width = r.varint_usize()?;
        let depth = r.varint_usize()?;
        if width == 0 || depth == 0 {
            return Err(DecodeError::Corrupt(format!(
                "Count-Min needs width >= 1 and depth >= 1, got {width}x{depth}"
            )));
        }
        let cells = width.checked_mul(depth).ok_or_else(|| {
            DecodeError::Corrupt(format!("{depth}x{width} cells overflow a counter table"))
        })?;
        let conservative = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(DecodeError::Corrupt(format!(
                    "conservative flag must be 0 or 1, got {other}"
                )))
            }
        };
        let len = r.varint()?;
        // Pre-allocation guards: the declared shape must be backed by
        // enough remaining bytes (8 per seed, >= 1 per varint counter)
        // before any table is reserved.
        r.require(depth.checked_mul(8).ok_or_else(|| {
            DecodeError::Corrupt(format!("depth {depth} overflows a byte length"))
        })?)?;
        let mut seeds = Vec::with_capacity(depth);
        for _ in 0..depth {
            seeds.push(r.u64()?);
        }
        r.require(cells)?;
        let mut counters = Vec::with_capacity(cells);
        for _ in 0..cells {
            counters.push(r.varint()?);
        }
        Ok(Self {
            width,
            depth,
            counters,
            seeds,
            len,
            conservative,
            _marker: std::marker::PhantomData,
        })
    }
}

impl<T: Hash> StreamCounter<T> for CountMinSketch<T> {
    fn update(&mut self, item: T) {
        self.len += 1;
        if self.conservative {
            let idxs: Vec<usize> = (0..self.depth).map(|r| self.bucket(r, &item)).collect();
            let current = idxs.iter().map(|&i| self.counters[i]).min().expect("depth >= 1");
            for &i in &idxs {
                if self.counters[i] == current {
                    self.counters[i] = current + 1;
                }
            }
        } else {
            for r in 0..self.depth {
                let i = self.bucket(r, &item);
                self.counters[i] += 1;
            }
        }
    }

    fn estimate(&self, item: &T) -> u64 {
        (0..self.depth).map(|r| self.counters[self.bucket(r, item)]).min().expect("depth >= 1")
    }

    fn stream_len(&self) -> u64 {
        self.len
    }

    /// The length of the actual snapshot encoding (DESIGN.md §10) — the
    /// bytes a serving tier would ship, not the 64-bit-per-cell RAM
    /// footprint the historical bookkeeping reported.
    fn size_bits(&self) -> u64 {
        self.snapshot_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_util::Rng64;

    #[test]
    fn never_underestimates() {
        let mut cm = CountMinSketch::new(64, 4, false, 42);
        let mut rng = Rng64::seeded(121);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..3000 {
            let x = rng.below(500) as u32;
            *counts.entry(x).or_insert(0u64) += 1;
            cm.update(x);
        }
        for (&x, &c) in &counts {
            assert!(cm.estimate(&x) >= c, "underestimate for {x}");
        }
    }

    #[test]
    fn error_within_epsilon_bound() {
        // Sized for (ε, δ) = (0.01, 0.01): width ⌈e/ε⌉ = 272, depth ⌈ln(1/δ)⌉ = 5.
        let eps = 0.01;
        let mut cm = CountMinSketch::<u32>::new(272, 5, false, 7);
        let mut rng = Rng64::seeded(122);
        let n = 10_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let x = rng.below(2000) as u32;
            *counts.entry(x).or_insert(0u64) += 1;
            cm.update(x);
        }
        let bound = (eps * n as f64) as u64;
        let mut violations = 0;
        for (&x, &c) in &counts {
            if cm.estimate(&x) - c > bound {
                violations += 1;
            }
        }
        // Per-query failure prob 1%: tolerate a few across 2000 queries.
        assert!(violations <= 60, "{violations} violations of the εN bound");
    }

    #[test]
    fn conservative_update_is_tighter() {
        let mut plain = CountMinSketch::new(32, 3, false, 99);
        let mut cons = CountMinSketch::new(32, 3, true, 99);
        let mut rng = Rng64::seeded(123);
        let stream: Vec<u32> = (0..5000).map(|_| rng.below(300) as u32).collect();
        for &x in &stream {
            plain.update(x);
            cons.update(x);
        }
        let mut counts = std::collections::HashMap::new();
        for &x in &stream {
            *counts.entry(x).or_insert(0u64) += 1;
        }
        let err = |cm: &CountMinSketch<u32>| -> u64 {
            counts.iter().map(|(x, &c)| cm.estimate(x) - c).sum()
        };
        let (pe, ce) = (err(&plain), err(&cons));
        assert!(ce <= pe, "conservative {ce} should be <= plain {pe}");
        // Conservative never underestimates either.
        for (x, &c) in &counts {
            assert!(cons.estimate(x) >= c);
        }
    }

    #[test]
    fn size_accounting_is_the_encoded_length() {
        let mut cm = CountMinSketch::<u32>::new(100, 5, false, 1);
        let empty_bytes = cm.snapshot_bytes();
        assert_eq!(cm.size_bits(), empty_bytes.len() as u64 * 8);
        // 500 zero counters cost one varint byte each, far below the
        // 64-bit-per-cell RAM footprint; filling counters grows the
        // encoding, and size_bits tracks it exactly.
        assert!(cm.size_bits() < 100 * 5 * 64);
        for x in 0..10_000u32 {
            cm.update(x % 50);
        }
        let full_bytes = cm.snapshot_bytes();
        assert!(full_bytes.len() > empty_bytes.len());
        assert_eq!(cm.size_bits(), full_bytes.len() as u64 * 8);
        assert_eq!(CountMinSketch::<u32>::from_snapshot(&full_bytes).expect("roundtrip"), cm);
    }

    /// Plain Count-Min merges counter-wise: split the stream anywhere, and
    /// the merged halves equal the one-pass sketch cell for cell (in either
    /// merge order); conservative update refuses.
    #[test]
    fn merge_is_bit_identical_to_one_pass() {
        use ifs_core::streaming::{MergeError, MergeableSketch};
        let mut rng = Rng64::seeded(0x3E6);
        let stream: Vec<u32> = (0..4000).map(|_| rng.below(600) as u32).collect();
        let mut whole = CountMinSketch::new(64, 4, false, 11);
        let mut a = CountMinSketch::new(64, 4, false, 11);
        let mut b = CountMinSketch::new(64, 4, false, 11);
        for (i, &x) in stream.iter().enumerate() {
            whole.update(x);
            if i < 1234 { &mut a } else { &mut b }.update(x);
        }
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(b).expect("same-shape sketches merge");
        ba.merge(a).expect("counter merge commutes");
        assert_eq!(ab, whole);
        assert_eq!(ba, whole, "merge must be commutative");
        assert_eq!(ab.stream_len(), 4000);

        let mut wrong_seed = CountMinSketch::<u32>::new(64, 4, false, 12);
        assert!(matches!(wrong_seed.merge(whole), Err(MergeError::Incompatible(_))));
        let mut cons = CountMinSketch::<u32>::new(64, 4, true, 11);
        let cons2 = CountMinSketch::<u32>::new(64, 4, true, 11);
        assert!(matches!(cons.merge(cons2), Err(MergeError::Unmergeable(_))));
    }

    /// Golden regression: bucket placement must be identical on every
    /// platform and Rust release. These values were recorded once from the
    /// in-tree [`StableHasher`]; a change here means sketch contents (and
    /// every EXPERIMENTS.md number involving Count-Min) silently moved.
    #[test]
    fn stable_hashing_golden() {
        let cm = CountMinSketch::<u32>::new(32, 4, false, 42);
        let buckets: Vec<usize> = (0..4).map(|r| cm.bucket(r, &7u32)).collect();
        assert_eq!(buckets, vec![24, 33, 73, 102]);
        let buckets: Vec<usize> = (0..4).map(|r| cm.bucket(r, &1234u32)).collect();
        assert_eq!(buckets, vec![25, 51, 84, 127]);

        // A short deterministic stream pins the full counter array shape:
        // estimates must come out exactly as recorded.
        let mut cm = CountMinSketch::<u64>::new(16, 3, false, 7);
        for x in 0..100u64 {
            cm.update(x % 10);
        }
        let est: Vec<u64> = (0..10u64).map(|x| cm.estimate(&x)).collect();
        assert_eq!(est, vec![10, 10, 10, 10, 10, 10, 10, 20, 10, 10]);
        assert_eq!(cm.stream_len(), 100);
    }
}
