//! Inner binary linear codes `[n_in, 8, d]` with verified minimum distance.
//!
//! The concatenation needs a small binary code for one GF(2⁸) symbol per
//! block. We draw random generator matrices (deterministically seeded) and
//! keep the first whose minimum distance — computed *exactly* by enumerating
//! all 255 nonzero codewords — meets the target. This is Gilbert–Varshamov
//! by rejection sampling: for `[32, 8]` a distance-9 code is found within a
//! few draws, and the construction is reproducible because the seed sequence
//! is fixed.
//!
//! Decoding is exhaustive maximum-likelihood over the 256 codewords, which
//! guarantees correction of up to `⌊(d−1)/2⌋` bit errors.

use ifs_util::Rng64;

/// A binary linear code encoding one byte into `n_in ≤ 64` bits.
#[derive(Clone, Debug)]
pub struct BinaryLinearCode {
    n_in: usize,
    codewords: Vec<u64>,
    /// Exact minimum distance (0 iff the generator is singular).
    min_distance: usize,
}

impl BinaryLinearCode {
    /// Searches for a code of length `n_in` with minimum distance at least
    /// `target_distance`.
    ///
    /// Returns `None` if no such code is found within `max_tries` random
    /// draws (callers should then lower the target; the defaults used by
    /// [`crate::ConcatenatedCode`] succeed deterministically).
    pub fn search(n_in: usize, target_distance: usize, max_tries: usize) -> Option<Self> {
        assert!((8..=64).contains(&n_in), "inner length must be in [8, 64]");
        for attempt in 0..max_tries {
            // Fixed seed sequence: same code every run, no RNG threading.
            let mut rng = Rng64::seeded(0x1F5_C0DE + attempt as u64);
            let mask = if n_in == 64 { u64::MAX } else { (1u64 << n_in) - 1 };
            let mut rows = [0u64; 8];
            for r in &mut rows {
                *r = rng.next_u64() & mask;
            }
            let code = Self::from_generator(n_in, rows);
            if code.min_distance >= target_distance {
                return Some(code);
            }
        }
        None
    }

    /// Builds a code from an explicit generator matrix (8 rows of `n_in`-bit
    /// words). Computes the exact minimum distance.
    pub fn from_generator(n_in: usize, rows: [u64; 8]) -> Self {
        let mut codewords = Vec::with_capacity(256);
        for msg in 0u16..256 {
            let mut cw = 0u64;
            for (bit, row) in rows.iter().enumerate() {
                if (msg >> bit) & 1 == 1 {
                    cw ^= row;
                }
            }
            codewords.push(cw);
        }
        let min_distance =
            codewords[1..].iter().map(|cw| cw.count_ones() as usize).min().unwrap_or(0);
        Self { n_in, codewords, min_distance }
    }

    /// Codeword length in bits.
    pub fn block_len(&self) -> usize {
        self.n_in
    }

    /// Guaranteed correctable bit errors per block, `⌊(d−1)/2⌋`.
    pub fn correctable(&self) -> usize {
        self.min_distance.saturating_sub(1) / 2
    }

    /// Encodes one byte into an `n_in`-bit codeword (bits little-endian in
    /// the returned word).
    pub fn encode(&self, byte: u8) -> u64 {
        self.codewords[byte as usize]
    }

    /// Maximum-likelihood decoding: the message whose codeword is nearest in
    /// Hamming distance (ties broken by smaller message value).
    pub fn decode(&self, received: u64) -> u8 {
        let mut best = 0u8;
        let mut best_dist = u32::MAX;
        for (msg, &cw) in self.codewords.iter().enumerate() {
            let dist = (cw ^ received).count_ones();
            if dist < best_dist {
                best_dist = dist;
                best = msg as u8;
                if dist == 0 {
                    break;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_code() -> BinaryLinearCode {
        BinaryLinearCode::search(32, 9, 64).expect("a [32,8,>=9] code exists in the seed stream")
    }

    #[test]
    fn search_finds_target_distance() {
        let c = default_code();
        assert!(c.min_distance >= 9, "found distance {}", c.min_distance);
        assert!(c.correctable() >= 4);
        assert_eq!(c.block_len(), 32);
    }

    #[test]
    fn search_is_deterministic() {
        let a = BinaryLinearCode::search(32, 9, 64).unwrap();
        let b = BinaryLinearCode::search(32, 9, 64).unwrap();
        assert_eq!(a.min_distance, b.min_distance);
        assert!((0..=255u8).all(|m| a.encode(m) == b.encode(m)));
    }

    #[test]
    fn encode_is_linear() {
        let c = default_code();
        for (x, y) in [(0x12u8, 0x34u8), (0xFF, 0x01), (0xAA, 0x55)] {
            assert_eq!(c.encode(x) ^ c.encode(y), c.encode(x ^ y));
        }
        assert_eq!(c.encode(0), 0);
    }

    #[test]
    fn decodes_up_to_correctable_errors() {
        let c = default_code();
        let t = c.correctable();
        let mut rng = Rng64::seeded(77);
        for _ in 0..300 {
            let msg = rng.below(256) as u8;
            let mut rx = c.encode(msg);
            let flips = rng.below(t + 1);
            for &p in &rng.distinct_sorted(c.block_len(), flips) {
                rx ^= 1u64 << p;
            }
            assert_eq!(c.decode(rx), msg, "msg {msg} with {flips} flips");
        }
    }

    #[test]
    fn distance_computation_matches_bruteforce_pairs() {
        let c = default_code();
        // For a linear code, min pairwise distance == min nonzero weight.
        let mut min_pair = usize::MAX;
        for a in 0..32u16 {
            for b in (a + 1)..32 {
                let d = (c.encode(a as u8) ^ c.encode(b as u8)).count_ones() as usize;
                min_pair = min_pair.min(d);
            }
        }
        assert!(min_pair >= c.min_distance);
    }

    #[test]
    fn impossible_target_returns_none() {
        // Singleton bound: [10, 8] cannot have distance 9.
        assert!(BinaryLinearCode::search(10, 9, 8).is_none());
    }

    #[test]
    fn degenerate_generator_distance_zero() {
        let c = BinaryLinearCode::from_generator(16, [0; 8]);
        assert_eq!(c.min_distance, 0);
    }
}
