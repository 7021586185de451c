//! Bit-vector helpers shared by the packed database representation.
//!
//! Bit-vectors are stored little-endian in `u64` words: bit `i` lives in word
//! `i / 64` at position `i % 64`. All helpers treat the slice as exactly
//! `words.len() * 64` bits; higher layers are responsible for keeping the
//! tail bits of the last word clear (see [`mask_tail`]).
//!
//! # Kernel layout (DESIGN.md §12)
//!
//! The AND+popcount folds here are the innermost loops of the whole
//! workspace — every sharded-engine support query, every Eclat tid-set
//! intersection, every Hamming-distance decode bottoms out in them — so
//! they are written as explicitly *wide* loops over `u64x4`-style lanes
//! (`chunks_exact`, plain `[u64; 4]` arrays, independent accumulators),
//! with the counting kernels going one step further: a **Harley–Seal
//! carry-save tree** folds `CSA_BLOCK` words at a time into bit-sliced
//! counters of weight 1/2/4/8/16, so the expensive per-word popcount runs
//! on one sixteenth of the data. This matters because without a popcount
//! instruction (baseline x86-64) `count_ones` compiles to a ~15-op SWAR
//! sequence per word that the compiler already auto-vectorizes in the
//! naive fold — plain unrolling is not faster, but replacing fifteen of
//! every sixteen popcounts with five bitwise vector ops is. Sub-block
//! tails fall back to unroll-by-[`LANES`] loops, and ragged remainders to
//! scalar. Operands shorter than one block (a shard under 4,096 rows, a
//! one-word row) skip the carry-save state and its closing popcounts of
//! zero words. Nothing here is `unsafe` and nothing depends on target
//! features. The narrow reference implementations live in [`scalar`] and
//! every wide kernel is asserted bit-identical to its scalar twin (unit
//! tests here, proptests in `tests/kernel_identity.rs`, and the
//! `kernel_throughput` bench gate).
//!
//! The fused kernels ([`and3_count`], [`and_write`], [`and_count_into`])
//! exist so callers intersecting `k` tid-sets touch memory `k − 2` times
//! instead of `k` times: fusing the final AND with the popcount (or the
//! first two ANDs with each other) removes whole passes, which on a
//! memory-bound workload is worth more than any in-register trick.
//!
//! [`transpose64`] is the build-side kernel: every row → tid-set transpose
//! (each shard's `ColumnStore`) runs as 64×64 bit tiles through it, word pairs
//! at a time, instead of moving one set bit at a time.

/// Accumulator lanes per unrolled chunk. Four `u64`s is one cache line
/// half: wide enough to saturate the popcount units and legal to
/// auto-vectorize, small enough that the ragged tail stays cheap.
pub const LANES: usize = 4;

/// Words per Harley–Seal block: 16 vectors of [`LANES`] words. The
/// carry-save tree reduces a whole block to one `sixteens` vector plus
/// running `ones/twos/fours/eights` carries, so only **one** vector
/// popcount is paid per 64 words instead of 64 scalar popcounts.
const CSA_BLOCK: usize = 16 * LANES;

/// A `u64x4`-style vector: plain arrays of words, so every operation
/// below is safe stable Rust that LLVM lowers to SIMD where available.
type V = [u64; LANES];

#[inline(always)]
fn vload(s: &[u64]) -> V {
    [s[0], s[1], s[2], s[3]]
}

#[inline(always)]
fn vstore(s: &mut [u64], v: V) {
    s[0] = v[0];
    s[1] = v[1];
    s[2] = v[2];
    s[3] = v[3];
}

#[inline(always)]
fn vand(a: V, b: V) -> V {
    [a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]]
}

#[inline(always)]
fn vxor(a: V, b: V) -> V {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

#[inline(always)]
fn vor(a: V, b: V) -> V {
    [a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]]
}

#[inline(always)]
fn vpop(v: V) -> usize {
    (v[0].count_ones() + v[1].count_ones()) as usize
        + (v[2].count_ones() + v[3].count_ones()) as usize
}

/// Carry-save adder: `(high, low)` such that per bit position
/// `2·high + low = a + b + c`. Five bitwise vector ops replace three
/// popcounts — the core trick of the Harley–Seal kernels.
#[inline(always)]
fn csa(a: V, b: V, c: V) -> (V, V) {
    let u = vxor(a, b);
    (vor(vand(a, b), vand(u, c)), vxor(u, c))
}

/// Running Harley–Seal state: bit-sliced counters of weight 1/2/4/8 plus
/// the popcount of every completed `sixteens` vector. Exact by
/// construction — `finish` recombines the weighted counters into the same
/// integer a per-word popcount fold produces.
struct CsaState {
    ones: V,
    twos: V,
    fours: V,
    eights: V,
    sixteens_pop: usize,
}

impl CsaState {
    #[inline(always)]
    fn new() -> Self {
        let z = [0u64; LANES];
        Self { ones: z, twos: z, fours: z, eights: z, sixteens_pop: 0 }
    }

    #[inline(always)]
    fn finish(self) -> usize {
        16 * self.sixteens_pop
            + 8 * vpop(self.eights)
            + 4 * vpop(self.fours)
            + 2 * vpop(self.twos)
            + vpop(self.ones)
    }
}

/// Folds one 16-vector block into a [`CsaState`]; exactly one vector
/// popcount (the `sixteens` carry) per expansion. A macro, not a method
/// taking a closure or a `[V; 16]`: the leaf expression `$leaf` is spliced
/// textually at each of the sixteen loads (with `$i` bound to the vector
/// index), so the block never materializes as a 512-byte stack array and
/// there is no closure for the inliner to outline — both of which were
/// measured to cost 2–4x in the hot loop. Leaves are evaluated in pairs as
/// the tree consumes them, keeping the live vector set small.
macro_rules! csa_absorb {
    ($st:ident, $i:ident => $leaf:expr) => {{
        let $i = 0usize;
        let a = $leaf;
        let $i = 1usize;
        let b = $leaf;
        let (ta, ones) = csa($st.ones, a, b);
        let $i = 2usize;
        let a = $leaf;
        let $i = 3usize;
        let b = $leaf;
        let (tb, ones) = csa(ones, a, b);
        let (fa, twos) = csa($st.twos, ta, tb);
        let $i = 4usize;
        let a = $leaf;
        let $i = 5usize;
        let b = $leaf;
        let (ta, ones) = csa(ones, a, b);
        let $i = 6usize;
        let a = $leaf;
        let $i = 7usize;
        let b = $leaf;
        let (tb, ones) = csa(ones, a, b);
        let (fb, twos) = csa(twos, ta, tb);
        let (ea, fours) = csa($st.fours, fa, fb);
        let $i = 8usize;
        let a = $leaf;
        let $i = 9usize;
        let b = $leaf;
        let (ta, ones) = csa(ones, a, b);
        let $i = 10usize;
        let a = $leaf;
        let $i = 11usize;
        let b = $leaf;
        let (tb, ones) = csa(ones, a, b);
        let (fa, twos) = csa(twos, ta, tb);
        let $i = 12usize;
        let a = $leaf;
        let $i = 13usize;
        let b = $leaf;
        let (ta, ones) = csa(ones, a, b);
        let $i = 14usize;
        let a = $leaf;
        let $i = 15usize;
        let b = $leaf;
        let (tb, ones) = csa(ones, a, b);
        let (fb, twos) = csa(twos, ta, tb);
        let (eb, fours) = csa(fours, fa, fb);
        let (sixteens, eights) = csa($st.eights, ea, eb);
        $st.ones = ones;
        $st.twos = twos;
        $st.fours = fours;
        $st.eights = eights;
        $st.sixteens_pop += vpop(sixteens);
    }};
}

/// Number of 64-bit words needed to hold `bits` bits.
#[inline]
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Reads bit `i`.
#[inline]
pub fn get(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets bit `i` to `value`.
#[inline]
pub fn set(words: &mut [u64], i: usize, value: bool) {
    let mask = 1u64 << (i % 64);
    if value {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
    }
}

/// Clears any bits at positions `>= len` in the final word.
#[inline]
pub fn mask_tail(words: &mut [u64], len: usize) {
    if !len.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (len % 64)) - 1;
        }
    }
}

/// Unrolled-by-[`LANES`] popcount for sub-block tails.
#[inline]
fn count_ones_unrolled(words: &[u64]) -> usize {
    let mut chunks = words.chunks_exact(LANES);
    let mut acc = [0usize; LANES];
    for c in chunks.by_ref() {
        acc[0] += c[0].count_ones() as usize;
        acc[1] += c[1].count_ones() as usize;
        acc[2] += c[2].count_ones() as usize;
        acc[3] += c[3].count_ones() as usize;
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for w in chunks.remainder() {
        total += w.count_ones() as usize;
    }
    total
}

/// Population count across the slice (wide: Harley–Seal carry-save blocks
/// of `CSA_BLOCK` words, unrolled-by-[`LANES`] tail).
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    let mut blocks = words.chunks_exact(CSA_BLOCK);
    let mut total = 0;
    if words.len() >= CSA_BLOCK {
        let mut st = CsaState::new();
        for blk in blocks.by_ref() {
            csa_absorb!(st, i => vload(&blk[LANES * i..]));
        }
        total = st.finish();
    }
    total + count_ones_unrolled(blocks.remainder())
}

/// Returns true iff `sub` is a subset of `sup` bit-wise
/// (i.e. `sub & !sup == 0`). Slices must have equal length.
///
/// The wide loop ORs the violation words of a whole chunk together before
/// testing, so the hot path is branch-free per word; short-circuiting per
/// chunk keeps the early-exit behavior callers rely on for speed.
#[inline]
pub fn is_subset(sub: &[u64], sup: &[u64]) -> bool {
    debug_assert_eq!(sub.len(), sup.len());
    let mut a = sub.chunks_exact(LANES);
    let mut b = sup.chunks_exact(LANES);
    for (x, y) in a.by_ref().zip(b.by_ref()) {
        let v = (x[0] & !y[0]) | (x[1] & !y[1]) | (x[2] & !y[2]) | (x[3] & !y[3]);
        if v != 0 {
            return false;
        }
    }
    a.remainder().iter().zip(b.remainder()).all(|(x, y)| x & !y == 0)
}

/// `dst &= src` element-wise (wide: unrolled by [`LANES`]).
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (x, y) in d.by_ref().zip(s.by_ref()) {
        x[0] &= y[0];
        x[1] &= y[1];
        x[2] &= y[2];
        x[3] &= y[3];
    }
    for (x, y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x &= y;
    }
}

/// Unrolled-by-[`LANES`] intersection popcount for sub-block tails.
#[inline]
fn and_count_unrolled(a: &[u64], b: &[u64]) -> usize {
    let mut xs = a.chunks_exact(LANES);
    let mut ys = b.chunks_exact(LANES);
    let mut acc = [0usize; LANES];
    for (x, y) in xs.by_ref().zip(ys.by_ref()) {
        acc[0] += (x[0] & y[0]).count_ones() as usize;
        acc[1] += (x[1] & y[1]).count_ones() as usize;
        acc[2] += (x[2] & y[2]).count_ones() as usize;
        acc[3] += (x[3] & y[3]).count_ones() as usize;
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in xs.remainder().iter().zip(ys.remainder()) {
        total += (x & y).count_ones() as usize;
    }
    total
}

/// Popcount of the intersection `a & b` without allocating (wide:
/// Harley–Seal blocks, each word ANDed as it is loaded).
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut xs = a.chunks_exact(CSA_BLOCK);
    let mut ys = b.chunks_exact(CSA_BLOCK);
    let mut total = 0;
    if a.len() >= CSA_BLOCK {
        let mut st = CsaState::new();
        for (x, y) in xs.by_ref().zip(ys.by_ref()) {
            csa_absorb!(st, i => vand(vload(&x[LANES * i..]), vload(&y[LANES * i..])));
        }
        total = st.finish();
    }
    total + and_count_unrolled(xs.remainder(), ys.remainder())
}

#[inline]
fn and3_count_unrolled(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    let mut xs = a.chunks_exact(LANES);
    let mut ys = b.chunks_exact(LANES);
    let mut zs = c.chunks_exact(LANES);
    let mut acc = [0usize; LANES];
    for ((x, y), z) in xs.by_ref().zip(ys.by_ref()).zip(zs.by_ref()) {
        acc[0] += (x[0] & y[0] & z[0]).count_ones() as usize;
        acc[1] += (x[1] & y[1] & z[1]).count_ones() as usize;
        acc[2] += (x[2] & y[2] & z[2]).count_ones() as usize;
        acc[3] += (x[3] & y[3] & z[3]).count_ones() as usize;
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for ((x, y), z) in xs.remainder().iter().zip(ys.remainder()).zip(zs.remainder()) {
        total += (x & y & z).count_ones() as usize;
    }
    total
}

/// Fused three-operand kernel: popcount of `a & b & c` in **one** pass
/// over memory — a 3-itemset support query needs no scratch buffer and no
/// second traversal.
#[inline]
pub fn and3_count(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let mut xs = a.chunks_exact(CSA_BLOCK);
    let mut ys = b.chunks_exact(CSA_BLOCK);
    let mut zs = c.chunks_exact(CSA_BLOCK);
    let mut total = 0;
    if a.len() >= CSA_BLOCK {
        let mut st = CsaState::new();
        for ((x, y), z) in xs.by_ref().zip(ys.by_ref()).zip(zs.by_ref()) {
            csa_absorb!(st, i => vand(
                vand(vload(&x[LANES * i..]), vload(&y[LANES * i..])),
                vload(&z[LANES * i..])
            ));
        }
        total = st.finish();
    }
    total + and3_count_unrolled(xs.remainder(), ys.remainder(), zs.remainder())
}

/// Fused write kernel: `dst = a & b` element-wise in one pass — the
/// opening move of a `k ≥ 4` intersection, replacing the historical
/// copy-then-AND (two passes) with one.
#[inline]
pub fn and_write(dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut xs = a.chunks_exact(LANES);
    let mut ys = b.chunks_exact(LANES);
    for ((o, x), y) in d.by_ref().zip(xs.by_ref()).zip(ys.by_ref()) {
        o[0] = x[0] & y[0];
        o[1] = x[1] & y[1];
        o[2] = x[2] & y[2];
        o[3] = x[3] & y[3];
    }
    for ((o, x), y) in d.into_remainder().iter_mut().zip(xs.remainder()).zip(ys.remainder()) {
        *o = x & y;
    }
}

#[inline]
fn and_count_into_unrolled(dst: &mut [u64], src: &[u64]) -> usize {
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    let mut acc = [0usize; LANES];
    for (x, y) in d.by_ref().zip(s.by_ref()) {
        x[0] &= y[0];
        x[1] &= y[1];
        x[2] &= y[2];
        x[3] &= y[3];
        acc[0] += x[0].count_ones() as usize;
        acc[1] += x[1].count_ones() as usize;
        acc[2] += x[2].count_ones() as usize;
        acc[3] += x[3].count_ones() as usize;
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x &= y;
        total += x.count_ones() as usize;
    }
    total
}

/// Fused update kernel: `dst &= src` while counting — returns the
/// popcount of the updated `dst` in the same pass. An Eclat-style
/// intersect-then-support step pays one traversal instead of two.
#[inline]
pub fn and_count_into(dst: &mut [u64], src: &[u64]) -> usize {
    debug_assert_eq!(dst.len(), src.len());
    let long = dst.len() >= CSA_BLOCK;
    let mut d = dst.chunks_exact_mut(CSA_BLOCK);
    let mut s = src.chunks_exact(CSA_BLOCK);
    let mut total = 0;
    if long {
        let mut st = CsaState::new();
        for (x, y) in d.by_ref().zip(s.by_ref()) {
            csa_absorb!(st, i => {
                let v = vand(vload(&x[LANES * i..]), vload(&y[LANES * i..]));
                vstore(&mut x[LANES * i..], v);
                v
            });
        }
        total = st.finish();
    }
    total + and_count_into_unrolled(d.into_remainder(), s.remainder())
}

/// Iterates the positions of set bits in increasing order.
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut rem = w;
        std::iter::from_fn(move || {
            if rem == 0 {
                None
            } else {
                let tz = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                Some(wi * 64 + tz)
            }
        })
    })
}

#[inline]
fn hamming_unrolled(a: &[u64], b: &[u64]) -> usize {
    let mut xs = a.chunks_exact(LANES);
    let mut ys = b.chunks_exact(LANES);
    let mut acc = [0usize; LANES];
    for (x, y) in xs.by_ref().zip(ys.by_ref()) {
        acc[0] += (x[0] ^ y[0]).count_ones() as usize;
        acc[1] += (x[1] ^ y[1]).count_ones() as usize;
        acc[2] += (x[2] ^ y[2]).count_ones() as usize;
        acc[3] += (x[3] ^ y[3]).count_ones() as usize;
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in xs.remainder().iter().zip(ys.remainder()) {
        total += (x ^ y).count_ones() as usize;
    }
    total
}

/// Hamming distance between two equal-length slices (wide: Harley–Seal
/// blocks over the XOR of the operands).
#[inline]
pub fn hamming(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut xs = a.chunks_exact(CSA_BLOCK);
    let mut ys = b.chunks_exact(CSA_BLOCK);
    let mut total = 0;
    if a.len() >= CSA_BLOCK {
        let mut st = CsaState::new();
        for (x, y) in xs.by_ref().zip(ys.by_ref()) {
            csa_absorb!(st, i => vxor(vload(&x[LANES * i..]), vload(&y[LANES * i..])));
        }
        total = st.finish();
    }
    total + hamming_unrolled(xs.remainder(), ys.remainder())
}

/// In-place 64×64 bit transpose: afterwards bit `r` of `a[c]` is bit `c`
/// of the old `a[r]` — 64 rows of one packed row word become 64 tid
/// words, the tile of the row → column transpose (DESIGN.md §12).
///
/// Six rounds of masked swaps, widest first: round `j` (32, 16, …, 1)
/// swaps the off-diagonal `j × j` blocks of every `2j × 2j` block, i.e.
/// bit `c + j` of row `k` with bit `c` of row `k + j` wherever bit `j` of
/// `c` and of `k` is clear. `6 · 32` word-pair updates replace the 4096
/// single-bit moves of [`scalar::transpose64`]; each round is a plain
/// loop over two disjoint halves, so it vectorizes like the kernels above.
#[inline]
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        for block in a.chunks_exact_mut(2 * j) {
            let (lo, hi) = block.split_at_mut(j);
            for (x, y) in lo.iter_mut().zip(hi) {
                let t = ((*x >> j) ^ *y) & mask;
                *y ^= t;
                *x ^= t << j;
            }
        }
        j /= 2;
        mask ^= mask << j;
    }
}

/// Packs a `&[bool]` into words.
pub fn pack(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; words_for(bits.len())];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

/// Unpacks `len` bits into a `Vec<bool>`.
pub fn unpack(words: &[u64], len: usize) -> Vec<bool> {
    (0..len).map(|i| get(words, i)).collect()
}

/// Narrow single-accumulator reference kernels — the semantics the wide
/// loops above must reproduce **bit-identically** on every input.
///
/// These are the seed implementations, kept verbatim: a plain fold per
/// word, no unrolling, no fusion. They exist only so the equivalence can
/// be *asserted* rather than claimed — the bit-identity proptests
/// (`tests/kernel_identity.rs`) and the `kernel_throughput` bench gate
/// compare every wide kernel against its twin here, on ragged tails and
/// empty slices included. Compiled for this crate's unit tests and for
/// downstream test/bench crates via the `scalar-reference` feature; the
/// production build never links them.
#[cfg(any(test, feature = "scalar-reference"))]
pub mod scalar {
    /// Reference for [`super::count_ones`].
    pub fn count_ones(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Reference for [`super::is_subset`].
    pub fn is_subset(sub: &[u64], sup: &[u64]) -> bool {
        sub.iter().zip(sup).all(|(a, b)| a & !b == 0)
    }

    /// Reference for [`super::and_assign`].
    pub fn and_assign(dst: &mut [u64], src: &[u64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d &= s;
        }
    }

    /// Reference for [`super::and_count`].
    pub fn and_count(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b).map(|(x, y)| (x & y).count_ones() as usize).sum()
    }

    /// Reference for [`super::and3_count`]: the unfused two-pass
    /// composition (AND into a temporary, then popcount the final AND).
    pub fn and3_count(a: &[u64], b: &[u64], c: &[u64]) -> usize {
        let mut tmp = a.to_vec();
        and_assign(&mut tmp, b);
        and_count(&tmp, c)
    }

    /// Reference for [`super::and_write`].
    pub fn and_write(dst: &mut [u64], a: &[u64], b: &[u64]) {
        for ((o, x), y) in dst.iter_mut().zip(a).zip(b) {
            *o = x & y;
        }
    }

    /// Reference for [`super::and_count_into`]: the unfused AND-then-count.
    pub fn and_count_into(dst: &mut [u64], src: &[u64]) -> usize {
        and_assign(dst, src);
        count_ones(dst)
    }

    /// Reference for [`super::hamming`].
    pub fn hamming(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum()
    }

    /// Reference for [`super::transpose64`]: one bit moved at a time.
    pub fn transpose64(a: &mut [u64; 64]) {
        let mut out = [0u64; 64];
        for (r, &row) in a.iter().enumerate() {
            for (c, word) in out.iter_mut().enumerate() {
                *word |= ((row >> c) & 1) << r;
            }
        }
        *a = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut w = vec![0u64; 3];
        for i in [0usize, 1, 63, 64, 65, 127, 128, 191] {
            assert!(!get(&w, i));
            set(&mut w, i, true);
            assert!(get(&w, i));
        }
        assert_eq!(count_ones(&w), 8);
        set(&mut w, 64, false);
        assert!(!get(&w, 64));
        assert_eq!(count_ones(&w), 7);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let words = pack(&bits);
        assert_eq!(unpack(&words, bits.len()), bits);
    }

    /// Seeded round-trips at word-boundary lengths, so a packing regression
    /// is reproducible from the printed seed alone.
    #[test]
    fn pack_unpack_roundtrip_seeded_boundaries() {
        let mut rng = crate::Rng64::seeded(0xB175);
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 300] {
            let bits: Vec<bool> = (0..len).map(|_| rng.bernoulli(0.5)).collect();
            let words = pack(&bits);
            assert_eq!(words.len(), words_for(len), "len {len}");
            assert_eq!(unpack(&words, len), bits, "len {len}");
            // Tail bits beyond `len` must be zero so word-wise ops agree.
            let mut masked = words.clone();
            mask_tail(&mut masked, len);
            assert_eq!(masked, words, "len {len} tail must already be clear");
        }
    }

    #[test]
    fn subset_relation() {
        let a = pack(&[true, false, true, false]);
        let b = pack(&[true, true, true, false]);
        assert!(is_subset(&a, &b));
        assert!(!is_subset(&b, &a));
        assert!(is_subset(&a, &a));
    }

    #[test]
    fn ones_iterates_in_order() {
        let mut w = vec![0u64; 2];
        for i in [3usize, 64, 70, 127] {
            set(&mut w, i, true);
        }
        assert_eq!(ones(&w).collect::<Vec<_>>(), vec![3, 64, 70, 127]);
    }

    #[test]
    fn hamming_distance() {
        let a = pack(&[true, false, true, true]);
        let b = pack(&[true, true, false, true]);
        assert_eq!(hamming(&a, &b), 2);
        assert_eq!(hamming(&a, &a), 0);
    }

    #[test]
    fn and_count_matches_manual() {
        let a = pack(&(0..200).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let b = pack(&(0..200).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let expect = (0..200).filter(|i| i % 2 == 0 && i % 3 == 0).count();
        assert_eq!(and_count(&a, &b), expect);
    }

    #[test]
    fn and3_count_matches_manual() {
        let a = pack(&(0..300).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let b = pack(&(0..300).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let c = pack(&(0..300).map(|i| i % 5 == 0).collect::<Vec<_>>());
        let expect = (0..300).filter(|i| i % 30 == 0).count();
        assert_eq!(and3_count(&a, &b, &c), expect);
    }

    #[test]
    fn fused_kernels_match_their_compositions() {
        let mut rng = crate::Rng64::seeded(0xFACE);
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 31, 100] {
            let a: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let b: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let c: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            assert_eq!(and3_count(&a, &b, &c), scalar::and3_count(&a, &b, &c), "len {len}");
            let mut dst = vec![0u64; len];
            and_write(&mut dst, &a, &b);
            let mut want = vec![0u64; len];
            scalar::and_write(&mut want, &a, &b);
            assert_eq!(dst, want, "len {len}");
            let mut wide = a.clone();
            let mut narrow = a.clone();
            let n = and_count_into(&mut wide, &b);
            let m = scalar::and_count_into(&mut narrow, &b);
            assert_eq!((wide, n), (narrow, m), "len {len}");
        }
    }

    /// Every wide kernel must agree with its scalar reference bit for bit,
    /// across chunk boundaries (lengths around multiples of [`LANES`]) and
    /// the empty slice. The proptest version with random lengths lives in
    /// `tests/kernel_identity.rs`; this is the fast deterministic sweep.
    #[test]
    fn wide_kernels_match_scalar_reference() {
        let mut rng = crate::Rng64::seeded(0x31DE);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 64, 65, 129] {
            let a: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let b: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            assert_eq!(count_ones(&a), scalar::count_ones(&a), "count_ones len {len}");
            assert_eq!(and_count(&a, &b), scalar::and_count(&a, &b), "and_count len {len}");
            assert_eq!(hamming(&a, &b), scalar::hamming(&a, &b), "hamming len {len}");
            assert_eq!(is_subset(&a, &b), scalar::is_subset(&a, &b), "is_subset len {len}");
            let mut x = a.clone();
            let mut y = a.clone();
            and_assign(&mut x, &b);
            scalar::and_assign(&mut y, &b);
            assert_eq!(x, y, "and_assign len {len}");
            // is_subset must also agree on true cases, not just random ones.
            assert!(is_subset(&x, &a), "a&b ⊆ a, len {len}");
            assert!(scalar::is_subset(&x, &b), "a&b ⊆ b, len {len}");
        }
    }

    /// The tile transpose against its per-bit twin on the edge tiles, plus
    /// its defining property and involution on a random tile.
    #[test]
    fn transpose64_matches_scalar_on_edge_tiles() {
        let check = |tile: [u64; 64], what: &str| {
            let (mut wide, mut narrow) = (tile, tile);
            transpose64(&mut wide);
            scalar::transpose64(&mut narrow);
            assert_eq!(wide, narrow, "{what}");
            transpose64(&mut wide);
            assert_eq!(wide, tile, "{what}: transposing twice is the identity");
        };
        check([0; 64], "zero tile");
        check([u64::MAX; 64], "all-ones tile");
        check(std::array::from_fn(|r| 1u64 << r), "diagonal");
        for (r, c) in [(0, 0), (0, 63), (63, 0), (5, 40), (63, 63)] {
            let mut tile = [0u64; 64];
            tile[r] = 1u64 << c;
            let mut t = tile;
            transpose64(&mut t);
            assert_eq!(t.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(t[c], 1u64 << r, "single bit ({r}, {c})");
            check(tile, "single bit");
        }
        let mut rng = crate::Rng64::seeded(0x7A11);
        let tile: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
        let mut t = tile;
        transpose64(&mut t);
        for (r, row) in tile.iter().enumerate() {
            for (c, col) in t.iter().enumerate() {
                assert_eq!((col >> r) & 1, (row >> c) & 1, "cell ({r}, {c})");
            }
        }
        check(tile, "random tile");
    }

    #[test]
    fn mask_tail_clears_high_bits() {
        let mut w = vec![u64::MAX; 2];
        mask_tail(&mut w, 70);
        assert_eq!(w[1], (1u64 << 6) - 1);
        assert_eq!(w[0], u64::MAX);
    }
}
