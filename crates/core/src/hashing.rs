//! Node hashing: the map function `H(·)`, its address/fingerprint split, and the
//! linear-congruential address sequences used by square hashing.
//!
//! Definition 5 of the paper: each node `v` is mapped to `H(v)` in `[0, M)` with
//! `M = m × F`; its *address* is `h(v) = ⌊H(v)/F⌋ ∈ [0, m)` and its *fingerprint* is
//! `f(v) = H(v) mod F ∈ [0, F)`.  Square hashing (Section V-A) derives `r` row/column
//! addresses `hᵢ(v) = (h(v) + qᵢ(v)) mod m` from a linear-congruential sequence
//! `q₁ = (a·f(v) + b) mod p`, `qᵢ = (a·qᵢ₋₁ + b) mod p` seeded by the fingerprint, which is
//! what makes bucket positions *reversible*: from a room's `(row, fingerprint, index)` the
//! original `H(v)` can be recovered exactly.
//!
//! [`NodeHasher`] is the one home of this address rule, for both versions of the sketch:
//! it maps a node to its rows ([`NodeHasher::address_sequence_into`]) and a room back to
//! the node ([`NodeHasher::recover_hash`]).  In the basic version of Section IV the
//! sequence is the node's own address alone and recovery is plain recomposition.

use crate::config::{GssConfig, MAX_SEQUENCE_LENGTH};
use serde::{Deserialize, Serialize};

/// Multiplier of the linear congruential sequence (a primitive root modulo [`LCG_MODULUS`]).
pub(crate) const LCG_MULTIPLIER: u64 = 75;
/// Additive constant of the linear congruential sequence (a small prime, per the paper).
pub(crate) const LCG_INCREMENT: u64 = 74;
/// Modulus of the linear congruential sequence (the Fermat prime 2^16 + 1).
pub(crate) const LCG_MODULUS: u64 = 65_537;

/// A precomputed mul-shift reciprocal (libdivide-style strength reduction): division and
/// remainder by a runtime-constant divisor become one 64×64→128 multiplication each,
/// replacing the hardware `div` in the per-item hot paths.
///
/// With `magic = ⌊2⁶⁴/d⌋ + 1` (exactly `2⁶⁴/d` when `d` is a power of two),
///
/// * `⌊magic·n / 2⁶⁴⌋ = ⌊n/d⌋` and
/// * `⌊(magic·n mod 2⁶⁴)·d / 2⁶⁴⌋ = n mod d`
///
/// hold exactly for every `n` with `n·d < 2⁶⁴` (Granlund–Montgomery / Lemire): writing
/// `magic·d = 2⁶⁴ + e` with `0 ≤ e ≤ d`, the error term `e·n/2⁶⁴` stays below one unit in
/// both identities whenever `n·d < 2⁶⁴`.  Every use in this module keeps `d ≤ 2²⁰` (the
/// matrix width cap) and `n < 2⁴¹`, far inside the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Reciprocal {
    divisor: u64,
    /// `⌊2⁶⁴/divisor⌋ + 1`, or 0 for `divisor == 1` (where both results are trivial).
    magic: u64,
}

impl Reciprocal {
    /// Precomputes the reciprocal of `divisor` (which must be positive).
    pub(crate) fn new(divisor: u64) -> Self {
        debug_assert!(divisor > 0, "reciprocal of zero");
        // `⌊(2⁶⁴−1)/d⌋ + 1` equals `⌊2⁶⁴/d⌋ + 1` for d ∤ 2⁶⁴ and exactly `2⁶⁴/d` for a
        // power of two — both forms satisfy the identities above.  d = 1 would overflow,
        // so it is encoded as magic 0 (`rem` then correctly multiplies to 0).
        let magic = if divisor == 1 { 0 } else { (u64::MAX / divisor) + 1 };
        Self { divisor, magic }
    }

    /// `n % divisor`, exact for `n·divisor < 2⁶⁴`.
    // Not the `Rem` trait: this is a scalar helper with a documented domain bound, and a
    // `%` operator spelling would hide that it is an approximation outside the bound.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub(crate) fn rem(self, n: u64) -> u64 {
        debug_assert!(
            self.divisor == 1 || n.checked_mul(self.divisor).is_some(),
            "n = {n} outside the exactness bound for divisor {}",
            self.divisor
        );
        let low_bits = self.magic.wrapping_mul(n);
        ((low_bits as u128 * self.divisor as u128) >> 64) as u64
    }

    /// `n / divisor`, exact for `n·divisor < 2⁶⁴`.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub(crate) fn div(self, n: u64) -> u64 {
        debug_assert!(
            self.divisor == 1 || n.checked_mul(self.divisor).is_some(),
            "n = {n} outside the exactness bound for divisor {}",
            self.divisor
        );
        if self.magic == 0 {
            n
        } else {
            ((self.magic as u128 * n as u128) >> 64) as u64
        }
    }
}

/// `n mod 65537` without hardware division, specialised to the Fermat prime: folding with
/// `2³² ≡ 1` and then `2¹⁶ ≡ −1 (mod 2¹⁶ + 1)` reduces any `u64` with a handful of
/// shifts/adds.  Branch-free (the final normalisation is two flag-to-integer
/// subtractions), so the LCG hot loops carry no data-dependent branches.  Bit-identical
/// to `n % LCG_MODULUS`.
#[inline]
pub(crate) fn mod_fermat_65537(n: u64) -> u64 {
    // 2³² ≡ 1: fold the halves; the sum is below 2³³.
    let folded = (n >> 32) + (n & 0xFFFF_FFFF);
    // 2¹⁶ ≡ −1: the residue is `lo − hi` with hi < 2¹⁷ and lo < 2¹⁶; biasing by 2·65537
    // keeps it positive and below 3·65537, so at most two subtractions normalise it.
    let biased = (folded & 0xFFFF) + 2 * LCG_MODULUS - (folded >> 16);
    biased - LCG_MODULUS * (u64::from(biased >= LCG_MODULUS) + u64::from(biased >= 2 * LCG_MODULUS))
}

/// One step of the linear congruential recurrence, via a reduction specialised even
/// further than [`mod_fermat_65537`]: `q` is a canonical residue (as every value this
/// function produces is), so `n = a·q + b < 2²³` and its high fold `n ≫ 16 < 2⁷` — one
/// biased subtraction normalises.  Bit-identical to `(a·q + b) % LCG_MODULUS`.
#[inline]
fn lcg_next(q: u64) -> u64 {
    debug_assert!(q < LCG_MODULUS);
    let n = LCG_MULTIPLIER * q + LCG_INCREMENT;
    // 2¹⁶ ≡ −1 (mod 2¹⁶ + 1): n ≡ lo − hi; bias by the modulus to stay non-negative.
    let biased = (n & 0xFFFF) + LCG_MODULUS - (n >> 16);
    biased - LCG_MODULUS * u64::from(biased >= LCG_MODULUS)
}

/// First element `q₁` of the sequence for an arbitrary (not yet reduced) seed.
#[inline]
fn lcg_start(seed: u64) -> u64 {
    lcg_next(mod_fermat_65537(seed))
}

/// The hashed identity of a node inside the sketch: its full hash `H(v)`, matrix address
/// `h(v)` and fingerprint `f(v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HashedNode {
    /// Full hash value `H(v) ∈ [0, M)`.
    pub hash: u64,
    /// Matrix address `h(v) ∈ [0, m)`.
    pub address: usize,
    /// Fingerprint `f(v) ∈ [0, F)`.
    pub fingerprint: u16,
}

/// The node hash function of a sketch instance, together with the geometry needed to split
/// hashes into addresses and fingerprints and to map a node to its rows and back.
///
/// All per-item arithmetic is division-free: the fingerprint range `F` is a power of two
/// (shift/mask), reductions modulo the width go through a precomputed `Reciprocal`, and
/// the linear congruential sequence reduces modulo its Fermat-prime modulus with
/// `mod_fermat_65537`.  Every result is bit-identical to the straightforward `%`/`/`
/// arithmetic (property-tested below), so hashes, sketches and snapshots are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeHasher {
    width: u64,
    fingerprint_range: u64,
    seed: u64,
    sequence_length: usize,
    /// Square hashing (Section V-A); off, this is the basic version of Section IV.
    square_hashing: bool,
    /// log₂ `F`, for the shift/mask address–fingerprint split.
    fingerprint_shift: u32,
    /// Mul-shift reciprocal of the matrix width `m`.
    width_reciprocal: Reciprocal,
    /// `2³² mod m`, for the two-step reduction of 63-bit quotients modulo the width.
    pow32_mod_width: u64,
    /// Mul-shift reciprocal of the sequence length `r` (candidate-pair decomposition).
    sequence_reciprocal: Reciprocal,
}

impl NodeHasher {
    /// Builds the hasher described by `config`.
    pub fn new(config: &GssConfig) -> Self {
        let width = config.width as u64;
        let fingerprint_range = config.fingerprint_range();
        let width_reciprocal = Reciprocal::new(width);
        Self {
            width,
            fingerprint_range,
            seed: config.hash_seed,
            sequence_length: config.sequence_length,
            square_hashing: config.square_hashing,
            fingerprint_shift: fingerprint_range.trailing_zeros(),
            width_reciprocal,
            pow32_mod_width: width_reciprocal.rem(1u64 << 32),
            sequence_reciprocal: Reciprocal::new(config.sequence_length as u64),
        }
    }

    /// 64-bit mix underlying `H(·)` (a SplitMix64 finaliser keyed by the sketch seed).
    fn mix(&self, vertex: u64) -> u64 {
        let mut z = vertex.wrapping_add(self.seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Maps an original vertex id to its full hash `H(v) ∈ [0, M)`.
    ///
    /// Division-free: with `F = 2^b`, `n mod m·F = ((n ≫ b) mod m)·F + (n mod F)`, and the
    /// 63-bit quotient `n ≫ b` reduces modulo the width in two reciprocal mul-shifts
    /// (split at 32 bits so each step stays inside the `Reciprocal` exactness bound).
    pub(crate) fn hash_vertex(&self, vertex: u64) -> u64 {
        let n = self.mix(vertex);
        let low = n & (self.fingerprint_range - 1);
        let t = n >> self.fingerprint_shift;
        let partial = self.width_reciprocal.rem(t >> 32) * self.pow32_mod_width + (t & 0xFFFF_FFFF);
        (self.width_reciprocal.rem(partial) << self.fingerprint_shift) | low
    }

    /// Maps an original vertex id to its [`HashedNode`] (hash, address, fingerprint).
    pub fn hashed_node(&self, vertex: u64) -> HashedNode {
        self.split(self.hash_vertex(vertex))
    }

    /// Splits a full hash into address and fingerprint (`h(v) = ⌊H/F⌋`, `f(v) = H mod F`).
    /// `F` is a power of two, so the split is a shift and a mask.
    pub(crate) fn split(&self, hash: u64) -> HashedNode {
        HashedNode {
            hash,
            address: (hash >> self.fingerprint_shift) as usize,
            fingerprint: (hash & (self.fingerprint_range - 1)) as u16,
        }
    }

    /// Recomposes a full hash from an address and a fingerprint (`H = h·F + f`).
    pub fn compose(&self, address: usize, fingerprint: u16) -> u64 {
        address as u64 * self.fingerprint_range + fingerprint as u64
    }

    /// [`address_sequence_into`](Self::address_sequence_into) collected into a `Vec`.
    pub fn address_sequence(&self, node: HashedNode) -> Vec<usize> {
        let mut out = [0usize; MAX_SEQUENCE_LENGTH];
        let count = self.address_sequence_into(node, &mut out);
        out[..count].to_vec()
    }

    /// The rows a node's edges are stored to as source (its columns as destination): the
    /// address sequence `h₁(v)..h_r(v)` of Equation 2, `hᵢ(v) = (h(v) + qᵢ) mod m`, or the
    /// node's own address `h(v)` alone in the basic version.  Fills the first entries of
    /// `out` and returns how many; allocation-free, for the per-item paths.
    pub fn address_sequence_into(&self, node: HashedNode, out: &mut [usize]) -> usize {
        if !self.square_hashing {
            out[0] = node.address;
            return 1;
        }
        let length = self.sequence_length.min(out.len());
        let mut q = lcg_start(node.fingerprint as u64);
        for slot in out.iter_mut().take(length) {
            *slot = self.width_reciprocal.rem(node.address as u64 + q) as usize;
            q = lcg_next(q);
        }
        length
    }

    /// The candidate-bucket sample of Section V-B1: fills `out` with up to `candidates`
    /// (row-index, column-index) pairs, each in `[0, r) × [0, r)`, and returns the count.
    pub fn candidate_pairs_into(
        &self,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        candidates: usize,
        out: &mut [(usize, usize)],
    ) -> usize {
        let count = candidates.min(out.len());
        self.sample_into(source_fingerprint, destination_fingerprint, &mut out[..count], |i, j| {
            (i, j)
        });
        count
    }

    /// Fills `out` with the first `out.len()` pairs of the candidate-bucket sample, each
    /// pair `(i, j)` passed through `make`: a linear congruential sequence seeded by the
    /// sum of the two fingerprints, `q` decomposed as `(⌊q/r⌋ mod r, q mod r)`
    /// (Equations 4–5).
    #[inline]
    pub(crate) fn sample_into<T>(
        &self,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        out: &mut [T],
        make: impl Fn(usize, usize) -> T,
    ) {
        let r = self.sequence_reciprocal;
        let mut q = lcg_start(source_fingerprint as u64 + destination_fingerprint as u64);
        for slot in out {
            *slot = make(r.rem(r.div(q)) as usize, r.rem(q) as usize);
            q = lcg_next(q);
        }
    }

    /// The `index`-th element `q_{index+1}` of the LCG sequence seeded by `fingerprint`
    /// — the quantity [`recover_hash`](Self::recover_hash) subtracts.
    #[inline]
    fn sequence_q(fingerprint: u16, index: usize) -> u64 {
        let mut q = lcg_start(fingerprint as u64);
        for _ in 0..index {
            q = lcg_next(q);
        }
        q
    }

    /// Recovers the full hash `H(v)` of the node a room names, from the row/column
    /// `position` the room was found at and that half of its key — the stored fingerprint
    /// and 0-based sequence index: the inverse of
    /// [`address_sequence_into`](Self::address_sequence_into), used by the neighbour
    /// queries and by merging.  Allocation-free: the LCG is replayed inline.
    #[inline]
    pub fn recover_hash(&self, position: usize, fingerprint: u16, index: usize) -> u64 {
        if !self.square_hashing {
            return self.compose(position, fingerprint);
        }
        let q = self.width_reciprocal.rem(Self::sequence_q(fingerprint, index));
        let address = self.width_reciprocal.rem(position as u64 + self.width - q) as usize;
        self.compose(address, fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NodeHasher {
        /// The value range `M = m × F` of the map function.
        fn hash_range(&self) -> u64 {
            self.width * self.fingerprint_range
        }
    }

    fn hasher(width: usize, fingerprint_bits: u32) -> NodeHasher {
        NodeHasher::new(&GssConfig::paper_default(width).with_fingerprint_bits(fingerprint_bits))
    }

    #[test]
    fn hash_values_stay_in_range() {
        let h = hasher(1000, 12);
        for vertex in 0..10_000u64 {
            let node = h.hashed_node(vertex);
            assert!(node.hash < h.hash_range());
            assert!(node.address < 1000);
            assert!(u64::from(node.fingerprint) < 4096);
            assert_eq!(h.compose(node.address, node.fingerprint), node.hash);
        }
    }

    #[test]
    fn hashing_is_deterministic_and_seed_dependent() {
        let a = hasher(500, 16);
        let b = hasher(500, 16);
        let c = NodeHasher::new(&GssConfig::paper_default(500).with_hash_seed(12345));
        for vertex in 0..100u64 {
            assert_eq!(a.hash_vertex(vertex), b.hash_vertex(vertex));
        }
        assert!((0..100u64).any(|v| a.hash_vertex(v) != c.hash_vertex(v)));
    }

    #[test]
    fn split_and_compose_are_inverses() {
        let h = hasher(777, 13);
        for hash in [0u64, 1, 12345, 777 * (1 << 13) - 1] {
            let node = h.split(hash);
            assert_eq!(h.compose(node.address, node.fingerprint), hash);
        }
    }

    #[test]
    fn lcg_sequence_matches_recurrence() {
        let q1 = (LCG_MULTIPLIER * 9 + LCG_INCREMENT) % LCG_MODULUS;
        let q2 = (LCG_MULTIPLIER * q1 + LCG_INCREMENT) % LCG_MODULUS;
        assert_eq!(NodeHasher::sequence_q(9, 0), q1);
        assert_eq!(NodeHasher::sequence_q(9, 1), q2);
    }

    #[test]
    fn lcg_sequences_have_no_short_repeats() {
        // The paper requires the cycle of the sequence to exceed r (≤ 16 here).
        for seed in 0..2048u16 {
            let seq: Vec<u64> = (0..16).map(|index| NodeHasher::sequence_q(seed, index)).collect();
            let distinct: std::collections::HashSet<_> = seq.iter().collect();
            assert_eq!(distinct.len(), 16, "seed {seed} produced repeats: {seq:?}");
        }
    }

    #[test]
    fn address_sequence_has_expected_length_and_range() {
        let h = hasher(321, 16);
        let node = h.hashed_node(42);
        let seq = h.address_sequence(node);
        assert_eq!(seq.len(), 16);
        assert!(seq.iter().all(|&a| a < 321));
    }

    #[test]
    fn recover_address_inverts_address_sequence() {
        let h = hasher(997, 12);
        for vertex in 0..500u64 {
            let node = h.hashed_node(vertex);
            let seq = h.address_sequence(node);
            for (index, &position) in seq.iter().enumerate() {
                assert_eq!(
                    h.recover_hash(position, node.fingerprint, index),
                    node.hash,
                    "vertex {vertex} index {index}"
                );
            }
        }
    }

    /// All 16 sampled candidate pairs of a fingerprint pair.
    fn sampled_pairs(h: &NodeHasher, source: u16, destination: u16) -> [(usize, usize); 16] {
        let mut pairs = [(0, 0); 16];
        assert_eq!(h.candidate_pairs_into(source, destination, 16, &mut pairs), 16);
        pairs
    }

    #[test]
    fn candidate_pairs_stay_inside_the_mapped_square() {
        let h = hasher(100, 16);
        let pairs = sampled_pairs(&h, 123, 456);
        assert!(pairs.iter().all(|&(i, j)| i < 16 && j < 16));
        // Deterministic per fingerprint pair.
        assert_eq!(pairs, sampled_pairs(&h, 123, 456));
        // And commutative in the seed (the paper seeds with the *sum* of fingerprints).
        assert_eq!(pairs, sampled_pairs(&h, 456, 123));
    }

    #[test]
    fn different_fingerprints_usually_get_different_candidates() {
        let h = hasher(100, 16);
        assert_ne!(sampled_pairs(&h, 1, 2), sampled_pairs(&h, 3, 4));
    }

    /// A deterministic pseudo-random walk over u64 (SplitMix-ish), for the bit-identity
    /// sweeps below.
    fn walk(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state ^ (*state >> 29)
    }

    #[test]
    fn reciprocal_matches_hardware_division_inside_the_bound() {
        let divisors = [1u64, 2, 3, 5, 7, 16, 63, 64, 65, 1000, 65_537, (1 << 20) - 1, 1 << 20];
        let mut state = 0x1D5A_F00Du64;
        for &d in &divisors {
            let r = Reciprocal::new(d);
            assert_eq!(r.divisor, d);
            // Boundary numerators plus a random sweep, all within n·d < 2⁶⁴.
            let cap = u64::MAX / d;
            let mut numerators = vec![0, 1, d - 1, d, d.saturating_add(1), cap - 1, cap];
            for _ in 0..2000 {
                let n = walk(&mut state);
                numerators.push(if cap == u64::MAX { n } else { n % (cap + 1) });
            }
            for n in numerators {
                assert_eq!(r.rem(n), n % d, "rem: {n} % {d}");
                assert_eq!(r.div(n), n / d, "div: {n} / {d}");
            }
        }
    }

    #[test]
    fn fermat_reduction_matches_hardware_modulus() {
        for n in 0..200_000u64 {
            assert_eq!(mod_fermat_65537(n), n % LCG_MODULUS, "n = {n}");
        }
        let mut state = 0xFE12_34ABu64;
        for _ in 0..200_000 {
            let n = walk(&mut state);
            assert_eq!(mod_fermat_65537(n), n % LCG_MODULUS, "n = {n}");
        }
        for n in [u64::MAX, u64::MAX - 1, 1 << 32, (1 << 32) - 1, (1 << 32) + 1] {
            assert_eq!(mod_fermat_65537(n), n % LCG_MODULUS, "n = {n}");
        }
    }

    /// The division-free hot path is bit-identical to the plain `%`/`/` arithmetic it
    /// replaced, across widths (including 1, powers of two and the cap), fingerprint
    /// sizes and sequence lengths.
    #[test]
    fn division_free_hashing_is_bit_identical_to_reference_arithmetic() {
        let widths =
            [1usize, 2, 3, 7, 64, 160, 997, 1000, 1024, 4096, 99_991, crate::config::MAX_WIDTH];
        let mut state = 0x0B17_1DE9u64;
        for &width in &widths {
            for bits in [1u32, 8, 12, 16] {
                for sequence_length in [1usize, 5, 8, 16] {
                    let config = GssConfig {
                        sequence_length,
                        candidates: sequence_length,
                        square_hashing: sequence_length > 1,
                        sampling: sequence_length > 1,
                        ..GssConfig::paper_default(width).with_fingerprint_bits(bits)
                    };
                    let h = NodeHasher::new(&config);
                    let range = h.hash_range();
                    let fingerprint_range = config.fingerprint_range();
                    let mut addresses = [0usize; MAX_SEQUENCE_LENGTH];
                    let mut pairs = [(0usize, 0usize); MAX_SEQUENCE_LENGTH];
                    for _ in 0..200 {
                        let vertex = walk(&mut state);
                        // hash_vertex ≡ mix % M, split ≡ (/F, %F).
                        let hash = h.hash_vertex(vertex);
                        let node = h.hashed_node(vertex);
                        assert_eq!(node.address as u64, hash / fingerprint_range);
                        assert_eq!(node.fingerprint as u64, hash % fingerprint_range);
                        assert!(hash < range);
                        // Address sequence ≡ (h + qᵢ) % m over the reference LCG; the basic
                        // version's is the node's own address.
                        let count = h.address_sequence_into(node, &mut addresses);
                        if config.square_hashing {
                            let mut q = (LCG_MULTIPLIER * (node.fingerprint as u64 % LCG_MODULUS)
                                + LCG_INCREMENT)
                                % LCG_MODULUS;
                            for &address in &addresses[..count] {
                                assert_eq!(
                                    address as u64,
                                    (node.address as u64 + q) % h.width,
                                    "width {width} bits {bits}"
                                );
                                q = (LCG_MULTIPLIER * q + LCG_INCREMENT) % LCG_MODULUS;
                            }
                        } else {
                            assert_eq!(&addresses[..count], [node.address]);
                        }
                        // Candidate pairs ≡ ((q/r) % r, q % r) over the reference LCG.
                        let other = h.hash_vertex(walk(&mut state)) % fingerprint_range;
                        let seed = node.fingerprint as u64 + other;
                        let r = sequence_length as u64;
                        let mut q =
                            (LCG_MULTIPLIER * (seed % LCG_MODULUS) + LCG_INCREMENT) % LCG_MODULUS;
                        let count = h.candidate_pairs_into(
                            node.fingerprint,
                            other as u16,
                            sequence_length,
                            &mut pairs,
                        );
                        for &(i, j) in &pairs[..count] {
                            assert_eq!((i as u64, j as u64), ((q / r) % r, q % r));
                            q = (LCG_MULTIPLIER * q + LCG_INCREMENT) % LCG_MODULUS;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reference_mix_reduction_agrees_for_the_paper_configurations() {
        // The exact end-to-end check the refactor must preserve: H(v) for the shipped
        // configurations equals the pre-refactor `mix(v) % M` value.
        for config in
            [GssConfig::paper_default(1000), GssConfig::paper_small(160), GssConfig::basic(64)]
        {
            let h = NodeHasher::new(&config);
            let mut state = 0xACCE_55EDu64;
            for _ in 0..5000 {
                let vertex = walk(&mut state);
                let mut z =
                    vertex.wrapping_add(config.hash_seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                assert_eq!(h.hash_vertex(vertex), z % h.hash_range());
            }
        }
    }
}
