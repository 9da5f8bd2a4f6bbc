//! Deterministic random number generation.
//!
//! All stochastic behaviour in the workspace flows through [`Pcg64`], a
//! hand-implemented PCG-XSH-RR 64/32 generator wrapped to produce 64-bit
//! outputs, plus a [`SeedStream`] that derives independent child seeds with
//! SplitMix64. Implementing the generator ourselves (with no dependency on
//! the `rand` crate) pins the bit stream permanently, so experiment results
//! recorded in EXPERIMENTS.md stay reproducible across toolchains.

/// SplitMix64 step: the standard 64-bit mixer used to expand one seed into a
/// stream of well-distributed values.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a parent seed and a domain-separation label.
///
/// Used to give each component (partitioner, dataset generator, each party's
/// batch shuffler, the server's client sampler, ...) an independent stream
/// from one experiment seed.
#[inline]
pub fn derive_seed(parent: u64, label: u64) -> u64 {
    let mut s = parent ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
    // Two mixer rounds separate even adjacent labels thoroughly.
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(32)
}

/// A stream of derived seeds, handy when spawning many parties or trials.
#[derive(Debug, Clone)]
pub struct SeedStream {
    parent: u64,
    next_label: u64,
}

impl SeedStream {
    /// Create a stream rooted at `parent`.
    pub fn new(parent: u64) -> Self {
        Self {
            parent,
            next_label: 0,
        }
    }

    /// Produce the next child seed.
    pub fn next_seed(&mut self) -> u64 {
        let s = derive_seed(self.parent, self.next_label);
        self.next_label += 1;
        s
    }

    /// Produce the child seed for a fixed label without advancing the stream.
    pub fn labeled(&self, label: u64) -> u64 {
        derive_seed(self.parent, label)
    }
}

/// PCG-XSH-RR 64/32 with fixed default stream, widened to 64-bit output by
/// concatenating two 32-bit draws.
///
/// Small state (16 bytes), excellent statistical quality for simulation
/// workloads, and trivially portable.
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

impl Pcg64 {
    /// Seed the generator. The seed is pre-mixed with SplitMix64 so that
    /// small consecutive seeds (0, 1, 2, ...) still produce uncorrelated
    /// streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm) | 1; // increment must be odd
        let mut rng = Self { state: 0, inc: s1 };
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add(s0);
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng
    }

    /// Next uniform 32-bit draw (one raw PCG output).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        self.next_u32_impl()
    }

    /// Next uniform 64-bit draw (two concatenated 32-bit outputs).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32_impl() as u64;
        let lo = self.next_u32_impl() as u64;
        (hi << 32) | lo
    }

    /// Fill `dest` with uniform random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Jump the generator `delta` raw 32-bit draws ahead in `O(log δ)`
    /// time: afterwards it is in exactly the state `delta` calls to
    /// [`next_u32`](Self::next_u32) would have left it in.
    ///
    /// Brown's arbitrary-stride LCG jump ("Random Number Generation with
    /// Arbitrary Strides", Trans. Am. Nucl. Soc., 1994), as in O'Neill's
    /// reference `pcg_advance_lcg_64`: the state map `s ↦ a·s + c` is
    /// composed with itself by repeated squaring, `(a, c) ↦ (a², (a + 1)·c)`,
    /// and the powers picked out by the bits of `delta` are accumulated.
    /// The period is 2⁶⁴, so `delta` wraps: `advance(a)` then `advance(b)`
    /// equals `advance(a.wrapping_add(b))`.
    pub fn advance(&mut self, delta: u64) {
        let (mut acc_mult, mut acc_plus) = (1u64, 0u64);
        let (mut cur_mult, mut cur_plus) = (PCG_MULT, self.inc);
        let mut delta = delta;
        while delta > 0 {
            if delta & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(cur_mult);
                acc_plus = acc_plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
            }
            cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            delta >>= 1;
        }
        self.state = acc_mult.wrapping_mul(self.state).wrapping_add(acc_plus);
    }

    #[inline]
    fn next_u32_impl(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f32 in [0, 1).
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32_impl() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift method
    /// with rejection to remove modulo bias.
    #[inline]
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_below: bound must be positive");
        let bound = bound as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as usize;
            }
            // Rejection zone: accept unless low < 2^64 mod bound.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k={k} exceeds n={n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.next_below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// [`sample_indices`](Self::sample_indices) in `O(k)` time and space.
    ///
    /// Runs the same partial Fisher–Yates walk but stores only the pool
    /// entries the swaps have displaced (a hash map instead of the full
    /// `0..n` vector), so sampling a small cohort out of a million parties
    /// never touches the other 999k. Consumes the identical
    /// [`next_below`](Self::next_below) draw sequence, so the picks are
    /// bit-for-bit the ones `sample_indices` returns from the same
    /// generator state (replay-tested below).
    pub fn sample_indices_sparse(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices_sparse: k={k} exceeds n={n}");
        use std::collections::HashMap;
        // Virtual pool: pool[x] == displaced[x] where present, else x.
        let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(2 * k);
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = i + self.next_below(n - i);
            let vi = displaced.get(&i).copied().unwrap_or(i);
            let vj = displaced.get(&j).copied().unwrap_or(j);
            // pool.swap(i, j); position i is never revisited, so its value
            // is final and goes straight to the output.
            displaced.insert(j, vi);
            out.push(vj);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = Pcg64::new(42);
        let mut b = Pcg64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg64::new(1);
        let mut b = Pcg64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent seeds should not collide");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Pcg64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_near_half() {
        let mut rng = Pcg64::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn next_below_covers_range_uniformly() {
        let mut rng = Pcg64::new(3);
        let bound = 10;
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.next_below(bound)] += 1;
        }
        let expected = n / bound;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.1,
                "bucket {i} count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Pcg64::new(0).next_below(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg64::new(5);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Pcg64::new(9);
        let picked = rng.sample_indices(50, 20);
        assert_eq!(picked.len(), 20);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 20);
        assert!(picked.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_full_is_permutation() {
        let mut rng = Pcg64::new(13);
        let mut picked = rng.sample_indices(10, 10);
        picked.sort_unstable();
        assert_eq!(picked, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_sampling_replays_dense_picks_bit_for_bit() {
        // The engine switched to the sparse sampler; this replay pin is
        // what guarantees existing record streams did not move.
        for (n, k) in [
            (1usize, 0usize),
            (1, 1),
            (2, 1),
            (10, 3),
            (57, 57),
            (100, 1),
            (100, 99),
            (1000, 100),
            (4096, 64),
        ] {
            for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
                let dense = Pcg64::new(seed).sample_indices(n, k);
                let sparse = Pcg64::new(seed).sample_indices_sparse(n, k);
                assert_eq!(dense, sparse, "n={n} k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn sparse_sampling_leaves_generator_in_identical_state() {
        let mut a = Pcg64::new(77);
        let mut b = Pcg64::new(77);
        a.sample_indices(500, 20);
        b.sample_indices_sparse(500, 20);
        assert_eq!(a.next_u64(), b.next_u64(), "draw counts diverged");
    }

    #[test]
    fn sparse_sampling_is_distinct_and_in_range_at_scale() {
        let mut rng = Pcg64::new(31);
        let picked = rng.sample_indices_sparse(1_000_000, 1000);
        assert_eq!(picked.len(), 1000);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 1000, "sparse sample repeated an index");
        assert!(picked.iter().all(|&i| i < 1_000_000));
    }

    #[test]
    fn advance_matches_stepping_draw_by_draw() {
        for seed in [0u64, 42, 0xDEAD_BEEF] {
            for k in [0u64, 1, 2, 3, 274, 65_537, 1_000_003] {
                let mut stepped = Pcg64::new(seed);
                for _ in 0..k {
                    stepped.next_u32();
                }
                let mut jumped = Pcg64::new(seed);
                jumped.advance(k);
                assert_eq!(jumped.state, stepped.state, "seed={seed} k={k}");
                assert_eq!(jumped.next_u64(), stepped.next_u64(), "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn advance_composes_across_wrap_around() {
        let half = 1u64 << 63;
        for (a, b) in [
            (half, half),
            (half - 1, half + 3),
            (half + 12_345, half - 1),
            (u64::MAX, 1),
            (u64::MAX, u64::MAX),
        ] {
            let mut split = Pcg64::new(9);
            split.advance(a);
            split.advance(b);
            let mut whole = Pcg64::new(9);
            whole.advance(a.wrapping_add(b));
            assert_eq!(split.state, whole.state, "a={a} b={b}");
        }
        // A full period is the identity.
        let mut full = Pcg64::new(10);
        let before = full.state;
        full.advance(half);
        full.advance(half);
        assert_eq!(full.state, before);
    }

    #[test]
    fn derive_seed_label_separation() {
        let s = 0xDEAD_BEEF;
        let a = derive_seed(s, 0);
        let b = derive_seed(s, 1);
        assert_ne!(a, b);
        // And streams from the derived seeds differ.
        let mut ra = Pcg64::new(a);
        let mut rb = Pcg64::new(b);
        assert_ne!(ra.next_u64(), rb.next_u64());
    }

    #[test]
    fn seed_stream_is_deterministic() {
        let mut s1 = SeedStream::new(77);
        let mut s2 = SeedStream::new(77);
        for _ in 0..16 {
            assert_eq!(s1.next_seed(), s2.next_seed());
        }
        assert_eq!(s1.labeled(3), s2.labeled(3));
    }

    #[test]
    fn fill_bytes_handles_unaligned_lengths() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17] {
            let mut rng = Pcg64::new(21);
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} produced all zeros");
            }
        }
    }
}
