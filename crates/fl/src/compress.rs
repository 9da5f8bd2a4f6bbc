//! Gradient compression codecs for the measured wire pipeline.
//!
//! ROADMAP item 2: comm accounting becomes *measured* truth. Every party
//! upload (and the server broadcast, through the dense arm) passes through
//! an [`UpdateCodec`]: the party side encodes, the server side decodes, and
//! [`crate::comm::RoundTraffic`] is filled from the actual payload lengths.
//!
//! Codecs and wire formats (all integers/floats little-endian, body only —
//! transport envelopes are the simulator's addressing fiction and are not
//! billed):
//!
//! | spec | body layout | bytes for `n` params |
//! |------|-------------|----------------------|
//! | `dense` | `n × f32` | `4n` (matches the historical formula exactly) |
//! | `topk[:f]` | `u32 k`, `k × u32` ascending indices, `k × f32` values | `4 + 8k` |
//! | `int8[:L]` | `f32 scale`, `n × i8` | `4 + n` |
//! | `topk8[:f[:L]]` | `u32 k`, `f32 scale`, `k × u32` indices, `k × i8` | `8 + 5k` |
//!
//! with `k = max(1, ceil(f·n))` — every encoded size is data-independent
//! ([`UpdateCodec::encoded_len`]), so in-transit-lost uploads can be billed
//! without the server ever seeing the payload.
//!
//! Lossy codecs carry per-party **error-feedback residuals** (memory
//! compensation): the party encodes `delta + residual` and keeps whatever
//! the wire dropped for the next round, so top-k converges instead of
//! starving small coordinates. QSGD-style int8 uses seeded *stochastic*
//! rounding — unbiased in expectation, deterministic per `(round, party)`
//! via [`SEED_COMPRESS_BASE`] and the engine's `derive_seed` scheme, and
//! bit-identical across SIMD arms and thread counts (the dither is a
//! counter-based integer hash, see `niid_tensor::simd`).

use crate::net::NetError;
use crate::wire::{put_len, put_u32, write_le, Cursor, Malformed};
use niid_tensor::simd::{self, Kernel};
use std::fmt;
use std::str::FromStr;

/// Seed domain for the stochastic-rounding dither. The engine derives
/// `derive_seed(cfg.seed, SEED_COMPRESS_BASE ^ cell)` with
/// `cell = (round << 24) ^ party`, mirroring the fault-plan domain, so the
/// dither never collides with sampling, init or fault draws.
pub const SEED_COMPRESS_BASE: u64 = 0xC0DE_0000_0000;

/// Default kept fraction for `topk` / `topk8` specs.
pub const DEFAULT_TOPK_FRACTION: f64 = 0.05;

/// Default quantization levels for `int8` / `topk8` specs. 128 levels use
/// the full signed-byte magnitude range `0..=127`.
pub const DEFAULT_INT8_LEVELS: u16 = 128;

/// How a party update is serialized for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum UpdateCodec {
    /// Raw f32 payload — reproduces the historical traffic formula.
    #[default]
    DenseF32,
    /// Keep the `fraction` largest-magnitude coordinates.
    TopK {
        /// Kept fraction, in `(0, 1]`.
        fraction: f64,
    },
    /// QSGD-style stochastic int8 quantization of every coordinate.
    Int8Q {
        /// Magnitude levels, in `2..=128`.
        levels: u16,
    },
    /// Top-k selection, then int8 quantization of the survivors.
    TopKInt8 {
        /// Kept fraction, in `(0, 1]`.
        fraction: f64,
        /// Magnitude levels, in `2..=128`.
        levels: u16,
    },
}

/// `k = max(1, ceil(fraction · n))`, clamped to `n`; 0 for an empty vector.
fn k_for(fraction: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (((n as f64) * fraction).ceil() as usize).clamp(1, n)
}

impl UpdateCodec {
    /// Metric/JSON label for the codec family (`{dir, encoding}` label
    /// values, bench row names). The full parameterization is
    /// [`Display`](fmt::Display).
    pub fn label(&self) -> &'static str {
        match self {
            UpdateCodec::DenseF32 => "dense",
            UpdateCodec::TopK { .. } => "topk",
            UpdateCodec::Int8Q { .. } => "int8",
            UpdateCodec::TopKInt8 { .. } => "topk8",
        }
    }

    /// Whether decode loses information relative to the input (everything
    /// except [`DenseF32`](UpdateCodec::DenseF32)); lossy codecs carry
    /// error-feedback residuals.
    pub fn is_lossy(&self) -> bool {
        !matches!(self, UpdateCodec::DenseF32)
    }

    /// Exact encoded body length for an `n`-element update. Deterministic
    /// and data-independent, so dropped uploads are billable without the
    /// payload.
    pub fn encoded_len(&self, n: usize) -> usize {
        match *self {
            UpdateCodec::DenseF32 => 4 * n,
            UpdateCodec::TopK { fraction } => 4 + 8 * k_for(fraction, n),
            UpdateCodec::Int8Q { .. } => 4 + n,
            UpdateCodec::TopKInt8 { fraction, .. } => 8 + 5 * k_for(fraction, n),
        }
    }

    /// Encode `delta` into a wire body. `seed` feeds the stochastic
    /// rounding dither (ignored by dense/topk).
    pub fn encode(&self, kern: Kernel, delta: &[f32], seed: u64) -> Vec<u8> {
        let _sp = niid_prof::span!("comm.encode");
        let n = delta.len();
        match *self {
            UpdateCodec::DenseF32 => {
                let mut buf = Vec::with_capacity(4 * n);
                write_le(&mut buf, delta);
                buf
            }
            UpdateCodec::TopK { fraction } => {
                let idx = simd::topk_select(kern, delta, k_for(fraction, n));
                let vals: Vec<f32> = idx.iter().map(|&i| delta[i as usize]).collect();
                let mut buf = Vec::with_capacity(4 + 8 * idx.len());
                put_len(&mut buf, idx.len());
                write_le(&mut buf, &idx);
                write_le(&mut buf, &vals);
                buf
            }
            UpdateCodec::Int8Q { levels } => {
                let mut qs = vec![0i8; n];
                let scale = simd::quantize_stochastic_i8(kern, delta, levels, seed, &mut qs);
                let mut buf = Vec::with_capacity(4 + n);
                put_u32(&mut buf, scale.to_bits());
                buf.extend(qs.iter().map(|&q| q as u8));
                buf
            }
            UpdateCodec::TopKInt8 { fraction, levels } => {
                let idx = simd::topk_select(kern, delta, k_for(fraction, n));
                let vals: Vec<f32> = idx.iter().map(|&i| delta[i as usize]).collect();
                let mut qs = vec![0i8; idx.len()];
                let scale = simd::quantize_stochastic_i8(kern, &vals, levels, seed, &mut qs);
                let mut buf = Vec::with_capacity(8 + 5 * idx.len());
                put_len(&mut buf, idx.len());
                put_u32(&mut buf, scale.to_bits());
                write_le(&mut buf, &idx);
                buf.extend(qs.iter().map(|&q| q as u8));
                buf
            }
        }
    }

    /// Decode a wire body for an `n`-element update through the crate's
    /// one byte cursor (`wire::Cursor`).
    ///
    /// Malformed or hostile input is a [`NetError::Malformed`] naming the
    /// failed check: a truncated payload, trailing garbage, an index count
    /// exceeding `n`, an index out of range or not strictly increasing, a
    /// non-finite or negative scale, or a quantized magnitude beyond
    /// `levels - 1`.
    pub fn decode(
        &self,
        kern: Kernel,
        payload: &[u8],
        n: usize,
    ) -> Result<DecodedUpdate, NetError> {
        let _sp = niid_prof::span!("comm.decode");
        let mut r = Cursor::new(payload);
        let decoded = match *self {
            UpdateCodec::DenseF32 => DecodedUpdate::Dense(r.f32s(n, "dense values")?),
            UpdateCodec::TopK { .. } => {
                let k = sparse_count(&mut r, n)?;
                let indices = sparse_indices(&mut r, k, n)?;
                let values = r.f32s(k, "top-k values")?;
                DecodedUpdate::Sparse { indices, values }
            }
            UpdateCodec::Int8Q { levels } => {
                let scale = quant_scale(&mut r)?;
                let qs = quant_values(&mut r, n, levels)?;
                let mut out = vec![0f32; n];
                simd::dequantize_i8(kern, &qs, scale, levels, &mut out);
                DecodedUpdate::Dense(out)
            }
            UpdateCodec::TopKInt8 { levels, .. } => {
                let k = sparse_count(&mut r, n)?;
                let scale = quant_scale(&mut r)?;
                let indices = sparse_indices(&mut r, k, n)?;
                let qs = quant_values(&mut r, k, levels)?;
                let mut values = vec![0f32; k];
                simd::dequantize_i8(kern, &qs, scale, levels, &mut values);
                DecodedUpdate::Sparse { indices, values }
            }
        };
        r.finish("the update payload")?;
        Ok(decoded)
    }

    /// Party-side encode with error feedback; returns the payload.
    ///
    /// For lossy codecs the wire carries `delta + residual` and the
    /// residual is replaced by what the wire dropped (the compensated
    /// vector minus the decoded reconstruction); dense codecs bypass the
    /// residual entirely (it stays empty) and decode nothing.
    pub fn encode_with_feedback(
        &self,
        kern: Kernel,
        delta: &[f32],
        residual: &mut Vec<f32>,
        seed: u64,
    ) -> Vec<u8> {
        if !self.is_lossy() {
            return self.encode(kern, delta, seed);
        }
        if residual.is_empty() {
            residual.resize(delta.len(), 0.0);
        }
        assert_eq!(residual.len(), delta.len(), "residual length drifted");
        for (r, d) in residual.iter_mut().zip(delta) {
            *r += d;
        }
        let payload = self.encode(kern, residual, seed);
        self.decode(kern, &payload, residual.len())
            .expect("self-encoded payload decodes")
            .subtract_from(residual);
        payload
    }

    /// The parameter ranges every codec must satisfy — `fraction` in
    /// `(0, 1]`, `levels` in `2..=128` — checked by the spec parser and by
    /// [`FedSim`](crate::engine::FedSim) for hand-built codecs alike.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            UpdateCodec::TopK { fraction } | UpdateCodec::TopKInt8 { fraction, .. }
                if !(fraction > 0.0 && fraction <= 1.0) =>
            {
                Err(format!("top-k fraction must be in (0, 1], got {fraction}"))
            }
            UpdateCodec::Int8Q { levels } | UpdateCodec::TopKInt8 { levels, .. }
                if !(2..=128).contains(&levels) =>
            {
                Err(format!(
                    "quantization levels must be in 2..=128, got {levels}"
                ))
            }
            _ => Ok(()),
        }
    }
}

impl fmt::Display for UpdateCodec {
    /// Round-trippable spec string (`topk:0.05`, `int8:128`, ...).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            UpdateCodec::DenseF32 => write!(f, "dense"),
            UpdateCodec::TopK { fraction } => write!(f, "topk:{fraction}"),
            UpdateCodec::Int8Q { levels } => write!(f, "int8:{levels}"),
            UpdateCodec::TopKInt8 { fraction, levels } => write!(f, "topk8:{fraction}:{levels}"),
        }
    }
}

impl FromStr for UpdateCodec {
    type Err = String;

    /// Parse a codec spec: `dense`, `topk[:fraction]`, `int8[:levels]`,
    /// `topk8[:fraction[:levels]]` (defaults 0.05 / 128).
    fn from_str(s: &str) -> Result<Self, String> {
        let bad = |m: &str| format!("bad codec spec {s:?}: {m}");
        let mut it = s.split(':');
        let head = it.next().unwrap_or("");
        let a = it.next();
        let b = it.next();
        if it.next().is_some() {
            return Err(bad("too many ':' fields"));
        }
        let fraction = |v: Option<&str>| match v {
            None => Ok(DEFAULT_TOPK_FRACTION),
            Some(v) => v.parse().map_err(|_| bad("fraction is not a number")),
        };
        let levels = |v: Option<&str>| match v {
            None => Ok(DEFAULT_INT8_LEVELS),
            Some(v) => v.parse().map_err(|_| bad("levels is not an integer")),
        };
        let codec = match (head, a, b) {
            ("dense", None, None) => UpdateCodec::DenseF32,
            ("topk", f, None) => UpdateCodec::TopK {
                fraction: fraction(f)?,
            },
            ("int8", l, None) => UpdateCodec::Int8Q { levels: levels(l)? },
            ("topk8", f, l) => UpdateCodec::TopKInt8 {
                fraction: fraction(f)?,
                levels: levels(l)?,
            },
            _ => {
                return Err(bad(
                    "expected dense | topk[:f] | int8[:levels] | topk8[:f[:levels]]",
                ))
            }
        };
        codec.validate().map_err(|m| bad(&m))?;
        Ok(codec)
    }
}

/// Server-side reconstruction of one update.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedUpdate {
    /// Every coordinate present.
    Dense(Vec<f32>),
    /// Surviving coordinates only; `indices` strictly increasing, same
    /// length as `values`.
    Sparse {
        /// Coordinate positions, ascending, all `< n`.
        indices: Vec<u32>,
        /// Reconstructed values at those positions.
        values: Vec<f32>,
    },
}

impl DecodedUpdate {
    /// Subtract the reconstructed entries from `residual` in place. With
    /// `residual` holding the compensated vector, this leaves exactly what
    /// the wire failed to deliver — the next round's memory.
    pub fn subtract_from(&self, residual: &mut [f32]) {
        match self {
            DecodedUpdate::Dense(v) => {
                debug_assert_eq!(v.len(), residual.len());
                for (r, &d) in residual.iter_mut().zip(v) {
                    *r -= d;
                }
            }
            DecodedUpdate::Sparse { indices, values } => {
                for (&i, &v) in indices.iter().zip(values) {
                    residual[i as usize] -= v;
                }
            }
        }
    }
}

/// A sparse payload's leading element count; at most `n`.
fn sparse_count(r: &mut Cursor<'_>, n: usize) -> Result<usize, Malformed> {
    let k = r.u32("sparse count")? as usize;
    if k > n {
        return Err(Malformed(format!(
            "sparse count {k} exceeds the {n} coordinates"
        )));
    }
    Ok(k)
}

/// `k` indices, strictly increasing (hence unique) and in range — the
/// sparse aggregation merge relies on sortedness.
fn sparse_indices(r: &mut Cursor<'_>, k: usize, n: usize) -> Result<Vec<u32>, Malformed> {
    let indices = r.u32s(k, "sparse indices")?;
    // The smallest index allowed next: one past the previous one.
    let mut next = 0;
    for &i in &indices {
        let i = i as usize;
        if i < next || i >= n {
            return Err(Malformed(if i >= n {
                format!("sparse index {i} out of range for {n} coordinates")
            } else {
                format!(
                    "sparse index {i} after {}: indices must strictly increase",
                    next - 1
                )
            }));
        }
        next = i + 1;
    }
    Ok(indices)
}

/// The quantization scale: finite and non-negative.
fn quant_scale(r: &mut Cursor<'_>) -> Result<f32, Malformed> {
    let scale = r.f32("quantization scale")?;
    if scale.is_finite() && scale >= 0.0 {
        Ok(scale)
    } else {
        Err(Malformed(format!(
            "quantization scale {scale} is not finite and non-negative"
        )))
    }
}

/// `len` quantized values whose magnitudes fit the declared level count —
/// a hostile `q = 127` with `levels = 16` would reconstruct far beyond the
/// scale.
fn quant_values(r: &mut Cursor<'_>, len: usize, levels: u16) -> Result<Vec<i8>, Malformed> {
    let qs: Vec<i8> = r
        .take(len, "quantized values")?
        .iter()
        .map(|&b| b as i8)
        .collect();
    let qmax = u32::from(levels) - 1;
    if qs.iter().all(|q| u32::from(q.unsigned_abs()) <= qmax) {
        return Ok(qs);
    }
    let worst = qs.iter().map(|q| q.unsigned_abs()).max().unwrap_or(0);
    Err(Malformed(format!(
        "quantized magnitude {worst} exceeds levels - 1 = {qmax}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_stats::Pcg64;

    fn kern() -> Kernel {
        simd::active_kernel()
    }

    fn random_delta(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Pcg64::new(seed);
        (0..n)
            .map(|_| (rng.next_f64() as f32) * 2.0 - 1.0)
            .collect()
    }

    #[test]
    fn spec_strings_parse_and_round_trip() {
        let cases = [
            ("dense", UpdateCodec::DenseF32),
            ("topk", UpdateCodec::TopK { fraction: 0.05 }),
            ("topk:0.01", UpdateCodec::TopK { fraction: 0.01 }),
            ("topk:1", UpdateCodec::TopK { fraction: 1.0 }),
            ("int8", UpdateCodec::Int8Q { levels: 128 }),
            ("int8:16", UpdateCodec::Int8Q { levels: 16 }),
            (
                "topk8",
                UpdateCodec::TopKInt8 {
                    fraction: 0.05,
                    levels: 128,
                },
            ),
            (
                "topk8:0.1",
                UpdateCodec::TopKInt8 {
                    fraction: 0.1,
                    levels: 128,
                },
            ),
            (
                "topk8:0.1:64",
                UpdateCodec::TopKInt8 {
                    fraction: 0.1,
                    levels: 64,
                },
            ),
        ];
        for (spec, want) in cases {
            let got: UpdateCodec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(got, want, "{spec}");
            // Display must round-trip through the parser.
            let redisplayed: UpdateCodec = got.to_string().parse().unwrap();
            assert_eq!(redisplayed, got, "{spec} via {got}");
        }
        for bad in [
            "",
            "gzip",
            "dense:1",
            "topk:0",
            "topk:1.5",
            "topk:-0.1",
            "topk:x",
            "topk:0.1:2",
            "int8:1",
            "int8:129",
            "int8:abc",
            "int8:16:2",
            "topk8:0.1:1",
            "topk8:0.1:129",
            "topk8:0.1:64:9",
            "topk:",
        ] {
            assert!(bad.parse::<UpdateCodec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn encoded_len_matches_actual_payload_for_every_codec() {
        let codecs = [
            UpdateCodec::DenseF32,
            UpdateCodec::TopK { fraction: 0.05 },
            UpdateCodec::TopK { fraction: 1.0 },
            UpdateCodec::Int8Q { levels: 128 },
            UpdateCodec::TopKInt8 {
                fraction: 0.25,
                levels: 16,
            },
        ];
        for n in [0usize, 1, 7, 1000] {
            let delta = random_delta(n, 0xBEEF + n as u64);
            for codec in codecs {
                let payload = codec.encode(kern(), &delta, 42);
                assert_eq!(
                    payload.len(),
                    codec.encoded_len(n),
                    "{codec} at n={n}: encoded_len must be exact"
                );
            }
        }
        // DenseF32 must reproduce the historical 4·n formula exactly.
        assert_eq!(
            UpdateCodec::DenseF32.encoded_len(12345),
            crate::comm::f32_payload_bytes(12345)
        );
    }

    #[test]
    fn dense_round_trip_is_bit_exact() {
        let delta = vec![1.5f32, -0.0, f32::NAN, f32::MIN_POSITIVE / 2.0, f32::MAX];
        let codec = UpdateCodec::DenseF32;
        let payload = codec.encode(kern(), &delta, 0);
        let DecodedUpdate::Dense(back) = codec.decode(kern(), &payload, delta.len()).unwrap()
        else {
            panic!("dense decodes dense")
        };
        for (a, b) in back.iter().zip(&delta) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn topk_keeps_the_largest_magnitudes_exactly() {
        let delta = random_delta(500, 7);
        let codec = UpdateCodec::TopK { fraction: 0.1 };
        let payload = codec.encode(kern(), &delta, 0);
        let DecodedUpdate::Sparse { indices, values } =
            codec.decode(kern(), &payload, delta.len()).unwrap()
        else {
            panic!("topk decodes sparse")
        };
        assert_eq!(indices.len(), 50);
        assert!(indices.windows(2).all(|w| w[0] < w[1]), "ascending indices");
        // Values are carried verbatim, and the kept set dominates the rest.
        let kept_min = indices
            .iter()
            .zip(&values)
            .map(|(&i, &v)| {
                assert_eq!(v.to_bits(), delta[i as usize].to_bits());
                v.abs()
            })
            .fold(f32::INFINITY, f32::min);
        for (i, &v) in delta.iter().enumerate() {
            if !indices.contains(&(i as u32)) {
                assert!(v.abs() <= kept_min, "dropped {v} beats kept min {kept_min}");
            }
        }
    }

    #[test]
    fn int8_round_trip_error_is_within_one_step() {
        let delta = random_delta(300, 11);
        for levels in [2u16, 16, 128] {
            let codec = UpdateCodec::Int8Q { levels };
            let payload = codec.encode(kern(), &delta, 99);
            let DecodedUpdate::Dense(back) = codec.decode(kern(), &payload, delta.len()).unwrap()
            else {
                panic!("int8 decodes dense")
            };
            let scale = f32::from_le_bytes(payload[0..4].try_into().unwrap());
            let step = scale / f32::from(levels - 1);
            for (a, b) in back.iter().zip(&delta) {
                assert!(
                    (a - b).abs() <= step * 1.0001,
                    "levels={levels}: {a} vs {b}"
                );
                assert!(a * b >= 0.0, "sign flipped: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quantization_is_seeded() {
        let delta = random_delta(2048, 13);
        let codec = UpdateCodec::Int8Q { levels: 128 };
        let a = codec.encode(kern(), &delta, 1);
        let b = codec.encode(kern(), &delta, 1);
        let c = codec.encode(kern(), &delta, 2);
        assert_eq!(a, b, "same seed, same bytes");
        assert_ne!(a, c, "different dither seed must change some rounding");
    }

    #[test]
    fn decode_rejects_truncated_and_hostile_sparse_payloads() {
        let n = 64;
        let delta = random_delta(n, 17);
        // Every rejection is a typed `Malformed` naming the failed check.
        let reason = |codec: UpdateCodec, bytes: &[u8]| match codec.decode(kern(), bytes, n) {
            Err(NetError::Malformed(why)) => why,
            other => panic!("{codec}: expected a malformed-payload error, got {other:?}"),
        };
        for codec in [
            UpdateCodec::TopK { fraction: 0.25 },
            UpdateCodec::Int8Q { levels: 128 },
            UpdateCodec::TopKInt8 {
                fraction: 0.25,
                levels: 128,
            },
        ] {
            let payload = codec.encode(kern(), &delta, 5);
            // Every strict prefix must be rejected, as must trailing garbage.
            for cut in 0..payload.len() {
                let why = reason(codec, &payload[..cut]);
                assert!(why.contains("truncated"), "{codec}: prefix {cut}: {why}");
            }
            let mut long = payload.clone();
            long.push(0);
            let why = reason(codec, &long);
            assert!(why.contains("1 trailing bytes"), "{codec}: garbage: {why}");
        }

        let topk = UpdateCodec::TopK { fraction: 0.25 };
        let good = topk.encode(kern(), &delta, 0);

        // Count beyond n (with a matching body length to isolate the check).
        let mut big = Vec::new();
        big.extend_from_slice(&(n as u32 + 1).to_le_bytes());
        big.resize(4 + 8 * (n + 1), 0);
        let why = reason(topk, &big);
        assert!(why.contains("sparse count 65 exceeds"), "k > n: {why}");

        // Count inconsistent with the body.
        let mut short_count = good.clone();
        short_count[0..4].copy_from_slice(&2u32.to_le_bytes());
        assert!(reason(topk, &short_count).contains("trailing"));

        // Out-of-range index.
        let mut oob = good.clone();
        oob[4..8].copy_from_slice(&(n as u32).to_le_bytes());
        let why = reason(topk, &oob);
        assert!(why.contains("index 64 out of range"), "index == n: {why}");

        // Duplicate / non-increasing indices.
        let k = u32::from_le_bytes(good[0..4].try_into().unwrap()) as usize;
        assert!(k >= 2);
        let mut dup = good.clone();
        let first = dup[4..8].to_vec();
        dup[8..12].copy_from_slice(&first);
        let why = reason(topk, &dup);
        assert!(why.contains("must strictly increase"), "duplicate: {why}");

        // Hostile scale and inflated magnitudes on the quantized codecs.
        let int8 = UpdateCodec::Int8Q { levels: 16 };
        let qgood = int8.encode(kern(), &delta, 0);
        for bad_scale in [f32::NAN, f32::INFINITY, -1.0f32] {
            let mut bs = qgood.clone();
            bs[0..4].copy_from_slice(&bad_scale.to_le_bytes());
            let why = reason(int8, &bs);
            assert!(why.contains("quantization scale"), "{bad_scale}: {why}");
        }
        let mut inflated = qgood.clone();
        inflated[4] = 127u8; // |q| = 127 > levels - 1 = 15
        let why = reason(int8, &inflated);
        assert!(why.contains("magnitude 127 exceeds"), "{why}");
        let mut neg = qgood;
        neg[4] = 0x80; // q = -128 is never emitted at any level count
        let why = reason(int8, &neg);
        assert!(why.contains("magnitude 128 exceeds"), "q = -128: {why}");
    }

    #[test]
    fn error_feedback_transmits_every_coordinate_eventually() {
        let n = 100;
        let delta: Vec<f32> = (0..n).map(|i| 0.01 + i as f32 * 0.003).collect();
        let codec = UpdateCodec::TopK { fraction: 0.1 };
        let mut residual = Vec::new();
        let mut cumulative = vec![0f64; n];
        let mut seen = vec![false; n];
        // Steady state transmits Σdelta per round across k slots, so the
        // smallest coordinate (0.01) needs ≈ Σdelta / (k·0.01) ≈ 160 rounds
        // to clear the threshold; 400 gives every coordinate headroom.
        let rounds = 400;
        for r in 0..rounds {
            let payload = codec.encode_with_feedback(kern(), &delta, &mut residual, r);
            let DecodedUpdate::Sparse { indices, values } =
                codec.decode(kern(), &payload, n).unwrap()
            else {
                panic!("topk is sparse")
            };
            for (&i, &v) in indices.iter().zip(&values) {
                seen[i as usize] = true;
                cumulative[i as usize] += f64::from(v);
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "starved coordinate without EF memory"
        );
        // Memory compensation: cumulative delivered mass tracks the true
        // cumulative update to within one round's worth per coordinate.
        for i in 0..n {
            let want = f64::from(delta[i]) * rounds as f64;
            let lag = f64::from(residual[i]);
            assert!(
                (want - cumulative[i] - lag).abs() < 1e-2,
                "coordinate {i}: {want} vs {} + residual {lag}",
                cumulative[i]
            );
        }
        // Without the residual, plain re-encoding starves the small half.
        let plain = codec.encode(kern(), &delta, 0);
        let DecodedUpdate::Sparse { indices, .. } = codec.decode(kern(), &plain, n).unwrap() else {
            panic!()
        };
        assert!(indices.iter().all(|&i| i as usize >= n - 10));
    }

    #[test]
    fn dense_feedback_path_is_lossless_and_keeps_no_residual() {
        let delta = random_delta(50, 23);
        let mut residual = Vec::new();
        let codec = UpdateCodec::DenseF32;
        let payload = codec.encode_with_feedback(kern(), &delta, &mut residual, 0);
        assert!(
            residual.is_empty(),
            "dense codec must not grow residual state"
        );
        assert_eq!(payload.len(), 4 * delta.len());
        let decoded = codec.decode(kern(), &payload, delta.len()).unwrap();
        assert_eq!(decoded, DecodedUpdate::Dense(delta));
    }

    #[test]
    fn densify_and_subtract_agree() {
        let delta = random_delta(80, 29);
        let codec = UpdateCodec::TopKInt8 {
            fraction: 0.2,
            levels: 64,
        };
        let payload = codec.encode(kern(), &delta, 3);
        let decoded = codec.decode(kern(), &payload, delta.len()).unwrap();
        let DecodedUpdate::Sparse { indices, values } = &decoded else {
            panic!("topk8 decodes sparse")
        };
        let mut dense = vec![0f32; delta.len()];
        for (&i, &v) in indices.iter().zip(values) {
            dense[i as usize] = v;
        }
        let mut probe = vec![0f32; delta.len()];
        decoded.subtract_from(&mut probe);
        for (d, p) in dense.iter().zip(&probe) {
            assert_eq!(*d, -p, "densify and subtract_from disagree");
        }
    }
}
