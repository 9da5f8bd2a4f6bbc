//! Communication accounting.
//!
//! §3.3 observes that "SCAFFOLD doubles the communication size per round
//! due to the additional control variates". The engine tracks exact byte
//! counts per round so that the claim is measurable, and provides the
//! payload serialization used by the `comm` bench.

/// Bytes needed to ship `n` f32 values.
pub const fn f32_payload_bytes(n: usize) -> usize {
    n * std::mem::size_of::<f32>()
}

/// Per-round communication volume between the server and the sampled
/// parties, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTraffic {
    /// Server → parties (model broadcast, plus `c` for SCAFFOLD).
    pub down_bytes: usize,
    /// Parties → server (updates, plus `Δc` for SCAFFOLD).
    pub up_bytes: usize,
}

impl RoundTraffic {
    /// Traffic computed from the exchanged vector sizes: `param_len`
    /// trainable parameters and `buffer_len` BatchNorm buffers shipped both
    /// ways, plus SCAFFOLD's `c` down and `Δc` up under
    /// `with_control_variates`. The engine bills from encoded payload
    /// lengths instead; this formula is the oracle its dense billing is
    /// tested against.
    ///
    /// The broadcast went to every selected party (the server cannot know
    /// who will fail), and uploads are billed by what actually hit the
    /// wire:
    ///
    /// * `survivors` — parties whose update arrived and aggregated,
    /// * `dropped` — parties whose update was **sent but lost in
    ///   transit** ([`crate::fault::FailureKind::InjectedDrop`]): the
    ///   upload bytes were spent even though the server never saw them,
    /// * crashed/panicked parties (`selected - survivors - dropped`)
    ///   never produced an update, so they upload nothing.
    pub fn for_round_faulted(
        selected: usize,
        survivors: usize,
        dropped: usize,
        param_len: usize,
        buffer_len: usize,
        with_control_variates: bool,
    ) -> Self {
        debug_assert!(
            survivors + dropped <= selected,
            "more uploads than selected parties"
        );
        let per_model = f32_payload_bytes(param_len + buffer_len);
        let per_cv = if with_control_variates {
            f32_payload_bytes(param_len)
        } else {
            0
        };
        RoundTraffic {
            down_bytes: selected * (per_model + per_cv),
            up_bytes: (survivors + dropped) * (per_model + per_cv),
        }
    }

    /// Total bytes both directions.
    pub fn total(&self) -> usize {
        self.down_bytes + self.up_bytes
    }
}

/// Append `xs` to `buf` as little-endian `f32` bytes.
///
/// On little-endian targets the in-memory representation *is* the wire
/// format, so the whole slice lands in one bulk copy instead of a
/// per-element `extend_from_slice` loop; big-endian targets fall back to
/// the portable per-element swap.
pub fn write_f32_le(buf: &mut Vec<u8>, xs: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        // Safety: any f32 bit pattern is a valid byte sequence and u8 has
        // alignment 1, so viewing the slice as raw bytes is always sound.
        let bytes = unsafe {
            std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs))
        };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &v in xs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append `xs` to `buf` as little-endian `u32` bytes (bulk copy on
/// little-endian, portable fallback elsewhere).
pub fn write_u32_le(buf: &mut Vec<u8>, xs: &[u32]) {
    #[cfg(target_endian = "little")]
    {
        // Safety: as in `write_f32_le`.
        let bytes = unsafe {
            std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs))
        };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &v in xs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian `f32` bytes. `bytes.len()` must be a multiple of 4
/// (callers validate payload lengths before handing bytes over).
pub fn read_f32_le(bytes: &[u8]) -> Vec<f32> {
    let n = bytes.len() / 4;
    debug_assert_eq!(bytes.len(), 4 * n, "byte count not a multiple of 4");
    #[cfg(target_endian = "little")]
    {
        let mut out = vec![0f32; n];
        // Safety: `out` owns 4·n writable bytes and the ranges cannot
        // overlap; bit patterns are preserved exactly.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), 4 * n);
        }
        out
    }
    #[cfg(not(target_endian = "little"))]
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect()
}

/// Decode little-endian `u32` bytes (same contract as [`read_f32_le`]).
pub fn read_u32_le(bytes: &[u8]) -> Vec<u32> {
    let n = bytes.len() / 4;
    debug_assert_eq!(bytes.len(), 4 * n, "byte count not a multiple of 4");
    #[cfg(target_endian = "little")]
    {
        let mut out = vec![0u32; n];
        // Safety: as in `read_f32_le`.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), 4 * n);
        }
        out
    }
    #[cfg(not(target_endian = "little"))]
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect()
}

/// Serialize a flat update into a length-prefixed wire payload (used by the
/// serialization bench; the in-process simulator skips this on the hot
/// path).
pub fn encode_update(party_id: u32, tau: u32, delta: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + 4 * delta.len());
    buf.extend_from_slice(&party_id.to_le_bytes());
    buf.extend_from_slice(&tau.to_le_bytes());
    buf.extend_from_slice(&(delta.len() as u32).to_le_bytes());
    write_f32_le(&mut buf, delta);
    buf
}

/// Decode a payload produced by [`encode_update`].
///
/// Returns `None` on malformed input (truncated or inconsistent lengths).
pub fn decode_update(payload: &[u8]) -> Option<(u32, u32, Vec<f32>)> {
    if payload.len() < 12 {
        return None;
    }
    let party_id = u32::from_le_bytes(payload[0..4].try_into().ok()?);
    let tau = u32::from_le_bytes(payload[4..8].try_into().ok()?);
    let len = u32::from_le_bytes(payload[8..12].try_into().ok()?) as usize;
    let body = &payload[12..];
    // checked_mul: a hostile length prefix near u32::MAX must fail the
    // consistency check, not overflow the byte count (usize may be 32-bit).
    if Some(body.len()) != len.checked_mul(4) {
        return None;
    }
    Some((party_id, tau, read_f32_le(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaffold_doubles_traffic_for_buffer_free_models() {
        let plain = RoundTraffic::for_round_faulted(10, 10, 0, 1000, 0, false);
        let scaffold = RoundTraffic::for_round_faulted(10, 10, 0, 1000, 0, true);
        assert_eq!(scaffold.total(), 2 * plain.total());
    }

    #[test]
    fn traffic_scales_with_participants() {
        let a = RoundTraffic::for_round_faulted(5, 5, 0, 100, 0, false);
        let b = RoundTraffic::for_round_faulted(10, 10, 0, 100, 0, false);
        assert_eq!(2 * a.down_bytes, b.down_bytes);
    }

    #[test]
    fn buffers_count_toward_traffic() {
        let without = RoundTraffic::for_round_faulted(1, 1, 0, 100, 0, false);
        let with = RoundTraffic::for_round_faulted(1, 1, 0, 100, 20, false);
        assert_eq!(with.total() - without.total(), 2 * f32_payload_bytes(20));
    }

    #[test]
    fn degraded_round_halves_only_the_upload() {
        let clean = RoundTraffic::for_round_faulted(10, 10, 0, 1000, 8, false);
        let degraded = RoundTraffic::for_round_faulted(10, 5, 0, 1000, 8, false);
        assert_eq!(degraded.down_bytes, clean.down_bytes, "broadcast unchanged");
        assert_eq!(2 * degraded.up_bytes, clean.up_bytes);
        // No survivors at all: the broadcast still happened.
        let dead = RoundTraffic::for_round_faulted(10, 0, 0, 1000, 8, true);
        assert_eq!(dead.up_bytes, 0);
        assert!(dead.down_bytes > 0);
    }

    #[test]
    fn dropped_uploads_are_billed_crashed_are_not() {
        // 10 selected: 6 aggregated, 3 dropped in transit, 1 crashed.
        // The 3 dropped updates were sent — their bytes count — while the
        // crashed party never produced one.
        let t = RoundTraffic::for_round_faulted(10, 6, 3, 1000, 8, false);
        let per = f32_payload_bytes(1000 + 8);
        assert_eq!(t.down_bytes, 10 * per);
        assert_eq!(t.up_bytes, 9 * per, "6 survivors + 3 dropped bill upload");

        // A pure-drop round uploads exactly as much as a clean round.
        let all_dropped = RoundTraffic::for_round_faulted(10, 0, 10, 1000, 8, false);
        let clean = RoundTraffic::for_round_faulted(10, 10, 0, 1000, 8, false);
        assert_eq!(all_dropped.up_bytes, clean.up_bytes);

        // A pure-crash round uploads nothing.
        let all_crashed = RoundTraffic::for_round_faulted(10, 0, 0, 1000, 8, false);
        assert_eq!(all_crashed.up_bytes, 0);

        // SCAFFOLD's control variate rides on dropped uploads too.
        let cv = RoundTraffic::for_round_faulted(4, 2, 2, 100, 0, true);
        assert_eq!(cv.up_bytes, 4 * 2 * f32_payload_bytes(100));
    }

    #[test]
    fn encode_decode_round_trip() {
        let delta = vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        let payload = encode_update(7, 42, &delta);
        let (id, tau, back) = decode_update(&payload).unwrap();
        assert_eq!(id, 7);
        assert_eq!(tau, 42);
        assert_eq!(back, delta);
    }

    #[test]
    fn encode_decode_round_trips_awkward_values() {
        // Empty update, extreme ids, and non-finite / denormal floats all
        // survive the wire format bit-for-bit.
        let (id, tau, back) = decode_update(&encode_update(0, 0, &[])).unwrap();
        assert_eq!((id, tau), (0, 0));
        assert!(back.is_empty());

        let delta = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0, // subnormal
            f32::MAX,
        ];
        let payload = encode_update(u32::MAX, u32::MAX, &delta);
        assert_eq!(payload.len(), 12 + 4 * delta.len());
        let (id, tau, back) = decode_update(&payload).unwrap();
        assert_eq!((id, tau), (u32::MAX, u32::MAX));
        assert_eq!(back.len(), delta.len());
        for (a, b) in back.iter().zip(&delta) {
            assert_eq!(a.to_bits(), b.to_bits(), "wire format altered bits");
        }
    }

    #[test]
    fn bulk_le_helpers_match_portable_byte_order() {
        // The little-endian bulk copy must emit exactly what the portable
        // per-element `to_le_bytes` loop would, including NaN payload bits.
        let xs = vec![
            1.5f32,
            -0.0,
            f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::MAX,
        ];
        let mut bulk = vec![0xAAu8]; // pre-existing bytes survive the append
        write_f32_le(&mut bulk, &xs);
        let mut portable = vec![0xAAu8];
        for &v in &xs {
            portable.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bulk, portable);
        let back = read_f32_le(&bulk[1..]);
        for (a, b) in back.iter().zip(&xs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let us = vec![0u32, 1, 0xDEAD_BEEF, u32::MAX];
        let mut bulk = Vec::new();
        write_u32_le(&mut bulk, &us);
        let mut portable = Vec::new();
        for &v in &us {
            portable.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bulk, portable);
        assert_eq!(read_u32_le(&bulk), us);
    }

    #[test]
    fn decode_rejects_truncated() {
        let payload = encode_update(1, 1, &[1.0, 2.0]);
        // Every strict prefix of a valid payload must be rejected.
        for cut in 0..payload.len() {
            assert!(decode_update(&payload[..cut]).is_none(), "prefix {cut}");
        }
        assert!(decode_update(&[]).is_none());
        // ... and so must a payload with trailing garbage.
        let mut long = payload.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(decode_update(&long).is_none());
    }

    #[test]
    fn decode_rejects_inconsistent_length() {
        let mut bad = encode_update(1, 1, &[1.0]).to_vec();
        bad[8] = 9; // claim 9 floats, supply 1
        assert!(decode_update(&bad).is_none());
    }

    #[test]
    fn decode_rejects_length_prefix_overflow() {
        // A hostile prefix claiming u32::MAX floats: `len * 4` would wrap
        // on 32-bit usize (and previously compared against a tiny body
        // only by luck). The checked multiply must reject it outright.
        let mut bad = encode_update(1, 1, &[1.0]).to_vec();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_update(&bad).is_none());
        // The 32-bit wrap case specifically: len = 2^30 makes len*4 == 0
        // mod 2^32; an empty body must still be rejected.
        let mut wrap = encode_update(1, 1, &[]).to_vec();
        wrap[8..12].copy_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(decode_update(&wrap).is_none());
    }
}
