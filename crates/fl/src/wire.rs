//! The exact-bits byte encoding shared by the wire messages
//! ([`crate::net`]), the codec payloads ([`crate::compress`]) and the
//! checkpoint container ([`crate::checkpoint`]): little-endian scalars,
//! and an `f32` vector as a `u32` count followed by [`write_le`] bytes.
//! [`Cursor`] is the one decoder, so hostile or torn input ends in a
//! typed [`Malformed`], never a panic or an allocation sized by a lying
//! prefix.

/// A decode failure: what was being read and why it cannot be.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Malformed(pub(crate) String);

/// A 4-byte scalar the wire carries as its exact little-endian bits.
pub(crate) trait Word: Copy {
    fn to_le(self) -> [u8; 4];
    fn from_le(bytes: [u8; 4]) -> Self;
}

impl Word for f32 {
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    fn from_le(bytes: [u8; 4]) -> Self {
        f32::from_le_bytes(bytes)
    }
}

impl Word for u32 {
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }
    fn from_le(bytes: [u8; 4]) -> Self {
        u32::from_le_bytes(bytes)
    }
}

/// Append `xs` to `buf` as little-endian bytes. One `extend` over the
/// whole slice: a per-element `extend_from_slice` is many times slower.
pub(crate) fn write_le<T: Word>(buf: &mut Vec<u8>, xs: &[T]) {
    buf.reserve(4 * xs.len());
    buf.extend(xs.iter().flat_map(|x| x.to_le()));
}

/// Decode little-endian bytes into words. `bytes.len()` is a multiple of
/// 4 ([`Cursor`] takes exactly `4·n` bytes).
fn read_le<T: Word>(bytes: &[u8]) -> Vec<T> {
    bytes
        .chunks_exact(4)
        .map(|b| T::from_le(b.try_into().expect("4-byte chunk")))
        .collect()
}

/// A `u32` length prefix; one that does not fit is this program's bug.
pub(crate) fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u32(buf, u32::try_from(n).expect("length prefix fits u32"));
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

pub(crate) fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    put_len(buf, xs.len());
    write_le(buf, xs);
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_len(buf, b.len());
    buf.extend_from_slice(b);
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Bounds-checked cursor over an encoded buffer. Every overrun —
/// including `u32::MAX`-ish vector counts whose byte size would overflow
/// — is a typed [`Malformed`], raised before the vector is allocated;
/// `finish` rejects trailing garbage.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], Malformed> {
        let (pos, len) = (self.pos, self.buf.len());
        if n > len - pos {
            return Err(Malformed(format!(
                "truncated {what}: need {n} bytes at offset {pos} of {len}"
            )));
        }
        self.pos += n;
        Ok(&self.buf[pos..pos + n])
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, Malformed> {
        Ok(self.take(1, what)?[0])
    }

    /// A presence flag: exactly 0 or 1.
    pub(crate) fn bool(&mut self, what: &str) -> Result<bool, Malformed> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Malformed(format!("{what} must be 0 or 1, got {other}"))),
        }
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, Malformed> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, Malformed> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn f32(&mut self, what: &str) -> Result<f32, Malformed> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, Malformed> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `u64` field that must index or count in this process.
    pub(crate) fn usize(&mut self, what: &str) -> Result<usize, Malformed> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| Malformed(format!("{what} {v} exceeds usize")))
    }

    /// `n` `f32`s whose count the caller already knows (no prefix).
    /// Saturating: a count whose byte size overflows cannot fit either.
    pub(crate) fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, Malformed> {
        Ok(read_le(self.take(n.saturating_mul(4), what)?))
    }

    /// `n` `u32`s whose count the caller already knows (no prefix).
    pub(crate) fn u32s(&mut self, n: usize, what: &str) -> Result<Vec<u32>, Malformed> {
        Ok(read_le(self.take(n.saturating_mul(4), what)?))
    }

    /// A `u32` count, then that many `f32`s.
    pub(crate) fn f32_vec(&mut self, what: &str) -> Result<Vec<f32>, Malformed> {
        let n = self.u32(what)? as usize;
        self.f32s(n, what)
    }

    pub(crate) fn bytes_vec(&mut self, what: &str) -> Result<Vec<u8>, Malformed> {
        let n = self.u32(what)? as usize;
        Ok(self.take(n, what)?.to_vec())
    }

    pub(crate) fn string(&mut self, what: &str) -> Result<String, Malformed> {
        let b = self.bytes_vec(what)?;
        String::from_utf8(b).map_err(|_| Malformed(format!("{what} is not UTF-8")))
    }

    pub(crate) fn finish(self, what: &str) -> Result<(), Malformed> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(Malformed(format!("{n} trailing bytes after {what}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_vectors_round_trip_in_exact_bits() {
        let xs = [1.5f32, -0.0, f32::from_bits(0x7FC0_1234), 1.0e-40];
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_u64(&mut buf, 9);
        put_f64(&mut buf, f64::from_bits(0x7FF8_0000_DEAD_BEEF));
        put_f32s(&mut buf, &xs);
        put_str(&mut buf, "topk8:0.1");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32("a").unwrap(), 7);
        assert_eq!(c.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(c.usize("b").unwrap(), 9);
        assert_eq!(c.f64("c").unwrap().to_bits(), 0x7FF8_0000_DEAD_BEEF);
        let back = c.f32_vec("d").unwrap();
        assert!(back
            .iter()
            .zip(&xs)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(c.string("e").unwrap(), "topk8:0.1");
        c.finish("buffer").unwrap();
    }

    #[test]
    fn bulk_le_helpers_match_portable_byte_order() {
        // The helpers must emit exactly what a per-element `to_le_bytes`
        // loop would, including NaN payload bits, and read it back.
        let xs = vec![
            1.5f32,
            -0.0,
            f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::MAX,
        ];
        let mut bulk = vec![0xAAu8]; // pre-existing bytes survive the append
        write_le(&mut bulk, &xs);
        let mut portable = vec![0xAAu8];
        for &v in &xs {
            portable.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bulk, portable);
        let back: Vec<f32> = read_le(&bulk[1..]);
        assert_eq!(back.len(), xs.len());
        for (a, b) in back.iter().zip(&xs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let us = vec![0u32, 1, 0xDEAD_BEEF, u32::MAX];
        let mut bulk = Vec::new();
        write_le(&mut bulk, &us);
        let mut portable = Vec::new();
        for &v in &us {
            portable.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bulk, portable);
        assert_eq!(read_le::<u32>(&bulk), us);
        let mut c = Cursor::new(&bulk);
        assert_eq!(c.u32s(us.len(), "u").unwrap(), us);
        c.finish("u").unwrap();
    }

    /// A count is judged against the bytes behind it before the vector
    /// is allocated: `u32::MAX` floats or bytes over an empty tail.
    #[test]
    fn counts_larger_than_the_remaining_bytes_are_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Cursor::new(&buf).f32_vec("v").is_err());
        assert!(Cursor::new(&buf).bytes_vec("v").is_err());
        assert!(Cursor::new(&buf).u32s(usize::MAX, "v").is_err());
        // One float promised, three bytes supplied.
        let mut short = Vec::new();
        put_u32(&mut short, 1);
        short.extend_from_slice(&[0, 0, 0]);
        let err = Cursor::new(&short).f32_vec("v").unwrap_err();
        assert!(err.0.contains("truncated v: need 4 bytes"), "{err:?}");
        // Exactly enough is accepted; a trailing byte is not.
        short.push(0);
        let mut c = Cursor::new(&short);
        assert_eq!(c.f32_vec("v").unwrap(), vec![0.0]);
        c.finish("v").unwrap();
        short.push(9);
        let mut c = Cursor::new(&short);
        c.f32_vec("v").unwrap();
        assert!(c.finish("v").is_err());
    }

    #[test]
    fn non_utf8_strings_and_short_scalars_are_typed() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xFF, 0xFE]);
        assert!(Cursor::new(&buf).string("s").is_err());
        assert!(Cursor::new(&[1, 2, 3]).u32("x").is_err());
        assert!(Cursor::new(&[1, 2, 3]).f32("x").is_err());
        assert!(Cursor::new(&[0; 7]).u64("x").is_err());
        assert!(Cursor::new(&[]).u8("x").is_err());
    }
}
