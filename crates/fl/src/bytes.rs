//! Little-endian byte plumbing shared by the transport frames and the
//! checkpoint codec.
//!
//! Floats travel as raw IEEE-754 bits (`to_le_bytes`/`from_le_bytes`), so
//! every round-trip is bit-exact — the property both the golden-trace
//! guarantees and the resume-determinism guarantees rest on. The cursor
//! delegates its bounds checking to [`ft_sparse::WireReader`] — the same
//! cursor the payload codecs parse with, so there is exactly one
//! bounds-checking implementation in the workspace — and layers the
//! richer structured reads (counted vectors, bit vectors, BN statistics)
//! this crate's formats need on top. Every vector goes through the bulk
//! coders of [`ft_sparse::wire`], one pass per vector.

use ft_nn::BnStats;
use ft_sparse::wire::{self, WireReader};
use ft_sparse::DecodeError;

/// Reason a binary blob failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// Input ended before the advertised content.
    Truncated,
    /// A count or tag is inconsistent with the surrounding structure (the
    /// static message names the field).
    Corrupt(&'static str),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Truncated => write!(f, "truncated input"),
            ReadError::Corrupt(what) => write!(f, "corrupt input: {what}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Maps the shared cursor's decode errors into this module's read errors.
fn cursor_err(e: DecodeError) -> ReadError {
    match e {
        DecodeError::Truncated { .. } => ReadError::Truncated,
        _ => ReadError::Corrupt("count overflow"),
    }
}

/// Bounds-checked little-endian cursor: [`ft_sparse::WireReader`] plus the
/// structured reads the frame and checkpoint formats need.
pub struct ByteReader<'a> {
    inner: WireReader<'a>,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader {
            inner: WireReader::new(buf),
        }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        self.inner.take(n).map_err(cursor_err)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        self.inner.u8().map_err(cursor_err)
    }

    /// Next `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.inner.u32().map_err(cursor_err)
    }

    /// Next `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.inner.u64().map_err(cursor_err)
    }

    /// Next `u64` narrowed to `usize`.
    pub fn len_u64(&mut self) -> Result<usize, ReadError> {
        usize::try_from(self.u64()?).map_err(|_| ReadError::Corrupt("length overflows usize"))
    }

    /// Next `f32`, bit-exact.
    pub fn f32(&mut self) -> Result<f32, ReadError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Next `f64`, bit-exact.
    pub fn f64(&mut self) -> Result<f64, ReadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next `bool` (strictly 0 or 1).
    pub fn boolean(&mut self) -> Result<bool, ReadError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ReadError::Corrupt("flag not 0/1")),
        }
    }

    /// A `u32`-counted vector of `f32`s; the byte budget is checked before
    /// any allocation.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, ReadError> {
        let n = self.u32()? as usize;
        self.inner.f32_vec(n).map_err(cursor_err)
    }

    /// A `u32`-counted vector of `f64`s.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, ReadError> {
        let n = self.u32()? as usize;
        self.inner.f64_vec(n).map_err(cursor_err)
    }

    /// A `u32`-counted byte blob.
    pub fn blob(&mut self) -> Result<Vec<u8>, ReadError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// A `u32`-counted bit vector, packed 8 bools per byte. The padding
    /// bits of the last byte must be zero, as the writer leaves them: a set
    /// one would decode to the same bits as the canonical bytes, so two
    /// inputs would mean one value.
    pub fn bitvec(&mut self) -> Result<Vec<bool>, ReadError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.div_ceil(8))?;
        if bytes
            .last()
            .is_some_and(|&b| !n.is_multiple_of(8) && b >> (n % 8) != 0)
        {
            return Err(ReadError::Corrupt("bit vector padding not zero"));
        }
        Ok(wire::bits(bytes, n))
    }

    /// One set of BatchNorm statistics written by [`put_bn_stats`].
    pub fn bn_stats(&mut self) -> Result<Vec<BnStats>, ReadError> {
        let layers = self.u32()? as usize;
        let mut out = Vec::with_capacity(layers.min(4096));
        for _ in 0..layers {
            let mean = self.f32_vec()?;
            let var = self.f32_vec()?;
            if mean.len() != var.len() {
                return Err(ReadError::Corrupt("bn mean/var length mismatch"));
            }
            out.push(BnStats { mean, var });
        }
        Ok(out)
    }
}

/// Appends a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` as raw bits.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as raw bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a `u32`-counted `f32` vector.
pub fn put_f32_vec(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    wire::put_f32s(out, v);
}

/// Appends a `u32`-counted `f64` vector.
pub fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(out, v.len() as u32);
    wire::put_f64s(out, v);
}

/// Appends a `u32`-counted byte blob.
pub fn put_blob(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// Appends a `u32`-counted bit vector, packed 8 bools per byte.
pub fn put_bitvec(out: &mut Vec<u8>, bits: &[bool]) {
    put_u32(out, bits.len() as u32);
    wire::put_bits(out, bits);
}

/// Appends one set of BatchNorm statistics (layer count, then per layer the
/// mean and variance vectors).
pub fn put_bn_stats(out: &mut Vec<u8>, stats: &[BnStats]) {
    put_u32(out, stats.len() as u32);
    for s in stats {
        put_f32_vec(out, &s.mean);
        put_f32_vec(out, &s.var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips_are_bit_exact() {
        let mut out = Vec::new();
        put_f64(&mut out, f64::from_bits(0x7ff8_dead_beef_0001)); // odd NaN
        put_f32(&mut out, -0.0);
        put_u64(&mut out, u64::MAX);
        put_bool(&mut out, true);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.f64().unwrap().to_bits(), 0x7ff8_dead_beef_0001);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.boolean().unwrap());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn vectors_and_bits_roundtrip() {
        let bits = [true, false, false, true, true, false, true, true, true];
        let mut out = Vec::new();
        put_f32_vec(&mut out, &[1.5, -2.25]);
        put_bitvec(&mut out, &bits);
        put_blob(&mut out, b"frame");
        put_bn_stats(
            &mut out,
            &[BnStats {
                mean: vec![0.5],
                var: vec![2.0],
            }],
        );
        let mut r = ByteReader::new(&out);
        assert_eq!(r.f32_vec().unwrap(), vec![1.5, -2.25]);
        assert_eq!(r.bitvec().unwrap(), bits.to_vec());
        assert_eq!(r.blob().unwrap(), b"frame");
        let bn = r.bn_stats().unwrap();
        assert_eq!(bn[0].mean, vec![0.5]);
        assert_eq!(bn[0].var, vec![2.0]);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut out = Vec::new();
        put_f32_vec(&mut out, &[1.0, 2.0, 3.0]);
        for cut in 0..out.len() {
            let mut r = ByteReader::new(&out[..cut]);
            assert!(r.f32_vec().is_err(), "prefix of {cut} bytes parsed");
        }
        let mut r = ByteReader::new(&[2u8]);
        assert_eq!(r.boolean(), Err(ReadError::Corrupt("flag not 0/1")));
    }

    /// The counted-vector writers and readers the frames and checkpoints
    /// use, against the per-element loops they replaced: the same bytes out,
    /// `to_bits`-equal values back — NaN payloads, ±0.0, subnormals and
    /// infinities included — and a bit vector with a set padding bit still
    /// refused, at every length from empty to a ragged 4097.
    #[test]
    fn frame_vector_coders_match_per_element_oracle() {
        let f32_bits = [0x7fc0_1234u32, 0xff80_0001, 0x8000_0000, 0, 1, 0x807f_ffff];
        let f32_bits = f32_bits.into_iter().chain([0x7f80_0000, 0xff80_0000]);
        let f32_bits: Vec<u32> = f32_bits.collect();
        for n in [0usize, 1, 7, 8, 9, 4097] {
            let word = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
            let f: Vec<f32> = (0..n)
                .map(|i| f32::from_bits(f32_bits.get(i).copied().unwrap_or(word(i) as u32)))
                .collect();
            let d: Vec<f64> = (0..n)
                .map(|i| f64::from_bits(word(i) ^ (0x7ff0_0000_0000_0001 * (i as u64 % 2))))
                .collect();
            let bits: Vec<bool> = (0..n).map(|i| word(i) % 3 == 0).collect();
            let bn = [BnStats {
                mean: f.clone(),
                var: f.iter().rev().copied().collect(),
            }];

            // The per-element loops the writers replaced.
            let mut oracle = Vec::new();
            let count =
                |out: &mut Vec<u8>, n: usize| out.extend_from_slice(&(n as u32).to_le_bytes());
            for v in [&f, &bn[0].mean] {
                count(&mut oracle, v.len());
                for x in v {
                    oracle.extend_from_slice(&x.to_le_bytes());
                }
            }
            count(&mut oracle, n);
            for x in &d {
                oracle.extend_from_slice(&x.to_le_bytes());
            }
            count(&mut oracle, n);
            let mut packed = vec![0u8; n.div_ceil(8)];
            for (i, &b) in bits.iter().enumerate() {
                packed[i / 8] |= u8::from(b) << (i % 8);
            }
            oracle.extend_from_slice(&packed);
            count(&mut oracle, 1);
            for v in [&bn[0].mean, &bn[0].var] {
                count(&mut oracle, v.len());
                for x in v {
                    oracle.extend_from_slice(&x.to_le_bytes());
                }
            }

            let mut out = Vec::new();
            put_f32_vec(&mut out, &f);
            put_f32_vec(&mut out, &bn[0].mean);
            put_f64_vec(&mut out, &d);
            put_bitvec(&mut out, &bits);
            put_bn_stats(&mut out, &bn);
            assert_eq!(out, oracle, "n={n}");

            let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut r = ByteReader::new(&out);
            assert_eq!(to_bits(&r.f32_vec().unwrap()), to_bits(&f), "n={n}");
            assert_eq!(to_bits(&r.f32_vec().unwrap()), to_bits(&f), "n={n}");
            let back: Vec<u64> = r.f64_vec().unwrap().iter().map(|x| x.to_bits()).collect();
            assert_eq!(back, d.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            assert_eq!(r.bitvec().unwrap(), bits, "n={n}");
            let stats = r.bn_stats().unwrap();
            assert_eq!(to_bits(&stats[0].mean), to_bits(&bn[0].mean), "n={n}");
            assert_eq!(to_bits(&stats[0].var), to_bits(&bn[0].var), "n={n}");
            assert_eq!(r.remaining(), 0);

            if n % 8 != 0 {
                let mut bad = Vec::new();
                put_bitvec(&mut bad, &bits);
                *bad.last_mut().unwrap() |= 0x80;
                let err = ByteReader::new(&bad).bitvec();
                assert_eq!(err, Err(ReadError::Corrupt("bit vector padding not zero")));
            }
        }
    }

    /// Ten bits take two bytes; the six high bits of the second are padding
    /// and must be zero — setting any of them is a typed error, not a second
    /// encoding of the same bits.
    #[test]
    fn bitvec_rejects_set_padding_bits() {
        let bits = [
            true, false, true, true, false, false, true, false, true, true,
        ];
        let mut out = Vec::new();
        put_bitvec(&mut out, &bits);
        assert_eq!(ByteReader::new(&out).bitvec().unwrap(), bits.to_vec());
        for pad in 2..8 {
            let mut bad = out.clone();
            *bad.last_mut().unwrap() |= 1 << pad;
            let err = ByteReader::new(&bad).bitvec();
            assert_eq!(err, Err(ReadError::Corrupt("bit vector padding not zero")));
        }
    }
}
