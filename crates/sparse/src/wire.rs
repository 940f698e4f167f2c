//! The little-endian cursor and the coders every binary format of this
//! workspace is built from: the payload codecs here, and the transport
//! frames, the checkpoint (ledger blob included) and FedTiny's hook-state
//! blob further up. There is one cursor, [`WireReader`], and one decode
//! error, [`DecodeError`], for all of them.
//!
//! Scalars travel little-endian; floats as their raw IEEE-754 bits, so NaN
//! payloads, `-0.0` and subnormals round-trip bit for bit. The structured
//! values a frame or checkpoint carries are written by the `put_*` functions
//! here and read back by the matching [`WireReader`] method: a `u32`-counted
//! `f32` or `f64` vector ([`put_f32_vec`] / [`WireReader::f32_vec`]), a
//! counted byte blob ([`put_blob`] / [`WireReader::blob`]) and a counted bit
//! vector ([`put_bitvec`] / [`WireReader::bitvec`]), whose padding bits must
//! be zero.
//!
//! Vectors never travel one element per call. Each writer appends a whole
//! slice in one pass over a pre-sized region of the output, and each reader
//! converts a whole byte slice in one pass: `chunks_exact(_mut)` with
//! `to_le_bytes` / `from_le_bytes`, which the compiler turns into plain
//! loads and stores. The uncounted bulk readers ([`f32s`], [`bits`], ...)
//! take a slice whose length the caller has already checked against the
//! element count (the [`WireReader`] takes it, which is where the bounds
//! check lives), so they cannot fail.

use crate::DecodeError;

/// Bounds-checked little-endian cursor over any binary blob of this
/// workspace: a payload, a transport frame, a checkpoint. Every read is
/// checked before it happens, and counted reads are checked before any
/// allocation, so truncated or corrupt input yields a typed
/// [`DecodeError`], never a panic or a huge reservation.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes read so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n - self.remaining(),
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes the bytes of `n` elements of `width` bytes each; the count is
    /// checked before anything is taken.
    pub(crate) fn take_elems(&mut self, n: usize, width: usize) -> Result<&'a [u8], DecodeError> {
        let bytes = n
            .checked_mul(width)
            .ok_or(DecodeError::Inconsistent("count overflow"))?;
        self.take(bytes)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Next `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Next `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Next `u64` narrowed to `usize`.
    pub fn len_u64(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?)
            .map_err(|_| DecodeError::Inconsistent("length overflows usize"))
    }

    /// Next `f32`, bit-exact.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Next `f64`, bit-exact.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next flag, written by [`put_bool`]: a byte that must be 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Inconsistent("flag not 0/1")),
        }
    }

    /// A vector written by [`put_f32_vec`]; the byte budget is checked
    /// before any allocation, so a garbage count cannot trigger a huge
    /// reservation.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.u32()? as usize;
        Ok(f32s(self.take_elems(n, 4)?))
    }

    /// A vector written by [`put_f64_vec`], checked like
    /// [`f32_vec`](Self::f32_vec).
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.u32()? as usize;
        Ok(f64s(self.take_elems(n, 8)?))
    }

    /// A byte blob written by [`put_blob`], borrowed from the input.
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A bit vector written by [`put_bitvec`]. The padding bits of the last
    /// byte must be zero, as the writer leaves them: a set one would decode
    /// to the same bits as the canonical bytes, so two inputs would mean one
    /// value.
    pub fn bitvec(&mut self) -> Result<Vec<bool>, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.div_ceil(8))?;
        if bytes
            .last()
            .is_some_and(|&b| !n.is_multiple_of(8) && b >> (n % 8) != 0)
        {
            return Err(DecodeError::Inconsistent("bit vector padding not zero"));
        }
        Ok(bits(bytes, n))
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

/// Appends an `f32` as its raw bits.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a flag as one byte, 0 or 1.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a `u32`-counted `f32` vector.
pub fn put_f32_vec(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    put_f32s(out, v);
}

/// Appends a `u32`-counted `f64` vector.
pub fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(out, v.len() as u32);
    put_f64s(out, v);
}

/// Appends a `u32`-counted byte blob.
pub fn put_blob(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// Appends a `u32`-counted bit vector, packed by [`put_bits`].
pub fn put_bitvec(out: &mut Vec<u8>, bits: &[bool]) {
    put_u32(out, bits.len() as u32);
    put_bits(out, bits);
}

/// Appends `n` zero bytes to `out` and hands them back: the pre-sized
/// region a bulk writer fills. Within `out`'s capacity this allocates
/// nothing.
fn grow(out: &mut Vec<u8>, n: usize) -> &mut [u8] {
    let at = out.len();
    out.resize(at + n, 0);
    &mut out[at..]
}

/// Appends every `f32` of `v` as 4 little-endian bytes.
pub fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    for (d, x) in grow(out, 4 * v.len()).chunks_exact_mut(4).zip(v) {
        d.copy_from_slice(&x.to_le_bytes());
    }
}

/// Appends every `f64` of `v` as 8 little-endian bytes.
pub fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    for (d, x) in grow(out, 8 * v.len()).chunks_exact_mut(8).zip(v) {
        d.copy_from_slice(&x.to_le_bytes());
    }
}

/// Appends `(u32 index, f32 value)` pairs, 8 bytes each.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn put_index_pairs(out: &mut Vec<u8>, indices: &[u32], values: &[f32]) {
    assert_eq!(indices.len(), values.len(), "index/value count mismatch");
    let pairs = indices.iter().zip(values);
    for (d, (i, v)) in grow(out, 8 * indices.len()).chunks_exact_mut(8).zip(pairs) {
        d[..4].copy_from_slice(&i.to_le_bytes());
        d[4..].copy_from_slice(&v.to_le_bytes());
    }
}

/// Appends the offsets `index - base` of sorted flat `indices` at `width`
/// bytes each: `u16` when `width` is 2, `u32` when it is 4 (the rule of
/// [`crate::sparse_index_width`]).
///
/// # Panics
///
/// Panics on any other width, and if an index lies below `base`.
pub fn put_offsets(out: &mut Vec<u8>, indices: &[u32], base: u32, width: usize) {
    let dst = grow(out, width * indices.len());
    match width {
        2 => {
            for (d, &i) in dst.chunks_exact_mut(2).zip(indices) {
                d.copy_from_slice(&((i - base) as u16).to_le_bytes());
            }
        }
        4 => {
            for (d, &i) in dst.chunks_exact_mut(4).zip(indices) {
                d.copy_from_slice(&(i - base).to_le_bytes());
            }
        }
        _ => panic!("no {width}-byte index width"),
    }
}

/// Appends every `i8` of `v` as one byte.
pub fn put_i8s(out: &mut Vec<u8>, v: &[i8]) {
    for (d, &c) in grow(out, v.len()).iter_mut().zip(v) {
        *d = c as u8;
    }
}

/// Appends `bits` packed 8 to a byte, least significant bit first; the
/// padding bits of the last byte are zero.
pub fn put_bits(out: &mut Vec<u8>, bits: &[bool]) {
    let dst = grow(out, bits.len().div_ceil(8));
    let whole = bits.chunks_exact(8);
    let tail = whole.remainder();
    for (d, octet) in dst.iter_mut().zip(whole) {
        *d = pack_bits(octet);
    }
    if !tail.is_empty() {
        *dst.last_mut().expect("a partial byte") = pack_bits(tail);
    }
}

/// Packs up to eight bits into one byte, the first bit lowest: the bits
/// as the bytes of a `u64` (0 or 1 each), gathered into its top byte by one
/// multiply — bit `k` of byte `k` lands on bit `56 + k`, and no two partial
/// products share a position, so nothing carries.
#[inline]
fn pack_bits(bits: &[bool]) -> u8 {
    let mut lanes = [0u8; 8];
    for (l, &b) in lanes.iter_mut().zip(bits) {
        *l = u8::from(b);
    }
    (u64::from_le_bytes(lanes).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// The eight bits of every byte value, first bit lowest: one table lookup
/// unpacks a byte.
const UNPACKED: [[bool; 8]; 256] = {
    let mut table = [[false; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut k = 0;
        while k < 8 {
            table[byte][k] = byte >> k & 1 == 1;
            k += 1;
        }
        byte += 1;
    }
    table
};

/// Reads little-endian `f32`s out of `bytes`, bit-exact.
///
/// # Panics
///
/// Panics if `bytes` is not a whole number of elements.
pub fn f32s(bytes: &[u8]) -> Vec<f32> {
    assert_eq!(bytes.len() % 4, 0, "partial f32");
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

/// Reads little-endian `f64`s out of `bytes`, bit-exact.
///
/// # Panics
///
/// Panics if `bytes` is not a whole number of elements.
pub fn f64s(bytes: &[u8]) -> Vec<f64> {
    assert_eq!(bytes.len() % 8, 0, "partial f64");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Reads `(u32 index, f32 value)` pairs written by [`put_index_pairs`].
///
/// # Panics
///
/// Panics if `bytes` is not a whole number of pairs.
pub fn index_pairs(bytes: &[u8]) -> (Vec<u32>, Vec<f32>) {
    assert_eq!(bytes.len() % 8, 0, "partial index pair");
    let pairs = bytes.chunks_exact(8);
    let indices = pairs
        .clone()
        .map(|c| u32::from_le_bytes(c[..4].try_into().expect("4 bytes")))
        .collect();
    let values = pairs
        .map(|c| f32::from_le_bytes(c[4..].try_into().expect("4 bytes")))
        .collect();
    (indices, values)
}

/// The offsets written by [`put_offsets`] at `width`, in order.
///
/// # Panics
///
/// Panics on a width other than 2 or 4, or if `bytes` is not a whole number
/// of offsets.
pub fn offsets(bytes: &[u8], width: usize) -> impl Iterator<Item = u32> + '_ {
    assert!(width == 2 || width == 4, "no {width}-byte index width");
    assert_eq!(bytes.len() % width, 0, "partial offset");
    bytes.chunks_exact(width).map(move |c| {
        if width == 2 {
            u32::from(u16::from_le_bytes([c[0], c[1]]))
        } else {
            u32::from_le_bytes([c[0], c[1], c[2], c[3]])
        }
    })
}

/// Reads one `i8` per byte.
pub fn i8s(bytes: &[u8]) -> Vec<i8> {
    bytes.iter().map(|&b| b as i8).collect()
}

/// Unpacks `n` bits written by [`put_bits`]. Padding bits are ignored here;
/// a reader that must refuse non-canonical input checks them itself.
///
/// # Panics
///
/// Panics if `bytes` is not exactly `n.div_ceil(8)` long.
pub fn bits(bytes: &[u8], n: usize) -> Vec<bool> {
    assert_eq!(bytes.len(), n.div_ceil(8), "bit vector length mismatch");
    let mut out = vec![false; n];
    let mut whole = out.chunks_exact_mut(8);
    for (octet, &b) in (&mut whole).zip(bytes) {
        octet.copy_from_slice(&UNPACKED[usize::from(b)]);
    }
    let tail = whole.into_remainder();
    if let Some(&b) = bytes.get(n / 8) {
        tail.copy_from_slice(&UNPACKED[usize::from(b)][..tail.len()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lengths every coder is checked at: empty, one, around a whole
    /// byte of bits, and long with a ragged tail.
    const LENS: [usize; 6] = [0, 1, 7, 8, 9, 4097];

    /// Bits that must survive: NaNs with payloads (quiet and signalling,
    /// both signs), ±0.0, subnormals, infinities and the extremes.
    const F32_SPECIALS: [u32; 12] = [
        0x7fc0_1234,
        0xff80_0001,
        0x7f80_0001,
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7f7f_ffff,
        0x0080_0000,
        0x3f80_0000,
    ];
    const F64_SPECIALS: [u64; 8] = [
        0x7ff8_dead_beef_0001,
        0xfff0_0000_0000_0001,
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
    ];

    /// Deterministic mixed bits: the specials first, then a splitmix walk.
    fn word(i: usize) -> u64 {
        let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    }

    fn f32_values(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| f32::from_bits(F32_SPECIALS.get(i).copied().unwrap_or(word(i) as u32)))
            .collect()
    }

    fn f64_values(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| f64::from_bits(F64_SPECIALS.get(i).copied().unwrap_or(word(i))))
            .collect()
    }

    /// The per-element loops the bulk coders replaced: the oracle.
    mod oracle {
        pub fn f32s(v: &[f32]) -> Vec<u8> {
            let mut out = Vec::new();
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }

        pub fn f64s(v: &[f64]) -> Vec<u8> {
            let mut out = Vec::new();
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }

        pub fn index_pairs(indices: &[u32], values: &[f32]) -> Vec<u8> {
            let mut out = Vec::new();
            for (i, v) in indices.iter().zip(values.iter()) {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }

        pub fn offsets(indices: &[u32], base: u32, width: usize) -> Vec<u8> {
            let mut out = Vec::new();
            for &i in indices {
                let offset = i - base;
                if width == 2 {
                    out.extend_from_slice(&(offset as u16).to_le_bytes());
                } else {
                    out.extend_from_slice(&offset.to_le_bytes());
                }
            }
            out
        }

        pub fn i8s(v: &[i8]) -> Vec<u8> {
            let mut out = Vec::new();
            for &c in v {
                out.push(c as u8);
            }
            out
        }

        pub fn bits(bits: &[bool]) -> Vec<u8> {
            let mut packed = vec![0u8; bits.len().div_ceil(8)];
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    packed[i / 8] |= 1 << (i % 8);
                }
            }
            packed
        }

        pub fn unpack(bytes: &[u8], n: usize) -> Vec<bool> {
            (0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect()
        }
    }

    /// Runs a bulk writer behind a non-empty prefix (a frame header), so
    /// that appending — not just writing from offset zero — is checked.
    fn written(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = vec![0xA5; 3];
        write(&mut out);
        assert_eq!(out[..3], [0xA5; 3], "a writer touched the bytes before it");
        out.split_off(3)
    }

    /// Every bulk writer emits the oracle's bytes and every reader returns
    /// `to_bits`-equal values, at every length of [`LENS`].
    #[test]
    fn bulk_coders_match_per_element_oracle() {
        for n in LENS {
            let f = f32_values(n);
            let bytes = written(|o| put_f32s(o, &f));
            assert_eq!(bytes, oracle::f32s(&f), "f32 n={n}");
            let back: Vec<u32> = f32s(&bytes).iter().map(|x| x.to_bits()).collect();
            let f_bits: Vec<u32> = f.iter().map(|x| x.to_bits()).collect();
            assert_eq!(back, f_bits, "f32 read n={n}");

            let d = f64_values(n);
            let bytes = written(|o| put_f64s(o, &d));
            assert_eq!(bytes, oracle::f64s(&d), "f64 n={n}");
            let back: Vec<u64> = f64s(&bytes).iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = d.iter().map(|x| x.to_bits()).collect();
            assert_eq!(back, want, "f64 read n={n}");

            let idx: Vec<u32> = (0..n).map(|i| word(i) as u32).collect();
            let bytes = written(|o| put_index_pairs(o, &idx, &f));
            assert_eq!(bytes, oracle::index_pairs(&idx, &f), "pairs n={n}");
            let (bi, bv) = index_pairs(&bytes);
            assert_eq!(bi, idx, "pair indices n={n}");
            let bv: Vec<u32> = bv.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bv, f_bits, "pair values n={n}");

            for (width, span) in [
                (2usize, u64::from(u16::MAX)),
                (4, u64::from(u32::MAX - 70_000)),
            ] {
                let base = 70_000u32;
                let idx: Vec<u32> = (0..n)
                    .map(|i| base + (word(i) % (span + 1)) as u32)
                    .collect();
                let bytes = written(|o| put_offsets(o, &idx, base, width));
                assert_eq!(bytes, oracle::offsets(&idx, base, width), "w{width} n={n}");
                let back: Vec<u32> = offsets(&bytes, width).map(|o| base + o).collect();
                assert_eq!(back, idx, "w{width} read n={n}");
            }

            let codes: Vec<i8> = (0..n).map(|i| word(i) as i8).collect();
            let bytes = written(|o| put_i8s(o, &codes));
            assert_eq!(bytes, oracle::i8s(&codes), "i8 n={n}");
            assert_eq!(i8s(&bytes), codes, "i8 read n={n}");

            let flags: Vec<bool> = (0..n).map(|i| word(i) & 1 == 1).collect();
            let bytes = written(|o| put_bits(o, &flags));
            assert_eq!(bytes, oracle::bits(&flags), "bits n={n}");
            assert_eq!(bits(&bytes, n), flags, "bits read n={n}");
            assert_eq!(oracle::unpack(&bytes, n), flags, "oracle unpack n={n}");
        }
    }

    #[test]
    fn scalar_roundtrips_are_bit_exact() {
        let mut out = Vec::new();
        put_f64(&mut out, f64::from_bits(0x7ff8_dead_beef_0001)); // odd NaN
        put_f32(&mut out, -0.0);
        put_u64(&mut out, u64::MAX);
        put_bool(&mut out, true);
        let mut r = WireReader::new(&out);
        assert_eq!(r.f64().unwrap().to_bits(), 0x7ff8_dead_beef_0001);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn vectors_and_bits_roundtrip() {
        let bits = [true, false, false, true, true, false, true, true, true];
        let mut out = Vec::new();
        put_f32_vec(&mut out, &[1.5, -2.25]);
        put_bitvec(&mut out, &bits);
        put_blob(&mut out, b"frame");
        put_f64_vec(&mut out, &[0.5, 2.0]);
        put_u64(&mut out, 7);
        let mut r = WireReader::new(&out);
        assert_eq!(r.f32_vec().unwrap(), vec![1.5, -2.25]);
        assert_eq!(r.bitvec().unwrap(), bits.to_vec());
        assert_eq!(r.blob().unwrap(), b"frame");
        assert_eq!(r.f64_vec().unwrap(), vec![0.5, 2.0]);
        assert_eq!(r.len_u64().unwrap(), 7);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut out = Vec::new();
        put_f32_vec(&mut out, &[1.0, 2.0, 3.0]);
        for cut in 0..out.len() {
            let mut r = WireReader::new(&out[..cut]);
            // The count's bytes, then the values' bytes, run short.
            let have = if cut < 4 { cut } else { cut - 4 };
            let err = r.f32_vec().expect_err("a prefix parsed");
            assert!(
                matches!(err, DecodeError::Truncated { have: h, .. } if h == have),
                "prefix of {cut} bytes: {err:?}"
            );
        }
        let mut r = WireReader::new(&[2u8]);
        assert_eq!(r.bool(), Err(DecodeError::Inconsistent("flag not 0/1")));
    }

    /// The counted-vector writers and readers the frames and checkpoints
    /// use, against the per-element loops they replaced: the same bytes out,
    /// `to_bits`-equal values back — NaN payloads, ±0.0, subnormals and
    /// infinities included — and a bit vector with a set padding bit still
    /// refused, at every length of [`LENS`].
    #[test]
    fn frame_vector_coders_match_per_element_oracle() {
        for n in LENS {
            let f = f32_values(n);
            let rev: Vec<f32> = f.iter().rev().copied().collect();
            let d = f64_values(n);
            let flags: Vec<bool> = (0..n).map(|i| word(i).is_multiple_of(3)).collect();

            let mut oracle = Vec::new();
            let count = |out: &mut Vec<u8>| out.extend_from_slice(&(n as u32).to_le_bytes());
            for v in [&f, &rev] {
                count(&mut oracle);
                oracle.extend_from_slice(&oracle::f32s(v));
            }
            count(&mut oracle);
            oracle.extend_from_slice(&oracle::f64s(&d));
            count(&mut oracle);
            oracle.extend_from_slice(&oracle::bits(&flags));

            let out = written(|o| {
                put_f32_vec(o, &f);
                put_f32_vec(o, &rev);
                put_f64_vec(o, &d);
                put_bitvec(o, &flags);
            });
            assert_eq!(out, oracle, "n={n}");

            let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut r = WireReader::new(&out);
            assert_eq!(to_bits(&r.f32_vec().unwrap()), to_bits(&f), "n={n}");
            assert_eq!(to_bits(&r.f32_vec().unwrap()), to_bits(&rev), "n={n}");
            let back: Vec<u64> = r.f64_vec().unwrap().iter().map(|x| x.to_bits()).collect();
            assert_eq!(back, d.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            assert_eq!(r.bitvec().unwrap(), flags, "n={n}");
            assert_eq!(r.remaining(), 0);

            if n % 8 != 0 {
                let mut bad = Vec::new();
                put_bitvec(&mut bad, &flags);
                *bad.last_mut().unwrap() |= 0x80;
                let err = WireReader::new(&bad).bitvec();
                let want = DecodeError::Inconsistent("bit vector padding not zero");
                assert_eq!(err, Err(want), "n={n}");
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
        assert_eq!(WireReader::new(&out).bitvec().unwrap(), bits.to_vec());
        for pad in 2..8 {
            let mut bad = out.clone();
            *bad.last_mut().unwrap() |= 1 << pad;
            let err = WireReader::new(&bad).bitvec();
            let want = DecodeError::Inconsistent("bit vector padding not zero");
            assert_eq!(err, Err(want));
        }
    }
}
