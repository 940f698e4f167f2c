//! Typed wire codecs for the device ↔ server update exchange.
//!
//! Devices never hand the server a raw dense `Vec<f32>` any more: a local
//! update is the *delta* against the round's anchor (the global parameters
//! the device downloaded), encoded by a [`Codec`] into a [`Payload`] whose
//! size in bytes is **measured** ([`Payload::encoded_len`] is exact and is
//! pinned against a real byte serialization, [`Payload::to_bytes`]) rather
//! than estimated from an analytic formula.
//!
//! ## Wire formats
//!
//! Every payload starts with a 5-byte header: a 1-byte codec tag and the
//! `u32` vector length. After the header:
//!
//! | codec       | body                                                                  |
//! |-------------|-----------------------------------------------------------------------|
//! | `Dense`     | `4·n` bytes of `f32` values                                           |
//! | `MaskCsr`   | 8-byte mask epoch, 1-byte indexed flag, `u32` nnz, `4·nnz` values; when indexed, per segment: 1-byte dense flag, then (`u32` count + `w`-byte within-segment offsets) for sparse segments |
//! | `QuantInt8` | per segment: `f32` scale, `f32` min, `1·seg_len` int8 codes           |
//! | `TopK`      | `u32` count, then `count` × (`u32` flat index, `f32` value)           |
//!
//! `MaskCsr` reuses the mask-defined structure of the CSR execution engine:
//! when the sender and the receiver hold the same mask epoch, the indices
//! are implied by the shared mask and only values travel (`w = 0`).
//! Otherwise (a stale device under buffered aggregation) within-segment
//! offsets are included, `w = 2` bytes for segments of at most 2^16
//! entries and `w = 4` beyond — the same rule
//! [`sparse_index_width`] exposes to the analytic accounting in
//! `ft-metrics`, so "cost on paper" and "cost in code" stay mutually
//! checkable.
//!
//! `TopK` sends the `k = ceil(k_frac · n)` largest finite magnitudes of its
//! input (never `±inf` or NaN), in ascending index order. Ties at the cut
//! are resolved as a [`TopKBuffer`] of capacity `k` fed the input in index
//! order resolves them: the buffer is the definition of the rule, and the
//! encoder's threshold pass is a shortcut proven to pick the same set
//! whenever no tie straddles the cut (see `topk_select`).
//!
//! `TopK` optionally keeps an *error-feedback* residual on the device: the
//! coordinates not transmitted this round are carried into the next round's
//! input, so nothing is permanently lost (the standard EF-SGD memory). The
//! residual is that input, updated in place: `delta + residual`, then the
//! sent coordinates are zeroed.

use crate::wire::{self, WireReader};
use crate::TopKBuffer;
use ft_tensor::{dequantize_one, quantize_affine_i8, QuantParams};
use serde::{Deserialize, Serialize};

/// Bytes of the common payload header: 1-byte codec tag + `u32` length.
pub const PAYLOAD_HEADER_BYTES: usize = 5;

/// Why a payload, a transport frame, a checkpoint or any other blob read
/// through [`WireReader`](crate::WireReader) failed to decode. Decoding
/// never panics: any truncated, corrupt, or internally inconsistent input is
/// rejected with one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the content its header advertises.
    Truncated {
        /// Bytes the decoder still needed.
        needed: usize,
        /// Bytes actually left in the frame.
        have: usize,
    },
    /// The codec tag byte names no known payload kind.
    BadTag(u8),
    /// A count, flag, or index is inconsistent with the frame or the
    /// decoding context (the static message names the field).
    Inconsistent(&'static str),
    /// A values-only payload stamped with a mask epoch other than the
    /// context's — a replayed (or far-future) frame that cannot be
    /// positioned without its original mask.
    StaleEpoch {
        /// Epoch the payload claims.
        got: u64,
        /// Epoch the decoding context is at.
        want: u64,
    },
    /// Well-formed content followed by garbage.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            DecodeError::BadTag(t) => write!(f, "unknown payload tag {t}"),
            DecodeError::Inconsistent(what) => write!(f, "inconsistent input: {what}"),
            DecodeError::StaleEpoch { got, want } => {
                write!(
                    f,
                    "stale mask epoch: payload claims {got}, context is at {want}"
                )
            }
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bytes per stored within-segment index for a segment of `len` entries:
/// 2 below 2^16, 4 beyond. Shared by the real `MaskCsr` encoder and the
/// analytic `sparse_model_bytes` accounting.
pub fn sparse_index_width(len: usize) -> usize {
    if len <= 1 << 16 {
        2
    } else {
        4
    }
}

/// Exact wire size of `n` explicit `(u32 index, f32 value)` pairs with the
/// common header — the format of top-k gradient uploads (Sec. III-D) and
/// of FedDST mask-adjustment traffic.
pub fn topk_pairs_encoded_len(n: usize) -> usize {
    PAYLOAD_HEADER_BYTES + 4 + 8 * n
}

/// Magnitude keys at or above this are `±inf` or NaN, which `TopK` never
/// transmits.
const NON_FINITE_KEY: u32 = 0x7f80_0000;

/// The bits of `|v|`: for finite values their unsigned order is the order of
/// `|v|`, and `-0.0` ties with `+0.0`.
fn magnitude_key(v: f32) -> u32 {
    v.to_bits() & 0x7fff_ffff
}

/// The `k` coordinates of `x` that a [`TopKBuffer`] of capacity `k` fed `x`
/// in index order retains, ascending by index, as `(indices, values)`.
///
/// A threshold pass and a collect pass replace the buffer's
/// per-coordinate heap whenever that is exact. [`magnitude_cut`] finds a key `t` such that exactly `k` finite
/// coordinates have a key ≥ `t` (or every finite coordinate, when at most
/// `k` are finite); one pass then collects them. The buffer retains exactly
/// that set. Each of them is admitted on arrival: until it arrives at most
/// `k − 1` others are in the set, so the heap is not full or its minimum is
/// below `t`. None is ever evicted: evicting one needs `k + 1` keys ≥ `t`.
/// When more coordinates tie at the cut than slots remain, which tied index
/// the buffer keeps depends on its sift order, so the buffer itself runs.
fn topk_select(x: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
    let mut indices = vec![0u32; k];
    let mut values = vec![0.0f32; k];
    match magnitude_cut(x, k, &mut indices) {
        Some(t) => {
            // Every coordinate is written at the cursor, which only a kept
            // one advances: no branch on the data.
            let mut len = 0;
            for (i, &v) in x.iter().enumerate() {
                if len == k {
                    break;
                }
                indices[len] = i as u32;
                values[len] = v;
                let key = magnitude_key(v);
                len += usize::from(key >= t && key < NON_FINITE_KEY);
            }
            indices.truncate(len);
            values.truncate(len);
        }
        None => {
            let mut buf = TopKBuffer::new(k);
            buf.extend_from_slice(x);
            let mut picked = buf.into_sorted();
            picked.sort_unstable_by_key(|&(i, _)| i);
            indices.clear();
            values.clear();
            for (i, v) in picked {
                indices.push(i as u32);
                values.push(v);
            }
        }
    }
    (indices, values)
}

/// A key `t` such that the finite coordinates of `x` with key ≥ `t` are
/// exactly `min(k, finite)` many; `None` when the `k`-th largest finite key
/// ties with more coordinates than the slots left for it, or is a zero or a
/// subnormal.
///
/// A radix select over the 31 key bits in digits of 11, 11 and 9 bits, on
/// one stack histogram: each digit's pass counts the keys under the prefix
/// chosen so far and picks the bin the cut falls in. It stops early when
/// that bin is taken whole, or when it holds fewer keys than `scratch` (the
/// payload's index buffer, `k` long) has room for: one more pass gathers
/// them and an in-place select finds `t` among them.
fn magnitude_cut(x: &[f32], k: usize, scratch: &mut [u32]) -> Option<u32> {
    let mut hist = [0u32; 1 << 11];
    let mut prefix = 0u32;
    let mut need = k;
    for (shift, bits) in [(20u32, 11u32), (9, 11), (0, 9)] {
        let bins = &mut hist[..1 << bits];
        bins.fill(0);
        let top = shift + bits;
        for &v in x {
            let key = magnitude_key(v);
            if key < NON_FINITE_KEY && key >> top == prefix {
                bins[((key >> shift) as usize) & ((1 << bits) - 1)] += 1;
            }
        }
        if shift == 20 && bins.iter().map(|&c| c as usize).sum::<usize>() <= k {
            return Some(0);
        }
        // The largest digit whose bin reaches the remaining slots; every
        // key in a higher bin is taken.
        let mut digit = bins.len() - 1;
        while (bins[digit] as usize) < need {
            need -= bins[digit] as usize;
            digit -= 1;
        }
        prefix = (prefix << bits) | digit as u32;
        let bin = bins[digit] as usize;
        if bin == need {
            return Some(prefix << shift);
        }
        if prefix == 0 {
            // The cut falls among zeros and subnormals, where masked
            // coordinates tie: the buffer runs without the key resolved.
            return None;
        }
        if bin < scratch.len() {
            // A finite prefix never matches a non-finite key.
            let mut len = 0;
            for &v in x {
                let key = magnitude_key(v);
                if key >> shift == prefix {
                    scratch[len] = key;
                    len += 1;
                }
            }
            let keys = &mut scratch[..bin];
            let t = *keys.select_nth_unstable(bin - need).1;
            let kept = keys.iter().filter(|&&key| key >= t).count();
            return (kept == need).then_some(t);
        }
    }
    None
}

/// Everything an encoder/decoder must agree on about the flat parameter
/// vector: which coordinates are mask-alive, how the vector splits into
/// parameter tensors, and which mask epoch produced the aliveness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireCtx {
    /// Per-coordinate aliveness over the *full* flat vector (prunable
    /// coordinates from the mask, unprunable ones always `true`).
    pub alive: Vec<bool>,
    /// Lengths of the parameter tensors, in flat order; sums to
    /// `alive.len()`.
    pub segments: Vec<usize>,
    /// Epoch of the mask behind `alive`; bumped whenever the mask changes.
    pub epoch: u64,
}

impl WireCtx {
    /// A fully-dense context: every coordinate alive, one segment.
    pub fn dense(len: usize) -> Self {
        WireCtx {
            alive: vec![true; len],
            segments: vec![len],
            epoch: 0,
        }
    }

    /// Builds a context, validating that the segments cover the vector.
    ///
    /// # Panics
    ///
    /// Panics if `segments` does not sum to `alive.len()`.
    pub fn new(alive: Vec<bool>, segments: Vec<usize>, epoch: u64) -> Self {
        assert_eq!(
            segments.iter().sum::<usize>(),
            alive.len(),
            "segments must cover the flat vector"
        );
        WireCtx {
            alive,
            segments,
            epoch,
        }
    }

    /// Full flat length.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Number of alive coordinates.
    pub fn alive_count(&self) -> usize {
        self.alive_count_in(0..self.len())
    }

    /// Number of alive coordinates in `range`: the flags added as bytes, in
    /// `u8` lanes of 255 at most, so no lane overflows.
    pub fn alive_count_in(&self, range: std::ops::Range<usize>) -> usize {
        let chunks = self.alive[range].chunks(255);
        chunks
            .map(|c| c.iter().map(|&a| u8::from(a)).sum::<u8>() as usize)
            .sum()
    }
}

/// Which wire codec a run exchanges updates with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Codec {
    /// Plain `f32` values for every coordinate (the pre-codec behavior,
    /// now typed and measured).
    #[default]
    Dense,
    /// Mask-structured sparse values: only alive coordinates travel;
    /// indices are dropped entirely when both ends share the mask epoch.
    MaskCsr,
    /// Per-tensor affine int8 quantization of the full delta (4x fewer
    /// bytes than `Dense` at full density).
    QuantInt8,
    /// Only the `ceil(k_frac · n)` largest finite magnitudes travel as
    /// explicit `(index, value)` pairs, ascending by index; ties at the cut
    /// are resolved as [`TopKBuffer`] resolves them. With `error_feedback`
    /// the untransmitted remainder accumulates on the device and rides along
    /// next round.
    TopK {
        /// Fraction of the flat vector transmitted per round, in `(0, 1]`.
        k_frac: f32,
        /// Keep an on-device residual of untransmitted mass.
        error_feedback: bool,
    },
}

impl Codec {
    /// Stable lowercase name for reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Codec::Dense => "dense",
            Codec::MaskCsr => "mask_csr",
            Codec::QuantInt8 => "quant_int8",
            Codec::TopK { .. } => "top_k",
        }
    }

    /// Parses a codec name as used by example/bench command lines.
    /// `top_k` defaults to `k_frac = 0.1` with error feedback on.
    pub fn from_name(s: &str) -> Option<Codec> {
        match s {
            "dense" => Some(Codec::Dense),
            "mask_csr" | "maskcsr" => Some(Codec::MaskCsr),
            "quant_int8" | "quant8" => Some(Codec::QuantInt8),
            "top_k" | "topk" => Some(Codec::TopK {
                k_frac: 0.1,
                error_feedback: true,
            }),
            _ => None,
        }
    }

    /// Whether this codec keeps per-device residual state between rounds.
    pub fn uses_error_feedback(&self) -> bool {
        matches!(
            self,
            Codec::TopK {
                error_feedback: true,
                ..
            }
        )
    }

    /// Number of transmitted coordinates for a `TopK` codec over a vector
    /// of `len` entries (at least 1, at most `len`).
    fn topk_count(k_frac: f32, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        ((k_frac as f64 * len as f64).ceil() as usize).clamp(1, len)
    }

    /// Encodes `vector` (a delta against the round anchor, or a broadcast
    /// value vector) under this codec.
    ///
    /// `peer_epoch` is the mask epoch the receiver is known to hold:
    /// `MaskCsr` drops its indices exactly when it equals `ctx.epoch`.
    /// `residual` is the device's error-feedback accumulator; it is only
    /// read/updated by `TopK { error_feedback: true }` and is resized to
    /// the vector length on first use.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from `ctx.len()`, or if an
    /// error-feedback codec is given a non-empty residual of the wrong
    /// length.
    pub fn encode(
        &self,
        vector: &[f32],
        ctx: &WireCtx,
        peer_epoch: u64,
        residual: Option<&mut Vec<f32>>,
    ) -> Payload {
        assert_eq!(vector.len(), ctx.len(), "vector/context length mismatch");
        match *self {
            Codec::Dense => Payload::Dense {
                values: vector.to_vec(),
            },
            Codec::MaskCsr => {
                let alive = ctx.alive_count();
                let indexed = ctx.epoch != peer_epoch;
                let mut values = vec![0.0f32; alive];
                let mut indices = vec![0u32; if indexed { alive } else { 0 }];
                // Every coordinate is written at the cursor, which only an
                // alive one advances: no branch on the mask.
                let mut len = 0;
                for (i, (&v, &a)) in vector.iter().zip(ctx.alive.iter()).enumerate() {
                    if len == alive {
                        break;
                    }
                    values[len] = v;
                    if indexed {
                        indices[len] = i as u32;
                    }
                    len += usize::from(a);
                }
                Payload::MaskCsr {
                    epoch: ctx.epoch,
                    values,
                    indices: indexed.then_some(indices),
                    len: vector.len(),
                }
            }
            Codec::QuantInt8 => {
                let mut codes = vec![0i8; vector.len()];
                let mut params = Vec::with_capacity(ctx.segments.len());
                let mut start = 0;
                for &seg in &ctx.segments {
                    let p = quantize_affine_i8(
                        &vector[start..start + seg],
                        &mut codes[start..start + seg],
                    );
                    params.push(p);
                    start += seg;
                }
                Payload::QuantInt8 {
                    params,
                    codes,
                    len: vector.len(),
                }
            }
            Codec::TopK {
                k_frac,
                error_feedback,
            } => {
                let n = vector.len();
                let k = Self::topk_count(k_frac, n);
                let (indices, values) = match residual.filter(|_| error_feedback) {
                    // The residual becomes the selection input in place:
                    // `delta + residual`, then the picks are zeroed.
                    Some(res) => {
                        if res.is_empty() {
                            res.extend_from_slice(vector);
                        } else {
                            assert_eq!(res.len(), n, "residual length mismatch");
                            for (r, &v) in res.iter_mut().zip(vector) {
                                *r += v;
                            }
                        }
                        let picked = topk_select(res, k);
                        for &i in &picked.0 {
                            res[i as usize] = 0.0;
                        }
                        picked
                    }
                    None => topk_select(vector, k),
                };
                Payload::TopK {
                    indices,
                    values,
                    len: n,
                }
            }
        }
    }

    /// Closed-form wire size in bytes of a payload this codec would produce
    /// over `ctx`, *before* encoding — the round loop uses this to bill
    /// link time when the payload itself is not built yet. Exact for every
    /// codec (`MaskCsr`'s size depends only on the alive set and whether
    /// the epoch is shared, never on the values).
    pub fn encoded_len_for(&self, ctx: &WireCtx, shared_epoch: bool) -> usize {
        match *self {
            Codec::Dense => PAYLOAD_HEADER_BYTES + 4 * ctx.len(),
            Codec::MaskCsr => {
                let base = PAYLOAD_HEADER_BYTES + 8 + 1 + 4 + 4 * ctx.alive_count();
                if shared_epoch {
                    base
                } else {
                    base + maskcsr_index_bytes_for_alive(ctx)
                }
            }
            Codec::QuantInt8 => {
                PAYLOAD_HEADER_BYTES + ctx.segments.iter().map(|&s| 8 + s).sum::<usize>()
            }
            Codec::TopK { k_frac, .. } => {
                topk_pairs_encoded_len(Self::topk_count(k_frac, ctx.len()))
            }
        }
    }
}

/// Index bytes of an indexed `MaskCsr` payload whose support equals
/// `ctx.alive`: per segment, 1 flag byte, plus — for segments that are not
/// fully alive — a `u32` count and one within-segment offset per alive
/// coordinate at the segment's derived width.
fn maskcsr_index_bytes_for_alive(ctx: &WireCtx) -> usize {
    let mut total = 0;
    let mut start = 0;
    for &seg in &ctx.segments {
        let alive = ctx.alive[start..start + seg].iter().filter(|&&a| a).count();
        total += 1; // dense-segment flag
        if alive != seg {
            total += 4 + sparse_index_width(seg) * alive;
        }
        start += seg;
    }
    total
}

/// One encoded model update (or broadcast), ready to be billed by size and
/// decoded — or accumulated directly — on the receiving side.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Every coordinate as `f32`.
    Dense {
        /// The full vector.
        values: Vec<f32>,
    },
    /// Values of mask-alive coordinates, optionally with explicit indices.
    MaskCsr {
        /// Mask epoch the sender encoded under.
        epoch: u64,
        /// Values of alive coordinates, in flat order.
        values: Vec<f32>,
        /// Flat coordinates of `values`; `None` when the receiver shares
        /// the sender's mask epoch and can derive them.
        indices: Option<Vec<u32>>,
        /// Full flat length of the decoded vector.
        len: usize,
    },
    /// Per-segment affine int8 quantization.
    QuantInt8 {
        /// Affine parameters, one per segment.
        params: Vec<QuantParams>,
        /// One code per coordinate.
        codes: Vec<i8>,
        /// Full flat length.
        len: usize,
    },
    /// Explicit sparse `(index, value)` pairs, sorted by index.
    TopK {
        /// Flat coordinates, ascending.
        indices: Vec<u32>,
        /// Matching values.
        values: Vec<f32>,
        /// Full flat length.
        len: usize,
    },
}

impl Payload {
    /// Length of the decoded flat vector.
    pub fn len(&self) -> usize {
        match self {
            Payload::Dense { values } => values.len(),
            Payload::MaskCsr { len, .. }
            | Payload::QuantInt8 { len, .. }
            | Payload::TopK { len, .. } => *len,
        }
    }

    /// Whether the decoded vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact wire size in bytes. `ctx` supplies the segment structure
    /// (`MaskCsr` index widths, `QuantInt8` block count); aliveness and
    /// epoch are irrelevant here.
    ///
    /// Pinned equal to `self.to_bytes(ctx).len()` by property test.
    pub fn encoded_len(&self, ctx: &WireCtx) -> usize {
        match self {
            Payload::Dense { values } => PAYLOAD_HEADER_BYTES + 4 * values.len(),
            Payload::MaskCsr {
                values, indices, ..
            } => {
                let mut total = PAYLOAD_HEADER_BYTES + 8 + 1 + 4 + 4 * values.len();
                if let Some(idx) = indices {
                    total += maskcsr_index_bytes(idx, &ctx.segments);
                }
                total
            }
            Payload::QuantInt8 { params, codes, .. } => {
                PAYLOAD_HEADER_BYTES + 8 * params.len() + codes.len()
            }
            Payload::TopK { indices, .. } => topk_pairs_encoded_len(indices.len()),
        }
    }

    /// Serializes the payload to its wire bytes (little-endian): what an
    /// UPDATE frame carries over TCP and across `SimTime`'s byte boundary,
    /// and exactly [`encoded_len`](Self::encoded_len) bytes long.
    pub fn to_bytes(&self, ctx: &WireCtx) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len(ctx));
        self.write_to(ctx, &mut out);
        out
    }

    /// [`to_bytes`](Self::to_bytes) appended to `out`: a frame encoder
    /// writes the payload straight into its frame buffer, and within that
    /// buffer's capacity allocates nothing.
    pub fn write_to(&self, ctx: &WireCtx, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Payload::Dense { .. } => 0,
            Payload::MaskCsr { .. } => 1,
            Payload::QuantInt8 { .. } => 2,
            Payload::TopK { .. } => 3,
        };
        out.push(tag);
        wire::put_u32(out, self.len() as u32);
        match self {
            Payload::Dense { values } => wire::put_f32s(out, values),
            Payload::MaskCsr {
                epoch,
                values,
                indices,
                ..
            } => {
                wire::put_u64(out, *epoch);
                wire::put_bool(out, indices.is_some());
                wire::put_f32_vec(out, values);
                if let Some(idx) = indices {
                    write_segment_indices(idx, &ctx.segments, out);
                }
            }
            Payload::QuantInt8 { params, codes, .. } => {
                for p in params {
                    wire::put_f32(out, p.scale);
                    wire::put_f32(out, p.min);
                }
                wire::put_i8s(out, codes);
            }
            Payload::TopK {
                indices, values, ..
            } => {
                wire::put_u32(out, indices.len() as u32);
                wire::put_index_pairs(out, indices, values);
            }
        }
    }

    /// Parses a payload back out of its wire bytes — the exact inverse of
    /// [`to_bytes`](Self::to_bytes): `from_bytes(&p.to_bytes(ctx), ctx) ==
    /// Ok(p)` for every payload encodable over `ctx` (pinned by property
    /// test). `ctx` supplies the segment structure (`MaskCsr` index widths
    /// and `QuantInt8` block count), exactly as it does for encoding.
    ///
    /// Unlike [`decode`](Self::decode) this never panics: truncated,
    /// corrupt, or inconsistent frames return a typed [`DecodeError`], so a
    /// transport can feed it untrusted bytes. "Inconsistent" includes
    /// inconsistency *with the context*: the decoded length must equal
    /// `ctx.len()`, and a values-only `MaskCsr` payload must carry the
    /// context's mask epoch ([`DecodeError::StaleEpoch`] otherwise — the
    /// signature of a replayed frame) and alive count — so an accepted
    /// payload can
    /// always be decoded/accumulated under `ctx` without hitting the panic
    /// paths of [`decode`](Self::decode).
    ///
    /// Implemented as [`PayloadView::parse`] followed by
    /// [`PayloadView::to_payload`]: the borrowed parser is the single
    /// validation authority.
    pub fn from_bytes(bytes: &[u8], ctx: &WireCtx) -> Result<Payload, DecodeError> {
        Ok(PayloadView::parse(bytes, ctx)?.to_payload(ctx))
    }

    /// Decodes back to a full flat vector (untransmitted coordinates are
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if a values-only `MaskCsr` payload is decoded under a context
    /// whose mask epoch differs from the sender's (the receiver would
    /// scatter into the wrong coordinates), or if sizes are inconsistent.
    pub fn decode(&self, ctx: &WireCtx) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.decode_into(&mut out, ctx);
        out
    }

    /// [`decode`](Self::decode) into a caller-owned buffer: zero-fills `out`
    /// and writes every transmitted coordinate. Lets round-loop scratch
    /// (robust rules' delta buffers) be reused across rounds instead of
    /// reallocated.
    ///
    /// # Panics
    ///
    /// Same conditions as [`decode`](Self::decode), plus an `out` length
    /// mismatch.
    pub fn decode_into(&self, out: &mut [f32], ctx: &WireCtx) {
        assert_eq!(out.len(), self.len(), "decode buffer length mismatch");
        self.decode_range_into(out, ctx, 0..self.len(), 0);
    }

    /// Coordinates `range` of [`decode`](Self::decode) into `out`
    /// (`out[k]` is coordinate `range.start + k`), in time proportional to
    /// the range and the pairs inside it: a block-wise reader never walks
    /// the whole payload. `alive_before` counts the `ctx`-alive coordinates
    /// before `range.start` ([`WireCtx::alive_count_in`]), where a
    /// values-only `MaskCsr` payload's values resume.
    ///
    /// # Panics
    ///
    /// Same conditions as [`decode`](Self::decode), plus an `out` length
    /// other than the range's.
    pub fn decode_range_into(
        &self,
        out: &mut [f32],
        ctx: &WireCtx,
        range: std::ops::Range<usize>,
        alive_before: usize,
    ) {
        assert_eq!(out.len(), range.len(), "decode buffer length mismatch");
        out.fill(0.0);
        let start = range.start;
        self.for_each_coord_in_range(ctx, range, alive_before, |i, v| out[i - start] = v);
    }

    /// Adds `weight · value` into `acc` for every transmitted coordinate
    /// inside `plan`'s shard `s` — the accumulation primitive of the sharded
    /// aggregation engine (no per-device dense vector is materialized for
    /// sparse payloads). `acc` is the accumulator *slice for that shard
    /// only* (`acc.len() == plan.range(s).len()`, indexed relative to the
    /// shard start). Shards partition the output coordinates, so summing a
    /// payload shard-by-shard is bit-identical for any shard count — a
    /// one-shard plan is the full pass.
    ///
    /// # Panics
    ///
    /// Same conditions as [`decode`](Self::decode), plus `acc`/shard length
    /// or plan/context mismatches.
    pub fn accumulate_shard_into(
        &self,
        weight: f64,
        acc: &mut [f64],
        ctx: &WireCtx,
        plan: &ShardPlan,
        s: usize,
    ) {
        plan.assert_matches(ctx);
        let range = plan.range(s);
        assert_eq!(acc.len(), range.len(), "shard accumulator length mismatch");
        let start = range.start;
        self.for_each_coord_in_range(ctx, range, plan.alive_before(s), |i, v| {
            acc[i - start] += weight * v as f64
        });
    }

    /// The one coordinate walk: visits every transmitted `(flat coordinate,
    /// value)` pair whose coordinate falls inside `range`, in ascending
    /// coordinate order. `alive_before` is the number of `ctx`-alive
    /// coordinates before `range.start` — where a values-only `MaskCsr`
    /// payload's value cursor starts (0 for the full `0..len` walk, the
    /// plan's prefix count for a shard).
    fn for_each_coord_in_range(
        &self,
        ctx: &WireCtx,
        range: std::ops::Range<usize>,
        alive_before: usize,
        mut f: impl FnMut(usize, f32),
    ) {
        match self {
            Payload::Dense { values } => {
                assert_eq!(values.len(), ctx.len(), "payload/context length mismatch");
                for (i, &v) in values[range.clone()].iter().enumerate() {
                    f(range.start + i, v);
                }
            }
            Payload::MaskCsr {
                epoch,
                values,
                indices,
                len,
            } => match indices {
                Some(idx) => {
                    assert_eq!(idx.len(), values.len(), "index/value count mismatch");
                    for_each_pair_in_range(idx, values, range, f);
                }
                None => {
                    assert_eq!(
                        *epoch, ctx.epoch,
                        "values-only MaskCsr payload decoded under a different mask epoch"
                    );
                    assert_eq!(*len, ctx.len(), "payload/context length mismatch");
                    let ends_vector = range.end == ctx.len();
                    let mut cursor = alive_before;
                    for i in range {
                        if ctx.alive[i] {
                            let &v = values
                                .get(cursor)
                                .expect("fewer values than alive coordinates");
                            cursor += 1;
                            f(i, v);
                        }
                    }
                    assert!(
                        !ends_vector || cursor == values.len(),
                        "more values than alive coordinates"
                    );
                }
            },
            Payload::QuantInt8 { params, codes, .. } => {
                assert_eq!(codes.len(), ctx.len(), "segment/code count mismatch");
                assert_eq!(
                    params.len(),
                    ctx.segments.len(),
                    "segment/params count mismatch"
                );
                let mut start = 0usize;
                for (p, &seg) in params.iter().zip(ctx.segments.iter()) {
                    let lo = start.max(range.start);
                    let hi = (start + seg).min(range.end);
                    if lo < hi {
                        for (off, &code) in codes[lo..hi].iter().enumerate() {
                            f(lo + off, dequantize_one(code, *p));
                        }
                    }
                    start += seg;
                }
            }
            Payload::TopK {
                indices, values, ..
            } => for_each_pair_in_range(indices, values, range, f),
        }
    }
}

/// The explicit `(index, value)` pairs whose index falls inside `range`:
/// the indices are ascending (the encoders write them so, the parsers
/// refuse anything else), so a binary search finds the first and the walk
/// stops at the range's end.
fn for_each_pair_in_range(
    indices: &[u32],
    values: &[f32],
    range: std::ops::Range<usize>,
    mut f: impl FnMut(usize, f32),
) {
    let first = indices.partition_point(|&i| (i as usize) < range.start);
    for (&i, &v) in indices[first..].iter().zip(&values[first..]) {
        if i as usize >= range.end {
            break;
        }
        f(i as usize, v);
    }
}

/// A *borrowed* parse of a payload wire frame — the wire parser: the whole
/// validation of [`Payload::from_bytes`] (typed [`DecodeError`], never a
/// panic) with zero copies, every variant holding slices straight into the
/// receive buffer. Anything [`parse`](Self::parse) accepts is materialized
/// with [`to_payload`](Self::to_payload); [`Payload::from_bytes`] is exactly
/// that composition, and the owned [`Payload`] it yields is what the server
/// decodes and accumulates.
#[derive(Clone, Copy, Debug)]
pub enum PayloadView<'a> {
    /// Every coordinate as raw little-endian `f32` bytes.
    Dense {
        /// `4·len` bytes of values.
        values: &'a [u8],
        /// Full flat length.
        len: usize,
    },
    /// Values of mask-alive coordinates, optionally with encoded indices.
    MaskCsr {
        /// Mask epoch the sender encoded under.
        epoch: u64,
        /// `4·nnz` bytes of alive-coordinate values, in flat order.
        values: &'a [u8],
        /// The per-segment index encoding (validated at parse); `None` for
        /// values-only payloads whose indices the shared mask implies.
        index_bytes: Option<&'a [u8]>,
        /// Number of transmitted values.
        nnz: usize,
        /// Full flat length of the decoded vector.
        len: usize,
    },
    /// Per-segment affine int8 quantization.
    QuantInt8 {
        /// `8·segments` bytes of `(f32 scale, f32 min)` pairs.
        params: &'a [u8],
        /// One int8 code byte per coordinate.
        codes: &'a [u8],
        /// Full flat length.
        len: usize,
    },
    /// Explicit sparse pairs, ascending by index.
    TopK {
        /// `8·count` bytes of `(u32 index, f32 value)` pairs.
        pairs: &'a [u8],
        /// Number of pairs.
        count: usize,
        /// Full flat length.
        len: usize,
    },
}

impl<'a> PayloadView<'a> {
    /// Parses and fully validates a wire frame against `ctx` without
    /// copying anything out of it. Accepts exactly the frames
    /// [`Payload::from_bytes`] accepts and rejects everything else with the
    /// same typed [`DecodeError`] (`from_bytes` *is* this parse followed by
    /// [`to_payload`](Self::to_payload)). In particular the indexed
    /// `MaskCsr` and `TopK` structures are walked once here, so
    /// `to_payload` re-reads them infallibly.
    pub fn parse(bytes: &'a [u8], ctx: &WireCtx) -> Result<PayloadView<'a>, DecodeError> {
        let mut r = WireReader::new(bytes);
        let tag = r.u8()?;
        if tag > 3 {
            return Err(DecodeError::BadTag(tag));
        }
        let len = r.u32()? as usize;
        if len != ctx.len() {
            return Err(DecodeError::Inconsistent("length differs from context"));
        }
        let view = match tag {
            0 => PayloadView::Dense {
                values: r.take_elems(len, 4)?,
                len,
            },
            1 => {
                let epoch = r.u64()?;
                let indexed = r.bool()?;
                let nnz = r.u32()? as usize;
                if nnz > len {
                    return Err(DecodeError::Inconsistent("more values than coordinates"));
                }
                if !indexed && epoch != ctx.epoch {
                    return Err(DecodeError::StaleEpoch {
                        got: epoch,
                        want: ctx.epoch,
                    });
                }
                if !indexed && nnz != ctx.alive_count() {
                    return Err(DecodeError::Inconsistent(
                        "values-only payload does not match the context's mask",
                    ));
                }
                let values = r.take_elems(nnz, 4)?;
                let index_bytes = if indexed {
                    let start = r.position();
                    parse_segment_indices(&mut r, &ctx.segments, nnz, |_| {})?;
                    Some(&bytes[start..r.position()])
                } else {
                    None
                };
                PayloadView::MaskCsr {
                    epoch,
                    values,
                    index_bytes,
                    nnz,
                    len,
                }
            }
            2 => {
                let params = r.take_elems(ctx.segments.len(), 8)?;
                let codes = r.take(len)?;
                PayloadView::QuantInt8 { params, codes, len }
            }
            3 => {
                let count = r.u32()? as usize;
                if count > len {
                    return Err(DecodeError::Inconsistent("more pairs than coordinates"));
                }
                let pairs = r.take_elems(count, 8)?;
                let mut prev: Option<u32> = None;
                for c in pairs.chunks_exact(8) {
                    let i = u32::from_le_bytes(c[..4].try_into().expect("4 bytes"));
                    if (i as usize) >= len {
                        return Err(DecodeError::Inconsistent("pair index out of range"));
                    }
                    if prev.is_some_and(|p| i <= p) {
                        return Err(DecodeError::Inconsistent("pair indices not ascending"));
                    }
                    prev = Some(i);
                }
                PayloadView::TopK { pairs, count, len }
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        match r.remaining() {
            0 => Ok(view),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }

    /// Materializes the owned [`Payload`] this view describes. Infallible:
    /// everything fallible happened in [`parse`](Self::parse).
    pub fn to_payload(&self, ctx: &WireCtx) -> Payload {
        match *self {
            PayloadView::Dense { values, .. } => Payload::Dense {
                values: wire::f32s(values),
            },
            PayloadView::MaskCsr {
                epoch,
                values,
                index_bytes,
                nnz,
                len,
            } => Payload::MaskCsr {
                epoch,
                values: wire::f32s(values),
                indices: index_bytes.map(|b| {
                    let mut r = WireReader::new(b);
                    read_segment_indices(&mut r, &ctx.segments, nnz)
                        .expect("index bytes were validated at parse")
                }),
                len,
            },
            PayloadView::QuantInt8 { params, codes, len } => Payload::QuantInt8 {
                params: params
                    .chunks_exact(8)
                    .map(|c| QuantParams {
                        scale: f32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                        min: f32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
                    })
                    .collect(),
                codes: wire::i8s(codes),
                len,
            },
            PayloadView::TopK { pairs, len, .. } => {
                let (indices, values) = wire::index_pairs(pairs);
                Payload::TopK {
                    indices,
                    values,
                    len,
                }
            }
        }
    }
}

/// The coordinate-sharding plan of the sharded aggregation path: a set of
/// contiguous, disjoint coordinate ranges covering the flat vector, plus —
/// per shard — the number of mask-alive coordinates *before* it (what a
/// values-only `MaskCsr` payload needs to position its value cursor inside
/// a shard without scanning from zero).
///
/// Shards are **output partitions**, never input partitions: each
/// coordinate is accumulated entirely within one shard, and within a shard
/// payloads are visited in the caller's order — so sharded accumulation is
/// bit-identical to a single sequential pass, for any shard count. Built
/// once per mask epoch and reused across rounds (the per-round scratch key
/// is `(epoch, len, shard count)` via [`matches`](Self::matches)).
#[derive(Clone, Debug)]
pub struct ShardPlan {
    epoch: u64,
    len: usize,
    ranges: Vec<std::ops::Range<usize>>,
    alive_before: Vec<usize>,
}

impl ShardPlan {
    /// Builds a plan over `ctx` from contiguous `ranges` (typically a
    /// runtime's deterministic chunking of `0..ctx.len()`).
    ///
    /// # Panics
    ///
    /// Panics if the ranges do not cover `0..ctx.len()` contiguously and in
    /// order.
    pub fn build(ctx: &WireCtx, ranges: Vec<std::ops::Range<usize>>) -> Self {
        let mut alive_before = Vec::with_capacity(ranges.len());
        let mut next = 0usize;
        let mut alive = 0usize;
        for r in &ranges {
            assert_eq!(r.start, next, "shard ranges must be contiguous");
            assert!(
                r.end >= r.start && r.end <= ctx.len(),
                "range out of bounds"
            );
            alive_before.push(alive);
            alive += ctx.alive[r.clone()].iter().filter(|&&a| a).count();
            next = r.end;
        }
        assert_eq!(next, ctx.len(), "shard ranges must cover the vector");
        ShardPlan {
            epoch: ctx.epoch,
            len: ctx.len(),
            ranges,
            alive_before,
        }
    }

    /// Whether this plan is still valid for `ctx` at `num_shards` shards —
    /// the scratch-reuse key. The alive set is identified by the mask
    /// epoch: callers that mutate aliveness without bumping the epoch must
    /// rebuild explicitly.
    pub fn matches(&self, ctx: &WireCtx, num_shards: usize) -> bool {
        self.epoch == ctx.epoch && self.len == ctx.len() && self.ranges.len() == num_shards
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// Coordinate range of shard `s`.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.ranges[s].clone()
    }

    /// Number of mask-alive coordinates strictly before shard `s`.
    pub fn alive_before(&self, s: usize) -> usize {
        self.alive_before[s]
    }

    /// Mask epoch the plan was built against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Full flat length the plan covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan covers an empty vector.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn assert_matches(&self, ctx: &WireCtx) {
        assert!(
            self.epoch == ctx.epoch && self.len == ctx.len(),
            "shard plan built for epoch {}/len {} used with epoch {}/len {}",
            self.epoch,
            self.len,
            ctx.epoch,
            ctx.len()
        );
    }
}

/// Bytes of the per-segment index encoding for sorted flat `indices`.
fn maskcsr_index_bytes(indices: &[u32], segments: &[usize]) -> usize {
    let mut total = 0;
    walk_segment_indices(indices, segments, |seg, seg_indices| {
        total += 1;
        if seg_indices.len() != seg {
            total += 4 + sparse_index_width(seg) * seg_indices.len();
        }
    });
    total
}

/// Serializes the per-segment index encoding.
fn write_segment_indices(indices: &[u32], segments: &[usize], out: &mut Vec<u8>) {
    let mut start = 0u32;
    walk_segment_indices(indices, segments, |seg, seg_indices| {
        let dense = seg_indices.len() == seg;
        wire::put_bool(out, dense);
        if !dense {
            wire::put_u32(out, seg_indices.len() as u32);
            wire::put_offsets(out, seg_indices, start, sparse_index_width(seg));
        }
        start += seg as u32;
    });
}

/// Walks the per-segment index encoding, handing every decoded flat index
/// to `sink` in ascending order — the validation core behind
/// [`PayloadView::parse`] (which only validates) and
/// [`read_segment_indices`] (which collects). Rejects any frame a real
/// encoder could not have produced: out-of-range or unsorted offsets, a
/// sparse-flagged segment that covers every entry, or a total index count
/// that disagrees with the value count.
fn parse_segment_indices(
    r: &mut WireReader<'_>,
    segments: &[usize],
    nnz: usize,
    mut sink: impl FnMut(u32),
) -> Result<(), DecodeError> {
    let mut start = 0u32;
    let mut total = 0usize;
    for &seg in segments {
        if r.bool()? {
            if total + seg > nnz {
                return Err(DecodeError::Inconsistent("index/value count mismatch"));
            }
            for i in start..start + seg as u32 {
                sink(i);
            }
            total += seg;
        } else {
            let count = r.u32()? as usize;
            if count > seg || total + count > nnz {
                return Err(DecodeError::Inconsistent("index/value count mismatch"));
            }
            if count == seg && seg > 0 {
                return Err(DecodeError::Inconsistent("full segment not flagged dense"));
            }
            let width = sparse_index_width(seg);
            let mut prev: Option<u32> = None;
            for offset in wire::offsets(r.take_elems(count, width)?, width) {
                if offset as usize >= seg {
                    return Err(DecodeError::Inconsistent("offset outside segment"));
                }
                if prev.is_some_and(|p| offset <= p) {
                    return Err(DecodeError::Inconsistent("segment offsets not ascending"));
                }
                prev = Some(offset);
                sink(start + offset);
            }
            total += count;
        }
        start += seg as u32;
    }
    if total != nnz {
        return Err(DecodeError::Inconsistent("index/value count mismatch"));
    }
    Ok(())
}

/// Parses the per-segment index encoding back into sorted flat indices —
/// the inverse of [`write_segment_indices`]. The exact `nnz` capacity is
/// reserved up front, so the sink never reallocates mid-decode.
fn read_segment_indices(
    r: &mut WireReader<'_>,
    segments: &[usize],
    nnz: usize,
) -> Result<Vec<u32>, DecodeError> {
    let mut indices = Vec::with_capacity(nnz);
    parse_segment_indices(r, segments, nnz, |i| indices.push(i))?;
    Ok(indices)
}

/// Splits sorted flat `indices` by segment and hands each chunk (with its
/// segment length) to `f`.
fn walk_segment_indices(indices: &[u32], segments: &[usize], mut f: impl FnMut(usize, &[u32])) {
    let mut start = 0u32;
    let mut pos = 0usize;
    for &seg in segments {
        let end = start + seg as u32;
        let chunk_end = pos + indices[pos..].iter().take_while(|&&i| i < end).count();
        f(seg, &indices[pos..chunk_end]);
        pos = chunk_end;
        start = end;
    }
    assert_eq!(pos, indices.len(), "index outside every segment");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A two-segment context with a striped mask on the first segment.
    fn striped_ctx(epoch: u64) -> WireCtx {
        let mut alive = vec![true; 24];
        for (i, a) in alive.iter_mut().enumerate().take(16) {
            *a = i % 3 != 0;
        }
        WireCtx::new(alive, vec![16, 8], epoch)
    }

    fn masked(vector: &[f32], ctx: &WireCtx) -> Vec<f32> {
        vector
            .iter()
            .zip(ctx.alive.iter())
            .map(|(&v, &a)| if a { v } else { 0.0 })
            .collect()
    }

    #[test]
    fn codec_names_roundtrip() {
        for codec in [
            Codec::Dense,
            Codec::MaskCsr,
            Codec::QuantInt8,
            Codec::TopK {
                k_frac: 0.1,
                error_feedback: true,
            },
        ] {
            assert_eq!(
                Codec::from_name(codec.name()).map(|c| c.name()),
                Some(codec.name())
            );
        }
        assert_eq!(Codec::from_name("nope"), None);
        assert_eq!(Codec::default(), Codec::Dense);
    }

    #[test]
    fn codec_maskcsr_shared_epoch_drops_indices() {
        let ctx = striped_ctx(3);
        let v: Vec<f32> = (0..24).map(|i| i as f32 * 0.5).collect();
        let shared = Codec::MaskCsr.encode(&v, &ctx, 3, None);
        let stale = Codec::MaskCsr.encode(&v, &ctx, 2, None);
        match (&shared, &stale) {
            (
                Payload::MaskCsr { indices: None, .. },
                Payload::MaskCsr {
                    indices: Some(idx), ..
                },
            ) => assert_eq!(idx.len(), ctx.alive_count()),
            other => panic!("unexpected payload shapes: {other:?}"),
        }
        assert!(shared.encoded_len(&ctx) < stale.encoded_len(&ctx));
        // Both decode to the alive-masked vector.
        assert_eq!(shared.decode(&ctx), masked(&v, &ctx));
        assert_eq!(stale.decode(&ctx), masked(&v, &ctx));
    }

    #[test]
    #[should_panic(expected = "different mask epoch")]
    fn codec_values_only_rejects_foreign_epoch() {
        let ctx = striped_ctx(1);
        let v = vec![1.0f32; 24];
        let p = Codec::MaskCsr.encode(&v, &ctx, 1, None);
        let other = striped_ctx(2);
        let _ = p.decode(&other);
    }

    #[test]
    fn codec_indexed_payload_decodes_without_matching_mask() {
        // A stale device's mask differs from the server's: indices travel,
        // and the server decodes without consulting its own alive set.
        let dev_ctx = striped_ctx(1);
        let v: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let p = Codec::MaskCsr.encode(&v, &dev_ctx, 9, None);
        let server_ctx = WireCtx::new(vec![true; 24], vec![16, 8], 9);
        assert_eq!(p.decode(&server_ctx), masked(&v, &dev_ctx));
    }

    #[test]
    fn codec_topk_keeps_largest_magnitudes() {
        let ctx = WireCtx::dense(6);
        let v = [0.1f32, -5.0, 0.2, 4.0, -0.3, 0.0];
        let p = Codec::TopK {
            k_frac: 0.34, // ceil(0.34 * 6) = 3
            error_feedback: false,
        }
        .encode(&v, &ctx, 0, None);
        assert_eq!(p.decode(&ctx), vec![0.0, -5.0, 0.0, 4.0, -0.3, 0.0]);
        assert_eq!(p.encoded_len(&ctx), topk_pairs_encoded_len(3));
    }

    #[test]
    fn codec_topk_error_feedback_carries_residual() {
        let ctx = WireCtx::dense(4);
        let codec = Codec::TopK {
            k_frac: 0.25, // 1 coordinate per round
            error_feedback: true,
        };
        let mut residual = Vec::new();
        let p1 = codec.encode(&[1.0, 3.0, -2.0, 0.5], &ctx, 0, Some(&mut residual));
        assert_eq!(p1.decode(&ctx), vec![0.0, 3.0, 0.0, 0.0]);
        assert_eq!(residual, vec![1.0, 0.0, -2.0, 0.5]);
        // Next round's zero delta still drains the residual.
        let p2 = codec.encode(&[0.0; 4], &ctx, 0, Some(&mut residual));
        assert_eq!(p2.decode(&ctx), vec![0.0, 0.0, -2.0, 0.0]);
        assert_eq!(residual, vec![1.0, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn codec_topk_error_feedback_drains_to_zero() {
        // Constant deltas for a few rounds, then silence: with error
        // feedback every unit of mass is eventually transmitted and the
        // accumulator returns to exactly zero.
        let n = 8;
        let ctx = WireCtx::dense(n);
        let codec = Codec::TopK {
            k_frac: 0.25, // 2 of 8 coordinates per round
            error_feedback: true,
        };
        let mut residual = Vec::new();
        let mut received = vec![0.0f32; n];
        let constant = vec![1.0f32; n];
        let rounds_active = 3;
        for _ in 0..rounds_active {
            let p = codec.encode(&constant, &ctx, 0, Some(&mut residual));
            for (r, v) in received.iter_mut().zip(p.decode(&ctx)) {
                *r += v;
            }
        }
        // Drain with zero deltas: residual mass keeps flowing out.
        for _ in 0..16 {
            let p = codec.encode(&[0.0; 8], &ctx, 0, Some(&mut residual));
            for (r, v) in received.iter_mut().zip(p.decode(&ctx)) {
                *r += v;
            }
        }
        assert!(residual.iter().all(|&r| r == 0.0), "residual {residual:?}");
        assert_eq!(received, vec![rounds_active as f32; n]);
    }

    /// The `TopK` arm as it was before the threshold pass: a `TopKBuffer`
    /// over a copy of `delta + residual`, sorted by index, and the residual
    /// overwritten with that copy minus the picks. The encoder must match it
    /// bit for bit, payload and residual.
    fn topk_oracle(
        vector: &[f32],
        k: usize,
        error_feedback: bool,
        residual: &mut Vec<f32>,
    ) -> (Vec<u32>, Vec<f32>) {
        let mut input = vector.to_vec();
        if error_feedback && !residual.is_empty() {
            for (x, r) in input.iter_mut().zip(residual.iter()) {
                *x += r;
            }
        }
        let mut buf = TopKBuffer::new(k);
        buf.extend_from_slice(&input);
        let mut picked = buf.into_sorted();
        picked.sort_unstable_by_key(|&(i, _)| i);
        if error_feedback {
            *residual = input;
            for &(i, _) in &picked {
                residual[i] = 0.0;
            }
        }
        picked.into_iter().map(|(i, v)| (i as u32, v)).unzip()
    }

    /// Encodes `vector` at exactly `k` picks and checks the payload and the
    /// residual against [`topk_oracle`], bit for bit; returns the payload's
    /// indices. A NaN in the residual only has to be NaN on both sides: which
    /// operand's payload a NaN + NaN sum carries is the code generator's
    /// choice (the oracle's own loop yields the delta's in its vector body
    /// and the residual's in its scalar tail), and a NaN is never sent.
    fn topk_against_oracle(
        vector: &[f32],
        k: usize,
        error_feedback: bool,
        residual: &mut Vec<f32>,
        oracle_residual: &mut Vec<f32>,
    ) -> Vec<u32> {
        let n = vector.len();
        let codec = Codec::TopK {
            k_frac: (k as f32 - 0.5) / n as f32,
            error_feedback,
        };
        assert_eq!(Codec::topk_count((k as f32 - 0.5) / n as f32, n), k);
        let p = codec.encode(vector, &WireCtx::dense(n), 0, Some(residual));
        let (want_idx, want_val) = topk_oracle(vector, k, error_feedback, oracle_residual);
        let bits = |v: &[f32]| {
            v.iter()
                .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
                .collect::<Vec<_>>()
        };
        match p {
            Payload::TopK {
                indices,
                values,
                len,
            } => {
                assert_eq!(len, n);
                assert_eq!(indices, want_idx, "indices of {vector:?} at k = {k}");
                assert_eq!(bits(&values), bits(&want_val), "values of {vector:?}");
                assert_eq!(bits(residual), bits(oracle_residual), "residual");
                indices
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    /// The tie-heavy alphabet of the oracle proptest: `±0`, `±1`, `±2`, a
    /// subnormal, NaN of either sign and `±inf`, or (three draws in
    /// fifteen) `random`.
    fn tie_heavy(choice: usize, random: f32) -> f32 {
        match choice {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => -1.0,
            4 => 2.0,
            5 => -2.0,
            6 => f32::from_bits(3),
            7 => f32::NAN,
            8 => -f32::NAN,
            9 => f32::INFINITY,
            10 => f32::NEG_INFINITY,
            _ => random,
        }
    }

    #[test]
    fn codec_topk_takes_every_finite_value_when_at_most_k_are() {
        let v = [f32::NAN, 1.0, f32::INFINITY, -2.0, -0.0, f32::NEG_INFINITY];
        assert_eq!(magnitude_cut(&v, 3, &mut [0; 3]), Some(0));
        let (mut res, mut oracle) = (Vec::new(), Vec::new());
        let idx = topk_against_oracle(&v, 3, true, &mut res, &mut oracle);
        assert_eq!(idx, vec![1, 3, 4]);
    }

    #[test]
    fn codec_topk_exact_threshold_collects_in_index_order() {
        let v = [0.5f32, -3.0, 0.25, 2.0, -1.0, 3.0, f32::NAN, 0.0];
        let cut = magnitude_cut(&v, 3, &mut [0; 3]).expect("no tie at the cut");
        assert!(cut > magnitude_key(-1.0) && cut <= magnitude_key(2.0));
        let (mut res, mut oracle) = (Vec::new(), Vec::new());
        let idx = topk_against_oracle(&v, 3, false, &mut res, &mut oracle);
        assert_eq!(idx, vec![1, 3, 5]);
        assert!(res.is_empty(), "no feedback, no residual");
        // The cut inside an 11-bit bin of three keys, fewer than k: they are
        // gathered and `t` is the second largest of them.
        let v = [1.0f32, 0.1, 1.02, 3.5, -1.01, 0.2, 3.0, 0.3, 0.05, 0.01];
        assert_eq!(magnitude_cut(&v, 4, &mut [0; 4]), Some(magnitude_key(1.01)));
        let idx = topk_against_oracle(&v, 4, true, &mut res, &mut oracle);
        assert_eq!(idx, vec![2, 3, 4, 6]);
    }

    #[test]
    fn codec_topk_tie_overflow_at_zero_runs_the_buffer() {
        // Masked zeros of both signs: three slots, one nonzero value, five
        // zeros tied at the cut.
        let v = [0.0f32, -0.0, 0.0, 3.0, 0.0, -0.0];
        assert_eq!(magnitude_cut(&v, 3, &mut [0; 3]), None);
        let (mut res, mut oracle) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let idx = topk_against_oracle(&v, 3, true, &mut res, &mut oracle);
            assert!(idx.contains(&3));
        }
    }

    #[test]
    fn codec_topk_k_equal_to_n_sends_every_finite_value() {
        let v = [1.0f32, -1.0, 1.0, f32::NAN, 7.5, 1.0];
        assert_eq!(magnitude_cut(&v, 6, &mut [0; 6]), Some(0));
        let (mut res, mut oracle) = (Vec::new(), Vec::new());
        let idx = topk_against_oracle(&v, 6, true, &mut res, &mut oracle);
        assert_eq!(idx, vec![0, 1, 2, 4, 5]);
        assert!(res[3].is_nan(), "a NaN is never sent and stays behind");
    }

    #[test]
    fn codec_size_hints_match_encodes() {
        let ctx = striped_ctx(5);
        let v: Vec<f32> = (0..24).map(|i| (i as f32).sin()).collect();
        for codec in [
            Codec::Dense,
            Codec::MaskCsr,
            Codec::QuantInt8,
            Codec::TopK {
                k_frac: 0.2,
                error_feedback: false,
            },
        ] {
            let shared = codec.encode(&v, &ctx, ctx.epoch, None);
            assert_eq!(
                codec.encoded_len_for(&ctx, true),
                shared.encoded_len(&ctx),
                "{} shared",
                codec.name()
            );
            let stale = codec.encode(&v, &ctx, ctx.epoch + 1, None);
            assert_eq!(
                codec.encoded_len_for(&ctx, false),
                stale.encoded_len(&ctx),
                "{} stale",
                codec.name()
            );
        }
    }

    #[test]
    fn codec_index_width_derivation() {
        assert_eq!(sparse_index_width(100), 2);
        assert_eq!(sparse_index_width(1 << 16), 2);
        assert_eq!(sparse_index_width((1 << 16) + 1), 4);
    }

    #[test]
    fn codec_dense_segments_need_no_offsets() {
        // Second segment fully alive: the indexed encoding marks it dense
        // and pays only the flag byte for it.
        let ctx = striped_ctx(0);
        let v = vec![1.0f32; 24];
        let stale = Codec::MaskCsr.encode(&v, &ctx, 7, None);
        let nnz_seg0 = ctx.alive[..16].iter().filter(|&&a| a).count();
        let expect = PAYLOAD_HEADER_BYTES + 8 + 1 + 4          // header
            + 4 * ctx.alive_count()                            // values
            + 1 + 4 + 2 * nnz_seg0                             // sparse segment 0
            + 1; // dense segment 1: flag only
        assert_eq!(stale.encoded_len(&ctx), expect);
    }

    /// The one-shard plan: the full pass of the single coordinate walk.
    fn full_plan(ctx: &WireCtx) -> ShardPlan {
        ShardPlan::build(ctx, std::iter::once(0..ctx.len()).collect())
    }

    fn arb_codec() -> impl Strategy<Value = Codec> {
        (0usize..4, 0.05f32..1.0, 0usize..2).prop_map(|(tag, k_frac, ef)| match tag {
            0 => Codec::Dense,
            1 => Codec::MaskCsr,
            2 => Codec::QuantInt8,
            _ => Codec::TopK {
                k_frac,
                error_feedback: ef == 1,
            },
        })
    }

    fn arb_ctx() -> impl Strategy<Value = (WireCtx, Vec<f32>)> {
        (proptest::collection::vec(1usize..12, 1..4), 0u64..100)
            .prop_flat_map(|(segments, epoch)| {
                let n: usize = segments.iter().sum();
                (
                    proptest::collection::vec(0usize..2, n),
                    proptest::collection::vec(-4.0f32..4.0, n),
                    Just(segments),
                    Just(epoch),
                )
            })
            .prop_map(|(alive_bits, values, segments, epoch)| {
                let alive: Vec<bool> = alive_bits.into_iter().map(|b| b == 1).collect();
                (WireCtx::new(alive, segments, epoch), values)
            })
    }

    /// The per-element serializer the bulk coders replaced, kept as the
    /// oracle [`Payload::to_bytes`] must match byte for byte.
    fn to_bytes_oracle(p: &Payload, ctx: &WireCtx) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(match p {
            Payload::Dense { .. } => 0,
            Payload::MaskCsr { .. } => 1,
            Payload::QuantInt8 { .. } => 2,
            Payload::TopK { .. } => 3,
        });
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        match p {
            Payload::Dense { values } => {
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Payload::MaskCsr {
                epoch,
                values,
                indices,
                ..
            } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.push(u8::from(indices.is_some()));
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                if let Some(idx) = indices {
                    let mut start = 0u32;
                    walk_segment_indices(idx, &ctx.segments, |seg, seg_indices| {
                        let dense = seg_indices.len() == seg;
                        out.push(u8::from(dense));
                        if !dense {
                            out.extend_from_slice(&(seg_indices.len() as u32).to_le_bytes());
                            for &i in seg_indices {
                                let offset = i - start;
                                if sparse_index_width(seg) == 2 {
                                    out.extend_from_slice(&(offset as u16).to_le_bytes());
                                } else {
                                    out.extend_from_slice(&offset.to_le_bytes());
                                }
                            }
                        }
                        start += seg as u32;
                    });
                }
            }
            Payload::QuantInt8 { params, codes, .. } => {
                for p in params {
                    out.extend_from_slice(&p.scale.to_le_bytes());
                    out.extend_from_slice(&p.min.to_le_bytes());
                }
                for &c in codes {
                    out.push(c as u8);
                }
            }
            Payload::TopK {
                indices, values, ..
            } => {
                out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
                for (i, v) in indices.iter().zip(values.iter()) {
                    out.extend_from_slice(&i.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Both index widths: a segment past 2^16 entries stores `u32` offsets.
    /// Every codec's bytes equal the oracle's, and parse back to the payload.
    #[test]
    fn codec_to_bytes_matches_oracle_at_both_index_widths() {
        let segments = vec![5, 70_000, 3];
        let n: usize = segments.iter().sum();
        let alive: Vec<bool> = (0..n).map(|i| i % 7 != 3).collect();
        let ctx = WireCtx::new(alive, segments, 4);
        let values: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let codecs = [
            Codec::Dense,
            Codec::MaskCsr,
            Codec::QuantInt8,
            Codec::TopK {
                k_frac: 0.3,
                error_feedback: false,
            },
        ];
        for codec in codecs {
            for peer in [4, 5] {
                let p = codec.encode(&values, &ctx, peer, None);
                let bytes = p.to_bytes(&ctx);
                assert_eq!(bytes, to_bytes_oracle(&p, &ctx), "{codec:?} peer {peer}");
                assert_eq!(Payload::from_bytes(&bytes, &ctx), Ok(p), "{codec:?}");
            }
        }
    }

    #[test]
    fn codec_from_bytes_rejects_garbage_without_panicking() {
        let ctx = striped_ctx(2);
        // Unknown tag.
        assert_eq!(
            Payload::from_bytes(&[9, 0, 0, 0, 0], &ctx),
            Err(DecodeError::BadTag(9))
        );
        // Empty frame.
        assert!(matches!(
            Payload::from_bytes(&[], &ctx),
            Err(DecodeError::Truncated { .. })
        ));
        // Dense header promising more values than the context describes:
        // rejected before allocating anything huge, and before the decode
        // paths that would panic on a length mismatch.
        let mut huge = vec![0u8; 5];
        huge[0] = 0;
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Payload::from_bytes(&huge, &ctx),
            Err(DecodeError::Inconsistent("length differs from context"))
        );
        // A well-formed frame for a *different* model is equally refused:
        // accepting it would trade the never-panics decode contract for a
        // panic later in aggregation.
        let foreign = Codec::Dense.encode(&[1.0f32; 8], &WireCtx::dense(8), 0, None);
        assert_eq!(
            Payload::from_bytes(&foreign.to_bytes(&WireCtx::dense(8)), &ctx),
            Err(DecodeError::Inconsistent("length differs from context"))
        );
        // Values-only MaskCsr under a foreign mask epoch: the receiver
        // could not scatter it safely, so the frame is rejected up front
        // with the typed epoch mismatch (replay detection feeds on it).
        let values_only = Codec::MaskCsr.encode(&[1.0f32; 24], &ctx, ctx.epoch, None);
        let foreign_epoch = striped_ctx(ctx.epoch + 1);
        assert!(matches!(
            Payload::from_bytes(&values_only.to_bytes(&ctx), &foreign_epoch),
            Err(DecodeError::StaleEpoch { .. })
        ));
        // Trailing garbage after a valid payload.
        let p = Codec::Dense.encode(&[1.0f32; 24], &ctx, ctx.epoch, None);
        let mut bytes = p.to_bytes(&ctx);
        bytes.push(0xAA);
        assert_eq!(
            Payload::from_bytes(&bytes, &ctx),
            Err(DecodeError::TrailingBytes(1))
        );
        // TopK with unsorted pair indices.
        let ctx6 = WireCtx::dense(6);
        let bad = Payload::TopK {
            indices: vec![3, 1],
            values: vec![1.0, 2.0],
            len: 6,
        };
        assert!(matches!(
            Payload::from_bytes(&bad.to_bytes(&ctx6), &ctx6),
            Err(DecodeError::Inconsistent(_))
        ));
        // MaskCsr index flag outside {0, 1}.
        let shared = Codec::MaskCsr.encode(&[1.0f32; 24], &ctx, ctx.epoch, None);
        let mut bytes = shared.to_bytes(&ctx);
        bytes[13] = 7; // the indexed flag byte (after tag+len+epoch)
        assert!(matches!(
            Payload::from_bytes(&bytes, &ctx),
            Err(DecodeError::Inconsistent(_))
        ));
    }

    #[test]
    fn codec_from_bytes_error_display_is_readable() {
        let e = DecodeError::Truncated { needed: 4, have: 1 };
        assert!(e.to_string().contains("truncated"));
        assert!(DecodeError::BadTag(7).to_string().contains('7'));
        assert!(DecodeError::Inconsistent("x").to_string().contains('x'));
        assert!(DecodeError::TrailingBytes(3).to_string().contains('3'));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Byte round-trip: `from_bytes(to_bytes(p)) == Ok(p)` exactly, for
        /// every codec × alive pattern × matching/stale mask epoch.
        #[test]
        fn codec_from_bytes_inverts_to_bytes(
            (ctx, values) in arb_ctx(),
            codec in arb_codec(),
            shared in 0usize..2,
        ) {
            let peer = if shared == 1 { ctx.epoch } else { ctx.epoch.wrapping_add(1) };
            let mut residual = Vec::new();
            let p = codec.encode(&values, &ctx, peer, Some(&mut residual));
            let bytes = p.to_bytes(&ctx);
            prop_assert_eq!(Payload::from_bytes(&bytes, &ctx), Ok(p));
        }

        /// The bulk serializer emits the per-element oracle's bytes for
        /// every codec × alive pattern × matching/stale mask epoch.
        #[test]
        fn codec_to_bytes_matches_per_element_oracle(
            (ctx, values) in arb_ctx(),
            codec in arb_codec(),
            shared in 0usize..2,
        ) {
            let peer = if shared == 1 { ctx.epoch } else { ctx.epoch.wrapping_add(1) };
            let mut residual = Vec::new();
            let p = codec.encode(&values, &ctx, peer, Some(&mut residual));
            prop_assert_eq!(p.to_bytes(&ctx), to_bytes_oracle(&p, &ctx));
        }

        /// Fuzz-ish robustness: every strict prefix of a valid frame is
        /// rejected with `Err` (never a panic), and mutating any single byte
        /// either fails to parse or re-encodes to the mutated bytes.
        #[test]
        fn codec_from_bytes_never_panics_on_corruption(
            (ctx, values) in arb_ctx(),
            codec in arb_codec(),
            flip_pos in 0usize..4096,
            flip_xor in 1u32..256,
        ) {
            let p = codec.encode(&values, &ctx, ctx.epoch, Some(&mut Vec::new()));
            let bytes = p.to_bytes(&ctx);
            for cut in 0..bytes.len() {
                prop_assert!(Payload::from_bytes(&bytes[..cut], &ctx).is_err());
            }
            let mut mutated = bytes.clone();
            let pos = flip_pos % mutated.len();
            mutated[pos] ^= flip_xor as u8;
            if let Ok(q) = Payload::from_bytes(&mutated, &ctx) {
                // Anything that parses must be canonical: re-encoding it
                // reproduces the mutated frame byte-for-byte.
                prop_assert_eq!(q.to_bytes(&ctx), mutated);
            }
        }
        #[test]
        fn codec_encoded_len_matches_wire_bytes(
            (ctx, values) in arb_ctx(),
            codec in arb_codec(),
            shared in 0usize..2,
        ) {
            let peer = if shared == 1 { ctx.epoch } else { ctx.epoch.wrapping_add(1) };
            let mut residual = Vec::new();
            let p = codec.encode(&values, &ctx, peer, Some(&mut residual));
            prop_assert_eq!(p.encoded_len(&ctx), p.to_bytes(&ctx).len());
        }

        /// Dense and MaskCsr round-trip exactly on their support; QuantInt8
        /// stays within the documented half-step bound per segment.
        #[test]
        fn codec_roundtrip_error_bounds((ctx, values) in arb_ctx()) {
            // Dense: exact everywhere.
            let dense = Codec::Dense.encode(&values, &ctx, ctx.epoch, None);
            prop_assert_eq!(dense.decode(&ctx), values.clone());

            // MaskCsr: exact on alive coordinates, zero elsewhere.
            for peer in [ctx.epoch, ctx.epoch + 1] {
                let p = Codec::MaskCsr.encode(&values, &ctx, peer, None);
                let got = p.decode(&ctx);
                for ((&g, &v), &a) in got.iter().zip(values.iter()).zip(ctx.alive.iter()) {
                    prop_assert_eq!(g, if a { v } else { 0.0 });
                }
            }

            // QuantInt8: |error| ≤ segment range / 510.
            let q = Codec::QuantInt8.encode(&values, &ctx, ctx.epoch, None);
            let got = q.decode(&ctx);
            let mut start = 0;
            for &seg in &ctx.segments {
                let s = &values[start..start + seg];
                let lo = s.iter().cloned().fold(f32::INFINITY, f32::min);
                let hi = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let bound = (hi - lo) / 510.0 + 1e-5;
                for (&v, &g) in s.iter().zip(got[start..start + seg].iter()) {
                    prop_assert!((v - g).abs() <= bound, "{v} -> {g} beyond {bound}");
                }
                start += seg;
            }
        }

        /// TopK transmits exactly `ceil(k_frac · n)` coordinates and they
        /// are the largest magnitudes of its input.
        #[test]
        fn codec_topk_count_and_selection(
            values in proptest::collection::vec(-4.0f32..4.0, 1..40),
            k_frac in 0.05f32..1.0,
        ) {
            let ctx = WireCtx::dense(values.len());
            let codec = Codec::TopK { k_frac, error_feedback: false };
            let p = codec.encode(&values, &ctx, 0, None);
            let k = ((k_frac as f64 * values.len() as f64).ceil() as usize)
                .clamp(1, values.len());
            match &p {
                Payload::TopK { indices, .. } => prop_assert_eq!(indices.len(), k),
                other => prop_assert!(false, "unexpected payload {other:?}"),
            }
            // No untransmitted magnitude strictly exceeds a transmitted one.
            let dec = p.decode(&ctx);
            let min_sent = dec
                .iter()
                .filter(|v| **v != 0.0)
                .map(|v| v.abs())
                .fold(f32::INFINITY, f32::min);
            for (&v, &d) in values.iter().zip(dec.iter()) {
                if d == 0.0 {
                    prop_assert!(v.abs() <= min_sent + 1e-6);
                }
            }
        }

        /// `TopK` against the `TopKBuffer` oracle on a tie-heavy alphabet, at
        /// every `k` from 1 to n, with and without error feedback, over three
        /// chained encodes so residuals carry over: payload indices, value
        /// bits and residual bits equal.
        #[test]
        fn codec_topk_matches_topk_buffer_oracle(
            (rounds, k) in (1usize..40).prop_flat_map(|n| (
                proptest::collection::vec(
                    proptest::collection::vec((0usize..15, -4.0f32..4.0), n),
                    3,
                ),
                1usize..=n,
            )),
            error_feedback in 0usize..2,
        ) {
            let (mut res, mut oracle) = (Vec::new(), Vec::new());
            for round in &rounds {
                let v: Vec<f32> = round.iter().map(|&(c, r)| tie_heavy(c, r)).collect();
                topk_against_oracle(&v, k, error_feedback == 1, &mut res, &mut oracle);
            }
        }

        /// Every truncation prefix and single-byte mutation of a valid
        /// frame yields the SAME typed `DecodeError` (never a panic) from
        /// the borrowed parser as from the owned one, and anything the
        /// borrowed parser accepts re-encodes canonically.
        #[test]
        fn codec_view_parse_never_panics_on_corruption(
            (ctx, values) in arb_ctx(),
            codec in arb_codec(),
            flip_pos in 0usize..4096,
            flip_xor in 1u32..256,
        ) {
            let p = codec.encode(&values, &ctx, ctx.epoch, Some(&mut Vec::new()));
            let bytes = p.to_bytes(&ctx);
            for cut in 0..bytes.len() {
                let e = PayloadView::parse(&bytes[..cut], &ctx)
                    .map(|v| v.to_payload(&ctx));
                prop_assert_eq!(e, Payload::from_bytes(&bytes[..cut], &ctx));
                prop_assert!(PayloadView::parse(&bytes[..cut], &ctx).is_err());
            }
            let mut mutated = bytes.clone();
            let pos = flip_pos % mutated.len();
            mutated[pos] ^= flip_xor as u8;
            match PayloadView::parse(&mutated, &ctx) {
                Ok(v) => {
                    let q = v.to_payload(&ctx);
                    prop_assert_eq!(Payload::from_bytes(&mutated, &ctx), Ok(q.clone()));
                    prop_assert_eq!(q.to_bytes(&ctx), mutated);
                }
                Err(e) => prop_assert_eq!(Payload::from_bytes(&mutated, &ctx), Err(e)),
            }
        }

        /// N-shard accumulate ≡ one-shard accumulate ≡ `decode` then a
        /// weighted add, bit for bit — for any shard count (untransmitted
        /// coordinates decode to zero and leave the accumulator untouched).
        /// This is the determinism contract the sharded aggregation engine
        /// rests on.
        #[test]
        fn codec_shard_accumulate_bit_identical_to_full(
            (ctx, values) in arb_ctx(),
            codec in arb_codec(),
            shared in 0usize..2,
            num_shards in 1usize..6,
            weight in 0.1f64..4.0,
        ) {
            let peer = if shared == 1 { ctx.epoch } else { ctx.epoch.wrapping_add(1) };
            let p = codec.encode(&values, &ctx, peer, Some(&mut Vec::new()));

            let n = ctx.len();
            let ranges: Vec<_> = (0..num_shards)
                .map(|s| (s * n / num_shards)..((s + 1) * n / num_shards))
                .collect();
            let plan = ShardPlan::build(&ctx, ranges);
            prop_assert!(plan.matches(&ctx, num_shards));

            let mut full = vec![0.5f64; n];
            p.accumulate_shard_into(weight, &mut full, &ctx, &full_plan(&ctx), 0);

            let mut sharded = vec![0.5f64; n];
            for s in 0..plan.num_shards() {
                p.accumulate_shard_into(weight, &mut sharded[plan.range(s)], &ctx, &plan, s);
            }
            for (a, b) in full.iter().zip(sharded.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, &d) in full.iter().zip(p.decode(&ctx).iter()) {
                prop_assert_eq!(a.to_bits(), (0.5 + weight * d as f64).to_bits());
            }
        }
    }
}
