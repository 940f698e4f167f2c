//! Server-side aggregation: one engine, [`Aggregator::aggregate_into`],
//! turns a cohort's encoded update deltas into the next global model —
//! `anchor + Σ wₖ·decode(Δₖ)` for the weighted rules, a per-coordinate
//! order statistic for the rank-based ones — plus the Eq. 4 average of the
//! BatchNorm statistics ([`aggregate_bn_stats`]).
//!
//! The engine runs in four steps: **screen** (weighted rules drop weights
//! that are not finite and positive, then normalize), **shard plan** (the
//! output coordinates are split into disjoint ranges, cached per mask
//! epoch), **accumulate / rank** (each shard folds the cohort in cohort
//! order, so any shard count is bit-identical to one pass), **anchor add**.
//! Sparse payloads are accumulated straight out of their encoded form; only
//! the robust rules decode to dense deltas, into recycled buffers.
//!
//! Every close of the server's round loop calls it the same way. Staleness
//! is not a second API: an arrival weighs `samples ·`
//! [`staleness_weight`]`(s)` (the FedBuff discount), which for a barrier
//! round's never-stale arrivals is exactly `samples`.
//!
//! The [`Aggregator`] enum layers the robust rules of the trimmed-mean /
//! median family (Yin et al., ICML'18) and norm-bounded clipping on top of
//! the same payload pipeline, so a hostile cohort member's poisoned delta
//! is bounded or outvoted instead of averaged in.

use crate::config::ConfigError;
use ft_nn::BnStats;
use ft_runtime::Runtime;
use ft_sparse::{Payload, ShardPlan, WireCtx};
use ft_tensor::RankScratch;
use serde::{Deserialize, Serialize};

/// FedBuff-style staleness discount: an update computed `staleness` server
/// versions ago is weighted by `1 / sqrt(1 + staleness)` (Nguyen et al.,
/// "Federated Learning with Buffered Asynchronous Aggregation").
pub fn staleness_weight(staleness: usize) -> f64 {
    1.0 / (1.0 + staleness as f64).sqrt()
}

/// Weighted average of per-layer BatchNorm statistics (Eq. 4):
/// `µ = Σ_k (|D̂_k|/Σ|D̂_j|) µ_k` and likewise for `σ²`.
///
/// # Panics
///
/// Panics if `updates` is empty or the layer structures differ.
pub fn aggregate_bn_stats(updates: &[(&[BnStats], f64)]) -> Vec<BnStats> {
    assert!(
        !updates.is_empty(),
        "bn aggregation needs at least one update"
    );
    let total_w: f64 = updates.iter().map(|(_, w)| *w).sum();
    assert!(total_w > 0.0, "bn aggregation weights sum to zero");
    try_aggregate_bn_stats(updates).expect("nonempty updates with positive weight")
}

/// [`aggregate_bn_stats`] without the degenerate-cohort panics: `None` when
/// `updates` is empty or all weights are zero, so schedulers can keep the
/// previous global statistics instead.
pub fn try_aggregate_bn_stats(updates: &[(&[BnStats], f64)]) -> Option<Vec<BnStats>> {
    let total_w: f64 = updates.iter().map(|(_, w)| *w).sum();
    if updates.is_empty() || !total_w.is_finite() || total_w <= 0.0 {
        return None;
    }
    let layers = updates[0].0.len();
    let mut out: Vec<BnStats> = updates[0]
        .0
        .iter()
        .map(|s| BnStats {
            mean: vec![0.0; s.mean.len()],
            var: vec![0.0; s.var.len()],
        })
        .collect();
    for (stats, w) in updates {
        assert_eq!(stats.len(), layers, "bn layer count mismatch");
        let wn = (*w / total_w) as f32;
        for (o, s) in out.iter_mut().zip(stats.iter()) {
            assert_eq!(o.mean.len(), s.mean.len(), "bn channel count mismatch");
            for (om, &sm) in o.mean.iter_mut().zip(s.mean.iter()) {
                *om += wn * sm;
            }
            for (ov, &sv) in o.var.iter_mut().zip(s.var.iter()) {
                *ov += wn * sv;
            }
        }
    }
    Some(out)
}

/// Server aggregation rule: how one round's accepted payloads become the
/// next global model. `FedAvg` is the throughput default; the other rules
/// trade compute (each payload is decoded to a dense delta) for robustness
/// against poisoned cohort members, per the standard Byzantine-tolerant
/// aggregation families.
///
/// Selected via `FlConfig.aggregator` and validated by
/// `FlConfig::validate`; works under both scheduler loops (the synchronous
/// barrier applies the rule against the round's anchor, the buffered event
/// loop against the current global).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Aggregator {
    /// Weighted averaging of payload deltas: `anchor + Σ wₖ/Σw · Δₖ` over
    /// the updates whose weight is finite and positive, accumulated
    /// coordinate-by-coordinate straight out of the wire representation.
    /// Weights are sample counts (barrier) or staleness-discounted sample
    /// counts (buffered).
    #[default]
    FedAvg,
    /// Coordinate-wise β-trimmed mean: per coordinate, drop the
    /// `t = min(⌊β·n⌋, (n−1)/2)` largest and smallest delta values and
    /// average the rest, unweighted. Tolerates up to `t` arbitrary
    /// (sign-flipped, scaled, NaN) cohort members per coordinate.
    TrimmedMean {
        /// Trim fraction per tail, in `[0, 0.5)`.
        beta: f64,
    },
    /// Coordinate-wise median of the delta values (mean of the two middle
    /// order statistics for even cohorts) — the β→0.5 limit of trimming.
    CoordinateMedian,
    /// FedAvg over norm-bounded deltas: each decoded delta is scaled by
    /// `min(1, τ / ‖δ‖₂)` before the weighted average, bounding any single
    /// device's pull on the global (the norm-clipping defense against
    /// model poisoning). A zero or non-finite norm leaves the delta
    /// unscaled — clipping cannot repair NaNs, only bound magnitudes.
    NormClipped {
        /// L2 clipping threshold, finite and positive.
        tau: f64,
    },
}

impl Aggregator {
    /// Stable CLI / display name (`fedavg`, `trimmed_mean`, `median`,
    /// `norm_clipped`).
    pub fn name(&self) -> &'static str {
        match self {
            Aggregator::FedAvg => "fedavg",
            Aggregator::TrimmedMean { .. } => "trimmed_mean",
            Aggregator::CoordinateMedian => "median",
            Aggregator::NormClipped { .. } => "norm_clipped",
        }
    }

    /// Parses `name` or `name:param` (`trimmed_mean:0.25`,
    /// `norm_clipped:2.0`); parameterized rules fall back to `β = 0.2` /
    /// `τ = 1.0` when the parameter is omitted. Returns `None` for unknown
    /// names or unparseable parameters — validity of the *value* is
    /// [`validate`](Self::validate)'s job.
    pub fn from_name(s: &str) -> Option<Aggregator> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let parsed = match param {
            Some(p) => Some(p.parse::<f64>().ok()?),
            None => None,
        };
        match name {
            "fedavg" => Some(Aggregator::FedAvg),
            "trimmed_mean" => Some(Aggregator::TrimmedMean {
                beta: parsed.unwrap_or(0.2),
            }),
            "median" | "coordinate_median" => Some(Aggregator::CoordinateMedian),
            "norm_clipped" => Some(Aggregator::NormClipped {
                tau: parsed.unwrap_or(1.0),
            }),
            _ => None,
        }
    }

    /// Checks the rule's parameter: `β` must be finite in `[0, 0.5)`, `τ`
    /// finite and strictly positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            Aggregator::FedAvg | Aggregator::CoordinateMedian => Ok(()),
            Aggregator::TrimmedMean { beta } => {
                if beta.is_finite() && (0.0..0.5).contains(&beta) {
                    Ok(())
                } else {
                    Err(ConfigError::BadTrimFraction { beta })
                }
            }
            Aggregator::NormClipped { tau } => {
                if tau.is_finite() && tau > 0.0 {
                    Ok(())
                } else {
                    Err(ConfigError::BadClipNorm { tau })
                }
            }
        }
    }
}

/// Round-persistent scratch for [`Aggregator::aggregate_into`]: every buffer
/// the sharded engine touches lives here and is recycled round over round,
/// so a steady-state round (same mask epoch, same cohort size) allocates
/// nothing. The shard plan is the reuse key — it is rebuilt only when the
/// mask epoch, model length, or shard count changes
/// ([`ShardPlan::matches`]).
#[derive(Debug, Default)]
pub struct AggScratch {
    /// `f64` delta accumulator, one slot per coordinate.
    acc: Vec<f64>,
    /// The produced global parameters (what [`AggregateRef::params`]
    /// borrows).
    params: Vec<f32>,
    /// Decoded dense deltas for norm clipping, one per accepted update.
    deltas: Vec<Vec<f32>>,
    /// The rank rules' buffers, one per shard.
    rank: Vec<RankShard>,
    /// Screened normalized weights of the weighted rules (see
    /// [`screen_weights`]).
    weights: Vec<f64>,
    /// Cached shard plan, rebuilt on `(epoch, len, shard count)` change.
    plan: Option<ShardPlan>,
}

impl AggScratch {
    /// Empty scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caches the shard plan for `ctx` under `rt`'s deterministic coordinate
    /// chunking, rebuilding it only when the reuse key changed.
    fn ensure_plan(&mut self, ctx: &WireCtx, rt: &Runtime) {
        // `chunk_ranges(n, t)` produces min(t, n) ranges (none for n == 0);
        // computed directly so the steady-state check allocates nothing.
        let num_shards = rt.threads().min(ctx.len());
        let stale = match &self.plan {
            Some(p) => !p.matches(ctx, num_shards),
            None => true,
        };
        if stale {
            self.plan = Some(ShardPlan::build(ctx, rt.ranges(ctx.len())));
        }
    }
}

/// One shard's rank-fold buffers: a block of every update's decoded delta,
/// and the column network's scratch ([`ft_tensor::sorted_mean_into`]).
#[derive(Debug, Default)]
struct RankShard {
    rows: Vec<Vec<f32>>,
    sort: RankScratch,
}

/// Coordinates a rank fold decodes and sorts at a time: eight updates'
/// blocks take 128 KB, so the rows the network reads are still in cache,
/// where decoding whole deltas first streamed `8 · 4 · len` bytes out to
/// memory and back.
const RANK_BLOCK: usize = 4096;

/// What [`Aggregator::aggregate_into`] produced for one round: `params`
/// points into the caller's [`AggScratch`] instead of a fresh allocation.
#[derive(Debug, PartialEq)]
pub struct AggregateRef<'a> {
    /// The new global parameters, or `None` when the cohort was degenerate
    /// (empty, fully quarantined, or without usable weight) and the caller
    /// should keep the previous global.
    pub params: Option<&'a [f32]>,
    /// How many accepted updates were norm-clipped (always 0 for the
    /// rank-based rules and `FedAvg`).
    pub clipped: usize,
}

/// Element offset where shard `s` starts (`s == num_shards` → the end).
fn shard_offset(plan: &ShardPlan, s: usize) -> usize {
    if s == plan.num_shards() {
        plan.len()
    } else {
        plan.range(s).start
    }
}

/// Runs `f(s, shard slice)` for every shard of `plan` over `buf`, fanning
/// shards out on `rt`. Shards are disjoint output ranges, so any schedule
/// is race-free; with one shard (the sequential runtime) `f` runs inline on
/// the calling thread with no spawn and no allocation.
fn for_each_shard<T: Send>(
    rt: &Runtime,
    plan: &ShardPlan,
    buf: &mut [T],
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert_eq!(buf.len(), plan.len(), "shard buffer length mismatch");
    match plan.num_shards() {
        0 => {}
        1 => f(0, buf),
        n => {
            let jobs = rt.split_at_offsets_mut(buf, n, |s| shard_offset(plan, s));
            rt.scatter(
                jobs,
                |(shards, slice): (std::ops::Range<usize>, &mut [T])| {
                    let base = shard_offset(plan, shards.start);
                    let mut rest = slice;
                    let mut consumed = base;
                    for s in shards {
                        let end = shard_offset(plan, s + 1);
                        let (head, tail) = rest.split_at_mut(end - consumed);
                        consumed = end;
                        rest = tail;
                        f(s, head);
                    }
                },
            );
        }
    }
}

impl Aggregator {
    /// The aggregation engine: combines the accepted `(update, weight)`
    /// pairs against `anchor` — the global as it stands when the server's
    /// window closes — decoding-and-accumulating
    /// each update shard-by-shard on `rt`'s pool and reusing every buffer in
    /// `scratch` across rounds.
    ///
    /// The weighted rules (`FedAvg`, `NormClipped`) skip updates whose
    /// weight is NaN, infinite, zero or negative *before* the normalizing
    /// sum, so one quarantine-worthy weight (e.g. an adversarial sample
    /// count that overflowed a cast) cannot poison the total and void the
    /// honest survivors' round. The rank-based rules are weight-oblivious
    /// by construction (order statistics have no weights).
    ///
    /// Deterministic for any shard count: shards partition the *output
    /// coordinates*, so per coordinate the same values are added in the
    /// same (cohort) order as one sequential pass.
    ///
    /// # Panics
    ///
    /// Panics if a payload is inconsistent with `anchor`/`ctx` — a decoded
    /// length other than `anchor.len()`, or a values-only `MaskCsr` payload
    /// encoded under a different mask epoch than `ctx` (caller bug —
    /// hostile payloads are screened before they reach this).
    pub fn aggregate_into<'s>(
        &self,
        updates: &[(&Payload, f64)],
        anchor: &[f32],
        ctx: &WireCtx,
        rt: &Runtime,
        scratch: &'s mut AggScratch,
    ) -> AggregateRef<'s> {
        for (p, _) in updates {
            assert_eq!(
                p.len(),
                anchor.len(),
                "payload length differs from the global model"
            );
        }
        scratch.ensure_plan(ctx, rt);
        let n = updates.len();
        let (params, clipped) = match *self {
            Aggregator::FedAvg => weighted_into(updates, anchor, None, ctx, rt, scratch),
            Aggregator::TrimmedMean { beta } => {
                let t = ((beta * n as f64).floor() as usize).min(n.saturating_sub(1) / 2);
                (rank_into(updates, anchor, t, ctx, rt, scratch), 0)
            }
            // The middle value, or the mean of the two middle values: the
            // trimmed mean that keeps one value of an odd cohort and two of
            // an even one.
            Aggregator::CoordinateMedian => {
                let t = n.saturating_sub(1) / 2;
                (rank_into(updates, anchor, t, ctx, rt, scratch), 0)
            }
            Aggregator::NormClipped { tau } => {
                weighted_into(updates, anchor, Some(tau), ctx, rt, scratch)
            }
        };
        AggregateRef { params, clipped }
    }
}

/// The weight screen of the weighted rules: fills `weights` (aligned with
/// `updates`) with each update's normalized weight `w / Σ usable w`, and 0
/// for an update whose weight is not finite and positive — the engine skips
/// those. Returns `false` when no update carries usable weight (empty,
/// all-zero, or fully quarantined cohort): the caller keeps the previous
/// global instead of dividing by zero.
fn screen_weights(updates: &[(&Payload, f64)], weights: &mut Vec<f64>) -> bool {
    let usable = |w: f64| w.is_finite() && w > 0.0;
    let total_w: f64 = updates.iter().map(|(_, w)| *w).filter(|&w| usable(w)).sum();
    weights.clear();
    if !usable(total_w) {
        return false;
    }
    weights.extend(
        updates
            .iter()
            .map(|&(_, w)| if usable(w) { w / total_w } else { 0.0 }),
    );
    true
}

/// Dense-decodes every update into one of the recycled delta buffers
/// (aligned with `updates`), fanned out per update on `rt`.
fn decode_all<'d>(
    updates: &[(&Payload, f64)],
    deltas: &'d mut Vec<Vec<f32>>,
    ctx: &WireCtx,
    rt: &Runtime,
) -> &'d [Vec<f32>] {
    deltas.resize_with(updates.len(), Vec::new);
    for d in deltas.iter_mut() {
        d.resize(ctx.len(), 0.0);
    }
    let decode_jobs: Vec<(&Payload, &mut Vec<f32>)> = updates
        .iter()
        .map(|(p, _)| *p)
        .zip(deltas.iter_mut())
        .collect();
    rt.scatter(decode_jobs, |(p, d)| p.decode_into(d, ctx));
    deltas
}

/// The rank-based rules, shard-parallel: each shard walks its coordinates
/// in blocks of [`RANK_BLOCK`], decodes every update's block
/// ([`Payload::decode_range_into`]), sorts every coordinate's column with
/// `total_cmp` — so adversarial NaNs land at the tails, where a trim
/// removes them first — and adds the anchor to the mean of its entries
/// `trim..n − trim` ([`ft_tensor::sorted_mean_into`], eight columns at a
/// time). On one shard the fold allocates nothing at steady state.
fn rank_into<'s>(
    updates: &[(&Payload, f64)],
    anchor: &[f32],
    trim: usize,
    ctx: &WireCtx,
    rt: &Runtime,
    scratch: &'s mut AggScratch,
) -> Option<&'s [f32]> {
    let n = updates.len();
    if n == 0 {
        return None;
    }
    let AggScratch {
        params, rank, plan, ..
    } = scratch;
    let plan = plan.as_ref().expect("plan ensured by aggregate_into");
    params.resize(anchor.len(), 0.0);
    rank.resize_with(plan.num_shards(), RankShard::default);
    let fold = |s: usize, out: &mut [f32], shard: &mut RankShard| {
        let RankShard { rows, sort } = shard;
        rows.resize_with(n, Vec::new);
        let (shard_start, mut alive_before) = (plan.range(s).start, plan.alive_before(s));
        for (b, out) in out.chunks_mut(RANK_BLOCK).enumerate() {
            let block = shard_start + b * RANK_BLOCK..shard_start + b * RANK_BLOCK + out.len();
            for (row, (p, _)) in rows.iter_mut().zip(updates) {
                row.resize(RANK_BLOCK, 0.0);
                let row = &mut row[..out.len()];
                p.decode_range_into(row, ctx, block.clone(), alive_before);
            }
            let anchor = &anchor[block.clone()];
            ft_tensor::sorted_mean_into(rows, anchor, 0, trim..n - trim, out, sort);
            alive_before += ctx.alive_count_in(block);
        }
    };
    match &mut rank[..] {
        [] => {}
        [shard] => fold(0, params, shard),
        shards => {
            let mut rest = &mut params[..];
            let mut jobs = Vec::with_capacity(shards.len());
            for (s, shard) in shards.iter_mut().enumerate() {
                let (out, tail) = rest.split_at_mut(plan.range(s).len());
                jobs.push((s, out, shard));
                rest = tail;
            }
            rt.scatter(jobs, |(s, out, shard)| fold(s, out, shard));
        }
    }
    Some(params)
}

/// The weighted rules. `FedAvg` (`tau: None`) accumulates every usable
/// update decode-free, straight out of its wire form. `NormClipped` first
/// decodes the cohort, computes each usable delta's norm sequentially (one
/// full-vector `f64` sum) and folds the clip `min(1, τ / ‖δ‖₂)` into its
/// weight. The accumulation and the anchor add fan out shard-parallel.
fn weighted_into<'s>(
    updates: &[(&Payload, f64)],
    anchor: &[f32],
    tau: Option<f64>,
    ctx: &WireCtx,
    rt: &Runtime,
    scratch: &'s mut AggScratch,
) -> (Option<&'s [f32]>, usize) {
    let AggScratch {
        acc,
        params,
        deltas,
        weights,
        plan,
        ..
    } = scratch;
    let plan = plan.as_ref().expect("plan ensured by aggregate_into");
    if !screen_weights(updates, weights) {
        return (None, 0);
    }
    let mut clipped = 0usize;
    let mut decoded: &[Vec<f32>] = &[];
    if let Some(tau) = tau {
        decoded = decode_all(updates, deltas, ctx, rt);
        for (wn, delta) in weights.iter_mut().zip(decoded).filter(|(wn, _)| **wn > 0.0) {
            let norm = delta
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>()
                .sqrt();
            if norm.is_finite() && norm > tau {
                clipped += 1;
                *wn *= tau / norm;
            }
        }
    }
    let weights = &*weights;
    acc.resize(anchor.len(), 0.0);
    acc.fill(0.0);
    for_each_shard(rt, plan, acc, |s, acc_s| {
        let usable = updates.iter().zip(weights).enumerate();
        for (k, ((p, _), &wn)) in usable.filter(|(_, (_, &wn))| wn > 0.0) {
            match decoded.get(k) {
                Some(delta) => {
                    for (a, &d) in acc_s.iter_mut().zip(&delta[plan.range(s)]) {
                        *a += wn * d as f64;
                    }
                }
                None => p.accumulate_shard_into(wn, acc_s, ctx, plan, s),
            }
        }
    });
    params.resize(anchor.len(), 0.0);
    for_each_shard(rt, plan, params, |s, out| {
        let start = plan.range(s).start;
        for (k, o) in out.iter_mut().enumerate() {
            let i = start + k;
            *o = (anchor[i] as f64 + acc[i]) as f32;
        }
    });
    (Some(params), clipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sparse::Codec;

    #[test]
    fn bn_aggregation_weighted() {
        let a = vec![BnStats {
            mean: vec![1.0, 2.0],
            var: vec![1.0, 1.0],
        }];
        let b = vec![BnStats {
            mean: vec![3.0, 4.0],
            var: vec![3.0, 3.0],
        }];
        let got = aggregate_bn_stats(&[(&a, 1.0), (&b, 1.0)]);
        assert_eq!(got[0].mean, vec![2.0, 3.0]);
        assert_eq!(got[0].var, vec![2.0, 2.0]);
        // Degenerate cohorts keep the previous statistics, never NaN.
        assert_eq!(try_aggregate_bn_stats(&[]), None);
        assert_eq!(try_aggregate_bn_stats(&[(&a, 0.0)]), None);
    }

    #[test]
    fn bn_aggregation_respects_dataset_sizes() {
        let a = vec![BnStats {
            mean: vec![0.0],
            var: vec![0.0],
        }];
        let b = vec![BnStats {
            mean: vec![10.0],
            var: vec![10.0],
        }];
        let got = aggregate_bn_stats(&[(&a, 9.0), (&b, 1.0)]);
        assert!((got[0].mean[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sim_staleness_weight_shrinks_from_one() {
        assert_eq!(staleness_weight(0), 1.0);
        assert!(staleness_weight(1) < 1.0);
        assert!(staleness_weight(8) < staleness_weight(3));
        assert!((staleness_weight(3) - 0.5).abs() < 1e-12); // 1/sqrt(4)
    }

    fn dense(values: &[f32]) -> Payload {
        Payload::Dense {
            values: values.to_vec(),
        }
    }

    /// One-shot `aggregate_into` on the sequential runtime with fresh
    /// scratch, for the small hand-written cohorts below.
    fn aggregate_once(
        rule: Aggregator,
        updates: &[(&Payload, f64)],
        anchor: &[f32],
    ) -> (Option<Vec<f32>>, usize) {
        let ctx = WireCtx::dense(anchor.len());
        let mut scratch = AggScratch::new();
        let got = rule.aggregate_into(updates, anchor, &ctx, &Runtime::sequential(), &mut scratch);
        (got.params.map(<[f32]>::to_vec), got.clipped)
    }

    #[test]
    fn payload_trimmed_mean_outvotes_sign_flipped_outlier() {
        // Five honest devices push +1 per coordinate; one poisoned device
        // pushes a scaled sign-flip. One trim level removes it entirely.
        let anchor = vec![0.0f32, 0.0];
        let honest = dense(&[1.0, 1.0]);
        let poison = dense(&[-80.0, -80.0]);
        let updates: Vec<(&Payload, f64)> = vec![
            (&honest, 1.0),
            (&honest, 1.0),
            (&honest, 1.0),
            (&honest, 1.0),
            (&honest, 1.0),
            (&poison, 50.0), // inflated weight is irrelevant: rank-based
        ];
        let (got, _) = aggregate_once(Aggregator::TrimmedMean { beta: 0.2 }, &updates, &anchor);
        assert_eq!(got.unwrap(), vec![1.0, 1.0]);
        // Plain FedAvg on the same cohort is dragged far negative.
        let (avg, _) = aggregate_once(Aggregator::FedAvg, &updates, &anchor);
        let avg = avg.unwrap();
        assert!(avg[0] < -70.0, "fedavg should be poisoned, got {}", avg[0]);
    }

    #[test]
    fn payload_trimmed_mean_survives_adversarial_nans() {
        let honest = dense(&[2.0]);
        let nan = dense(&[f32::NAN]);
        let updates: Vec<(&Payload, f64)> =
            vec![(&honest, 1.0), (&honest, 1.0), (&honest, 1.0), (&nan, 1.0)];
        let (got, _) = aggregate_once(Aggregator::TrimmedMean { beta: 0.25 }, &updates, &[0.0]);
        assert_eq!(got.unwrap(), vec![2.0], "NaN must be trimmed at the tail");
    }

    #[test]
    fn payload_median_even_cohort_averages_middles() {
        let payloads: Vec<Payload> = [1.0f32, 3.0, 5.0, 100.0]
            .iter()
            .map(|&v| dense(&[v]))
            .collect();
        let updates: Vec<(&Payload, f64)> = payloads.iter().map(|p| (p, 1.0)).collect();
        let (got, _) = aggregate_once(Aggregator::CoordinateMedian, &updates, &[10.0]);
        assert_eq!(got.unwrap(), vec![14.0]); // 10 + (3+5)/2
    }

    #[test]
    fn payload_norm_clip_bounds_single_device_pull() {
        let honest = dense(&[0.5, 0.5]); // norm ~0.707: untouched at tau 1.0
        let poison = dense(&[600.0, 800.0]); // norm 1000: scaled to norm tau
        let updates: Vec<(&Payload, f64)> = vec![(&honest, 1.0), (&poison, 1.0)];
        let (got, clipped) =
            aggregate_once(Aggregator::NormClipped { tau: 1.0 }, &updates, &[0.0, 0.0]);
        assert_eq!(clipped, 1);
        let got = got.unwrap();
        // Both deltas now have norm <= 1, so the mean has norm <= 1.
        let norm = (got[0] as f64).hypot(got[1] as f64);
        assert!(norm <= 1.0 + 1e-6, "clipped mean norm {norm}");
        // Poison rescales to [0.6, 0.8]; mean with honest [0.5, 0.5].
        assert!((got[0] - 0.55).abs() < 1e-6 && (got[1] - 0.65).abs() < 1e-6);
    }

    #[test]
    fn aggregator_names_parse_and_validate() {
        assert_eq!(Aggregator::from_name("fedavg"), Some(Aggregator::FedAvg));
        assert_eq!(
            Aggregator::from_name("trimmed_mean:0.25"),
            Some(Aggregator::TrimmedMean { beta: 0.25 })
        );
        assert_eq!(
            Aggregator::from_name("trimmed_mean"),
            Some(Aggregator::TrimmedMean { beta: 0.2 })
        );
        assert_eq!(
            Aggregator::from_name("median"),
            Some(Aggregator::CoordinateMedian)
        );
        assert_eq!(
            Aggregator::from_name("norm_clipped:2.5"),
            Some(Aggregator::NormClipped { tau: 2.5 })
        );
        assert_eq!(Aggregator::from_name("krum"), None);
        assert_eq!(Aggregator::from_name("trimmed_mean:lots"), None);
        for agg in RULES {
            assert!(agg.validate().is_ok(), "{}", agg.name());
            assert_eq!(
                Aggregator::from_name(agg.name()).map(|a| a.name()),
                Some(agg.name())
            );
        }
        assert!(Aggregator::TrimmedMean { beta: 0.5 }.validate().is_err());
        assert!(Aggregator::TrimmedMean { beta: -0.1 }.validate().is_err());
        assert!(Aggregator::TrimmedMean { beta: f64::NAN }
            .validate()
            .is_err());
        assert!(Aggregator::NormClipped { tau: 0.0 }.validate().is_err());
        assert!(Aggregator::NormClipped { tau: f64::INFINITY }
            .validate()
            .is_err());
    }

    const RULES: [Aggregator; 4] = [
        Aggregator::FedAvg,
        Aggregator::TrimmedMean { beta: 0.2 },
        Aggregator::CoordinateMedian,
        Aggregator::NormClipped { tau: 0.5 },
    ];

    /// The naive reference every rule is pinned against: dense deltas (one
    /// decoded vector per update), a per-coordinate `f64` sum in cohort
    /// order for the weighted rules, a `total_cmp` sort of the cohort's
    /// column for the rank-based ones. No shards, no scratch, no wire form.
    fn naive_aggregate(
        rule: Aggregator,
        deltas: &[(Vec<f32>, f64)],
        anchor: &[f32],
    ) -> (Option<Vec<f32>>, usize) {
        // Clip threshold of the weighted rules; `None` for the rank-based.
        let tau = match rule {
            Aggregator::FedAvg => Some(f64::INFINITY),
            Aggregator::NormClipped { tau } => Some(tau),
            _ => None,
        };
        let usable: Vec<&(Vec<f32>, f64)> = deltas
            .iter()
            .filter(|(_, w)| tau.is_none() || (w.is_finite() && *w > 0.0))
            .collect();
        let total: f64 = usable.iter().map(|(_, w)| *w).sum();
        if usable.is_empty() || (tau.is_some() && !(total.is_finite() && total > 0.0)) {
            return (None, 0);
        }
        let mut clipped = 0;
        let factors: Vec<f64> = usable
            .iter()
            .map(|(d, w)| {
                let norm = d.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt();
                match tau {
                    Some(tau) if norm.is_finite() && norm > tau => {
                        clipped += 1;
                        w / total * (tau / norm)
                    }
                    _ => w / total,
                }
            })
            .collect();
        let n = usable.len();
        let params = (0..anchor.len()).map(|i| {
            let mut col: Vec<f32> = usable.iter().map(|(d, _)| d[i]).collect();
            let delta = match rule {
                Aggregator::FedAvg | Aggregator::NormClipped { .. } => col
                    .iter()
                    .zip(&factors)
                    .fold(0.0, |acc, (&v, f)| acc + f * v as f64),
                Aggregator::TrimmedMean { beta } => {
                    let t = ((beta * n as f64).floor() as usize).min((n - 1) / 2);
                    col.sort_by(|a, b| a.total_cmp(b));
                    col[t..n - t].iter().map(|&v| v as f64).sum::<f64>() / (n - 2 * t) as f64
                }
                Aggregator::CoordinateMedian => {
                    col.sort_by(|a, b| a.total_cmp(b));
                    if n % 2 == 1 {
                        col[n / 2] as f64
                    } else {
                        (col[n / 2 - 1] as f64 + col[n / 2] as f64) / 2.0
                    }
                }
            };
            (anchor[i] as f64 + delta) as f32
        });
        (Some(params.collect()), clipped)
    }

    fn bits(params: Option<&[f32]>) -> Option<Vec<u32>> {
        params.map(|p| p.iter().map(|v| v.to_bits()).collect())
    }

    /// Runs `rule` through the engine on 1, 2 and 4 workers, twice each over
    /// the same scratch (stale contents of the recycled buffers must not
    /// leak through), and requires `to_bits` equality with the naive
    /// reference over the dense-decoded updates. Returns the result.
    fn assert_matches_oracle(
        rule: Aggregator,
        updates: &[(&Payload, f64)],
        anchor: &[f32],
        ctx: &WireCtx,
        scratch: &mut AggScratch,
        what: &str,
    ) -> Option<Vec<f32>> {
        let deltas: Vec<(Vec<f32>, f64)> =
            updates.iter().map(|&(p, w)| (p.decode(ctx), w)).collect();
        let (want, want_clipped) = naive_aggregate(rule, &deltas, anchor);
        for threads in [1usize, 2, 4] {
            let rt = Runtime::exact(threads).with_min_work(0);
            for pass in 0..2 {
                let got = rule.aggregate_into(updates, anchor, ctx, &rt, scratch);
                assert_eq!(
                    (bits(got.params), got.clipped),
                    (bits(want.as_deref()), want_clipped),
                    "{} diverged from the oracle ({what}, {threads} threads, pass {pass})",
                    rule.name()
                );
            }
        }
        want
    }

    #[test]
    fn aggregator_engine_matches_naive_oracle_bit_exactly() {
        // Every rule × codec × thread count × {plain, staleness-discounted,
        // hostile} weights, plus the degenerate cohorts, against the one
        // naive reference. Golden traces rest on it.
        // One shared scratch across the whole matrix: the plan and every
        // buffer are re-keyed and resized as rules, cohorts, lengths and
        // shard counts change under it.
        let mut scratch = AggScratch::new();
        // Awkward lengths: uneven shard splits, and rank folds whose shards
        // cross block boundaries (a values-only `MaskCsr` resumes its values
        // at each block).
        for n in [37, 2 * RANK_BLOCK + 37] {
            let mut ctx = WireCtx::dense(n);
            ctx.epoch = 5;
            for (i, a) in ctx.alive.iter_mut().enumerate() {
                *a = i % 3 != 1; // sparse mask for the MaskCsr/TopK codecs
            }
            let anchor: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let raw_delta = |d: usize| -> Vec<f32> {
                (0..n)
                    .map(|i| {
                        let v = ((d * 31 + i) as f32 * 0.11).cos() * (d as f32 - 2.0);
                        if ctx.alive[i] {
                            v
                        } else {
                            0.0
                        }
                    })
                    .collect()
            };
            let plain: Vec<f64> = (0..5).map(|d| 1.0 + d as f64).collect();
            let stale: Vec<f64> = plain
                .iter()
                .zip([0usize, 2, 0, 5, 1])
                .map(|(w, s)| w * staleness_weight(s))
                .collect();
            // One NaN, one infinite, one negative and one zero weight next to a
            // single honest survivor: the screen must keep its round.
            let hostile = vec![f64::NAN, 3.0, f64::INFINITY, -4.0, 0.0];
            for codec in [
                Codec::Dense,
                Codec::MaskCsr,
                Codec::QuantInt8,
                Codec::TopK {
                    k_frac: 0.25,
                    error_feedback: false,
                },
            ] {
                // Device 3 encodes for a peer at another epoch: `MaskCsr` then
                // carries explicit indices, as a stale buffered arrival does.
                let payloads: Vec<Payload> = (0..5)
                    .map(|d| {
                        let peer = if d == 3 { ctx.epoch + 1 } else { ctx.epoch };
                        codec.encode(&raw_delta(d), &ctx, peer, None)
                    })
                    .collect();
                for (weights, kind) in [(&plain, "plain"), (&stale, "stale"), (&hostile, "hostile")]
                {
                    let cohort: Vec<(&Payload, f64)> =
                        payloads.iter().zip(weights.iter().copied()).collect();
                    let what = format!("{codec:?}, {kind} weights");
                    for rule in RULES {
                        assert_matches_oracle(rule, &cohort, &anchor, &ctx, &mut scratch, &what);
                    }
                }
                // The hostile cohort is not a no-op for the weighted rules: the
                // honest survivor alone moved the global.
                let survivor = [(&payloads[1], 3.0)];
                let mixed: Vec<(&Payload, f64)> = payloads.iter().zip(hostile.clone()).collect();
                let rule = Aggregator::FedAvg;
                let alone =
                    assert_matches_oracle(rule, &survivor, &anchor, &ctx, &mut scratch, "alone");
                let among =
                    assert_matches_oracle(rule, &mixed, &anchor, &ctx, &mut scratch, "among");
                assert!(alone.is_some(), "one usable weight is a round");
                assert_eq!(bits(alone.as_deref()), bits(among.as_deref()));
            }
        }
        let n = 37;
        let anchor: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();

        // Cohort order is part of the contract: `f64` addition is not
        // associative, and this cohort makes that visible after the `f32`
        // cast (forward the small delta survives, reversed it is absorbed).
        let swamped = [dense(&[3e20]), dense(&[-3e20]), dense(&[1.0])];
        let cohort: Vec<(&Payload, f64)> = swamped.iter().map(|p| (p, 1.0)).collect();
        let one = WireCtx::dense(1);
        for rule in RULES {
            assert_matches_oracle(rule, &cohort, &[0.0], &one, &mut scratch, "swamped");
        }

        // Degenerate cohorts — empty, all-zero weights, fully quarantined —
        // keep the previous global (`params: None`), never NaN parameters.
        // The rank-based rules ignore weights, so only an empty cohort is
        // degenerate for them.
        let p = dense(&vec![9.0; n]);
        let flat = WireCtx::dense(n);
        for rule in RULES {
            let weighted = matches!(rule, Aggregator::FedAvg | Aggregator::NormClipped { .. });
            for (weights, what) in [
                (vec![], "empty"),
                (vec![0.0, 0.0], "all-zero"),
                (vec![0.0, f64::NAN], "fully quarantined"),
            ] {
                let cohort: Vec<(&Payload, f64)> = weights.iter().map(|&w| (&p, w)).collect();
                let got = assert_matches_oracle(rule, &cohort, &anchor, &flat, &mut scratch, what);
                let degenerate = weighted || weights.is_empty();
                assert_eq!(got.is_none(), degenerate, "{} ({what})", rule.name());
            }
        }

        // Weighted mean with un-normalised weights: raw sample counts and
        // the same ratios pre-normalised land on the same global.
        let (a, b) = (dense(&[2.0, 0.0]), dense(&[4.0, 1.0]));
        let (raw, _) = aggregate_once(Aggregator::FedAvg, &[(&a, 10.0), (&b, 30.0)], &[0.0, 0.0]);
        let (unit, _) = aggregate_once(Aggregator::FedAvg, &[(&a, 0.25), (&b, 0.75)], &[0.0, 0.0]);
        let (raw, unit) = (raw.unwrap(), unit.unwrap());
        assert!((raw[0] - 3.5).abs() < 1e-6 && (raw[1] - 0.75).abs() < 1e-6);
        assert!((raw[0] - unit[0]).abs() < 1e-6 && (raw[1] - unit[1]).abs() < 1e-6);

        // Ragged lengths are a caller bug, not a degenerate fleet state:
        // every rule panics instead of aggregating across models.
        for rule in RULES {
            let short = dense(&[1.0]);
            let ragged = std::panic::catch_unwind(|| {
                aggregate_once(
                    rule,
                    &[(&dense(&[1.0, 2.0]), 1.0), (&short, 1.0)],
                    &[0.0, 0.0],
                )
            });
            let msg = *ragged
                .expect_err("ragged cohort must panic")
                .downcast::<String>()
                .expect("assert message");
            assert!(msg.contains("length differs"), "{}: {msg}", rule.name());
        }
    }

    mod props {
        use super::super::*;
        use ft_sparse::Codec;
        use proptest::prelude::*;

        /// A value of one of the classes that break a naive sort or sum:
        /// `±0`, `±∞`, NaNs of both signs with distinct payloads,
        /// subnormals, and ordinary floats.
        fn hostile((class, bits, plain): (u32, u32, f32)) -> f32 {
            let (sign, payload) = (bits & 0x8000_0000, (bits & 0x7f_ffff).max(1));
            match class {
                0 => f32::from_bits(sign),
                1 => f32::from_bits(sign | 0x7f80_0000),
                2 => f32::from_bits(sign | 0x7f80_0000 | payload),
                3 => f32::from_bits(sign | payload),
                _ => plain,
            }
        }

        /// Whether `got` and `want` agree on coordinate `i` of a rank rule
        /// that keeps sorted entries `trim..n − trim`: bit for bit, except
        /// where two or more NaNs meet in the sum (the kept entries and the
        /// anchor, counting `∞ − ∞` as one) — IEEE 754 leaves the payload of
        /// that NaN open among theirs, and the compiler may commute an
        /// addition, so there both need only be NaN.
        fn rank_agrees(
            got: f32,
            want: f32,
            deltas: &[Vec<f32>],
            anchor: f32,
            trim: usize,
            i: usize,
        ) -> bool {
            let mut column: Vec<f32> = deltas.iter().map(|d| d[i]).collect();
            column.sort_unstable_by(|a, b| a.total_cmp(b));
            let n = column.len();
            let terms: Vec<f32> = column[trim..n - trim]
                .iter()
                .copied()
                .chain([anchor])
                .collect();
            let made = terms.contains(&f32::INFINITY) && terms.contains(&f32::NEG_INFINITY);
            let nans = terms.iter().filter(|v| v.is_nan()).count() + usize::from(made);
            got.to_bits() == want.to_bits() || (nans >= 2 && got.is_nan() && want.is_nan())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The rank rules' eight-column network against the
            /// per-coordinate `total_cmp` sort it replaced (the naive
            /// reference): cohorts of 1 to 40, coordinate counts that are
            /// not a multiple of eight, hostile values, `TrimmedMean` at
            /// several β and `CoordinateMedian`, on 1, 2 and 4 shards.
            #[test]
            fn payload_rank_network_matches_the_sort_oracle(
                (n, len, values) in (1usize..41, 0usize..6, 1usize..8).prop_flat_map(|(n, blocks, tail)| {
                    let len = 8 * blocks + tail;
                    let value = (0u32..5, 0u32..u32::MAX, -4.0f32..4.0).prop_map(hostile);
                    proptest::collection::vec(value, (n + 1) * len).prop_map(move |v| (n, len, v))
                }),
            ) {
                let (anchor, rows) = values.split_at(len);
                let deltas: Vec<Vec<f32>> = rows.chunks(len).map(<[f32]>::to_vec).collect();
                let payloads: Vec<Payload> =
                    deltas.iter().map(|d| Payload::Dense { values: d.clone() }).collect();
                let updates: Vec<(&Payload, f64)> = payloads.iter().map(|p| (p, 1.0)).collect();
                let ctx = WireCtx::dense(len);
                let weighted: Vec<(Vec<f32>, f64)> = deltas.iter().map(|d| (d.clone(), 1.0)).collect();
                let mut scratch = AggScratch::new();
                for rule in [0.0, 0.1, 0.125, 0.25, 0.4]
                    .map(|beta| Aggregator::TrimmedMean { beta })
                    .into_iter()
                    .chain([Aggregator::CoordinateMedian])
                {
                    let trim = match rule {
                        Aggregator::TrimmedMean { beta } => ((beta * n as f64).floor() as usize).min((n - 1) / 2),
                        _ => (n - 1) / 2,
                    };
                    let want = super::naive_aggregate(rule, &weighted, anchor).0.expect("a cohort");
                    for threads in [1usize, 2, 4] {
                        let rt = Runtime::exact(threads).with_min_work(0);
                        let got = rule.aggregate_into(&updates, anchor, &ctx, &rt, &mut scratch);
                        let got = got.params.expect("a cohort");
                        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                            prop_assert!(
                                rank_agrees(g, w, &deltas, anchor[i], trim, i),
                                "{} n={} coordinate {} on {} threads: {:?} vs {:?}",
                                rule.name(), n, i, threads, g, w
                            );
                        }
                    }
                }
            }

            /// Aggregating encoded deltas `θ_k − anchor` agrees with the
            /// textbook weighted mean of the parameters `θ_k`, for any
            /// staleness discount on the weights, and stays a convex
            /// combination (bounded by the per-coordinate min/max of the
            /// inputs): to numerical tolerance under `Dense`, and within the
            /// accumulated quantization bound under `QuantInt8` — each
            /// delta's error is at most half a step of its own range, so
            /// the aggregate error is bounded by the largest per-device one.
            #[test]
            fn payload_fedavg_matches_classic_weighted_mean(
                raw in proptest::collection::vec(
                    (proptest::collection::vec(-2.0f32..2.0, 6), 1.0f64..40.0, 0usize..10),
                    1..6,
                ),
                anchor in proptest::collection::vec(-2.0f32..2.0, 6),
            ) {
                let ctx = WireCtx::dense(anchor.len());
                let weights: Vec<f64> =
                    raw.iter().map(|(_, w, s)| w * staleness_weight(*s)).collect();
                let total: f64 = weights.iter().sum();
                let deltas: Vec<Vec<f32>> = raw
                    .iter()
                    .map(|(p, _, _)| p.iter().zip(anchor.iter()).map(|(x, a)| x - a).collect())
                    .collect();
                let quant_bound = deltas
                    .iter()
                    .map(|d| {
                        let lo = d.iter().cloned().fold(f32::INFINITY, f32::min);
                        let hi = d.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        (hi - lo) / 510.0
                    })
                    .fold(0.0f32, f32::max);
                for (codec, tolerance) in [(Codec::Dense, 1e-5), (Codec::QuantInt8, quant_bound + 1e-5)] {
                    let payloads: Vec<Payload> =
                        deltas.iter().map(|d| codec.encode(d, &ctx, ctx.epoch, None)).collect();
                    let updates: Vec<(&Payload, f64)> =
                        payloads.iter().zip(weights.iter().copied()).collect();
                    let mut scratch = AggScratch::new();
                    let got = Aggregator::FedAvg
                        .aggregate_into(&updates, &anchor, &ctx, &Runtime::sequential(), &mut scratch)
                        .params
                        .expect("positive weights");
                    for (i, &g) in got.iter().enumerate() {
                        let column = raw.iter().map(|(p, _, _)| p[i]);
                        let classic = column.clone().zip(&weights).map(|(p, w)| w / total * p as f64);
                        let classic = classic.sum::<f64>() as f32;
                        prop_assert!((g - classic).abs() <= tolerance, "{g} vs {classic}");
                        let lo = column.clone().fold(f32::INFINITY, f32::min);
                        let hi = column.fold(f32::NEG_INFINITY, f32::max);
                        prop_assert!(g >= lo - tolerance && g <= hi + tolerance,
                            "coord {} = {} outside [{}, {}]", i, g, lo, hi);
                    }
                }
            }
        }
    }
}
