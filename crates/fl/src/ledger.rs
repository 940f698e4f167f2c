//! Cost bookkeeping and the uniform result type every method runner returns.

use crate::transport::FaultKind;
use ft_metrics::{densities_from_mask, device_memory_bytes, ExtraMemory, FaultCounters};
use ft_nn::ArchInfo;
use ft_sparse::{DecodeError, Mask, WireReader};
use serde::{Deserialize, Serialize};

/// One device-side training task as the fleet simulation saw it.
///
/// `round` is the server round (or, under buffered aggregation, the server
/// version at which the task's update arrived); `applied` says whether the
/// update reached the aggregate (false = dropped, past the deadline, or the
/// whole round made no progress); `staleness` is the number of server
/// versions that elapsed while the device trained (always 0 under barrier
/// schedulers).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Global device index.
    pub device: usize,
    /// Server round / version the task finished in.
    pub round: usize,
    /// Simulated second the device started training.
    pub start_secs: f64,
    /// Simulated second its update arrived at the server.
    pub finish_secs: f64,
    /// Whether the update contributed to an aggregation.
    pub applied: bool,
    /// Server versions elapsed between the task's start and its arrival.
    pub staleness: usize,
}

/// Accumulates per-round device costs over a run.
///
/// The paper reports the *maximum* per-round training FLOPs (whether any
/// round overwhelms a constrained device) and total communication. Those
/// `round_flops` are **analytic** (counted from the architecture and the
/// mask densities). Next to them the ledger records what the sparse
/// execution engine actually did: per-round *realized* FLOPs (the
/// multiply–accumulates the dense/sparse kernels executed) and device
/// wall-clock, so the analytic claims can be checked against reality.
///
/// The fleet simulation adds a third axis, *simulated time*: each round's
/// virtual-clock span ([`record_sim_round`](CostLedger::record_sim_round)),
/// a per-device [`TimelineEvent`] log, and a count of zero-progress rounds
/// (rounds whose surviving cohort was empty).
///
/// # Examples
///
/// ```
/// use ft_fl::CostLedger;
///
/// let mut ledger = CostLedger::new();
/// ledger.record_round_flops(2.0e9); // analytic
/// ledger.record_realized_round(1.9e9, 0.25); // executed + wall-clock
/// ledger.record_sim_round(14.5); // simulated fleet makespan of the round
/// ledger.add_comm(1.0e6);
/// assert_eq!(ledger.max_round_flops(), 2.0e9);
/// assert_eq!(ledger.max_realized_round_flops(), 1.9e9);
/// assert_eq!(ledger.total_train_wall_secs(), 0.25);
/// assert_eq!(ledger.sim_makespan_secs(), 14.5);
/// assert_eq!(ledger.rounds(), 1);
/// assert_eq!(ledger.zero_progress_rounds(), 0);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CostLedger {
    round_flops: Vec<f64>,
    realized_flops: Vec<f64>,
    wall_secs: Vec<f64>,
    sim_secs: Vec<f64>,
    comm_bytes: f64,
    payload_down_bytes: Vec<f64>,
    payload_up_bytes: Vec<f64>,
    payload_extra_bytes: f64,
    extra_flops: f64,
    zero_progress: usize,
    timeline: Vec<TimelineEvent>,
    faults: FaultCounters,
}

/// `Σ v` folded from `+0.0`: an empty history totals `+0.0`, where
/// `iter().sum()` starts from (and so returns) `-0.0`. Every non-empty sum
/// of non-negative entries is unchanged.
fn sum(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, x| acc + x)
}

/// `v` as `{:?}` prints it, the shortest text that parses back to the same
/// bits; a NaN, which `{:?}` prints alike whatever its bits, as its bits.
fn exact(v: f64) -> String {
    if v.is_nan() {
        format!("NaN({:#018x})", v.to_bits())
    } else {
        format!("{v:?}")
    }
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the per-device analytic training FLOPs of one round.
    pub fn record_round_flops(&mut self, flops: f64) {
        self.round_flops.push(flops);
    }

    /// Records one round's *realized* execution cost: the maximum
    /// multiply–accumulate FLOPs any device's kernels actually executed,
    /// and the round's device-training wall-clock in seconds.
    pub fn record_realized_round(&mut self, flops: f64, wall_secs: f64) {
        self.realized_flops.push(flops);
        self.wall_secs.push(wall_secs);
    }

    /// Records one round's simulated fleet makespan (virtual seconds from
    /// the round's start until the server could aggregate).
    pub fn record_sim_round(&mut self, secs: f64) {
        self.sim_secs.push(secs);
    }

    /// Marks the most recent round as zero-progress: its surviving cohort
    /// was empty (all devices dropped or late), so the global model was
    /// left unchanged.
    pub fn record_zero_progress(&mut self) {
        self.zero_progress += 1;
    }

    /// Appends one device-task event to the per-device timeline.
    pub fn record_timeline(&mut self, event: TimelineEvent) {
        self.timeline.push(event);
    }

    /// Counts one quarantined delivery under its fault class (hostile or
    /// flaky devices never panic the server — they land here).
    pub fn record_fault(&mut self, fault: &FaultKind) {
        match fault {
            FaultKind::MalformedFrame(_) => self.faults.malformed_frames += 1,
            FaultKind::Disconnected(_) => self.faults.disconnects += 1,
            FaultKind::Replay { .. } => self.faults.replays += 1,
            FaultKind::InflatedSamples { .. } => self.faults.inflated_samples += 1,
        }
    }

    /// Counts updates a norm-clipping aggregator scaled down this round.
    pub fn record_clipped(&mut self, n: usize) {
        self.faults.clipped_updates += n as u64;
    }

    /// Counts connection attempts rejected while accepting the fleet.
    pub fn record_handshake_faults(&mut self, n: usize) {
        self.faults.rejected_handshakes += n as u64;
    }

    /// The run's fault/quarantine counters.
    pub fn faults(&self) -> &FaultCounters {
        &self.faults
    }

    /// Deliveries quarantined instead of aggregated (all fault classes).
    pub fn quarantined_updates(&self) -> u64 {
        self.faults.total_quarantined()
    }

    /// Adds communication volume (bytes, any direction).
    ///
    /// This is the *analytic* axis (paper-style formulas). The measured
    /// counterpart — bytes of actually-encoded payloads — is recorded by
    /// [`record_payload_round`](Self::record_payload_round) /
    /// [`add_payload_comm`](Self::add_payload_comm), the same
    /// analytic-vs-realized split the FLOPs accounting uses.
    pub fn add_comm(&mut self, bytes: f64) {
        self.comm_bytes += bytes;
    }

    /// Records one round's *measured* wire traffic: the server broadcast
    /// size and the heaviest device upload, both taken from
    /// `Payload::encoded_len` of actually-encoded payloads (mirroring the
    /// one-transfer-per-round convention of the analytic axis).
    pub fn record_payload_round(&mut self, down_bytes: f64, up_bytes: f64) {
        self.payload_down_bytes.push(down_bytes);
        self.payload_up_bytes.push(up_bytes);
    }

    /// Adds one-off measured wire traffic outside the round loop (BN-stat
    /// uploads during selection, top-k gradient pairs, mask adjustments).
    pub fn add_payload_comm(&mut self, bytes: f64) {
        self.payload_extra_bytes += bytes;
    }

    /// Adds one-off extra computation (e.g. Alg. 1's BN adaptation passes).
    pub fn add_extra_flops(&mut self, flops: f64) {
        self.extra_flops += flops;
    }

    /// Maximum training FLOPs over all recorded rounds (Table I's "Max
    /// Training FLOPs"), zero if nothing was recorded.
    pub fn max_round_flops(&self) -> f64 {
        self.round_flops.iter().cloned().fold(0.0, f64::max)
    }

    /// Maximum *realized* per-round FLOPs, zero if nothing was recorded.
    pub fn max_realized_round_flops(&self) -> f64 {
        self.realized_flops.iter().cloned().fold(0.0, f64::max)
    }

    /// Total device-training wall-clock over all recorded rounds, in
    /// seconds.
    pub fn total_train_wall_secs(&self) -> f64 {
        sum(&self.wall_secs)
    }

    /// Total *analytic* communication in bytes.
    pub fn total_comm_bytes(&self) -> f64 {
        self.comm_bytes
    }

    /// Total *measured* payload bytes (uploads + broadcasts + one-off
    /// exchanges), from actually-encoded payloads.
    pub fn total_payload_bytes(&self) -> f64 {
        sum(&self.payload_down_bytes) + sum(&self.payload_up_bytes) + self.payload_extra_bytes
    }

    /// Total measured device → server upload bytes across rounds.
    pub fn total_payload_upload_bytes(&self) -> f64 {
        sum(&self.payload_up_bytes)
    }

    /// Total measured server → device broadcast bytes across rounds.
    pub fn total_payload_download_bytes(&self) -> f64 {
        sum(&self.payload_down_bytes)
    }

    /// Per-round measured upload bytes (heaviest device), in round order.
    pub fn payload_up_history(&self) -> &[f64] {
        &self.payload_up_bytes
    }

    /// Per-round measured broadcast bytes, in round order.
    pub fn payload_down_history(&self) -> &[f64] {
        &self.payload_down_bytes
    }

    /// Total extra FLOPs (Table II's "Extra FLOPs in selection").
    pub fn extra_flops(&self) -> f64 {
        self.extra_flops
    }

    /// Total simulated fleet time across all rounds — the virtual-clock
    /// makespan of the whole run. This is the "how long would the fleet the
    /// paper targets actually take" number, next to
    /// [`total_train_wall_secs`](Self::total_train_wall_secs) which measures
    /// the simulator host.
    pub fn sim_makespan_secs(&self) -> f64 {
        sum(&self.sim_secs)
    }

    /// Longest simulated single-round span, zero if nothing was recorded.
    pub fn max_sim_round_secs(&self) -> f64 {
        self.sim_secs.iter().cloned().fold(0.0, f64::max)
    }

    /// Rounds whose surviving cohort was empty (no update applied).
    pub fn zero_progress_rounds(&self) -> usize {
        self.zero_progress
    }

    /// The per-device task timeline, in simulated arrival order.
    pub fn timeline(&self) -> &[TimelineEvent] {
        &self.timeline
    }

    /// Per-round analytic training FLOPs, in round order.
    pub fn round_flops_history(&self) -> &[f64] {
        &self.round_flops
    }

    /// Per-round realized (executed) FLOPs, in round order.
    pub fn realized_flops_history(&self) -> &[f64] {
        &self.realized_flops
    }

    /// Per-round simulated makespans, in round order.
    pub fn sim_secs_history(&self) -> &[f64] {
        &self.sim_secs
    }

    /// Device updates that never reached an aggregate (dropped or late).
    pub fn dropped_updates(&self) -> usize {
        self.timeline.iter().filter(|e| !e.applied).count()
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.round_flops.len()
    }

    /// Every deterministic axis, named: all but the host wall-clock, each as
    /// the exact renderings of its entries, so two ledgers agree here exactly
    /// when every float agrees bit for bit.
    pub(crate) fn deterministic_axes(&self) -> [(&'static str, Vec<String>); 11] {
        let floats = |v: &[f64]| v.iter().map(|&x| exact(x)).collect();
        let event = |e: &TimelineEvent| {
            format!(
                "device {} round {} {}..{} applied={} staleness={}",
                e.device,
                e.round,
                exact(e.start_secs),
                exact(e.finish_secs),
                e.applied,
                e.staleness
            )
        };
        [
            ("round_flops", floats(&self.round_flops)),
            ("realized_flops", floats(&self.realized_flops)),
            ("sim_secs", floats(&self.sim_secs)),
            ("analytic_comm_bytes", floats(&[self.comm_bytes])),
            ("payload_down_bytes", floats(&self.payload_down_bytes)),
            ("payload_up_bytes", floats(&self.payload_up_bytes)),
            ("payload_extra_bytes", floats(&[self.payload_extra_bytes])),
            ("extra_flops", floats(&[self.extra_flops])),
            ("zero_progress_rounds", vec![self.zero_progress.to_string()]),
            ("timeline", self.timeline.iter().map(event).collect()),
            ("faults", vec![format!("{:?}", self.faults)]),
        ]
    }

    /// Serializes the full ledger into a checkpoint blob (bit-exact floats;
    /// see `ft_fl::checkpoint`). A resumed run *continues* this ledger, so
    /// every axis — analytic, realized, measured payload, simulated time,
    /// and the per-device timeline — must survive the round-trip exactly.
    pub(crate) fn encode_ckpt(&self, out: &mut Vec<u8>) {
        use ft_sparse::wire::{put_bool, put_f64, put_f64_vec, put_u32, put_u64};
        put_f64_vec(out, &self.round_flops);
        put_f64_vec(out, &self.realized_flops);
        put_f64_vec(out, &self.wall_secs);
        put_f64_vec(out, &self.sim_secs);
        put_f64(out, self.comm_bytes);
        put_f64_vec(out, &self.payload_down_bytes);
        put_f64_vec(out, &self.payload_up_bytes);
        put_f64(out, self.payload_extra_bytes);
        put_f64(out, self.extra_flops);
        put_u64(out, self.zero_progress as u64);
        put_u32(out, self.timeline.len() as u32);
        for e in &self.timeline {
            put_u64(out, e.device as u64);
            put_u64(out, e.round as u64);
            put_f64(out, e.start_secs);
            put_f64(out, e.finish_secs);
            put_bool(out, e.applied);
            put_u64(out, e.staleness as u64);
        }
        // Fault counters (checkpoint layout version 2).
        put_u64(out, self.faults.malformed_frames);
        put_u64(out, self.faults.replays);
        put_u64(out, self.faults.disconnects);
        put_u64(out, self.faults.inflated_samples);
        put_u64(out, self.faults.clipped_updates);
        put_u64(out, self.faults.rejected_handshakes);
    }

    /// Parses a ledger written by [`encode_ckpt`](Self::encode_ckpt).
    pub(crate) fn decode_ckpt(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let round_flops = r.f64_vec()?;
        let realized_flops = r.f64_vec()?;
        let wall_secs = r.f64_vec()?;
        let sim_secs = r.f64_vec()?;
        let comm_bytes = r.f64()?;
        let payload_down_bytes = r.f64_vec()?;
        let payload_up_bytes = r.f64_vec()?;
        let payload_extra_bytes = r.f64()?;
        let extra_flops = r.f64()?;
        let zero_progress = r.len_u64()?;
        let n = r.u32()? as usize;
        let mut timeline = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            timeline.push(TimelineEvent {
                device: r.len_u64()?,
                round: r.len_u64()?,
                start_secs: r.f64()?,
                finish_secs: r.f64()?,
                applied: r.bool()?,
                staleness: r.len_u64()?,
            });
        }
        let faults = FaultCounters {
            malformed_frames: r.u64()?,
            replays: r.u64()?,
            disconnects: r.u64()?,
            inflated_samples: r.u64()?,
            clipped_updates: r.u64()?,
            rejected_handshakes: r.u64()?,
        };
        Ok(CostLedger {
            round_flops,
            realized_flops,
            wall_secs,
            sim_secs,
            comm_bytes,
            payload_down_bytes,
            payload_up_bytes,
            payload_extra_bytes,
            extra_flops,
            zero_progress,
            timeline,
            faults,
        })
    }
}

/// The uniform outcome of one federated pruning run, shared by FedTiny and
/// every baseline so the bench harnesses can tabulate them side by side.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Human-readable method name (e.g. `"fedtiny"`, `"snip"`).
    pub method: String,
    /// Final top-1 accuracy on the test set.
    pub accuracy: f32,
    /// Accuracy after each evaluation point (typically once per round).
    pub history: Vec<f32>,
    /// Overall density of the final mask (1.0 for dense methods).
    pub final_density: f32,
    /// Maximum per-round per-device training FLOPs.
    pub max_round_flops: f64,
    /// Device memory footprint in bytes (model + method-specific extras).
    pub memory_bytes: f64,
    /// Total *analytic* communication volume in bytes (paper formulas).
    pub comm_bytes: f64,
    /// Total *measured* wire traffic in bytes: encoded payload sizes of
    /// every broadcast, upload, and side exchange; 0 when unrecorded.
    pub payload_comm_bytes: f64,
    /// Measured device → server upload share of `payload_comm_bytes`; 0
    /// when unrecorded.
    pub payload_upload_bytes: f64,
    /// Wire codec the run exchanged updates with (stable lowercase name).
    pub codec: String,
    /// Extra FLOPs outside training rounds (e.g. BN selection).
    pub extra_flops: f64,
    /// Maximum per-round per-device FLOPs the kernels actually executed
    /// (the realized counterpart of `max_round_flops`); 0 when unrecorded.
    pub realized_round_flops: f64,
    /// Total wall-clock seconds spent in device-side local training; 0 when
    /// unrecorded.
    pub train_wall_secs: f64,
    /// Total *simulated* fleet seconds for the run under the environment's
    /// device profiles and scheduler (the virtual-time counterpart of
    /// `train_wall_secs`); 0 when unrecorded.
    pub sim_makespan_secs: f64,
}

impl RunResult {
    /// The one shared constructor for every method runner: all
    /// ledger-derived fields come straight from the ledger's accessors, and
    /// the final density and device memory from the final mask under the
    /// method's [`ExtraMemory`], so runners can't drift in *which* total
    /// they report. The caller supplies only what the ledger cannot know —
    /// the method name, the accuracy history, the final mask, the
    /// architecture, the memory surcharge and the wire codec. An empty
    /// history reports `NaN` accuracy (the halted-before-first-eval case of
    /// Result-returning runners).
    pub fn from_ledger(
        method: impl Into<String>,
        history: Vec<f32>,
        mask: &Mask,
        arch: &ArchInfo,
        extra_memory: ExtraMemory,
        codec: impl Into<String>,
        ledger: &CostLedger,
    ) -> Self {
        RunResult {
            method: method.into(),
            accuracy: history.last().copied().unwrap_or(f32::NAN),
            history,
            final_density: mask.density(),
            max_round_flops: ledger.max_round_flops(),
            memory_bytes: device_memory_bytes(arch, &densities_from_mask(mask), extra_memory),
            comm_bytes: ledger.total_comm_bytes(),
            payload_comm_bytes: ledger.total_payload_bytes(),
            payload_upload_bytes: ledger.total_payload_upload_bytes(),
            codec: codec.into(),
            extra_flops: ledger.extra_flops(),
            realized_round_flops: ledger.max_realized_round_flops(),
            train_wall_secs: ledger.total_train_wall_secs(),
            sim_makespan_secs: ledger.sim_makespan_secs(),
        }
    }

    /// Best accuracy seen at any evaluation point (the paper reports final
    /// accuracy; best-seen is exposed for diagnostics).
    pub fn best_accuracy(&self) -> f32 {
        self.history.iter().cloned().fold(self.accuracy, f32::max)
    }

    /// The uniform human-readable run summary every operator surface
    /// prints (`ft run`, the examples) — one formatter, so they can't
    /// drift.
    pub fn format_summary(&self) -> String {
        format!(
            "method: {} | codec: {}\n\
             top1: {:.4} (best {:.4}) | density: {:.4}\n\
             flops/round: {:.3e} analytic, {:.3e} realized (+{:.3e} extra)\n\
             comm: {:.1} KB analytic, {:.1} KB measured ({:.1} KB uploads)\n\
             memory: {:.1} KB/device | time: {:.1} s simulated, {:.2} s host training",
            self.method,
            self.codec,
            self.accuracy,
            self.best_accuracy(),
            self.final_density,
            self.max_round_flops,
            self.realized_round_flops,
            self.extra_flops,
            self.comm_bytes / 1e3,
            self.payload_comm_bytes / 1e3,
            self.payload_upload_bytes / 1e3,
            self.memory_bytes / 1e3,
            self.sim_makespan_secs,
            self.train_wall_secs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_totals_are_positive_zero() {
        let l = CostLedger::new();
        for total in [
            l.total_train_wall_secs(),
            l.total_payload_bytes(),
            l.total_payload_upload_bytes(),
            l.total_payload_download_bytes(),
            l.sim_makespan_secs(),
        ] {
            assert_eq!(total.to_bits(), 0, "{total}");
        }
    }

    #[test]
    fn ledger_tracks_max_and_totals() {
        let mut l = CostLedger::new();
        assert_eq!(l.max_round_flops(), 0.0);
        l.record_round_flops(10.0);
        l.record_round_flops(30.0);
        l.record_round_flops(20.0);
        l.add_comm(100.0);
        l.add_comm(50.0);
        l.add_extra_flops(5.0);
        assert_eq!(l.max_round_flops(), 30.0);
        assert_eq!(l.total_comm_bytes(), 150.0);
        assert_eq!(l.extra_flops(), 5.0);
        assert_eq!(l.rounds(), 3);
    }

    #[test]
    fn ledger_tracks_measured_payload_bytes() {
        let mut l = CostLedger::new();
        assert_eq!(l.total_payload_bytes(), 0.0);
        l.record_payload_round(1000.0, 400.0);
        l.record_payload_round(1000.0, 350.0);
        l.add_payload_comm(25.0);
        assert_eq!(l.total_payload_upload_bytes(), 750.0);
        assert_eq!(l.total_payload_bytes(), 2775.0);
        assert_eq!(l.payload_up_history(), &[400.0, 350.0]);
        assert_eq!(l.payload_down_history(), &[1000.0, 1000.0]);
        // Analytic axis is untouched by measured records.
        assert_eq!(l.total_comm_bytes(), 0.0);
    }

    #[test]
    fn ledger_tracks_realized_costs() {
        let mut l = CostLedger::new();
        assert_eq!(l.max_realized_round_flops(), 0.0);
        assert_eq!(l.total_train_wall_secs(), 0.0);
        l.record_realized_round(8.0, 0.5);
        l.record_realized_round(25.0, 0.25);
        assert_eq!(l.max_realized_round_flops(), 25.0);
        assert_eq!(l.total_train_wall_secs(), 0.75);
    }

    #[test]
    fn sim_ledger_tracks_virtual_time_and_timeline() {
        let mut l = CostLedger::new();
        assert_eq!(l.sim_makespan_secs(), 0.0);
        assert_eq!(l.zero_progress_rounds(), 0);
        l.record_sim_round(3.0);
        l.record_sim_round(7.5);
        l.record_zero_progress();
        l.record_timeline(TimelineEvent {
            device: 1,
            round: 0,
            start_secs: 0.0,
            finish_secs: 3.0,
            applied: true,
            staleness: 0,
        });
        l.record_timeline(TimelineEvent {
            device: 2,
            round: 1,
            start_secs: 3.0,
            finish_secs: 10.5,
            applied: false,
            staleness: 2,
        });
        assert_eq!(l.sim_makespan_secs(), 10.5);
        assert_eq!(l.max_sim_round_secs(), 7.5);
        assert_eq!(l.zero_progress_rounds(), 1);
        assert_eq!(l.timeline().len(), 2);
        assert_eq!(l.dropped_updates(), 1);
        assert_eq!(l.timeline()[1].staleness, 2);
    }

    #[test]
    fn ledger_fault_counters_roundtrip_through_ckpt_blob() {
        let mut l = CostLedger::new();
        l.record_fault(&FaultKind::MalformedFrame("junk".into()));
        l.record_fault(&FaultKind::Replay {
            got_round: 1,
            want_round: 3,
            got_epoch: 0,
            want_epoch: 1,
        });
        l.record_fault(&FaultKind::Disconnected("hung up".into()));
        l.record_fault(&FaultKind::InflatedSamples {
            claimed: 1 << 40,
            cap: 64,
        });
        l.record_clipped(2);
        l.record_handshake_faults(3);
        assert_eq!(l.quarantined_updates(), 4);
        assert_eq!(l.faults().clipped_updates, 2);
        assert_eq!(l.faults().rejected_handshakes, 3);
        let mut blob = Vec::new();
        l.encode_ckpt(&mut blob);
        let mut r = WireReader::new(&blob);
        let back = CostLedger::decode_ckpt(&mut r).expect("decode");
        assert_eq!(back.faults(), l.faults());
    }

    #[test]
    fn best_accuracy_scans_history() {
        let r = RunResult {
            method: "x".into(),
            accuracy: 0.5,
            history: vec![0.2, 0.7, 0.6],
            final_density: 0.01,
            max_round_flops: 0.0,
            memory_bytes: 0.0,
            comm_bytes: 0.0,
            payload_comm_bytes: 0.0,
            payload_upload_bytes: 0.0,
            codec: "dense".into(),
            extra_flops: 0.0,
            realized_round_flops: 0.0,
            train_wall_secs: 0.0,
            sim_makespan_secs: 0.0,
        };
        assert_eq!(r.best_accuracy(), 0.7);
    }
}
