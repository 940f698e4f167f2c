//! Transports: how device updates reach the server.
//!
//! The round loop in [`crate::server`] never talks to devices
//! directly — it hands a [`RoundRequest`] to a [`Transport`] and gets the
//! cohort's [`DeviceUpdate`]s back. Three implementations ship:
//!
//! - [`InProcess`] — devices are trained by direct function calls inside
//!   the server process and their updates are handed over as structs. This
//!   is the pre-transport behavior; the committed golden traces pin it
//!   byte-for-byte.
//! - [`SimTime`] — identical scheduling and virtual-time fleet, but every
//!   update crosses a *real byte boundary*: it is serialized into the same
//!   length-prefixed frame format the TCP transport uses
//!   ([`Payload::to_bytes`]) and parsed back with [`Payload::from_bytes`].
//!   Because the wire codecs round-trip bit-exactly, `SimTime` reproduces
//!   the `InProcess` golden traces byte-for-byte — proving the wire layer
//!   carries the whole federation, not just a byte counter.
//! - [`TcpTransport`] — frames cross a real socket (`std::net`, no new
//!   dependencies): the server broadcasts the global snapshot to connected
//!   [`run_tcp_device`] clients and reads their update frames back. For the
//!   same seed a loopback TCP run reaches the bit-identical final model as
//!   `InProcess`.
//!
//! ## Frame format
//!
//! Every frame is `u32 body_len | u8 kind | body` (little-endian), and leaves
//! its sender as one write on a `TCP_NODELAY` socket:
//!
//! | kind | body |
//! |------|------|
//! | `1` HELLO  | `u32` device id |
//! | `2` ROUND  | `u64` round, `u64` mask epoch, params `f32` vec, BN stats, mask bit vecs |
//! | `3` UPDATE | `u32` device, `u64` round, `u64` mask epoch, `u64` samples, `f64` realized FLOPs, `f64` wall secs, BN stats, payload bytes blob |
//! | `4` DONE   | empty |
//!
//! Floats travel as raw IEEE-754 bits, so a ROUND → train → UPDATE
//! round-trip over any transport is bit-exact.
//!
//! ## Hostile fleets
//!
//! A transport never trusts its devices. Every inbound UPDATE body passes
//! one shared screen (`screen_update_frame`) — structural decode, claimed
//! identity, round/epoch freshness (replay detection), and a sample-count
//! cap — before the server sees it. `exchange_round` therefore returns one
//! [`Delivery`] per cohort member: either the screened update or the typed
//! [`FaultKind`] it was quarantined under. The TCP transport survives
//! garbage frames, replays, disconnects, silent streams and abandoned
//! handshakes by quarantining the offender and carrying on; an honest fleet
//! trips none of it, so its run stays bit-identical to [`InProcess`].

use crate::bytes::{
    put_bitvec, put_blob, put_bn_stats, put_f64, put_u32, put_u64, ByteReader, ReadError,
};
use crate::config::FlConfig;
use crate::train::{train_devices_parallel, DeviceUpdate, WireSpec};
use ft_data::Dataset;
use ft_nn::{apply_mask, restore_snapshot, take_snapshot, wire_ctx, Model, ModelSnapshot};
use ft_runtime::Runtime;
use ft_sparse::{Mask, Payload, WireCtx};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};

/// Frame kinds of the wire protocol.
pub(crate) const FRAME_HELLO: u8 = 1;
pub(crate) const FRAME_ROUND: u8 = 2;
pub(crate) const FRAME_UPDATE: u8 = 3;
pub(crate) const FRAME_DONE: u8 = 4;

/// Why a transport exchange failed. In-process transports never fail; the
/// TCP transport surfaces socket and frame errors here so the server loop
/// can report them as a typed [`crate::server::ServerError`].
#[derive(Debug)]
pub enum TransportError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// A peer sent a malformed or unexpected frame.
    Frame(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport io error: {e}"),
            TransportError::Frame(what) => write!(f, "bad frame: {what}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<ReadError> for TransportError {
    fn from(e: ReadError) -> Self {
        TransportError::Frame(e.to_string())
    }
}

/// Why one cohort member's update was quarantined this round. A fault
/// never aborts the round — the server aggregates the survivors and tallies
/// the reason in its ledger's `FaultCounters`.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The frame failed structural decoding (garbage, truncation, trailing
    /// bytes, an unexpected frame kind, or a wrong claimed device id).
    MalformedFrame(String),
    /// The stream died: io error, reset, or no live connection at all.
    Disconnected(String),
    /// A well-formed update stamped with the wrong round or mask epoch —
    /// the signature of a replayed capture.
    Replay {
        /// Round the update claims.
        got_round: u64,
        /// Round the server is collecting.
        want_round: u64,
        /// Mask epoch the update claims.
        got_epoch: u64,
        /// Mask epoch the server is at.
        want_epoch: u64,
    },
    /// The update claimed more samples than the device's partition holds —
    /// a weight-inflation attack on sample-weighted averaging.
    InflatedSamples {
        /// Claimed sample count.
        claimed: u64,
        /// The device's actual partition size.
        cap: u64,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::MalformedFrame(what) => write!(f, "malformed frame: {what}"),
            FaultKind::Disconnected(what) => write!(f, "device disconnected: {what}"),
            FaultKind::Replay {
                got_round,
                want_round,
                got_epoch,
                want_epoch,
            } => write!(
                f,
                "replayed update: claims round {got_round} epoch {got_epoch}, \
                 server is at round {want_round} epoch {want_epoch}"
            ),
            FaultKind::InflatedSamples { claimed, cap } => write!(
                f,
                "inflated sample count: claimed {claimed}, partition holds {cap}"
            ),
        }
    }
}

/// One cohort member's result for one barrier round: the screened update,
/// or the fault it was quarantined under. Returned by
/// [`Transport::exchange_round`] **in cohort order** so aggregation order
/// stays deterministic even under attack.
#[derive(Clone, Debug)]
pub enum Delivery {
    /// The device's update passed every screen.
    Update(DeviceUpdate),
    /// The device was quarantined this round.
    Faulted(FaultKind),
}

impl Delivery {
    /// The update, if this member survived screening.
    pub fn update(&self) -> Option<&DeviceUpdate> {
        match self {
            Delivery::Update(u) => Some(u),
            Delivery::Faulted(_) => None,
        }
    }

    /// The fault, if this member was quarantined.
    pub fn fault(&self) -> Option<&FaultKind> {
        match self {
            Delivery::Update(_) => None,
            Delivery::Faulted(f) => Some(f),
        }
    }
}

/// Everything a transport needs to run one barrier round: the server's
/// current global snapshot (model + mask + wire context) and the cohort it
/// must collect updates from.
pub struct RoundRequest<'a> {
    /// The server's global model (the round anchor).
    pub global: &'a dyn Model,
    /// The server's current mask.
    pub mask: &'a Mask,
    /// Wire context both ends encode/decode against.
    pub ctx: &'a WireCtx,
    /// The server's current mask epoch.
    pub epoch: u64,
    /// Round index (selects device RNG streams).
    pub round: usize,
    /// Global device indices of this round's cohort.
    pub cohort: &'a [usize],
    /// The cohort's local datasets, in cohort order (empty for remote
    /// transports, whose devices hold their own data).
    pub parts: &'a [Dataset],
    /// The run configuration.
    pub cfg: &'a FlConfig,
    /// The run's shared worker pool.
    pub rt: &'a Runtime,
    /// Per-cohort-member error-feedback residuals (only used by local
    /// transports; remote devices keep their own).
    pub residuals: &'a mut [Vec<f32>],
    /// Per-cohort-member sample-count caps (each device's known partition
    /// size): an update claiming more is quarantined as
    /// [`FaultKind::InflatedSamples`]. Empty disables the screen.
    pub sample_caps: &'a [usize],
    /// Device ids rejoining the fleet this round (present now, absent last
    /// round): a reconnecting transport drops their stale streams and
    /// re-accepts their HELLOs before broadcasting. Empty for steady-state
    /// rounds and for local transports.
    pub rejoining: &'a [usize],
}

/// How one round's updates travel from the devices to the server.
///
/// Implementations must return one [`Delivery`] per cohort member **in
/// cohort order** — aggregation order is part of the determinism contract.
pub trait Transport {
    /// Stable lowercase name for run headers and reports.
    fn name(&self) -> &'static str;

    /// Whether device training runs inside the server process. Two things
    /// the round loop does need it, and the server refuses them with a
    /// typed error over any other transport: the buffered launch rule
    /// trains deferred tasks in-process, and error-feedback codecs have
    /// their device-side residual rolled back when an upload is lost.
    fn is_local(&self) -> bool;

    /// Runs one barrier round: broadcast the request's global snapshot to
    /// the cohort and collect one delivery per member, in cohort order. A
    /// `Delivery::Faulted` quarantines that member without failing the
    /// round; `Err` aborts the run (a server-side failure).
    fn exchange_round(
        &mut self,
        req: &mut RoundRequest<'_>,
    ) -> Result<Vec<Delivery>, TransportError>;

    /// Ships one already-encoded update across the transport's byte
    /// boundary (the server calls this when a buffered task arrives).
    /// Local transports may return it unchanged.
    fn deliver_update(&mut self, update: DeviceUpdate, ctx: &WireCtx) -> DeviceUpdate;

    /// Tears the transport down after the final round (e.g. sends DONE
    /// frames to connected devices). Errors are best-effort-ignored.
    fn shutdown(&mut self) {}
}

/// The function-call transport: devices train inside the server process and
/// updates are handed over as structs — the pre-transport behavior, pinned
/// byte-for-byte by the committed golden traces.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcess;

impl Transport for InProcess {
    fn name(&self) -> &'static str {
        "in_process"
    }

    fn is_local(&self) -> bool {
        true
    }

    fn exchange_round(
        &mut self,
        req: &mut RoundRequest<'_>,
    ) -> Result<Vec<Delivery>, TransportError> {
        let wire = WireSpec {
            codec: req.cfg.codec,
            ctx: req.ctx,
            peer_epoch: req.epoch,
        };
        Ok(train_devices_parallel(
            req.global,
            req.parts,
            Some(req.mask),
            req.cfg,
            req.round,
            &wire,
            req.residuals,
            req.rt,
        )
        .into_iter()
        .map(Delivery::Update)
        .collect())
    }

    fn deliver_update(&mut self, update: DeviceUpdate, _ctx: &WireCtx) -> DeviceUpdate {
        update
    }
}

/// The in-memory byte-boundary transport: devices train exactly as under
/// [`InProcess`], but every update is serialized into a real UPDATE frame
/// and parsed back before the server sees it. Golden traces are
/// byte-identical to `InProcess` because the wire codecs round-trip
/// bit-exactly — which is precisely what this transport exists to prove on
/// every run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTime;

impl Transport for SimTime {
    fn name(&self) -> &'static str {
        "sim_time"
    }

    fn is_local(&self) -> bool {
        true
    }

    fn exchange_round(
        &mut self,
        req: &mut RoundRequest<'_>,
    ) -> Result<Vec<Delivery>, TransportError> {
        let ctx = req.ctx;
        let (round, epoch) = (req.round as u64, req.epoch);
        let deliveries = InProcess.exchange_round(req)?;
        Ok(deliveries
            .into_iter()
            .enumerate()
            .map(|(i, d)| match d {
                Delivery::Update(u) => {
                    Delivery::Update(self.deliver_update_for(i, round, epoch, u, ctx))
                }
                faulted => faulted,
            })
            .collect())
    }

    fn deliver_update(&mut self, update: DeviceUpdate, ctx: &WireCtx) -> DeviceUpdate {
        self.deliver_update_for(0, 0, ctx.epoch, update, ctx)
    }
}

impl SimTime {
    /// Frame round-trip for one update; `device`/`round`/`epoch` only label
    /// the frame.
    fn deliver_update_for(
        &self,
        device: usize,
        round: u64,
        epoch: u64,
        update: DeviceUpdate,
        ctx: &WireCtx,
    ) -> DeviceUpdate {
        let frame = encode_update_frame(device, round, epoch, &update, ctx);
        let (_, _, _, back) =
            decode_update_frame(&frame, ctx).expect("self-encoded update frame round-trips");
        back
    }
}

// ---------------------------------------------------------------------------
// Frame codec (shared by SimTime and Tcp)
// ---------------------------------------------------------------------------

/// Serializes one UPDATE frame body, stamped with the round and mask epoch
/// the update answers (the replay screen checks these against the server's
/// current state).
pub(crate) fn encode_update_frame(
    device: usize,
    round: u64,
    epoch: u64,
    u: &DeviceUpdate,
    ctx: &WireCtx,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(80 + 4 * u.payload.len());
    encode_update_frame_into(&mut out, device, round, epoch, u, ctx);
    out
}

/// [`encode_update_frame`] appended to `out` — behind a header
/// [`begin_frame`] reserved, the body is written where it will be sent from.
pub(crate) fn encode_update_frame_into(
    out: &mut Vec<u8>,
    device: usize,
    round: u64,
    epoch: u64,
    u: &DeviceUpdate,
    ctx: &WireCtx,
) {
    put_u32(out, device as u32);
    put_u64(out, round);
    put_u64(out, epoch);
    put_u64(out, u.samples as u64);
    put_f64(out, u.realized_flops);
    put_f64(out, u.wall_secs);
    put_bn_stats(out, &u.bn);
    put_blob(out, &u.payload.to_bytes(ctx));
}

/// Parses one UPDATE frame body back into `(device, round, epoch, update)`.
pub(crate) fn decode_update_frame(
    bytes: &[u8],
    ctx: &WireCtx,
) -> Result<(usize, u64, u64, DeviceUpdate), TransportError> {
    let mut r = ByteReader::new(bytes);
    let device = r.u32()? as usize;
    let round = r.u64()?;
    let epoch = r.u64()?;
    let samples = r.len_u64()?;
    let realized_flops = r.f64()?;
    let wall_secs = r.f64()?;
    let bn = r.bn_stats()?;
    // Borrowed, not copied out: the payload is parsed in the receive buffer.
    let payload_len = r.u32()? as usize;
    let payload_bytes = r.take(payload_len)?;
    if r.remaining() != 0 {
        return Err(TransportError::Frame(
            "trailing bytes in update frame".into(),
        ));
    }
    let payload = Payload::from_bytes(payload_bytes, ctx)
        .map_err(|e| TransportError::Frame(format!("payload: {e}")))?;
    Ok((
        device,
        round,
        epoch,
        DeviceUpdate {
            payload,
            bn,
            samples,
            realized_flops,
            wall_secs,
        },
    ))
}

/// Channel count of every BatchNorm layer of `model`, in
/// [`Model::for_each_bn_stats`] order: the shape the BN section of an
/// UPDATE answering a broadcast of `model` must have.
pub(crate) fn bn_channels(model: &dyn Model) -> Vec<usize> {
    let mut out = Vec::new();
    model.for_each_bn_stats(&mut |s| out.push(s.mean.len()));
    out
}

/// The one shared screen every inbound UPDATE body passes before the
/// server sees it, regardless of transport: structural decode, claimed
/// identity, round/epoch freshness, the sample-count cap, and the shape of
/// the BN section against the global model's channel counts (see
/// [`bn_channels`]). Returning the same [`FaultKind`]
/// from every transport is what keeps adversarial runs bit-identical
/// between TCP and the in-process harness.
pub(crate) fn screen_update_frame(
    body: &[u8],
    ctx: &WireCtx,
    want_device: usize,
    want_round: u64,
    want_epoch: u64,
    sample_cap: Option<u64>,
    bn_channels: &[usize],
) -> Result<DeviceUpdate, FaultKind> {
    let (device, round, epoch, update) = decode_update_frame(body, ctx).map_err(|e| {
        FaultKind::MalformedFrame(match e {
            TransportError::Frame(msg) => msg,
            TransportError::Io(e) => e.to_string(),
        })
    })?;
    if device != want_device {
        return Err(FaultKind::MalformedFrame(format!(
            "device {device} answered on device {want_device}'s stream"
        )));
    }
    if round != want_round || epoch != want_epoch {
        return Err(FaultKind::Replay {
            got_round: round,
            want_round,
            got_epoch: epoch,
            want_epoch,
        });
    }
    if let Some(cap) = sample_cap {
        if update.samples as u64 > cap {
            return Err(FaultKind::InflatedSamples {
                claimed: update.samples as u64,
                cap,
            });
        }
    }
    let shape_ok = update.bn.len() == bn_channels.len()
        && (update.bn.iter().zip(bn_channels)).all(|(s, &c)| s.mean.len() == c && s.var.len() == c);
    if !shape_ok {
        return Err(FaultKind::MalformedFrame(format!(
            "BatchNorm section does not match the model's {} layers",
            bn_channels.len()
        )));
    }
    Ok(update)
}

/// Serializes the shared tail of a ROUND frame body: the round index, the
/// server's mask epoch, and the full global snapshot (params + BN stats +
/// mask bits). The per-recipient cohort position is prepended separately
/// by the sender, so this (large) part is encoded once per round.
pub(crate) fn encode_round_frame(
    round: usize,
    epoch: u64,
    snapshot: &ModelSnapshot,
    mask: &Mask,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + 4 * snapshot.params.len());
    put_u64(&mut out, round as u64);
    put_u64(&mut out, epoch);
    crate::bytes::put_f32_vec(&mut out, &snapshot.params);
    put_bn_stats(&mut out, &snapshot.bn);
    put_u32(&mut out, mask.num_layers() as u32);
    for l in 0..mask.num_layers() {
        put_bitvec(&mut out, mask.layer(l));
    }
    out
}

/// Parses one ROUND frame body back into
/// `(cohort_pos, round, epoch, snapshot, mask)`. The cohort position is
/// the device's index *within this round's cohort* — the in-process loop
/// derives RNG streams from that positional index, so the device side must
/// train under it (not under its global id) to stay bit-identical.
pub(crate) fn decode_round_frame(
    bytes: &[u8],
) -> Result<(usize, usize, u64, ModelSnapshot, Mask), TransportError> {
    let mut r = ByteReader::new(bytes);
    let cohort_pos = r.u32()? as usize;
    let round = r.len_u64()?;
    let epoch = r.u64()?;
    let params = r.f32_vec()?;
    let bn = r.bn_stats()?;
    let layers = r.u32()? as usize;
    let mut mask_layers = Vec::with_capacity(layers.min(4096));
    for _ in 0..layers {
        mask_layers.push(r.bitvec()?);
    }
    if r.remaining() != 0 {
        return Err(TransportError::Frame(
            "trailing bytes in round frame".into(),
        ));
    }
    Ok((
        cohort_pos,
        round,
        epoch,
        ModelSnapshot { params, bn },
        Mask::from_layers(mask_layers),
    ))
}

/// Bytes of a frame header: `u32 body_len | u8 kind`.
const FRAME_HEADER: usize = 5;

/// Starts a frame in `frame`: empties it and reserves the header, so that
/// the body is appended in place and [`send_frame`] sends both at once.
pub(crate) fn begin_frame(frame: &mut Vec<u8>) {
    frame.clear();
    frame.resize(FRAME_HEADER, 0);
}

/// Fills in the header of a frame started by [`begin_frame`] and writes the
/// frame with a single `write_all`. Header, kind and body as three writes on
/// an unbuffered socket were three syscalls and, with Nagle's algorithm on,
/// up to three segments a frame.
pub(crate) fn send_frame(
    stream: &mut TcpStream,
    kind: u8,
    frame: &mut [u8],
) -> std::io::Result<()> {
    let body_len = frame
        .len()
        .checked_sub(FRAME_HEADER)
        .and_then(|len| u32::try_from(len).ok())
        .ok_or_else(|| {
            let msg = format!("no frame of {} bytes (header included)", frame.len());
            std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
        })?;
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame[4] = kind;
    stream.write_all(frame)
}

/// Writes one length-prefixed frame around a finished `body`.
pub(crate) fn write_frame(stream: &mut TcpStream, kind: u8, body: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + body.len());
    begin_frame(&mut frame);
    frame.extend_from_slice(body);
    send_frame(stream, kind, &mut frame)
}

/// Reads one length-prefixed frame, bounding the body at 1 GiB so a
/// corrupt length prefix cannot trigger an absurd allocation.
pub(crate) fn read_frame(stream: &mut TcpStream) -> Result<(u8, Vec<u8>), TransportError> {
    let mut header = [0u8; FRAME_HEADER];
    stream.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len > 1 << 30 {
        return Err(TransportError::Frame(format!(
            "frame of {len} bytes refused"
        )));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok((header[4], body))
}

// ---------------------------------------------------------------------------
// TCP transport (server side)
// ---------------------------------------------------------------------------

/// The socket transport: each device is a [`run_tcp_device`] client on the
/// other end of a `std::net::TcpStream`, identified by the device id in its
/// HELLO frame. Length-prefixed frames carry the global snapshot down and
/// the encoded updates back, so every exchanged byte is a real wire byte.
///
/// A server cannot know ahead of time whether its fleet is hostile, so it
/// has one posture and never trusts its devices: bad handshakes are refused
/// and counted ([`handshake_faults`](Self::handshake_faults)), bad frames
/// quarantine their sender as a [`Delivery::Faulted`], a stream silent past
/// [`FlConfig::collect_timeout_secs`] or dead is dropped, and (because the
/// listener is retained) departed devices may rejoin between rounds via
/// [`RoundRequest::rejoining`]. Only a server-side socket failure aborts a
/// round. An honest fleet never trips any of it, and its run is
/// bit-identical to [`InProcess`].
///
/// Only barrier schedulers (`Synchronous`, `Deadline`) are supported — the
/// buffered event loop interleaves training with arrivals and requires a
/// local transport.
#[derive(Debug)]
pub struct TcpTransport {
    /// One stream slot per device, indexed by device id. `None` = departed
    /// or quarantined-dead.
    streams: Vec<Option<TcpStream>>,
    /// The accepting listener, retained for between-round rejoins.
    listener: TcpListener,
    /// Connection attempts refused during accept/rejoin.
    handshake_faults: usize,
    /// Per-device receive buffers, recycled across rounds: the multiplexed
    /// collect loop reads each UPDATE body straight into its device's slot
    /// and the screen decodes from there — steady-state rounds reuse the
    /// same capacity instead of allocating a fresh `Vec` per frame.
    recv_bufs: Vec<Vec<u8>>,
    /// Recycled per-recipient broadcast frame (cohort-position prefix +
    /// shared snapshot), rebuilt in place for every cohort member.
    broadcast_scratch: Vec<u8>,
}

/// Read timeout the server arms on every accepted stream before reading its
/// HELLO, so a half-written handshake — at accept or at a rejoin between
/// rounds — is refused instead of hanging the server. The per-round collect
/// deadline is a separate knob ([`FlConfig::collect_timeout_secs`]) and
/// travels with the [`RoundRequest`].
const HANDSHAKE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// How long the multiplexed collect loop sleeps when a full readiness sweep
/// over every pending stream made no progress — long enough to stay off the
/// CPU while the fleet trains, short enough to add negligible latency to a
/// round.
const MUX_IDLE_SLEEP: std::time::Duration = std::time::Duration::from_micros(500);

impl TcpTransport {
    /// Binds `addr` and accepts the fleet ([`accept_fleet`](Self::accept_fleet)).
    pub fn listen(addr: impl ToSocketAddrs, devices: usize) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        Self::accept_fleet(&listener, devices)
    }

    /// Accepts `devices` HELLO-identified clients on an existing listener
    /// (lets tests bind port 0 first and hand the resolved address to their
    /// client threads), each claiming a device id in `0..devices`.
    /// Handshakes that are malformed, truncated, out of range or abandoned
    /// mid-frame are refused and counted without aborting; a duplicate
    /// device id replaces the earlier stream (latest connection wins — the
    /// reconnect case) and counts the loser. Keeps a clone of `listener` so
    /// departed devices can rejoin later.
    pub fn accept_fleet(listener: &TcpListener, devices: usize) -> Result<Self, TransportError> {
        let listener = listener.try_clone()?;
        let mut streams: Vec<Option<TcpStream>> = (0..devices).map(|_| None).collect();
        let mut connected = 0;
        let mut handshake_faults = 0;
        while connected < devices {
            match accept_hello(&listener, devices)? {
                (stream, Some(device)) => {
                    if streams[device].replace(stream).is_some() {
                        handshake_faults += 1;
                    } else {
                        connected += 1;
                    }
                }
                (_, None) => handshake_faults += 1,
            }
        }
        Ok(TcpTransport {
            streams,
            listener,
            handshake_faults,
            recv_bufs: (0..devices).map(|_| Vec::new()).collect(),
            broadcast_scratch: Vec::new(),
        })
    }

    /// Number of device slots (live or departed).
    pub fn devices(&self) -> usize {
        self.streams.len()
    }

    /// Connection attempts refused during accept and rejoin screening.
    pub fn handshake_faults(&self) -> usize {
        self.handshake_faults
    }

    /// Drops the stale streams of `rejoining` devices and blocking-accepts
    /// their fresh HELLOs (slotting any other valid arrival for an empty
    /// slot along the way, so concurrent rejoiners cannot deadlock each
    /// other). The server drives this from its presence schedule, which
    /// makes the rejoin race-free: the device's new connection is fully
    /// established before the round broadcast.
    fn reconnect_rejoining(&mut self, rejoining: &[usize]) -> Result<(), TransportError> {
        for &d in rejoining {
            if d >= self.streams.len() {
                return Err(TransportError::Frame(format!(
                    "rejoining device {d} outside fleet of {}",
                    self.streams.len()
                )));
            }
            self.streams[d] = None;
        }
        let mut waiting: Vec<usize> = rejoining.to_vec();
        while !waiting.is_empty() {
            match accept_hello(&self.listener, self.streams.len())? {
                (stream, Some(device)) if self.streams[device].is_none() => {
                    self.streams[device] = Some(stream);
                    waiting.retain(|&w| w != device);
                }
                // A valid HELLO for a live slot is an impostor (or a
                // reconnect we did not schedule): refuse and count it.
                _ => self.handshake_faults += 1,
            }
        }
        Ok(())
    }
}

/// Accepts one connection with Nagle's algorithm off: every frame is one
/// write already ([`send_frame`]), so holding a small one back for the ACK of
/// the last can only add latency.
fn accept_nodelay(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Accepts one connection and reads its HELLO under [`HANDSHAKE_TIMEOUT`]:
/// the stream, and the device id it claims — `None` for a refused handshake.
/// Only a failing listener is an error.
fn accept_hello(
    listener: &TcpListener,
    devices: usize,
) -> std::io::Result<(TcpStream, Option<usize>)> {
    let mut stream = accept_nodelay(listener)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let device = read_hello(&mut stream, devices).ok();
    Ok((stream, device))
}

/// Reads and validates one HELLO frame, returning the claimed device id.
fn read_hello(stream: &mut TcpStream, devices: usize) -> Result<usize, TransportError> {
    let (kind, body) = read_frame(stream)?;
    if kind != FRAME_HELLO {
        return Err(TransportError::Frame(format!(
            "expected HELLO, got frame kind {kind}"
        )));
    }
    let mut r = ByteReader::new(&body);
    let device = r.u32()? as usize;
    if device >= devices {
        return Err(TransportError::Frame(format!(
            "device id {device} outside fleet of {devices}"
        )));
    }
    Ok(device)
}

/// Per-stream progress of the multiplexed collect loop: where the next
/// received byte lands (header or body) and when the server gives the
/// stream up as silent.
struct MuxRecv {
    /// Index within this round's cohort (the slot in `outcomes`).
    pos: usize,
    /// Global device id: selects the stream and its receive buffer.
    device: usize,
    /// Frame header under assembly: `u32 body_len | u8 kind`.
    header: [u8; FRAME_HEADER],
    /// Header bytes received so far.
    header_filled: usize,
    /// Body length parsed from the completed header.
    body_len: usize,
    /// Body bytes received so far.
    body_filled: usize,
    /// Instant after which the server quarantines the stream; re-armed on
    /// every received byte.
    deadline: std::time::Instant,
}

/// What the readiness loop settled for one pending cohort member.
enum MuxOutcome {
    /// A complete frame of this kind landed in the device's receive buffer.
    Frame {
        /// The frame kind byte from the header.
        kind: u8,
    },
    /// The stream faulted mid-collect and was dropped.
    Fault(FaultKind),
}

/// Reads exactly one frame from every `pending` stream through a single
/// nonblocking readiness loop: each sweep polls every still-pending socket,
/// draining whatever bytes the kernel has, and a sweep that moves no bytes
/// at all sleeps [`MUX_IDLE_SLEEP`] before retrying. Frame bodies land in
/// the per-device `recv_bufs` slot (recycled across rounds — a steady-state
/// collect reuses the capacity instead of allocating per frame), and every
/// pending member leaves with a [`MuxOutcome`] in its cohort slot.
///
/// EOF, io errors and oversize length prefixes quarantine their stream and
/// kill it, and so does silence past `timeout` (the
/// [`FlConfig::collect_timeout_secs`] knob). Surviving streams are restored
/// to blocking mode on exit so the next round's broadcast writes behave.
fn collect_multiplexed(
    streams: &mut [Option<TcpStream>],
    recv_bufs: &mut [Vec<u8>],
    pending: &[(usize, usize)],
    outcomes: &mut [Option<MuxOutcome>],
    timeout: std::time::Duration,
) -> Result<(), TransportError> {
    let armed = std::time::Instant::now() + timeout;
    let mut live: Vec<MuxRecv> = Vec::with_capacity(pending.len());
    for &(pos, device) in pending {
        let stream = streams[device].as_mut().expect("broadcast left it live");
        stream.set_nonblocking(true)?;
        live.push(MuxRecv {
            pos,
            device,
            header: [0; FRAME_HEADER],
            header_filled: 0,
            body_len: 0,
            body_filled: 0,
            deadline: armed,
        });
    }
    while !live.is_empty() {
        let mut progressed = false;
        live.retain_mut(|st| {
            let stream = streams[st.device].as_mut().expect("registered live");
            let fault = loop {
                let res = if st.header_filled < st.header.len() {
                    stream.read(&mut st.header[st.header_filled..])
                } else {
                    stream.read(&mut recv_bufs[st.device][st.body_filled..st.body_len])
                };
                match res {
                    Ok(0) => break FaultKind::Disconnected("connection closed mid-collect".into()),
                    Ok(n) => {
                        progressed = true;
                        st.deadline = std::time::Instant::now() + timeout;
                        if st.header_filled < st.header.len() {
                            st.header_filled += n;
                            if st.header_filled == st.header.len() {
                                let len =
                                    u32::from_le_bytes(st.header[..4].try_into().expect("4 bytes"))
                                        as usize;
                                if len > 1 << 30 {
                                    break FaultKind::MalformedFrame(format!(
                                        "frame of {len} bytes refused"
                                    ));
                                }
                                st.body_len = len;
                                let buf = &mut recv_bufs[st.device];
                                buf.clear();
                                buf.resize(len, 0);
                            }
                        } else {
                            st.body_filled += n;
                        }
                        if st.header_filled == st.header.len() && st.body_filled == st.body_len {
                            outcomes[st.pos] = Some(MuxOutcome::Frame { kind: st.header[4] });
                            return false;
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if std::time::Instant::now() < st.deadline {
                            return true;
                        }
                        break FaultKind::Disconnected(format!(
                            "no bytes for {:.1}s during collect",
                            timeout.as_secs_f64()
                        ));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => break FaultKind::Disconnected(e.to_string()),
                }
            };
            streams[st.device] = None;
            outcomes[st.pos] = Some(MuxOutcome::Fault(fault));
            false
        });
        if !progressed && !live.is_empty() {
            std::thread::sleep(MUX_IDLE_SLEEP);
        }
    }
    // Collect is over: surviving cohort streams go back to blocking mode
    // for the next round's broadcast writes (and the DONE frame).
    for &(_, device) in pending {
        if let Some(stream) = streams[device].as_mut() {
            stream.set_nonblocking(false)?;
        }
    }
    Ok(())
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn is_local(&self) -> bool {
        false
    }

    fn exchange_round(
        &mut self,
        req: &mut RoundRequest<'_>,
    ) -> Result<Vec<Delivery>, TransportError> {
        self.reconnect_rejoining(req.rejoining)?;
        let snapshot = take_snapshot(req.global);
        let shared = encode_round_frame(req.round, req.epoch, &snapshot, req.mask);
        let Self {
            streams,
            recv_bufs,
            broadcast_scratch,
            ..
        } = self;
        // Broadcast phase: a member whose stream is dead (or dies on
        // write) is quarantined here and skipped during collection.
        let mut broadcast_faults: Vec<Option<FaultKind>> = vec![None; req.cohort.len()];
        for (pos, &k) in req.cohort.iter().enumerate() {
            let Some(Some(stream)) = streams.get_mut(k) else {
                broadcast_faults[pos] = Some(FaultKind::Disconnected(format!(
                    "no live stream for device {k}"
                )));
                continue;
            };
            // Per-recipient prefix: the device's position within this
            // round's cohort (the index the in-process loop trains it
            // under), then the shared snapshot. The frame buffer is
            // recycled across recipients and rounds.
            begin_frame(broadcast_scratch);
            put_u32(broadcast_scratch, pos as u32);
            broadcast_scratch.extend_from_slice(&shared);
            if let Err(e) = send_frame(stream, FRAME_ROUND, broadcast_scratch) {
                streams[k] = None;
                broadcast_faults[pos] = Some(FaultKind::Disconnected(e.to_string()));
            }
        }
        // Collection phase: one readiness loop over every pending stream,
        // reading whichever socket has bytes — no cohort member can stall
        // the members behind it, and one server thread owns the whole
        // fleet's sockets. Arrival order is whatever the kernel delivers;
        // determinism is restored by screening in cohort order below.
        let pending: Vec<(usize, usize)> = req
            .cohort
            .iter()
            .enumerate()
            .filter(|&(pos, _)| broadcast_faults[pos].is_none())
            .map(|(pos, &k)| (pos, k))
            .collect();
        let mut outcomes: Vec<Option<MuxOutcome>> = Vec::with_capacity(req.cohort.len());
        outcomes.resize_with(req.cohort.len(), || None);
        let timeout = std::time::Duration::from_secs_f64(req.cfg.collect_timeout_secs);
        collect_multiplexed(streams, recv_bufs, &pending, &mut outcomes, timeout)?;
        // Screening phase, in cohort order, so delivery order — and with it
        // the aggregation — is independent of arrival order. Decode-level
        // faults keep the stream (the length-prefixed framing is intact, so
        // the connection can still carry next round); io/framing faults
        // killed it inside the readiness loop.
        let bn = bn_channels(req.global);
        let mut out = Vec::with_capacity(req.cohort.len());
        for (pos, &k) in req.cohort.iter().enumerate() {
            if let Some(fault) = broadcast_faults[pos].take() {
                out.push(Delivery::Faulted(fault));
                continue;
            }
            let kind = match outcomes[pos]
                .take()
                .expect("readiness loop settles every member")
            {
                MuxOutcome::Fault(fault) => {
                    out.push(Delivery::Faulted(fault));
                    continue;
                }
                MuxOutcome::Frame { kind } => kind,
            };
            if kind != FRAME_UPDATE {
                out.push(Delivery::Faulted(FaultKind::MalformedFrame(format!(
                    "expected UPDATE from device {k}, got frame kind {kind}"
                ))));
                continue;
            }
            let cap = req.sample_caps.get(pos).map(|&c| c as u64);
            let (round, body) = (req.round as u64, &recv_bufs[k]);
            let screened = screen_update_frame(body, req.ctx, k, round, req.epoch, cap, &bn);
            out.push(match screened {
                Ok(update) => Delivery::Update(update),
                Err(fault) => Delivery::Faulted(fault),
            });
        }
        Ok(out)
    }

    fn deliver_update(&mut self, update: DeviceUpdate, _ctx: &WireCtx) -> DeviceUpdate {
        // Unreachable in practice: the server refuses buffered runs over
        // non-local transports before they start.
        update
    }

    fn shutdown(&mut self) {
        for stream in self.streams.iter_mut().flatten() {
            let _ = write_frame(stream, FRAME_DONE, &[]);
        }
    }
}

// ---------------------------------------------------------------------------
// TCP client (device side)
// ---------------------------------------------------------------------------

/// Answers one ROUND body for `device`: restores the broadcast snapshot into
/// `model`, applies the mask and trains locally — same RNG streams, same
/// kernels as the in-process path, so the final aggregate is bit-identical —
/// under the *cohort-positional* index the server assigned for this round.
/// The in-process loop derives device RNG streams from that position, so
/// this is what keeps TCP bit-identical under partial participation. Hands
/// back `(round, mask epoch, update, wire context of the update)`.
fn answer_round(
    body: &[u8],
    model: &mut dyn Model,
    device: usize,
    env: &crate::ExperimentEnv,
    residual: Option<&mut Vec<f32>>,
    rt: &Runtime,
) -> Result<(u64, u64, DeviceUpdate, WireCtx), TransportError> {
    let data = env.parts.get(device).ok_or_else(|| {
        TransportError::Frame(format!("device {device} has no partition in this env"))
    })?;
    let (cohort_pos, round, epoch, snapshot, mask) = decode_round_frame(body)?;
    restore_snapshot(model, &snapshot);
    apply_mask(model, &mask);
    let ctx = wire_ctx(model, &mask, epoch);
    let wire = WireSpec {
        codec: env.cfg.codec,
        ctx: &ctx,
        peer_epoch: epoch,
    };
    let (model, mask, cfg) = (&*model, Some(&mask), &env.cfg);
    let update = crate::train::train_one_device(
        model, data, mask, cfg, round, cohort_pos, 0, &wire, residual, rt,
    );
    Ok((round as u64, epoch, update, ctx))
}

/// The device side of the TCP protocol, shared by every client: connect one
/// socket per device of `devices` (retrying refused connections for ~30 s,
/// so clients may launch before the server finishes binding), identify each
/// with its HELLO, then serve the sockets in lockstep device order until the
/// server hangs up. The sockets share one model instance and one training
/// loop; each keeps its own error-feedback residual. Every ROUND frame is
/// answered by [`answer_round`]; `body(frame, device, round, epoch, update,
/// ctx)` appends the UPDATE body to send, and the client hangs up once it
/// has replied to round `leave_after` — the clients differ in nothing else.
///
/// `env` must be built from the same seed and configuration as the
/// server's (the synthetic datasets are pure functions of the seed, so both
/// ends derive identical partitions without ever shipping data).
pub(crate) fn serve_devices(
    addr: impl ToSocketAddrs + Clone,
    devices: std::ops::Range<usize>,
    env: &crate::ExperimentEnv,
    spec: &crate::ModelSpec,
    leave_after: Option<u64>,
    mut body: impl FnMut(&mut Vec<u8>, usize, u64, u64, &DeviceUpdate, &WireCtx),
) -> Result<(), TransportError> {
    let mut streams = Vec::with_capacity(devices.len());
    for device in devices.clone() {
        let mut stream = connect_with_retry(addr.clone())?;
        write_frame(&mut stream, FRAME_HELLO, &(device as u32).to_le_bytes())?;
        streams.push(stream);
    }
    let mut model = env.build_model(spec);
    let rt = env.cfg.runtime();
    model.set_runtime(rt);
    let needs_residual = env.cfg.codec.uses_error_feedback();
    let mut residuals: Vec<Vec<f32>> = vec![Vec::new(); devices.len()];
    let mut frame = Vec::new();
    loop {
        for (i, device) in devices.clone().enumerate() {
            let stream = &mut streams[i];
            let (kind, round_body) = read_frame(stream)?;
            match kind {
                FRAME_DONE if i == 0 => return Ok(()),
                FRAME_DONE => {
                    return Err(TransportError::Frame(format!(
                        "server hung up on device {device} mid-round"
                    )))
                }
                FRAME_ROUND => {
                    let residual = needs_residual.then_some(&mut residuals[i]);
                    let (round, epoch, update, ctx) =
                        answer_round(&round_body, model.as_mut(), device, env, residual, &rt)?;
                    begin_frame(&mut frame);
                    body(&mut frame, device, round, epoch, &update, &ctx);
                    send_frame(stream, FRAME_UPDATE, &mut frame)?;
                    if leave_after.is_some_and(|last| round >= last) {
                        return Ok(());
                    }
                }
                other => {
                    return Err(TransportError::Frame(format!(
                        "unexpected frame kind {other} from server"
                    )))
                }
            }
        }
    }
}

/// Runs one device's side of the TCP protocol until the server hangs up
/// (`serve_devices` over one socket): for every ROUND frame, train locally
/// on the broadcast snapshot and reply with the update as trained, stamped
/// with the round and mask epoch it answers.
pub fn run_tcp_device(
    addr: impl ToSocketAddrs + Clone,
    device: usize,
    env: &crate::ExperimentEnv,
    spec: &crate::ModelSpec,
) -> Result<(), TransportError> {
    let devices = device..device + 1;
    serve_devices(addr, devices, env, spec, None, encode_update_frame_into)
}

/// Runs many devices' sides of the TCP protocol from one thread — the
/// client half of a 10k-device loopback fleet, where a thread per device
/// would exhaust the machine long before the transport does.
///
/// Serving the sockets in lockstep device order is deadlock-free because
/// the server's barrier protocol writes every cohort member's ROUND
/// broadcast before reading any UPDATE, and its multiplexed collect loop
/// drains earlier devices' replies while this loop is still working through
/// later ones. Lockstep requires every device to appear in every cohort, so
/// the config must run full participation; anything else would leave this
/// loop blocked on a socket the server never wrote to.
pub fn run_tcp_devices(
    addr: impl ToSocketAddrs + Clone,
    devices: std::ops::Range<usize>,
    env: &crate::ExperimentEnv,
    spec: &crate::ModelSpec,
) -> Result<(), TransportError> {
    if devices.is_empty() {
        return Ok(());
    }
    if env.cfg.participation < 1.0 {
        return Err(TransportError::Frame(format!(
            "run_tcp_devices serves its sockets in lockstep and needs every device in \
             every cohort: participation is {}, not 1.0 (use one run_tcp_device thread \
             per device for partial participation)",
            env.cfg.participation
        )));
    }
    serve_devices(addr, devices, env, spec, None, encode_update_frame_into)
}

/// Connects to the server, retrying connection-refused/reset errors with a
/// short backoff for ~30 seconds — client and server processes are usually
/// launched concurrently, and the bind is a race the client should absorb.
/// The stream comes back with Nagle's algorithm off, like the server's end
/// (`accept_nodelay`).
pub(crate) fn connect_with_retry(
    addr: impl ToSocketAddrs + Clone,
) -> Result<TcpStream, TransportError> {
    let mut last_err = None;
    for _ in 0..120 {
        match TcpStream::connect(addr.clone()) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                last_err = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(last_err.expect("retry loop ran").into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use crate::ExperimentEnv;
    use ft_nn::sparse_layout;
    use ft_sparse::Codec;

    #[test]
    fn update_frame_roundtrips_bit_exactly() {
        let env = ExperimentEnv::tiny_for_tests(3);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let mask = Mask::ones(&sparse_layout(model.as_ref()));
        let ctx = wire_ctx(model.as_ref(), &mask, 5);
        for codec in [Codec::Dense, Codec::MaskCsr, Codec::QuantInt8] {
            let delta: Vec<f32> = (0..ctx.len()).map(|i| (i as f32).sin()).collect();
            let update = DeviceUpdate {
                payload: codec.encode(&delta, &ctx, 5, None),
                bn: model.bn_stats().into_iter().cloned().collect(),
                samples: 17,
                realized_flops: 1.25e9,
                wall_secs: 0.125,
            };
            let frame = encode_update_frame(2, 7, 5, &update, &ctx);
            let (device, round, epoch, back) =
                decode_update_frame(&frame, &ctx).expect("roundtrip");
            assert_eq!(device, 2);
            assert_eq!((round, epoch), (7, 5));
            assert_eq!(back.payload, update.payload, "{codec:?}");
            assert_eq!(back.bn, update.bn);
            assert_eq!(back.samples, 17);
            assert_eq!(
                back.realized_flops.to_bits(),
                update.realized_flops.to_bits()
            );
        }
    }

    #[test]
    fn round_frame_roundtrips_snapshot_and_mask() {
        let env = ExperimentEnv::tiny_for_tests(4);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let mut mask = Mask::ones(&layout);
        for i in 0..layout.layer(0).len {
            if i % 3 == 0 {
                mask.set(0, i, false);
            }
        }
        let snapshot = take_snapshot(model.as_ref());
        let mut frame = Vec::new();
        put_u32(&mut frame, 1); // cohort position prefix
        frame.extend_from_slice(&encode_round_frame(7, 2, &snapshot, &mask));
        let (pos, round, epoch, snap, mask_back) = decode_round_frame(&frame).expect("roundtrip");
        assert_eq!(pos, 1);
        assert_eq!(round, 7);
        assert_eq!(epoch, 2);
        assert_eq!(snap, snapshot);
        assert_eq!(mask_back.num_layers(), mask.num_layers());
        for l in 0..mask.num_layers() {
            assert_eq!(mask_back.layer(l), mask.layer(l), "layer {l}");
        }
    }

    #[test]
    fn frames_reject_truncation() {
        let env = ExperimentEnv::tiny_for_tests(5);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let mask = Mask::ones(&sparse_layout(model.as_ref()));
        let snapshot = take_snapshot(model.as_ref());
        let frame = encode_round_frame(0, 0, &snapshot, &mask);
        assert!(decode_round_frame(&frame[..frame.len() / 2]).is_err());
        let ctx = wire_ctx(model.as_ref(), &mask, 0);
        let update = DeviceUpdate {
            payload: Payload::Dense {
                values: vec![0.5; ctx.len()],
            },
            bn: Vec::new(),
            samples: 1,
            realized_flops: 0.0,
            wall_secs: 0.0,
        };
        let uframe = encode_update_frame(0, 0, 0, &update, &ctx);
        assert!(decode_update_frame(&uframe[..10], &ctx).is_err());
    }

    /// A frame built in place — header reserved, body appended behind it,
    /// both sent as one write — is byte for byte the `len | kind | body`
    /// layout, and both of the server's readers parse it: the blocking
    /// `read_frame` and the multiplexed collect loop.
    #[test]
    fn frames_sent_as_one_write_parse_from_both_readers() {
        let ctx = WireCtx::dense(8);
        let update = DeviceUpdate {
            payload: Payload::Dense {
                values: (0..8).map(|i| i as f32 * 0.5).collect(),
            },
            bn: Vec::new(),
            samples: 3,
            realized_flops: 1.0,
            wall_secs: 0.0,
        };
        let body = encode_update_frame(0, 1, 2, &update, &ctx);
        let mut frame = vec![0xAA; 3]; // recycled: stale bytes are dropped
        begin_frame(&mut frame);
        encode_update_frame_into(&mut frame, 0, 1, 2, &update, &ctx);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = connect_with_retry(addr).expect("connect");
            assert!(stream.nodelay().expect("nodelay"));
            for _ in 0..2 {
                send_frame(&mut stream, FRAME_UPDATE, &mut frame).expect("send");
            }
            write_frame(&mut stream, FRAME_DONE, &[]).expect("done");
            (stream, frame)
        });
        let mut stream = accept_nodelay(&listener).expect("accept");
        assert!(stream.nodelay().expect("nodelay"));
        let (kind, got) = read_frame(&mut stream).expect("blocking read");
        assert_eq!((kind, &got), (FRAME_UPDATE, &body));

        let mut streams = [Some(stream)];
        let mut recv_bufs = [Vec::new()];
        let mut outcomes = [None];
        collect_multiplexed(
            &mut streams,
            &mut recv_bufs,
            &[(0, 0)],
            &mut outcomes,
            std::time::Duration::from_secs(5),
        )
        .expect("multiplexed read");
        assert!(matches!(
            outcomes[0],
            Some(MuxOutcome::Frame { kind: FRAME_UPDATE })
        ));
        assert_eq!(recv_bufs[0], body);

        let stream = streams[0].as_mut().expect("still live");
        let (kind, got) = read_frame(stream).expect("blocking read");
        assert_eq!((kind, got.len()), (FRAME_DONE, 0));

        let (_socket, frame) = client.join().expect("client thread");
        let mut three_writes = (body.len() as u32).to_le_bytes().to_vec();
        three_writes.push(FRAME_UPDATE);
        three_writes.extend_from_slice(&body);
        assert_eq!(frame, three_writes);
    }

    #[test]
    fn sim_time_delivery_is_identity_on_payloads() {
        let ctx = WireCtx::dense(8);
        let update = DeviceUpdate {
            payload: Codec::QuantInt8.encode(&[0.5f32; 8], &ctx, 0, None),
            bn: vec![],
            samples: 3,
            realized_flops: 7.0,
            wall_secs: 0.25,
        };
        let back = SimTime.deliver_update(update.clone(), &ctx);
        assert_eq!(back.payload, update.payload);
        assert_eq!(back.samples, update.samples);
    }

    /// A loopback fleet of three devices in which device 1 drops its last
    /// BatchNorm layer from every otherwise honest UPDATE: the screen
    /// quarantines that frame as malformed each round, and the run completes
    /// on the two honest members instead of panicking in the BN fold.
    #[test]
    fn corrupt_bn_shape_update_is_quarantined_every_round() {
        let env = ExperimentEnv::tiny_for_tests(11);
        let spec = ModelSpec::small_cnn_test();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client_env = env.clone();
        let client = std::thread::spawn(move || {
            let body = |frame: &mut Vec<u8>, device, round, epoch, u: &DeviceUpdate, ctx: &_| {
                let mut u = u.clone();
                if device == 1 {
                    u.bn.pop();
                }
                encode_update_frame_into(frame, device, round, epoch, &u, ctx);
            };
            serve_devices(addr, 0..3, &client_env, &spec, None, body)
        });
        let mut transport = TcpTransport::accept_fleet(&listener, 3).expect("accept");
        let mut model = env.build_model(&spec);
        let mut mask = Mask::ones(&sparse_layout(model.as_ref()));
        let mut ledger = crate::CostLedger::new();
        let history = crate::run_with(
            model.as_mut(),
            &mut mask,
            &env,
            1,
            &mut ledger,
            &mut crate::no_hook(),
            crate::RunOptions::new(&mut transport),
        )
        .expect("a bad BN section is a device fault, not a server failure");
        client
            .join()
            .expect("client thread")
            .expect("devices served");
        assert_eq!(history.len(), env.cfg.rounds);
        let faults = ledger.faults();
        assert_eq!(faults.malformed_frames, env.cfg.rounds as u64);
        assert_eq!(faults.total_quarantined(), env.cfg.rounds as u64);
    }

    mod corruption {
        use super::*;
        use ft_nn::BnStats;
        use proptest::prelude::*;

        /// Channel counts of the fixture's BatchNorm layers.
        const BN: &[usize] = &[4, 2, 3];

        /// The update behind [`sample_update_body`].
        fn sample_update(ctx: &WireCtx) -> DeviceUpdate {
            let stats = |c: usize| BnStats {
                mean: (0..c).map(|i| i as f32 * 0.25).collect(),
                var: vec![1.0; c],
            };
            DeviceUpdate {
                payload: Payload::Dense {
                    values: (0..ctx.len()).map(|i| (i as f32).cos()).collect(),
                },
                bn: BN.iter().map(|&c| stats(c)).collect(),
                samples: 9,
                realized_flops: 3.0e6,
                wall_secs: 0.5,
            }
        }

        /// A valid UPDATE body for device 3, round 4, epoch 2, claiming 9
        /// samples, with a BN section of [`BN`]'s shape — the fixed point
        /// the fuzzers mutate away from.
        fn sample_update_body(ctx: &WireCtx) -> Vec<u8> {
            encode_update_frame(3, 4, 2, &sample_update(ctx), ctx)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random byte mutations of a valid UPDATE body either still
            /// screen clean (the flip hit a value byte) or land on a typed
            /// fault — the ingest path never panics, and a surviving update
            /// always respects the sample cap.
            #[test]
            fn corrupt_update_bodies_screen_to_typed_faults(
                flips in proptest::collection::vec((0usize..4096, 1usize..256), 1..8),
            ) {
                let ctx = WireCtx::dense(16);
                let mut body = sample_update_body(&ctx);
                for &(pos, xor) in &flips {
                    let i = pos % body.len();
                    body[i] ^= xor as u8;
                }
                match screen_update_frame(&body, &ctx, 3, 4, 2, Some(9), BN) {
                    Ok(u) => {
                        prop_assert!(u.samples as u64 <= 9);
                        let channels: Vec<usize> = u.bn.iter().map(|s| s.mean.len()).collect();
                        prop_assert_eq!(channels, BN.to_vec());
                    }
                    Err(FaultKind::MalformedFrame(_))
                    | Err(FaultKind::Replay { .. })
                    | Err(FaultKind::InflatedSamples { .. }) => {}
                    Err(f @ FaultKind::Disconnected(_)) => {
                        prop_assert!(false, "byte corruption cannot disconnect: {f:?}")
                    }
                }
            }

            /// Every proper prefix of a valid UPDATE body is a typed
            /// malformed-frame fault, not a panic (extends the fixed-length
            /// truncation check to all cut points).
            #[test]
            fn truncated_update_bodies_are_malformed(cut in 0usize..4096) {
                let ctx = WireCtx::dense(16);
                let body = sample_update_body(&ctx);
                prop_assume!(cut < body.len());
                let got = screen_update_frame(&body[..cut], &ctx, 3, 4, 2, None, BN);
                prop_assert!(
                    matches!(got, Err(FaultKind::MalformedFrame(_))),
                    "cut at {}: {:?}",
                    cut,
                    got
                );
            }

            /// A bit-exact replay of an older round's update is quarantined
            /// as [`FaultKind::Replay`] with both stamps preserved for the
            /// ledger.
            #[test]
            fn replayed_update_bodies_are_typed_replays(
                want_round in 5u64..50,
                want_epoch in 3u64..40,
            ) {
                let ctx = WireCtx::dense(16);
                let body = sample_update_body(&ctx); // stamped round 4, epoch 2
                match screen_update_frame(&body, &ctx, 3, want_round, want_epoch, None, BN) {
                    Err(FaultKind::Replay {
                        got_round,
                        want_round: wr,
                        got_epoch,
                        want_epoch: we,
                    }) => {
                        prop_assert_eq!((got_round, got_epoch), (4, 2));
                        prop_assert_eq!((wr, we), (want_round, want_epoch));
                    }
                    other => prop_assert!(false, "expected replay fault, got {other:?}"),
                }
            }

            /// An update claiming more samples than the device's partition
            /// holds is quarantined as weight inflation.
            #[test]
            fn inflated_sample_claims_are_quarantined(cap in 0u64..9) {
                let ctx = WireCtx::dense(16);
                let body = sample_update_body(&ctx); // claims 9 samples
                match screen_update_frame(&body, &ctx, 3, 4, 2, Some(cap), BN) {
                    Err(FaultKind::InflatedSamples { claimed, cap: c }) => {
                        prop_assert_eq!((claimed, c), (9, cap));
                    }
                    other => prop_assert!(false, "expected inflation fault, got {other:?}"),
                }
            }

            /// An otherwise valid update whose BN section has the wrong
            /// shape — a layer dropped or duplicated, one layer's channels
            /// grown or shrunk — is a typed malformed-frame fault, so it
            /// never reaches the BN aggregation.
            #[test]
            fn corrupt_bn_shapes_are_malformed(
                op in 0usize..4,
                layer in 0usize..3,
                delta in 1usize..4,
            ) {
                let ctx = WireCtx::dense(16);
                let mut update = sample_update(&ctx);
                match op {
                    0 => drop(update.bn.remove(layer)),
                    1 => update.bn.insert(layer, update.bn[layer].clone()),
                    _ => {
                        let s = &mut update.bn[layer];
                        let c = s.mean.len();
                        let c = if op == 2 { c + delta } else { c.saturating_sub(delta) };
                        s.mean.resize(c, 0.0);
                        s.var.resize(c, 1.0);
                    }
                }
                let body = encode_update_frame(3, 4, 2, &update, &ctx);
                let got = screen_update_frame(&body, &ctx, 3, 4, 2, Some(9), BN);
                prop_assert!(
                    matches!(got, Err(FaultKind::MalformedFrame(_))),
                    "op {} layer {} delta {}: {:?}",
                    op,
                    layer,
                    delta,
                    got
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// The accept survives an arbitrary (well-framed) garbage
            /// handshake: the junk connection is refused or slotted per the
            /// HELLO rules, a following honest HELLO always completes the
            /// fleet, and nothing panics.
            #[test]
            fn accept_survives_garbage_hello(
                kind in 0usize..256,
                junk in proptest::collection::vec(0usize..256, 0..8),
            ) {
                let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
                let addr = listener.local_addr().expect("addr");
                let client = std::thread::spawn(move || {
                    let body: Vec<u8> = junk.iter().map(|&b| b as u8).collect();
                    let mut garbage = TcpStream::connect(addr).expect("connect");
                    write_frame(&mut garbage, kind as u8, &body).expect("garbage hello");
                    let mut honest = TcpStream::connect(addr).expect("connect");
                    write_frame(&mut honest, FRAME_HELLO, &0u32.to_le_bytes())
                        .expect("honest hello");
                    // Keep both sockets open until the server has accepted.
                    (garbage, honest)
                });
                let transport = TcpTransport::accept_fleet(&listener, 1)
                    .expect("accept never aborts on a bad handshake");
                prop_assert_eq!(transport.devices(), 1);
                let _sockets = client.join().expect("client thread");
            }
        }
    }

    /// Fuzzers driving corrupted frames through the *multiplexed* collect
    /// loop over a real socket — not just the body screen: truncations and
    /// mutations must land as typed quarantine deliveries, never a panic,
    /// never a hang, and never a hard error.
    mod mux {
        use super::*;
        use proptest::prelude::*;

        /// Runs one `exchange_round` against a fake device whose
        /// raw UPDATE wire bytes are rewritten by `transform` (returning
        /// the bytes to send and whether to drop the socket afterwards).
        /// The valid input frame is stamped for device 0, round 0, epoch 5
        /// — a clean pass yields `Delivery::Update`.
        fn round_against(transform: impl FnOnce(Vec<u8>) -> (Vec<u8>, bool)) -> Vec<Delivery> {
            let env = ExperimentEnv::tiny_for_tests(3);
            let model = env.build_model(&ModelSpec::small_cnn_test());
            let mask = Mask::ones(&sparse_layout(model.as_ref()));
            let epoch = 5;
            let ctx = wire_ctx(model.as_ref(), &mask, epoch);
            let update = DeviceUpdate {
                payload: Codec::MaskCsr.encode(&vec![0.125f32; ctx.len()], &ctx, epoch, None),
                bn: model.bn_stats().into_iter().cloned().collect(),
                samples: 7,
                realized_flops: 1.0e6,
                wall_secs: 0.25,
            };
            let body = encode_update_frame(0, 0, epoch, &update, &ctx);
            let mut wire = Vec::with_capacity(5 + body.len());
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.push(FRAME_UPDATE);
            wire.extend_from_slice(&body);
            let (bytes, drop_socket) = transform(wire);

            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let client = std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                write_frame(&mut stream, FRAME_HELLO, &0u32.to_le_bytes()).expect("hello");
                stream.write_all(&bytes).expect("raw update bytes");
                stream.flush().expect("flush");
                // The device never reads its ROUND broadcast; the kernel
                // buffers it. Dropping the stream here is the truncation
                // EOF the server must survive.
                if drop_socket {
                    None
                } else {
                    Some(stream)
                }
            });
            let mut transport = TcpTransport::accept_fleet(&listener, 1).expect("accept");
            // Join *before* the round: the corrupted bytes are already in
            // the socket buffer, so the collect loop never waits on the
            // quiet deadline.
            let _socket = client.join().expect("client thread");
            let mut cfg = FlConfig::tiny_for_tests();
            cfg.collect_timeout_secs = 2.0;
            let rt = Runtime::sequential();
            let mut req = RoundRequest {
                global: model.as_ref(),
                mask: &mask,
                ctx: &ctx,
                epoch,
                round: 0,
                cohort: &[0],
                parts: &[],
                cfg: &cfg,
                rt: &rt,
                residuals: &mut [],
                sample_caps: &[],
                rejoining: &[],
            };
            transport
                .exchange_round(&mut req)
                .expect("a device fault never hard-fails the round")
        }

        proptest! {
            /// Cutting a valid UPDATE frame anywhere — inside the header,
            /// inside the body — and closing the socket quarantines the
            /// device with a typed fault; only the uncut frame passes.
            #[test]
            fn mux_truncated_frames_quarantine_typed(cut in 0usize..4096) {
                let mut was_cut = false;
                let out = round_against(|wire| {
                    let cut = cut.min(wire.len());
                    was_cut = cut < wire.len();
                    (wire[..cut].to_vec(), true)
                });
                prop_assert_eq!(out.len(), 1);
                match (&out[0], was_cut) {
                    (Delivery::Faulted(FaultKind::Disconnected(_)), true) => {}
                    (Delivery::Update(_), false) => {}
                    (other, _) => prop_assert!(
                        false,
                        "cut={cut}: unexpected delivery {other:?}"
                    ),
                }
            }

            /// Flipping any single body byte still yields exactly one
            /// typed delivery through the multiplexed path: a screened
            /// update or a quarantine fault, never a panic or hang.
            #[test]
            fn mux_mutated_frames_settle_typed(idx in 0usize..4096, xor in 1usize..256) {
                let out = round_against(|mut wire| {
                    // Mutate the body only; the length prefix stays honest
                    // so the frame still arrives complete.
                    let body_len = wire.len() - 5;
                    wire[5 + idx % body_len] ^= xor as u8;
                    (wire, false)
                });
                prop_assert_eq!(out.len(), 1);
                match &out[0] {
                    Delivery::Update(_) | Delivery::Faulted(_) => {}
                }
            }
        }
    }
}
