//! The hostile-fleet harness: misbehaving devices for fault-injection
//! tests, over both real sockets and the in-process transports.
//!
//! A [`Behavior`] describes *how* one device misbehaves — poisoned
//! gradients, inflated sample counts, garbage or truncated frames, replayed
//! wire epochs, or an abandoned handshake. The same behavior runs two ways:
//!
//! - [`run_byzantine_tcp_device`] — a TCP client that trains honestly and
//!   then corrupts its UPDATE frame (or its handshake) on the wire, against
//!   a [`crate::TcpTransport`] server.
//! - [`AdversarialTransport`] — a wrapper around any local transport that
//!   applies the *same byte-level corruption* to the same honest updates
//!   and pushes them through the same screen
//!   (`screen_update_frame` in [`crate::transport`]).
//!
//! Because the corrupted frame bytes are a pure function of `(seed, round,
//! device)` and both paths share one corruption routine
//! (`Behavior::corrupt_update_body`), a TCP byzantine run and its
//! in-process twin quarantine the identical members with the identical
//! [`crate::transport::FaultKind`]s — which is what lets golden
//! adversarial traces pin the whole hostile pipeline byte for byte.

use crate::train::DeviceUpdate;
#[cfg(test)]
use crate::transport::FaultKind;
use crate::transport::{
    connect_with_retry, encode_update_frame, encode_update_frame_into, screen_update_frame,
    serve_devices, Delivery, RoundRequest, Transport, TransportError, FRAME_HELLO,
};
use ft_sparse::{Codec, WireCtx};
use std::io::Write;
use std::net::ToSocketAddrs;

/// How one device misbehaves. Every variant is deterministic: the bytes it
/// puts on the wire are a pure function of `(seed, round, device)` and its
/// honestly trained update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Behavior {
    /// The baseline: the device follows the protocol exactly.
    Honest,
    /// Model poisoning: the trained delta is multiplied by `-scale` before
    /// encoding. The frame is structurally valid and passes every screen —
    /// only a robust aggregation rule defends against it.
    SignFlip {
        /// Magnitude multiplier of the flipped delta.
        scale: f32,
    },
    /// Weight inflation: the update claims `factor`× its true sample count
    /// to dominate sample-weighted averaging. Caught by the sample-cap
    /// screen as [`crate::transport::FaultKind::InflatedSamples`].
    InflateSamples {
        /// Multiplier on the claimed sample count.
        factor: usize,
    },
    /// The UPDATE body is seed-derived garbage (framing stays intact, so
    /// the stream survives). Quarantined as
    /// [`crate::transport::FaultKind::MalformedFrame`].
    GarbageFrames,
    /// The honest UPDATE body truncated at a seed-derived offset.
    /// Quarantined as [`crate::transport::FaultKind::MalformedFrame`].
    TruncatedFrames,
    /// From round 1 on, the update is stamped with the previous round —
    /// a replayed capture. Quarantined as
    /// [`crate::transport::FaultKind::Replay`]; behaves honestly at round 0
    /// (there is nothing to replay yet).
    EpochReplay,
    /// Alternates garbage bodies (even rounds) with replays (odd rounds),
    /// so the device is hostile from round 0 onward.
    GarbageOrReplay,
    /// Opens a connection, abandons the HELLO mid-frame, hangs up, then
    /// reconnects and behaves honestly — exercising the TCP accept's
    /// handshake screening.
    MidHandshakeDisconnect,
}

impl Behavior {
    /// Stable lowercase name (the `--byzantine` CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Behavior::Honest => "honest",
            Behavior::SignFlip { .. } => "sign_flip",
            Behavior::InflateSamples { .. } => "inflate",
            Behavior::GarbageFrames => "garbage",
            Behavior::TruncatedFrames => "truncate",
            Behavior::EpochReplay => "replay",
            Behavior::GarbageOrReplay => "garbage_or_replay",
            Behavior::MidHandshakeDisconnect => "handshake_drop",
        }
    }

    /// Parses `"name"` or `"name:param"` (e.g. `sign_flip:8`, `inflate:40`).
    pub fn from_name(s: &str) -> Option<Behavior> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        Some(match name {
            "honest" => Behavior::Honest,
            "sign_flip" => Behavior::SignFlip {
                scale: match param {
                    Some(p) => p.parse().ok()?,
                    None => 8.0,
                },
            },
            "inflate" => Behavior::InflateSamples {
                factor: match param {
                    Some(p) => p.parse().ok()?,
                    None => 1000,
                },
            },
            "garbage" => Behavior::GarbageFrames,
            "truncate" => Behavior::TruncatedFrames,
            "replay" => Behavior::EpochReplay,
            "garbage_or_replay" => Behavior::GarbageOrReplay,
            "handshake_drop" => Behavior::MidHandshakeDisconnect,
            _ => return None,
        })
    }

    /// Whether this behavior ever corrupts its UPDATE bodies (handshake
    /// attackers and honest devices never do, so they skip the re-encode).
    fn corrupts_updates(&self) -> bool {
        !matches!(self, Behavior::Honest | Behavior::MidHandshakeDisconnect)
    }

    /// Builds the UPDATE frame body this behavior sends for `round` /
    /// `epoch`, from the device's honestly trained update. Shared verbatim
    /// by the TCP client and [`AdversarialTransport`]: identical inputs
    /// produce identical bytes on both paths.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn corrupt_update_body(
        &self,
        device: usize,
        round: u64,
        epoch: u64,
        update: &DeviceUpdate,
        ctx: &WireCtx,
        codec: Codec,
        seed: u64,
    ) -> Vec<u8> {
        match self {
            Behavior::Honest | Behavior::MidHandshakeDisconnect => {
                encode_update_frame(device, round, epoch, update, ctx)
            }
            Behavior::SignFlip { scale } => {
                let poisoned = poison_update(update, ctx, codec, epoch, *scale);
                encode_update_frame(device, round, epoch, &poisoned, ctx)
            }
            Behavior::InflateSamples { factor } => {
                let mut inflated = update.clone();
                inflated.samples = update.samples.saturating_mul((*factor).max(1));
                encode_update_frame(device, round, epoch, &inflated, ctx)
            }
            Behavior::GarbageFrames => garbage_body(seed, round, device),
            Behavior::TruncatedFrames => {
                let honest = encode_update_frame(device, round, epoch, update, ctx);
                let cut = 1 + (mix(seed, round, device as u64) as usize) % (honest.len() - 1);
                honest[..cut].to_vec()
            }
            Behavior::EpochReplay => {
                // Nothing to replay at round 0: behave honestly once.
                let stamp = if round == 0 { round } else { round - 1 };
                encode_update_frame(device, stamp, epoch, update, ctx)
            }
            Behavior::GarbageOrReplay => {
                if round.is_multiple_of(2) {
                    garbage_body(seed, round, device)
                } else {
                    encode_update_frame(device, round - 1, epoch, update, ctx)
                }
            }
        }
    }
}

/// One step of splitmix64 over the `(seed, round, device)` stream — the
/// same construction the fleet simulation uses, so adversarial bytes are
/// reproducible without any shared RNG state.
fn mix(seed: u64, round: u64, device: u64) -> u64 {
    let mut z = seed
        .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(device.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed-derived garbage UPDATE body: 16–63 bytes of splitmix output. Short
/// enough to always fail structural decoding, varied enough to exercise
/// different decode paths round over round.
fn garbage_body(seed: u64, round: u64, device: usize) -> Vec<u8> {
    let r0 = mix(seed, round, device as u64);
    let len = 16 + (r0 % 48) as usize;
    let mut out = Vec::with_capacity(len);
    let mut word = r0;
    while out.len() < len {
        word = mix(word, round, device as u64);
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Sign-flips and scales the trained delta: decode under the round's wire
/// context, multiply by `-scale`, re-encode under the same codec. BN stats
/// and the sample count stay honest — the attack lives in the parameters.
fn poison_update(
    update: &DeviceUpdate,
    ctx: &WireCtx,
    codec: Codec,
    epoch: u64,
    scale: f32,
) -> DeviceUpdate {
    let mut delta = update.payload.decode(ctx);
    for v in &mut delta {
        *v *= -scale;
    }
    DeviceUpdate {
        payload: codec.encode(&delta, ctx, epoch, None),
        ..update.clone()
    }
}

// ---------------------------------------------------------------------------
// In-process adversarial transport
// ---------------------------------------------------------------------------

/// Wraps a local transport and corrupts the configured devices' updates at
/// the byte level, exactly as their TCP twins would on the wire: the honest
/// update is framed through `Behavior::corrupt_update_body` and screened
/// through the shared update screen, so the resulting [`Delivery`]s —
/// survivors and quarantined faults alike — are identical to a TCP run with
/// the same behaviors and seed.
///
/// `behaviors` is indexed by *global device id*; devices beyond its length
/// are honest. Barrier schedulers only (like every corruption here, the
/// buffered event loop's [`Transport::deliver_update`] path passes updates
/// through unchanged).
pub struct AdversarialTransport<T: Transport> {
    inner: T,
    behaviors: Vec<Behavior>,
    seed: u64,
    handshake_faults: usize,
}

impl<T: Transport> AdversarialTransport<T> {
    /// Wraps `inner`; `behaviors[k]` is device `k`'s behavior.
    pub fn new(inner: T, behaviors: Vec<Behavior>, seed: u64) -> Self {
        // A handshake attacker botches exactly one connection attempt
        // before reconnecting honestly — mirror the count the TCP accept
        // would have recorded.
        let handshake_faults = behaviors
            .iter()
            .filter(|b| matches!(b, Behavior::MidHandshakeDisconnect))
            .count();
        AdversarialTransport {
            inner,
            behaviors,
            seed,
            handshake_faults,
        }
    }

    /// Connection attempts a TCP accept would have refused.
    pub fn handshake_faults(&self) -> usize {
        self.handshake_faults
    }
}

impl<T: Transport> Transport for AdversarialTransport<T> {
    fn name(&self) -> &'static str {
        "adversarial"
    }

    fn is_local(&self) -> bool {
        self.inner.is_local()
    }

    fn exchange_round(
        &mut self,
        req: &mut RoundRequest<'_>,
    ) -> Result<Vec<Delivery>, TransportError> {
        let (round, epoch, codec) = (req.round as u64, req.epoch, req.cfg.codec);
        let deliveries = self.inner.exchange_round(req)?;
        Ok(deliveries
            .into_iter()
            .enumerate()
            .map(|(pos, d)| {
                let k = req.cohort[pos];
                let behavior = self.behaviors.get(k).copied().unwrap_or(Behavior::Honest);
                match d {
                    Delivery::Update(u) if behavior.corrupts_updates() => {
                        let body = behavior
                            .corrupt_update_body(k, round, epoch, &u, req.ctx, codec, self.seed);
                        let cap = req.sample_caps.get(pos).map(|&c| c as u64);
                        match screen_update_frame(&body, req.ctx, k, round, epoch, cap) {
                            Ok(update) => Delivery::Update(update),
                            Err(fault) => Delivery::Faulted(fault),
                        }
                    }
                    other => other,
                }
            })
            .collect())
    }

    fn deliver_update(&mut self, update: DeviceUpdate, ctx: &WireCtx) -> DeviceUpdate {
        self.inner.deliver_update(update, ctx)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

// ---------------------------------------------------------------------------
// TCP clients: byzantine and churning devices
// ---------------------------------------------------------------------------

/// Runs one misbehaving device against a TCP server: connect
/// and identify (after a botched handshake for
/// [`Behavior::MidHandshakeDisconnect`]), then for every ROUND frame train
/// honestly — the client loop of [`crate::run_tcp_device`] — and reply with
/// the behavior's corrupted UPDATE body. Deterministic for a fixed
/// `(env, behavior, seed)`.
pub fn run_byzantine_tcp_device(
    addr: impl ToSocketAddrs + Clone,
    device: usize,
    env: &crate::ExperimentEnv,
    spec: &crate::ModelSpec,
    behavior: Behavior,
    seed: u64,
) -> Result<(), TransportError> {
    if matches!(behavior, Behavior::MidHandshakeDisconnect) {
        botched_handshake(addr.clone())?;
    }
    let codec = env.cfg.codec;
    let corrupted = |frame: &mut Vec<u8>, device, round, epoch, update: &_, ctx: &_| {
        let body = behavior.corrupt_update_body(device, round, epoch, update, ctx, codec, seed);
        frame.extend_from_slice(&body);
    };
    serve_devices(addr, device..device + 1, env, spec, None, corrupted)
}

/// Opens a connection whose HELLO length prefix promises a body that never
/// arrives, then hangs up — the TCP accept counts one refused
/// handshake and keeps waiting for the real fleet.
fn botched_handshake(addr: impl ToSocketAddrs + Clone) -> Result<(), TransportError> {
    let mut stream = connect_with_retry(addr)?;
    stream.write_all(&4u32.to_le_bytes())?;
    stream.write_all(&[FRAME_HELLO])?;
    // Dropping the stream here closes it mid-frame.
    Ok(())
}

/// Runs one honest device that *leaves the fleet* after replying to round
/// `leave_after` (closing its connection), as churn tests need. The server
/// must mark the device absent from round `leave_after + 1` via its
/// [`crate::PresenceSchedule`]; a later rejoin is simply a fresh
/// [`crate::run_tcp_device`] client, re-accepted at the scheduled round.
pub fn run_churn_tcp_device(
    addr: impl ToSocketAddrs + Clone,
    device: usize,
    env: &crate::ExperimentEnv,
    spec: &crate::ModelSpec,
    leave_after: usize,
) -> Result<(), TransportError> {
    let last = Some(leave_after as u64);
    let devices = device..device + 1;
    serve_devices(addr, devices, env, spec, last, encode_update_frame_into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use crate::ExperimentEnv;
    use ft_nn::{sparse_layout, wire_ctx};
    use ft_sparse::Mask;

    fn fixture() -> (DeviceUpdate, WireCtx) {
        let env = ExperimentEnv::tiny_for_tests(9);
        let model = env.build_model(&ModelSpec::small_cnn_test());
        let mask = Mask::ones(&sparse_layout(model.as_ref()));
        let ctx = wire_ctx(model.as_ref(), &mask, 0);
        let delta: Vec<f32> = (0..ctx.len()).map(|i| (i as f32 * 0.1).cos()).collect();
        let update = DeviceUpdate {
            payload: Codec::Dense.encode(&delta, &ctx, 0, None),
            bn: Vec::new(),
            samples: 20,
            realized_flops: 1.0,
            wall_secs: 0.1,
        };
        (update, ctx)
    }

    #[test]
    fn behavior_names_roundtrip() {
        for b in [
            Behavior::Honest,
            Behavior::SignFlip { scale: 8.0 },
            Behavior::InflateSamples { factor: 1000 },
            Behavior::GarbageFrames,
            Behavior::TruncatedFrames,
            Behavior::EpochReplay,
            Behavior::GarbageOrReplay,
            Behavior::MidHandshakeDisconnect,
        ] {
            assert_eq!(Behavior::from_name(b.name()), Some(b), "{}", b.name());
        }
        assert_eq!(
            Behavior::from_name("sign_flip:2.5"),
            Some(Behavior::SignFlip { scale: 2.5 })
        );
        assert_eq!(
            Behavior::from_name("inflate:7"),
            Some(Behavior::InflateSamples { factor: 7 })
        );
        assert_eq!(Behavior::from_name("nonsense"), None);
        assert_eq!(Behavior::from_name("sign_flip:xyz"), None);
    }

    #[test]
    fn corruption_is_deterministic_and_screens_to_typed_faults() {
        let (update, ctx) = fixture();
        let cap = Some(64u64);
        for behavior in [
            Behavior::GarbageFrames,
            Behavior::TruncatedFrames,
            Behavior::EpochReplay,
            Behavior::GarbageOrReplay,
            Behavior::InflateSamples { factor: 1000 },
        ] {
            for round in [1u64, 2] {
                let a = behavior.corrupt_update_body(3, round, 0, &update, &ctx, Codec::Dense, 42);
                let b = behavior.corrupt_update_body(3, round, 0, &update, &ctx, Codec::Dense, 42);
                assert_eq!(a, b, "{behavior:?} must be reproducible");
                let fault = screen_update_frame(&a, &ctx, 3, round, 0, cap)
                    .expect_err("corruption must be quarantined, not accepted");
                match behavior {
                    Behavior::GarbageFrames | Behavior::TruncatedFrames => {
                        assert!(matches!(fault, FaultKind::MalformedFrame(_)), "{fault:?}")
                    }
                    Behavior::EpochReplay => {
                        assert!(matches!(fault, FaultKind::Replay { .. }), "{fault:?}")
                    }
                    Behavior::InflateSamples { .. } => {
                        assert!(
                            matches!(fault, FaultKind::InflatedSamples { .. }),
                            "{fault:?}"
                        )
                    }
                    Behavior::GarbageOrReplay => assert!(
                        matches!(
                            &fault,
                            FaultKind::MalformedFrame(_) | FaultKind::Replay { .. }
                        ),
                        "{fault:?}"
                    ),
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn sign_flip_passes_screening_with_flipped_values() {
        let (update, ctx) = fixture();
        let behavior = Behavior::SignFlip { scale: 4.0 };
        let body = behavior.corrupt_update_body(1, 2, 0, &update, &ctx, Codec::Dense, 7);
        let screened =
            screen_update_frame(&body, &ctx, 1, 2, 0, Some(64)).expect("valid poisoned frame");
        let honest = update.payload.decode(&ctx);
        let poisoned = screened.payload.decode(&ctx);
        for (h, p) in honest.iter().zip(poisoned.iter()) {
            assert_eq!(p.to_bits(), (h * -4.0).to_bits());
        }
    }

    #[test]
    fn replay_is_honest_only_at_round_zero() {
        let (update, ctx) = fixture();
        let body =
            Behavior::EpochReplay.corrupt_update_body(0, 0, 0, &update, &ctx, Codec::Dense, 7);
        assert!(screen_update_frame(&body, &ctx, 0, 0, 0, None).is_ok());
        let body =
            Behavior::EpochReplay.corrupt_update_body(0, 3, 0, &update, &ctx, Codec::Dense, 7);
        assert!(matches!(
            screen_update_frame(&body, &ctx, 0, 3, 0, None),
            Err(FaultKind::Replay {
                got_round: 2,
                want_round: 3,
                ..
            })
        ));
    }
}
