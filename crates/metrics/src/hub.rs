//! Live run observability: a lock-light [`MetricsHub`] the round state
//! machine updates at phase boundaries, a plaintext Prometheus-style
//! exposition endpoint over `std::net` TCP, and a length-prefixed
//! [`TraceEvent`] frame stream that `ft watch` tails while a fleet runs.
//!
//! The hub is strictly *observational*: the server publishes values the
//! [`CostLedger`](../../ft_fl) already computed, never the other way
//! around, so enabling or disabling the endpoint cannot perturb a run —
//! golden traces stay byte-identical either way. Publishing happens once
//! per round (not per sample), so the single short-lived mutex hold is
//! invisible next to a round of local SGD.
//!
//! # Wire protocol of the endpoint
//!
//! One listener serves both consumers, distinguished by the first line the
//! client sends:
//!
//! - `GET ...` — an HTTP/1.0 request (curl, a Prometheus scraper, or a
//!   raw-socket `printf`): the hub renders the text exposition format
//!   (`text/plain; version=0.0.4`) and closes.
//! - `WATCH` — the connection is registered as a trace subscriber and
//!   receives every subsequent `TimelineEvent`-shaped frame live:
//!   `u32 LE body length | body`, body = `u8 kind(=1) | u64 device |
//!   u64 round | f64 start_secs | f64 finish_secs | u8 applied |
//!   u64 staleness` (floats as raw IEEE-754 bits, all little-endian —
//!   the same framing discipline as the fleet transport).
//!
//! A subscriber that stops draining (or disconnects) is dropped after a
//! short write timeout; slow watchers can never stall the round loop.

use crate::FaultCounters;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Trace-frame kind byte for a device timeline event (the only kind today;
/// the byte exists so the stream can grow without re-framing).
pub const TRACE_KIND_EVENT: u8 = 1;

/// Encoded body length of a [`TRACE_KIND_EVENT`] frame.
const EVENT_BODY_LEN: usize = 1 + 8 + 8 + 8 + 8 + 1 + 8;

/// Upper bound on a trace frame body; anything larger is a corrupt stream,
/// not a future extension.
const MAX_TRACE_BODY: u32 = 4096;

/// Upper staleness edges of the exposition histogram, in rounds. `+Inf` is
/// implicit.
pub const STALENESS_BUCKETS: [usize; 6] = [0, 1, 2, 4, 8, 16];

/// One device-round observation, mirroring `ft-fl`'s `TimelineEvent` (the
/// mirror exists because `ft-metrics` sits *below* `ft-fl` in the crate
/// DAG).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Device index within the fleet.
    pub device: u64,
    /// Round whose model the device trained on.
    pub round: u64,
    /// Simulated start of the device's work, in seconds.
    pub start_secs: f64,
    /// Simulated completion time, in seconds.
    pub finish_secs: f64,
    /// Whether the update was applied (false = dropped/cut/quarantined).
    pub applied: bool,
    /// Rounds of staleness at application time (0 = fresh).
    pub staleness: u64,
}

/// Why a trace frame failed to decode. Truncation is a *typed* outcome —
/// a partial read at any byte offset must never panic the watcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The buffer ends mid-frame: `needed` more bytes than `have`.
    Truncated {
        /// Bytes the complete frame requires.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length prefix exceeds any frame this protocol emits.
    Oversized {
        /// The claimed body length.
        len: u32,
    },
    /// An unrecognized frame-kind byte.
    UnknownKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// A known kind whose body length does not match its fixed layout.
    BadLength {
        /// The claimed body length.
        len: u32,
        /// The length the kind requires.
        expected: usize,
    },
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::Truncated { needed, have } => {
                write!(f, "truncated trace frame: need {needed} bytes, have {have}")
            }
            TraceDecodeError::Oversized { len } => {
                write!(f, "trace frame body of {len} bytes exceeds protocol bound")
            }
            TraceDecodeError::UnknownKind { kind } => {
                write!(f, "unknown trace frame kind {kind}")
            }
            TraceDecodeError::BadLength { len, expected } => {
                write!(
                    f,
                    "trace frame body of {len} bytes, kind requires {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TraceDecodeError {}

/// Encodes one event as a complete frame (length prefix included).
pub fn encode_trace_frame(ev: &TraceEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + EVENT_BODY_LEN);
    out.extend_from_slice(&(EVENT_BODY_LEN as u32).to_le_bytes());
    out.push(TRACE_KIND_EVENT);
    out.extend_from_slice(&ev.device.to_le_bytes());
    out.extend_from_slice(&ev.round.to_le_bytes());
    out.extend_from_slice(&ev.start_secs.to_bits().to_le_bytes());
    out.extend_from_slice(&ev.finish_secs.to_bits().to_le_bytes());
    out.push(ev.applied as u8);
    out.extend_from_slice(&ev.staleness.to_le_bytes());
    out
}

/// Decodes one frame from the front of `buf`, returning the event and the
/// bytes consumed. Every malformed input — truncation at any offset, an
/// absurd length, an unknown kind — is a typed error, never a panic.
pub fn decode_trace_frame(buf: &[u8]) -> Result<(TraceEvent, usize), TraceDecodeError> {
    if buf.len() < 4 {
        return Err(TraceDecodeError::Truncated {
            needed: 4,
            have: buf.len(),
        });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_TRACE_BODY {
        return Err(TraceDecodeError::Oversized { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Err(TraceDecodeError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let body = &buf[4..total];
    let kind = body[0];
    if kind != TRACE_KIND_EVENT {
        return Err(TraceDecodeError::UnknownKind { kind });
    }
    if body.len() != EVENT_BODY_LEN {
        return Err(TraceDecodeError::BadLength {
            len,
            expected: EVENT_BODY_LEN,
        });
    }
    let u64_at = |o: usize| u64::from_le_bytes(body[o..o + 8].try_into().expect("8-byte slice"));
    let ev = TraceEvent {
        device: u64_at(1),
        round: u64_at(9),
        start_secs: f64::from_bits(u64_at(17)),
        finish_secs: f64::from_bits(u64_at(25)),
        applied: body[33] != 0,
        staleness: u64_at(34),
    };
    Ok((ev, total))
}

/// Reads one frame from a stream. `Ok(None)` is a clean end (EOF exactly at
/// a frame boundary); EOF mid-frame surfaces as [`TraceDecodeError::Truncated`]
/// wrapped in `UnexpectedEof`-flavored `io::Error` via [`TraceStreamError`].
pub fn read_trace_frame<R: Read>(r: &mut R) -> Result<Option<TraceEvent>, TraceStreamError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(TraceStreamError::Decode(TraceDecodeError::Truncated {
                    needed: 4,
                    have: got,
                }))
            }
            Ok(n) => got += n,
            Err(e) => return Err(TraceStreamError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_TRACE_BODY {
        return Err(TraceStreamError::Decode(TraceDecodeError::Oversized {
            len,
        }));
    }
    let mut frame = Vec::with_capacity(4 + len as usize);
    frame.extend_from_slice(&len_buf);
    frame.resize(4 + len as usize, 0);
    let mut filled = 4usize;
    while filled < frame.len() {
        match r.read(&mut frame[filled..]) {
            Ok(0) => {
                return Err(TraceStreamError::Decode(TraceDecodeError::Truncated {
                    needed: frame.len(),
                    have: filled,
                }))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(TraceStreamError::Io(e)),
        }
    }
    decode_trace_frame(&frame)
        .map(|(ev, _)| Some(ev))
        .map_err(TraceStreamError::Decode)
}

/// A streaming read that failed: socket trouble or a malformed frame.
#[derive(Debug)]
pub enum TraceStreamError {
    /// The underlying socket read failed.
    Io(std::io::Error),
    /// The bytes read do not form a valid frame.
    Decode(TraceDecodeError),
}

impl std::fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStreamError::Io(e) => write!(f, "trace stream read failed: {e}"),
            TraceStreamError::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceStreamError {}

/// Ledger-derived totals the server publishes once per completed round.
/// Everything is a *cumulative* value copied from the `CostLedger`, so the
/// exposition always agrees with the ledger exactly — no double counting.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundStats {
    /// Completed federated rounds.
    pub rounds_completed: u64,
    /// Devices whose updates the server accepted this round.
    pub cohort_size: u64,
    /// Fleet size `K`.
    pub devices: u64,
    /// Cumulative measured broadcast bytes (server → devices).
    pub payload_down_bytes: f64,
    /// Cumulative measured upload bytes (devices → server).
    pub payload_up_bytes: f64,
    /// Simulated fleet makespan so far, in seconds.
    pub sim_makespan_secs: f64,
    /// Rounds that closed with an empty cohort.
    pub zero_progress_rounds: u64,
    /// Quarantine/defense tallies, copied whole from the ledger.
    pub faults: FaultCounters,
}

/// Mutable interior of the hub, behind one short-hold mutex.
#[derive(Default)]
struct HubState {
    round: RoundStats,
    /// Raw (non-cumulative) staleness bucket counts; rendered cumulatively.
    stale_buckets: [u64; STALENESS_BUCKETS.len() + 1],
    stale_sum: u64,
    stale_count: u64,
    /// Steady-state allocation bytes per round; negative = not measured.
    alloc_bytes_per_round: f64,
}

/// The lock-light metrics rendezvous between a running server and its
/// observers. The server publishes at round boundaries; scrapers and
/// watchers read through [`MetricsEndpoint`] without ever touching the
/// round loop.
pub struct MetricsHub {
    state: Mutex<HubState>,
    watchers: Mutex<Vec<TcpStream>>,
    started: Instant,
    closed: AtomicBool,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub {
            state: Mutex::new(HubState {
                alloc_bytes_per_round: -1.0,
                ..HubState::default()
            }),
            watchers: Mutex::new(Vec::new()),
            started: Instant::now(),
            closed: AtomicBool::new(false),
        }
    }
}

impl MetricsHub {
    /// A fresh hub, shareable between the round loop and an endpoint.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publishes the cumulative round totals (overwrites, never adds —
    /// the values are ledger totals already).
    pub fn observe_round(&self, stats: RoundStats) {
        let mut st = self.state.lock().expect("metrics state poisoned");
        st.round = stats;
    }

    /// Records one timeline event: bumps the staleness histogram and
    /// pushes a live frame to every watcher.
    pub fn record_event(&self, ev: &TraceEvent) {
        {
            let mut st = self.state.lock().expect("metrics state poisoned");
            let idx = STALENESS_BUCKETS
                .iter()
                .position(|&edge| ev.staleness as usize <= edge)
                .unwrap_or(STALENESS_BUCKETS.len());
            st.stale_buckets[idx] += 1;
            st.stale_sum += ev.staleness;
            st.stale_count += 1;
        }
        let mut watchers = self.watchers.lock().expect("metrics watchers poisoned");
        if watchers.is_empty() {
            return;
        }
        let frame = encode_trace_frame(ev);
        // A watcher that cannot take the frame within its write timeout is
        // dropped — the round loop never waits on a slow consumer.
        watchers.retain_mut(|w| w.write_all(&frame).is_ok());
    }

    /// Publishes the steady-state allocation bytes per round (from the
    /// bench harness's counting allocator; negative = not measured).
    pub fn set_alloc_bytes_per_round(&self, bytes: f64) {
        let mut st = self.state.lock().expect("metrics state poisoned");
        st.alloc_bytes_per_round = bytes;
    }

    /// Renders the Prometheus text exposition format (version 0.0.4).
    /// `f64` values print in Rust's shortest round-trip form, so a scraper
    /// parsing them back recovers the ledger's bits exactly.
    pub fn render_text(&self) -> String {
        let st = self.state.lock().expect("metrics state poisoned");
        let host_secs = self.started.elapsed().as_secs_f64();
        let mut out = String::with_capacity(2048);
        let family = |name: &str, kind: &str, help: &str, out: &mut String| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };
        let r = &st.round;
        family(
            "ft_rounds_completed",
            "counter",
            "Completed federated rounds.",
            &mut out,
        );
        out.push_str(&format!("ft_rounds_completed {}\n", r.rounds_completed));
        family(
            "ft_fleet_devices",
            "gauge",
            "Configured fleet size K.",
            &mut out,
        );
        out.push_str(&format!("ft_fleet_devices {}\n", r.devices));
        family(
            "ft_round_cohort_size",
            "gauge",
            "Updates accepted in the last completed round.",
            &mut out,
        );
        out.push_str(&format!("ft_round_cohort_size {}\n", r.cohort_size));
        family(
            "ft_payload_bytes_total",
            "counter",
            "Measured wire payload bytes by direction.",
            &mut out,
        );
        out.push_str(&format!(
            "ft_payload_bytes_total{{direction=\"down\"}} {}\n",
            r.payload_down_bytes
        ));
        out.push_str(&format!(
            "ft_payload_bytes_total{{direction=\"up\"}} {}\n",
            r.payload_up_bytes
        ));
        family(
            "ft_update_staleness_rounds",
            "histogram",
            "Staleness (in rounds) of every collected device update.",
            &mut out,
        );
        let mut cum = 0u64;
        for (i, edge) in STALENESS_BUCKETS.iter().enumerate() {
            cum += st.stale_buckets[i];
            out.push_str(&format!(
                "ft_update_staleness_rounds_bucket{{le=\"{edge}\"}} {cum}\n"
            ));
        }
        cum += st.stale_buckets[STALENESS_BUCKETS.len()];
        out.push_str(&format!(
            "ft_update_staleness_rounds_bucket{{le=\"+Inf\"}} {cum}\n"
        ));
        out.push_str(&format!(
            "ft_update_staleness_rounds_sum {}\n",
            st.stale_sum
        ));
        out.push_str(&format!(
            "ft_update_staleness_rounds_count {}\n",
            st.stale_count
        ));
        family(
            "ft_faults_total",
            "counter",
            "Quarantined or defended traffic by screening class.",
            &mut out,
        );
        for (kind, v) in [
            ("malformed_frame", r.faults.malformed_frames),
            ("replay", r.faults.replays),
            ("disconnect", r.faults.disconnects),
            ("inflated_samples", r.faults.inflated_samples),
            ("clipped_update", r.faults.clipped_updates),
            ("rejected_handshake", r.faults.rejected_handshakes),
        ] {
            out.push_str(&format!("ft_faults_total{{kind=\"{kind}\"}} {v}\n"));
        }
        family(
            "ft_zero_progress_rounds",
            "counter",
            "Rounds that closed with an empty cohort.",
            &mut out,
        );
        out.push_str(&format!(
            "ft_zero_progress_rounds {}\n",
            r.zero_progress_rounds
        ));
        family(
            "ft_sim_makespan_seconds",
            "gauge",
            "Simulated fleet makespan.",
            &mut out,
        );
        out.push_str(&format!(
            "ft_sim_makespan_seconds {}\n",
            r.sim_makespan_secs
        ));
        family(
            "ft_host_run_seconds",
            "gauge",
            "Host wall-clock since the hub was created.",
            &mut out,
        );
        out.push_str(&format!("ft_host_run_seconds {host_secs}\n"));
        family(
            "ft_alloc_bytes_per_round",
            "gauge",
            "Steady-state heap bytes allocated per round (-1 = not measured).",
            &mut out,
        );
        out.push_str(&format!(
            "ft_alloc_bytes_per_round {}\n",
            st.alloc_bytes_per_round
        ));
        out
    }

    /// Binds `addr` and serves scrapes and watch streams on a background
    /// thread until the returned endpoint is shut down or dropped.
    pub fn serve(self: &Arc<Self>, addr: &str) -> std::io::Result<MetricsEndpoint> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let hub = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("ft-metrics".into())
            .spawn(move || hub.accept_loop(listener))
            .expect("spawn metrics endpoint thread");
        Ok(MetricsEndpoint {
            addr: local,
            hub: Arc::clone(self),
            handle: Some(handle),
        })
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        for conn in listener.incoming() {
            if self.closed.load(Ordering::SeqCst) {
                return;
            }
            let Ok(stream) = conn else { continue };
            // One malformed or slow client must not wedge the acceptor:
            // bound the request read, then hand off or answer inline.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            });
            let mut line = String::new();
            if reader.read_line(&mut line).is_err() {
                continue;
            }
            let mut stream = stream;
            if line.starts_with("GET") {
                let body = self.render_text();
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                let _ = write!(
                    stream,
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
            } else if line.trim_end() == "WATCH" {
                // Live subscriber: short write timeout so a stalled
                // watcher is shed instead of blocking record_event.
                let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
                self.watchers
                    .lock()
                    .expect("metrics watchers poisoned")
                    .push(stream);
            }
            // Anything else: drop the connection silently.
        }
    }
}

/// Handle to a running metrics/trace listener. Dropping it stops the
/// acceptor thread and closes every watcher stream.
pub struct MetricsEndpoint {
    addr: SocketAddr,
    hub: Arc<MetricsHub>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsEndpoint {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and disconnects all watchers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.hub.closed.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); poke it with a throwaway
        // connection so it observes the flag and exits.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.hub
            .watchers
            .lock()
            .expect("metrics watchers poisoned")
            .clear();
    }
}

impl Drop for MetricsEndpoint {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> TraceEvent {
        TraceEvent {
            device: 3,
            round: 7,
            start_secs: 1.25,
            finish_secs: 2.5,
            applied: true,
            staleness: 2,
        }
    }

    #[test]
    fn trace_frame_round_trips() {
        let ev = sample_event();
        let frame = encode_trace_frame(&ev);
        let (back, used) = decode_trace_frame(&frame).expect("valid frame");
        assert_eq!(back, ev);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        let frame = encode_trace_frame(&sample_event());
        for cut in 0..frame.len() {
            match decode_trace_frame(&frame[..cut]) {
                Err(TraceDecodeError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                }
                other => panic!("truncation at {cut} must be typed, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_kind_and_oversize_are_rejected() {
        let mut frame = encode_trace_frame(&sample_event());
        frame[4] = 99;
        assert_eq!(
            decode_trace_frame(&frame),
            Err(TraceDecodeError::UnknownKind { kind: 99 })
        );
        let huge = (MAX_TRACE_BODY + 1).to_le_bytes();
        assert_eq!(
            decode_trace_frame(&huge),
            Err(TraceDecodeError::Oversized {
                len: MAX_TRACE_BODY + 1
            })
        );
    }

    #[test]
    fn stream_reader_distinguishes_clean_eof_from_truncation() {
        let frame = encode_trace_frame(&sample_event());
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let mut cursor = std::io::Cursor::new(two);
        assert!(matches!(read_trace_frame(&mut cursor), Ok(Some(_))));
        assert!(matches!(read_trace_frame(&mut cursor), Ok(Some(_))));
        assert!(matches!(read_trace_frame(&mut cursor), Ok(None)));
        let mut cut = std::io::Cursor::new(frame[..frame.len() - 3].to_vec());
        match read_trace_frame(&mut cut) {
            Err(TraceStreamError::Decode(TraceDecodeError::Truncated { .. })) => {}
            other => panic!("mid-frame EOF must be Truncated, got {other:?}"),
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_count_every_event() {
        let hub = MetricsHub::new();
        for staleness in [0u64, 0, 1, 3, 20] {
            hub.record_event(&TraceEvent {
                staleness,
                ..sample_event()
            });
        }
        let text = hub.render_text();
        assert!(text.contains("ft_update_staleness_rounds_bucket{le=\"0\"} 2\n"));
        assert!(text.contains("ft_update_staleness_rounds_bucket{le=\"1\"} 3\n"));
        assert!(text.contains("ft_update_staleness_rounds_bucket{le=\"4\"} 4\n"));
        assert!(text.contains("ft_update_staleness_rounds_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("ft_update_staleness_rounds_sum 24\n"));
        assert!(text.contains("ft_update_staleness_rounds_count 5\n"));
    }

    #[test]
    fn endpoint_serves_scrapes_and_watch_frames() {
        let hub = MetricsHub::new();
        hub.observe_round(RoundStats {
            rounds_completed: 4,
            cohort_size: 3,
            devices: 3,
            payload_down_bytes: 100.0,
            payload_up_bytes: 250.0,
            ..RoundStats::default()
        });
        let endpoint = hub.serve("127.0.0.1:0").expect("bind");
        let addr = endpoint.local_addr();

        // Raw-socket GET, exactly what the CI job does.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send");
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("read");
        assert!(resp.starts_with("HTTP/1.0 200 OK"));
        assert!(resp.contains("ft_rounds_completed 4\n"));
        assert!(resp.contains("ft_payload_bytes_total{direction=\"up\"} 250\n"));

        // Watch subscriber sees events published after it connects.
        let mut w = TcpStream::connect(addr).expect("connect watch");
        w.write_all(b"WATCH\n").expect("send watch");
        // Registration races the publish; poll until the frame arrives.
        let ev = sample_event();
        w.set_read_timeout(Some(Duration::from_millis(100))).ok();
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            hub.record_event(&ev);
            match read_trace_frame(&mut w) {
                Ok(Some(got)) => break got,
                _ if Instant::now() < deadline => continue,
                other => panic!("watch frame never arrived: {other:?}"),
            }
        };
        assert_eq!(got, ev);
        endpoint.shutdown();
    }
}
