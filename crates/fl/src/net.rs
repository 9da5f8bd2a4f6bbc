//! Real distributed execution: the framed TCP protocol between the
//! coordinator (`fl_server`) and party-client processes (`fl_party`).
//!
//! ## Frame layout
//!
//! Every message is one length-prefixed frame over `std::net::TcpStream`:
//!
//! ```text
//! magic "NF" (2) | version u16 LE | kind u8 | flags u8 | len u32 LE | payload
//! ```
//!
//! The header is validated *before* the payload is allocated, and `len`
//! is capped by [`NetConfig::max_frame`], so a hostile or corrupt length
//! prefix yields a typed [`NetError`] — never a panic or an OOM —
//! mirroring [`crate::compress`]'s decoder contract.
//!
//! ## Messages
//!
//! Every payload is binary, in the byte layout of the crate's `wire`
//! module, and parses through its one `Cursor`.
//!
//! * `Hello` (party → server): config fingerprint + hosted party ids.
//!   Answered by `Ack`. A mismatched fingerprint is rejected at handshake
//!   time instead of diverging mid-run.
//! * `Broadcast` (server → party): the round's global parameters,
//!   buffers, and SCAFFOLD server variate — the same dense vectors the
//!   in-process engine hands its workers.
//! * `RoundAssign` (server → party): which hosted parties train
//!   this round, each with its `client_c` and error-feedback residual.
//! * `Update` (party → server, one per assigned party): either a
//!   trained update — whose delta payload **is** the configured
//!   [`UpdateCodec`](crate::compress::UpdateCodec) byte stream, encoded
//!   party-side with error feedback — or a typed
//!   [`PartyFailure`](crate::fault::PartyFailure).
//! * `Shutdown` (server → party, empty): the run is over.
//!
//! ## Determinism contract
//!
//! A distributed round reuses the exact in-process derivations: the local
//! RNG seed `derive_seed(seed, (round << 24) ^ (party + 1))`, the codec
//! seed `derive_seed(seed, SEED_COMPRESS_BASE ^ ((round << 24) ^ party))`
//! and [`FaultPlan::action`](crate::fault::FaultPlan::action) are all
//! computed party-side from the shared config, and every numeric field
//! crosses the wire in exact little-endian bits. On one host (same SIMD
//! arm) the server's `RoundRecord` stream is therefore bit-identical to
//! the in-process simulator on every field except wall-clock timings.

use crate::engine::FlConfig;
use crate::fault::{FailureKind, PartyFailure};
use crate::local::LocalOutcome;
use crate::party::PartyProvider;
use crate::trace::TraceSink;
use crate::transport::{
    record_trained, train_party, Broadcast, PartyEnv, PartyOutcome, TrainedParty, Transport,
};
use crate::wire::{put_bytes, put_f32s, put_f64, put_len, put_str, put_u64, Cursor, Malformed};
use niid_metrics::{Deadline, DeadlineReader};
use niid_nn::ModelSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// First two bytes of every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"NF";
/// Protocol version carried in every frame header (2: binary Hello/Ack).
pub const PROTOCOL_VERSION: u16 = 2;
/// Frame header size in bytes: magic(2) + version(2) + kind(1) +
/// flags(1) + len(4).
pub const FRAME_HEADER_LEN: usize = 10;
/// Default per-frame payload cap (256 MiB): large enough for a dense
/// VGG-9 broadcast, small enough that a lying length prefix cannot OOM
/// the process.
pub const DEFAULT_MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Message discriminant carried in the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Party → server: fingerprint + hosted ids.
    Hello = 1,
    /// Server → party: this round's cohort assignments.
    RoundAssign = 2,
    /// Server → party: the round's global model state.
    Broadcast = 3,
    /// Party → server: one party's trained update or typed failure.
    Update = 4,
    /// Server → party: handshake answer.
    Ack = 5,
    /// Server → party: the run is over; disconnect cleanly.
    Shutdown = 6,
}

impl MsgKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(MsgKind::Hello),
            2 => Some(MsgKind::RoundAssign),
            3 => Some(MsgKind::Broadcast),
            4 => Some(MsgKind::Update),
            5 => Some(MsgKind::Ack),
            6 => Some(MsgKind::Shutdown),
            _ => None,
        }
    }
}

/// Typed failures of the wire layer. Clone + PartialEq so they can ride
/// inside [`crate::error::FlError`] and be asserted on in tests.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// An OS-level socket error (`op` names the phase it hit).
    Io {
        /// What the socket was doing.
        op: &'static str,
        /// The error's kind (the cloneable part of `std::io::Error`).
        kind: ErrorKind,
        /// The error's rendered message.
        message: String,
    },
    /// The first two bytes were not [`FRAME_MAGIC`].
    BadMagic {
        /// What arrived instead.
        got: [u8; 2],
    },
    /// The peer speaks a different protocol version.
    BadVersion {
        /// The version in the frame header.
        got: u16,
        /// The version this build speaks.
        expected: u16,
    },
    /// Unknown message discriminant.
    BadKind(u8),
    /// The length prefix exceeds the configured frame cap; rejected
    /// before any allocation.
    FrameTooLarge {
        /// The length the header claimed.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The stream ended mid-frame (`context` names what was cut short).
    Truncated {
        /// Which part of the frame was being read.
        context: &'static str,
    },
    /// The peer closed cleanly at a frame boundary.
    Disconnected,
    /// A complete frame whose payload fails validation.
    Malformed(String),
    /// A deadline elapsed (`context` names what was being waited for).
    Timeout(&'static str),
    /// The server refused the handshake (fingerprint/roster conflict).
    HandshakeRejected(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io { op, kind, message } => {
                write!(f, "i/o during {op} ({kind:?}): {message}")
            }
            NetError::BadMagic { got } => write!(f, "bad frame magic {got:?} (expected \"NF\")"),
            NetError::BadVersion { got, expected } => {
                write!(f, "protocol version {got} (this build speaks {expected})")
            }
            NetError::BadKind(k) => write!(f, "unknown message kind {k}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            NetError::Truncated { context } => write!(f, "stream truncated mid-{context}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Malformed(msg) => write!(f, "malformed message: {msg}"),
            NetError::Timeout(context) => write!(f, "timed out {context}"),
            NetError::HandshakeRejected(msg) => write!(f, "handshake rejected: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

fn io_err(op: &'static str, e: std::io::Error) -> NetError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout(op),
        kind => NetError::Io {
            op,
            kind,
            message: e.to_string(),
        },
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The message discriminant from the header.
    pub kind: MsgKind,
    /// The raw payload (message-specific encoding).
    pub payload: Vec<u8>,
}

/// Write one frame (header + payload) and flush it.
pub fn write_frame(w: &mut impl Write, kind: MsgKind, payload: &[u8]) -> Result<(), NetError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| NetError::Malformed(format!("payload of {} bytes", payload.len())))?;
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..2].copy_from_slice(&FRAME_MAGIC);
    header[2..4].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header[4] = kind as u8;
    header[5] = 0; // flags, reserved
    header[6..10].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header).map_err(|e| io_err("frame write", e))?;
    w.write_all(payload).map_err(|e| io_err("frame write", e))?;
    w.flush().map_err(|e| io_err("frame write", e))?;
    Ok(())
}

/// `read_exact` that distinguishes a clean close at a frame boundary
/// ([`NetError::Disconnected`]) from a mid-frame cut
/// ([`NetError::Truncated`]).
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
    clean_eof_at_start: bool,
) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && clean_eof_at_start {
                    NetError::Disconnected
                } else {
                    NetError::Truncated { context }
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(context, e)),
        }
    }
    Ok(())
}

/// Read and validate one frame. The payload buffer is allocated only
/// after `len` passes the `max_len` cap, so lying prefixes cannot OOM.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Frame, NetError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    read_exact_or(r, &mut header, "frame header", true)?;
    if header[0..2] != FRAME_MAGIC {
        return Err(NetError::BadMagic {
            got: [header[0], header[1]],
        });
    }
    let version = u16::from_le_bytes([header[2], header[3]]);
    if version != PROTOCOL_VERSION {
        return Err(NetError::BadVersion {
            got: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let kind = MsgKind::from_u8(header[4]).ok_or(NetError::BadKind(header[4]))?;
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > max_len {
        return Err(NetError::FrameTooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, "frame payload", false)?;
    Ok(Frame { kind, payload })
}

/// How long one frame write may wait on a peer that reads nothing.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// One framed TCP connection, as both the coordinator and the party
/// client hold it.
///
/// A frame is sent at most once: `write_all` cannot tell how much of a
/// frame left before a timeout, so resending would splice a second header
/// into the first frame's payload. A failed send is the end of the
/// connection instead, exactly as a failed read is.
struct Conn {
    stream: TcpStream,
    peer: String,
    max_frame: u32,
}

impl Conn {
    fn new(stream: TcpStream, peer: String, max_frame: u32) -> Self {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        Conn {
            stream,
            peer,
            max_frame,
        }
    }

    fn send(&mut self, kind: MsgKind, payload: &[u8]) -> Result<(), NetError> {
        write_frame(&mut self.stream, kind, payload)
    }

    /// Read one frame before `deadline`, or with no time limit (the party
    /// side's idle wait: the server sets the pace between rounds).
    fn recv(&mut self, deadline: Option<&Deadline>) -> Result<Frame, NetError> {
        let mut reader = DeadlineReader::new(&self.stream, deadline.copied());
        read_frame(&mut reader, self.max_frame)
    }
}

// ── Payload encodings (the shared [`crate::wire`] byte layout) ───────

impl From<Malformed> for NetError {
    fn from(e: Malformed) -> Self {
        NetError::Malformed(e.0)
    }
}

/// Handshake: what a party host announces when it connects.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloMsg {
    /// Canonical config JSON (see [`config_fingerprint`]); must match the
    /// server's exactly or the run could silently diverge.
    pub fingerprint: String,
    /// The party ids this process hosts.
    pub party_ids: Vec<usize>,
}

impl HelloMsg {
    /// Binary payload bytes: the fingerprint, then a `u32` id count and
    /// the ids as `u64`s.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.fingerprint.len() + 8 * self.party_ids.len());
        put_str(&mut buf, &self.fingerprint);
        put_len(&mut buf, self.party_ids.len());
        for &id in &self.party_ids {
            put_u64(&mut buf, id as u64);
        }
        buf
    }

    /// Parse a `Hello` payload.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = Cursor::new(payload);
        let fingerprint = r.string("Hello fingerprint")?;
        let count = r.u32("Hello party count")?;
        // Grow as we parse: a hostile count cannot pre-reserve memory.
        let mut party_ids = Vec::new();
        for _ in 0..count {
            party_ids.push(r.usize("Hello party id")?);
        }
        r.finish("Hello")?;
        Ok(HelloMsg {
            fingerprint,
            party_ids,
        })
    }
}

/// Handshake answer (and shutdown acknowledgment).
#[derive(Debug, Clone, PartialEq)]
pub struct AckMsg {
    /// Whether the server accepted the hello.
    pub ok: bool,
    /// Human-readable detail (rejection reason when `ok` is false).
    pub message: String,
}

impl AckMsg {
    /// Binary payload bytes: the `ok` flag as one byte, then the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![u8::from(self.ok)];
        put_str(&mut buf, &self.message);
        buf
    }

    /// Parse an `Ack` payload.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = Cursor::new(payload);
        let msg = AckMsg {
            ok: r.bool("Ack ok")?,
            message: r.string("Ack message")?,
        };
        r.finish("Ack")?;
        Ok(msg)
    }
}

/// The round's global state, server → party.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastMsg {
    /// Round index.
    pub round: u64,
    /// Dense global parameters `wᵗ`.
    pub params: Vec<f32>,
    /// Dense global buffers (empty for buffer-free models).
    pub buffers: Vec<f32>,
    /// SCAFFOLD server variate `c` (empty otherwise).
    pub server_c: Vec<f32>,
}

impl BroadcastMsg {
    /// Binary payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            8 + 12 + 4 * (self.params.len() + self.buffers.len() + self.server_c.len()),
        );
        put_u64(&mut buf, self.round);
        put_f32s(&mut buf, &self.params);
        put_f32s(&mut buf, &self.buffers);
        put_f32s(&mut buf, &self.server_c);
        buf
    }

    /// Parse a `Broadcast` payload.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = Cursor::new(payload);
        let msg = BroadcastMsg {
            round: r.u64("Broadcast round")?,
            params: r.f32_vec("Broadcast params")?,
            buffers: r.f32_vec("Broadcast buffers")?,
            server_c: r.f32_vec("Broadcast server_c")?,
        };
        r.finish("Broadcast")?;
        Ok(msg)
    }
}

/// One selected party's round inputs inside a [`AssignMsg`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartyAssignment {
    /// The party to train.
    pub party_id: u64,
    /// Its SCAFFOLD variate `cᵢ` (empty = implicit zero).
    pub client_c: Vec<f32>,
    /// Its error-feedback residual (empty = implicit zero / dense codec).
    pub residual: Vec<f32>,
}

/// The round's cohort assignments for one host, server → party.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignMsg {
    /// Round index (must match the preceding `Broadcast`).
    pub round: u64,
    /// The hosted parties selected this round, ascending id order.
    pub parties: Vec<PartyAssignment>,
}

impl AssignMsg {
    /// Binary payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.round);
        put_len(&mut buf, self.parties.len());
        for p in &self.parties {
            put_u64(&mut buf, p.party_id);
            put_f32s(&mut buf, &p.client_c);
            put_f32s(&mut buf, &p.residual);
        }
        buf
    }

    /// Parse a `RoundAssign` payload.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = Cursor::new(payload);
        let round = r.u64("RoundAssign round")?;
        let count = r.u32("RoundAssign count")?;
        // Grow as we parse: a hostile count cannot pre-reserve memory.
        let mut parties = Vec::new();
        for _ in 0..count {
            parties.push(PartyAssignment {
                party_id: r.u64("RoundAssign party_id")?,
                client_c: r.f32_vec("RoundAssign client_c")?,
                residual: r.f32_vec("RoundAssign residual")?,
            });
        }
        r.finish("RoundAssign")?;
        Ok(AssignMsg { round, parties })
    }
}

fn failure_kind_tag(kind: &FailureKind) -> u8 {
    match kind {
        FailureKind::Panic => 0,
        FailureKind::InjectedCrash => 1,
        FailureKind::InjectedDrop => 2,
    }
}

fn failure_kind_from_tag(tag: u8) -> Option<FailureKind> {
    match tag {
        0 => Some(FailureKind::Panic),
        1 => Some(FailureKind::InjectedCrash),
        2 => Some(FailureKind::InjectedDrop),
        _ => None,
    }
}

/// What one party produced, party → server.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateMsg {
    /// Round index.
    pub round: u64,
    /// The reporting party.
    pub party_id: u64,
    /// Trained update or typed failure.
    pub body: UpdateBody,
}

/// The two outcomes a party reports.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateBody {
    /// Local training finished; the delta crossed the wire through the
    /// run's codec.
    Trained {
        /// The [`UpdateCodec`](crate::compress::UpdateCodec)-encoded Δw.
        payload: Vec<u8>,
        /// The refreshed error-feedback residual (empty for dense).
        residual: Vec<f32>,
        /// The refreshed SCAFFOLD variate `cᵢ*` (empty for non-SCAFFOLD).
        client_c: Vec<f32>,
        /// Final local BatchNorm buffers (dense, rides along).
        buffers: Vec<f32>,
        /// SCAFFOLD `Δc` (dense, rides along; empty otherwise).
        delta_c: Vec<f32>,
        /// Local SGD steps `τᵢ`.
        tau: u64,
        /// Local dataset size (aggregation weight).
        n_samples: u64,
        /// Sample-weighted mean local loss (exact f64 bits).
        avg_loss: f64,
        /// Local-training wall time in ms (exact f64 bits; excluded
        /// from the bit-identity contract like every wall-clock field).
        wall_ms: f64,
    },
    /// The party failed (injected fault or real panic).
    Failed {
        /// Failure class.
        kind: FailureKind,
        /// Human-readable cause.
        message: String,
    },
}

impl UpdateMsg {
    /// Wrap a party's outcome for the wire. `delta` and `layer_grad_sq`
    /// stay behind: the update travels as the codec `payload`.
    fn from_outcome(round: usize, party_id: usize, outcome: PartyOutcome) -> Self {
        let body = match outcome {
            PartyOutcome::Failed(PartyFailure { kind, message, .. }) => {
                UpdateBody::Failed { kind, message }
            }
            PartyOutcome::Trained(t) => UpdateBody::Trained {
                payload: t.payload,
                residual: t.residual,
                client_c: t.client_c,
                buffers: t.outcome.buffers,
                delta_c: t.outcome.delta_c,
                tau: t.outcome.tau as u64,
                n_samples: t.outcome.n_samples as u64,
                avg_loss: t.outcome.avg_loss,
                wall_ms: t.outcome.wall_ms,
            },
        };
        UpdateMsg {
            round: round as u64,
            party_id: party_id as u64,
            body,
        }
    }

    /// The outcome a received message reports.
    fn into_outcome(self) -> PartyOutcome {
        let party_id = self.party_id as usize;
        match self.body {
            UpdateBody::Failed { kind, message } => PartyOutcome::Failed(PartyFailure {
                party_id,
                kind,
                message,
            }),
            UpdateBody::Trained {
                payload,
                residual,
                client_c,
                buffers,
                delta_c,
                tau,
                n_samples,
                avg_loss,
                wall_ms,
            } => PartyOutcome::Trained(TrainedParty {
                outcome: LocalOutcome {
                    delta: Vec::new(),
                    tau: tau as usize,
                    n_samples: n_samples as usize,
                    avg_loss,
                    buffers,
                    delta_c,
                    wall_ms,
                    layer_grad_sq: Vec::new(),
                },
                payload,
                residual,
                client_c,
            }),
        }
    }

    /// Binary payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.round);
        put_u64(&mut buf, self.party_id);
        match &self.body {
            UpdateBody::Failed { kind, message } => {
                buf.push(1);
                buf.push(failure_kind_tag(kind));
                put_str(&mut buf, message);
            }
            UpdateBody::Trained {
                payload,
                residual,
                client_c,
                buffers,
                delta_c,
                tau,
                n_samples,
                avg_loss,
                wall_ms,
            } => {
                buf.push(0);
                put_bytes(&mut buf, payload);
                put_f32s(&mut buf, residual);
                put_f32s(&mut buf, client_c);
                put_f32s(&mut buf, buffers);
                put_f32s(&mut buf, delta_c);
                put_u64(&mut buf, *tau);
                put_u64(&mut buf, *n_samples);
                put_f64(&mut buf, *avg_loss);
                put_f64(&mut buf, *wall_ms);
            }
        }
        buf
    }

    /// Parse an `Update` payload.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = Cursor::new(payload);
        let round = r.u64("Update round")?;
        let party_id = r.u64("Update party_id")?;
        let body = if r.bool("Update status")? {
            let tag = r.u8("Update failure kind")?;
            let kind = failure_kind_from_tag(tag)
                .ok_or_else(|| NetError::Malformed(format!("unknown failure kind {tag}")))?;
            let message = r.string("Update failure message")?;
            UpdateBody::Failed { kind, message }
        } else {
            UpdateBody::Trained {
                payload: r.bytes_vec("Update payload")?,
                residual: r.f32_vec("Update residual")?,
                client_c: r.f32_vec("Update client_c")?,
                buffers: r.f32_vec("Update buffers")?,
                delta_c: r.f32_vec("Update delta_c")?,
                tau: r.u64("Update tau")?,
                n_samples: r.u64("Update n_samples")?,
                avg_loss: r.f64("Update avg_loss")?,
                wall_ms: r.f64("Update wall_ms")?,
            }
        };
        r.finish("Update")?;
        Ok(UpdateMsg {
            round,
            party_id,
            body,
        })
    }
}

/// Canonical config JSON shared by `fl_server` and `fl_party`. Both
/// sides render it from their own (identically parsed) configuration and
/// the handshake compares the strings byte-for-byte — any field that
/// would change the trajectory (seed, algorithm, codec, fault schedule,
/// model, population) must agree before a single round runs.
pub fn config_fingerprint(model_spec: &ModelSpec, n_parties: usize, cfg: &FlConfig) -> String {
    use niid_json::{Json, ToJson};
    let fault = match &cfg.fault_plan {
        Some(p) => Json::Str(p.to_string()),
        None => Json::Null,
    };
    Json::obj(vec![
        ("proto", (PROTOCOL_VERSION as u64).to_json()),
        ("model", Json::Str(format!("{model_spec:?}"))),
        ("n_parties", n_parties.to_json()),
        ("algorithm", cfg.algorithm.to_json()),
        ("rounds", cfg.rounds.to_json()),
        // Exact decimal string: a u64 seed must not round-trip through f64.
        ("seed", Json::Str(cfg.seed.to_string())),
        ("local", Json::Str(format!("{:?}", cfg.local))),
        ("sample_fraction", cfg.sample_fraction.to_json()),
        (
            "buffer_policy",
            Json::Str(format!("{:?}", cfg.buffer_policy)),
        ),
        ("min_quorum", cfg.min_quorum.to_json()),
        ("server_lr", cfg.server_lr.to_json()),
        ("eval_every", cfg.eval_every.to_json()),
        ("fault_plan", fault),
        ("codec", Json::Str(cfg.codec.to_string())),
    ])
    .to_json_string()
}

/// Socket-layer knobs shared by both sides.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-frame payload cap (see [`DEFAULT_MAX_FRAME`]).
    pub max_frame: u32,
    /// Deadline for one connection's handshake exchange.
    pub handshake_timeout: Duration,
    /// How long the coordinator waits for the full party roster.
    pub accept_timeout: Duration,
    /// Per-host deadline for a round's updates. Must exceed the longest
    /// local training plus any [`FaultPlan`](crate::fault::FaultPlan)
    /// delay, which party clients honor as real wall-clock sleeps.
    pub round_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame: DEFAULT_MAX_FRAME,
            handshake_timeout: Duration::from_secs(10),
            accept_timeout: Duration::from_secs(120),
            round_timeout: Duration::from_secs(300),
        }
    }
}

struct HostConn {
    conn: Conn,
    party_ids: Vec<usize>,
}

/// The server side of a distributed run: owns the listener and the
/// connected party hosts, and trains one round's cohort over sockets on
/// behalf of [`FedSim`](crate::engine::FedSim)'s `drive` loop.
pub struct Coordinator {
    listener: TcpListener,
    net: NetConfig,
    fingerprint: String,
    n_parties: usize,
    hosts: Vec<HostConn>,
}

impl Coordinator {
    /// Bind the coordinator listener (`port 0` picks an ephemeral port).
    pub fn bind(
        addr: &str,
        n_parties: usize,
        fingerprint: String,
        net: NetConfig,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err("bind", e))?;
        // Accepts only ever drain what is already waiting (`accept_pending`).
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("bind", e))?;
        Ok(Coordinator {
            listener,
            net,
            fingerprint,
            n_parties,
            hosts: Vec::new(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        self.listener
            .local_addr()
            .map_err(|e| io_err("local_addr", e))
    }

    /// How many of the `n_parties` ids currently have a live host.
    pub fn hosted_parties(&self) -> usize {
        let mut covered = vec![false; self.n_parties];
        for h in &self.hosts {
            for &id in &h.party_ids {
                covered[id] = true;
            }
        }
        covered.iter().filter(|&&c| c).count()
    }

    /// Accept and handshake party hosts until every party id in
    /// `0..n_parties` is hosted, or the accept deadline fires.
    pub fn wait_for_roster(&mut self) -> Result<(), NetError> {
        let deadline = Deadline::after(self.net.accept_timeout);
        loop {
            self.accept_pending()?;
            if self.hosted_parties() == self.n_parties {
                return Ok(());
            }
            if deadline.expired() {
                return Err(NetError::Timeout("waiting for the party roster"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Register every connection already waiting on the listener, without
    /// blocking. Called while waiting for the roster, and at the top of
    /// every round so a host that died and reconnected is back in the
    /// roster before assignments go out.
    fn accept_pending(&mut self) -> Result<(), NetError> {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    // A bad handshake rejects that connection, not the run.
                    let _ = self.try_register(stream, peer);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err("accept", e)),
            }
        }
    }

    /// Handshake one inbound connection: read its `Hello` under the
    /// handshake deadline, validate fingerprint and claimed ids, answer
    /// `Ack`, and register it — evicting any previous host that owned
    /// one of the claimed ids (that is what a reconnect looks like).
    fn try_register(&mut self, stream: TcpStream, peer: SocketAddr) -> Result<(), NetError> {
        let mut conn = Conn::new(stream, peer.to_string(), self.net.max_frame);
        let frame = conn.recv(Some(&Deadline::after(self.net.handshake_timeout)))?;
        if frame.kind != MsgKind::Hello {
            return Err(NetError::Malformed(format!(
                "expected Hello, got {:?}",
                frame.kind
            )));
        }
        let hello = HelloMsg::decode(&frame.payload)?;
        let reject = |conn: &mut Conn, message: String| {
            let _ = conn.send(MsgKind::Ack, &AckMsg { ok: false, message }.encode());
        };
        if hello.fingerprint != self.fingerprint {
            reject(&mut conn, "config fingerprint mismatch".into());
            return Ok(());
        }
        let mut seen = BTreeSet::new();
        for &id in &hello.party_ids {
            if id >= self.n_parties {
                reject(
                    &mut conn,
                    format!(
                        "party id {id} out of range (n_parties = {})",
                        self.n_parties
                    ),
                );
                return Ok(());
            }
            if !seen.insert(id) {
                reject(&mut conn, format!("duplicate party id {id} in Hello"));
                return Ok(());
            }
        }
        if hello.party_ids.is_empty() {
            reject(&mut conn, "Hello claims no parties".into());
            return Ok(());
        }
        conn.send(
            MsgKind::Ack,
            &AckMsg {
                ok: true,
                message: "welcome".into(),
            }
            .encode(),
        )?;
        // The new connection owns its ids; drop any stale host holding one.
        self.hosts
            .retain(|h| !h.party_ids.iter().any(|id| seen.contains(id)));
        self.hosts.push(HostConn {
            conn,
            party_ids: hello.party_ids,
        });
        Ok(())
    }

    fn host_of(&self, party_id: usize) -> Option<usize> {
        self.hosts
            .iter()
            .position(|h| h.party_ids.contains(&party_id))
    }

    /// Tell every connected host the run is over. Best effort; clears
    /// the roster either way.
    pub fn shutdown_all(&mut self) {
        for host in &mut self.hosts {
            let _ = host.conn.send(MsgKind::Shutdown, &[]);
        }
        self.hosts.clear();
    }
}

/// The distributed transport: the cohort trains on the connected party
/// hosts. A vanished or hostile host turns its pending parties into typed
/// [`PartyFailure`]s, which the engine's quorum policy then judges —
/// exactly the in-process failure path.
impl Transport for Coordinator {
    fn train_round(
        &mut self,
        bcast: &Broadcast<'_>,
        selected: &[usize],
        client_c: &BTreeMap<usize, Vec<f32>>,
        residuals: &BTreeMap<usize, Vec<f32>>,
        sink: &dyn TraceSink,
    ) -> Vec<PartyOutcome> {
        let _ = self.accept_pending();
        let round = bcast.round;
        let p_len = bcast.params.len();
        let b_len = bcast.buffers.len();
        let host_lost = |party_id: usize, peer: &str, e: &NetError| {
            PartyOutcome::Failed(PartyFailure {
                party_id,
                kind: FailureKind::Panic,
                message: format!("party host {peer} unavailable: {e}"),
            })
        };

        let mut results: BTreeMap<usize, PartyOutcome> = BTreeMap::new();
        // Group the cohort by hosting connection, in host order.
        let mut plans: Vec<(usize, Vec<usize>)> = Vec::new();
        for &pid in selected {
            match self.host_of(pid) {
                Some(h) => match plans.iter_mut().find(|(idx, _)| *idx == h) {
                    Some((_, ids)) => ids.push(pid),
                    None => plans.push((h, vec![pid])),
                },
                None => {
                    results.insert(
                        pid,
                        PartyOutcome::Failed(PartyFailure {
                            party_id: pid,
                            kind: FailureKind::Panic,
                            message: "no connected host for this party".into(),
                        }),
                    );
                }
            }
        }

        let bcast = BroadcastMsg {
            round: round as u64,
            params: bcast.params.to_vec(),
            buffers: bcast.buffers.to_vec(),
            server_c: bcast.server_c.to_vec(),
        }
        .encode();

        let mut dead: BTreeSet<usize> = BTreeSet::new();
        for (h, pids) in &plans {
            let assign = AssignMsg {
                round: round as u64,
                parties: pids
                    .iter()
                    .map(|&pid| PartyAssignment {
                        party_id: pid as u64,
                        client_c: client_c.get(&pid).cloned().unwrap_or_default(),
                        residual: residuals.get(&pid).cloned().unwrap_or_default(),
                    })
                    .collect(),
            }
            .encode();
            let conn = &mut self.hosts[*h].conn;
            let sent = conn
                .send(MsgKind::Broadcast, &bcast)
                .and_then(|_| conn.send(MsgKind::RoundAssign, &assign));
            if let Err(e) = sent {
                for &pid in pids {
                    results.insert(pid, host_lost(pid, &conn.peer, &e));
                }
                dead.insert(*h);
            }
        }

        for (h, pids) in &plans {
            if dead.contains(h) {
                continue;
            }
            let mut pending: BTreeSet<usize> = pids.iter().copied().collect();
            let deadline = Deadline::after(self.net.round_timeout);
            let conn = &mut self.hosts[*h].conn;
            while !pending.is_empty() {
                let received = conn
                    .recv(Some(&deadline))
                    .and_then(|frame| {
                        if frame.kind != MsgKind::Update {
                            return Err(NetError::Malformed(format!(
                                "expected Update, got {:?}",
                                frame.kind
                            )));
                        }
                        UpdateMsg::decode(&frame.payload)
                    })
                    .and_then(|upd| {
                        let pid = upd.party_id as usize;
                        if upd.round != round as u64 {
                            return Err(NetError::Malformed(format!(
                                "update for round {} during round {round}",
                                upd.round
                            )));
                        }
                        if !pending.contains(&pid) {
                            return Err(NetError::Malformed(format!(
                                "unexpected update from party {pid}"
                            )));
                        }
                        if let UpdateBody::Trained {
                            residual,
                            client_c,
                            buffers,
                            delta_c,
                            ..
                        } = &upd.body
                        {
                            let len_ok =
                                |v: &[f32], expect: usize| v.is_empty() || v.len() == expect;
                            if !len_ok(residual, p_len)
                                || !len_ok(client_c, p_len)
                                || !len_ok(delta_c, p_len)
                                || !len_ok(buffers, b_len)
                            {
                                return Err(NetError::Malformed(format!(
                                    "party {pid} update has wrong vector lengths"
                                )));
                            }
                        }
                        Ok(upd)
                    });
                match received {
                    Ok(upd) => {
                        let pid = upd.party_id as usize;
                        pending.remove(&pid);
                        let outcome = upd.into_outcome();
                        record_trained(sink, round, pid, &outcome);
                        results.insert(pid, outcome);
                    }
                    Err(e) => {
                        for &pid in &pending {
                            results.insert(pid, host_lost(pid, &conn.peer, &e));
                        }
                        dead.insert(*h);
                        break;
                    }
                }
            }
        }

        // Drop dead hosts (descending index so removals don't shift).
        for &h in dead.iter().rev() {
            self.hosts.remove(h);
        }

        selected
            .iter()
            .map(|pid| {
                results
                    .remove(pid)
                    .expect("every selected party has an outcome")
            })
            .collect()
    }
}

/// Where a party client finds its coordinator.
#[derive(Debug, Clone)]
pub enum ServerAddr {
    /// A fixed `host:port`.
    Fixed(String),
    /// A file holding `host:port`, re-read on every (re)connect attempt
    /// — a restarted server can come back on a fresh port and parties
    /// follow it without being restarted themselves.
    FromFile(PathBuf),
}

impl ServerAddr {
    fn resolve(&self) -> Option<String> {
        match self {
            ServerAddr::Fixed(a) => Some(a.clone()),
            ServerAddr::FromFile(path) => {
                let text = std::fs::read_to_string(path).ok()?;
                let addr = text.trim().to_string();
                if addr.is_empty() {
                    None
                } else {
                    Some(addr)
                }
            }
        }
    }
}

/// Client-side connection policy.
#[derive(Debug, Clone)]
pub struct PartyClientConfig {
    /// Coordinator address.
    pub server: ServerAddr,
    /// The party ids this process hosts.
    pub party_ids: Vec<usize>,
    /// Canonical config JSON (see [`config_fingerprint`]).
    pub fingerprint: String,
    /// Socket knobs (frame cap and handshake deadline).
    pub net: NetConfig,
    /// Sleep between reconnect attempts.
    pub reconnect_backoff: Duration,
    /// Consecutive failed attempts tolerated before giving up. Sized so
    /// parties comfortably outlive a coordinator restart.
    pub max_reconnects: u32,
}

impl PartyClientConfig {
    /// Defaults: retry every 250 ms for up to 2 minutes of outage.
    pub fn new(server: ServerAddr, party_ids: Vec<usize>, fingerprint: String) -> Self {
        PartyClientConfig {
            server,
            party_ids,
            fingerprint,
            net: NetConfig::default(),
            reconnect_backoff: Duration::from_millis(250),
            max_reconnects: 480,
        }
    }
}

/// Everything a party process needs to run local training: the shared
/// run config plus a [`PartyProvider`] for the datasets it hosts.
pub struct PartyHost {
    /// The global model architecture.
    pub model_spec: ModelSpec,
    /// Deterministic source of this process's party datasets.
    pub provider: Box<dyn PartyProvider>,
    /// The full run config — identical, flag-for-flag, to the server's
    /// (the fingerprint handshake enforces it).
    pub config: FlConfig,
}

fn connect_once(cfg: &PartyClientConfig) -> Result<Conn, NetError> {
    let addr = cfg.server.resolve().ok_or(NetError::Io {
        op: "resolve server address",
        kind: ErrorKind::NotFound,
        message: "server address not available yet".into(),
    })?;
    let stream = TcpStream::connect(&addr).map_err(|e| io_err("connect", e))?;
    Ok(Conn::new(stream, addr, cfg.net.max_frame))
}

/// Run a party client until the coordinator says [`MsgKind::Shutdown`].
///
/// The loop reconnects with backoff across coordinator restarts
/// (bounded by [`PartyClientConfig::max_reconnects`] consecutive
/// failures); a fingerprint rejection is fatal immediately.
pub fn run_party_client(cfg: &PartyClientConfig, host: &PartyHost) -> Result<(), NetError> {
    let env = PartyEnv {
        cfg: &host.config,
        model_spec: &host.model_spec,
        classes: host.provider.num_classes(),
        parties: host.provider.as_ref(),
        grad_spans: None,
    };
    let hello = HelloMsg {
        fingerprint: cfg.fingerprint.clone(),
        party_ids: cfg.party_ids.clone(),
    }
    .encode();
    let mut model = None;
    let mut outages = 0u32;
    'session: loop {
        macro_rules! outage {
            ($err:expr) => {{
                outages += 1;
                if outages > cfg.max_reconnects {
                    return Err($err);
                }
                std::thread::sleep(cfg.reconnect_backoff);
                continue 'session;
            }};
        }
        let mut conn = match connect_once(cfg) {
            Ok(s) => s,
            Err(e) => outage!(e),
        };
        let handshake = (|| -> Result<AckMsg, NetError> {
            conn.send(MsgKind::Hello, &hello)?;
            let frame = conn.recv(Some(&Deadline::after(cfg.net.handshake_timeout)))?;
            if frame.kind != MsgKind::Ack {
                return Err(NetError::Malformed(format!(
                    "expected Ack, got {:?}",
                    frame.kind
                )));
            }
            AckMsg::decode(&frame.payload)
        })();
        let ack = match handshake {
            Ok(a) => a,
            Err(e) => outage!(e),
        };
        if !ack.ok {
            return Err(NetError::HandshakeRejected(ack.message));
        }
        outages = 0;

        let mut bcast: Option<BroadcastMsg> = None;
        loop {
            let frame = match conn.recv(None) {
                Ok(f) => f,
                Err(e) => outage!(e),
            };
            match frame.kind {
                MsgKind::Broadcast => {
                    bcast = Some(BroadcastMsg::decode(&frame.payload)?);
                }
                MsgKind::RoundAssign => {
                    let assign = AssignMsg::decode(&frame.payload)?;
                    let Some(b) = bcast.as_ref().filter(|b| b.round == assign.round) else {
                        // Mid-round reconnect missed this round's
                        // broadcast; drop the session and re-handshake —
                        // the server fails our parties for this round
                        // and reassigns us next round.
                        outage!(NetError::Malformed(format!(
                            "RoundAssign for round {} without its Broadcast",
                            assign.round
                        )));
                    };
                    let bcast = Broadcast {
                        round: b.round as usize,
                        params: &b.params,
                        buffers: &b.buffers,
                        server_c: &b.server_c,
                    };
                    for a in assign.parties {
                        let party_id = a.party_id as usize;
                        let outcome =
                            train_party(&env, &bcast, &mut model, party_id, a.client_c, a.residual);
                        let upd = UpdateMsg::from_outcome(bcast.round, party_id, outcome);
                        if let Err(e) = conn.send(MsgKind::Update, &upd.encode()) {
                            outage!(e);
                        }
                    }
                }
                MsgKind::Shutdown => return Ok(()),
                other => {
                    return Err(NetError::Malformed(format!(
                        "unexpected {other:?} frame from server"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;

    fn frame_bytes(kind: MsgKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, payload).unwrap();
        out
    }

    fn read_from(bytes: &[u8], max: u32) -> Result<Frame, NetError> {
        read_frame(&mut &bytes[..], max)
    }

    #[test]
    fn frame_round_trips_every_kind() {
        for kind in [
            MsgKind::Hello,
            MsgKind::RoundAssign,
            MsgKind::Broadcast,
            MsgKind::Update,
            MsgKind::Ack,
            MsgKind::Shutdown,
        ] {
            let payload = vec![7u8; 13];
            let bytes = frame_bytes(kind, &payload);
            let frame = read_from(&bytes, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload);
        }
    }

    /// Mirrors compress.rs's strict-prefix rejection loop: every proper
    /// prefix of a valid frame is a typed truncation error, never a
    /// panic. An empty stream is a clean disconnect.
    #[test]
    fn every_truncated_frame_prefix_is_a_typed_error() {
        let bytes = frame_bytes(MsgKind::Update, &[1, 2, 3, 4, 5]);
        assert_eq!(read_from(&[], 1024), Err(NetError::Disconnected));
        for cut in 1..bytes.len() {
            let err = read_from(&bytes[..cut], 1024).unwrap_err();
            match err {
                NetError::Truncated { .. } => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
        assert!(read_from(&bytes, 1024).is_ok());
    }

    /// A lying length prefix must be rejected *before* allocation: cap
    /// the reader at a small max and claim u32::MAX bytes.
    #[test]
    fn oversized_length_prefix_is_rejected_without_alloc() {
        let mut bytes = frame_bytes(MsgKind::Update, &[]);
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_from(&bytes, 1024),
            Err(NetError::FrameTooLarge {
                len: u32::MAX,
                max: 1024
            })
        );
        // One byte over the cap is also refused.
        let mut bytes = frame_bytes(MsgKind::Update, &[]);
        bytes[6..10].copy_from_slice(&1025u32.to_le_bytes());
        assert!(matches!(
            read_from(&bytes, 1024),
            Err(NetError::FrameTooLarge { len: 1025, .. })
        ));
    }

    #[test]
    fn wrong_version_magic_and_kind_are_typed() {
        let good = frame_bytes(MsgKind::Ack, b"{}");

        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(
            read_from(&bad, 1024),
            Err(NetError::BadMagic { got: [b'X', b'F'] })
        );

        let mut bad = good.clone();
        bad[2..4].copy_from_slice(&999u16.to_le_bytes());
        assert_eq!(
            read_from(&bad, 1024),
            Err(NetError::BadVersion {
                got: 999,
                expected: PROTOCOL_VERSION
            })
        );

        let mut bad = good;
        bad[4] = 200;
        assert_eq!(read_from(&bad, 1024), Err(NetError::BadKind(200)));
    }

    /// Mid-frame disconnect over a real socket (not a slice): the reader
    /// sees a typed truncation, not a hang or a panic.
    #[test]
    fn mid_frame_disconnect_over_tcp_is_truncated() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let bytes = {
                let mut out = Vec::new();
                write_frame(&mut out, MsgKind::Broadcast, &[0u8; 64]).unwrap();
                out
            };
            // Send the header plus half the payload, then vanish.
            s.write_all(&bytes[..FRAME_HEADER_LEN + 32]).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream, "writer".into(), 1024);
        let deadline = Deadline::after(Duration::from_secs(5));
        let err = conn.recv(Some(&deadline)).unwrap_err();
        assert_eq!(
            err,
            NetError::Truncated {
                context: "frame payload"
            }
        );
        writer.join().unwrap();
    }

    /// A peer that sends nothing trips the deadline, not an infinite
    /// block — the slow-client fix, at the frame layer.
    #[test]
    fn silent_peer_times_out_at_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream, "client".into(), 1024);
        let deadline = Deadline::after(Duration::from_millis(200));
        let started = std::time::Instant::now();
        let err = conn.recv(Some(&deadline)).unwrap_err();
        assert!(matches!(err, NetError::Timeout(_)), "{err:?}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// A peer that trickles one byte every 100 ms never leaves a read
    /// idle for a whole timeout window, yet it is still cut off at the
    /// frame's deadline rather than one fresh window per byte.
    #[test]
    fn trickling_peer_times_out_at_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_trickler = std::sync::Arc::clone(&stop);
        let trickler = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let frame = frame_bytes(MsgKind::Update, &[0u8; 64]);
            for b in frame {
                if stop_trickler.load(std::sync::atomic::Ordering::SeqCst)
                    || s.write_all(&[b]).is_err()
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream, "trickler".into(), 1024);
        let deadline = Deadline::after(Duration::from_millis(400));
        let started = std::time::Instant::now();
        let err = conn.recv(Some(&deadline)).unwrap_err();
        let waited = started.elapsed();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        trickler.join().unwrap();
        assert!(matches!(err, NetError::Timeout(_)), "{err:?}");
        // The whole 74-byte frame would take 7.4 s to arrive.
        assert!(waited < Duration::from_secs(3), "cut off after {waited:?}");
    }

    /// A send that times out is not retried: `write_all` cannot tell how
    /// much of the frame left, so a resend would splice a second header
    /// into the first frame. The peer sees a strict prefix of one frame.
    #[test]
    fn a_frame_is_sent_at_most_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Larger than both sides' socket buffers together.
        let payload = vec![0u8; 32 << 20];
        let frame = frame_bytes(MsgKind::Broadcast, &payload);
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Idle well past the sender's write timeout, then drain.
            std::thread::sleep(Duration::from_millis(350));
            let mut got = Vec::new();
            s.read_to_end(&mut got).unwrap();
            got
        });
        let mut conn = Conn::new(TcpStream::connect(addr).unwrap(), "peer".into(), 1024);
        conn.stream
            .set_write_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let sent = conn.send(MsgKind::Broadcast, &payload);
        drop(conn);
        let got = peer.join().unwrap();
        assert!(matches!(sent, Err(NetError::Timeout(_))), "{sent:?}");
        assert!(got.len() < frame.len(), "the whole frame arrived");
        assert_eq!(got[..], frame[..got.len()], "not a prefix of one frame");
        let headers = got
            .windows(FRAME_HEADER_LEN)
            .filter(|w| *w == &frame[..FRAME_HEADER_LEN])
            .count();
        assert_eq!(headers, 1);
    }

    #[test]
    fn hello_and_ack_round_trip_in_binary() {
        let hello = HelloMsg {
            fingerprint: "{\"seed\":\"42\"}".into(),
            party_ids: vec![0, 3, 6],
        };
        assert_eq!(HelloMsg::decode(&hello.encode()).unwrap(), hello);
        for ok in [false, true] {
            let ack = AckMsg {
                ok,
                message: "config fingerprint mismatch".into(),
            };
            assert_eq!(AckMsg::decode(&ack.encode()).unwrap(), ack);
        }
        // The protocol-1 JSON bodies are not Hello/Ack payloads any more.
        assert!(HelloMsg::decode(b"{\"party_ids\":[0]}").is_err());
        assert!(AckMsg::decode(b"{\"ok\":true}").is_err());
    }

    #[test]
    fn binary_messages_round_trip() {
        let b = BroadcastMsg {
            round: 7,
            params: vec![1.0, -2.5, 3.25],
            buffers: vec![0.5],
            server_c: vec![],
        };
        assert_eq!(BroadcastMsg::decode(&b.encode()).unwrap(), b);

        let a = AssignMsg {
            round: 7,
            parties: vec![
                PartyAssignment {
                    party_id: 2,
                    client_c: vec![0.1, 0.2],
                    residual: vec![],
                },
                PartyAssignment {
                    party_id: 5,
                    client_c: vec![],
                    residual: vec![-1.0, 1.0],
                },
            ],
        };
        assert_eq!(AssignMsg::decode(&a.encode()).unwrap(), a);

        let trained = UpdateMsg {
            round: 7,
            party_id: 5,
            body: UpdateBody::Trained {
                payload: vec![9, 8, 7],
                residual: vec![0.5],
                client_c: vec![],
                buffers: vec![1.0, 2.0],
                delta_c: vec![],
                tau: 12,
                n_samples: 340,
                avg_loss: 0.731,
                wall_ms: 5.25,
            },
        };
        assert_eq!(UpdateMsg::decode(&trained.encode()).unwrap(), trained);

        let failed = UpdateMsg {
            round: 7,
            party_id: 2,
            body: UpdateBody::Failed {
                kind: FailureKind::InjectedCrash,
                message: crate::fault::INJECTED_CRASH_MSG.into(),
            },
        };
        assert_eq!(UpdateMsg::decode(&failed.encode()).unwrap(), failed);
    }

    /// Hostile payload bodies: truncated prefixes, overflowing vector
    /// counts, unknown discriminants, trailing garbage — all typed
    /// `Malformed`, never a panic or OOM.
    #[test]
    fn hostile_message_payloads_are_typed_errors() {
        let good = UpdateMsg {
            round: 1,
            party_id: 0,
            body: UpdateBody::Trained {
                payload: vec![1, 2, 3, 4],
                residual: vec![0.5, 0.25],
                client_c: vec![],
                buffers: vec![],
                delta_c: vec![],
                tau: 1,
                n_samples: 10,
                avg_loss: 0.5,
                wall_ms: 1.0,
            },
        }
        .encode();
        for cut in 0..good.len() {
            assert!(
                UpdateMsg::decode(&good[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0);
        assert!(UpdateMsg::decode(&padded).is_err());
        // Unknown status byte.
        let mut bad = good.clone();
        bad[16] = 9;
        assert!(UpdateMsg::decode(&bad).is_err());
        // A vector count whose byte size overflows usize·4 must error,
        // not allocate: patch the residual count (after the 4-byte
        // payload field at offset 17..25).
        let mut bomb = good;
        let residual_count_at = 8 + 8 + 1 + 4 + 4; // round+party+status+payload len+bytes
        bomb[residual_count_at..residual_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(UpdateMsg::decode(&bomb).is_err());

        // AssignMsg with a huge party count but no bytes behind it.
        let mut assign = Vec::new();
        put_u64(&mut assign, 0);
        assign.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(AssignMsg::decode(&assign).is_err());

        // Broadcast truncated mid-vector.
        let b = BroadcastMsg {
            round: 0,
            params: vec![1.0; 8],
            buffers: vec![],
            server_c: vec![],
        }
        .encode();
        for cut in 0..b.len() {
            assert!(BroadcastMsg::decode(&b[..cut]).is_err());
        }

        // Hello/Ack: every strict prefix and trailing garbage.
        let hello = HelloMsg {
            fingerprint: "fp".into(),
            party_ids: vec![1, 4],
        }
        .encode();
        let ack = AckMsg {
            ok: true,
            message: "welcome".into(),
        }
        .encode();
        let hostile = |name: &str, bytes: &[u8], decode: &dyn Fn(&[u8]) -> Result<(), NetError>| {
            for cut in 0..bytes.len() {
                assert!(
                    matches!(decode(&bytes[..cut]), Err(NetError::Malformed(_))),
                    "{name} prefix {cut} decoded"
                );
            }
            let mut padded = bytes.to_vec();
            padded.push(0);
            assert!(decode(&padded).is_err(), "{name} with trailing garbage");
        };
        hostile("Hello", &hello, &|b| HelloMsg::decode(b).map(drop));
        hostile("Ack", &ack, &|b| AckMsg::decode(b).map(drop));
        // An Ack presence byte other than 0 or 1.
        let mut two = ack;
        two[0] = 2;
        match AckMsg::decode(&two) {
            Err(NetError::Malformed(m)) => assert!(m.contains("must be 0 or 1"), "{m}"),
            other => panic!("presence byte 2 gave {other:?}"),
        }
        // A Hello id count larger than the bytes behind it.
        let mut liar = Vec::new();
        put_str(&mut liar, "fp");
        put_len(&mut liar, u32::MAX as usize);
        put_u64(&mut liar, 0);
        match HelloMsg::decode(&liar) {
            Err(NetError::Malformed(m)) => assert!(m.contains("truncated Hello party id"), "{m}"),
            other => panic!("lying id count gave {other:?}"),
        }
    }

    /// FNV-1a over a byte stream.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The exact bytes every codec payload and every message puts on the
    /// wire, pinned by digest: a change to how bytes are written or read
    /// must leave each one where it is.
    #[test]
    fn wire_bytes_are_pinned() {
        use crate::compress::UpdateCodec;
        let mut rng = niid_stats::Pcg64::new(7);
        let mut delta: Vec<f32> = (0..1001)
            .map(|_| (rng.next_f64() as f32) * 2.0 - 1.0)
            .collect();
        delta[3] = -0.0;
        delta[500] = 1.0e-40;
        let kern = niid_tensor::simd::active_kernel();
        let codecs = [
            UpdateCodec::DenseF32,
            UpdateCodec::TopK { fraction: 0.1 },
            UpdateCodec::Int8Q { levels: 128 },
            UpdateCodec::TopKInt8 {
                fraction: 0.1,
                levels: 16,
            },
        ];
        let payloads: Vec<Vec<u8>> = codecs.iter().map(|c| c.encode(kern, &delta, 42)).collect();
        let broadcast = BroadcastMsg {
            round: 9,
            params: delta.clone(),
            buffers: vec![0.5, f32::from_bits(0x7FC0_1234)],
            server_c: delta[..17].to_vec(),
        };
        let trained = UpdateMsg {
            round: 9,
            party_id: 3,
            body: UpdateBody::Trained {
                payload: payloads[3].clone(),
                residual: delta[..33].to_vec(),
                client_c: vec![],
                buffers: vec![1.0, -2.0],
                delta_c: delta[..5].to_vec(),
                tau: 12,
                n_samples: 340,
                avg_loss: 0.731,
                wall_ms: 5.25,
            },
        };
        let failed = UpdateMsg {
            round: 9,
            party_id: 4,
            body: UpdateBody::Failed {
                kind: FailureKind::InjectedDrop,
                message: "dropped".into(),
            },
        };
        let hello = HelloMsg {
            fingerprint: "{\"seed\":\"42\"}".into(),
            party_ids: vec![0, 3, 6],
        };
        let got: Vec<u64> = payloads
            .iter()
            .map(|p| fnv1a(p))
            .chain([
                fnv1a(&broadcast.encode()),
                fnv1a(&trained.encode()),
                fnv1a(&failed.encode()),
                fnv1a(&hello.encode()),
            ])
            .collect();
        // Recorded before `wire`'s byte views became safe loops; the
        // same on every SIMD arm.
        let want: [u64; 8] = [
            0x8f9a_f8c2_3f17_7ef3, // dense
            0x3c98_6dfd_f309_99f1, // topk
            0x38d1_678f_1030_caf7, // int8
            0xfc0b_7126_652a_2351, // topk8
            0x0b67_79bb_2fe8_7210, // Broadcast
            0x4954_bd79_12a5_4efd, // Update, trained
            0x439f_5a77_3f39_9afa, // Update, failed
            0xa95e_385e_6c5e_6a27, // Hello
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        use crate::engine::FlConfig;
        let spec = ModelSpec::Mlp { in_dim: 4 };
        let cfg = FlConfig::paper_defaults(Algorithm::FedAvg, 42);
        let a = config_fingerprint(&spec, 8, &cfg);
        let b = config_fingerprint(&spec, 8, &cfg);
        assert_eq!(a, b);
        let mut other = cfg.clone();
        other.seed = 43;
        assert_ne!(a, config_fingerprint(&spec, 8, &other));
        assert_ne!(a, config_fingerprint(&spec, 9, &cfg));
    }
}
