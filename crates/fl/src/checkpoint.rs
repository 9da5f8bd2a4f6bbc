//! Round-granular checkpoint/resume for the federated engine.
//!
//! Every `k` rounds (and at the final round) `FedSim` serializes the
//! complete server-side state — next round index, global parameters and
//! buffers, the SCAFFOLD control variates (server `c` plus a *sparse* map
//! of the client `cᵢ` that have ever trained), the accumulated
//! [`RoundRecord`]s and the running accuracy/byte folds — as one binary
//! container. Parties absent from the sparse map hold the implicit
//! all-zero variate, so checkpoint size scales with the participating
//! cohort history, never with `N`. Because all of the engine's
//! randomness is derived *statelessly* from `(run seed, round, party)`,
//! this state is sufficient: [`FedSim::resume`](crate::FedSim::resume)
//! reproduces the uninterrupted run's trajectory bit-for-bit.
//!
//! The container (format v4; byte layout in DESIGN.md "Checkpoint
//! format") is the [`crate::wire`] encoding of the `Broadcast`/`Update`
//! messages: every `f32` vector is a count plus its exact bits, so a save
//! costs a copy, not a print, and a load trusts no length prefix.
//!
//! Writes are atomic-by-rename (`checkpoint.bin.tmp` → fsync →
//! `checkpoint.bin`): a kill mid-write leaves the previous checkpoint
//! intact, and a failed write removes its tmp file.
//!
//! The engine writes behind the round loop (`CheckpointWriter`): the
//! round thread encodes straight from its live state and hands the bytes
//! to one writer thread, which runs that same atomic write while the next
//! rounds train. A checkpoint is durable before the next save starts and
//! before the run returns.

use crate::error::FlError;
use crate::metrics::RoundRecord;
use crate::wire::{put_f32s, put_f64, put_len, put_str, put_u32, put_u64, Cursor, Malformed};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Scope;

/// First eight bytes of a checkpoint file.
const MAGIC: [u8; 8] = *b"NIIDCKPT";

/// Checkpoint format version written to / expected from the file.
/// Versions 1–3 were JSON text (3 added the `codec` spec and the sparse
/// error-feedback `residuals`); 4 holds the same fields as 3 in binary.
/// Text checkpoints are refused, not migrated: a checkpoint is a cache
/// of a run that its seed replays.
pub const CHECKPOINT_VERSION: u32 = 4;

/// When and where `FedSim` writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory holding `checkpoint.bin` (created on first write).
    pub dir: PathBuf,
    /// Write every `every` rounds (the final round is always written).
    pub every: usize,
}

impl CheckpointPolicy {
    /// A policy writing `dir/checkpoint.bin` every `every` rounds.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every,
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> PathBuf {
        self.dir.join("checkpoint.bin")
    }

    /// Whether there is a checkpoint to resume from. A directory holding
    /// only a text checkpoint of format v1–v3 is a typed error: starting
    /// a fresh run over it would silently discard the rounds it records.
    pub(crate) fn resumable(&self) -> Result<bool, FlError> {
        let found = self.path().exists();
        let legacy = self.dir.join("checkpoint.json");
        if !found && legacy.exists() {
            return Err(FlError::Checkpoint(format!(
                "unsupported checkpoint version: {} is a JSON text checkpoint (format v1-v3), \
                 this build reads only binary v{CHECKPOINT_VERSION}; move it away to start over",
                legacy.display()
            )));
        }
        Ok(found)
    }
}

/// A complete, resumable snapshot of a run after some round.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The first round the resumed run must execute.
    pub round_next: usize,
    /// The run seed (resume refuses a mismatched config).
    pub seed: u64,
    /// Algorithm name (compatibility check).
    pub algorithm: String,
    /// Total party count (compatibility check).
    pub n_parties: usize,
    /// Per-round cohort fraction (compatibility check: a resume under a
    /// different fraction would sample different parties every round).
    pub sample_fraction: f64,
    /// Quorum policy (compatibility check: a different quorum turns the
    /// same fault schedule into a different pass/fail trajectory).
    pub min_quorum: f64,
    /// Fault-plan spec string ([`crate::fault::FaultPlan`]'s `Display`
    /// form, `None` for fault-free runs) — compatibility check.
    pub fault_plan: Option<String>,
    /// Update-codec spec string ([`crate::compress::UpdateCodec`]'s
    /// `Display` form) — compatibility check: resuming under a different
    /// codec would diverge from the uninterrupted run.
    pub codec: String,
    /// Aggregated global parameters after round `round_next - 1`.
    pub global_params: Vec<f32>,
    /// Aggregated global buffers (empty for buffer-free models).
    pub global_buffers: Vec<f32>,
    /// SCAFFOLD server control variate (empty otherwise).
    pub server_c: Vec<f32>,
    /// Sparse SCAFFOLD client variates: `(party id, cᵢ)` sorted by id,
    /// holding only parties that have trained under SCAFFOLD. Every party
    /// absent here has the implicit all-zero variate, so the checkpoint
    /// carries no per-party residency for the never-selected majority of
    /// a cross-device population.
    pub client_c: Vec<(usize, Vec<f32>)>,
    /// Sparse error-feedback residuals kept by lossy codecs: `(party id,
    /// residual)` sorted by id, holding only parties that have encoded a
    /// lossy update. Empty for `dense` runs.
    pub residuals: Vec<(usize, Vec<f32>)>,
    /// Round records accumulated so far.
    pub records: Vec<RoundRecord>,
    /// Best evaluated accuracy so far.
    pub best_accuracy: f64,
    /// Most recent evaluated accuracy.
    pub final_accuracy: f64,
    /// Cumulative traffic so far.
    pub total_bytes: usize,
}

/// A checkpoint's fields, borrowed from wherever they live: what the
/// container encodes. A [`Checkpoint`] lends its own; the engine lends its
/// live state, so a save copies each vector once, into the bytes.
pub(crate) struct CheckpointRef<'a> {
    pub round_next: usize,
    pub seed: u64,
    pub algorithm: &'a str,
    pub n_parties: usize,
    pub sample_fraction: f64,
    pub min_quorum: f64,
    pub fault_plan: Option<&'a str>,
    pub codec: &'a str,
    pub global_params: &'a [f32],
    pub global_buffers: &'a [f32],
    pub server_c: &'a [f32],
    pub client_c: Vec<(usize, &'a [f32])>,
    pub residuals: Vec<(usize, &'a [f32])>,
    pub records: &'a [RoundRecord],
    pub best_accuracy: f64,
    pub final_accuracy: f64,
    pub total_bytes: usize,
}

impl CheckpointRef<'_> {
    /// Length of the container [`encode_into`](Self::encode_into) writes.
    fn encoded_len(&self) -> usize {
        let vec = |v: &[f32]| 4 + 4 * v.len();
        let sparse =
            |pairs: &[(usize, &[f32])]| 4 + pairs.iter().map(|(_, v)| 8 + vec(v)).sum::<usize>();
        MAGIC.len()
            + 4
            + 8 * 8
            + 4
            + self.algorithm.len()
            + 4
            + self.codec.len()
            + 1
            + self.fault_plan.map_or(0, |p| 4 + p.len())
            + vec(self.global_params)
            + vec(self.global_buffers)
            + vec(self.server_c)
            + sparse(&self.client_c)
            + sparse(&self.residuals)
            + 4
            + RoundRecord::ENCODED_LEN * self.records.len()
    }

    /// Append the version-4 container to `buf`, which grows once, to the
    /// exact length.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        let _sp = niid_prof::span!("ckpt.encode");
        let (start, len) = (buf.len(), self.encoded_len());
        buf.reserve_exact(len);
        buf.extend_from_slice(&MAGIC);
        put_u32(buf, CHECKPOINT_VERSION);
        put_u64(buf, self.round_next as u64);
        put_u64(buf, self.seed);
        put_u64(buf, self.n_parties as u64);
        put_u64(buf, self.total_bytes as u64);
        put_f64(buf, self.sample_fraction);
        put_f64(buf, self.min_quorum);
        put_f64(buf, self.best_accuracy);
        put_f64(buf, self.final_accuracy);
        put_str(buf, self.algorithm);
        put_str(buf, self.codec);
        buf.push(u8::from(self.fault_plan.is_some()));
        if let Some(spec) = self.fault_plan {
            put_str(buf, spec);
        }
        put_f32s(buf, self.global_params);
        put_f32s(buf, self.global_buffers);
        put_f32s(buf, self.server_c);
        put_sparse(buf, &self.client_c);
        put_sparse(buf, &self.residuals);
        put_len(buf, self.records.len());
        self.records.iter().for_each(|rec| rec.put(buf));
        debug_assert_eq!(buf.len() - start, len, "encoded_len is the layout's length");
    }
}

fn put_sparse(buf: &mut Vec<u8>, pairs: &[(usize, &[f32])]) {
    put_len(buf, pairs.len());
    for &(party, v) in pairs {
        put_u64(buf, party as u64);
        put_f32s(buf, v);
    }
}

/// Sparse `(party id, vector)` pairs as borrowed slices, in the order
/// given (a `Vec` of pairs or a `BTreeMap`, both sorted by id).
pub(crate) fn borrow_sparse<'a>(
    pairs: impl IntoIterator<Item = (&'a usize, &'a Vec<f32>)>,
) -> Vec<(usize, &'a [f32])> {
    pairs
        .into_iter()
        .map(|(&id, v)| (id, v.as_slice()))
        .collect()
}

fn sparse(r: &mut Cursor, field: &str) -> Result<Vec<(usize, Vec<f32>)>, Malformed> {
    // Grown as parsed: a hostile entry count reserves nothing.
    let mut out: Vec<(usize, Vec<f32>)> = Vec::new();
    for i in 0..r.u32(field)? {
        let party = r.usize(field)?;
        if let Some((prev, _)) = out.last().filter(|(prev, _)| party <= *prev) {
            return Err(Malformed(format!(
                "{field} ids must be strictly increasing (entry {i}: {party} after {prev})"
            )));
        }
        out.push((party, r.f32_vec(field)?));
    }
    Ok(out)
}

impl Checkpoint {
    /// Borrow every field for [`CheckpointRef::encode_into`].
    fn borrow(&self) -> CheckpointRef<'_> {
        CheckpointRef {
            round_next: self.round_next,
            seed: self.seed,
            algorithm: &self.algorithm,
            n_parties: self.n_parties,
            sample_fraction: self.sample_fraction,
            min_quorum: self.min_quorum,
            fault_plan: self.fault_plan.as_deref(),
            codec: &self.codec,
            global_params: &self.global_params,
            global_buffers: &self.global_buffers,
            server_c: &self.server_c,
            client_c: borrow_sparse(self.client_c.iter().map(|(id, v)| (id, v))),
            residuals: borrow_sparse(self.residuals.iter().map(|(id, v)| (id, v))),
            records: &self.records,
            best_accuracy: self.best_accuracy,
            final_accuracy: self.final_accuracy,
            total_bytes: self.total_bytes,
        }
    }

    /// The version-4 container, built in one buffer.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.borrow().encode_into(&mut buf);
        buf
    }

    /// Parse a version-4 container; anything else is a typed refusal.
    fn decode(bytes: &[u8]) -> Result<Self, Malformed> {
        if bytes.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{') {
            return Err(Malformed(format!(
                "unsupported checkpoint version: a JSON text checkpoint (format v1-v3), \
                 expected binary v{CHECKPOINT_VERSION}"
            )));
        }
        let mut r = Cursor::new(bytes);
        if r.take(MAGIC.len(), "magic")? != MAGIC {
            return Err(Malformed("not a checkpoint file (bad magic)".into()));
        }
        let version = r.u32("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(Malformed(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let ck = Checkpoint {
            round_next: r.usize("round_next")?,
            seed: r.u64("seed")?,
            n_parties: r.usize("n_parties")?,
            total_bytes: r.usize("total_bytes")?,
            sample_fraction: r.f64("sample_fraction")?,
            min_quorum: r.f64("min_quorum")?,
            best_accuracy: r.f64("best_accuracy")?,
            final_accuracy: r.f64("final_accuracy")?,
            algorithm: r.string("algorithm")?,
            codec: r.string("codec")?,
            fault_plan: (r.bool("fault_plan flag")?)
                .then(|| r.string("fault_plan"))
                .transpose()?,
            global_params: r.f32_vec("global_params")?,
            global_buffers: r.f32_vec("global_buffers")?,
            server_c: r.f32_vec("server_c")?,
            client_c: sparse(&mut r, "client_c")?,
            residuals: sparse(&mut r, "residuals")?,
            records: (0..r.u32("records")?)
                .map(|_| RoundRecord::take(&mut r))
                .collect::<Result<_, _>>()?,
        };
        r.finish("checkpoint")?;
        Ok(ck)
    }

    /// Atomically write the checkpoint to `path`: the bytes go to
    /// `path` + `.tmp`, are fsynced, and renamed over `path` in one step.
    /// On any failure the tmp file is removed again.
    pub fn save(&self, path: &Path) -> Result<(), FlError> {
        write_atomic(path, &self.encode())
    }

    /// Load a checkpoint written by [`save`](Self::save).
    pub fn load(path: &Path) -> Result<Self, FlError> {
        let bytes = std::fs::read(path)
            .map_err(|e| FlError::Checkpoint(format!("read {}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
            .map_err(|e| FlError::Checkpoint(format!("parse {}: {}", path.display(), e.0)))
    }
}

/// Write `bytes` to `path` atomically: the directory is created, the
/// bytes go to `path` + `.tmp`, are fsynced, and renamed over `path` in
/// one step. On any failure the tmp file is removed again.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), FlError> {
    let _sp = niid_prof::span!("ckpt.write");
    let io_err = |stage: &str, e: std::io::Error| {
        FlError::Checkpoint(format!("{stage} {}: {e}", path.display()))
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir for", e))?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let write = || {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        f.write_all(bytes).map_err(|e| io_err("write", e))?;
        f.sync_all().map_err(|e| io_err("sync", e))?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// A write handed to the writer thread: where, and the encoded bytes.
type Job = (PathBuf, Vec<u8>);
/// What comes back: the bytes' buffer, for the next save, and the outcome.
type Done = (Vec<u8>, Result<(), FlError>);

/// Write-behind for one run's checkpoints. [`save`](Self::save) encodes
/// on the calling (round) thread and hands the bytes to a single writer
/// thread, scoped to the run and started by the first save, which runs
/// [`write_atomic`]. At most one write is in flight: a save first waits
/// for the previous one, and [`wait`](Self::wait) is what every end of a
/// run calls, so a checkpoint is durable before the next save starts and
/// before the run returns. A failed write is returned by the wait after
/// it.
///
/// The bytes in flight are the only copy of the state being saved. Their
/// buffer comes back with the outcome and the next save encodes into it:
/// one allocation per run, grown to the exact length as the records
/// accumulate, instead of a fresh checkpoint-sized one every save.
///
/// If the round thread unwinds, dropping this closes the job channel: the
/// writer finishes the write in flight and exits, and the scope joins it
/// before the panic goes on.
pub(crate) struct CheckpointWriter<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    lane: Option<(Sender<Job>, Receiver<Done>)>,
    in_flight: bool,
    buf: Vec<u8>,
}

impl<'scope, 'env> CheckpointWriter<'scope, 'env> {
    /// A writer whose thread, once started, lives in `scope`.
    pub(crate) fn new(scope: &'scope Scope<'scope, 'env>) -> Self {
        CheckpointWriter {
            scope,
            lane: None,
            in_flight: false,
            buf: Vec::new(),
        }
    }

    /// Wait until the write in flight, if any, is durable; its error is
    /// returned here.
    pub(crate) fn wait(&mut self) -> Result<(), FlError> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        let _sp = niid_prof::span!("ckpt.wait");
        let (_, done) = self.lane.as_ref().expect("a write in flight has a writer");
        let (buf, outcome) = done
            .recv()
            .map_err(|_| FlError::Checkpoint("checkpoint writer thread died".into()))?;
        self.buf = buf;
        outcome
    }

    /// Wait for the previous write, encode `ck` into the run's buffer, and
    /// hand the bytes to the writer for `path`.
    pub(crate) fn save(&mut self, path: PathBuf, ck: &CheckpointRef<'_>) -> Result<(), FlError> {
        self.wait()?;
        let mut bytes = std::mem::take(&mut self.buf);
        bytes.clear();
        ck.encode_into(&mut bytes);
        if self.lane.is_none() {
            self.lane = Some(self.start()?);
        }
        let (jobs, _) = self.lane.as_ref().expect("started above");
        jobs.send((path, bytes))
            .map_err(|_| FlError::Checkpoint("checkpoint writer thread died".into()))?;
        self.in_flight = true;
        Ok(())
    }

    /// Start the writer thread: it runs each job it receives and sends the
    /// buffer back with the outcome, until the job channel closes.
    fn start(&self) -> Result<(Sender<Job>, Receiver<Done>), FlError> {
        let (job_tx, job_rx) = channel::<Job>();
        let (done_tx, done_rx) = channel::<Done>();
        std::thread::Builder::new()
            .name("niid-checkpoint".into())
            .spawn_scoped(self.scope, move || {
                for (path, bytes) in job_rx {
                    let outcome = write_atomic(&path, &bytes);
                    if done_tx.send((bytes, outcome)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| FlError::Checkpoint(format!("start the checkpoint writer: {e}")))?;
        Ok((job_tx, done_rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_stats::Pcg64;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "niid_ckpt_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            round_next: 3,
            seed: 42,
            algorithm: "scaffold".into(),
            n_parties: 4,
            sample_fraction: 0.5,
            min_quorum: 0.5,
            fault_plan: Some("crash=0.3,seed=7".into()),
            codec: "topk:0.25".into(),
            global_params: vec![0.5f32, -1.25, f32::MIN_POSITIVE, 3.0e-7],
            global_buffers: vec![1.0f32, 0.999],
            server_c: vec![0.125f32; 4],
            client_c: vec![(0, vec![0.1f32, 0.2, 0.3, 0.4]), (2, vec![-0.5; 4])],
            residuals: vec![(0, vec![0.01f32, -0.02, 0.0, 0.5]), (3, vec![0.75; 4])],
            records: vec![RoundRecord {
                round: 2,
                test_accuracy: Some(0.625),
                avg_local_loss: 0.420_130_5,
                participants: 4,
                down_bytes: 100,
                up_bytes: 75,
                local_wall_ms: 1.5,
                aggregate_wall_ms: 0.25,
                eval_wall_ms: 0.5,
                failures: 1,
            }],
            best_accuracy: 0.625,
            final_accuracy: 0.625,
            total_bytes: 175,
        }
    }

    /// The committed fixture's contents: every field kind once, two
    /// records (one unevaluated), one empty vector.
    fn golden() -> Checkpoint {
        Checkpoint {
            round_next: 2,
            seed: 5_394_581_959_906_326_589,
            algorithm: "scaffold".into(),
            n_parties: 3,
            sample_fraction: 1.0,
            min_quorum: 0.25,
            fault_plan: Some("crash=0.05,seed=9".into()),
            codec: "int8:128".into(),
            global_params: vec![1.0, -0.0, f32::from_bits(0x7FC0_1234)],
            global_buffers: Vec::new(),
            server_c: vec![0.5, 0.25, 0.125],
            client_c: vec![(0, vec![1.5, 2.5, 3.5]), (2, vec![-1.0, -2.0, -3.0])],
            residuals: vec![(1, vec![f32::MIN_POSITIVE / 2.0, 0.0, 1.0e-3])],
            records: vec![
                RoundRecord {
                    round: 0,
                    test_accuracy: None,
                    avg_local_loss: 2.25,
                    participants: 3,
                    down_bytes: 72,
                    up_bytes: 48,
                    local_wall_ms: 1.5,
                    aggregate_wall_ms: 0.25,
                    eval_wall_ms: 0.0,
                    failures: 1,
                },
                RoundRecord {
                    round: 1,
                    test_accuracy: Some(0.75),
                    avg_local_loss: 1.125,
                    participants: 3,
                    down_bytes: 72,
                    up_bytes: 72,
                    local_wall_ms: 1.25,
                    aggregate_wall_ms: 0.5,
                    eval_wall_ms: 0.125,
                    failures: 0,
                },
            ],
            best_accuracy: 0.75,
            final_accuracy: 0.75,
            total_bytes: 264,
        }
    }

    const GOLDEN_V4: &[u8] = include_bytes!("../tests/fixtures/checkpoint_v4.bin");

    /// Bitwise equality: `PartialEq` on floats calls NaN unequal to
    /// itself and `-0.0` equal to `0.0`; the encoded bytes do neither.
    fn assert_bit_equal(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.encode(), b.encode());
    }

    /// Pins the v4 layout: the committed bytes decode to the known
    /// struct and the struct encodes to exactly the committed bytes.
    #[test]
    fn golden_fixture_pins_the_layout() {
        let ck = Checkpoint::decode(GOLDEN_V4).unwrap();
        assert_bit_equal(&ck, &golden());
        assert_eq!(ck.seed, 5_394_581_959_906_326_589);
        assert_eq!(ck.global_params[2].to_bits(), 0x7FC0_1234);
        assert_eq!(ck.records[0].test_accuracy, None);
        assert_eq!(ck.records[1].test_accuracy, Some(0.75));
        assert_eq!(ck.client_c[1].0, 2);
        assert_eq!(golden().encode(), GOLDEN_V4);
        // Header: magic, then the version as a little-endian u32.
        assert_eq!(&GOLDEN_V4[..12], b"NIIDCKPT\x04\0\0\0");
    }

    #[test]
    fn round_trip_is_bit_exact_for_awkward_values() {
        let ck = sample();
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(ck, back);

        // NaN payloads, signed zero, subnormals and infinities in every
        // vector kind; a seed above 2^53 (a JSON number would round it).
        let awkward = vec![
            f32::NAN,
            f32::from_bits(0xFFC0_0001),
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
        ];
        let mut ck = sample();
        ck.seed = 5_394_581_959_906_326_589;
        ck.global_params = awkward.clone();
        ck.global_buffers = awkward.clone();
        ck.server_c = awkward.clone();
        ck.client_c = vec![(7, awkward.clone()), (usize::MAX, Vec::new())];
        ck.residuals = vec![(1, awkward.clone())];
        ck.sample_fraction = f64::from_bits(0x7FF8_0000_0000_0BAD);
        ck.records[0].avg_local_loss = -0.0;
        ck.records[0].test_accuracy = Some(f64::MIN_POSITIVE / 4.0);
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_bit_equal(&ck, &back);
        assert_eq!(back.seed, 5_394_581_959_906_326_589);
        for (a, b) in back.global_params.iter().zip(&awkward) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.sample_fraction.to_bits(), 0x7FF8_0000_0000_0BAD);

        // Empty everything is a valid checkpoint too.
        let mut empty = sample();
        empty.fault_plan = None;
        empty.global_params.clear();
        empty.client_c.clear();
        empty.residuals.clear();
        empty.records.clear();
        let back = Checkpoint::decode(&empty.encode()).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.fault_plan, None);
    }

    #[test]
    fn save_load_round_trips_and_is_atomic() {
        let dir = temp_path("dir");
        let path = CheckpointPolicy::new(&dir, 1).path();
        let ck = sample();
        ck.save(&path).unwrap();
        assert!(!dir.join("checkpoint.bin.tmp").exists(), "tmp renamed away");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ck, back);
        // Overwrite keeps the newest state.
        let mut ck2 = ck.clone();
        ck2.round_next = 9;
        ck2.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().round_next, 9);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["checkpoint.bin"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Saving onto a non-empty directory: create, write and sync of the
    /// tmp succeed, the rename cannot — a typed error, and no tmp left.
    #[test]
    fn failed_save_removes_its_tmp() {
        let dir = temp_path("failed_save");
        let target = dir.join("checkpoint.bin");
        std::fs::create_dir_all(&target).unwrap();
        std::fs::write(target.join("occupant"), b"x").unwrap();
        let err = sample().save(&target).unwrap_err();
        assert!(matches!(err, FlError::Checkpoint(_)), "{err:?}");
        assert!(err.to_string().contains("rename"), "{err}");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["checkpoint.bin"], "tmp left behind");
        assert!(target.join("occupant").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_errors_are_typed() {
        let missing = temp_path("missing").join("checkpoint.bin");
        assert!(matches!(
            Checkpoint::load(&missing),
            Err(FlError::Checkpoint(_))
        ));
        let garbled = temp_path("garbled");
        std::fs::write(&garbled, b"\x00not a checkpoint").unwrap();
        let err = Checkpoint::load(&garbled).unwrap_err();
        assert!(matches!(err, FlError::Checkpoint(_)));
        assert!(err.to_string().contains("bad magic"), "{err}");
        let _ = std::fs::remove_file(&garbled);
    }

    /// Older and newer versions are rejected, not misread — including
    /// the v1–v3 JSON text files, which get the same "unsupported
    /// checkpoint version" error a foreign binary version does.
    #[test]
    fn other_versions_are_refused() {
        let mut bytes = sample().encode();
        for other in [0u32, 3, 5, u32::MAX] {
            bytes[8..12].copy_from_slice(&other.to_le_bytes());
            let err = Checkpoint::decode(&bytes).unwrap_err().0;
            assert!(err.contains("unsupported checkpoint version"), "{err}");
            assert!(err.contains(&other.to_string()), "{err}");
        }
        for text in [
            "{\"version\":3,\"round_next\":3,\"seed\":\"42\"}",
            " \n{\"version\":1}",
            "{",
        ] {
            let err = Checkpoint::decode(text.as_bytes()).unwrap_err().0;
            assert!(err.contains("unsupported checkpoint version"), "{err}");
            assert!(err.contains("JSON"), "{err}");
        }
        let mut bad = sample().encode();
        bad[0] = b'X';
        assert!(Checkpoint::decode(&bad).unwrap_err().0.contains("magic"));
    }

    #[test]
    fn every_truncated_prefix_and_trailing_byte_is_an_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(Checkpoint::decode(&bytes).is_ok());
        let mut padded = bytes;
        padded.push(0);
        let err = Checkpoint::decode(&padded).unwrap_err().0;
        assert!(err.contains("trailing"), "{err}");
    }

    /// Offset of `global_params`' count in `ck`'s encoding.
    fn params_count_at(ck: &Checkpoint) -> usize {
        let plan = ck.fault_plan.as_ref().map_or(0, |p| 4 + p.len());
        12 + 64 + 4 + ck.algorithm.len() + 4 + ck.codec.len() + 1 + plan
    }

    /// A count that promises more than the bytes behind it is refused
    /// before anything is sized from it: a vector count by the bounds
    /// check in front of its one allocation, an entry count because
    /// entries are pushed as they parse. Were either trusted, the
    /// `u32::MAX` cases below would ask for 16 GiB and more.
    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocation() {
        let ck = sample();
        let good = ck.encode();
        let params_at = params_count_at(&ck);
        assert_eq!(
            good[params_at..params_at + 4],
            (ck.global_params.len() as u32).to_le_bytes()
        );
        for lie in [u32::MAX, 1 << 30, good.len() as u32] {
            let mut bomb = good.clone();
            bomb[params_at..params_at + 4].copy_from_slice(&lie.to_le_bytes());
            let err = Checkpoint::decode(&bomb).unwrap_err().0;
            assert!(err.contains("truncated global_params"), "{lie}: {err}");
            // The client_c entry count (past the three dense vectors) and
            // the records count (in front of the fixed-size records).
            let dense = ck.global_params.len() + ck.global_buffers.len() + ck.server_c.len();
            let client_c_at = params_at + 3 * 4 + 4 * dense;
            let records_at = good.len() - 81 * ck.records.len() - 4;
            for at in [client_c_at, records_at] {
                let mut bomb = good.clone();
                bomb[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                assert!(
                    Checkpoint::decode(&bomb).is_err(),
                    "offset {at}, count {lie}"
                );
            }
        }
        // The algorithm string's length (first after the fixed header).
        let mut bomb = good.clone();
        bomb[76..80].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Checkpoint::decode(&bomb).is_err());
        // A presence flag other than 0 or 1.
        let mut bad = good;
        bad[params_at - 1 - 4 - ck.fault_plan.as_ref().unwrap().len()] = 2;
        let err = Checkpoint::decode(&bad).unwrap_err().0;
        assert!(err.contains("must be 0 or 1"), "{err}");
    }

    #[test]
    fn sparse_pairs_reject_unordered_ids() {
        let mut ck = sample();
        ck.client_c = vec![(2, vec![0.5; 4]), (0, vec![0.25; 4])];
        let err = Checkpoint::decode(&ck.encode()).unwrap_err().0;
        assert!(err.contains("strictly increasing"), "{err}");
        // Duplicates are unordered too.
        ck.client_c = vec![(1, vec![0.5; 4]), (1, vec![0.25; 4])];
        assert!(Checkpoint::decode(&ck.encode()).is_err());
        // Residuals share the same ordering contract.
        let mut ck = sample();
        ck.residuals = vec![(3, vec![0.5; 4]), (0, vec![0.25; 4])];
        let err = Checkpoint::decode(&ck.encode()).unwrap_err().0;
        assert!(err.contains("residuals ids"), "{err}");
    }

    /// Deterministic byte-mutation fuzz: flips, overwrites, splices,
    /// truncations and pure noise. The decoder may accept or refuse —
    /// it must never panic, and whatever it accepts must survive its own
    /// round trip bit-for-bit.
    #[test]
    fn mutated_inputs_never_panic() {
        let seeds = [sample().encode(), golden().encode()];
        let mut rng = Pcg64::new(0xC4EC_4B17);
        let mut accepted = 0usize;
        for i in 0..120_000usize {
            let mut bytes = seeds[i % 2].clone();
            for _ in 0..1 + rng.next_below(4) {
                let at = rng.next_below(bytes.len());
                match rng.next_below(6) {
                    0 => bytes[at] ^= 1 << rng.next_below(8),
                    1 => bytes[at] = rng.next_u32() as u8,
                    2 => {
                        // A hostile little-endian u32 anywhere.
                        let v = [0, 1, u32::MAX, 1 << 30, bytes.len() as u32][rng.next_below(5)];
                        let end = (at + 4).min(bytes.len());
                        bytes[at..end].copy_from_slice(&v.to_le_bytes()[..end - at]);
                    }
                    3 => bytes.truncate(at),
                    4 => {
                        bytes.insert(at, rng.next_u32() as u8);
                    }
                    _ => {
                        let mut noise = vec![0u8; rng.next_below(64)];
                        rng.fill_bytes(&mut noise);
                        bytes.splice(at.., noise);
                    }
                }
                if bytes.is_empty() {
                    break;
                }
            }
            if let Ok(ck) = Checkpoint::decode(&bytes) {
                accepted += 1;
                let again = Checkpoint::decode(&ck.encode()).expect("own encoding decodes");
                assert_bit_equal(&ck, &again);
            }
        }
        // Mutations that land inside float payloads still decode.
        assert!(accepted > 1000, "only {accepted} mutants decoded");
    }

    #[test]
    fn policy_path_and_legacy_refusal() {
        let p = CheckpointPolicy::new("/tmp/run7", 5);
        assert_eq!(p.path(), PathBuf::from("/tmp/run7/checkpoint.bin"));
        assert_eq!(p.every, 5);

        let dir = temp_path("legacy");
        let policy = CheckpointPolicy::new(&dir, 1);
        assert_eq!(policy.resumable(), Ok(false), "no directory yet");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(policy.resumable(), Ok(false), "empty directory");
        std::fs::write(dir.join("checkpoint.json"), "{\"version\":3}").unwrap();
        let err = policy.resumable().unwrap_err().to_string();
        assert!(err.contains("unsupported checkpoint version"), "{err}");
        assert!(err.contains("checkpoint.json"), "{err}");
        // A v4 file next to it wins: the text file is just stale.
        sample().save(&policy.path()).unwrap();
        assert_eq!(policy.resumable(), Ok(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
