//! Round-level tracing: structured events and phase timings.
//!
//! The ROADMAP's north star is a system that runs "as fast as the hardware
//! allows" — which requires seeing where a round actually spends its time.
//! Before this layer existed the only performance signal was one
//! `wall_seconds` per run; now [`FedSim::run_traced`](crate::FedSim)
//! emits a [`TraceEvent`] stream covering every phase of every round:
//!
//! ```text
//! RoundStarted ─▶ PartyTrained (×|S_t|, concurrent) ─▶ Aggregated
//!              ─▶ Evaluated (when scheduled) ─▶ RoundFinished
//! ```
//!
//! Events flow through a [`TraceSink`]:
//!
//! * [`NoopSink`] — the default; `run()` uses it, and the compiler erases
//!   the calls, so untraced runs pay nothing,
//! * [`MemorySink`] — buffers events in memory (tests, in-process
//!   analysis),
//! * [`JsonlSink`] — appends one JSON object per line to a file, safe to
//!   share across the engine's training threads.
//!
//! [`TraceSummary`] folds an event stream back into the per-phase
//! breakdown (total/mean/max per phase, slowest-party histogram) that perf
//! PRs diff against. Every `wall_ms` an event carries is the duration of
//! the phase's `niid-prof` span (`niid_prof::timed!`), the same number the
//! round's [`RoundRecord`](crate::RoundRecord) keeps: events are a view
//! of the spans, not a second clock.

use niid_json::{read_jsonl_file, FromJson, Json, JsonError, ToJson};
use niid_metrics::JsonlFile;
use niid_prof::percentile_sorted;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One structured event in the life of a federated round.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A round began; `participants` parties were sampled.
    RoundStarted {
        /// Round index.
        round: usize,
        /// Number of sampled parties `|S_t|`.
        participants: usize,
    },
    /// One party finished its local training for the round.
    PartyTrained {
        /// Round index.
        round: usize,
        /// The party's id.
        party_id: usize,
        /// Local SGD steps taken.
        tau: usize,
        /// Local dataset size (aggregation weight).
        n_samples: usize,
        /// Mean local training loss.
        avg_loss: f64,
        /// Wall time of this party's training, in milliseconds.
        wall_ms: f64,
    },
    /// The server finished aggregating the round's updates.
    Aggregated {
        /// Round index.
        round: usize,
        /// Wall time of the aggregation phase, in milliseconds.
        wall_ms: f64,
    },
    /// The global model was evaluated on the test set.
    Evaluated {
        /// Round index.
        round: usize,
        /// Top-1 test accuracy.
        accuracy: f64,
        /// Wall time of the evaluation phase, in milliseconds.
        wall_ms: f64,
    },
    /// The round completed.
    RoundFinished {
        /// Round index.
        round: usize,
        /// Wall time of the whole round, in milliseconds.
        wall_ms: f64,
    },
    /// One party failed to produce an update (panic or injected fault);
    /// the round continues without it.
    PartyFailed {
        /// Round index.
        round: usize,
        /// The failed party's id.
        party_id: usize,
        /// Failure kind tag (`panic`, `injected_crash`, `injected_drop`).
        kind: String,
        /// The panic payload or injected-fault description.
        message: String,
    },
    /// A round aggregated fewer parties than were selected (but met
    /// quorum).
    RoundDegraded {
        /// Round index.
        round: usize,
        /// Parties that failed.
        failed: usize,
        /// Parties whose updates were aggregated.
        survived: usize,
    },
    /// The round's wire traffic, measured from actually-encoded payloads
    /// (see [`crate::compress`]).
    CommMeasured {
        /// Round index.
        round: usize,
        /// Codec family label (`dense`, `topk`, `int8`, `topk8`).
        encoding: String,
        /// Broadcast bytes, server → selected parties.
        down_bytes: usize,
        /// Upload bytes, survivors + in-transit-lost updates.
        up_bytes: usize,
        /// Wall time of the encode/decode phase, in milliseconds.
        wall_ms: f64,
    },
    /// A resumable checkpoint of the state after this round was handed to
    /// the run's checkpoint writer. Emitted at the hand-off, so the file
    /// may still be in flight: it is durable (written, fsynced and renamed
    /// into place) before the run's next checkpoint is encoded and before
    /// the run returns, whatever it returns.
    CheckpointWritten {
        /// Round index (the checkpoint resumes at `round + 1`, or at
        /// `round` itself for the checkpoint a lost quorum leaves).
        round: usize,
        /// Where the checkpoint landed.
        path: String,
    },
}

impl TraceEvent {
    /// The round this event belongs to.
    pub fn round(&self) -> usize {
        match *self {
            TraceEvent::RoundStarted { round, .. }
            | TraceEvent::PartyTrained { round, .. }
            | TraceEvent::Aggregated { round, .. }
            | TraceEvent::Evaluated { round, .. }
            | TraceEvent::RoundFinished { round, .. }
            | TraceEvent::PartyFailed { round, .. }
            | TraceEvent::RoundDegraded { round, .. }
            | TraceEvent::CommMeasured { round, .. }
            | TraceEvent::CheckpointWritten { round, .. } => round,
        }
    }

    /// The event's tag, as written to the `event` field of the JSONL form.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RoundStarted { .. } => "round_started",
            TraceEvent::PartyTrained { .. } => "party_trained",
            TraceEvent::Aggregated { .. } => "aggregated",
            TraceEvent::Evaluated { .. } => "evaluated",
            TraceEvent::RoundFinished { .. } => "round_finished",
            TraceEvent::PartyFailed { .. } => "party_failed",
            TraceEvent::RoundDegraded { .. } => "round_degraded",
            TraceEvent::CommMeasured { .. } => "comm_measured",
            TraceEvent::CheckpointWritten { .. } => "checkpoint_written",
        }
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("event", Json::Str(self.name().into())),
            ("round", self.round().to_json()),
        ];
        match *self {
            TraceEvent::RoundStarted { participants, .. } => {
                fields.push(("participants", participants.to_json()));
            }
            TraceEvent::PartyTrained {
                party_id,
                tau,
                n_samples,
                avg_loss,
                wall_ms,
                ..
            } => {
                fields.push(("party_id", party_id.to_json()));
                fields.push(("tau", tau.to_json()));
                fields.push(("n_samples", n_samples.to_json()));
                fields.push(("avg_loss", avg_loss.to_json()));
                fields.push(("wall_ms", wall_ms.to_json()));
            }
            TraceEvent::Aggregated { wall_ms, .. } => {
                fields.push(("wall_ms", wall_ms.to_json()));
            }
            TraceEvent::Evaluated {
                accuracy, wall_ms, ..
            } => {
                fields.push(("accuracy", accuracy.to_json()));
                fields.push(("wall_ms", wall_ms.to_json()));
            }
            TraceEvent::RoundFinished { wall_ms, .. } => {
                fields.push(("wall_ms", wall_ms.to_json()));
            }
            TraceEvent::PartyFailed {
                party_id,
                ref kind,
                ref message,
                ..
            } => {
                fields.push(("party_id", party_id.to_json()));
                fields.push(("kind", kind.to_json()));
                fields.push(("message", message.to_json()));
            }
            TraceEvent::RoundDegraded {
                failed, survived, ..
            } => {
                fields.push(("failed", failed.to_json()));
                fields.push(("survived", survived.to_json()));
            }
            TraceEvent::CommMeasured {
                ref encoding,
                down_bytes,
                up_bytes,
                wall_ms,
                ..
            } => {
                fields.push(("encoding", encoding.to_json()));
                fields.push(("down_bytes", down_bytes.to_json()));
                fields.push(("up_bytes", up_bytes.to_json()));
                fields.push(("wall_ms", wall_ms.to_json()));
            }
            TraceEvent::CheckpointWritten { ref path, .. } => {
                fields.push(("path", path.to_json()));
            }
        }
        Json::obj(fields)
    }
}

impl FromJson for TraceEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let req = |key: &'static str| -> Result<&Json, JsonError> {
            v.get(key)
                .ok_or_else(|| JsonError::new(format!("trace event missing {key}")))
        };
        let round = usize::from_json(req("round")?)?;
        match req("event")?.as_str() {
            Some("round_started") => Ok(TraceEvent::RoundStarted {
                round,
                participants: usize::from_json(req("participants")?)?,
            }),
            Some("party_trained") => Ok(TraceEvent::PartyTrained {
                round,
                party_id: usize::from_json(req("party_id")?)?,
                tau: usize::from_json(req("tau")?)?,
                n_samples: usize::from_json(req("n_samples")?)?,
                avg_loss: f64::from_json(req("avg_loss")?)?,
                wall_ms: f64::from_json(req("wall_ms")?)?,
            }),
            Some("aggregated") => Ok(TraceEvent::Aggregated {
                round,
                wall_ms: f64::from_json(req("wall_ms")?)?,
            }),
            Some("evaluated") => Ok(TraceEvent::Evaluated {
                round,
                accuracy: f64::from_json(req("accuracy")?)?,
                wall_ms: f64::from_json(req("wall_ms")?)?,
            }),
            Some("round_finished") => Ok(TraceEvent::RoundFinished {
                round,
                wall_ms: f64::from_json(req("wall_ms")?)?,
            }),
            Some("party_failed") => Ok(TraceEvent::PartyFailed {
                round,
                party_id: usize::from_json(req("party_id")?)?,
                kind: String::from_json(req("kind")?)?,
                message: String::from_json(req("message")?)?,
            }),
            Some("round_degraded") => Ok(TraceEvent::RoundDegraded {
                round,
                failed: usize::from_json(req("failed")?)?,
                survived: usize::from_json(req("survived")?)?,
            }),
            Some("comm_measured") => Ok(TraceEvent::CommMeasured {
                round,
                encoding: String::from_json(req("encoding")?)?,
                down_bytes: usize::from_json(req("down_bytes")?)?,
                up_bytes: usize::from_json(req("up_bytes")?)?,
                wall_ms: f64::from_json(req("wall_ms")?)?,
            }),
            Some("checkpoint_written") => Ok(TraceEvent::CheckpointWritten {
                round,
                path: String::from_json(req("path")?)?,
            }),
            other => Err(JsonError::new(format!(
                "unknown trace event tag: {other:?}"
            ))),
        }
    }
}

/// A destination for trace events.
///
/// Implementations must be callable from the engine's training threads
/// (`Send + Sync`); [`MemorySink`] and [`JsonlSink`] serialize access with
/// a mutex, which is far off the hot path (one lock per party per round).
pub trait TraceSink: Send + Sync {
    /// Record one event. Must not panic; sinks that can fail (I/O) should
    /// swallow errors rather than kill a training run.
    fn record(&self, event: &TraceEvent);
}

/// The default sink: discards everything with zero overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline]
    fn record(&self, _event: &TraceEvent) {}
}

/// Buffers every event in memory; the test and in-process-analysis sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink poisoned").clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("trace sink poisoned")
            .push(event.clone());
    }
}

/// Writes events as JSON Lines (one compact object per line) into a
/// [`JsonlFile`], which flushes on drop and on the exit guard.
///
/// I/O errors after creation are swallowed: a full disk must degrade the
/// trace, not abort a multi-hour training run.
#[derive(Debug)]
pub struct JsonlSink(Arc<JsonlFile>);

impl JsonlSink {
    /// Create (truncate) `path` and write events to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        JsonlFile::create(path).map(Self)
    }

    /// Open `path` for appending (multiple experiment cells can share one
    /// trace file within a process run).
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        JsonlFile::append(path).map(Self)
    }

    /// Flush buffered events to disk.
    pub fn flush(&self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        // Errors are intentionally dropped; see the type-level contract.
        let _ = self.0.write_line(event.to_json());
    }
}

/// Aggregate statistics for one phase across a trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStats {
    /// Number of timed samples.
    pub count: usize,
    /// Sum of wall times, ms.
    pub total_ms: f64,
    /// Mean wall time, ms (`0` when `count == 0`).
    pub mean_ms: f64,
    /// Median wall time, ms (nearest rank).
    pub p50_ms: f64,
    /// 99th-percentile wall time, ms (nearest rank).
    pub p99_ms: f64,
    /// Maximum wall time, ms.
    pub max_ms: f64,
}

impl PhaseStats {
    fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let total: f64 = samples.iter().sum();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            count: samples.len(),
            total_ms: total,
            mean_ms: total / samples.len() as f64,
            p50_ms: percentile_sorted(&sorted, 0.50),
            p99_ms: percentile_sorted(&sorted, 0.99),
            max_ms: samples.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// Worker-pool activity captured from the span profiler and substrate
/// counters at summarize time — where round-phase tables come from the
/// trace events, this block answers "what were the pool workers doing".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolActivity {
    /// Wall time pool workers spent executing stolen region work, ns.
    pub steal_ns: u64,
    /// Wall time pool workers spent parked waiting for work, ns.
    pub idle_ns: u64,
    /// Wall time issuing threads spent in their own region share, ns.
    pub task_ns: u64,
    /// Tasks claimed by pool workers (substrate counter).
    pub stolen_tasks: u64,
    /// Total tasks issued (substrate counter).
    pub total_tasks: u64,
}

impl PoolActivity {
    /// Read the pool spans (`pool.steal` / `pool.idle` / `pool.task`)
    /// and substrate counters. `None` when the profiler recorded no pool
    /// activity (profiling off, or a single-threaded run).
    pub fn capture() -> Option<Self> {
        let steal = niid_prof::label_totals("pool.steal");
        let idle = niid_prof::label_totals("pool.idle");
        let task = niid_prof::label_totals("pool.task");
        if steal.is_none() && idle.is_none() && task.is_none() {
            return None;
        }
        let s = niid_tensor::stats::snapshot();
        Some(Self {
            steal_ns: steal.map_or(0, |(_, t, _)| t),
            idle_ns: idle.map_or(0, |(_, t, _)| t),
            task_ns: task.map_or(0, |(_, t, _)| t),
            stolen_tasks: s.pool_stolen_tasks,
            total_tasks: s.pool_tasks,
        })
    }

    /// Fraction of pool-worker wall time spent executing work rather
    /// than parked (`steal / (steal + idle)`); 0 when nothing recorded.
    pub fn steal_idle_ratio(&self) -> f64 {
        let busy = self.steal_ns as f64;
        let denom = (self.steal_ns + self.idle_ns) as f64;
        if denom == 0.0 {
            0.0
        } else {
            busy / denom
        }
    }
}

/// A per-phase breakdown of a traced run — the baseline future perf PRs
/// diff against.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Rounds seen (one per `RoundStarted`).
    pub rounds: usize,
    /// Per-party local-training times (one sample per `PartyTrained`).
    pub party_train: PhaseStats,
    /// Server aggregation times (one sample per `Aggregated`).
    pub aggregate: PhaseStats,
    /// Codec encode/decode times (one sample per `CommMeasured`).
    pub comm: PhaseStats,
    /// Total measured wire bytes across all `CommMeasured` events
    /// (down + up).
    pub comm_bytes: usize,
    /// Evaluation times (one sample per `Evaluated`; skipped rounds
    /// contribute nothing).
    pub eval: PhaseStats,
    /// Whole-round times (one sample per `RoundFinished`).
    pub round: PhaseStats,
    /// How often each party was its round's slowest trainer:
    /// `(party_id, rounds_slowest)`, most frequent first — the straggler
    /// histogram.
    pub slowest_parties: Vec<(usize, usize)>,
    /// Total party failures (one sample per `PartyFailed`).
    pub party_failures: usize,
    /// Rounds that aggregated a reduced cohort (one per `RoundDegraded`).
    pub degraded_rounds: usize,
    /// Checkpoints written (one per `CheckpointWritten`).
    pub checkpoints: usize,
    /// Worker-pool steal/idle breakdown; populated by
    /// [`TraceSummary::with_pool_activity`] (events alone cannot carry
    /// it), `None` otherwise.
    pub pool: Option<PoolActivity>,
}

impl TraceSummary {
    /// Fold an event stream into the summary, in one pass. A round opens
    /// at each `RoundStarted` — not at each distinct round index, so
    /// trials and cells that restart their counter in one file all count
    /// — and its slowest party is booked when the next one opens.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = TraceSummary::default();
        let (mut party_train, mut aggregate, mut comm) = (Vec::new(), Vec::new(), Vec::new());
        let (mut eval, mut round_times) = (Vec::new(), Vec::new());
        // (party_id, wall_ms) of the open round's slowest party so far.
        let mut slowest: Option<(usize, f64)> = None;
        let mut times_slowest: BTreeMap<usize, usize> = BTreeMap::new();
        let mut close_round = |slowest: &mut Option<(usize, f64)>| {
            if let Some((party, _)) = slowest.take() {
                *times_slowest.entry(party).or_default() += 1;
            }
        };

        for ev in events {
            match *ev {
                TraceEvent::RoundStarted { .. } => {
                    close_round(&mut slowest);
                    s.rounds += 1;
                }
                TraceEvent::PartyTrained {
                    party_id, wall_ms, ..
                } => {
                    party_train.push(wall_ms);
                    // A stream cut mid-round (a truncated file, a slice
                    // of a longer trace) times its leading parties but has no round to
                    // book a straggler against.
                    if s.rounds > 0 && slowest.is_none_or(|(_, ms)| wall_ms > ms) {
                        slowest = Some((party_id, wall_ms));
                    }
                }
                TraceEvent::Aggregated { wall_ms, .. } => aggregate.push(wall_ms),
                TraceEvent::CommMeasured {
                    down_bytes,
                    up_bytes,
                    wall_ms,
                    ..
                } => {
                    comm.push(wall_ms);
                    s.comm_bytes += down_bytes + up_bytes;
                }
                TraceEvent::Evaluated { wall_ms, .. } => eval.push(wall_ms),
                TraceEvent::RoundFinished { wall_ms, .. } => round_times.push(wall_ms),
                TraceEvent::PartyFailed { .. } => s.party_failures += 1,
                TraceEvent::RoundDegraded { .. } => s.degraded_rounds += 1,
                TraceEvent::CheckpointWritten { .. } => s.checkpoints += 1,
            }
        }
        close_round(&mut slowest);

        s.slowest_parties = times_slowest.into_iter().collect();
        // Most frequent first; the stable sort keeps ascending ids in ties.
        s.slowest_parties
            .sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        s.party_train = PhaseStats::from_samples(&party_train);
        s.aggregate = PhaseStats::from_samples(&aggregate);
        s.comm = PhaseStats::from_samples(&comm);
        s.eval = PhaseStats::from_samples(&eval);
        s.round = PhaseStats::from_samples(&round_times);
        s
    }

    /// Attach the live worker-pool steal/idle breakdown (from the span
    /// profiler and substrate counters of *this* process) to the
    /// summary. Meaningful when summarizing the run that just executed;
    /// a summary rebuilt from another process's JSONL should skip this.
    pub fn with_pool_activity(mut self) -> Self {
        self.pool = PoolActivity::capture();
        self
    }

    /// Summarize a JSONL trace file written by [`JsonlSink`].
    pub fn from_jsonl_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let events: Vec<TraceEvent> = read_jsonl_file(path)?
            .iter()
            .map(TraceEvent::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Self::from_events(&events))
    }

    /// Render the breakdown as a plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace summary: {} round(s)\n{:<14} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            self.rounds, "phase", "count", "total ms", "mean ms", "p50 ms", "p99 ms", "max ms"
        ));
        for (name, s) in [
            ("party_train", &self.party_train),
            ("aggregate", &self.aggregate),
            ("comm", &self.comm),
            ("eval", &self.eval),
            ("round", &self.round),
        ] {
            out.push_str(&format!(
                "{name:<14} {:>7} {:>12.2} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
                s.count, s.total_ms, s.mean_ms, s.p50_ms, s.p99_ms, s.max_ms
            ));
        }
        if self.comm_bytes > 0 {
            out.push_str(&format!("wire bytes (measured): {}\n", self.comm_bytes));
        }
        if let Some(pool) = &self.pool {
            out.push_str(&format!(
                "pool: steal/idle ratio {:.1}% ({:.1}ms stolen work, {:.1}ms idle, \
                 {}/{} tasks stolen)\n",
                pool.steal_idle_ratio() * 100.0,
                pool.steal_ns as f64 / 1e6,
                pool.idle_ns as f64 / 1e6,
                pool.stolen_tasks,
                pool.total_tasks
            ));
        }
        if !self.slowest_parties.is_empty() {
            out.push_str("slowest party per round: ");
            let parts: Vec<String> = self
                .slowest_parties
                .iter()
                .map(|(p, c)| format!("#{p} ({c}/{})", self.rounds))
                .collect();
            out.push_str(&parts.join(", "));
            out.push('\n');
        }
        if self.party_failures > 0 || self.degraded_rounds > 0 {
            out.push_str(&format!(
                "faults: {} party failure(s) across {} degraded round(s)\n",
                self.party_failures, self.degraded_rounds
            ));
        }
        if self.checkpoints > 0 {
            out.push_str(&format!("checkpoints written: {}\n", self.checkpoints));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_json::parse_jsonl;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RoundStarted {
                round: 0,
                participants: 2,
            },
            TraceEvent::PartyTrained {
                round: 0,
                party_id: 0,
                tau: 6,
                n_samples: 20,
                avg_loss: 0.7,
                wall_ms: 3.5,
            },
            TraceEvent::PartyTrained {
                round: 0,
                party_id: 1,
                tau: 3,
                n_samples: 10,
                avg_loss: 0.9,
                wall_ms: 5.0,
            },
            TraceEvent::Aggregated {
                round: 0,
                wall_ms: 0.5,
            },
            TraceEvent::CommMeasured {
                round: 0,
                encoding: "dense".into(),
                down_bytes: 800,
                up_bytes: 600,
                wall_ms: 0.1,
            },
            TraceEvent::Evaluated {
                round: 0,
                accuracy: 0.8,
                wall_ms: 1.0,
            },
            TraceEvent::RoundFinished {
                round: 0,
                wall_ms: 7.0,
            },
            TraceEvent::RoundStarted {
                round: 1,
                participants: 2,
            },
            TraceEvent::PartyTrained {
                round: 1,
                party_id: 1,
                tau: 3,
                n_samples: 10,
                avg_loss: 0.6,
                wall_ms: 2.0,
            },
            TraceEvent::PartyTrained {
                round: 1,
                party_id: 0,
                tau: 6,
                n_samples: 20,
                avg_loss: 0.5,
                wall_ms: 1.0,
            },
            TraceEvent::Aggregated {
                round: 1,
                wall_ms: 0.25,
            },
            TraceEvent::RoundFinished {
                round: 1,
                wall_ms: 2.5,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for ev in sample_events() {
            let line = ev.to_json_string();
            let back = TraceEvent::from_json_str(&line).unwrap();
            assert_eq!(ev, back, "via {line}");
        }
    }

    #[test]
    fn fault_events_round_trip_and_fold() {
        let events = vec![
            TraceEvent::PartyFailed {
                round: 1,
                party_id: 3,
                kind: "injected_crash".into(),
                message: "injected crash (fault plan)".into(),
            },
            TraceEvent::PartyFailed {
                round: 1,
                party_id: 5,
                kind: "panic".into(),
                message: "index out of bounds".into(),
            },
            TraceEvent::RoundDegraded {
                round: 1,
                failed: 2,
                survived: 6,
            },
            TraceEvent::CheckpointWritten {
                round: 1,
                path: "/tmp/run/checkpoint.bin".into(),
            },
        ];
        for ev in &events {
            let back = TraceEvent::from_json_str(&ev.to_json_string()).unwrap();
            assert_eq!(*ev, back);
        }
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.party_failures, 2);
        assert_eq!(s.degraded_rounds, 1);
        assert_eq!(s.checkpoints, 1);
        let table = s.render();
        assert!(table.contains("2 party failure(s)"), "{table}");
        assert!(table.contains("checkpoints written: 1"), "{table}");
        // Clean traces render no fault lines.
        let clean = TraceSummary::from_events(&sample_events()).render();
        assert!(!clean.contains("faults:"), "{clean}");
    }

    #[test]
    fn phase_stats_percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = PhaseStats::from_samples(&samples);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        let one = PhaseStats::from_samples(&[7.5]);
        assert_eq!(one.p50_ms, 7.5);
        assert_eq!(one.p99_ms, 7.5);
        assert_eq!(PhaseStats::from_samples(&[]), PhaseStats::default());
        // The render table carries the new columns.
        let table = TraceSummary::from_events(&sample_events()).render();
        assert!(table.contains("p50 ms"), "{table}");
        assert!(table.contains("p99 ms"), "{table}");
    }

    #[test]
    fn pool_activity_ratio_and_render_line() {
        let pool = PoolActivity {
            steal_ns: 3_000_000,
            idle_ns: 1_000_000,
            task_ns: 2_000_000,
            stolen_tasks: 12,
            total_tasks: 20,
        };
        assert!((pool.steal_idle_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(PoolActivity::default().steal_idle_ratio(), 0.0);
        let mut s = TraceSummary::from_events(&sample_events());
        s.pool = Some(pool);
        let table = s.render();
        assert!(table.contains("steal/idle ratio 75.0%"), "{table}");
        assert!(table.contains("12/20 tasks stolen"), "{table}");
    }

    #[test]
    fn unknown_event_tag_is_rejected() {
        assert!(TraceEvent::from_json_str("{\"event\":\"warp\",\"round\":0}").is_err());
        assert!(TraceEvent::from_json_str("{\"round\":0}").is_err());
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        for ev in sample_events() {
            sink.record(&ev);
        }
        assert_eq!(sink.events(), sample_events());
    }

    #[test]
    fn summary_folds_phases_and_stragglers() {
        let s = TraceSummary::from_events(&sample_events());
        assert_eq!(s.rounds, 2);
        assert_eq!(s.party_train.count, 4);
        assert!((s.party_train.total_ms - 11.5).abs() < 1e-9);
        assert!((s.party_train.max_ms - 5.0).abs() < 1e-9);
        assert_eq!(s.aggregate.count, 2);
        assert_eq!(s.eval.count, 1, "round 1 skipped evaluation");
        assert!((s.round.total_ms - 9.5).abs() < 1e-9);
        // Party 1 slowest in round 0, party 1 also slowest in round 1.
        assert_eq!(s.slowest_parties, vec![(1, 2)]);
        let table = s.render();
        assert!(table.contains("party_train"), "{table}");
        assert!(table.contains("#1 (2/2)"), "{table}");
        // A stream that starts mid-round (a slice of a longer trace)
        // keeps the leading party's time but books no straggler for a
        // round it never counted: the histogram still sums to `rounds`.
        let cut = TraceSummary::from_events(&sample_events()[1..]);
        assert_eq!(cut.rounds, 1);
        assert_eq!(cut.party_train.count, 4);
        assert_eq!(cut.slowest_parties, vec![(1, 1)]);
    }

    #[test]
    fn summary_of_empty_trace_is_zeroed() {
        let s = TraceSummary::from_events(&[]);
        assert_eq!(s.rounds, 0);
        assert_eq!(s.party_train, PhaseStats::default());
        assert!(s.slowest_parties.is_empty());
    }

    #[test]
    fn jsonl_sink_round_trips_through_file() {
        let path = std::env::temp_dir().join(format!(
            "niid_trace_test_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let sink = JsonlSink::create(&path).unwrap();
            for ev in sample_events() {
                sink.record(&ev);
            }
            sink.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), sample_events().len());
        let parsed: Vec<TraceEvent> = parse_jsonl(&text)
            .unwrap()
            .iter()
            .map(|v| TraceEvent::from_json(v).unwrap())
            .collect();
        assert_eq!(parsed, sample_events());
        let summary = TraceSummary::from_jsonl_file(&path).unwrap();
        assert_eq!(summary, TraceSummary::from_events(&sample_events()));
        // Append mode extends rather than truncates.
        {
            let sink = JsonlSink::append(&path).unwrap();
            sink.record(&TraceEvent::RoundStarted {
                round: 9,
                participants: 1,
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), sample_events().len() + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exit_flush_reaches_open_trace_and_series_files() {
        let dir = std::env::temp_dir().join(format!("niid_exit_flush_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace_path, series_path) = (dir.join("trace.jsonl"), dir.join("series.jsonl"));
        let sink = JsonlSink::create(&trace_path).unwrap();
        let exporter = niid_metrics::JsonlExporter::create(&series_path).unwrap();
        for ev in sample_events() {
            sink.record(&ev);
        }
        let registry = niid_metrics::Registry::new();
        registry.gauge("niid_round", "", &[]).set(3.0);
        registry
            .counter("niid_comm_bytes_total", "", &[("dir", "up")])
            .add(42);
        exporter.write_snapshot(Some(3), &registry.snapshot());
        // Both files are still open, as when a signal lands mid-run.
        assert!(niid_metrics::flush_all() >= 2);
        let events: Vec<TraceEvent> = read_jsonl_file(&trace_path)
            .unwrap()
            .iter()
            .map(|v| TraceEvent::from_json(v).unwrap())
            .collect();
        assert_eq!(events, sample_events());
        let mut series: Vec<(String, f64, f64)> = read_jsonl_file(&series_path)
            .unwrap()
            .iter()
            .map(|l| {
                let num = |k: &str| l.get(k).and_then(Json::as_f64).unwrap();
                let name = l.get("name").and_then(Json::as_str).unwrap();
                (name.to_string(), num("round"), num("value"))
            })
            .collect();
        series.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            series,
            [
                ("niid_comm_bytes_total".to_string(), 3.0, 42.0),
                ("niid_round".to_string(), 3.0, 3.0)
            ]
        );
        drop((sink, exporter));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sinks_are_object_safe_and_shareable() {
        let mem = MemorySink::new();
        let sinks: [&dyn TraceSink; 2] = [&NoopSink, &mem];
        std::thread::scope(|s| {
            for sink in sinks {
                s.spawn(move || {
                    sink.record(&TraceEvent::RoundStarted {
                        round: 0,
                        participants: 1,
                    });
                });
            }
        });
        assert_eq!(mem.len(), 1);
    }
}
