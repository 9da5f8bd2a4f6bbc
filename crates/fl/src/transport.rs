//! The seam between the round loop and wherever a cohort trains.
//!
//! [`FedSim`](crate::engine::FedSim)'s `drive` hands a round's broadcast
//! and cohort to a [`Transport`] and gets one [`PartyOutcome`] per
//! selected party back; it does not know whether they trained on the
//! in-process pool ([`LocalPool`]) or across sockets
//! ([`Coordinator`](crate::net::Coordinator)). Both run the *same*
//! [`train_party`] — a pool task calls it directly, a party process
//! calls it from [`run_party_client`](crate::net::run_party_client) — so
//! the fault schedule, the derived RNG and codec seeds, panic isolation
//! and error-feedback encoding exist once, and bit-identity between the
//! two paths holds by construction.
//!
//! State ownership: a transport only *reads* the server's per-party
//! SCAFFOLD variates and error-feedback residuals. Each party takes its
//! own by value and returns the refreshed ones inside its outcome; the
//! round loop commits them after the round passes quorum, so a failed
//! party or a lost round leaves server state exactly as it was.

use crate::algorithm::Algorithm;
use crate::compress::SEED_COMPRESS_BASE;
use crate::engine::FlConfig;
use crate::fault::{self, FailureKind, FaultAction, PartyFailure};
use crate::local::{local_train, LocalOutcome, ScaffoldCtx};
use crate::party::PartyProvider;
use crate::trace::{TraceEvent, TraceSink};
use niid_nn::{ModelSpec, Network};
use niid_stats::{derive_seed, Pcg64};
use niid_tensor::{
    active_kernel, configured_threads, parallel_for, with_forced_kernel, with_thread_budget,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// A party that finished local training: what it reports, as it would
/// cross the wire.
#[derive(Debug, Clone)]
pub struct TrainedParty {
    /// Scalars, buffers and SCAFFOLD `Δc`. `delta` and `layer_grad_sq`
    /// are filled for in-process parties only (round observers read
    /// them); the wire carries the update as `payload` instead.
    pub outcome: LocalOutcome,
    /// The [`UpdateCodec`](crate::compress::UpdateCodec)-encoded `Δw`,
    /// error feedback already applied.
    pub payload: Vec<u8>,
    /// Refreshed error-feedback residual (empty for the dense codec).
    pub residual: Vec<f32>,
    /// Refreshed SCAFFOLD variate `cᵢ*` (empty for other algorithms).
    pub client_c: Vec<f32>,
}

/// What a [`Transport`] returns per selected party.
#[derive(Debug, Clone)]
pub enum PartyOutcome {
    /// The party finished local training.
    Trained(TrainedParty),
    /// The party failed; its update is excluded from aggregation and
    /// its server-side state stays untouched.
    Failed(PartyFailure),
}

/// What the server sends every selected party at the top of a round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Broadcast<'a> {
    pub round: usize,
    pub params: &'a [f32],
    pub buffers: &'a [f32],
    /// SCAFFOLD server variate `c` (empty otherwise).
    pub server_c: &'a [f32],
}

/// Trains one round's cohort somewhere and reports back.
pub(crate) trait Transport {
    /// One outcome per entry of `selected`, in that order. `client_c` and
    /// `residuals` are the server's sparse per-party state (absent ⇒
    /// all-zero); implementations hand each party a copy of its own.
    /// A `PartyTrained` event goes to `sink` as each party reports.
    fn train_round(
        &mut self,
        bcast: &Broadcast<'_>,
        selected: &[usize],
        client_c: &BTreeMap<usize, Vec<f32>>,
        residuals: &BTreeMap<usize, Vec<f32>>,
        sink: &dyn TraceSink,
    ) -> Vec<PartyOutcome>;
}

/// Emit the `PartyTrained` event for a party that reported success.
pub(crate) fn record_trained(
    sink: &dyn TraceSink,
    round: usize,
    party_id: usize,
    outcome: &PartyOutcome,
) {
    if let PartyOutcome::Trained(t) = outcome {
        sink.record(&TraceEvent::PartyTrained {
            round,
            party_id,
            tau: t.outcome.tau,
            n_samples: t.outcome.n_samples,
            avg_loss: t.outcome.avg_loss,
            wall_ms: t.outcome.wall_ms,
        });
    }
}

/// What a trainer knows for the whole run: the shared config and where
/// its parties' datasets come from.
pub(crate) struct PartyEnv<'a> {
    pub cfg: &'a FlConfig,
    pub model_spec: &'a ModelSpec,
    pub classes: usize,
    /// Lends each party's dataset for the duration of its training (a
    /// materialized one is dropped as soon as the party has trained).
    pub parties: &'a dyn PartyProvider,
    /// Per-layer gradient-norm probe ranges (round observers only).
    pub grad_spans: Option<&'a [Range<usize>]>,
}

/// One party's work for one round, wherever it runs: the fault plan's
/// action first (delays are real sleeps, crashes real panics), local
/// training under a panic boundary with the RNG derived from
/// `(seed, round, party)`, then the error-feedback encode with the codec
/// seed derived the same way. `model_slot` is the caller's reusable
/// model; a panic tears it down.
///
/// `client_c` and `residual` are the party's own state, by value: the
/// refreshed ones come back in the outcome, and on failure they are
/// simply dropped — the server's copies were never touched.
pub(crate) fn train_party(
    env: &PartyEnv<'_>,
    bcast: &Broadcast<'_>,
    model_slot: &mut Option<Network>,
    party_id: usize,
    mut client_c: Vec<f32>,
    mut residual: Vec<f32>,
) -> PartyOutcome {
    let cfg = env.cfg;
    let round = bcast.round as u64;
    let failed = |kind, message| {
        PartyOutcome::Failed(PartyFailure {
            party_id,
            kind,
            message,
        })
    };
    let action = cfg
        .fault_plan
        .as_ref()
        .map_or(FaultAction::None, |p| p.action(bcast.round, party_id));
    match action {
        // The party "trains" but its upload is lost; skipping the work
        // keeps the cell cheap and the surviving trajectory untouched.
        FaultAction::Drop => {
            return failed(
                FailureKind::InjectedDrop,
                "update dropped by fault plan".into(),
            )
        }
        FaultAction::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
        FaultAction::Crash => fault::install_quiet_panic_hook(),
        FaultAction::None => {}
    }
    let inject_crash = action == FaultAction::Crash;
    let mut rng = Pcg64::new(derive_seed(cfg.seed, (round << 24) ^ (party_id as u64 + 1)));
    // The closure mutates only this party's own variate and the task's
    // model slot. `local_train` commits the variate refresh at its very
    // end and the half-trained model is torn down below, so nothing
    // half-updated survives an unwind — which is what makes the
    // `AssertUnwindSafe` sound.
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if inject_crash {
            std::panic::panic_any(fault::INJECTED_CRASH_MSG);
        }
        let party = env.parties.party(party_id);
        let model = model_slot.get_or_insert_with(|| env.model_spec.build(env.classes, 0));
        let ctx = match cfg.algorithm {
            Algorithm::Scaffold { variant } => Some(ScaffoldCtx {
                server_c: bcast.server_c,
                client_c: &mut client_c,
                variant,
            }),
            _ => None,
        };
        local_train(
            model,
            &party,
            bcast.params,
            bcast.buffers,
            &cfg.local,
            &cfg.algorithm,
            ctx,
            env.grad_spans,
            &mut rng,
        )
    }));
    match caught {
        Ok(outcome) => {
            let seed = derive_seed(
                cfg.seed,
                SEED_COMPRESS_BASE ^ ((round << 24) ^ party_id as u64),
            );
            let payload = cfg.codec.encode_with_feedback(
                active_kernel(),
                &outcome.delta,
                &mut residual,
                seed,
            );
            PartyOutcome::Trained(TrainedParty {
                outcome,
                payload,
                residual,
                client_c,
            })
        }
        Err(panic) => {
            *model_slot = None;
            let kind = if inject_crash {
                FailureKind::InjectedCrash
            } else {
                FailureKind::Panic
            };
            failed(kind, panic_message(panic.as_ref()))
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// The in-process transport: the cohort trains as tasks of the one
/// kernel pool ([`parallel_for`]), the calling thread among them, so no
/// thread is created per round. The region is `min(FlConfig::threads,
/// NIID_THREADS, cohort)` wide, and a party task's own kernels run inline
/// on its thread by the pool's one-level nesting rule.
pub(crate) struct LocalPool<'a> {
    env: PartyEnv<'a>,
    /// Free reusable models, kept across rounds. A task takes one (or
    /// builds one when none is free) and puts it back after its party, so
    /// there are never more than the region is wide; a party that
    /// panicked tears its model down instead.
    pub models: Vec<Network>,
}

impl<'a> LocalPool<'a> {
    pub fn new(env: PartyEnv<'a>) -> Self {
        Self {
            env,
            models: Vec::new(),
        }
    }
}

impl Transport for LocalPool<'_> {
    fn train_round(
        &mut self,
        bcast: &Broadcast<'_>,
        selected: &[usize],
        client_c: &BTreeMap<usize, Vec<f32>>,
        residuals: &BTreeMap<usize, Vec<f32>>,
        sink: &dyn TraceSink,
    ) -> Vec<PartyOutcome> {
        let env = &self.env;
        // `(slot in selected, party id)`, longest-processing-time-first:
        // under quantity skew one party can hold most of the data, so
        // tasks should start the big parties first and backfill with
        // small ones. Party id breaks ties so the queue order is
        // deterministic. `num_samples` never materializes a dataset, so
        // this stays O(m) work even on the on-demand path.
        let mut queue: Vec<(usize, usize)> = selected.iter().copied().enumerate().collect();
        queue.sort_by_key(|&(_, id)| (std::cmp::Reverse(env.parties.num_samples(id)), id));

        let width = match env.cfg.threads {
            0 => configured_threads(),
            t => t.min(configured_threads()),
        }
        .min(queue.len());
        const POISONED: &str = "no task panics while holding the free models";
        let free = Mutex::new(std::mem::take(&mut self.models));
        let done: Vec<OnceLock<PartyOutcome>> = queue.iter().map(|_| OnceLock::new()).collect();
        // The SIMD micro-kernel is resolved once per round on the calling
        // thread and pinned into every task, so a round running under
        // `with_forced_kernel` (determinism tests) uses that kernel for
        // all parties whichever thread trains them.
        let kern = active_kernel();
        let run = |task: usize| {
            let (slot, party_id) = queue[task];
            // A party absent from a sparse map has the implicit all-zero
            // state (an empty Vec means the same downstream).
            let own = |map: &BTreeMap<usize, Vec<f32>>| map.get(&party_id).cloned();
            let mut model = free.lock().expect(POISONED).pop();
            let outcome = with_forced_kernel(kern, || {
                train_party(
                    env,
                    bcast,
                    &mut model,
                    party_id,
                    own(client_c).unwrap_or_default(),
                    own(residuals).unwrap_or_default(),
                )
            });
            free.lock().expect(POISONED).extend(model);
            record_trained(sink, bcast.round, party_id, &outcome);
            let _ = done[slot].set(outcome);
        };
        if width > 1 {
            with_thread_budget(width, || parallel_for(queue.len(), &run));
        } else {
            // One party at a time on the caller, whose kernels keep the
            // caller's full budget.
            (0..queue.len()).for_each(run);
        }
        self.models = free.into_inner().expect(POISONED);
        // Back into `selected` order, whatever the scheduling was.
        done.into_iter()
            .map(|o| o.into_inner().expect("every queued party reported"))
            .collect()
    }
}
