//! Training-dynamics instrumentation: weight divergence, per-layer
//! gradient/update norms, and BatchNorm statistic drift.
//!
//! The paper's central explanation for non-IID degradation is *weight
//! divergence* between local and global models, and its Finding 7 pins
//! SCAFFOLD/FedNova failures on BatchNorm statistic drift. This module
//! makes both observable: [`DynamicsRecorder`] implements
//! [`RoundObserver`], receives a [`RoundObservation`] from
//! [`FedSim::run_observed`](crate::FedSim::run_observed) after every
//! round, and publishes the derived series into a `niid-metrics`
//! [`Registry`] (live `/metrics`) and an optional JSONL exporter.
//!
//! Metric names and label sets (all gauges unless noted):
//!
//! | name | labels | meaning |
//! |---|---|---|
//! | `niid_round` | — | last completed round index |
//! | `niid_train_loss` | — | sample-weighted mean local loss |
//! | `niid_test_accuracy` | — | top-1 test accuracy (when evaluated) |
//! | `niid_comm_bytes_total{dir,encoding}` | direction × codec | counter: measured wire bytes |
//! | `niid_weight_divergence_l2{party}` | party id | `‖wᵢ − w_global‖₂` |
//! | `niid_weight_cosine{party}` | party id | cos(wᵢ, w_global) |
//! | `niid_update_norm_l2{layer}` | leaf layer | weighted `‖Δw‖₂` per layer |
//! | `niid_grad_norm_l2{layer}` | leaf layer | weighted RMS grad norm per layer |
//! | `niid_bn_mean_drift_l2{party}` | party id | `‖μᵢ − μ_global‖₂` over BN layers |
//! | `niid_bn_var_drift_l2{party}` | party id | `‖σ²ᵢ − σ²_global‖₂` over BN layers |
//! | `niid_party_train_wall_ms` | — | histogram: per-party local-training time |
//! | `niid_party_failures_total{kind}` | failure kind | counter: isolated party failures |
//! | `niid_rounds_degraded_total` | — | counter: rounds that aggregated without a full cohort |
//! | `niid_pool_*`, `niid_gemm_*`, `niid_conv_scratch_*` | — | substrate collector |
//! | `niid_conv_lowering_calls{lowering}` | implicit / materialized | conv passes per lowering |
//! | `niid_gemm_dispatch_calls{variant,path}` | GEMM variant × kernel | simd vs scalar dispatch |
//! | `niid_simd_active_kernel{kernel}` | kernel name | process-wide micro-kernel selection |
//!
//! Divergence compares each party's **post-training** local model
//! `wᵢ = w_global_before − Δwᵢ` against the **aggregated** model of the
//! same round, which is the quantity the paper's §5.1 narrative tracks.

use crate::fault::{FailureKind, PartyFailure};
use crate::local::LocalOutcome;
use crate::metrics::RoundRecord;
use niid_json::Json;
use niid_metrics::registry::Registry;
use niid_metrics::{Counter, Gauge, Histogram, JsonlExporter};
use niid_nn::LayerSpan;
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// `‖a − b‖₂` in f64 accumulation.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x as f64) - (y as f64);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// `‖a‖₂` in f64 accumulation.
pub fn l2_norm(a: &[f32]) -> f64 {
    a.iter()
        .map(|&x| {
            let v = x as f64;
            v * v
        })
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity `⟨a,b⟩ / (‖a‖‖b‖)`; NaN when either vector is zero
/// (exporters skip non-finite values).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64) * (y as f64))
        .sum();
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return f64::NAN;
    }
    dot / (na * nb)
}

/// `(‖μ_a − μ_b‖₂, ‖σ²_a − σ²_b‖₂)` across all BN layers of two flat
/// buffer vectors. Each of `spans` is one BN layer's range, laid out
/// `[running_mean(C); running_var(C)]`: its first half is the mean, its
/// second the variance.
pub fn bn_drift(a: &[f32], b: &[f32], spans: &[Range<usize>]) -> (f64, f64) {
    let mut mean_sq = 0.0f64;
    let mut var_sq = 0.0f64;
    for span in spans {
        let mid = span.start + span.len() / 2;
        for i in span.start..mid {
            let d = (a[i] as f64) - (b[i] as f64);
            mean_sq += d * d;
        }
        for i in mid..span.end {
            let d = (a[i] as f64) - (b[i] as f64);
            var_sq += d * d;
        }
    }
    (mean_sq.sqrt(), var_sq.sqrt())
}

/// One party's post-training model `wᵢ = before − delta` against the
/// aggregated model `after`, in one pass over the three vectors:
/// `(‖wᵢ − after‖², ⟨wᵢ, after⟩, ‖wᵢ‖²)`, plus `Σ delta²` over each of
/// `spans` into `layer_sq`. `spans` must tile `0..len` in order, so every
/// accumulator adds its terms in element order — the bits
/// [`l2_distance`], [`cosine_similarity`] and a per-span loop over
/// `delta` produce on a materialized `wᵢ` (`tests/metrics_dynamics.rs`
/// holds the published gauges to that oracle).
fn party_geometry(
    before: &[f32],
    delta: &[f32],
    after: &[f32],
    spans: &[Range<usize>],
    layer_sq: &mut [f64],
) -> (f64, f64, f64) {
    debug_assert_eq!(spans.last().map_or(0, |s| s.end), before.len());
    let (mut dist_sq, mut dot, mut norm_sq) = (0.0f64, 0.0f64, 0.0f64);
    for (sq, span) in layer_sq.iter_mut().zip(spans) {
        let mut delta_sq = 0.0f64;
        let (b, d, a) = (
            &before[span.clone()],
            &delta[span.clone()],
            &after[span.clone()],
        );
        for ((&b, &d), &a) in b.iter().zip(d).zip(a) {
            let (w, a, d) = ((b - d) as f64, a as f64, d as f64);
            dist_sq += (w - a) * (w - a);
            dot += w * a;
            norm_sq += w * w;
            delta_sq += d * d;
        }
        *sq = delta_sq;
    }
    (dist_sq, dot, norm_sq)
}

/// Everything the engine hands the observer at the end of a round.
/// Slices borrow the engine's state — observers must copy what they keep.
pub struct RoundObservation<'a> {
    /// The round's record — index, loss, accuracy, measured bytes, phase
    /// times — exactly as the run result will carry it.
    pub record: &'a RoundRecord,
    /// Ids of the parties that trained this round, in outcome order.
    pub selected: &'a [usize],
    /// The parties' local-training outcomes (same order as `selected`).
    pub outcomes: &'a [LocalOutcome],
    /// Parties that were selected but failed (panic or injected fault);
    /// disjoint from `selected`. Empty on clean rounds.
    pub failures: &'a [PartyFailure],
    /// Global parameters the round *started* from (`wᵗ`).
    pub global_before: &'a [f32],
    /// Global parameters after aggregation (`wᵗ⁺¹`).
    pub global_after: &'a [f32],
    /// Global buffers after aggregation (empty for buffer-free models).
    pub buffers_after: &'a [f32],
    /// Codec family label of the upload wire (`dense`, `topk`, ...).
    pub encoding: &'a str,
}

/// Observer hook of [`FedSim::run_observed`](crate::FedSim::run_observed).
pub trait RoundObserver: Sync {
    /// Per-layer flat-parameter ranges to accumulate gradient norms over
    /// during local training, or `None` to skip the grad probe.
    fn grad_spans(&self) -> Option<&[Range<usize>]> {
        None
    }

    /// Called once per round, after aggregation and evaluation.
    fn observe_round(&self, obs: &RoundObservation<'_>);
}

/// Histogram bounds for per-party local-training wall time (ms).
const TRAIN_MS_BOUNDS: &[f64] = &[
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// Per-party running aggregates for the end-of-run summary.
#[derive(Debug, Default, Clone, PartialEq)]
struct PartyAgg {
    div_sum: f64,
    rounds: usize,
    last_div: f64,
}

/// Families of the [`PartyGauges`], labelled by `party`.
const PARTY_GAUGES: [&str; 4] = [
    "niid_weight_divergence_l2",
    "niid_weight_cosine",
    "niid_bn_mean_drift_l2",
    "niid_bn_var_drift_l2",
];

/// The four per-party gauge handles, cached so hot-path observation
/// never re-walks the registry's family lists.
struct PartyGauges {
    divergence: Arc<Gauge>,
    cosine: Arc<Gauge>,
    bn_mean: Arc<Gauge>,
    bn_var: Arc<Gauge>,
}

struct RecorderState {
    /// The end-of-run fold, updated as each value is published.
    summary: DynamicsSummary,
    party_gauges: HashMap<usize, PartyGauges>,
    /// Lazily-created `{dir, encoding}` byte counters, one (down, up)
    /// pair per codec label seen — created on first observation because
    /// the label value is only known from the round's wire.
    comm_counters: HashMap<String, (Arc<Counter>, Arc<Counter>)>,
    layer_gauges: Vec<(Arc<Gauge>, Arc<Gauge>)>,
    substrate_at_start: niid_tensor::SubstrateStats,
}

/// Records training dynamics into a metrics [`Registry`] (and optionally
/// a JSONL series file). One recorder instruments one model family; it
/// may observe several sequential runs (trials), whose rounds then share
/// the same series (round indices restart per trial, like the trace
/// convention).
pub struct DynamicsRecorder {
    registry: Arc<Registry>,
    grad_spans: Vec<Range<usize>>,
    /// BN buffer spans derived from the layout (empty for BN-free models
    /// — BN drift is then skipped).
    bn_spans: Vec<Range<usize>>,
    jsonl: Option<Arc<JsonlExporter>>,
    round_gauge: Arc<Gauge>,
    loss_gauge: Arc<Gauge>,
    acc_gauge: Arc<Gauge>,
    train_ms_hist: Arc<Histogram>,
    failure_counters: Vec<(FailureKind, Arc<Counter>)>,
    degraded_counter: Arc<Counter>,
    /// `(party failures, degraded rounds)` the registry's counters already
    /// held at construction: on a shared registry earlier recorders'
    /// faults are not this recorder's.
    faults_at_start: (u64, u64),
    state: Mutex<RecorderState>,
}

impl DynamicsRecorder {
    /// Build a recorder for a model with the given
    /// [`state_layout`](niid_nn::Network::state_layout), publishing into
    /// `registry` and, when given, appending per-round snapshots to
    /// `jsonl`. Also installs the substrate collector that mirrors
    /// `niid_tensor::stats` counters into the registry.
    pub fn new(
        registry: Arc<Registry>,
        layout: &[LayerSpan],
        jsonl: Option<Arc<JsonlExporter>>,
    ) -> Self {
        let mut grad_spans = Vec::new();
        let mut bn_spans = Vec::new();
        let mut p_off = 0usize;
        let mut b_off = 0usize;
        for span in layout {
            if span.params > 0 {
                grad_spans.push(p_off..p_off + span.params);
            }
            if span.buffers > 0 {
                bn_spans.push(b_off..b_off + span.buffers);
            }
            p_off += span.params;
            b_off += span.buffers;
        }
        install_substrate_collector(&registry);
        install_prof_collector(&registry);
        let round_gauge = registry.gauge("niid_round", "Last completed round index", &[]);
        let loss_gauge = registry.gauge(
            "niid_train_loss",
            "Sample-weighted mean local training loss",
            &[],
        );
        let acc_gauge = registry.gauge("niid_test_accuracy", "Top-1 test accuracy", &[]);
        let train_ms_hist = registry.histogram(
            "niid_party_train_wall_ms",
            "Per-party local-training wall time (ms)",
            TRAIN_MS_BOUNDS,
            &[],
        );
        // Pre-created per kind so clean runs still export explicit zeros.
        let failure_counters = FailureKind::all()
            .into_iter()
            .map(|kind| {
                (
                    kind,
                    registry.counter(
                        "niid_party_failures_total",
                        "Isolated party failures by kind (panic, injected crash, injected drop)",
                        &[("kind", kind.name())],
                    ),
                )
            })
            .collect::<Vec<_>>();
        let degraded_counter = registry.counter(
            "niid_rounds_degraded_total",
            "Rounds that aggregated a partial cohort after failures",
            &[],
        );
        let faults_at_start = fault_totals(&failure_counters, &degraded_counter);
        let layer_gauges = layout
            .iter()
            .filter(|span| span.params > 0)
            .map(|span| {
                (
                    registry.gauge(
                        "niid_update_norm_l2",
                        "Sample-weighted L2 norm of the aggregated-weighting local updates, per leaf layer",
                        &[("layer", &span.name)],
                    ),
                    registry.gauge(
                        "niid_grad_norm_l2",
                        "Sample-weighted RMS per-step data-gradient L2 norm, per leaf layer",
                        &[("layer", &span.name)],
                    ),
                )
            })
            .collect();
        DynamicsRecorder {
            registry,
            grad_spans,
            bn_spans,
            jsonl,
            round_gauge,
            loss_gauge,
            acc_gauge,
            train_ms_hist,
            failure_counters,
            degraded_counter,
            faults_at_start,
            state: Mutex::new(RecorderState {
                summary: DynamicsSummary::default(),
                party_gauges: HashMap::new(),
                comm_counters: HashMap::new(),
                layer_gauges,
                substrate_at_start: niid_tensor::stats::snapshot(),
            }),
        }
    }

    /// The registry this recorder publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Flush the JSONL exporter, if any.
    pub fn flush(&self) {
        if let Some(j) = &self.jsonl {
            j.sync();
        }
    }

    /// The end-of-run summary of everything observed so far. Fault totals
    /// are read from the registry counters (they count once, there) as
    /// the increase since this recorder was built — the same window as
    /// `rounds` and the substrate lines, also on a shared registry.
    pub fn summary(&self) -> DynamicsSummary {
        let state = self.state.lock().expect("recorder state poisoned");
        let substrate = niid_tensor::stats::snapshot().since(&state.substrate_at_start);
        let (failures, degraded) = fault_totals(&self.failure_counters, &self.degraded_counter);
        DynamicsSummary {
            party_failures: (failures - self.faults_at_start.0) as usize,
            degraded_rounds: (degraded - self.faults_at_start.1) as usize,
            simd_kernel: niid_tensor::configured_kernel().name().to_string(),
            ..state.summary.clone()
        }
        .finish(&substrate)
    }
}

/// `(party failures of every kind, degraded rounds)` as the registry's
/// counters hold them now.
fn fault_totals(failures: &[(FailureKind, Arc<Counter>)], degraded: &Counter) -> (u64, u64) {
    (failures.iter().map(|(_, c)| c.get()).sum(), degraded.get())
}

impl RoundObserver for DynamicsRecorder {
    fn grad_spans(&self) -> Option<&[Range<usize>]> {
        Some(&self.grad_spans)
    }

    fn observe_round(&self, obs: &RoundObservation<'_>) {
        let mut guard = self.state.lock().expect("recorder state poisoned");
        let state = &mut *guard;
        let record = obs.record;
        state.summary.rounds += 1;
        if !obs.failures.is_empty() {
            self.degraded_counter.add(1);
            for failure in obs.failures {
                if let Some((_, c)) = self
                    .failure_counters
                    .iter()
                    .find(|(k, _)| *k == failure.kind)
                {
                    c.add(1);
                }
            }
        }
        self.round_gauge.set(record.round as f64);
        self.loss_gauge.set(record.avg_local_loss);
        state.summary.last_train_loss = Some(record.avg_local_loss);
        if let Some(acc) = record.test_accuracy {
            self.acc_gauge.set(acc);
            state.summary.final_test_accuracy = Some(acc);
        }
        if !state.comm_counters.contains_key(obs.encoding) {
            let make = |dir: &str| {
                self.registry.counter(
                    "niid_comm_bytes_total",
                    "Measured wire bytes from encoded payloads, by direction and codec",
                    &[("dir", dir), ("encoding", obs.encoding)],
                )
            };
            state
                .comm_counters
                .insert(obs.encoding.to_string(), (make("down"), make("up")));
        }
        let (down_c, up_c) = &state.comm_counters[obs.encoding];
        down_c.add(record.down_bytes as u64);
        up_c.add(record.up_bytes as u64);

        let total_n: f64 = obs.outcomes.iter().map(|o| o.n_samples as f64).sum();
        let after_norm = l2_norm(obs.global_after);
        let mut delta_sq = vec![0.0f64; self.grad_spans.len()];
        let mut layer_update_sq = vec![0.0f64; self.grad_spans.len()];
        let mut layer_grad = vec![0.0f64; self.grad_spans.len()];

        for (&party_id, out) in obs.selected.iter().zip(obs.outcomes) {
            self.train_ms_hist.observe(out.wall_ms);
            // wᵢ = wᵗ − Δwᵢ (local_train returns Δw = global − local).
            let (dist_sq, dot, norm_sq) = party_geometry(
                obs.global_before,
                &out.delta,
                obs.global_after,
                &self.grad_spans,
                &mut delta_sq,
            );
            let div = dist_sq.sqrt();
            let local_norm = norm_sq.sqrt();
            let cos = if local_norm == 0.0 || after_norm == 0.0 {
                f64::NAN // exporters skip non-finite values
            } else {
                dot / (local_norm * after_norm)
            };
            let weight = out.n_samples as f64 / total_n.max(1.0);
            state.summary.observe_divergence(party_id, div);

            let gauges = state.party_gauges.entry(party_id).or_insert_with(|| {
                let party = party_id.to_string();
                let labels: &[(&str, &str)] = &[("party", &party)];
                PartyGauges {
                    divergence: self.registry.gauge(
                        "niid_weight_divergence_l2",
                        "L2 distance between the party's post-training model and the aggregated global model",
                        labels,
                    ),
                    cosine: self.registry.gauge(
                        "niid_weight_cosine",
                        "Cosine similarity between the party's post-training model and the aggregated global model",
                        labels,
                    ),
                    bn_mean: self.registry.gauge(
                        "niid_bn_mean_drift_l2",
                        "L2 distance between party and aggregated BatchNorm running means",
                        labels,
                    ),
                    bn_var: self.registry.gauge(
                        "niid_bn_var_drift_l2",
                        "L2 distance between party and aggregated BatchNorm running variances",
                        labels,
                    ),
                }
            });
            gauges.divergence.set(div);
            gauges.cosine.set(cos);

            if !self.bn_spans.is_empty()
                && !out.buffers.is_empty()
                && out.buffers.len() == obs.buffers_after.len()
            {
                let (mean_d, var_d) = bn_drift(&out.buffers, obs.buffers_after, &self.bn_spans);
                gauges.bn_mean.set(mean_d);
                gauges.bn_var.set(var_d);
                let s = &mut state.summary;
                s.bn_mean_drift_max = s.bn_mean_drift_max.max(mean_d);
                s.bn_var_drift_max = s.bn_var_drift_max.max(var_d);
            }

            // Per-layer aggregates, weighted like the server's average.
            for (l, &s) in delta_sq.iter().enumerate() {
                layer_update_sq[l] += weight * s;
                if let Some(&gsq) = out.layer_grad_sq.get(l) {
                    layer_grad[l] += weight * (gsq / out.tau.max(1) as f64).sqrt();
                }
            }
        }

        for (l, (update_g, grad_g)) in state.layer_gauges.iter().enumerate() {
            update_g.set(layer_update_sq[l].sqrt());
            grad_g.set(layer_grad[l]);
        }
        drop(guard);

        if let Some(jsonl) = &self.jsonl {
            // A per-party gauge keeps the value of the last round its
            // party trained in; the series carries only this round's
            // parties (the live registry still serves every one).
            let mut families = self.registry.gather();
            for family in &mut families {
                if PARTY_GAUGES.contains(&family.name.as_str()) {
                    family.samples.retain(|sample| {
                        sample.labels.iter().any(|(k, v)| {
                            k == "party" && v.parse().is_ok_and(|id| obs.selected.contains(&id))
                        })
                    });
                }
            }
            jsonl.write_snapshot(Some(record.round as u64), &families);
        }
    }
}

/// Mirror `niid_tensor::stats` counters into registry gauges; registered
/// once per registry (the collector key deduplicates).
pub fn install_substrate_collector(registry: &Arc<Registry>) {
    registry.register_collector("niid_tensor_substrate", |r| {
        let s = niid_tensor::stats::snapshot();
        r.gauge(
            "niid_pool_tasks",
            "Total worker-pool tasks issued (cumulative)",
            &[],
        )
        .set(s.pool_tasks as f64);
        r.gauge(
            "niid_pool_stolen_tasks",
            "Tasks executed by pool workers rather than the issuing thread (cumulative)",
            &[],
        )
        .set(s.pool_stolen_tasks as f64);
        r.gauge(
            "niid_pool_regions",
            "Fork-join regions dispatched through the pool (cumulative)",
            &[],
        )
        .set(s.pool_regions as f64);
        r.gauge(
            "niid_pool_inline_regions",
            "Fork-join regions that ran inline (cumulative)",
            &[],
        )
        .set(s.pool_inline_regions as f64);
        r.gauge(
            "niid_pool_utilization",
            "Fraction of issued tasks executed by pool workers",
            &[],
        )
        .set(s.pool_utilization());
        r.gauge("niid_gemm_flops", "Cumulative GEMM FLOPs", &[])
            .set(s.gemm_flops as f64);
        for (kernel, calls) in [
            ("ab", s.gemm_ab_calls),
            ("atb", s.gemm_atb_calls),
            ("abt", s.gemm_abt_calls),
        ] {
            r.gauge(
                "niid_gemm_calls",
                "GEMM kernel invocations by kernel path (cumulative)",
                &[("kernel", kernel)],
            )
            .set(calls as f64);
        }
        for (variant, simd, scalar) in [
            ("ab", s.gemm_ab_simd_calls, s.gemm_ab_scalar_calls),
            ("atb", s.gemm_atb_simd_calls, s.gemm_atb_scalar_calls),
            ("abt", s.gemm_abt_simd_calls, s.gemm_abt_scalar_calls),
        ] {
            for (path, calls) in [("simd", simd), ("scalar", scalar)] {
                r.gauge(
                    "niid_gemm_dispatch_calls",
                    "GEMM invocations by variant and dispatched micro-kernel (cumulative)",
                    &[("variant", variant), ("path", path)],
                )
                .set(calls as f64);
            }
        }
        r.gauge(
            "niid_simd_active_kernel",
            "Process-wide SIMD micro-kernel selection (value is always 1; the kernel label carries the information)",
            &[("kernel", niid_tensor::configured_kernel().name())],
        )
        .set(1.0);
        r.gauge(
            "niid_conv_scratch_allocs",
            "Conv scratch buffers grown (fresh allocations, cumulative)",
            &[],
        )
        .set(s.conv_scratch_allocs as f64);
        r.gauge(
            "niid_conv_scratch_reuses",
            "Conv scratch requests served without reallocating (cumulative)",
            &[],
        )
        .set(s.conv_scratch_reuses as f64);
        r.gauge(
            "niid_conv_scratch_bytes",
            "Bytes currently resident across live conv scratch workspaces",
            &[],
        )
        .set(s.conv_scratch_bytes as f64);
        r.gauge(
            "niid_conv_scratch_peak_bytes",
            "High-water mark of live conv scratch bytes over the process lifetime",
            &[],
        )
        .set(s.conv_scratch_peak_bytes as f64);
        for (lowering, calls) in [
            ("implicit", s.conv_implicit_calls),
            ("materialized", s.conv_materialized_calls),
            ("direct", s.conv_direct_calls),
        ] {
            r.gauge(
                "niid_conv_lowering_calls",
                "Convolution passes per lowering (direct reads the NCHW planes \
                 in place; implicit fuses im2col into the GEMM pack; \
                 materialized is the scalar arm / oracle)",
                &[("lowering", lowering)],
            )
            .set(calls as f64);
        }
    });
}

/// Mirror the span profiler's exact per-label totals into registry
/// gauges (`niid_prof_self_ns_total{span=…}` and friends); registered
/// once per registry. The gauges only appear once at least one span has
/// been recorded, so unprofiled runs pay nothing and emit nothing.
pub fn install_prof_collector(registry: &Arc<Registry>) {
    registry.register_collector("niid_prof", |r| {
        // The exact counters only: `flame()` would also drain every
        // ring for percentiles this collector never reads.
        for row in niid_prof::totals() {
            r.gauge(
                "niid_prof_self_ns_total",
                "Cumulative span self time (duration minus child spans), ns",
                &[("span", row.label)],
            )
            .set(row.self_ns as f64);
            r.gauge(
                "niid_prof_total_ns_total",
                "Cumulative span wall time including child spans, ns",
                &[("span", row.label)],
            )
            .set(row.total_ns as f64);
            r.gauge(
                "niid_prof_calls_total",
                "Completed span count",
                &[("span", row.label)],
            )
            .set(row.calls as f64);
        }
    });
}

/// One-screen end-of-run dynamics summary — the metrics analogue of
/// [`TraceSummary`](crate::TraceSummary). It is also the accumulator:
/// the live recorder updates one as it sets the gauges, and
/// [`from_jsonl_file`](Self::from_jsonl_file) updates one the same way as
/// it reads the gauges back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsSummary {
    /// Rounds observed: one per snapshot, so trials and cells that
    /// restart their round index in a shared series all count.
    pub rounds: usize,
    /// Isolated party failures across the run (all kinds).
    pub party_failures: usize,
    /// Rounds that aggregated a partial cohort.
    pub degraded_rounds: usize,
    /// Top parties by mean weight divergence:
    /// `(party, mean_divergence, last_divergence)`, worst first.
    pub top_divergent: Vec<(String, f64, f64)>,
    /// Maximum observed BN running-mean drift.
    pub bn_mean_drift_max: f64,
    /// Maximum observed BN running-variance drift.
    pub bn_var_drift_max: f64,
    /// Last recorded training loss.
    pub last_train_loss: Option<f64>,
    /// Last recorded test accuracy.
    pub final_test_accuracy: Option<f64>,
    /// Worker-pool stolen-task fraction over the observed window.
    pub pool_utilization: f64,
    /// GEMM work over the observed window, in GFLOPs (not per second).
    pub gemm_gflops: f64,
    /// Conv scratch reuse fraction over the observed window.
    pub scratch_reuse_rate: f64,
    /// SIMD micro-kernel the run dispatched to (`"avx2"`, `"scalar"`);
    /// empty when the run predates the dispatch gauges.
    pub simd_kernel: String,
    /// Fraction of GEMM calls that took a SIMD micro-kernel.
    pub simd_dispatch_rate: f64,
    /// High-water mark of live conv scratch bytes over the run.
    pub scratch_peak_bytes: u64,
    /// Per-party divergence aggregates behind `top_divergent`.
    parties: HashMap<usize, PartyAgg>,
}

/// The string value of label `key` on one metrics JSONL line.
fn label<'a>(line: &'a Json, key: &str) -> Option<&'a str> {
    line.get("labels")?.get(key)?.as_str()
}

impl DynamicsSummary {
    /// One `niid_weight_divergence_l2{party}` value.
    fn observe_divergence(&mut self, party: usize, div: f64) {
        let agg = self.parties.entry(party).or_default();
        agg.div_sum += div;
        agg.rounds += 1;
        agg.last_div = div;
    }

    /// Fill the derived fields: `top_divergent` from the per-party
    /// aggregates, the substrate lines from the window's counters.
    fn finish(mut self, substrate: &niid_tensor::SubstrateStats) -> Self {
        self.pool_utilization = substrate.pool_utilization();
        self.gemm_gflops = substrate.gemm_flops as f64 / 1e9;
        self.scratch_reuse_rate = substrate.scratch_reuse_rate();
        self.simd_dispatch_rate = substrate.simd_dispatch_rate();
        self.scratch_peak_bytes = substrate.conv_scratch_peak_bytes;
        let mut top: Vec<(String, f64, f64)> = self
            .parties
            .iter()
            .map(|(p, agg)| {
                (
                    p.to_string(),
                    agg.div_sum / agg.rounds.max(1) as f64,
                    agg.last_div,
                )
            })
            .collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(5);
        self.top_divergent = top;
        self
    }

    /// Rebuild a summary from a metrics JSONL file written by
    /// [`JsonlExporter`] — what the experiment bins print after a run.
    /// The substrate gauges and fault counters are cumulative, so those
    /// lines keep the last value seen.
    pub fn from_jsonl_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let lines = niid_json::read_jsonl_file(path)?;
        let mut out = DynamicsSummary::default();
        let mut substrate = niid_tensor::SubstrateStats::default();
        let mut failures: HashMap<String, f64> = HashMap::new();
        for line in &lines {
            let name = line.get("name").and_then(Json::as_str);
            let value = line.get("value").and_then(Json::as_f64);
            let (Some(name), Some(value)) = (name, value) else {
                continue;
            };
            match name {
                // Set every round, always finite: one per snapshot.
                "niid_round" => out.rounds += 1,
                "niid_weight_divergence_l2" => {
                    if let Some(p) = label(line, "party").and_then(|p| p.parse().ok()) {
                        out.observe_divergence(p, value);
                    }
                }
                "niid_bn_mean_drift_l2" => out.bn_mean_drift_max = out.bn_mean_drift_max.max(value),
                "niid_bn_var_drift_l2" => out.bn_var_drift_max = out.bn_var_drift_max.max(value),
                "niid_train_loss" => out.last_train_loss = Some(value),
                "niid_test_accuracy" => out.final_test_accuracy = Some(value),
                "niid_party_failures_total" => {
                    if let Some(k) = label(line, "kind") {
                        failures.insert(k.to_string(), value);
                    }
                }
                "niid_rounds_degraded_total" => out.degraded_rounds = value as usize,
                "niid_pool_tasks" => substrate.pool_tasks = value as u64,
                "niid_pool_stolen_tasks" => substrate.pool_stolen_tasks = value as u64,
                "niid_gemm_flops" => substrate.gemm_flops = value as u64,
                "niid_conv_scratch_allocs" => substrate.conv_scratch_allocs = value as u64,
                "niid_conv_scratch_reuses" => substrate.conv_scratch_reuses = value as u64,
                "niid_conv_scratch_peak_bytes" => substrate.conv_scratch_peak_bytes = value as u64,
                "niid_gemm_dispatch_calls" => {
                    let calls = match (label(line, "variant"), label(line, "path")) {
                        (Some("ab"), Some("simd")) => &mut substrate.gemm_ab_simd_calls,
                        (Some("ab"), Some("scalar")) => &mut substrate.gemm_ab_scalar_calls,
                        (Some("atb"), Some("simd")) => &mut substrate.gemm_atb_simd_calls,
                        (Some("atb"), Some("scalar")) => &mut substrate.gemm_atb_scalar_calls,
                        (Some("abt"), Some("simd")) => &mut substrate.gemm_abt_simd_calls,
                        (Some("abt"), Some("scalar")) => &mut substrate.gemm_abt_scalar_calls,
                        _ => continue,
                    };
                    *calls = value as u64;
                }
                "niid_simd_active_kernel" => {
                    if let Some(k) = label(line, "kernel") {
                        out.simd_kernel = k.to_string();
                    }
                }
                _ => {}
            }
        }
        out.party_failures = failures.values().sum::<f64>() as usize;
        Ok(out.finish(&substrate))
    }

    /// Render the one-screen summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("metrics summary: {} round(s)\n", self.rounds));
        if let Some(loss) = self.last_train_loss {
            out.push_str(&format!("  last train loss      {loss:.4}\n"));
        }
        if let Some(acc) = self.final_test_accuracy {
            out.push_str(&format!("  final test accuracy  {acc:.4}\n"));
        }
        if !self.top_divergent.is_empty() {
            out.push_str("  top diverging parties (mean ‖w_i − w_global‖₂, last):\n");
            for (p, mean, last) in &self.top_divergent {
                out.push_str(&format!("    party {p:<4} {mean:>10.4} {last:>10.4}\n"));
            }
        }
        if self.bn_mean_drift_max > 0.0 || self.bn_var_drift_max > 0.0 {
            out.push_str(&format!(
                "  BN drift (max): mean {:.4}, var {:.4}\n",
                self.bn_mean_drift_max, self.bn_var_drift_max
            ));
        }
        if self.party_failures > 0 {
            out.push_str(&format!(
                "  faults: {} party failure(s) across {} degraded round(s)\n",
                self.party_failures, self.degraded_rounds
            ));
        }
        out.push_str(&format!(
            "  substrate: pool utilization {:.1}%, {:.2} GFLOPs GEMM, scratch reuse {:.1}%\n",
            self.pool_utilization * 100.0,
            self.gemm_gflops,
            self.scratch_reuse_rate * 100.0
        ));
        if self.scratch_peak_bytes > 0 {
            out.push_str(&format!(
                "  conv scratch peak: {:.1} KiB resident\n",
                self.scratch_peak_bytes as f64 / 1024.0
            ));
        }
        if !self.simd_kernel.is_empty() {
            out.push_str(&format!(
                "  simd: kernel {}, {:.1}% of GEMM calls dispatched to simd\n",
                self.simd_kernel,
                self.simd_dispatch_rate * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_distance_hand_computed() {
        // ‖(1,2,3) − (0,0,3)‖ = √(1 + 4) = √5.
        let a = [1.0f32, 2.0, 3.0];
        let b = [0.0f32, 0.0, 3.0];
        assert!((l2_distance(&a, &b) - 5.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(l2_distance(&a, &a), 0.0);
    }

    #[test]
    fn l2_norm_hand_computed() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn cosine_hand_computed() {
        // (1,0)·(0,1) = 0; (1,1)·(2,2) = 1; (1,0)·(-1,0) = -1.
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        // 45°: (1,0)·(1,1)/√2 = 1/√2.
        let c = cosine_similarity(&[1.0, 0.0], &[1.0, 1.0]);
        assert!((c - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]).is_nan());
    }

    #[test]
    fn bn_drift_splits_mean_and_var_halves() {
        // One BN layer with 2 channels: buffers = [m0, m1, v0, v1].
        let spans = [Range { start: 0, end: 4 }];
        let a = [1.0f32, 2.0, 10.0, 20.0];
        let b = [1.0f32, 0.0, 10.0, 17.0];
        let (mean_d, var_d) = bn_drift(&a, &b, &spans);
        assert!((mean_d - 2.0).abs() < 1e-12, "mean half: |2-0| = 2");
        assert!((var_d - 3.0).abs() < 1e-12, "var half: |20-17| = 3");
        // Two layers accumulate into one distance.
        let spans2 = [0..2, 2..4];
        let (m2, v2) = bn_drift(&a, &b, &spans2);
        // bn1: mean |1-1|, var |2-0| → mean 0, var 2; bn2: mean 0, var 3.
        assert!((m2 - 0.0).abs() < 1e-12);
        assert!((v2 - (4.0f64 + 9.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn recorder_layout_derivation() {
        let layout = vec![
            LayerSpan {
                name: "0.conv".into(),
                params: 10,
                buffers: 0,
            },
            LayerSpan {
                name: "1.bn".into(),
                params: 4,
                buffers: 4,
            },
            LayerSpan {
                name: "3.linear".into(),
                params: 20,
                buffers: 0,
            },
        ];
        let rec = DynamicsRecorder::new(Arc::new(Registry::new()), &layout, None);
        assert_eq!(
            rec.grad_spans().unwrap(),
            &[0..10, 10..14, 14..34],
            "param spans are prefix sums over the layout"
        );
        assert_eq!(rec.bn_spans, vec![Range { start: 0, end: 4 }]);
    }

    #[test]
    fn summary_render_is_one_screen() {
        let s = DynamicsSummary {
            rounds: 3,
            party_failures: 2,
            degraded_rounds: 1,
            top_divergent: vec![("7".into(), 1.25, 1.5), ("2".into(), 0.5, 0.25)],
            bn_mean_drift_max: 0.75,
            bn_var_drift_max: 1.5,
            last_train_loss: Some(0.42),
            final_test_accuracy: Some(0.9),
            pool_utilization: 0.5,
            gemm_gflops: 2.0,
            scratch_reuse_rate: 0.9,
            simd_kernel: "avx2".into(),
            simd_dispatch_rate: 0.995,
            scratch_peak_bytes: 8192,
            ..Default::default()
        };
        let text = s.render();
        assert!(text.contains("3 round(s)"), "{text}");
        assert!(text.contains("party 7"), "{text}");
        assert!(text.contains("BN drift"), "{text}");
        assert!(
            text.contains("2 party failure(s) across 1 degraded round(s)"),
            "{text}"
        );
        assert!(text.contains("pool utilization 50.0%"), "{text}");
        assert!(text.contains("kernel avx2"), "{text}");
        assert!(text.contains("99.5% of GEMM calls"), "{text}");
        assert!(text.contains("conv scratch peak: 8.0 KiB"), "{text}");
        assert!(text.lines().count() < 15, "must fit one screen:\n{text}");
    }
}
