//! The per-layer ledger: a traced run rolled up by span prefix, the
//! untraced run's phase fields, and direct probes of single layers
//! through their public functions. Nothing here changes the crates; the
//! spans are the ones the program already records.

use crate::measure::{checkpoint_stall_s, highest_tail, median, round_gaps_ms};
use crate::report::{Metrics, PER_LAYER};
use crate::run::{
    pooled_round_ms_p50, run_pass, run_passes, teardown, time_to_target, Pass, SetupSample, Verdict,
};
use crate::workloads::{setup, Cell, SetupTimes, Workload};
use crate::Options;
use niid_core::partition::LazyPartition;
use niid_fl::aggregate::{weighted_average_updates, UpdateRef};
use niid_fl::local::{local_train, LocalOutcome};
use niid_fl::net::{
    read_frame, write_frame, BroadcastMsg, MsgKind, UpdateBody, UpdateMsg, DEFAULT_MAX_FRAME,
};
use niid_fl::trace::TraceEvent;
use niid_fl::{residency, Algorithm, Checkpoint, PartyProvider, UpdateCodec};
use niid_nn::{Phase, Sgd, SoftmaxCrossEntropy};
use niid_stats::Pcg64;
use niid_tensor::SubstrateStats;
use std::collections::HashMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// `(calls, total_ns, self_ns)` per span label, cumulative.
type Flame = HashMap<String, (u64, u64, u64)>;

fn flame_now() -> Flame {
    niid_prof::flame()
        .into_iter()
        .map(|r| (r.label, (r.calls, r.total_ns, r.self_ns)))
        .collect()
}

fn rings_now() -> (u64, u64) {
    niid_prof::ring_stats()
        .iter()
        .fold((0, 0), |(r, d), s| (r + s.recorded, d + s.dropped))
}

/// What the traced passes left behind, as differences over the traced
/// interval (the profiler's and the tensor layer's counters are
/// cumulative for the process).
pub struct Traced {
    passes: Vec<Pass>,
    flame: Flame,
    stats: SubstrateStats,
    spans_recorded: u64,
    spans_dropped: u64,
}

impl Traced {
    fn rounds(&self) -> f64 {
        self.passes.iter().map(Pass::rounds).sum::<usize>() as f64
    }

    fn sum(&self, prefix: &str, pick: fn(&(u64, u64, u64)) -> u64) -> f64 {
        self.flame
            .iter()
            .filter(|(label, _)| label.starts_with(prefix))
            .fold(0.0, |sum, (_, v)| sum + pick(v) as f64)
    }

    fn self_ns(&self, prefix: &str) -> f64 {
        self.sum(prefix, |v| v.2)
    }

    fn total_ns(&self, prefix: &str) -> f64 {
        self.sum(prefix, |v| v.1)
    }

    fn calls(&self, prefix: &str) -> f64 {
        self.sum(prefix, |v| v.0)
    }

    /// Span self time that is waiting, not work: pool workers parked in
    /// `pool.idle`, and the driving thread inside `fl.train` while the
    /// training threads (or the party hosts) do the round's work.
    fn waiting_ns(&self) -> f64 {
        self.self_ns("pool.idle") + self.self_ns("fl.train")
    }

    /// Span self time of every thread that is work.
    fn busy_ns(&self) -> f64 {
        self.self_ns("") - self.waiting_ns()
    }

    /// The traced round rolled up two ways. First the driving thread:
    /// the direct children of `fl.round` plus its own self time (the
    /// residual) add up to the round. Then every thread: the span self
    /// time that is work, by layer.
    fn span_table(&self, round_ms_p50: f64) -> Vec<String> {
        let rounds = self.rounds();
        let ms = |ns: f64| ns / 1e6 / rounds;
        let round = ms(self.total_ns("fl.round"));
        let mut lines = vec![format!(
            "traced round: fl.round {round:.4} ms/round (p50 of round gaps {round_ms_p50:.4} ms)"
        )];
        let drive = [
            ("engine fl.sample", self.total_ns("fl.sample")),
            ("engine fl.train (local phase)", self.total_ns("fl.train")),
            ("compress comm.* (all threads)", self.total_ns("comm.")),
            ("engine fl.aggregate", self.total_ns("fl.aggregate")),
            ("engine fl.eval", self.total_ns("fl.eval")),
            ("engine fl.checkpoint", self.total_ns("fl.checkpoint")),
            (
                "engine.other (fl.round self, residual)",
                self.self_ns("fl.round"),
            ),
        ];
        for (name, ns) in drive {
            lines.push(format!(
                "  {name:<40} {:>12.4} ms/round {:>6.1}%",
                ms(ns),
                100.0 * ms(ns) / round
            ));
        }
        let busy = self.busy_ns();
        lines.push(format!(
            "span self time, all threads: {:.4} ms/round working, {:.4} ms/round waiting (pool.idle + fl.train self)",
            ms(busy),
            ms(self.waiting_ns())
        ));
        let layers = [
            ("tensor gemm.*", self.self_ns("gemm.")),
            ("tensor conv.*", self.self_ns("conv.")),
            (
                "tensor pool.task + pool.steal",
                self.self_ns("pool.task") + self.self_ns("pool.steal"),
            ),
            (
                "local local.step + fl.local_train",
                self.self_ns("local.") + self.self_ns("fl.local_train"),
            ),
            ("compress comm.*", self.self_ns("comm.")),
            (
                "aggregate fl.aggregate + agg.*",
                self.self_ns("fl.aggregate") + self.self_ns("agg."),
            ),
            ("engine fl.eval", self.self_ns("fl.eval")),
            ("engine fl.checkpoint", self.self_ns("fl.checkpoint")),
            (
                "engine fl.round + fl.sample",
                self.self_ns("fl.round") + self.self_ns("fl.sample"),
            ),
        ];
        for (name, ns) in layers {
            lines.push(format!(
                "  {name:<40} {:>12.4} ms/round {:>6.1}%",
                ms(ns),
                100.0 * ns / busy.max(1.0)
            ));
        }
        lines
    }
}

/// Run passes for `seconds` with span recording on and every trace event
/// kept in memory; afterwards write the spans still in the rings as
/// Chrome trace-event JSON when a path is given.
fn traced_passes(
    cell: &mut Cell,
    run_dir: &Path,
    seconds: f64,
    chrome_trace: Option<&Path>,
) -> Result<Traced, String> {
    let (flame0, stats0, rings0) = (flame_now(), niid_tensor::stats::snapshot(), rings_now());
    niid_prof::enable(true);
    let passes = run_passes(cell, run_dir, seconds, true, || Ok(()));
    niid_prof::enable(false);
    let passes = passes?;
    let flame = flame_now()
        .into_iter()
        .map(|(label, (c, t, s))| {
            let (c0, t0, s0) = flame0.get(&label).copied().unwrap_or((0, 0, 0));
            (label, (c - c0, t - t0, s - s0))
        })
        .collect();
    let rings = rings_now();
    if let Some(path) = chrome_trace {
        std::fs::write(path, niid_prof::chrome_trace_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(Traced {
        passes,
        flame,
        stats: niid_tensor::stats::snapshot().since(&stats0),
        spans_recorded: rings.0 - rings0.0,
        spans_dropped: rings.1 - rings0.1,
    })
}

/// Median seconds of `f` over `n` calls.
fn median_s(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// What the untraced part of a run hands to the ledger.
pub struct Ledger<'a> {
    pub opts: &'a Options,
    pub run_dir: &'a Path,
    pub setups: &'a [SetupSample],
    pub timed: &'a [Pass],
    pub verified: &'a Pass,
    pub verdict: &'a Verdict,
    /// The untraced phase's slowdown (per-layer times are as the clock
    /// read them; this is reported beside them).
    pub slowdown: f64,
}

/// The traced run: the same cell at a quarter of the rounds (a traced
/// round can cost many untraced ones), for the other half of the time.
fn traced_run(cell: &Cell, l: &Ledger<'_>) -> Result<Traced, String> {
    let full = cell.config.rounds;
    let rounds = (full / 4).max(full.min(10));
    let mut short = setup(cell.workload, l.opts.seed, rounds, l.run_dir)?;
    let traced = traced_passes(
        &mut short,
        l.run_dir,
        l.opts.seconds / 2.0,
        l.opts.chrome_trace.as_deref(),
    );
    teardown(short)?;
    traced
}

/// Every per-layer metric, in the order of `report::PER_LAYER`, and the
/// rolled-up span table. A layer the workload does not exercise reads 0.
pub fn per_layer(cell: &Cell, l: &Ledger<'_>) -> Result<(Metrics, Vec<String>), String> {
    let Ledger {
        opts,
        run_dir,
        setups,
        timed,
        verdict,
        ..
    } = *l;
    // Before any span is recorded: the observer's metric registry reads
    // the profiler every round, which costs more once its rings are full.
    let observer_ratio = observer_overhead(cell, opts, run_dir)?;
    let traced = &traced_run(cell, l)?;
    let iters = if opts.smoke { 5 } else { 50 };
    let mut out: Metrics = Vec::new();
    let mut put = |name: &'static str, value: f64| out.push((name, value));
    let med = |f: fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(|s| f(&s.times)).collect::<Vec<_>>()).unwrap_or(0.0)
    };

    // data, partition, stats: the set-up stages and two direct probes.
    let generate_s = med(|t| t.generate_s);
    put("data.generate_s", generate_s);
    put("data.rows_per_s", cell.times.train_rows as f64 / generate_s);
    put("partition.assign_s", med(|t| t.assign_s));
    put("partition.build_parties_s", med(|t| t.build_parties_s));
    put("partition.lazy_party_us", lazy_party_us(cell, iters)?);
    let (n_parties, cohort) = (cell.workload.n_parties(), cell.cohort());
    let mut rng = Pcg64::new(opts.seed);
    let sample_s = median_s(iters * 4, || {
        let mut picked = rng.sample_indices_sparse(n_parties, cohort);
        picked.sort_unstable();
        black_box(picked);
    });
    put("stats.sample_cohort_us", sample_s * 1e6);

    // tensor: span self times by prefix and counter differences.
    let rounds = traced.rounds();
    let (gemm_ns, conv_ns) = (traced.self_ns("gemm."), traced.self_ns("conv."));
    let busy_ns = traced.busy_ns();
    let s = &traced.stats;
    let gemm_calls = s.gemm_ab_calls + s.gemm_atb_calls + s.gemm_abt_calls;
    put("tensor.gemm_self_ms_per_round", gemm_ns / 1e6 / rounds);
    put("tensor.conv_self_ms_per_round", conv_ns / 1e6 / rounds);
    put("tensor.self_share", (gemm_ns + conv_ns) / busy_ns.max(1.0));
    put(
        "tensor.pool_idle_ms_per_round",
        traced.self_ns("pool.idle") / 1e6 / rounds,
    );
    put("tensor.gemm_calls_per_round", gemm_calls as f64 / rounds);
    put("tensor.gemm_flops_per_round", s.gemm_flops as f64 / rounds);
    put(
        "tensor.gemm_gflops",
        s.gemm_flops as f64 / (gemm_ns + conv_ns).max(1.0),
    );
    put("tensor.pool_tasks_per_round", s.pool_tasks as f64 / rounds);
    put(
        "tensor.pool_steals_per_round",
        s.pool_stolen_tasks as f64 / rounds,
    );
    put("tensor.pool_utilization", s.pool_utilization());
    put("tensor.scratch_reuse_rate", s.scratch_reuse_rate());
    put("tensor.simd_dispatch_rate", s.simd_dispatch_rate());

    // nn: one workload-sized batch through the workload's model.
    let nn = nn_probe(cell, iters.max(50));
    put("nn.forward_us", nn.forward_s * 1e6);
    put("nn.backward_us", nn.backward_s * 1e6);
    put("nn.loss_us", nn.loss_s * 1e6);
    put("nn.sgd_step_us", nn.sgd_s * 1e6);
    put("nn.param_count", nn.params as f64);

    // local: PartyTrained events of the traced passes and the step span.
    let mut party_ms: Vec<f64> = Vec::new();
    let mut stragglers: Vec<f64> = Vec::new();
    let mut events = 0usize;
    for pass in &traced.passes {
        events += pass.rec.events.len();
        let mut by_round: Vec<Vec<f64>> = vec![Vec::new(); pass.rounds()];
        for (_, e) in &pass.rec.events {
            if let TraceEvent::PartyTrained { round, wall_ms, .. } = e {
                party_ms.push(*wall_ms);
                by_round[*round].push(*wall_ms);
            }
        }
        stragglers.extend(by_round.iter().filter_map(|ms| {
            let slowest = ms.iter().copied().fold(f64::NAN, f64::max);
            median(ms).filter(|m| *m > 0.0).map(|m| slowest / m)
        }));
    }
    put("local.party_train_ms_p50", median(&party_ms).unwrap_or(0.0));
    put(
        "local.party_train_ms_max",
        party_ms.iter().copied().fold(0.0, f64::max),
    );
    put("local.straggler_ratio", median(&stragglers).unwrap_or(0.0));
    put(
        "local.step_us",
        traced.total_ns("local.step") / 1e3 / traced.calls("local.step").max(1.0),
    );
    put("local.steps_per_round", traced.calls("local.step") / rounds);

    // engine: phase fields of the untraced passes, per pass.
    let passes = timed.len() as f64;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| timed.iter().map(f).sum::<f64>() / passes;
    let phase = |f: fn(&niid_fl::RoundRecord) -> f64| {
        per_pass(&|p| p.result.rounds.iter().map(f).sum::<f64>() / 1e3)
    };
    let wall_s = per_pass(&|p| p.wall_s);
    let local_s = phase(|r| r.local_wall_ms);
    let aggregate_s = phase(|r| r.aggregate_wall_ms);
    let eval_s = phase(|r| r.eval_wall_ms);
    let comm_s = per_pass(&|p| p.rec.marks.iter().map(|m| m.comm_ms).sum::<f64>() / 1e3);
    let other_s = wall_s - local_s - aggregate_s - eval_s - comm_s;
    put("engine.local_phase_s", local_s);
    put("engine.aggregate_phase_s", aggregate_s);
    put("engine.eval_phase_s", eval_s);
    put("engine.comm_phase_s", comm_s);
    put(
        "engine.sample_ms_per_round",
        traced.total_ns("fl.sample") / 1e6 / rounds,
    );
    put("engine.other_s", other_s);
    put("engine.unattributed_share", other_s / wall_s);
    let gaps: Vec<f64> = timed
        .iter()
        .flat_map(|p| round_gaps_ms(&p.rec.marks))
        .collect();
    let tail = highest_tail(&gaps);
    put("engine.round_ms_tail", tail.map_or(0.0, |t| t.value));
    put(
        "engine.round_ms_tail_pct",
        tail.map_or(0.0, |t| t.percentile),
    );
    put(
        "engine.traced_residual_share",
        traced.self_ns("fl.round") / traced.total_ns("fl.round").max(1.0),
    );

    // aggregate, compress, net, checkpoint: probes on one real update.
    let update = real_update(cell, opts.seed);
    let agg = aggregate_probe(cell, &update, cohort, iters);
    put("aggregate.dense_us", agg.0 * 1e6);
    put("aggregate.sparse_us", agg.1 * 1e6);
    put(
        "aggregate.self_ms_per_round",
        (traced.self_ns("fl.aggregate") + traced.self_ns("agg.")) / 1e6 / rounds,
    );
    let codec = compress_probe(cell.config.codec, &update.delta, opts.seed, iters);
    put("compress.encode_mb_s", codec.encode_mb_s);
    put("compress.decode_mb_s", codec.decode_mb_s);
    put("compress.feedback_encode_us", codec.feedback_s * 1e6);
    put("compress.ratio", codec.ratio);
    put("party.resident_peak_bytes", residency::peak_bytes() as f64);

    let net = net_probe(&update, iters)?;
    put("net.handshake_ms", med(|t| t.handshake_s) * 1e3);
    put("net.frame_write_mb_s", net.write_mb_s);
    put("net.frame_read_mb_s", net.read_mb_s);
    put("net.msg_encode_us", net.encode_s * 1e6);
    put("net.msg_decode_us", net.decode_s * 1e6);
    let (untraced_p50, _) = pooled_round_ms_p50(timed);
    put(
        "net.wire_overhead_ratio",
        verdict
            .oracle_round_ms_p50
            .map_or(0.0, |oracle| untraced_p50 / oracle),
    );

    let ckpt = checkpoint_probe(cell, run_dir, timed, &update, iters.min(10))?;
    put("checkpoint.save_ms", ckpt.0 * 1e3);
    put("checkpoint.load_ms", ckpt.1 * 1e3);
    put("checkpoint.bytes", ckpt.2 as f64);
    let stall_s = timed
        .iter()
        .fold(0.0, |s, p| s + checkpoint_stall_s(&p.rec.marks, p.wall_s));
    put("checkpoint.stall_share", stall_s / (wall_s * passes));

    // dynamics, trace, prof, fault.
    put("dynamics.observer_overhead_ratio", observer_ratio);
    put("trace.events_per_round", events as f64 / rounds);
    put(
        "trace.jsonl_bytes_per_round",
        per_pass(&|p| p.written_bytes as f64 / p.rounds() as f64),
    );
    let (traced_p50, _) = pooled_round_ms_p50(&traced.passes);
    put("prof.trace_overhead_ratio", traced_p50 / untraced_p50);
    put("prof.spans_recorded", traced.spans_recorded as f64);
    put("prof.spans_dropped", traced.spans_dropped as f64);
    put(
        "fault.injected_per_round",
        verdict.injected as f64 / l.verified.rounds() as f64,
    );
    put("fault.degraded_rounds", verdict.degraded_rounds as f64);
    put("fault.unplanned", verdict.unplanned as f64);
    let target = if opts.smoke {
        0.0
    } else {
        cell.workload.target_accuracy()
    };
    let to_target: Vec<(usize, f64)> = timed.iter().map(|p| time_to_target(p, target)).collect();
    let seconds: Vec<f64> = to_target.iter().map(|t| t.1).collect();
    put("engine.time_to_target_s", median(&seconds).unwrap_or(0.0));
    put(
        "engine.time_to_target_round",
        to_target.last().map_or(0.0, |t| (t.0 + 1) as f64),
    );
    put(
        "engine.final_accuracy",
        timed.last().map_or(0.0, |p| p.result.final_accuracy),
    );
    put("bench.passes", passes);
    put("bench.slowdown", l.slowdown);
    if !out.iter().map(|m| m.0).eq(PER_LAYER.iter().map(|d| d.name)) {
        return Err("per-layer metrics are out of step with report::PER_LAYER".into());
    }
    Ok((out, traced.span_table(traced_p50)))
}

/// p50 of materialising one party of the lazy partition, in µs (0 for
/// resident workloads).
fn lazy_party_us(cell: &Cell, iters: usize) -> Result<f64, String> {
    let Some(train) = &cell.lazy_train else {
        return Ok(0.0);
    };
    let n = cell.workload.n_parties();
    let lazy = LazyPartition::new(train.clone(), n, cell.workload.strategy(), 7)
        .map_err(|e| format!("lazy partition probe: {e}"))?;
    let mut id = 0;
    let s = median_s(iters * 4, || {
        black_box(lazy.materialize(id % n));
        id += 97;
    });
    Ok(s * 1e6)
}

struct NnProbe {
    forward_s: f64,
    backward_s: f64,
    loss_s: f64,
    sgd_s: f64,
    params: usize,
}

/// Forward, loss, backward and optimiser step on one batch of the
/// workload's size, each timed on its own; medians over `iters`.
fn nn_probe(cell: &Cell, iters: usize) -> NnProbe {
    let mut model = cell.model.build(cell.num_classes, 1);
    let party = &cell.sample_party;
    let local = &cell.config.local;
    let rows: Vec<usize> = (0..local.batch_size.min(party.num_samples())).collect();
    let (x, y) = party.batch(&rows);
    let mut params = model.params_flat();
    let mut opt = Sgd::new(params.len(), local.lr, local.momentum, local.weight_decay);
    let (mut fwd, mut loss, mut bwd, mut sgd) = (vec![], vec![], vec![], vec![]);
    for _ in 0..iters {
        let input = x.clone();
        model.zero_grads();
        let t = Instant::now();
        let logits = model.forward(input, Phase::Train);
        fwd.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (l, grad) = SoftmaxCrossEntropy::loss_and_grad(&logits, &y);
        loss.push(t.elapsed().as_secs_f64());
        black_box(l);
        let t = Instant::now();
        black_box(model.backward(grad));
        bwd.push(t.elapsed().as_secs_f64());
        let grads = model.grads_flat();
        let t = Instant::now();
        opt.step(&mut params, &grads);
        sgd.push(t.elapsed().as_secs_f64());
    }
    let m = |v: &[f64]| median(v).unwrap_or(0.0);
    NnProbe {
        forward_s: m(&fwd),
        backward_s: m(&bwd),
        loss_s: m(&loss),
        sgd_s: m(&sgd),
        params: params.len(),
    }
}

/// One real local-training outcome of the workload's first party.
fn real_update(cell: &Cell, seed: u64) -> LocalOutcome {
    let mut model = cell.model.build(cell.num_classes, 1);
    let (params, buffers) = (model.params_flat(), model.buffers_flat());
    local_train(
        &mut model,
        &cell.sample_party,
        &params,
        &buffers,
        &cell.config.local,
        &Algorithm::FedAvg,
        None,
        None,
        &mut Pcg64::new(seed),
    )
}

/// Seconds to average `cohort` copies of a real update: dense, and as
/// the sparse runs a top-k codec delivers.
fn aggregate_probe(cell: &Cell, update: &LocalOutcome, cohort: usize, iters: usize) -> (f64, f64) {
    let kern = niid_tensor::active_kernel();
    let outcomes: Vec<LocalOutcome> = vec![update.clone(); cohort];
    let mut global = cell.model.build(cell.num_classes, 1).params_flat();
    let dense: Vec<UpdateRef<'_>> = outcomes
        .iter()
        .map(|o| UpdateRef::Dense(&o.delta))
        .collect();
    let dense_s = median_s(iters, || {
        weighted_average_updates(&mut global, &outcomes, &dense, 1.0);
    });
    let topk = UpdateCodec::TopKInt8 {
        fraction: 0.1,
        levels: 128,
    };
    let n = update.delta.len();
    let decoded = topk
        .decode(kern, &topk.encode(kern, &update.delta, 1), n)
        .expect("self-encoded payload decodes");
    let sparse: Vec<UpdateRef<'_>> = outcomes.iter().map(|_| UpdateRef::from(&decoded)).collect();
    let sparse_s = median_s(iters, || {
        weighted_average_updates(&mut global, &outcomes, &sparse, 1.0);
    });
    black_box(global);
    (dense_s, sparse_s)
}

struct CodecProbe {
    encode_mb_s: f64,
    decode_mb_s: f64,
    feedback_s: f64,
    ratio: f64,
}

/// Encode and decode one real update with the workload's codec; rates
/// are over the dense (4 bytes per coordinate) size.
fn compress_probe(codec: UpdateCodec, delta: &[f32], seed: u64, iters: usize) -> CodecProbe {
    let kern = niid_tensor::active_kernel();
    let n = delta.len();
    let dense_mb = (4 * n) as f64 / 1e6;
    let payload = codec.encode(kern, delta, seed);
    let encode_s = median_s(iters, || {
        black_box(codec.encode(kern, delta, seed));
    });
    let decode_s = median_s(iters, || {
        black_box(codec.decode(kern, &payload, n));
    });
    let mut residual = Vec::new();
    let feedback_s = median_s(iters, || {
        black_box(codec.encode_with_feedback(kern, delta, &mut residual, seed));
    });
    CodecProbe {
        encode_mb_s: dense_mb / encode_s,
        decode_mb_s: dense_mb / decode_s,
        feedback_s,
        ratio: (4 * n) as f64 / payload.len() as f64,
    }
}

struct NetProbe {
    write_mb_s: f64,
    read_mb_s: f64,
    encode_s: f64,
    decode_s: f64,
}

/// `write_frame` / `read_frame` of a Broadcast-sized payload over one
/// loopback connection (a reader thread on the other end), and the
/// encode / decode of one `BroadcastMsg` plus one `UpdateMsg`.
fn net_probe(update: &LocalOutcome, iters: usize) -> Result<NetProbe, String> {
    let io = |what: &str, e: std::io::Error| format!("net probe {what}: {e}");
    let bcast = BroadcastMsg {
        round: 0,
        params: update.delta.clone(),
        buffers: update.buffers.clone(),
        server_c: Vec::new(),
    };
    let kern = niid_tensor::active_kernel();
    let upd = UpdateMsg {
        round: 0,
        party_id: 0,
        body: UpdateBody::Trained {
            payload: UpdateCodec::DenseF32.encode(kern, &update.delta, 0),
            residual: Vec::new(),
            client_c: Vec::new(),
            buffers: update.buffers.clone(),
            delta_c: Vec::new(),
            tau: update.tau as u64,
            n_samples: update.n_samples as u64,
            avg_loss: update.avg_loss,
            wall_ms: update.wall_ms,
        },
    };
    let (bcast_bytes, upd_bytes) = (bcast.encode(), upd.encode());
    let encode_s = median_s(iters, || {
        black_box((bcast.encode(), upd.encode()));
    });
    let decode_s = median_s(iters, || {
        black_box(BroadcastMsg::decode(&bcast_bytes).is_ok());
        black_box(UpdateMsg::decode(&upd_bytes).is_ok());
    });

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
    let addr = listener.local_addr().map_err(|e| io("addr", e))?;
    let mb = (bcast_bytes.len() * iters) as f64 / 1e6;
    let reader = std::thread::spawn(move || -> Result<f64, String> {
        let (mut stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let t = Instant::now();
        for _ in 0..iters {
            read_frame(&mut stream, DEFAULT_MAX_FRAME).map_err(|e| format!("read: {e}"))?;
        }
        Ok(t.elapsed().as_secs_f64())
    });
    let written = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
        let _ = stream.set_nodelay(true);
        let t = Instant::now();
        for _ in 0..iters {
            write_frame(&mut stream, MsgKind::Broadcast, &bcast_bytes)
                .map_err(|e| format!("net probe write: {e}"))?;
        }
        Ok::<f64, String>(t.elapsed().as_secs_f64())
    })();
    let read_s = reader
        .join()
        .map_err(|_| "net probe reader panicked".to_string())??;
    Ok(NetProbe {
        write_mb_s: mb / written?,
        read_mb_s: mb / read_s,
        encode_s,
        decode_s,
    })
}

/// Save and load a checkpoint of the workload's shape into the run
/// directory: `(save s, load s, bytes)`.
fn checkpoint_probe(
    cell: &Cell,
    run_dir: &Path,
    timed: &[Pass],
    update: &LocalOutcome,
    iters: usize,
) -> Result<(f64, f64, u64), String> {
    let cfg = &cell.config;
    let params = cell.model.build(cell.num_classes, 1).params_flat();
    let per_party = |on: bool| -> Vec<(usize, Vec<f32>)> {
        let n = if on {
            cell.workload.n_parties().min(64)
        } else {
            0
        };
        (0..n).map(|id| (id, update.delta.clone())).collect()
    };
    let scaffold = cfg.algorithm.uses_control_variates();
    let last = &timed.last().expect("a timed pass").result;
    let ckpt = Checkpoint {
        round_next: cfg.rounds,
        seed: cfg.seed,
        algorithm: cfg.algorithm.name().to_string(),
        n_parties: cell.workload.n_parties(),
        sample_fraction: cfg.sample_fraction,
        min_quorum: cfg.min_quorum,
        fault_plan: cfg.fault_plan.as_ref().map(ToString::to_string),
        codec: cfg.codec.to_string(),
        server_c: if scaffold { params.clone() } else { Vec::new() },
        global_params: params,
        global_buffers: update.buffers.clone(),
        client_c: per_party(scaffold),
        residuals: per_party(cfg.codec.is_lossy()),
        records: last.rounds.clone(),
        best_accuracy: last.best_accuracy,
        final_accuracy: last.final_accuracy,
        total_bytes: last.total_bytes,
    };
    let path = run_dir.join("probe").join("checkpoint.json");
    let mut failed = None;
    let save_s = median_s(iters, || {
        if let Err(e) = ckpt.save(&path) {
            failed = Some(e.to_string());
        }
    });
    let load_s = median_s(iters, || match Checkpoint::load(&path) {
        Ok(c) => {
            black_box(c);
        }
        Err(e) => failed = Some(e.to_string()),
    });
    if let Some(e) = failed {
        return Err(format!("checkpoint probe: {e}"));
    }
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    Ok((save_s, load_s, bytes))
}

/// Observed run / plain run of the same cell, at most 200 rounds each
/// (0 for workloads that run without an observer).
fn observer_overhead(cell: &Cell, opts: &Options, run_dir: &Path) -> Result<f64, String> {
    if cell.workload != Workload::SiloRobustObserved {
        return Ok(0.0);
    }
    let rounds = cell.config.rounds.min(200);
    let mut short = setup(cell.workload, opts.seed, rounds, run_dir)?;
    let plain = run_pass(&mut short, run_dir, false, false)?;
    let observed = run_pass(&mut short, run_dir, false, true)?;
    Ok(observed.wall_s / plain.wall_s)
}
