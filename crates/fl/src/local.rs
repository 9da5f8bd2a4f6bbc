//! Local training (the `LocalTraining` procedure of Algorithms 1 and 2).
//!
//! One call = one party's work for one communication round: `E` epochs of
//! mini-batch SGD starting from the global model, with the
//! algorithm-specific gradient modification applied before every step:
//!
//! * **FedAvg / FedNova** — plain SGD on the local objective.
//! * **FedProx** — adds the proximal gradient `μ (w - wᵗ)` (the gradient
//!   of the `μ/2 ‖w - wᵗ‖²` term in Algorithm 1 line 14).
//! * **SCAFFOLD** — applies the drift correction `c - cᵢ` (Algorithm 2
//!   line 20) and computes the control-variate update `Δc` (lines 23–25).
//!   The correction is applied **directly to the parameters after the
//!   optimizer step** (`w ← w − η(c − cᵢ)`), exactly as the reference
//!   NIID-Bench implementation does — routing it through the gradient
//!   would amplify it by `1/(1−m) = 10×` under momentum 0.9 and blow up
//!   training (we verified the divergence before adopting the reference
//!   behaviour).

use crate::algorithm::{Algorithm, ControlVariateUpdate};
use crate::metrics::wall_ms;
use crate::party::Party;
use niid_nn::{Network, Sgd};
use niid_stats::Pcg64;

/// Hyper-parameters of local SGD (shared by all parties in a run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalConfig {
    /// Local epochs `E`.
    pub epochs: usize,
    /// Mini-batch size `B`.
    pub batch_size: usize,
    /// Learning rate `η`.
    pub lr: f32,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// L2 weight decay (paper: none by default).
    pub weight_decay: f32,
}

/// What a party sends back to the server after local training.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// `Δwᵢ = wᵗ - wᵢᵗ` (positive in the descent direction).
    pub delta: Vec<f32>,
    /// Number of local SGD steps `τᵢ` taken.
    pub tau: usize,
    /// Local dataset size `|Dᵢ|` (aggregation weight).
    pub n_samples: usize,
    /// Sample-weighted mean training loss over the local pass: each
    /// step's batch-mean loss weighted by its batch size. (A plain
    /// step-mean would over-weight the ragged tail batch whenever
    /// `|Dᵢ|` is not a multiple of `B`.)
    pub avg_loss: f64,
    /// Final local BatchNorm buffers (empty for buffer-free models).
    pub buffers: Vec<f32>,
    /// SCAFFOLD's `Δc = cᵢ* - cᵢ` (empty for other algorithms).
    pub delta_c: Vec<f32>,
    /// Wall time this party spent in local training, in milliseconds:
    /// the duration of its `fl.local_train` span (feeds the
    /// `party_trained` trace event and the straggler histograms).
    pub wall_ms: f64,
    /// Per-layer sums of squared data-gradient L2 norms across the local
    /// steps, one entry per span passed as `grad_spans`; empty when the
    /// probe was off. `sqrt(sum / tau)` gives the RMS per-step norm.
    pub layer_grad_sq: Vec<f64>,
}

/// SCAFFOLD state passed into local training.
pub struct ScaffoldCtx<'a> {
    /// Server control variate `c`.
    pub server_c: &'a [f32],
    /// This party's control variate `cᵢ` (updated in place to `cᵢ*`).
    pub client_c: &'a mut Vec<f32>,
    /// Which refresh rule to use for `cᵢ*`.
    pub variant: ControlVariateUpdate,
}

/// Run one round of local training for `party`, starting from
/// `global_params` / `global_buffers`.
///
/// `model` must match the global architecture; its state is overwritten.
/// `rng` drives batch shuffling only. `grad_spans` optionally requests
/// per-layer gradient-norm accumulation: each range indexes the flat
/// parameter vector, and the squared L2 norm of the *data* gradient
/// (before FedProx's proximal term) over each range is summed across
/// steps into [`LocalOutcome::layer_grad_sq`]. The probe reads the
/// gradients the step computes anyway, so it never perturbs training.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1/2's LocalTraining signature
pub fn local_train(
    model: &mut Network,
    party: &Party,
    global_params: &[f32],
    global_buffers: &[f32],
    cfg: &LocalConfig,
    algorithm: &Algorithm,
    mut scaffold: Option<ScaffoldCtx<'_>>,
    grad_spans: Option<&[std::ops::Range<usize>]>,
    rng: &mut Pcg64,
) -> LocalOutcome {
    let sp = niid_prof::timed!("fl.local_train");
    assert!(cfg.epochs > 0, "local_train: epochs must be positive");
    assert!(
        cfg.batch_size > 0,
        "local_train: batch size must be positive"
    );
    let n = party.num_samples();
    assert!(n > 0, "local_train: empty party {}", party.id);

    model.set_params_flat(global_params);
    if !global_buffers.is_empty() {
        model.set_buffers_flat(global_buffers);
    }

    let p_len = global_params.len();
    let mut opt = Sgd::new(p_len, cfg.lr, cfg.momentum, cfg.weight_decay);
    let mu = match algorithm {
        Algorithm::FedProx { mu } => *mu,
        _ => 0.0,
    };
    let correction: Option<Vec<f32>> = scaffold.as_mut().map(|ctx| {
        if ctx.client_c.is_empty() {
            // Lazily initialize a fresh party's control variate to zero.
            *ctx.client_c = vec![0.0; p_len];
        }
        assert_eq!(ctx.server_c.len(), p_len, "scaffold: server c length");
        assert_eq!(ctx.client_c.len(), p_len, "scaffold: client c length");
        // c - cᵢ, fixed for the whole round.
        ctx.server_c
            .iter()
            .zip(ctx.client_c.iter())
            .map(|(&c, &ci)| c - ci)
            .collect()
    });

    let mut indices: Vec<usize> = (0..n).collect();
    let mut tau = 0usize;
    // Σ batch_mean · batch_len and the matching sample count, so the
    // reported loss is the per-sample mean regardless of ragged batches.
    let mut loss_sum = 0.0f64;
    let mut loss_samples = 0usize;
    let mut layer_grad_sq: Vec<f64> = grad_spans.map_or(Vec::new(), |s| vec![0.0; s.len()]);

    for _epoch in 0..cfg.epochs {
        rng.shuffle(&mut indices);
        for batch_idx in indices.chunks(cfg.batch_size) {
            let _sp = niid_prof::span!("local.step");
            let (x, y) = party.batch(batch_idx);
            model.zero_grads();
            loss_sum += model.forward_backward(x, &y) * batch_idx.len() as f64;
            loss_samples += batch_idx.len();
            // Everything below runs in place on the model's own arena.
            let (params, grads) = model.params_and_grads_mut();
            if let Some(spans) = grad_spans {
                // `sum_sq_f64` keeps four independent f64 accumulators (the
                // serial `s += g*g` chain would otherwise dominate small
                // models — this probe runs every step over every parameter)
                // and its AVX2 variant reproduces the scalar bits exactly,
                // so the probe stays kernel-invariant.
                let kern = niid_tensor::active_kernel();
                for (acc, span) in layer_grad_sq.iter_mut().zip(spans) {
                    *acc += niid_tensor::simd::sum_sq_f64(kern, &grads[span.clone()]);
                }
            }
            if mu != 0.0 {
                // FedProx: the proximal term is part of the local
                // objective, so its gradient goes through the optimizer.
                for ((g, &p), &gp) in grads.iter_mut().zip(&*params).zip(global_params) {
                    *g += mu * (p - gp);
                }
            }
            opt.step(params, grads);
            if let Some(corr) = &correction {
                // SCAFFOLD: momentum-free post-step correction
                // w ← w − η (c − cᵢ), as in the reference implementation.
                for (p, &c) in params.iter_mut().zip(corr) {
                    *p -= cfg.lr * c;
                }
            }
            tau += 1;
        }
    }

    // Δwᵢ = wᵗ - wᵢᵗ (Algorithm 1 line 22).
    let delta: Vec<f32> = global_params
        .iter()
        .zip(model.params())
        .map(|(&g, &w)| g - w)
        .collect();

    // Captured before the control-variate refresh: GradientAtGlobal runs
    // extra forward passes below that would otherwise leak into the
    // BatchNorm statistics this party reports.
    let local_buffers = model.buffers().to_vec();

    // SCAFFOLD control-variate refresh (Algorithm 2 lines 23–25).
    let delta_c = match scaffold {
        Some(ctx) => {
            let new_ci: Vec<f32> = match ctx.variant {
                ControlVariateUpdate::Reuse => {
                    // cᵢ* = cᵢ - c + (wᵗ - wᵢᵗ) / (τᵢ η)
                    let scale = 1.0 / (tau as f32 * cfg.lr);
                    ctx.client_c
                        .iter()
                        .zip(ctx.server_c)
                        .zip(&delta)
                        .map(|((&ci, &c), &d)| ci - c + scale * d)
                        .collect()
                }
                ControlVariateUpdate::GradientAtGlobal => {
                    // cᵢ* = ∇L(wᵗ) over the full local dataset, at the
                    // *full* global state — buffers restored along with
                    // the parameters, not left at their post-training
                    // local values.
                    model.set_params_flat(global_params);
                    if !global_buffers.is_empty() {
                        model.set_buffers_flat(global_buffers);
                    }
                    model.zero_grads();
                    let all: Vec<usize> = (0..n).collect();
                    // Batched accumulation to bound memory; gradients sum,
                    // so rescale each batch by its share.
                    let mut acc = vec![0.0f32; p_len];
                    for chunk in all.chunks(cfg.batch_size.max(1)) {
                        let (x, y) = party.batch(chunk);
                        model.zero_grads();
                        model.forward_backward(x, &y);
                        let w = chunk.len() as f32 / n as f32;
                        for (a, &gv) in acc.iter_mut().zip(model.grads()) {
                            *a += w * gv;
                        }
                    }
                    acc
                }
            };
            let dc: Vec<f32> = new_ci
                .iter()
                .zip(ctx.client_c.iter())
                .map(|(&new, &old)| new - old)
                .collect();
            *ctx.client_c = new_ci;
            dc
        }
        None => Vec::new(),
    };

    LocalOutcome {
        delta,
        tau,
        n_samples: n,
        avg_loss: loss_sum / loss_samples.max(1) as f64,
        buffers: local_buffers,
        delta_c,
        wall_ms: wall_ms(sp.close()),
        layer_grad_sq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_data::Dataset;
    use niid_nn::mlp;
    use niid_tensor::Tensor;

    fn toy_party(n: usize, seed: u64) -> Party {
        let mut rng = Pcg64::new(seed);
        let x = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let labels = (0..n)
            .map(|i| usize::from(x.at2(i, 0) + x.at2(i, 1) > 0.0))
            .collect();
        Party::new(0, Dataset::new("toy", x, labels, 2, vec![4], None))
    }

    fn cfg() -> LocalConfig {
        LocalConfig {
            epochs: 2,
            batch_size: 8,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        }
    }

    #[test]
    fn tau_counts_steps() {
        let party = toy_party(20, 1);
        let mut model = mlp(4, 2, 7);
        let global = model.params().to_vec();
        let out = local_train(
            &mut model,
            &party,
            &global,
            &[],
            &cfg(),
            &Algorithm::FedAvg,
            None,
            None,
            &mut Pcg64::new(2),
        );
        // 20 samples, batch 8 -> 3 batches per epoch, 2 epochs.
        assert_eq!(out.tau, 6);
        assert_eq!(out.n_samples, 20);
        assert!(out.avg_loss.is_finite());
        assert!(out.delta_c.is_empty());
    }

    #[test]
    fn delta_is_global_minus_local() {
        let party = toy_party(16, 3);
        let mut model = mlp(4, 2, 8);
        let global = model.params().to_vec();
        let out = local_train(
            &mut model,
            &party,
            &global,
            &[],
            &cfg(),
            &Algorithm::FedAvg,
            None,
            None,
            &mut Pcg64::new(4),
        );
        let local = model.params().to_vec();
        for ((&g, &w), &d) in global.iter().zip(&local).zip(&out.delta) {
            assert!((g - w - d).abs() < 1e-6);
        }
        assert!(out.delta.iter().any(|&d| d != 0.0), "no training happened");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let party = toy_party(24, 5);
        let run = |seed: u64| {
            let mut model = mlp(4, 2, 9);
            let global = model.params().to_vec();
            local_train(
                &mut model,
                &party,
                &global,
                &[],
                &cfg(),
                &Algorithm::FedAvg,
                None,
                None,
                &mut Pcg64::new(seed),
            )
            .delta
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn large_prox_mu_shrinks_updates() {
        let party = toy_party(32, 6);
        let model = mlp(4, 2, 10);
        let global = model.params().to_vec();
        let norm_for = |algo: Algorithm| {
            let mut m = mlp(4, 2, 10);
            let out = local_train(
                &mut m,
                &party,
                &global,
                &[],
                &cfg(),
                &algo,
                None,
                None,
                &mut Pcg64::new(11),
            );
            out.delta
                .iter()
                .map(|&d| (d as f64) * (d as f64))
                .sum::<f64>()
        };
        let plain = norm_for(Algorithm::FedAvg);
        let prox = norm_for(Algorithm::FedProx { mu: 10.0 });
        assert!(
            prox < plain * 0.5,
            "huge mu should limit local update size: prox {prox} vs plain {plain}"
        );
        // mu = 0 must match FedAvg exactly.
        let zero_mu = norm_for(Algorithm::FedProx { mu: 0.0 });
        assert!((zero_mu - plain).abs() < 1e-9);
        drop(model);
    }

    #[test]
    fn scaffold_reuse_control_variate_algebra() {
        let party = toy_party(16, 7);
        let mut model = mlp(4, 2, 12);
        let global = model.params().to_vec();
        let p_len = global.len();
        let server_c = vec![0.0f32; p_len];
        let mut client_c = Vec::new(); // lazily initialized to zeros
        let out = local_train(
            &mut model,
            &party,
            &global,
            &[],
            &cfg(),
            &Algorithm::Scaffold {
                variant: ControlVariateUpdate::Reuse,
            },
            Some(ScaffoldCtx {
                server_c: &server_c,
                client_c: &mut client_c,
                variant: ControlVariateUpdate::Reuse,
            }),
            None,
            &mut Pcg64::new(13),
        );
        assert_eq!(out.delta_c.len(), p_len);
        assert_eq!(client_c.len(), p_len);
        // With c = cᵢ = 0 initially: cᵢ* = Δw/(τη) and Δc = cᵢ*.
        let scale = 1.0 / (out.tau as f32 * cfg().lr);
        for (i, (&d, &dc)) in out.delta.iter().zip(&out.delta_c).enumerate() {
            let expected = scale * d;
            assert!(
                (dc - expected).abs() < 1e-4 * (1.0 + expected.abs()),
                "delta_c[{i}] = {dc}, expected {expected}"
            );
            assert!((client_c[i] - expected).abs() < 1e-4 * (1.0 + expected.abs()));
        }
    }

    #[test]
    fn scaffold_gradient_at_global_produces_full_batch_gradient() {
        let party = toy_party(16, 8);
        let mut model = mlp(4, 2, 14);
        let global = model.params().to_vec();
        let p_len = global.len();
        let server_c = vec![0.0f32; p_len];
        let mut client_c = vec![0.0f32; p_len];
        let out = local_train(
            &mut model,
            &party,
            &global,
            &[],
            &cfg(),
            &Algorithm::Scaffold {
                variant: ControlVariateUpdate::GradientAtGlobal,
            },
            Some(ScaffoldCtx {
                server_c: &server_c,
                client_c: &mut client_c,
                variant: ControlVariateUpdate::GradientAtGlobal,
            }),
            None,
            &mut Pcg64::new(15),
        );
        // cᵢ* should equal the full-batch gradient at the global model.
        let mut reference = mlp(4, 2, 14);
        reference.set_params_flat(&global);
        reference.zero_grads();
        let all: Vec<usize> = (0..16).collect();
        let (x, y) = party.batch(&all);
        reference.forward_backward(x, &y);
        let full_grad = reference.grads().to_vec();
        for (i, (&ci, &g)) in client_c.iter().zip(&full_grad).enumerate() {
            assert!(
                (ci - g).abs() < 1e-4 * (1.0 + g.abs()),
                "c_i[{i}] = {ci} vs full-batch grad {g}"
            );
        }
        assert_eq!(out.delta_c.len(), p_len);
    }

    #[test]
    fn scaffold_correction_steers_updates() {
        // A strong constant server control variate must visibly bias the
        // local update compared to plain FedAvg.
        let party = toy_party(16, 9);
        let global = mlp(4, 2, 16).params().to_vec();
        let p_len = global.len();

        let mut m1 = mlp(4, 2, 16);
        let plain = local_train(
            &mut m1,
            &party,
            &global,
            &[],
            &cfg(),
            &Algorithm::FedAvg,
            None,
            None,
            &mut Pcg64::new(17),
        );

        let server_c = vec![0.5f32; p_len];
        let mut client_c = vec![0.0f32; p_len];
        let mut m2 = mlp(4, 2, 16);
        let steered = local_train(
            &mut m2,
            &party,
            &global,
            &[],
            &cfg(),
            &Algorithm::Scaffold {
                variant: ControlVariateUpdate::Reuse,
            },
            Some(ScaffoldCtx {
                server_c: &server_c,
                client_c: &mut client_c,
                variant: ControlVariateUpdate::Reuse,
            }),
            None,
            &mut Pcg64::new(17),
        );
        let diff: f64 = plain
            .delta
            .iter()
            .zip(&steered.delta)
            .map(|(&a, &b)| ((a - b) as f64).abs())
            .sum();
        assert!(diff > 1.0, "correction had no visible effect: {diff}");
    }

    #[test]
    fn buffers_returned_for_batchnorm_models() {
        use niid_data::Dataset;
        use niid_nn::resnet_lite;
        // Tiny image party for a BN model.
        let mut rng = Pcg64::new(20);
        let x = Tensor::randn(&[8, 3 * 16 * 16], 1.0, &mut rng);
        let labels = (0..8).map(|i| i % 2).collect();
        let party = Party::new(0, Dataset::new("img", x, labels, 2, vec![3, 16, 16], None));
        let mut model = resnet_lite(3, 16, 2, 2, 1, 21);
        let global = model.params().to_vec();
        let global_buffers = model.buffers().to_vec();
        let out = local_train(
            &mut model,
            &party,
            &global,
            &global_buffers,
            &LocalConfig {
                epochs: 1,
                batch_size: 4,
                lr: 0.01,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            &Algorithm::FedAvg,
            None,
            None,
            &mut Pcg64::new(22),
        );
        assert_eq!(out.buffers.len(), model.buffer_count());
        assert_ne!(out.buffers, global_buffers, "BN stats should move");
    }

    #[test]
    fn avg_loss_is_sample_weighted_over_ragged_batches() {
        // n = 20, B = 8 → batches of 8, 8, 4 per epoch: a plain step-mean
        // would over-weight the tail batch. Replay the exact training
        // loop and pin the sample-weighted value bit-for-bit.
        let party = toy_party(20, 30);
        let c = cfg();
        let mut model = mlp(4, 2, 31);
        let global = model.params().to_vec();
        let out = local_train(
            &mut model,
            &party,
            &global,
            &[],
            &c,
            &Algorithm::FedAvg,
            None,
            None,
            &mut Pcg64::new(32),
        );

        // Manual replay: same seed, same shuffles, same update rule.
        let mut m = mlp(4, 2, 31);
        m.set_params_flat(&global);
        let mut opt = Sgd::new(global.len(), c.lr, c.momentum, c.weight_decay);
        let mut params = global.clone();
        let mut rng = Pcg64::new(32);
        let mut indices: Vec<usize> = (0..20).collect();
        let (mut weighted, mut seen) = (0.0f64, 0usize);
        let (mut step_sum, mut steps) = (0.0f64, 0usize);
        for _ in 0..c.epochs {
            rng.shuffle(&mut indices);
            for chunk in indices.chunks(c.batch_size) {
                let (x, y) = party.batch(chunk);
                m.zero_grads();
                let loss = m.forward_backward(x, &y);
                weighted += loss * chunk.len() as f64;
                seen += chunk.len();
                step_sum += loss;
                steps += 1;
                let grads = m.grads().to_vec();
                opt.step(&mut params, &grads);
                m.set_params_flat(&params);
            }
        }
        assert_eq!(seen, 40);
        assert_eq!(steps, out.tau);
        assert_eq!(
            out.avg_loss,
            weighted / seen as f64,
            "avg_loss must be the bit-exact sample-weighted mean"
        );
        // The ragged tail makes the two conventions actually differ.
        assert_ne!(out.avg_loss, step_sum / steps as f64);
    }

    #[test]
    fn gradient_at_global_refresh_does_not_leak_into_bn_buffers() {
        use niid_nn::resnet_lite;
        // With zero control variates the Reuse and GradientAtGlobal
        // variants follow the identical training trajectory; only the
        // post-training refresh differs. The refresh's extra forward
        // passes at wᵗ must not leak into the returned BN statistics.
        let mut rng = Pcg64::new(40);
        let x = Tensor::randn(&[8, 3 * 16 * 16], 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let party = Party::new(
            0,
            niid_data::Dataset::new("img", x, labels, 2, vec![3, 16, 16], None),
        );
        let lc = LocalConfig {
            epochs: 1,
            batch_size: 4,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        let run = |variant: ControlVariateUpdate| {
            let mut model = resnet_lite(3, 16, 2, 2, 1, 41);
            let global = model.params().to_vec();
            let global_buffers = model.buffers().to_vec();
            let server_c = vec![0.0f32; global.len()];
            let mut client_c = vec![0.0f32; global.len()];
            local_train(
                &mut model,
                &party,
                &global,
                &global_buffers,
                &lc,
                &Algorithm::Scaffold { variant },
                Some(ScaffoldCtx {
                    server_c: &server_c,
                    client_c: &mut client_c,
                    variant,
                }),
                None,
                &mut Pcg64::new(42),
            )
        };
        let reuse = run(ControlVariateUpdate::Reuse);
        let gag = run(ControlVariateUpdate::GradientAtGlobal);
        assert_eq!(
            reuse.delta, gag.delta,
            "zero variates: trajectories must be identical"
        );
        assert!(!gag.buffers.is_empty());
        assert_eq!(
            reuse.buffers, gag.buffers,
            "GradientAtGlobal refresh leaked into the returned BN buffers"
        );
    }
}
