//! Whole-model gradient checks: analytic backprop vs central finite
//! differences through every architecture, with a fixed random projection
//! of the logits as the loss so all coordinates receive signal.
//!
//! Convolutional nets with ReLU + max-pooling have a kinked loss surface,
//! so coordinate-wise finite differences are unreliable (one flipped
//! activation ruins a probe). Instead we check the **directional
//! derivative along the analytic gradient**: `(L(p + εv) − L(p − εv)) /
//! 2ε ≈ ‖g‖` for `v = g/‖g‖`, which averages the kink noise over every
//! parameter. Coordinate probes are kept for the smooth MLP. Per-layer
//! coordinate checks live in `niid-nn`'s unit tests.

use niid_bench_rs::nn::{lenet_cnn, mlp, resnet_lite, vgg9, Network, Phase};
use niid_bench_rs::stats::Pcg64;
use niid_bench_rs::tensor::Tensor;

/// A model after one forward/backward; its parameters and gradients are
/// read in place through `net.params()` / `net.grads()`.
struct GradProbe {
    net: Network,
    x: Tensor,
    weighting: Tensor,
}

fn probe(mut build: impl FnMut() -> Network, input_shape: &[usize], seed: u64) -> GradProbe {
    let mut rng = Pcg64::new(seed);
    let mut shape = vec![4usize];
    shape.extend_from_slice(input_shape);
    let x = Tensor::randn(&shape, 0.8, &mut rng);

    let mut net = build();
    net.zero_grads();
    let logits = net.forward(x.clone(), Phase::Train);
    let weighting = Tensor::randn(logits.shape(), 1.0, &mut rng);
    net.backward(weighting.clone());
    GradProbe { net, x, weighting }
}

fn loss(build: &mut impl FnMut() -> Network, p: &[f32], x: &Tensor, w: &Tensor) -> f64 {
    let mut m = build();
    m.set_params_flat(p);
    let y = m.forward(x.clone(), Phase::Train);
    y.mul(w).sum()
}

/// Directional finite-difference check along the analytic gradient.
fn check_directional(
    mut build: impl FnMut() -> Network,
    input_shape: &[usize],
    tolerance: f64,
    seed: u64,
) {
    let pr = probe(&mut build, input_shape, seed);
    let norm: f64 = pr
        .net
        .grads()
        .iter()
        .map(|&g| (g as f64) * (g as f64))
        .sum::<f64>()
        .sqrt();
    assert!(norm > 1e-3, "degenerate gradient (norm {norm})");
    let eps = 1e-3f64;
    let step = |sign: f64| -> Vec<f32> {
        pr.net
            .params()
            .iter()
            .zip(pr.net.grads())
            .map(|(&p, &g)| p + (sign * eps * g as f64 / norm) as f32)
            .collect()
    };
    let lp = loss(&mut build, &step(1.0), &pr.x, &pr.weighting);
    let lm = loss(&mut build, &step(-1.0), &pr.x, &pr.weighting);
    let numeric = (lp - lm) / (2.0 * eps);
    let rel = (numeric - norm).abs() / norm;
    assert!(
        rel < tolerance,
        "directional derivative {numeric} vs gradient norm {norm} (rel err {rel})"
    );
}

#[test]
fn lenet_cnn_gradcheck_directional() {
    check_directional(|| lenet_cnn(1, 16, 10, 11), &[1, 16, 16], 0.03, 1);
}

#[test]
fn vgg9_gradcheck_directional() {
    check_directional(|| vgg9(3, 16, 4, 2, 13), &[3, 16, 16], 0.05, 3);
}

#[test]
fn resnet_gradcheck_directional() {
    // BatchNorm in Train mode: the finite-difference loss re-runs the
    // forward with batch statistics, matching the analytic path.
    check_directional(|| resnet_lite(2, 8, 3, 4, 1, 14), &[2, 8, 8], 0.08, 4);
}

#[test]
fn mlp_gradcheck_directional() {
    check_directional(|| mlp(20, 3, 12), &[20], 0.01, 2);
}

/// The smooth MLP also passes coordinate-wise probes.
#[test]
fn mlp_gradcheck_coordinates() {
    let mut build = || mlp(20, 3, 12);
    let pr = probe(&mut build, &[20], 5);
    let eps = 1e-2f32;
    for idx in [0usize, 99, 333, 700] {
        let idx = idx % pr.net.param_count();
        let mut pp = pr.net.params().to_vec();
        pp[idx] += eps;
        let mut pm = pr.net.params().to_vec();
        pm[idx] -= eps;
        let num = (loss(&mut build, &pp, &pr.x, &pr.weighting)
            - loss(&mut build, &pm, &pr.x, &pr.weighting))
            / (2.0 * eps as f64);
        let ana = pr.net.grads()[idx] as f64;
        assert!(
            (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
            "param {idx}: numeric {num} vs analytic {ana}"
        );
    }
}
