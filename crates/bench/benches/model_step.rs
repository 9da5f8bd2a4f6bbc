//! Model-level benchmarks: one forward+backward+SGD step for each of the
//! paper's architectures — the in-place step `local_train` runs — plus the
//! flat state load every party performs at the top of a round.

use niid_bench::harness::{black_box, Harness};
use niid_nn::{lenet_cnn, mlp, resnet_lite, vgg9, Network, Sgd};
use niid_stats::Pcg64;
use niid_tensor::Tensor;

fn train_step(net: &mut Network, opt: &mut Sgd, x: &Tensor, y: &[usize]) -> f64 {
    net.zero_grads();
    let loss = net.forward_backward(x.clone(), y);
    let (params, grads) = net.params_and_grads_mut();
    opt.step(params, grads);
    loss
}

fn main() {
    let mut h = Harness::from_args("model_step");
    let mut rng = Pcg64::new(4);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();

    let cases: Vec<(&str, Network, Vec<usize>)> = vec![
        (
            "lenet_cnn_16px",
            lenet_cnn(1, 16, 10, 1),
            vec![32, 1, 16, 16],
        ),
        ("mlp_64d", mlp(64, 10, 2), vec![32, 64]),
        ("vgg9_w4_16px", vgg9(3, 16, 10, 4, 3), vec![32, 3, 16, 16]),
        (
            "resnet_lite_w8_16px",
            resnet_lite(3, 16, 10, 8, 1, 4),
            vec![32, 3, 16, 16],
        ),
    ];
    for (name, mut net, shape) in cases {
        let x = Tensor::randn(&shape, 1.0, &mut rng);
        let mut opt = Sgd::new(net.param_count(), 0.01, 0.9, 0.0);
        h.bench(&format!("train_step_batch32/{name}"), |bench| {
            bench.iter(|| black_box(train_step(&mut net, &mut opt, &x, &labels)))
        });
    }
    // The LeNet step the benchmark's `silo_lenet` workload (and every
    // `--quick` image cell) is made of: 3 channels at 16x16.
    let mut net = lenet_cnn(3, 16, 10, 1);
    let x = Tensor::randn(&[32, 3, 16, 16], 1.0, &mut rng);
    let mut opt = Sgd::new(net.param_count(), 0.01, 0.9, 0.0);
    h.bench("model_step/lenet16_batch32", |bench| {
        bench.iter(|| black_box(train_step(&mut net, &mut opt, &x, &labels)))
    });

    let flat = lenet_cnn(1, 16, 10, 5).params().to_vec();
    let mut net2 = lenet_cnn(1, 16, 10, 6);
    h.bench("set_params_flat_lenet", |bench| {
        bench.iter(|| net2.set_params_flat(black_box(&flat)))
    });
}
