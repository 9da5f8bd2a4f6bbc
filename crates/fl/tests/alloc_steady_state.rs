//! `local_train` steps in place on the model's arena: the number of
//! model-sized allocations one call makes must not depend on how many SGD
//! steps it takes. One test in its own binary, so nothing else in the
//! process allocates while the counter is read.

use niid_data::Dataset;
use niid_fl::local::{local_train, LocalConfig, ScaffoldCtx};
use niid_fl::{Algorithm, ControlVariateUpdate, Party};
use niid_nn::ModelSpec;
use niid_stats::Pcg64;
use niid_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least `THRESHOLD` bytes are counted in `BIG`.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static BIG: AtomicUsize = AtomicUsize::new(0);

struct CountBig;

// SAFETY: every operation is `System`'s, with the caller's own layout and
// pointer; the counter is the only addition. The default `realloc` goes
// through `alloc`, so growth is counted too.
unsafe impl GlobalAlloc for CountBig {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= THRESHOLD.load(Ordering::Relaxed) {
            BIG.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountBig = CountBig;

/// Model-sized allocations made by one `local_train` call of `epochs`.
fn big_allocs(spec: &ModelSpec, algorithm: &Algorithm, spans: bool, epochs: usize) -> usize {
    const CLASSES: usize = 3;
    let mut model = spec.build(CLASSES, 1);
    let p_len = model.param_count();
    let (global, buffers) = (model.params().to_vec(), model.buffers().to_vec());
    let dim: usize = spec.input_shape().iter().product();
    let x = Tensor::randn(&[12, dim], 1.0, &mut Pcg64::new(2));
    let labels = (0..12).map(|i| i % CLASSES).collect();
    let data = Dataset::new("toy", x, labels, CLASSES, spec.input_shape(), None);
    let party = Party::new(0, data);
    let server_c = vec![0.01f32; p_len];
    let grad_spans = [0..p_len / 2, p_len / 2..p_len];
    // Activations of a 4-row batch are far smaller than either model.
    let mut run = |epochs: usize| {
        let cfg = LocalConfig {
            epochs,
            batch_size: 4,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        let mut client_c = Vec::new();
        let scaffold = match *algorithm {
            Algorithm::Scaffold { variant } => Some(ScaffoldCtx {
                server_c: &server_c,
                client_c: &mut client_c,
                variant,
            }),
            _ => None,
        };
        let before = BIG.load(Ordering::Relaxed);
        let out = local_train(
            &mut model,
            &party,
            &global,
            &buffers,
            &cfg,
            algorithm,
            scaffold,
            spans.then_some(&grad_spans[..]),
            &mut Pcg64::new(3),
        );
        let made = BIG.load(Ordering::Relaxed) - before;
        assert_eq!(out.tau, epochs * 3);
        made
    };
    // Warm-up: conv scratch and GEMM pack buffers grow once per model.
    run(1);
    THRESHOLD.store(4 * p_len, Ordering::Relaxed);
    let made = run(epochs);
    THRESHOLD.store(usize::MAX, Ordering::Relaxed);
    made
}

#[test]
fn model_sized_allocations_do_not_scale_with_steps() {
    let specs = [
        ModelSpec::Mlp { in_dim: 6 },
        ModelSpec::LenetCnn {
            in_channels: 1,
            side: 16,
        },
    ];
    let algorithms = [
        Algorithm::FedAvg,
        Algorithm::FedProx { mu: 0.01 },
        Algorithm::Scaffold {
            variant: ControlVariateUpdate::Reuse,
        },
        Algorithm::Scaffold {
            variant: ControlVariateUpdate::GradientAtGlobal,
        },
    ];
    niid_tensor::with_thread_budget(1, || {
        for spec in &specs {
            for algorithm in &algorithms {
                for spans in [false, true] {
                    let one = big_allocs(spec, algorithm, spans, 1);
                    let four = big_allocs(spec, algorithm, spans, 4);
                    assert_eq!(
                        one, four,
                        "{spec:?} {algorithm:?} grad_spans={spans}: model-sized \
                         allocations grew with the step count"
                    );
                    assert!(one > 0, "the counter sees Δw and the optimizer state");
                }
            }
        }
    });
}
