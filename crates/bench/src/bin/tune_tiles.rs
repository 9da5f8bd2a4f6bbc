//! Offline tile autotuner for the GEMM/conv dispatch table.
//!
//! Sweeps the cache-blocking candidates (`nc`/`kc`/`mr`) over one
//! representative workload per [`ShapeClass`] and reports the fastest
//! tiles per class. Because tile choices are bits-neutral on the SIMD
//! arms (see `niid_tensor::dispatch`), the sweep measures speed only —
//! it can never change results, so the emitted table needs no numeric
//! re-validation.
//!
//! Modes:
//!
//! - `tune_tiles` — run the sweep, print a per-class report.
//! - `tune_tiles --emit <path>` — run the sweep and overwrite `<path>`
//!   (normally `crates/tensor/src/dispatch_table.rs`) with the generated
//!   table. Run on the target machine with `--release`.
//! - `tune_tiles --check` — no sweep: validate that the committed table
//!   covers every shape class exactly once with legal tiles. The CI
//!   workflow runs this so a stale or malformed table fails the build.

use niid_stats::Pcg64;
use niid_tensor::{
    active_kernel, conv2d_forward_implicit, matmul, matmul_a_bt, tiles_for, tuned_entries,
    validate_tiles, with_forced_tiles, with_thread_budget, Conv2dShape, ConvScratch, ShapeClass,
    Tensor, TileParams,
};
use std::cell::RefCell;
use std::time::Instant;

/// Candidate grid. Products stay within `MAX_PANEL_ELEMS` (256·512 =
/// 128 Ki f32), so every combination passes `validate_tiles`.
const NC_CANDIDATES: [usize; 3] = [64, 128, 256];
const KC_CANDIDATES: [usize; 3] = [128, 256, 512];
const MR_CANDIDATES: [usize; 2] = [2, 4];

/// One representative workload per shape class.
struct Workload {
    class: ShapeClass,
    label: &'static str,
    flops: u64,
    run: Box<dyn Fn()>,
}

fn gemm_workload(class: ShapeClass, label: &'static str, n: usize, bt: bool) -> Workload {
    let mut rng = Pcg64::new(7);
    let a = Tensor::randn(&[n, n], 1.0, &mut rng);
    let b = Tensor::randn(&[n, n], 1.0, &mut rng);
    Workload {
        class,
        label,
        flops: (2 * n * n * n) as u64,
        run: Box::new(move || {
            let c = if bt {
                matmul_a_bt(&a, &b)
            } else {
                matmul(&a, &b)
            };
            std::hint::black_box(&c);
        }),
    }
}

fn conv_workload(class: ShapeClass, label: &'static str, s: Conv2dShape, batch: usize) -> Workload {
    let mut rng = Pcg64::new(9);
    let x = Tensor::randn(&[batch, s.in_channels, s.in_h, s.in_w], 1.0, &mut rng);
    let w = Tensor::randn(&[s.out_channels, s.col_width()], 0.2, &mut rng);
    let b = Tensor::randn(&[s.out_channels], 0.1, &mut rng);
    let scratch = RefCell::new(ConvScratch::new());
    Workload {
        class,
        label,
        flops: (batch * 2 * s.output_numel() * s.col_width()) as u64,
        run: Box::new(move || {
            let y = conv2d_forward_implicit(
                &x,
                w.as_slice(),
                Some(b.as_slice()),
                &s,
                &mut scratch.borrow_mut(),
            );
            std::hint::black_box(&y);
        }),
    }
}

fn workloads() -> Vec<Workload> {
    let conv = |ic, oc, hw, k| Conv2dShape {
        in_channels: ic,
        out_channels: oc,
        in_h: hw,
        in_w: hw,
        kernel_h: k,
        kernel_w: k,
        stride: 1,
        padding: 0,
    };
    vec![
        gemm_workload(ShapeClass::AbSmall, "matmul 48^3", 48, false),
        gemm_workload(ShapeClass::AbMedium, "matmul 128^3", 128, false),
        gemm_workload(ShapeClass::AbLarge, "matmul 256^3", 256, false),
        gemm_workload(ShapeClass::AbtSmall, "a_bt 48^3", 48, true),
        gemm_workload(ShapeClass::AbtMedium, "a_bt 128^3", 128, true),
        gemm_workload(ShapeClass::AbtLarge, "a_bt 256^3", 256, true),
        conv_workload(
            ShapeClass::ConvEarly,
            "conv 3->6 32x32 k5",
            conv(3, 6, 32, 5),
            8,
        ),
        conv_workload(
            ShapeClass::ConvMid,
            "conv 6->16 12x12 k5",
            conv(6, 16, 12, 5),
            8,
        ),
        conv_workload(
            ShapeClass::ConvWide,
            "conv 32->64 16x16 k3",
            conv(32, 64, 16, 3),
            8,
        ),
    ]
}

/// Best-of-reps GFLOP/s for `run` under a single kernel thread, with the
/// iteration count sized so one rep is long enough to time reliably.
fn measure(w: &Workload) -> f64 {
    with_thread_budget(1, || {
        // Warm up and size the rep.
        (w.run)();
        let t0 = Instant::now();
        (w.run)();
        let once = t0.elapsed().as_secs_f64().max(1e-7);
        let iters = ((0.01 / once).ceil() as usize).clamp(1, 10_000);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for _ in 0..iters {
                (w.run)();
            }
            best = best.min(t.elapsed().as_secs_f64() / iters as f64);
        }
        w.flops as f64 / best / 1e9
    })
}

fn sweep() -> Vec<(ShapeClass, TileParams, f64)> {
    let mut out = Vec::new();
    for w in workloads() {
        let mut best = (tiles_for(w.class), 0.0f64);
        for &nc in &NC_CANDIDATES {
            for &kc in &KC_CANDIDATES {
                for &mr in &MR_CANDIDATES {
                    let t = TileParams { nc, kc, mr };
                    let gflops = with_forced_tiles(t, || measure(&w));
                    if gflops > best.1 {
                        best = (t, gflops);
                    }
                }
            }
        }
        println!(
            "{:<12} {:<22} best nc={:<3} kc={:<3} mr={} @ {:.2} GFLOP/s",
            w.class.name(),
            w.label,
            best.0.nc,
            best.0.kc,
            best.0.mr,
            best.1
        );
        out.push((w.class, best.0, best.1));
    }
    out
}

/// Render the generated `dispatch_table.rs` source.
fn render(entries: &[(ShapeClass, TileParams, f64)]) -> String {
    let mut s = String::from(
        "//! Committed tile-dispatch table — GENERATED by `tune_tiles`, do not\n\
         //! edit by hand.\n\
         //!\n\
         //! Regenerate with\n\
         //! `cargo run --release -p niid-bench --bin tune_tiles -- --emit crates/tensor/src/dispatch_table.rs`\n\
         //! and validate coverage with `tune_tiles -- --check` (a CI leg runs the\n\
         //! checker so a stale table fails the build). Entries are speed hints\n\
         //! only: tile choices are bits-neutral on the SIMD arms (see\n\
         //! [`crate::dispatch`] for the argument), so an outdated table can cost\n\
         //! throughput but can never change results.\n\n\
         use crate::dispatch::{ShapeClass, TileParams};\n\n\
         /// Tuned `(class, tiles)` pairs, one entry per [`ShapeClass`].\n\
         pub(crate) static TUNED: &[(ShapeClass, TileParams)] = &[\n",
    );
    for (class, t, _) in entries {
        s.push_str(&format!(
            "    (\n        ShapeClass::{},\n        TileParams {{\n            nc: {},\n            kc: {},\n            mr: {},\n        }},\n    ),\n",
            class.name(),
            t.nc,
            t.kc,
            t.mr
        ));
    }
    s.push_str("];\n");
    s
}

/// Validate the committed table: every class exactly once, legal tiles.
fn check() -> Result<(), String> {
    let table = tuned_entries();
    for class in ShapeClass::ALL {
        let hits = table.iter().filter(|(c, _)| *c == class).count();
        if hits != 1 {
            return Err(format!(
                "class {} appears {hits} times in the committed table (want exactly 1)",
                class.name()
            ));
        }
    }
    for (class, tiles) in table {
        validate_tiles(tiles).map_err(|e| format!("class {}: {e}", class.name()))?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        match check() {
            Ok(()) => {
                println!(
                    "dispatch table ok: {} classes covered with legal tiles",
                    ShapeClass::ALL.len()
                );
            }
            Err(e) => {
                eprintln!("dispatch table invalid: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if !active_kernel().is_simd() {
        eprintln!(
            "tune_tiles: the scalar arm never consults the dispatch table; \
             run on an AVX2 machine without NIID_SIMD=scalar"
        );
        std::process::exit(1);
    }

    let emit_path = args
        .iter()
        .position(|a| a == "--emit")
        .map(|i| args.get(i + 1).cloned().expect("--emit needs a path"));
    let results = sweep();
    if let Some(path) = emit_path {
        std::fs::write(&path, render(&results)).expect("write dispatch table");
        println!("wrote {path}");
    }
}
