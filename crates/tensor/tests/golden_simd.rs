//! Golden SIMD bits: one pinned FNV-1a digest per `simd` primitive and
//! kernel arm.
//!
//! The unit tests in `simd.rs` compare each arm against the scalar loop,
//! and two primitives (`sum`, `sgd_momentum_step`) only within a
//! tolerance. These constants pin the exact output of every arm, so a
//! rewrite of an arm's body — hand-written intrinsics or a compiled
//! loop — has to reproduce it bit for bit.
//!
//! Each primitive runs over lengths 0–40, 63–65, 1 000 and 4 099, each
//! at start offsets 0–7 into a larger buffer (the compiled loops and the
//! intrinsics handle alignment differently), once on finite inputs (with
//! ±0 and subnormals) and once with ±∞ and NaN mixed in. NaN payloads
//! are not part of the contract, so every NaN hashes as one canonical
//! pattern.

use niid_stats::Pcg64;
use niid_tensor::simd::{self, Kernel};
use std::ops::Range;

/// `(primitive, [scalar, avx2])` digests over the whole sweep.
const PINNED: [(&str, [u64; 2]); 15] = [
    ("add_assign", [0xb4aa9e68d1d673ba, 0xb4aa9e68d1d673ba]),
    (
        "add_scalar_assign",
        [0xfa683b970984b2a8, 0xfa683b970984b2a8],
    ),
    ("scale_assign", [0xd62b43b7dfce0819, 0xd62b43b7dfce0819]),
    ("relu_into", [0xf8ac0b950caf86c6, 0xf8ac0b950caf86c6]),
    ("relu_assign", [0xf8ac0b950caf86c6, 0xf8ac0b950caf86c6]),
    (
        "relu_backward_into",
        [0x1f30fea8a537b518, 0x1f30fea8a537b518],
    ),
    ("sum", [0x64079242dd742693, 0x892834d7c4475cae]),
    ("sum_sq_f64", [0x6da98229c63fcaa2, 0x6da98229c63fcaa2]),
    (
        "sgd_momentum_step",
        [0xf848aa2b5f9dabdb, 0x9b9f83332ce2ea2e],
    ),
    ("max_abs", [0x607c24f92aa4ad10, 0x607c24f92aa4ad10]),
    (
        "quantize_stochastic_i8",
        [0x427561aa1ee94616, 0x427561aa1ee94616],
    ),
    ("dequantize_i8", [0x5073322eff05443a, 0x5073322eff05443a]),
    ("topk_select", [0x0c8295f20c64fd1b, 0x0c8295f20c64fd1b]),
    (
        "broadcast_add_rows",
        [0xf16ab561cbce18cc, 0xf16ab561cbce18cc],
    ),
    ("accumulate_rows", [0xb0428d772080f499, 0xb0428d772080f499]),
];

const MAX_LEN: usize = 4099;
const OFFSETS: usize = 8;

fn lens() -> impl Iterator<Item = usize> {
    (0..=40).chain([63, 64, 65, 1000, MAX_LEN])
}

/// FNV-1a over little-endian words, NaN canonicalized.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            let bits = if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() };
            self.bytes(&bits.to_le_bytes());
        }
    }

    fn f64(&mut self, v: f64) {
        let bits = if v.is_nan() {
            0x7ff8_0000_0000_0000
        } else {
            v.to_bits()
        };
        self.bytes(&bits.to_le_bytes());
    }
}

/// Three f32 operand buffers and one i8 buffer, `MAX_LEN + OFFSETS` long.
struct Inputs {
    a: Vec<f32>,
    b: Vec<f32>,
    v: Vec<f32>,
    q: Vec<i8>,
}

fn inputs(poisoned: bool) -> Inputs {
    let mut rng = Pcg64::new(if poisoned { 0x051A_DBAD } else { 0x51AD_600D });
    let n = MAX_LEN + OFFSETS;
    let value = |rng: &mut Pcg64| match rng.next_below(24) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(1 + rng.next_below(0x7F_FFFF) as u32),
        3 => -f32::from_bits(1 + rng.next_below(0x7F_FFFF) as u32),
        4 if poisoned => f32::INFINITY,
        5 if poisoned => f32::NEG_INFINITY,
        6 if poisoned => f32::NAN,
        _ => rng.next_f32() * 4.0 - 2.0,
    };
    let a = (0..n).map(|_| value(&mut rng)).collect();
    let b = (0..n).map(|_| value(&mut rng)).collect();
    let v = (0..n).map(|_| value(&mut rng)).collect();
    let q = (0..n).map(|_| rng.next_u32() as u8 as i8).collect();
    Inputs { a, b, v, q }
}

/// A copy of `src[..r.end]`, so the window `r` keeps its offset from the
/// allocation's start.
fn copy(src: &[f32], r: &Range<usize>) -> Vec<f32> {
    src[..r.end].to_vec()
}

/// Run primitive `name` on kernel `k` over window `r` and hash its output.
fn probe(name: &str, k: Kernel, inp: &Inputs, r: Range<usize>, h: &mut Fnv) {
    let (a, b) = (&inp.a[r.clone()], &inp.b[r.clone()]);
    match name {
        "add_assign" => {
            let mut c = copy(&inp.a, &r);
            simd::add_assign(k, &mut c[r.clone()], b);
            h.f32s(&c[r]);
        }
        "add_scalar_assign" => {
            let mut c = copy(&inp.a, &r);
            simd::add_scalar_assign(k, &mut c[r.clone()], -0.3);
            h.f32s(&c[r]);
        }
        "scale_assign" => {
            let mut c = copy(&inp.a, &r);
            simd::scale_assign(k, &mut c[r.clone()], 1.7);
            h.f32s(&c[r]);
        }
        "relu_into" => {
            let mut d = copy(&inp.v, &r);
            simd::relu_into(k, a, &mut d[r.clone()]);
            h.f32s(&d[r]);
        }
        "relu_assign" => {
            let mut c = copy(&inp.a, &r);
            simd::relu_assign(k, &mut c[r.clone()]);
            h.f32s(&c[r]);
        }
        "relu_backward_into" => {
            let mut d = copy(&inp.v, &r);
            simd::relu_backward_into(k, b, a, &mut d[r.clone()]);
            h.f32s(&d[r]);
        }
        "sum" => h.f32s(&[simd::sum(k, a)]),
        "sum_sq_f64" => h.f64(simd::sum_sq_f64(k, a)),
        "sgd_momentum_step" => {
            let (mut p, mut v) = (copy(&inp.a, &r), copy(&inp.v, &r));
            for _ in 0..3 {
                simd::sgd_momentum_step(k, &mut p[r.clone()], b, &mut v[r.clone()], 0.1, 0.9, 1e-4);
            }
            h.f32s(&p[r.clone()]);
            h.f32s(&v[r]);
        }
        "max_abs" => h.f32s(&[simd::max_abs(k, a)]),
        "quantize_stochastic_i8" => {
            for (levels, seed) in [(128, 9), (16, 0xDEAD_BEEF_0000_0001)] {
                let mut q = vec![0i8; r.end];
                let scale = simd::quantize_stochastic_i8(k, a, levels, seed, &mut q[r.clone()]);
                h.f32s(&[scale]);
                h.bytes(&q[r.clone()].iter().map(|&v| v as u8).collect::<Vec<_>>());
            }
        }
        "dequantize_i8" => {
            let mut d = copy(&inp.v, &r);
            simd::dequantize_i8(k, &inp.q[r.clone()], 0.75, 128, &mut d[r.clone()]);
            h.f32s(&d[r]);
        }
        "topk_select" => {
            let idx = simd::topk_select(k, a, r.len() / 4 + 1);
            h.bytes(&idx.iter().flat_map(|i| i.to_le_bytes()).collect::<Vec<_>>());
        }
        // The window as rows of `w = len % 5 + 1` columns (a tail shorter
        // than a row is left out), against a `w`-wide bias at its start.
        "broadcast_add_rows" => {
            let (w, mut c) = (r.len() % 5 + 1, copy(&inp.a, &r));
            let rows = r.start..r.start + r.len() / w * w;
            simd::broadcast_add_rows(k, &mut c[rows.clone()], &inp.b[r.start..r.start + w]);
            h.f32s(&c[rows]);
        }
        "accumulate_rows" => {
            let w = r.len() % 5 + 1;
            let mut acc = inp.v[r.start..r.start + w].to_vec();
            simd::accumulate_rows(k, &mut acc, &a[..r.len() / w * w]);
            h.f32s(&acc);
        }
        _ => panic!("no probe for {name}"),
    }
}

fn digest(name: &str, k: Kernel, sets: &[Inputs]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for inp in sets {
        for len in lens() {
            for off in 0..OFFSETS {
                probe(name, k, inp, off..off + len, &mut h);
            }
        }
    }
    h.0
}

#[test]
fn every_primitive_bits_are_pinned_on_every_kernel() {
    let sets = [inputs(false), inputs(true)];
    let mut moved = Vec::new();
    for (name, want) in PINNED {
        for k in Kernel::available_kernels() {
            let want = want[usize::from(k == Kernel::Avx2)];
            let got = digest(name, k, &sets);
            if got != want {
                moved.push(format!(
                    "{name} {}: got {got:#018x}, pinned {want:#018x}",
                    k.name()
                ));
            }
        }
    }
    assert!(moved.is_empty(), "moved digests:\n{}", moved.join("\n"));
}
