//! Server-side aggregation rules (Algorithm 1 lines 9–10, Algorithm 2
//! lines 9–10).
//!
//! ## Hierarchical (blocked) reduction
//!
//! Every rule reduces a cohort of update vectors into one global vector:
//! `O(cohort · params)` multiply–adds that dominate server time once the
//! cohort reaches cross-device sizes. The merge is organized as a
//! two-level hierarchy — the parameter vector is cut into fixed
//! [`REDUCE_BLOCK`]-element blocks fanned out on the `niid-tensor`
//! work-stealing pool, and each block folds the whole cohort serially —
//! so wall-clock drops by the thread count while **every element's
//! floating-point accumulation order stays exactly the pre-blocking
//! serial order** (a function of the cohort order alone, never of the
//! thread count or block width). A literal pairwise tree over parties
//! would cut the *depth* to `O(log cohort)` but re-associate f32 sums and
//! break the engine's bit-identical determinism contract; the blocked
//! form keeps the contract and parallelizes the dimension that is
//! actually large.

use crate::compress::DecodedUpdate;
use crate::local::LocalOutcome;
use niid_tensor::parallel_chunks_mut;

/// Elements per reduction block. Fixed (never derived from the thread
/// count) so the work decomposition — and therefore scheduling — is
/// reproducible; 8k f32 ≈ 32 KiB keeps a block plus one update slice
/// comfortably in L1/L2 while a typical model still yields enough blocks
/// to feed every worker.
const REDUCE_BLOCK: usize = 8192;

/// One party's update as the merge consumes it: either a full vector or
/// the `(index, value)` runs a sparse codec delivered. Sparse indices are
/// strictly increasing (the codec's decode validates this), which lets
/// each reduction block binary-search its index range instead of
/// densifying the update per party.
#[derive(Debug, Clone, Copy)]
pub enum UpdateRef<'a> {
    /// Every coordinate present; length equals the global vector's.
    Dense(&'a [f32]),
    /// Surviving coordinates only, ascending and in range.
    Sparse {
        /// Coordinate positions.
        indices: &'a [u32],
        /// Values at those positions.
        values: &'a [f32],
    },
}

impl<'a> From<&'a DecodedUpdate> for UpdateRef<'a> {
    fn from(d: &'a DecodedUpdate) -> Self {
        match d {
            DecodedUpdate::Dense(v) => UpdateRef::Dense(v),
            DecodedUpdate::Sparse { indices, values } => UpdateRef::Sparse { indices, values },
        }
    }
}

impl UpdateRef<'_> {
    fn assert_len(&self, n: usize) {
        match self {
            UpdateRef::Dense(v) => assert_eq!(
                v.len(),
                n,
                "aggregate: delta length mismatch (party outcome {} vs global {})",
                v.len(),
                n
            ),
            UpdateRef::Sparse { indices, values } => {
                assert_eq!(
                    indices.len(),
                    values.len(),
                    "aggregate: ragged sparse update"
                );
                if let Some(&last) = indices.last() {
                    assert!((last as usize) < n, "aggregate: sparse index out of range");
                }
            }
        }
    }
}

/// Fold `out[e] += Σᵢ wᵢ · vᵢ[e]` over the `(wᵢ, vᵢ)` terms, in term
/// order per element, parallelized across fixed parameter blocks.
///
/// Sparse terms contribute only the coordinates they carry — each block
/// locates its index run by binary search, so a sparse party costs
/// `O(log k + k_block)` per block rather than `O(block)`. Per element the
/// accumulation order is still exactly the term order (absent coordinates
/// simply add nothing), so the dense arm reproduces the historical serial
/// fold bit-for-bit at any thread count.
fn blocked_fold(out: &mut [f32], terms: &[(f32, UpdateRef<'_>)]) {
    if out.is_empty() || terms.is_empty() {
        return;
    }
    let _sp = niid_prof::span!("agg.sparse_merge");
    parallel_chunks_mut(out, REDUCE_BLOCK, &|b, chunk| {
        let off = b * REDUCE_BLOCK;
        let len = chunk.len();
        for &(w, u) in terms {
            match u {
                UpdateRef::Dense(v) => {
                    for (g, &d) in chunk.iter_mut().zip(&v[off..off + len]) {
                        *g += w * d;
                    }
                }
                UpdateRef::Sparse { indices, values } => {
                    let lo = indices.partition_point(|&i| (i as usize) < off);
                    let hi = indices.partition_point(|&i| (i as usize) < off + len);
                    for (&i, &v) in indices[lo..hi].iter().zip(&values[lo..hi]) {
                        chunk[i as usize - off] += w * v;
                    }
                }
            }
        }
    });
}

/// Dense-only convenience wrapper over [`blocked_fold`].
fn blocked_fold_dense(out: &mut [f32], terms: &[(f32, &[f32])]) {
    let terms: Vec<(f32, UpdateRef<'_>)> = terms
        .iter()
        .map(|&(w, v)| (w, UpdateRef::Dense(v)))
        .collect();
    blocked_fold(out, &terms);
}

/// Plain sample-weighted averaging of local updates:
/// `wᵗ⁺¹ = wᵗ − η Σᵢ (|Dᵢ|/n) Δwᵢ` (Algorithm 1 line 9) — used by FedAvg,
/// FedProx and SCAFFOLD. `server_lr` is the server-side `η`; the paper's
/// experiments (and plain FedAvg) use `η = 1`, which makes the update an
/// exact weighted average of the local models.
///
/// Mutates `global` in place.
pub fn weighted_average(global: &mut [f32], outcomes: &[LocalOutcome], server_lr: f32) {
    let updates: Vec<UpdateRef<'_>> = outcomes
        .iter()
        .map(|o| UpdateRef::Dense(&o.delta))
        .collect();
    weighted_average_updates(global, outcomes, &updates, server_lr);
}

/// [`weighted_average`] over codec-decoded updates: `updates[i]` stands in
/// for `outcomes[i].delta` (which a lossy wire never delivered), weights
/// still come from the outcomes' sample counts. Sparse updates aggregate
/// without densifying.
pub fn weighted_average_updates(
    global: &mut [f32],
    outcomes: &[LocalOutcome],
    updates: &[UpdateRef<'_>],
    server_lr: f32,
) {
    assert!(!outcomes.is_empty(), "aggregate: no local outcomes");
    assert_eq!(
        outcomes.len(),
        updates.len(),
        "aggregate: update count mismatch"
    );
    assert!(
        server_lr.is_finite() && server_lr > 0.0,
        "aggregate: server_lr must be positive"
    );
    let n: f64 = outcomes.iter().map(|o| o.n_samples as f64).sum();
    assert!(n > 0.0, "aggregate: zero total samples");
    let terms: Vec<(f32, UpdateRef<'_>)> = outcomes
        .iter()
        .zip(updates)
        .map(|(o, &u)| {
            u.assert_len(global.len());
            // `g += (-w)·d` is bit-identical to the historical `g -= w·d`
            // (IEEE sign negation commutes with multiply exactly).
            let w = server_lr * (o.n_samples as f64 / n) as f32;
            (-w, u)
        })
        .collect();
    blocked_fold(global, &terms);
}

/// FedNova's normalized averaging (Algorithm 1 line 10):
///
/// `wᵗ⁺¹ = wᵗ − η (Σᵢ |Dᵢ| τᵢ / n) · Σᵢ (|Dᵢ| Δwᵢ) / (n τᵢ)`
///
/// Each local update is first normalized by its own step count `τᵢ`
/// (removing the bias toward parties that took more steps) and the
/// aggregate is rescaled by the average effective step count.
pub fn fednova_average(global: &mut [f32], outcomes: &[LocalOutcome], server_lr: f32) {
    let updates: Vec<UpdateRef<'_>> = outcomes
        .iter()
        .map(|o| UpdateRef::Dense(&o.delta))
        .collect();
    fednova_average_updates(global, outcomes, &updates, server_lr);
}

/// [`fednova_average`] over codec-decoded updates (see
/// [`weighted_average_updates`]).
pub fn fednova_average_updates(
    global: &mut [f32],
    outcomes: &[LocalOutcome],
    updates: &[UpdateRef<'_>],
    server_lr: f32,
) {
    assert!(!outcomes.is_empty(), "aggregate: no local outcomes");
    assert_eq!(
        outcomes.len(),
        updates.len(),
        "aggregate: update count mismatch"
    );
    assert!(
        server_lr.is_finite() && server_lr > 0.0,
        "aggregate: server_lr must be positive"
    );
    let n: f64 = outcomes.iter().map(|o| o.n_samples as f64).sum();
    assert!(n > 0.0, "aggregate: zero total samples");
    let coeff: f64 = outcomes
        .iter()
        .map(|o| o.n_samples as f64 * o.tau as f64)
        .sum::<f64>()
        / n;
    let terms: Vec<(f32, UpdateRef<'_>)> = outcomes
        .iter()
        .zip(updates)
        .map(|(o, &u)| {
            assert!(o.tau > 0, "aggregate: party took zero steps");
            u.assert_len(global.len());
            let w = server_lr * (coeff * o.n_samples as f64 / (n * o.tau as f64)) as f32;
            (-w, u)
        })
        .collect();
    blocked_fold(global, &terms);
}

/// SCAFFOLD's server control-variate update (Algorithm 2 line 10):
/// `cᵗ⁺¹ = cᵗ + (1/N) Σᵢ Δcᵢ` where `N` is the **total** party count
/// (not just the sampled ones).
pub fn scaffold_update_c(server_c: &mut [f32], outcomes: &[LocalOutcome], total_parties: usize) {
    assert!(total_parties > 0, "aggregate: zero parties");
    let inv_n = 1.0 / total_parties as f32;
    let terms: Vec<(f32, &[f32])> = outcomes
        .iter()
        .map(|o| {
            assert_eq!(
                o.delta_c.len(),
                server_c.len(),
                "aggregate: delta_c length mismatch"
            );
            (inv_n, o.delta_c.as_slice())
        })
        .collect();
    blocked_fold_dense(server_c, &terms);
}

/// Sample-weighted averaging of BatchNorm buffers (running statistics).
/// Returns `None` when models have no buffers.
pub fn average_buffers(outcomes: &[LocalOutcome]) -> Option<Vec<f32>> {
    let len = outcomes.first().map(|o| o.buffers.len())?;
    if len == 0 {
        return None;
    }
    let n: f64 = outcomes.iter().map(|o| o.n_samples as f64).sum();
    let mut out = vec![0.0f32; len];
    let terms: Vec<(f32, &[f32])> = outcomes
        .iter()
        .map(|o| {
            assert_eq!(o.buffers.len(), len, "aggregate: buffer length mismatch");
            ((o.n_samples as f64 / n) as f32, o.buffers.as_slice())
        })
        .collect();
    blocked_fold_dense(&mut out, &terms);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(delta: Vec<f32>, tau: usize, n: usize) -> LocalOutcome {
        LocalOutcome {
            delta,
            tau,
            n_samples: n,
            avg_loss: 0.0,
            buffers: Vec::new(),
            delta_c: Vec::new(),
            wall_ms: 0.0,
            layer_grad_sq: Vec::new(),
        }
    }

    #[test]
    fn weighted_average_respects_sizes() {
        let mut global = vec![1.0f32, 1.0];
        let outcomes = vec![
            outcome(vec![1.0, 0.0], 5, 30),
            outcome(vec![0.0, 1.0], 5, 10),
        ];
        weighted_average(&mut global, &outcomes, 1.0);
        // w1 = 0.75, w2 = 0.25.
        assert!((global[0] - 0.25).abs() < 1e-6);
        assert!((global[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn equal_taus_make_fednova_equal_fedavg() {
        // When every party takes the same number of steps, FedNova's
        // normalization cancels exactly (coeff = τ, w = n_i/(n) · τ/τ).
        let outcomes = vec![
            outcome(vec![0.5, -1.0], 4, 20),
            outcome(vec![-0.25, 2.0], 4, 60),
        ];
        let mut a = vec![0.0f32, 0.0];
        let mut b = vec![0.0f32, 0.0];
        weighted_average(&mut a, &outcomes, 1.0);
        fednova_average(&mut b, &outcomes, 1.0);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn fednova_downweights_many_step_parties() {
        // Two equal-size parties; party 0 took 10x the steps and produced a
        // 10x larger delta (as drift would). FedNova should treat their
        // *per-step* contributions equally, FedAvg should not.
        let outcomes = vec![outcome(vec![10.0], 10, 50), outcome(vec![1.0], 1, 50)];
        let mut avg = vec![0.0f32];
        weighted_average(&mut avg, &outcomes, 1.0);
        let mut nova = vec![0.0f32];
        fednova_average(&mut nova, &outcomes, 1.0);
        // FedAvg: -(0.5*10 + 0.5*1) = -5.5.
        assert!((avg[0] + 5.5).abs() < 1e-6);
        // FedNova: coeff = (50*10+50*1)/100 = 5.5 ; update = 5.5 * (0.5*10/10 + 0.5*1/1) = 5.5.
        assert!((nova[0] + 5.5).abs() < 1e-5);
        // Same total magnitude here but balanced across parties: verify the
        // per-party normalized weights differ from FedAvg by reweighting a
        // one-sided case.
        let one_sided = vec![outcome(vec![10.0], 10, 50), outcome(vec![0.0], 1, 50)];
        let mut avg2 = vec![0.0f32];
        weighted_average(&mut avg2, &one_sided, 1.0);
        let mut nova2 = vec![0.0f32];
        fednova_average(&mut nova2, &one_sided, 1.0);
        assert!((avg2[0] + 5.0).abs() < 1e-6);
        assert!(
            (nova2[0] + 2.75).abs() < 1e-5,
            "fednova should shrink the many-step party's influence, got {}",
            nova2[0]
        );
    }

    #[test]
    fn scaffold_c_update_divides_by_total_parties() {
        let mut c = vec![0.0f32, 0.0];
        let outcomes = vec![LocalOutcome {
            delta: vec![0.0, 0.0],
            tau: 1,
            n_samples: 10,
            avg_loss: 0.0,
            buffers: Vec::new(),
            delta_c: vec![10.0, -10.0],
            wall_ms: 0.0,
            layer_grad_sq: Vec::new(),
        }];
        scaffold_update_c(&mut c, &outcomes, 10);
        assert!((c[0] - 1.0).abs() < 1e-6);
        assert!((c[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn buffer_average_weights_by_samples() {
        let mut o1 = outcome(vec![0.0], 1, 10);
        o1.buffers = vec![1.0, 0.0];
        let mut o2 = outcome(vec![0.0], 1, 30);
        o2.buffers = vec![0.0, 2.0];
        let avg = average_buffers(&[o1, o2]).unwrap();
        assert!((avg[0] - 0.25).abs() < 1e-6);
        assert!((avg[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn buffer_average_none_for_buffer_free_models() {
        let o = outcome(vec![0.0], 1, 10);
        assert!(average_buffers(&[o]).is_none());
        assert!(average_buffers(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "no local outcomes")]
    fn empty_aggregation_panics() {
        weighted_average(&mut [0.0], &[], 1.0);
    }

    #[test]
    fn server_lr_scales_the_update() {
        let outcomes = vec![outcome(vec![1.0], 1, 10)];
        let mut full = vec![0.0f32];
        weighted_average(&mut full, &outcomes, 1.0);
        let mut half = vec![0.0f32];
        weighted_average(&mut half, &outcomes, 0.5);
        assert!((half[0] - 0.5 * full[0]).abs() < 1e-7);
        let mut nova = vec![0.0f32];
        fednova_average(&mut nova, &outcomes, 0.5);
        assert!((nova[0] - half[0]).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "server_lr must be positive")]
    fn zero_server_lr_panics() {
        weighted_average(&mut [0.0], &[outcome(vec![0.0], 1, 1)], 0.0);
    }

    #[test]
    fn sparse_merge_matches_densified_reference_at_any_width() {
        // A mixed cohort — two sparse parties, one dense — must produce
        // exactly what densifying every sparse update first would, at any
        // thread budget (blocks only ever add coordinates they own, in
        // term order).
        let len = REDUCE_BLOCK + 777;
        let mut rng = niid_stats::Pcg64::new(0x5AB5);
        let mut noise =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect() };
        let global0 = noise(len);
        let dense_delta = noise(len);
        // Sparse parties: every 3rd (resp. 7th) coordinate carries a value.
        let sp = |stride: usize, vals: &[f32]| -> (Vec<u32>, Vec<f32>) {
            let idx: Vec<u32> = (0..len).step_by(stride).map(|i| i as u32).collect();
            let v: Vec<f32> = idx.iter().map(|&i| vals[i as usize]).collect();
            (idx, v)
        };
        let src_a = noise(len);
        let src_b = noise(len);
        let (ia, va) = sp(3, &src_a);
        let (ib, vb) = sp(7, &src_b);

        let outcomes = vec![
            outcome(dense_delta.clone(), 2, 10),
            outcome(Vec::new(), 2, 30),
            outcome(Vec::new(), 2, 25),
        ];
        let updates = [
            UpdateRef::Dense(&dense_delta),
            UpdateRef::Sparse {
                indices: &ia,
                values: &va,
            },
            UpdateRef::Sparse {
                indices: &ib,
                values: &vb,
            },
        ];

        // Reference: densify, then run the historical dense path.
        let densified: Vec<Vec<f32>> = updates
            .iter()
            .map(|u| match *u {
                UpdateRef::Dense(v) => v.to_vec(),
                UpdateRef::Sparse { indices, values } => {
                    let mut out = vec![0f32; len];
                    for (&i, &v) in indices.iter().zip(values) {
                        out[i as usize] = v;
                    }
                    out
                }
            })
            .collect();
        let dense_outcomes: Vec<LocalOutcome> = outcomes
            .iter()
            .zip(&densified)
            .map(|(o, d)| outcome(d.clone(), o.tau, o.n_samples))
            .collect();
        let mut reference = global0.clone();
        weighted_average(&mut reference, &dense_outcomes, 1.0);

        for budget in [1, 4] {
            let mut got = global0.clone();
            niid_tensor::with_thread_budget(budget, || {
                weighted_average_updates(&mut got, &outcomes, &updates, 1.0);
            });
            for e in 0..len {
                assert_eq!(
                    reference[e].to_bits(),
                    got[e].to_bits(),
                    "element {e} at budget {budget}"
                );
            }
        }

        // FedNova over the same mixed cohort agrees with its dense self.
        let mut nova_ref = global0.clone();
        fednova_average(&mut nova_ref, &dense_outcomes, 0.5);
        let mut nova = global0.clone();
        fednova_average_updates(&mut nova, &outcomes, &updates, 0.5);
        for e in 0..len {
            assert_eq!(
                nova_ref[e].to_bits(),
                nova[e].to_bits(),
                "fednova element {e}"
            );
        }
    }

    #[test]
    fn blocked_reduction_matches_serial_bit_for_bit_at_any_width() {
        // A global vector spanning several reduction blocks (plus a
        // ragged tail), reduced over a 7-party cohort: the blocked
        // parallel fold must reproduce the historical serial loop exactly
        // — per element, per bit — whatever the thread budget.
        let len = REDUCE_BLOCK * 2 + 123;
        let mut rng = niid_stats::Pcg64::new(0xB10C);
        let mut noise =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect() };
        let global0 = noise(len);
        let outcomes: Vec<LocalOutcome> = (0..7)
            .map(|i| outcome(noise(len), 3 + i % 2, 10 + 7 * i))
            .collect();

        // Reference: the pre-blocking serial implementation.
        let mut reference = global0.clone();
        let n: f64 = outcomes.iter().map(|o| o.n_samples as f64).sum();
        for o in &outcomes {
            let w = 0.7 * (o.n_samples as f64 / n) as f32;
            for (g, &d) in reference.iter_mut().zip(&o.delta) {
                *g -= w * d;
            }
        }

        let mut sequential = global0.clone();
        niid_tensor::with_thread_budget(1, || {
            weighted_average(&mut sequential, &outcomes, 0.7);
        });
        let mut parallel = global0.clone();
        weighted_average(&mut parallel, &outcomes, 0.7);

        for e in 0..len {
            assert_eq!(
                reference[e].to_bits(),
                sequential[e].to_bits(),
                "element {e}: blocked(1 thread) diverged from serial"
            );
            assert_eq!(
                reference[e].to_bits(),
                parallel[e].to_bits(),
                "element {e}: blocked(full budget) diverged from serial"
            );
        }
    }
}
