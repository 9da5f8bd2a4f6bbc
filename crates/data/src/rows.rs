//! Pool-parallel row filling that reproduces the sequential stream.
//!
//! A generator draws every row of a dataset from one [`Pcg64`] stream, row
//! after row. [`fill_rows`] cuts the rows into fixed chunks of about
//! [`CHUNK_ELEMS`] features and fills the chunks as tasks on the kernel
//! pool. Each chunk gets its own generator, set to the state the
//! sequential stream has at the chunk's first row: a cheap sequential
//! pre-pass walks the stream with [`RowGen::skip`], which consumes the
//! draws of the rows it passes without computing their features. The
//! output is therefore bit-identical to the sequential loop at any chunk
//! size and thread count — provided each generator's `skip` consumes
//! exactly the draws its `fill` consumes (`tests/golden_generate.rs` pins
//! the bits).

use niid_stats::Pcg64;
use niid_tensor::parallel_chunks_mut;

/// Features per chunk task.
pub(crate) const CHUNK_ELEMS: usize = 1 << 18;

/// A row generator whose rows come from one sequential stream.
pub(crate) trait RowGen: Sync {
    /// Features per row.
    fn dim(&self) -> usize;

    /// Fill one row's features and its label from `rng`. `label` comes in
    /// as the row's pre-drawn label (a class for image rows) and leaves as
    /// the row's final label.
    fn fill(&self, rng: &mut Pcg64, row: &mut [f32], label: &mut usize);

    /// Advance `rng` past `rows` rows, consuming exactly the draws `rows`
    /// calls to [`fill`](Self::fill) would.
    fn skip(&self, rng: &mut Pcg64, rows: usize);
}

/// Fill `labels.len()` rows of `gen` from `rng`, in chunks on the kernel
/// pool; returns the row-major features. On return `rng` is where the
/// sequential row loop would have left it.
pub(crate) fn fill_rows(gen: &impl RowGen, labels: &mut [usize], rng: &mut Pcg64) -> Vec<f32> {
    let dim = gen.dim();
    let n = labels.len();
    // Equal row counts, so two chunks split two threads evenly.
    let chunk_rows = n.div_ceil((n * dim).div_ceil(CHUNK_ELEMS).max(1)).max(1);
    let starts: Vec<Pcg64> = (0..n)
        .step_by(chunk_rows)
        .map(|first| {
            let start = rng.clone();
            gen.skip(rng, chunk_rows.min(n - first));
            start
        })
        .collect();
    let mut features = vec![0.0f32; n * dim];
    let mut chunks: Vec<(&mut [f32], &mut [usize])> = features
        .chunks_mut(chunk_rows * dim)
        .zip(labels.chunks_mut(chunk_rows))
        .collect();
    parallel_chunks_mut(&mut chunks, 1, &|c, chunk| {
        let _sp = niid_prof::span!("data.rows");
        let (rows, labels) = &mut chunk[0];
        let mut rng = starts[c].clone();
        for (row, label) in rows.chunks_exact_mut(dim).zip(labels.iter_mut()) {
            gen.fill(&mut rng, row, label);
        }
    });
    features
}
