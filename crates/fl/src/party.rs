//! A party (data silo) in the federation, plus the cohort-on-demand
//! abstraction that lets the engine run cross-device populations
//! (100k–1M parties) without holding per-party state for anyone outside
//! the round's sampled cohort.

use niid_data::Dataset;
use niid_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One data silo: an id plus its local training data. The local dataset is
/// fully materialized (feature transforms such as the noise-based skew are
/// applied by the partitioner before parties are built).
#[derive(Debug, Clone)]
pub struct Party {
    /// Stable party index (`P₁ … P_N` in the paper, zero-based here).
    pub id: usize,
    /// The silo's local training data.
    pub data: Dataset,
}

impl Party {
    /// Create a party.
    pub fn new(id: usize, data: Dataset) -> Self {
        Self { id, data }
    }

    /// Local dataset size `|Dᵢ|`.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// Materialize a training mini-batch from row indices: a
    /// model-input-shaped tensor plus the matching labels.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let flat = self.data.features.gather_rows(indices);
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.data.input_shape);
        let x = flat.reshape(&shape);
        let labels = indices.iter().map(|&i| self.data.labels[i]).collect();
        (x, labels)
    }
}

/// A source of parties the engine can materialize on demand.
///
/// The engine only ever needs three things per party: its size (for the
/// LPT schedule and the sample-weighted aggregation), its dataset when —
/// and only when — it is in the round's sampled cohort, and the shared
/// shape metadata. A provider backed by a seeded lazy partition
/// regenerates a party's dataset view from `(partition seed, party id)`
/// at materialization time, so peak memory is proportional to the cohort
/// (workers hold at most one materialized party each), never to `N`.
///
/// Contract: `materialize(id)` must be deterministic in `id` (the engine
/// may rebuild the same party in any round, on any thread, and expects
/// bit-identical data), and every party must be non-empty with
/// `input_shape()`/`num_classes()` matching the provider-wide values —
/// the engine validates those once per run, not per party.
pub trait PartyProvider: Send + Sync {
    /// Total population size `N`.
    fn n_parties(&self) -> usize;
    /// `|Dᵢ|` without materializing the dataset (must be O(1)-ish: the
    /// engine calls this for every sampled party every round).
    fn num_samples(&self, id: usize) -> usize;
    /// Per-sample feature shape shared by all parties.
    fn input_shape(&self) -> &[usize];
    /// Label-space size shared by all parties.
    fn num_classes(&self) -> usize;
    /// Build party `id`'s dataset view. Called only for sampled parties.
    fn materialize(&self, id: usize) -> Party;
    /// Lend party `id` for the duration of one training. The default
    /// materializes it under a `party.materialize` span and owns it,
    /// charging the [`residency`] gauge until the handle drops; a
    /// provider that already holds its parties lends them instead.
    fn party(&self, id: usize) -> PartyRef<'_> {
        let _sp = niid_prof::span!("party.materialize");
        PartyRef::Owned(OwnedParty::new(self.materialize(id)))
    }
}

/// Bytes of party-resident state currently materialized on demand.
static RESIDENT_BYTES: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`RESIDENT_BYTES`] since the last reset.
static RESIDENT_PEAK: AtomicUsize = AtomicUsize::new(0);

/// Process-wide gauge of on-demand party residency — the "resident-set
/// proxy" the `exp scale` sweep reports. Only parties materialized
/// on demand count; parties lent by a [`ResidentProvider`] contribute
/// nothing (their residency is trivially `N`).
pub mod residency {
    use super::{Ordering, RESIDENT_BYTES, RESIDENT_PEAK};

    /// Bytes of provider-materialized party data currently alive.
    pub fn current_bytes() -> usize {
        RESIDENT_BYTES.load(Ordering::Relaxed)
    }

    /// High-water mark since the last [`reset_peak`].
    pub fn peak_bytes() -> usize {
        RESIDENT_PEAK.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the current residency.
    pub fn reset_peak() {
        RESIDENT_PEAK.store(RESIDENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub(super) fn add(bytes: usize) {
        let now = RESIDENT_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        RESIDENT_PEAK.fetch_max(now, Ordering::Relaxed);
    }

    pub(super) fn sub(bytes: usize) {
        RESIDENT_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// Approximate heap footprint of a party's dataset view (features +
/// labels), for the residency gauge.
fn party_bytes(p: &Party) -> usize {
    p.data.features.numel() * std::mem::size_of::<f32>()
        + p.data.labels.len() * std::mem::size_of::<usize>()
}

/// A party handle that is either borrowed from a provider's resident
/// storage or owned because a [`PartyProvider`] just materialized it.
/// Owned parties register with the [`residency`] gauge for their lifetime.
pub enum PartyRef<'a> {
    /// Borrowed from resident storage ([`ResidentProvider`]).
    Borrowed(&'a Party),
    /// Materialized on demand; dropped (and its bytes released) as soon
    /// as the worker finishes the party's local training.
    Owned(OwnedParty),
}

/// An on-demand party plus its gauge registration.
pub struct OwnedParty {
    party: Party,
    bytes: usize,
}

impl OwnedParty {
    /// Wrap a freshly materialized party, charging the residency gauge.
    pub fn new(party: Party) -> Self {
        let bytes = party_bytes(&party);
        residency::add(bytes);
        OwnedParty { party, bytes }
    }
}

impl Drop for OwnedParty {
    fn drop(&mut self) {
        residency::sub(self.bytes);
    }
}

impl std::ops::Deref for PartyRef<'_> {
    type Target = Party;

    fn deref(&self) -> &Party {
        match self {
            PartyRef::Borrowed(p) => p,
            PartyRef::Owned(o) => &o.party,
        }
    }
}

/// A [`PartyProvider`] over fully resident parties — how a classic
/// `Vec<Party>` population reaches the engine
/// ([`FedSim::new`](crate::engine::FedSim::new)) or a distributed
/// [`PartyHost`](crate::net::PartyHost). [`party`](PartyProvider::party)
/// lends the resident dataset without copying or touching the
/// [`residency`] gauge; `materialize` clones, so the provider contract
/// (deterministic, repeatable) holds trivially.
pub struct ResidentProvider {
    parties: Vec<Party>,
}

impl ResidentProvider {
    /// Wrap a resident population. Parties must be dense and ordered:
    /// `parties[i].id == i`, exactly what `niid-core`'s `build_parties`
    /// produces.
    pub fn new(parties: Vec<Party>) -> Self {
        for (i, p) in parties.iter().enumerate() {
            assert_eq!(p.id, i, "ResidentProvider: parties must be id-ordered");
        }
        ResidentProvider { parties }
    }
}

impl PartyProvider for ResidentProvider {
    fn n_parties(&self) -> usize {
        self.parties.len()
    }

    fn num_samples(&self, id: usize) -> usize {
        self.parties[id].num_samples()
    }

    fn input_shape(&self) -> &[usize] {
        &self.parties[0].data.input_shape
    }

    fn num_classes(&self) -> usize {
        self.parties[0].data.num_classes
    }

    fn materialize(&self, id: usize) -> Party {
        self.parties[id].clone()
    }

    fn party(&self, id: usize) -> PartyRef<'_> {
        PartyRef::Borrowed(&self.parties[id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_data::Dataset;

    fn toy_party() -> Party {
        let features = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[6, 4]);
        Party::new(
            3,
            Dataset::new("p", features, vec![0, 1, 0, 1, 0, 1], 2, vec![4], None),
        )
    }

    #[test]
    fn batch_gathers_rows_and_labels() {
        let p = toy_party();
        let (x, y) = p.batch(&[5, 0]);
        assert_eq!(x.shape(), &[2, 4]);
        assert_eq!(x.row(0), &[20.0, 21.0, 22.0, 23.0]);
        assert_eq!(y, vec![1, 0]);
    }

    #[test]
    fn batch_respects_multidim_input_shape() {
        let features = Tensor::zeros(&[4, 8]);
        let p = Party::new(
            0,
            Dataset::new("img", features, vec![0, 1, 0, 1], 2, vec![2, 2, 2], None),
        );
        let (x, _) = p.batch(&[1, 2, 3]);
        assert_eq!(x.shape(), &[3, 2, 2, 2]);
    }

    #[test]
    fn owned_parties_charge_and_release_the_residency_gauge() {
        residency::reset_peak();
        let base = residency::current_bytes();
        let expected = {
            let p = toy_party();
            p.data.features.numel() * 4 + p.data.labels.len() * std::mem::size_of::<usize>()
        };
        {
            let owned = PartyRef::Owned(OwnedParty::new(toy_party()));
            assert_eq!(owned.num_samples(), 6, "deref reaches the party");
            assert!(residency::current_bytes() >= base + expected);
            assert!(residency::peak_bytes() >= base + expected);
        }
        // Dropped: the bytes are released, the peak stays.
        assert_eq!(residency::current_bytes(), base);
        assert!(residency::peak_bytes() >= base + expected);
    }

    #[test]
    fn borrowed_parties_do_not_touch_the_gauge() {
        let p = toy_party();
        let before = residency::current_bytes();
        let r = PartyRef::Borrowed(&p);
        assert_eq!(r.id, 3);
        assert_eq!(residency::current_bytes(), before);
    }
}
