//! Communication accounting.
//!
//! §3.3 observes that "SCAFFOLD doubles the communication size per round
//! due to the additional control variates". The engine tracks exact byte
//! counts per round so that the claim is measurable. The byte layout of
//! what is counted lives in the crate's `wire` module.

/// Bytes needed to ship `n` f32 values.
pub const fn f32_payload_bytes(n: usize) -> usize {
    n * std::mem::size_of::<f32>()
}

/// Per-round communication volume between the server and the sampled
/// parties, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTraffic {
    /// Server → parties (model broadcast, plus `c` for SCAFFOLD).
    pub down_bytes: usize,
    /// Parties → server (updates, plus `Δc` for SCAFFOLD).
    pub up_bytes: usize,
}

impl RoundTraffic {
    /// Traffic computed from the exchanged vector sizes: `param_len`
    /// trainable parameters and `buffer_len` BatchNorm buffers shipped both
    /// ways, plus SCAFFOLD's `c` down and `Δc` up under
    /// `with_control_variates`. The engine bills from encoded payload
    /// lengths instead; this formula is the oracle its dense billing is
    /// tested against.
    ///
    /// The broadcast went to every selected party (the server cannot know
    /// who will fail), and uploads are billed by what actually hit the
    /// wire:
    ///
    /// * `survivors` — parties whose update arrived and aggregated,
    /// * `dropped` — parties whose update was **sent but lost in
    ///   transit** ([`crate::fault::FailureKind::InjectedDrop`]): the
    ///   upload bytes were spent even though the server never saw them,
    /// * crashed/panicked parties (`selected - survivors - dropped`)
    ///   never produced an update, so they upload nothing.
    pub fn for_round_faulted(
        selected: usize,
        survivors: usize,
        dropped: usize,
        param_len: usize,
        buffer_len: usize,
        with_control_variates: bool,
    ) -> Self {
        debug_assert!(
            survivors + dropped <= selected,
            "more uploads than selected parties"
        );
        let per_model = f32_payload_bytes(param_len + buffer_len);
        let per_cv = if with_control_variates {
            f32_payload_bytes(param_len)
        } else {
            0
        };
        RoundTraffic {
            down_bytes: selected * (per_model + per_cv),
            up_bytes: (survivors + dropped) * (per_model + per_cv),
        }
    }

    /// Total bytes both directions.
    pub fn total(&self) -> usize {
        self.down_bytes + self.up_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaffold_doubles_traffic_for_buffer_free_models() {
        let plain = RoundTraffic::for_round_faulted(10, 10, 0, 1000, 0, false);
        let scaffold = RoundTraffic::for_round_faulted(10, 10, 0, 1000, 0, true);
        assert_eq!(scaffold.total(), 2 * plain.total());
    }

    #[test]
    fn traffic_scales_with_participants() {
        let a = RoundTraffic::for_round_faulted(5, 5, 0, 100, 0, false);
        let b = RoundTraffic::for_round_faulted(10, 10, 0, 100, 0, false);
        assert_eq!(2 * a.down_bytes, b.down_bytes);
    }

    #[test]
    fn buffers_count_toward_traffic() {
        let without = RoundTraffic::for_round_faulted(1, 1, 0, 100, 0, false);
        let with = RoundTraffic::for_round_faulted(1, 1, 0, 100, 20, false);
        assert_eq!(with.total() - without.total(), 2 * f32_payload_bytes(20));
    }

    #[test]
    fn degraded_round_halves_only_the_upload() {
        let clean = RoundTraffic::for_round_faulted(10, 10, 0, 1000, 8, false);
        let degraded = RoundTraffic::for_round_faulted(10, 5, 0, 1000, 8, false);
        assert_eq!(degraded.down_bytes, clean.down_bytes, "broadcast unchanged");
        assert_eq!(2 * degraded.up_bytes, clean.up_bytes);
        // No survivors at all: the broadcast still happened.
        let dead = RoundTraffic::for_round_faulted(10, 0, 0, 1000, 8, true);
        assert_eq!(dead.up_bytes, 0);
        assert!(dead.down_bytes > 0);
    }

    #[test]
    fn dropped_uploads_are_billed_crashed_are_not() {
        // 10 selected: 6 aggregated, 3 dropped in transit, 1 crashed.
        // The 3 dropped updates were sent — their bytes count — while the
        // crashed party never produced one.
        let t = RoundTraffic::for_round_faulted(10, 6, 3, 1000, 8, false);
        let per = f32_payload_bytes(1000 + 8);
        assert_eq!(t.down_bytes, 10 * per);
        assert_eq!(t.up_bytes, 9 * per, "6 survivors + 3 dropped bill upload");

        // A pure-drop round uploads exactly as much as a clean round.
        let all_dropped = RoundTraffic::for_round_faulted(10, 0, 10, 1000, 8, false);
        let clean = RoundTraffic::for_round_faulted(10, 10, 0, 1000, 8, false);
        assert_eq!(all_dropped.up_bytes, clean.up_bytes);

        // A pure-crash round uploads nothing.
        let all_crashed = RoundTraffic::for_round_faulted(10, 0, 0, 1000, 8, false);
        assert_eq!(all_crashed.up_bytes, 0);

        // SCAFFOLD's control variate rides on dropped uploads too.
        let cv = RoundTraffic::for_round_faulted(4, 2, 2, 100, 0, true);
        assert_eq!(cv.up_bytes, 4 * 2 * f32_payload_bytes(100));
    }
}
