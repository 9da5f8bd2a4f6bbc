//! Deterministic fault injection for chaos and robustness runs.
//!
//! Real federations (the §5.6 regime: 10% of 100 parties sampled per
//! round) see device crashes, dropped updates and stragglers constantly;
//! a benchmark engine that aborts the whole run on one failure cannot
//! measure any of that. A [`FaultPlan`] injects those failures
//! *deterministically*: whether party `i` fails in round `r` is a pure
//! function of `(plan seed, r, i)`, independent of thread count or
//! scheduling order, so faulted runs obey the same three-tier determinism
//! contract as clean ones.
//!
//! Three fault kinds are drawn from a single uniform variate per
//! `(round, party)`:
//!
//! * **crash** — the party's local training panics mid-round (routed
//!   through a real `panic!` so the engine's isolation machinery is
//!   exercised, not simulated),
//! * **drop** — the party trains nothing and its update never arrives
//!   (a lost upload),
//! * **delay** — the party sleeps before training (a straggler; affects
//!   wall time only, never the numerical trajectory).
//!
//! The engine turns each failed party into a typed [`PartyFailure`]
//! inside a [`PartyOutcome`](crate::transport::PartyOutcome) and
//! aggregates the surviving cohort (see
//! `FlConfig::min_quorum`).

use niid_stats::{derive_seed, Pcg64};
use std::fmt;
use std::str::FromStr;

/// Seed-domain tag for fault draws (distinct from the engine's sampling
/// and per-party training streams).
const SEED_FAULT_BASE: u64 = 0xFA17_0000_0000;

/// What the plan tells the engine to do to one `(round, party)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Train normally.
    None,
    /// Panic inside local training (work and update lost).
    Crash,
    /// Skip training and lose the update (the party never reports back).
    Drop,
    /// Sleep this many milliseconds, then train normally.
    Delay(u64),
}

/// A seeded, deterministic per-round fault schedule.
///
/// Probabilities are per `(round, party)` cell and mutually exclusive
/// (one uniform draw decides: crash, else drop, else delay, else none),
/// so `crash_prob + drop_prob + delay_prob` must stay ≤ 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream (independent of the run seed, so the
    /// same training trajectory can be replayed under different chaos).
    pub seed: u64,
    /// Probability a party crashes mid-training.
    pub crash_prob: f64,
    /// Probability a party's update is dropped.
    pub drop_prob: f64,
    /// Probability a party straggles.
    pub delay_prob: f64,
    /// How long a straggler sleeps, in milliseconds.
    pub delay_ms: u64,
}

impl FaultPlan {
    /// A plan that crashes parties with probability `p` and does nothing
    /// else — the common chaos-test shape.
    pub fn crash_only(p: f64, seed: u64) -> Self {
        FaultPlan {
            seed,
            crash_prob: p,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 0,
        }
    }

    /// Check probability ranges; returns a human-readable violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("crash", self.crash_prob),
            ("drop", self.drop_prob),
            ("delay", self.delay_prob),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} probability must be in [0, 1], got {p}"));
            }
        }
        let total = self.crash_prob + self.drop_prob + self.delay_prob;
        if total > 1.0 {
            return Err(format!(
                "crash + drop + delay probabilities must not exceed 1, got {total}"
            ));
        }
        Ok(())
    }

    /// The action for party `party_id` in round `round` — a pure function
    /// of the plan and the cell, independent of scheduling.
    pub fn action(&self, round: usize, party_id: usize) -> FaultAction {
        let cell = ((round as u64) << 24) ^ (party_id as u64);
        let mut rng = Pcg64::new(derive_seed(self.seed, SEED_FAULT_BASE ^ cell));
        let u = rng.next_f64();
        if u < self.crash_prob {
            FaultAction::Crash
        } else if u < self.crash_prob + self.drop_prob {
            FaultAction::Drop
        } else if u < self.crash_prob + self.drop_prob + self.delay_prob {
            FaultAction::Delay(self.delay_ms)
        } else {
            FaultAction::None
        }
    }
}

/// Spec-string form: comma-separated `key=value` pairs, e.g.
/// `crash=0.3,drop=0.05,delay=0.1:50,seed=7` (`delay` takes
/// `prob[:millis]`, default 25 ms). Used by `--faults`.
impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan {
            seed: 0,
            crash_prob: 0.0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 25,
        };
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .map_err(|e| format!("bad probability `{v}` for {key}: {e}"))
            };
            match key {
                "crash" => plan.crash_prob = prob(value)?,
                "drop" => plan.drop_prob = prob(value)?,
                "delay" => {
                    let (p, ms) = match value.split_once(':') {
                        Some((p, ms)) => (
                            prob(p)?,
                            ms.parse::<u64>()
                                .map_err(|e| format!("bad delay millis `{ms}`: {e}"))?,
                        ),
                        None => (prob(value)?, plan.delay_ms),
                    };
                    plan.delay_prob = p;
                    plan.delay_ms = ms;
                }
                "seed" => {
                    plan.seed = value
                        .parse::<u64>()
                        .map_err(|e| format!("bad fault seed `{value}`: {e}"))?
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crash={},drop={},delay={}:{},seed={}",
            self.crash_prob, self.drop_prob, self.delay_prob, self.delay_ms, self.seed
        )
    }
}

/// Why a party produced no usable update this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Local training panicked (a real bug, or an injected crash caught
    /// by the same isolation path).
    Panic,
    /// A [`FaultPlan`] crash cell (the panic was injected).
    InjectedCrash,
    /// A [`FaultPlan`] drop cell (the update was lost in transit).
    InjectedDrop,
}

impl FailureKind {
    /// Stable tag used in trace events and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::InjectedCrash => "injected_crash",
            FailureKind::InjectedDrop => "injected_drop",
        }
    }

    /// All kinds, for pre-creating labelled counters.
    pub fn all() -> [FailureKind; 3] {
        [
            FailureKind::Panic,
            FailureKind::InjectedCrash,
            FailureKind::InjectedDrop,
        ]
    }

    /// Parse a [`name`](Self::name) tag back.
    pub fn parse(tag: &str) -> Option<Self> {
        Self::all().into_iter().find(|k| k.name() == tag)
    }
}

/// A typed record of one party's failure in one round. The party's
/// SCAFFOLD `client_c` is *not* part of this — the engine returns it to
/// the party untouched, so a failed round never corrupts control-variate
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct PartyFailure {
    /// The failed party.
    pub party_id: usize,
    /// How it failed.
    pub kind: FailureKind,
    /// The panic payload (or a fixed message for injected faults).
    pub message: String,
}

/// Payload of the panic the engine raises for [`FaultAction::Crash`].
pub(crate) const INJECTED_CRASH_MSG: &str = "injected crash (fault plan)";

/// Silence the default panic hook's "thread panicked" report + backtrace
/// for *injected* crashes only — they are expected and caught, and a 30%
/// crash plan would otherwise bury the run output. Real panics still
/// print through the previous hook. Installed once per process, the first
/// time a faulty round trains.
pub(crate) fn install_quiet_panic_hook() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == INJECTED_CRASH_MSG);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_are_deterministic_per_cell() {
        let plan = FaultPlan {
            seed: 7,
            crash_prob: 0.3,
            drop_prob: 0.2,
            delay_prob: 0.1,
            delay_ms: 5,
        };
        for round in 0..10 {
            for party in 0..20 {
                assert_eq!(plan.action(round, party), plan.action(round, party));
            }
        }
    }

    #[test]
    fn frequencies_match_probabilities() {
        let plan = FaultPlan {
            seed: 11,
            crash_prob: 0.25,
            drop_prob: 0.25,
            delay_prob: 0.25,
            delay_ms: 1,
        };
        let mut counts = [0usize; 4];
        let n = 4000;
        for round in 0..40 {
            for party in 0..(n / 40) {
                let idx = match plan.action(round, party) {
                    FaultAction::None => 0,
                    FaultAction::Crash => 1,
                    FaultAction::Drop => 2,
                    FaultAction::Delay(_) => 3,
                };
                counts[idx] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 0.25).abs() < 0.05,
                "bucket {i}: {frac} far from 0.25"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::crash_only(0.5, 1);
        let b = FaultPlan::crash_only(0.5, 2);
        let schedule = |p: &FaultPlan| -> Vec<FaultAction> {
            (0..64).map(|i| p.action(i / 8, i % 8)).collect()
        };
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn zero_plan_never_faults() {
        let plan = FaultPlan::crash_only(0.0, 3);
        for round in 0..20 {
            for party in 0..20 {
                assert_eq!(plan.action(round, party), FaultAction::None);
            }
        }
    }

    #[test]
    fn spec_string_round_trips() {
        let plan: FaultPlan = "crash=0.3,drop=0.05,delay=0.1:50,seed=7".parse().unwrap();
        assert_eq!(plan.crash_prob, 0.3);
        assert_eq!(plan.drop_prob, 0.05);
        assert_eq!(plan.delay_prob, 0.1);
        assert_eq!(plan.delay_ms, 50);
        assert_eq!(plan.seed, 7);
        let back: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, back);
        // Delay without millis keeps the default.
        let d: FaultPlan = "delay=0.5".parse().unwrap();
        assert_eq!(d.delay_ms, 25);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!("crash".parse::<FaultPlan>().is_err(), "missing value");
        assert!("warp=0.1".parse::<FaultPlan>().is_err(), "unknown key");
        assert!("crash=1.5".parse::<FaultPlan>().is_err(), "prob > 1");
        assert!(
            "crash=0.6,drop=0.6".parse::<FaultPlan>().is_err(),
            "probs sum > 1"
        );
        assert!("crash=abc".parse::<FaultPlan>().is_err(), "non-numeric");
    }

    #[test]
    fn failure_kind_tags_round_trip() {
        for kind in FailureKind::all() {
            assert_eq!(FailureKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FailureKind::parse("warp"), None);
    }
}
