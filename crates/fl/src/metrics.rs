//! Per-round metrics and run results (the training curves of Figures 7–12
//! and the accuracy cells of Table 3).

use crate::wire::{put_f64, put_u64, Cursor, Malformed};
use niid_json::{FromJson, Json, JsonError, ToJson};
use std::time::Duration;

/// A span's duration in the unit records and trace events carry. Every
/// `*_wall_ms` below and every `wall_ms` of a trace event is what a
/// `niid_prof::timed!` guard returned, through this.
pub(crate) fn wall_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Metrics captured at (the end of) one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based; recorded after the round's aggregation).
    pub round: usize,
    /// Global-model top-1 accuracy on the held-out test set. `None` for
    /// rounds where evaluation was skipped (`eval_every > 1`).
    pub test_accuracy: Option<f64>,
    /// Sample-weighted mean local training loss across this round's
    /// participants (matches the weighted federated objective).
    pub avg_local_loss: f64,
    /// Number of participating parties.
    pub participants: usize,
    /// Server → parties bytes.
    pub down_bytes: usize,
    /// Parties → server bytes.
    pub up_bytes: usize,
    /// Wall time of the local-training phase — the `fl.train` span: all
    /// parties, including any parallel scheduling overhead, and nothing
    /// else (cohort sampling is `fl.sample`).
    pub local_wall_ms: f64,
    /// Wall time of server aggregation (averaging + control variates +
    /// buffer policy) — the `fl.aggregate` span.
    pub aggregate_wall_ms: f64,
    /// Wall time of test-set evaluation — the `fl.eval` span; `0` for
    /// skipped rounds.
    pub eval_wall_ms: f64,
    /// Selected parties that failed this round (panic or injected fault);
    /// their updates were excluded from aggregation. `participants` still
    /// counts the full selected cohort.
    pub failures: usize,
}

/// The outcome of a full federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Algorithm name (paper column header).
    pub algorithm: String,
    /// Per-round records in order.
    pub rounds: Vec<RoundRecord>,
    /// Accuracy at the final round.
    pub final_accuracy: f64,
    /// Best accuracy seen at any evaluated round.
    pub best_accuracy: f64,
    /// Total bytes exchanged over the run.
    pub total_bytes: usize,
    /// Wall-clock seconds spent in the simulation.
    pub wall_seconds: f64,
}

impl RoundRecord {
    /// Append the record in its fixed 81-byte checkpoint layout (exact
    /// bits): five counts, four timings/losses and the `test_accuracy`
    /// value as 8-byte words, then the `test_accuracy` presence flag.
    pub(crate) fn put(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.round as u64);
        put_u64(buf, self.participants as u64);
        put_u64(buf, self.down_bytes as u64);
        put_u64(buf, self.up_bytes as u64);
        put_u64(buf, self.failures as u64);
        put_f64(buf, self.local_wall_ms);
        put_f64(buf, self.aggregate_wall_ms);
        put_f64(buf, self.eval_wall_ms);
        put_f64(buf, self.avg_local_loss);
        put_f64(buf, self.test_accuracy.unwrap_or(0.0));
        buf.push(u8::from(self.test_accuracy.is_some()));
    }

    /// Read one record written by [`put`](Self::put).
    pub(crate) fn take(r: &mut Cursor) -> Result<Self, Malformed> {
        let mut rec = RoundRecord {
            round: r.usize("record round")?,
            participants: r.usize("record participants")?,
            down_bytes: r.usize("record down_bytes")?,
            up_bytes: r.usize("record up_bytes")?,
            failures: r.usize("record failures")?,
            local_wall_ms: r.f64("record local_wall_ms")?,
            aggregate_wall_ms: r.f64("record aggregate_wall_ms")?,
            eval_wall_ms: r.f64("record eval_wall_ms")?,
            avg_local_loss: r.f64("record avg_local_loss")?,
            test_accuracy: None,
        };
        let accuracy = r.f64("record test_accuracy")?;
        if r.bool("record test_accuracy flag")? {
            rec.test_accuracy = Some(accuracy);
        }
        Ok(rec)
    }
}

impl ToJson for RoundRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("round", self.round.to_json()),
            ("test_accuracy", self.test_accuracy.to_json()),
            ("avg_local_loss", self.avg_local_loss.to_json()),
            ("participants", self.participants.to_json()),
            ("down_bytes", self.down_bytes.to_json()),
            ("up_bytes", self.up_bytes.to_json()),
            ("local_wall_ms", self.local_wall_ms.to_json()),
            ("aggregate_wall_ms", self.aggregate_wall_ms.to_json()),
            ("eval_wall_ms", self.eval_wall_ms.to_json()),
            ("failures", self.failures.to_json()),
        ])
    }
}

/// Pull a required field out of an object, naming it on failure.
fn req<'a>(v: &'a Json, key: &'static str) -> Result<&'a Json, JsonError> {
    v.get(key)
        .ok_or_else(|| JsonError::new(format!("missing field {key}")))
}

impl FromJson for RoundRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(RoundRecord {
            round: usize::from_json(req(v, "round")?)?,
            test_accuracy: Option::from_json(req(v, "test_accuracy")?)?,
            avg_local_loss: f64::from_json(req(v, "avg_local_loss")?)?,
            participants: usize::from_json(req(v, "participants")?)?,
            down_bytes: usize::from_json(req(v, "down_bytes")?)?,
            up_bytes: usize::from_json(req(v, "up_bytes")?)?,
            local_wall_ms: f64::from_json(req(v, "local_wall_ms")?)?,
            aggregate_wall_ms: f64::from_json(req(v, "aggregate_wall_ms")?)?,
            eval_wall_ms: f64::from_json(req(v, "eval_wall_ms")?)?,
            // Absent in records written before fault tolerance existed.
            failures: match v.get("failures") {
                Some(x) => usize::from_json(x)?,
                None => 0,
            },
        })
    }
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("algorithm", self.algorithm.to_json()),
            ("rounds", self.rounds.to_json()),
            ("final_accuracy", self.final_accuracy.to_json()),
            ("best_accuracy", self.best_accuracy.to_json()),
            ("total_bytes", self.total_bytes.to_json()),
            ("wall_seconds", self.wall_seconds.to_json()),
        ])
    }
}

impl FromJson for RunResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(RunResult {
            algorithm: String::from_json(req(v, "algorithm")?)?,
            rounds: Vec::from_json(req(v, "rounds")?)?,
            final_accuracy: f64::from_json(req(v, "final_accuracy")?)?,
            best_accuracy: f64::from_json(req(v, "best_accuracy")?)?,
            total_bytes: usize::from_json(req(v, "total_bytes")?)?,
            wall_seconds: f64::from_json(req(v, "wall_seconds")?)?,
        })
    }
}

impl RunResult {
    /// The training curve: `(round, accuracy)` for evaluated rounds.
    pub fn curve(&self) -> Vec<(usize, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| r.test_accuracy.map(|a| (r.round, a)))
            .collect()
    }

    /// First evaluated round whose accuracy reaches `target`, if any
    /// (communication-efficiency comparisons, §5.2).
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        self.rounds
            .iter()
            .find(|r| r.test_accuracy.is_some_and(|a| a >= target))
            .map(|r| r.round)
    }

    /// Instability measure used for Finding 4/7 discussions: the mean
    /// absolute round-to-round accuracy change over the evaluated tail
    /// (skipping the first `skip` evaluations, where every method moves).
    pub fn accuracy_volatility(&self, skip: usize) -> f64 {
        let curve = self.curve();
        if curve.len() <= skip + 1 {
            return 0.0;
        }
        let tail = &curve[skip..];
        let diffs: f64 = tail.windows(2).map(|w| (w[1].1 - w[0].1).abs()).sum();
        diffs / (tail.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: Option<f64>) -> RoundRecord {
        RoundRecord {
            round,
            test_accuracy: acc,
            avg_local_loss: 0.5,
            participants: 10,
            down_bytes: 100,
            up_bytes: 100,
            local_wall_ms: 12.0,
            aggregate_wall_ms: 1.0,
            eval_wall_ms: 3.0,
            failures: 0,
        }
    }

    fn result(accs: &[Option<f64>]) -> RunResult {
        let rounds: Vec<RoundRecord> = accs
            .iter()
            .enumerate()
            .map(|(i, &a)| record(i, a))
            .collect();
        let evaluated: Vec<f64> = accs.iter().flatten().copied().collect();
        RunResult {
            algorithm: "FedAvg".into(),
            final_accuracy: *evaluated.last().unwrap_or(&0.0),
            best_accuracy: evaluated.iter().copied().fold(0.0, f64::max),
            total_bytes: rounds.iter().map(|r| r.down_bytes + r.up_bytes).sum(),
            rounds,
            wall_seconds: 1.0,
        }
    }

    #[test]
    fn curve_skips_unevaluated_rounds() {
        let r = result(&[Some(0.1), None, Some(0.3)]);
        assert_eq!(r.curve(), vec![(0, 0.1), (2, 0.3)]);
    }

    #[test]
    fn rounds_to_accuracy_finds_first_crossing() {
        let r = result(&[Some(0.1), Some(0.5), Some(0.4), Some(0.6)]);
        assert_eq!(r.rounds_to_accuracy(0.45), Some(1));
        assert_eq!(r.rounds_to_accuracy(0.9), None);
    }

    #[test]
    fn volatility_measures_oscillation() {
        let stable = result(&[Some(0.5), Some(0.51), Some(0.52), Some(0.53)]);
        let unstable = result(&[Some(0.5), Some(0.1), Some(0.6), Some(0.2)]);
        assert!(unstable.accuracy_volatility(0) > stable.accuracy_volatility(0) * 5.0);
    }

    #[test]
    fn volatility_of_short_curves_is_zero() {
        let r = result(&[Some(0.5)]);
        assert_eq!(r.accuracy_volatility(0), 0.0);
        assert_eq!(r.accuracy_volatility(5), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let r = result(&[Some(0.42), None]);
        let json = r.to_json_string();
        let back = RunResult::from_json_str(&json).unwrap();
        assert_eq!(r, back);
        assert!(json.contains("\"test_accuracy\":null"));
        assert!(json.contains("\"local_wall_ms\":12"));
    }

    #[test]
    fn records_without_failures_field_default_to_zero() {
        // Round records written before the fault-tolerance layer carry no
        // `failures` key; they must still parse.
        let mut with = record(0, Some(0.5));
        with.failures = 2;
        let json = with.to_json_string();
        let legacy = json.replace(",\"failures\":2", "");
        assert_ne!(json, legacy, "failures key must have been present");
        let back = RoundRecord::from_json_str(&legacy).unwrap();
        assert_eq!(back.failures, 0);
        assert_eq!(RoundRecord::from_json_str(&json).unwrap().failures, 2);
    }
}
