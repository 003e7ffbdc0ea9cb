//! Per-stage timing records of an attack run.

use std::time::Duration;

use muxlink_gnn::TrainPhases;
use serde::{map_get, DeError, Deserialize, Serialize, Value};

/// Worker-thread counts used by each pipeline stage (1 = sequential).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageThreads {
    /// Graph extraction (always sequential today).
    pub extract: usize,
    /// Dataset generation.
    pub dataset: usize,
    /// DGCNN training.
    pub train: usize,
    /// Target-link scoring.
    pub score: usize,
}

impl StageThreads {
    /// All stages on `n` threads except extraction (sequential).
    #[must_use]
    pub fn uniform(n: usize) -> Self {
        Self {
            extract: 1,
            dataset: n,
            train: n,
            score: n,
        }
    }
}

/// Wall-clock breakdown of the expensive pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct Timings {
    /// Graph extraction.
    pub extract: Duration,
    /// Dataset generation (link sampling + subgraph extraction).
    pub dataset: Duration,
    /// DGCNN training.
    pub train: Duration,
    /// Target-link scoring.
    pub score: Duration,
    /// Worker threads each stage ran with.
    pub threads: StageThreads,
    /// Per-phase breakdown of the training stage (batch assembly /
    /// forward / backward / optimiser); the remainder of `train` is
    /// shuffling, job drawing and the per-epoch validation passes.
    pub train_phases: TrainPhases,
}

// Hand-written so reports saved before the `train_phases` breakdown
// existed still load: the missing field takes the zeroed default. The
// vendored derive has no `#[serde(default)]`.
impl Deserialize for Timings {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            extract: Deserialize::from_value(map_get(v, "extract")?)?,
            dataset: Deserialize::from_value(map_get(v, "dataset")?)?,
            train: Deserialize::from_value(map_get(v, "train")?)?,
            score: Deserialize::from_value(map_get(v, "score")?)?,
            threads: Deserialize::from_value(map_get(v, "threads")?)?,
            train_phases: match map_get(v, "train_phases") {
                Ok(x) => Deserialize::from_value(x)?,
                Err(_) => TrainPhases::default(),
            },
        })
    }
}

impl Timings {
    /// Sum of all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.extract + self.dataset + self.train + self.score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_total_adds_up() {
        let t = Timings {
            extract: Duration::from_millis(1),
            dataset: Duration::from_millis(2),
            train: Duration::from_millis(3),
            score: Duration::from_millis(4),
            threads: StageThreads::uniform(4),
            train_phases: TrainPhases::default(),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
        assert_eq!(t.threads.extract, 1);
        assert_eq!(t.threads.train, 4);
    }

    /// Reports saved before the training-phase breakdown existed must
    /// still load; the missing field takes the zeroed default.
    #[test]
    fn pre_train_phases_timings_still_deserialize() {
        let t = Timings {
            extract: Duration::from_millis(1),
            dataset: Duration::from_millis(2),
            train: Duration::from_millis(3),
            score: Duration::from_millis(4),
            threads: StageThreads::uniform(2),
            train_phases: TrainPhases::default(),
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: Timings = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t, "full round trip");
        let phases_json = serde_json::to_string(&TrainPhases::default()).unwrap();
        let legacy = json.replace(&format!(",\"train_phases\":{phases_json}"), "");
        assert_ne!(legacy, json, "test must actually strip the field");
        let back: Timings = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, t, "missing breakdown falls back to the default");
    }
}
