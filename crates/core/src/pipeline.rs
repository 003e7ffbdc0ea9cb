//! The one-shot MuxLink pipeline entry points: extract → self-supervise
//! → score → post-process in a single call.
//!
//! Since the staged API redesign, [`score_design`] and [`attack`] are
//! thin wrappers over [`crate::AttackSession`] — the
//! session is the primary surface (stage checkpoints, progress
//! observation, cancellation, suite runs); these functions remain for
//! callers that want the whole pipeline as one expression. Both paths
//! are bit-identical for any thread count.

use std::time::Instant;

use muxlink_gnn::TrainReport;
use muxlink_graph::{extract, ExtractedDesign};
use muxlink_locking::KeyValue;
use muxlink_netlist::Netlist;
use serde::{Deserialize, Serialize};

use crate::postprocess::{recover_key, MuxScores};
use crate::progress::NoProgress;
use crate::report::Timings;
use crate::session::AttackSession;
use crate::{AttackError, MuxLinkConfig};

/// A trained-and-scored design: everything the cheap post-processing stage
/// needs, decoupled so threshold sweeps (Fig. 9) reuse one model.
/// Serializable, like the [`Trained`](crate::Trained) checkpoint it is
/// scored from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoredDesign {
    /// The extracted graph and MUX candidates.
    pub extracted: ExtractedDesign,
    /// Per-MUX likelihoods `(l0, l1)` aligned with `extracted.muxes`.
    pub scores: MuxScores,
    /// Number of key bits in the design.
    pub key_len: usize,
    /// Training statistics of the underlying DGCNN.
    pub train_report: TrainReport,
    /// Chosen SortPooling size.
    pub k: usize,
    /// Wall-clock breakdown of the expensive stages.
    pub timings: Timings,
}

/// Result of a full attack: the recovered key plus the scored design for
/// further analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// One value per key bit (`X` = no decision).
    pub guess: Vec<KeyValue>,
    /// The reusable scored design.
    pub scored: ScoredDesign,
}

/// Runs the expensive stages: graph extraction, dataset generation, DGCNN
/// training and target-link scoring — the full
/// [`crate::AttackSession`] chain in one call.
///
/// # Errors
///
/// [`AttackError::Extract`] for malformed locked designs,
/// [`AttackError::NoKeyMuxes`] when there is nothing to attack,
/// [`AttackError::EmptyDataset`] when no training links could be
/// sampled, and [`AttackError::ThreadPool`] when a dedicated pool of
/// `cfg.threads` workers could not be built.
pub fn score_design(
    netlist: &Netlist,
    key_input_names: &[String],
    cfg: &MuxLinkConfig,
) -> Result<ScoredDesign, AttackError> {
    AttackSession::new(netlist, key_input_names, cfg.clone()).run(&NoProgress)
}

impl ScoredDesign {
    /// Post-processes the stored likelihoods at threshold `th` — cheap and
    /// re-runnable (Fig. 9 sweeps thresholds without retraining).
    #[must_use]
    pub fn recover_key(&self, th: f64) -> Vec<KeyValue> {
        recover_key(&self.extracted, &self.scores, self.key_len, th)
    }
}

/// Scores every MUX candidate with a hand-crafted link-prediction
/// heuristic instead of the GNN — the ablation MuxLink's methodology
/// implicitly argues against (SEAL: learned heuristics beat fixed ones).
///
/// Raw heuristic values are normalised per MUX (`l / (l0 + l1)`) so the
/// Algorithm-1 threshold semantics carry over.
///
/// # Errors
///
/// As for [`score_design`] minus the dataset/training failure modes.
pub fn score_design_with_heuristic(
    netlist: &Netlist,
    key_input_names: &[String],
    heuristic: muxlink_graph::heuristics::Heuristic,
) -> Result<ScoredDesign, AttackError> {
    let t0 = Instant::now();
    let extracted = extract(netlist, key_input_names)?;
    if extracted.muxes.is_empty() {
        return Err(AttackError::NoKeyMuxes);
    }
    let mut scores: MuxScores = Vec::with_capacity(extracted.muxes.len());
    for m in &extracted.muxes {
        let raw0 = heuristic.score(&extracted.graph, m.link0());
        let raw1 = heuristic.score(&extracted.graph, m.link1());
        let sum = raw0 + raw1;
        let (l0, l1) = if sum > 0.0 {
            (raw0 / sum, raw1 / sum)
        } else {
            (0.5, 0.5)
        };
        scores.push((l0, l1));
    }
    let elapsed = t0.elapsed();
    Ok(ScoredDesign {
        extracted,
        scores,
        key_len: key_input_names.len(),
        train_report: TrainReport {
            history: Vec::new(),
            best_epoch: 0,
            best_val_accuracy: f64::NAN,
        },
        k: 0,
        timings: Timings {
            extract: elapsed,
            ..Timings::default()
        },
    })
}

/// Full attack at the configured threshold.
///
/// # Errors
///
/// As for [`score_design`].
pub fn attack(
    netlist: &Netlist,
    key_input_names: &[String],
    cfg: &MuxLinkConfig,
) -> Result<AttackOutcome, AttackError> {
    let scored = score_design(netlist, key_input_names, cfg)?;
    let guess = scored.recover_key(cfg.th);
    Ok(AttackOutcome { guess, scored })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score_key;
    use muxlink_benchgen::synth::SynthConfig;
    use muxlink_locking::{dmux, symmetric, LockOptions};

    fn quick() -> MuxLinkConfig {
        MuxLinkConfig::quick()
    }

    #[test]
    fn attack_runs_end_to_end_on_dmux() {
        let design = SynthConfig::new("d", 16, 8, 260).generate(11);
        let locked = dmux::lock(&design, &LockOptions::new(8, 3)).unwrap();
        let out = attack(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        assert_eq!(out.guess.len(), 8);
        let m = score_key(&out.guess, &locked.key);
        // With the quick profile we still expect far-better-than-random
        // behaviour on a small design.
        assert!(m.precision() > 0.5, "precision {}", m.precision());
    }

    #[test]
    fn attack_runs_end_to_end_on_symmetric() {
        let design = SynthConfig::new("d", 16, 8, 260).generate(12);
        let locked = symmetric::lock(&design, &LockOptions::new(8, 3)).unwrap();
        let out = attack(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        assert_eq!(out.guess.len(), 8);
    }

    #[test]
    fn scored_design_rethresholds_without_retraining() {
        let design = SynthConfig::new("d", 16, 8, 220).generate(13);
        let locked = dmux::lock(&design, &LockOptions::new(6, 5)).unwrap();
        let scored = score_design(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        let loose = scored.recover_key(0.0);
        let strict = scored.recover_key(1.0);
        let x_loose = loose.iter().filter(|v| **v == KeyValue::X).count();
        let x_strict = strict.iter().filter(|v| **v == KeyValue::X).count();
        assert!(
            x_strict >= x_loose,
            "stricter th must abstain at least as much"
        );
        assert_eq!(x_strict, 6, "th=1.0 abstains on every bit");
    }

    #[test]
    fn deterministic_given_seed() {
        let design = SynthConfig::new("d", 14, 6, 180).generate(14);
        let locked = dmux::lock(&design, &LockOptions::new(4, 7)).unwrap();
        let a = attack(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        let b = attack(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        assert_eq!(a.guess, b.guess);
        assert_eq!(a.scored.scores, b.scored.scores);
    }

    #[test]
    fn thread_count_does_not_change_attack_outcome() {
        let design = SynthConfig::new("d", 14, 6, 200).generate(18);
        let locked = dmux::lock(&design, &LockOptions::new(6, 3)).unwrap();
        let names = locked.key_input_names();
        let a = attack(&locked.netlist, &names, &quick().with_threads(1)).unwrap();
        let b = attack(&locked.netlist, &names, &quick().with_threads(4)).unwrap();
        assert_eq!(a.guess, b.guess, "key guess must not depend on threads");
        assert_eq!(
            a.scored.scores, b.scored.scores,
            "scores must be bit-identical"
        );
        assert_eq!(
            a.scored.train_report, b.scored.train_report,
            "training history must be bit-identical"
        );
        assert_eq!(a.scored.timings.threads.train, 1);
        assert_eq!(b.scored.timings.threads.train, 4);
        assert_eq!(
            b.scored.timings.threads.extract, 1,
            "extraction is sequential"
        );
    }

    #[test]
    fn heuristic_scoring_is_fast_and_thresholdable() {
        use muxlink_graph::heuristics::Heuristic;
        let design = SynthConfig::new("d", 16, 8, 300).generate(21);
        let locked = dmux::lock(&design, &LockOptions::new(12, 4)).unwrap();
        let scored = score_design_with_heuristic(
            &locked.netlist,
            &locked.key_input_names(),
            Heuristic::ResourceAllocation,
        )
        .unwrap();
        assert_eq!(scored.scores.len(), locked.mux_instances().len());
        for &(l0, l1) in &scored.scores {
            assert!((0.0..=1.0).contains(&l0) && (0.0..=1.0).contains(&l1));
            assert!((l0 + l1 - 1.0).abs() < 1e-9);
        }
        // Full-abstain at the strictest threshold.
        let strict = scored.recover_key(1.01);
        assert!(strict.iter().all(|v| *v == KeyValue::X));
    }

    #[test]
    fn unlocked_design_is_rejected() {
        let design = SynthConfig::new("d", 10, 4, 100).generate(15);
        let err = attack(&design, &[], &quick()).unwrap_err();
        assert!(matches!(err, AttackError::NoKeyMuxes));
    }

    #[test]
    fn timings_are_populated() {
        let design = SynthConfig::new("d", 12, 6, 150).generate(16);
        let locked = dmux::lock(&design, &LockOptions::new(4, 2)).unwrap();
        let scored = score_design(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        assert!(scored.timings.total() > std::time::Duration::ZERO);
        assert!(scored.k >= 10);
    }
}
