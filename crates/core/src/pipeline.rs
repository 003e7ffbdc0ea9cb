//! The scored-design artefact: what [`crate::AttackSession::run`] and
//! its final stage produce, and what Algorithm 1 post-processes.
//!
//! [`score_design_with_heuristic`] fills the same artefact from a fixed
//! link-prediction heuristic instead of the GNN (the learned-vs-fixed
//! ablation).

use std::time::Instant;

use muxlink_gnn::TrainReport;
use muxlink_graph::{extract, ExtractedDesign};
use muxlink_locking::KeyValue;
use muxlink_netlist::Netlist;

use crate::postprocess::{recover_key, MuxScores};
use crate::report::Timings;
use crate::AttackError;

/// A trained-and-scored design: everything the cheap post-processing stage
/// needs, decoupled so threshold sweeps (Fig. 9) reuse one model. It lives
/// in one process: the [`Trained`](crate::Trained) checkpoint it is scored
/// from is what a later process loads.
#[derive(Debug, Clone)]
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
/// [`AttackError::Extract`] for malformed locked designs and
/// [`AttackError::NoKeyMuxes`] when there is nothing to attack.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score_key;
    use crate::{AttackSession, MuxLinkConfig, NoProgress};
    use muxlink_benchgen::synth::SynthConfig;
    use muxlink_locking::{dmux, symmetric, LockOptions};

    fn quick() -> MuxLinkConfig {
        MuxLinkConfig::quick()
    }

    fn run(
        netlist: &Netlist,
        names: &[String],
        cfg: &MuxLinkConfig,
    ) -> Result<ScoredDesign, AttackError> {
        AttackSession::new(netlist, names, cfg.clone()).run(&NoProgress)
    }

    #[test]
    fn attack_runs_end_to_end_on_dmux() {
        let design = SynthConfig::new("d", 16, 8, 260).generate(11);
        let locked = dmux::lock(&design, &LockOptions::new(8, 3)).unwrap();
        let guess = run(&locked.netlist, &locked.key_input_names(), &quick())
            .unwrap()
            .recover_key(quick().th);
        assert_eq!(guess.len(), 8);
        let m = score_key(&guess, &locked.key);
        // With the quick profile we still expect far-better-than-random
        // behaviour on a small design.
        assert!(m.precision() > 0.5, "precision {}", m.precision());
    }

    #[test]
    fn attack_runs_end_to_end_on_symmetric() {
        let design = SynthConfig::new("d", 16, 8, 260).generate(12);
        let locked = symmetric::lock(&design, &LockOptions::new(8, 3)).unwrap();
        let guess = run(&locked.netlist, &locked.key_input_names(), &quick())
            .unwrap()
            .recover_key(quick().th);
        assert_eq!(guess.len(), 8);
    }

    #[test]
    fn scored_design_rethresholds_without_retraining() {
        let design = SynthConfig::new("d", 16, 8, 220).generate(13);
        let locked = dmux::lock(&design, &LockOptions::new(6, 5)).unwrap();
        let scored = run(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
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
        let a = run(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        let b = run(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        assert_eq!(a.recover_key(quick().th), b.recover_key(quick().th));
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn thread_count_does_not_change_attack_outcome() {
        let design = SynthConfig::new("d", 14, 6, 200).generate(18);
        let locked = dmux::lock(&design, &LockOptions::new(6, 3)).unwrap();
        let names = locked.key_input_names();
        let a = run(&locked.netlist, &names, &quick().with_threads(1)).unwrap();
        let b = run(&locked.netlist, &names, &quick().with_threads(4)).unwrap();
        assert_eq!(
            a.recover_key(quick().th),
            b.recover_key(quick().th),
            "key guess must not depend on threads"
        );
        assert_eq!(a.scores, b.scores, "scores must be bit-identical");
        assert_eq!(
            a.train_report, b.train_report,
            "training history must be bit-identical"
        );
        assert_eq!(a.timings.threads.train, 1);
        assert_eq!(b.timings.threads.train, 4);
        assert_eq!(b.timings.threads.extract, 1, "extraction is sequential");
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
        let err = run(&design, &[], &quick()).unwrap_err();
        assert!(matches!(err, AttackError::NoKeyMuxes));
    }

    #[test]
    fn timings_are_populated() {
        let design = SynthConfig::new("d", 12, 6, 150).generate(16);
        let locked = dmux::lock(&design, &LockOptions::new(4, 2)).unwrap();
        let scored = run(&locked.netlist, &locked.key_input_names(), &quick()).unwrap();
        assert!(scored.timings.total() > std::time::Duration::ZERO);
        assert!(scored.k >= 10);
    }
}
