//! Shared attack-run machinery for the figure binaries: locks a synthetic
//! benchmark, runs MuxLink, scores it, and fans multi-design campaigns
//! out through the public [`muxlink_core::run_suite`] driver (single
//! designs still go through the staged [`AttackSession`]).

use std::time::Instant;

use muxlink_benchgen::Profile;
use muxlink_core::{
    metrics::score_key, AttackSession, MuxLinkConfig, NoProgress, ScoredDesign, SuiteJob,
    SuiteOptions,
};
use muxlink_locking::{dmux, symmetric, KeyValue, LockError, LockOptions, LockedNetlist};
use muxlink_netlist::Netlist;
use serde::Serialize;

/// The two learning-resilient schemes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scheme {
    /// D-MUX with the eD-MUX policy.
    DMux,
    /// Symmetric MUX-based locking (S5).
    Symmetric,
}

impl Scheme {
    /// Display label matching the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::DMux => "D-MUX",
            Scheme::Symmetric => "Symmetric",
        }
    }

    /// Locks `design`; on [`LockError::InsufficientSites`] the key size is
    /// halved until it fits (tiny scaled benchmarks cannot always hold the
    /// full request). Returns the locked design (whose `key.len()` is the
    /// achieved size).
    ///
    /// # Errors
    ///
    /// Propagates any non-capacity locking error.
    pub fn lock_fitting(
        self,
        design: &Netlist,
        mut key_size: usize,
        seed: u64,
    ) -> Result<LockedNetlist, LockError> {
        loop {
            let r = match self {
                Scheme::DMux => dmux::lock(design, &LockOptions::new(key_size, seed)),
                Scheme::Symmetric => symmetric::lock(design, &LockOptions::new(key_size, seed)),
            };
            match r {
                Ok(l) => return Ok(l),
                Err(LockError::InsufficientSites { .. }) if key_size > 2 => {
                    key_size /= 2;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// One benchmark × scheme × key-size attack outcome.
#[derive(Debug, Clone, Serialize)]
pub struct AttackRunResult {
    /// Suite label (`ISCAS-85` / `ITC-99`).
    pub suite: String,
    /// Benchmark name.
    pub bench: String,
    /// Gate count of the (synthetic) design.
    pub gates: usize,
    /// Scheme label.
    pub scheme: String,
    /// Achieved key size.
    pub key_size: usize,
    /// Accuracy in percent.
    pub ac: f64,
    /// Precision in percent.
    pub pc: f64,
    /// KPA in percent (`None` when every bit was X).
    pub kpa: Option<f64>,
    /// Validation accuracy of the GNN.
    pub val_acc: f64,
    /// Wall-clock seconds for the whole attack.
    pub seconds: f64,
}

/// Locks and attacks one profile; also returns the reusable scored design
/// and ground truth for figure-specific post-analysis.
///
/// # Errors
///
/// Returns a human-readable error string (binaries report and continue).
pub fn run_attack(
    suite: &str,
    profile: &Profile,
    scheme: Scheme,
    key_size: usize,
    cfg: &MuxLinkConfig,
    seed: u64,
) -> Result<(AttackRunResult, ScoredDesign, LockedNetlist, Netlist), String> {
    let design = profile.generate(seed);
    let locked = scheme
        .lock_fitting(&design, key_size, seed ^ 0xBEEF)
        .map_err(|e| format!("{}: locking failed: {e}", profile.name))?;
    let t0 = Instant::now();
    let scored = AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
        .run(&NoProgress)
        .map_err(|e| format!("{}: attack failed: {e}", profile.name))?;
    let guess = scored.recover_key(cfg.th);
    let seconds = t0.elapsed().as_secs_f64();
    let m = score_key(&guess, &locked.key);
    let result = AttackRunResult {
        suite: suite.to_owned(),
        bench: profile.name.clone(),
        gates: design.gate_count(),
        scheme: scheme.label().to_owned(),
        key_size: locked.key.len(),
        ac: m.accuracy_pct(),
        pc: m.precision_pct(),
        kpa: m.kpa_pct(),
        val_acc: scored.train_report.best_val_accuracy,
        seconds,
    };
    Ok((result, scored, locked, design))
}

/// One benchmark × scheme × key-size campaign item for
/// [`run_attack_suite`].
pub type CampaignItem = (String, Profile, Scheme, usize);

/// Locks every campaign item and drives the whole list through
/// [`muxlink_core::run_suite`]: one process, one rayon pool, designs
/// sharded across workers with work stealing between and within
/// attacks (the ROADMAP's multi-design sharding, now on the public
/// surface). Output order matches `items`; per-item failures come back
/// as `Err` strings, like [`run_attack`].
#[must_use]
pub fn run_attack_suite(
    items: &[CampaignItem],
    cfg: &MuxLinkConfig,
    seed: u64,
) -> Vec<Result<AttackRunResult, String>> {
    /// Metadata of a successfully-locked item; its `SuiteJob` (with the
    /// only copy of the locked netlist) lives in `jobs`.
    struct LockedMeta {
        gates: usize,
        scheme: Scheme,
        key_size: usize,
    }
    // Lock sequentially (cheap) so the expensive phase is one suite run.
    // The netlists go straight into `jobs` — exactly one resident copy
    // per design for the whole campaign.
    let mut jobs: Vec<SuiteJob> = Vec::new();
    let mut prepared: Vec<Result<LockedMeta, String>> = Vec::new();
    for (_suite, profile, scheme, key_size) in items {
        let design = profile.generate(seed);
        let gates = design.gate_count();
        match scheme.lock_fitting(&design, *key_size, seed ^ 0xBEEF) {
            Ok(locked) => {
                let key_input_names = locked.key_input_names();
                prepared.push(Ok(LockedMeta {
                    gates,
                    scheme: *scheme,
                    key_size: key_input_names.len(),
                }));
                jobs.push(SuiteJob {
                    name: format!("{}-{}-K{}", profile.name, scheme.label(), key_size),
                    key_input_names,
                    truth: Some(
                        locked
                            .key
                            .to_values()
                            .iter()
                            .map(|v| *v == KeyValue::One)
                            .collect(),
                    ),
                    netlist: locked.netlist,
                });
            }
            Err(e) => prepared.push(Err(format!("{}: locking failed: {e}", profile.name))),
        }
    }
    let records = match muxlink_core::run_suite(&jobs, cfg, &SuiteOptions::default(), &NoProgress) {
        Ok(records) => records,
        // A suite-level failure (e.g. the pool) applies to the items
        // that would have run; per-item locking errors are preserved.
        Err(e) => {
            return prepared
                .into_iter()
                .map(|p| p.and(Err(e.to_string())))
                .collect();
        }
    };
    let mut records = records.into_iter();
    prepared
        .into_iter()
        .zip(items)
        .map(|(p, (suite, profile, _, _))| {
            let LockedMeta {
                gates,
                scheme,
                key_size,
            } = p?;
            let r = records.next().expect("one record per successful job");
            match r.error {
                Some(e) => Err(format!("{}: attack failed: {e}", profile.name)),
                None => {
                    let m = r.metrics.ok_or_else(|| {
                        format!("{}: suite record lost its metrics", profile.name)
                    })?;
                    Ok(AttackRunResult {
                        suite: suite.clone(),
                        bench: profile.name.clone(),
                        gates,
                        scheme: scheme.label().to_owned(),
                        key_size,
                        ac: m.accuracy_pct(),
                        pc: m.precision_pct(),
                        kpa: m.kpa_pct(),
                        val_acc: r.val_accuracy,
                        seconds: r.seconds,
                    })
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_benchgen::SyntheticSuite;

    #[test]
    fn lock_fitting_shrinks_on_tiny_designs() {
        let c17 = muxlink_benchgen::c17();
        let locked = Scheme::DMux.lock_fitting(&c17, 64, 1).unwrap();
        assert!(locked.key.len() < 64);
        assert!(locked.key.len() >= 2);
    }

    /// The suite-driven campaign path must reproduce the per-design
    /// numbers of the one-design path (same seeds, same pipeline).
    #[test]
    fn run_attack_suite_matches_single_runs() {
        let suite = SyntheticSuite::iscas85().scaled(0.07);
        let profile = suite.profiles[0].clone();
        let cfg = MuxLinkConfig::quick();
        let items: Vec<CampaignItem> = vec![
            ("ISCAS-85".to_owned(), profile.clone(), Scheme::DMux, 6),
            ("ISCAS-85".to_owned(), profile.clone(), Scheme::Symmetric, 6),
        ];
        let batch = run_attack_suite(&items, &cfg, 3);
        assert_eq!(batch.len(), 2);
        for ((suite_name, profile, scheme, k), result) in items.iter().zip(&batch) {
            let result = result.as_ref().expect("campaign item should succeed");
            let (single, _, _, _) = run_attack(suite_name, profile, *scheme, *k, &cfg, 3).unwrap();
            assert_eq!(result.ac, single.ac, "{}", result.bench);
            assert_eq!(result.pc, single.pc);
            assert_eq!(result.kpa, single.kpa);
            assert_eq!(result.val_acc, single.val_acc);
            assert_eq!(result.key_size, single.key_size);
            assert_eq!(result.gates, single.gates);
        }
    }

    #[test]
    fn run_attack_produces_sane_result() {
        let suite = SyntheticSuite::iscas85().scaled(0.08);
        let profile = &suite.profiles[0];
        let cfg = MuxLinkConfig::quick();
        let (res, scored, locked, design) =
            run_attack("ISCAS-85", profile, Scheme::DMux, 8, &cfg, 3).unwrap();
        assert_eq!(res.bench, profile.name);
        assert!(res.ac >= 0.0 && res.ac <= 100.0);
        assert!(res.pc >= res.ac - 1e-9);
        assert_eq!(scored.key_len, locked.key.len());
        assert_eq!(design.inputs().len(), profile.inputs);
    }
}
