//! Resynthesis-robustness experiment: lock one design, rewrite the locked
//! netlist with increasingly aggressive [`muxlink_netlist::passes`]
//! combinations, and re-attack each rewritten variant with MuxLink.
//!
//! This probes the threat-model question the pass framework exists to
//! answer: *does cosmetic or structural re-synthesis of a locked design
//! degrade the link-prediction attack?* Levels range from a no-op
//! pipeline (which must reproduce the pinned fig7-style key bit for bit)
//! through non-semantic wire renaming, canonicalising cleanup, partial and
//! total gate re-expression, up to MUX re-expression — the last of which
//! rewrites the key MUXes themselves and is expected to break the
//! attacker's extraction step entirely (an attack *error* is a legitimate
//! datapoint, recorded as such).
//!
//! Driven by `cargo run --release -p muxlink-bench --bin
//! resynth_robustness` and benchmarked by `benches/resynth.rs`.

use std::time::Instant;

use muxlink_core::metrics::score_key;
use muxlink_core::{key_input_names, AttackSession, MuxLinkConfig, NoProgress};
use muxlink_locking::{dmux, LockOptions, LockedNetlist};
use muxlink_netlist::passes::{pass_by_name, Pipeline};
use serde::Serialize;

/// One aggressiveness level: a named pass combination applied to the
/// locked design before the attacker sees it.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessLevel {
    /// Short level name (stable across runs; keys the JSON rows).
    pub name: &'static str,
    /// Pass names fed to [`pass_by_name`], in order.
    pub passes: Vec<&'static str>,
    /// `remap_gates` re-expression probability.
    pub remap_fraction: f64,
    /// Whether `remap_gates` may rewrite MUX cells (touches the locking
    /// MUXes themselves).
    pub remap_mux: bool,
}

impl RobustnessLevel {
    /// Builds the pipeline for this level (seeded passes use `seed`).
    ///
    /// # Panics
    ///
    /// Panics if a pass name is not in
    /// [`muxlink_netlist::passes::PASS_NAMES`] — levels are
    /// compile-time data, so that is a programming error.
    #[must_use]
    pub fn pipeline(&self, seed: u64) -> Pipeline {
        let mut p = Pipeline::new();
        for name in &self.passes {
            p.push(
                pass_by_name(name, seed, self.remap_fraction, self.remap_mux)
                    .expect("level uses a known pass name"),
            );
        }
        p
    }
}

/// The published ladder of levels, least to most aggressive.
#[must_use]
pub fn default_levels() -> Vec<RobustnessLevel> {
    let cleanup = || {
        vec![
            "constant_fold",
            "collapse_buffers",
            "simplify_muxes",
            "dead_logic_elim",
        ]
    };
    vec![
        RobustnessLevel {
            name: "noop",
            passes: vec![],
            remap_fraction: 0.0,
            remap_mux: false,
        },
        RobustnessLevel {
            name: "rename",
            passes: vec!["rename_wires"],
            remap_fraction: 0.0,
            remap_mux: false,
        },
        RobustnessLevel {
            name: "cleanup",
            passes: cleanup(),
            remap_fraction: 0.0,
            remap_mux: false,
        },
        RobustnessLevel {
            name: "remap25+cleanup",
            passes: {
                let mut p = vec!["remap_gates"];
                p.extend(cleanup());
                p
            },
            remap_fraction: 0.25,
            remap_mux: false,
        },
        RobustnessLevel {
            name: "remap100+cleanup",
            passes: {
                let mut p = vec!["remap_gates"];
                p.extend(cleanup());
                p
            },
            remap_fraction: 1.0,
            remap_mux: false,
        },
        RobustnessLevel {
            name: "remap100+mux+cleanup",
            passes: {
                let mut p = vec!["remap_gates"];
                p.extend(cleanup());
                p
            },
            remap_fraction: 1.0,
            remap_mux: true,
        },
    ]
}

/// Outcome of re-attacking one rewritten variant.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessOutcome {
    /// Level name.
    pub level: String,
    /// Pass names applied.
    pub passes: Vec<String>,
    /// Gate count of the locked design before rewriting.
    pub gates_before: usize,
    /// Gate count after the pipeline ran.
    pub gates_after: usize,
    /// Total rewrites the pipeline reported.
    pub rewrites: usize,
    /// Fixpoint iterations the pipeline took.
    pub iterations: usize,
    /// Whether the pipeline converged within its iteration cap.
    pub converged: bool,
    /// Key-recovery accuracy in percent (`None` when the attack errored).
    pub ac_pct: Option<f64>,
    /// Precision in percent.
    pub pc_pct: Option<f64>,
    /// KPA in percent (`None` when every bit was X or the attack errored).
    pub kpa_pct: Option<f64>,
    /// The recovered key rendered as `0`/`1`/`X` per bit.
    pub recovered_key: Option<String>,
    /// The attack (or rewrite) error, verbatim — a robustness datapoint,
    /// not a harness failure: a rewrite that breaks extraction has
    /// defeated this attacker.
    pub attack_error: Option<String>,
    /// Attack wall-clock seconds (0 when the attack never ran).
    pub seconds: f64,
}

/// Rewrites `locked` with `level`'s pipeline and re-attacks the result.
#[must_use]
pub fn run_level(
    locked: &LockedNetlist,
    level: &RobustnessLevel,
    cfg: &MuxLinkConfig,
    seed: u64,
) -> RobustnessOutcome {
    let mut rewritten = locked.netlist.clone();
    let gates_before = rewritten.gate_count();
    let mut out = RobustnessOutcome {
        level: level.name.to_owned(),
        passes: level.passes.iter().map(|s| (*s).to_owned()).collect(),
        gates_before,
        gates_after: gates_before,
        rewrites: 0,
        iterations: 0,
        converged: true,
        ac_pct: None,
        pc_pct: None,
        kpa_pct: None,
        recovered_key: None,
        attack_error: None,
        seconds: 0.0,
    };
    match level.pipeline(seed).run(&mut rewritten) {
        Ok(report) => {
            out.rewrites = report.total_rewrites();
            out.iterations = report.iterations;
            out.converged = report.converged;
        }
        Err(e) => {
            out.attack_error = Some(format!("rewrite failed: {e}"));
            return out;
        }
    }
    out.gates_after = rewritten.gate_count();
    let names = key_input_names(&rewritten);
    let t0 = Instant::now();
    match AttackSession::new(&rewritten, &names, cfg.clone()).run(&NoProgress) {
        Ok(scored) => {
            out.seconds = t0.elapsed().as_secs_f64();
            let guess = scored.recover_key(cfg.th);
            let m = score_key(&guess, &locked.key);
            out.ac_pct = Some(m.accuracy_pct());
            out.pc_pct = Some(m.precision_pct());
            out.kpa_pct = m.kpa_pct();
            out.recovered_key = Some(guess.iter().map(ToString::to_string).collect());
        }
        Err(e) => {
            out.seconds = t0.elapsed().as_secs_f64();
            out.attack_error = Some(e.to_string());
        }
    }
    out
}

/// The fig7-style pinned workload every PR benches against: `c1355`
/// scaled ×2, generation seed 1, D-MUX key size 16 lock seed 7. The
/// no-op level on this workload must recover the key
/// `0110110110000111` under the quick profile at one thread.
///
/// # Panics
///
/// Panics if locking fails — the workload is a fixed known-good design.
#[must_use]
pub fn fig7_workload() -> LockedNetlist {
    let profile = muxlink_benchgen::SyntheticSuite::iscas85()
        .find("c1355")
        .cloned()
        .expect("iscas85 suite defines c1355")
        .scaled(2.0);
    let design = profile.generate(1);
    // The CLI writes the generated design to a .bench file and re-parses
    // it before locking; the round trip reassigns net/gate ids, which
    // shifts D-MUX site selection. Mirror it so this workload locks the
    // byte-identical design the pinned CLI runs locked.
    let text = muxlink_netlist::bench_format::write(&design).expect("writable design");
    let design =
        muxlink_netlist::bench_format::parse(design.name(), &text).expect("round trip parses");
    let mut locked = dmux::lock(&design, &LockOptions::new(16, 7)).expect("c1355 x2 holds a key");
    // The CLI likewise re-parses the locked .bench before attacking, and
    // the attack is sensitive to internal id order (the writer normalises
    // topologically, so the bytes match even when ids do not). Round-trip
    // the locked netlist too, re-deriving the key-input ids by name.
    // `localities` still index the pre-round-trip netlist — the
    // robustness harness never reads them.
    let names = locked.key_input_names();
    let text = muxlink_netlist::bench_format::write(&locked.netlist).expect("writable locked");
    locked.netlist = muxlink_netlist::bench_format::parse(locked.netlist.name(), &text)
        .expect("locked round trip parses");
    locked.key_inputs = names
        .iter()
        .map(|n| {
            locked
                .netlist
                .find_net(n)
                .expect("key inputs survive the round trip")
        })
        .collect();
    locked
}

/// The attack configuration the pinned workload uses: quick profile at
/// one thread (deterministic and container-friendly).
#[must_use]
pub fn fig7_config() -> MuxLinkConfig {
    MuxLinkConfig::quick().with_threads(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fig7's per-MUX likelihoods `(l0, l1)` as `f64` bit patterns, in
    /// `extracted.muxes` order.
    const FIG7_GOLDEN_SCORES: [(u64, u64); 16] = [
        (0x3fdb58e900000000, 0x3fce970640000000),
        (0x3fc58b9ce0000000, 0x3fba6b5700000000),
        (0x3f9422c600000000, 0x3ff0000000000000),
        (0x3fe802b940000000, 0x3fe31b5040000000),
        (0x3f6ab4c740000000, 0x3feffeed40000000),
        (0x3fb2a81920000000, 0x3fefffffc0000000),
        (0x3fedfe0980000000, 0x3feda4aea0000000),
        (0x3fe68b8b60000000, 0x3feb63c880000000),
        (0x3f1fe3be40000000, 0x3feffff000000000),
        (0x3fefc04920000000, 0x3fe213d900000000),
        (0x3fefc5e580000000, 0x3fd8e3b1e0000000),
        (0x3fc1d2dc80000000, 0x3fb8f03860000000),
        (0x3fd76871c0000000, 0x3fa04ba660000000),
        (0x3fc0e72c80000000, 0x3feffda5e0000000),
        (0x3f8c3f5ec0000000, 0x3feffb8960000000),
        (0x3fbd798880000000, 0x3fefffffc0000000),
    ];

    /// Pins all 32 fig7 per-MUX scores (16 MUXes × `(l0, l1)`) bit for
    /// bit, plus the recovered key `0110110110000111` with all 16 bits
    /// decided, so any numerics or platform drift fails here by name.
    /// Trains the full quick-profile fig7 model, so it is `#[ignore]`d in
    /// the default suite and run by name in release.
    ///
    /// `tanh` is the in-repo port, but the softmax and the loss still take
    /// `expf`/`logf` from the host libm, so these bits are pinned to it.
    #[test]
    #[ignore = "trains the fig7 model; run by name in release"]
    fn fig7_scores_match_golden_bits() {
        let locked = fig7_workload();
        let cfg = fig7_config();
        let names = key_input_names(&locked.netlist);
        let scored = AttackSession::new(&locked.netlist, &names, cfg.clone())
            .run(&NoProgress)
            .expect("fig7 attack runs");
        let bits: Vec<(u64, u64)> = scored
            .scores
            .iter()
            .map(|&(l0, l1)| (l0.to_bits(), l1.to_bits()))
            .collect();
        assert_eq!(bits, FIG7_GOLDEN_SCORES);
        let key = scored.recover_key(cfg.th);
        assert_eq!(key.len(), 16);
        assert!(key.iter().all(|b| b.as_bool().is_some()), "16/16 decided");
        let key: String = key.iter().map(ToString::to_string).collect();
        assert_eq!(key, "0110110110000111");
    }

    #[test]
    fn levels_are_well_formed() {
        let levels = default_levels();
        assert_eq!(levels.len(), 6);
        assert_eq!(levels[0].name, "noop");
        assert!(levels[0].passes.is_empty());
        // Every named pass must resolve.
        for level in &levels {
            let p = level.pipeline(1);
            assert_eq!(p.pass_names().len(), level.passes.len(), "{}", level.name);
        }
        // The ladder ends with the MUX-rewriting level.
        assert!(levels.last().unwrap().remap_mux);
    }

    #[test]
    fn noop_level_is_a_true_noop() {
        let locked = {
            let design = muxlink_benchgen::synth::SynthConfig::new("d", 12, 6, 150).generate(1);
            dmux::lock(&design, &LockOptions::new(8, 2)).unwrap()
        };
        let level = &default_levels()[0];
        let mut n = locked.netlist.clone();
        let report = level.pipeline(1).run(&mut n).unwrap();
        assert_eq!(report.total_rewrites(), 0);
        assert_eq!(n, locked.netlist);
    }

    #[test]
    fn rename_level_keeps_key_inputs_addressable() {
        let locked = {
            let design = muxlink_benchgen::synth::SynthConfig::new("d", 12, 6, 150).generate(1);
            dmux::lock(&design, &LockOptions::new(8, 2)).unwrap()
        };
        let level = default_levels()
            .into_iter()
            .find(|l| l.name == "rename")
            .unwrap();
        let mut n = locked.netlist.clone();
        let report = level.pipeline(9).run(&mut n).unwrap();
        assert!(report.total_rewrites() > 0);
        assert_eq!(key_input_names(&n), locked.key_input_names());
    }
}
