//! Composable netlist rewrite passes and the fixpoint [`Pipeline`].
//!
//! The fold sweep behind [`crate::opt::resynthesize`] (one combined
//! sweep, the recipe the SWEEP/SCOPE baselines call) is decomposed here
//! into small named passes — in the style of an HDL compiler's pass
//! pipeline — next to two *structure-perturbing* passes the recipe never
//! had ([`RemapGates`], [`RenameWires`]). The pipeline serves two
//! masters:
//!
//! * **Attack preprocessing** — canonicalize a netlist before structural
//!   extraction ([`Pipeline::cleanup`]).
//! * **The resynthesis threat model** — an adversarial *defender*
//!   rewrites a locked netlist (constant folding, MUX simplification,
//!   gate remapping, wire renaming) before handing it to the attacker;
//!   `crates/bench`'s `resynth_robustness` harness measures whether
//!   MuxLink's recovered-key accuracy survives the perturbation.
//!
//! # Contracts
//!
//! Every pass preserves primary-input and primary-output names and the
//! simulated function of every primary output (the differential-simulation
//! oracle in `tests/tests/pass_equivalence.rs` enforces this for every
//! pass, every pass pair and the full pipeline). A [`PassReport`] with
//! `rewrites == 0` guarantees the netlist was left **identical** (`==`),
//! which is what makes the fixpoint loop sound.
//!
//! Passes where repetition is meaningful (`fixpoint() == true`) run every
//! iteration until a whole iteration reports zero rewrites; perturbation
//! passes ([`RemapGates`], [`RenameWires`], [`AssignConstants`]) run in
//! the first iteration only — re-running them forever would never
//! converge (or, for [`AssignConstants`], error on the now-removed pins).

mod assign;
mod dead;
mod fold;
mod remap;
mod rename;

use std::time::Instant;

use crate::{Netlist, NetlistError};

pub use assign::AssignConstants;
pub use dead::DeadLogicElim;
pub(crate) use fold::sweep_full_for_resynth;
pub use fold::{CollapseBuffers, ConstantFold, SimplifyMuxes};
pub use remap::RemapGates;
pub use rename::RenameWires;

/// One netlist rewrite with a name, a rewrite budget report and a
/// convergence contract (see the module docs).
pub trait Pass {
    /// Stable machine-readable pass name (`constant_fold`, …) — the
    /// grammar of `muxlink resynth --passes` and of reports.
    fn name(&self) -> &'static str;

    /// Rewrites `netlist` in place.
    ///
    /// Reporting `rewrites == 0` asserts the netlist is unchanged
    /// (structurally identical, `==`); the pipeline relies on this for
    /// fixpoint detection and the pipeline-law tests enforce it.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`]s (loops, unknown nets, …); on error the
    /// netlist must be left as it was.
    fn run(&self, netlist: &mut Netlist) -> Result<PassReport, NetlistError>;

    /// Whether re-running the pass can make further progress toward a
    /// fixpoint. Perturbation passes return `false` and execute only in
    /// the pipeline's first iteration.
    fn fixpoint(&self) -> bool {
        true
    }
}

/// What one pass execution did.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// The pass's [`Pass::name`].
    pub name: &'static str,
    /// Number of rewrite events (gates folded/remapped/removed, nets
    /// renamed, …). **Exactly zero iff the pass left the netlist
    /// identical.**
    pub rewrites: usize,
    /// Wall-clock spent in the pass.
    pub seconds: f64,
}

/// Aggregate of one [`Pipeline::run`]: every pass execution in order,
/// plus the fixpoint outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Per-pass reports in execution order (across all iterations).
    pub passes: Vec<PassReport>,
    /// Number of iterations executed (≥ 1 when any pass ran).
    pub iterations: usize,
    /// True when the last iteration made zero rewrites (a fixpoint was
    /// reached rather than the iteration cap).
    pub converged: bool,
}

impl PipelineReport {
    /// Total rewrites across every pass execution.
    #[must_use]
    pub fn total_rewrites(&self) -> usize {
        self.passes.iter().map(|p| p.rewrites).sum()
    }
}

/// An ordered list of passes run to fixpoint (capped).
///
/// ```
/// use muxlink_netlist::{bench_format, passes::Pipeline};
///
/// let mut n = bench_format::parse("t", "INPUT(a)\nOUTPUT(y)\n\
///     t1 = NOT(a)\nt2 = NOT(t1)\ny = BUFF(t2)\n").unwrap();
/// let report = Pipeline::cleanup().run(&mut n).unwrap();
/// assert!(report.converged);
/// assert_eq!(n.gate_count(), 1); // y = BUFF(a)
/// ```
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
    max_iterations: usize,
}

impl Pipeline {
    /// Default iteration cap: generous — the cleanup passes converge in
    /// 2–3 iterations on everything we have ever generated — but finite,
    /// so a buggy pass cannot hang the caller.
    pub const DEFAULT_MAX_ITERATIONS: usize = 10;

    /// An empty pipeline (a no-op; useful as the robustness baseline).
    #[must_use]
    pub fn new() -> Self {
        Self {
            passes: Vec::new(),
            max_iterations: Self::DEFAULT_MAX_ITERATIONS,
        }
    }

    /// The canonicalization pipeline: `constant_fold`, `collapse_buffers`,
    /// `simplify_muxes`, `dead_logic_elim`, to fixpoint.
    #[must_use]
    pub fn cleanup() -> Self {
        Self::new()
            .with(ConstantFold)
            .with(CollapseBuffers)
            .with(SimplifyMuxes)
            .with(DeadLogicElim)
    }

    /// Appends a pass (builder style).
    #[must_use]
    pub fn with(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends an already-boxed pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Sets the fixpoint iteration cap (min 1).
    #[must_use]
    pub fn max_iterations(mut self, cap: usize) -> Self {
        self.max_iterations = cap.max(1);
        self
    }

    /// The passes' names, in order.
    #[must_use]
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order, repeating until an entire iteration
    /// reports zero rewrites or the iteration cap is hit. Non-fixpoint
    /// passes execute in the first iteration only.
    ///
    /// # Errors
    ///
    /// Propagates the first pass error; `netlist` keeps the result of the
    /// passes that already ran.
    pub fn run(&self, netlist: &mut Netlist) -> Result<PipelineReport, NetlistError> {
        let mut report = PipelineReport {
            passes: Vec::new(),
            iterations: 0,
            converged: false,
        };
        while report.iterations < self.max_iterations {
            report.iterations += 1;
            let first = report.iterations == 1;
            let mut rewrites = 0;
            for pass in &self.passes {
                if !first && !pass.fixpoint() {
                    continue;
                }
                let t0 = Instant::now();
                let mut r = pass.run(netlist)?;
                r.seconds = t0.elapsed().as_secs_f64();
                rewrites += r.rewrites;
                report.passes.push(r);
            }
            if rewrites == 0 {
                report.converged = true;
                break;
            }
        }
        Ok(report)
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

/// The names [`pass_by_name`] understands, in canonical pipeline order —
/// the vocabulary of `muxlink resynth --passes`.
pub const PASS_NAMES: &[&str] = &[
    "constant_fold",
    "collapse_buffers",
    "simplify_muxes",
    "dead_logic_elim",
    "remap_gates",
    "rename_wires",
];

/// Instantiates a pass from its [`PASS_NAMES`] name. `seed` feeds the
/// seeded passes; `remap_fraction`/`remap_mux` configure [`RemapGates`].
#[must_use]
pub fn pass_by_name(
    name: &str,
    seed: u64,
    remap_fraction: f64,
    remap_mux: bool,
) -> Option<Box<dyn Pass>> {
    Some(match name {
        "constant_fold" => Box::new(ConstantFold),
        "collapse_buffers" => Box::new(CollapseBuffers),
        "simplify_muxes" => Box::new(SimplifyMuxes),
        "dead_logic_elim" => Box::new(DeadLogicElim),
        "remap_gates" => Box::new(RemapGates::new(seed, remap_fraction, remap_mux)),
        "rename_wires" => Box::new(RenameWires::new(seed)),
        _ => return None,
    })
}

/// Shared pass tail enforcing the `rewrites == 0 ⇒ unchanged` law for
/// rebuild-style passes. When no rule fired (`events == 0`) the original
/// is kept untouched — a rebuild that merely reordered gates is not a
/// rewrite. When rules fired but the net effect was nil (e.g. a buffer
/// elided and re-materialised verbatim), the structural comparison catches
/// it and zero is reported. Otherwise the rebuild replaces the original.
fn finish(netlist: &mut Netlist, rebuilt: Netlist, events: usize) -> usize {
    if events == 0 || *netlist == rebuilt {
        return 0;
    }
    *netlist = rebuilt;
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse;
    use crate::sim::exhaustive_equiv;
    use crate::GateType;

    fn sample() -> Netlist {
        parse(
            "t",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
             t1 = NAND(a, b)\nt2 = XOR(t1, c)\nt3 = NOR(a, c)\n\
             i1 = NOT(t2)\ni2 = NOT(i1)\n\
             y = MUX(b, i2, t3)\nz = XNOR(t1, t3)\n",
        )
        .unwrap()
    }

    #[test]
    fn cleanup_pipeline_converges_and_preserves_function() {
        let original = sample();
        let mut n = original.clone();
        let report = Pipeline::cleanup().run(&mut n).unwrap();
        assert!(report.converged);
        assert!(report.iterations <= Pipeline::DEFAULT_MAX_ITERATIONS);
        assert!(n.validate().is_ok());
        assert!(exhaustive_equiv(&original, &n).unwrap());
        // The double inverter must be gone.
        assert_eq!(
            n.gate_type_histogram().get(&GateType::Not).copied(),
            None,
            "{:?}",
            n.gate_type_histogram()
        );
    }

    #[test]
    fn zero_rewrites_means_untouched() {
        let mut n = sample();
        Pipeline::cleanup().run(&mut n).unwrap();
        let frozen = n.clone();
        let report = Pipeline::cleanup().run(&mut n).unwrap();
        assert_eq!(report.total_rewrites(), 0);
        assert!(report.converged);
        assert_eq!(report.iterations, 1);
        assert_eq!(n, frozen);
    }

    #[test]
    fn empty_pipeline_is_a_noop() {
        let mut n = sample();
        let frozen = n.clone();
        let report = Pipeline::new().run(&mut n).unwrap();
        assert!(report.converged);
        assert_eq!(report.total_rewrites(), 0);
        assert_eq!(n, frozen);
    }

    #[test]
    fn pass_factory_covers_every_name() {
        for name in PASS_NAMES {
            let pass = pass_by_name(name, 7, 0.5, false).expect("known name");
            assert_eq!(pass.name(), *name);
        }
        assert!(pass_by_name("nope", 0, 0.0, false).is_none());
    }

    #[test]
    fn iteration_cap_is_respected() {
        let mut n = sample();
        let report = Pipeline::cleanup().max_iterations(1).run(&mut n).unwrap();
        assert_eq!(report.iterations, 1);
    }
}
