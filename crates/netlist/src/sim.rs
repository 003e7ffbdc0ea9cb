//! Bit-parallel logic simulation and Hamming-distance estimation.
//!
//! Each `u64` word carries 64 independent input patterns through the
//! circuit in one sweep, which is how the paper's Fig. 8 experiment
//! (output Hamming distance under 100 000 random patterns, originally run
//! with Synopsys VCS) is reproduced exactly — random-pattern HD between two
//! combinational netlists is simulator-independent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{GateId, Netlist, NetlistError};

/// A compiled simulator for one [`Netlist`]: the topological schedule is
/// computed once and reused across pattern sweeps.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: Vec<GateId>,
}

impl<'a> Simulator<'a> {
    /// Compiles the netlist into an evaluation schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] for cyclic netlists.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let order = crate::traversal::topological_order(netlist)?;
        Ok(Self { netlist, order })
    }

    /// Evaluates one 64-pattern sweep.
    ///
    /// `input_words[i]` carries 64 values for the i-th primary input (in
    /// [`Netlist::inputs`] order). Returns one word per primary output.
    ///
    /// # Panics
    ///
    /// Panics when `input_words.len()` differs from the input count.
    #[must_use]
    pub fn run_words(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            input_words.len(),
            self.netlist.inputs().len(),
            "one word per primary input required"
        );
        let mut values = vec![0u64; self.netlist.net_count()];
        for (&net, &word) in self.netlist.inputs().iter().zip(input_words) {
            values[net.index()] = word;
        }
        let mut ins: Vec<u64> = Vec::with_capacity(8);
        for &gid in &self.order {
            let gate = self.netlist.gate(gid);
            ins.clear();
            ins.extend(gate.inputs().iter().map(|&n| values[n.index()]));
            values[gate.output().index()] = gate.ty().eval_words(&ins);
        }
        self.netlist
            .outputs()
            .iter()
            .map(|&o| values[o.index()])
            .collect()
    }

    /// Evaluates a single boolean pattern.
    ///
    /// # Panics
    ///
    /// Panics when the pattern length differs from the input count.
    #[must_use]
    pub fn run_bools(&self, pattern: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = pattern.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.run_words(&words).iter().map(|&w| w & 1 == 1).collect()
    }

    /// The netlist this simulator was compiled for.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }
}

/// Result of a Hamming-distance measurement between two netlists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HammingReport {
    /// Number of input patterns simulated.
    pub patterns: usize,
    /// Number of output bits compared (`patterns × outputs`).
    pub bits_compared: u64,
    /// Number of differing output bits.
    pub bits_differing: u64,
}

impl HammingReport {
    /// Hamming distance as a fraction in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.bits_compared == 0 {
            0.0
        } else {
            self.bits_differing as f64 / self.bits_compared as f64
        }
    }

    /// Hamming distance as a percentage (the unit used in the paper's
    /// Fig. 8).
    #[must_use]
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }
}

/// Estimates the output Hamming distance between two netlists under
/// `patterns` uniformly random input vectors (deterministic in `seed`).
///
/// Outputs and inputs are matched **by name**, so the two designs may
/// order their interfaces differently (e.g. a locked design lists key
/// inputs that the original lacks — such extra inputs are an error; use
/// [`hamming_distance_with_key`] on locked designs instead).
///
/// # Errors
///
/// Returns [`NetlistError::InterfaceMismatch`] when the designs do not
/// share identical input/output name sets, and propagates loop errors.
pub fn hamming_distance(
    a: &Netlist,
    b: &Netlist,
    patterns: usize,
    seed: u64,
) -> Result<HammingReport, NetlistError> {
    let names_a: std::collections::BTreeSet<_> = a.input_names().into_iter().collect();
    let names_b: std::collections::BTreeSet<_> = b.input_names().into_iter().collect();
    if names_a != names_b {
        return Err(NetlistError::InterfaceMismatch(
            "primary input names differ".into(),
        ));
    }
    // With equal input name sets every input of `b` is functional, so
    // the keyed form with no key is exactly this comparison (it also
    // checks the output name sets).
    hamming_distance_with_key(a, b, &std::collections::HashMap::new(), patterns, seed)
}

/// Like [`hamming_distance`], but `b` (the locked/recovered design) may have
/// extra inputs (key inputs) whose values are fixed by `key_assignment`
/// (name → value).
///
/// # Errors
///
/// Returns [`NetlistError::InterfaceMismatch`] when `b`'s extra inputs are
/// not all covered by `key_assignment`, when `a` has inputs `b` lacks, or
/// when output name sets differ.
pub fn hamming_distance_with_key(
    a: &Netlist,
    b: &Netlist,
    key_assignment: &std::collections::HashMap<String, bool>,
    patterns: usize,
    seed: u64,
) -> Result<HammingReport, NetlistError> {
    let names_a: std::collections::BTreeSet<String> =
        a.input_names().into_iter().map(str::to_owned).collect();
    for ia in &names_a {
        if b.find_net(ia).is_none() {
            return Err(NetlistError::InterfaceMismatch(format!(
                "locked design lacks functional input `{ia}`"
            )));
        }
    }
    let outs_a: std::collections::BTreeSet<_> = a.output_names().into_iter().collect();
    let outs_b: std::collections::BTreeSet<_> = b.output_names().into_iter().collect();
    if outs_a != outs_b {
        return Err(NetlistError::InterfaceMismatch(
            "primary output names differ".into(),
        ));
    }

    enum Src {
        Functional(usize),
        Fixed(u64),
    }
    let mut b_sources = Vec::with_capacity(b.inputs().len());
    for &nb in b.inputs() {
        let name = b.net(nb).name();
        if let Some(pos) = a.inputs().iter().position(|&na| a.net(na).name() == name) {
            b_sources.push(Src::Functional(pos));
        } else if let Some(&v) = key_assignment.get(name) {
            b_sources.push(Src::Fixed(if v { !0 } else { 0 }));
        } else {
            return Err(NetlistError::InterfaceMismatch(format!(
                "no key value provided for extra input `{name}`"
            )));
        }
    }
    let b_output_order: Vec<usize> = a
        .outputs()
        .iter()
        .map(|&na| {
            let name = a.net(na).name();
            b.outputs()
                .iter()
                .position(|&nb| b.net(nb).name() == name)
                .expect("name sets equal")
        })
        .collect();

    let sim_a = Simulator::new(a)?;
    let sim_b = Simulator::new(b)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bits_differing = 0u64;
    let mut remaining = patterns;
    while remaining > 0 {
        let lanes = remaining.min(64);
        let mask = if lanes == 64 {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };
        let words_a: Vec<u64> = (0..a.inputs().len()).map(|_| rng.gen::<u64>()).collect();
        let words_b: Vec<u64> = b_sources
            .iter()
            .map(|s| match s {
                Src::Functional(i) => words_a[*i],
                Src::Fixed(w) => *w,
            })
            .collect();
        let out_a = sim_a.run_words(&words_a);
        let out_b = sim_b.run_words(&words_b);
        for (ia, &pos_b) in b_output_order.iter().enumerate() {
            bits_differing += ((out_a[ia] ^ out_b[pos_b]) & mask).count_ones() as u64;
        }
        remaining -= lanes;
    }
    Ok(HammingReport {
        patterns,
        bits_compared: patterns as u64 * a.outputs().len() as u64,
        bits_differing,
    })
}

/// Exhaustively checks functional equivalence of two small netlists
/// (≤ 20 shared inputs) by simulating the full truth table.
///
/// # Errors
///
/// Interface mismatches and loops as in [`hamming_distance`]; also errors
/// when the input count exceeds 20 (use random sampling instead).
pub fn exhaustive_equiv(a: &Netlist, b: &Netlist) -> Result<bool, NetlistError> {
    let k = a.inputs().len();
    if k > 20 {
        return Err(NetlistError::InterfaceMismatch(
            "too many inputs for exhaustive check (max 20)".into(),
        ));
    }
    let total = 1usize << k;
    let sim_a = Simulator::new(a)?;
    let sim_b = Simulator::new(b)?;
    let names_b: Vec<usize> = b
        .inputs()
        .iter()
        .map(|&nb| {
            a.inputs()
                .iter()
                .position(|&na| a.net(na).name() == b.net(nb).name())
                .ok_or_else(|| NetlistError::InterfaceMismatch("input names differ".into()))
        })
        .collect::<Result<_, _>>()?;
    let b_output_order: Vec<usize> = a
        .outputs()
        .iter()
        .map(|&na| {
            b.outputs()
                .iter()
                .position(|&nb| b.net(nb).name() == a.net(na).name())
                .ok_or_else(|| NetlistError::InterfaceMismatch("output names differ".into()))
        })
        .collect::<Result<_, _>>()?;

    let mut base = 0usize;
    while base < total {
        let lanes = (total - base).min(64);
        let mut words_a = vec![0u64; k];
        for lane in 0..lanes {
            let pat = base + lane;
            for (i, w) in words_a.iter_mut().enumerate() {
                if pat >> i & 1 == 1 {
                    *w |= 1u64 << lane;
                }
            }
        }
        let words_b: Vec<u64> = names_b.iter().map(|&i| words_a[i]).collect();
        let mask = if lanes == 64 {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };
        let out_a = sim_a.run_words(&words_a);
        let out_b = sim_b.run_words(&words_b);
        for (ia, &pb) in b_output_order.iter().enumerate() {
            if (out_a[ia] ^ out_b[pb]) & mask != 0 {
                return Ok(false);
            }
        }
        base += lanes;
    }
    Ok(true)
}

/// Signal probabilities (probability each net is logic-1 under independent
/// uniform inputs), propagated topologically with the independence
/// approximation. Used by the SWEEP/SCOPE power-proxy feature.
///
/// # Errors
///
/// Propagates loop errors from the topological sort.
pub fn signal_probabilities(netlist: &Netlist) -> Result<Vec<f64>, NetlistError> {
    let order = crate::traversal::topological_order(netlist)?;
    let mut p = vec![0.5f64; netlist.net_count()];
    for &net in netlist.net_ids().collect::<Vec<_>>().iter() {
        if netlist.net(net).driver().is_none() && !netlist.net(net).is_input() {
            p[net.index()] = 0.5;
        }
    }
    for gid in order {
        let gate = netlist.gate(gid);
        let ins: Vec<f64> = gate.inputs().iter().map(|&n| p[n.index()]).collect();
        let out = match gate.ty() {
            crate::GateType::And => ins.iter().product(),
            crate::GateType::Nand => 1.0 - ins.iter().product::<f64>(),
            crate::GateType::Or => 1.0 - ins.iter().map(|q| 1.0 - q).product::<f64>(),
            crate::GateType::Nor => ins.iter().map(|q| 1.0 - q).product::<f64>(),
            crate::GateType::Xor => ins
                .iter()
                .fold(0.0, |acc, &q| acc * (1.0 - q) + (1.0 - acc) * q),
            crate::GateType::Xnor => {
                1.0 - ins
                    .iter()
                    .fold(0.0, |acc, &q| acc * (1.0 - q) + (1.0 - acc) * q)
            }
            crate::GateType::Not => 1.0 - ins[0],
            crate::GateType::Buf => ins[0],
            crate::GateType::Mux => {
                let (s, a, b) = (ins[0], ins[1], ins[2]);
                (1.0 - s) * a + s * b
            }
            crate::GateType::Const0 => 0.0,
            crate::GateType::Const1 => 1.0,
        };
        p[gate.output().index()] = out;
    }
    Ok(p)
}

/// Switching activity proxy: `2·p·(1−p)` summed over all gate outputs — the
/// standard zero-delay toggle-rate estimate that stands in for the dynamic
/// power numbers SWEEP/SCOPE read from a synthesis report.
///
/// # Errors
///
/// Propagates loop errors.
pub fn switching_activity(netlist: &Netlist) -> Result<f64, NetlistError> {
    let p = signal_probabilities(netlist)?;
    Ok(netlist
        .gates()
        .map(|(_, g)| {
            let q = p[g.output().index()];
            2.0 * q * (1.0 - q)
        })
        .sum())
}

/// Convenience: generates `n` random bool patterns for a given input count
/// (deterministic in `seed`) — handy for tests and examples.
#[must_use]
pub fn random_patterns(inputs: usize, n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..inputs).map(|_| rng.gen::<bool>()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format;
    use crate::GateType;

    fn xor_pair() -> (Netlist, Netlist) {
        // Two implementations of XOR.
        let direct =
            bench_format::parse("direct", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
                .unwrap();
        let nand_impl = bench_format::parse(
            "nand_impl",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
             t1 = NAND(a, b)\nt2 = NAND(a, t1)\nt3 = NAND(b, t1)\ny = NAND(t2, t3)\n",
        )
        .unwrap();
        (direct, nand_impl)
    }

    #[test]
    fn simulate_truth_table() {
        let (direct, _) = xor_pair();
        let sim = Simulator::new(&direct).unwrap();
        assert_eq!(sim.run_bools(&[false, false]), vec![false]);
        assert_eq!(sim.run_bools(&[true, false]), vec![true]);
        assert_eq!(sim.run_bools(&[false, true]), vec![true]);
        assert_eq!(sim.run_bools(&[true, true]), vec![false]);
    }

    #[test]
    fn equivalent_implementations_have_zero_hd() {
        let (a, b) = xor_pair();
        let r = hamming_distance(&a, &b, 1000, 7).unwrap();
        assert_eq!(r.bits_differing, 0);
        assert_eq!(r.percent(), 0.0);
        assert!(exhaustive_equiv(&a, &b).unwrap());
    }

    #[test]
    fn inverted_output_has_full_hd() {
        let (a, _) = xor_pair();
        let inv =
            bench_format::parse("inv", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XNOR(a, b)\n").unwrap();
        let r = hamming_distance(&a, &inv, 512, 3).unwrap();
        assert_eq!(r.fraction(), 1.0);
        assert!(!exhaustive_equiv(&a, &inv).unwrap());
    }

    #[test]
    fn hd_estimate_near_half_for_unrelated_outputs() {
        let a = bench_format::parse("a", "INPUT(x)\nINPUT(y)\nOUTPUT(o)\no = AND(x, y)\n").unwrap();
        let b = bench_format::parse("b", "INPUT(x)\nINPUT(y)\nOUTPUT(o)\no = OR(x, y)\n").unwrap();
        // AND vs OR differ on exactly 2 of 4 patterns → HD = 0.5.
        let r = hamming_distance(&a, &b, 100_000, 99).unwrap();
        assert!((r.fraction() - 0.5).abs() < 0.01, "got {}", r.fraction());
    }

    #[test]
    fn interface_mismatch_rejected() {
        let a = bench_format::parse("a", "INPUT(x)\nOUTPUT(o)\no = NOT(x)\n").unwrap();
        let b = bench_format::parse("b", "INPUT(z)\nOUTPUT(o)\no = NOT(z)\n").unwrap();
        assert!(matches!(
            hamming_distance(&a, &b, 10, 0),
            Err(NetlistError::InterfaceMismatch(_))
        ));
    }

    #[test]
    fn keyed_hd_matches_plain_when_key_correct() {
        // locked: y = MUX(k, correct, wrong). With k=0 it equals original.
        let orig =
            bench_format::parse("o", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let locked = bench_format::parse(
            "l",
            "INPUT(a)\nINPUT(b)\nINPUT(k0)\nOUTPUT(y)\n\
             t = AND(a, b)\nw = OR(a, b)\ny = MUX(k0, t, w)\n",
        )
        .unwrap();
        let mut key = std::collections::HashMap::new();
        key.insert("k0".to_owned(), false);
        let r = hamming_distance_with_key(&orig, &locked, &key, 4096, 5).unwrap();
        assert_eq!(r.bits_differing, 0);
        key.insert("k0".to_owned(), true);
        let r = hamming_distance_with_key(&orig, &locked, &key, 4096, 5).unwrap();
        assert!(r.fraction() > 0.2);
    }

    #[test]
    fn keyed_hd_missing_key_is_error() {
        let orig = bench_format::parse("o", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let locked = bench_format::parse(
            "l",
            "INPUT(a)\nINPUT(k0)\nOUTPUT(y)\nt = NOT(a)\ny = MUX(k0, t, a)\n",
        )
        .unwrap();
        let key = std::collections::HashMap::new();
        assert!(matches!(
            hamming_distance_with_key(&orig, &locked, &key, 16, 0),
            Err(NetlistError::InterfaceMismatch(_))
        ));
    }

    #[test]
    fn signal_probabilities_basic() {
        let mut n = Netlist::new("p");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let and = n.add_gate("and", GateType::And, &[a, b]).unwrap();
        let or = n.add_gate("or", GateType::Or, &[a, b]).unwrap();
        let x = n.add_gate("x", GateType::Xor, &[a, b]).unwrap();
        n.mark_output(and).unwrap();
        n.mark_output(or).unwrap();
        n.mark_output(x).unwrap();
        let p = signal_probabilities(&n).unwrap();
        assert!((p[and.index()] - 0.25).abs() < 1e-12);
        assert!((p[or.index()] - 0.75).abs() < 1e-12);
        assert!((p[x.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn switching_activity_positive() {
        let (a, _) = xor_pair();
        assert!(switching_activity(&a).unwrap() > 0.0);
    }

    #[test]
    fn random_patterns_deterministic() {
        assert_eq!(random_patterns(5, 10, 42), random_patterns(5, 10, 42));
        assert_ne!(random_patterns(5, 10, 42), random_patterns(5, 10, 43));
    }

    #[test]
    fn exhaustive_equiv_rejects_wide_designs() {
        let mut n = Netlist::new("wide");
        let mut ins = Vec::new();
        for i in 0..21 {
            ins.push(n.add_input(format!("i{i}")).unwrap());
        }
        let y = n.add_gate("y", GateType::And, &ins).unwrap();
        n.mark_output(y).unwrap();
        assert!(exhaustive_equiv(&n, &n).is_err());
    }
}
