//! Lightweight resynthesis: constant propagation, algebraic folding,
//! buffer/double-inverter collapsing and dead-logic elimination.
//!
//! This pass plays the role of the commercial synthesis step in the SWEEP
//! and SCOPE constant-propagation attacks: each key input is hard-coded to
//! 0 and then 1, the circuit is re-optimised, and the *difference* between
//! the two optimised circuits' features is what leaks (or, for D-MUX and
//! symmetric MUX locking, deliberately does not leak) the key.
//!
//! The fold sweep itself lives in [`crate::passes`], decomposed into named
//! passes ([`crate::passes::ConstantFold`], … ) that a
//! [`crate::passes::Pipeline`] can run to fixpoint; [`resynthesize`] runs
//! all of them as one combined sweep and is the only entry point to that
//! recipe, kept bit-compatible with the historical monolith for the
//! baselines.

use std::collections::HashMap;

use crate::{NetId, Netlist, NetlistError};

/// Rebuilds `netlist` with the given primary inputs fixed to constants
/// (by name), propagating constants, folding trivial gates, collapsing
/// buffers and double inverters, and removing logic that no longer feeds
/// any primary output.
///
/// Primary inputs that are not assigned survive unchanged; assigned inputs
/// disappear from the interface (exactly like tying a pin in synthesis).
/// Primary outputs keep their names — an output that collapses to a
/// constant is driven by a `CONST0`/`CONST1` cell.
///
/// One combined fold sweep (every rule family of [`crate::passes`]'
/// folding passes) followed by [`strip_dead`], pinned bit-compatible with
/// the pre-pass-framework monolith.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownNet`] when an assignment names a missing
/// net, and propagates loop errors.
pub fn resynthesize(
    netlist: &Netlist,
    constants: &HashMap<String, bool>,
) -> Result<Netlist, NetlistError> {
    let swept = crate::passes::sweep_full_for_resynth(netlist, constants)?;
    Ok(strip_dead(&swept))
}

/// Removes every gate that does not (transitively) feed a primary output.
/// Unused primary inputs are preserved (the interface is part of the
/// design), unused internal logic is not.
#[must_use]
pub fn strip_dead(netlist: &Netlist) -> Netlist {
    let live = crate::cones::live_gates(netlist);
    let mut out = Netlist::new(netlist.name().to_owned());
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for &pi in netlist.inputs() {
        let id = out
            .add_input(netlist.net(pi).name().to_owned())
            .expect("unique names in source netlist");
        map.insert(pi, id);
    }
    let order = crate::traversal::topological_order(netlist)
        .expect("strip_dead requires an acyclic netlist");
    for gid in order {
        if !live.contains(&gid) {
            continue;
        }
        let gate = netlist.gate(gid);
        let ins: Vec<NetId> = gate.inputs().iter().map(|n| map[n]).collect();
        let id = out
            .add_gate(
                netlist.net(gate.output()).name().to_owned(),
                gate.ty(),
                &ins,
            )
            .expect("unique names in source netlist");
        map.insert(gate.output(), id);
    }
    for &po in netlist.outputs() {
        let id = map[&po];
        out.mark_output(id).expect("net exists");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse;
    use crate::sim::exhaustive_equiv;
    use crate::GateType;

    fn fix(name: &str, v: bool) -> HashMap<String, bool> {
        let mut m = HashMap::new();
        m.insert(name.to_owned(), v);
        m
    }

    #[test]
    fn and_with_zero_collapses() {
        let n = parse("t", "INPUT(a)\nINPUT(k)\nOUTPUT(y)\ny = AND(a, k)\n").unwrap();
        let r = resynthesize(&n, &fix("k", false)).unwrap();
        // y is constant 0.
        let y = r.find_net("y").unwrap();
        assert_eq!(r.gate(r.net(y).driver().unwrap()).ty(), GateType::Const0);
        let r1 = resynthesize(&n, &fix("k", true)).unwrap();
        // y aliases a through a buffer.
        let y1 = r1.find_net("y").unwrap();
        assert_eq!(r1.gate(r1.net(y1).driver().unwrap()).ty(), GateType::Buf);
    }

    #[test]
    fn mux_select_constant_picks_branch() {
        let n = parse(
            "t",
            "INPUT(a)\nINPUT(b)\nINPUT(k)\nOUTPUT(y)\n\
             t0 = NOT(a)\nt1 = AND(a, b)\ny = MUX(k, t0, t1)\n",
        )
        .unwrap();
        let r0 = resynthesize(&n, &fix("k", false)).unwrap();
        // Only NOT survives (t1 becomes dead logic).
        assert_eq!(
            r0.gate_type_histogram().get(&GateType::And).copied(),
            None,
            "dead AND should be stripped: {:?}",
            r0.gate_type_histogram()
        );
        let r1 = resynthesize(&n, &fix("k", true)).unwrap();
        assert_eq!(r1.gate_type_histogram().get(&GateType::Not).copied(), None);
    }

    #[test]
    fn resynth_preserves_function_on_unassigned_inputs() {
        let n = parse(
            "t",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
             t1 = NAND(a, b)\nt2 = XOR(t1, c)\nt3 = NOR(a, c)\n\
             y = MUX(b, t2, t3)\nz = XNOR(t1, t3)\n",
        )
        .unwrap();
        let empty = HashMap::new();
        let r = resynthesize(&n, &empty).unwrap();
        assert!(exhaustive_equiv(&n, &r).unwrap());
    }

    #[test]
    fn resynth_with_constant_matches_cofactor() {
        let n = parse(
            "t",
            "INPUT(a)\nINPUT(b)\nINPUT(k)\nOUTPUT(y)\n\
             t1 = XOR(a, k)\nt2 = OR(b, k)\ny = AND(t1, t2)\n",
        )
        .unwrap();
        for kv in [false, true] {
            let r = resynthesize(&n, &fix("k", kv)).unwrap();
            // Build the expected cofactor by simulation comparison.
            let sim_full = crate::sim::Simulator::new(&n).unwrap();
            let sim_cof = crate::sim::Simulator::new(&r).unwrap();
            // r's inputs are a, b (k eliminated).
            assert_eq!(r.inputs().len(), 2);
            for a in [false, true] {
                for b in [false, true] {
                    let full = sim_full.run_bools(&[a, b, kv]);
                    let aidx = r
                        .inputs()
                        .iter()
                        .position(|&i| r.net(i).name() == "a")
                        .unwrap();
                    let mut pat = [false, false];
                    pat[aidx] = a;
                    pat[1 - aidx] = b;
                    let cof = sim_cof.run_bools(&pat);
                    assert_eq!(full, cof, "a={a} b={b} k={kv}");
                }
            }
        }
    }

    #[test]
    fn double_inverter_collapses() {
        let n = parse(
            "t",
            "INPUT(a)\nOUTPUT(y)\nt1 = NOT(a)\nt2 = NOT(t1)\ny = BUFF(t2)\n",
        )
        .unwrap();
        let r = resynthesize(&n, &HashMap::new()).unwrap();
        // Everything collapses to y = BUFF(a).
        assert_eq!(r.gate_count(), 1);
        assert_eq!(
            r.gate(r.net(r.find_net("y").unwrap()).driver().unwrap())
                .ty(),
            GateType::Buf
        );
    }

    #[test]
    fn xor_cancellation() {
        let n = parse("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b, a)\n").unwrap();
        let r = resynthesize(&n, &HashMap::new()).unwrap();
        // XOR(a,b,a) = b.
        assert!(exhaustive_equiv(
            &parse("e", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = BUFF(b)\n").unwrap(),
            &r
        )
        .unwrap());
    }

    #[test]
    fn output_constant_materialised() {
        let n = parse("t", "INPUT(k)\nOUTPUT(y)\ny = AND(k, k)\n").unwrap();
        let r = resynthesize(&n, &fix("k", true)).unwrap();
        let y = r.find_net("y").unwrap();
        assert_eq!(r.gate(r.net(y).driver().unwrap()).ty(), GateType::Const1);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn strip_dead_removes_unreferenced_logic() {
        let n = parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
             dead1 = AND(a, b)\ndead2 = NOT(dead1)\ny = OR(a, b)\n",
        )
        .unwrap();
        let r = strip_dead(&n);
        assert_eq!(r.gate_count(), 1);
        assert_eq!(r.inputs().len(), 2);
    }

    #[test]
    fn unknown_constant_net_rejected() {
        let n = parse("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        assert!(matches!(
            resynthesize(&n, &fix("nope", true)),
            Err(NetlistError::UnknownNet(_))
        ));
    }

    #[test]
    fn no_reduction_for_balanced_mux_pair() {
        // The property D-MUX guarantees: hard-coding either key value keeps
        // both cones alive, so the resynthesised sizes match.
        let n = parse(
            "t",
            "INPUT(a)\nINPUT(b)\nINPUT(k)\nOUTPUT(y1)\nOUTPUT(y2)\n\
             f1 = NAND(a, b)\nf2 = NOR(a, b)\n\
             m1 = MUX(k, f1, f2)\nm2 = MUX(k, f2, f1)\n\
             y1 = NOT(m1)\ny2 = NOT(m2)\n",
        )
        .unwrap();
        let r0 = resynthesize(&n, &fix("k", false)).unwrap();
        let r1 = resynthesize(&n, &fix("k", true)).unwrap();
        assert_eq!(r0.gate_count(), r1.gate_count());
    }
}
