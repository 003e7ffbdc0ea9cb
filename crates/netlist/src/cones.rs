//! Live logic and immediate fan-out.
//!
//! The D-MUX/S5 locking strategies reason about the *output nodes* of a gate
//! (its immediate fan-out) while the MuxLink analysis observes that the
//! locking never inspects the deeper structure of the fan-in/fan-out cones —
//! which is exactly the leakage exploited by link prediction.

use std::collections::HashSet;

use crate::{GateId, NetId, Netlist};

/// Gates whose fan-in cones are needed to compute the primary outputs; all
/// other gates are dead logic.
#[must_use]
pub fn live_gates(netlist: &Netlist) -> HashSet<GateId> {
    let mut live = HashSet::new();
    let mut stack = Vec::new();
    for &o in netlist.outputs() {
        if let Some(drv) = netlist.net(o).driver() {
            stack.push(drv);
        }
    }
    while let Some(g) = stack.pop() {
        if !live.insert(g) {
            continue;
        }
        for &inp in netlist.gate(g).inputs() {
            if let Some(drv) = netlist.net(inp).driver() {
                stack.push(drv);
            }
        }
    }
    live
}

/// Immediate fan-out gates of a net ("output nodes" in D-MUX terminology).
#[must_use]
pub fn output_nodes(netlist: &Netlist, net: NetId) -> Vec<GateId> {
    let mut sinks: Vec<GateId> = netlist
        .gates()
        .filter(|(_, g)| g.inputs().contains(&net))
        .map(|(gid, _)| gid)
        .collect();
    sinks.sort_unstable();
    sinks.dedup();
    sinks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateType;

    fn diamond() -> Netlist {
        // a splits into two branches that reconverge.
        let mut n = Netlist::new("diamond");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let l = n.add_gate("l", GateType::Not, &[a]).unwrap();
        let r = n.add_gate("r", GateType::And, &[a, b]).unwrap();
        let m = n.add_gate("m", GateType::Or, &[l, r]).unwrap();
        let dead = n.add_gate("dead", GateType::Not, &[b]).unwrap();
        let _ = dead;
        n.mark_output(m).unwrap();
        n
    }

    #[test]
    fn live_gates_excludes_dead_logic() {
        let n = diamond();
        let live = live_gates(&n);
        assert_eq!(live.len(), 3);
        let dead_driver = n.net(n.find_net("dead").unwrap()).driver().unwrap();
        assert!(!live.contains(&dead_driver));
    }

    #[test]
    fn output_nodes_are_immediate_sinks() {
        let n = diamond();
        let a = n.find_net("a").unwrap();
        let sinks = output_nodes(&n, a);
        assert_eq!(sinks.len(), 2);
    }
}
