//! Topological ordering, loop detection, logic depth and reachability.

use std::collections::VecDeque;

use crate::{GateId, NetId, Netlist, NetlistError};

/// Returns the gates of `netlist` in a topological order (every gate appears
/// after the drivers of all of its inputs).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalLoop`] naming a net on a cycle when
/// the netlist is cyclic.
pub fn topological_order(netlist: &Netlist) -> Result<Vec<GateId>, NetlistError> {
    let n = netlist.gate_count();
    // in-degree counted over gate→gate edges (inputs driven by other gates).
    let mut indeg = vec![0usize; n];
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (gid, gate) in netlist.gates() {
        for &inp in gate.inputs() {
            if let Some(drv) = netlist.net(inp).driver() {
                indeg[gid.index()] += 1;
                succ[drv.index()].push(gid.0);
            }
        }
    }
    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&g| indeg[g as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(g) = queue.pop_front() {
        order.push(GateId(g));
        for &s in &succ[g as usize] {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push_back(s);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        // Identify some gate still blocked — its output net sits on a cycle.
        let blocked = (0..n).find(|&g| indeg[g] > 0).expect("cycle exists");
        let net = netlist.gate(GateId(blocked as u32)).output();
        Err(NetlistError::CombinationalLoop(
            netlist.net(net).name().to_owned(),
        ))
    }
}

/// Logic depth of every net: primary inputs have depth 0; a gate output has
/// depth `1 + max(depth of inputs)`.
///
/// # Errors
///
/// Propagates [`NetlistError::CombinationalLoop`] from the topological sort.
pub fn net_depths(netlist: &Netlist) -> Result<Vec<usize>, NetlistError> {
    let order = topological_order(netlist)?;
    let mut depth = vec![0usize; netlist.net_count()];
    for gid in order {
        let gate = netlist.gate(gid);
        let d = gate
            .inputs()
            .iter()
            .map(|&i| depth[i.index()])
            .max()
            .unwrap_or(0);
        depth[gate.output().index()] = d + 1;
    }
    Ok(depth)
}

/// Maximum logic depth over all primary outputs (the critical-path length in
/// gate levels).
///
/// # Errors
///
/// Propagates [`NetlistError::CombinationalLoop`].
pub fn circuit_depth(netlist: &Netlist) -> Result<usize, NetlistError> {
    let depth = net_depths(netlist)?;
    Ok(netlist
        .outputs()
        .iter()
        .map(|&o| depth[o.index()])
        .max()
        .unwrap_or(0))
}

/// Tests whether net `to` is inside the transitive fan-out of net `from`
/// (i.e. whether a directed path `from → … → to` exists).
///
/// Used by the locking schemes to guarantee that inserting a MUX edge never
/// creates a combinational loop.
#[must_use]
pub fn reaches(netlist: &Netlist, from: NetId, to: NetId) -> bool {
    if from == to {
        return true;
    }
    let fanout = netlist.fanout_map();
    let mut seen = vec![false; netlist.net_count()];
    let mut stack = vec![from];
    seen[from.index()] = true;
    while let Some(net) = stack.pop() {
        for &g in &fanout[net.index()] {
            let out = netlist.gate(g).output();
            if out == to {
                return true;
            }
            if !seen[out.index()] {
                seen[out.index()] = true;
                stack.push(out);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateType;

    fn chain() -> Netlist {
        // a -> x1 -> x2 -> x3 (output), b feeds x2 too.
        let mut n = Netlist::new("chain");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let x1 = n.add_gate("x1", GateType::Not, &[a]).unwrap();
        let x2 = n.add_gate("x2", GateType::And, &[x1, b]).unwrap();
        let x3 = n.add_gate("x3", GateType::Buf, &[x2]).unwrap();
        n.mark_output(x3).unwrap();
        n
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = chain();
        let order = topological_order(&n).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; n.gate_count()];
            for (i, g) in order.iter().enumerate() {
                p[g.index()] = i;
            }
            p
        };
        for (gid, gate) in n.gates() {
            for &inp in gate.inputs() {
                if let Some(drv) = n.net(inp).driver() {
                    assert!(pos[drv.index()] < pos[gid.index()]);
                }
            }
        }
    }

    #[test]
    fn loop_detected() {
        let mut n = Netlist::new("loopy");
        let a = n.add_input("a").unwrap();
        let fwd = n.add_net("fwd").unwrap();
        let x = n.add_gate("x", GateType::And, &[a, fwd]).unwrap();
        n.add_gate_with_output(fwd, GateType::Not, &[x]).unwrap();
        n.mark_output(x).unwrap();
        assert!(matches!(
            topological_order(&n),
            Err(NetlistError::CombinationalLoop(_))
        ));
    }

    #[test]
    fn depths_follow_levels() {
        let n = chain();
        let d = net_depths(&n).unwrap();
        assert_eq!(d[n.find_net("a").unwrap().index()], 0);
        assert_eq!(d[n.find_net("x1").unwrap().index()], 1);
        assert_eq!(d[n.find_net("x2").unwrap().index()], 2);
        assert_eq!(d[n.find_net("x3").unwrap().index()], 3);
        assert_eq!(circuit_depth(&n).unwrap(), 3);
    }

    #[test]
    fn reachability() {
        let n = chain();
        let a = n.find_net("a").unwrap();
        let x2 = n.find_net("x2").unwrap();
        let x3 = n.find_net("x3").unwrap();
        assert!(reaches(&n, a, x3));
        assert!(reaches(&n, x2, x3));
        assert!(!reaches(&n, x3, a));
        assert!(!reaches(&n, x2, a));
        assert!(reaches(&n, a, a));
    }
}
