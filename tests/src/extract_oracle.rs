//! The `HashMap` extractor [`muxlink_graph::extract::extract`] replaced,
//! kept as its executable specification: key MUXes, graph nodes and
//! target links in hashed maps and sets, MUX readers from
//! [`Netlist::fanout_map`]. It checks the key MUXes in hash order, so
//! when several are faulty the error it reports may name any of them;
//! compare error variants, not texts, on such inputs.

use std::collections::{HashMap, HashSet};

use muxlink_graph::extract::{ExtractError, ExtractedDesign, MuxCandidate};
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_netlist::{GateId, GateType, Netlist};

/// Extracts the gate graph and MUX candidates as the hashed extractor
/// did.
///
/// # Errors
///
/// As for [`muxlink_graph::extract::extract`], up to which faulty MUX is
/// named.
pub fn extract_with_hash_maps(
    netlist: &Netlist,
    key_inputs: &[String],
) -> Result<ExtractedDesign, ExtractError> {
    let mut key_nets = HashMap::new();
    for (bit, name) in key_inputs.iter().enumerate() {
        let id = netlist
            .find_net(name)
            .ok_or_else(|| ExtractError::UnknownKeyInput(name.clone()))?;
        key_nets.insert(id, bit);
    }
    let mut mux_gates: HashMap<GateId, usize> = HashMap::new();
    for (gid, gate) in netlist.gates() {
        for (pin, &inp) in gate.inputs().iter().enumerate() {
            if let Some(&bit) = key_nets.get(&inp) {
                if gate.ty() != GateType::Mux || pin != 0 {
                    return Err(ExtractError::KeyInputNotMuxSelect {
                        key_input: netlist.net(inp).name().to_owned(),
                        gate_type: gate.ty(),
                    });
                }
                mux_gates.insert(gid, bit);
            }
        }
    }

    let mut node_of_gate: HashMap<GateId, u32> = HashMap::new();
    let mut gate_of_node = Vec::new();
    let mut gate_types = Vec::new();
    for (gid, gate) in netlist.gates() {
        if mux_gates.contains_key(&gid) {
            continue;
        }
        node_of_gate.insert(gid, gate_of_node.len() as u32);
        gate_of_node.push(gid);
        gate_types.push(gate.ty());
    }

    let mut muxes = Vec::new();
    let fanout = netlist.fanout_map();
    for (&mux, &key_bit) in &mux_gates {
        let gate = netlist.gate(mux);
        let data0 = gate.inputs()[1];
        let data1 = gate.inputs()[2];
        let mut srcs = [0u32; 2];
        for (i, &d) in [data0, data1].iter().enumerate() {
            let drv = netlist.net(d).driver().ok_or_else(|| {
                ExtractError::MuxDataFromPrimaryInput(netlist.net(d).name().to_owned())
            })?;
            if mux_gates.contains_key(&drv) {
                return Err(ExtractError::ChainedMux(netlist.net(d).name().to_owned()));
            }
            srcs[i] = node_of_gate[&drv];
        }
        let out = gate.output();
        let sinks: Vec<GateId> = fanout[out.index()]
            .iter()
            .copied()
            .filter(|g| !mux_gates.contains_key(g))
            .collect();
        let chained = fanout[out.index()].len() != sinks.len();
        if chained {
            return Err(ExtractError::ChainedMux(netlist.net(out).name().to_owned()));
        }
        if sinks.len() != 1 {
            return Err(ExtractError::BadMuxFanout {
                net: netlist.net(out).name().to_owned(),
                sinks: sinks.len(),
            });
        }
        muxes.push(MuxCandidate {
            mux_gate: mux,
            key_bit,
            sink: node_of_gate[&sinks[0]],
            src0: srcs[0],
            src1: srcs[1],
        });
    }
    muxes.sort_by_key(|m| (m.key_bit, m.mux_gate));

    let targets: HashSet<Link> = muxes.iter().flat_map(|m| [m.link0(), m.link1()]).collect();
    let mut edges = Vec::new();
    for (gid, gate) in netlist.gates() {
        if mux_gates.contains_key(&gid) {
            continue;
        }
        let a = node_of_gate[&gid];
        for &inp in gate.inputs() {
            if let Some(drv) = netlist.net(inp).driver() {
                if mux_gates.contains_key(&drv) {
                    continue;
                }
                let link = Link::new(node_of_gate[&drv], a);
                if !targets.contains(&link) {
                    edges.push(link);
                }
            }
        }
    }
    let graph = CircuitGraph::from_edges(gate_of_node, gate_types, &edges);
    Ok(ExtractedDesign { graph, muxes })
}
