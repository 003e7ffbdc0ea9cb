//! Step ①–②: identify the key MUXes, remove them, and convert the locked
//! netlist into an undirected gate graph with marked target links.
//!
//! The attacker traces the key inputs from the tamper-proof memory (here:
//! the key-input net names), finds the MUXes they select, deletes them from
//! the graph, and records *both* data wires of every MUX as candidate
//! ("target") links — one of which is the true wire the GNN must identify.

use std::fmt;

use muxlink_netlist::{GateId, GateType, Netlist};
use serde::{map_get, DeError, Deserialize, Serialize, Value};

use crate::graph::{CircuitGraph, Link};

/// Errors raised when a locked netlist violates the structural assumptions
/// of MUX-based locking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExtractError {
    /// A named key input does not exist in the netlist.
    UnknownKeyInput(String),
    /// A key input drives a gate that is not a MUX select pin.
    KeyInputNotMuxSelect {
        /// The offending key input.
        key_input: String,
        /// The non-MUX gate type it feeds.
        gate_type: GateType,
    },
    /// A key MUX data input is driven by a primary input (no gate node to
    /// link against).
    MuxDataFromPrimaryInput(String),
    /// A key MUX data input is driven by another key MUX (chained MUXes
    /// are outside the D-MUX/S5 constructions).
    ChainedMux(String),
    /// A key MUX output must feed exactly one ordinary gate.
    BadMuxFanout {
        /// The MUX output net.
        net: String,
        /// Number of ordinary-gate sinks found.
        sinks: usize,
    },
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownKeyInput(k) => write!(f, "unknown key input `{k}`"),
            Self::KeyInputNotMuxSelect {
                key_input,
                gate_type,
            } => write!(
                f,
                "key input `{key_input}` feeds a {gate_type} gate, not a MUX select"
            ),
            Self::MuxDataFromPrimaryInput(n) => {
                write!(f, "MUX data input `{n}` is a primary input")
            }
            Self::ChainedMux(n) => write!(f, "MUX data input `{n}` comes from another key MUX"),
            Self::BadMuxFanout { net, sinks } => write!(
                f,
                "key MUX output `{net}` must feed exactly one gate, found {sinks}"
            ),
        }
    }
}

impl std::error::Error for ExtractError {}

/// One key-controlled MUX as seen by the attacker: a key bit, a sink gate
/// node and two candidate source nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxCandidate {
    /// The MUX gate in the locked netlist (removed from the graph).
    pub mux_gate: GateId,
    /// Key-bit index (parsed from the key-input name suffix).
    pub key_bit: usize,
    /// Graph node of the gate consuming the MUX output.
    pub sink: u32,
    /// Graph node driving data input 0 (selected by key = 0).
    pub src0: u32,
    /// Graph node driving data input 1 (selected by key = 1).
    pub src1: u32,
}

impl MuxCandidate {
    /// The candidate link that is true when the key bit is 0.
    #[must_use]
    pub fn link0(&self) -> Link {
        Link::new(self.src0, self.sink)
    }

    /// The candidate link that is true when the key bit is 1.
    #[must_use]
    pub fn link1(&self) -> Link {
        Link::new(self.src1, self.sink)
    }
}

/// The attacker's view after step ②: the MUX-free gate graph plus every
/// MUX's candidate links.
///
/// Deserialising checks the graph (see [`CircuitGraph`]) and that every
/// MUX's sink and sources are nodes of it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExtractedDesign {
    /// The undirected gate graph (key MUXes removed, target links absent).
    pub graph: CircuitGraph,
    /// One entry per key MUX, ordered by key bit then gate id.
    pub muxes: Vec<MuxCandidate>,
}

impl Deserialize for ExtractedDesign {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let design = Self {
            graph: CircuitGraph::from_value(map_get(v, "graph")?)?,
            muxes: Vec::from_value(map_get(v, "muxes")?)?,
        };
        let n = design.graph.node_count();
        for (i, m) in design.muxes.iter().enumerate() {
            for (field, node) in [("sink", m.sink), ("src0", m.src0), ("src1", m.src1)] {
                if node as usize >= n {
                    return Err(DeError(format!(
                        "design `muxes[{i}].{field}` is node {node}, but the graph has {n} nodes"
                    )));
                }
            }
        }
        Ok(design)
    }
}

impl ExtractedDesign {
    /// Every target link (both candidates of every MUX), deduplicated.
    #[must_use]
    pub fn target_links(&self) -> Vec<Link> {
        let mut s: Vec<Link> = self
            .muxes
            .iter()
            .flat_map(|m| [m.link0(), m.link1()])
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// Extracts the gate graph and MUX candidates from a locked netlist given
/// the (attacker-visible) key-input net names.
///
/// Key-bit indices are taken from each name's position in `key_inputs`.
///
/// # Errors
///
/// Any [`ExtractError`] when the netlist does not look like a MUX-locked
/// design (wrong key wiring, chained MUXes, PI-driven data inputs, MUX
/// fan-out ≠ 1).
pub fn extract(netlist: &Netlist, key_inputs: &[String]) -> Result<ExtractedDesign, ExtractError> {
    // Net and gate ids are dense indices, so every lookup below is a
    // plain vector slot.
    // 1. Resolve key inputs and find the key MUXes.
    let mut key_bit_of_net = vec![None; netlist.net_count()];
    for (bit, name) in key_inputs.iter().enumerate() {
        let id = netlist
            .find_net(name)
            .ok_or_else(|| ExtractError::UnknownKeyInput(name.clone()))?;
        key_bit_of_net[id.index()] = Some(bit);
    }
    let mut key_bit_of_gate = vec![None; netlist.gate_count()];
    for (gid, gate) in netlist.gates() {
        for (pin, &inp) in gate.inputs().iter().enumerate() {
            if let Some(bit) = key_bit_of_net[inp.index()] {
                if gate.ty() != GateType::Mux || pin != 0 {
                    return Err(ExtractError::KeyInputNotMuxSelect {
                        key_input: netlist.net(inp).name().to_owned(),
                        gate_type: gate.ty(),
                    });
                }
                key_bit_of_gate[gid.index()] = Some(bit);
            }
        }
    }
    let is_key_mux = |g: GateId| key_bit_of_gate[g.index()].is_some();

    // 2. Number the ordinary gates as graph nodes, and count who reads
    //    every net.
    let mut node_of_gate = vec![u32::MAX; netlist.gate_count()];
    let mut gate_of_node = Vec::new();
    let mut gate_types = Vec::new();
    let mut readers = vec![Readers::default(); netlist.net_count()];
    for (gid, gate) in netlist.gates() {
        let mux = is_key_mux(gid);
        for &inp in gate.inputs() {
            let r = &mut readers[inp.index()];
            if mux {
                r.key_muxes += 1;
            } else {
                r.gates += 1;
                r.last_gate = gid.index();
            }
        }
        if mux {
            continue;
        }
        node_of_gate[gid.index()] = gate_of_node.len() as u32;
        gate_of_node.push(gid);
        // Non-key MUX gates cannot be one-hot encoded; treat any remaining
        // MUX as an error via encoding_index (defensive: D-MUX/S5 insert
        // all MUXes with key selects, so none should remain).
        gate_types.push(gate.ty());
    }

    // 3. Build candidates in gate order, so the first faulty MUX in gate
    //    order is the one reported.
    let mut muxes = Vec::new();
    for (mux, gate) in netlist.gates() {
        let Some(key_bit) = key_bit_of_gate[mux.index()] else {
            continue;
        };
        let mut srcs = [0u32; 2];
        for (src, &d) in srcs.iter_mut().zip(&gate.inputs()[1..3]) {
            let drv = netlist.net(d).driver().ok_or_else(|| {
                ExtractError::MuxDataFromPrimaryInput(netlist.net(d).name().to_owned())
            })?;
            if is_key_mux(drv) {
                return Err(ExtractError::ChainedMux(netlist.net(d).name().to_owned()));
            }
            *src = node_of_gate[drv.index()];
        }
        let out = gate.output();
        let r = readers[out.index()];
        if r.key_muxes != 0 {
            return Err(ExtractError::ChainedMux(netlist.net(out).name().to_owned()));
        }
        if r.gates != 1 {
            return Err(ExtractError::BadMuxFanout {
                net: netlist.net(out).name().to_owned(),
                sinks: r.gates,
            });
        }
        muxes.push(MuxCandidate {
            mux_gate: mux,
            key_bit,
            sink: node_of_gate[r.last_gate],
            src0: srcs[0],
            src1: srcs[1],
        });
    }
    muxes.sort_by_key(|m| (m.key_bit, m.mux_gate));

    // 4. Observed edges: every gate-to-gate wire not involving a key MUX,
    //    minus the target links. Every target link ends at its MUX's
    //    sink, so only wires touching a sink are searched for.
    let mut targets: Vec<Link> = muxes.iter().flat_map(|m| [m.link0(), m.link1()]).collect();
    targets.sort_unstable();
    let mut is_sink = vec![false; gate_of_node.len()];
    for m in &muxes {
        is_sink[m.sink as usize] = true;
    }
    let mut edges = Vec::new();
    for (gid, gate) in netlist.gates() {
        if is_key_mux(gid) {
            continue;
        }
        let a = node_of_gate[gid.index()];
        for &inp in gate.inputs() {
            if let Some(drv) = netlist.net(inp).driver() {
                if is_key_mux(drv) {
                    continue; // the mux-output wire is replaced by target links
                }
                let d = node_of_gate[drv.index()];
                let link = Link::new(d, a);
                let maybe_target = is_sink[a as usize] || is_sink[d as usize];
                if !(maybe_target && targets.binary_search(&link).is_ok()) {
                    edges.push(link);
                }
            }
        }
    }
    let graph = CircuitGraph::from_edges(gate_of_node, gate_types, &edges);
    Ok(ExtractedDesign { graph, muxes })
}

/// The gate input pins reading one net, as [`extract`] counts them.
#[derive(Clone, Copy, Default)]
struct Readers {
    /// Pins of ordinary (non-key-MUX) gates.
    gates: usize,
    /// Pins of key MUXes.
    key_muxes: usize,
    /// Index of the last ordinary gate seen reading the net.
    last_gate: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_netlist::bench_format::parse;

    /// Hand-built S5-style locality:
    ///   f1 = NOT(a), f2 = AND(a, b) feed two MUXes crossing into g1, g2.
    fn locked_pair() -> Netlist {
        parse(
            "locked",
            "INPUT(a)\nINPUT(b)\nINPUT(keyinput0)\nINPUT(keyinput1)\n\
             OUTPUT(y1)\nOUTPUT(y2)\n\
             f1 = NOT(a)\nf2 = AND(a, b)\n\
             m1 = MUX(keyinput0, f1, f2)\n\
             m2 = MUX(keyinput1, f1, f2)\n\
             g1 = NOR(m1, b)\ng2 = XOR(m2, a)\n\
             y1 = BUFF(g1)\ny2 = BUFF(g2)\n",
        )
        .unwrap()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("keyinput{i}")).collect()
    }

    #[test]
    fn extraction_builds_mux_free_graph() {
        let n = locked_pair();
        let ex = extract(&n, &keys(2)).unwrap();
        // Nodes: f1, f2, g1, g2, y1, y2 (MUXes removed; PIs/POs are nets,
        // not nodes).
        assert_eq!(ex.graph.node_count(), 6);
        assert_eq!(ex.muxes.len(), 2);
        // No node should be a MUX.
        assert!(ex
            .graph
            .gate_types
            .iter()
            .all(|t| t.encoding_index().is_some()));
    }

    #[test]
    fn target_links_excluded_from_edges() {
        let n = locked_pair();
        let ex = extract(&n, &keys(2)).unwrap();
        for link in ex.target_links() {
            assert!(
                !ex.graph.has_edge(link.a, link.b),
                "target link {link:?} must not be observed"
            );
        }
        // Each MUX contributes two distinct candidates.
        for m in &ex.muxes {
            assert_ne!(m.link0(), m.link1());
        }
    }

    #[test]
    fn key_bits_parsed_in_order() {
        let n = locked_pair();
        let ex = extract(&n, &keys(2)).unwrap();
        assert_eq!(ex.muxes[0].key_bit, 0);
        assert_eq!(ex.muxes[1].key_bit, 1);
    }

    #[test]
    fn unknown_key_input_rejected() {
        let n = locked_pair();
        let err = extract(&n, &["nosuchkey".to_owned()]).unwrap_err();
        assert!(matches!(err, ExtractError::UnknownKeyInput(_)));
    }

    #[test]
    fn xor_key_gate_rejected() {
        let n = parse(
            "x",
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\n\
             t = XOR(a, keyinput0)\ny = BUFF(t)\n",
        )
        .unwrap();
        let err = extract(&n, &keys(1)).unwrap_err();
        assert!(matches!(err, ExtractError::KeyInputNotMuxSelect { .. }));
    }

    #[test]
    fn pi_driven_data_input_rejected() {
        let n = parse(
            "p",
            "INPUT(a)\nINPUT(b)\nINPUT(keyinput0)\nOUTPUT(y)\n\
             f = NOT(a)\nm = MUX(keyinput0, f, b)\ny = AND(m, a)\n",
        )
        .unwrap();
        let err = extract(&n, &keys(1)).unwrap_err();
        assert!(matches!(err, ExtractError::MuxDataFromPrimaryInput(_)));
    }

    /// Two faulty MUXes of different kinds: the one first in gate order
    /// is reported, in every run and whichever is listed first.
    #[test]
    fn first_faulty_mux_in_gate_order_is_reported() {
        let pi_fault = "m1 = MUX(keyinput0, f1, b)\ng1 = AND(m1, a)\n";
        let fanout_fault = "m2 = MUX(keyinput1, f1, f2)\ng2 = OR(m2, a)\ng3 = NOT(m2)\n";
        let text = |first: &str, second: &str| {
            format!(
                "INPUT(a)\nINPUT(b)\nINPUT(keyinput0)\nINPUT(keyinput1)\n\
                 OUTPUT(g1)\nOUTPUT(g2)\nOUTPUT(g3)\n\
                 f1 = NOT(a)\nf2 = AND(a, b)\n{first}{second}"
            )
        };
        let pi_first = parse("p", &text(pi_fault, fanout_fault)).unwrap();
        let fanout_first = parse("f", &text(fanout_fault, pi_fault)).unwrap();
        for _ in 0..16 {
            assert_eq!(
                extract(&pi_first, &keys(2)).unwrap_err(),
                ExtractError::MuxDataFromPrimaryInput("b".into())
            );
            assert_eq!(
                extract(&fanout_first, &keys(2)).unwrap_err(),
                ExtractError::BadMuxFanout {
                    net: "m2".into(),
                    sinks: 2
                }
            );
        }
    }

    #[test]
    fn locked_designs_from_locking_crate_extract_cleanly() {
        use muxlink_locking::{dmux, symmetric, LockOptions};
        let design = muxlink_benchgen::synth::SynthConfig::new("d", 16, 8, 300).generate(3);
        for locked in [
            dmux::lock(&design, &LockOptions::new(16, 5)).unwrap(),
            symmetric::lock(&design, &LockOptions::new(16, 5)).unwrap(),
        ] {
            let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
            assert_eq!(
                ex.muxes.len(),
                locked.mux_instances().len(),
                "every inserted MUX must be recovered"
            );
            // Ground-truth cross-check: the true link of every MUX matches
            // the locking metadata.
            for (cand, inst) in ex.muxes.iter().zip(locked.mux_instances()) {
                assert_eq!(cand.mux_gate, inst.gate);
                assert_eq!(cand.key_bit, inst.key_bit);
                let true_src = if locked.key.bit(inst.key_bit) {
                    cand.src1
                } else {
                    cand.src0
                };
                let true_driver = locked.netlist.net(inst.true_input).driver().unwrap();
                assert_eq!(ex.graph.gate_of_node[true_src as usize], true_driver);
            }
        }
    }

    /// A D-MUX locked design's extraction: 300 nodes, 8 MUXes.
    fn locked_design() -> ExtractedDesign {
        use muxlink_locking::{dmux, LockOptions};
        let design = muxlink_benchgen::synth::SynthConfig::new("t", 16, 8, 300).generate(3);
        let locked = dmux::lock(&design, &LockOptions::new(8, 5)).unwrap();
        extract(&locked.netlist, &locked.key_input_names()).unwrap()
    }

    /// The JSON of [`locked_design`] after `edit`, decoded again: the
    /// error text, or a panic when it still loads.
    fn tampered(edit: impl Fn(&mut Value)) -> String {
        let ex = locked_design();
        let mut v = serde_json::from_str::<Value>(&serde_json::to_string(&ex).unwrap()).unwrap();
        edit(&mut v);
        let text = serde_json::to_string(&v).unwrap();
        serde_json::from_str::<ExtractedDesign>(&text)
            .expect_err("a tampered design must be refused")
            .to_string()
    }

    /// The value under `path` of nested maps; a number in the path
    /// indexes an array.
    fn at<'v>(v: &'v mut Value, path: &[&str]) -> &'v mut Value {
        path.iter().fold(v, |v, key| match v {
            Value::Map(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
            Value::Seq(items) => &mut items[key.parse::<usize>().unwrap()],
            other => panic!("no `{key}` in {other:?}"),
        })
    }

    fn seq(v: &mut Value) -> &mut Vec<Value> {
        match v {
            Value::Seq(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    const ADJ: [&str; 2] = ["graph", "adj"];

    #[test]
    fn untampered_design_round_trips() {
        let ex = locked_design();
        let text = serde_json::to_string(&ex).unwrap();
        let back: ExtractedDesign = serde_json::from_str(&text).unwrap();
        assert_eq!(back.muxes, ex.muxes);
        assert_eq!(back.graph.adj, ex.graph.adj);
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn out_of_range_neighbor_is_refused() {
        let err =
            tampered(|v| *at(v, &[ADJ[0], ADJ[1], "neighbors", "0"]) = Value::Int(4_000_000_000));
        assert!(
            err.contains("hold 4000000000, not below the node count 300"),
            "{err}"
        );
    }

    #[test]
    fn offset_past_the_neighbors_is_refused() {
        let err =
            tampered(|v| *at(v, &[ADJ[0], ADJ[1], "offsets", "3"]) = Value::Int(1_000_000_000));
        assert!(err.contains("`offsets` decrease after entry 3"), "{err}");
    }

    #[test]
    fn offsets_not_starting_at_zero_are_refused() {
        let err = tampered(|v| *at(v, &[ADJ[0], ADJ[1], "offsets", "0"]) = Value::Int(1));
        assert!(err.contains("`offsets` must start at 0"), "{err}");
        let err = tampered(|v| seq(at(v, &[ADJ[0], ADJ[1], "offsets"])).clear());
        assert!(err.contains("`offsets` must start at 0"), "{err}");
    }

    #[test]
    fn offsets_not_ending_at_the_neighbor_count_are_refused() {
        let err = tampered(|v| {
            seq(at(v, &[ADJ[0], ADJ[1], "neighbors"])).pop();
        });
        assert!(err.contains("`offsets` end at"), "{err}");
    }

    #[test]
    fn unsorted_neighbor_run_is_refused() {
        let err = tampered(|v| {
            let ex = locked_design();
            let node = (0..ex.graph.node_count())
                .find(|&i| ex.graph.adj.degree(i) >= 2)
                .unwrap();
            let start: usize = (0..node).map(|i| ex.graph.adj.degree(i)).sum();
            seq(at(v, &[ADJ[0], ADJ[1], "neighbors"])).swap(start, start + 1);
        });
        assert!(err.contains("are not sorted and deduplicated"), "{err}");
    }

    #[test]
    fn duplicate_neighbor_is_refused() {
        let err = tampered(|v| {
            let ex = locked_design();
            let node = (0..ex.graph.node_count())
                .find(|&i| ex.graph.adj.degree(i) >= 2)
                .unwrap();
            let start: usize = (0..node).map(|i| ex.graph.adj.degree(i)).sum();
            let nbrs = seq(at(v, &[ADJ[0], ADJ[1], "neighbors"]));
            nbrs[start + 1] = nbrs[start].clone();
        });
        assert!(err.contains("are not sorted and deduplicated"), "{err}");
    }

    /// Adds the `scales` array earlier versions wrote next to `offsets`
    /// and `neighbors`: `1 / (1 + degree)` per node.
    fn inject_legacy_scales(v: &mut Value) {
        let ex = locked_design();
        let scales: Vec<f32> = (0..ex.graph.node_count())
            .map(|i| ex.graph.adj.scale(i))
            .collect();
        match at(v, &ADJ) {
            Value::Map(entries) => entries.push(("scales".to_owned(), scales.to_value())),
            other => panic!("not a map: {other:?}"),
        }
    }

    #[test]
    fn legacy_scales_load_and_are_not_written() {
        let text = serde_json::to_string(&locked_design()).unwrap();
        assert!(
            !text.contains("\"scales\""),
            "scales are derived, not stored"
        );
        let mut v = serde_json::from_str::<Value>(&text).unwrap();
        inject_legacy_scales(&mut v);
        let legacy = serde_json::to_string(&v).unwrap();
        let back: ExtractedDesign = serde_json::from_str(&legacy).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn cut_scales_are_refused() {
        let err = tampered(|v| {
            inject_legacy_scales(v);
            seq(at(v, &[ADJ[0], ADJ[1], "scales"])).truncate(2);
        });
        assert!(
            err.contains("`scales` holds 2 entries for 300 nodes"),
            "{err}"
        );
    }

    #[test]
    fn wrong_scale_is_refused() {
        let err = tampered(|v| {
            inject_legacy_scales(v);
            *at(v, &[ADJ[0], ADJ[1], "scales", "1"]) = Value::Float(0.25);
        });
        assert!(err.contains("`scales[1]` is 0.25"), "{err}");
    }

    #[test]
    fn short_per_node_vectors_are_refused() {
        for field in ["gate_of_node", "gate_types"] {
            let err = tampered(|v| {
                seq(at(v, &["graph", field])).pop();
            });
            assert!(
                err.contains(&format!("`{field}` holds 299 entries for 300 nodes")),
                "{err}"
            );
        }
    }

    #[test]
    fn unencoded_gate_type_is_refused() {
        let err = tampered(|v| *at(v, &["graph", "gate_types", "2"]) = Value::Str("Mux".into()));
        assert!(err.contains("`gate_types[2]` is MUX"), "{err}");
    }

    #[test]
    fn out_of_range_mux_node_is_refused() {
        for field in ["sink", "src0", "src1"] {
            let err = tampered(|v| *at(v, &["muxes", "1", field]) = Value::Int(300));
            assert!(
                err.contains(&format!("`muxes[1].{field}` is node 300")),
                "{err}"
            );
        }
    }
}
