//! OMLA: an oracle-less GNN attack on XOR/XNOR locking (Alrahis et al.,
//! IEEE TCAS-II 2021) — the strongest of the "existing ML-based attacks"
//! the paper contrasts MuxLink against.
//!
//! OMLA frames key recovery as **key-gate classification**: extract the
//! h-hop enclosing subgraph around every key gate and let a GNN predict
//! the key bit. Training data comes from **self-referencing re-locking**:
//! the attacker inserts additional XOR/XNOR key gates with *known* random
//! bits into the (already locked) target and trains on those, so the
//! model learns exactly the local structures this design family produces.
//!
//! The reproduction reuses the workspace's graph substrate
//! (key-gate-centric [`muxlink_graph::subgraph::node_subgraph`]) and the
//! same DGCNN as MuxLink. Crucially — and this is the paper's point — the
//! attack *cannot* touch D-MUX/S5 designs: they contain no XOR/XNOR key
//! gates, so [`omla_attack`] returns [`OmlaError::NoXorKeyGates`].

use std::collections::HashMap;
use std::fmt;

use muxlink_gnn::{Dgcnn, DgcnnConfig, GraphSample, TrainConfig};
use muxlink_graph::features::{feature_cols, one_hot_features};
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_graph::subgraph::node_subgraph;
use muxlink_locking::{xor, KeyValue, LockOptions};
use muxlink_netlist::{GateId, GateType, Netlist};
use serde::{Deserialize, Serialize};

/// OMLA configuration (CPU-friendly defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OmlaConfig {
    /// Enclosing-subgraph hop count.
    pub h: usize,
    /// Number of self-referencing training key gates to insert.
    pub train_key_gates: usize,
    /// Subgraph node cap.
    pub max_subgraph_nodes: Option<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Abstention margin around 0.5.
    pub margin: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for OmlaConfig {
    fn default() -> Self {
        Self {
            h: 3,
            train_key_gates: 64,
            max_subgraph_nodes: Some(128),
            epochs: 30,
            learning_rate: 1e-3,
            margin: 0.05,
            seed: 0,
        }
    }
}

/// Errors raised by the OMLA pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OmlaError {
    /// A named key input does not exist.
    UnknownKeyInput(String),
    /// The design has no XOR/XNOR key gates (e.g. it is MUX-locked) —
    /// OMLA is not applicable, exactly as the MuxLink paper argues.
    NoXorKeyGates,
    /// Re-locking for training data failed (design exhausted).
    Relock(String),
}

impl fmt::Display for OmlaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownKeyInput(k) => write!(f, "unknown key input `{k}`"),
            Self::NoXorKeyGates => {
                write!(f, "no XOR/XNOR key gates found — OMLA is not applicable")
            }
            Self::Relock(e) => write!(f, "training re-lock failed: {e}"),
        }
    }
}

impl std::error::Error for OmlaError {}

/// A gate graph that *keeps* the XOR/XNOR key gates as nodes (key inputs
/// themselves are excluded, like all primary inputs).
fn xor_gate_graph(netlist: &Netlist, key_names: &[String]) -> Result<XorGraph, OmlaError> {
    let mut key_nets = HashMap::new();
    for (bit, name) in key_names.iter().enumerate() {
        let id = netlist
            .find_net(name)
            .ok_or_else(|| OmlaError::UnknownKeyInput(name.clone()))?;
        key_nets.insert(id, bit);
    }
    let mut gate_of_node = Vec::new();
    let mut gate_types = Vec::new();
    let mut node_of_gate: HashMap<GateId, u32> = HashMap::new();
    for (gid, gate) in netlist.gates() {
        node_of_gate.insert(gid, gate_of_node.len() as u32);
        gate_of_node.push(gid);
        gate_types.push(gate.ty());
    }
    let mut key_gate_nodes = Vec::new();
    let mut edges = Vec::new();
    for (gid, gate) in netlist.gates() {
        let a = node_of_gate[&gid];
        for &inp in gate.inputs() {
            if let Some(&bit) = key_nets.get(&inp) {
                if matches!(gate.ty(), GateType::Xor | GateType::Xnor) {
                    key_gate_nodes.push((a, bit));
                }
                continue; // key nets are not graph nodes
            }
            if let Some(drv) = netlist.net(inp).driver() {
                edges.push(Link::new(node_of_gate[&drv], a));
            }
        }
    }
    if key_gate_nodes.is_empty() {
        return Err(OmlaError::NoXorKeyGates);
    }
    key_gate_nodes.sort_by_key(|&(_, bit)| bit);
    Ok(XorGraph {
        graph: CircuitGraph::from_edges(gate_of_node, gate_types, &edges),
        key_gate_nodes,
    })
}

struct XorGraph {
    graph: CircuitGraph,
    key_gate_nodes: Vec<(u32, usize)>,
}

/// Runs OMLA on an XOR/XNOR-locked netlist; returns one [`KeyValue`] per
/// entry of `key_names`.
///
/// # Errors
///
/// [`OmlaError::NoXorKeyGates`] on MUX-locked designs, plus extraction
/// and re-locking failures.
pub fn omla_attack(
    locked: &Netlist,
    key_names: &[String],
    cfg: &OmlaConfig,
) -> Result<Vec<KeyValue>, OmlaError> {
    // 0. Applicability: the *target* key inputs must drive XOR/XNOR key
    //    gates. MUX-locked designs fail here — before any re-locking —
    //    which is the paper's "not applicable to D-MUX/S5" observation.
    xor_gate_graph(locked, key_names)?;

    // 1. Self-referencing training set: re-lock the target with known key
    //    gates under a non-clashing prefix.
    let relocked = xor::lock_named(
        locked,
        &LockOptions::new(cfg.train_key_gates, cfg.seed ^ 0x0917_4C3A),
        "omla_train",
    )
    .map_err(|e| OmlaError::Relock(e.to_string()))?;
    let train_names = relocked.key_input_names();
    let mut all_names: Vec<String> = key_names.to_vec();
    all_names.extend(train_names.iter().cloned());
    let xg = xor_gate_graph(&relocked.netlist, &all_names)?;

    // Split key-gate nodes into target (unknown) and training (known).
    let target_count = key_names.len();
    let mut train_samples = Vec::new();
    let mut max_label = 1u32;
    let mut subgraphs = Vec::new();
    for &(node, bit) in &xg.key_gate_nodes {
        let sg = node_subgraph(&xg.graph, node, cfg.h, cfg.max_subgraph_nodes);
        max_label = max_label.max(sg.max_label());
        subgraphs.push((sg, bit));
    }
    for (sg, bit) in &subgraphs {
        if *bit >= target_count {
            train_samples.push(GraphSample {
                adj: sg.adj.clone(),
                features: one_hot_features(sg, max_label),
                label: Some(relocked.key.bit(*bit - target_count)),
            });
        }
    }
    if train_samples.is_empty() {
        return Err(OmlaError::Relock("no training key gates placed".into()));
    }

    // 2. Train the DGCNN on the known gates (10% validation split).
    let val_len = (train_samples.len() / 10)
        .max(1)
        .min(train_samples.len() - 1);
    let val = train_samples.split_off(train_samples.len() - val_len);
    let mut model_cfg = DgcnnConfig::paper(feature_cols(max_label), 10);
    let sizes: Vec<usize> = train_samples.iter().map(GraphSample::node_count).collect();
    let mut sorted = sizes.clone();
    sorted.sort_unstable();
    if !sorted.is_empty() {
        model_cfg.k = sorted[(sorted.len() * 6 / 10).min(sorted.len() - 1)].max(model_cfg.min_k());
    }
    model_cfg.seed = cfg.seed ^ 0x0BAD_C0DE;
    let mut model = Dgcnn::new(model_cfg);
    let train_cfg = TrainConfig {
        epochs: cfg.epochs,
        batch_size: 16,
        adam: muxlink_gnn::AdamConfig {
            lr: cfg.learning_rate,
            ..muxlink_gnn::AdamConfig::default()
        },
        seed: cfg.seed ^ 0x7EA,
    };
    muxlink_gnn::train(&mut model, &train_samples, &val, &train_cfg);

    // 3. Classify the target key gates, scored in one batch.
    let (targets, bits): (Vec<GraphSample>, Vec<usize>) = subgraphs
        .iter()
        .filter(|(_, bit)| *bit < target_count)
        .map(|(sg, bit)| {
            let sample = GraphSample {
                adj: sg.adj.clone(),
                features: one_hot_features(sg, max_label),
                label: None,
            };
            (sample, *bit)
        })
        .unzip();
    let mut out = vec![KeyValue::X; target_count];
    for (p, bit) in model.predict_batch(&targets).into_iter().zip(bits) {
        let p = f64::from(p);
        out[bit] = if (p - 0.5).abs() < cfg.margin {
            KeyValue::X
        } else {
            KeyValue::from_bool(p > 0.5)
        };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_benchgen::synth::SynthConfig;
    use muxlink_locking::{dmux, xor};

    fn quick_cfg() -> OmlaConfig {
        OmlaConfig {
            h: 2,
            train_key_gates: 96,
            max_subgraph_nodes: Some(64),
            epochs: 60,
            learning_rate: 2e-3,
            margin: 0.02,
            seed: 1,
        }
    }

    #[test]
    fn omla_breaks_plain_xor_locking() {
        let design = SynthConfig::new("m", 16, 8, 400).generate(2);
        let locked = xor::lock(&design, &LockOptions::new(16, 3)).unwrap();
        let guess = omla_attack(&locked.netlist, &locked.key_input_names(), &quick_cfg()).unwrap();
        let decided: Vec<_> = guess
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_bool().map(|b| (i, b)))
            .collect();
        let correct = decided
            .iter()
            .filter(|(i, b)| *b == locked.key.bit(*i))
            .count();
        assert!(decided.len() >= 12);
        assert!(
            correct * 10 >= decided.len() * 8,
            "OMLA should break naive XOR locking: {correct}/{}",
            decided.len()
        );
    }

    #[test]
    fn omla_not_applicable_to_dmux() {
        // The MuxLink paper's motivation: the ML attacks on XOR locking
        // have nothing to grab onto in a MUX-locked design.
        let design = SynthConfig::new("m", 12, 6, 200).generate(4);
        let locked = dmux::lock(&design, &LockOptions::new(8, 5)).unwrap();
        let err =
            omla_attack(&locked.netlist, &locked.key_input_names(), &quick_cfg()).unwrap_err();
        assert!(matches!(err, OmlaError::NoXorKeyGates));
    }

    #[test]
    fn unknown_key_input_rejected() {
        let design = SynthConfig::new("m", 12, 6, 200).generate(5);
        let locked = xor::lock(&design, &LockOptions::new(4, 6)).unwrap();
        let err = omla_attack(&locked.netlist, &["ghost".into()], &quick_cfg()).unwrap_err();
        assert!(matches!(err, OmlaError::UnknownKeyInput(_)));
    }
}
