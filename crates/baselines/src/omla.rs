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
//! (key-gate-centric [`SampleArena::extract_node_sample`]) and the
//! same DGCNN as MuxLink. Crucially — and this is the paper's point — the
//! attack *cannot* touch D-MUX/S5 designs: they contain no XOR/XNOR key
//! gates, so [`omla_attack`] returns [`OmlaError::NoXorKeyGates`].

use std::collections::HashMap;
use std::fmt;

use muxlink_gnn::{ArenaSamples, Dgcnn, DgcnnConfig, SampleArena, TrainConfig};
use muxlink_graph::features::feature_cols;
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_locking::{xor, KeyValue, LockOptions};
use muxlink_netlist::{GateId, GateType, Netlist};

/// OMLA configuration (CPU-friendly defaults).
#[derive(Debug, Clone, PartialEq)]
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
    let mut out = vec![KeyValue::X; key_names.len()];
    for (bit, p) in target_probabilities(locked, key_names, cfg)? {
        let p = f64::from(p);
        out[bit] = if (p - 0.5).abs() < cfg.margin {
            KeyValue::X
        } else {
            KeyValue::from_bool(p > 0.5)
        };
    }
    Ok(out)
}

/// Trains OMLA's DGCNN on self-referencing key gates and returns each
/// target key gate's `(key bit, P(bit = 1))`, in key-gate order.
fn target_probabilities(
    locked: &Netlist,
    key_names: &[String],
    cfg: &OmlaConfig,
) -> Result<Vec<(usize, f32)>, OmlaError> {
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

    // Every key gate's subgraph goes into one arena; training (known)
    // and target (unknown) gates are handle lists into it.
    let target_count = key_names.len();
    let mut arena = SampleArena::new();
    let (mut train, mut targets, mut target_bits) = (Vec::new(), Vec::new(), Vec::new());
    for &(node, bit) in &xg.key_gate_nodes {
        let (h, cap) = (cfg.h, cfg.max_subgraph_nodes);
        if bit >= target_count {
            let label = relocked.key.bit(bit - target_count);
            train.push(arena.extract_node_sample(&xg.graph, node, h, cap, Some(label)));
        } else {
            targets.push(arena.extract_node_sample(&xg.graph, node, h, cap, None));
            target_bits.push(bit);
        }
    }
    if train.is_empty() {
        return Err(OmlaError::Relock("no training key gates placed".into()));
    }
    let max_label = arena.max_label().max(1);

    // 2. Train the DGCNN on the known gates (10% validation split).
    let val_len = (train.len() / 10).max(1).min(train.len() - 1);
    let val = train.split_off(train.len() - val_len);
    let mut model_cfg = DgcnnConfig::paper(feature_cols(max_label), 10);
    let mut sizes: Vec<usize> = train.iter().map(|&h| arena.node_count(h)).collect();
    sizes.sort_unstable();
    if !sizes.is_empty() {
        model_cfg.k = sizes[(sizes.len() * 6 / 10).min(sizes.len() - 1)].max(model_cfg.min_k());
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
    muxlink_gnn::train(
        &mut model,
        &ArenaSamples::select(&arena, &train, max_label),
        &ArenaSamples::select(&arena, &val, max_label),
        &train_cfg,
    );

    // 3. Classify the target key gates, scored in one batch.
    let probs = model.predict_batch(&ArenaSamples::select(&arena, &targets, max_label));
    Ok(target_bits.into_iter().zip(probs).collect())
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

    /// Pins OMLA's per-target-gate probabilities bit for bit on
    /// `omla_breaks_plain_xor_locking`'s design and config: the sample
    /// store, the training loop and the batched scorer may change shape,
    /// never these bits.
    #[test]
    fn omla_target_probability_bits_are_pinned() {
        let design = SynthConfig::new("m", 16, 8, 400).generate(2);
        let locked = xor::lock(&design, &LockOptions::new(16, 3)).unwrap();
        let probs =
            target_probabilities(&locked.netlist, &locked.key_input_names(), &quick_cfg()).unwrap();
        let got: Vec<(usize, u32)> = probs.iter().map(|&(bit, p)| (bit, p.to_bits())).collect();
        let want = [
            (0, 0x3f7ffe10),
            (1, 0x34e7f397),
            (2, 0x3f7fdbf1),
            (3, 0x3d273648),
            (4, 0x357a3ad6),
            (5, 0x3f7f9c89),
            (6, 0x362595f0),
            (7, 0x3509a829),
            (8, 0x3f800000),
            (9, 0x3a118e09),
            (10, 0x3f7ffbd0),
            (11, 0x36da46cb),
            (12, 0x38e0bd5d),
            (13, 0x353c00a2),
            (14, 0x3f7fc553),
            (15, 0x3f7e6f0e),
        ];
        assert_eq!(got, want);
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
