//! Shared helpers for the integration tests in `tests/tests/`, including
//! the executable specifications the production model is pinned to:
//! the per-sample DGCNN ([`mod@reference`]: forward, backward,
//! [`reference_predict`], [`reference_evaluate`]), [`reference_train`]
//! (the per-sample training loop), [`to_graph_sample`] (owned samples
//! from enclosing subgraphs), [`extract_oracle`] (the hashed netlist-to-graph extractor),
//! [`adam_oracle`] (Adam with per-tensor moments), [`dataset_oracle`]
//! (the owned per-sample dataset build), [`subgraph_oracle`] (the
//! `HashMap` link and node subgraph extractors every arena sample is
//! pinned to) and the adjacency-list propagation references
//! ([`reference::propagate_ref`], [`reference::propagate_back_ref`]).

pub mod adam_oracle;
pub mod dataset_oracle;
pub mod extract_oracle;
pub mod reference;
pub mod subgraph_oracle;

// Unit tests that check `muxlink-graph` against the extraction oracles
// above, under the module paths they had in that crate.
#[cfg(test)]
mod arena {
    mod tests;
}
#[cfg(test)]
mod batch {
    mod tests;
}
#[cfg(test)]
mod drnl {
    mod tests;
}
#[cfg(test)]
mod features {
    mod tests;
}
#[cfg(test)]
mod subgraph {
    mod tests;
}

pub use reference::{reference_evaluate, reference_predict};

use adam_oracle::OracleAdam;
use muxlink_gnn::matrix::seeded_rng;
use muxlink_gnn::{
    Dgcnn, EpochStats, Gradients, GraphSample, Matrix, SampleStore, TrainConfig, TrainReport,
};
use muxlink_netlist::sim::{exhaustive_equiv, random_patterns, Simulator};
use muxlink_netlist::{Netlist, NetlistError};
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;
use reference::{Reference, Workspace};
use subgraph_oracle::{one_hot_features, Subgraph};

/// A mid-sized reconvergent test design, deterministic in `seed`.
pub fn test_design(gates: usize, seed: u64) -> Netlist {
    muxlink_benchgen::synth::SynthConfig::new(format!("it_{gates}_{seed}"), 16, 8, gates)
        .generate(seed)
}

/// Differential-simulation oracle for the netlist pass framework: checks
/// that `a` and `b` compute the same function at every primary output.
///
/// Designs with ≤ 16 primary inputs are checked exhaustively (the full
/// truth table via the bit-parallel simulator); larger designs are
/// checked on 256 seeded random input vectors. Inputs and outputs are
/// matched by *name*, so the oracle is insensitive to net-id reordering
/// (a rebuilt netlist rarely preserves ids) but strict about interface
/// renames — exactly the pass-framework contract.
///
/// # Errors
///
/// Interface mismatches (different input/output name sets) and
/// combinational loops surface as [`NetlistError`] — an oracle *error*
/// means the pass broke the netlist, not just its function.
pub fn po_equivalent(a: &Netlist, b: &Netlist, seed: u64) -> Result<bool, NetlistError> {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(NetlistError::InterfaceMismatch(
            "input/output counts differ".into(),
        ));
    }
    if a.inputs().len() <= 16 {
        return exhaustive_equiv(a, b);
    }
    let sim_a = Simulator::new(a)?;
    let sim_b = Simulator::new(b)?;
    // b's input order expressed as positions into a's pattern vector.
    let b_input_pos: Vec<usize> = b
        .inputs()
        .iter()
        .map(|&nb| {
            a.inputs()
                .iter()
                .position(|&na| a.net(na).name() == b.net(nb).name())
                .ok_or_else(|| NetlistError::InterfaceMismatch("input names differ".into()))
        })
        .collect::<Result<_, _>>()?;
    // For each of a's outputs, the matching position in b's output vector.
    let b_output_pos: Vec<usize> = a
        .outputs()
        .iter()
        .map(|&na| {
            b.outputs()
                .iter()
                .position(|&nb| b.net(nb).name() == a.net(na).name())
                .ok_or_else(|| NetlistError::InterfaceMismatch("output names differ".into()))
        })
        .collect::<Result<_, _>>()?;
    for pattern in random_patterns(a.inputs().len(), 256, seed) {
        let pattern_b: Vec<bool> = b_input_pos.iter().map(|&i| pattern[i]).collect();
        let out_a = sim_a.run_bools(&pattern);
        let out_b = sim_b.run_bools(&pattern_b);
        for (ia, &pb) in b_output_pos.iter().enumerate() {
            if out_a[ia] != out_b[pb] {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Panicking wrapper around [`po_equivalent`] with a labelled message —
/// the assertion every pass-equivalence test uses.
///
/// # Panics
///
/// Panics when the oracle reports inequivalence or errors.
pub fn assert_po_equivalent(a: &Netlist, b: &Netlist, label: &str) {
    match po_equivalent(a, b, 0xE9_0F) {
        Ok(true) => {}
        Ok(false) => panic!("{label}: primary-output behaviour diverged"),
        Err(e) => panic!("{label}: oracle error: {e}"),
    }
}

/// The per-sample reference trainer: the executable specification of
/// [`muxlink_gnn::train`], which must match it bit for bit — history,
/// best epoch and every weight.
///
/// The epoch loop is the production one (shuffle, sequential dropout
/// seed draws, validation, best-epoch restore); the batch body and the
/// validation pass are the per-sample [`mod@reference`] model's. Each
/// minibatch member's forward/backward runs on the ambient rayon pool,
/// one reused [`reference::Workspace`] per worker, writing its
/// [`Gradients`] into a pre-sized slot of a batch-wide pool. The slots
/// are then merged **in sample order** — keeping one slot per sample
/// rather than merging inside the workers is what fixes the reduction
/// order — so the result is bit-identical for any thread count.
/// Validation is [`reference_evaluate`], so equal reports also pin the
/// batched [`muxlink_gnn::evaluate`], and the optimiser is the
/// per-tensor [`OracleAdam`], so equal weights also pin
/// [`muxlink_gnn::AdamState`].
///
/// # Panics
///
/// Panics when `train` is empty or `batch_size` is zero.
pub fn reference_train<S: SampleStore + ?Sized, V: SampleStore + ?Sized>(
    model: &mut Dgcnn,
    train: &S,
    val: &V,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!train.is_empty(), "training set must not be empty");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    let mut rng = seeded_rng(cfg.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut best: Option<(usize, f64, f64, Vec<Matrix>)> = None;
    let mut step = 0usize;
    let mut grad_slots: Vec<Gradients> =
        (0..cfg.batch_size).map(|_| model.new_gradients()).collect();
    let mut acc = model.new_gradients();
    let mut adam = OracleAdam::new(model);

    for epoch in 1..=cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            // Dropout seeds are drawn sequentially *before* the parallel
            // region, exactly as the production loop draws them.
            let jobs: Vec<(usize, u64)> = batch
                .iter()
                .filter(|&&i| train.view(i).label.is_some())
                .map(|&i| (i, rng.gen::<u64>()))
                .collect();
            if jobs.is_empty() {
                continue;
            }
            // Per-sample forward/backward in parallel against frozen
            // weights; `collect` preserves job order.
            let frozen = Reference::new(model);
            let frozen = &frozen;
            let losses: Vec<f64> = grad_slots[..jobs.len()]
                .par_iter_mut()
                .zip(jobs.par_iter())
                .map_init(Workspace::new, |ws, (grads, &(i, dropout_seed))| {
                    let s = train.view(i);
                    let label = s.label.expect("jobs are pre-filtered to labelled samples");
                    let mut dropout_rng = seeded_rng(dropout_seed);
                    frozen.forward_into(s, Some(&mut dropout_rng), ws);
                    frozen.backward_into(s, label, ws, grads);
                    f64::from(ws.cache.loss(label))
                })
                .collect();
            // Deterministic reduction: losses and gradients folded in
            // sample order, independent of which thread produced them.
            for loss in &losses {
                epoch_loss += loss;
            }
            acc.copy_from(&grad_slots[0]);
            for g in &grad_slots[1..jobs.len()] {
                acc.merge(g);
            }
            step += 1;
            adam.step(model, &acc, &cfg.adam, step, 1.0 / jobs.len() as f32);
            seen += jobs.len();
        }
        let train_loss = if seen == 0 {
            f64::NAN
        } else {
            epoch_loss / seen as f64
        };
        let (val_loss, val_accuracy) = reference_evaluate(model, val);
        history.push(EpochStats {
            epoch,
            train_loss,
            val_loss,
            val_accuracy,
        });
        if !val_accuracy.is_nan() {
            let better = match &best {
                None => true,
                Some((_, acc, loss, _)) => {
                    val_accuracy > *acc || (val_accuracy == *acc && val_loss < *loss)
                }
            };
            if better {
                best = Some((epoch, val_accuracy, val_loss, model.snapshot()));
            }
        }
    }

    match best {
        Some((best_epoch, best_val_accuracy, _, snapshot)) => {
            model.restore(&snapshot);
            TrainReport {
                history,
                best_epoch,
                best_val_accuracy,
            }
        }
        None => TrainReport {
            history,
            best_epoch: 0,
            best_val_accuracy: f64::NAN,
        },
    }
}

/// `bench` with its first `AND` gate turned into an `OR` gate: one
/// graph node's gate type changes, every wire and every key MUX stays.
#[must_use]
pub fn first_and_to_or(bench: &str) -> String {
    assert!(bench.contains("= AND("), "the design has an AND gate");
    bench.replacen("= AND(", "= OR(", 1)
}

/// `bench` with one gate input moved from a gate-driven net to a
/// non-key primary input, at a gate that neither drives nor reads any
/// net a MUX touches: a rewiring outside every key-MUX cone. One graph
/// edge disappears; the key-MUX candidates stay.
#[must_use]
pub fn rewire_outside_mux_cones(bench: &str) -> String {
    let gate = |line: &str| -> Option<(String, String, Vec<String>)> {
        let (out, rhs) = line.split_once(" = ")?;
        let (ty, args) = rhs.strip_suffix(')')?.split_once('(')?;
        let ins = args.split(',').map(|a| a.trim().to_owned()).collect();
        Some((out.trim().to_owned(), ty.to_owned(), ins))
    };
    let pis: Vec<&str> = bench
        .lines()
        .filter_map(|l| l.strip_prefix("INPUT(")?.strip_suffix(')'))
        .collect();
    let pi = *pis
        .iter()
        .find(|n| !n.starts_with("keyinput"))
        .expect("the design has a non-key primary input");
    let mut mux_nets = std::collections::HashSet::new();
    for (out, ty, ins) in bench.lines().filter_map(gate) {
        if ty == "MUX" {
            mux_nets.insert(out);
            mux_nets.extend(ins);
        }
    }
    let mut lines: Vec<String> = bench.lines().map(str::to_owned).collect();
    let at = lines
        .iter()
        .position(|l| {
            gate(l).is_some_and(|(out, ty, ins)| {
                ty != "MUX"
                    && ins.len() >= 2
                    && !mux_nets.contains(&out)
                    && ins
                        .iter()
                        .all(|i| !mux_nets.contains(i) && !pis.contains(&i.as_str()))
                    && ins[1..].iter().all(|i| *i != ins[0])
            })
        })
        .expect("some gate lies outside every MUX cone");
    let (out, ty, mut ins) = gate(&lines[at]).unwrap();
    ins[0] = pi.to_owned();
    lines[at] = format!("{out} = {ty}({})", ins.join(", "));
    lines.join("\n") + "\n"
}

/// Converts an enclosing subgraph into an owned GNN input sample with
/// two-hot features under the label budget `max_label` — the owned
/// counterpart of an arena-pooled sample, which the storage- and
/// scoring-equivalence tests compare against.
#[must_use]
pub fn to_graph_sample(sg: &Subgraph, max_label: u32, label: Option<bool>) -> GraphSample {
    GraphSample {
        adj: sg.adj.clone(),
        features: one_hot_features(sg, max_label),
        label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_graph::graph::{CircuitGraph, Link};
    use muxlink_netlist::{GateId, GateType};
    use subgraph_oracle::enclosing_subgraph_ref;

    #[test]
    fn sample_has_matching_shapes() {
        let g = CircuitGraph::from_edges(
            (0..4).map(GateId::from_index).collect(),
            vec![GateType::Nand; 4],
            &[Link::new(0, 1), Link::new(1, 2), Link::new(2, 3)],
        );
        let sg = enclosing_subgraph_ref(&g, Link::new(1, 2), 2, None);
        let s = to_graph_sample(&sg, sg.max_label(), Some(true));
        assert_eq!(s.node_count(), s.features.rows());
        assert_eq!(s.label, Some(true));
    }

    #[test]
    fn oracle_accepts_identical_designs() {
        let n = test_design(120, 1);
        assert!(po_equivalent(&n, &n.clone(), 1).unwrap());
    }

    #[test]
    fn oracle_rejects_functional_change() {
        // 16 inputs → exhaustive path. Swap one gate type.
        let n = test_design(120, 2);
        let mut bytes = muxlink_netlist::bench_format::write(&n).unwrap();
        let changed = if bytes.contains("AND(") {
            bytes = bytes.replacen("AND(", "NAND(", 1);
            true
        } else if bytes.contains("OR(") {
            bytes = bytes.replacen("OR(", "NOR(", 1);
            true
        } else {
            false
        };
        assert!(changed, "synthetic design should contain AND or OR gates");
        let m = muxlink_netlist::bench_format::parse("mut", &bytes).unwrap();
        assert!(!po_equivalent(&n, &m, 1).unwrap());
    }

    #[test]
    fn oracle_random_path_matches_names_not_positions() {
        // > 16 inputs forces the sampled path; reparse from text to get a
        // structurally re-ordered but equivalent netlist.
        let n = muxlink_benchgen::synth::SynthConfig::new("wide", 20, 8, 200).generate(3);
        let text = muxlink_netlist::bench_format::write(&n).unwrap();
        let m = muxlink_netlist::bench_format::parse("re", &text).unwrap();
        assert!(po_equivalent(&n, &m, 7).unwrap());
    }

    #[test]
    fn oracle_flags_interface_mismatch_as_error() {
        let a = test_design(60, 4);
        let b = muxlink_benchgen::synth::SynthConfig::new("other", 12, 8, 60).generate(4);
        assert!(po_equivalent(&a, &b, 1).is_err());
    }
}
