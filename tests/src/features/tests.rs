//! Two-hot features of oracle subgraphs.

use muxlink_graph::features::feature_cols;
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_netlist::{GateId, GateType, GATE_TYPE_COUNT};

use crate::subgraph_oracle::{enclosing_subgraph_ref, one_hot_features, Subgraph};

fn tiny_subgraph() -> Subgraph {
    let g = CircuitGraph::from_edges(
        (0..3).map(GateId::from_index).collect(),
        vec![GateType::And, GateType::Xor, GateType::Not],
        &[Link::new(0, 1), Link::new(1, 2)],
    );
    enclosing_subgraph_ref(&g, Link::new(0, 2), 2, None)
}

#[test]
fn one_hot_rows_sum_to_two() {
    let sg = tiny_subgraph();
    let m = one_hot_features(&sg, sg.max_label()).to_dense();
    for r in 0..m.rows {
        let s: f32 = (0..m.cols).map(|c| m.get(r, c)).sum();
        assert_eq!(s, 2.0, "gate one-hot + label one-hot");
    }
}

#[test]
fn gate_type_bit_set_correctly() {
    let sg = tiny_subgraph();
    let m = one_hot_features(&sg, sg.max_label()).to_dense();
    for (i, ty) in sg.gate_types.iter().enumerate() {
        assert_eq!(m.get(i, ty.encoding_index().unwrap()), 1.0);
    }
}

#[test]
fn label_overflow_clamped() {
    let sg = tiny_subgraph();
    // Force a tiny label budget; everything must clamp, not panic.
    let m = one_hot_features(&sg, 0).to_dense();
    assert_eq!(m.cols, feature_cols(0));
    for r in 0..m.rows {
        assert_eq!(m.get(r, GATE_TYPE_COUNT), 1.0);
    }
}

#[test]
fn one_hot_matches_dense_exactly() {
    let sg = tiny_subgraph();
    let oh = one_hot_features(&sg, sg.max_label());
    let dense = one_hot_features(&sg, sg.max_label()).to_dense();
    assert_eq!(oh.rows(), dense.rows);
    assert_eq!(oh.cols, dense.cols);
    assert_eq!(oh.to_dense(), dense);
    for i in 0..oh.rows() {
        let (g, l) = oh.columns(i);
        assert_eq!(dense.get(i, g), 1.0);
        assert_eq!(dense.get(i, l), 1.0);
    }
}

#[test]
fn one_hot_clamps_labels_like_dense() {
    let sg = tiny_subgraph();
    let oh = one_hot_features(&sg, 0);
    assert_eq!(oh.cols, feature_cols(0));
    assert!(oh.label.iter().all(|&l| l == 0));
    assert_eq!(oh.to_dense(), one_hot_features(&sg, 0).to_dense());
}
