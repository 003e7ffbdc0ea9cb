//! Enclosing- and node-subgraph extraction: the oracles' membership,
//! labelling and truncation rules, and the arena's link samples against
//! the link oracle.

use muxlink_graph::drnl::drnl_label;
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_graph::SampleArena;
use muxlink_netlist::{GateId, GateType};

use crate::subgraph_oracle::{enclosing_subgraph_ref, node_subgraph, SampleBits};

/// Chain 0-1-2-3-4-5 plus a branch 2-6.
fn chain_graph() -> CircuitGraph {
    let n = 7;
    CircuitGraph::from_edges(
        (0..n).map(GateId::from_index).collect(),
        vec![GateType::And; n],
        &[
            Link::new(0, 1),
            Link::new(1, 2),
            Link::new(2, 3),
            Link::new(3, 4),
            Link::new(4, 5),
            Link::new(2, 6),
        ],
    )
}

#[test]
fn one_hop_subgraph_contains_neighbours_only() {
    let g = chain_graph();
    let sg = enclosing_subgraph_ref(&g, Link::new(2, 3), 1, None);
    // 1 hop around {2,3}: nodes 1,2,3,4,6.
    let mut nodes = sg.nodes.clone();
    nodes.sort_unstable();
    assert_eq!(nodes, vec![1, 2, 3, 4, 6]);
}

#[test]
fn target_edge_removed_but_targets_present() {
    let g = chain_graph();
    let sg = enclosing_subgraph_ref(&g, Link::new(2, 3), 2, None);
    let (lf, lg) = sg.target;
    assert!(!sg.adj.contains_edge(lf, lg));
    assert_eq!(sg.labels[lf as usize], 1);
    assert_eq!(sg.labels[lg as usize], 1);
}

#[test]
fn larger_h_grows_subgraph() {
    let g = chain_graph();
    let s1 = enclosing_subgraph_ref(&g, Link::new(2, 3), 1, None);
    let s2 = enclosing_subgraph_ref(&g, Link::new(2, 3), 2, None);
    let s3 = enclosing_subgraph_ref(&g, Link::new(2, 3), 3, None);
    assert!(s1.node_count() <= s2.node_count());
    assert!(s2.node_count() <= s3.node_count());
    assert_eq!(s3.node_count(), 7);
}

#[test]
fn nonexistent_link_subgraph_keeps_real_structure() {
    // Candidate link (0, 6): not an edge; subgraph must still include
    // both neighbourhoods.
    let g = chain_graph();
    let sg = enclosing_subgraph_ref(&g, Link::new(0, 6), 1, None);
    let mut nodes = sg.nodes.clone();
    nodes.sort_unstable();
    assert_eq!(nodes, vec![0, 1, 2, 6]);
}

#[test]
fn truncation_keeps_targets_and_nearest() {
    let g = chain_graph();
    let sg = enclosing_subgraph_ref(&g, Link::new(2, 3), 3, Some(4));
    assert_eq!(sg.node_count(), 4);
    assert!(sg.nodes.contains(&2));
    assert!(sg.nodes.contains(&3));
    // The retained non-targets are at distance 1.
    for (i, &orig) in sg.nodes.iter().enumerate() {
        if orig != 2 && orig != 3 {
            assert!(sg.labels[i] <= drnl_label(1, 2).max(drnl_label(1, 1)));
        }
    }
}

#[test]
fn labels_via_subgraph_distances() {
    let g = chain_graph();
    let sg = enclosing_subgraph_ref(&g, Link::new(1, 3), 2, None);
    // Node 2 sits between the targets: df=1, dg=1 -> label 2.
    let pos2 = sg.nodes.iter().position(|&n| n == 2).unwrap();
    assert_eq!(sg.labels[pos2], drnl_label(1, 1));
}

#[test]
fn node_subgraph_distances_and_membership() {
    let g = chain_graph();
    let sg = node_subgraph(&g, 2, 1, None);
    let mut nodes = sg.nodes.clone();
    nodes.sort_unstable();
    assert_eq!(nodes, vec![1, 2, 3, 6]);
    let (lc, _) = sg.target;
    assert_eq!(sg.nodes[lc as usize], 2);
    assert_eq!(sg.labels[lc as usize], 1);
    for (i, &orig) in sg.nodes.iter().enumerate() {
        if orig != 2 {
            assert_eq!(sg.labels[i], 2, "1-hop neighbours get label 2");
        }
    }
}

#[test]
fn node_subgraph_caps_deterministically() {
    let g = chain_graph();
    let a = node_subgraph(&g, 2, 3, Some(3));
    let b = node_subgraph(&g, 2, 3, Some(3));
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.node_count(), 3);
    assert!(a.nodes.contains(&2));
}

#[test]
fn deterministic_output() {
    let g = chain_graph();
    let mut arena = SampleArena::new();
    let a = arena.extract_sample(&g, Link::new(2, 3), 2, None, None);
    let b = arena.extract_sample(&g, Link::new(2, 3), 2, None, None);
    assert_eq!(
        SampleBits::of_arena(&arena, a),
        SampleBits::of_arena(&arena, b)
    );
}

/// The arena's hash-free link samples must be bit-identical to the hash
/// oracle across links, hop counts and caps, and across repeated reuse
/// of the thread-local scratch.
#[test]
fn stamped_extraction_matches_hash_reference() {
    let g = chain_graph();
    for _round in 0..3 {
        for link in [Link::new(2, 3), Link::new(0, 6), Link::new(1, 3)] {
            for h in 1..=3 {
                for cap in [None, Some(3), Some(4)] {
                    let mut arena = SampleArena::new();
                    let a = arena.extract_sample(&g, link, h, cap, None);
                    let b = enclosing_subgraph_ref(&g, link, h, cap);
                    assert_eq!(
                        SampleBits::of_arena(&arena, a),
                        SampleBits::of_oracle(&b),
                        "{link:?} h={h} cap={cap:?}"
                    );
                    assert_eq!(arena.max_label(), b.max_label());
                }
            }
        }
    }
}
