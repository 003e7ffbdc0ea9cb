//! Arena link samples against the owned oracle path: adjacency and
//! two-hot features under any label budget.

use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_graph::{SampleArena, SampleHandle};
use muxlink_netlist::{GateId, GateType};

use crate::subgraph_oracle::{enclosing_subgraph_ref, one_hot_features};

/// Ring of `n` NOR gates with a few chords for label variety.
fn ring(n: usize) -> CircuitGraph {
    let mut edges: Vec<Link> = (0..n)
        .map(|i| Link::new(i as u32, ((i + 1) % n) as u32))
        .collect();
    edges.push(Link::new(0, (n / 2) as u32));
    edges.push(Link::new(1, (n / 3) as u32));
    CircuitGraph::from_edges(
        (0..n).map(GateId::from_index).collect(),
        vec![GateType::Nor; n],
        &edges,
    )
}

/// Checks a stored sample against the owned oracle path: extracts the
/// same link through [`enclosing_subgraph_ref`] + [`one_hot_features`]
/// and asserts slab content equality under the given label budget.
fn assert_sample_matches_owned(
    arena: &SampleArena,
    handle: SampleHandle,
    graph: &CircuitGraph,
    link: Link,
    h: usize,
    max_nodes: Option<usize>,
    max_label: u32,
) {
    let sg = enclosing_subgraph_ref(graph, link, h, max_nodes);
    let owned = one_hot_features(&sg, max_label);
    let adj = arena.adj(handle);
    assert_eq!(adj.to_owned_csr(), sg.adj, "adjacency diverged");
    let oh = arena.one_hot(handle, max_label);
    assert_eq!(oh.to_owned_features(), owned, "features diverged");
    assert_eq!(arena.node_count(handle), sg.node_count());
}

#[test]
fn direct_extraction_matches_owned_path_bitwise() {
    let g = ring(40);
    let mut arena = SampleArena::new();
    let links = [Link::new(0, 5), Link::new(3, 21), Link::new(7, 8)];
    for round in 0..2 {
        arena.clear();
        for (i, &link) in links.iter().enumerate() {
            for hops in 1..=3 {
                for cap in [None, Some(6)] {
                    let hd = arena.extract_sample(&g, link, hops, cap, Some(i % 2 == 0));
                    let max_label = arena.max_label().max(1);
                    assert_sample_matches_owned(&arena, hd, &g, link, hops, cap, max_label);
                    assert_eq!(arena.label(hd), Some(i % 2 == 0), "round {round}");
                }
            }
        }
    }
}

#[test]
fn clamping_view_matches_owned_clamped_features() {
    let g = ring(40);
    let mut arena = SampleArena::new();
    let link = Link::new(0, 19);
    let hd = arena.extract_sample(&g, link, 3, None, None);
    // A budget far below the raw labels: the view must clamp exactly
    // like `one_hot_features` does.
    for budget in [0u32, 1, 2] {
        assert_sample_matches_owned(&arena, hd, &g, link, 3, None, budget);
    }
}
