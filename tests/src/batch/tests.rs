//! Block-diagonal batching of arena views against oracle subgraphs.

use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_graph::{BlockDiagBatch, SampleArena};
use muxlink_netlist::{GateId, GateType};

use crate::subgraph_oracle::enclosing_subgraph_ref;

/// Arena-backed views batch to the same bits as owned views — the
/// storage-path equivalence the per-sample pipeline guarantees must
/// survive batching.
#[test]
fn arena_and_owned_views_batch_identically() {
    let n = 24;
    let mut edges: Vec<Link> = (0..n)
        .map(|i| Link::new(i as u32, ((i + 1) % n) as u32))
        .collect();
    edges.push(Link::new(0, (n / 2) as u32));
    let g = CircuitGraph::from_edges(
        (0..n).map(GateId::from_index).collect(),
        vec![GateType::Nand; n],
        &edges,
    );
    let links = [Link::new(0, 5), Link::new(3, 11), Link::new(7, 8)];
    let mut arena = SampleArena::new();
    let handles: Vec<_> = links
        .iter()
        .map(|&l| arena.extract_sample(&g, l, 2, None, None))
        .collect();

    let mut from_arena = BlockDiagBatch::new();
    for &h in &handles {
        from_arena.push(arena.adj(h));
    }
    let mut from_owned = BlockDiagBatch::new();
    for &l in &links {
        from_owned.push(enclosing_subgraph_ref(&g, l, 2, None).adj.view());
    }
    assert_eq!(
        from_arena.adj().to_owned_csr(),
        from_owned.adj().to_owned_csr()
    );
    assert_eq!(from_arena.node_starts(), from_owned.node_starts());
}
