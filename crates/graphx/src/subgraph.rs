//! Step ③: membership of h-hop enclosing subgraphs.
//!
//! Extraction is the inner loop of dataset generation and scoring. This
//! module decides *which* graph nodes a sample holds and in what order;
//! [`SampleArena::extract_sample`](crate::arena::SampleArena::extract_sample)
//! (around a link) and
//! [`SampleArena::extract_node_sample`](crate::arena::SampleArena::extract_node_sample)
//! (around one node) then write the rows straight into the arena slabs.
//! Both run on per-worker epoch-stamped dense scratch (`ExtractScratch`
//! in the crate-internal `scratch` module): no hash lookups and no
//! per-call allocation. The `HashMap`-based extractors this replaced are
//! the executable specifications in the integration-test crate
//! (`tests/src/subgraph_oracle.rs`), which the property suite pins the
//! arena samples to bit for bit.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::graph::{CircuitGraph, Link};
use crate::scratch::{ExtractScratch, StampedMap};

/// A link no graph has: as the skipped edge of a BFS, or the dropped
/// edge of a sample, it skips and drops nothing.
pub(crate) const NO_LINK: Link = Link {
    a: u32::MAX,
    b: u32::MAX,
};

thread_local! {
    /// One scratch bundle per worker thread; buffers grow to the largest
    /// graph seen and are reused by every extraction on that thread.
    static EXTRACT_SCRATCH: RefCell<ExtractScratch> = RefCell::new(ExtractScratch::default());
}

/// Runs `f` on this worker's extraction scratch (shared with the arena's
/// direct-to-slab extraction path).
pub(crate) fn with_extract_scratch<R>(f: impl FnOnce(&mut ExtractScratch) -> R) -> R {
    EXTRACT_SCRATCH.with(|scr| f(&mut scr.borrow_mut()))
}

/// Fills `scr.members` with the member nodes of the enclosing subgraph
/// of `link` — the union of the two bounded BFS neighbourhoods, targets
/// first, then min-distance (BFS-like) order, truncated to `max_nodes` —
/// and rebuilds `scr.local_of` as the global→local relabelling. Returns
/// the local indices of the two targets.
pub(crate) fn collect_link_members(
    scr: &mut ExtractScratch,
    graph: &CircuitGraph,
    link: Link,
    h: usize,
    max_nodes: Option<usize>,
) -> (u32, u32) {
    let (f, g) = (link.a, link.b);
    let ExtractScratch {
        dist_f,
        dist_g,
        local_of,
        queue,
        visited_f,
        visited_g,
        members,
    } = scr;
    bounded_bfs_stamped(graph, f, h, link, dist_f, queue, visited_f);
    bounded_bfs_stamped(graph, g, h, link, dist_g, queue, visited_g);

    // Collect member nodes (the union of the two BFS neighbourhoods),
    // targets first, then by min-distance (BFS-like order) for
    // deterministic truncation. The sort key is a total order over node
    // indices, so starting from visit order instead of ascending index
    // order yields the same members vector as the hash-map oracle.
    members.clear();
    members.extend_from_slice(visited_f);
    members.extend(visited_g.iter().copied().filter(|&j| !dist_f.contains(j)));
    members.sort_unstable_by_key(|&j| {
        let key = if j == f || j == g {
            0
        } else {
            let df = dist_f.get(j).map_or(usize::MAX, |d| d as usize);
            let dg = dist_g.get(j).map_or(usize::MAX, |d| d as usize);
            1 + df.min(dg)
        };
        (key, j)
    });
    if let Some(cap) = max_nodes {
        members.truncate(cap.max(2));
    }

    index_members(local_of, members, graph.node_count());
    let lf = local_of.get(f).expect("target f is always a member");
    let lg = local_of.get(g).expect("target g is always a member");
    (lf, lg)
}

/// Fills `scr.members` with the member nodes of the h-hop neighbourhood
/// of the single node `center` (key-gate-centric extraction, as used by
/// OMLA-style attacks on XOR locking) in (distance, index) order,
/// truncated to `max_nodes` (the centre always survives), and rebuilds
/// `scr.local_of`. Returns the centre's local index.
pub(crate) fn collect_node_members(
    scr: &mut ExtractScratch,
    graph: &CircuitGraph,
    center: u32,
    h: usize,
    max_nodes: Option<usize>,
) -> u32 {
    let ExtractScratch {
        dist_f,
        local_of,
        queue,
        visited_f,
        members,
        ..
    } = scr;
    bounded_bfs_stamped(graph, center, h, NO_LINK, dist_f, queue, visited_f);
    members.clear();
    members.extend_from_slice(visited_f);
    members.sort_unstable_by_key(|&j| (dist_f.get(j).expect("visited"), j));
    if let Some(cap) = max_nodes {
        members.truncate(cap.max(1));
    }
    index_members(local_of, members, graph.node_count());
    local_of.get(center).expect("centre is always a member")
}

/// Rebuilds `local_of` (over the `n` graph nodes) as the global→local
/// relabelling of `members`, in member order.
fn index_members(local_of: &mut StampedMap, members: &[u32], n: usize) {
    local_of.begin(n);
    for (i, &j) in members.iter().enumerate() {
        local_of.insert(j, i as u32);
    }
}

/// The local-adjacency emission rule: maps member `j`'s global
/// neighbour `nb` to its local index, dropping the edge `(f, g)` in both
/// directions — the direct target edge of a link sample (the GNN must
/// never see the answer), [`NO_LINK`] for a node sample.
#[inline]
pub(crate) fn local_neighbor(
    local_of: &StampedMap,
    f: u32,
    g: u32,
    j: u32,
    nb: u32,
) -> Option<u32> {
    let is_target_edge = (j == f && nb == g) || (j == g && nb == f);
    if is_target_edge {
        None
    } else {
        local_of.get(nb)
    }
}

/// BFS distances from `source` capped at `h`, never traversing the edge
/// `skip`, into a reusable [`StampedMap`]; the visited nodes — exactly
/// the nodes at distance ≤ `h` — are recorded in `visited` in visit
/// order. No allocation once the scratch has grown to the graph size.
fn bounded_bfs_stamped(
    graph: &CircuitGraph,
    source: u32,
    h: usize,
    skip: Link,
    dist: &mut StampedMap,
    queue: &mut VecDeque<u32>,
    visited: &mut Vec<u32>,
) {
    dist.begin(graph.node_count());
    visited.clear();
    queue.clear();
    dist.insert(source, 0);
    visited.push(source);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist.get(u).expect("queued nodes have distances") as usize;
        if du == h {
            continue;
        }
        for &v in graph.adj.neighbors(u as usize) {
            let is_target_edge = Link::new(u, v) == skip;
            if is_target_edge || dist.contains(v) {
                continue;
            }
            dist.insert(v, (du + 1) as u32);
            visited.push(v);
            queue.push_back(v);
        }
    }
}
