//! The owned, `HashMap`-based subgraph extractors the sample arena
//! replaced, kept as executable specifications. Every production sample
//! is written straight into a [`SampleArena`] by
//! [`extract_sample`](SampleArena::extract_sample) (around a link) or
//! [`extract_node_sample`](SampleArena::extract_node_sample) (around one
//! node); the property suite pins both to [`enclosing_subgraph_ref`] and
//! [`node_subgraph`] bit for bit — adjacency, scales, gate columns and
//! raw labels.
//!
//! Everything here allocates per call and relabels nodes through a
//! `HashMap`; it is written to be obviously right, not fast.

use std::collections::{HashMap, VecDeque};

use muxlink_graph::csr::{Csr, CsrBuilder};
use muxlink_graph::drnl::{drnl_label, UNREACHABLE};
use muxlink_graph::features::{feature_cols, OneHotFeatures};
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_graph::{SampleArena, SampleHandle};
use muxlink_netlist::GateType;

/// An enclosing subgraph around a target node pair: local adjacency,
/// labels and per-node gate types.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// Original graph node index per local node.
    pub nodes: Vec<u32>,
    /// Local CSR adjacency (indices into `nodes`), target edge removed.
    pub adj: Csr,
    /// Label per local node (DRNL for a link, `1 + distance` for a node;
    /// targets are 1).
    pub labels: Vec<u32>,
    /// Gate type per local node.
    pub gate_types: Vec<GateType>,
    /// Local indices of the target pair `(f, g)` (both the centre for a
    /// node subgraph).
    pub target: (u32, u32),
}

impl Subgraph {
    /// Number of nodes in the subgraph.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Largest label present.
    #[must_use]
    pub fn max_label(&self) -> u32 {
        self.labels.iter().copied().max().unwrap_or(0)
    }
}

/// A link no graph has: skipping it skips nothing.
const NO_LINK: Link = Link {
    a: u32::MAX,
    b: u32::MAX,
};

/// The h-hop enclosing subgraph of `link` in `graph`.
///
/// Per the paper, the subgraph is induced on
/// `{ j | d(j,f) ≤ h or d(j,g) ≤ h }`, and the direct link between the
/// target nodes — if observed — is removed before labeling (the GNN must
/// never see the answer). When `max_nodes` is set and the neighbourhood is
/// larger, the nodes nearest to the targets are kept (deterministic
/// BFS-order truncation; the two targets always survive).
#[must_use]
pub fn enclosing_subgraph_ref(
    graph: &CircuitGraph,
    link: Link,
    h: usize,
    max_nodes: Option<usize>,
) -> Subgraph {
    let (f, g) = (link.a, link.b);
    let dist_f = bounded_bfs(graph, f, h, link);
    let dist_g = bounded_bfs(graph, g, h, link);

    // Collect member nodes, targets first, then by min-distance (BFS-like
    // order) for deterministic truncation.
    let mut members: Vec<u32> = (0..graph.node_count() as u32)
        .filter(|&j| dist_f[j as usize] <= h || dist_g[j as usize] <= h)
        .collect();
    members.sort_by_key(|&j| {
        let key = if j == f || j == g {
            0
        } else {
            1 + dist_f[j as usize].min(dist_g[j as usize])
        };
        (key, j)
    });
    if let Some(cap) = max_nodes {
        members.truncate(cap.max(2));
    }

    let local_of = local_index(&members);
    let (lf, lg) = (local_of[&f], local_of[&g]);
    let adj = local_adjacency(graph, &members, &local_of, link);
    let labels = compute_labels(&adj, lf, lg);
    owned(graph, members, adj, labels, (lf, lg))
}

/// The h-hop neighbourhood subgraph around the single node `center`
/// (key-gate-centric extraction, as used by OMLA-style attacks on XOR
/// locking): members in (distance, index) order truncated to `max_nodes`
/// (the centre always survives), no edge removed, labels `1 + distance`
/// from the centre within the subgraph (0 when unreachable). Both target
/// slots point at the centre.
#[must_use]
pub fn node_subgraph(
    graph: &CircuitGraph,
    center: u32,
    h: usize,
    max_nodes: Option<usize>,
) -> Subgraph {
    let dist = bounded_bfs(graph, center, h, NO_LINK);
    let mut members: Vec<u32> = (0..graph.node_count() as u32)
        .filter(|&j| dist[j as usize] <= h)
        .collect();
    members.sort_by_key(|&j| (dist[j as usize], j));
    if let Some(cap) = max_nodes {
        members.truncate(cap.max(1));
    }

    let local_of = local_index(&members);
    let lc = local_of[&center];
    let adj = local_adjacency(graph, &members, &local_of, NO_LINK);
    let labels = bfs_without(&adj, lc, u32::MAX)
        .into_iter()
        .map(|d| if d == UNREACHABLE { 0 } else { d + 1 })
        .collect();
    owned(graph, members, adj, labels, (lc, lc))
}

/// Global node index → local index, in member order.
fn local_index(members: &[u32]) -> HashMap<u32, u32> {
    members
        .iter()
        .enumerate()
        .map(|(i, &j)| (j, i as u32))
        .collect()
}

/// The adjacency induced on `members`, without the edge `skip`.
fn local_adjacency(
    graph: &CircuitGraph,
    members: &[u32],
    local_of: &HashMap<u32, u32>,
    skip: Link,
) -> Csr {
    let mut builder = CsrBuilder::with_capacity(members.len(), members.len() * 4);
    for &j in members {
        builder.push_node(graph.adj.neighbors(j as usize).iter().filter_map(|&nb| {
            if Link::new(j, nb) == skip {
                None
            } else {
                local_of.get(&nb).copied()
            }
        }));
    }
    builder.finish()
}

/// Assembles the owned subgraph, gate types looked up per member.
fn owned(
    graph: &CircuitGraph,
    members: Vec<u32>,
    adj: Csr,
    labels: Vec<u32>,
    target: (u32, u32),
) -> Subgraph {
    let gate_types = members
        .iter()
        .map(|&j| graph.gate_types[j as usize])
        .collect();
    Subgraph {
        nodes: members,
        adj,
        labels,
        gate_types,
        target,
    }
}

/// BFS distances from `source` capped at `h`, never traversing the edge
/// `skip`. Unvisited nodes get `usize::MAX`.
fn bounded_bfs(graph: &CircuitGraph, source: u32, h: usize, skip: Link) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.node_count()];
    let mut q = VecDeque::new();
    dist[source as usize] = 0;
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        if dist[u as usize] == h {
            continue;
        }
        for &v in graph.adj.neighbors(u as usize) {
            if Link::new(u, v) == skip || dist[v as usize] != usize::MAX {
                continue;
            }
            dist[v as usize] = dist[u as usize] + 1;
            q.push_back(v);
        }
    }
    dist
}

/// BFS distances from `source` over a CSR adjacency, with the node
/// `removed` treated as absent (the "double radius" convention: distances
/// to one target are measured with the other target removed).
#[must_use]
pub fn bfs_without(adj: &Csr, source: u32, removed: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; adj.node_count()];
    if source == removed {
        return dist;
    }
    let mut q = VecDeque::new();
    dist[source as usize] = 0;
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        for &v in adj.neighbors(u as usize) {
            if v == removed || dist[v as usize] != UNREACHABLE {
                continue;
            }
            dist[v as usize] = dist[u as usize] + 1;
            q.push_back(v);
        }
    }
    dist
}

/// DRNL labels for every node of a subgraph whose targets are the local
/// nodes `f` and `g`. Targets are labelled 1.
#[must_use]
pub fn compute_labels(adj: &Csr, f: u32, g: u32) -> Vec<u32> {
    let df = bfs_without(adj, f, g);
    let dg = bfs_without(adj, g, f);
    (0..adj.node_count() as u32)
        .map(|j| {
            if j == f || j == g {
                1
            } else {
                drnl_label(df[j as usize], dg[j as usize])
            }
        })
        .collect()
}

/// The sparse two-hot node information matrix of one subgraph.
///
/// Labels exceeding `max_label` (possible at attack time when a candidate
/// subgraph is deeper than anything seen in training) are clamped into the
/// last label bucket.
///
/// # Panics
///
/// Panics when a node carries a non-encodable gate type.
#[must_use]
pub fn one_hot_features(sg: &Subgraph, max_label: u32) -> OneHotFeatures {
    let gate = sg
        .gate_types
        .iter()
        .map(|ty| {
            ty.encoding_index()
                .expect("graph nodes are plain encoded gates") as u32
        })
        .collect();
    let label = sg.labels.iter().map(|&l| l.min(max_label)).collect();
    OneHotFeatures::new(feature_cols(max_label), gate, label)
}

/// Everything one stored sample holds, in a form two storage paths can
/// be compared by: adjacency, propagation-scale bits, gate columns and
/// raw (unclamped) labels.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBits {
    /// Number of nodes.
    pub node_count: usize,
    /// Local CSR adjacency.
    pub adj: Csr,
    /// `1/(1 + deg)` per node, as bits.
    pub scales: Vec<u32>,
    /// Gate-type column per node.
    pub gate: Vec<u32>,
    /// Raw label per node.
    pub labels: Vec<u32>,
}

impl SampleBits {
    /// The content of the arena sample `h`.
    #[must_use]
    pub fn of_arena(arena: &SampleArena, h: SampleHandle) -> Self {
        let adj = arena.adj(h);
        // Under the arena's own label budget no stored label clamps.
        let x = arena.one_hot(h, arena.max_label()).to_owned_features();
        Self {
            node_count: arena.node_count(h),
            adj: adj.to_owned_csr(),
            scales: (0..adj.node_count())
                .map(|i| adj.scale(i).to_bits())
                .collect(),
            gate: x.gate,
            labels: x.label,
        }
    }

    /// The content of an oracle subgraph.
    ///
    /// # Panics
    ///
    /// Panics when a node carries a non-encodable gate type.
    #[must_use]
    pub fn of_oracle(sg: &Subgraph) -> Self {
        Self {
            node_count: sg.node_count(),
            adj: sg.adj.clone(),
            scales: (0..sg.node_count())
                .map(|i| sg.adj.scale(i).to_bits())
                .collect(),
            gate: one_hot_features(sg, sg.max_label()).gate,
            labels: sg.labels.clone(),
        }
    }
}
