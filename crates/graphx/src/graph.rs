//! The undirected gate graph: nodes are gates, edges are wires.
//!
//! Primary inputs and outputs are deliberately not represented — the paper
//! captures "the composition of gates and their connectivity" only.

use muxlink_netlist::{GateId, GateType};
use serde::{map_get, DeError, Deserialize, Serialize, Value};

use crate::csr::{Csr, CsrBuilder};

/// An (unordered) candidate or observed link between two graph nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Link {
    /// First endpoint (node index).
    pub a: u32,
    /// Second endpoint (node index).
    pub b: u32,
}

impl Link {
    /// Canonicalised link (endpoints sorted).
    #[must_use]
    pub fn new(a: u32, b: u32) -> Self {
        if a <= b {
            Self { a, b }
        } else {
            Self { a: b, b: a }
        }
    }
}

/// Undirected multigraph-free gate graph with per-node gate types.
///
/// Deserialising checks the adjacency (see [`Csr`]) and that both
/// per-node vectors have one plain encoded gate per node.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CircuitGraph {
    /// For each node, the originating gate in the locked netlist.
    pub gate_of_node: Vec<GateId>,
    /// Per-node gate type (always one of [`GateType::ENCODED`]).
    pub gate_types: Vec<GateType>,
    /// Flat CSR adjacency (sorted, deduplicated neighbour runs).
    pub adj: Csr,
}

impl Deserialize for CircuitGraph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let graph = Self {
            gate_of_node: Vec::from_value(map_get(v, "gate_of_node")?)?,
            gate_types: Vec::from_value(map_get(v, "gate_types")?)?,
            adj: Csr::from_value(map_get(v, "adj")?)?,
        };
        let n = graph.node_count();
        for (field, len) in [
            ("gate_of_node", graph.gate_of_node.len()),
            ("gate_types", graph.gate_types.len()),
        ] {
            if len != n {
                return Err(DeError(format!(
                    "graph `{field}` holds {len} entries for {n} nodes"
                )));
            }
        }
        if let Some((i, ty)) = graph
            .gate_types
            .iter()
            .enumerate()
            .find(|(_, ty)| ty.encoding_index().is_none())
        {
            return Err(DeError(format!(
                "graph `gate_types[{i}]` is {ty}, not an encoded gate type"
            )));
        }
        Ok(graph)
    }
}

impl CircuitGraph {
    /// Number of nodes (gates).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.node_count()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.edge_count()
    }

    /// Whether an edge between `a` and `b` is present.
    #[must_use]
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj.contains_edge(a, b)
    }

    /// All edges as canonical [`Link`]s, sorted.
    #[must_use]
    pub fn edges(&self) -> Vec<Link> {
        let mut out = Vec::with_capacity(self.edge_count());
        for (a, nbrs) in self.adj.iter().enumerate() {
            for &b in nbrs {
                if (a as u32) < b {
                    out.push(Link::new(a as u32, b));
                }
            }
        }
        out
    }

    /// Builds a graph from an edge list (deduplicated, self-loops dropped).
    ///
    /// Both directions of every edge are bucketed by source node in one
    /// counting pass, then each node's run is sorted and deduplicated —
    /// linear in the edges plus the (short) per-node sorts.
    ///
    /// # Panics
    ///
    /// Panics when the per-node vectors differ in length or an endpoint
    /// is not a node.
    #[must_use]
    pub fn from_edges(
        gate_of_node: Vec<GateId>,
        gate_types: Vec<GateType>,
        edges: &[Link],
    ) -> Self {
        let n = gate_of_node.len();
        assert_eq!(n, gate_types.len());
        let edges = || edges.iter().filter(|l| l.a != l.b);
        let mut starts = vec![0usize; n + 1];
        for l in edges() {
            starts[l.a as usize + 1] += 1;
            starts[l.b as usize + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut fill = starts.clone();
        let mut bucketed = vec![0u32; starts[n]];
        for l in edges() {
            for (from, to) in [(l.a, l.b), (l.b, l.a)] {
                bucketed[fill[from as usize]] = to;
                fill[from as usize] += 1;
            }
        }
        let mut adj = CsrBuilder::with_capacity(n, bucketed.len());
        for w in starts.windows(2) {
            adj.push_node(bucketed[w[0]..w[1]].iter().copied());
        }
        Self {
            gate_of_node,
            gate_types,
            adj: adj.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CircuitGraph {
        CircuitGraph::from_edges(
            vec![
                GateId::from_index(0),
                GateId::from_index(1),
                GateId::from_index(2),
            ],
            vec![GateType::And, GateType::Or, GateType::Not],
            &[Link::new(0, 1), Link::new(1, 2)],
        )
    }

    #[test]
    fn link_canonicalisation() {
        assert_eq!(Link::new(5, 2), Link::new(2, 5));
        assert_eq!(Link::new(2, 5).a, 2);
    }

    #[test]
    fn edge_queries() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edges(), vec![Link::new(0, 1), Link::new(1, 2)]);
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let g = CircuitGraph::from_edges(
            vec![GateId::from_index(0), GateId::from_index(1)],
            vec![GateType::And, GateType::Or],
            &[Link::new(0, 1), Link::new(1, 0), Link::new(0, 0)],
        );
        assert_eq!(g.edge_count(), 1);
    }

    /// The bucketed build equals per-node lists normalised by
    /// `Csr::from_lists`, on random edge lists with repeats, reversed
    /// duplicates, self-loops and isolated nodes.
    #[test]
    fn from_edges_matches_normalised_lists() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(1..40usize);
            let edges: Vec<Link> = (0..rng.gen_range(0..3 * n))
                .map(|_| Link::new(rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();
            let mut lists = vec![Vec::new(); n];
            for l in edges.iter().filter(|l| l.a != l.b) {
                lists[l.a as usize].push(l.b);
                lists[l.b as usize].push(l.a);
            }
            let g = CircuitGraph::from_edges(
                (0..n).map(GateId::from_index).collect(),
                vec![GateType::And; n],
                &edges,
            );
            assert_eq!(g.adj, Csr::from_lists(&lists));
        }
    }
}
