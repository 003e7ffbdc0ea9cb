//! Hand-crafted link-prediction heuristics (the pre-GNN state of the art
//! the SEAL paper — MuxLink's methodological basis — improves upon).
//!
//! These serve two purposes in this reproduction:
//!
//! * an **ablation baseline**: how much of MuxLink's power comes from
//!   learned structure versus plain proximity (`ablation_heuristics`
//!   bench binary);
//! * fast sanity probes during development (a heuristic that cannot beat
//!   a coin flip indicates a benchmark-generator realism problem).
//!
//! All scores are "higher ⇒ more likely a true wire".

use std::collections::VecDeque;

use crate::graph::{CircuitGraph, Link};

/// The heuristic families implemented here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Number of shared neighbours.
    CommonNeighbors,
    /// Common neighbours over union of neighbourhoods.
    Jaccard,
    /// Adamic–Adar: Σ 1/log(deg(z)) over shared neighbours z.
    AdamicAdar,
    /// Resource allocation: Σ 1/deg(z) over shared neighbours z.
    ResourceAllocation,
    /// Preferential attachment: deg(a)·deg(b).
    PreferentialAttachment,
    /// Inverse shortest-path distance (0 when disconnected).
    InverseDistance,
}

impl Heuristic {
    /// All heuristics, for sweep-style evaluation.
    pub const ALL: [Heuristic; 6] = [
        Heuristic::CommonNeighbors,
        Heuristic::Jaccard,
        Heuristic::AdamicAdar,
        Heuristic::ResourceAllocation,
        Heuristic::PreferentialAttachment,
        Heuristic::InverseDistance,
    ];

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::CommonNeighbors => "CN",
            Heuristic::Jaccard => "Jaccard",
            Heuristic::AdamicAdar => "AA",
            Heuristic::ResourceAllocation => "RA",
            Heuristic::PreferentialAttachment => "PA",
            Heuristic::InverseDistance => "1/dist",
        }
    }

    /// Scores a candidate link on `graph`. The direct edge between the
    /// endpoints — if observed — is ignored, mirroring the enclosing
    /// subgraph convention (never let the answer leak into the score).
    #[must_use]
    pub fn score(self, graph: &CircuitGraph, link: Link) -> f64 {
        let (a, b) = (link.a, link.b);
        match self {
            Heuristic::CommonNeighbors => common(graph, a, b).len() as f64,
            Heuristic::Jaccard => {
                let c = common(graph, a, b).len() as f64;
                let union = graph.adj.degree(a as usize) + graph.adj.degree(b as usize);
                // Union counts shared nodes twice; never count the target
                // edge endpoints themselves.
                let u = union as f64 - c;
                if u <= 0.0 {
                    0.0
                } else {
                    c / u
                }
            }
            Heuristic::AdamicAdar => common(graph, a, b)
                .iter()
                .map(|&z| {
                    let d = graph.adj.degree(z as usize) as f64;
                    if d > 1.0 {
                        1.0 / d.ln()
                    } else {
                        0.0
                    }
                })
                .sum(),
            Heuristic::ResourceAllocation => common(graph, a, b)
                .iter()
                .map(|&z| {
                    let d = graph.adj.degree(z as usize) as f64;
                    if d > 0.0 {
                        1.0 / d
                    } else {
                        0.0
                    }
                })
                .sum(),
            Heuristic::PreferentialAttachment => {
                (graph.adj.degree(a as usize) * graph.adj.degree(b as usize)) as f64
            }
            Heuristic::InverseDistance => match distance_skipping_edge(graph, a, b) {
                Some(d) if d > 0 => 1.0 / d as f64,
                _ => 0.0,
            },
        }
    }
}

/// Shared neighbours of `a` and `b` (sorted adjacency intersection).
fn common(graph: &CircuitGraph, a: u32, b: u32) -> Vec<u32> {
    let (la, lb) = (
        graph.adj.neighbors(a as usize),
        graph.adj.neighbors(b as usize),
    );
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < la.len() && j < lb.len() {
        match la[i].cmp(&lb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(la[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// BFS distance from `a` to `b`, never traversing the direct edge (a, b).
fn distance_skipping_edge(graph: &CircuitGraph, a: u32, b: u32) -> Option<usize> {
    let mut dist = vec![usize::MAX; graph.node_count()];
    let mut q = VecDeque::new();
    dist[a as usize] = 0;
    q.push_back(a);
    while let Some(u) = q.pop_front() {
        for &v in graph.adj.neighbors(u as usize) {
            if (u == a && v == b) || (u == b && v == a) {
                continue;
            }
            if dist[v as usize] == usize::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                if v == b {
                    return Some(dist[v as usize]);
                }
                q.push_back(v);
            }
        }
    }
    if dist[b as usize] == usize::MAX {
        None
    } else {
        Some(dist[b as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_netlist::{GateId, GateType};

    /// Area under the ROC curve of `scores` against boolean labels — the
    /// standard link-prediction quality metric (0.5 = random, 1.0 = perfect).
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length.
    #[must_use]
    fn auc(scores: &[f64], labels: &[bool]) -> f64 {
        assert_eq!(scores.len(), labels.len());
        let mut pairs: Vec<(f64, bool)> =
            scores.iter().copied().zip(labels.iter().copied()).collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
        // Rank-sum (Mann–Whitney) with tie handling by average rank.
        let n = pairs.len();
        let mut rank_sum_pos = 0.0f64;
        let (mut pos, mut neg) = (0usize, 0usize);
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && pairs[j + 1].0 == pairs[i].0 {
                j += 1;
            }
            let avg_rank = (i + j) as f64 / 2.0 + 1.0;
            for p in pairs.iter().take(j + 1).skip(i) {
                if p.1 {
                    rank_sum_pos += avg_rank;
                    pos += 1;
                } else {
                    neg += 1;
                }
            }
            i = j + 1;
        }
        if pos == 0 || neg == 0 {
            return 0.5;
        }
        (rank_sum_pos - (pos * (pos + 1)) as f64 / 2.0) / (pos as f64 * neg as f64)
    }

    /// Two triangles sharing node 2, plus a pendant node 5.
    fn graph() -> CircuitGraph {
        CircuitGraph::from_edges(
            (0..6).map(GateId::from_index).collect(),
            vec![GateType::And; 6],
            &[
                Link::new(0, 1),
                Link::new(1, 2),
                Link::new(0, 2),
                Link::new(2, 3),
                Link::new(3, 4),
                Link::new(2, 4),
                Link::new(4, 5),
            ],
        )
    }

    #[test]
    fn common_neighbors_counts_shared() {
        let g = graph();
        assert_eq!(
            Heuristic::CommonNeighbors.score(&g, Link::new(0, 1)),
            1.0 // node 2
        );
        assert_eq!(Heuristic::CommonNeighbors.score(&g, Link::new(0, 5)), 0.0);
    }

    #[test]
    fn jaccard_is_normalised() {
        let g = graph();
        let j = Heuristic::Jaccard.score(&g, Link::new(0, 1));
        assert!(j > 0.0 && j <= 1.0);
        assert_eq!(Heuristic::Jaccard.score(&g, Link::new(0, 5)), 0.0);
    }

    #[test]
    fn adamic_adar_weights_low_degree_higher() {
        let g = graph();
        // (1,3) share high-degree node 2; (3,5) share node 4 (degree 3).
        let via_hub = Heuristic::AdamicAdar.score(&g, Link::new(1, 3));
        let via_small = Heuristic::AdamicAdar.score(&g, Link::new(3, 5));
        assert!(via_small > via_hub);
    }

    #[test]
    fn inverse_distance_skips_direct_edge() {
        let g = graph();
        // (0,1) are adjacent but also connected via 2 → residual dist 2.
        assert_eq!(Heuristic::InverseDistance.score(&g, Link::new(0, 1)), 0.5);
        // (4,5): removing the direct edge disconnects 5 entirely.
        assert_eq!(Heuristic::InverseDistance.score(&g, Link::new(4, 5)), 0.0);
    }

    #[test]
    fn preferential_attachment_multiplies_degrees() {
        let g = graph();
        assert_eq!(
            Heuristic::PreferentialAttachment.score(&g, Link::new(2, 4)),
            (4 * 3) as f64
        );
    }

    #[test]
    fn auc_perfect_and_random() {
        assert_eq!(auc(&[0.1, 0.9, 0.2, 0.8], &[false, true, false, true]), 1.0);
        assert_eq!(auc(&[0.9, 0.1, 0.8, 0.2], &[false, true, false, true]), 0.0);
        // All ties → 0.5 by average-rank handling.
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &[false, true, false, true]), 0.5);
    }

    #[test]
    fn heuristics_separate_wires_on_synthetic_circuits() {
        // On a realistic reconvergent netlist, at least one heuristic must
        // reach AUC well above 0.5 on held-out wires — the premise that
        // makes the benchmark substitution sound.
        use muxlink_locking::{dmux, LockOptions};
        let design = muxlink_benchgen::synth::SynthConfig::new("h", 16, 8, 400).generate(3);
        let locked = dmux::lock(&design, &LockOptions::new(8, 1)).unwrap();
        let ex = crate::extract(&locked.netlist, &locked.key_input_names()).unwrap();
        let targets: std::collections::HashSet<Link> = ex.target_links().into_iter().collect();
        let sampling = crate::sampling::sample_links(&ex.graph, &targets, 400, 7);
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for (links, label) in [(&sampling.positives, true), (&sampling.negatives, false)] {
            for &l in links {
                scores.push(Heuristic::ResourceAllocation.score(&ex.graph, l));
                labels.push(label);
            }
        }
        let a = auc(&scores, &labels);
        assert!(a > 0.65, "RA AUC should beat random, got {a}");
    }
}
