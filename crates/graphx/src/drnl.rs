//! Double-radius node labeling (DRNL) — Zhang & Chen, NeurIPS 2018,
//! Eq. (3) of the MuxLink paper.
//!
//! Each subgraph node is tagged with a label derived from its distances to
//! the two target nodes, letting the GNN distinguish structural roles
//! relative to the link under consideration.

use std::collections::VecDeque;

use crate::csr::CsrView;
use crate::scratch::StampedMap;

/// Distance value for "no path".
pub const UNREACHABLE: u32 = u32::MAX;

/// The DRNL label for a node at distances `df`/`dg` from the two targets:
///
/// `fl(j) = 1 + min(df, dg) + (d/2)·[(d/2) + (d%2) − 1]` with `d = df+dg`.
///
/// Nodes that reach only one target (either distance [`UNREACHABLE`]) get
/// label 0; the target nodes themselves are labelled 1 (handled by the
/// caller passing `df = dg = 0` ⇒ formula yields 1).
#[must_use]
pub fn drnl_label(df: u32, dg: u32) -> u32 {
    if df == UNREACHABLE || dg == UNREACHABLE {
        return 0;
    }
    let d = df + dg;
    let half = d / 2;
    let rem = d % 2;
    // half·(half + rem − 1) computed without u32 underflow at d = 0.
    1 + df.min(dg) + (half * (half + rem)).saturating_sub(half)
}

/// BFS distances from `source` over a CSR adjacency, with the node
/// `removed` treated as absent (the "double radius" convention: distances
/// to one target are measured with the other target removed), into an
/// epoch-stamped scratch map — an unreached node is simply absent from
/// `dist`, and nothing is allocated per call.
pub(crate) fn distances_without(
    adj: CsrView<'_>,
    source: u32,
    removed: u32,
    dist: &mut StampedMap,
    queue: &mut VecDeque<u32>,
) {
    dist.begin(adj.node_count());
    if source == removed {
        return;
    }
    queue.clear();
    dist.insert(source, 0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist.get(u).expect("queued nodes have distances");
        for &v in adj.neighbors(u as usize) {
            if v == removed || dist.contains(v) {
                continue;
            }
            dist.insert(v, du + 1);
            queue.push_back(v);
        }
    }
}

/// Appends the DRNL label of every node of a subgraph whose targets are
/// the local nodes `f` and `g` (targets are labelled 1) to `out` — the
/// sample arena labels straight into its slab this way, with no
/// intermediate allocation at all.
pub(crate) fn drnl_labels_into(
    adj: CsrView<'_>,
    f: u32,
    g: u32,
    df: &mut StampedMap,
    dg: &mut StampedMap,
    queue: &mut VecDeque<u32>,
    out: &mut Vec<u32>,
) {
    distances_without(adj, f, g, df, queue);
    distances_without(adj, g, f, dg, queue);
    out.extend((0..adj.node_count() as u32).map(|j| {
        if j == f || j == g {
            1
        } else {
            drnl_label(
                df.get(j).unwrap_or(UNREACHABLE),
                dg.get(j).unwrap_or(UNREACHABLE),
            )
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_matches_paper_examples() {
        // Eq. (3): fl = 1 + min + (d/2)(d/2 + d%2 - 1).
        assert_eq!(drnl_label(0, 0), 1); // target-adjacent base case
        assert_eq!(drnl_label(1, 1), 2); // d=2, half=1, rem=0 -> 1+1+0 = 2
        assert_eq!(drnl_label(1, 2), 3); // d=3, half=1, rem=1 -> 1+1+1 = 3
        assert_eq!(drnl_label(2, 2), 5); // d=4, half=2 -> 1+2+2 = 5
        assert_eq!(drnl_label(1, 3), 4); // d=4 -> 1+1+2 = 4
        assert_eq!(drnl_label(2, 3), 7); // d=5, half=2, rem=1 -> 1+2+4 = 7
    }

    #[test]
    fn labels_injective_on_small_distance_pairs() {
        // DRNL's point: (df, dg) multisets map to distinct labels.
        let mut seen = std::collections::HashMap::new();
        for df in 1..8u32 {
            for dg in df..8u32 {
                let l = drnl_label(df, dg);
                if let Some(prev) = seen.insert(l, (df, dg)) {
                    panic!("label {l} collides: {prev:?} vs {:?}", (df, dg));
                }
            }
        }
    }

    #[test]
    fn unreachable_gets_zero() {
        assert_eq!(drnl_label(UNREACHABLE, 3), 0);
        assert_eq!(drnl_label(2, UNREACHABLE), 0);
    }
}
