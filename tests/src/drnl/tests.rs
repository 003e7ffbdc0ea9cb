//! The DRNL distance oracles.

use muxlink_graph::drnl::{drnl_label, UNREACHABLE};
use muxlink_graph::Csr;

use crate::subgraph_oracle::{bfs_without, compute_labels};

#[test]
fn bfs_respects_removed_node() {
    // Path 0-1-2-3; removing node 1 disconnects 0 from the rest.
    let adj = Csr::from_lists(&[vec![1], vec![0, 2], vec![1, 3], vec![2]]);
    let d = bfs_without(&adj, 0, 1);
    assert_eq!(d[0], 0);
    assert_eq!(d[2], UNREACHABLE);
    assert_eq!(d[3], UNREACHABLE);
    let d_full = bfs_without(&adj, 0, u32::MAX);
    assert_eq!(d_full[3], 3);
}

#[test]
fn compute_labels_on_path() {
    // f=0, g=3 on a path 0-1-2-3: node 1 has df=1 (g removed), dg=2
    // (f removed)... but removing f disconnects 1 from g? No: 1-2-3
    // remains. df(1)=1, dg(1)=2 -> label 1+1+1=3 (d=3).
    let adj = Csr::from_lists(&[vec![1], vec![0, 2], vec![1, 3], vec![2]]);
    let labels = compute_labels(&adj, 0, 3);
    assert_eq!(labels[0], 1);
    assert_eq!(labels[3], 1);
    assert_eq!(labels[1], drnl_label(1, 2));
    assert_eq!(labels[2], drnl_label(2, 1));
}

#[test]
fn isolated_node_gets_zero() {
    let adj = Csr::from_lists(&[vec![1], vec![0], vec![]]);
    let labels = compute_labels(&adj, 0, 1);
    assert_eq!(labels[2], 0);
}
