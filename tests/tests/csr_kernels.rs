//! Property tests pinning the CSR data layer to its executable
//! specification: the flat-CSR propagation kernels must be **exactly**
//! equal (bit-for-bit on every entry) to the retained adjacency-list
//! reference implementations, and [`Csr`] must round-trip normalised
//! adjacency lists losslessly.

use muxlink_gnn::matrix::seeded_rng;
use muxlink_gnn::sample::{propagate, propagate_back, propagate_back_into, propagate_into};
use muxlink_gnn::{Csr, Matrix};
use muxlink_integration_tests::reference::{propagate_back_ref, propagate_ref};
use proptest::prelude::*;

/// Random undirected graph as normalised (sorted, deduplicated)
/// adjacency lists over 2–31 nodes.
fn arb_lists() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (2usize..32).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3).prop_map(move |pairs| {
            let mut lists = vec![Vec::new(); n];
            for (a, b) in pairs {
                if a != b {
                    lists[a as usize].push(b);
                    lists[b as usize].push(a);
                }
            }
            for l in &mut lists {
                l.sort_unstable();
                l.dedup();
            }
            lists
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_round_trips_adjacency_lists(lists in arb_lists()) {
        let csr = Csr::from_lists(&lists);
        prop_assert_eq!(csr.node_count(), lists.len());
        prop_assert_eq!(csr.to_lists(), lists.clone());
        prop_assert_eq!(
            csr.entry_count(),
            lists.iter().map(Vec::len).sum::<usize>()
        );
        for (i, row) in lists.iter().enumerate() {
            prop_assert_eq!(csr.neighbors(i), &row[..]);
            prop_assert_eq!(csr.degree(i), row.len());
            let expect = 1.0f32 / (1.0 + row.len() as f32);
            prop_assert_eq!(csr.scale(i).to_bits(), expect.to_bits());
            for &j in row {
                prop_assert!(csr.contains_edge(i as u32, j));
            }
        }
    }

    #[test]
    fn propagate_kernels_equal_reference_exactly(
        lists in arb_lists(),
        seed in 0u64..1000,
        cols in 1usize..9,
    ) {
        let csr = Csr::from_lists(&lists);
        let mut rng = seeded_rng(seed);
        let h = Matrix::glorot(lists.len(), cols, &mut rng);

        let fwd = propagate(&csr, &h);
        let fwd_ref = propagate_ref(&lists, &h);
        for (a, b) in fwd.data().iter().zip(fwd_ref.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "propagate diverged from reference");
        }

        let bwd = propagate_back(&csr, &h);
        let bwd_ref = propagate_back_ref(&lists, &h);
        for (a, b) in bwd.data().iter().zip(bwd_ref.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "propagate_back diverged from reference");
        }

        // The `_into` variants over a dirty reused buffer: same bits again.
        let mut buf = Matrix::from_vec(1, 1, vec![42.0]);
        propagate_into(&csr, &h, &mut buf);
        prop_assert_eq!(&buf, &fwd);
        propagate_back_into(&csr, &h, &mut buf);
        prop_assert_eq!(&buf, &bwd);
    }
}

#[test]
fn csr_kernels_match_reference_bitwise() {
    let lists = vec![vec![1, 2, 4], vec![0, 3], vec![0], vec![1, 4], vec![0, 3]];
    let adj = Csr::from_lists(&lists);
    let mut rng = seeded_rng(11);
    let h = Matrix::glorot(5, 7, &mut rng);
    assert_eq!(propagate(&adj, &h), propagate_ref(&lists, &h));
    assert_eq!(propagate_back(&adj, &h), propagate_back_ref(&lists, &h));
}
