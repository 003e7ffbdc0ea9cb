//! Property-based tests over the core data structures and invariants.

use std::collections::HashMap;

use muxlink_graph::drnl::{drnl_label, UNREACHABLE};
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_integration_tests::subgraph_oracle::{
    bfs_without, compute_labels, enclosing_subgraph_ref,
};
use muxlink_locking::{Key, KeyValue};
use muxlink_netlist::{bench_format, GateId, GateType};
use proptest::prelude::*;

/// Arbitrary small undirected graph as an edge list over `n` nodes.
fn arb_graph() -> impl Strategy<Value = CircuitGraph> {
    (3usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 2);
        edges.prop_map(move |pairs| {
            let links: Vec<Link> = pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Link::new(a, b))
                .collect();
            CircuitGraph::from_edges(
                (0..n).map(GateId::from_index).collect(),
                vec![GateType::Nand; n],
                &links,
            )
        })
    })
}

/// Arbitrary synthetic netlist parameters.
fn arb_netlist_cfg() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (2usize..12, 1usize..6, 8usize..120, 0u64..1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn drnl_formula_bounds(df in 0u32..64, dg in 0u32..64) {
        let l = drnl_label(df, dg);
        // Labels are positive for reachable pairs and grow with distance.
        prop_assert!(l >= 1);
        prop_assert!(l <= 1 + df.min(dg) + (df + dg) * (df + dg));
    }

    #[test]
    fn drnl_is_symmetric(df in 0u32..64, dg in 0u32..64) {
        prop_assert_eq!(drnl_label(df, dg), drnl_label(dg, df));
    }

    #[test]
    fn drnl_unreachable_is_zero(d in 0u32..64) {
        prop_assert_eq!(drnl_label(UNREACHABLE, d), 0);
        prop_assert_eq!(drnl_label(d, UNREACHABLE), 0);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_steps(g in arb_graph()) {
        // Along any edge, BFS distances differ by at most 1.
        let dist = bfs_without(&g.adj, 0, u32::MAX);
        for (u, nbrs) in g.adj.iter().enumerate() {
            for &v in nbrs {
                let (du, dv) = (dist[u], dist[v as usize]);
                if du != UNREACHABLE && dv != UNREACHABLE {
                    prop_assert!(du.abs_diff(dv) <= 1);
                }
            }
        }
    }

    #[test]
    fn subgraph_invariants(g in arb_graph(), h in 1usize..4) {
        let n = g.node_count() as u32;
        let link = Link::new(0, n - 1);
        let sg = enclosing_subgraph_ref(&g, link, h, None);
        // Targets present and labelled 1.
        let (lf, lg) = sg.target;
        prop_assert_eq!(sg.nodes[lf as usize], link.a);
        prop_assert_eq!(sg.nodes[lg as usize], link.b);
        prop_assert_eq!(sg.labels[lf as usize], 1);
        prop_assert_eq!(sg.labels[lg as usize], 1);
        // No direct target edge; adjacency is symmetric and in-range.
        prop_assert!(!sg.adj.contains_edge(lf, lg));
        for (i, nbrs) in sg.adj.iter().enumerate() {
            for &j in nbrs {
                prop_assert!((j as usize) < sg.node_count());
                prop_assert!(sg.adj.contains_edge(j, i as u32));
            }
        }
        // Every subgraph edge exists in the parent graph.
        for (i, nbrs) in sg.adj.iter().enumerate() {
            for &j in nbrs {
                prop_assert!(g.has_edge(sg.nodes[i], sg.nodes[j as usize]));
            }
        }
        // Labels are consistent with an independent recomputation.
        let expect = compute_labels(&sg.adj, lf, lg);
        prop_assert_eq!(&sg.labels, &expect);
    }

    #[test]
    fn synthetic_netlists_validate_and_roundtrip((ins, outs, gates, seed) in arb_netlist_cfg()) {
        let cfg = muxlink_benchgen::synth::SynthConfig::new("p", ins, outs, gates);
        let n = cfg.generate(seed);
        prop_assert!(n.validate().is_ok());
        let text = bench_format::write(&n).unwrap();
        let back = bench_format::parse("p2", &text).unwrap();
        prop_assert_eq!(back.gate_count(), n.gate_count());
        prop_assert!(muxlink_netlist::sim::hamming_distance(&n, &back, 512, 0)
            .unwrap().bits_differing == 0);
    }

    #[test]
    fn resynthesis_preserves_cofactor_function(
        (ins, outs, gates, seed) in arb_netlist_cfg(),
        tie_first in proptest::bool::ANY,
        tie_value in proptest::bool::ANY,
    ) {
        let cfg = muxlink_benchgen::synth::SynthConfig::new("p", ins, outs, gates);
        let n = cfg.generate(seed);
        let mut constants = HashMap::new();
        if tie_first {
            let name = n.net(n.inputs()[0]).name().to_owned();
            constants.insert(name, tie_value);
        }
        let r = muxlink_netlist::opt::resynthesize(&n, &constants).unwrap();
        prop_assert!(r.validate().is_ok());
        // Simulate both with matching assignments and compare outputs.
        let sim_n = muxlink_netlist::sim::Simulator::new(&n).unwrap();
        let sim_r = muxlink_netlist::sim::Simulator::new(&r).unwrap();
        let mut rngwords: Vec<u64> = (0..n.inputs().len())
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + seed + 1))
            .collect();
        if tie_first {
            rngwords[0] = if tie_value { !0 } else { 0 };
        }
        let out_n = sim_n.run_words(&rngwords);
        // r's inputs are a subset (tied input removed when constant).
        let words_r: Vec<u64> = r.inputs().iter().map(|&ri| {
            let name = r.net(ri).name();
            let pos = n.inputs().iter().position(|&ni| n.net(ni).name() == name).unwrap();
            rngwords[pos]
        }).collect();
        let out_r = sim_r.run_words(&words_r);
        for (oi, &no) in n.outputs().iter().enumerate() {
            let name = n.net(no).name();
            let rpos = r.outputs().iter().position(|&ro| r.net(ro).name() == name).unwrap();
            prop_assert_eq!(out_n[oi], out_r[rpos], "output {} differs", name);
        }
    }

    #[test]
    fn key_metric_identities(bits in proptest::collection::vec(proptest::bool::ANY, 1..64),
                             xs in proptest::collection::vec(0usize..64, 0..16)) {
        let key = Key::from_bits(bits.clone());
        let mut guess: Vec<KeyValue> = key.to_values();
        for &x in &xs {
            if x < guess.len() {
                guess[x] = KeyValue::X;
            }
        }
        let m = muxlink_core::metrics::score_key(&guess, &key);
        // With only correct-or-X guesses: PC = 1, AC = decided fraction.
        prop_assert!((m.precision() - 1.0).abs() < 1e-12);
        prop_assert!(m.accuracy() <= 1.0);
        if let Some(kpa) = m.kpa() {
            prop_assert!((kpa - 1.0).abs() < 1e-12);
        }
        prop_assert_eq!(m.correct + m.x_count, m.total);
    }

    #[test]
    fn gate_eval_involution_and_de_morgan(a in proptest::num::u64::ANY, b in proptest::num::u64::ANY) {
        use muxlink_netlist::GateType as G;
        // NAND = NOT ∘ AND; NOR = NOT ∘ OR; XNOR = NOT ∘ XOR.
        prop_assert_eq!(G::Nand.eval_words(&[a, b]), !G::And.eval_words(&[a, b]));
        prop_assert_eq!(G::Nor.eval_words(&[a, b]), !G::Or.eval_words(&[a, b]));
        prop_assert_eq!(G::Xnor.eval_words(&[a, b]), !G::Xor.eval_words(&[a, b]));
        // De Morgan.
        prop_assert_eq!(
            G::Nand.eval_words(&[a, b]),
            G::Or.eval_words(&[!a, !b])
        );
    }
}

/// Injects fault `kind` at key MUX `pick` of `locked` (kind 0 leaves the
/// design intact) and returns the netlist and key-input names to
/// extract from.
fn with_fault(
    locked: &muxlink_locking::LockedNetlist,
    kind: usize,
    pick: usize,
) -> (muxlink_netlist::Netlist, Vec<String>) {
    let mut netlist = locked.netlist.clone();
    let mut names = locked.key_input_names();
    let muxes = locked.mux_instances();
    let m = muxes[pick % muxes.len()];
    let other = muxes[(pick + 1) % muxes.len()];
    let out = netlist.gate(m.gate).output();
    let fresh = netlist.fresh_net_name("fault");
    match kind {
        0 => {}
        // A data input driven by a primary input.
        1 => {
            let pi = netlist
                .inputs()
                .iter()
                .copied()
                .find(|&n| !netlist.net(n).name().starts_with("keyinput"))
                .unwrap();
            netlist.rewire_input(m.gate, m.in0, pi).unwrap();
        }
        // A data input driven by another key MUX.
        2 => {
            let other_out = netlist.gate(other.gate).output();
            netlist.rewire_input(m.gate, m.in1, other_out).unwrap();
        }
        // A second ordinary reader of the MUX output.
        3 => {
            netlist.add_gate(fresh, GateType::Buf, &[out]).unwrap();
        }
        // No reader: the sink takes the data input directly.
        4 => {
            netlist.rewire_input(m.sink, out, m.in0).unwrap();
        }
        // A key input feeding an ordinary gate.
        5 => {
            let key = netlist.find_net(&names[m.key_bit]).unwrap();
            netlist.add_gate(fresh, GateType::Not, &[key]).unwrap();
        }
        // A key input name the netlist does not have.
        _ => names.push("no_such_key_input".to_owned()),
    }
    (netlist, names)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dense-index extractor equals the hashed one it replaced
    /// (`extract_oracle`) on D-MUX, symmetric and naive-MUX locked
    /// designs, intact or with one injected fault: the same design on
    /// success, the same error variant on failure.
    #[test]
    fn extract_matches_hashed_oracle(
        (scheme, gates, key_size, seed) in (0usize..3, 120usize..320, 2usize..12, 0u64..1_000),
        (kind, pick) in (0usize..7, 0usize..64),
    ) {
        use muxlink_locking::{dmux, naive_mux, symmetric, LockOptions};
        let design = muxlink_benchgen::synth::SynthConfig::new("x", 12, 6, gates).generate(seed);
        let opts = LockOptions::new(key_size, seed);
        let locked = match scheme {
            0 => dmux::lock(&design, &opts),
            1 => symmetric::lock(&design, &opts),
            _ => naive_mux::lock(&design, &opts),
        };
        // A design with too few sites for the key is not a case.
        let Ok(locked) = locked else { return };
        let (netlist, names) = with_fault(&locked, kind, pick);
        let got = muxlink_graph::extract::extract(&netlist, &names);
        let want = muxlink_integration_tests::extract_oracle::extract_with_hash_maps(&netlist, &names);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(&got.muxes, &want.muxes);
                prop_assert_eq!(&got.graph.gate_of_node, &want.graph.gate_of_node);
                prop_assert_eq!(&got.graph.gate_types, &want.graph.gate_types);
                prop_assert_eq!(&got.graph.adj, &want.graph.adj);
                prop_assert!(kind == 0, "fault {} went unnoticed", kind);
            }
            (Err(got), Err(want)) => {
                prop_assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(&want));
                prop_assert!(kind != 0, "intact design failed: {}", got);
            }
            (got, want) => prop_assert!(false, "fault {}: {:?} vs {:?}", kind, got.err(), want.err()),
        }
    }
}
