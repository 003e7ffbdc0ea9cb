//! Property tests pinning the sparse one-hot feature pipeline to its
//! dense executable specification.
//!
//! Numerics policy (see the README "Data layer" section): the first GC
//! layer runs over the sparse plan rows of `S·X`, and reproduces the
//! dense `(S·X)·W₀` of the per-sample reference model (which expands
//! the two-hot features to a dense `X`) **bit for bit**. Everything
//! structural is exact too: the one-hot ↔ dense round trip, and the
//! arena's hash-free link and node samples versus the `HashMap`
//! extraction oracles (adjacency, scales, gate columns and raw labels
//! bit-identical).

use muxlink_gnn::matrix::seeded_rng;
use muxlink_gnn::{
    BatchWorkspace, Dgcnn, DgcnnConfig, Gradients, GraphSample, Minibatch, OneHotFeatures,
};
use muxlink_graph::features::feature_cols;
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_graph::{Csr, SampleArena};
use muxlink_integration_tests::reference::Reference;
use muxlink_integration_tests::subgraph_oracle::{
    enclosing_subgraph_ref, node_subgraph, SampleBits,
};
use muxlink_netlist::{GateId, GateType, GATE_TYPE_COUNT};
use proptest::prelude::*;

/// Random undirected adjacency lists over 2–31 nodes (normalised).
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

/// Deterministic two-hot features for `n` nodes with `labels` label
/// buckets, varied by `seed`.
fn seeded_onehot(n: usize, labels: u32, seed: u64) -> OneHotFeatures {
    let gate = (0..n)
        .map(|i| ((i as u64 * 5 + seed) % GATE_TYPE_COUNT as u64) as u32)
        .collect();
    let label = (0..n)
        .map(|i| ((i as u64 * 3 + seed) % u64::from(labels)) as u32)
        .collect();
    OneHotFeatures::new(feature_cols(labels - 1), gate, label)
}

/// Random circuit graph from random undirected pairs, gate types
/// cycling through every encoded type.
fn arb_circuit() -> impl Strategy<Value = CircuitGraph> {
    (4usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), n..n * 3).prop_map(move |pairs| {
            let links: Vec<Link> = pairs
                .into_iter()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| Link::new(a, b))
                .collect();
            CircuitGraph::from_edges(
                (0..n).map(GateId::from_index).collect(),
                (0..n)
                    .map(|i| GateType::ENCODED[i % GATE_TYPE_COUNT])
                    .collect(),
                &links,
            )
        })
    })
}

/// Dropout seed of [`train_step`].
const STEP_SEED: u64 = 5;

/// One production training step (`batch_train_step`) on a one-sample
/// minibatch with a fixed dropout seed: the loss bits and gradients.
fn train_step(model: &Dgcnn, s: &GraphSample) -> (u64, Gradients) {
    let mut mb = Minibatch::new();
    mb.assemble(std::slice::from_ref(s), &[(0, STEP_SEED)]);
    let mut ws = BatchWorkspace::new();
    let mut grads = model.new_gradients();
    model.batch_train_step(&mb, &mut ws, &mut grads);
    (ws.losses[0].to_bits(), grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `OneHotFeatures::to_dense` round trip: every row has exactly two
    /// ones (gate + label columns), everything else zero, and shapes
    /// follow the label budget.
    #[test]
    fn one_hot_to_dense_round_trips(
        n in 1usize..40,
        labels in 1u32..9,
        seed in 0u64..100,
    ) {
        let x = seeded_onehot(n, labels, seed);
        let dense = x.to_dense();
        prop_assert_eq!(dense.rows, n);
        prop_assert_eq!(dense.cols, x.cols);
        for i in 0..n {
            let (g, l) = x.columns(i);
            let row = &dense.data[i * dense.cols..(i + 1) * dense.cols];
            prop_assert_eq!(row.iter().filter(|&&v| v == 1.0).count(), 2);
            prop_assert_eq!(row.iter().filter(|&&v| v == 0.0).count(), dense.cols - 2);
            prop_assert_eq!(row[g], 1.0);
            prop_assert_eq!(row[l], 1.0);
        }
    }

    /// The production sparse path (plan rows of `S·X` times `W₀`) is
    /// **bit-identical** to the reference model's densified first
    /// layer: forward probabilities, the training loss and every
    /// gradient tensor — `dW₀` included; no `dX` exists on the sparse
    /// path.
    #[test]
    fn sparse_forward_backward_is_bit_identical_to_dense(
        lists in arb_lists(),
        labels in 2u32..6,
        model_seed in 0u64..50,
        feat_seed in 0u64..50,
        label_raw in 0u8..2,
    ) {
        let label_bit = label_raw == 1;
        let n = lists.len();
        let adj = Csr::from_lists(&lists);
        let x = seeded_onehot(n, labels, feat_seed);
        let cfg = DgcnnConfig {
            input_dim: feature_cols(labels - 1),
            gc_channels: vec![4, 1],
            conv1_channels: 3,
            conv2_channels: 2,
            conv2_kernel: 2,
            dense_dim: 4,
            dropout: 0.0,
            k: 4,
            seed: model_seed,
        };
        let model = Dgcnn::new(cfg);
        let sample = GraphSample {
            adj,
            features: x,
            label: Some(label_bit),
        };
        let dense = Reference::new(&model);
        let ps = model.predict_batch(std::slice::from_ref(&sample));
        let pd = dense.predict(&sample);
        prop_assert_eq!(ps[0].to_bits(), pd.to_bits(), "prob {} vs {}", ps[0], pd);
        let (ls, gs) = train_step(&model, &sample);
        let cache = dense.forward(&sample, Some(&mut seeded_rng(STEP_SEED)));
        let gd = dense.backward(&sample, &cache, label_bit);
        prop_assert_eq!(ls, f64::from(cache.loss(label_bit)).to_bits());
        prop_assert_eq!(gs, gd);
    }

    /// The arena's hash-free link samples are bit-identical to the
    /// `HashMap` link oracle — node count, adjacency, scale bits, gate
    /// columns, raw DRNL labels and `max_label` — for random graphs,
    /// links, hop counts and caps.
    #[test]
    fn stamped_extraction_equals_hash_reference(
        graph in arb_circuit(),
        a in 0u32..40,
        b in 0u32..40,
        h in 1usize..4,
        cap_raw in 0usize..13,
    ) {
        // cap < 2 encodes "no cap" (vendored proptest has no option::of).
        let cap = (cap_raw >= 2).then_some(cap_raw);
        let n = graph.node_count() as u32;
        // Avoid degenerate self-links (no option to assume them away in
        // the vendored proptest): bump b to a different node.
        let (a, b) = (a % n, b % n);
        let b = if a == b { (b + 1) % n } else { b };
        let link = Link::new(a, b);
        let mut arena = SampleArena::new();
        let fast = arena.extract_sample(&graph, link, h, cap, None);
        let slow = enclosing_subgraph_ref(&graph, link, h, cap);
        prop_assert_eq!(SampleBits::of_arena(&arena, fast), SampleBits::of_oracle(&slow));
        prop_assert_eq!(arena.max_label(), slow.max_label());
    }

    /// The arena's node samples are bit-identical to the `HashMap` node
    /// oracle — node count, adjacency, scale bits, gate columns, raw
    /// distance labels and `max_label` — for random graphs, every
    /// centre, h ∈ 0..=3 and caps none, 1, 2 and small.
    #[test]
    fn extract_node_sample_matches_node_subgraph_oracle(
        graph in arb_circuit(),
        h in 0usize..4,
        cap_raw in 0usize..8,
    ) {
        // 0 encodes "no cap"; 1, 2 and the rest are caps.
        let cap = (cap_raw > 0).then_some(cap_raw);
        // One arena over every centre: each sample's runs and the running
        // `max_label` must hold while the slabs fill.
        let mut arena = SampleArena::new();
        let mut max_label = 0;
        for center in 0..graph.node_count() as u32 {
            let fast = arena.extract_node_sample(&graph, center, h, cap, None);
            let slow = node_subgraph(&graph, center, h, cap);
            prop_assert_eq!(SampleBits::of_arena(&arena, fast), SampleBits::of_oracle(&slow));
            max_label = max_label.max(slow.max_label());
            prop_assert_eq!(arena.max_label(), max_label);
        }
    }
}

/// The sparse scoring path must be bit-identical across thread counts
/// and repeated calls, and equal to the per-sample reference scorer.
#[test]
fn sparse_path_is_bit_identical_across_threads_and_reuse() {
    use muxlink_integration_tests::reference_predict;

    let cols = feature_cols(2);
    let samples: Vec<GraphSample> = (0..12)
        .map(|s| {
            let n = 6 + (s % 5);
            let mut lists = vec![Vec::new(); n];
            for i in 1..n {
                let j = (i * 3 + s) % i;
                lists[i].push(j as u32);
                lists[j].push(i as u32);
            }
            let gate = (0..n).map(|i| ((i + s) % 8) as u32).collect();
            let label = (0..n).map(|i| ((i * 2 + s) % 3) as u32).collect();
            GraphSample {
                adj: Csr::from_lists(&lists),
                features: OneHotFeatures::new(cols, gate, label),
                label: None,
            }
        })
        .collect();
    let model = Dgcnn::new(DgcnnConfig::paper(cols, 10));

    let reference = reference_predict(&model, &samples);

    // 1 vs 4 rayon workers, each twice.
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        for _ in 0..2 {
            let batch = pool.install(|| model.predict_batch(&samples));
            assert_eq!(
                batch, reference,
                "{threads}-thread sparse batch changed bits"
            );
        }
    }
}
