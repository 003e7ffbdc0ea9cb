//! Cross-crate contract of the block-diagonal batched trainer: the
//! production loop — one fused propagate+GEMM per layer per minibatch —
//! must be **bitwise identical** to the per-sample
//! [`reference_train`] in the test support crate, across batch sizes,
//! thread counts, feature patterns and storage backends. Recovered keys
//! and scores are a pure function of the weights, so equal weights
//! carry the contract through the whole attack.

use muxlink_gnn::matrix::seeded_rng;
use muxlink_gnn::{
    train, AdamConfig, AdamState, ArenaSamples, BatchWorkspace, Dgcnn, DgcnnConfig, Gradients,
    GraphSample, Matrix, Minibatch, OneHotFeatures, TrainConfig, TrainReport,
};
use muxlink_graph::dataset::{build_dataset_arena, DatasetConfig};
use muxlink_graph::{extract, Csr};
use muxlink_integration_tests::adam_oracle::OracleAdam;
use muxlink_integration_tests::dataset_oracle::{build_dataset, LinkSample};
use muxlink_integration_tests::reference::{Reference, Workspace};
use muxlink_integration_tests::{reference_train, to_graph_sample};
use muxlink_locking::{dmux, LockOptions};
use proptest::prelude::*;
use rand::Rng;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

fn owned_graph_samples(samples: &[LinkSample], max_label: u32) -> Vec<GraphSample> {
    samples
        .iter()
        .map(|s| to_graph_sample(&s.subgraph, max_label, Some(s.label)))
        .collect()
}

/// Real enclosing-subgraph datasets (compact one-hot features, varied
/// sizes) from a locked synthetic design.
fn subgraph_dataset() -> (Vec<GraphSample>, Vec<GraphSample>, usize) {
    let design = muxlink_benchgen::synth::SynthConfig::new("bt", 14, 6, 220).generate(7);
    let locked = dmux::lock(&design, &LockOptions::new(6, 3)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let ds_cfg = DatasetConfig {
        h: 2,
        max_train_links: 200,
        val_fraction: 0.1,
        max_subgraph_nodes: Some(80),
        seed: 3,
        chunk: 32,
    };
    let owned = build_dataset(&ex.graph, &ex.target_links(), &ds_cfg);
    let input_dim = muxlink_graph::features::feature_cols(owned.max_label);
    (
        owned_graph_samples(&owned.train, owned.max_label),
        owned_graph_samples(&owned.val, owned.max_label),
        input_dim,
    )
}

fn model_bits(model: &Dgcnn) -> String {
    serde_json::to_string(model).expect("model serializes")
}

fn train_with(
    train_set: &[GraphSample],
    val_set: &[GraphSample],
    input_dim: usize,
    batch_size: usize,
    reference: bool,
) -> (TrainReport, String) {
    let cfg = TrainConfig {
        epochs: 3,
        batch_size,
        ..TrainConfig::default()
    };
    let mut model = Dgcnn::new(DgcnnConfig::paper(input_dim, 10));
    let report = if reference {
        reference_train(&mut model, train_set, val_set, &cfg)
    } else {
        train(&mut model, train_set, val_set, &cfg)
    };
    (report, model_bits(&model))
}

/// The tentpole contract on real subgraphs: the block-diagonal batched
/// loop reproduces the per-sample reference loop bit for bit — history,
/// best epoch and every model weight — at batch sizes 1, 7 and 32.
#[test]
fn batched_loop_matches_reference_across_batch_sizes() {
    let (train_set, val_set, input_dim) = subgraph_dataset();
    for batch_size in [1usize, 7, 32] {
        let reference = train_with(&train_set, &val_set, input_dim, batch_size, true);
        let batched = train_with(&train_set, &val_set, input_dim, batch_size, false);
        assert_eq!(
            reference.0, batched.0,
            "batch {batch_size}: training history diverged"
        );
        assert_eq!(
            reference.1, batched.1,
            "batch {batch_size}: model weights diverged"
        );
    }
}

/// Thread invariance: the reference loop parallelises across samples,
/// the batched loop is sequential — both must agree from any pool.
/// CI runs this test by name at 2 threads.
#[test]
fn batched_loop_matches_reference_at_two_threads() {
    let (train_set, val_set, input_dim) = subgraph_dataset();
    let baseline = pool(1).install(|| train_with(&train_set, &val_set, input_dim, 8, false));
    for threads in [2usize, 4] {
        let reference =
            pool(threads).install(|| train_with(&train_set, &val_set, input_dim, 8, true));
        let batched =
            pool(threads).install(|| train_with(&train_set, &val_set, input_dim, 8, false));
        assert_eq!(baseline, reference, "{threads}-thread reference diverged");
        assert_eq!(baseline, batched, "{threads}-thread batched diverged");
    }
}

/// Storage invariance: the batched assembler copies blocks out of owned
/// `Vec`s and arena slabs through the same `SampleStore` views — the
/// trained model must be identical either way.
#[test]
fn batched_loop_is_storage_invariant_owned_vs_arena() {
    let design = muxlink_benchgen::synth::SynthConfig::new("bts", 14, 6, 220).generate(9);
    let locked = dmux::lock(&design, &LockOptions::new(6, 3)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let ds_cfg = DatasetConfig {
        h: 2,
        max_train_links: 160,
        val_fraction: 0.1,
        max_subgraph_nodes: Some(80),
        seed: 5,
        chunk: 24,
    };
    let targets = ex.target_links();
    let owned = build_dataset(&ex.graph, &targets, &ds_cfg);
    let pooled = build_dataset_arena(&ex.graph, &targets, &ds_cfg);
    let max_label = owned.max_label;
    let input_dim = muxlink_graph::features::feature_cols(max_label);
    let otrain = owned_graph_samples(&owned.train, max_label);
    let oval = owned_graph_samples(&owned.val, max_label);

    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        ..TrainConfig::default()
    };
    let mut om = Dgcnn::new(DgcnnConfig::paper(input_dim, 10));
    let or = train(&mut om, &otrain, &oval, &cfg);
    let mut am = Dgcnn::new(DgcnnConfig::paper(input_dim, 10));
    let ar = pool(4).install(|| {
        let tr = ArenaSamples::select(&pooled.arena, &pooled.train, max_label);
        let va = ArenaSamples::select(&pooled.arena, &pooled.val, max_label);
        train(&mut am, &tr, &va, &cfg)
    });
    assert_eq!(or, ar, "owned vs arena history diverged");
    assert_eq!(model_bits(&om), model_bits(&am), "weights diverged");
}

/// Two-hot feature width of the synthetic samples: 8 gate-type columns
/// plus DRNL labels 0..=2.
const WIDTH: usize = 11;

/// A separable toy task on a 4-node path 0-1-2-3: two nodes carry a
/// "target" gate type and the label says whether the flagged pair is
/// adjacent (1,2) or far apart (0,3). Random DRNL-label columns keep
/// samples distinct.
fn toy_dataset(n: usize, seed: u64) -> Vec<GraphSample> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|_| {
            let label = rng.gen::<bool>();
            let adj = muxlink_graph::Csr::from_lists(&[vec![1], vec![0, 2], vec![1, 3], vec![2]]);
            let flagged: [usize; 2] = if label { [1, 2] } else { [0, 3] };
            let gate = (0..4).map(|i| u32::from(flagged.contains(&i))).collect();
            let labels = (0..4).map(|_| rng.gen_range(0..3)).collect();
            GraphSample {
                adj,
                features: OneHotFeatures::new(WIDTH, gate, labels),
                label: Some(label),
            }
        })
        .collect()
}

/// The batched loop matches the reference loop on a toy task and a
/// tiny model too — including partial final batches, dropout and a
/// learning rate large enough to move every weight.
#[test]
fn batched_loop_is_bit_identical_to_reference_loop() {
    let data = toy_dataset(22, 13);
    let model_cfg = DgcnnConfig {
        input_dim: WIDTH,
        gc_channels: vec![4, 1],
        conv1_channels: 4,
        conv2_channels: 4,
        conv2_kernel: 2,
        dense_dim: 8,
        dropout: 0.1,
        k: 4,
        seed: 1,
    };
    for batch_size in [1usize, 5, 8] {
        let cfg = TrainConfig {
            epochs: 3,
            batch_size,
            adam: AdamConfig {
                lr: 0.01,
                ..AdamConfig::default()
            },
            ..TrainConfig::default()
        };
        let mut batched = Dgcnn::new(model_cfg.clone());
        let mut reference = Dgcnn::new(model_cfg.clone());
        let rb = train(&mut batched, &data[..18], &data[18..], &cfg);
        let rr = reference_train(&mut reference, &data[..18], &data[18..], &cfg);
        assert_eq!(rb, rr, "batch_size {batch_size}: reports diverged");
        assert_eq!(
            batched.snapshot(),
            reference.snapshot(),
            "batch_size {batch_size}: weights diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Property tests: one batched step vs the per-sample reference loop.
// ---------------------------------------------------------------------

/// A small random labelled sample on one of three fixed graph shapes
/// (including an isolated node) or a random connected graph of up to 23
/// nodes (larger than SortPool's `k`, so rows are dropped as well as
/// padded), random two-hot features.
fn random_sample(rng: &mut impl Rng) -> GraphSample {
    let adj = match rng.gen_range(0u8..4) {
        0 => muxlink_graph::Csr::from_lists(&[vec![1], vec![0, 2], vec![1, 3], vec![2]]),
        1 => muxlink_graph::Csr::from_lists(&[vec![1, 2], vec![0], vec![0], vec![]]),
        2 => {
            muxlink_graph::Csr::from_lists(&[vec![1], vec![0, 2, 4], vec![1], vec![4], vec![1, 3]])
        }
        _ => {
            let n = rng.gen_range(6usize..24);
            let mut lists = vec![Vec::new(); n];
            for i in 1..n {
                let j = rng.gen_range(0..i);
                lists[i].push(j as u32);
                lists[j].push(i as u32);
            }
            muxlink_graph::Csr::from_lists(&lists)
        }
    };
    let n = adj.node_count();
    let gate = (0..n).map(|_| rng.gen_range(0..8)).collect();
    let labels = (0..n).map(|_| rng.gen_range(0..3)).collect();
    GraphSample {
        adj,
        features: OneHotFeatures::new(WIDTH, gate, labels),
        label: Some(rng.gen()),
    }
}

/// A model configuration for one property case. Every fourth case is
/// the paper's layer shapes (GC 32/32/32/1, conv1 16, conv2 32 with
/// kernel 5), which reach every register-tile path of the batched step;
/// the rest draw the GC widths (tile multiples, ragged and 1-wide),
/// `conv1_channels` (multiples of 8 and not), `conv2_channels` and
/// `conv2_kernel` (5 and not), with `k` at or above its minimum. The
/// dense head stays 4 wide to keep cases fast.
fn drawn_cfg(rng: &mut impl Rng) -> DgcnnConfig {
    let paper = rng.gen_range(0u8..4) == 0;
    let (gc_channels, conv1_channels, conv2_channels, conv2_kernel) = if paper {
        (vec![32, 32, 32, 1], 16, 32, 5)
    } else {
        let widths = [1usize, 2, 3, 16, 17, 32];
        let layers = rng.gen_range(1usize..5);
        let gc = (0..layers)
            .map(|_| widths[rng.gen_range(0..widths.len())])
            .collect();
        (
            gc,
            rng.gen_range(1usize..20),
            rng.gen_range(1usize..34),
            rng.gen_range(1usize..8),
        )
    };
    DgcnnConfig {
        input_dim: WIDTH,
        gc_channels,
        conv1_channels,
        conv2_channels,
        conv2_kernel,
        dense_dim: 4,
        dropout: 0.5,
        k: 2 * conv2_kernel + rng.gen_range(0usize..8),
        seed: rng.gen(),
    }
}

/// Exactly the gradient accumulation of `reference_train`: per-sample
/// forward/backward through a reused workspace, first slot copied,
/// later slots merged.
fn reference_step(
    model: &Dgcnn,
    samples: &[GraphSample],
    jobs: &[(usize, u64)],
) -> (Gradients, Vec<f64>) {
    let r = Reference::new(model);
    let mut ws = Workspace::new();
    let mut acc = model.new_gradients();
    let mut slot = model.new_gradients();
    let mut losses = Vec::new();
    for (s, &(i, seed)) in jobs.iter().enumerate() {
        let v = samples[i].view();
        let label = v.label.unwrap();
        let mut rng = seeded_rng(seed);
        r.forward_into(v, Some(&mut rng), &mut ws);
        r.backward_into(v, label, &mut ws, &mut slot);
        losses.push(f64::from(ws.cache.loss(label)));
        if s == 0 {
            acc.copy_from(&slot);
        } else {
            acc.merge(&slot);
        }
    }
    (acc, losses)
}

fn grad_bits(g: &Gradients) -> Vec<u32> {
    g.tensors()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One `batch_train_step` over a random minibatch (random graphs,
    /// features, labels, dropout seeds, duplicate samples allowed) of a
    /// model with drawn layer widths (see `drawn_cfg`) is bit-identical
    /// to the per-sample reference loop: every gradient tensor and every
    /// per-sample loss.
    #[test]
    fn batched_step_is_bitwise_identical_to_per_sample(data_seed in 0u64..1000, count in 1usize..11) {
        let mut rng = seeded_rng(data_seed);
        let samples: Vec<GraphSample> = (0..count).map(|_| random_sample(&mut rng)).collect();
        // Jobs may repeat a sample index, as shuffled epochs never do but
        // the kernel must not care.
        let jobs: Vec<(usize, u64)> = (0..count)
            .map(|_| (rng.gen_range(0..count), rng.gen()))
            .collect();
        let model = Dgcnn::new(drawn_cfg(&mut rng));

        let (want_grads, want_losses) = reference_step(&model, &samples, &jobs);

        let mut mb = Minibatch::new();
        let mut ws = BatchWorkspace::new();
        let mut grads = model.new_gradients();
        // Two passes through the same (dirty) buffers: reuse must not
        // change bits.
        for _ in 0..2 {
            mb.assemble(&samples[..], &jobs);
            model.batch_train_step(&mb, &mut ws, &mut grads);
            prop_assert_eq!(grad_bits(&grads), grad_bits(&want_grads));
            let got: Vec<u64> = ws.losses.iter().map(|l| l.to_bits()).collect();
            let want: Vec<u64> = want_losses.iter().map(|l| l.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }
}

// ---------------------------------------------------------------------
// Property test: the trainer-owned Adam state vs the per-tensor oracle.
// ---------------------------------------------------------------------

/// A weight or gradient entry from the edges of `f32`: ±0, subnormals,
/// NaN, ±∞, magnitudes near 1e-18 (whose scaled squares are subnormal
/// second moments), near the top of the range (whose squares overflow)
/// and ordinary values.
fn edge_f32(rng: &mut impl Rng) -> f32 {
    let sign = if rng.gen() { 1.0 } else { -1.0 };
    sign * match rng.gen_range(0u8..10) {
        0 => 0.0,
        1 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => rng.gen_range(1e-20f32..1e-17),
        5 => rng.gen_range(1e18f32..3e38),
        _ => rng.gen_range(0.0f32..4.0),
    }
}

/// A tensor list shaped like `model`'s parameters, filled from
/// [`edge_f32`].
fn edge_tensors(model: &Dgcnn, rng: &mut impl Rng) -> Vec<Matrix> {
    model
        .snapshot()
        .iter()
        .map(|w| {
            let data = (0..w.rows() * w.cols()).map(|_| edge_f32(rng)).collect();
            Matrix::from_vec(w.rows(), w.cols(), data)
        })
        .collect()
}

fn weight_bits(model: &Dgcnn) -> Vec<u32> {
    grad_bits(&Gradients::from_tensors(model.snapshot()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `AdamState::step` moves every weight to the bits of the
    /// per-tensor oracle, step after step, from edge-case weights and
    /// gradients (±0, subnormal weights and moments, NaN and ±∞) at
    /// drawn step counts, gradient scales and learning rates.
    #[test]
    fn adam_state_matches_per_param_oracle_bitwise(data_seed in 0u64..1000, steps in 1usize..6) {
        let mut rng = seeded_rng(data_seed);
        let mut model = Dgcnn::new(tiny_cfg(WIDTH));
        let weights = edge_tensors(&model, &mut rng);
        model.restore(&weights);
        let mut oracle_model = model.clone();
        let mut adam = AdamState::new(&model);
        let mut oracle = OracleAdam::new(&oracle_model);
        let opt = AdamConfig {
            lr: [1e-4f32, 0.01, 0.5][rng.gen_range(0usize..3)],
            ..AdamConfig::default()
        };
        let t0 = rng.gen_range(0usize..2000);
        for t in t0 + 1..=t0 + steps {
            let grads = Gradients::from_tensors(edge_tensors(&model, &mut rng));
            let scale = 1.0 / rng.gen_range(1u32..65) as f32;
            adam.step(&mut model, &grads, &opt, t, scale);
            oracle.step(&mut oracle_model, &grads, &opt, t, scale);
            prop_assert_eq!(weight_bits(&model), weight_bits(&oracle_model));
        }
    }
}

// ---------------------------------------------------------------------
// Fixed cases: one batched step vs the per-sample reference loop, on
// three small graph shapes (one with an isolated node) and a 3-layer GC
// stack with dropout.
// ---------------------------------------------------------------------

fn tiny_cfg(input_dim: usize) -> DgcnnConfig {
    DgcnnConfig {
        input_dim,
        gc_channels: vec![3, 2, 1],
        conv1_channels: 2,
        conv2_channels: 2,
        conv2_kernel: 2,
        dense_dim: 4,
        dropout: 0.5,
        k: 4,
        seed: 3,
    }
}

fn adj_for(seed: u64) -> Csr {
    match seed % 3 {
        0 => Csr::from_lists(&[vec![1, 2], vec![0, 3], vec![0], vec![1, 4], vec![3]]),
        1 => Csr::from_lists(&[vec![1], vec![0, 2], vec![1]]),
        _ => Csr::from_lists(&[vec![1], vec![0], vec![3], vec![2], vec![]]),
    }
}

fn onehot_sample(seed: u64) -> GraphSample {
    let adj = adj_for(seed);
    let n = adj.node_count();
    let gate = (0..n).map(|i| (i as u32 + seed as u32) % 8).collect();
    let label = (0..n).map(|i| (i as u32 ^ seed as u32) % 3).collect();
    GraphSample {
        adj,
        features: OneHotFeatures::new(WIDTH, gate, label),
        label: Some(seed.is_multiple_of(2)),
    }
}

fn assert_step_matches(model: &Dgcnn, samples: &[GraphSample], jobs: &[(usize, u64)]) {
    let (want_grads, want_losses) = reference_step(model, samples, jobs);
    let mut mb = Minibatch::new();
    let mut ws = BatchWorkspace::new();
    let mut grads = model.new_gradients();
    // Two passes through the same dirty buffers: reuse must not
    // change a bit.
    for _ in 0..2 {
        mb.assemble(samples, jobs);
        model.batch_train_step(&mb, &mut ws, &mut grads);
        assert_eq!(grads, want_grads, "gradients diverged from reference");
        assert_eq!(ws.losses, want_losses, "losses diverged from reference");
    }
}

#[test]
fn batched_step_matches_reference_onehot() {
    let model = Dgcnn::new(tiny_cfg(WIDTH));
    let samples: Vec<GraphSample> = (0..6).map(onehot_sample).collect();
    let jobs: Vec<(usize, u64)> = (0..6).map(|i| (i, 77 + 3 * i as u64)).collect();
    assert_step_matches(&model, &samples, &jobs);
}

#[test]
fn batch_of_one_matches_reference() {
    let model = Dgcnn::new(tiny_cfg(WIDTH));
    let samples: Vec<GraphSample> = (0..2).map(onehot_sample).collect();
    assert_step_matches(&model, &samples, &[(1, 42)]);
}

#[test]
fn repeated_and_reordered_samples_match_reference() {
    let model = Dgcnn::new(tiny_cfg(WIDTH));
    let samples: Vec<GraphSample> = (0..4).map(onehot_sample).collect();
    let jobs = [(3, 9u64), (0, 4), (3, 12), (2, 1)];
    assert_step_matches(&model, &samples, &jobs);
}

// ---------------------------------------------------------------------
// The reference model's own buffer-reuse contract: its `_into`
// variants over one reused workspace give the allocating passes' bits.
// ---------------------------------------------------------------------

#[test]
fn reference_workspace_variants_are_bit_identical() {
    let model = Reference::new(&Dgcnn::new(tiny_cfg(WIDTH)));
    let mut ws = Workspace::new();
    // Stream several samples of different sizes through one reused
    // workspace; every prediction must match the allocating path.
    for seed in [1u64, 2, 9, 5, 1] {
        let s = random_sample(&mut seeded_rng(seed));
        assert_eq!(model.predict_into(&s, &mut ws), model.predict(&s));
    }
    // And the gradients must match too, including dropout streams.
    let s = random_sample(&mut seeded_rng(4));
    let mut rng1 = seeded_rng(42);
    let mut rng2 = seeded_rng(42);
    let cache = model.forward(&s, Some(&mut rng1));
    let fresh = model.backward(&s, &cache, true);
    model.forward_into(&s, Some(&mut rng2), &mut ws);
    assert_eq!(ws.cache.probs, cache.probs);
    let mut reused = model.new_gradients();
    model.backward_into(&s, true, &mut ws, &mut reused);
    assert_eq!(reused, fresh);
    // Second pass over the same dirty buffers: still identical.
    let mut rng3 = seeded_rng(42);
    model.forward_into(&s, Some(&mut rng3), &mut ws);
    model.backward_into(&s, true, &mut ws, &mut reused);
    assert_eq!(reused, fresh);
}

/// Workspace reuse on patterned two-hot samples: bit-identical to the
/// allocating pass, across dirty buffers and repeated use.
#[test]
fn reference_sparse_workspace_variants_are_bit_identical() {
    let model = Reference::new(&Dgcnn::new(tiny_cfg(WIDTH)));
    let mut ws = Workspace::new();
    for seed in [1u64, 3, 7, 2, 1] {
        let s = onehot_sample(seed);
        assert_eq!(model.predict_into(&s, &mut ws), model.predict(&s));
    }
    let s = onehot_sample(2);
    let cache = model.forward(&s, None);
    let fresh = model.backward(&s, &cache, true);
    model.forward_into(&s, None, &mut ws);
    let mut reused = model.new_gradients();
    for _ in 0..2 {
        model.backward_into(&s, true, &mut ws, &mut reused);
        assert_eq!(reused, fresh);
    }
}
