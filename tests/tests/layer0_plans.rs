//! Cross-crate contract of the epoch-invariant layer-0 plans: the
//! batched trainer consuming the arena's cached `S·X` sparse plans must
//! be **bitwise identical** to building every sample's plan at
//! minibatch assembly (a plan-less store, [`NoPlans`]) and to a mix of
//! both ([`MixedPlans`]) — per step and per run — across batch sizes,
//! thread pools and dirty reused workspaces.

use std::sync::OnceLock;

use muxlink_gnn::matrix::seeded_rng;
use muxlink_gnn::{
    train, ArenaSamples, BatchWorkspace, Dgcnn, DgcnnConfig, Gradients, Minibatch, SampleStore,
    TrainConfig, TrainReport,
};
use muxlink_graph::dataset::{build_dataset_arena, ArenaDataset, DatasetConfig};
use muxlink_graph::extract;
use muxlink_integration_tests::{MixedPlans, NoPlans};
use muxlink_locking::{dmux, LockOptions};
use proptest::prelude::*;
use rand::Rng;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

/// One arena-pooled enclosing-subgraph dataset from a locked synthetic
/// design, shared by every test (the dataset build caches the layer-0
/// plans).
fn dataset() -> &'static ArenaDataset {
    static DS: OnceLock<ArenaDataset> = OnceLock::new();
    DS.get_or_init(|| {
        let design = muxlink_benchgen::synth::SynthConfig::new("l0p", 14, 6, 220).generate(7);
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
        build_dataset_arena(&ex.graph, &ex.target_links(), &ds_cfg)
    })
}

fn model_bits(model: &Dgcnn) -> String {
    serde_json::to_string(model).expect("model serializes")
}

fn grad_bits(g: &Gradients) -> Vec<u32> {
    g.tensors()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Trains on the shared arena dataset, through its cached plans or —
/// with `rebuild` — through [`NoPlans`], which hides them.
fn train_arena(batch_size: usize, rebuild: bool) -> (TrainReport, String) {
    let ds = dataset();
    let cfg = TrainConfig {
        epochs: 3,
        batch_size,
        ..TrainConfig::default()
    };
    let input_dim = muxlink_graph::features::feature_cols(ds.max_label);
    let mut model = Dgcnn::new(DgcnnConfig::paper(input_dim, 10));
    let tr = ArenaSamples::select(&ds.arena, &ds.train, ds.max_label);
    let va = ArenaSamples::select(&ds.arena, &ds.val, ds.max_label);
    let report = if rebuild {
        train(&mut model, &NoPlans(&tr), &va, &cfg)
    } else {
        train(&mut model, &tr, &va, &cfg)
    };
    (report, model_bits(&model))
}

/// Full training runs: cached plans vs per-epoch rebuild, bit-identical
/// histories and weights at every batch size.
#[test]
fn cached_plans_match_rebuild_across_batch_sizes() {
    for batch_size in [1usize, 7, 32] {
        let cached = train_arena(batch_size, false);
        let rebuild = train_arena(batch_size, true);
        assert_eq!(
            cached.0, rebuild.0,
            "batch {batch_size}: training history diverged"
        );
        assert_eq!(
            cached.1, rebuild.1,
            "batch {batch_size}: model weights diverged"
        );
    }
}

/// Thread invariance of the cached path (the batched step is
/// sequential, so this is structural — and pinned). CI runs this test
/// by name at 2 threads.
#[test]
fn cached_plans_match_rebuild_at_two_threads() {
    let baseline = pool(1).install(|| train_arena(8, true));
    for threads in [2usize, 4] {
        let cached = pool(threads).install(|| train_arena(8, false));
        assert_eq!(baseline, cached, "{threads}-thread cached run diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One batched step per job list, plans built at assembly vs cached
    /// plans vs cached plans for even indices only, through the same
    /// dirty reused minibatch + workspace, on a 1- or 4-thread pool:
    /// every gradient tensor and per-sample loss must be bit-identical,
    /// at batch sizes 1, 7 and 32.
    #[test]
    fn cached_step_is_bitwise_identical_to_rebuild(
        job_seed in 0u64..1000,
        batch_pick in 0usize..3,
        thread_pick in 0usize..2,
    ) {
        let ds = dataset();
        let batch_size = [1usize, 7, 32][batch_pick];
        let threads = [1usize, 4][thread_pick];
        let store = ArenaSamples::select(&ds.arena, &ds.train, ds.max_label);
        let mut rng = seeded_rng(job_seed);
        let jobs: Vec<(usize, u64)> = (0..batch_size)
            .map(|_| (rng.gen_range(0..store.len()), rng.gen()))
            .collect();
        let input_dim = muxlink_graph::features::feature_cols(ds.max_label);
        let model = Dgcnn::new(DgcnnConfig::paper(input_dim, 10));

        let (want_bits, want_losses, got_runs) = pool(threads).install(|| {
            let mut mb = Minibatch::new();
            let mut ws = BatchWorkspace::new();
            // Rebuild reference first — it also dirties the buffers the
            // cached passes then reuse.
            assert!(NoPlans(&store).plan(0).is_none(), "NoPlans must hide the cached plans");
            assert!(store.plan(0).is_some(), "arena store must serve cached plans");
            mb.assemble(&NoPlans(&store), &jobs);
            let mut want = model.new_gradients();
            model.batch_train_step(&mb, &mut ws, &mut want);
            let want_losses: Vec<u64> = ws.losses.iter().map(|l| l.to_bits()).collect();
            let mut got_runs = Vec::new();
            for _ in 0..2 {
                for cached in [&store as &dyn SampleStore, &MixedPlans(&store)] {
                    mb.assemble(cached, &jobs);
                    let mut got = model.new_gradients();
                    model.batch_train_step(&mb, &mut ws, &mut got);
                    let losses: Vec<u64> = ws.losses.iter().map(|l| l.to_bits()).collect();
                    got_runs.push((grad_bits(&got), losses));
                }
            }
            (grad_bits(&want), want_losses, got_runs)
        });
        for (bits, losses) in got_runs {
            prop_assert_eq!(&bits, &want_bits);
            prop_assert_eq!(&losses, &want_losses);
        }
    }
}
