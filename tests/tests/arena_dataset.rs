//! Cross-crate contract of the arena-pooled sample storage: the
//! streamed/pooled path must be **bitwise identical** to the owned
//! per-sample-`Vec` path — dataset build, training, batch prediction and
//! end-to-end scoring — at 1 and 4 worker threads and for any chunk
//! size.

use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress, Trained};
use muxlink_gnn::{train, ArenaSamples, Dgcnn, DgcnnConfig, GraphSample, TrainConfig};
use muxlink_graph::dataset::{build_dataset_arena, ArenaDataset, DatasetConfig};
use muxlink_graph::extract;
use muxlink_graph::graph::{CircuitGraph, Link};
use muxlink_integration_tests::dataset_oracle::{
    build_dataset, target_subgraphs, Dataset, LinkSample,
};
use muxlink_integration_tests::subgraph_oracle::one_hot_features;
use muxlink_integration_tests::to_graph_sample;
use muxlink_locking::{dmux, LockOptions};
use muxlink_netlist::{GateId, GateType};
use proptest::{proptest, ProptestConfig};

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

/// Ring of `n` NOR gates.
fn ring(n: usize) -> CircuitGraph {
    let edges: Vec<Link> = (0..n)
        .map(|i| Link::new(i as u32, ((i + 1) % n) as u32))
        .collect();
    CircuitGraph::from_edges(
        (0..n).map(GateId::from_index).collect(),
        vec![GateType::Nor; n],
        &edges,
    )
}

fn ring_cfg(max_links: usize) -> DatasetConfig {
    DatasetConfig {
        h: 2,
        max_train_links: max_links,
        val_fraction: 0.10,
        max_subgraph_nodes: None,
        seed: 5,
        chunk: 0,
    }
}

/// Asserts an arena-backed dataset carries exactly the owned
/// dataset's samples: same split sizes, same per-position adjacency,
/// features and labels, same `max_label`.
fn assert_matches_owned(owned: &Dataset, pooled: &ArenaDataset) {
    assert_eq!(owned.max_label, pooled.max_label);
    assert_eq!(owned.train.len(), pooled.train.len());
    assert_eq!(owned.val.len(), pooled.val.len());
    for (samples, handles) in [(&owned.train, &pooled.train), (&owned.val, &pooled.val)] {
        for (s, &h) in samples.iter().zip(handles.iter()) {
            assert_eq!(pooled.arena.label(h), Some(s.label));
            assert_eq!(pooled.arena.adj(h).to_owned_csr(), s.subgraph.adj);
            assert_eq!(
                pooled.arena.one_hot(h, owned.max_label).to_owned_features(),
                one_hot_features(&s.subgraph, owned.max_label)
            );
        }
    }
}

#[test]
fn arena_build_matches_owned_build_bitwise() {
    let g = ring(100);
    let targets = vec![Link::new(0, 3), Link::new(10, 40)];
    let owned = build_dataset(&g, &targets, &ring_cfg(80));
    let pooled = build_dataset_arena(&g, &targets, &ring_cfg(80));
    assert_matches_owned(&owned, &pooled);
}

#[test]
fn target_subgraphs_align_with_targets() {
    let g = ring(40);
    let targets = vec![Link::new(3, 17), Link::new(5, 6)];
    let sgs = target_subgraphs(&g, &targets, &ring_cfg(10));
    assert_eq!(sgs.len(), 2);
    for (sg, t) in sgs.iter().zip(&targets) {
        let (lf, lg) = sg.target;
        assert_eq!(sg.nodes[lf as usize], t.a);
        assert_eq!(sg.nodes[lg as usize], t.b);
    }
}

#[test]
fn parallel_target_subgraphs_match_sequential() {
    let g = ring(60);
    let targets: Vec<Link> = (0..20).map(|i| Link::new(i, (i + 7) % 60)).collect();
    let run =
        |threads: usize| pool(threads).install(|| target_subgraphs(&g, &targets, &ring_cfg(10)));
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.target, b.target);
    }
}

fn owned_graph_samples(samples: &[LinkSample], max_label: u32) -> Vec<GraphSample> {
    samples
        .iter()
        .map(|s| to_graph_sample(&s.subgraph, max_label, Some(s.label)))
        .collect()
}

/// Training through arena handle views must produce the same bits as
/// training on owned `GraphSample` vectors — per-epoch history, final
/// weights, predictions — at 1 and 4 rayon workers.
#[test]
fn arena_training_is_bitwise_identical_to_owned_at_1_and_4_threads() {
    let design = muxlink_benchgen::synth::SynthConfig::new("arena", 14, 6, 220).generate(7);
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
    let targets = ex.target_links();
    let owned = build_dataset(&ex.graph, &targets, &ds_cfg);
    let pooled = build_dataset_arena(&ex.graph, &targets, &ds_cfg);
    assert_eq!(owned.max_label, pooled.max_label);
    assert_eq!(owned.train.len(), pooled.train.len());
    let max_label = owned.max_label;
    let otrain = owned_graph_samples(&owned.train, max_label);
    let oval = owned_graph_samples(&owned.val, max_label);

    let input_dim = muxlink_graph::features::feature_cols(max_label);
    let tcfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        ..TrainConfig::default()
    };
    let model = || Dgcnn::new(DgcnnConfig::paper(input_dim, 10));

    let run_owned = |threads: usize| {
        pool(threads).install(|| {
            let mut m = model();
            let r = train(&mut m, &otrain, &oval, &tcfg);
            (r, m.predict_batch(&otrain[..1])[0])
        })
    };
    let run_arena = |threads: usize| {
        pool(threads).install(|| {
            let mut m = model();
            let tr = ArenaSamples::select(&pooled.arena, &pooled.train, max_label);
            let va = ArenaSamples::select(&pooled.arena, &pooled.val, max_label);
            let r = train(&mut m, &tr, &va, &tcfg);
            let first = ArenaSamples::select(&pooled.arena, &pooled.train[..1], max_label);
            (r, m.predict_batch(&first)[0])
        })
    };

    let baseline = run_owned(1);
    for (name, result) in [
        ("owned@4", run_owned(4)),
        ("arena@1", run_arena(1)),
        ("arena@4", run_arena(4)),
    ] {
        assert_eq!(baseline.0, result.0, "{name}: training history diverged");
        assert_eq!(
            baseline.1.to_bits(),
            result.1.to_bits(),
            "{name}: prediction bits diverged"
        );
    }
}

/// `predict_batch` over an arena store must reproduce the owned-store
/// bits exactly, including across thread counts.
#[test]
fn predict_batch_through_arena_views_matches_owned() {
    let design = muxlink_benchgen::synth::SynthConfig::new("pb", 14, 6, 240).generate(9);
    let locked = dmux::lock(&design, &LockOptions::new(8, 5)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let ds_cfg = DatasetConfig {
        h: 2,
        max_train_links: 120,
        val_fraction: 0.1,
        max_subgraph_nodes: Some(64),
        seed: 11,
        chunk: 16,
    };
    let owned = build_dataset(&ex.graph, &[], &ds_cfg);
    let pooled = build_dataset_arena(&ex.graph, &[], &ds_cfg);
    let max_label = owned.max_label;
    let osamples = owned_graph_samples(&owned.train, max_label);
    let input_dim = muxlink_graph::features::feature_cols(max_label);
    let model = Dgcnn::new(DgcnnConfig::paper(input_dim, 12));

    let reference = model.predict_batch(&osamples);
    for threads in [1usize, 4] {
        let via_arena = pool(threads).install(|| {
            model.predict_batch(&ArenaSamples::select(
                &pooled.arena,
                &pooled.train,
                max_label,
            ))
        });
        assert_eq!(reference, via_arena, "threads {threads}");
    }
}

/// The owned-`Vec` scorer the streamed arena scorer is pinned to: every
/// candidate link's target subgraph materialised up front as an owned
/// [`GraphSample`] and scored in one [`Dgcnn::predict_batch`] call.
fn owned_vec_scores(trained: &Trained) -> Vec<(f64, f64)> {
    let links: Vec<_> = trained
        .design
        .muxes
        .iter()
        .flat_map(|m| [m.link0(), m.link1()])
        .collect();
    let ds_cfg = DatasetConfig {
        h: trained.cfg.h,
        max_subgraph_nodes: trained.cfg.max_subgraph_nodes,
        ..DatasetConfig::default()
    };
    let samples: Vec<GraphSample> = target_subgraphs(&trained.design.graph, &links, &ds_cfg)
        .iter()
        .map(|sg| to_graph_sample(sg, trained.max_label, None))
        .collect();
    trained
        .model
        .predict_batch(&samples)
        .chunks_exact(2)
        .map(|p| (f64::from(p[0]), f64::from(p[1])))
        .collect()
}

fn score_bits(scores: &[(f64, f64)]) -> Vec<(u64, u64)> {
    scores
        .iter()
        .map(|(a, b)| (a.to_bits(), b.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// End-to-end: training and the streamed arena scorer must give the
    /// same bits at every chunk size (`0` = one chunk holding every
    /// link) and at 1 and 4 threads, and the scores must equal the
    /// owned-`Vec` scorer's, across random designs and seeds.
    #[test]
    fn attack_is_chunk_and_thread_invariant(seed in 0u64..1000) {
        let design =
            muxlink_benchgen::synth::SynthConfig::new("chunk", 14, 6, 210).generate(seed);
        let locked = dmux::lock(&design, &LockOptions::new(6, seed ^ 0xA5)).expect("lock fits");
        let names = locked.key_input_names();
        let mut base = MuxLinkConfig::quick().with_seed(seed);
        base.max_train_links = 250;
        base.epochs = 4;
        let train_at = |chunk: usize, threads: usize| {
            let cfg = base.clone().with_threads(threads).with_sample_chunk(chunk);
            AttackSession::new(&locked.netlist, &names, cfg)
                .extract()
                .and_then(|x| x.prepare(&NoProgress))
                .and_then(|p| p.train(&NoProgress))
                .expect("attack trains")
        };

        let reference = train_at(0, 1);
        let want = score_bits(&owned_vec_scores(&reference));
        for (chunk, threads) in [(0usize, 1usize), (7, 1), (64, 1), (64, 4)] {
            let trained = if (chunk, threads) == (0, 1) {
                reference.clone()
            } else {
                train_at(chunk, threads)
            };
            assert_eq!(
                reference.report, trained.report,
                "chunk {chunk} threads {threads}: training diverged"
            );
            let scored = trained.score(&NoProgress).expect("scores");
            assert_eq!(
                want,
                score_bits(&scored.scores),
                "chunk {chunk} threads {threads}: scores diverged from the owned-Vec scorer"
            );
        }
    }
}
