//! Cross-crate determinism contract of the parallel execution layer: a
//! full MuxLink attack must produce bit-identical training histories,
//! scores and recovered keys for any worker-thread count.

use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress};
use muxlink_locking::{dmux, symmetric, LockOptions};

fn run(
    locked: &muxlink_locking::LockedNetlist,
    threads: usize,
) -> (muxlink_core::ScoredDesign, Vec<muxlink_locking::KeyValue>) {
    let cfg = MuxLinkConfig::quick().with_threads(threads);
    let scored = AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
        .run(&NoProgress)
        .expect("attack should run");
    let key = scored.recover_key(cfg.th);
    (scored, key)
}

#[test]
fn muxlink_attack_is_thread_count_invariant_on_dmux() {
    let design = muxlink_benchgen::synth::SynthConfig::new("par", 14, 6, 220).generate(7);
    let locked = dmux::lock(&design, &LockOptions::new(6, 2)).unwrap();
    let (s1, k1) = run(&locked, 1);
    let (s4, k4) = run(&locked, 4);

    assert_eq!(k1, k4, "recovered key must not depend on thread count");
    assert_eq!(s1.scores, s4.scores, "per-MUX scores must be bit-identical");

    // Bit-identical per-epoch losses, not just the final outcome.
    assert_eq!(s1.train_report.history.len(), s4.train_report.history.len());
    for (a, b) in s1.train_report.history.iter().zip(&s4.train_report.history) {
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "epoch {}",
            a.epoch
        );
        assert_eq!(
            a.val_loss.to_bits(),
            b.val_loss.to_bits(),
            "epoch {}",
            a.epoch
        );
        assert_eq!(a.val_accuracy.to_bits(), b.val_accuracy.to_bits());
    }
    assert_eq!(s1.train_report.best_epoch, s4.train_report.best_epoch);

    // Timings report the stage thread counts actually used.
    assert_eq!(s1.timings.threads.train, 1);
    assert_eq!(s4.timings.threads.train, 4);
    assert_eq!(s4.timings.threads.extract, 1, "extraction stays sequential");
}

#[test]
fn muxlink_attack_is_thread_count_invariant_on_symmetric() {
    let design = muxlink_benchgen::synth::SynthConfig::new("par", 12, 6, 180).generate(9);
    let locked = symmetric::lock(&design, &LockOptions::new(4, 5)).unwrap();
    let (s1, k1) = run(&locked, 1);
    let (s3, k3) = run(&locked, 3);
    assert_eq!(k1, k3);
    assert_eq!(s1.scores, s3.scores);
}

/// Scoring contract: `predict_batch` (batched forward over fixed-size
/// chunks, one reused minibatch and workspace per worker) must produce
/// the per-sample reference scorer's bits, across repeated calls and
/// across 1-vs-4 rayon workers, with the layer-0 plans built at
/// minibatch assembly from real enclosing subgraphs end-to-end.
#[test]
fn workspace_scoring_is_bit_identical_across_reuse_and_threads() {
    use muxlink_gnn::{Dgcnn, DgcnnConfig, GraphSample};
    use muxlink_graph::dataset::DatasetConfig;
    use muxlink_graph::extract;
    use muxlink_integration_tests::dataset_oracle::target_subgraphs;
    use muxlink_integration_tests::{reference_predict, to_graph_sample};

    // Real enclosing subgraphs from a locked design (varied sizes), not
    // toy graphs.
    let design = muxlink_benchgen::synth::SynthConfig::new("ws", 14, 6, 240).generate(21);
    let locked = dmux::lock(&design, &LockOptions::new(8, 3)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let ds_cfg = DatasetConfig {
        h: 2,
        max_subgraph_nodes: Some(80),
        ..DatasetConfig::default()
    };
    let subgraphs = target_subgraphs(&ex.graph, &ex.target_links(), &ds_cfg);
    let max_label = subgraphs.iter().map(|s| s.max_label()).max().unwrap_or(1);
    let samples: Vec<GraphSample> = subgraphs
        .iter()
        .map(|sg| to_graph_sample(sg, max_label, None))
        .collect();
    assert!(samples.len() >= 8, "need a non-trivial batch");

    let input_dim = muxlink_graph::features::feature_cols(max_label);
    let model = Dgcnn::new(DgcnnConfig::paper(input_dim, 12));

    // Reference: the per-sample model, sequential.
    let reference = reference_predict(&model, &samples);

    // predict_batch on 1 vs 4 rayon workers, twice each: same bits as
    // the reference.
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        for _ in 0..2 {
            let batch = pool.install(|| model.predict_batch(&samples));
            assert_eq!(batch, reference, "{threads}-thread batch changed bits");
        }
    }
}
