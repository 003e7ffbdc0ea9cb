//! Cross-crate contract of batched inference: [`Dgcnn::predict_batch`]
//! and [`evaluate`] run the block-diagonal forward over fixed-size
//! chunks of samples, and must reproduce the per-sample reference model
//! ([`reference_predict`], [`reference_evaluate`]) **bit for bit** —
//! for any sample count around the chunk size, any mix of labelled and
//! unlabelled samples, graphs smaller than SortPool's `k`, NaN
//! activations, owned and arena stores, and any thread count.

use std::sync::OnceLock;

use muxlink_gnn::matrix::seeded_rng;
use muxlink_gnn::{
    evaluate, ArenaSamples, Dgcnn, DgcnnConfig, GraphSample, SampleArena, SampleStore,
};
use muxlink_graph::dataset::DatasetConfig;
use muxlink_graph::{extract, CircuitGraph};
use muxlink_integration_tests::dataset_oracle::{build_dataset, Dataset};
use muxlink_integration_tests::{reference_evaluate, reference_predict, to_graph_sample};
use muxlink_locking::{dmux, LockOptions};
use proptest::prelude::*;
use rand::Rng;

/// Sample counts straddling the inference chunk of 8.
const COUNTS: [usize; 6] = [0, 1, 7, 8, 9, 17];

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

/// Hop count of the shared dataset's subgraphs.
const HOPS: usize = 2;
/// Node cap of the shared dataset's subgraphs.
const CAP: Option<usize> = Some(40);

/// Real enclosing subgraphs (capped at 40 nodes) from a locked synthetic
/// design, shared by every case, with the graph they came from.
fn dataset() -> &'static (CircuitGraph, Dataset) {
    static DS: OnceLock<(CircuitGraph, Dataset)> = OnceLock::new();
    DS.get_or_init(|| {
        let design = muxlink_benchgen::synth::SynthConfig::new("bi", 14, 6, 220).generate(11);
        let locked = dmux::lock(&design, &LockOptions::new(6, 3)).unwrap();
        let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
        let ds_cfg = DatasetConfig {
            h: HOPS,
            max_train_links: 80,
            val_fraction: 0.1,
            max_subgraph_nodes: CAP,
            seed: 4,
            chunk: 16,
        };
        let ds = build_dataset(&ex.graph, &ex.target_links(), &ds_cfg);
        (ex.graph, ds)
    })
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|p| p.to_bits()).collect()
}

fn bits64((loss, acc): (f64, f64)) -> (u64, u64) {
    (loss.to_bits(), acc.to_bits())
}

/// `predict_batch` and `evaluate` over `store` at 1 and 4 threads
/// against the per-sample reference, bitwise.
fn check_store<S: SampleStore + ?Sized>(model: &Dgcnn, store: &S, name: &str) {
    let want_scores = bits32(&reference_predict(model, store));
    let want_eval = bits64(reference_evaluate(model, store));
    for threads in [1usize, 4] {
        let (scores, eval) =
            pool(threads).install(|| (model.predict_batch(store), evaluate(model, store)));
        assert_eq!(
            bits32(&scores),
            want_scores,
            "{name} at {threads} threads: scores"
        );
        assert_eq!(
            bits64(eval),
            want_eval,
            "{name} at {threads} threads: evaluate"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random draws of real subgraphs (with repeats), each labelled
    /// `true`, `false` or unlabelled, scored and evaluated through two
    /// stores holding the same samples: owned two-hot and arena. The
    /// model's `k` is drawn up to 60, above most subgraph sizes, and one
    /// case in four poisons a first-layer weight with NaN so that
    /// SortPooling orders NaN activations.
    #[test]
    fn batched_inference_matches_per_sample_reference(
        count_idx in 0usize..COUNTS.len(),
        seed in proptest::num::u64::ANY,
    ) {
        let (graph, ds) = dataset();
        let pool_samples: Vec<_> = ds.train.iter().chain(&ds.val).collect();
        let mut rng = seeded_rng(seed);
        let count = COUNTS[count_idx];
        let drawn: Vec<_> = (0..count)
            .map(|_| {
                let s = pool_samples[rng.gen_range(0..pool_samples.len())];
                let label = match rng.gen_range(0u8..3) {
                    0 => None,
                    _ => Some(rng.gen::<bool>()),
                };
                (s, label)
            })
            .collect();

        let input_dim = muxlink_graph::features::feature_cols(ds.max_label);
        let mut cfg = DgcnnConfig::paper(input_dim, rng.gen_range(10usize..61));
        cfg.seed = rng.gen();
        let mut model = Dgcnn::new(cfg);
        if rng.gen_range(0u8..4) == 0 {
            let mut w = model.snapshot();
            let w0 = w[0].data_mut();
            let at = rng.gen_range(0..w0.len());
            w0[at] = f32::NAN;
            model.restore(&w);
        }

        let owned: Vec<GraphSample> = drawn
            .iter()
            .map(|&(s, label)| to_graph_sample(&s.subgraph, ds.max_label, label))
            .collect();
        let mut arena = SampleArena::new();
        for &(s, label) in &drawn {
            arena.extract_sample(graph, s.link, HOPS, CAP, label);
        }
        let arena_store = ArenaSamples::all(&arena, ds.max_label);

        check_store(&model, &owned, "owned two-hot");
        check_store(&model, &arena_store, "arena");
    }
}
