//! Cross-crate contract of the staged attack-session API: the chain
//! `extract → prepare → train → score → recover` must be **bitwise
//! identical** to the one-shot `score_design`, at any thread count, and
//! a serialized `Trained` checkpoint must reload to identical scores and
//! an identical recovered key.

use muxlink_core::{score_design, AttackSession, MuxLinkConfig, NoProgress, Trained};
use muxlink_locking::{dmux, symmetric, LockOptions};
use proptest::{proptest, ProptestConfig};
use serde::{Deserialize, Serialize, Value};

/// A fast-but-real configuration: every pipeline stage runs (sampling,
/// training, scoring, post-processing), scaled so one property case
/// trains in about a second.
fn fast_cfg(threads: usize) -> MuxLinkConfig {
    let mut cfg = MuxLinkConfig::quick().with_threads(threads);
    cfg.max_train_links = 300;
    cfg.epochs = 6;
    cfg
}

fn staged(
    locked: &muxlink_locking::LockedNetlist,
    cfg: &MuxLinkConfig,
) -> muxlink_core::ScoredDesign {
    AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
        .extract()
        .expect("extract")
        .prepare(&NoProgress)
        .expect("prepare")
        .train(&NoProgress)
        .expect("train")
        .score(&NoProgress)
        .expect("score")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Staged session == one-shot `score_design`, bit for bit, at 1 and
    /// 4 worker threads, across random designs, schemes and seeds.
    #[test]
    fn staged_session_is_bitwise_identical_to_one_shot(
        seed in 0u64..1000,
        key_size in 4usize..8,
        use_dmux in proptest::bool::ANY,
    ) {
        let design =
            muxlink_benchgen::synth::SynthConfig::new("prop", 14, 6, 210).generate(seed);
        // Tiny designs cannot always hold the drawn key size; shrink
        // until the lock fits (mirrors the bench runner's policy).
        let lock = |mut key_size: usize| loop {
            let opts = LockOptions::new(key_size, seed ^ 0x5EED);
            let r = if use_dmux {
                dmux::lock(&design, &opts)
            } else {
                symmetric::lock(&design, &opts)
            };
            match r {
                Ok(l) => return l,
                Err(_) if key_size > 2 => key_size -= 1,
                Err(e) => panic!("cannot lock even K=2: {e}"),
            }
        };
        let locked = lock(key_size);
        let one_shot = score_design(
            &locked.netlist,
            &locked.key_input_names(),
            &fast_cfg(1),
        )
        .expect("one-shot attack");

        for threads in [1usize, 4] {
            let s = staged(&locked, &fast_cfg(threads));
            // Bit-level equality of every per-MUX likelihood …
            proptest::prop_assert_eq!(&s.scores, &one_shot.scores, "threads {}", threads);
            // … of the full training history …
            proptest::prop_assert_eq!(&s.train_report, &one_shot.train_report);
            proptest::prop_assert_eq!(s.k, one_shot.k);
            // … and of the recovered key at several thresholds.
            for th in [0.0, 0.01, 0.25] {
                proptest::prop_assert_eq!(s.recover_key(th), one_shot.recover_key(th));
            }
        }
    }
}

/// Serialize the `Trained` checkpoint, reload it, re-score: scores and
/// recovered key must be bit-identical — including when the reload
/// scores with a different thread count than the original.
#[test]
fn trained_checkpoint_round_trip_rescores_identically() {
    let design = muxlink_benchgen::synth::SynthConfig::new("ckpt", 14, 6, 230).generate(77);
    let locked = dmux::lock(&design, &LockOptions::new(6, 4)).unwrap();
    let trained = AttackSession::new(&locked.netlist, &locked.key_input_names(), fast_cfg(1))
        .extract()
        .unwrap()
        .prepare(&NoProgress)
        .unwrap()
        .train(&NoProgress)
        .unwrap();
    let direct = trained.score(&NoProgress).unwrap();

    let json = serde_json::to_string(&trained).unwrap();
    let mut restored: Trained = serde_json::from_str(&json).unwrap();
    restored.cfg.threads = 4; // reload may score on a different pool
    let rescored = restored.score(&NoProgress).unwrap();

    assert_eq!(restored.report, trained.report, "report survives serde");
    assert_eq!(
        rescored.scores, direct.scores,
        "scores must be bit-identical"
    );
    for th in [0.0, 0.01, 1.0] {
        assert_eq!(
            rescored.recover_key(th),
            direct.recover_key(th),
            "recovered key diverged at th {th}"
        );
    }
}

/// Rewrites every matrix in a serialised checkpoint into the format
/// written before tensors were hex-encoded: `data` as a JSON array of
/// numbers. Returns how many matrices it rewrote.
fn to_legacy_matrices(v: &mut Value) -> usize {
    match v {
        Value::Map(entries) => {
            let is_matrix = entries.len() == 3
                && entries
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .eq(["rows", "cols", "data"])
                && matches!(entries[2].1, Value::Str(_));
            if is_matrix {
                let rows = usize::from_value(&entries[0].1).unwrap();
                let cols = usize::from_value(&entries[1].1).unwrap();
                let m = muxlink_gnn::Matrix::from_value(v).unwrap();
                assert_eq!(m.data().len(), rows * cols);
                let Value::Map(entries) = v else {
                    unreachable!()
                };
                entries[2].1 = m.data().to_vec().to_value();
                return 1;
            }
            entries.iter_mut().map(|(_, e)| to_legacy_matrices(e)).sum()
        }
        Value::Seq(items) => items.iter_mut().map(to_legacy_matrices).sum(),
        _ => 0,
    }
}

/// Checkpoints written before the hex tensor encoding (every matrix a
/// numeric array) still load, score bit-identically and re-encode to
/// exactly today's checkpoint text.
#[test]
fn legacy_array_checkpoint_loads_and_scores_identically() {
    let design = muxlink_benchgen::synth::SynthConfig::new("legacy", 14, 6, 230).generate(78);
    let locked = dmux::lock(&design, &LockOptions::new(6, 4)).unwrap();
    let trained = AttackSession::new(&locked.netlist, &locked.key_input_names(), fast_cfg(1))
        .extract()
        .unwrap()
        .prepare(&NoProgress)
        .unwrap()
        .train(&NoProgress)
        .unwrap();
    let direct = trained.score(&NoProgress).unwrap();
    let json = serde_json::to_string(&trained).unwrap();

    let mut legacy = serde_json::from_str::<Value>(&json).unwrap();
    let rewritten = to_legacy_matrices(&mut legacy);
    assert!(rewritten >= 3, "weights and both Adam moments: {rewritten}");
    let legacy = serde_json::to_string(&legacy).unwrap();
    assert!(
        legacy.len() > json.len(),
        "decimal arrays are the larger form"
    );

    let restored: Trained = serde_json::from_str(&legacy).unwrap();
    let rescored = restored.score(&NoProgress).unwrap();
    assert_eq!(
        rescored.scores, direct.scores,
        "scores must be bit-identical"
    );
    assert_eq!(rescored.recover_key(0.01), direct.recover_key(0.01));
    assert_eq!(serde_json::to_string(&restored).unwrap(), json);
}
