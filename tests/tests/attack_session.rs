//! Cross-crate contract of the staged attack-session API: the chain
//! `extract → prepare → train → score → recover` must be **bitwise
//! identical** to `AttackSession::run`, at any thread count, and
//! a serialized `Trained` checkpoint must reload to identical scores and
//! an identical recovered key.

use std::sync::OnceLock;

use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress, ScoredDesign, Trained};
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

    /// Staged session == one-call `AttackSession::run`, bit for bit, at 1 and
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
        let one_shot = AttackSession::new(&locked.netlist, &locked.key_input_names(), fast_cfg(1))
            .run(&NoProgress)
            .expect("one-call attack");

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

/// One trained checkpoint shared by the checkpoint-format tests: its
/// direct scores and its JSON text.
fn checkpoint_fixture() -> &'static (ScoredDesign, String) {
    static FIXTURE: OnceLock<(ScoredDesign, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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
        (direct, serde_json::to_string(&trained).unwrap())
    })
}

/// Checkpoints written before the hex tensor encoding (every matrix a
/// numeric array) still load, score bit-identically and re-encode to
/// exactly today's checkpoint text.
#[test]
fn legacy_array_checkpoint_loads_and_scores_identically() {
    let (direct, json) = checkpoint_fixture();
    let json = json.as_str();

    let mut legacy = serde_json::from_str::<Value>(json).unwrap();
    let rewritten = to_legacy_matrices(&mut legacy);
    assert!(rewritten >= 3, "every weight tensor: {rewritten}");
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

/// Rewrites a checkpoint into the format written while the model
/// carried its Adam moments and the design graph its propagation
/// scales: `m` and `v` after every weight tensor `w`, `scales` after
/// every CSR's `offsets` and `neighbors`. Returns how many tensors and
/// graphs it rewrote.
fn to_moments_and_scales_format(v: &mut Value) -> (usize, usize) {
    match v {
        Value::Map(entries) => {
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            if keys == ["w"] {
                // Any matrix of the weights' shape stands for a moment;
                // a reader must ignore it whatever it holds.
                let w = entries[0].1.clone();
                entries.push(("m".to_owned(), w.clone()));
                entries.push(("v".to_owned(), w));
                return (1, 0);
            }
            if keys == ["offsets", "neighbors"] {
                let offsets = Vec::<u32>::from_value(&entries[0].1).unwrap();
                let scales: Vec<f32> = offsets
                    .windows(2)
                    .map(|w| 1.0 / (1.0 + (w[1] - w[0]) as f32))
                    .collect();
                entries.push(("scales".to_owned(), scales.to_value()));
                return (0, 1);
            }
            entries
                .iter_mut()
                .map(|(_, e)| to_moments_and_scales_format(e))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        }
        Value::Seq(items) => items
            .iter_mut()
            .map(to_moments_and_scales_format)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
        _ => (0, 0),
    }
}

/// Checkpoints written with the Adam moments and the CSR scales still
/// load, re-encode to exactly today's (weights-only, scale-free) text
/// and score bit-identically.
#[test]
fn moments_and_scales_checkpoint_loads_and_scores_identically() {
    let (direct, json) = checkpoint_fixture();
    for key in ["\"m\":", "\"v\":", "\"scales\":"] {
        assert!(!json.contains(key), "today's checkpoint writes no {key}");
    }
    let mut legacy = serde_json::from_str::<Value>(json).unwrap();
    let (tensors, graphs) = to_moments_and_scales_format(&mut legacy);
    assert_eq!(
        (tensors, graphs),
        (12, 1),
        "every weight tensor, the design graph"
    );
    let legacy = serde_json::to_string(&legacy).unwrap();

    let restored: Trained = serde_json::from_str(&legacy).unwrap();
    assert_eq!(&serde_json::to_string(&restored).unwrap(), json);
    let rescored = restored.score(&NoProgress).unwrap();
    assert_eq!(
        rescored.scores, direct.scores,
        "scores must be bit-identical"
    );
    assert_eq!(rescored.recover_key(0.01), direct.recover_key(0.01));
}

/// The checkpoint with one top-level field replaced, decoded: the error
/// text, or a panic when it still loads.
fn tampered(field: &str, value: Value) -> String {
    let mut v = serde_json::from_str::<Value>(&checkpoint_fixture().1).unwrap();
    let Value::Map(entries) = &mut v else {
        panic!("a checkpoint is a map")
    };
    entries.iter_mut().find(|(k, _)| k == field).unwrap().1 = value;
    serde_json::from_str::<Trained>(&serde_json::to_string(&v).unwrap())
        .expect_err("a tampered checkpoint must be refused")
        .to_string()
}

/// A `max_label` that gives a feature width other than the model's
/// input width is refused on load, naming the field — scoring with it
/// would panic in the batched forward.
#[test]
fn tampered_max_label_is_refused() {
    let restored: Trained = serde_json::from_str(&checkpoint_fixture().1).unwrap();
    for max_label in [restored.max_label + 1, restored.max_label - 1, 50, u32::MAX] {
        let err = tampered("max_label", max_label.to_value());
        assert!(
            err.contains(&format!("`max_label` is {max_label}")),
            "{err}"
        );
    }
}

/// A `k` other than the model's SortPool size is refused on load,
/// naming the field — scoring would otherwise ignore it.
#[test]
fn tampered_k_is_refused() {
    let restored: Trained = serde_json::from_str(&checkpoint_fixture().1).unwrap();
    for k in [0, restored.k + 1, 100_000] {
        let err = tampered("k", k.to_value());
        assert!(err.contains(&format!("`k` is {k}")), "{err}");
    }
}

/// A checkpoint edited consistently on both sides of the `max_label`
/// check — `max_label` 50 and `model.cfg.input_dim` 59, its feature
/// width — is refused on load because the model's first weight tensor
/// keeps its trained shape; scoring it would read only part of `W_0`.
#[test]
fn consistent_max_label_and_input_width_edit_is_refused() {
    let restored: Trained = serde_json::from_str(&checkpoint_fixture().1).unwrap();
    let trained_dim = restored.model.config().input_dim;
    assert_ne!(restored.max_label, 50, "the edit must change the width");
    let mut v = serde_json::from_str::<Value>(&checkpoint_fixture().1).unwrap();
    let Value::Map(top) = &mut v else {
        panic!("a checkpoint is a map")
    };
    for (key, value) in top.iter_mut() {
        match key.as_str() {
            "max_label" => *value = 50u32.to_value(),
            "model" => {
                let Value::Map(model) = value else {
                    panic!("`model` is a map")
                };
                let Value::Map(cfg) = &mut model.iter_mut().find(|(k, _)| k == "cfg").unwrap().1
                else {
                    panic!("`model.cfg` is a map")
                };
                cfg.iter_mut().find(|(k, _)| k == "input_dim").unwrap().1 = 59usize.to_value();
            }
            _ => {}
        }
    }
    let err = serde_json::from_str::<Trained>(&serde_json::to_string(&v).unwrap())
        .expect_err("a consistently edited checkpoint must be refused")
        .to_string();
    assert!(
        err.contains(&format!(
            "`gc[0]` has shape {trained_dim}×32, but `cfg` gives 59×32"
        )),
        "{err}"
    );
}

/// Design identity covers the whole extracted design: a checkpoint is
/// refused for a netlist whose only difference is one gate type or one
/// wire outside every key-MUX cone (the key-MUX structure is identical,
/// so a MUX-only check would accept it and score the wrong graph), and
/// still verifies for a `rename_wires` rewrite of its own netlist.
#[test]
fn verify_design_refuses_gate_type_and_rewiring_changes() {
    use muxlink_core::{AttackError, DesignFingerprint};
    use muxlink_integration_tests::{first_and_to_or, rewire_outside_mux_cones};
    use muxlink_netlist::bench_format;
    use muxlink_netlist::passes::{Pass, RenameWires};

    let design = muxlink_benchgen::synth::SynthConfig::new("ident", 14, 6, 200).generate(41);
    let locked = dmux::lock(&design, &LockOptions::new(6, 3)).unwrap();
    let names = locked.key_input_names();
    // Trained on the netlist as its `.bench` text reads back, so that the
    // edited texts below differ from it in the edit alone.
    let bench = bench_format::write(&locked.netlist).unwrap();
    let netlist = bench_format::parse("ident", &bench).unwrap();
    let mut cfg = fast_cfg(1);
    cfg.epochs = 2;
    let trained = AttackSession::new(&netlist, &names, cfg)
        .extract()
        .unwrap()
        .prepare(&NoProgress)
        .unwrap()
        .train(&NoProgress)
        .unwrap();
    let origin = DesignFingerprint::of_netlist(&netlist, &names).unwrap();
    assert_eq!(trained.fingerprint(), origin);

    let mut renamed = netlist.clone();
    RenameWires::new(9).run(&mut renamed).unwrap();
    assert_ne!(bench_format::write(&renamed).unwrap(), bench);
    trained
        .verify_design(&renamed, &names)
        .expect("a renamed netlist is the same design");
    assert_eq!(
        DesignFingerprint::of_netlist(&renamed, &names).unwrap(),
        origin
    );

    for (what, text) in [
        ("gate type", first_and_to_or(&bench)),
        ("rewiring", rewire_outside_mux_cones(&bench)),
    ] {
        let changed = bench_format::parse("changed", &text).unwrap();
        let ex = muxlink_graph::extract(&changed, &names).unwrap();
        assert_eq!(ex.muxes, trained.design.muxes, "{what}: MUXes untouched");
        assert_ne!(ex.graph, trained.design.graph, "{what}: the graph differs");
        assert_ne!(
            DesignFingerprint::of_netlist(&changed, &names).unwrap(),
            origin,
            "{what}"
        );
        let err = trained.verify_design(&changed, &names).unwrap_err();
        assert!(matches!(err, AttackError::Checkpoint(_)), "{what}: {err}");
    }
}
