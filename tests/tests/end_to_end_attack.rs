//! The paper's headline claim as an integration test: MuxLink breaks the
//! MUX-locking schemes that SWEEP, SCOPE and SAAM cannot.

use muxlink_attack_baselines::{saam_attack, scope_attack, ScopeConfig};
use muxlink_core::metrics::{hamming_with_guess, score_key};
use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress};
use muxlink_integration_tests::test_design;
use muxlink_locking::{dmux, symmetric, KeyValue, LockOptions, LockedNetlist};

/// Runs the whole MuxLink pipeline and recovers the key at `cfg.th`.
fn muxlink_guess(locked: &LockedNetlist, cfg: &MuxLinkConfig) -> Vec<KeyValue> {
    AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
        .run(&NoProgress)
        .unwrap()
        .recover_key(cfg.th)
}

#[test]
fn muxlink_beats_the_classical_attacks_on_dmux() {
    let design = test_design(500, 3);
    let locked = dmux::lock(&design, &LockOptions::new(16, 9)).unwrap();

    // Classical structural attack: blind.
    let saam = saam_attack(&locked.netlist, &locked.key_input_names()).unwrap();
    assert!(
        saam.iter().all(|v| *v == KeyValue::X),
        "SAAM must abstain on D-MUX"
    );

    // Constant propagation: coin flip at best.
    let scope = scope_attack(
        &locked.netlist,
        &locked.key_input_names(),
        &ScopeConfig::default(),
    )
    .unwrap();
    let scope_m = score_key(&scope, &locked.key);
    let scope_kpa = scope_m.kpa().unwrap_or(0.5);

    // MuxLink.
    let cfg = MuxLinkConfig::quick().with_seed(4);
    let guess = muxlink_guess(&locked, &cfg);
    let mux_m = score_key(&guess, &locked.key);
    let mux_kpa = mux_m.kpa().unwrap_or(0.0);

    assert!(
        mux_kpa > 0.6,
        "MuxLink KPA should clearly beat random, got {mux_kpa}"
    );
    assert!(
        mux_kpa > scope_kpa - 0.05,
        "MuxLink ({mux_kpa}) must not lose to SCOPE ({scope_kpa})"
    );
}

#[test]
fn muxlink_breaks_symmetric_locking_too() {
    let design = test_design(500, 5);
    let locked = symmetric::lock(&design, &LockOptions::new(16, 2)).unwrap();
    let cfg = MuxLinkConfig::quick().with_seed(8);
    let guess = muxlink_guess(&locked, &cfg);
    let m = score_key(&guess, &locked.key);
    assert!(
        m.kpa().unwrap_or(0.0) > 0.6,
        "KPA on S5 should beat random, got {:?}",
        m.kpa()
    );
}

#[test]
fn recovered_design_is_close_to_original() {
    // Fig. 8's logic: the reconstruction's output HD should be far below
    // the ~50% a random key would give.
    let design = test_design(400, 7);
    let locked = dmux::lock(&design, &LockOptions::new(12, 1)).unwrap();
    let cfg = MuxLinkConfig::quick().with_seed(2);
    let guess = muxlink_guess(&locked, &cfg);
    let hd = hamming_with_guess(&design, &locked, &guess, 4096, 8, 0).unwrap();

    let inverted: Vec<KeyValue> = locked
        .key
        .bits()
        .iter()
        .map(|&b| KeyValue::from_bool(!b))
        .collect();
    let hd_wrong = hamming_with_guess(&design, &locked, &inverted, 4096, 8, 0).unwrap();
    assert!(
        hd < hd_wrong,
        "recovered HD {hd:.2}% should beat fully-wrong {hd_wrong:.2}%"
    );
}

#[test]
fn attack_scales_with_benchmark_size() {
    // The Fig. 7 trend at miniature scale: a larger design must not do
    // (much) worse than a small one.
    let cfg = MuxLinkConfig::quick().with_seed(6);
    let mut kpas = Vec::new();
    for gates in [250usize, 700] {
        let design = test_design(gates, 11);
        let locked = dmux::lock(&design, &LockOptions::new(12, 3)).unwrap();
        let guess = muxlink_guess(&locked, &cfg);
        let m = score_key(&guess, &locked.key);
        kpas.push(m.kpa().unwrap_or(0.0));
    }
    assert!(
        kpas[1] >= kpas[0] - 0.25,
        "bigger design should hold up: {kpas:?}"
    );
}
