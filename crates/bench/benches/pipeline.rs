//! End-to-end Criterion benchmarks: one small MuxLink attack per scheme
//! (the per-design cost behind Figs. 7–10) and the SCOPE/SAAM baselines
//! (Fig. 2 / the SAAM background experiment).

use criterion::{criterion_group, criterion_main, Criterion};

use muxlink_attack_baselines::{saam_attack, scope_attack, ScopeConfig};
use muxlink_benchgen::synth::SynthConfig;
use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress};
use muxlink_locking::{dmux, naive_mux, symmetric, KeyValue, LockOptions, LockedNetlist};

fn attack(locked: &LockedNetlist, cfg: &MuxLinkConfig) -> Vec<KeyValue> {
    AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
        .run(&NoProgress)
        .unwrap()
        .recover_key(cfg.th)
}

fn bench_muxlink_attack(c: &mut Criterion) {
    let design = SynthConfig::new("p", 16, 8, 250).generate(1);
    let dmux_locked = dmux::lock(&design, &LockOptions::new(8, 2)).unwrap();
    let sym_locked = symmetric::lock(&design, &LockOptions::new(8, 2)).unwrap();
    let mut cfg = MuxLinkConfig::quick();
    cfg.epochs = 4; // keep the bench itself snappy
    cfg.max_train_links = 200;

    let mut group = c.benchmark_group("muxlink_end_to_end");
    group.sample_size(10);
    group.bench_function("dmux_250_gates_k8", |b| {
        b.iter(|| attack(&dmux_locked, &cfg));
    });
    group.bench_function("symmetric_250_gates_k8", |b| {
        b.iter(|| attack(&sym_locked, &cfg));
    });
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let design = SynthConfig::new("p", 16, 8, 250).generate(3);
    let dmux_locked = dmux::lock(&design, &LockOptions::new(8, 4)).unwrap();
    let naive_locked = naive_mux::lock(&design, &LockOptions::new(8, 4)).unwrap();

    let mut group = c.benchmark_group("baseline_attacks");
    group.sample_size(10);
    group.bench_function("scope_dmux_k8", |b| {
        b.iter(|| {
            scope_attack(
                &dmux_locked.netlist,
                &dmux_locked.key_input_names(),
                &ScopeConfig::default(),
            )
            .unwrap()
        });
    });
    group.bench_function("saam_naive_k8", |b| {
        b.iter(|| saam_attack(&naive_locked.netlist, &naive_locked.key_input_names()).unwrap());
    });
    group.finish();
}

criterion_group!(pipeline, bench_muxlink_attack, bench_baselines);
criterion_main!(pipeline);
