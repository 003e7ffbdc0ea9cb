//! Ablation: attack quality versus the benchmark generator's
//! reconvergent-fanout probability — the experiment that validates the
//! synthetic-benchmark substitution (DESIGN.md §2).
//!
//! MuxLink's premise is that MUX locking leaves the *global* structure of
//! a synthesised design intact and that local structure identifies true
//! wires. Synthesised logic is heavily reconvergent; a naive random DAG is
//! not, and on such graphs the attack (and every proximity heuristic)
//! collapses to a coin flip. This binary sweeps `reconvergence_prob` and
//! reports the attack's KPA, demonstrating where the paper's behaviour
//! switches on.
//!
//! Run: `cargo run --release -p muxlink-bench --bin ablation_reconvergence`

use muxlink_bench::runner::Scheme;
use muxlink_bench::{maybe_write_json, pct_or_na, HarnessOptions, Table};
use muxlink_core::metrics::score_key;
use muxlink_core::{AttackSession, NoProgress};
use rayon::prelude::*;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct ReconvRow {
    reconvergence_prob: f64,
    ac: f64,
    pc: f64,
    kpa: Option<f64>,
}

fn main() {
    let opts = HarnessOptions::parse(std::env::args().skip(1));
    let cfg = opts.attack_config();
    let key = opts.key_size.unwrap_or(16);
    let gates = if opts.paper_scale { 2000 } else { 400 };

    let probs = [0.0f64, 0.2, 0.45, 0.65, 0.8];
    let seed = opts.seed;
    let rows: Vec<Option<ReconvRow>> = probs
        .par_iter()
        .map(|&p| {
            let mut synth =
                muxlink_benchgen::synth::SynthConfig::new(format!("reconv_{p}"), 16, 8, gates);
            synth.reconvergence_prob = p;
            let design = synth.generate(seed);
            let locked = Scheme::DMux
                .lock_fitting(&design, key, seed ^ 0xACE)
                .expect("synthetic benchmarks lock");
            match AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
                .run(&NoProgress)
            {
                Ok(scored) => {
                    let m = score_key(&scored.recover_key(cfg.th), &locked.key);
                    Some(ReconvRow {
                        reconvergence_prob: p,
                        ac: m.accuracy_pct(),
                        pc: m.precision_pct(),
                        kpa: m.kpa_pct(),
                    })
                }
                Err(e) => {
                    eprintln!("warning: p={p}: {e}");
                    None
                }
            }
        })
        .collect();
    let rows: Vec<ReconvRow> = rows.into_iter().flatten().collect();

    let mut table = Table::new(&["reconv p", "AC%", "PC%", "KPA%"]);
    for r in &rows {
        table.row(vec![
            format!("{:.2}", r.reconvergence_prob),
            format!("{:.2}", r.ac),
            format!("{:.2}", r.pc),
            pct_or_na(r.kpa),
        ]);
    }
    println!("Ablation — MuxLink vs generator reconvergence (D-MUX, {gates} gates, K={key})");
    println!("{}", table.render());
    println!("expectation: near-random at p = 0 (structureless DAG), paper-like at p ≥ 0.45");
    maybe_write_json(&opts, &rows);
}
