//! Quickstart: lock a small design with D-MUX, break it with MuxLink,
//! score the recovered key.
//!
//! ```text
//! cargo run --release -p muxlink-examples --example quickstart
//! ```

use muxlink_core::{metrics::score_key, AttackSession, MuxLinkConfig, NoProgress};
use muxlink_locking::{dmux, LockOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The victim design: a synthetic 300-gate combinational circuit
    //    (swap in any BENCH file via muxlink_netlist::bench_format::parse).
    let design = muxlink_benchgen::synth::SynthConfig::new("demo", 16, 8, 300).generate(42);
    println!(
        "original design: {} gates, {} inputs, {} outputs",
        design.gate_count(),
        design.inputs().len(),
        design.outputs().len()
    );

    // 2. The defender locks it with D-MUX (eD-MUX policy, K = 16).
    let locked = dmux::lock(&design, &LockOptions::new(16, 7))?;
    println!(
        "locked with D-MUX: K = {}, +{} gates, correct key = {}",
        locked.key.len(),
        locked.gate_overhead(design.gate_count()),
        locked.key
    );

    // 3. The attacker sees only the locked netlist and the key-input
    //    names. MuxLink trains a DGCNN on the design's own wires and
    //    predicts the true MUX connections.
    let cfg = MuxLinkConfig::quick(); // CPU-friendly; ::paper() for full scale
    let scored = AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
        .run(&NoProgress)?;
    let guess = scored.recover_key(cfg.th);

    // 4. Score against the ground truth the defender kept.
    let m = score_key(&guess, &locked.key);
    let key: String = guess.iter().map(ToString::to_string).collect();
    println!("recovered key: {key}");
    println!(
        "AC {:.2}%  PC {:.2}%  KPA {}  (correct {}, X {}, total {})",
        m.accuracy_pct(),
        m.precision_pct(),
        m.kpa_pct()
            .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.2}%")),
        m.correct,
        m.x_count,
        m.total
    );
    println!(
        "GNN val accuracy {:.2}%, pipeline time {:.2?}",
        scored.train_report.best_val_accuracy * 100.0,
        scored.timings.total()
    );
    Ok(())
}
