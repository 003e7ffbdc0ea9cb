//! Threshold trade-off study on one design: sweep the post-processing
//! threshold `th` over a trained model (no retraining — the paper's
//! Fig. 9 methodology) and watch precision rise as the attack abstains
//! more, then pick a threshold and reconstruct the design.
//!
//! ```text
//! cargo run --release -p muxlink-examples --example hamming_recovery
//! ```

use muxlink_core::metrics::{hamming_with_guess, score_key};
use muxlink_core::{recover::resolve_x_with, AttackSession, MuxLinkConfig, NoProgress};
use muxlink_locking::{dmux, KeyValue, LockOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = muxlink_benchgen::synth::SynthConfig::new("soc_block", 18, 9, 400).generate(21);
    let locked = dmux::lock(&design, &LockOptions::new(16, 4))?;
    println!(
        "locked {} gates with K = {}; training one GNN, sweeping th …\n",
        design.gate_count(),
        locked.key.len()
    );

    let cfg = MuxLinkConfig::quick().with_seed(11);
    let scored =
        AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg).run(&NoProgress)?;

    println!("   th   AC%     PC%     decided");
    for i in 0..=10 {
        let th = f64::from(i) * 0.1;
        let guess = scored.recover_key(th);
        let m = score_key(&guess, &locked.key);
        let decided = guess.iter().filter(|v| **v != KeyValue::X).count();
        println!(
            "  {th:.2}  {:6.2}  {:6.2}  {decided:>2}/{}",
            m.accuracy_pct(),
            m.precision_pct(),
            guess.len()
        );
    }

    // Reconstruct at the paper's default threshold; a pragmatic attacker
    // fills undecided bits with a constant before fabricating a clone.
    let guess = scored.recover_key(0.01);
    let hd_avg = hamming_with_guess(&design, &locked, &guess, 10_000, 8, 0)?;
    let filled = resolve_x_with(&guess, false);
    let clone = muxlink_core::recover::reconstruct(&locked, &filled)?;
    println!(
        "\nreconstruction at th = 0.01: avg HD {hd_avg:.2}%; clone has {} gates",
        clone.gate_count()
    );
    Ok(())
}
