//! Threat-model comparison on one D-MUX-locked design:
//!
//! * the **oracle-guided SAT attack** (needs a working chip) — breaks the
//!   lock exactly, in a handful of distinguishing-input queries;
//! * **oracle-less MuxLink** (structure only) — recovers most of the key
//!   with no chip at all, which is the paper's threat model.
//!
//! ```text
//! cargo run --release -p muxlink-examples --example oracle_vs_oracleless
//! ```

use muxlink_core::metrics::score_key;
use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress};
use muxlink_locking::{dmux, KeyValue, LockOptions};
use muxlink_sat::{sat_attack, SatAttackConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = muxlink_benchgen::synth::SynthConfig::new("asic_block", 14, 7, 220).generate(8);
    let locked = dmux::lock(&design, &LockOptions::new(12, 3))?;
    println!(
        "design: {} gates, locked with D-MUX K = {}\n",
        design.gate_count(),
        locked.key.len()
    );

    // Oracle-guided: the attacker bought a working chip.
    let t = std::time::Instant::now();
    let sat = sat_attack(
        &locked.netlist,
        &locked.key_input_names(),
        &design,
        &SatAttackConfig::default(),
    )?;
    println!(
        "SAT attack (oracle-guided): functionally correct = {} after {} DIPs ({:.2?})",
        sat.functionally_correct,
        sat.dip_count,
        t.elapsed()
    );

    // Oracle-less: the attacker is inside the fab, GDSII only.
    let t = std::time::Instant::now();
    let cfg = MuxLinkConfig::quick().with_seed(4);
    let guess = AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
        .run(&NoProgress)?
        .recover_key(cfg.th);
    let m = score_key(&guess, &locked.key);
    let decided = guess.iter().filter(|v| **v != KeyValue::X).count();
    println!(
        "MuxLink (oracle-less):      AC {:.1}%  PC {:.1}%  ({decided}/{} decided, {:.2?})",
        m.accuracy_pct(),
        m.precision_pct(),
        guess.len(),
        t.elapsed()
    );
    println!(
        "\nThe SAT attack is exact but needs hardware; MuxLink needs nothing\n\
         but the layout — the gap the 'learning-resilient' schemes thought\n\
         they had closed."
    );
    Ok(())
}
