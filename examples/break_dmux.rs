//! The full attack story on an ISCAS-85-style benchmark: lock → attack →
//! score → reconstruct → measure output Hamming distance, for both D-MUX
//! and symmetric MUX locking.
//!
//! ```text
//! cargo run --release -p muxlink-examples --example break_dmux
//! ```

use muxlink_core::metrics::{hamming_with_guess, score_key};
use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress};
use muxlink_locking::{dmux, symmetric, KeyValue, LockOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled c1908 stand-in (see DESIGN.md for the substitution note).
    let profile = muxlink_benchgen::SyntheticSuite::iscas85()
        .scaled(0.25)
        .profiles[1]
        .clone();
    let design = profile.generate(3);
    println!(
        "benchmark {} (stand-in): {} gates",
        profile.name,
        design.gate_count()
    );

    let cfg = MuxLinkConfig::quick().with_seed(5);
    for (scheme, locked) in [
        ("D-MUX", dmux::lock(&design, &LockOptions::new(16, 2))?),
        (
            "Symmetric",
            symmetric::lock(&design, &LockOptions::new(16, 2))?,
        ),
    ] {
        println!("\n=== {scheme} ===");
        let guess = AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg.clone())
            .run(&NoProgress)?
            .recover_key(cfg.th);
        let m = score_key(&guess, &locked.key);
        let guessed: String = guess.iter().map(ToString::to_string).collect();
        println!("  true key:  {}", locked.key);
        println!("  recovered: {guessed}");
        println!(
            "  AC {:.1}%  PC {:.1}%  KPA {}",
            m.accuracy_pct(),
            m.precision_pct(),
            m.kpa_pct()
                .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.1}%"))
        );

        let hd = hamming_with_guess(&design, &locked, &guess, 10_000, 8, 1)?;
        println!("  output HD of the reconstruction: {hd:.2}% (attacker goal: 0%)");

        let x = guess.iter().filter(|v| **v == KeyValue::X).count();
        if x > 0 {
            println!("  ({x} undecided bits averaged over their assignments)");
        }
    }
    Ok(())
}
