//! Figure 8 regenerator: output Hamming distance between the original
//! designs and the designs recovered by MuxLink from D-MUX locking
//! (paper: 100 000 random patterns per design, X bits averaged over the
//! remaining assignments; average HD 3.39 % on ISCAS-85).
//!
//! Run: `cargo run --release -p muxlink-bench --bin fig8_hamming`

use muxlink_bench::runner::{run_attack, Scheme};
use muxlink_bench::{maybe_write_json, HarnessOptions, Table};
use muxlink_core::metrics::hamming_with_guess;
use rayon::prelude::*;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct Fig8Row {
    bench: String,
    key_size: usize,
    ac: f64,
    x_bits: usize,
    hd_percent: f64,
}

fn main() {
    let opts = HarnessOptions::parse(std::env::args().skip(1));
    let cfg = opts.attack_config();
    let suite = opts.iscas85();
    let patterns = opts.hd_patterns();

    let jobs: Vec<(muxlink_benchgen::Profile, usize)> = suite
        .profiles
        .iter()
        .flat_map(|p| {
            opts.iscas_key_sizes()
                .into_iter()
                .filter(|&k| !(p.name == "c1355" && k == 256))
                .map(|k| (p.clone(), k))
        })
        .collect();

    eprintln!("fig8: {} attack+simulate jobs …", jobs.len());
    let seed = opts.seed;
    let rows: Vec<Option<Fig8Row>> = jobs
        .par_iter()
        .map(|&(ref profile, k)| {
            let (res, scored, locked, design) =
                match run_attack("ISCAS-85", profile, Scheme::DMux, k, &cfg, seed) {
                    Ok(x) => x,
                    Err(e) => {
                        eprintln!("warning: {e}");
                        return None;
                    }
                };
            let guess = scored.recover_key(cfg.th);
            let x_bits = guess
                .iter()
                .filter(|v| **v == muxlink_locking::KeyValue::X)
                .count();
            let hd = hamming_with_guess(&design, &locked, &guess, patterns, 10, seed)
                .expect("matching interfaces by construction");
            Some(Fig8Row {
                bench: profile.name.clone(),
                key_size: res.key_size,
                ac: res.ac,
                x_bits,
                hd_percent: hd,
            })
        })
        .collect();
    let rows: Vec<Fig8Row> = rows.into_iter().flatten().collect();

    let mut table = Table::new(&["bench", "K", "AC%", "X bits", "HD%"]);
    for r in &rows {
        table.row(vec![
            r.bench.clone(),
            r.key_size.to_string(),
            format!("{:.2}", r.ac),
            r.x_bits.to_string(),
            format!("{:.2}", r.hd_percent),
        ]);
    }
    println!("Figure 8 — HD between original and MuxLink-recovered D-MUX designs");
    println!("{}", table.render());
    if !rows.is_empty() {
        let avg = rows.iter().map(|r| r.hd_percent).sum::<f64>() / rows.len() as f64;
        println!("average HD {avg:.2}%  (paper: 3.39% — attacker goal 0%, defender goal 50%)");
    }

    maybe_write_json(&opts, &rows);
}
