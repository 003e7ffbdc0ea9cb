//! Figure 9 regenerator: MuxLink score versus the post-processing
//! threshold `th ∈ [0, 1]` (step 0.05). One trained model per design is
//! re-thresholded — no retraining, exactly as in the paper. Expected
//! shape: PC rises to 100 % at strict thresholds while the fraction of
//! decided bits falls (to ≈30 % in the paper).
//!
//! Run: `cargo run --release -p muxlink-bench --bin fig9_threshold`

use muxlink_bench::runner::{run_attack, Scheme};
use muxlink_bench::{maybe_write_json, pct_or_na, HarnessOptions, Table};
use muxlink_core::metrics::score_key;
use muxlink_locking::KeyValue;
use rayon::prelude::*;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct Fig9Row {
    scheme: String,
    th: f64,
    ac: f64,
    pc: f64,
    kpa: Option<f64>,
    decided_fraction: f64,
}

fn main() {
    let opts = HarnessOptions::parse(std::env::args().skip(1));
    let cfg = opts.attack_config();
    let suite = opts.iscas85();
    let key = opts.iscas_key_sizes()[0];

    // Train one model per benchmark × scheme; sweep th afterwards.
    let jobs: Vec<(muxlink_benchgen::Profile, Scheme)> = suite
        .profiles
        .iter()
        .flat_map(|p| {
            [Scheme::DMux, Scheme::Symmetric]
                .into_iter()
                .map(move |s| (p.clone(), s))
        })
        .collect();
    eprintln!("fig9: scoring {} designs …", jobs.len());
    let seed = opts.seed;
    let scored: Vec<Option<_>> = jobs
        .par_iter()
        .map(|&(ref profile, scheme)| {
            match run_attack("ISCAS-85", profile, scheme, key, &cfg, seed) {
                Ok((_, scored, locked, _)) => Some((scheme, scored, locked)),
                Err(e) => {
                    eprintln!("warning: {e}");
                    None
                }
            }
        })
        .collect();
    let scored: Vec<_> = scored.into_iter().flatten().collect();

    let thresholds: Vec<f64> = (0..=20).map(|i| f64::from(i) * 0.05).collect();
    let mut rows = Vec::new();
    for scheme in [Scheme::DMux, Scheme::Symmetric] {
        for &th in &thresholds {
            let mut acs = Vec::new();
            let mut pcs = Vec::new();
            let mut kpas = Vec::new();
            let mut decided = Vec::new();
            for (s, sd, locked) in &scored {
                if *s != scheme {
                    continue;
                }
                let guess = sd.recover_key(th);
                let m = score_key(&guess, &locked.key);
                acs.push(m.accuracy_pct());
                pcs.push(m.precision_pct());
                if let Some(k) = m.kpa_pct() {
                    kpas.push(k);
                }
                let x = guess.iter().filter(|v| **v == KeyValue::X).count();
                decided.push(1.0 - x as f64 / guess.len() as f64);
            }
            if acs.is_empty() {
                continue;
            }
            let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            rows.push(Fig9Row {
                scheme: scheme.label().to_owned(),
                th,
                ac: avg(&acs),
                pc: avg(&pcs),
                kpa: if kpas.is_empty() {
                    None
                } else {
                    Some(avg(&kpas))
                },
                decided_fraction: avg(&decided),
            });
        }
    }

    let mut table = Table::new(&["scheme", "th", "AC%", "PC%", "KPA%", "decided"]);
    for r in &rows {
        table.row(vec![
            r.scheme.clone(),
            format!("{:.2}", r.th),
            format!("{:.2}", r.ac),
            format!("{:.2}", r.pc),
            pct_or_na(r.kpa),
            format!("{:.2}", r.decided_fraction),
        ]);
    }
    println!("Figure 9 — MuxLink under different post-processing thresholds");
    println!("{}", table.render());

    // Shape checks the paper highlights.
    for scheme in ["D-MUX", "Symmetric"] {
        let of_scheme: Vec<&Fig9Row> = rows.iter().filter(|r| r.scheme == scheme).collect();
        if let (Some(first), Some(last)) = (of_scheme.first(), of_scheme.last()) {
            println!(
                "{scheme}: PC {:.2}% @ th=0 → {:.2}% @ th=1; decided {:.2} → {:.2} \
                 (paper: PC → 100%, decided → ≈0.3)",
                first.pc, last.pc, first.decided_fraction, last.decided_fraction
            );
        }
    }

    maybe_write_json(&opts, &rows);
}
