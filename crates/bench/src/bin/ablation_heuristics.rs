//! Ablation: the trained DGCNN versus classic link-prediction heuristics
//! on the same locked designs — the "learned heuristics beat hand-crafted
//! ones" argument underlying MuxLink's choice of SEAL-style link
//! prediction.
//!
//! Run: `cargo run --release -p muxlink-bench --bin ablation_heuristics`

use muxlink_bench::runner::Scheme;
use muxlink_bench::{maybe_write_json, pct_or_na, HarnessOptions, Table};
use muxlink_core::metrics::score_key;
use muxlink_core::{score_design_with_heuristic, AttackSession, NoProgress};
use muxlink_graph::heuristics::Heuristic;
use rayon::prelude::*;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct AblationRow {
    scorer: String,
    ac: f64,
    pc: f64,
    kpa: Option<f64>,
    seconds: f64,
}

fn main() {
    let opts = HarnessOptions::parse(std::env::args().skip(1));
    let cfg = opts.attack_config();
    let suite = opts.iscas85();
    let key = opts.iscas_key_sizes()[0];

    // Lock each benchmark once; score with every method.
    let seed = opts.seed;
    let results: Vec<_> = suite
        .profiles
        .par_iter()
        .map(|profile| {
            let design = profile.generate(seed);
            let locked = Scheme::DMux
                .lock_fitting(&design, key, seed ^ 0xBEEF)
                .expect("synthetic benchmarks lock");
            let names = locked.key_input_names();

            let mut per_scorer = Vec::new();
            let t0 = std::time::Instant::now();
            if let Ok(scored) =
                AttackSession::new(&locked.netlist, &names, cfg.clone()).run(&NoProgress)
            {
                let m = score_key(&scored.recover_key(cfg.th), &locked.key);
                per_scorer.push(("DGCNN".to_owned(), m, t0.elapsed().as_secs_f64()));
            }
            for h in Heuristic::ALL {
                let t = std::time::Instant::now();
                if let Ok(scored) = score_design_with_heuristic(&locked.netlist, &names, h) {
                    let m = score_key(&scored.recover_key(cfg.th), &locked.key);
                    per_scorer.push((h.name().to_owned(), m, t.elapsed().as_secs_f64()));
                }
            }
            per_scorer
        })
        .collect();

    // Aggregate per scorer across benchmarks.
    let mut names: Vec<String> = vec!["DGCNN".to_owned()];
    names.extend(Heuristic::ALL.iter().map(|h| h.name().to_owned()));
    let mut rows = Vec::new();
    for name in names {
        let entries: Vec<_> = results
            .iter()
            .flatten()
            .filter(|(n, _, _)| *n == name)
            .collect();
        if entries.is_empty() {
            continue;
        }
        let n = entries.len() as f64;
        let kpas: Vec<f64> = entries.iter().filter_map(|(_, m, _)| m.kpa_pct()).collect();
        rows.push(AblationRow {
            scorer: name,
            ac: entries
                .iter()
                .map(|(_, m, _)| m.accuracy_pct())
                .sum::<f64>()
                / n,
            pc: entries
                .iter()
                .map(|(_, m, _)| m.precision_pct())
                .sum::<f64>()
                / n,
            kpa: if kpas.is_empty() {
                None
            } else {
                Some(kpas.iter().sum::<f64>() / kpas.len() as f64)
            },
            seconds: entries.iter().map(|(_, _, s)| s).sum::<f64>(),
        });
    }

    let mut table = Table::new(&["scorer", "avg AC%", "avg PC%", "avg KPA%", "total sec"]);
    for r in &rows {
        table.row(vec![
            r.scorer.clone(),
            format!("{:.2}", r.ac),
            format!("{:.2}", r.pc),
            pct_or_na(r.kpa),
            format!("{:.2}", r.seconds),
        ]);
    }
    println!("Ablation — DGCNN vs hand-crafted link-prediction heuristics (D-MUX)");
    println!("{}", table.render());
    maybe_write_json(&opts, &rows);
}
