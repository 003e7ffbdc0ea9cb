//! Figure 10 regenerator: MuxLink score and runtime as a function of the
//! enclosing-subgraph hop count `h ∈ {1, 2, 3, 4}` (paper: a jump from
//! h = 1 to h = 2, saturation for h ≥ 3, runtime growing steeply with h).
//!
//! Run: `cargo run --release -p muxlink-bench --bin fig10_hops`

use muxlink_bench::runner::{run_attack, Scheme};
use muxlink_bench::{maybe_write_json, pct_or_na, HarnessOptions, Table};
use rayon::prelude::*;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct Fig10Row {
    h: usize,
    ac: f64,
    pc: f64,
    kpa: Option<f64>,
    seconds: f64,
}

fn main() {
    let opts = HarnessOptions::parse(std::env::args().skip(1));
    let base_cfg = opts.attack_config();
    let suite = opts.iscas85();
    let key = opts.iscas_key_sizes()[0];

    let hops = [1usize, 2, 3, 4];
    let jobs: Vec<(muxlink_benchgen::Profile, usize)> = suite
        .profiles
        .iter()
        .flat_map(|p| hops.iter().map(move |&h| (p.clone(), h)))
        .collect();
    eprintln!("fig10: {} attack jobs …", jobs.len());
    let seed = opts.seed;
    type HopResult = (usize, f64, f64, Option<f64>, f64);
    let results: Vec<Option<HopResult>> = jobs
        .par_iter()
        .map(|&(ref profile, h)| {
            let cfg = base_cfg.clone().with_h(h);
            match run_attack("ISCAS-85", profile, Scheme::DMux, key, &cfg, seed) {
                Ok((res, _, _, _)) => Some((h, res.ac, res.pc, res.kpa, res.seconds)),
                Err(e) => {
                    eprintln!("warning: {e}");
                    None
                }
            }
        })
        .collect();

    let mut rows = Vec::new();
    for &h in &hops {
        let of_h: Vec<_> = results
            .iter()
            .flatten()
            .filter(|(rh, ..)| *rh == h)
            .collect();
        if of_h.is_empty() {
            continue;
        }
        let n = of_h.len() as f64;
        let kpas: Vec<f64> = of_h.iter().filter_map(|(_, _, _, k, _)| *k).collect();
        rows.push(Fig10Row {
            h,
            ac: of_h.iter().map(|(_, ac, ..)| ac).sum::<f64>() / n,
            pc: of_h.iter().map(|(_, _, pc, ..)| pc).sum::<f64>() / n,
            kpa: if kpas.is_empty() {
                None
            } else {
                Some(kpas.iter().sum::<f64>() / kpas.len() as f64)
            },
            seconds: of_h.iter().map(|(.., s)| s).sum::<f64>(),
        });
    }

    let mut table = Table::new(&["h", "AC%", "PC%", "KPA%", "total sec"]);
    for r in &rows {
        table.row(vec![
            r.h.to_string(),
            format!("{:.2}", r.ac),
            format!("{:.2}", r.pc),
            pct_or_na(r.kpa),
            format!("{:.1}", r.seconds),
        ]);
    }
    println!("Figure 10 — MuxLink performance and runtime vs h-hop size");
    println!("{}", table.render());

    if rows.len() >= 2 {
        println!(
            "h=1 AC {:.2}% → h=2 AC {:.2}% (paper: the big jump); runtime {:.1}s → {:.1}s at max h",
            rows[0].ac,
            rows[1].ac,
            rows[0].seconds,
            rows.last().unwrap().seconds
        );
    }

    maybe_write_json(&opts, &rows);
}
