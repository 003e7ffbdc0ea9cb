//! The layer profile of the traced run: every layer's public entry point
//! called on its own, from outside, on one design and its checkpoint.
//!
//! The scoring path is rebuilt from its parts: `SampleArena::extend_extract`
//! and `Dgcnn::predict_batch` over the same unique candidate links, in the
//! scorer's chunk size, must reproduce `Trained::score` bitwise, so the
//! breakdown provably times the work the scorer does.

use std::path::Path;

use muxlink_core::{DesignFingerprint, NoProgress, Trained};
use muxlink_gnn::{evaluate, ArenaSamples};
use muxlink_graph::dataset::{build_dataset_arena, DatasetConfig};
use muxlink_graph::{extract, Link, SampleArena};
use muxlink_netlist::bench_format;
use muxlink_serve::{
    parse_request, render_request, render_response, Engine, EngineOptions, Request, Response,
    SubmitOutcome, SubmitRequest,
};

use crate::designs::Design;
use crate::report::Outcome;
use crate::trace::Tracer;

/// Calls per cheap probe; the per-layer figure is their median.
const REPEAT: usize = 3;
/// Timed warm submits on the in-process engine.
const ENGINE_SUBMITS: usize = 5;

/// Counts the profile measured alongside its spans.
pub struct Profiled {
    pub trained: Trained,
    pub checkpoint_bytes: usize,
    pub train_samples: usize,
    pub candidate_links: usize,
    pub subgraph_nodes: usize,
    pub engine_hit_ratio: f64,
    pub engine_trainings: u64,
}

/// Whether two score vectors are identical bit for bit.
pub fn bitwise_equal(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// Profiles `design` from its checkpoint text `json` (decoded here, so
/// the decode is measured too). `dir` is scratch space for the engine's
/// disk tier.
pub fn layer_profile(
    t: &Tracer,
    design: &Design,
    json: &str,
    sreq: &SubmitRequest,
    thresholds: &[f64],
    dir: &Path,
    out: &mut Outcome,
) -> Result<Profiled, String> {
    let _profile = t.enter("profile");
    let trained: Trained = t
        .time("serde_json.checkpoint_decode", || {
            serde_json::from_str(json)
        })
        .map_err(|e| format!("checkpoint decode: {e}"))?;
    for _ in 0..REPEAT {
        let text = t.time("serde_json.checkpoint_encode", || {
            serde_json::to_string(&trained)
        });
        std::hint::black_box(text.map_err(|e| e.to_string())?);
    }
    for _ in 0..REPEAT {
        let n = t.time("netlist.parse", || {
            bench_format::parse("design", &design.text)
        });
        std::hint::black_box(n.map_err(|e| e.to_string())?);
    }
    let mut extracted = None;
    for _ in 0..REPEAT {
        let e = t.time("graphx.extract", || extract(&design.netlist, &design.names));
        extracted = Some(e.map_err(|e| e.to_string())?);
    }
    let extracted = extracted.expect("REPEAT > 0");
    let mut matches = true;
    for _ in 0..REPEAT {
        let fp = t.time("core.fingerprint", || {
            DesignFingerprint::of_netlist(&design.netlist, &design.names)
        });
        matches &= fp.map_err(|e| e.to_string())? == trained.fingerprint();
    }
    out.check(
        "profile fingerprint matches checkpoint",
        matches,
        design.label,
    );
    let mut verified = true;
    for _ in 0..REPEAT {
        let v = t.time("core.verify", || {
            trained.verify_design(&design.netlist, &design.names)
        });
        verified &= v.is_ok();
    }
    out.check("profile verify_design", verified, design.label);
    let mut scored = None;
    for _ in 0..REPEAT {
        let s = t.time("core.score", || trained.score(&NoProgress));
        scored = Some(s.map_err(|e| e.to_string())?);
    }
    let scored = scored.expect("REPEAT > 0");
    for _ in 0..REPEAT {
        let keys = t.time("core.recover_sweep", || {
            thresholds
                .iter()
                .map(|&th| scored.recover_key(th))
                .collect::<Vec<_>>()
        });
        std::hint::black_box(keys);
    }

    // The scorer, rebuilt from outside on a pool of the recipe's width.
    let cfg = &trained.cfg;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads.max(1))
        .build()
        .map_err(|e| e.to_string())?;
    let (links, probs, subgraph_nodes) = pool.install(|| {
        let mut unique: Vec<Link> = extracted.target_links();
        unique.sort_unstable();
        unique.dedup();
        let mut arena = SampleArena::new();
        let mut probs = Vec::with_capacity(unique.len());
        let mut nodes = 0usize;
        for chunk in unique.chunks(cfg.sample_chunk.max(1)) {
            arena.clear();
            let jobs: Vec<(Link, Option<bool>)> = chunk.iter().map(|&l| (l, None)).collect();
            t.time("graphx.subgraph_extract", || {
                arena.extend_extract(&trained.design.graph, &jobs, cfg.h, cfg.max_subgraph_nodes);
            });
            nodes += (0..arena.len())
                .map(|i| arena.node_count(arena.nth_handle(i)))
                .sum::<usize>();
            probs.extend(t.time("gnn.predict_batch", || {
                trained
                    .model
                    .predict_batch(&ArenaSamples::all(&arena, trained.max_label))
            }));
        }
        (unique, probs, nodes)
    });
    let rebuilt: Option<Vec<(f64, f64)>> = trained
        .design
        .muxes
        .iter()
        .map(|m| {
            let p = |l: Link| links.binary_search(&l).ok().map(|i| f64::from(probs[i]));
            Some((p(m.link0())?, p(m.link1())?))
        })
        .collect();
    out.check(
        "rebuilt scorer equals Trained::score bitwise",
        rebuilt.is_some_and(|r| bitwise_equal(&r, &scored.scores)),
        design.label,
    );

    let ds_cfg = DatasetConfig {
        h: cfg.h,
        max_train_links: cfg.max_train_links,
        val_fraction: cfg.val_fraction,
        max_subgraph_nodes: cfg.max_subgraph_nodes,
        seed: cfg.seed,
        chunk: cfg.sample_chunk,
    };
    let targets = extracted.target_links();
    let dataset = pool.install(|| {
        t.time("graphx.dataset_build", || {
            build_dataset_arena(&extracted.graph, &targets, &ds_cfg)
        })
    });
    let val = ArenaSamples::select(&dataset.arena, &dataset.val, trained.max_label);
    let (_, val_acc) = pool.install(|| t.time("gnn.evaluate", || evaluate(&trained.model, &val)));
    out.note(format!(
        "{}: validation accuracy {:.4} on {} held-out links",
        design.label,
        val_acc,
        dataset.val.len()
    ));

    let request = Request::Submit(sreq.clone());
    let line = render_request(&request);
    let mut parsed_back = true;
    for _ in 0..REPEAT {
        let parsed = t.time("serve.parse_request", || parse_request(&line));
        parsed_back &= parsed.is_ok_and(|r| r == request);
    }
    out.check("request line parses back", parsed_back, design.label);

    // A warmed in-process engine with no socket: its disk tier holds the
    // checkpoint, the first submit promotes it to memory, the timed ones
    // are memory hits.
    let cache_dir = dir.join(format!("engine-{}", design.label));
    std::fs::create_dir_all(&cache_dir).map_err(|e| e.to_string())?;
    std::fs::write(
        cache_dir.join(format!("{}.json", trained.fingerprint().to_hex())),
        json,
    )
    .map_err(|e| e.to_string())?;
    let engine = Engine::new(&EngineOptions {
        cache_dir: Some(cache_dir.clone()),
        cache_entries: 4,
        workers: 1,
    })
    .map_err(|e| e.to_string())?;
    let warm = |outcome: Result<SubmitOutcome, String>| match outcome {
        Ok(SubmitOutcome::Ready(r)) => Ok(r),
        Ok(SubmitOutcome::Queued { .. }) => Err("engine queued a training".to_owned()),
        Err(e) => Err(e),
    };
    warm(t.time("serve.engine_disk_hit", || engine.submit(sreq)))?;
    let before = engine.stats();
    let mut last = None;
    let mut identical = true;
    for _ in 0..ENGINE_SUBMITS {
        let r = warm(t.time("serve.engine_submit", || engine.submit(sreq)))?;
        identical &= r.cache_hit && bitwise_equal(&r.scores, &scored.scores);
        last = Some(r);
    }
    out.check(
        "engine warm submits hit with identical scores",
        identical,
        design.label,
    );
    let after = engine.stats();
    let lookups =
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
    let response = Response::Result(*last.expect("ENGINE_SUBMITS > 0"));
    for _ in 0..REPEAT {
        std::hint::black_box(t.time("serve.render_response", || render_response(&response)));
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&cache_dir);

    Ok(Profiled {
        checkpoint_bytes: json.len(),
        train_samples: dataset.train.len(),
        candidate_links: links.len(),
        subgraph_nodes,
        engine_hit_ratio: (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64,
        engine_trainings: after.trainings - before.trainings,
        trained,
    })
}
