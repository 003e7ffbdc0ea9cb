//! The three workloads. Each one runs its set-up, measures its operation
//! with tracing off for `--seconds`, checks every output, and — in the
//! traced run — runs one untraced and one traced operation followed by
//! the layer profile of its (largest) design.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use muxlink_core::metrics::score_key;
use muxlink_core::{AttackSession, NoProgress, Trained};
use muxlink_locking::KeyValue;
use muxlink_serve::{
    serve, Connection, Request, Response, ResultResponse, ServeOptions, StatsResponse,
    SubmitRequest, SweepRow,
};

use crate::affinity;
use crate::designs::{attack_config, submit_request, thresholds, Design, DesignSpec};
use crate::profile::{bitwise_equal, layer_profile, Profiled};
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::trace::Tracer;

/// Times the input preparation is repeated; `setup_s` takes the median.
const SETUP_REPEATS: usize = 3;
/// Closed-loop clients of fig7-cold and checkpoint-resume, one per core of
/// the 2-CPU reference host. Each core's speed on a shared host drifts on
/// its own, so two concurrent clients average two independent drifts.
const CLIENTS: usize = 2;
/// Fig7 submits and sweeps per large-design submit in one serve cycle.
const SMALL_PER_CYCLE: usize = 8;
/// The `op_p50_ms` bound of BENCHMARK.json: the traced operation's stage
/// spans must sum to the untraced operation wall within this share.
fn op_bound() -> f64 {
    #[derive(serde::Deserialize)]
    struct Metric {
        name: String,
        bound: f64,
    }
    #[derive(serde::Deserialize)]
    struct Spec {
        end_to_end: Vec<Metric>,
    }
    serde_json::from_str::<Spec>(include_str!("../../BENCHMARK.json"))
        .ok()
        .and_then(|s| s.end_to_end.into_iter().find(|m| m.name == "op_p50_ms"))
        .expect("BENCHMARK.json bounds op_p50_ms")
        .bound
}

/// One benchmark invocation.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub gen_seed: u64,
    pub lock_seed: u64,
    /// Scratch space inside the checkout, removed at the end.
    pub scratch: PathBuf,
}

impl Run {
    fn measuring(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() < self.seconds
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Loads the designs `SETUP_REPEATS` times; returns the last load and the
/// median preparation seconds.
fn prepare(specs: &[DesignSpec], t: &Tracer) -> Result<(Vec<Design>, f64), String> {
    let mut walls = Vec::new();
    let mut designs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        designs = t.time("setup.designs", || {
            specs
                .iter()
                .map(Design::load)
                .collect::<Result<Vec<_>, _>>()
        })?;
        walls.push(t0.elapsed().as_secs_f64());
    }
    Ok((designs, median(&walls)))
}

fn render_key(guess: &[KeyValue]) -> String {
    guess.iter().map(ToString::to_string).collect()
}

/// Correct bits of a rendered `0`/`1`/`X` key against the truth.
fn correct_bits(rendered: &str, design: &Design) -> usize {
    rendered
        .chars()
        .zip(design.key.bits())
        .filter(|&(c, &b)| c == if b { '1' } else { '0' })
        .count()
}

/// Closed-loop clients, each repeating `op` until the run's `--seconds`
/// are up (at least once each): `CLIENTS` of them, or one in a traced run,
/// which measures a single untraced operation. Returns every (latency ms,
/// result).
fn closed_loop<R: Send>(run: &Run, trace: bool, op: impl Fn() -> R + Sync) -> Vec<(f64, R)> {
    let start = Instant::now();
    let clients = if trace { 1 } else { CLIENTS };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    while done.is_empty() || (!trace && run.measuring(start)) {
                        let t0 = Instant::now();
                        let r = op();
                        done.push((ms(t0.elapsed()), r));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The end-to-end metrics; `lat_ms` are the latencies of the workload's
/// primary operation.
fn latency_metrics(out: &mut Outcome, setup_s: f64, lat_ms: &[f64], ac: f64) {
    out.metric("setup_s", setup_s, "s");
    out.metric("op_p50_ms", median(lat_ms), "ms");
    out.metric("ac_pct", ac, "%");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Traced-versus-untraced comparison of one operation: the overhead, the
/// share of the traced operation its stage spans cover, and how far
/// those spans are from the untraced wall, against [`op_bound`].
fn trace_overhead(t: &Tracer, untraced_s: f64, out: &mut Outcome) {
    let Some((traced_s, children_s)) = t.last_with_children("op") else {
        out.check("traced operation recorded", false, "no `op` span");
        return;
    };
    out.metric("trace.overhead_ms", (traced_s - untraced_s) * 1e3, "ms");
    out.metric("trace.coverage_pct", 100.0 * children_s / traced_s, "%");
    let drift = (children_s - untraced_s).abs() / untraced_s;
    let bound = op_bound();
    out.check(
        "stage spans cover the traced operation",
        children_s >= 0.9 * traced_s,
        format!("{:.1}% covered", 100.0 * children_s / traced_s),
    );
    out.note(format!(
        "stage spans sum {children_s:.4} s vs untraced op {untraced_s:.4} s: drift {:.1}% \
         ({} the {:.0}% bound)",
        100.0 * drift,
        if drift <= bound { "within" } else { "OUTSIDE" },
        100.0 * bound
    ));
}

/// The per-layer metrics of a traced run.
fn layer_metrics(t: &Tracer, p: &Profiled, serve_counts: (f64, u64), out: &mut Outcome) {
    let med_ms = |name: &str| median(&t.durations(name)) * 1e3;
    let sum_ms = |name: &str| t.durations(name).iter().sum::<f64>() * 1e3;
    // Stage times: the benchmark's own spans when it ran the stages,
    // otherwise (serve-warm trains inside the daemon) the stage timings
    // the checkpoint carries.
    let timings = &p.trained.timings;
    let stage = |name: &str, fallback: Duration| {
        let d = t.durations(name);
        if d.is_empty() {
            fallback.as_secs_f64()
        } else {
            median(&d)
        }
    };
    let train_s = stage("core.train", timings.train);
    let phases = &timings.train_phases;
    let phase_sum =
        (phases.assembly + phases.forward + phases.backward + phases.optimizer).as_secs_f64();
    let epochs = p.trained.report.history.len();

    out.metric("netlist.parse_ms", med_ms("netlist.parse"), "ms");
    out.metric(
        "serve.parse_request_ms",
        med_ms("serve.parse_request"),
        "ms",
    );
    out.metric(
        "serve.render_response_ms",
        med_ms("serve.render_response"),
        "ms",
    );
    out.metric(
        "serve.engine_submit_ms",
        med_ms("serve.engine_submit"),
        "ms",
    );
    out.metric("serve.cache_hit_ratio", serve_counts.0, "ratio");
    out.metric("serve.trainings_measured", serve_counts.1 as f64, "count");
    out.metric(
        "serde_json.checkpoint_decode_ms",
        med_ms("serde_json.checkpoint_decode"),
        "ms",
    );
    out.metric(
        "serde_json.checkpoint_encode_ms",
        med_ms("serde_json.checkpoint_encode"),
        "ms",
    );
    out.metric(
        "serde_json.checkpoint_bytes",
        p.checkpoint_bytes as f64,
        "bytes",
    );
    out.metric("core.fingerprint_ms", med_ms("core.fingerprint"), "ms");
    out.metric("core.verify_ms", med_ms("core.verify"), "ms");
    out.metric("core.score_ms", med_ms("core.score"), "ms");
    out.metric("core.recover_sweep_ms", med_ms("core.recover_sweep"), "ms");
    out.metric(
        "core.extract_ms",
        stage("core.extract", timings.extract) * 1e3,
        "ms",
    );
    out.metric(
        "core.prepare_ms",
        stage("core.prepare", timings.dataset) * 1e3,
        "ms",
    );
    out.metric("core.train_s", train_s, "s");
    out.metric("graphx.extract_ms", med_ms("graphx.extract"), "ms");
    out.metric(
        "graphx.dataset_build_ms",
        med_ms("graphx.dataset_build"),
        "ms",
    );
    out.metric(
        "graphx.subgraph_extract_ms",
        sum_ms("graphx.subgraph_extract"),
        "ms",
    );
    out.metric("graphx.candidate_links", p.candidate_links as f64, "count");
    out.metric("graphx.subgraph_nodes", p.subgraph_nodes as f64, "count");
    out.metric("gnn.train.assembly_s", phases.assembly.as_secs_f64(), "s");
    out.metric("gnn.train.forward_s", phases.forward.as_secs_f64(), "s");
    out.metric("gnn.train.backward_s", phases.backward.as_secs_f64(), "s");
    out.metric("gnn.train.optimizer_s", phases.optimizer.as_secs_f64(), "s");
    out.metric(
        "gnn.train.other_s",
        timings.train.as_secs_f64() - phase_sum,
        "s",
    );
    out.metric(
        "gnn.train.samples_per_s",
        (p.train_samples * epochs) as f64 / timings.train.as_secs_f64(),
        "1/s",
    );
    out.metric("gnn.evaluate_ms", med_ms("gnn.evaluate"), "ms");
    out.metric("gnn.predict_batch_ms", sum_ms("gnn.predict_batch"), "ms");
}

// ---------------------------------------------------------------------
// fig7-cold
// ---------------------------------------------------------------------

/// Cold attacks of the pinned fig7 design: `AttackSession::run`, key
/// recovery at the recipe's threshold, scoring against the true key.
pub fn fig7_cold(run: &Run, trace: bool, out: &mut Outcome) -> Result<Tracer, String> {
    let t = Tracer::new(trace);
    let cfg = attack_config(run.smoke);
    let (designs, setup_s) = prepare(
        &[DesignSpec::fig7(run.gen_seed, run.lock_seed, run.smoke)],
        &t,
    )?;
    let design = &designs[0];
    let min_bits = if run.smoke { 0 } else { 14 };
    let results = closed_loop(run, trace, || {
        AttackSession::new(&design.netlist, &design.names, cfg.clone())
            .run(&NoProgress)
            .map(|scored| scored.recover_key(cfg.th))
    });
    let mut first_key: Option<String> = None;
    let mut ac = f64::NAN;
    for (_, result) in &results {
        out.attempted += 1;
        let guess = match result {
            Ok(guess) => guess,
            Err(e) => {
                out.failed += 1;
                out.note(format!("attack failed: {e}"));
                continue;
            }
        };
        let m = score_key(guess, &design.key);
        let key = render_key(guess);
        let same = first_key.get_or_insert_with(|| key.clone()) == &key;
        if m.correct < min_bits || !same {
            out.failed += 1;
            out.note(format!(
                "bad attack: {key} ({}/{} correct)",
                m.correct, m.total
            ));
        }
        ac = m.accuracy_pct();
    }
    let lat_ms: Vec<f64> = results.iter().map(|r| r.0).collect();
    let key = first_key.unwrap_or_default();
    out.note(format!(
        "fig7 ({} gates): recovered key {key}, AC {ac:.2}%, {} attack(s), median {:.3} s",
        design.gates(),
        lat_ms.len(),
        median(&lat_ms) / 1e3
    ));
    if !trace {
        latency_metrics(out, setup_s, &lat_ms, ac);
        return Ok(t);
    }

    // The traced operation: the same chain, one stage call at a time.
    let traced = {
        let _op = t.enter("op");
        let session = AttackSession::new(&design.netlist, &design.names, cfg.clone());
        let extracted = t.time("core.extract", || session.extract());
        let prepared = t.time("core.prepare", || extracted?.prepare(&NoProgress));
        let trained = t.time("core.train", || prepared?.train(&NoProgress));
        let trained = trained.map_err(|e| e.to_string())?;
        let scored = t.time("core.score", || trained.score(&NoProgress));
        let scored = scored.map_err(|e| e.to_string())?;
        let guess = t.time("core.recover", || scored.recover_key(cfg.th));
        out.check(
            "staged chain recovers the same key as AttackSession::run",
            render_key(&guess) == key,
            render_key(&guess),
        );
        trained
    };
    trace_overhead(&t, lat_ms[0] / 1e3, out);
    let json = serde_json::to_string(&traced).map_err(|e| e.to_string())?;
    let sreq = submit_request(design, run.smoke);
    let p = layer_profile(
        &t,
        design,
        &json,
        &sreq,
        &thresholds(run.seed),
        &run.scratch,
        out,
    )?;
    layer_metrics(&t, &p, (p.engine_hit_ratio, p.engine_trainings), out);
    Ok(t)
}

// ---------------------------------------------------------------------
// checkpoint-resume
// ---------------------------------------------------------------------

/// One resume: encode the checkpoint in the `--save-model` format, decode
/// it, verify it against the netlist, score, recover at five thresholds.
/// Returns the encode's share in milliseconds.
fn resume_op(
    t: &Tracer,
    trained: &Trained,
    design: &Design,
    reference: &[(f64, f64)],
    ths: &[f64],
) -> Result<f64, String> {
    let _op = t.enter("op");
    let t0 = Instant::now();
    let json = t.time("serde_json.checkpoint_encode", || {
        serde_json::to_string(trained)
    });
    let json = json.map_err(|e| e.to_string())?;
    let encode_ms = ms(t0.elapsed());
    let back: Trained = t
        .time("serde_json.checkpoint_decode", || {
            serde_json::from_str(&json)
        })
        .map_err(|e| format!("checkpoint decode: {e}"))?;
    t.time("core.verify", || {
        back.verify_design(&design.netlist, &design.names)
    })
    .map_err(|e| e.to_string())?;
    let scored = t.time("core.score", || back.score(&NoProgress));
    let scored = scored.map_err(|e| e.to_string())?;
    let keys = t.time("core.recover_sweep", || {
        ths.iter()
            .map(|&th| scored.recover_key(th))
            .collect::<Vec<_>>()
    });
    std::hint::black_box(keys);
    if back.fingerprint() != trained.fingerprint() || !bitwise_equal(&scored.scores, reference) {
        return Err("resumed checkpoint scores or fingerprint differ from set-up".into());
    }
    Ok(encode_ms)
}

/// Resumes of the large design's checkpoint; set-up trains it once.
pub fn checkpoint_resume(run: &Run, trace: bool, out: &mut Outcome) -> Result<Tracer, String> {
    let t = Tracer::new(trace);
    let cfg = attack_config(run.smoke);
    let (designs, prep_s) = prepare(
        &[DesignSpec::large(run.gen_seed, run.lock_seed, run.smoke)],
        &t,
    )?;
    let design = &designs[0];
    let t0 = Instant::now();
    let trained = {
        let _setup = t.enter("setup.train");
        let session = AttackSession::new(&design.netlist, &design.names, cfg.clone());
        let extracted = t.time("core.extract", || session.extract());
        let prepared = t.time("core.prepare", || extracted?.prepare(&NoProgress));
        t.time("core.train", || prepared?.train(&NoProgress))
            .map_err(|e| e.to_string())?
    };
    let reference = trained.score(&NoProgress).map_err(|e| e.to_string())?;
    let setup_s = prep_s + t0.elapsed().as_secs_f64();
    let guess = reference.recover_key(cfg.th);
    let ac = score_key(&guess, &design.key).accuracy_pct();
    let ths = thresholds(run.seed);

    let results = closed_loop(run, trace, || {
        resume_op(
            &Tracer::new(false),
            &trained,
            design,
            &reference.scores,
            &ths,
        )
    });
    let lat_ms: Vec<f64> = results.iter().map(|r| r.0).collect();
    let mut encode_ms = Vec::new();
    for (_, result) in results {
        out.attempted += 1;
        match result {
            Ok(encode) => encode_ms.push(encode),
            Err(e) => {
                out.failed += 1;
                out.note(format!("resume failed: {e}"));
            }
        }
    }
    out.note(format!(
        "large ({} gates, {} key bits): AC {ac:.2}%, {} resume(s): median {:.3} s, \
         of which checkpoint encode {:.1} ms",
        design.gates(),
        design.key.len(),
        lat_ms.len(),
        median(&lat_ms) / 1e3,
        median(&encode_ms)
    ));
    if !trace {
        latency_metrics(out, setup_s, &lat_ms, ac);
        return Ok(t);
    }

    out.attempted += 1;
    if let Err(e) = resume_op(&t, &trained, design, &reference.scores, &ths) {
        out.failed += 1;
        out.note(format!("traced resume failed: {e}"));
    }
    trace_overhead(&t, lat_ms[0] / 1e3, out);
    let json = serde_json::to_string(&trained).map_err(|e| e.to_string())?;
    let sreq = submit_request(design, run.smoke);
    let p = layer_profile(&t, design, &json, &sreq, &ths, &run.scratch, out)?;
    layer_metrics(&t, &p, (p.engine_hit_ratio, p.engine_trainings), out);
    Ok(t)
}

// ---------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------

/// Which request of the serve cycle a latency belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Big,
    Small,
    Sweep,
}

impl Class {
    fn span(self) -> &'static str {
        match self {
            Self::Big => "serve.request.large_submit",
            Self::Small => "serve.request.fig7_submit",
            Self::Sweep => "serve.request.sweep",
        }
    }
}

/// The in-process daemon and the one client connection to it.
struct Daemon {
    conn: Connection,
    thread: std::thread::JoinHandle<std::io::Result<muxlink_serve::ServeSummary>>,
}

impl Daemon {
    /// Two workers let set-up train both designs at once; warm requests
    /// are answered on the connection thread and never reach a worker.
    fn start(socket: &Path, cache_dir: Option<PathBuf>) -> Result<Self, String> {
        let opts = ServeOptions {
            socket: socket.to_owned(),
            tcp: None,
            cache_dir,
            workers: 2,
            cache_entries: 8,
        };
        let thread = std::thread::spawn(move || serve(&opts));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Connection::unix(socket) {
                Ok(conn) => return Ok(Self { conn, thread }),
                Err(_) if Instant::now() < deadline && !thread.is_finished() => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("daemon did not come up: {e}")),
            }
        }
    }

    fn request(&mut self, req: &Request) -> Result<Response, String> {
        self.conn.round_trip(req, |_| {}).map_err(|e| e.to_string())
    }

    fn stats(&mut self) -> Result<StatsResponse, String> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("stats answered {other:?}")),
        }
    }

    fn shutdown(mut self) -> Result<(), String> {
        let bye = self.request(&Request::Shutdown);
        let joined = self.thread.join();
        match (bye, joined) {
            (Ok(Response::Bye), Ok(Ok(_))) => Ok(()),
            (bye, joined) => Err(format!("daemon shutdown: {bye:?} / {joined:?}")),
        }
    }
}

fn submit_result(resp: Response) -> Result<ResultResponse, String> {
    match resp {
        Response::Result(r) => Ok(r),
        other => Err(format!("submit answered {other:?}")),
    }
}

/// Repeat-query traffic on a warm daemon: one connection, a fixed cycle
/// of one large-design submit, then `SMALL_PER_CYCLE` × (fig7 submit,
/// five-threshold fig7 sweep).
pub fn serve_warm(run: &Run, trace: bool, out: &mut Outcome) -> Result<Tracer, String> {
    let t = Tracer::new(trace);
    let specs = [
        DesignSpec::fig7(run.gen_seed, run.lock_seed, run.smoke),
        DesignSpec::large(run.gen_seed, run.lock_seed, run.smoke),
    ];
    let (designs, prep_s) = prepare(&specs, &t)?;
    let (small, big) = (&designs[0], &designs[1]);
    let small_sreq = submit_request(small, run.smoke);
    let big_sreq = submit_request(big, run.smoke);
    let small_req = Request::Submit(small_sreq.clone());
    let big_req = Request::Submit(big_sreq.clone());

    // The traced run gives the daemon a disk tier so the profile can read
    // the checkpoint it trained; warm requests are memory hits either way.
    let socket = run.scratch.join("daemon.sock");
    let cache_dir = trace.then(|| run.scratch.join("daemon-cache"));
    let t0 = Instant::now();
    let mut daemon = t.time("setup.daemon_start", || {
        Daemon::start(&socket, cache_dir.clone())
    })?;
    // Both cold submits are queued without waiting, so the daemon's two
    // workers train the designs side by side; then their results are
    // collected.
    let mut jobs = Vec::new();
    for sreq in [&big_sreq, &small_sreq] {
        let queued = Request::Submit(SubmitRequest {
            wait: false,
            ..sreq.clone()
        });
        match daemon.request(&queued)? {
            Response::Accepted { job_id, .. } => jobs.push(job_id),
            other => return Err(format!("cold submit answered {other:?}")),
        }
    }
    let mut cold = Vec::new();
    for (design, job_id) in [big, small].into_iter().zip(jobs) {
        let r = t
            .time("setup.cold_submit", || {
                daemon.request(&Request::Result { job_id })
            })
            .and_then(submit_result)?;
        if r.cache_hit {
            return Err(format!("{}: cold submit was a cache hit", design.label));
        }
        cold.push(r);
    }
    let ths = thresholds(run.seed);
    let sweep_req = Request::Sweep {
        key: cold[1].key.clone(),
        thresholds: ths.clone(),
    };
    let reference_rows: Vec<SweepRow> = match daemon.request(&sweep_req)? {
        Response::Sweep { rows, .. } => rows,
        other => return Err(format!("sweep answered {other:?}")),
    };
    let setup_s = prep_s + t0.elapsed().as_secs_f64();
    let (correct, total) = [(big, &cold[0]), (small, &cold[1])]
        .iter()
        .fold((0, 0), |(c, n), (d, r)| {
            (c + correct_bits(&r.key_string, d), n + d.key.len())
        });
    let ac = 100.0 * correct as f64 / total as f64;

    // With one outstanding request the client and the daemon's connection
    // thread take turns. Left to float across CPUs, each request pays a
    // cross-CPU wake-up whose cost flips between two levels from run to
    // run (fig7 submits at 24 or 36 ms), so the measured phase runs on one.
    match affinity::pin_process_here() {
        Ok(cpu) => out.note(format!("measured phase pinned to cpu {cpu}")),
        Err(e) => out.note(format!("measured phase not pinned: {e}")),
    }
    let before = daemon.stats()?;
    let mut cycle = vec![(Class::Big, &big_req)];
    for _ in 0..SMALL_PER_CYCLE {
        cycle.push((Class::Small, &small_req));
        cycle.push((Class::Sweep, &sweep_req));
    }
    let mut lat: Vec<(Class, f64)> = Vec::new();
    let mut cycle_walls = Vec::new();
    let untraced = Tracer::new(false);
    let start = Instant::now();
    let cycles = if trace { 2 } else { usize::MAX };
    for c in 0..cycles {
        if c > 0 && !trace && !run.measuring(start) {
            break;
        }
        // The traced run's second cycle is the traced operation.
        let tr = if trace && c == 1 { &t } else { &untraced };
        let c0 = Instant::now();
        let _op = tr.enter("op");
        for &(class, req) in &cycle {
            let r0 = Instant::now();
            let resp = tr.time(class.span(), || daemon.request(req));
            let wall = r0.elapsed();
            out.attempted += 1;
            let ok = match (class, resp) {
                (
                    Class::Sweep,
                    Ok(Response::Sweep {
                        cache_hit, rows, ..
                    }),
                ) => cache_hit && rows == reference_rows,
                (Class::Big | Class::Small, Ok(Response::Result(r))) => {
                    let reference = &cold[usize::from(class == Class::Small)];
                    r.cache_hit
                        && r.key == reference.key
                        && r.key_string == reference.key_string
                        && bitwise_equal(&r.scores, &reference.scores)
                }
                (_, other) => {
                    out.note(format!("bad reply: {other:?}"));
                    false
                }
            };
            if !ok {
                out.failed += 1;
            }
            lat.push((class, ms(wall)));
        }
        drop(_op);
        cycle_walls.push(c0.elapsed().as_secs_f64());
    }
    let wall = start.elapsed();
    let after = daemon.stats()?;
    let trainings = after.trainings - before.trainings;
    let lookups =
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
    let hit_ratio = (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64;
    out.check(
        "no training during the measured phase",
        trainings == 0,
        format!("{trainings} trainings"),
    );

    let class_ms =
        |class: Class| -> Vec<f64> { lat.iter().filter(|l| l.0 == class).map(|l| l.1).collect() };
    out.note(format!(
        "{} requests, {:.2}/s: large submit p50 {:.2} ms (line {} KB); fig7 submit p50 \
         {:.2} ms, p90 {:.2} ms; sweep p50 {:.2} ms; cache hit ratio {hit_ratio:.3}; \
         key AC {ac:.2}%",
        lat.len(),
        lat.len() as f64 / wall.as_secs_f64(),
        median(&class_ms(Class::Big)),
        muxlink_serve::render_request(&big_req).len() / 1024,
        median(&class_ms(Class::Small)),
        quantile(&class_ms(Class::Small), 0.9),
        median(&class_ms(Class::Sweep)),
    ));
    if !trace {
        daemon.shutdown()?;
        latency_metrics(out, setup_s, &class_ms(Class::Small), ac);
        return Ok(t);
    }

    trace_overhead(&t, cycle_walls[0], out);
    let path = cache_dir
        .expect("traced runs give the daemon a disk tier")
        .join(format!("{}.json", cold[0].key));
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    daemon.shutdown()?;
    let p = layer_profile(&t, big, &json, &big_sreq, &ths, &run.scratch, out)?;
    layer_metrics(&t, &p, (hit_ratio, trainings), out);
    serve_breakdown(&t, &class_ms(Class::Big), out);
    Ok(t)
}

/// Where a large-design warm request goes, from the client's latency down
/// to the layers the profile timed on the same design.
fn serve_breakdown(t: &Tracer, big_ms: &[f64], out: &mut Outcome) {
    let m = |name: &str| median(&t.durations(name)) * 1e3;
    let request = median(big_ms);
    let parse_req = m("serve.parse_request");
    let render = m("serve.render_response");
    let engine = m("serve.engine_submit");
    let netlist = m("netlist.parse");
    let fingerprint = m("core.fingerprint");
    let verify = m("core.verify");
    let extract = m("graphx.extract");
    let score = m("core.score");
    let subgraphs = t.durations("graphx.subgraph_extract").iter().sum::<f64>() * 1e3;
    let predict = t.durations("gnn.predict_batch").iter().sum::<f64>() * 1e3;
    let rows = [
        ("large warm submit, client latency", request),
        ("  proto: serve.parse_request", parse_req),
        ("  engine: serve.engine_submit", engine),
        ("    netlist.parse", netlist),
        (
            "    core.fingerprint + core.verify (non-graphx)",
            fingerprint + verify - 2.0 * extract,
        ),
        (
            "    graphx.extract (x2: fingerprint, verify)",
            2.0 * extract,
        ),
        (
            "    core.score (non-graphx, non-gnn)",
            score - subgraphs - predict,
        ),
        ("    graphx.subgraph_extract", subgraphs),
        ("    gnn.predict_batch", predict),
        (
            "    rest (checkpoint clone, recovery)",
            engine - netlist - fingerprint - verify - score,
        ),
        ("  proto: serve.render_response", render),
        (
            "  transport (socket, client parse)",
            request - parse_req - engine - render,
        ),
    ];
    for (name, v) in rows {
        out.note(format!(
            "{name:<48} {v:>10.2} ms {:>6.1}%",
            100.0 * v / request
        ));
    }
}
