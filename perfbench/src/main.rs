//! The repository benchmark: cold MuxLink attacks, checkpoint resumes and
//! warm attack-service traffic, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig7-cold|checkpoint-resume|serve-warm \
//!     --seed N --seconds S --trace 0|1 [--gen-seed 1] [--lock-seed 7] [--smoke]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-fixture
//! ```
//!
//! Run it from the repository root. The last line of stdout is the result
//! (`correct`, `attempted`, `failed`, `metrics`): the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is the environment record. Human-readable notes go to
//! stderr, and every run writes its result, plus in traced runs a Chrome
//! trace-event file and a self-time table, under `.bench_out/`. The exit
//! code is non-zero when any output check fails. See `perfbench/README.md`.

mod affinity;
mod designs;
mod profile;
mod report;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use designs::{DesignSpec, DEFAULT_GEN_SEED, DEFAULT_LOCK_SEED};
use report::{json_string, Environment, Outcome};
use trace::Tracer;
use workloads::Run;

const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    gen_seed: u64,
    lock_seed: u64,
    write_fixture: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        gen_seed: DEFAULT_GEN_SEED,
        lock_seed: DEFAULT_LOCK_SEED,
        write_fixture: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = num(value()?)?,
            "--seconds" => args.seconds = num(value()?)? as f64,
            "--trace" => args.trace = num(value()?)? != 0,
            "--gen-seed" => args.gen_seed = num(value()?)?,
            "--lock-seed" => args.lock_seed = num(value()?)?,
            "--smoke" => args.smoke = true,
            "--write-fixture" => args.write_fixture = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = ["fig7-cold", "checkpoint-resume", "serve-warm"];

/// Threads any workload keeps busy at once: fig7-cold and
/// checkpoint-resume run two closed-loop clients at `--threads 1`;
/// serve-warm trains its two designs side by side in set-up, then runs
/// one client and the daemon's connection thread.
const THREADS: usize = 2;

/// Writes the result record and, for a traced run, the trace files.
fn write_files(stem: &Path, env_json: &str, out: &Outcome, t: &Tracer) -> std::io::Result<()> {
    let mut record = format!("{{\"environment\": {env_json},\n\"checks\": [");
    for (i, (name, ok, detail)) in out.checks.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            record,
            "{sep}\n  {{\"check\": {}, \"passed\": {ok}, \"detail\": {}}}",
            json_string(name),
            json_string(detail)
        );
    }
    record.push_str("],\n\"notes\": [");
    for (i, n) in out.notes.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(record, "{sep}\n  {}", json_string(n));
    }
    let _ = write!(record, "],\n\"result\": {}}}\n", out.result_line());
    std::fs::write(stem.with_extension("result.json"), record)?;
    if !t.enabled() {
        return Ok(());
    }
    std::fs::write(stem.with_extension("trace.json"), t.chrome_json())?;
    let mut table = format!(
        "{:<40} {:>6} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    let mut rows: Vec<_> = t.self_times().into_iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (name, s) in rows {
        let _ = writeln!(
            table,
            "{name:<40} {:>6} {:>12.3} {:>12.3}",
            s.count,
            s.total_s * 1e3,
            s.self_s * 1e3
        );
    }
    table.push('\n');
    for n in &out.notes {
        table.push_str(n);
        table.push('\n');
    }
    std::fs::write(stem.with_extension("selftime.txt"), table)
}

fn run(args: &Args) -> Result<(Outcome, bool), String> {
    if args.write_fixture {
        let spec = DesignSpec::large(DEFAULT_GEN_SEED, DEFAULT_LOCK_SEED, false);
        let path = spec.write_fixture()?;
        eprintln!("wrote {}", path.display());
        return Ok((Outcome::default(), false));
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` ({})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    let env = Environment::capture();
    if THREADS > env.nproc {
        return Err(format!(
            "{} keeps {THREADS} threads busy but nproc is {}; refusing to run",
            args.workload, env.nproc
        ));
    }
    let connections = usize::from(args.workload == "serve-warm");
    let env_json = env.json(THREADS, connections);
    let scratch = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let bench_run = Run {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        gen_seed: args.gen_seed,
        lock_seed: args.lock_seed,
        scratch: scratch.clone(),
    };
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "fig7-cold" => workloads::fig7_cold(&bench_run, args.trace, &mut out),
        "checkpoint-resume" => workloads::checkpoint_resume(&bench_run, args.trace, &mut out),
        _ => workloads::serve_warm(&bench_run, args.trace, &mut out),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let tracer = result?;

    for line in &out.notes {
        eprintln!("[perfbench] {line}");
    }
    for (name, ok, detail) in out.checks.iter().filter(|c| !c.1) {
        eprintln!("[perfbench] FAILED check `{name}` ({ok}): {detail}");
    }
    let stem = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    write_files(&stem, &env_json, &out, &tracer)
        .map_err(|e| format!("writing {}: {e}", stem.display()))?;
    println!("{{\"environment\": {env_json}}}");
    println!("{}", out.result_line());
    Ok((out, true))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok((out, printed)) if !printed || out.correct() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}
