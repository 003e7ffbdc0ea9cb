//! Subcommand implementations.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use muxlink_attack_baselines::{saam_attack, sail_lite_attack, scope_attack, ScopeConfig};
use muxlink_benchgen::SyntheticSuite;
use muxlink_core::metrics::score_key;
use muxlink_core::{
    key_input_names, run_suite, AttackSession, EpochStats, MuxLinkConfig, NoProgress, Progress,
    Stage, SuiteJob, SuiteOptions, Trained,
};
use muxlink_locking::{dmux, naive_mux, symmetric, trll, xor, Key, KeyValue, LockOptions};
use muxlink_netlist::{bench_format, stats::NetlistStats, Netlist};

use crate::keyfile;
use crate::opts::{CliError, Command};

const HELP: &str = "\
muxlink — MuxLink logic-locking toolkit (DATE'22 reproduction)

subcommands:
  generate  --profile <c1355|…|b17|custom> [--scale f] [--seed n]
            [--gates n --inputs n --outputs n]            -o out.bench
  lock      --scheme <dmux|symmetric|xor|naive-mux|trll>
            --key-size n [--seed n] in.bench -o out.bench [--key-out key.txt]
  attack    --method <muxlink|scope|saam|sail> [--th f] [--hops n]
            [--threads n] [--batch-size n] [--quick|--paper]
            [--canonicalize] [--timings] [--seed n]
            [--progress] [--save-model m.json] [--model m.json]
            in.bench [-o guess.txt]
  train     --save-model m.json [--hops n] [--threads n]
            [--batch-size n] [--quick|--paper] [--seed n]
            [--canonicalize] [--progress] in.bench
  score     --model m.json [--th f] [--threads n] [--progress]
            [-o guess.txt]
  suite     [--out-dir dir] [--th f] [--hops n] [--threads n]
            [--quick|--paper] [--seed n] locked1.bench locked2.bench …
  serve     --socket /path.sock [--tcp host:port] [--cache-dir dir]
            [--workers n] [--cache-entries n]
  client    <submit|status|result|sweep|cancel|stats|shutdown>
            --socket /path.sock | --tcp host:port
            submit: [--job attack|train|score] [--th f] [--hops n]
                    [--seed n] [--threads n] [--batch-size n] [--paper]
                    [--no-wait] [--progress]            locked.bench
            status/result/cancel: --job-id n
            sweep:  --key fingerprint-hex --thresholds 0.5,0.75,1.0
  sat-attack --oracle original.bench in.bench [-o guess.txt]
  evaluate  --original o.bench --locked l.bench --guess g.txt
            [--key k.txt] [--patterns n]
  resynth   [--passes constant_fold,collapse_buffers,simplify_muxes,
             dead_logic_elim,remap_gates,rename_wires]
            [--set name=0,name=1,…] [--seed n] [--remap-fraction f]
            [--remap-mux] [--max-iterations n] [--emit bench|verilog]
            [--report] in.bench -o out.bench
  stats     in.bench
  help

`train` checkpoints the expensive stage; `score` re-scores or
threshold-sweeps a checkpoint without retraining (bit-identical to a
one-shot attack). `attack --model` requires the same netlist the
checkpoint was trained on (verified structurally). `suite` drives many
locked designs through one process, one result record (and, with
--out-dir, one JSON) per design. `serve` runs the attack service: a
daemon with a fingerprint-keyed checkpoint cache that answers repeat
queries in milliseconds; `client` talks to it. `resynth` rewrites a
netlist through the function-preserving pass pipeline (the resynthesis
threat model's defender move); `attack --canonicalize` runs the cleanup
passes on the target before structural extraction.
";

/// Dispatches a parsed command; returns the text to print on stdout.
///
/// # Errors
///
/// [`CliError`] with a user-facing message on any failure.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd.name.as_str() {
        "generate" => generate(cmd),
        "lock" => lock(cmd),
        "attack" => attack(cmd),
        "train" => train_cmd(cmd),
        "score" => score_cmd(cmd),
        "suite" => suite_cmd(cmd),
        "serve" => crate::service::serve_cmd(cmd),
        "client" => crate::service::client_cmd(cmd),
        "sat-attack" => sat_attack_cmd(cmd),
        "evaluate" => evaluate(cmd),
        "resynth" => resynth_cmd(cmd),
        "stats" => stats(cmd),
        "help" | "--help" | "-h" => Ok(HELP.to_owned()),
        other => Err(CliError::Usage(format!(
            "unknown subcommand `{other}` (try `help`)"
        ))),
    }
}

/// Per-epoch/per-stage progress on stderr (stdout stays machine-usable).
struct StderrProgress;

impl Progress for StderrProgress {
    fn stage_started(&self, stage: Stage) {
        eprintln!("[muxlink] {stage} …");
    }

    fn stage_finished(&self, stage: Stage, elapsed: Duration) {
        eprintln!("[muxlink] {stage} done in {:.3}s", elapsed.as_secs_f64());
    }

    fn epoch_finished(&self, stats: &EpochStats) {
        eprintln!(
            "[muxlink]   epoch {:>3}: train loss {:.4}, val acc {:.2}%",
            stats.epoch,
            stats.train_loss,
            stats.val_accuracy * 100.0
        );
    }
}

fn progress_of(cmd: &Command) -> &'static dyn Progress {
    if cmd.has("--progress") {
        &StderrProgress
    } else {
        &NoProgress
    }
}

/// The MuxLink configuration shared by `attack`/`train`/`suite`.
fn muxlink_cfg(cmd: &Command) -> Result<MuxLinkConfig, CliError> {
    let mut cfg = if cmd.has("--paper") {
        MuxLinkConfig::paper()
    } else {
        MuxLinkConfig::quick()
    };
    cfg.th = cmd.parse_flag("--th", cfg.th)?;
    cfg.h = cmd.parse_flag("--hops", cfg.h)?;
    cfg.seed = cmd.parse_flag("--seed", cfg.seed)?;
    // 0 = all cores; results are identical for any thread count.
    cfg.threads = cmd.parse_flag("--threads", cfg.threads)?;
    // Batch size changes Adam's grouping, so it is part of the training
    // recipe (validated ≥ 1 by the session).
    cfg.batch_size = cmd.parse_flag("--batch-size", cfg.batch_size)?;
    // Run the cleanup pass pipeline on the target before structural
    // extraction (changes what the GNN sees — part of the recipe).
    if cmd.has("--canonicalize") {
        cfg.canonicalize = true;
    }
    Ok(cfg)
}

fn domain(e: impl std::fmt::Display) -> CliError {
    CliError::Domain(e.to_string())
}

fn save_trained(path: &str, trained: &Trained) -> Result<(), CliError> {
    let json = serde_json::to_string(trained).map_err(domain)?;
    fs::write(path, json)?;
    Ok(())
}

/// Loads the checkpoint that `attack --model` and `score` resume and
/// applies `--th` and `--threads`, the only flags that can take effect
/// on it. The training-time flags are refused instead of silently
/// ignored: the checkpoint fixes the recipe.
fn resume_checkpoint(cmd: &Command, path: &str) -> Result<Trained, CliError> {
    for flag in [
        "--hops",
        "--seed",
        "--quick",
        "--paper",
        "--batch-size",
        "--canonicalize",
    ] {
        if cmd.has(flag) {
            return Err(CliError::Usage(format!(
                "{flag} cannot be combined with --model: the checkpoint fixes it \
                 (re-train to change it)"
            )));
        }
    }
    let mut trained: Trained = serde_json::from_str(&fs::read_to_string(path)?)
        .map_err(|e| CliError::Domain(format!("{path}: not a muxlink model checkpoint: {e}")))?;
    trained.cfg.th = cmd.parse_flag("--th", trained.cfg.th)?;
    trained.cfg.threads = cmd.parse_flag("--threads", trained.cfg.threads)?;
    Ok(trained)
}

fn load_netlist(path: &str) -> Result<Netlist, CliError> {
    let text = fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design");
    bench_format::parse(name, &text).map_err(|e| CliError::Domain(format!("{path}: {e}")))
}

fn save_netlist(path: &str, netlist: &Netlist) -> Result<(), CliError> {
    let text = bench_format::write(netlist).map_err(|e| CliError::Domain(e.to_string()))?;
    fs::write(path, text)?;
    Ok(())
}

fn generate(cmd: &Command) -> Result<String, CliError> {
    let seed: u64 = cmd.parse_flag("--seed", 1)?;
    let profile_name = cmd.flag_or("--profile", "custom");
    let netlist = if profile_name == "custom" {
        let gates: usize = cmd.parse_flag("--gates", 300)?;
        let inputs: usize = cmd.parse_flag("--inputs", 16)?;
        let outputs: usize = cmd.parse_flag("--outputs", 8)?;
        muxlink_benchgen::synth::SynthConfig::new("custom", inputs, outputs, gates).generate(seed)
    } else if profile_name == "c17" {
        muxlink_benchgen::c17()
    } else {
        let scale: f64 = cmd.parse_flag("--scale", 1.0)?;
        let suite = [SyntheticSuite::iscas85(), SyntheticSuite::itc99()]
            .into_iter()
            .find_map(|s| s.find(profile_name).cloned())
            .ok_or_else(|| {
                CliError::Usage(format!("unknown benchmark profile `{profile_name}`"))
            })?;
        let scaled = if (scale - 1.0).abs() > 1e-9 {
            suite.scaled(scale)
        } else {
            suite
        };
        scaled.generate(seed)
    };
    let out = cmd.require("-o")?;
    save_netlist(out, &netlist)?;
    Ok(format!(
        "generated {} ({} gates, {} inputs, {} outputs) -> {out}\n",
        netlist.name(),
        netlist.gate_count(),
        netlist.inputs().len(),
        netlist.outputs().len()
    ))
}

fn lock(cmd: &Command) -> Result<String, CliError> {
    let design = load_netlist(cmd.input()?)?;
    let scheme = cmd.require("--scheme")?;
    let key_size: usize = cmd.parse_flag("--key-size", 32)?;
    let seed: u64 = cmd.parse_flag("--seed", 1)?;
    let opts = LockOptions::new(key_size, seed);
    let locked = match scheme {
        "dmux" => dmux::lock(&design, &opts),
        "symmetric" => symmetric::lock(&design, &opts),
        "xor" => xor::lock(&design, &opts),
        "naive-mux" => naive_mux::lock(&design, &opts),
        "trll" => trll::lock(&design, &opts),
        other => {
            return Err(CliError::Usage(format!("unknown scheme `{other}`")));
        }
    }
    .map_err(|e| CliError::Domain(e.to_string()))?;
    let out = cmd.require("-o")?;
    save_netlist(out, &locked.netlist)?;
    let mut msg = format!(
        "locked with {scheme}: K = {}, {} -> {} gates, written to {out}\n",
        locked.key.len(),
        design.gate_count(),
        locked.netlist.gate_count()
    );
    if let Some(key_path) = cmd.flags.get("--key-out") {
        let names = locked.key_input_names();
        let values = locked.key.to_values();
        fs::write(key_path, keyfile::to_string(&names, &values))?;
        msg.push_str(&format!("correct key written to {key_path}\n"));
    }
    Ok(msg)
}

fn attack(cmd: &Command) -> Result<String, CliError> {
    let locked = load_netlist(cmd.input()?)?;
    let names = key_input_names(&locked);
    if names.is_empty() {
        return Err(CliError::Domain(
            "no keyinput* nets found — is this a locked design?".into(),
        ));
    }
    let method = cmd.flag_or("--method", "muxlink");
    let mut timing_line = None;
    let guess: Vec<KeyValue> = match method {
        "muxlink" => {
            let prog = progress_of(cmd);
            // Staged session: resume from a checkpoint (`--model`) or
            // run extract → prepare → train, optionally checkpointing
            // the trained stage (`--save-model`).
            let trained = if let Some(model_path) = cmd.flags.get("--model") {
                let t = resume_checkpoint(cmd, model_path)?;
                // Scoring runs on the checkpoint's embedded design, so
                // the supplied netlist must be the design it was trained
                // on (names alone are always keyinput0..N — compare the
                // whole extracted design too).
                t.verify_design(&locked, &names)
                    .map_err(|e| CliError::Domain(format!("{model_path}: {e}")))?;
                t
            } else {
                let cfg = muxlink_cfg(cmd)?;
                AttackSession::new(&locked, &names, cfg)
                    .extract()
                    .map_err(domain)?
                    .prepare(prog)
                    .map_err(domain)?
                    .train(prog)
                    .map_err(domain)?
            };
            if let Some(path) = cmd.flags.get("--save-model") {
                save_trained(path, &trained)?;
            }
            let scored = trained.score(prog).map_err(domain)?;
            if cmd.has("--timings") {
                let t = &scored.timings;
                let p = &t.train_phases;
                timing_line = Some(format!(
                    "timings: extract {:.3}s  dataset {:.3}s  train {:.3}s  score {:.3}s  (total {:.3}s)\n\
                     train phases: assembly {:.3}s  forward {:.3}s  backward {:.3}s  optimizer {:.3}s\n",
                    t.extract.as_secs_f64(),
                    t.dataset.as_secs_f64(),
                    t.train.as_secs_f64(),
                    t.score.as_secs_f64(),
                    t.total().as_secs_f64(),
                    p.assembly.as_secs_f64(),
                    p.forward.as_secs_f64(),
                    p.backward.as_secs_f64(),
                    p.optimizer.as_secs_f64(),
                ));
            }
            scored.recover_key(trained.cfg.th)
        }
        "scope" => scope_attack(&locked, &names, &ScopeConfig::default())
            .map_err(|e| CliError::Domain(e.to_string()))?,
        "saam" => saam_attack(&locked, &names).map_err(|e| CliError::Domain(e.to_string()))?,
        "sail" => sail_lite_attack(&locked, &names).map_err(|e| CliError::Domain(e.to_string()))?,
        other => {
            return Err(CliError::Usage(format!("unknown attack method `{other}`")));
        }
    };
    let rendered: String = guess.iter().map(ToString::to_string).collect();
    let decided = guess.iter().filter(|v| **v != KeyValue::X).count();
    let mut msg = format!(
        "{method} recovered key: {rendered} ({decided}/{} bits decided)\n",
        guess.len()
    );
    if let Some(line) = timing_line {
        msg.push_str(&line);
    }
    if let Some(out) = cmd.flags.get("-o") {
        fs::write(out, keyfile::to_string(&names, &guess))?;
        msg.push_str(&format!("guess written to {out}\n"));
    }
    Ok(msg)
}

/// `train`: run extract → prepare → train and checkpoint the trained
/// stage to `--save-model` (the 16-second stage; `score` resumes it).
fn train_cmd(cmd: &Command) -> Result<String, CliError> {
    let locked = load_netlist(cmd.input()?)?;
    let names = key_input_names(&locked);
    if names.is_empty() {
        return Err(CliError::Domain(
            "no keyinput* nets found — is this a locked design?".into(),
        ));
    }
    let out = cmd.require("--save-model")?;
    let cfg = muxlink_cfg(cmd)?;
    let prog = progress_of(cmd);
    let trained = AttackSession::new(&locked, &names, cfg)
        .extract()
        .map_err(domain)?
        .prepare(prog)
        .map_err(domain)?
        .train(prog)
        .map_err(domain)?;
    save_trained(out, &trained)?;
    Ok(format!(
        "trained DGCNN over {} epochs (k = {}, best val acc {:.2}% at epoch {}); \
         train {:.3}s; checkpoint written to {out}\n",
        trained.report.history.len(),
        trained.k,
        trained.report.best_val_accuracy * 100.0,
        trained.report.best_epoch,
        trained.timings.train.as_secs_f64(),
    ))
}

/// `score`: reload a `train` checkpoint, score and post-process — no
/// netlist and no retraining needed, bit-identical to a one-shot attack.
fn score_cmd(cmd: &Command) -> Result<String, CliError> {
    let path = cmd.require("--model")?;
    let trained = resume_checkpoint(cmd, path)?;
    let prog = progress_of(cmd);
    let scored = trained.score(prog).map_err(domain)?;
    let guess = scored.recover_key(trained.cfg.th);
    let rendered: String = guess.iter().map(ToString::to_string).collect();
    let decided = guess.iter().filter(|v| **v != KeyValue::X).count();
    let mut msg = format!(
        "muxlink recovered key: {rendered} ({decided}/{} bits decided) [model: {path}, th = {}]\n",
        guess.len(),
        trained.cfg.th
    );
    if let Some(out) = cmd.flags.get("-o") {
        fs::write(out, keyfile::to_string(&trained.key_input_names, &guess))?;
        msg.push_str(&format!("guess written to {out}\n"));
    }
    Ok(msg)
}

/// `suite`: drive every positional locked design through one process,
/// sharded across the rayon pool, one record (and optional JSON file)
/// per design.
fn suite_cmd(cmd: &Command) -> Result<String, CliError> {
    if cmd.positional.is_empty() {
        return Err(CliError::Usage(
            "suite needs at least one locked .bench file".into(),
        ));
    }
    let cfg = muxlink_cfg(cmd)?;
    let mut jobs = Vec::with_capacity(cmd.positional.len());
    for path in &cmd.positional {
        let netlist = load_netlist(path)?;
        let key_input_names = key_input_names(&netlist);
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("design")
            .to_owned();
        jobs.push(SuiteJob {
            name,
            netlist,
            key_input_names,
            truth: None,
        });
    }
    let opts = SuiteOptions {
        out_dir: cmd.flags.get("--out-dir").map(PathBuf::from),
    };
    let records = run_suite(&jobs, &cfg, &opts, progress_of(cmd)).map_err(domain)?;
    let mut msg = format!("suite: {} designs, th = {}\n", records.len(), cfg.th);
    let mut failures = 0usize;
    for r in &records {
        match (&r.error, &r.key_string) {
            (None, Some(key)) => {
                msg.push_str(&format!(
                    "  {:<20} key {key} ({}/{} decided, val acc {:.2}%, {:.1}s)\n",
                    r.name,
                    r.decided,
                    r.key_len,
                    r.val_accuracy * 100.0,
                    r.seconds
                ));
            }
            _ => {
                failures += 1;
                msg.push_str(&format!(
                    "  {:<20} FAILED: {}\n",
                    r.name,
                    r.error.as_deref().unwrap_or("unknown error")
                ));
            }
        }
    }
    if let Some(dir) = &opts.out_dir {
        msg.push_str(&format!(
            "per-design JSON records written to {}\n",
            dir.display()
        ));
    }
    if failures > 0 {
        msg.push_str(&format!("{failures} design(s) failed\n"));
    }
    Ok(msg)
}

fn sat_attack_cmd(cmd: &Command) -> Result<String, CliError> {
    let locked = load_netlist(cmd.input()?)?;
    let oracle = load_netlist(cmd.require("--oracle")?)?;
    let names = key_input_names(&locked);
    let result = muxlink_sat::sat_attack(
        &locked,
        &names,
        &oracle,
        &muxlink_sat::SatAttackConfig::default(),
    )
    .map_err(|e| CliError::Domain(e.to_string()))?;
    let guess: Vec<KeyValue> = names
        .iter()
        .map(|n| KeyValue::from_bool(result.key[n]))
        .collect();
    let rendered: String = guess.iter().map(ToString::to_string).collect();
    let mut msg = format!(
        "SAT attack: key {rendered} after {} DIPs (functionally correct: {})\n",
        result.dip_count, result.functionally_correct
    );
    if let Some(out) = cmd.flags.get("-o") {
        fs::write(out, keyfile::to_string(&names, &guess))?;
        msg.push_str(&format!("key written to {out}\n"));
    }
    Ok(msg)
}

fn evaluate(cmd: &Command) -> Result<String, CliError> {
    let original = load_netlist(cmd.require("--original")?)?;
    let locked = load_netlist(cmd.require("--locked")?)?;
    let names = key_input_names(&locked);
    let guess_map = keyfile::parse(&fs::read_to_string(cmd.require("--guess")?)?)?;
    let guess = keyfile::ordered(&guess_map, &names)?;
    let patterns: usize = cmd.parse_flag("--patterns", 10_000)?;

    let mut msg = String::new();
    // HD needs concrete bits: average over X assignments via the metrics
    // module requires LockedNetlist metadata we don't have from files, so
    // the CLI evaluates HD with X bits tied to 0 and reports them.
    let x_count = guess.iter().filter(|v| **v == KeyValue::X).count();
    let concrete: std::collections::HashMap<String, bool> = names
        .iter()
        .zip(&guess)
        .map(|(n, v)| (n.clone(), v.as_bool().unwrap_or(false)))
        .collect();
    let hd = muxlink_netlist::sim::hamming_distance_with_key(
        &original, &locked, &concrete, patterns, 0x5EED,
    )
    .map_err(|e| CliError::Domain(e.to_string()))?;
    msg.push_str(&format!(
        "output HD vs original: {:.3}% over {} patterns",
        hd.percent(),
        patterns
    ));
    if x_count > 0 {
        msg.push_str(&format!(" ({x_count} X bits tied to 0)"));
    }
    msg.push('\n');

    if let Some(key_path) = cmd.flags.get("--key") {
        let truth_map = keyfile::parse(&fs::read_to_string(key_path)?)?;
        let truth_vals = keyfile::ordered(&truth_map, &names)?;
        let bits: Vec<bool> = truth_vals
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_bool().ok_or_else(|| {
                    CliError::Usage(format!("truth key bit {i} must be 0 or 1, not X"))
                })
            })
            .collect::<Result<_, _>>()?;
        let m = score_key(&guess, &Key::from_bits(bits));
        msg.push_str(&format!(
            "AC {:.2}%  PC {:.2}%  KPA {}\n",
            m.accuracy_pct(),
            m.precision_pct(),
            m.kpa_pct()
                .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.2}%"))
        ));
    }
    Ok(msg)
}

/// `resynth`: rewrite a netlist through the named pass pipeline — the
/// defender's move in the resynthesis threat model. The default pass
/// list is the cleanup pipeline; `remap_gates`/`rename_wires` add seeded
/// structure/name perturbation, `--set` ties primary inputs to constants
/// first (the SWEEP/SCOPE cofactor move).
fn resynth_cmd(cmd: &Command) -> Result<String, CliError> {
    use muxlink_netlist::passes::{pass_by_name, AssignConstants, Pipeline, PASS_NAMES};

    let netlist = load_netlist(cmd.input()?)?;
    let seed: u64 = cmd.parse_flag("--seed", 1)?;
    let fraction: f64 = cmd.parse_flag("--remap-fraction", 0.5)?;
    let remap_mux = cmd.has("--remap-mux");
    let cap: usize = cmd.parse_flag("--max-iterations", Pipeline::DEFAULT_MAX_ITERATIONS)?;

    let mut pipeline = Pipeline::new();
    if let Some(set) = cmd.flags.get("--set") {
        let mut assignments = std::collections::HashMap::new();
        for item in set.split(',').filter(|s| !s.is_empty()) {
            let (name, value) = item.split_once('=').ok_or_else(|| {
                CliError::Usage(format!("--set expects name=0|1 items, got `{item}`"))
            })?;
            let v = match value {
                "0" => false,
                "1" => true,
                other => {
                    return Err(CliError::Usage(format!(
                        "--set value for `{name}` must be 0 or 1, got `{other}`"
                    )))
                }
            };
            assignments.insert(name.to_owned(), v);
        }
        pipeline.push(Box::new(AssignConstants::new(assignments)));
    }
    let default_passes = "constant_fold,collapse_buffers,simplify_muxes,dead_logic_elim";
    for name in cmd
        .flag_or("--passes", default_passes)
        .split(',')
        .filter(|s| !s.is_empty())
    {
        let pass = pass_by_name(name, seed, fraction, remap_mux).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown pass `{name}` (known: {})",
                PASS_NAMES.join(", ")
            ))
        })?;
        pipeline.push(pass);
    }
    let pipeline = pipeline.max_iterations(cap);

    let mut rewritten = netlist.clone();
    let report = pipeline.run(&mut rewritten).map_err(domain)?;
    let out = cmd.require("-o")?;
    match cmd.flag_or("--emit", "bench") {
        "bench" => save_netlist(out, &rewritten)?,
        "verilog" => {
            let text = muxlink_netlist::verilog::write_verilog(&rewritten).map_err(domain)?;
            fs::write(out, text)?;
        }
        other => {
            return Err(CliError::Usage(format!(
                "--emit expects bench or verilog, got `{other}`"
            )))
        }
    }
    let mut msg = format!(
        "resynthesized {}: {} -> {} gates, {} rewrites over {} iteration(s){}, written to {out}\n",
        netlist.name(),
        netlist.gate_count(),
        rewritten.gate_count(),
        report.total_rewrites(),
        report.iterations,
        if report.converged { " (fixpoint)" } else { "" },
    );
    if cmd.has("--report") {
        for p in &report.passes {
            msg.push_str(&format!(
                "  {:<17} {:>6} rewrites  {:.3}s\n",
                p.name, p.rewrites, p.seconds
            ));
        }
    }
    Ok(msg)
}

fn stats(cmd: &Command) -> Result<String, CliError> {
    let n = load_netlist(cmd.input()?)?;
    let s = NetlistStats::compute(&n).map_err(|e| CliError::Domain(e.to_string()))?;
    let mut msg = format!(
        "{}: {} gates, {} inputs, {} outputs, depth {}, literals {}, area {:.1}, switching {:.2}\n",
        n.name(),
        s.gates,
        s.inputs,
        s.outputs,
        s.depth,
        s.literals,
        s.area,
        s.switching
    );
    let mut types: Vec<_> = s.per_type.iter().collect();
    types.sort_by_key(|(t, _)| format!("{t}"));
    for (t, c) in types {
        msg.push_str(&format!("  {t}: {c}\n"));
    }
    let keys = key_input_names(&n);
    if !keys.is_empty() {
        msg.push_str(&format!("  key inputs: {}\n", keys.len()));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(args: &[&str]) -> Command {
        Command::parse(args.iter().map(|s| (*s).to_owned())).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("muxlink-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_owned()
    }

    /// The dispatcher must recognise exactly the canonical
    /// [`crate::opts::SUBCOMMANDS`] list (the one CI greps the README
    /// against): every listed name is accepted (no "unknown subcommand"),
    /// every listed name appears in the help text, and an unlisted name
    /// is rejected.
    /// The parser accepts exactly the flags the help text shows: every
    /// `--flag` (and `-o`) in HELP parses, and every flag the parser
    /// accepts appears in HELP.
    #[test]
    fn parser_accepts_exactly_the_help_flags() {
        let shown: std::collections::BTreeSet<&str> = HELP
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") || *w == "-o")
            .collect();
        for flag in &shown {
            let parsed = Command::parse(["attack", flag, "v", "x.bench"].map(str::to_owned));
            assert!(parsed.is_ok(), "{flag} is in HELP but rejected: {parsed:?}");
        }
        for flag in crate::opts::VALUED.iter().chain(crate::opts::BOOLEAN) {
            assert!(
                shown.contains(flag),
                "{flag} is accepted but missing from HELP"
            );
        }
    }

    #[test]
    fn dispatcher_covers_canonical_subcommand_list() {
        for &sub in crate::opts::SUBCOMMANDS {
            let outcome = run(&cmd(&[sub]));
            if let Err(CliError::Usage(msg)) = &outcome {
                assert!(
                    !msg.contains("unknown subcommand"),
                    "`{sub}` is listed in SUBCOMMANDS but not dispatched"
                );
            }
            assert!(HELP.contains(sub), "`{sub}` missing from help text");
        }
        let err = run(&cmd(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(m) if m.contains("unknown subcommand")));
    }

    /// `resynth` rewrites a design through the pass pipeline: the output
    /// re-parses, perturbation passes report rewrites, unknown pass names
    /// are usage errors, and `--set` ties inputs to constants.
    #[test]
    fn resynth_rewrites_and_reports() {
        let design = tmp("resynth-in.bench");
        let out_path = tmp("resynth-out.bench");
        run(&cmd(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "120",
            "--seed",
            "5",
            "-o",
            &design,
        ]))
        .unwrap();

        let msg = run(&cmd(&[
            "resynth",
            "--passes",
            "constant_fold,collapse_buffers,dead_logic_elim",
            "--report",
            &design,
            "-o",
            &out_path,
        ]))
        .unwrap();
        assert!(msg.contains("resynthesized"), "{msg}");
        assert!(msg.contains("constant_fold"), "{msg}");
        let rewritten = load_netlist(&out_path).unwrap();
        assert!(rewritten.validate().is_ok());

        // Seeded perturbation: full remap reports rewrites and still
        // re-parses.
        let msg = run(&cmd(&[
            "resynth",
            "--passes",
            "remap_gates,rename_wires",
            "--seed",
            "9",
            "--remap-fraction",
            "1.0",
            &design,
            "-o",
            &out_path,
        ]))
        .unwrap();
        assert!(!msg.contains(", 0 rewrites"), "{msg}");
        assert!(load_netlist(&out_path).unwrap().validate().is_ok());

        // Tying an input to a constant shrinks the interface.
        let original = load_netlist(&design).unwrap();
        let tied_input = original.net(original.inputs()[0]).name().to_owned();
        run(&cmd(&[
            "resynth",
            "--set",
            &format!("{tied_input}=1"),
            &design,
            "-o",
            &out_path,
        ]))
        .unwrap();
        let tied = load_netlist(&out_path).unwrap();
        assert_eq!(tied.inputs().len(), original.inputs().len() - 1);

        let err = run(&cmd(&[
            "resynth",
            "--passes",
            "frobnicate",
            &design,
            "-o",
            &out_path,
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(m) if m.contains("unknown pass")));
    }

    #[test]
    fn full_cli_round_trip() {
        let design = tmp("design.bench");
        let locked = tmp("locked.bench");
        let key = tmp("key.txt");
        let guess = tmp("guess.txt");

        let out = run(&cmd(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "200",
            "--seed",
            "3",
            "-o",
            &design,
        ]))
        .unwrap();
        assert!(out.contains("200 gates"));

        let out = run(&cmd(&[
            "lock",
            "--scheme",
            "dmux",
            "--key-size",
            "8",
            "--seed",
            "5",
            &design,
            "-o",
            &locked,
            "--key-out",
            &key,
        ]))
        .unwrap();
        assert!(out.contains("K = 8"));

        let out = run(&cmd(&["attack", "--method", "saam", &locked, "-o", &guess])).unwrap();
        assert!(out.contains("recovered key"));

        let out = run(&cmd(&[
            "evaluate",
            "--original",
            &design,
            "--locked",
            &locked,
            "--guess",
            &guess,
            "--key",
            &key,
            "--patterns",
            "2048",
        ]))
        .unwrap();
        assert!(out.contains("AC "));
        assert!(out.contains("output HD"));

        let out = run(&cmd(&["stats", &locked])).unwrap();
        assert!(out.contains("key inputs: 8"));
    }

    #[test]
    fn attack_threads_flag_is_accepted_and_invariant() {
        let design = tmp("thr_design.bench");
        let locked = tmp("thr_locked.bench");
        run(&cmd(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "140",
            "--seed",
            "4",
            "-o",
            &design,
        ]))
        .unwrap();
        run(&cmd(&[
            "lock",
            "--scheme",
            "dmux",
            "--key-size",
            "4",
            "--seed",
            "6",
            &design,
            "-o",
            &locked,
        ]))
        .unwrap();
        let one = run(&cmd(&["attack", "--threads", "1", &locked])).unwrap();
        let four = run(&cmd(&["attack", "--threads", "4", &locked])).unwrap();
        assert_eq!(one, four, "recovered key must not depend on --threads");
        assert!(matches!(
            run(&cmd(&["attack", "--threads", "bogus", &locked])),
            Err(CliError::Usage(_))
        ));
        // --timings appends a stage breakdown without touching the key line.
        let timed = run(&cmd(&["attack", "--threads", "1", "--timings", &locked])).unwrap();
        assert!(timed.contains("timings: extract"));
        assert!(timed.contains("train phases: assembly"));
        assert!(timed.starts_with(one.lines().next().unwrap()));
    }

    #[test]
    fn batch_size_flag_is_parsed_and_validated() {
        let design = tmp("bs_design.bench");
        let locked = tmp("bs_locked.bench");
        run(&cmd(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "140",
            "--seed",
            "4",
            "-o",
            &design,
        ]))
        .unwrap();
        run(&cmd(&[
            "lock",
            "--scheme",
            "dmux",
            "--key-size",
            "4",
            "--seed",
            "6",
            &design,
            "-o",
            &locked,
        ]))
        .unwrap();
        // The flag reaches the session: a zero batch is rejected by
        // config validation, not by a panic deep in the trainer.
        match run(&cmd(&["attack", "--batch-size", "0", &locked])) {
            Err(CliError::Domain(m)) => assert!(m.contains("batch_size"), "{m}"),
            other => panic!("expected InvalidConfig domain error, got {other:?}"),
        }
        assert!(matches!(
            run(&cmd(&["attack", "--batch-size", "nope", &locked])),
            Err(CliError::Usage(_))
        ));
        let out = run(&cmd(&["attack", "--batch-size", "16", &locked])).unwrap();
        assert!(out.contains("recovered key"));
    }

    #[test]
    fn sat_attack_round_trip() {
        let design = tmp("sat_design.bench");
        let locked = tmp("sat_locked.bench");
        run(&cmd(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "60",
            "--inputs",
            "8",
            "--outputs",
            "4",
            "--seed",
            "2",
            "-o",
            &design,
        ]))
        .unwrap();
        run(&cmd(&[
            "lock",
            "--scheme",
            "xor",
            "--key-size",
            "4",
            &design,
            "-o",
            &locked,
        ]))
        .unwrap();
        let out = run(&cmd(&["sat-attack", "--oracle", &design, &locked])).unwrap();
        assert!(out.contains("functionally correct: true"));
    }

    #[test]
    fn unknown_subcommand_and_scheme() {
        assert!(matches!(
            run(&cmd(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        let design = tmp("x.bench");
        run(&cmd(&["generate", "--profile", "c17", "-o", &design])).unwrap();
        assert!(matches!(
            run(&cmd(&[
                "lock",
                "--scheme",
                "nope",
                "--key-size",
                "2",
                &design,
                "-o",
                &design
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_lists_subcommands() {
        let h = run(&cmd(&["help"])).unwrap();
        for sub in [
            "generate",
            "lock",
            "attack",
            "train",
            "score",
            "suite",
            "sat-attack",
            "evaluate",
            "stats",
        ] {
            assert!(h.contains(sub), "help should mention {sub}");
        }
    }

    /// train → score resumes the checkpoint with the same key a one-shot
    /// attack recovers, and threshold sweeps re-use it without
    /// retraining.
    #[test]
    fn train_then_score_matches_one_shot_attack() {
        let design = tmp("sess_design.bench");
        let locked = tmp("sess_locked.bench");
        let model = tmp("sess_model.json");
        let guess = tmp("sess_guess.txt");
        run(&cmd(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "150",
            "--seed",
            "9",
            "-o",
            &design,
        ]))
        .unwrap();
        run(&cmd(&[
            "lock",
            "--scheme",
            "dmux",
            "--key-size",
            "4",
            "--seed",
            "2",
            &design,
            "-o",
            &locked,
        ]))
        .unwrap();
        let one_shot = run(&cmd(&["attack", &locked])).unwrap();

        let trained = run(&cmd(&["train", "--save-model", &model, &locked])).unwrap();
        assert!(trained.contains("checkpoint written"));
        let scored = run(&cmd(&["score", "--model", &model, "-o", &guess])).unwrap();
        assert_eq!(
            scored.lines().next().unwrap().split(" [model").next(),
            one_shot.lines().next().map(|l| l.trim_end()),
            "checkpointed score must reproduce the one-shot key line"
        );
        assert!(std::fs::read_to_string(&guess)
            .unwrap()
            .contains("keyinput"));
        // Strictest threshold abstains on every bit — no retraining.
        let strict = run(&cmd(&["score", "--model", &model, "--th", "1.01"])).unwrap();
        assert!(strict.contains("(0/4 bits decided)"));
        // Training-time flags cannot take effect on a checkpoint.
        assert!(matches!(
            run(&cmd(&["score", "--model", &model, "--hops", "2"])),
            Err(CliError::Usage(_))
        ));
    }

    /// attack --save-model checkpoints, attack --model resumes and the
    /// two key lines agree.
    #[test]
    fn attack_save_and_resume_model() {
        let design = tmp("resume_design.bench");
        let locked = tmp("resume_locked.bench");
        let model = tmp("resume_model.json");
        run(&cmd(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "140",
            "--seed",
            "12",
            "-o",
            &design,
        ]))
        .unwrap();
        run(&cmd(&[
            "lock",
            "--scheme",
            "dmux",
            "--key-size",
            "4",
            "--seed",
            "3",
            &design,
            "-o",
            &locked,
        ]))
        .unwrap();
        let first = run(&cmd(&["attack", "--save-model", &model, &locked])).unwrap();
        let resumed = run(&cmd(&["attack", "--model", &model, &locked])).unwrap();
        assert_eq!(first, resumed, "resumed attack must reproduce the key");
        assert!(matches!(
            run(&cmd(&["score", "--model", &design])),
            Err(CliError::Domain(_))
        ));
        // Flags the checkpoint fixes are rejected, not silently ignored.
        assert!(matches!(
            run(&cmd(&["attack", "--model", &model, "--hops", "4", &locked])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&cmd(&["attack", "--quick", "--model", &model, &locked])),
            Err(CliError::Usage(_))
        ));
        // A different design (same key size, same keyinput0..3 names)
        // must be rejected: scoring runs on the checkpoint's design.
        let other_design = tmp("resume_other_design.bench");
        let other_locked = tmp("resume_other_locked.bench");
        run(&cmd(&[
            "generate",
            "--profile",
            "custom",
            "--gates",
            "160",
            "--seed",
            "13",
            "-o",
            &other_design,
        ]))
        .unwrap();
        run(&cmd(&[
            "lock",
            "--scheme",
            "dmux",
            "--key-size",
            "4",
            "--seed",
            "3",
            &other_design,
            "-o",
            &other_locked,
        ]))
        .unwrap();
        let err = run(&cmd(&["attack", "--model", &model, &other_locked])).unwrap_err();
        assert!(
            err.to_string().contains("different design"),
            "mismatched design must be rejected, got: {err}"
        );
    }

    #[test]
    fn suite_runs_multiple_designs_with_json_records() {
        let out_dir = tmp("suite_out");
        let mut locked_paths = Vec::new();
        for (i, (scheme, gates)) in [("dmux", 150usize), ("symmetric", 170)].iter().enumerate() {
            let design = tmp(&format!("suite_design{i}.bench"));
            let locked = tmp(&format!("suite_locked{i}.bench"));
            run(&cmd(&[
                "generate",
                "--profile",
                "custom",
                "--gates",
                &gates.to_string(),
                "--seed",
                &(20 + i).to_string(),
                "-o",
                &design,
            ]))
            .unwrap();
            run(&cmd(&[
                "lock",
                "--scheme",
                scheme,
                "--key-size",
                "4",
                "--seed",
                "5",
                &design,
                "-o",
                &locked,
            ]))
            .unwrap();
            locked_paths.push(locked);
        }
        let out = run(&cmd(&[
            "suite",
            "--threads",
            "2",
            "--out-dir",
            &out_dir,
            &locked_paths[0],
            &locked_paths[1],
        ]))
        .unwrap();
        assert!(out.contains("2 designs"));
        assert!(!out.contains("FAILED"), "{out}");
        for i in 0..2 {
            let path = std::path::Path::new(&out_dir).join(format!("suite_locked{i}.json"));
            let text = std::fs::read_to_string(&path).unwrap();
            let record: muxlink_core::SuiteRecord = serde_json::from_str(&text).unwrap();
            assert!(record.ok(), "{:?}", record.error);
            assert_eq!(record.key_len, 4);
        }
        assert!(matches!(run(&cmd(&["suite"])), Err(CliError::Usage(_))));
    }
}
