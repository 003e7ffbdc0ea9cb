//! The attack engine: job queue, worker pool, single-flight coalescing
//! and the cache-aware submit path — everything the daemon does
//! *except* sockets, so the whole lifecycle is testable in-process.
//!
//! ## Submit flow
//!
//! 1. resolve the netlist (inline text or daemon-side path), derive the
//!    key-input names and the [`DesignFingerprint`];
//! 2. under the in-flight lock, one attach-or-register step: attach to
//!    an in-flight job of the same fingerprint, recipe
//!    ([`MuxLinkConfig::same_recipe`]) and threshold if one exists
//!    (**single-flight** — the same design with the same recipe never
//!    trains twice concurrently); otherwise consult the
//!    [`CheckpointCache`], and register and queue a job when it has no
//!    entry or only one of another training recipe (latest recipe wins
//!    the cache slot);
//! 3. outside the lock, a cache hit is **verified** against the
//!    incoming netlist ([`Trained::verify_design`]); failure expels the
//!    entry and retries step 2;
//! 4. verified hits are scored on the submitting thread (milliseconds)
//!    and answered inline.
//!
//! Workers re-check the cache when they dequeue a job — a duplicate
//! submit that queued behind the first train of a design completes as a
//! cache hit instead of training again.
//!
//! ## Error isolation
//!
//! Worker panics are caught ([`std::panic::catch_unwind`]) and recorded
//! as job failures; poisoned locks are recovered (every critical
//! section leaves coherent state); a subscriber whose connection died
//! is dropped at the next event. Nothing a single job does can take
//! down the daemon or wedge a worker.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use muxlink_core::{
    key_input_names, AttackSession, DesignFingerprint, EpochStats, MuxLinkConfig, NoProgress,
    Progress, ScoredDesign, Stage, Trained,
};
use muxlink_locking::KeyValue;
use muxlink_netlist::{bench_format, Netlist};

use crate::cache::CheckpointCache;
use crate::proto::{
    render_response, EventMsg, JobKind, Response, ResultResponse, StatsResponse, StatusResponse,
    SubmitRequest, SweepRow, PROTOCOL_VERSION,
};

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// On-disk checkpoint store (`None` = memory-only cache).
    pub cache_dir: Option<PathBuf>,
    /// In-memory LRU capacity.
    pub cache_entries: usize,
    /// Worker threads draining the job queue.
    pub workers: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            cache_dir: None,
            cache_entries: 8,
            workers: 1,
        }
    }
}

/// Terminal or in-progress state of a job.
enum JobState {
    Queued,
    Running,
    Done(Box<ResultResponse>),
    Failed(String),
    Cancelled,
}

impl JobState {
    fn is_terminal(&self) -> bool {
        !matches!(self, Self::Queued | Self::Running)
    }

    fn name(&self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done(_) => "done",
            Self::Failed(_) => "failed",
            Self::Cancelled => "cancelled",
        }
    }
}

struct JobEntry {
    id: u64,
    /// Fingerprint hex — the cache key.
    key_hex: String,
    kind: JobKind,
    netlist: Netlist,
    names: Vec<String>,
    /// With `key_hex`, the single-flight identity: a submit attaches
    /// only to a job of the same design, the same recipe
    /// ([`MuxLinkConfig::same_recipe`]) and the same threshold, so a
    /// different recipe or threshold never silently adopts another
    /// job's result.
    cfg: MuxLinkConfig,
    cancel: muxlink_core::CancelFlag,
    state: Mutex<JobState>,
    done: Condvar,
    /// Pre-rendered NDJSON event lines go to these; cleared when the
    /// job reaches a terminal state, which hangs up every streaming
    /// receiver.
    subscribers: Mutex<Vec<mpsc::Sender<String>>>,
    epochs_done: AtomicUsize,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl JobEntry {
    fn set_state(&self, next: JobState) {
        *lock(&self.state) = next;
        self.done.notify_all();
        // Hang up streamers: their `Receiver` iteration ends when the
        // last sender drops.
        lock(&self.subscribers).clear();
    }

    fn broadcast(&self, line: &str) {
        lock(&self.subscribers).retain(|tx| tx.send(line.to_owned()).is_ok());
    }
}

/// Per-job [`Progress`] bridge: counts epochs, streams events, polls
/// the job's cancel flag.
struct JobProgress<'a> {
    job: &'a JobEntry,
}

impl Progress for JobProgress<'_> {
    fn stage_started(&self, stage: Stage) {
        self.job
            .broadcast(&render_response(&Response::Event(EventMsg {
                event: "stage".to_owned(),
                job_id: self.job.id,
                epoch: None,
                train_loss: None,
                val_accuracy: None,
                stage: Some(stage.to_string()),
                seconds: None,
            })));
    }

    fn stage_finished(&self, stage: Stage, elapsed: std::time::Duration) {
        self.job
            .broadcast(&render_response(&Response::Event(EventMsg {
                event: "stage".to_owned(),
                job_id: self.job.id,
                epoch: None,
                train_loss: None,
                val_accuracy: None,
                stage: Some(stage.to_string()),
                seconds: Some(elapsed.as_secs_f64()),
            })));
    }

    fn epoch_finished(&self, stats: &EpochStats) {
        self.job.epochs_done.fetch_add(1, Ordering::Relaxed);
        self.job
            .broadcast(&render_response(&Response::Event(EventMsg {
                event: "epoch".to_owned(),
                job_id: self.job.id,
                epoch: Some(stats.epoch),
                train_loss: Some(stats.train_loss),
                val_accuracy: Some(stats.val_accuracy),
                stage: None,
                seconds: None,
            })));
    }

    fn cancelled(&self) -> bool {
        // `CancelFlag` exposes its state through its own `Progress`
        // impl.
        Progress::cancelled(&self.job.cancel)
    }
}

/// Outcome of [`Engine::submit`].
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Served inline from a verified cache hit — no job was queued.
    Ready(Box<ResultResponse>),
    /// A job was queued (or the submit attached to an identical
    /// in-flight job).
    Queued {
        /// Job to poll / wait on.
        job_id: u64,
        /// Fingerprint hex.
        key: String,
        /// Whether this submit attached to an in-flight identical job
        /// instead of queueing its own.
        coalesced: bool,
    },
}

/// The daemon's core: shared by every connection handler and worker.
pub struct Engine {
    cache: CheckpointCache,
    jobs: Mutex<HashMap<u64, Arc<JobEntry>>>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    /// Fingerprint hex → active (queued or running) job ids.
    inflight: Mutex<HashMap<String, Vec<u64>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    started: Instant,
    worker_count: usize,
    submitted: AtomicU64,
    done_jobs: AtomicU64,
    failed_jobs: AtomicU64,
    cancelled_jobs: AtomicU64,
    trainings: AtomicU64,
    coalesced_submits: AtomicU64,
    running_jobs: AtomicUsize,
}

fn render_guess(guess: &[KeyValue]) -> (String, usize) {
    let rendered: String = guess.iter().map(ToString::to_string).collect();
    let decided = guess.iter().filter(|v| **v != KeyValue::X).count();
    (rendered, decided)
}

fn result_from_scored(
    job_id: Option<u64>,
    key_hex: &str,
    cache_hit: bool,
    scored: &ScoredDesign,
    th: f64,
    train_seconds: f64,
) -> ResultResponse {
    let guess = scored.recover_key(th);
    let (key_string, decided) = render_guess(&guess);
    ResultResponse {
        job_id,
        key: key_hex.to_owned(),
        cache_hit,
        coalesced: false,
        key_string,
        decided,
        key_len: scored.key_len,
        scores: scored.scores.clone(),
        th,
        val_accuracy: scored.train_report.best_val_accuracy,
        epochs: scored.train_report.history.len(),
        train_seconds,
        score_seconds: scored.timings.score.as_secs_f64(),
    }
}

impl Engine {
    /// Builds an engine (cache dir created if configured). Workers are
    /// spawned separately with [`Engine::spawn_workers`].
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the cache directory cannot be created.
    pub fn new(opts: &EngineOptions) -> std::io::Result<Arc<Self>> {
        Ok(Arc::new(Self {
            cache: CheckpointCache::new(opts.cache_dir.clone(), opts.cache_entries)?,
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            worker_count: opts.workers.max(1),
            submitted: AtomicU64::new(0),
            done_jobs: AtomicU64::new(0),
            failed_jobs: AtomicU64::new(0),
            cancelled_jobs: AtomicU64::new(0),
            trainings: AtomicU64::new(0),
            coalesced_submits: AtomicU64::new(0),
            running_jobs: AtomicUsize::new(0),
        }))
    }

    /// Spawns the worker pool; join the handles after
    /// [`Engine::begin_drain`] for a graceful exit.
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.worker_count)
            .map(|i| {
                let engine = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("muxlink-worker-{i}"))
                    .spawn(move || engine.worker_loop())
                    .expect("spawning a worker thread")
            })
            .collect()
    }

    /// Stops accepting submits and tells idle workers to exit once the
    /// queue is empty; already-queued and running jobs are drained.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Whether [`Engine::begin_drain`] has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn resolve_netlist(sreq: &SubmitRequest) -> Result<Netlist, String> {
        if let Some(text) = &sreq.netlist {
            return bench_format::parse("design", text).map_err(|e| format!("inline netlist: {e}"));
        }
        let path = sreq
            .netlist_path
            .as_ref()
            .ok_or("submit needs `netlist` (inline text) or `netlist_path`")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("design");
        bench_format::parse(name, &text).map_err(|e| format!("{path}: {e}"))
    }

    fn build_cfg(sreq: &SubmitRequest) -> Result<MuxLinkConfig, String> {
        if sreq.job == JobKind::Score
            && (sreq.paper
                || sreq.hops.is_some()
                || sreq.seed.is_some()
                || sreq.batch_size.is_some())
        {
            return Err(
                "score jobs reuse a cached checkpoint and cannot override the training recipe \
                 (only `th` and `threads`)"
                    .into(),
            );
        }
        let mut cfg = if sreq.paper {
            MuxLinkConfig::paper()
        } else {
            MuxLinkConfig::quick()
        };
        if let Some(x) = sreq.th {
            cfg.th = x;
        }
        if let Some(x) = sreq.hops {
            cfg.h = x;
        }
        if let Some(x) = sreq.seed {
            cfg.seed = x;
        }
        if let Some(x) = sreq.threads {
            cfg.threads = x;
        }
        if let Some(x) = sreq.batch_size {
            cfg.batch_size = x;
        }
        Ok(cfg)
    }

    /// Serves a verified cache hit hot: clone the checkpoint, apply the
    /// request's threshold, threads and chunk size, score (milliseconds)
    /// and recover.
    fn serve_hot(
        &self,
        key_hex: &str,
        entry: &Trained,
        cfg: &MuxLinkConfig,
        job_id: Option<u64>,
    ) -> Result<ResultResponse, String> {
        let mut hot = entry.clone();
        hot.cfg.th = cfg.th;
        hot.cfg.threads = cfg.threads;
        hot.cfg.sample_chunk = cfg.sample_chunk;
        let scored = hot.score(&NoProgress).map_err(|e| e.to_string())?;
        Ok(result_from_scored(
            job_id, key_hex, true, &scored, cfg.th, 0.0,
        ))
    }

    /// Submits a job. Returns [`SubmitOutcome::Ready`] when a verified
    /// cache hit answered inline, otherwise
    /// [`SubmitOutcome::Queued`].
    ///
    /// # Errors
    ///
    /// A wire-ready message: unresolvable netlist, not a locked design,
    /// invalid override combination, `score` without a cached
    /// checkpoint, or the daemon draining.
    pub fn submit(&self, sreq: &SubmitRequest) -> Result<SubmitOutcome, String> {
        if self.is_draining() {
            return Err("daemon is shutting down; submit rejected".into());
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let netlist = Self::resolve_netlist(sreq)?;
        let names = key_input_names(&netlist);
        if names.is_empty() {
            return Err("no keyinput* nets found — is this a locked design?".into());
        }
        let cfg = Self::build_cfg(sreq)?;
        let key_hex = DesignFingerprint::of_netlist(&netlist, &names)
            .map_err(|e| e.to_string())?
            .to_hex();
        // The single-flight critical section: in-flight check, cache
        // lookup, recipe check and (when the cache cannot answer) job
        // registration happen under one lock, so two identical submits
        // can never both queue a train. Reading a disk-tier checkpoint,
        // verification and hot scoring run outside it: under the lock
        // the cache only looks up (or promotes) memory.
        loop {
            let from_disk = self.cache.read_disk(&key_hex);
            let entry = {
                let mut inflight = lock(&self.inflight);
                let attach = inflight.get(&key_hex).and_then(|active| {
                    let jobs = lock(&self.jobs);
                    // A job that already finished (but whose worker has
                    // not yet swept the in-flight map) is never worth
                    // attaching to — its checkpoint is in the cache, so
                    // fall through to the lookup instead of spinning on
                    // wait-and-resubmit. A score job waits for any
                    // training of its design.
                    active.iter().copied().find(|id| {
                        jobs.get(id).is_some_and(|j| {
                            !lock(&j.state).is_terminal()
                                && ((sreq.job == JobKind::Score && j.kind != JobKind::Score)
                                    || (j.cfg.same_recipe(&cfg)
                                        && j.cfg.th.to_bits() == cfg.th.to_bits()))
                        })
                    })
                });
                if let Some(job_id) = attach {
                    self.coalesced_submits.fetch_add(1, Ordering::Relaxed);
                    return Ok(SubmitOutcome::Queued {
                        job_id,
                        key: key_hex,
                        coalesced: true,
                    });
                }
                match self.cache.lookup_or_promote(&key_hex, from_disk) {
                    // A score job re-scores whatever recipe is cached.
                    Some(entry) if sreq.job == JobKind::Score || entry.cfg.same_recipe(&cfg) => {
                        entry
                    }
                    None if sreq.job == JobKind::Score => {
                        return Err(format!(
                            "no cached checkpoint for design {key_hex}; submit an attack or \
                             train job first"
                        ));
                    }
                    // A miss, or the same design under another training
                    // recipe: the cache cannot answer, so train fresh
                    // (the new checkpoint takes the slot — latest recipe
                    // wins).
                    _ => {
                        let job = self.register_job(sreq.job, &key_hex, netlist, names, cfg);
                        inflight.entry(key_hex.clone()).or_default().push(job.id);
                        drop(inflight);
                        self.enqueue(job.id);
                        return Ok(SubmitOutcome::Queued {
                            job_id: job.id,
                            key: key_hex,
                            coalesced: false,
                        });
                    }
                }
            };
            // Outside the lock: verify the entry belongs to this exact
            // netlist.
            if entry.verify_design(&netlist, &names).is_err() {
                // A colliding or stale artifact under this key: expel
                // it and retry the loop (someone else may have
                // registered a job meanwhile — the re-lock handles it).
                self.cache.reject(&key_hex);
                continue;
            }
            let result = self.serve_hot(&key_hex, &entry, &cfg, None)?;
            return Ok(SubmitOutcome::Ready(Box::new(result)));
        }
    }

    fn register_job(
        &self,
        kind: JobKind,
        key_hex: &str,
        netlist: Netlist,
        names: Vec<String>,
        cfg: MuxLinkConfig,
    ) -> Arc<JobEntry> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(JobEntry {
            id,
            key_hex: key_hex.to_owned(),
            kind,
            netlist,
            names,
            cfg,
            cancel: muxlink_core::CancelFlag::new(),
            state: Mutex::new(JobState::Queued),
            done: Condvar::new(),
            subscribers: Mutex::new(Vec::new()),
            epochs_done: AtomicUsize::new(0),
        });
        let mut jobs = lock(&self.jobs);
        // Bound the registry: terminal jobs whose results nobody
        // fetched must not accumulate netlists forever in a
        // long-running daemon. Oldest terminal entries go first;
        // live jobs are never pruned.
        if jobs.len() >= MAX_RETAINED_JOBS {
            let mut terminal: Vec<u64> = jobs
                .iter()
                .filter(|(_, j)| lock(&j.state).is_terminal())
                .map(|(&jid, _)| jid)
                .collect();
            terminal.sort_unstable();
            for jid in terminal
                .into_iter()
                .take(jobs.len() + 1 - MAX_RETAINED_JOBS)
            {
                jobs.remove(&jid);
            }
        }
        jobs.insert(id, Arc::clone(&job));
        job
    }

    fn enqueue(&self, id: u64) {
        lock(&self.queue).push_back(id);
        self.queue_cv.notify_one();
    }

    fn job(&self, id: u64) -> Result<Arc<JobEntry>, String> {
        lock(&self.jobs)
            .get(&id)
            .cloned()
            .ok_or_else(|| format!("unknown job id {id}"))
    }

    /// Subscribes `tx` to a job's pre-rendered NDJSON event lines. The
    /// sender is dropped (hanging up the receiver) when the job reaches
    /// a terminal state. A no-op for already-terminal jobs.
    ///
    /// # Errors
    ///
    /// When the job id is unknown.
    pub fn subscribe(&self, job_id: u64, tx: mpsc::Sender<String>) -> Result<(), String> {
        let job = self.job(job_id)?;
        let mut subs = lock(&job.subscribers);
        if !lock(&job.state).is_terminal() {
            subs.push(tx);
        }
        Ok(())
    }

    /// Non-blocking job state.
    ///
    /// # Errors
    ///
    /// When the job id is unknown.
    pub fn status(&self, job_id: u64) -> Result<StatusResponse, String> {
        let job = self.job(job_id)?;
        let state = lock(&job.state);
        Ok(StatusResponse {
            job_id,
            state: state.name().to_owned(),
            key: job.key_hex.clone(),
            epochs_done: job.epochs_done.load(Ordering::Relaxed),
            error: match &*state {
                JobState::Failed(msg) => Some(msg.clone()),
                _ => None,
            },
        })
    }

    /// Blocks until the job is terminal and returns its result.
    ///
    /// # Errors
    ///
    /// The job's failure message, a cancellation notice, or an unknown
    /// job id.
    pub fn wait_result(&self, job_id: u64) -> Result<ResultResponse, String> {
        let job = self.job(job_id)?;
        let mut state = lock(&job.state);
        while !state.is_terminal() {
            state = job
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        match &*state {
            JobState::Done(result) => Ok((**result).clone()),
            JobState::Failed(msg) => Err(msg.clone()),
            JobState::Cancelled => Err(format!("job {job_id} was cancelled")),
            JobState::Queued | JobState::Running => unreachable!("loop exits on terminal state"),
        }
    }

    /// Submits and blocks until a result is available, transparently
    /// chasing single-flight attachments: when the submit coalesced
    /// onto an in-flight job, waits for that job and resubmits — the
    /// resubmit is then answered from the cache with **this** request's
    /// threshold, verified against **this** request's netlist.
    ///
    /// `on_event` (when given) receives the job's pre-rendered NDJSON
    /// event lines on the calling thread while waiting.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`] / [`Engine::wait_result`].
    pub fn run_to_completion(
        &self,
        sreq: &SubmitRequest,
        mut on_event: Option<&mut dyn FnMut(String)>,
    ) -> Result<ResultResponse, String> {
        let mut coalesced = false;
        // Bounded: each pass either returns or waits out one in-flight
        // job; pathological churn (trains keep failing over and over)
        // ends in the last pass's error rather than livelock.
        for _ in 0..8 {
            match self.submit(sreq)? {
                SubmitOutcome::Ready(mut result) => {
                    result.coalesced |= coalesced;
                    return Ok(*result);
                }
                SubmitOutcome::Queued {
                    job_id,
                    coalesced: true,
                    ..
                } => {
                    coalesced = true;
                    // The primary's own failure is not ours to report:
                    // the retry either hits the cache it filled, or
                    // queues a fresh job of our own.
                    let _ = self.wait_result(job_id);
                }
                SubmitOutcome::Queued { job_id, .. } => {
                    if let Some(cb) = on_event.as_mut() {
                        let (tx, rx) = mpsc::channel();
                        self.subscribe(job_id, tx)?;
                        for line in rx {
                            cb(line);
                        }
                    }
                    let mut result = self.wait_result(job_id)?;
                    result.coalesced |= coalesced;
                    return Ok(result);
                }
            }
        }
        Err("submit kept attaching to failing in-flight jobs; giving up".into())
    }

    /// Threshold-sweeps a cached checkpoint (never trains).
    ///
    /// # Errors
    ///
    /// A malformed key, or no cached checkpoint under it.
    pub fn sweep(&self, key: &str, thresholds: &[f64]) -> Result<Vec<SweepRow>, String> {
        // The cache keys on the canonical lower-case spelling.
        let key = DesignFingerprint::parse(key)?.to_hex();
        let entry = self.cache.lookup(&key).ok_or_else(|| {
            format!("no cached checkpoint for design {key}; submit an attack or train job first")
        })?;
        let scored = entry.score(&NoProgress).map_err(|e| e.to_string())?;
        Ok(thresholds
            .iter()
            .map(|&th| {
                let (key_string, decided) = render_guess(&scored.recover_key(th));
                SweepRow {
                    th,
                    key_string,
                    decided,
                }
            })
            .collect())
    }

    /// Cooperatively cancels a job: queued jobs are resolved
    /// immediately, running jobs observe the flag at the next batch
    /// boundary.
    ///
    /// # Errors
    ///
    /// When the job id is unknown.
    pub fn cancel(&self, job_id: u64) -> Result<(), String> {
        let job = self.job(job_id)?;
        job.cancel.cancel();
        let mut state = lock(&job.state);
        if matches!(&*state, JobState::Queued) {
            *state = JobState::Cancelled;
            drop(state);
            job.done.notify_all();
            lock(&job.subscribers).clear();
            self.cancelled_jobs.fetch_add(1, Ordering::Relaxed);
            self.remove_inflight(&job);
        }
        Ok(())
    }

    /// Counter snapshot for the `stats` request.
    #[must_use]
    pub fn stats(&self) -> StatsResponse {
        let cache = self.cache.stats();
        StatsResponse {
            protocol: PROTOCOL_VERSION,
            workers: self.worker_count,
            jobs_submitted: self.submitted.load(Ordering::Relaxed),
            jobs_queued: lock(&self.queue).len(),
            jobs_running: self.running_jobs.load(Ordering::Relaxed),
            jobs_done: self.done_jobs.load(Ordering::Relaxed),
            jobs_failed: self.failed_jobs.load(Ordering::Relaxed),
            jobs_cancelled: self.cancelled_jobs.load(Ordering::Relaxed),
            trainings: self.trainings.load(Ordering::Relaxed),
            coalesced_submits: self.coalesced_submits.load(Ordering::Relaxed),
            cache_memory_entries: self.cache.memory_len(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_disk_hits: cache.disk_hits,
            cache_insertions: cache.insertions,
            cache_evictions: cache.evictions,
            cache_verify_rejections: cache.verify_rejections,
            uptime_seconds: self.started.elapsed().as_secs_f64(),
        }
    }

    // -- worker side ---------------------------------------------------

    fn worker_loop(self: Arc<Self>) {
        loop {
            let id = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(id) = queue.pop_front() {
                        break id;
                    }
                    if self.is_draining() {
                        return;
                    }
                    queue = self
                        .queue_cv
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            self.run_job(id);
        }
    }

    fn remove_inflight(&self, job: &JobEntry) {
        let mut inflight = lock(&self.inflight);
        if let Some(active) = inflight.get_mut(&job.key_hex) {
            active.retain(|&id| id != job.id);
            if active.is_empty() {
                inflight.remove(&job.key_hex);
            }
        }
    }

    fn run_job(&self, id: u64) {
        let Ok(job) = self.job(id) else { return };
        {
            let mut state = lock(&job.state);
            if state.is_terminal() {
                // Cancelled while queued.
                return;
            }
            *state = JobState::Running;
        }
        self.running_jobs.fetch_add(1, Ordering::Relaxed);
        // A panicking job must not take its worker down with it: catch,
        // record, move on. `AssertUnwindSafe` is sound here because the
        // closure only hands out `&job`/`&self` state that is either
        // atomically updated or re-acquired through poison-recovering
        // locks.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(&job)))
            .unwrap_or_else(|_| Err("internal error: job panicked (worker recovered)".into()));
        self.running_jobs.fetch_sub(1, Ordering::Relaxed);
        // Release the single-flight slot *before* publishing the
        // terminal state: a waiter woken by `set_state` must find the
        // in-flight map already swept, or its resubmit would re-attach
        // to this finished job.
        self.remove_inflight(&job);
        match outcome {
            Ok(result) => {
                self.done_jobs.fetch_add(1, Ordering::Relaxed);
                job.set_state(JobState::Done(result));
            }
            Err(msg) if msg == CANCELLED_MARK => {
                self.cancelled_jobs.fetch_add(1, Ordering::Relaxed);
                job.set_state(JobState::Cancelled);
            }
            Err(msg) => {
                self.failed_jobs.fetch_add(1, Ordering::Relaxed);
                job.set_state(JobState::Failed(msg));
            }
        }
    }

    /// The expensive part of a job, on a worker thread.
    fn execute(&self, job: &JobEntry) -> Result<Box<ResultResponse>, String> {
        // Re-check the cache: a duplicate of a design whose first train
        // completed while this job sat in the queue is a hit now.
        if let Some(entry) = self.cache.lookup(&job.key_hex) {
            if entry.verify_design(&job.netlist, &job.names).is_ok()
                && entry.cfg.same_recipe(&job.cfg)
            {
                let result = self.serve_hot(&job.key_hex, &entry, &job.cfg, Some(job.id))?;
                return Ok(Box::new(result));
            }
        }
        let progress = JobProgress { job };
        let map_err = |e: muxlink_core::AttackError| match e {
            muxlink_core::AttackError::Cancelled => CANCELLED_MARK.to_owned(),
            other => other.to_string(),
        };
        let trained = AttackSession::new(&job.netlist, &job.names, job.cfg.clone())
            .extract()
            .map_err(map_err)?
            .prepare(&progress)
            .map_err(map_err)?
            .train(&progress)
            .map_err(map_err)?;
        self.trainings.fetch_add(1, Ordering::Relaxed);
        let train_seconds = trained.timings.train.as_secs_f64();
        let trained = Arc::new(trained);
        if let Err(e) = self.cache.insert(&job.key_hex, Arc::clone(&trained)) {
            // A failed disk write degrades persistence, not service.
            eprintln!("[muxlink-serve] cache write failed: {e}");
        }
        let scored = trained.score(&progress).map_err(map_err)?;
        Ok(Box::new(result_from_scored(
            Some(job.id),
            &job.key_hex,
            false,
            &scored,
            job.cfg.th,
            train_seconds,
        )))
    }
}

/// Internal sentinel distinguishing cooperative cancellation from a
/// real failure in the worker's error channel.
const CANCELLED_MARK: &str = "\u{0}cancelled";

/// Terminal-job registry bound (see [`Engine::register_job`]).
const MAX_RETAINED_JOBS: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use muxlink_locking::{dmux, LockOptions};

    fn locked_bench(seed: u64, gates: usize, key_bits: usize) -> String {
        let design =
            muxlink_benchgen::synth::SynthConfig::new("engine", 12, 5, gates).generate(seed);
        let locked = dmux::lock(&design, &LockOptions::new(key_bits, 3)).unwrap();
        bench_format::write(&locked.netlist).unwrap()
    }

    fn fast_submit(bench: &str) -> SubmitRequest {
        let mut sreq = SubmitRequest::inline(JobKind::Attack, bench);
        // Tiny recipe: keep engine unit tests in the hundreds of ms.
        sreq.hops = Some(1);
        sreq.threads = Some(1);
        sreq
    }

    fn engine_with_workers(workers: usize) -> (Arc<Engine>, Vec<JoinHandle<()>>) {
        let engine = Engine::new(&EngineOptions {
            cache_dir: None,
            cache_entries: 4,
            workers,
        })
        .unwrap();
        let handles = engine.spawn_workers();
        (engine, handles)
    }

    fn drain(engine: &Arc<Engine>, handles: Vec<JoinHandle<()>>) {
        engine.begin_drain();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cold_then_warm_submit_is_a_verified_cache_hit_with_identical_scores() {
        let (engine, handles) = engine_with_workers(1);
        let bench = locked_bench(1, 140, 4);
        let sreq = fast_submit(&bench);
        let cold = engine.run_to_completion(&sreq, None).unwrap();
        assert!(!cold.cache_hit);
        let warm = engine.run_to_completion(&sreq, None).unwrap();
        assert!(warm.cache_hit, "second submit must hit the cache");
        assert_eq!(warm.key, cold.key);
        assert_eq!(warm.key_string, cold.key_string);
        assert_eq!(warm.scores, cold.scores, "bitwise-identical likelihoods");
        assert_eq!(engine.stats().trainings, 1, "one training total");
        drain(&engine, handles);
    }

    /// `sample_chunk` never changes a bit, so a checkpoint trained at
    /// another chunk size is a hit for a default request and scores
    /// bitwise like a cold default-recipe attack.
    #[test]
    fn checkpoint_at_another_chunk_size_is_a_hit_with_identical_scores() {
        let bench = locked_bench(6, 140, 4);
        let (engine, handles) = engine_with_workers(1);
        let cold = engine
            .run_to_completion(&fast_submit(&bench), None)
            .unwrap();
        drain(&engine, handles);

        let (engine, handles) = engine_with_workers(1);
        let netlist = bench_format::parse("design", &bench).unwrap();
        let names = key_input_names(&netlist);
        let cfg = Engine::build_cfg(&fast_submit(&bench))
            .unwrap()
            .with_sample_chunk(64);
        assert_ne!(cfg.sample_chunk, MuxLinkConfig::quick().sample_chunk);
        let trained = AttackSession::new(&netlist, &names, cfg)
            .extract()
            .and_then(|x| x.prepare(&NoProgress))
            .and_then(|p| p.train(&NoProgress))
            .unwrap();
        engine
            .cache
            .insert(&trained.fingerprint().to_hex(), Arc::new(trained))
            .unwrap();
        let SubmitOutcome::Ready(hit) = engine.submit(&fast_submit(&bench)).unwrap() else {
            panic!("a checkpoint at another chunk size must be a hit");
        };
        assert!(hit.cache_hit);
        assert_eq!(engine.stats().trainings, 0, "served without training");
        assert_eq!(hit.key, cold.key);
        assert_eq!(hit.key_string, cold.key_string);
        let bits = |s: &[(f64, f64)]| -> Vec<(u64, u64)> {
            s.iter().map(|(a, b)| (a.to_bits(), b.to_bits())).collect()
        };
        assert_eq!(bits(&hit.scores), bits(&cold.scores));
        drain(&engine, handles);
    }

    #[test]
    fn concurrent_identical_submits_train_at_most_once() {
        let (engine, handles) = engine_with_workers(2);
        let bench = locked_bench(2, 140, 4);
        let sreq = fast_submit(&bench);
        let results: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let sreq = sreq.clone();
                    scope.spawn(move || engine.run_to_completion(&sreq, None).unwrap())
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(engine.stats().trainings, 1, "single-flight: one train");
        let first = &results[0];
        for r in &results {
            assert_eq!(r.key, first.key);
            assert_eq!(r.key_string, first.key_string);
            assert_eq!(r.scores, first.scores);
        }
        drain(&engine, handles);
    }

    #[test]
    fn score_jobs_never_train_and_sweep_reuses_the_checkpoint() {
        let (engine, handles) = engine_with_workers(1);
        let bench = locked_bench(3, 140, 4);
        // Score before any train: explicit error, nothing queued.
        let miss = engine.run_to_completion(&SubmitRequest::inline(JobKind::Score, &bench), None);
        assert!(miss.unwrap_err().contains("no cached checkpoint"));
        let cold = engine
            .run_to_completion(&fast_submit(&bench), None)
            .unwrap();
        let mut score = SubmitRequest::inline(JobKind::Score, &bench);
        score.th = Some(0.9);
        let hot = engine.run_to_completion(&score, None).unwrap();
        assert!(hot.cache_hit);
        assert_eq!(hot.scores, cold.scores);
        assert_eq!(hot.th, 0.9);
        // Recipe overrides on score jobs are rejected.
        let mut bad = SubmitRequest::inline(JobKind::Score, &bench);
        bad.hops = Some(3);
        assert!(engine
            .run_to_completion(&bad, None)
            .unwrap_err()
            .contains("training recipe"));
        let rows = engine.sweep(&cold.key, &[0.5, 0.9]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(engine.stats().trainings, 1);
        drain(&engine, handles);
    }

    /// The cache keys on the canonical lower-case fingerprint, so a sweep
    /// under the upper-cased spelling of a cached design's key is the
    /// same hit; a key `from_str_radix` alone would take (a `+`-signed
    /// word) is refused.
    #[test]
    fn sweep_accepts_any_hex_case_and_refuses_a_signed_word() {
        let (engine, handles) = engine_with_workers(1);
        let bench = locked_bench(7, 140, 4);
        let cold = engine
            .run_to_completion(&fast_submit(&bench), None)
            .unwrap();
        let upper = engine
            .sweep(&cold.key.to_ascii_uppercase(), &[cold.th])
            .unwrap();
        assert_eq!(upper[0].key_string, cold.key_string);
        let signed = format!("{}+{}", &cold.key[..16], &cold.key[17..]);
        assert_eq!(signed.len(), 64);
        assert!(engine
            .sweep(&signed, &[cold.th])
            .unwrap_err()
            .contains("non-hex"));
        drain(&engine, handles);
    }

    #[test]
    fn cancelled_queued_jobs_resolve_without_running() {
        // No workers started: jobs stay queued until cancelled.
        let engine = Engine::new(&EngineOptions::default()).unwrap();
        let bench = locked_bench(4, 140, 4);
        let SubmitOutcome::Queued { job_id, .. } = engine.submit(&fast_submit(&bench)).unwrap()
        else {
            panic!("empty cache must queue");
        };
        engine.cancel(job_id).unwrap();
        let err = engine.wait_result(job_id).unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
        assert_eq!(engine.status(job_id).unwrap().state, "cancelled");
        assert_eq!(engine.stats().jobs_cancelled, 1);
        // The in-flight slot was released: a resubmit queues fresh.
        assert!(matches!(
            engine.submit(&fast_submit(&bench)).unwrap(),
            SubmitOutcome::Queued {
                coalesced: false,
                ..
            }
        ));
    }

    #[test]
    fn draining_rejects_new_submits() {
        let (engine, handles) = engine_with_workers(1);
        drain(&engine, handles);
        let bench = locked_bench(5, 140, 4);
        assert!(engine
            .submit(&fast_submit(&bench))
            .unwrap_err()
            .contains("shutting down"));
    }
}
