//! The attack-service wire protocol.
//!
//! Transport framing is **newline-delimited JSON**: every request and
//! every response is exactly one JSON object on one line (`\n`
//! terminated, no embedded newlines — the vendored `serde_json`
//! compact writer guarantees that). A connection carries any number of
//! requests; the daemon answers each in order, interleaving streamed
//! [`Response::Event`] lines for jobs submitted with `"stream": true`.
//!
//! Every object carries the protocol version under `"v"`; a missing
//! `"v"` is read as version 1 (so hand-typed `echo`-style requests
//! work), any other version is rejected with [`Response::Error`].
//! Requests are tagged by `"kind"`; unknown optional fields default
//! rather than error, so older clients keep working as fields are
//! added — the enums here are the compatibility surface, which is why
//! their serde is written by hand instead of derived.
//!
//! Fingerprints travel as the 64-char hex form of
//! [`muxlink_core::DesignFingerprint`] under the `"key"` field — the
//! same value that keys the checkpoint cache, so a client can `sweep`
//! any design it has ever submitted by quoting the key back.
//!
//! Score vectors in [`ResultResponse`] are the raw `(l0, l1)`
//! likelihood pairs. JSON `f64` round-trips are lossless in the
//! vendored writer, so "warm response bitwise-identical to cold
//! response" is checkable across the wire.

use serde::{DeError, Deserialize, Serialize, Value};

/// Wire-protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// What a submitted job should do once the design is identified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Train (or reuse a cached checkpoint), score and recover the key.
    Attack,
    /// Train and cache the checkpoint; also reports the recovered key
    /// (scoring costs milliseconds once training is paid for).
    Train,
    /// Score an already-cached checkpoint only — never trains; errors
    /// when the design has no cached (or in-flight) checkpoint.
    Score,
}

impl JobKind {
    /// The lower-case wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Attack => "attack",
            Self::Train => "train",
            Self::Score => "score",
        }
    }

    /// Parses the wire name.
    ///
    /// # Errors
    ///
    /// A usage message naming the accepted kinds.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "attack" => Ok(Self::Attack),
            "train" => Ok(Self::Train),
            "score" => Ok(Self::Score),
            other => Err(format!(
                "unknown job kind {} (expected attack, train or score)",
                serde::excerpt(other)
            )),
        }
    }
}

/// A `submit` request: attack/train/score one design.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// What to do with the design.
    pub job: JobKind,
    /// Inline `.bench` netlist text (takes precedence over
    /// [`Self::netlist_path`]).
    pub netlist: Option<String>,
    /// Daemon-side path to a `.bench` file.
    pub netlist_path: Option<String>,
    /// Use the paper training profile instead of `quick`.
    pub paper: bool,
    /// Decision threshold override (`cfg.th`).
    pub th: Option<f64>,
    /// Enclosing-subgraph hops override (`cfg.h`) — training recipe.
    pub hops: Option<usize>,
    /// RNG seed override — training recipe.
    pub seed: Option<u64>,
    /// Worker-thread override (results are thread-count invariant).
    pub threads: Option<usize>,
    /// Minibatch-size override — training recipe.
    pub batch_size: Option<usize>,
    /// Block until the job finishes and reply with the full result
    /// (default). With `false` the daemon replies `accepted`
    /// immediately; poll `status` / fetch `result` later.
    pub wait: bool,
    /// Stream per-epoch [`Response::Event`] lines while waiting.
    pub stream: bool,
}

impl SubmitRequest {
    /// A waiting, non-streaming submit of inline netlist text.
    #[must_use]
    pub fn inline(job: JobKind, bench_text: &str) -> Self {
        Self {
            job,
            netlist: Some(bench_text.to_owned()),
            netlist_path: None,
            paper: false,
            th: None,
            hops: None,
            seed: None,
            threads: None,
            batch_size: None,
            wait: true,
            stream: false,
        }
    }
}

/// One client request (one JSON line).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job (see [`SubmitRequest`]).
    Submit(SubmitRequest),
    /// Non-blocking job state poll.
    Status {
        /// The job to poll.
        job_id: u64,
    },
    /// Block until the job is terminal, then return its result.
    Result {
        /// The job to wait for.
        job_id: u64,
    },
    /// Re-threshold a cached checkpoint at several `th` values —
    /// milliseconds per row, never trains.
    Sweep {
        /// Fingerprint hex of a design the daemon has trained.
        key: String,
        /// Thresholds to recover the key at.
        thresholds: Vec<f64>,
    },
    /// Cooperatively cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Daemon counters (cache hits, jobs, uptime, …).
    Stats,
    /// Drain all queued and running jobs, then exit.
    Shutdown,
}

/// Full outcome of a finished job (or a cache hit served inline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultResponse {
    /// Job id, when a queued job produced this result (absent for
    /// results served straight from the cache).
    pub job_id: Option<u64>,
    /// Design fingerprint hex — the checkpoint-cache key.
    pub key: String,
    /// Whether the checkpoint came from the cache (no training ran).
    pub cache_hit: bool,
    /// Whether this submit attached to an identical in-flight job
    /// (single-flight coalescing) instead of training again.
    pub coalesced: bool,
    /// The recovered key, one char per bit (`0`/`1`/`X`).
    pub key_string: String,
    /// Number of decided (non-`X`) bits.
    pub decided: usize,
    /// Total key bits.
    pub key_len: usize,
    /// Raw per-MUX likelihood pairs `(l0, l1)` — bitwise-comparable
    /// across cold and warm responses.
    pub scores: Vec<(f64, f64)>,
    /// Decision threshold the key was recovered at.
    pub th: f64,
    /// Best validation accuracy of the checkpoint's training run.
    pub val_accuracy: f64,
    /// Epochs the checkpoint trained for.
    pub epochs: usize,
    /// Wall-clock seconds of the training stage (0 on cache hits).
    pub train_seconds: f64,
    /// Wall-clock seconds of the scoring stage.
    pub score_seconds: f64,
}

/// One row of a threshold sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// The threshold.
    pub th: f64,
    /// The key recovered at that threshold (`0`/`1`/`X` per bit).
    pub key_string: String,
    /// Decided (non-`X`) bits at that threshold.
    pub decided: usize,
}

/// Daemon counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Protocol version the daemon speaks.
    pub protocol: u32,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Jobs ever submitted (including coalesced attaches).
    pub jobs_submitted: u64,
    /// Jobs currently queued.
    pub jobs_queued: usize,
    /// Jobs currently running.
    pub jobs_running: usize,
    /// Jobs finished successfully.
    pub jobs_done: u64,
    /// Jobs that failed.
    pub jobs_failed: u64,
    /// Jobs cancelled before or during execution.
    pub jobs_cancelled: u64,
    /// Training runs actually executed (cache hits and coalesced
    /// submits don't count — this is the single-flight metric).
    pub trainings: u64,
    /// Submits served by attaching to an in-flight identical job.
    pub coalesced_submits: u64,
    /// Checkpoints resident in memory.
    pub cache_memory_entries: usize,
    /// Cache lookups answered from memory or disk.
    pub cache_hits: u64,
    /// Cache lookups that found nothing.
    pub cache_misses: u64,
    /// Subset of hits that had to be loaded from disk.
    pub cache_disk_hits: u64,
    /// Checkpoints inserted.
    pub cache_insertions: u64,
    /// Checkpoints evicted from memory by the LRU policy.
    pub cache_evictions: u64,
    /// Cache entries rejected by fingerprint/structure verification.
    pub cache_verify_rejections: u64,
    /// Seconds since the daemon started.
    pub uptime_seconds: f64,
}

/// A streamed progress event (only on `"stream": true` submits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventMsg {
    /// `"epoch"` or `"stage"`.
    pub event: String,
    /// The job the event belongs to.
    pub job_id: u64,
    /// 1-based epoch number (epoch events).
    pub epoch: Option<usize>,
    /// Mean training cross-entropy (epoch events).
    pub train_loss: Option<f64>,
    /// Validation accuracy (epoch events).
    pub val_accuracy: Option<f64>,
    /// Stage name (stage events).
    pub stage: Option<String>,
    /// Stage wall-clock seconds (stage-finished events).
    pub seconds: Option<f64>,
}

/// Non-blocking job state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusResponse {
    /// The polled job.
    pub job_id: u64,
    /// `queued`, `running`, `done`, `failed` or `cancelled`.
    pub state: String,
    /// Design fingerprint hex.
    pub key: String,
    /// Epochs finished so far.
    pub epochs_done: usize,
    /// Failure message when `state` is `failed`.
    pub error: Option<String>,
}

/// One daemon response (one JSON line).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A non-waiting submit was queued (or attached to an in-flight
    /// job).
    Accepted {
        /// The job to poll / wait on.
        job_id: u64,
        /// Design fingerprint hex.
        key: String,
        /// Whether the submit attached to an in-flight identical job.
        coalesced: bool,
    },
    /// Job state (answer to `status`).
    Status(StatusResponse),
    /// Full job outcome (answer to waiting `submit` and `result`).
    Result(ResultResponse),
    /// Threshold sweep rows (answer to `sweep`).
    Sweep {
        /// Design fingerprint hex.
        key: String,
        /// Whether the checkpoint came from the cache (always true —
        /// sweeps never train; kept explicit for client symmetry).
        cache_hit: bool,
        /// One row per requested threshold.
        rows: Vec<SweepRow>,
    },
    /// A cancel was delivered (the job may take a batch boundary to
    /// observe it).
    Cancelled {
        /// The cancelled job.
        job_id: u64,
    },
    /// Daemon counters (answer to `stats`).
    Stats(StatsResponse),
    /// Streamed progress (only on `"stream": true` submits).
    Event(EventMsg),
    /// Per-request failure. The connection stays usable.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Acknowledges `shutdown`; the daemon drains and exits.
    Bye,
}

// ---------------------------------------------------------------------
// Tolerant field accessors (hand-written requests only — responses are
// always emitted complete by the daemon, so their payload structs use
// the derive).
// ---------------------------------------------------------------------

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match serde::map_get(v, key) {
        Ok(Value::Null) => None,
        Ok(val) => Some(val),
        Err(_) => None,
    }
}

/// The error for a present field of the wrong type: names the field and
/// describes what was found without echoing it.
fn mistyped(key: &str, expected: &str, found: &Value) -> String {
    format!(
        "field `{key}` must be {expected}, found {}",
        found.describe()
    )
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match field(v, key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(mistyped(key, "a string", other)),
    }
}

fn opt_bool(v: &Value, key: &str) -> Result<Option<bool>, String> {
    match field(v, key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(mistyped(key, "a boolean", other)),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match field(v, key) {
        None => Ok(None),
        Some(Value::Int(i)) => u64::try_from(*i)
            .map(Some)
            .map_err(|_| format!("field `{key}` must be a non-negative integer")),
        Some(other) => Err(mistyped(key, "an integer", other)),
    }
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, String> {
    Ok(opt_u64(v, key)?.map(|n| n as usize))
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match field(v, key) {
        None => Ok(None),
        Some(Value::Float(f)) => Ok(Some(*f)),
        // `0` parses as an integer; thresholds may legitimately be
        // written without a decimal point.
        Some(Value::Int(i)) => Ok(Some(*i as f64)),
        Some(other) => Err(mistyped(key, "a number", other)),
    }
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    opt_u64(v, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

fn need_str(v: &Value, key: &str) -> Result<String, String> {
    opt_str(v, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

fn tagged(kind: &str, mut rest: Vec<(String, Value)>) -> Value {
    let mut entries = vec![
        ("kind".to_owned(), Value::Str(kind.to_owned())),
        ("v".to_owned(), Value::Int(i64::from(PROTOCOL_VERSION))),
    ];
    entries.append(&mut rest);
    Value::Map(entries)
}

/// Wraps a derived payload struct's map under a `kind` tag.
fn tagged_struct<T: Serialize>(kind: &str, payload: &T) -> Value {
    match payload.to_value() {
        Value::Map(entries) => tagged(kind, entries),
        other => tagged(kind, vec![("value".to_owned(), other)]),
    }
}

fn check_version(v: &Value) -> Result<(), String> {
    match field(v, "v") {
        None => Ok(()),
        Some(Value::Int(i)) if *i == i64::from(PROTOCOL_VERSION) => Ok(()),
        Some(other) => Err(format!(
            "unsupported protocol version {} (this daemon speaks v{PROTOCOL_VERSION})",
            other.describe()
        )),
    }
}

// ---------------------------------------------------------------------
// Request serde
// ---------------------------------------------------------------------

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Self::Submit(s) => {
                let mut m: Vec<(String, Value)> =
                    vec![("job".to_owned(), Value::Str(s.job.as_str().to_owned()))];
                let mut put = |k: &str, v: Value| m.push((k.to_owned(), v));
                if let Some(t) = &s.netlist {
                    put("netlist", Value::Str(t.clone()));
                }
                if let Some(p) = &s.netlist_path {
                    put("netlist_path", Value::Str(p.clone()));
                }
                if s.paper {
                    put("paper", Value::Bool(true));
                }
                if let Some(x) = s.th {
                    put("th", Value::Float(x));
                }
                if let Some(x) = s.hops {
                    put("hops", Value::Int(x as i64));
                }
                if let Some(x) = s.seed {
                    put("seed", Value::Int(x as i64));
                }
                if let Some(x) = s.threads {
                    put("threads", Value::Int(x as i64));
                }
                if let Some(x) = s.batch_size {
                    put("batch_size", Value::Int(x as i64));
                }
                put("wait", Value::Bool(s.wait));
                put("stream", Value::Bool(s.stream));
                tagged("submit", m)
            }
            Self::Status { job_id } => tagged(
                "status",
                vec![("job_id".to_owned(), Value::Int(*job_id as i64))],
            ),
            Self::Result { job_id } => tagged(
                "result",
                vec![("job_id".to_owned(), Value::Int(*job_id as i64))],
            ),
            Self::Sweep { key, thresholds } => tagged(
                "sweep",
                vec![
                    ("key".to_owned(), Value::Str(key.clone())),
                    (
                        "thresholds".to_owned(),
                        Value::Seq(thresholds.iter().map(|t| Value::Float(*t)).collect()),
                    ),
                ],
            ),
            Self::Cancel { job_id } => tagged(
                "cancel",
                vec![("job_id".to_owned(), Value::Int(*job_id as i64))],
            ),
            Self::Stats => tagged("stats", vec![]),
            Self::Shutdown => tagged("shutdown", vec![]),
        }
    }
}

impl Request {
    /// Reconstructs a request from a decoded JSON value, tolerating
    /// missing optional fields (they take their defaults).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed or missing field —
    /// the daemon reflects it back as [`Response::Error`].
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        check_version(v)?;
        let kind = need_str(v, "kind")?;
        match kind.as_str() {
            "submit" => {
                let job = match opt_str(v, "job")? {
                    Some(name) => JobKind::parse(&name)?,
                    None => JobKind::Attack,
                };
                let netlist = opt_str(v, "netlist")?;
                let netlist_path = opt_str(v, "netlist_path")?;
                if netlist.is_none() && netlist_path.is_none() {
                    return Err("submit needs `netlist` (inline text) or `netlist_path`".into());
                }
                Ok(Self::Submit(SubmitRequest {
                    job,
                    netlist,
                    netlist_path,
                    paper: opt_bool(v, "paper")?.unwrap_or(false),
                    th: opt_f64(v, "th")?,
                    hops: opt_usize(v, "hops")?,
                    seed: opt_u64(v, "seed")?,
                    threads: opt_usize(v, "threads")?,
                    batch_size: opt_usize(v, "batch_size")?,
                    wait: opt_bool(v, "wait")?.unwrap_or(true),
                    stream: opt_bool(v, "stream")?.unwrap_or(false),
                }))
            }
            "status" => Ok(Self::Status {
                job_id: need_u64(v, "job_id")?,
            }),
            "result" => Ok(Self::Result {
                job_id: need_u64(v, "job_id")?,
            }),
            "sweep" => {
                let key = need_str(v, "key")?;
                let thresholds = match field(v, "thresholds") {
                    None => return Err("sweep needs a `thresholds` array".into()),
                    Some(Value::Seq(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            match item {
                                Value::Float(f) => out.push(*f),
                                Value::Int(i) => out.push(*i as f64),
                                other => {
                                    return Err(format!(
                                        "`thresholds` must contain numbers, found {}",
                                        other.describe()
                                    ));
                                }
                            }
                        }
                        out
                    }
                    Some(other) => {
                        return Err(format!(
                            "`thresholds` must be an array, found {}",
                            other.describe()
                        ));
                    }
                };
                if thresholds.is_empty() {
                    return Err("sweep needs at least one threshold".into());
                }
                Ok(Self::Sweep { key, thresholds })
            }
            "cancel" => Ok(Self::Cancel {
                job_id: need_u64(v, "job_id")?,
            }),
            "stats" => Ok(Self::Stats),
            "shutdown" => Ok(Self::Shutdown),
            other => Err(format!("unknown request kind {}", serde::excerpt(other))),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::from_json_value(v).map_err(DeError)
    }
}

// ---------------------------------------------------------------------
// Response serde
// ---------------------------------------------------------------------

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Self::Accepted {
                job_id,
                key,
                coalesced,
            } => tagged(
                "accepted",
                vec![
                    ("job_id".to_owned(), Value::Int(*job_id as i64)),
                    ("key".to_owned(), Value::Str(key.clone())),
                    ("coalesced".to_owned(), Value::Bool(*coalesced)),
                ],
            ),
            Self::Status(s) => tagged_struct("status", s),
            Self::Result(r) => tagged_struct("result", r),
            Self::Sweep {
                key,
                cache_hit,
                rows,
            } => tagged(
                "sweep",
                vec![
                    ("key".to_owned(), Value::Str(key.clone())),
                    ("cache_hit".to_owned(), Value::Bool(*cache_hit)),
                    (
                        "rows".to_owned(),
                        Value::Seq(rows.iter().map(Serialize::to_value).collect()),
                    ),
                ],
            ),
            Self::Cancelled { job_id } => tagged(
                "cancelled",
                vec![("job_id".to_owned(), Value::Int(*job_id as i64))],
            ),
            Self::Stats(s) => tagged_struct("stats", s),
            Self::Event(e) => tagged_struct("event", e),
            Self::Error { message } => tagged(
                "error",
                vec![("message".to_owned(), Value::Str(message.clone()))],
            ),
            Self::Bye => tagged("bye", vec![]),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        check_version(v).map_err(DeError)?;
        let kind = need_str(v, "kind").map_err(DeError)?;
        match kind.as_str() {
            "accepted" => Ok(Self::Accepted {
                job_id: need_u64(v, "job_id").map_err(DeError)?,
                key: need_str(v, "key").map_err(DeError)?,
                coalesced: opt_bool(v, "coalesced").map_err(DeError)?.unwrap_or(false),
            }),
            "status" => Ok(Self::Status(StatusResponse::from_value(v)?)),
            "result" => Ok(Self::Result(ResultResponse::from_value(v)?)),
            "sweep" => {
                let rows = match field(v, "rows") {
                    Some(rows) => Vec::<SweepRow>::from_value(rows)?,
                    None => Vec::new(),
                };
                Ok(Self::Sweep {
                    key: need_str(v, "key").map_err(DeError)?,
                    cache_hit: opt_bool(v, "cache_hit").map_err(DeError)?.unwrap_or(true),
                    rows,
                })
            }
            "cancelled" => Ok(Self::Cancelled {
                job_id: need_u64(v, "job_id").map_err(DeError)?,
            }),
            "stats" => Ok(Self::Stats(StatsResponse::from_value(v)?)),
            "event" => Ok(Self::Event(EventMsg::from_value(v)?)),
            "error" => Ok(Self::Error {
                message: need_str(v, "message").map_err(DeError)?,
            }),
            "bye" => Ok(Self::Bye),
            other => Err(DeError(format!(
                "unknown response kind {}",
                serde::excerpt(other)
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Line codecs
// ---------------------------------------------------------------------

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message for malformed JSON, a wrong version or a
/// bad/missing field — the daemon reflects it back as
/// [`Response::Error`] and keeps the connection alive.
pub fn parse_request(line: &str) -> Result<Request, String> {
    serde_json::from_str::<Request>(line).map_err(|e| e.to_string())
}

/// Renders one request as a single JSON line (no trailing newline).
#[must_use]
pub fn render_request(req: &Request) -> String {
    serde_json::to_string(req).expect("requests always serialise")
}

/// Parses one response line.
///
/// # Errors
///
/// A human-readable message for malformed JSON or an unknown kind.
pub fn parse_response(line: &str) -> Result<Response, String> {
    serde_json::from_str::<Response>(line).map_err(|e| e.to_string())
}

/// Renders one response as a single JSON line (no trailing newline).
#[must_use]
pub fn render_response(resp: &Response) -> String {
    serde_json::to_string(resp).expect("responses always serialise")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let line = render_request(req);
        assert!(!line.contains('\n'), "one request = one line");
        let back = parse_request(&line).unwrap();
        assert_eq!(&back, req);
    }

    fn round_trip_response(resp: &Response) {
        let line = render_response(resp);
        assert!(!line.contains('\n'), "one response = one line");
        let back = parse_response(&line).unwrap();
        assert_eq!(&back, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Submit(SubmitRequest {
            job: JobKind::Train,
            netlist: Some("INPUT(a)\n".to_owned()),
            netlist_path: None,
            paper: true,
            th: Some(0.75),
            hops: Some(2),
            seed: Some(7),
            threads: Some(1),
            batch_size: Some(16),
            wait: false,
            stream: true,
        }));
        round_trip_request(&Request::Status { job_id: 3 });
        round_trip_request(&Request::Result { job_id: 4 });
        round_trip_request(&Request::Sweep {
            key: "ab".repeat(32),
            thresholds: vec![0.5, 0.75],
        });
        round_trip_request(&Request::Cancel { job_id: 9 });
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Accepted {
            job_id: 1,
            key: "cd".repeat(32),
            coalesced: true,
        });
        round_trip_response(&Response::Status(StatusResponse {
            job_id: 1,
            state: "running".to_owned(),
            key: "cd".repeat(32),
            epochs_done: 12,
            error: None,
        }));
        round_trip_response(&Response::Result(ResultResponse {
            job_id: Some(1),
            key: "cd".repeat(32),
            cache_hit: true,
            coalesced: false,
            key_string: "01X1".to_owned(),
            decided: 3,
            key_len: 4,
            scores: vec![(0.25, 0.75), (0.5, 0.5)],
            th: 0.6,
            val_accuracy: 0.93,
            epochs: 20,
            train_seconds: 0.0,
            score_seconds: 0.004,
        }));
        round_trip_response(&Response::Sweep {
            key: "cd".repeat(32),
            cache_hit: true,
            rows: vec![SweepRow {
                th: 0.5,
                key_string: "01".to_owned(),
                decided: 2,
            }],
        });
        round_trip_response(&Response::Cancelled { job_id: 8 });
        round_trip_response(&Response::Event(EventMsg {
            event: "epoch".to_owned(),
            job_id: 1,
            epoch: Some(3),
            train_loss: Some(0.41),
            val_accuracy: Some(0.88),
            stage: None,
            seconds: None,
        }));
        round_trip_response(&Response::Error {
            message: "nope".to_owned(),
        });
        round_trip_response(&Response::Bye);
    }

    #[test]
    fn hand_typed_submit_defaults_are_tolerated() {
        // The shape a human types into `echo | nc`: no version, no
        // optional fields.
        let req = parse_request(r#"{"kind":"submit","netlist":"INPUT(a)"}"#).unwrap();
        match req {
            Request::Submit(s) => {
                assert_eq!(s.job, JobKind::Attack);
                assert!(s.wait, "wait defaults on");
                assert!(!s.stream);
                assert!(!s.paper);
                assert_eq!(s.th, None);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        // Integer thresholds coerce to floats.
        let req = parse_request(r#"{"kind":"sweep","key":"k","thresholds":[1,0.75]}"#).unwrap();
        assert_eq!(
            req,
            Request::Sweep {
                key: "k".to_owned(),
                thresholds: vec![1.0, 0.75],
            }
        );
    }

    /// Errors are echoed to the client, so they must describe a bad
    /// field, never copy it.
    #[test]
    fn errors_about_huge_fields_stay_small() {
        let ones = vec!["1"; 50_000].join(",");
        let line = format!(r#"{{"kind":"submit","netlist":[{ones}]}}"#);
        assert!(line.len() > 100_000);
        let err = parse_request(&line).unwrap_err();
        assert!(err.contains("found array of 50000 items"), "{err}");
        let long = "x".repeat(100_000);
        for line in [
            format!(r#"{{"kind":"{long}"}}"#),
            format!(r#"{{"kind":"submit","netlist":"a","job":"{long}"}}"#),
            format!(r#"{{"kind":"submit","netlist":"a","paper":"{long}"}}"#),
            format!(r#"{{"kind":"stats","v":"{long}"}}"#),
            format!(r#"{{"kind":"sweep","key":"k","thresholds":["{long}"]}}"#),
            format!(r#"{{"kind":"sweep","key":"k","thresholds":{{"a":[{ones}]}}}}"#),
            format!(r#"{{"kind":"status","job_id":[{ones}]}}"#),
            format!(r#"{{"kind":"submit","netlist":"a","th":"{long}"}}"#),
        ] {
            let err = parse_request(&line).unwrap_err();
            assert!(err.len() < 256, "{} bytes: {err}", err.len());
        }
        let err = parse_response(&format!(r#"{{"kind":"{long}"}}"#)).unwrap_err();
        assert!(err.len() < 256, "{} bytes", err.len());
        let err =
            parse_response(&format!(r#"{{"kind":"stats","protocol":[{ones}]}}"#)).unwrap_err();
        assert!(err.len() < 256, "{} bytes", err.len());
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"kind":"submit"}"#)
            .unwrap_err()
            .contains("netlist"));
        assert!(parse_request(r#"{"kind":"warp"}"#)
            .unwrap_err()
            .contains("warp"));
        assert!(parse_request(r#"{"kind":"status"}"#)
            .unwrap_err()
            .contains("job_id"));
        assert!(parse_request(r#"{"kind":"stats","v":2}"#)
            .unwrap_err()
            .contains("version"));
        assert!(
            parse_request(r#"{"kind":"submit","netlist":"x","job":"mine"}"#)
                .unwrap_err()
                .contains("mine")
        );
    }
}
