//! The daemon's transport layer: unix-socket (and optional TCP) accept
//! loops, per-connection request handling, and the graceful-shutdown
//! state machine.
//!
//! ## Lifecycle
//!
//! ```text
//! bind (stale-socket cleanup) → accept loop ⇄ connection handlers
//!        │                                        │ shutdown request
//!        └── self-connect wake ◀── begin_drain ◀──┘
//! accept loops exit → workers drain queued+running jobs → join → exit
//! ```
//!
//! A *stale* socket file (left by a killed daemon) is detected by
//! probing it with a connect: refusal means no listener is alive, so
//! the file is removed and the bind retried. A *live* socket refuses to
//! start a second daemon.
//!
//! ## Error isolation
//!
//! Each connection runs on its own thread; a malformed request gets an
//! `error` response and the connection keeps serving; a client that
//! disconnects mid-stream just drops its subscription — the job it was
//! watching runs to completion and stays fetchable via `result`.
//! Connection threads are detached: a hung client can never block
//! shutdown (its submits fail once draining starts, and the process
//! exits after the workers join).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;

use crate::engine::{Engine, EngineOptions, SubmitOutcome};
use crate::proto::{parse_request, render_response, Request, Response};

/// Daemon configuration (the `muxlink serve` flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix-socket path to listen on.
    pub socket: PathBuf,
    /// Optional additional TCP listen address (`host:port`).
    pub tcp: Option<String>,
    /// On-disk checkpoint store (`None` = memory-only cache).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads.
    pub workers: usize,
    /// In-memory checkpoint LRU capacity.
    pub cache_entries: usize,
}

/// What the daemon did before exiting (returned by [`serve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs completed successfully over the daemon's lifetime.
    pub jobs_done: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
    /// Jobs cancelled.
    pub jobs_cancelled: u64,
    /// Training runs executed.
    pub trainings: u64,
    /// Cache hits served.
    pub cache_hits: u64,
}

struct Shared {
    engine: Arc<Engine>,
    socket: PathBuf,
    tcp: Option<String>,
}

/// Binds the unix socket, reclaiming a stale socket file when no
/// daemon is listening behind it.
fn bind_unix(path: &PathBuf) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            match UnixStream::connect(path) {
                // Someone answered: a daemon is alive on this socket.
                Ok(_) => Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {}", path.display()),
                )),
                // Nobody home: stale file from a killed daemon.
                Err(_) => {
                    std::fs::remove_file(path)?;
                    UnixListener::bind(path)
                }
            }
        }
        Err(e) => Err(e),
    }
}

/// Runs the daemon until a `shutdown` request drains it.
///
/// # Errors
///
/// [`io::Error`] when a listener cannot be bound or the cache
/// directory cannot be created.
pub fn serve(opts: &ServeOptions) -> io::Result<ServeSummary> {
    let engine = Engine::new(&EngineOptions {
        cache_dir: opts.cache_dir.clone(),
        cache_entries: opts.cache_entries,
        workers: opts.workers,
    })?;
    // Bind before spawning anything: a failed bind must not leave
    // worker threads behind.
    let unix_listener = bind_unix(&opts.socket)?;
    let tcp_listener = match &opts.tcp {
        Some(addr) => Some(TcpListener::bind(addr)?),
        None => None,
    };
    let workers = engine.spawn_workers();
    let shared = Arc::new(Shared {
        engine: Arc::clone(&engine),
        socket: opts.socket.clone(),
        tcp: opts.tcp.clone(),
    });

    let tcp_handle = tcp_listener.map(|listener| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_tcp(&listener, &shared))
    });

    accept_unix(&unix_listener, &shared);
    // Drain: the accept loops have exited; finish every queued and
    // running job, then stop the workers.
    for h in workers {
        let _ = h.join();
    }
    if let Some(h) = tcp_handle {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(&opts.socket);
    let stats = engine.stats();
    Ok(ServeSummary {
        jobs_done: stats.jobs_done,
        jobs_failed: stats.jobs_failed,
        jobs_cancelled: stats.jobs_cancelled,
        trainings: stats.trainings,
        cache_hits: stats.cache_hits,
    })
}

fn accept_unix(listener: &UnixListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.engine.is_draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            if let Ok(reader) = stream.try_clone() {
                handle_connection(&shared, BufReader::new(reader), stream);
            }
        });
    }
}

fn accept_tcp(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.engine.is_draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            if let Ok(reader) = stream.try_clone() {
                handle_connection(&shared, BufReader::new(reader), stream);
            }
        });
    }
}

/// Unblocks the accept loops after `begin_drain` by poking the
/// listeners with throwaway connections.
fn wake_listeners(shared: &Shared) {
    let _ = UnixStream::connect(&shared.socket);
    if let Some(addr) = &shared.tcp {
        let _ = TcpStream::connect(addr);
    }
}

fn write_line<W: Write>(writer: &mut W, resp: &Response) -> io::Result<()> {
    let mut line = render_response(resp);
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Longest request line a connection may send, newline excluded: 16 MiB,
/// about 64 times the largest inline submit the benchmarks make (the
/// 8 992-gate design, 253 KB). A longer line is answered with an `error`
/// naming this cap and the connection is closed, so one client cannot
/// grow a buffer until the daemon runs out of memory.
pub const MAX_REQUEST_LINE_BYTES: usize = 16 << 20;

/// Reads one line, never buffering more than one byte past
/// [`MAX_REQUEST_LINE_BYTES`] of it, and strips the `\n` or `\r\n`
/// ending as `BufRead::lines` does. `Ok(None)` means the line ran past the cap.
/// End of stream is an `UnexpectedEof` error; a line that is not UTF-8
/// (one cut mid-character at the cap included) is an `InvalidData` error.
fn read_request_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    let limit = MAX_REQUEST_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    if line.ends_with('\n') {
        line.pop();
        if line.ends_with('\r') {
            line.pop();
        }
    } else if line.len() > MAX_REQUEST_LINE_BYTES {
        return Ok(None);
    }
    Ok(Some(line))
}

/// Serves one connection: request per line, response(s) per request.
/// Returning ends the connection; the daemon keeps running.
fn handle_connection<R: BufRead, W: Write>(shared: &Arc<Shared>, mut reader: R, mut writer: W) {
    loop {
        let line = match read_request_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => {
                let message = format!(
                    "request line longer than {MAX_REQUEST_LINE_BYTES} bytes; closing the connection"
                );
                let _ = write_line(&mut writer, &Response::Error { message });
                return;
            }
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(req) => req,
            Err(message) => {
                // Malformed input answers with `error`; the connection
                // stays usable.
                if write_line(&mut writer, &Response::Error { message }).is_err() {
                    return;
                }
                continue;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        let response = dispatch(shared, request, &mut writer);
        if write_line(&mut writer, &response).is_err() {
            return;
        }
        if shutdown {
            shared.engine.begin_drain();
            wake_listeners(shared);
            return;
        }
    }
}

/// Computes the final response for one request, streaming any interim
/// event lines straight to `writer`.
fn dispatch<W: Write>(shared: &Arc<Shared>, request: Request, writer: &mut W) -> Response {
    let engine = &shared.engine;
    let fail = |message: String| Response::Error { message };
    match request {
        Request::Submit(sreq) => {
            if sreq.wait {
                let result = if sreq.stream {
                    // Forward events as they happen; a client that hung
                    // up stops receiving but never stops the job.
                    let mut client_gone = false;
                    let mut forward = |line: String| {
                        if !client_gone {
                            let mut line = line;
                            line.push('\n');
                            if writer
                                .write_all(line.as_bytes())
                                .and_then(|()| writer.flush())
                                .is_err()
                            {
                                client_gone = true;
                            }
                        }
                    };
                    engine.run_to_completion(&sreq, Some(&mut forward))
                } else {
                    engine.run_to_completion(&sreq, None)
                };
                match result {
                    Ok(r) => Response::Result(r),
                    Err(message) => fail(message),
                }
            } else {
                match engine.submit(&sreq) {
                    Ok(SubmitOutcome::Ready(result)) => Response::Result(*result),
                    Ok(SubmitOutcome::Queued {
                        job_id,
                        key,
                        coalesced,
                    }) => Response::Accepted {
                        job_id,
                        key,
                        coalesced,
                    },
                    Err(message) => fail(message),
                }
            }
        }
        Request::Status { job_id } => match engine.status(job_id) {
            Ok(status) => Response::Status(status),
            Err(message) => fail(message),
        },
        Request::Result { job_id } => match engine.wait_result(job_id) {
            Ok(result) => Response::Result(result),
            Err(message) => fail(message),
        },
        Request::Sweep { key, thresholds } => match engine.sweep(&key, &thresholds) {
            Ok(rows) => Response::Sweep {
                key,
                cache_hit: true,
                rows,
            },
            Err(message) => fail(message),
        },
        Request::Cancel { job_id } => match engine.cancel(job_id) {
            Ok(()) => Response::Cancelled { job_id },
            Err(message) => fail(message),
        },
        Request::Stats => Response::Stats(engine.stats()),
        Request::Shutdown => Response::Bye,
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Cursor, ErrorKind};

    use super::*;

    #[test]
    fn request_lines_are_split_and_capped() {
        let mut r = Cursor::new(b"a\r\nb\n\nc".to_vec());
        for want in ["a", "b", "", "c"] {
            assert_eq!(read_request_line(&mut r).unwrap().as_deref(), Some(want));
        }
        let eof = read_request_line(&mut r).unwrap_err();
        assert_eq!(eof.kind(), ErrorKind::UnexpectedEof);

        let bad = read_request_line(&mut Cursor::new(b"\xff\n".to_vec())).unwrap_err();
        assert_eq!(bad.kind(), ErrorKind::InvalidData);

        let mut at_cap = vec![b'x'; MAX_REQUEST_LINE_BYTES];
        at_cap.push(b'\n');
        let line = read_request_line(&mut Cursor::new(at_cap)).unwrap();
        assert_eq!(line.map(|l| l.len()), Some(MAX_REQUEST_LINE_BYTES));

        let over = vec![b'x'; MAX_REQUEST_LINE_BYTES + 1];
        assert_eq!(read_request_line(&mut Cursor::new(over)).unwrap(), None);
    }
}
