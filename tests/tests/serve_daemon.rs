//! Full-stack attack-service tests: a real daemon on a real unix
//! socket, driven through the wire protocol.
//!
//! Covers the PR-9 acceptance criteria end to end: warm-cache responses
//! bitwise-identical to cold-train responses, cache entries keyed and
//! verified by design fingerprint, malformed requests and mid-stream
//! client disconnects that must not hurt the daemon, cancellation, and
//! the drain-on-shutdown + stale-socket lifecycle.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

use muxlink_locking::{dmux, LockOptions};
use muxlink_netlist::bench_format;
use muxlink_serve::{
    parse_response, serve, Connection, JobKind, Request, Response, ServeOptions, ServeSummary,
    SubmitRequest, MAX_REQUEST_LINE_BYTES,
};

fn locked_bench(seed: u64, gates: usize, key_bits: usize) -> String {
    let design = muxlink_benchgen::synth::SynthConfig::new("daemon", 12, 5, gates).generate(seed);
    let locked = dmux::lock(&design, &LockOptions::new(key_bits, 3)).unwrap();
    bench_format::write(&locked.netlist).unwrap()
}

/// A tiny-recipe submit so daemon tests stay in the seconds range.
fn fast_submit(bench: &str) -> SubmitRequest {
    let mut sreq = SubmitRequest::inline(JobKind::Attack, bench);
    sreq.hops = Some(1);
    sreq.threads = Some(1);
    sreq
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("muxlink-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_daemon(socket: &Path, cache_dir: Option<PathBuf>) -> JoinHandle<ServeSummary> {
    let opts = ServeOptions {
        socket: socket.to_path_buf(),
        tcp: None,
        cache_dir,
        workers: 1,
        cache_entries: 8,
    };
    std::thread::spawn(move || serve(&opts).expect("daemon runs until shutdown"))
}

fn connect(socket: &Path) -> Connection {
    for _ in 0..100 {
        if let Ok(conn) = Connection::unix(socket) {
            return conn;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon never came up on {}", socket.display());
}

fn expect_result(response: Response) -> muxlink_serve::ResultResponse {
    match response {
        Response::Result(r) => r,
        other => panic!("expected a result response, got {other:?}"),
    }
}

#[test]
fn daemon_lifecycle_cold_warm_sweep_cancel_disconnect_shutdown() {
    let dir = temp_dir("lifecycle");
    let socket = dir.join("muxlink.sock");
    let daemon = start_daemon(&socket, Some(dir.join("cache")));

    let mut conn = connect(&socket);

    // Malformed requests answer `error` and leave the connection (and
    // daemon) fully usable.
    let bad = conn
        .round_trip(&Request::Status { job_id: 999 }, |_| {})
        .unwrap();
    assert!(matches!(bad, Response::Error { .. }));
    let stats = conn.round_trip(&Request::Stats, |_| {}).unwrap();
    assert!(matches!(stats, Response::Stats(_)));

    // Cold submit: trains, misses the cache.
    let bench_a = locked_bench(11, 140, 4);
    let cold = expect_result(
        conn.round_trip(&Request::Submit(fast_submit(&bench_a)), |_| {})
            .unwrap(),
    );
    assert!(!cold.cache_hit, "first submit must train");
    assert_eq!(cold.key.len(), 64);

    // Warm submit: cache hit, identical key, bitwise-identical scores.
    let warm = expect_result(
        conn.round_trip(&Request::Submit(fast_submit(&bench_a)), |_| {})
            .unwrap(),
    );
    assert!(warm.cache_hit, "repeat submit must hit the cache");
    assert_eq!(warm.key, cold.key);
    assert_eq!(warm.key_string, cold.key_string);
    assert_eq!(warm.scores, cold.scores, "bitwise-identical likelihoods");

    // A different design gets a different fingerprint (cache keyed by
    // structure, not by connection or order).
    let bench_b = locked_bench(12, 150, 4);
    let other = expect_result(
        conn.round_trip(&Request::Submit(fast_submit(&bench_b)), |_| {})
            .unwrap(),
    );
    assert_ne!(other.key, cold.key);

    // Sweep reuses the cached checkpoint (never trains) and recovers
    // the submit's key at the matching threshold.
    let sweep = conn
        .round_trip(
            &Request::Sweep {
                key: cold.key.clone(),
                thresholds: vec![cold.th, 0.9],
            },
            |_| {},
        )
        .unwrap();
    match sweep {
        Response::Sweep { key, rows, .. } => {
            assert_eq!(key, cold.key);
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].key_string, cold.key_string);
        }
        other => panic!("expected sweep rows, got {other:?}"),
    }

    // Mid-stream disconnect: start a streamed job on its own
    // connection, read the first event (which carries the job id),
    // then hang up. The job must finish anyway and stay fetchable.
    let bench_c = locked_bench(13, 150, 4);
    let job_id = {
        let mut doomed = connect(&socket);
        let mut sreq = fast_submit(&bench_c);
        sreq.stream = true;
        doomed.send(&Request::Submit(sreq)).unwrap();
        match doomed.recv().unwrap() {
            Response::Event(e) => e.job_id,
            other => panic!("expected a streamed event first, got {other:?}"),
        }
        // `doomed` dropped here: client vanished mid-stream.
    };
    let fetched = expect_result(
        conn.round_trip(&Request::Result { job_id }, |_| {})
            .unwrap(),
    );
    assert!(!fetched.cache_hit);
    assert_eq!(fetched.job_id, Some(job_id));

    // Cancellation: queue a job and cancel it; whether the cancel wins
    // the race with the worker, the daemon keeps serving.
    let bench_d = locked_bench(14, 150, 4);
    let mut sreq = fast_submit(&bench_d);
    sreq.wait = false;
    let cancel_id = match conn.round_trip(&Request::Submit(sreq), |_| {}).unwrap() {
        Response::Accepted { job_id, .. } => job_id,
        other => panic!("expected accepted, got {other:?}"),
    };
    let cancelled = conn
        .round_trip(&Request::Cancel { job_id: cancel_id }, |_| {})
        .unwrap();
    assert!(matches!(cancelled, Response::Cancelled { .. }));
    // The daemon survives whatever the race decided.
    let after = conn.round_trip(&Request::Stats, |_| {}).unwrap();
    let Response::Stats(after) = after else {
        panic!("stats after cancel");
    };
    assert!(after.trainings >= 2, "A and C trained");

    // Shutdown drains and exits cleanly; the socket file disappears.
    let bye = conn.round_trip(&Request::Shutdown, |_| {}).unwrap();
    assert!(matches!(bye, Response::Bye));
    let summary = daemon.join().expect("daemon thread exits cleanly");
    assert!(summary.trainings >= 2);
    assert!(summary.cache_hits >= 1);
    for _ in 0..100 {
        if !socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(!socket.exists(), "socket file cleaned up on exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_survives_daemon_restart_via_disk_store() {
    let dir = temp_dir("restart");
    let socket = dir.join("muxlink.sock");
    let cache_dir = dir.join("cache");
    let bench = locked_bench(21, 140, 4);

    // First daemon: cold train, persists the checkpoint on disk.
    let daemon = start_daemon(&socket, Some(cache_dir.clone()));
    let mut conn = connect(&socket);
    let cold = expect_result(
        conn.round_trip(&Request::Submit(fast_submit(&bench)), |_| {})
            .unwrap(),
    );
    conn.round_trip(&Request::Shutdown, |_| {}).unwrap();
    daemon.join().unwrap();
    assert!(
        cache_dir.join(format!("{}.json", cold.key)).exists(),
        "checkpoint persisted under its fingerprint"
    );

    // Second daemon, same cache dir: the submit is a disk hit — no
    // training, identical key and scores.
    let daemon = start_daemon(&socket, Some(cache_dir));
    let mut conn = connect(&socket);
    let warm = expect_result(
        conn.round_trip(&Request::Submit(fast_submit(&bench)), |_| {})
            .unwrap(),
    );
    assert!(warm.cache_hit);
    assert_eq!(warm.key, cold.key);
    assert_eq!(warm.scores, cold.scores);
    let Response::Stats(stats) = conn.round_trip(&Request::Stats, |_| {}).unwrap() else {
        panic!("stats");
    };
    assert_eq!(stats.trainings, 0, "restarted daemon never trained");
    assert_eq!(stats.cache_disk_hits, 1);
    conn.round_trip(&Request::Shutdown, |_| {}).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_socket_is_reclaimed_and_live_socket_is_refused() {
    let dir = temp_dir("stale");
    let socket = dir.join("muxlink.sock");

    // A dead daemon's leftover: bind then abandon the listener without
    // unlinking the path.
    {
        use std::os::unix::net::UnixListener;
        let _leftover = UnixListener::bind(&socket).unwrap();
    }
    assert!(socket.exists(), "stale socket file is on disk");

    // A fresh daemon reclaims it.
    let daemon = start_daemon(&socket, None);
    let mut conn = connect(&socket);
    assert!(matches!(
        conn.round_trip(&Request::Stats, |_| {}).unwrap(),
        Response::Stats(_)
    ));

    // A second daemon on the live socket is refused.
    let err = serve(&ServeOptions {
        socket: socket.clone(),
        tcp: None,
        cache_dir: None,
        workers: 1,
        cache_entries: 8,
    })
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

    conn.round_trip(&Request::Shutdown, |_| {}).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One hostile line must cost its sender an error reply, not the daemon
/// its life: 200 000 nested `[` used to overflow the connection thread's
/// stack and abort the process.
#[test]
fn deeply_nested_request_line_is_an_error_reply() {
    let dir = temp_dir("nested");
    let socket = dir.join("muxlink.sock");
    let daemon = start_daemon(&socket, None);
    drop(connect(&socket));

    let stream = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut reply = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut answer = String::new();
        reader.read_line(&mut answer).unwrap();
        parse_response(answer.trim_end()).unwrap()
    };
    match reply(&"[".repeat(200_000)) {
        Response::Error { message } => {
            assert!(
                message.contains("nesting deeper than 128 levels"),
                "{message}"
            );
            assert!(message.len() < 256, "{} bytes", message.len());
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    // The same connection still answers normally.
    assert!(matches!(reply(r#"{"kind":"stats"}"#), Response::Stats(_)));
    assert!(matches!(reply(r#"{"kind":"shutdown"}"#), Response::Bye));
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A line with no newline in sight must not grow a daemon buffer until
/// the process runs out of memory: past the cap the sender gets an error
/// naming it and loses the connection, and everyone else is unaffected.
#[test]
fn oversized_request_line_is_refused_and_the_daemon_keeps_serving() {
    let dir = temp_dir("oversized");
    let socket = dir.join("muxlink.sock");
    let daemon = start_daemon(&socket, None);
    drop(connect(&socket));

    let stream = UnixStream::connect(&socket).unwrap();
    // A daemon without the cap would answer late or never: fail, not hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // The daemon stops reading at the cap and closes the connection, so
    // the rest of the write may fail with a broken pipe: write from a
    // thread and ignore that.
    let mut writer = stream;
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..=MAX_REQUEST_LINE_BYTES >> 20 {
            if writer.write_all(&chunk).is_err() {
                return;
            }
        }
        let _ = writer.write_all(b"\n");
    });
    let mut answer = String::new();
    reader.read_line(&mut answer).unwrap();
    match parse_response(answer.trim_end()).unwrap() {
        Response::Error { message } => {
            assert!(
                message.contains(&MAX_REQUEST_LINE_BYTES.to_string()),
                "{message}"
            );
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    // Then the daemon closes that connection.
    answer.clear();
    assert_eq!(reader.read_line(&mut answer).unwrap_or(0), 0, "{answer}");
    sender.join().unwrap();

    // A fresh connection is served normally.
    let mut conn = connect(&socket);
    assert!(matches!(
        conn.round_trip(&Request::Stats, |_| {}).unwrap(),
        Response::Stats(_)
    ));
    assert!(matches!(
        conn.round_trip(&Request::Shutdown, |_| {}).unwrap(),
        Response::Bye
    ));
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
