//! Protocol and end-to-end tests for `macrochip serve`.
//!
//! Each test binds its own server on an ephemeral port (127.0.0.1:0) so
//! the suite can run in parallel, and byte-identity is asserted on the
//! bit-exact cache encoding — the same bytes `campaign::run_point`
//! produces directly.

use desim::Span;
use macrochip::campaign::{self, CampaignPoint, ResultCache};
use macrochip::sweep::SweepOptions;
use netcore::{MacrochipConfig, NetworkKind};
use serve::{Client, ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::Pattern;

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh cache directory per test, so parallel tests never share state.
fn temp_cache(label: &str) -> (PathBuf, ResultCache) {
    let dir = std::env::temp_dir().join(format!(
        "macrochip-serve-test-{label}-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let cache = ResultCache::new(dir.clone()).expect("create temp cache");
    (dir, cache)
}

struct TestServer {
    addr: SocketAddr,
    handle: serve::ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(workers: usize, queue_cap: usize, cache: Option<ResultCache>) -> TestServer {
        TestServer::start_on(MacrochipConfig::scaled(), workers, queue_cap, cache)
    }

    fn start_on(
        config: MacrochipConfig,
        workers: usize,
        queue_cap: usize,
        cache: Option<ResultCache>,
    ) -> TestServer {
        let options = ServeOptions {
            workers,
            queue_cap,
            cache,
            manifest_dir: None,
            quiet: true,
        };
        let server = Server::bind("127.0.0.1:0", config, options).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            thread,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr.to_string()).expect("connect to test server")
    }

    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }
}

/// A fast sweep point: 1 us of simulation keeps debug-mode runtime low
/// while still producing a nontrivial latency distribution.
fn quick_sweep(kind: NetworkKind, offered: f64) -> CampaignPoint {
    CampaignPoint::Sweep {
        kind,
        pattern: Pattern::Uniform,
        offered,
        options: SweepOptions {
            sim: Span::from_us(1),
            drain: Span::from_us(5),
            max_stalled: 5_000,
            seed: 0xC0FFEE,
        },
    }
}

fn send_raw(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    response
}

#[test]
fn malformed_requests_get_errors_and_the_connection_stays_usable() {
    let server = TestServer::start(1, 4, None);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    for (request, expected) in [
        ("this is not json", "malformed JSON"),
        ("{\"no_op\":true}", "missing or non-string"),
        ("{\"op\":\"dance\"}", "unknown op"),
        (
            "{\"op\":\"submit\",\"command\":\"s\",\"points\":[]}",
            "at least one point",
        ),
        ("{\"op\":\"status\",\"job\":\"job-999\"}", "unknown job"),
        ("{\"op\":\"result\",\"job\":\"job-999\"}", "unknown job"),
        ("{\"op\":\"cancel\",\"job\":\"job-999\"}", "unknown job"),
    ] {
        let response = send_raw(&mut stream, &mut reader, request);
        assert!(
            response.contains("\"ok\":false") && response.contains(expected),
            "request {request:?} should fail with {expected:?}, got {response:?}"
        );
    }
    // The same connection still serves well-formed requests afterwards.
    let response = send_raw(&mut stream, &mut reader, "{\"op\":\"ping\"}");
    assert!(
        response.contains("\"ok\":true") && response.contains("macrochip-serve"),
        "connection should survive malformed requests, got {response:?}"
    );
    server.stop();
}

/// `submit --wait` renders coherent energy on the daemon's chip, so the
/// daemon must say which chip that is.
#[test]
fn ping_reports_the_daemon_grid_side() {
    let server = TestServer::start_on(MacrochipConfig::with_side(4), 1, 4, None);
    let ping = server.client().ping().expect("ping");
    assert_eq!(ping.get("side").and_then(|v| v.as_u64()), Some(4));
    server.stop();
}

#[test]
fn served_results_are_byte_identical_to_direct_runs_for_every_network() {
    let (dir, cache) = temp_cache("identity");
    let server = TestServer::start(2, 8, Some(cache));
    let config = MacrochipConfig::scaled();

    // One sweep point per network, plus a fault and a coherent point, so
    // identity is checked across point variants too.
    let mut points: Vec<CampaignPoint> = NetworkKind::ALL
        .iter()
        .map(|&kind| quick_sweep(kind, 0.05))
        .collect();
    points.push(CampaignPoint::Fault {
        kind: NetworkKind::TwoPhase,
        pattern: Pattern::Uniform,
        load: 0.05,
        plan: faults::FaultPlan::parse("rand-links=1; repair=10us").expect("valid plan"),
        seed: 7,
        sim: Span::from_us(1),
        drain: Span::from_us(5),
        max_stalled: 5_000,
    });
    points.push(CampaignPoint::Coherent {
        kind: NetworkKind::PointToPoint,
        spec: macrochip::names::parse_workload("Swaptions", 5).expect("suite workload"),
        seed: 0xCAFE,
    });

    let mut client = server.client();
    let submitted = client
        .submit("identity-test", None, points.clone())
        .expect("submit");
    let status = client.wait(&submitted.job, |_| {}).expect("wait");
    assert_eq!(status.state, "done");
    assert_eq!(status.done, points.len());

    let served = client.result(&submitted.job).expect("fetch results");
    assert_eq!(served.len(), points.len());
    for (point, served) in points.iter().zip(&served) {
        let direct = campaign::run_point(point, &config);
        assert_eq!(
            served.to_cache_bytes(),
            direct.to_cache_bytes(),
            "served result for {} on {} must be byte-identical to the direct run",
            point.tag(),
            point.kind().name()
        );
    }
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resubmitted_job_is_answered_from_the_cache_without_resimulation() {
    let (dir, cache) = temp_cache("warm");
    let server = TestServer::start(1, 4, Some(cache));
    let mut client = server.client();
    let points = vec![quick_sweep(NetworkKind::TokenRing, 0.05)];

    let cold = client
        .submit("warm-test", None, points.clone())
        .expect("submit cold");
    let finished = client.wait(&cold.job, |_| {}).expect("wait cold");
    assert_eq!(finished.state, "done");
    assert_eq!(cold.warm, 0, "an empty cache cannot answer the first job");

    // The identical job again: the submit-time cache probe must resolve
    // every point, so the job is done before a worker ever sees it.
    let warm = client
        .submit("warm-test", None, points.clone())
        .expect("submit warm");
    assert_eq!(
        warm.state, "done",
        "all-warm job should finish at submit time"
    );
    assert_eq!(warm.warm, points.len());
    let status = client.status(&warm.job).expect("status");
    assert_eq!(status.state, "done");
    assert!(
        status.counters.cache_hits >= points.len() as u64,
        "the warm job's host.* delta should record its cache hits, got {:?}",
        status.counters
    );
    // And both jobs agree bit-for-bit.
    let first = client.result(&cold.job).expect("cold results");
    let second = client.result(&warm.job).expect("warm results");
    let as_bytes = |rs: &[macrochip::campaign::PointResult]| {
        rs.iter().map(|r| r.to_cache_bytes()).collect::<Vec<_>>()
    };
    assert_eq!(as_bytes(&first), as_bytes(&second));
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn queue_backpressure_rejects_overflow_and_cancel_frees_the_slot() {
    // One worker and a queue bound of one unfinished job: the second
    // submission must bounce with a retryable error.
    let server = TestServer::start(1, 1, None);
    let mut client = server.client();

    // Enough default-duration points to keep the job busy while the rest
    // of the test runs.
    let slow: Vec<CampaignPoint> = NetworkKind::ALL
        .iter()
        .map(|&kind| CampaignPoint::Sweep {
            kind,
            pattern: Pattern::Uniform,
            offered: 0.2,
            options: SweepOptions::default(),
        })
        .collect();
    let running = client.submit("slow", None, slow).expect("submit slow job");
    assert_eq!(running.state, "running");

    let overflow = client.submit(
        "overflow",
        None,
        vec![quick_sweep(NetworkKind::PointToPoint, 0.05)],
    );
    let error = overflow.expect_err("a full queue must reject the job");
    assert!(error.contains("queue full"), "unexpected error {error:?}");

    // Cancelling the running job frees its slot...
    client.cancel(&running.job).expect("cancel running job");
    let status = client.status(&running.job).expect("status after cancel");
    assert_eq!(status.state, "cancelled");
    // ...and cancelling it again is an error, not a state change.
    let again = client.cancel(&running.job).expect_err("double cancel");
    assert!(
        again.contains("already cancelled"),
        "unexpected error {again:?}"
    );
    // Results of a cancelled job are unavailable.
    let result = client
        .result(&running.job)
        .expect_err("cancelled job result");
    assert!(result.contains("cancelled"), "unexpected error {result:?}");

    let retry = client
        .submit(
            "retry",
            None,
            vec![quick_sweep(NetworkKind::PointToPoint, 0.05)],
        )
        .expect("slot freed by cancel");
    let finished = client.wait(&retry.job, |_| {}).expect("wait retry");
    assert_eq!(finished.state, "done");
    server.stop();
}

#[test]
fn watch_streams_progress_and_seed_override_pins_every_point() {
    let (dir, cache) = temp_cache("watch");
    let server = TestServer::start(2, 4, Some(cache));
    let mut client = server.client();

    // A job seed overrides the per-point seeds, so two submissions that
    // differ only in their embedded seeds dedupe onto one cache entry.
    let a = vec![quick_sweep(NetworkKind::CircuitSwitched, 0.05)];
    let mut b = a.clone();
    if let CampaignPoint::Sweep { options, .. } = &mut b[0] {
        options.seed = 999; // overridden below
    }
    let first = client.submit("seeded", Some(42), a).expect("submit a");
    let mut events = 0usize;
    let done = client
        .wait(&first.job, |progress| {
            events += 1;
            assert_eq!(progress.state, "running");
        })
        .expect("wait a");
    assert_eq!(done.state, "done");
    // Progress events are timing-dependent; the terminal event is not.
    assert!(done.wall_ms >= 0.0);
    let _ = events;

    let second = client.submit("seeded", Some(42), b).expect("submit b");
    assert_eq!(
        second.warm, 1,
        "the seed override must make both submissions hit one cache key"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}
