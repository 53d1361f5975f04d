//! The `campaign-serve` workload: one client connection to an in-process
//! `serve::Server` with one worker and a fresh result cache per pass.
//!
//! Each cycle submits one cold job (never-seen seeds, so it simulates on
//! the worker and writes the cache), waits for it and fetches its
//! results, then resubmits up to [`WARM_PER_CYCLE`] earlier jobs, which
//! the server answers from the cache at submit time.

use crate::span::{self, CAMPAIGN_RUN_POINT, SERVE_RESULT, SERVE_STATUS, SERVE_SUBMIT};
use crate::stats::Fnv;
use crate::suite::{chip_load, op_seed, Pass, CHIP_PATTERNS};
use desim::prof::{self, Counter};
use desim::Span;
use faults::FaultPlan;
use macrochip::campaign::{run_point, CampaignPoint, PointResult, ResultCache};
use macrochip::sweep::SweepOptions;
use netcore::{MacrochipConfig, NetworkKind};
use serve::{Client, ServeOptions, Server};
use std::path::Path;
use std::time::{Duration, Instant};

/// Cold jobs per pass.
const CYCLES: usize = 16;

/// Cached resubmissions after each cold job. With two, about a third of
/// the ops are cold: `op_p50_ms` is a warm round trip and `op_p90_ms` sits
/// inside the cold ones rather than on the edge between the two.
const WARM_PER_CYCLE: usize = 2;

/// Every this many cycles, the cold job's results are checked against an
/// in-process `run_point` of the same points.
const VERIFY_EVERY: usize = 4;

/// Generation window of every served point.
const POINT_SIM: Span = Span::from_ns(200);

/// How often the client polls a running job.
const POLL: Duration = Duration::from_millis(1);

/// A cold job still running after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Fault plan of the served fault-campaign jobs.
const JOB_FAULTS: &str = "rand-links=2; repair=1us";

/// Every job has one point per network and single-chip pattern, so a warm
/// resubmission loads and returns fourteen cached results: enough work
/// that its round trip is not only a few thread wake-ups.
const JOB_KINDS: [NetworkKind; 7] = NetworkKind::ALL;

/// Client-side request timings of one pass.
#[derive(Debug, Default, Clone)]
pub struct ServeStats {
    /// Indices (into the pass's `op_ms`) of cache-served resubmissions.
    pub warm_ops: Vec<usize>,
    /// Indices of jobs that had to simulate.
    pub cold_ops: Vec<usize>,
    pub submit_ms: Vec<f64>,
    pub result_ms: Vec<f64>,
    /// Submissions refused with a retryable `queue full`.
    pub queue_full_retries: u64,
    /// Served points compared against an in-process `run_point`.
    pub verified_points: usize,
}

struct Job {
    command: &'static str,
    seed: u64,
    points: Vec<CampaignPoint>,
    results: Vec<String>,
}

/// The cold job of cycle `cycle`: an open-loop sweep on even cycles, a
/// fault campaign on odd ones, each pinned to a seed derived from the
/// benchmark seed.
fn cold_job(seed: u64, cycle: usize) -> Job {
    let drain = Span::from_us(20);
    let sweep = cycle.is_multiple_of(2);
    let points = JOB_KINDS
        .into_iter()
        .flat_map(|kind| CHIP_PATTERNS.map(|pattern| (kind, pattern)))
        .map(|(kind, pattern)| {
            let load = chip_load(kind, pattern);
            if sweep {
                CampaignPoint::Sweep {
                    kind,
                    pattern,
                    offered: load,
                    options: SweepOptions {
                        sim: POINT_SIM,
                        drain,
                        max_stalled: 5_000,
                        seed: 0,
                    },
                }
            } else {
                CampaignPoint::Fault {
                    kind,
                    pattern,
                    load,
                    plan: FaultPlan::parse(JOB_FAULTS).expect("valid plan"),
                    seed: 0,
                    sim: POINT_SIM,
                    drain,
                    max_stalled: 5_000,
                }
            }
        })
        .collect();
    Job {
        command: if sweep { "sweep" } else { "faults" },
        // The protocol carries seeds as JSON numbers: keep them exact.
        seed: op_seed(seed, 10_000 + cycle as u64) >> 11,
        points,
        results: Vec::new(),
    }
}

fn saturated(r: &PointResult) -> bool {
    match r {
        PointResult::Sweep(p) => p.saturated,
        PointResult::Fault(f) => f.saturated,
        _ => false,
    }
}

/// One submit → result round trip. Returns the job's results in cache
/// encoding and whether the server answered it from the cache.
fn round_trip(
    client: &mut Client,
    job: &Job,
    stats: &mut ServeStats,
) -> Result<(Vec<String>, bool), String> {
    let t = Instant::now();
    let submitted = loop {
        let _s = span::span(SERVE_SUBMIT);
        let r = client.submit(job.command, Some(job.seed), job.points.clone());
        match r {
            Err(e) if e.contains("queue full") => {
                stats.queue_full_retries += 1;
                std::thread::sleep(POLL);
            }
            other => break other?,
        }
    };
    stats.submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let warm = submitted.warm == submitted.points && submitted.state == "done";
    if !warm {
        loop {
            let status = {
                let _s = span::span(SERVE_STATUS);
                client.status(&submitted.job)?
            };
            if status.terminal() {
                if status.state != "done" {
                    return Err(format!("{} ended {}", submitted.job, status.state));
                }
                break;
            }
            if t.elapsed() > JOB_TIMEOUT {
                return Err(format!(
                    "{} still running after {JOB_TIMEOUT:?}",
                    submitted.job
                ));
            }
            std::thread::sleep(POLL);
        }
    }
    let tr = Instant::now();
    let results = {
        let _s = span::span(SERVE_RESULT);
        client.result(&submitted.job)?
    };
    stats.result_ms.push(tr.elapsed().as_secs_f64() * 1e3);
    if results.len() != job.points.len() {
        return Err(format!(
            "{} returned {} results for {} points",
            submitted.job,
            results.len(),
            job.points.len()
        ));
    }
    if results.iter().any(saturated) {
        return Err(format!("{} has a saturated point", submitted.job));
    }
    Ok((
        results.iter().map(PointResult::to_cache_bytes).collect(),
        warm,
    ))
}

/// Starts a server on a loopback port with one worker and a fresh cache
/// under `dir`, connects, and pings it.
fn start(dir: &Path) -> Result<(Client, std::thread::JoinHandle<()>), String> {
    let cache = ResultCache::new(dir.join("cache")).map_err(|e| format!("cache: {e}"))?;
    let server = Server::bind(
        "127.0.0.1:0",
        MacrochipConfig::scaled(),
        ServeOptions {
            workers: 1,
            queue_cap: 16,
            cache: Some(cache),
            manifest_dir: None,
            quiet: true,
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    // The listener is bound, so the connection waits in its backlog until
    // the accept loop starts.
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    client.ping()?;
    Ok((client, handle))
}

/// Runs pass `k`. Its cache and server are fresh, so every cold job is
/// simulated again and the op list is the same in every pass.
pub fn pass(seed: u64, dir: &Path, k: usize, _traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut stats = ServeStats::default();
    let pass_dir = dir.join(format!("serve-{k}"));
    let t = Instant::now();
    let started = std::fs::create_dir_all(&pass_dir)
        .map_err(|e| format!("{}: {e}", pass_dir.display()))
        .and_then(|()| start(&pass_dir));
    pass.setup_s = t.elapsed().as_secs_f64();
    let (mut client, handle) = match started {
        Ok(s) => s,
        Err(e) => {
            pass.attempted = 1;
            pass.failed = 1;
            pass.failures.push(format!("server start: {e}"));
            return pass;
        }
    };
    pass.probe();
    let events0 = prof::counter(Counter::SimEvents);
    let packets0 = prof::counter(Counter::Packets);
    let mut jobs: Vec<Job> = Vec::new();
    let mut digest = Fnv::new();
    let mut op = 0u32;
    let mut run_op = |client: &mut Client,
                      job: &Job,
                      expect_warm: bool,
                      pass: &mut Pass,
                      stats: &mut ServeStats|
     -> Option<Vec<String>> {
        span::set_op(op);
        op += 1;
        pass.attempted += 1;
        let t = Instant::now();
        let r = round_trip(client, job, stats);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pass.op_ms.push(ms);
        pass.probe();
        let failure = match &r {
            Err(e) => Some(e.clone()),
            Ok((_, warm)) if *warm != expect_warm => Some(format!(
                "{} job expected {}",
                job.command,
                if expect_warm { "warm" } else { "cold" }
            )),
            Ok((results, _)) if expect_warm && *results != job.results => {
                Some("warm results differ from the cold ones".to_string())
            }
            Ok(_) => None,
        };
        if let Some(why) = failure {
            pass.failed += 1;
            pass.failures.push(format!("{} job: {why}", job.command));
            return None;
        }
        let index = pass.op_ms.len() - 1;
        if expect_warm {
            stats.warm_ops.push(index);
        } else {
            stats.cold_ops.push(index);
        }
        r.ok().map(|(results, _)| results)
    };
    for cycle in 0..CYCLES {
        let mut job = cold_job(seed, cycle);
        if let Some(results) = run_op(&mut client, &job, false, &mut pass, &mut stats) {
            for r in &results {
                digest.bytes(r.as_bytes());
            }
            job.results = results;
        }
        jobs.push(job);
        for w in 0..WARM_PER_CYCLE.min(cycle + 1) {
            let earlier = &jobs[cycle - w];
            if !earlier.results.is_empty() {
                run_op(&mut client, earlier, true, &mut pass, &mut stats);
            }
        }
    }
    pass.events = prof::counter(Counter::SimEvents) - events0;
    pass.packets = prof::counter(Counter::Packets) - packets0;
    if let Err(e) = client.shutdown() {
        pass.attempted += 1;
        pass.failed += 1;
        pass.failures.push(format!("shutdown: {e}"));
    }
    if handle.join().is_err() {
        pass.attempted += 1;
        pass.failed += 1;
        pass.failures.push("the server thread panicked".to_string());
    }

    // Served results must be byte-identical to an in-process run of the
    // same points (checked on a sample, outside the timed operations).
    let config = MacrochipConfig::scaled();
    for job in jobs.iter().step_by(VERIFY_EVERY) {
        if job.results.is_empty() {
            continue; // its round trip already failed
        }
        let mut points = job.points.clone();
        serve::proto::apply_seed(&mut points, job.seed);
        let mut differs = Vec::new();
        for (i, point) in points.iter().enumerate() {
            let local = {
                let _s = span::span(CAMPAIGN_RUN_POINT);
                run_point(point, &config).to_cache_bytes()
            };
            stats.verified_points += 1;
            if job.results[i] != local {
                differs.push(i);
            }
        }
        if !differs.is_empty() {
            // The job's cold round trip fails its output check.
            pass.failed += 1;
            pass.failures.push(format!(
                "{} job: served points {differs:?} differ from run_point",
                job.command
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&pass_dir);
    pass.digest = digest.finish();
    pass.serve = Some(stats);
    pass
}
