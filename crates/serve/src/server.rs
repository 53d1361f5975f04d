//! The campaign daemon: listener, job registry, and sharded worker pool.
//!
//! Jobs enter through [`Server::run`]'s accept loop, are registered in a
//! bounded registry (at most `queue_cap` unfinished jobs — submissions
//! beyond that are rejected with a retryable error), and their cache-miss
//! points are fanned out to a fixed pool of worker threads. A point's
//! shard is `point_key % workers`, so identical points — within one job
//! or across concurrent jobs — serialize on the same worker, and the
//! second one finds the first one's [`ResultCache`] entry instead of
//! re-simulating.
//!
//! Lock order is `jobs` before `shard.queue`; workers take them in the
//! opposite order but never hold both, so the pair cannot deadlock.

use crate::proto::{self, Request, PROTOCOL_VERSION};
use desim::prof::{self, Counter};
use macrochip::campaign::{self, CampaignPoint, PointResult, ResultCache};
use macrochip::manifest::RunManifest;
use macrochip::progress::HostCounters;
use macrochip::sweep::SweepOptions;
use netcore::metrics::json_escape;
use netcore::MacrochipConfig;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often the accept loop polls the shutdown flag, and the cadence of
/// `watch` progress events.
const POLL: Duration = Duration::from_millis(25);
const WATCH_TICK: Duration = Duration::from_millis(200);

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads simulating points; 0 means one per available core
    /// (the same resolution as the CLI's `--jobs 0`).
    pub workers: usize,
    /// Maximum unfinished (queued or running) jobs; submissions beyond
    /// this are rejected with a retryable `queue full` error. Jobs whose
    /// points are all cache-warm complete at submit time and never count
    /// against the bound.
    pub queue_cap: usize,
    /// Result cache consulted before scheduling and filled after each
    /// simulated point; `None` disables the warm fast path entirely.
    pub cache: Option<ResultCache>,
    /// Where to record a [`RunManifest`] per finished (or cancelled)
    /// job, as `<job-id>.manifest.json`; `None` skips manifests.
    pub manifest_dir: Option<PathBuf>,
    /// Suppress per-job log lines on stderr.
    pub quiet: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 0,
            queue_cap: 16,
            cache: None,
            manifest_dir: None,
            quiet: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Running,
    Done,
    Cancelled,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        self != JobState::Running
    }
}

struct Job {
    command: String,
    state: JobState,
    points: Vec<CampaignPoint>,
    keys: Vec<u64>,
    results: Vec<Option<PointResult>>,
    /// Points answered from the cache at submit time.
    warm: usize,
    /// Points with a recorded result (including warm ones).
    done: usize,
    /// Host counters at acceptance; progress reports deltas from here.
    base: HostCounters,
    started: Instant,
    /// Wall-clock of the finished job; 0 while running.
    wall_ms: f64,
}

struct Registry {
    jobs: HashMap<String, Job>,
    /// Jobs accepted but not yet terminal; bounded by `queue_cap`.
    unfinished: usize,
    /// Total jobs ever accepted; job ids are `job-<n>` from this.
    accepted: u64,
}

#[derive(Debug, Clone)]
struct WorkItem {
    job: String,
    index: usize,
}

#[derive(Default)]
struct Shard {
    queue: Mutex<VecDeque<WorkItem>>,
    ready: Condvar,
}

struct Shared {
    config: MacrochipConfig,
    workers: usize,
    queue_cap: usize,
    cache: Option<ResultCache>,
    manifest_dir: Option<PathBuf>,
    quiet: bool,
    jobs: Mutex<Registry>,
    shards: Vec<Shard>,
    shutdown: AtomicBool,
}

/// A bound, running campaign daemon. Construct with [`Server::bind`],
/// then drive the accept loop with [`Server::run`].
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts the worker pool. `addr` may use port 0 to
    /// let the OS pick (see [`Server::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: MacrochipConfig,
        options: ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let workers = campaign::resolve_jobs(options.workers);
        let shared = Arc::new(Shared {
            config,
            workers,
            queue_cap: options.queue_cap.max(1),
            cache: options.cache,
            manifest_dir: options.manifest_dir,
            quiet: options.quiet,
            jobs: Mutex::new(Registry {
                jobs: HashMap::new(),
                unfinished: 0,
                accepted: 0,
            }),
            shards: (0..workers).map(|_| Shard::default()).collect(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            shared,
            listener,
            workers: handles,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Asks the accept loop and workers to wind down. Also triggered by
    /// a `shutdown` request on any connection.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// A handle that can stop the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves connections until shutdown is requested, then joins the
    /// worker pool. In-flight points finish; queued ones are abandoned.
    pub fn run(self) -> io::Result<()> {
        let Server {
            shared,
            listener,
            workers,
        } = self;
        if !shared.quiet {
            eprintln!(
                "macrochip-serve: listening on {} ({} workers, queue cap {}, cache {})",
                listener.local_addr()?,
                shared.workers,
                shared.queue_cap,
                shared
                    .cache
                    .as_ref()
                    .map_or("disabled".to_string(), |c| c.dir().display().to_string()),
            );
        }
        while !shared.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    let _ = std::thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || handle_conn(&shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => return Err(e),
            }
        }
        for handle in workers {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Stops a [`Server`] from outside its accept loop.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            // Touch the lock so sleeping workers can't miss the wakeup.
            drop(shard.queue.lock().unwrap());
            shard.ready.notify_all();
        }
    }

    /// Marks `job` terminal under the registry lock: stamps the wall
    /// clock, releases its queue slot, and writes its manifest.
    fn finish_job(&self, registry: &mut Registry, id: &str, state: JobState) {
        let Some(job) = registry.jobs.get_mut(id) else {
            return;
        };
        job.state = state;
        job.wall_ms = job.started.elapsed().as_secs_f64() * 1e3;
        registry.unfinished -= 1;
        if !self.quiet {
            eprintln!(
                "macrochip-serve: {id} {} ({}/{} points, {} warm, {:.0} ms)",
                state.name(),
                job.done,
                job.points.len(),
                job.warm,
                job.wall_ms,
            );
        }
        if let Some(dir) = &self.manifest_dir {
            let manifest = self.manifest_for(id, job, state);
            let path = dir.join(format!("{id}.manifest.json"));
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, manifest.to_json()))
            {
                if !self.quiet {
                    eprintln!(
                        "macrochip-serve: manifest {} not written: {e}",
                        path.display()
                    );
                }
            }
        }
    }

    fn manifest_for(&self, id: &str, job: &Job, state: JobState) -> RunManifest {
        let mut manifest = RunManifest::new(&job.command, &self.config);
        manifest.job_id = id.to_string();
        manifest.network = uniform(job.points.iter().map(CampaignPoint::kind))
            .map_or_else(|| "mixed".to_string(), |k| k.name().to_string());
        manifest.pattern = uniform(job.points.iter().map(CampaignPoint::tag))
            .unwrap_or("mixed")
            .to_string();
        manifest.seed = job.points.first().map_or(0, point_seed);
        manifest.outcome = match state {
            JobState::Done => "completed".to_string(),
            _ => format!("cancelled ({}/{} points done)", job.done, job.points.len()),
        };
        manifest.jobs = self.workers;
        manifest.cache = match &self.cache {
            Some(_) => format!("{}/{} points from cache", job.warm, job.points.len()),
            None => "disabled".to_string(),
        };
        if let Some(cache) = &self.cache {
            manifest.cache_dir = cache.dir().display().to_string();
        }
        manifest.set_host_stats(
            job.started.elapsed().as_secs_f64() * 1e3,
            job.base.sim_events,
        );
        manifest
    }
}

/// The single value of `iter`, or `None` if it is empty or mixed.
fn uniform<T: PartialEq>(mut iter: impl Iterator<Item = T>) -> Option<T> {
    let first = iter.next()?;
    iter.all(|v| v == first).then_some(first)
}

fn point_seed(point: &CampaignPoint) -> u64 {
    match point {
        CampaignPoint::Sweep {
            options: SweepOptions { seed, .. },
            ..
        }
        | CampaignPoint::Fault { seed, .. }
        | CampaignPoint::Coherent { seed, .. }
        | CampaignPoint::Replay { seed, .. } => *seed,
    }
}

fn worker_loop(shared: &Shared, shard_idx: usize) {
    let shard = &shared.shards[shard_idx];
    loop {
        let item = {
            let mut queue = shard.queue.lock().unwrap();
            loop {
                if let Some(item) = queue.pop_front() {
                    break Some(item);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shard.ready.wait(queue).unwrap();
            }
        };
        let Some(item) = item else {
            return;
        };
        // Snapshot the point while the job is still live; a cancelled or
        // unknown job's leftover queue items are dropped here.
        let staged = {
            let registry = shared.jobs.lock().unwrap();
            registry.jobs.get(&item.job).and_then(|job| {
                (job.state == JobState::Running)
                    .then(|| (job.points[item.index].clone(), job.keys[item.index]))
            })
        };
        let Some((point, key)) = staged else {
            continue;
        };
        // Re-probe the cache: a duplicate point (same key, hence same
        // shard) may have been simulated since submit-time probing.
        let result = match shared.cache.as_ref().and_then(|c| c.load(key)) {
            Some(result) => result,
            None => {
                let result = campaign::run_point(&point, &shared.config);
                if result.cacheable() {
                    if let Some(cache) = &shared.cache {
                        let _ = cache.store(key, &result);
                    }
                }
                result
            }
        };
        prof::add(Counter::PointsDone, 1);
        // Record under the registry lock; results of since-cancelled jobs
        // are discarded (the cache entry above still counts).
        let mut registry = shared.jobs.lock().unwrap();
        let record = registry
            .jobs
            .get_mut(&item.job)
            .filter(|job| job.state == JobState::Running)
            .map(|job| {
                job.results[item.index] = Some(result);
                job.done += 1;
                job.done == job.points.len()
            });
        if record == Some(true) {
            shared.finish_job(&mut registry, &item.job, JobState::Done);
        }
    }
}

fn counters_json(delta: &HostCounters) -> String {
    format!(
        "{{\"points_done\":{},\"sim_events\":{},\"packets\":{},\
         \"cache_hits\":{},\"cache_misses\":{}}}",
        delta.points_done, delta.sim_events, delta.packets, delta.cache_hits, delta.cache_misses,
    )
}

fn error_line(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(message))
}

fn send(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    // One write per line: a trailing-newline segment of its own would
    // sit out a ~40 ms delayed-ACK round under Nagle.
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    stream.write_all(&framed)?;
    stream.flush()
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    // Accepted sockets must block: the protocol is strictly one request
    // line in, one (or, for watch, several) response lines out.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // Response lines are tiny; don't let Nagle hold them for an ACK.
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        // A malformed request gets an error line, and the connection
        // stays usable for the next request.
        let reply_sent = match proto::decode_request(&line) {
            Err(e) => send(&mut writer, &error_line(&e)),
            Ok(Request::Ping) => send(&mut writer, &ping_line(shared)),
            Ok(Request::Shutdown) => {
                let _ = send(&mut writer, "{\"ok\":true,\"shutting_down\":true}");
                shared.request_shutdown();
                return;
            }
            Ok(Request::Submit {
                command,
                seed,
                points,
            }) => {
                let reply = handle_submit(shared, &command, seed, points);
                send(&mut writer, &reply)
            }
            Ok(Request::Status { job }) => send(&mut writer, &status_line(shared, &job)),
            Ok(Request::Result { job }) => send(&mut writer, &result_line(shared, &job)),
            Ok(Request::Cancel { job }) => send(&mut writer, &cancel_line(shared, &job)),
            Ok(Request::Watch { job }) => handle_watch(shared, &mut writer, &job),
        };
        if reply_sent.is_err() {
            return;
        }
    }
}

fn ping_line(shared: &Shared) -> String {
    let registry = shared.jobs.lock().unwrap();
    format!(
        "{{\"ok\":true,\"server\":\"macrochip-serve\",\"version\":\"{}\",\
         \"protocol\":{PROTOCOL_VERSION},\"side\":{},\"workers\":{},\"queue_cap\":{},\
         \"cache\":\"{}\",\"jobs\":{},\"unfinished\":{}}}",
        json_escape(env!("CARGO_PKG_VERSION")),
        shared.config.grid.side(),
        shared.workers,
        shared.queue_cap,
        json_escape(
            &shared
                .cache
                .as_ref()
                .map_or("disabled".to_string(), |c| c.dir().display().to_string())
        ),
        registry.accepted,
        registry.unfinished,
    )
}

fn handle_submit(
    shared: &Shared,
    command: &str,
    seed: Option<u64>,
    mut points: Vec<CampaignPoint>,
) -> String {
    if let Some(seed) = seed {
        proto::apply_seed(&mut points, seed);
    }
    // Baseline before the cache probe, so a warm job's progress counters
    // show its cache hits rather than an empty delta.
    let base = HostCounters::snapshot();
    let keys: Vec<u64> = points
        .iter()
        .map(|p| campaign::point_key(p, &shared.config))
        .collect();
    // Probe the cache before taking the registry lock: warm points are
    // the fast path and must not serialize behind it.
    let mut results: Vec<Option<PointResult>> = vec![None; points.len()];
    let mut warm = 0;
    if let Some(cache) = &shared.cache {
        for (slot, key) in results.iter_mut().zip(&keys) {
            if let Some(result) = cache.load(*key) {
                *slot = Some(result);
                warm += 1;
                prof::add(Counter::PointsDone, 1);
            }
        }
    }
    let total = points.len();
    let all_warm = warm == total;
    let misses: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    let mut registry = shared.jobs.lock().unwrap();
    // All-warm jobs finish at submit time and never hold a queue slot,
    // so the warm fast path keeps working even under backpressure.
    if !all_warm && registry.unfinished >= shared.queue_cap {
        return format!(
            "{{\"ok\":false,\"error\":\"queue full ({} unfinished jobs, cap {}); retry later\",\
             \"retryable\":true}}",
            registry.unfinished, shared.queue_cap,
        );
    }
    registry.accepted += 1;
    let id = format!("job-{}", registry.accepted);
    registry.jobs.insert(
        id.clone(),
        Job {
            command: command.to_string(),
            state: JobState::Running,
            points,
            keys: keys.clone(),
            results,
            warm,
            done: warm,
            base,
            started: Instant::now(),
            wall_ms: 0.0,
        },
    );
    registry.unfinished += 1;
    if all_warm {
        shared.finish_job(&mut registry, &id, JobState::Done);
    }
    let state = registry.jobs[&id].state;
    drop(registry);
    // Fan cache misses out to shards by content hash; duplicates land on
    // the same worker, so the cache dedupes them.
    for index in misses {
        let shard = &shared.shards
            [usize::try_from(keys[index] % shared.workers as u64).expect("shard index fits usize")];
        shard.queue.lock().unwrap().push_back(WorkItem {
            job: id.clone(),
            index,
        });
        shard.ready.notify_one();
    }
    format!(
        "{{\"ok\":true,\"job\":\"{}\",\"state\":\"{}\",\"points\":{total},\"warm\":{warm}}}",
        json_escape(&id),
        state.name(),
    )
}

/// Status fields shared by `status` responses and `watch` events.
fn job_snapshot(job: &Job) -> (JobState, usize, usize, usize, f64, HostCounters) {
    let wall_ms = if job.state.terminal() {
        job.wall_ms
    } else {
        job.started.elapsed().as_secs_f64() * 1e3
    };
    let delta = HostCounters::snapshot().since(&job.base);
    (
        job.state,
        job.done,
        job.points.len(),
        job.warm,
        wall_ms,
        delta,
    )
}

fn status_line(shared: &Shared, id: &str) -> String {
    let registry = shared.jobs.lock().unwrap();
    let Some(job) = registry.jobs.get(id) else {
        return error_line(&format!("unknown job {id:?}"));
    };
    let (state, done, total, warm, wall_ms, delta) = job_snapshot(job);
    format!(
        "{{\"ok\":true,\"job\":\"{}\",\"state\":\"{}\",\"done\":{done},\"total\":{total},\
         \"warm\":{warm},\"wall_ms\":{:.3},\"counters\":{}}}",
        json_escape(id),
        state.name(),
        wall_ms,
        counters_json(&delta),
    )
}

fn result_line(shared: &Shared, id: &str) -> String {
    let registry = shared.jobs.lock().unwrap();
    let Some(job) = registry.jobs.get(id) else {
        return error_line(&format!("unknown job {id:?}"));
    };
    match job.state {
        JobState::Running => error_line(&format!(
            "job {id} is still running ({}/{} points done)",
            job.done,
            job.points.len(),
        )),
        JobState::Cancelled => error_line(&format!("job {id} was cancelled")),
        JobState::Done => {
            let mut out = format!(
                "{{\"ok\":true,\"job\":\"{}\",\"state\":\"done\",\"warm\":{},\"results\":[",
                json_escape(id),
                job.warm,
            );
            for (i, result) in job.results.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let result = result.as_ref().expect("done job has every result");
                // The cache encoding is the wire encoding: bit-exact
                // floats, and json_escape turns its newlines into \n so
                // the response stays one line.
                let _ = write!(out, "\"{}\"", json_escape(&result.to_cache_bytes()));
            }
            out.push_str("]}");
            out
        }
    }
}

fn cancel_line(shared: &Shared, id: &str) -> String {
    let mut registry = shared.jobs.lock().unwrap();
    let Some(job) = registry.jobs.get(id) else {
        return error_line(&format!("unknown job {id:?}"));
    };
    if job.state.terminal() {
        return error_line(&format!("job {id} is already {}", job.state.name()));
    }
    // Queued work items are dropped lazily: workers skip items whose job
    // is no longer Running. In-flight points finish and feed the cache,
    // but their results are discarded.
    shared.finish_job(&mut registry, id, JobState::Cancelled);
    format!(
        "{{\"ok\":true,\"job\":\"{}\",\"state\":\"cancelled\"}}",
        json_escape(id)
    )
}

fn handle_watch(shared: &Shared, writer: &mut TcpStream, id: &str) -> io::Result<()> {
    loop {
        let snapshot = {
            let registry = shared.jobs.lock().unwrap();
            registry.jobs.get(id).map(job_snapshot)
        };
        let Some((state, done, total, warm, wall_ms, delta)) = snapshot else {
            return send(writer, &error_line(&format!("unknown job {id:?}")));
        };
        if state.terminal() {
            return send(
                writer,
                &format!(
                    "{{\"event\":\"end\",\"job\":\"{}\",\"state\":\"{}\",\"done\":{done},\
                     \"total\":{total},\"warm\":{warm},\"wall_ms\":{wall_ms:.3}}}",
                    json_escape(id),
                    state.name(),
                ),
            );
        }
        send(
            writer,
            &format!(
                "{{\"event\":\"progress\",\"job\":\"{}\",\"state\":\"running\",\"done\":{done},\
                 \"total\":{total},\"warm\":{warm},\"wall_ms\":{wall_ms:.3},\"counters\":{}}}",
                json_escape(id),
                counters_json(&delta),
            ),
        )?;
        if shared.shutdown.load(Ordering::SeqCst) {
            return send(
                writer,
                &format!(
                    "{{\"event\":\"end\",\"job\":\"{}\",\"state\":\"running\",\
                     \"done\":{done},\"total\":{total},\"warm\":{warm},\
                     \"wall_ms\":{wall_ms:.3},\"note\":\"server shutting down\"}}",
                    json_escape(id),
                ),
            );
        }
        std::thread::sleep(WATCH_TICK);
    }
}
