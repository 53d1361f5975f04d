//! The simulation operations of the `chip-sweep`, `board-neighbor` and
//! `coherent-replay` workloads: one open-loop point, one closed-loop
//! coherent run (optionally captured to `.mtrc`), or one trace replay
//! (optionally under a fault plan).
//!
//! Every operation is split into `prepare` (build networks, sources and
//! engines, open trace files: the benchmark's set-up time) and `run`
//! (drive to completion: the timed operation), then checked.

use crate::span::{
    self, TracedNetwork, TracedOps, TracedSource, COHERENCE, FAULTS, NETWORKS, REPLAY,
    REPLAY_CAPTURE, RUNNER_DRIVE, WORKLOADS,
};
use crate::stats::Fnv;
use coherence::ops::OpSource;
use coherence::{CoherenceEngine, EngineConfig};
use desim::{Span, Time, Tracer};
use faults::{FaultPlan, ResilientNetwork};
use macrochip::replay_run::ReplayOptions;
use macrochip::runner::{drive, drive_observed, DriveLimits, RunOutcome};
use netcore::{
    FabricConfig, MacrochipConfig, Network, NetworkKind, Packet, PacketSource, SlabStats,
};
use replay::{CaptureSink, TraceMeta, TraceSource};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use workloads::{AppProfile, AppWorkload, OpenLoopTraffic, Pattern};

/// Drain allowance after an open-loop generation window; a point that
/// has not drained by then counts as failed.
const OPEN_DRAIN: Span = Span::from_us(20);

/// Stalled-packet bound: a point that reaches it reports `saturated`.
const MAX_STALLED: usize = 5_000;

/// The fault plan of faulted replays: two seeded random link kills
/// repaired after 1 us, and transient corruption that forces NACKs and
/// retransmissions.
pub const REPLAY_FAULTS: &str = "rand-links=2; transient=0.0005; repair=1us";

/// One benchmark operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// An open-loop point on an `chips`×`chips` board of side-8 chips
    /// (one chip when `chips` is 1).
    Open {
        kind: NetworkKind,
        pattern: Pattern,
        load: f64,
        chips: usize,
        sim: Span,
        seed: u64,
    },
    /// A closed-loop coherent run of one application model; with
    /// `capture`, its injected packets are recorded to trace slot
    /// `capture`.
    Coherent {
        kind: NetworkKind,
        app: AppProfile,
        seed: u64,
        capture: Option<usize>,
    },
    /// Trace slot `trace` replayed through `kind`, bare or under
    /// [`REPLAY_FAULTS`].
    Replay {
        kind: NetworkKind,
        trace: usize,
        faulted: bool,
        seed: u64,
    },
}

/// What an operation did, in deterministic counts, plus its check.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// Empty when every output check passed.
    pub failure: Option<String>,
    /// Simulated events (network event-queue pops).
    pub events: u64,
    /// Packets delivered.
    pub packets: u64,
    /// Digest of the simulated statistics of this operation.
    pub digest: u64,
    /// Chips per board side (1 for a single chip).
    pub chips: usize,
    /// Coherence operations issued, merged and completed.
    pub coherence: Option<(u64, u64, u64)>,
    pub slab: Option<SlabStats>,
    /// Retransmissions and NACKs of a faulted replay.
    pub faults: Option<(u64, u64)>,
    /// Captured trace: file bytes and packets.
    pub captured: Option<(u64, u64)>,
}

pub enum Engine {
    Plain(CoherenceEngine<AppWorkload>),
    Traced(CoherenceEngine<TracedOps<AppWorkload>>),
}

/// An operation with its inputs built, ready to run.
pub enum Prepared {
    Open {
        net: Box<dyn Network>,
        traffic: OpenLoopTraffic,
        limits: DriveLimits,
        fabric: FabricConfig,
    },
    Coherent {
        net: Box<dyn Network>,
        engine: Box<Engine>,
        expected_ops: u64,
        capture: Option<(CaptureSink<BufWriter<File>>, PathBuf)>,
    },
    Replay {
        net: Box<dyn Network>,
        source: TraceSource<BufReader<File>>,
    },
    Faulted {
        net: Box<ResilientNetwork>,
        source: TraceSource<BufReader<File>>,
    },
}

fn chip() -> MacrochipConfig {
    MacrochipConfig::scaled()
}

/// Path of trace slot `slot` under `dir`.
fn trace_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("trace-{slot}.mtrc"))
}

/// The network of one operation, wrapped in the benchmark's decorator
/// when `traced` (the inner network of a fault wrapper is decorated here,
/// the runner-facing one in [`run`]).
fn inner_network(net: Box<dyn Network>, traced: bool) -> Box<dyn Network> {
    if traced {
        Box::new(TracedNetwork::owned(net, &NETWORKS))
    } else {
        net
    }
}

/// Builds the inputs of `op`. Trace slots live in `dir`.
///
/// # Errors
///
/// A trace that cannot be created or opened.
pub fn prepare(op: &Op, dir: &Path, traced: bool) -> Result<Prepared, String> {
    Ok(match op {
        Op::Open {
            kind,
            pattern,
            load,
            chips,
            sim,
            seed,
        } => {
            let fabric = if *chips == 1 {
                FabricConfig::single(chip())
            } else {
                FabricConfig::grid(*chips, chip())
            };
            let global = fabric.global_config();
            let net = networks::build_fabric(*kind, &fabric);
            let mut traffic = OpenLoopTraffic::new(
                &global.grid,
                *pattern,
                *load,
                global.site_bandwidth_bytes_per_ns(),
                global.data_bytes,
                *seed,
            );
            traffic.set_horizon(Time::ZERO + *sim);
            Prepared::Open {
                net,
                traffic,
                limits: DriveLimits::for_window(*sim, OPEN_DRAIN, MAX_STALLED),
                fabric,
            }
        }
        Op::Coherent {
            kind,
            app,
            seed,
            capture,
        } => {
            let config = chip();
            let workload = AppWorkload::new(&config.grid, *app, *seed);
            let engine = if traced {
                Engine::Traced(CoherenceEngine::new(
                    config,
                    EngineConfig::default(),
                    TracedOps::new(workload),
                ))
            } else {
                Engine::Plain(CoherenceEngine::new(
                    config,
                    EngineConfig::default(),
                    workload,
                ))
            };
            let capture = match capture {
                Some(slot) => {
                    let path = trace_path(dir, *slot);
                    let meta = TraceMeta {
                        grid_side: u16::try_from(config.grid.side()).expect("side fits"),
                        seed: *seed,
                        description: format!("coherent {} on {}", app.name, kind.name()),
                    };
                    let sink = CaptureSink::create_file(&path, &meta)
                        .map_err(|e| format!("creating {}: {e}", path.display()))?;
                    Some((sink, path))
                }
                None => None,
            };
            let cores = (config.grid.sites() * config.cores_per_site) as u64;
            Prepared::Coherent {
                net: networks::build(*kind, config),
                engine: Box::new(engine),
                expected_ops: cores * u64::from(app.ops_per_core),
                capture,
            }
        }
        Op::Replay {
            kind,
            trace,
            faulted,
            seed,
        } => {
            let path = trace_path(dir, *trace);
            let source =
                TraceSource::open(&path).map_err(|e| format!("opening {}: {e}", path.display()))?;
            let net = networks::build(*kind, chip());
            if *faulted {
                let plan = FaultPlan::parse(REPLAY_FAULTS).expect("valid plan");
                let horizon = source.header().last_time();
                Prepared::Faulted {
                    net: Box::new(ResilientNetwork::new(
                        inner_network(net, traced),
                        &plan,
                        *seed,
                        horizon,
                    )),
                    source,
                }
            } else {
                Prepared::Replay { net, source }
            }
        }
    })
}

/// Drives `net` from `src` through the public runner, inside a
/// `runner.drive` span when traced. `observer` sees every emitted packet.
fn drive_op(
    net: &mut dyn Network,
    src: &mut dyn PacketSource,
    limits: DriveLimits,
    observer: Option<&mut dyn FnMut(&Packet)>,
) -> RunOutcome {
    let _d = span::span(RUNNER_DRIVE);
    match observer {
        Some(obs) => drive_observed(net, src, limits, Tracer::disabled(), |p| obs(p)),
        None => drive(net, src, limits),
    }
}

/// Runs `f` on `net`, decorated as the runner-facing network when
/// `traced`.
fn with_network(
    net: &mut dyn Network,
    traced: bool,
    ids: &'static span::NetIds,
    f: impl FnOnce(&mut dyn Network) -> RunOutcome,
) -> RunOutcome {
    if traced {
        f(&mut TracedNetwork::borrowed(net, ids))
    } else {
        f(net)
    }
}

fn outcome_failure(outcome: &RunOutcome) -> Option<String> {
    if outcome.saturated {
        Some("saturated".to_string())
    } else if outcome.timed_out {
        Some("timed out before draining".to_string())
    } else {
        None
    }
}

fn net_digest(h: &mut Fnv, net: &dyn Network, outcome: &RunOutcome) {
    let s = net.stats();
    h.u64(net.events_processed());
    h.u64(s.injected_packets());
    h.u64(s.delivered_packets());
    h.u64(s.delivered_bytes());
    h.u64(s.routed_bytes());
    h.u64(s.dropped_packets());
    h.u64(s.mean_latency().as_ps());
    h.u64(s.latency().percentile(0.99).as_ps());
    h.u64(outcome.end.as_ps());
}

fn base_result(net: &dyn Network, h: Fnv, failure: Option<String>, chips: usize) -> OpResult {
    OpResult {
        failure,
        events: net.events_processed(),
        packets: net.stats().delivered_packets(),
        digest: h.finish(),
        chips,
        slab: net.slab_stats(),
        ..OpResult::default()
    }
}

/// Runs a prepared operation to completion and checks its outputs.
pub fn run(op: &Op, prepared: Prepared, traced: bool) -> OpResult {
    match prepared {
        Prepared::Open {
            mut net,
            mut traffic,
            limits,
            fabric,
        } => {
            let chips = fabric.chips_per_side;
            let outcome = with_network(net.as_mut(), traced, &NETWORKS, |n| {
                if traced {
                    let f = (chips > 1).then_some(fabric);
                    drive_op(
                        n,
                        &mut TracedSource::new(&mut traffic, &WORKLOADS, f),
                        limits,
                        None,
                    )
                } else {
                    drive_op(n, &mut traffic, limits, None)
                }
            });
            let emitted = traffic.emitted();
            let delivered = net.stats().delivered_packets();
            let failure = outcome_failure(&outcome).or_else(|| {
                (emitted != delivered)
                    .then(|| format!("delivered {delivered} of {emitted} emitted packets"))
            });
            let mut h = Fnv::new();
            h.u64(emitted);
            net_digest(&mut h, net.as_ref(), &outcome);
            base_result(net.as_ref(), h, failure, chips)
        }
        Prepared::Coherent {
            net,
            engine,
            expected_ops,
            capture,
        } => {
            let mut capture = capture;
            let (net, (outcome, issued, merged, completed, op_h)) = match *engine {
                Engine::Plain(mut e) => run_coherent(net, &mut e, traced, capture.as_mut()),
                Engine::Traced(mut e) => run_coherent(net, &mut e, traced, capture.as_mut()),
            };
            let mut failure = outcome_failure(&outcome).or_else(|| {
                (completed != expected_ops)
                    .then(|| format!("completed {completed} of {expected_ops} coherence ops"))
            });
            let mut h = Fnv::new();
            h.u64(op_h);
            net_digest(&mut h, net.as_ref(), &outcome);
            let mut captured = None;
            if let Some((sink, path)) = capture {
                match sink.finish() {
                    Ok(header) => {
                        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                        captured = Some((bytes, header.packets));
                        h.u64(header.packets);
                        h.u64(header.content_hash);
                        let delivered = net.stats().delivered_packets();
                        if header.packets != delivered && failure.is_none() {
                            failure = Some(format!(
                                "captured {} packets but {delivered} were delivered",
                                header.packets
                            ));
                        }
                    }
                    Err(e) => failure = Some(format!("capture failed: {e}")),
                }
            }
            let mut r = base_result(net.as_ref(), h, failure, 1);
            r.coherence = Some((issued, merged, completed));
            r.captured = captured;
            r
        }
        Prepared::Replay {
            mut net,
            mut source,
        } => {
            let limits = replay_limits(&source);
            let outcome = with_network(net.as_mut(), traced, &NETWORKS, |n| {
                replay_drive(n, &mut source, limits, traced)
            });
            let trace_packets = source.header().packets;
            let delivered = net.stats().delivered_packets();
            let failure = outcome_failure(&outcome)
                .or_else(|| source.is_poisoned().then(|| "corrupt trace".to_string()))
                .or_else(|| {
                    (delivered != trace_packets || source.emitted() != trace_packets).then(|| {
                        format!(
                            "replay delivered {delivered}, emitted {} of {trace_packets}",
                            source.emitted()
                        )
                    })
                });
            let mut h = Fnv::new();
            h.u64(source.emitted());
            net_digest(&mut h, net.as_ref(), &outcome);
            base_result(net.as_ref(), h, failure, 1)
        }
        Prepared::Faulted {
            mut net,
            mut source,
        } => {
            let limits = replay_limits(&source);
            let outcome = with_network(net.as_mut(), traced, &FAULTS, |n| {
                replay_drive(n, &mut source, limits, traced)
            });
            let trace_packets = source.header().packets;
            let fs = net.fault_stats().clone();
            let resolved = fs.clean_delivered + net.lost_packets();
            let failure = outcome_failure(&outcome)
                .or_else(|| source.is_poisoned().then(|| "corrupt trace".to_string()))
                .or_else(|| {
                    (resolved != trace_packets || net.pending_retries() != 0).then(|| {
                        format!("faulted replay resolved {resolved} of {trace_packets} packets")
                    })
                });
            let mut h = Fnv::new();
            h.u64(source.emitted());
            for v in [
                fs.faults_applied,
                fs.recoveries_applied,
                fs.corrupted,
                fs.nacks,
                fs.retries,
                fs.evicted,
                fs.dropped,
                fs.clean_delivered,
                fs.clean_bytes,
            ] {
                h.u64(v);
            }
            net_digest(&mut h, net.as_ref(), &outcome);
            let mut r = base_result(net.as_ref(), h, failure, 1);
            r.faults = Some((fs.retries, fs.nacks));
            r
        }
    }
    .with_op_check(op)
}

impl OpResult {
    /// A result with no simulated work is a failed operation.
    fn with_op_check(mut self, op: &Op) -> OpResult {
        if self.failure.is_none() && (self.events == 0 || self.packets == 0) {
            self.failure = Some(format!("{op:?} simulated nothing"));
        }
        self
    }
}

fn replay_limits(source: &TraceSource<BufReader<File>>) -> DriveLimits {
    let options = ReplayOptions::default();
    DriveLimits {
        deadline: source.header().last_time() + options.drain,
        max_stalled: options.max_stalled,
    }
}

fn replay_drive(
    net: &mut dyn Network,
    source: &mut TraceSource<BufReader<File>>,
    limits: DriveLimits,
    traced: bool,
) -> RunOutcome {
    if traced {
        drive_op(
            net,
            &mut TracedSource::new(source, &REPLAY, None),
            limits,
            None,
        )
    } else {
        drive_op(net, source, limits, None)
    }
}

type CoherentOut = (RunOutcome, u64, u64, u64, u64);

fn run_coherent<S: OpSource>(
    mut net: Box<dyn Network>,
    engine: &mut CoherenceEngine<S>,
    traced: bool,
    mut capture: Option<&mut (CaptureSink<BufWriter<File>>, PathBuf)>,
) -> (Box<dyn Network>, CoherentOut) {
    let limits = DriveLimits {
        // Closed-loop runs always converge; the deadline is a safety net
        // (the same one the library's coherent harness uses).
        deadline: Time::from_us(1_000_000),
        max_stalled: usize::MAX,
    };
    let outcome = with_network(net.as_mut(), traced, &NETWORKS, |n| {
        let mut record = |p: &Packet| {
            if let Some((sink, _)) = capture.as_deref_mut() {
                let _c = span::span(REPLAY_CAPTURE);
                sink.record(p);
            }
        };
        let observer: Option<&mut dyn FnMut(&Packet)> = Some(&mut record);
        if traced {
            drive_op(
                n,
                &mut TracedSource::new(engine, &COHERENCE, None),
                limits,
                observer,
            )
        } else {
            drive_op(n, engine, limits, observer)
        }
    });
    let stats = engine.stats();
    let mut h = Fnv::new();
    h.u64(stats.issued());
    h.u64(stats.merged());
    h.u64(stats.completed());
    h.u64(stats.last_completion().as_ps());
    h.u64(stats.latency().mean().as_ps());
    h.u64(stats.latency().percentile(0.99).as_ps());
    (
        net,
        (
            outcome,
            stats.issued(),
            stats.merged(),
            stats.completed(),
            h.finish(),
        ),
    )
}
