//! Pinned results for runs dominated by injection backpressure.
//!
//! The driver keeps refused packets in a stall queue and re-offers them
//! as the network frees space. How it picks which packets to re-offer,
//! and when, decides which packet wins a freed slot — so any change to
//! that loop shows up in latencies, in `net.rejected` and in the order of
//! `Stall`/`Retry` events. `kernel_equivalence` cannot see such a change:
//! both of its kernels run through the same driver.
//!
//! This test pins a digest of the bit-exact `PointResult` encoding, the
//! metrics snapshot (which carries `net.rejected`) and the flight-recorder
//! stream for stall-heavy runs on one 8x8 chip:
//!
//! * an overloaded sweep point of each of the seven kinds, with a
//!   stalled-packet bound high enough never to trip;
//! * an overloaded `rand-links` fault point with transient corruption
//!   per kind;
//! * closed-loop Radix on circuit-switched and limited point-to-point;
//! * a trace replay through limited point-to-point under a plan that
//!   kills a site and kills and repairs a laser and links.
//!
//! The digests were recorded with the driver that re-offered every
//! stalled packet after every event; a driver that skips re-offers must
//! reproduce them unchanged. Update them only for a deliberate change in
//! model behaviour, and say so in the change log.

use coherence::{CoherenceEngine, EngineConfig};
use desim::trace::RingSink;
use desim::{Span, Time, TraceEvent, Tracer};
use faults::FaultPlan;
use macrochip::campaign::{run_point_full, CampaignPoint, PointExecOptions, PointRun};
use macrochip::runner::{drive_traced, DriveLimits};
use macrochip::sweep::{run_load_point_observed, SweepOptions};
use macrochip_tests::overload;
use netcore::{FabricConfig, MacrochipConfig, MetricsRegistry, NetworkKind};
use replay::{CaptureSink, TraceMeta};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{AppProfile, AppWorkload, Pattern};

const SIM: Span = Span::from_ns(300);
const DRAIN: Span = Span::from_us(2);
/// Far above any point's stall queue: saturation is never declared, so
/// the whole window runs under backpressure.
const MAX_STALLED: usize = 1_000_000;

fn config() -> MacrochipConfig {
    MacrochipConfig::scaled()
}

fn sweep(kind: NetworkKind) -> CampaignPoint {
    let (pattern, offered) = overload(kind);
    CampaignPoint::Sweep {
        kind,
        pattern,
        offered,
        options: SweepOptions {
            sim: SIM,
            drain: DRAIN,
            max_stalled: MAX_STALLED,
            seed: 0x57A11,
        },
    }
}

fn fault(kind: NetworkKind) -> CampaignPoint {
    let (pattern, load) = overload(kind);
    CampaignPoint::Fault {
        kind,
        pattern,
        load,
        plan: FaultPlan::parse("rand-links=4; transient=0.02; repair=150ns; backoff=20ns").unwrap(),
        seed: 23,
        sim: SIM,
        drain: DRAIN,
        max_stalled: MAX_STALLED,
    }
}

fn exec() -> PointExecOptions {
    PointExecOptions {
        metrics: true,
        trace: true,
        // Larger than any point's stream, so nothing is dropped.
        trace_capacity: 1 << 21,
        ..PointExecOptions::default()
    }
}

fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn trace_text(trace: &[(Time, TraceEvent)]) -> String {
    trace.iter().map(|e| format!("{e:?}\n")).collect()
}

/// The run's `net.rejected` counter.
fn rejected(run: &PointRun) -> u64 {
    let metrics = run.metrics.as_ref().expect("metrics requested");
    metrics
        .counters
        .iter()
        .find(|(name, _)| name == "net.rejected")
        .map_or(0, |&(_, v)| v)
}

/// FNV-1a over the result's cache encoding (minus its format-version
/// line), the metrics JSON and the flight-recorder stream.
fn digest(run: &PointRun) -> u64 {
    let bytes = run.result.to_cache_bytes();
    let body = bytes.split_once('\n').map_or("", |(_, rest)| rest);
    let metrics = run.metrics.as_ref().expect("metrics requested").to_json();
    let trace = trace_text(&run.trace);
    fnv(body.bytes().chain(metrics.bytes()).chain(trace.bytes()))
}

/// Closed-loop Radix on `kind`, driven with the flight recorder on:
/// FNV-1a over the engine's completion figures, the network's metrics
/// JSON and the event stream.
fn coherent_digest(kind: NetworkKind) -> u64 {
    let cfg = config();
    let profile = AppProfile::suite()
        .into_iter()
        .find(|p| p.name == "Radix")
        .expect("Radix model")
        .with_ops_per_core(3);
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 21)));
    let tracer = Tracer::shared(&sink);
    let mut net = networks::build(kind, cfg);
    net.set_tracer(tracer.clone());
    let mut engine = CoherenceEngine::new(
        cfg,
        EngineConfig::default(),
        AppWorkload::new(&cfg.grid, profile, 5),
    );
    engine.set_tracer(tracer.clone());
    let limits = DriveLimits {
        deadline: Time::from_us(1_000_000),
        max_stalled: usize::MAX,
    };
    let outcome = drive_traced(net.as_mut(), &mut engine, limits, tracer);
    assert!(!outcome.timed_out, "{kind} coherent run timed out");
    assert!(
        net.stats().rejected_packets() > 0,
        "{kind}: the coherent run never stalled"
    );
    let body = format!(
        "{} {:?} {:?} {:?}\n",
        engine.stats().completed(),
        engine.stats().last_completion(),
        engine.stats().latency().mean(),
        outcome,
    );
    let mut reg = MetricsRegistry::new();
    reg.record_net_stats(net.stats());
    let metrics = reg.snapshot().to_json();
    let trace = trace_text(&sink.borrow().snapshot());
    fnv(body.bytes().chain(metrics.bytes()).chain(trace.bytes()))
}

/// Captures an overloaded uniform point-to-point run, then replays it
/// through limited point-to-point under a plan that kills site 9 for
/// good, kills and restores a laser, and kills and repairs links.
fn faulted_replay_digest() -> u64 {
    let cfg = config();
    let path = std::env::temp_dir().join(format!(
        "macrochip-stall-golden-{}.mtrc",
        std::process::id()
    ));
    let meta = TraceMeta {
        grid_side: cfg.grid.side() as u16,
        seed: 3,
        description: "stall golden".into(),
    };
    let mut sink = CaptureSink::create_file(&path, &meta).expect("create trace");
    run_load_point_observed(
        networks::build(NetworkKind::PointToPoint, cfg),
        Pattern::Uniform,
        0.8,
        &cfg,
        SweepOptions {
            sim: SIM,
            drain: DRAIN,
            max_stalled: MAX_STALLED,
            seed: 3,
        },
        Tracer::disabled(),
        |p| sink.record(p),
    );
    let header = sink.finish().expect("finish trace");
    let point = CampaignPoint::Replay {
        kind: NetworkKind::LimitedPointToPoint,
        trace: path.to_string_lossy().into_owned(),
        content_hash: header.content_hash,
        plan: Some(
            FaultPlan::parse(
                "site:9@120ns; laser:2@60ns; link:0->1@40ns; rand-links=2; \
                 transient=0.02; repair=100ns; backoff=20ns",
            )
            .unwrap(),
        ),
        seed: 77,
        drain: DRAIN,
        max_stalled: MAX_STALLED,
    };
    let run = run_point_full(&point, &FabricConfig::single(cfg), exec());
    let _ = std::fs::remove_file(&path);
    assert!(rejected(&run) > 0, "the faulted replay never stalled");
    digest(&run)
}

/// `(kind, [overloaded sweep, overloaded rand-links fault with
/// transients])`.
const POINTS: [(NetworkKind, [u64; 2]); 7] = [
    (
        NetworkKind::TokenRing,
        [0xf19280eabae0b907, 0x0525aa221a93cceb],
    ),
    (
        NetworkKind::CircuitSwitched,
        [0xafe5b63ec65c11c4, 0xe381abd8df1d3d58],
    ),
    (
        NetworkKind::PointToPoint,
        [0xd94fec09aac9770e, 0x41ca8b3db8baec71],
    ),
    (
        NetworkKind::LimitedPointToPoint,
        [0x6003abfda9f824e2, 0x2821d30cc8d54569],
    ),
    (
        NetworkKind::TwoPhase,
        [0x44d7e35f3f4fed04, 0x1b76e8986797c71f],
    ),
    (
        NetworkKind::TwoPhaseAlt,
        [0x67a16b757abcdf5b, 0x1566c1f66e8140e5],
    ),
    (
        NetworkKind::Hierarchical,
        [0xf1136103495ef275, 0xad1e4dba4ff05d1d],
    ),
];

/// `[Radix on circuit-switched, Radix on limited p2p]`.
const COHERENT: [u64; 2] = [0x5031417e56ff380e, 0xb2ee365afd8c2f3e];

const FAULTED_REPLAY: u64 = 0x17067fb8077f8c61;

#[test]
fn stalled_sweep_and_fault_points_match_the_pinned_digests() {
    let cfg = config();
    let mut mismatches = Vec::new();
    for (kind, want) in POINTS {
        let runs = [
            run_point_full(&sweep(kind), &FabricConfig::single(cfg), exec()),
            run_point_full(&fault(kind), &FabricConfig::single(cfg), exec()),
        ];
        for run in &runs {
            assert!(rejected(run) > 0, "{kind}: point never stalled");
        }
        let got = runs.map(|r| digest(&r));
        if got != want {
            let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
            mismatches.push(format!("(NetworkKind::{kind:?}, [{}]),", hex.join(", ")));
        }
    }
    assert!(
        mismatches.is_empty(),
        "stall-heavy results changed; got:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn stalled_coherent_runs_match_the_pinned_digests() {
    let got = [
        coherent_digest(NetworkKind::CircuitSwitched),
        coherent_digest(NetworkKind::LimitedPointToPoint),
    ];
    assert_eq!(
        got, COHERENT,
        "coherent results changed; got [0x{:016x}, 0x{:016x}]",
        got[0], got[1]
    );
}

#[test]
fn stalled_faulted_replay_matches_the_pinned_digest() {
    let got = faulted_replay_digest();
    assert_eq!(
        got, FAULTED_REPLAY,
        "faulted replay changed; got 0x{got:016x}"
    );
}
