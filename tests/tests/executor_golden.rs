//! Pinned outputs of the campaign point executor.
//!
//! Every CLI command, the `serve` daemon and the benchmark run a point
//! through one executor, which sets up the flight recorder and the
//! invariant auditor, drives the point and assembles its metrics. This
//! test pins a digest of everything that executor hands back — the
//! bit-exact `PointResult` encoding, the metrics JSON, the event stream
//! and the audit report (violation lines plus the `audit.*` counters) —
//! with tracing, metrics and auditing all on:
//!
//! * sweep and `rand-links` + transient fault points of all seven kinds,
//!   on one 8x8 chip and on a 2x2 board of side-4 chips;
//! * a captured point-to-point trace replayed bare and under faults
//!   through all seven kinds;
//! * closed-loop coherent points of all seven kinds, audit only.
//!
//! The digests were recorded with the executor that kept separate
//! single-chip and board code paths; a restructured executor must
//! reproduce them unchanged. Update them only for a deliberate change in
//! model behaviour, and say so in the change log.

use desim::{Span, Time, TraceEvent, Tracer};
use faults::FaultPlan;
use macrochip::campaign::{run_point_full, CampaignPoint, PointExecOptions, PointResult, PointRun};
use macrochip::experiment::WorkloadSpec;
use macrochip::sweep::{run_load_point_observed, SweepOptions};
use netcore::audit::AuditReport;
use netcore::{FabricConfig, MacrochipConfig, MetricsRegistry, NetworkKind};
use replay::{CaptureSink, TraceMeta};
use workloads::{Pattern, SharingMix};

const SIM: Span = Span::from_ns(400);
const DRAIN: Span = Span::from_us(4);
const FAULTS: &str = "rand-links=2; transient=0.01; repair=200ns; backoff=20ns";

fn chip() -> FabricConfig {
    FabricConfig::single(MacrochipConfig::scaled())
}

fn board() -> FabricConfig {
    FabricConfig::grid(2, MacrochipConfig::with_side(4))
}

fn exec(trace: bool, metrics: bool) -> PointExecOptions {
    PointExecOptions {
        trace,
        metrics,
        // Larger than any point's stream, so nothing is dropped.
        trace_capacity: 1 << 20,
        audit: true,
    }
}

fn run(point: &CampaignPoint, fabric: &FabricConfig, exec: PointExecOptions) -> PointRun {
    run_point_full(point, fabric, exec)
}

fn sweep(kind: NetworkKind) -> CampaignPoint {
    CampaignPoint::Sweep {
        kind,
        pattern: Pattern::Uniform,
        offered: 0.02,
        options: SweepOptions {
            sim: SIM,
            drain: DRAIN,
            max_stalled: 5_000,
            seed: 0xE4EC,
        },
    }
}

fn fault(kind: NetworkKind) -> CampaignPoint {
    CampaignPoint::Fault {
        kind,
        pattern: Pattern::Uniform,
        load: 0.02,
        plan: FaultPlan::parse(FAULTS).unwrap(),
        seed: 41,
        sim: SIM,
        drain: DRAIN,
        max_stalled: 5_000,
    }
}

fn replay(kind: NetworkKind, trace: &str, content_hash: u64, faulted: bool) -> CampaignPoint {
    CampaignPoint::Replay {
        kind,
        trace: trace.to_string(),
        content_hash,
        plan: faulted.then(|| FaultPlan::parse(FAULTS).unwrap()),
        seed: 43,
        drain: DRAIN,
        max_stalled: 5_000,
    }
}

fn coherent(kind: NetworkKind) -> CampaignPoint {
    CampaignPoint::Coherent {
        kind,
        spec: WorkloadSpec::Synthetic {
            pattern: Pattern::Uniform,
            mix: SharingMix::MoreSharing,
            ops_per_core: 2,
        },
        seed: 47,
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

/// The report's violation lines and its `audit.*` counter family.
fn audit_text(report: &AuditReport) -> String {
    let mut reg = MetricsRegistry::new();
    report.record_metrics(&mut reg);
    let mut text = report.violation_lines().join("\n");
    text.push('\n');
    text.push_str(&reg.snapshot().to_json());
    text
}

/// FNV-1a over the result's cache encoding (minus its format-version
/// line), the metrics JSON, the event stream and the audit report. The
/// audit must be present and clean.
fn digest(label: &str, run: &PointRun) -> u64 {
    let bytes = run.result.to_cache_bytes();
    let body = bytes.split_once('\n').map_or("", |(_, rest)| rest);
    let metrics = run
        .metrics
        .as_ref()
        .map(|m| m.to_json())
        .unwrap_or_default();
    let trace = trace_text(&run.trace);
    let report = run.audit.as_ref().expect("audit requested");
    assert!(
        report.is_clean(),
        "{label}: audit violations: {:?}",
        report.violation_lines()
    );
    let audit = audit_text(report);
    fnv(body
        .bytes()
        .chain(metrics.bytes())
        .chain(trace.bytes())
        .chain(audit.bytes()))
}

/// Captures a light uniform point-to-point run on the 8x8 chip to a
/// temp `.mtrc` file; returns its path and content hash.
fn capture() -> (std::path::PathBuf, u64) {
    let cfg = chip().chip;
    let path = std::env::temp_dir().join(format!(
        "macrochip-executor-golden-{}.mtrc",
        std::process::id()
    ));
    let meta = TraceMeta {
        grid_side: cfg.grid.side() as u16,
        seed: 3,
        description: "executor golden".into(),
    };
    let mut sink = CaptureSink::create_file(&path, &meta).expect("create trace");
    run_load_point_observed(
        networks::build(NetworkKind::PointToPoint, cfg),
        Pattern::Uniform,
        0.03,
        &cfg,
        SweepOptions {
            sim: SIM,
            drain: DRAIN,
            max_stalled: 5_000,
            seed: 3,
        },
        Tracer::disabled(),
        |p| sink.record(p),
    );
    let header = sink.finish().expect("finish trace");
    (path, header.content_hash)
}

/// Formats one mismatching row for pasting back into a table.
fn row(kind: NetworkKind, got: &[u64]) -> String {
    let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    format!("(NetworkKind::{kind:?}, [{}]),", hex.join(", "))
}

/// `(kind, [8x8 sweep, 8x8 fault, 2x2-board sweep, 2x2-board fault])`.
const OPEN_LOOP: [(NetworkKind, [u64; 4]); 7] = [
    (
        NetworkKind::TokenRing,
        [
            0x2626bcc56080fbe3,
            0xfa865bdb7ac8ced5,
            0x70aa4db6875a13ab,
            0xa78b0d551e2d0001,
        ],
    ),
    (
        NetworkKind::CircuitSwitched,
        [
            0x8d3e06c1f979a45f,
            0x923e66e61886d205,
            0xe843f84d870f87cf,
            0x5c5f644c98af87a3,
        ],
    ),
    (
        NetworkKind::PointToPoint,
        [
            0x0cbde9bd98756c50,
            0x08f4820a162fd072,
            0xbd9a67b696b48644,
            0xc154c503e6dd8476,
        ],
    ),
    (
        NetworkKind::LimitedPointToPoint,
        [
            0x3d23d692169c8a87,
            0x79dd6f1ae97a2cfb,
            0xf166d64dd5e3cdba,
            0x1d7c2f4e4b0a2154,
        ],
    ),
    (
        NetworkKind::TwoPhase,
        [
            0x2ce534c8dddfe5e8,
            0x5b1155c86f8139d3,
            0xb1afa3d4e4ec4147,
            0x54fba2325606e803,
        ],
    ),
    (
        NetworkKind::TwoPhaseAlt,
        [
            0x73dee7d66c8975ec,
            0x5900c35ec806f19a,
            0xf1442f5099d22af5,
            0x1e94941ee2eb40e8,
        ],
    ),
    (
        NetworkKind::Hierarchical,
        [
            0x32f5e2097ce4adbe,
            0xf3939076aa9b4d00,
            0x45e9e425a7175b38,
            0x28ef47f6b316d8d5,
        ],
    ),
];

/// `(kind, [bare replay, faulted replay, coherent])`, all on the 8x8
/// chip.
const CLOSED_LOOP: [(NetworkKind, [u64; 3]); 7] = [
    (
        NetworkKind::TokenRing,
        [0xed5747e902e050b8, 0x8801fb775a45ef0c, 0x70987ff95ceb82be],
    ),
    (
        NetworkKind::CircuitSwitched,
        [0xdebd271d4f2d02d1, 0xa311e4cb329b4a5a, 0x1c428339c9d48ffe],
    ),
    (
        NetworkKind::PointToPoint,
        [0xd613686504fc038f, 0x203114991a96e3fc, 0xb50d32523b66934c],
    ),
    (
        NetworkKind::LimitedPointToPoint,
        [0xabc76ffce5c79ca0, 0x9f6c1a37c28c095b, 0x0dd1085e01f5c8d1],
    ),
    (
        NetworkKind::TwoPhase,
        [0x8a6d0bce79a3eded, 0x7e62364e7f6d3efe, 0x1a7dc1641287475f],
    ),
    (
        NetworkKind::TwoPhaseAlt,
        [0xb2b7f3589185f2d1, 0x982d50072af08f65, 0x1fa7f134ba5c93ad],
    ),
    (
        NetworkKind::Hierarchical,
        [0x2d3392d00007da67, 0x40f947cd56f902b9, 0xb83031d88e0818e9],
    ),
];

#[test]
fn sweep_and_fault_points_match_the_pinned_digests() {
    let all = exec(true, true);
    let mut mismatches = Vec::new();
    for (kind, want) in OPEN_LOOP {
        let mut got = Vec::new();
        for fabric in [chip(), board()] {
            for point in [sweep(kind), fault(kind)] {
                let label = format!("{kind} {} {}x", point.tag(), fabric.chips_per_side);
                got.push(digest(&label, &run(&point, &fabric, all)));
            }
        }
        if got != want {
            mismatches.push(row(kind, &got));
        }
    }
    assert!(
        mismatches.is_empty(),
        "executor results changed; got:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn replay_and_coherent_points_match_the_pinned_digests() {
    let (path, hash) = capture();
    let trace = path.to_string_lossy().into_owned();
    let fabric = chip();
    let mut mismatches = Vec::new();
    for (kind, want) in CLOSED_LOOP {
        let runs = [
            (replay(kind, &trace, hash, false), exec(true, true)),
            (replay(kind, &trace, hash, true), exec(true, true)),
            // Coherent points pin their audit only: the executor's trace
            // and metrics for them are newer than this table.
            (coherent(kind), exec(false, false)),
        ];
        let got: Vec<u64> = runs
            .iter()
            .map(|(point, exec)| {
                let run = run(point, &fabric, *exec);
                if let PointResult::Replay(summary) = &run.result {
                    assert!(!summary.poisoned, "{kind}: replay could not read the trace");
                }
                digest(&format!("{kind} {}", point.tag()), &run)
            })
            .collect();
        if got != want {
            mismatches.push(row(kind, &got));
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        mismatches.is_empty(),
        "executor results changed; got:\n{}",
        mismatches.join("\n")
    );
}

/// Coherent points run through the same probes as every other point, so
/// a requested trace and `net.*` metrics come back for them too.
#[test]
fn coherent_points_return_a_trace_and_net_metrics() {
    let run = run(
        &coherent(NetworkKind::PointToPoint),
        &chip(),
        exec(true, true),
    );
    let PointResult::Coherent(result) = &run.result else {
        panic!("expected a coherent result, got {:?}", run.result);
    };
    assert!(!run.trace.is_empty(), "coherent point recorded no events");
    let metrics = run.metrics.as_ref().expect("metrics requested");
    let delivered = metrics
        .counters
        .iter()
        .find(|(name, _)| name == "net.delivered")
        .map(|&(_, v)| v);
    assert_eq!(delivered, Some(result.packets));
    assert!(result.packets > 0);
}
