//! Multi-chip fabric differential harness: a 2x2 board of side-4
//! macrochips runs the same campaign points on both simulation kernels
//! (reference binary-heap queue + append-only slab vs. optimized
//! calendar queue + recycling slab) and under every job count — results
//! must be **byte-identical** and every audited leg must come back
//! clean, including the fabric-only `fabric.inter-chip-bytes`
//! reconciliation invariant.
//!
//! The fourth test pins the compatibility contract: a one-chip
//! [`FabricConfig`] is not "almost" the plain single-chip path, it *is*
//! that path — same [`PointResult`], same metrics snapshot, byte for
//! byte.
//!
//! The last tests drive boards both ways the runner can: batched (the
//! fabric advanced through every event up to the next emission in one
//! call) and per-event (one runner iteration per instant). Both must
//! produce the same bytes.

use desim::{Backend, Span, Time, Tracer};
use faults::{FaultPlan, ResilientNetwork};
use macrochip::campaign::{
    run_indexed, run_point_full, CampaignPoint, FaultSummary, PointExecOptions, PointResult,
    PointRun,
};
use macrochip::runner::{drive_traced, DriveLimits};
use macrochip::sweep::{run_load_point_traced, SweepOptions};
use netcore::slab::set_thread_mode;
use netcore::{
    Auditor, FabricConfig, FaultResponse, MacrochipConfig, MetricsRegistry, NetFault, NetStats,
    Network, NetworkKind, Packet, SlabMode, SlabStats,
};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{OpenLoopTraffic, Pattern};

const SIM: Span = Span::from_ns(500);
const DRAIN: Span = Span::from_us(5);

/// The two fabric-bearing architectures this harness sweeps: the paper's
/// token-ring crossbar and the post-paper hierarchical network. Between
/// them they cover both gateway protocols (broadcast-arbitrated and
/// cluster-routed) over the board links.
const FABRIC_KINDS: [NetworkKind; 2] = [NetworkKind::TokenRing, NetworkKind::Hierarchical];

/// A 2x2 board of side-4 chips: 16 chips' worth of machinery in
/// miniature — 4 inner networks, 2 board links in each direction, and an
/// 8x8 global address space.
fn fabric() -> FabricConfig {
    FabricConfig::grid(2, MacrochipConfig::with_side(4))
}

fn options(seed: u64) -> SweepOptions {
    SweepOptions {
        sim: SIM,
        drain: DRAIN,
        max_stalled: 5_000,
        seed,
    }
}

fn sweep_point(kind: NetworkKind, offered: f64) -> CampaignPoint {
    CampaignPoint::Sweep {
        kind,
        pattern: Pattern::Uniform,
        offered,
        options: options(0xFAB),
    }
}

/// A fault point whose plan kills the chip(0,0) -> chip(0,1) board link
/// (global gateway indices 0 and 4 on the 8-wide global grid), so the
/// resilience wrapper's retry machinery runs *through* the fabric layer.
fn fault_point(kind: NetworkKind) -> CampaignPoint {
    CampaignPoint::Fault {
        kind,
        pattern: Pattern::Uniform,
        load: 0.02,
        plan: FaultPlan::parse("link:0->4@500ns; repair=2us").unwrap(),
        seed: 77,
        sim: SIM,
        drain: DRAIN,
        max_stalled: 5_000,
    }
}

/// Runs `f` under an explicit kernel selection, restoring the defaults
/// afterwards even if `f` panics.
fn with_kernel<T>(backend: Backend, mode: SlabMode, f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            desim::set_thread_backend(None);
            set_thread_mode(None);
        }
    }
    let _restore = Restore;
    desim::set_thread_backend(Some(backend));
    set_thread_mode(Some(mode));
    f()
}

/// Runs `f` on both kernels and returns `(reference, optimized)`.
fn both<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let reference = with_kernel(Backend::Heap, SlabMode::Append, &mut f);
    let optimized = with_kernel(Backend::Calendar, SlabMode::Recycle, &mut f);
    (reference, optimized)
}

/// Full-fat execution: metrics + audit, so one run yields everything the
/// differential needs.
fn audited(point: &CampaignPoint) -> PointRun {
    run_point_full(
        point,
        &fabric(),
        PointExecOptions {
            metrics: true,
            audit: true,
            ..PointExecOptions::default()
        },
    )
}

fn assert_clean(run: &PointRun, label: &str) {
    let report = run.audit.as_ref().expect("audit was requested");
    assert!(
        report.is_clean(),
        "{label}: fabric audit found violations: {:?}",
        report.violations
    );
}

/// Open-loop sweep points on the 2x2 board: [`PointResult`] and the full
/// metrics snapshot (`net.*`, `audit.*`, `fabric.*` counters) must match
/// between kernels at a light and a moderate load, and both legs must
/// audit clean.
#[test]
fn fabric_sweep_points_are_kernel_invariant_and_audit_clean() {
    for kind in FABRIC_KINDS {
        for offered in [0.01, 0.03] {
            let point = sweep_point(kind, offered);
            let (reference, optimized) = both(|| audited(&point));
            assert_clean(&reference, "reference kernel");
            assert_clean(&optimized, "optimized kernel");
            assert_eq!(
                reference.result, optimized.result,
                "{kind} @ {offered}: fabric PointResult diverged between kernels"
            );
            assert_eq!(
                reference.metrics.as_ref().map(|m| m.to_json()),
                optimized.metrics.as_ref().map(|m| m.to_json()),
                "{kind} @ {offered}: fabric metrics diverged between kernels"
            );
        }
    }
}

/// Fault points with an inter-chip link kill: the board-link
/// half-bandwidth degradation, repair scheduling, and the wrapper's
/// retry timing must agree exactly between kernels, and the fabric
/// byte-reconciliation must still close with retransmissions in flight.
#[test]
fn fabric_fault_points_are_kernel_invariant_and_audit_clean() {
    for kind in FABRIC_KINDS {
        let point = fault_point(kind);
        let (reference, optimized) = both(|| audited(&point));
        assert_clean(&reference, "reference kernel");
        assert_clean(&optimized, "optimized kernel");
        assert_eq!(
            reference.result, optimized.result,
            "{kind}: fabric fault PointResult diverged between kernels"
        );
        assert_eq!(
            reference.metrics.as_ref().map(|m| m.to_json()),
            optimized.metrics.as_ref().map(|m| m.to_json()),
            "{kind}: fabric fault metrics diverged between kernels"
        );
    }
}

/// Retransmissions through the fabric: transient corruption NACKs
/// delivered packets (some after gateway relays) and site kills evict
/// queued legs. Every relay must still be accounted exactly once against
/// `routed_bytes`, so the `fabric.inter-chip-bytes` reconciliation stays
/// clean for every architecture.
#[test]
fn fabric_transient_fault_points_are_audit_clean() {
    for kind in NetworkKind::ALL {
        for plan in [
            "rand-links=4; transient=0.05; repair=300ns",
            "site:5@200ns; link:9->10@100ns; transient=0.05; repair=300ns",
        ] {
            let point = CampaignPoint::Fault {
                kind,
                pattern: Pattern::Uniform,
                load: 0.02,
                plan: FaultPlan::parse(plan).unwrap(),
                seed: 78,
                sim: SIM,
                drain: DRAIN,
                max_stalled: 5_000,
            };
            let run = audited(&point);
            assert_clean(&run, &format!("{kind} under {plan}"));
            if let PointResult::Fault(f) = &run.result {
                assert!(f.retries > 0, "{kind} under {plan}: nothing was retried");
            }
        }
    }
}

/// A mixed 2x2-board campaign (sweep grid + fault points on both
/// networks) must produce identical result vectors serially and at every
/// parallel job count — fabric points are as shard-order-independent as
/// single-chip ones.
#[test]
fn fabric_campaign_is_job_count_invariant() {
    let board = fabric();
    let mut points: Vec<CampaignPoint> = Vec::new();
    for kind in FABRIC_KINDS {
        for offered in [0.01, 0.03] {
            points.push(sweep_point(kind, offered));
        }
        points.push(fault_point(kind));
    }
    let serial = run_indexed(&points, 1, |_, p| {
        run_point_full(p, &board, PointExecOptions::default()).result
    });
    for jobs in [2, 4, 0] {
        let parallel = run_indexed(&points, jobs, |_, p| {
            run_point_full(p, &board, PointExecOptions::default()).result
        });
        assert_eq!(
            serial, parallel,
            "fabric campaign diverged between 1 job and {jobs} jobs"
        );
    }
}

/// The compatibility contract: a single-chip fabric IS the plain
/// single-chip path. Same results, same metrics bytes, same audit
/// verdict — so `--chips 1` (and every pre-fabric caller) is provably
/// unchanged.
#[test]
fn single_chip_fabric_points_match_plain_points() {
    let chip = MacrochipConfig::with_side(4);
    let single = FabricConfig::single(chip);
    let exec = || PointExecOptions {
        metrics: true,
        audit: true,
        ..PointExecOptions::default()
    };
    for kind in FABRIC_KINDS {
        for point in [sweep_point(kind, 0.03), fault_point(kind)] {
            let plain = run_point_full(&point, &single, exec());
            let via_fabric = run_point_full(&point, &single, exec());
            assert_eq!(
                plain.result, via_fabric.result,
                "{kind}: single-chip fabric result differs from the plain path"
            );
            assert_eq!(
                plain.metrics.as_ref().map(|m| m.to_json()),
                via_fabric.metrics.as_ref().map(|m| m.to_json()),
                "{kind}: single-chip fabric metrics differ from the plain path"
            );
            assert_eq!(
                plain.audit.as_ref().map(|a| a.is_clean()),
                via_fabric.audit.as_ref().map(|a| a.is_clean()),
                "{kind}: single-chip fabric audit verdict differs from the plain path"
            );
        }
    }
}

/// Forwards every [`Network`] method to the wrapped network but refuses
/// batched advance, so the runner drives it one instant per iteration.
struct PerEvent(Box<dyn Network>);

impl Network for PerEvent {
    fn kind(&self) -> NetworkKind {
        self.0.kind()
    }
    fn config(&self) -> &MacrochipConfig {
        self.0.config()
    }
    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        self.0.inject(packet, now)
    }
    fn next_event(&self) -> Option<Time> {
        self.0.next_event()
    }
    fn advance(&mut self, now: Time) {
        self.0.advance(now)
    }
    fn drain_delivered(&mut self) -> Vec<Packet> {
        self.0.drain_delivered()
    }
    fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        self.0.drain_delivered_into(out)
    }
    fn last_event_time(&self) -> Option<Time> {
        self.0.last_event_time()
    }
    fn supports_batched_advance(&self) -> bool {
        false
    }
    fn slab_stats(&self) -> Option<SlabStats> {
        self.0.slab_stats()
    }
    fn stats(&self) -> &NetStats {
        self.0.stats()
    }
    fn events_processed(&self) -> u64 {
        self.0.events_processed()
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer)
    }
    fn apply_fault(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        self.0.apply_fault(fault, now)
    }
}

/// Runs a board point as [`run_point_full`] does, with metrics and
/// audit on, building the fabric through `wrap`. Returns the result, the
/// metrics JSON (audit counters included, so a verdict that differs
/// between the two drives fails the comparison), and whether the runner
/// was allowed to batch.
fn drive_board(
    point: &CampaignPoint,
    board: &FabricConfig,
    wrap: fn(Box<dyn Network>) -> Box<dyn Network>,
) -> (PointResult, String, bool) {
    let global = board.global_config();
    let auditor = Rc::new(RefCell::new(Auditor::new_fabric(point.kind(), board)));
    let tracer = Tracer::shared(&auditor);
    let build = |kind| wrap(networks::build_fabric(kind, board));
    let mut reg = MetricsRegistry::new();
    let (result, batched) = match point {
        CampaignPoint::Sweep {
            kind,
            pattern,
            offered,
            options,
        } => {
            let net = build(*kind);
            let batched = net.supports_batched_advance();
            let (p, net) =
                run_load_point_traced(net, *pattern, *offered, &global, *options, tracer);
            let end = Time::ZERO + options.sim + options.drain;
            let report = auditor.borrow_mut().finalize(net.stats(), 0, end);
            reg.record_net_stats(net.stats());
            reg.set_gauge("run.offered_load", *offered);
            report.record_metrics(&mut reg);
            (PointResult::Sweep(p), batched)
        }
        CampaignPoint::Fault {
            kind,
            pattern,
            load,
            plan,
            seed,
            sim,
            drain,
            max_stalled,
        } => {
            let horizon = Time::ZERO + *sim;
            let mut net = ResilientNetwork::new(build(*kind), plan, *seed, horizon);
            let batched = net.supports_batched_advance();
            net.set_tracer(tracer.clone());
            let peak = global.site_bandwidth_bytes_per_ns();
            let mut traffic = OpenLoopTraffic::new(
                &global.grid,
                *pattern,
                *load,
                peak,
                global.data_bytes,
                *seed,
            );
            traffic.set_horizon(horizon);
            let limits = DriveLimits::for_window(*sim, *drain, *max_stalled);
            let outcome = drive_traced(&mut net, &mut traffic, limits, tracer);
            let s = net.fault_stats();
            let report = auditor
                .borrow_mut()
                .finalize(net.stats(), s.dropped, outcome.end);
            net.record_metrics(&mut reg, outcome.end);
            reg.set_gauge("run.offered_load", *load);
            report.record_metrics(&mut reg);
            let result = PointResult::Fault(FaultSummary {
                clean_delivered: s.clean_delivered,
                lost: net.lost_packets(),
                retries: s.retries,
                availability: net.availability(),
                clean_bytes: s.clean_bytes,
                degraded_ns: s.time_degraded(outcome.end).as_ns_f64(),
                end_ns: outcome.end.as_ns_f64(),
                saturated: outcome.saturated,
            });
            (result, batched)
        }
        _ => unreachable!("board points are sweeps or faults"),
    };
    (result, reg.snapshot().to_json(), batched)
}

/// Drives `point` batched and per-event and byte-compares the two, and
/// the batched run against the campaign engine. `expect_batched` states
/// which path the unwrapped stack should take. Returns the result.
fn assert_batched_matches_per_event(
    point: &CampaignPoint,
    board: &FabricConfig,
    expect_batched: bool,
) -> PointResult {
    let side = board.chips_per_side;
    let label = format!("{} {} on {side}x{side}", point.kind(), point.tag());
    let (result, metrics, batched) = drive_board(point, board, |net| net);
    let (per_result, per_metrics, per_batched) =
        drive_board(point, board, |net| Box::new(PerEvent(net)));
    assert_eq!(batched, expect_batched, "{label}: unexpected runner path");
    assert!(!per_batched, "{label}: the per-event wrapper was batched");
    assert_eq!(result, per_result, "{label}: PointResult differs per-event");
    assert_eq!(metrics, per_metrics, "{label}: metrics differ per-event");
    let engine = run_point_full(
        point,
        board,
        PointExecOptions {
            metrics: true,
            audit: true,
            ..PointExecOptions::default()
        },
    );
    assert_eq!(
        engine.result, result,
        "{label}: harness differs from the engine"
    );
    assert_clean(&engine, &label);
    assert_eq!(
        engine.metrics.map(|m| m.to_json()),
        Some(metrics),
        "{label}: harness metrics differ from the engine"
    );
    result
}

/// Open-loop sweeps of every architecture on the 2x2 board, below
/// saturation (a saturated run stalls packets, which forces the
/// per-event path on both sides), plus one 4x4 point.
#[test]
fn batched_board_sweeps_match_per_event() {
    let board = fabric();
    for kind in NetworkKind::ALL {
        let result = assert_batched_matches_per_event(&sweep_point(kind, 0.01), &board, true);
        if let PointResult::Sweep(p) = result {
            assert!(!p.saturated, "{kind}: the point must stay below saturation");
        }
    }
    let big = FabricConfig::grid(4, MacrochipConfig::with_side(4));
    let point = CampaignPoint::Sweep {
        kind: NetworkKind::PointToPoint,
        pattern: Pattern::Neighbor,
        offered: 0.02,
        options: options(0x4B4),
    };
    assert_batched_matches_per_event(&point, &big, true);
}

/// A board-link kill without transients batches through the resilience
/// wrapper; with transients the wrapper keeps the per-event path. Both
/// must match a per-event run byte for byte.
#[test]
fn batched_board_fault_points_match_per_event() {
    let board = fabric();
    for kind in FABRIC_KINDS {
        assert_batched_matches_per_event(&fault_point(kind), &board, true);
        let transient = CampaignPoint::Fault {
            kind,
            pattern: Pattern::Uniform,
            load: 0.02,
            plan: FaultPlan::parse("link:0->4@500ns; transient=0.01; repair=2us").unwrap(),
            seed: 78,
            sim: SIM,
            drain: DRAIN,
            max_stalled: 5_000,
        };
        assert_batched_matches_per_event(&transient, &board, false);
    }
}
