//! Admission epochs change how often the driver re-offers stalled
//! packets, never what happens to them.
//!
//! Every run here is driven twice: once on the network as built, which
//! reports admission epochs so the driver skips certain refusals, and
//! once through [`NoEpochs`], which forwards every `Network` method except
//! the admission hooks and so takes their defaults — the driver then
//! offers every stalled packet on every pass. Results, the metrics
//! snapshot (with `net.rejected`) and the flight-recorder stream must be
//! byte-identical.

use desim::prof::{self, Counter};
use desim::trace::RingSink;
use desim::{Span, Time, TraceEvent, Tracer};
use faults::{FaultPlan, ResilientNetwork};
use macrochip::runner::{drive_traced, DriveLimits};
use macrochip_tests::overload;
use netcore::{
    Admission, FabricConfig, FaultResponse, MacrochipConfig, MetricsRegistry, NetFault, NetStats,
    Network, NetworkKind, Packet, SlabStats,
};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{OpenLoopTraffic, Pattern};

const SIM: Span = Span::from_ns(300);
const DRAIN: Span = Span::from_us(2);

/// Forwards every [`Network`] method except the admission hooks.
struct NoEpochs(Box<dyn Network>);

impl Network for NoEpochs {
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
        self.0.supports_batched_advance()
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

fn no_epochs(net: Box<dyn Network>) -> Box<dyn Network> {
    Box::new(NoEpochs(net))
}

/// Forwards every [`Network`] method, admission hooks included, except
/// [`Network::apply_fault`]: faults reach no degradation policy, so the
/// inner network never bumps its epochs for them, and only the fault
/// wrapper's own fault count can wake packets a site kill now absorbs.
struct NoFaultPolicy(Box<dyn Network>);

impl Network for NoFaultPolicy {
    fn kind(&self) -> NetworkKind {
        self.0.kind()
    }
    fn config(&self) -> &MacrochipConfig {
        self.0.config()
    }
    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        self.0.inject(packet, now)
    }
    fn admission_epochs(&self) -> Option<Admission<'_>> {
        self.0.admission_epochs()
    }
    fn count_skipped_refusals(&mut self, n: u64) {
        self.0.count_skipped_refusals(n)
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
        self.0.supports_batched_advance()
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
}

fn no_fault_policy(net: Box<dyn Network>) -> Box<dyn Network> {
    Box::new(NoFaultPolicy(net))
}

fn no_fault_policy_no_epochs(net: Box<dyn Network>) -> Box<dyn Network> {
    no_epochs(no_fault_policy(net))
}

fn as_built(net: Box<dyn Network>) -> Box<dyn Network> {
    net
}

fn trace_text(trace: &[(Time, TraceEvent)]) -> String {
    trace.iter().map(|e| format!("{e:?}\n")).collect()
}

/// Drives `net` with open-loop `pattern` traffic at `load` over its grid
/// and returns everything observable: the outcome, the metrics JSON and
/// the event stream.
fn drive(net: &mut dyn Network, pattern: Pattern, load: f64, seed: u64) -> String {
    let config = *net.config();
    let sink = Rc::new(RefCell::new(RingSink::new(1 << 21)));
    let tracer = Tracer::shared(&sink);
    net.set_tracer(tracer.clone());
    let mut traffic = OpenLoopTraffic::new(
        &config.grid,
        pattern,
        load,
        config.site_bandwidth_bytes_per_ns(),
        config.data_bytes,
        seed,
    );
    let horizon = Time::ZERO + SIM;
    traffic.set_horizon(horizon);
    let outcome = drive_traced(
        net,
        &mut traffic,
        DriveLimits::for_window(SIM, DRAIN, 1_000_000),
        tracer,
    );
    let mut reg = MetricsRegistry::new();
    reg.record_net_stats(net.stats());
    let trace = trace_text(&sink.borrow().snapshot());
    format!(
        "{outcome:?} emitted {}\n{}\n{trace}",
        traffic.emitted(),
        reg.snapshot().to_json()
    )
}

/// [`drive`] through the fault wrapper, whose resilience counters are
/// appended; `wrap` decides whether the inner network reports epochs.
fn drive_faulted(
    kind: NetworkKind,
    plan: &str,
    wrap: fn(Box<dyn Network>) -> Box<dyn Network>,
) -> String {
    let config = MacrochipConfig::scaled();
    let (pattern, load) = overload(kind);
    let plan = FaultPlan::parse(plan).unwrap();
    let mut net = ResilientNetwork::new(
        wrap(networks::build(kind, config)),
        &plan,
        31,
        Time::ZERO + SIM,
    );
    let run = drive(&mut net, pattern, load, 31);
    format!(
        "{run}{:?} lost {} pending {}\n",
        net.fault_stats(),
        net.lost_packets(),
        net.pending_retries()
    )
}

#[test]
fn overloaded_runs_match_the_offer_every_packet_path() {
    let config = MacrochipConfig::scaled();
    let skipped_before = prof::counter(Counter::ReoffersSkipped);
    for kind in NetworkKind::ALL {
        let (pattern, load) = overload(kind);
        let fast = drive(networks::build(kind, config).as_mut(), pattern, load, 7);
        let fallback = drive(
            no_epochs(networks::build(kind, config)).as_mut(),
            pattern,
            load,
            7,
        );
        assert!(
            fast == fallback,
            "{kind}: skipping certain refusals changed the run"
        );
        assert!(
            !fast.contains("\"net.rejected\": 0"),
            "{kind}: the run never stalled"
        );
    }
    // Counters are process-wide and only grow, so concurrent tests can
    // only add to the delta.
    assert!(
        prof::counter(Counter::ReoffersSkipped) > skipped_before,
        "no re-offer was ever skipped"
    );
}

/// Dead-site absorption: after a site kill, packets to or from the dead
/// site that were refused must be woken and absorbed, and the inner
/// network's evictions and re-routing must wake the rest.
#[test]
fn site_kills_and_repairs_wake_stalled_packets() {
    const PLAN: &str = "site:9@60ns; site:20@150ns; laser:2@40ns; link:3->4@80ns; repair=100ns";
    for kind in NetworkKind::ALL {
        let fast = drive_faulted(kind, PLAN, as_built);
        let fallback = drive_faulted(kind, PLAN, no_epochs);
        assert!(
            fast == fallback,
            "{kind}: a site kill or repair changed the run with epochs on"
        );
        assert!(
            fast.contains("reason: \"dead-site\""),
            "{kind}: nothing was absorbed at a dead site"
        );
        let fast = drive_faulted(kind, PLAN, no_fault_policy);
        let fallback = drive_faulted(kind, PLAN, no_fault_policy_no_epochs);
        assert!(
            fast == fallback,
            "{kind}: without a degradation policy, a site kill changed the run with epochs on"
        );
    }
}

#[test]
fn transient_corruption_matches_the_offer_every_packet_path() {
    const PLAN: &str = "rand-links=4; transient=0.02; repair=150ns; backoff=20ns";
    for kind in NetworkKind::ALL {
        let fast = drive_faulted(kind, PLAN, as_built);
        let fallback = drive_faulted(kind, PLAN, no_epochs);
        assert!(
            fast == fallback,
            "{kind}: transient retries changed the run with epochs on"
        );
    }
}

/// The multi-chip fabric keeps the default hooks; a board point must be
/// unchanged whichever way it is wrapped.
#[test]
fn board_points_match_the_offer_every_packet_path() {
    let board = FabricConfig::grid(2, MacrochipConfig::with_side(4));
    for kind in [
        NetworkKind::CircuitSwitched,
        NetworkKind::LimitedPointToPoint,
    ] {
        let (pattern, load) = overload(kind);
        let fast = drive(
            networks::build_fabric(kind, &board).as_mut(),
            pattern,
            load,
            5,
        );
        let fallback = drive(
            no_epochs(networks::build_fabric(kind, &board)).as_mut(),
            pattern,
            load,
            5,
        );
        assert!(fast == fallback, "{kind}: 2x2 board run differs");
        assert!(
            !fast.contains("\"net.rejected\": 0"),
            "{kind}: the board run never stalled"
        );
    }
}
