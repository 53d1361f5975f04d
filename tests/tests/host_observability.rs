//! Host observability contract tests: the span profiler and the host.*
//! counters must never change simulation results, spans must nest and
//! close correctly, counters must be monotone, and a profiler-enabled
//! run must produce **byte-identical** `net.*` metrics to a
//! profiler-off run.

use desim::prof::{self, Counter, Site};
use desim::{Span, Tracer};
use macrochip::bench::{run_bench, BenchOptions};
use macrochip::campaign::{run_point_full, CampaignPoint, PointExecOptions};
use macrochip::prelude::*;
use macrochip::sweep::run_load_point_traced;
use netcore::{FabricConfig, MacrochipConfig, MetricsRegistry};
use proptest::prelude::*;
use std::sync::Mutex;
use workloads::Pattern;

/// Serializes tests that flip the process-wide profiler enable flag;
/// everything else in this binary runs with whatever state it finds and
/// must be correct either way (that's the whole point of the contract).
static PROFILER: Mutex<()> = Mutex::new(());

fn with_profiler<R>(f: impl FnOnce() -> R) -> R {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let was = prof::enabled();
    prof::set_enabled(true);
    prof::reset_local();
    let out = f();
    prof::set_enabled(was);
    out
}

fn short_options() -> SweepOptions {
    SweepOptions {
        sim: Span::from_ns(500),
        drain: Span::from_us(2),
        max_stalled: 5_000,
        seed: 23,
    }
}

/// The tentpole determinism guarantee: enabling the profiler changes
/// nothing about simulation results — the exported `net.*` snapshot is
/// byte-identical with profiling on and off, for every network.
#[test]
fn profiler_on_and_off_produce_byte_identical_metrics() {
    let config = MacrochipConfig::scaled();
    for kind in NetworkKind::FIGURE6 {
        let snapshot = |enabled: bool| -> String {
            let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
            let was = prof::enabled();
            prof::set_enabled(enabled);
            let (point, net) = run_load_point_traced(
                networks::build(kind, config),
                Pattern::Uniform,
                0.05,
                &config,
                short_options(),
                Tracer::disabled(),
            );
            prof::set_enabled(was);
            let mut reg = MetricsRegistry::new();
            reg.record_net_stats(net.stats());
            format!(
                "{}|{}|{}",
                point.mean_latency_ns,
                point.p99_latency_ns,
                reg.snapshot().to_json()
            )
        };
        let off = snapshot(false);
        let on = snapshot(true);
        assert_eq!(off, on, "{} results differ with profiling on", kind.name());
    }
}

/// Same guarantee one layer up: a full campaign point (which also runs
/// the metrics and audit plumbing) is unchanged by profiling.
#[test]
fn profiled_campaign_point_matches_unprofiled() {
    let config = MacrochipConfig::scaled();
    let point = CampaignPoint::Sweep {
        kind: NetworkKind::TokenRing,
        pattern: Pattern::Uniform,
        offered: 0.05,
        options: short_options(),
    };
    let exec = PointExecOptions {
        trace: false,
        metrics: true,
        audit: true,
        trace_capacity: 1 << 12,
    };
    let run_json = |enabled: bool| -> String {
        let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
        let was = prof::enabled();
        prof::set_enabled(enabled);
        let run = run_point_full(&point, &FabricConfig::single(config), exec);
        prof::set_enabled(was);
        run.metrics.expect("metrics requested").to_json()
    };
    assert_eq!(run_json(false), run_json(true));
}

/// Driving a network reports its event count through the trait, and the
/// host SimEvents counter absorbs it.
#[test]
fn events_processed_flows_into_host_counter() {
    let config = MacrochipConfig::scaled();
    let before = prof::counter(Counter::SimEvents);
    let packets_before = prof::counter(Counter::Packets);
    let (point, net) = run_load_point_traced(
        networks::build(NetworkKind::PointToPoint, config),
        Pattern::Uniform,
        0.05,
        &config,
        short_options(),
        Tracer::disabled(),
    );
    assert!(!point.saturated);
    let events = net.events_processed();
    assert!(events > 0, "a driven network must process events");
    assert!(
        prof::counter(Counter::SimEvents) >= before + events,
        "host counter must absorb the run's events"
    );
    assert!(
        prof::counter(Counter::Packets) >= packets_before + net.stats().delivered_packets(),
        "host counter must absorb the run's deliveries"
    );
    // Furthest sim time advanced at least to this run's end.
    assert!(prof::sim_time_ps() > 0);
}

/// Stall churn is observable host-side: an overloaded run's re-offers
/// land in the `reoffers_made`/`reoffers_skipped` counters and the
/// profile table, while its metrics snapshot carries nothing new.
#[test]
fn reoffer_counters_absorb_a_stalled_run() {
    let config = MacrochipConfig::scaled();
    let made_before = prof::counter(Counter::ReoffersMade);
    let skipped_before = prof::counter(Counter::ReoffersSkipped);
    let sink = std::rc::Rc::new(std::cell::RefCell::new(desim::trace::RingSink::new(
        1 << 20,
    )));
    let (_, net) = run_load_point_traced(
        networks::build(NetworkKind::CircuitSwitched, config),
        Pattern::Uniform,
        0.3,
        &config,
        SweepOptions {
            max_stalled: 1_000_000,
            ..short_options()
        },
        Tracer::shared(&sink),
    );
    let (mut stalls, mut retries) = (0, 0);
    for (_, e) in sink.borrow().snapshot() {
        match e {
            desim::TraceEvent::Stall { .. } => stalls += 1,
            desim::TraceEvent::Retry { .. } => retries += 1,
            _ => {}
        }
    }
    let rejected = net.stats().rejected_packets();
    assert!(stalls > 0 && retries > 0, "the run must stall and recover");
    // Every re-offer slot is either made (accepted: a Retry event;
    // refused: a rejection) or skipped (also counted as a rejection), so
    // this run alone accounts for retries + rejections beyond the first
    // refusal of each packet. Other tests can only add to the deltas.
    let made = prof::counter(Counter::ReoffersMade) - made_before;
    let skipped = prof::counter(Counter::ReoffersSkipped) - skipped_before;
    assert!(made + skipped >= retries + rejected - stalls);
    assert!(skipped > 0, "an overloaded circuit run must skip re-offers");
    let table = prof::report().table();
    assert!(table.contains("re-offers:"), "profile table: {table}");
    let mut reg = MetricsRegistry::new();
    reg.record_net_stats(net.stats());
    assert!(!reg.snapshot().to_json().contains("offer"));
}

/// The bench harness is itself deterministic: consecutive runs agree on
/// every non-timing field, across all six benched networks.
#[test]
fn bench_runs_are_deterministic_modulo_timing() {
    let config = MacrochipConfig::scaled();
    let options = BenchOptions {
        trials: 2,
        sim: Span::from_ns(100),
        drain: Span::from_us(2),
        trace: false,
        progress: false,
        max_regression: macrochip::bench::DEFAULT_MAX_REGRESSION,
    };
    let a = run_bench(&FabricConfig::single(config), &options);
    let b = run_bench(&FabricConfig::single(config), &options);
    assert_eq!(a.networks.len(), 6);
    for (x, y) in a.networks.iter().zip(&b.networks) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.events, y.events, "{}", x.kind.name());
        assert_eq!(x.injected, y.injected);
        assert_eq!(x.delivered, y.delivered);
        assert_eq!(x.saturated, y.saturated);
    }
    desim::trace::validate_json(&a.to_json()).expect("bench JSON well-formed");
}

/// Benching with the flight recorder attached changes wall-clock only,
/// never the simulated work (the tracer-overhead measurement relies on
/// comparing like-for-like work).
#[test]
fn traced_bench_does_identical_work() {
    let config = MacrochipConfig::scaled();
    let mut options = BenchOptions {
        trials: 1,
        sim: Span::from_ns(100),
        drain: Span::from_us(2),
        trace: false,
        progress: false,
        max_regression: macrochip::bench::DEFAULT_MAX_REGRESSION,
    };
    let plain = run_bench(&FabricConfig::single(config), &options);
    options.trace = true;
    let traced = run_bench(&FabricConfig::single(config), &options);
    for (p, t) in plain.networks.iter().zip(&traced.networks) {
        assert_eq!(p.events, t.events, "{}", p.kind.name());
        assert_eq!(p.delivered, t.delivered);
    }
}

proptest! {
    /// Arbitrary well-bracketed open/close sequences: every span closes,
    /// depth returns to where it started, per-site counts grow by
    /// exactly the number of spans opened there, and self time never
    /// exceeds total time.
    #[test]
    fn spans_nest_and_close_correctly(script in proptest::collection::vec(0usize..Site::COUNT, 1..40)) {
        with_profiler(|| {
            let base_depth = prof::open_depth();
            let before = prof::local_report();
            // Nest the whole script: span[0] contains span[1] contains...
            fn nest(script: &[usize], base_depth: usize) {
                let Some((&first, rest)) = script.split_first() else { return };
                let _span = prof::span(Site::ALL[first]);
                assert_eq!(prof::open_depth(), base_depth + 1);
                nest(rest, base_depth + 1);
                assert_eq!(prof::open_depth(), base_depth + 1);
            }
            nest(&script, base_depth);
            prop_assert_eq!(prof::open_depth(), base_depth);
            let after = prof::local_report();
            for site in Site::ALL {
                let opened = script.iter().filter(|&&s| Site::ALL[s] == site).count() as u64;
                let count_before = after_count(&before, site);
                let count_after = after_count(&after, site);
                prop_assert_eq!(count_after - count_before, opened, "site {}", site.name());
            }
            for s in &after.spans {
                prop_assert!(s.self_ns <= s.total_ns, "self exceeds total at {}", s.site.name());
            }
            Ok(())
        })?;
    }

    /// Host counters are monotone under arbitrary increments: reading
    /// after an add never shows less than the floor the add guarantees.
    #[test]
    fn host_counters_are_monotone(increments in proptest::collection::vec((0usize..Counter::COUNT, 0u64..1_000), 1..50)) {
        for (idx, n) in increments {
            let c = Counter::ALL[idx];
            let before = prof::counter(c);
            prof::add(c, n);
            // Other test threads only ever add, so the floor holds even
            // under concurrency.
            prop_assert!(prof::counter(c) >= before + n, "{} went backwards", c.name());
        }
    }
}

fn after_count(report: &prof::ProfReport, site: Site) -> u64 {
    report
        .spans
        .iter()
        .find(|s| s.site == site)
        .map_or(0, |s| s.count)
}
