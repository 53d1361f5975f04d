//! `perfbench`: the macrochip simulator's end-to-end and per-layer host
//! benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench calibrate [--out <file>]
//! ```
//!
//! A run repeats its workload's fixed operation list (a *pass*) for
//! `--seconds`, checks every operation's outputs, prints a report, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` an untraced pass is followed by one pass with the
//! benchmark's decorators and the `desim::prof` span profiler attached,
//! and the metrics are the per-layer ones. See `README.md`.

mod calibrate;
mod hostspeed;
mod serving;
mod sim;
mod span;
mod stats;
mod suite;

use desim::prof::{self, Counter, Site};
use serving::ServeStats;
use span::{Count, Recorder};
use stats::{median, metric, quantile, ratio, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use suite::{Pass, Workload};

/// Seed used when `--seed` is absent, and for the recorded work counts.
const DEFAULT_SEED: u64 = 1;

/// Fewest untraced passes of a `--trace 0` run.
const MIN_PASSES: usize = 3;

/// A run stops starting passes after this long, whatever `--seconds` says.
const HARD_LIMIT: Duration = Duration::from_secs(120);

/// Span records kept in memory for the written trace (every span is
/// aggregated regardless).
const SPAN_CAP: usize = 50_000;

/// Scratch and output directory, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload <chip-sweep|board-neighbor|coherent-replay|\
campaign-serve> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench calibrate [--out FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => a.workload.clone_from(value),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !suite::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("bad --seconds".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("calibrate") {
        return calibrate_main(&args[1..]);
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let correct = bench(&a, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Passes of one run: untraced ones, then (with tracing) one traced pass
/// and what the recorder and profiler saw during it.
struct Run {
    passes: Vec<Pass>,
    traced: Option<(Pass, Recorder, prof::ProfReport)>,
}

fn measure(wl: &Workload, seconds: f64, trace: bool) -> Run {
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let min_passes = if trace { 1 } else { MIN_PASSES };
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(wl.pass(passes.len(), false));
        let elapsed = t0.elapsed();
        if (passes.len() >= min_passes && elapsed >= budget) || elapsed >= HARD_LIMIT {
            break;
        }
    }
    let traced = trace.then(|| {
        prof::reset();
        prof::set_enabled(true);
        span::start(SPAN_CAP);
        let pass = wl.pass(passes.len(), true);
        let rec = span::finish().expect("recorder installed");
        prof::set_enabled(false);
        (pass, rec, prof::report())
    });
    Run { passes, traced }
}

/// Runs the benchmark; returns whether every check passed.
fn bench(a: &Args, tmp: &Path) -> bool {
    let wl = Workload::new(&a.workload, a.seed, tmp).expect("workload name was checked");
    let run = measure(&wl, a.seconds, a.trace);
    let passes = &run.passes;
    let first = &passes[0];

    let mut failures: Vec<&String> = passes.iter().flat_map(|p| &p.failures).collect();
    let mut attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let mut failed: usize = passes.iter().map(|p| p.failed).sum();
    let mut consistent = passes
        .iter()
        .all(|p| p.digest == first.digest && p.events == first.events);
    if let Some((t, _, _)) = &run.traced {
        failures.extend(&t.failures);
        attempted += t.attempted;
        failed += t.failed;
        consistent &= t.digest == first.digest && t.events == first.events;
    }

    println!(
        "perfbench {} seed {} trace {}: {} untraced pass(es) of {} ops",
        a.workload,
        a.seed,
        u8::from(a.trace),
        passes.len(),
        first.attempted
    );
    println!(
        "sim_digest {:016x} ({})",
        first.digest,
        if consistent {
            "identical in every pass, traced and untraced"
        } else {
            "MISMATCH between passes: simulated output changed"
        }
    );
    println!(
        "work per pass: ops {} events {} packets {} events_per_packet {:.4}",
        first.attempted,
        first.events,
        first.packets,
        ratio(first.events as f64, first.packets as f64)
    );
    if a.seed == DEFAULT_SEED {
        let counts = (
            first.attempted as u64,
            first.events,
            first.packets,
            format!("{:016x}", first.digest),
        );
        println!(
            "work counts and sim_digest {} the ones recorded in calibration.json",
            if recorded_counts(&a.workload) == Some(counts) {
                "match"
            } else {
                "DIFFER from"
            }
        );
    }
    let walls = |wall: fn(&Pass) -> f64| {
        let w: Vec<String> = passes.iter().map(|p| format!("{:.4}", wall(p))).collect();
        w.join(" ")
    };
    println!(
        "untraced pass wall_s, as measured: {}",
        walls(Pass::raw_wall_s)
    );
    println!(
        "untraced pass wall_s, reference host speed: {}",
        walls(Pass::wall_s)
    );
    for f in failures.iter().take(20) {
        println!("FAILED {f}");
    }

    let (metrics, report) = match &run.traced {
        None => end_to_end(passes),
        Some((t, rec, prof)) => {
            let ops = first.results.iter().zip(&first.op_ms).zip(&first.setup_ms);
            for (i, (((op, r), ms), setup)) in ops.enumerate() {
                println!(
                    "op {i:>3} {:<58} {ms:>9.3} ms {:>9} events  setup {setup:.3} ms",
                    suite::describe(op),
                    r.events
                );
            }
            write_spans(&a.workload, rec);
            per_layer(passes, t, rec, prof)
        }
    };
    println!(
        "op_fail_ratio {:?} ratio ({failed} of {attempted} ops failed)",
        ratio(failed as f64, attempted as f64)
    );
    for m in report.iter().chain(&metrics) {
        println!("{} {:?} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && consistent;
    println!(
        "{}",
        stats::result_line(correct, attempted.max(1), failed, &metrics)
    );
    correct
}

/// The `wall_s` of a run: each operation's median scaled latency over the
/// passes, summed over the operation list.
fn run_wall_s(passes: &[Pass]) -> f64 {
    let scaled: Vec<Vec<f64>> = passes.iter().map(Pass::scaled_op_ms).collect();
    let ops = scaled.iter().map(Vec::len).min().unwrap_or(0);
    let per_op = (0..ops).map(|i| median(&scaled.iter().map(|s| s[i]).collect::<Vec<_>>()));
    per_op.sum::<f64>() / 1e3
}

/// The end-to-end metrics of untraced passes, and report-only lines. Times
/// are referred to the reference host speed (see `hostspeed`).
fn end_to_end(passes: &[Pass]) -> (Vec<Metric>, Vec<Metric>) {
    let setups: Vec<f64> = passes.iter().map(Pass::scaled_setup_s).collect();
    let scaled: Vec<Vec<f64>> = passes.iter().map(Pass::scaled_op_ms).collect();
    let ops: Vec<f64> = scaled.iter().flatten().copied().collect();
    let wall = run_wall_s(passes);
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("wall_s", wall, "s"),
        metric("events_per_s", ratio(passes[0].events as f64, wall), "1/s"),
        metric("op_p50_ms", quantile(&ops, 0.5), "ms"),
        metric("op_p90_ms", quantile(&ops, 0.9), "ms"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    let probes: Vec<f64> = passes.iter().flat_map(|p| p.probe_ms.clone()).collect();
    let raw_walls: Vec<f64> = passes.iter().map(Pass::raw_wall_s).collect();
    let raw_setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let mut report = vec![
        metric("op_samples", ops.len() as f64, "count"),
        metric("op_samples_beyond_p90", (ops.len() / 10) as f64, "count"),
        metric("host_probe_ms", median(&probes), "ms"),
        metric("raw_wall_s", median(&raw_walls), "s"),
        metric("raw_setup_s", median(&raw_setups), "s"),
    ];
    let samples = |pick: fn(&ServeStats) -> &Vec<usize>| -> Vec<f64> {
        passes
            .iter()
            .zip(&scaled)
            .filter_map(|(p, ms)| p.serve.as_ref().map(|s| (pick(s), ms)))
            .flat_map(|(ops, ms)| ops.iter().map(|&i| ms[i]))
            .collect()
    };
    if passes.iter().any(|p| p.serve.is_some()) {
        let warm = samples(|s| &s.warm_ops);
        let cold = samples(|s| &s.cold_ops);
        report.extend([
            metric("warm_rtt_p50_ms", quantile(&warm, 0.5), "ms"),
            metric("warm_rtt_p90_ms", quantile(&warm, 0.9), "ms"),
            metric("cold_rtt_p50_ms", quantile(&cold, 0.5), "ms"),
            metric("warm_rtt_samples", warm.len() as f64, "count"),
            metric("cold_rtt_samples", cold.len() as f64, "count"),
        ]);
    }
    (metrics, report)
}

/// Host nanoseconds per simulated event of the open-loop points on
/// `chips`×`chips` boards in `pass`.
fn ns_per_event(pass: &Pass, chips: usize) -> f64 {
    let (ns, events) = pass
        .results
        .iter()
        .zip(pass.scaled_op_ms())
        .filter(|((_, r), _)| r.chips == chips)
        .fold((0.0, 0u64), |(ns, ev), ((_, r), ms)| {
            (ns + ms * 1e6, ev + r.events)
        });
    ratio(ns, events as f64)
}

/// The per-layer metrics of a traced pass, and report-only lines (layer
/// times, which read 0 on workloads that never call the layer).
fn per_layer(
    passes: &[Pass],
    traced: &Pass,
    rec: &Recorder,
    prof: &prof::ProfReport,
) -> (Vec<Metric>, Vec<Metric>) {
    let untraced_wall = run_wall_s(passes);
    let wall = traced.wall_s();
    let raw_wall = traced.raw_wall_s();
    let events = traced.events as f64;
    let s = |name: &str| rec.get(span::id(name)).self_ns as f64 / 1e9;
    let layer_s = |layer: &str| rec.layer_self_ns(layer) as f64 / 1e9;
    let site = |site: Site| prof.site(site).map_or((0, 0), |x| (x.count, x.self_ns));

    let mut m = Vec::new();
    let (pop_calls, pop_ns) = site(Site::QueuePop);
    m.push(metric(
        "desim.queue_pop.self_ns_per_call",
        ratio(pop_ns as f64, pop_calls as f64),
        "ns",
    ));
    m.push(metric("desim.queue_pop.calls", pop_calls as f64, "count"));
    for (name, st) in [
        ("desim.dispatch.self_s", Site::Dispatch),
        ("desim.network_step.self_s", Site::NetworkStep),
        ("desim.source_emit.self_s", Site::SourceEmit),
        ("desim.inject.self_s", Site::Inject),
        ("desim.drain.self_s", Site::Drain),
    ] {
        m.push(metric(name, site(st).1 as f64 / 1e9, "s"));
    }
    let net_calls: u64 = span::NAMES
        .iter()
        .zip(&rec.agg)
        .filter(|(n, _)| n.starts_with("networks.") || n.starts_with("faults."))
        .map(|(_, a)| a.under_runner)
        .sum();
    m.push(metric(
        "runner.net_calls_per_event",
        ratio(net_calls as f64, events),
        "ratio",
    ));
    for layer in [
        "runner",
        "workloads",
        "coherence",
        "networks",
        "faults",
        "replay",
        "serve",
    ] {
        m.push(metric(
            &format!("{layer}.self_share"),
            ratio(layer_s(layer), raw_wall),
            "ratio",
        ));
    }
    let results = || traced.results.iter().map(|(_, r)| r);
    let (issued, merged, completed) = results()
        .filter_map(|r| r.coherence)
        .fold((0, 0, 0), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2));
    m.push(metric("coherence.ops", completed as f64, "count"));
    m.push(metric(
        "coherence.mshr_merge_ratio",
        ratio(merged as f64, issued as f64),
        "ratio",
    ));
    m.push(metric(
        "networks.events_per_packet",
        ratio(events, traced.packets as f64),
        "ratio",
    ));
    m.push(metric(
        "networks.inject_accept_ratio",
        ratio(
            rec.count(Count::InjectAccepted) as f64,
            rec.count(Count::InjectOffered) as f64,
        ),
        "ratio",
    ));
    for (name, chips) in [("fabric.scale_2x2", 2), ("fabric.scale_4x4", 4)] {
        let scales: Vec<f64> = passes
            .iter()
            .map(|p| ratio(ns_per_event(p, chips), ns_per_event(p, 1)))
            .collect();
        m.push(metric(name, median(&scales), "ratio"));
    }
    m.push(metric(
        "fabric.cross_chip_share",
        ratio(
            rec.count(Count::CrossChip) as f64,
            rec.count(Count::Emitted) as f64,
        ),
        "ratio",
    ));
    let (reused, allocated, high_water) =
        results()
            .filter_map(|r| r.slab)
            .fold((0u64, 0u64, 0u64), |a, s| {
                (
                    a.0 + s.allocated.saturating_sub(s.slots as u64),
                    a.1 + s.allocated,
                    a.2.max(s.high_water),
                )
            });
    m.push(metric(
        "netcore.slab_reuse_ratio",
        ratio(reused as f64, allocated as f64),
        "ratio",
    ));
    m.push(metric(
        "netcore.slab_high_water",
        high_water as f64,
        "count",
    ));
    let (bytes, captured) = results()
        .filter_map(|r| r.captured)
        .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    m.push(metric(
        "replay.bytes_per_packet",
        ratio(bytes as f64, captured as f64),
        "B/packet",
    ));
    let (retries, nacks) = results()
        .filter_map(|r| r.faults)
        .fold((0, 0), |a, f| (a.0 + f.0, a.1 + f.1));
    m.push(metric("faults.retries", retries as f64, "count"));
    m.push(metric("faults.nacks", nacks as f64, "count"));
    let hits = prof.counter(Counter::CacheHits) as f64;
    let misses = prof.counter(Counter::CacheMisses) as f64;
    m.push(metric(
        "campaign.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    let serve = traced.serve.clone().unwrap_or_default();
    m.push(metric(
        "serve.queue_full_retries",
        serve.queue_full_retries as f64,
        "count",
    ));
    m.push(metric(
        "tracing.overhead_ratio",
        ratio(wall, untraced_wall),
        "ratio",
    ));

    let report = vec![
        metric("traced_wall_s", wall, "s"),
        metric("untraced_wall_s", untraced_wall, "s"),
        metric("tracing.overhead_s", wall - untraced_wall, "s"),
        metric("runner.self_s", layer_s("runner"), "s"),
        metric(
            "workloads.emit_s",
            s("workloads.emit") + s("workloads.next_miss"),
            "s",
        ),
        metric(
            "workloads.ns_per_packet",
            ratio(layer_s("workloads") * 1e9, traced.packets as f64),
            "ns",
        ),
        metric("coherence.emit_s", s("coherence.emit"), "s"),
        metric("coherence.deliver_s", s("coherence.deliver"), "s"),
        metric("networks.advance_s", s("networks.advance"), "s"),
        metric("networks.inject_s", s("networks.inject"), "s"),
        metric("networks.next_event_s", s("networks.next_event"), "s"),
        metric("networks.drain_s", s("networks.drain"), "s"),
        metric(
            "networks.ns_per_event",
            ratio(layer_s("networks") * 1e9, events),
            "ns",
        ),
        metric("replay.capture_s", s("replay.capture"), "s"),
        metric(
            "replay.decode_s",
            s("replay.decode") + s("replay.next_emission"),
            "s",
        ),
        metric("faults.self_s", layer_s("faults"), "s"),
        metric(
            "campaign.cache_hit_ms",
            ratio(prof.counter(Counter::CacheHitNs) as f64 / 1e6, hits),
            "ms",
        ),
        metric(
            "campaign.cache_miss_ms",
            ratio(prof.counter(Counter::CacheMissNs) as f64 / 1e6, misses),
            "ms",
        ),
        metric("serve.submit_ms", median(&serve.submit_ms), "ms"),
        metric("serve.result_ms", median(&serve.result_ms), "ms"),
        metric(
            "serve.verified_points",
            serve.verified_points as f64,
            "count",
        ),
        metric(
            "fabric.cross_chip_packets",
            rec.count(Count::CrossChip) as f64,
            "count",
        ),
        metric("spans.unrecorded", rec.unrecorded as f64, "count"),
    ];
    (m, report)
}

/// Writes the traced pass's spans (Chrome-trace JSON) and prints the
/// per-span self-time table.
fn write_spans(workload: &str, rec: &Recorder) {
    let path = Path::new(OUT_DIR).join(format!("spans-{workload}.json"));
    match std::fs::write(&path, rec.chrome_trace_json()) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, a) in span::NAMES.iter().zip(&rec.agg) {
        if a.count > 0 {
            println!(
                "{name:<26} {:>12} {:>12.3} {:>12.3}",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
    }
}

/// `perfbench calibrate`: saturation ceilings of every benchmarked
/// configuration plus each workload's work counts at the default seed.
fn calibrate_main(args: &[String]) -> ExitCode {
    let out = match args {
        [] => None,
        [flag, path] if flag == "--out" => Some(PathBuf::from(path)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(OUT_DIR).join(format!("calibrate-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&tmp);
    let mut ok = true;
    let mut counts = Vec::new();
    for name in suite::NAMES {
        let wl = Workload::new(name, DEFAULT_SEED, &tmp).expect("known workload");
        let run = measure(&wl, 0.0, true);
        let (p, (t, rec, _)) = (&run.passes[0], run.traced.as_ref().expect("traced"));
        let agree = p.digest == t.digest && p.events == t.events;
        ok &= agree && p.failed == 0 && t.failed == 0;
        eprintln!(
            "counts {name}: {} ops, {} events, {} failed, digests {}",
            p.attempted,
            p.events,
            p.failed + t.failed,
            if agree { "agree" } else { "DIFFER" }
        );
        counts.push(format!(
            "    \"{name}\": {{\"ops\": {}, \"events\": {}, \"packets\": {}, \
             \"events_per_packet\": {:.4}, \"cross_chip_packets\": {}, \
             \"sim_digest\": \"{:016x}\"}}",
            p.attempted,
            p.events,
            p.packets,
            ratio(p.events as f64, p.packets as f64),
            rec.count(Count::CrossChip),
            p.digest,
        ));
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let counts = format!(
        "{{\n    \"seed\": {DEFAULT_SEED},\n{}\n  }}",
        counts.join(",\n")
    );
    let (json, loads_ok) = calibrate::run(&counts);
    ok &= loads_ok;
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("perfbench: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => print!("{json}"),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: calibration found a failing check");
        ExitCode::FAILURE
    }
}

/// The work counts recorded for `workload` at the default seed in
/// `calibration.json`: `(ops, events, packets, sim_digest)`.
fn recorded_counts(workload: &str) -> Option<(u64, u64, u64, String)> {
    let cal = macrochip::json::parse(include_str!("../calibration.json")).ok()?;
    let c = cal.get("work_counts")?.get(workload)?;
    Some((
        c.get("ops")?.as_u64()?,
        c.get("events")?.as_u64()?,
        c.get("packets")?.as_u64()?,
        c.get("sim_digest")?.as_str()?.to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use macrochip::json::Value;
    use netcore::NetworkKind;

    /// A seed the benchmark was not tuned on.
    const HELD_OUT_SEED: u64 = 7;

    #[test]
    fn every_workload_passes_its_checks_at_the_default_and_a_held_out_seed() {
        let dir = PathBuf::from(OUT_DIR).join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for name in suite::NAMES {
                let wl = Workload::new(name, seed, &dir).expect("known workload");
                let run = measure(&wl, 0.0, true);
                let (p, (t, _, _)) = (&run.passes[0], run.traced.as_ref().expect("traced"));
                assert_eq!(
                    p.failed + t.failed,
                    0,
                    "{name} seed {seed}: {:?} {:?}",
                    p.failures,
                    t.failures
                );
                assert_eq!(
                    (p.digest, p.events),
                    (t.digest, t.events),
                    "{name} seed {seed}: the traced pass changed the simulation"
                );
                if seed == DEFAULT_SEED {
                    let counts = (
                        p.attempted as u64,
                        p.events,
                        p.packets,
                        format!("{:016x}", p.digest),
                    );
                    assert_eq!(Some(counts), recorded_counts(name), "{name}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_benchmarked_load_is_calibrated_and_below_its_ceiling() {
        let cal = macrochip::json::parse(include_str!("../calibration.json")).expect("parses");
        let rows = cal.get("loads").and_then(Value::as_array).expect("loads");
        let mut benchmarked = 0;
        for row in rows {
            let name = row.get("network").and_then(Value::as_str).expect("network");
            let kind = *NetworkKind::ALL
                .iter()
                .find(|k| k.name() == name)
                .expect("known network");
            let pattern = row.get("pattern").and_then(Value::as_str).expect("pattern");
            let chips = row.get("chips").and_then(Value::as_u64).expect("chips");
            let ceiling = row.get("ceiling").and_then(Value::as_f64).expect("ceiling");
            let Some(load) = row.get("load").and_then(Value::as_f64) else {
                continue;
            };
            benchmarked += 1;
            assert!(
                load <= calibrate::MAX_LOAD_SHARE * ceiling,
                "{name} {pattern} {chips}x{chips}: load {load} vs ceiling {ceiling}"
            );
            let expected = if chips == 1 {
                let pattern = *suite::CHIP_PATTERNS
                    .iter()
                    .find(|p| p.name() == pattern)
                    .expect("benchmarked pattern");
                suite::chip_load(kind, pattern)
            } else {
                suite::board_load(kind)
            };
            assert_eq!(load, expected, "{name} {pattern} {chips}x{chips}");
        }
        let boards = suite::BOARD_CHIPS.iter().filter(|&&c| c > 1).count();
        assert_eq!(
            benchmarked,
            NetworkKind::ALL.len() * suite::CHIP_PATTERNS.len() + boards * suite::BOARD_KINDS.len()
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let a = parse(&args(
            "--workload board-neighbor --seed 9 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload chip-sweep --trace 2")).is_err());
        assert!(parse(&args("--workload chip-sweep --seed")).is_err());
    }
}
