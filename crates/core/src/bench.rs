//! The standing host-performance baseline: `macrochip bench`.
//!
//! Runs a fixed-seed open-loop workload on each of the five Figure 6
//! networks plus the hierarchical network ([`BENCH_NETWORKS`]), repeats
//! it for several trials, and reports the **median**
//! wall-clock plus derived events/sec — the simulator's host throughput.
//! Results serialize as a schema-versioned `BENCH_<n>.json` that later
//! performance PRs diff against ([`compare`]): the workload, seed and
//! simulated window are pinned, so two checkouts measuring the same
//! `BENCH` file contents (minus the timing fields) are running the same
//! experiment.
//!
//! Simulation outputs are deterministic, so every trial must agree on
//! events, injections and deliveries — [`run_bench`] asserts this, which
//! doubles as a cheap determinism check on every bench run. Wall-clock
//! and anything derived from it (`wall_ms_*`, `events_per_sec`,
//! `packets_per_sec`, `peak_rss_bytes`) are the only fields allowed to
//! differ between runs.

use crate::json;
use crate::sweep::{run_load_point_observed, SweepOptions};
use desim::prof;
use desim::trace::RingSink;
use desim::{Span, Tracer};
use netcore::metrics::{json_escape, json_f64};
use netcore::{FabricConfig, NetworkKind};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::Pattern;

/// Schema version of the emitted `BENCH_*.json`. Bump when fields change
/// incompatibly; [`compare`] warns across versions.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Identifies the document as a macrochip bench baseline.
pub const BENCH_SCHEMA: &str = "macrochip-bench";

/// Fixed RNG seed for every bench workload.
pub const BENCH_SEED: u64 = 0xC0FFEE;

/// Default regression threshold for [`compare`]: a network fails when its
/// events/sec falls more than this factor below the baseline.
pub const DEFAULT_MAX_REGRESSION: f64 = 2.0;

/// Ring capacity when benching with the flight recorder attached.
const BENCH_TRACE_CAPACITY: usize = 1 << 16;

/// Offered load (fraction of per-site peak) each network is benched at —
/// comfortably below its measured saturation point so the run exercises
/// the steady-state event loop rather than stall churn.
pub fn bench_load(kind: NetworkKind) -> f64 {
    match kind {
        NetworkKind::PointToPoint => 0.30,
        NetworkKind::LimitedPointToPoint => 0.20,
        NetworkKind::TokenRing | NetworkKind::TwoPhaseAlt => 0.15,
        NetworkKind::TwoPhase => 0.03,
        NetworkKind::CircuitSwitched => 0.01,
        // Each cluster's shared bundle serializes its 16 sites' traffic.
        NetworkKind::Hierarchical => 0.05,
    }
}

/// The networks `macrochip bench` measures: the five Figure 6
/// architectures plus the hierarchical network appended last, so a
/// baseline written before the sixth existed still lines up entry by
/// entry ([`compare`] warn-skips networks missing from a baseline).
pub const BENCH_NETWORKS: [NetworkKind; 6] = [
    NetworkKind::TokenRing,
    NetworkKind::CircuitSwitched,
    NetworkKind::PointToPoint,
    NetworkKind::LimitedPointToPoint,
    NetworkKind::TwoPhase,
    NetworkKind::Hierarchical,
];

/// Knobs for a bench run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchOptions {
    /// Trials per network; the reported wall-clock is their median.
    pub trials: usize,
    /// Traffic-generation window per trial.
    pub sim: Span,
    /// Extra drain time after generation stops.
    pub drain: Span,
    /// Attach a ring-buffer flight recorder during trials (measures the
    /// tracer-enabled overhead; default is disabled, the production
    /// fast path).
    pub trace: bool,
    /// Print a per-trial line to stderr as results come in.
    pub progress: bool,
    /// Regression threshold recorded in the report and used by
    /// `--against` comparisons ([`DEFAULT_MAX_REGRESSION`] unless
    /// overridden with `--max-regression`).
    pub max_regression: f64,
}

impl BenchOptions {
    /// The full baseline: 5 trials over a 5 µs window.
    pub fn full() -> BenchOptions {
        BenchOptions {
            trials: 5,
            sim: Span::from_us(5),
            drain: Span::from_us(20),
            trace: false,
            progress: false,
            max_regression: DEFAULT_MAX_REGRESSION,
        }
    }

    /// CI smoke sizing: 3 trials over a 1 µs window.
    pub fn quick() -> BenchOptions {
        BenchOptions {
            trials: 3,
            sim: Span::from_us(1),
            drain: Span::from_us(5),
            ..BenchOptions::full()
        }
    }
}

/// Median wall-clock and deterministic work figures for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkBench {
    pub kind: NetworkKind,
    pub offered_load: f64,
    /// Simulation events processed per trial (identical across trials).
    pub events: u64,
    pub injected: u64,
    pub delivered: u64,
    pub saturated: bool,
    /// Simulation end time, nanoseconds (deterministic).
    pub end_ns: f64,
    /// Per-trial wall-clock, milliseconds, in execution order.
    pub wall_ms_trials: Vec<f64>,
}

impl NetworkBench {
    /// Median of the per-trial wall-clocks, milliseconds.
    pub fn wall_ms_median(&self) -> f64 {
        median(&self.wall_ms_trials)
    }

    /// Host throughput at the median trial: simulation events per
    /// wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.events, self.wall_ms_median())
    }

    /// Delivered packets per wall-clock second at the median trial.
    pub fn packets_per_sec(&self) -> f64 {
        per_sec(self.delivered, self.wall_ms_median())
    }
}

/// A complete bench baseline, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema_version: u64,
    /// Git commit of the benched tree, or `"unknown"`.
    pub commit: String,
    /// `macrochip` crate version.
    pub version: String,
    pub quick: bool,
    pub trials: usize,
    pub seed: u64,
    pub sim_ns: f64,
    pub drain_ns: f64,
    pub sites: usize,
    /// Macrochips on the benched board (`1` = the classic single-chip
    /// bench; baselines written before multi-chip fabrics existed parse
    /// as `1`).
    pub chips: usize,
    pub cores_per_site: usize,
    pub data_bytes: u32,
    /// `"ring"` when benched with the flight recorder attached,
    /// `"disabled"` for the production fast path.
    pub tracer: String,
    /// The `--max-regression` factor this report was produced under, so
    /// a baseline records the gate it expects to be compared with.
    pub max_regression: f64,
    pub peak_rss_bytes: u64,
    pub networks: Vec<NetworkBench>,
}

/// Runs the bench workload on every [`BENCH_NETWORKS`] entry, driven
/// across the whole of `fabric` through [`networks::build_fabric`]. A
/// one-chip fabric is the classic bench (same network objects, same
/// numbers); a larger board stresses the fabric event loop and board
/// links, and stamps its chip count into the report so [`compare`] can
/// warn when a diff crosses board sizes.
///
/// # Panics
///
/// Panics if any two trials of the same network disagree on a
/// deterministic field — that would mean the simulator itself broke
/// determinism, which no bench number could be trusted over.
pub fn run_bench(fabric: &FabricConfig, options: &BenchOptions) -> BenchReport {
    assert!(options.trials >= 1, "bench needs at least one trial");
    let config = &fabric.global_config();
    let sweep = SweepOptions {
        sim: options.sim,
        drain: options.drain,
        max_stalled: 5_000,
        seed: BENCH_SEED,
    };
    let mut networks_out = Vec::new();
    for kind in BENCH_NETWORKS {
        let load = bench_load(kind);
        let mut bench: Option<NetworkBench> = None;
        for trial in 0..options.trials {
            let net = networks::build_fabric(kind, fabric);
            let tracer = if options.trace {
                Tracer::new(RingSink::new(BENCH_TRACE_CAPACITY))
            } else {
                Tracer::disabled()
            };
            let started = Instant::now();
            let (point, net) =
                run_load_point_observed(net, Pattern::Uniform, load, config, sweep, tracer, |_| {});
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let measured = NetworkBench {
                kind,
                offered_load: load,
                events: net.events_processed(),
                injected: net.stats().injected_packets(),
                delivered: net.stats().delivered_packets(),
                saturated: point.saturated,
                end_ns: options.sim.as_ns_f64() + options.drain.as_ns_f64(),
                wall_ms_trials: vec![wall_ms],
            };
            if options.progress {
                eprintln!(
                    "[bench] {}: trial {}/{}: {:.1} ms, {:.2}M ev/s",
                    kind.name(),
                    trial + 1,
                    options.trials,
                    wall_ms,
                    per_sec(measured.events, wall_ms) / 1e6,
                );
            }
            match &mut bench {
                None => bench = Some(measured),
                Some(prev) => {
                    assert_eq!(
                        (prev.events, prev.injected, prev.delivered, prev.saturated),
                        (
                            measured.events,
                            measured.injected,
                            measured.delivered,
                            measured.saturated
                        ),
                        "{} trial {} disagrees with trial 1 on deterministic fields",
                        kind.name(),
                        trial + 1
                    );
                    prev.wall_ms_trials.push(wall_ms);
                }
            }
        }
        networks_out.push(bench.expect("trials >= 1"));
    }
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        commit: current_commit(),
        version: env!("CARGO_PKG_VERSION").to_string(),
        quick: *options == BenchOptions::quick(),
        trials: options.trials,
        seed: BENCH_SEED,
        sim_ns: options.sim.as_ns_f64(),
        drain_ns: options.drain.as_ns_f64(),
        sites: config.grid.sites(),
        chips: fabric.chips(),
        cores_per_site: config.cores_per_site,
        data_bytes: config.data_bytes,
        tracer: if options.trace { "ring" } else { "disabled" }.to_string(),
        max_regression: options.max_regression,
        peak_rss_bytes: prof::peak_rss_bytes(),
        networks: networks_out,
    }
}

/// The benched tree's commit: `$MACROCHIP_COMMIT` if set, else
/// `git rev-parse --short=12 HEAD`, else `"unknown"`.
fn current_commit() -> String {
    if let Ok(commit) = std::env::var("MACROCHIP_COMMIT") {
        if !commit.is_empty() {
            return commit;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl BenchReport {
    /// Serializes the report as the `BENCH_*.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\n  \"schema\": \"{BENCH_SCHEMA}\",");
        let _ = write!(out, "\n  \"schema_version\": {},", self.schema_version);
        let _ = write!(out, "\n  \"commit\": \"{}\",", json_escape(&self.commit));
        let _ = write!(out, "\n  \"version\": \"{}\",", json_escape(&self.version));
        let _ = write!(out, "\n  \"quick\": {},", self.quick);
        let _ = write!(out, "\n  \"trials\": {},", self.trials);
        let _ = write!(out, "\n  \"seed\": {},", self.seed);
        let _ = write!(out, "\n  \"sim_ns\": {},", json_f64(self.sim_ns));
        let _ = write!(out, "\n  \"drain_ns\": {},", json_f64(self.drain_ns));
        let _ = write!(out, "\n  \"sites\": {},", self.sites);
        let _ = write!(out, "\n  \"chips\": {},", self.chips);
        let _ = write!(out, "\n  \"cores_per_site\": {},", self.cores_per_site);
        let _ = write!(out, "\n  \"data_bytes\": {},", self.data_bytes);
        let _ = write!(out, "\n  \"tracer\": \"{}\",", json_escape(&self.tracer));
        let _ = write!(
            out,
            "\n  \"max_regression\": {},",
            json_f64(self.max_regression)
        );
        let _ = write!(out, "\n  \"peak_rss_bytes\": {},", self.peak_rss_bytes);
        out.push_str("\n  \"networks\": [");
        for (i, n) in self.networks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{");
            let _ = write!(
                out,
                "\n      \"network\": \"{}\",",
                json_escape(n.kind.name())
            );
            let _ = write!(
                out,
                "\n      \"offered_load\": {},",
                json_f64(n.offered_load)
            );
            let _ = write!(out, "\n      \"events\": {},", n.events);
            let _ = write!(out, "\n      \"injected\": {},", n.injected);
            let _ = write!(out, "\n      \"delivered\": {},", n.delivered);
            let _ = write!(out, "\n      \"saturated\": {},", n.saturated);
            let _ = write!(out, "\n      \"end_ns\": {},", json_f64(n.end_ns));
            let trials: Vec<String> = n
                .wall_ms_trials
                .iter()
                .map(|&w| json_f64(w).to_string())
                .collect();
            let _ = write!(out, "\n      \"wall_ms_trials\": [{}],", trials.join(", "));
            let _ = write!(
                out,
                "\n      \"wall_ms_median\": {},",
                json_f64(n.wall_ms_median())
            );
            let _ = write!(
                out,
                "\n      \"events_per_sec\": {},",
                json_f64(n.events_per_sec())
            );
            let _ = write!(
                out,
                "\n      \"packets_per_sec\": {}",
                json_f64(n.packets_per_sec())
            );
            let _ = write!(out, "\n    }}");
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Renders the human-readable summary table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "network", "load", "events", "wall(ms)", "ev/s", "pkt/s"
        );
        for n in &self.networks {
            let _ = writeln!(
                out,
                "{:<24} {:>7.0}% {:>12} {:>12.2} {:>12.0} {:>12.0}",
                n.kind.name(),
                n.offered_load * 100.0,
                n.events,
                n.wall_ms_median(),
                n.events_per_sec(),
                n.packets_per_sec(),
            );
        }
        out
    }

    /// Parses a previously written `BENCH_*.json` (only the fields
    /// [`compare`] needs: schema, version, and per-network deterministic
    /// + throughput figures).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(json::Value::as_str) != Some(BENCH_SCHEMA) {
            return Err(format!("not a {BENCH_SCHEMA} document"));
        }
        let num = |k: &str| -> f64 { doc.get(k).and_then(json::Value::as_f64).unwrap_or(0.0) };
        let text_field = |k: &str| -> String {
            doc.get(k)
                .and_then(json::Value::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        let mut networks = Vec::new();
        if let Some(json::Value::Array(items)) = doc.get("networks") {
            for item in items {
                let name = item
                    .get("network")
                    .and_then(json::Value::as_str)
                    .ok_or("network entry without a name")?;
                let kind = NetworkKind::ALL
                    .into_iter()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| format!("unknown network {name:?}"))?;
                let n = |k: &str| item.get(k).and_then(json::Value::as_f64).unwrap_or(0.0);
                let trials = match item.get("wall_ms_trials") {
                    Some(json::Value::Array(ws)) => {
                        ws.iter().filter_map(json::Value::as_f64).collect()
                    }
                    _ => Vec::new(),
                };
                networks.push(NetworkBench {
                    kind,
                    offered_load: n("offered_load"),
                    events: n("events") as u64,
                    injected: n("injected") as u64,
                    delivered: n("delivered") as u64,
                    saturated: item.get("saturated").and_then(json::Value::as_bool) == Some(true),
                    end_ns: n("end_ns"),
                    wall_ms_trials: trials,
                });
            }
        }
        let max_regression = doc
            .get("max_regression")
            .and_then(json::Value::as_f64)
            .unwrap_or(DEFAULT_MAX_REGRESSION);
        Ok(BenchReport {
            schema_version: num("schema_version") as u64,
            commit: text_field("commit"),
            version: text_field("version"),
            quick: doc.get("quick").and_then(json::Value::as_bool) == Some(true),
            trials: num("trials") as usize,
            seed: num("seed") as u64,
            sim_ns: num("sim_ns"),
            drain_ns: num("drain_ns"),
            sites: num("sites") as usize,
            // Baselines written before multi-chip fabrics have no "chips"
            // field; they benched exactly one chip.
            chips: doc
                .get("chips")
                .and_then(json::Value::as_f64)
                .map_or(1, |v| v as usize),
            cores_per_site: num("cores_per_site") as usize,
            data_bytes: num("data_bytes") as u32,
            tracer: text_field("tracer"),
            max_regression,
            peak_rss_bytes: num("peak_rss_bytes") as u64,
            networks,
        })
    }
}

/// The verdict of diffing a fresh bench against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// One human-readable line per compared network.
    pub lines: Vec<String>,
    /// Networks whose events/sec regressed by more than the factor.
    pub regressions: Vec<String>,
    /// Cross-schema or cross-workload caveats.
    pub warnings: Vec<String>,
}

impl BenchComparison {
    /// True when no network regressed beyond the allowed factor.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diffs `fresh` against `baseline`: a network regresses when its
/// events/sec falls below `baseline / factor` (factor 2.0 = "more than
/// 2x slower fails"). Networks absent from the baseline are skipped with
/// a warning, as are schema or workload mismatches. A board-size
/// mismatch (different `chips`) disarms the gate entirely: the ratios
/// are still printed for orientation, but a 2x2-fabric bench held to a
/// single-chip baseline (or vice versa) would fail on the workload
/// difference, not a regression, so it can only warn.
pub fn compare(fresh: &BenchReport, baseline: &BenchReport, factor: f64) -> BenchComparison {
    let mut out = BenchComparison {
        lines: Vec::new(),
        regressions: Vec::new(),
        warnings: Vec::new(),
    };
    let gate_armed = fresh.chips == baseline.chips;
    if fresh.schema_version != baseline.schema_version {
        out.warnings.push(format!(
            "schema_version differs: {} vs baseline {}",
            fresh.schema_version, baseline.schema_version
        ));
    }
    if fresh.chips != baseline.chips {
        out.warnings.push(format!(
            "board size differs: {} chip(s) vs baseline {}; ratios compare \
             different simulations",
            fresh.chips, baseline.chips
        ));
    }
    if (fresh.sim_ns, fresh.seed) != (baseline.sim_ns, baseline.seed) {
        out.warnings.push(
            "workload differs from baseline (sim window or seed); ratios are not like-for-like"
                .to_string(),
        );
    }
    for n in &fresh.networks {
        let Some(base) = baseline.networks.iter().find(|b| b.kind == n.kind) else {
            out.warnings
                .push(format!("{} missing from baseline, skipped", n.kind.name()));
            continue;
        };
        if n.events != base.events {
            out.warnings.push(format!(
                "{}: event count changed {} -> {} (different workload or simulator \
                 behavior; the ratio below compares throughput, not identical work)",
                n.kind.name(),
                base.events,
                n.events
            ));
        }
        let fresh_eps = n.events_per_sec();
        let base_eps = base.events_per_sec();
        let ratio = if base_eps > 0.0 {
            fresh_eps / base_eps
        } else {
            1.0
        };
        out.lines.push(format!(
            "{:<24} {:>12.0} ev/s vs {:>12.0} baseline ({:+.1}%)",
            n.kind.name(),
            fresh_eps,
            base_eps,
            (ratio - 1.0) * 100.0
        ));
        if gate_armed && base_eps > 0.0 && fresh_eps * factor < base_eps {
            out.regressions.push(format!(
                "{}: {:.0} ev/s is more than {factor}x below baseline {:.0} ev/s",
                n.kind.name(),
                fresh_eps,
                base_eps
            ));
        }
    }
    out
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

fn per_sec(count: u64, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        count as f64 / (wall_ms / 1e3)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::trace::validate_json;
    use netcore::MacrochipConfig;

    fn tiny_options() -> BenchOptions {
        BenchOptions {
            trials: 3,
            sim: Span::from_ns(100),
            drain: Span::from_us(2),
            trace: false,
            progress: false,
            max_regression: DEFAULT_MAX_REGRESSION,
        }
    }

    #[test]
    fn bench_loads_stay_below_saturation_margins() {
        for kind in BENCH_NETWORKS {
            assert!(bench_load(kind) > 0.0 && bench_load(kind) < 1.0);
        }
    }

    #[test]
    fn bench_covers_figure6_plus_hierarchical() {
        assert_eq!(&BENCH_NETWORKS[..5], &NetworkKind::FIGURE6[..]);
        assert_eq!(BENCH_NETWORKS[5], NetworkKind::Hierarchical);
    }

    #[test]
    fn bench_runs_all_six_networks_and_round_trips_json() {
        let config = MacrochipConfig::scaled();
        let report = run_bench(&FabricConfig::single(config), &tiny_options());
        assert_eq!(report.networks.len(), 6);
        for n in &report.networks {
            assert!(n.events > 0, "{} processed no events", n.kind.name());
            assert!(!n.saturated, "{} saturated at bench load", n.kind.name());
            assert_eq!(n.wall_ms_trials.len(), 3);
        }
        let json = report.to_json();
        validate_json(&json).expect("bench JSON must be well-formed");
        let parsed = BenchReport::from_json(&json).expect("round trip");
        assert_eq!(parsed.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(parsed.networks.len(), 6);
        for (a, b) in parsed.networks.iter().zip(&report.networks) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.events, b.events);
            assert_eq!(a.delivered, b.delivered);
        }
    }

    #[test]
    fn consecutive_runs_agree_on_non_timing_fields() {
        let config = MacrochipConfig::scaled();
        let a = run_bench(&FabricConfig::single(config), &tiny_options());
        let b = run_bench(&FabricConfig::single(config), &tiny_options());
        for (x, y) in a.networks.iter().zip(&b.networks) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.events, y.events, "{}", x.kind.name());
            assert_eq!(x.injected, y.injected);
            assert_eq!(x.delivered, y.delivered);
            assert_eq!(x.saturated, y.saturated);
            assert_eq!(x.end_ns, y.end_ns);
        }
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.commit, b.commit);
    }

    #[test]
    fn compare_flags_large_regressions_only() {
        let config = MacrochipConfig::scaled();
        let baseline = run_bench(&FabricConfig::single(config), &tiny_options());
        // Same run compared to itself: no regression.
        let same = compare(&baseline, &baseline, 2.0);
        assert!(same.passed(), "{:?}", same.regressions);
        assert_eq!(same.lines.len(), 6);

        // A 10x slowdown on one network must be flagged.
        let mut slow = baseline.clone();
        slow.networks[0].wall_ms_trials = baseline.networks[0]
            .wall_ms_trials
            .iter()
            .map(|w| w * 10.0)
            .collect();
        let diff = compare(&slow, &baseline, 2.0);
        assert!(!diff.passed());
        assert_eq!(diff.regressions.len(), 1);
        assert!(diff.regressions[0].contains(slow.networks[0].kind.name()));
    }

    #[test]
    fn compare_warns_on_workload_mismatch() {
        let config = MacrochipConfig::scaled();
        let baseline = run_bench(&FabricConfig::single(config), &tiny_options());
        let mut other = baseline.clone();
        other.sim_ns += 1.0;
        other.networks[0].events += 7;
        let diff = compare(&other, &baseline, 2.0);
        assert!(diff.warnings.iter().any(|w| w.contains("workload differs")));
        assert!(diff
            .warnings
            .iter()
            .any(|w| w.contains("event count changed")));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(BenchReport::from_json("{\"schema\": \"other\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    /// Loads one of the repo's checked-in baselines (written before either
    /// the hierarchical network or multi-chip fabrics existed).
    fn repo_baseline(name: &str) -> BenchReport {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../bench")
            .join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        BenchReport::from_json(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"))
    }

    #[test]
    fn against_pre_fabric_baselines_gates_only_shared_networks() {
        // The `bench --against` regression: a baseline predating newer
        // networks (both checked-in files carry only the five Figure 6
        // architectures) must neither panic nor mis-gate. The candidate's
        // sixth network warn-skips; the five shared ones still compare.
        let config = MacrochipConfig::scaled();
        let fresh = run_bench(&FabricConfig::single(config), &tiny_options());
        assert_eq!(fresh.networks.len(), 6);
        let newest = fresh.networks[5].kind.name();
        for name in ["BENCH_seed.json", "BENCH_1.json"] {
            let baseline = repo_baseline(name);
            assert_eq!(baseline.networks.len(), 5, "{name}");
            assert_eq!(baseline.chips, 1, "{name}: pre-fabric baseline is one chip");
            // An enormous allowance isolates the structural behavior from
            // host speed; the real gate is exercised elsewhere.
            let diff = compare(&fresh, &baseline, 1e9);
            assert_eq!(diff.lines.len(), 5, "{name}: shared networks compared");
            assert!(
                diff.warnings
                    .iter()
                    .any(|w| w.contains(newest) && w.contains("missing from baseline")),
                "{name}: candidate-only network must warn-skip, got {:?}",
                diff.warnings
            );
            assert!(diff.passed(), "{name}: {:?}", diff.regressions);
        }
    }

    #[test]
    fn multi_chip_bench_stamps_chips_and_round_trips() {
        let fabric = FabricConfig::grid(2, MacrochipConfig::with_side(4));
        let options = BenchOptions {
            trials: 1,
            ..tiny_options()
        };
        let report = run_bench(&fabric, &options);
        assert_eq!(report.chips, 4);
        assert_eq!(report.sites, 64);
        for n in &report.networks {
            assert!(n.delivered > 0, "{} delivered nothing", n.kind.name());
        }
        let parsed = BenchReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed.chips, 4);

        // Diffing across board sizes is allowed but must say so — and
        // must never gate: even a baseline claiming absurd throughput
        // cannot fail a fresh report simulating a different board.
        let mut single = report.clone();
        single.chips = 1;
        for n in &mut single.networks {
            n.wall_ms_trials = vec![1e-9];
        }
        let diff = compare(&report, &single, 2.0);
        assert!(
            diff.warnings.iter().any(|w| w.contains("board size")),
            "{:?}",
            diff.warnings
        );
        assert!(
            diff.passed(),
            "cross-board-size comparison must warn, not gate: {:?}",
            diff.regressions
        );
    }
}
