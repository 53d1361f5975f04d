//! Unified metrics registry: named counters, gauges and latency
//! histograms with deterministic snapshots.
//!
//! Every run of the simulator can flatten its statistics into a
//! [`MetricsRegistry`] under stable dotted names (`net.injected`,
//! `phase.queueing`, …), then export a [`MetricsSnapshot`] to JSON here or
//! to CSV via `macrochip::report`. Registries store entries in `BTreeMap`s,
//! so two runs that record the same values produce **byte-identical**
//! snapshots — the determinism tests rely on this.
//!
//! # Example
//!
//! ```
//! use netcore::metrics::MetricsRegistry;
//! use desim::Span;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.add_counter("net.injected", 10);
//! reg.set_gauge("net.throughput_gbps", 4.5);
//! reg.record_latency("latency.e2e", Span::from_ns(120));
//! let snap = reg.snapshot();
//! assert!(snap.to_json().contains("\"net.injected\": 10"));
//! ```

use crate::stats::{NetStats, Phase};
use desim::stats::LatencyHistogram;
use desim::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in JSON (the workspace's one escaper,
/// re-exported for this crate's callers).
pub use desim::trace::json_escape;

/// A collection of named metrics for one run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to the named counter, creating it at zero.
    pub fn add_counter(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the named latency histogram.
    pub fn record_latency(&mut self, name: &str, sample: Span) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(sample);
    }

    /// Merges a whole histogram into the named one.
    pub fn merge_histogram(&mut self, name: &str, hist: &LatencyHistogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// Merges another registry into this one: counters add, gauges take
    /// `other`'s value, histograms pool their samples.
    ///
    /// This is the parallel-campaign reduction: each worker accumulates
    /// its shard's metrics into a private registry, and the per-worker
    /// registries are merged **in canonical shard order** afterwards.
    /// Counter sums and histogram merges are order-independent; gauges are
    /// last-write-wins, so merging in input order reproduces exactly what
    /// a serial run recording the same shards in sequence would hold.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, n) in &other.counters {
            self.add_counter(name, *n);
        }
        for (name, v) in &other.gauges {
            self.set_gauge(name, *v);
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
    }

    /// Flattens a network's [`NetStats`] into the registry under the
    /// standard names: `net.*` counters/gauges, `latency.*` end-to-end
    /// histograms and `phase.*` per-phase breakdown histograms.
    pub fn record_net_stats(&mut self, stats: &NetStats) {
        self.add_counter("net.injected", stats.injected_packets());
        self.add_counter("net.rejected", stats.rejected_packets());
        self.add_counter("net.dropped", stats.dropped_packets());
        self.add_counter("net.delivered", stats.delivered_packets());
        self.add_counter("net.delivered_bytes", stats.delivered_bytes());
        self.add_counter("net.routed_bytes", stats.routed_bytes());
        self.add_counter("net.wasted_slots", stats.wasted_slots());
        self.set_gauge("net.throughput_gbps", stats.throughput_gbps());
        self.set_gauge("net.jain_fairness", stats.jain_fairness());
        self.merge_histogram("latency.e2e", stats.latency());
        self.merge_histogram("latency.data", stats.data_latency());
        self.merge_histogram("latency.control", stats.control_latency());
        for phase in Phase::ALL {
            self.merge_histogram(
                &format!("phase.{}", phase.name()),
                stats.phase_latency(phase),
            );
        }
    }

    /// Flattens a host-side profiler report into the registry under the
    /// `host.*` family: throughput gauges (events/sec, packets/sec,
    /// wall-clock, peak RSS), cache hit/miss counters with mean
    /// latencies, and per-span self/total wall-clock.
    ///
    /// `host.*` values are wall-clock-derived and therefore **not**
    /// deterministic across reruns — callers that byte-compare snapshots
    /// must either skip this method or strip the family first (the
    /// `macrochip` CLI records it only behind `--host-metrics`).
    pub fn record_host_stats(&mut self, wall_ms: f64, report: &desim::prof::ProfReport) {
        use desim::prof::Counter;
        let events = report.counter(Counter::SimEvents);
        let packets = report.counter(Counter::Packets);
        let wall_s = wall_ms / 1e3;
        self.add_counter("host.events", events);
        self.add_counter("host.packets", packets);
        self.add_counter("host.points_done", report.counter(Counter::PointsDone));
        self.set_gauge("host.wall_clock_ms", wall_ms);
        if wall_s > 0.0 {
            self.set_gauge("host.events_per_sec", events as f64 / wall_s);
            self.set_gauge("host.packets_per_sec", packets as f64 / wall_s);
        }
        self.set_gauge("host.peak_rss_bytes", desim::prof::peak_rss_bytes() as f64);
        let hits = report.counter(Counter::CacheHits);
        let misses = report.counter(Counter::CacheMisses);
        self.add_counter("host.cache.hits", hits);
        self.add_counter("host.cache.misses", misses);
        if hits > 0 {
            self.set_gauge(
                "host.cache.hit_ms_mean",
                report.counter(Counter::CacheHitNs) as f64 / hits as f64 / 1e6,
            );
        }
        if misses > 0 {
            self.set_gauge(
                "host.cache.miss_ms_mean",
                report.counter(Counter::CacheMissNs) as f64 / misses as f64 / 1e6,
            );
        }
        for span in report.spans.iter().filter(|s| s.count > 0) {
            let name = span.site.name();
            self.add_counter(&format!("host.span.{name}.count"), span.count);
            self.set_gauge(
                &format!("host.span.{name}.self_ms"),
                span.self_ns as f64 / 1e6,
            );
            self.set_gauge(
                &format!("host.span.{name}.total_ms"),
                span.total_ns as f64 / 1e6,
            );
        }
    }

    /// A deterministic, ordered snapshot of everything recorded.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSummary::of(h)))
                .collect(),
        }
    }
}

/// Summary statistics of one latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
    pub max_ns: f64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub fn of(h: &LatencyHistogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            mean_ns: h.mean().as_ns_f64(),
            p50_ns: h.percentile(0.5).as_ns_f64(),
            p95_ns: h.p95().as_ns_f64(),
            p99_ns: h.p99().as_ns_f64(),
            max_ns: h.max().as_ns_f64(),
        }
    }
}

/// An ordered, immutable snapshot of a [`MetricsRegistry`].
///
/// Field order is sorted by name, so serializations are reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// Formats an `f64` as a JSON number (non-finite values become `null`).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a JSON object with `counters`, `gauges`
    /// and `histograms` sections.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", json_escape(name), json_f64(*v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                json_escape(name),
                h.count,
                json_f64(h.mean_ns),
                json_f64(h.p50_ns),
                json_f64(h.p95_ns),
                json_f64(h.p99_ns),
                json_f64(h.max_ns),
            );
        }
        out.push_str("\n  }\n}");
        out
    }

    /// Flattens the snapshot into `(name, kind, field, value)` rows for
    /// tabular export; `macrochip::report` renders these as CSV.
    pub fn rows(&self) -> Vec<[String; 4]> {
        let mut rows = Vec::new();
        for (name, v) in &self.counters {
            rows.push([
                name.clone(),
                "counter".into(),
                "value".into(),
                v.to_string(),
            ]);
        }
        for (name, v) in &self.gauges {
            rows.push([name.clone(), "gauge".into(), "value".into(), json_f64(*v)]);
        }
        for (name, h) in &self.histograms {
            let fields = [
                ("count", h.count as f64),
                ("mean_ns", h.mean_ns),
                ("p50_ns", h.p50_ns),
                ("p95_ns", h.p95_ns),
                ("p99_ns", h.p99_ns),
                ("max_ns", h.max_ns),
            ];
            for (field, v) in fields {
                rows.push([name.clone(), "histogram".into(), field.into(), json_f64(v)]);
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::trace::validate_json;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("net.injected", 7);
        reg.add_counter("net.injected", 3);
        reg.set_gauge("net.throughput_gbps", 12.5);
        for ns in [10u64, 20, 400] {
            reg.record_latency("latency.e2e", Span::from_ns(ns));
        }
        reg
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let mut reg = sample_registry();
        reg.add_counter("a.first", 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0], ("a.first".to_string(), 1));
        assert_eq!(snap.counters[1], ("net.injected".to_string(), 10));
    }

    #[test]
    fn snapshot_json_is_valid_and_deterministic() {
        let a = sample_registry().snapshot().to_json();
        let b = sample_registry().snapshot().to_json();
        assert_eq!(a, b);
        validate_json(&a).expect("snapshot JSON must be well-formed");
        assert!(a.contains("\"net.injected\": 10"));
        assert!(a.contains("\"latency.e2e\""));
        assert!(a.contains("\"p99_ns\""));
    }

    #[test]
    fn net_stats_flatten_under_standard_names() {
        use crate::{MessageKind, Packet, PacketId, SiteId};
        use desim::Time;
        let mut stats = NetStats::new();
        stats.on_inject(Time::ZERO);
        let mut p = Packet::new(
            PacketId(0),
            SiteId::from_index(0),
            SiteId::from_index(1),
            64,
            MessageKind::Data,
            Time::ZERO,
        );
        p.arb_start = Some(Time::ZERO);
        p.tx_start = Some(Time::from_ns(5));
        p.tx_end = Some(Time::from_ns(18));
        p.delivered = Some(Time::from_ns(20));
        stats.on_deliver(&p);

        let mut reg = MetricsRegistry::new();
        reg.record_net_stats(&stats);
        let snap = reg.snapshot();
        let json = snap.to_json();
        for key in [
            "net.injected",
            "net.delivered",
            "latency.e2e",
            "phase.queueing",
            "phase.arb_wait",
            "phase.serialization",
            "phase.propagation",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let arb = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "phase.arb_wait")
            .unwrap();
        assert_eq!(arb.1.count, 1);
        assert_eq!(arb.1.mean_ns, 5.0);
    }

    #[test]
    fn rows_cover_every_metric() {
        let snap = sample_registry().snapshot();
        let rows = snap.rows();
        assert!(rows.iter().any(|r| r[0] == "net.injected"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "latency.e2e" && r[2] == "p99_ns"));
    }

    #[test]
    fn merge_pools_counters_and_histograms_deterministically() {
        let mut a = MetricsRegistry::new();
        a.add_counter("net.delivered", 10);
        a.set_gauge("run.offered_load", 0.1);
        a.record_latency("latency.e2e", Span::from_ns(100));
        let mut b = MetricsRegistry::new();
        b.add_counter("net.delivered", 32);
        b.add_counter("net.dropped", 1);
        b.set_gauge("run.offered_load", 0.2);
        b.record_latency("latency.e2e", Span::from_ns(300));

        // Serial reference: record a's shard then b's into one registry.
        let mut serial = MetricsRegistry::new();
        serial.merge(&a);
        serial.merge(&b);

        let mut merged = MetricsRegistry::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(serial.snapshot().to_json(), merged.snapshot().to_json());

        let snap = merged.snapshot();
        assert!(snap.to_json().contains("\"net.delivered\": 42"));
        assert!(snap.to_json().contains("\"net.dropped\": 1"));
        // Last-write-wins gauge: b's value.
        assert!(snap.to_json().contains("\"run.offered_load\": 0.2"));
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "latency.e2e")
            .expect("merged histogram present");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.mean_ns, 200.0);
    }

    #[test]
    fn host_stats_flatten_under_host_names() {
        use desim::prof::{Counter, ProfReport, Site, SpanStats};
        let report = ProfReport {
            spans: vec![SpanStats {
                site: Site::Dispatch,
                count: 4,
                total_ns: 8_000_000,
                self_ns: 2_000_000,
            }],
            counters: vec![
                (Counter::SimEvents, 1_000),
                (Counter::Packets, 250),
                (Counter::CacheHits, 2),
                (Counter::CacheHitNs, 4_000_000),
            ],
        };
        let mut reg = MetricsRegistry::new();
        reg.record_host_stats(500.0, &report);
        let json = reg.snapshot().to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"host.events\": 1000"), "{json}");
        assert!(json.contains("\"host.events_per_sec\": 2000"), "{json}");
        assert!(json.contains("\"host.packets_per_sec\": 500"), "{json}");
        assert!(json.contains("\"host.cache.hits\": 2"), "{json}");
        assert!(json.contains("\"host.cache.hit_ms_mean\": 2"), "{json}");
        assert!(json.contains("\"host.span.dispatch.count\": 4"), "{json}");
        assert!(json.contains("\"host.span.dispatch.self_ms\": 2"), "{json}");
        assert!(
            !json.contains("host.cache.miss_ms_mean"),
            "no misses recorded: {json}"
        );
    }

    #[test]
    fn non_finite_gauges_become_null() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("bad", f64::NAN);
        let json = reg.snapshot().to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"bad\": null"));
    }
}
