//! The benchmark's own tracing: an in-memory span recorder plus
//! decorators that wrap the simulator's public traits from outside.
//!
//! Nothing here changes simulation state. A decorator forwards every
//! trait method (the defaulted ones included) to the value it wraps and
//! only brackets the call with a span. With no recorder installed a span
//! is one thread-local check, but untraced runs do not attach decorators
//! at all.

use coherence::ops::{NextMiss, OpSource};
use desim::{Time, Tracer};
use netcore::{
    FabricConfig, FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet,
    PacketSource, SiteId, SlabStats,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Span and counter names. A span's layer is the text before the dot.
pub const NAMES: &[&str] = &[
    "runner.drive",
    "networks.inject",
    "networks.next_event",
    "networks.advance",
    "networks.drain",
    "networks.other",
    "faults.inject",
    "faults.next_event",
    "faults.advance",
    "faults.drain",
    "faults.other",
    "workloads.next_emission",
    "workloads.emit",
    "workloads.on_delivered",
    "workloads.other",
    "workloads.next_miss",
    "coherence.next_emission",
    "coherence.emit",
    "coherence.deliver",
    "coherence.other",
    "replay.next_emission",
    "replay.decode",
    "replay.on_delivered",
    "replay.other",
    "replay.capture",
    "serve.submit",
    "serve.status",
    "serve.result",
    "campaign.run_point",
];

/// Index of `name` in [`NAMES`]. Panics on an unknown name (a typo in the
/// benchmark, caught by its tests).
pub fn id(name: &str) -> usize {
    NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown span name {name}"))
}

pub const RUNNER_DRIVE: usize = 0;

/// Span ids of one network-like layer.
pub struct NetIds {
    inject: usize,
    next_event: usize,
    advance: usize,
    drain: usize,
    other: usize,
}

pub const NETWORKS: NetIds = NetIds {
    inject: 1,
    next_event: 2,
    advance: 3,
    drain: 4,
    other: 5,
};

pub const FAULTS: NetIds = NetIds {
    inject: 6,
    next_event: 7,
    advance: 8,
    drain: 9,
    other: 10,
};

/// Span ids of one packet-source layer.
pub struct SrcIds {
    next_emission: usize,
    emit: usize,
    on_delivered: usize,
    other: usize,
}

pub const WORKLOADS: SrcIds = SrcIds {
    next_emission: 11,
    emit: 12,
    on_delivered: 13,
    other: 14,
};

pub const WORKLOADS_NEXT_MISS: usize = 15;

pub const COHERENCE: SrcIds = SrcIds {
    next_emission: 16,
    emit: 17,
    on_delivered: 18,
    other: 19,
};

pub const REPLAY: SrcIds = SrcIds {
    next_emission: 20,
    emit: 21,
    on_delivered: 22,
    other: 23,
};

pub const REPLAY_CAPTURE: usize = 24;
pub const SERVE_SUBMIT: usize = 25;
pub const SERVE_STATUS: usize = 26;
pub const SERVE_RESULT: usize = 27;
pub const CAMPAIGN_RUN_POINT: usize = 28;

/// Counters bumped beside the spans.
#[derive(Debug, Clone, Copy)]
pub enum Count {
    /// Injections the outermost network accepted.
    InjectAccepted,
    /// Injections offered to the outermost network.
    InjectOffered,
    /// Packets a traffic source emitted.
    Emitted,
    /// Emitted packets whose source and destination chips differ.
    CrossChip,
}

const COUNTS: usize = 4;

/// One recorded span. `parent` is an index into the span list, or
/// `u32::MAX` for a root.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: u16,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals: spans closed, wall inside them, and self time (wall
/// minus the part their child spans cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Spans opened directly under a `runner.drive` span.
    pub under_runner: u64,
}

struct Open {
    name: usize,
    start_ns: u64,
    child_ns: u64,
    rec: u32,
}

/// Spans of one traced pass, kept in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    op: u32,
    stack: Vec<Open>,
    spans: Vec<SpanRec>,
    cap: usize,
    /// Spans closed after the in-memory list was full (still aggregated).
    pub unrecorded: u64,
    pub agg: Vec<Agg>,
    pub counts: [u64; COUNTS],
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Aggregate for span `name`.
    pub fn get(&self, name: usize) -> Agg {
        self.agg[name]
    }

    /// Sum of self time over every span of `layer` (`"networks"`, ...).
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        NAMES
            .iter()
            .zip(&self.agg)
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }

    /// The recorded spans as a Chrome-trace (Perfetto) JSON array.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                NAMES[usize::from(s.name)],
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on this thread, keeping at most `cap` span
/// records in memory (aggregates cover every span).
pub fn start(cap: usize) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            cap,
            unrecorded: 0,
            agg: vec![Agg::default(); NAMES.len()],
            counts: [0; COUNTS],
        });
    });
}

/// Removes and returns this thread's recorder.
pub fn finish() -> Option<Recorder> {
    REC.with(|r| r.borrow_mut().take())
}

/// Tags spans opened from now on with operation `op`.
pub fn set_op(op: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Adds `n` to counter `c` when a recorder is installed.
pub fn count(c: Count, n: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.counts[c as usize] += n;
        }
    });
}

/// An open span; closes on drop.
pub struct Guard {
    active: bool,
}

/// Opens span `name` (an index into [`NAMES`]).
pub fn span(name: usize) -> Guard {
    let active = REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return false;
        };
        let start_ns = rec.now_ns();
        let parent = rec.stack.last().map_or(u32::MAX, |o| o.rec);
        if rec.stack.last().is_some_and(|o| o.name == RUNNER_DRIVE) {
            rec.agg[name].under_runner += 1;
        }
        // Root spans (one per operation) are always kept; nested ones
        // until the list holds `cap` records.
        let idx = if rec.stack.is_empty() || rec.spans.len() < rec.cap {
            rec.spans.push(SpanRec {
                name: u16::try_from(name).expect("few span names"),
                op: rec.op,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            u32::try_from(rec.spans.len() - 1).unwrap_or(u32::MAX)
        } else {
            u32::MAX
        };
        rec.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            rec: idx,
        });
        true
    });
    Guard { active }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            let end_ns = rec.now_ns();
            let open = rec.stack.pop().expect("spans close in LIFO order");
            let dur = end_ns.saturating_sub(open.start_ns);
            let a = &mut rec.agg[open.name];
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(open.child_ns);
            if let Some(parent) = rec.stack.last_mut() {
                parent.child_ns += dur;
            }
            match rec.spans.get_mut(open.rec as usize) {
                Some(s) => s.end_ns = end_ns,
                None => rec.unrecorded += 1,
            }
        });
    }
}

/// The network a [`TracedNetwork`] wraps: owned when the decorator must
/// itself be boxed into another network (the inner network of a fault
/// wrapper), borrowed when it wraps the runner-facing network for one
/// drive.
enum Wrapped<'a> {
    Owned(Box<dyn Network>),
    Borrowed(&'a mut dyn Network),
}

/// A [`Network`] decorator: every call is forwarded unchanged and
/// bracketed by a span of the decorator's layer.
pub struct TracedNetwork<'a> {
    inner: Wrapped<'a>,
    ids: &'static NetIds,
    /// Count offered/accepted injections (the runner-facing decorator).
    outer: bool,
}

impl TracedNetwork<'static> {
    pub fn owned(inner: Box<dyn Network>, ids: &'static NetIds) -> TracedNetwork<'static> {
        TracedNetwork {
            inner: Wrapped::Owned(inner),
            ids,
            outer: false,
        }
    }
}

impl<'a> TracedNetwork<'a> {
    /// Decorates the network the runner drives.
    pub fn borrowed(inner: &'a mut dyn Network, ids: &'static NetIds) -> TracedNetwork<'a> {
        TracedNetwork {
            inner: Wrapped::Borrowed(inner),
            ids,
            outer: true,
        }
    }

    fn net(&self) -> &dyn Network {
        match &self.inner {
            Wrapped::Owned(n) => n.as_ref(),
            Wrapped::Borrowed(n) => &**n,
        }
    }

    fn net_mut(&mut self) -> &mut dyn Network {
        match &mut self.inner {
            Wrapped::Owned(n) => n.as_mut(),
            Wrapped::Borrowed(n) => &mut **n,
        }
    }
}

impl Network for TracedNetwork<'_> {
    fn kind(&self) -> NetworkKind {
        let _s = span(self.ids.other);
        self.net().kind()
    }

    fn config(&self) -> &MacrochipConfig {
        let _s = span(self.ids.other);
        self.net().config()
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        let _s = span(self.ids.inject);
        let r = self.net_mut().inject(packet, now);
        if self.outer {
            count(Count::InjectOffered, 1);
            count(Count::InjectAccepted, u64::from(r.is_ok()));
        }
        r
    }

    fn next_event(&self) -> Option<Time> {
        let _s = span(self.ids.next_event);
        self.net().next_event()
    }

    fn advance(&mut self, now: Time) {
        let _s = span(self.ids.advance);
        self.net_mut().advance(now);
    }

    fn drain_delivered(&mut self) -> Vec<Packet> {
        let _s = span(self.ids.drain);
        self.net_mut().drain_delivered()
    }

    fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        let _s = span(self.ids.drain);
        self.net_mut().drain_delivered_into(out);
    }

    fn last_event_time(&self) -> Option<Time> {
        let _s = span(self.ids.other);
        self.net().last_event_time()
    }

    fn supports_batched_advance(&self) -> bool {
        let _s = span(self.ids.other);
        self.net().supports_batched_advance()
    }

    fn slab_stats(&self) -> Option<SlabStats> {
        let _s = span(self.ids.other);
        self.net().slab_stats()
    }

    fn stats(&self) -> &NetStats {
        let _s = span(self.ids.other);
        self.net().stats()
    }

    fn events_processed(&self) -> u64 {
        let _s = span(self.ids.other);
        self.net().events_processed()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        let _s = span(self.ids.other);
        self.net_mut().set_tracer(tracer);
    }

    fn apply_fault(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        let _s = span(self.ids.other);
        self.net_mut().apply_fault(fault, now)
    }
}

/// A [`PacketSource`] decorator. With a fabric it also counts emitted
/// packets whose endpoints sit on different chips.
pub struct TracedSource<'a> {
    inner: &'a mut dyn PacketSource,
    ids: &'static SrcIds,
    fabric: Option<FabricConfig>,
}

impl<'a> TracedSource<'a> {
    pub fn new(
        inner: &'a mut dyn PacketSource,
        ids: &'static SrcIds,
        fabric: Option<FabricConfig>,
    ) -> TracedSource<'a> {
        TracedSource { inner, ids, fabric }
    }
}

impl PacketSource for TracedSource<'_> {
    fn next_emission(&self) -> Option<Time> {
        let _s = span(self.ids.next_emission);
        self.inner.next_emission()
    }

    fn emit_due(&mut self, now: Time, out: &mut Vec<Packet>) {
        let before = out.len();
        {
            let _s = span(self.ids.emit);
            self.inner.emit_due(now, out);
        }
        let emitted = &out[before..];
        count(Count::Emitted, emitted.len() as u64);
        if let Some(f) = &self.fabric {
            let cross = emitted
                .iter()
                .filter(|p| f.chip_of(p.src) != f.chip_of(p.dst))
                .count();
            count(Count::CrossChip, cross as u64);
        }
    }

    fn on_delivered(&mut self, packet: &Packet, now: Time) {
        let _s = span(self.ids.on_delivered);
        self.inner.on_delivered(packet, now);
    }

    fn is_exhausted(&self) -> bool {
        let _s = span(self.ids.other);
        self.inner.is_exhausted()
    }

    fn reacts_to_delivery(&self) -> bool {
        let _s = span(self.ids.other);
        self.inner.reacts_to_delivery()
    }
}

/// An [`OpSource`] decorator: the coherence engine's calls into the
/// application models of the `workloads` crate.
pub struct TracedOps<S: OpSource> {
    inner: S,
}

impl<S: OpSource> TracedOps<S> {
    pub fn new(inner: S) -> TracedOps<S> {
        TracedOps { inner }
    }
}

impl<S: OpSource> OpSource for TracedOps<S> {
    fn next_miss(&mut self, site: SiteId, core: usize) -> Option<NextMiss> {
        let _s = span(WORKLOADS_NEXT_MISS);
        self.inner.next_miss(site, core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_match_names() {
        for (ids, layer) in [(&NETWORKS, "networks"), (&FAULTS, "faults")] {
            assert_eq!(ids.inject, id(&format!("{layer}.inject")));
            assert_eq!(ids.next_event, id(&format!("{layer}.next_event")));
            assert_eq!(ids.advance, id(&format!("{layer}.advance")));
            assert_eq!(ids.drain, id(&format!("{layer}.drain")));
            assert_eq!(ids.other, id(&format!("{layer}.other")));
        }
        for (ids, layer, emit) in [
            (&WORKLOADS, "workloads", "emit"),
            (&COHERENCE, "coherence", "emit"),
            (&REPLAY, "replay", "decode"),
        ] {
            assert_eq!(ids.next_emission, id(&format!("{layer}.next_emission")));
            assert_eq!(ids.emit, id(&format!("{layer}.{emit}")));
            assert_eq!(ids.other, id(&format!("{layer}.other")));
        }
        assert_eq!(COHERENCE.on_delivered, id("coherence.deliver"));
        assert_eq!(WORKLOADS.on_delivered, id("workloads.on_delivered"));
        assert_eq!(REPLAY.on_delivered, id("replay.on_delivered"));
        assert_eq!(RUNNER_DRIVE, id("runner.drive"));
        assert_eq!(WORKLOADS_NEXT_MISS, id("workloads.next_miss"));
        assert_eq!(REPLAY_CAPTURE, id("replay.capture"));
        assert_eq!(SERVE_SUBMIT, id("serve.submit"));
        assert_eq!(SERVE_STATUS, id("serve.status"));
        assert_eq!(SERVE_RESULT, id("serve.result"));
        assert_eq!(CAMPAIGN_RUN_POINT, id("campaign.run_point"));
    }

    #[test]
    fn self_time_excludes_children() {
        start(16);
        {
            let _outer = span(RUNNER_DRIVE);
            let _inner = span(NETWORKS.advance);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let rec = finish().expect("installed");
        let outer = rec.get(RUNNER_DRIVE);
        let inner = rec.get(NETWORKS.advance);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.under_runner, 1);
        assert!(inner.self_ns >= 2_000_000);
        assert!(outer.self_ns < inner.self_ns);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(rec.chrome_trace_json().contains("\"parent\":0"));
    }

    #[test]
    fn spans_are_free_without_a_recorder() {
        let g = span(RUNNER_DRIVE);
        assert!(!g.active);
        assert!(finish().is_none());
    }
}
