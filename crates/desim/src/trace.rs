//! Structured event tracing — the simulator's flight recorder.
//!
//! Every layer of the stack (runner, networks, coherence engine) carries a
//! [`Tracer`] handle and emits [`TraceEvent`]s at the points where packets
//! change state: injection, stalls and retries, arbitration, token and
//! circuit ownership, per-hop forwarding, delivery, and coherence-protocol
//! state transitions.
//!
//! The design goal is **zero cost when disabled**: a disabled [`Tracer`]
//! holds no sink, [`Tracer::emit`] is one branch on an `Option`, and the
//! event-construction closure is never evaluated. Enabled tracers write to
//! a [`TraceSink`]; the bundled [`RingSink`] keeps a bounded in-memory
//! window of the most recent events, and [`chrome_trace_json`] exports
//! recorded events as Chrome-trace-event JSON loadable at
//! `ui.perfetto.dev`.
//!
//! # Example
//!
//! ```
//! use desim::trace::{RingSink, TraceEvent, Tracer};
//! use desim::Time;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let sink = Rc::new(RefCell::new(RingSink::new(1024)));
//! let tracer = Tracer::shared(&sink);
//! tracer.emit(Time::from_ns(5), || TraceEvent::Inject {
//!     packet: 0,
//!     src: 1,
//!     dst: 2,
//!     bytes: 64,
//! });
//! assert_eq!(sink.borrow().len(), 1);
//! ```

use crate::{Span, Time};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

/// One observable state change in the simulator.
///
/// Ids are raw integers rather than the typed ids of higher crates so that
/// `desim` stays dependency-free: `packet` is a `PacketId`'s inner value,
/// `src`/`dst`/`site` are site indices, `op` is a coherence-op id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet entered the network.
    Inject {
        packet: u64,
        src: usize,
        dst: usize,
        bytes: u32,
    },
    /// The network refused a packet (backpressure); the driver holds it.
    Stall { packet: u64, site: usize },
    /// A previously stalled packet was accepted on re-offer.
    Retry { packet: u64, site: usize },
    /// A packet posted an arbitration request for a shared channel.
    ArbRequest { packet: u64, site: usize },
    /// Arbitration granted the channel; `wasted_slots` counts the slots
    /// lost to conflicts before this grant.
    ArbGrant {
        packet: u64,
        site: usize,
        wasted_slots: u32,
    },
    /// A site captured the token for a destination's ring channel.
    TokenAcquire { dst: usize, holder: usize },
    /// The token moved on after the holder's burst.
    TokenRelease { dst: usize, holder: usize },
    /// A switched path finished setup end-to-end.
    CircuitSetup {
        circuit: u64,
        src: usize,
        dst: usize,
    },
    /// A switched path was torn down after carrying `packets` packets.
    /// The count is `u64` so a long-lived circuit can never truncate its
    /// accounting (the invariant auditor cross-checks it against per-packet
    /// deliveries).
    CircuitTeardown { circuit: u64, packets: u64 },
    /// A packet was forwarded through an intermediate site.
    Hop { packet: u64, at: usize },
    /// A packet reached its destination; `latency` is end-to-end.
    Deliver {
        packet: u64,
        src: usize,
        dst: usize,
        latency: Span,
    },
    /// A coherence-protocol state transition (e.g. `"S->M"`) for `op` at
    /// `site`.
    Coherence {
        op: u64,
        site: usize,
        transition: &'static str,
    },
    /// An injected fault took effect (`kind` is the fault's stable name,
    /// e.g. `"link-kill"`); `peer` is the far end for link faults, else 0.
    Fault {
        kind: &'static str,
        site: usize,
        peer: usize,
    },
    /// A previously injected fault was repaired or masked.
    Recover {
        kind: &'static str,
        site: usize,
        peer: usize,
    },
    /// A packet arrived corrupted (transient bit errors) and must be
    /// retransmitted.
    Corrupt { packet: u64, dst: usize },
    /// A packet was permanently dropped; `reason` is a stable short name
    /// (`"retries-exhausted"`, `"dead-site"`, …).
    Drop {
        packet: u64,
        site: usize,
        reason: &'static str,
    },
    /// A negative acknowledgement scheduled a bounded-backoff retry;
    /// `attempt` counts retransmissions of this packet so far.
    Nack {
        packet: u64,
        src: usize,
        attempt: u32,
    },
}

impl TraceEvent {
    /// Stable event name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Inject { .. } => "inject",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::ArbRequest { .. } => "arb-request",
            TraceEvent::ArbGrant { .. } => "arb-grant",
            TraceEvent::TokenAcquire { .. } => "token-acquire",
            TraceEvent::TokenRelease { .. } => "token-release",
            TraceEvent::CircuitSetup { .. } => "circuit-setup",
            TraceEvent::CircuitTeardown { .. } => "circuit-teardown",
            TraceEvent::Hop { .. } => "hop",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Coherence { .. } => "coherence",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Recover { .. } => "recover",
            TraceEvent::Corrupt { .. } => "corrupt",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Nack { .. } => "nack",
        }
    }

    /// The site index used as the export's thread lane, so Perfetto groups
    /// events by where they happened.
    fn lane(&self) -> usize {
        match *self {
            TraceEvent::Inject { src, .. } => src,
            TraceEvent::Stall { site, .. } => site,
            TraceEvent::Retry { site, .. } => site,
            TraceEvent::ArbRequest { site, .. } => site,
            TraceEvent::ArbGrant { site, .. } => site,
            TraceEvent::TokenAcquire { holder, .. } => holder,
            TraceEvent::TokenRelease { holder, .. } => holder,
            TraceEvent::CircuitSetup { src, .. } => src,
            TraceEvent::CircuitTeardown { .. } => 0,
            TraceEvent::Hop { at, .. } => at,
            TraceEvent::Deliver { dst, .. } => dst,
            TraceEvent::Coherence { site, .. } => site,
            TraceEvent::Fault { site, .. } => site,
            TraceEvent::Recover { site, .. } => site,
            TraceEvent::Corrupt { dst, .. } => dst,
            TraceEvent::Drop { site, .. } => site,
            TraceEvent::Nack { src, .. } => src,
        }
    }

    /// Writes the Chrome-trace `args` object for this event.
    fn write_args(&self, out: &mut String) {
        match *self {
            TraceEvent::Inject {
                packet,
                src,
                dst,
                bytes,
            } => {
                let _ = write!(
                    out,
                    "{{\"packet\":{packet},\"src\":{src},\"dst\":{dst},\"bytes\":{bytes}}}"
                );
            }
            TraceEvent::Stall { packet, site } | TraceEvent::Retry { packet, site } => {
                let _ = write!(out, "{{\"packet\":{packet},\"site\":{site}}}");
            }
            TraceEvent::ArbRequest { packet, site } => {
                let _ = write!(out, "{{\"packet\":{packet},\"site\":{site}}}");
            }
            TraceEvent::ArbGrant {
                packet,
                site,
                wasted_slots,
            } => {
                let _ = write!(
                    out,
                    "{{\"packet\":{packet},\"site\":{site},\"wasted_slots\":{wasted_slots}}}"
                );
            }
            TraceEvent::TokenAcquire { dst, holder } | TraceEvent::TokenRelease { dst, holder } => {
                let _ = write!(out, "{{\"dst\":{dst},\"holder\":{holder}}}");
            }
            TraceEvent::CircuitSetup { circuit, src, dst } => {
                let _ = write!(out, "{{\"circuit\":{circuit},\"src\":{src},\"dst\":{dst}}}");
            }
            TraceEvent::CircuitTeardown { circuit, packets } => {
                let _ = write!(out, "{{\"circuit\":{circuit},\"packets\":{packets}}}");
            }
            TraceEvent::Hop { packet, at } => {
                let _ = write!(out, "{{\"packet\":{packet},\"at\":{at}}}");
            }
            TraceEvent::Deliver {
                packet,
                src,
                dst,
                latency,
            } => {
                let _ = write!(
                    out,
                    "{{\"packet\":{packet},\"src\":{src},\"dst\":{dst},\"latency_ns\":{}}}",
                    latency.as_ns_f64()
                );
            }
            TraceEvent::Coherence {
                op,
                site,
                transition,
            } => {
                let _ = write!(
                    out,
                    "{{\"op\":{op},\"site\":{site},\"transition\":\"{}\"}}",
                    json_escape(transition)
                );
            }
            TraceEvent::Fault { kind, site, peer } | TraceEvent::Recover { kind, site, peer } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{}\",\"site\":{site},\"peer\":{peer}}}",
                    json_escape(kind)
                );
            }
            TraceEvent::Corrupt { packet, dst } => {
                let _ = write!(out, "{{\"packet\":{packet},\"dst\":{dst}}}");
            }
            TraceEvent::Drop {
                packet,
                site,
                reason,
            } => {
                let _ = write!(
                    out,
                    "{{\"packet\":{packet},\"site\":{site},\"reason\":\"{}\"}}",
                    json_escape(reason)
                );
            }
            TraceEvent::Nack {
                packet,
                src,
                attempt,
            } => {
                let _ = write!(
                    out,
                    "{{\"packet\":{packet},\"src\":{src},\"attempt\":{attempt}}}"
                );
            }
        }
    }
}

/// Receives timestamped events from a [`Tracer`].
pub trait TraceSink {
    fn record(&mut self, at: Time, event: TraceEvent);
}

/// A sink that discards everything; useful as an explicit placeholder where
/// an API requires a sink value (a disabled [`Tracer`] needs no sink at
/// all).
#[derive(Debug, Default, Clone, Copy)]
pub struct NopSink;

impl TraceSink for NopSink {
    fn record(&mut self, _at: Time, _event: TraceEvent) {}
}

/// A bounded in-memory ring buffer of the most recent events.
///
/// When the buffer is full the **oldest** event is dropped, so a
/// long-running simulation keeps the trailing window — the part that shows
/// why it ended up in its final state. Dropped events are counted.
#[derive(Debug)]
pub struct RingSink {
    events: VecDeque<(Time, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// The **logical** capacity is always honored exactly — a ring built
    /// with `capacity = 1 << 20` keeps 1 Mi events before dropping. Only
    /// the *eager pre-allocation* is clamped to 64 Ki entries, so a
    /// pathological capacity request cannot reserve gigabytes up front;
    /// beyond the clamp the deque grows on demand as events arrive. See
    /// `huge_capacity_is_honored_beyond_preallocation_clamp`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "RingSink capacity must be positive");
        RingSink {
            // Clamp bounds the up-front reservation only, never the ring.
            events: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(Time, TraceEvent)> {
        self.events.iter()
    }

    /// Copies the buffered events out, oldest first.
    pub fn snapshot(&self) -> Vec<(Time, TraceEvent)> {
        self.events.iter().copied().collect()
    }

    /// Merges another sink's recording into this one, keeping the merged
    /// stream ordered by timestamp (stable: on ties, this sink's events
    /// come first, then `other`'s, each in recording order).
    ///
    /// This is the parallel-campaign merge path: each worker records into
    /// its own `RingSink` (a [`Tracer`] is deliberately **not** `Send` —
    /// it shares its sink via `Rc`), and the per-worker sinks are absorbed
    /// into one recording afterwards. `RingSink` itself is `Send`, so
    /// whole sinks — or their [`RingSink::snapshot`]s — can cross thread
    /// boundaries. If the merged stream overflows this sink's capacity the
    /// oldest events are dropped and counted, as on the record path.
    pub fn absorb(&mut self, other: &RingSink) {
        let mut merged = VecDeque::with_capacity(self.events.len() + other.events.len());
        let mut a = self.events.iter().copied().peekable();
        let mut b = other.events.iter().copied().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&(ta, _)), Some(&(tb, _))) => {
                    if ta <= tb {
                        merged.push_back(a.next().expect("peeked"));
                    } else {
                        merged.push_back(b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => merged.push_back(a.next().expect("peeked")),
                (None, Some(_)) => merged.push_back(b.next().expect("peeked")),
                (None, None) => break,
            }
        }
        self.dropped += other.dropped;
        while merged.len() > self.capacity {
            merged.pop_front();
            self.dropped += 1;
        }
        self.events = merged;
    }
}

/// Compile-time audit of the tracing types' thread-safety contract, relied
/// on by the parallel campaign engine in higher crates:
///
/// * [`TraceEvent`] and recorded `(Time, TraceEvent)` streams are
///   `Send + Sync` — results can cross worker boundaries;
/// * [`RingSink`] and [`NopSink`] are `Send` — a worker-local sink can be
///   moved to the merge thread whole;
/// * [`Tracer`] is intentionally **not** `Send` (it shares its sink via
///   `Rc<RefCell<..>>` for single-threaded cheapness) — each worker must
///   construct its own, which is what keeps per-point recordings isolated
///   and the merged output deterministic.
#[allow(dead_code)]
fn _audit_send_bounds() {
    fn send_and_sync<T: Send + Sync>() {}
    fn send_only<T: Send>() {}
    send_and_sync::<TraceEvent>();
    send_and_sync::<Vec<(Time, TraceEvent)>>();
    send_only::<RingSink>();
    send_only::<NopSink>();
}

impl TraceSink for RingSink {
    fn record(&mut self, at: Time, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at, event));
    }
}

/// Fans one event stream out to several sinks, in registration order.
///
/// A [`Tracer`] carries exactly one sink, but some runs want two
/// independent consumers of the same stream — e.g. a [`RingSink`] keeping
/// the flight-recorder window *and* an invariant auditor checking every
/// event. Wrap both in a `TeeSink` and hand the tee to the tracer; each
/// inner sink keeps its own `Rc`, so the caller can still read either back
/// after the run.
///
/// # Example
///
/// ```
/// use desim::trace::{RingSink, TeeSink, TraceEvent, Tracer};
/// use desim::Time;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let ring = Rc::new(RefCell::new(RingSink::new(16)));
/// let mut tee = TeeSink::new();
/// tee.add(&ring);
/// let tracer = Tracer::new(tee);
/// tracer.emit(Time::ZERO, || TraceEvent::Stall { packet: 1, site: 0 });
/// assert_eq!(ring.borrow().len(), 1);
/// ```
#[derive(Default)]
pub struct TeeSink {
    sinks: Vec<Rc<RefCell<dyn TraceSink>>>,
}

impl TeeSink {
    /// Creates an empty tee (records nothing until sinks are added).
    pub fn new() -> TeeSink {
        TeeSink::default()
    }

    /// Registers a shared sink; the caller keeps its `Rc` to read the
    /// sink back after the run.
    pub fn add<S: TraceSink + 'static>(&mut self, sink: &Rc<RefCell<S>>) {
        self.sinks
            .push(Rc::clone(sink) as Rc<RefCell<dyn TraceSink>>);
    }

    /// Number of registered sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True if no sink is registered.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for TeeSink {
    fn record(&mut self, at: Time, event: TraceEvent) {
        for sink in &self.sinks {
            sink.borrow_mut().record(at, event);
        }
    }
}

/// A cheap, cloneable handle to an optional [`TraceSink`].
///
/// Cloning shares the sink, so the runner, a network and a coherence engine
/// can all write into one recording. The default handle is disabled:
/// [`Tracer::emit`] then reduces to a single `Option` branch and the event
/// closure is never evaluated, which keeps instrumented hot paths at their
/// un-instrumented cost.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl Tracer {
    /// A handle that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { sink: None }
    }

    /// A handle owning a fresh sink.
    pub fn new<S: TraceSink + 'static>(sink: S) -> Tracer {
        Tracer {
            sink: Some(Rc::new(RefCell::new(sink))),
        }
    }

    /// A handle sharing `sink`; the caller keeps its `Rc` to read the
    /// recording back after the run.
    pub fn shared<S: TraceSink + 'static>(sink: &Rc<RefCell<S>>) -> Tracer {
        Tracer {
            sink: Some(Rc::clone(sink) as Rc<RefCell<dyn TraceSink>>),
        }
    }

    /// True if events will be recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event produced by `event` at simulation time `at`.
    ///
    /// The closure is only evaluated when the tracer is enabled, so callers
    /// may compute event fields inside it without cost in the disabled
    /// case.
    #[inline]
    pub fn emit(&self, at: Time, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            let _span = crate::prof::span(crate::prof::Site::TraceFanout);
            sink.borrow_mut().record(at, event());
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Escapes a string for embedding in JSON: quotes, backslashes and
/// control characters. The one escaper behind every hand-rolled JSON
/// writer in the workspace (traces, metrics, the serve protocol).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Exports recorded events as Chrome-trace-event JSON (the "JSON array
/// format"), loadable at `ui.perfetto.dev` or `chrome://tracing`.
///
/// Each `(name, events)` section becomes its own process (`pid`), labelled
/// with a `process_name` metadata record, so a sweep can pack one section
/// per load point into a single file. Within a section, events land on the
/// thread lane (`tid`) of the site where they happened. Deliveries are
/// emitted as complete (`"ph":"X"`) spans covering the packet's lifetime;
/// everything else is an instant (`"ph":"i"`).
///
/// Timestamps are microseconds of simulation time, as the format requires.
pub fn chrome_trace_json(sections: &[(String, Vec<(Time, TraceEvent)>)]) -> String {
    let mut out = String::new();
    out.push('[');
    let mut first = true;
    let mut push_record = |out: &mut String, record: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&record);
    };
    for (index, (name, events)) in sections.iter().enumerate() {
        let pid = index + 1;
        push_record(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
        );
        for &(at, event) in events {
            let mut record = String::with_capacity(128);
            let tid = event.lane();
            match event {
                TraceEvent::Deliver { latency, .. } => {
                    // A complete event spanning the packet's in-flight time.
                    let start = at - latency;
                    let _ = write!(
                        record,
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":",
                        event.name(),
                        start.as_us_f64(),
                        latency.as_ns_f64() / 1_000.0,
                    );
                }
                _ => {
                    let _ = write!(
                        record,
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":",
                        event.name(),
                        at.as_us_f64(),
                    );
                }
            }
            event.write_args(&mut record);
            record.push('}');
            push_record(&mut out, record);
        }
    }
    out.push_str("\n]\n");
    out
}

/// Validates that `s` is syntactically well-formed JSON.
///
/// The workspace hand-rolls all its JSON writers (there is no serde in the
/// dependency closure), so exporters and tests use this tiny
/// recursive-descent checker to guard against malformed output.
pub fn validate_json(s: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found {:?}",
                    c as char,
                    self.i,
                    self.peek().map(|b| b as char)
                ))
            }
        }
        fn value(&mut self) -> Result<(), String> {
            self.ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string(),
                Some(b't') => self.literal("true"),
                Some(b'f') => self.literal("false"),
                Some(b'n') => self.literal("null"),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!("unexpected {other:?} at byte {}", self.i)),
            }
        }
        fn literal(&mut self, lit: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.peek() == Some(b'.') {
                self.i += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                self.i += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.i += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            if self.i == start {
                Err(format!("empty number at byte {start}"))
            } else {
                Ok(())
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(c) = self.peek() {
                self.i += 1;
                match c {
                    b'"' => return Ok(()),
                    b'\\' => {
                        self.i += 1; // skip the escaped character
                    }
                    _ => {}
                }
            }
            Err("unterminated string".into())
        }
        fn object(&mut self) -> Result<(), String> {
            self.eat(b'{')?;
            self.ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.ws();
                self.string()?;
                self.ws();
                self.eat(b':')?;
                self.value()?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    other => return Err(format!("bad object separator {other:?}")),
                }
            }
        }
        fn array(&mut self) -> Result<(), String> {
            self.eat(b'[')?;
            self.ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.value()?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(());
                    }
                    other => return Err(format!("bad array separator {other:?}")),
                }
            }
        }
    }
    let mut p = P {
        b: s.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(packet: u64) -> TraceEvent {
        TraceEvent::Inject {
            packet,
            src: 0,
            dst: 1,
            bytes: 64,
        }
    }

    #[test]
    fn disabled_tracer_never_evaluates_the_closure() {
        let tracer = Tracer::disabled();
        let mut evaluated = false;
        tracer.emit(Time::ZERO, || {
            evaluated = true;
            ev(0)
        });
        assert!(!evaluated);
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn shared_tracer_records_into_the_callers_sink() {
        let sink = Rc::new(RefCell::new(RingSink::new(8)));
        let tracer = Tracer::shared(&sink);
        let clone = tracer.clone();
        tracer.emit(Time::from_ns(1), || ev(0));
        clone.emit(Time::from_ns(2), || ev(1));
        let events = sink.borrow().snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].0, Time::from_ns(1));
        assert_eq!(events[1].1, ev(1));
    }

    #[test]
    fn absorb_merges_time_ordered_and_respects_capacity() {
        let mut a = RingSink::new(16);
        let mut b = RingSink::new(16);
        for i in [0u64, 2, 4] {
            a.record(Time::from_ns(i), ev(i));
        }
        for i in [1u64, 2, 3] {
            b.record(Time::from_ns(i), ev(100 + i));
        }
        a.absorb(&b);
        let times: Vec<u64> = a.events().map(|&(t, _)| t.as_ps() / 1000).collect();
        assert_eq!(times, vec![0, 1, 2, 2, 3, 4]);
        // Stable on ties: the absorbing sink's event at t=2 precedes the
        // absorbed one.
        let packets: Vec<u64> = a
            .events()
            .map(|&(_, e)| match e {
                TraceEvent::Inject { packet, .. } => packet,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(packets, vec![0, 101, 2, 102, 103, 4]);

        // Overflow drops oldest and counts them.
        let mut small = RingSink::new(2);
        small.record(Time::from_ns(9), ev(9));
        small.absorb(&a);
        assert_eq!(small.len(), 2);
        assert_eq!(small.dropped(), 5);
    }

    #[test]
    fn tee_sink_fans_out_to_every_registered_sink() {
        let a = Rc::new(RefCell::new(RingSink::new(8)));
        let b = Rc::new(RefCell::new(RingSink::new(8)));
        let mut tee = TeeSink::new();
        assert!(tee.is_empty());
        tee.add(&a);
        tee.add(&b);
        assert_eq!(tee.len(), 2);
        let tracer = Tracer::new(tee);
        tracer.emit(Time::from_ns(3), || ev(7));
        assert_eq!(a.borrow().snapshot(), b.borrow().snapshot());
        assert_eq!(a.borrow().len(), 1);
    }

    #[test]
    fn ring_sink_drops_oldest_when_full() {
        let mut ring = RingSink::new(3);
        for i in 0..5u64 {
            ring.record(Time::from_ns(i), ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring
            .events()
            .map(|&(_, e)| match e {
                TraceEvent::Inject { packet, .. } => packet,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn huge_capacity_is_honored_beyond_preallocation_clamp() {
        // The constructor clamps only the eager reservation (64 Ki); the
        // ring itself must keep every event up to the requested capacity.
        let requested = (1 << 16) + 4_096;
        let mut ring = RingSink::new(requested);
        for i in 0..requested as u64 {
            ring.record(Time::from_ns(i), ev(i));
        }
        assert_eq!(ring.len(), requested, "capacity clamped logically");
        assert_eq!(ring.dropped(), 0, "no drops below requested capacity");
        ring.record(Time::from_ns(requested as u64), ev(requested as u64));
        assert_eq!(ring.len(), requested);
        assert_eq!(ring.dropped(), 1, "drop starts exactly at capacity");
    }

    #[test]
    fn chrome_export_is_valid_json_with_required_fields() {
        let events = vec![
            (Time::from_ns(0), ev(0)),
            (
                Time::from_ns(5),
                TraceEvent::ArbGrant {
                    packet: 0,
                    site: 0,
                    wasted_slots: 2,
                },
            ),
            (
                Time::from_ns(20),
                TraceEvent::Deliver {
                    packet: 0,
                    src: 0,
                    dst: 1,
                    latency: Span::from_ns(20),
                },
            ),
            (
                Time::from_ns(21),
                TraceEvent::Coherence {
                    op: 7,
                    site: 1,
                    transition: "I->M",
                },
            ),
        ];
        let json = chrome_trace_json(&[("two-phase @ 10%".to_string(), events)]);
        validate_json(&json).expect("exporter must emit well-formed JSON");
        assert!(json.trim_start().starts_with('['));
        for field in [
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ts\":",
            "\"dur\":",
            "\"name\":\"deliver\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // The deliver span starts at delivery minus latency.
        assert!(json.contains("\"ts\":0,\"dur\":0.02"));
    }

    #[test]
    fn chrome_export_separates_sections_by_pid() {
        let a = vec![(Time::ZERO, ev(0))];
        let b = vec![(Time::ZERO, ev(1))];
        let json = chrome_trace_json(&[("a".to_string(), a), ("b".to_string(), b)]);
        validate_json(&json).unwrap();
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        assert_eq!(json.matches("process_name").count(), 2);
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json("{\"a\": [1, 2.5, -3e4, true, null, \"x\\\"y\"]}").is_ok());
        assert!(validate_json("[1, 2,]").is_err());
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("[1] trailing").is_err());
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(ev(0).name(), "inject");
        assert_eq!(
            TraceEvent::TokenAcquire { dst: 0, holder: 1 }.name(),
            "token-acquire"
        );
        assert_eq!(
            TraceEvent::Fault {
                kind: "link-kill",
                site: 0,
                peer: 1
            }
            .name(),
            "fault"
        );
        assert_eq!(
            TraceEvent::Nack {
                packet: 0,
                src: 0,
                attempt: 1
            }
            .name(),
            "nack"
        );
    }

    #[test]
    fn fault_events_export_as_valid_json() {
        let events = vec![
            (
                Time::from_ns(1),
                TraceEvent::Fault {
                    kind: "link-kill",
                    site: 3,
                    peer: 17,
                },
            ),
            (Time::from_ns(2), TraceEvent::Corrupt { packet: 9, dst: 4 }),
            (
                Time::from_ns(3),
                TraceEvent::Nack {
                    packet: 9,
                    src: 0,
                    attempt: 2,
                },
            ),
            (
                Time::from_ns(4),
                TraceEvent::Drop {
                    packet: 9,
                    site: 0,
                    reason: "retries-exhausted",
                },
            ),
            (
                Time::from_ns(5),
                TraceEvent::Recover {
                    kind: "link-kill",
                    site: 3,
                    peer: 17,
                },
            ),
        ];
        let json = chrome_trace_json(&[("faulted".to_string(), events)]);
        validate_json(&json).expect("fault events must export as valid JSON");
        for field in [
            "\"name\":\"fault\"",
            "\"name\":\"recover\"",
            "\"name\":\"corrupt\"",
            "\"name\":\"drop\"",
            "\"name\":\"nack\"",
            "\"reason\":\"retries-exhausted\"",
        ] {
            assert!(json.contains(field), "missing {field}");
        }
    }
}
