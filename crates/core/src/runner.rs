//! The simulation driver: couples a [`PacketSource`] to a [`Network`].

use desim::prof::{self, Counter, Site};
use desim::{Time, TraceEvent, Tracer};
use netcore::{Admission, Network, ObservedSource, Packet, PacketSource};
use std::collections::VecDeque;

/// Bounds on a driven run.
#[derive(Debug, Clone, Copy)]
pub struct DriveLimits {
    /// Hard stop; events after this instant are not processed.
    pub deadline: Time,
    /// If this many packets are waiting for injection (backpressure), the
    /// run is declared saturated and stops early.
    pub max_stalled: usize,
}

impl DriveLimits {
    /// Limits for the standard open-loop shape: generate traffic for
    /// `sim`, then allow `drain` extra time for in-flight packets, with
    /// `max_stalled` as the saturation bound.
    pub fn for_window(sim: desim::Span, drain: desim::Span, max_stalled: usize) -> DriveLimits {
        DriveLimits {
            deadline: Time::ZERO + sim + drain,
            max_stalled,
        }
    }
}

impl Default for DriveLimits {
    fn default() -> DriveLimits {
        DriveLimits {
            deadline: Time::MAX,
            max_stalled: 5_000,
        }
    }
}

/// How a driven run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulation time when the run stopped.
    pub end: Time,
    /// The run hit the stalled-packet bound (the network could not absorb
    /// the offered traffic).
    pub saturated: bool,
    /// The run hit the deadline with work still pending.
    pub timed_out: bool,
}

/// Drives `net` with packets from `source` until both are exhausted, the
/// deadline passes, or saturation is declared.
///
/// Injection is retried for packets refused under backpressure: they wait
/// in a stall queue (preserving per-flow order of retry attempts) and up
/// to 64 of them, oldest first, are re-offered after every event. A
/// packet is only actually offered again once its source may admit it:
/// when the network keeps admission epochs
/// ([`Network::admission_epochs`]), a packet whose source's epoch has not
/// moved since its last refusal is certain to be refused again, so the
/// driver skips the call, rotates it to the back of the queue as a
/// refusal would, and reports the skipped refusal to
/// [`Network::count_skipped_refusals`]. Results are byte-identical to
/// offering every packet. Their latency clock keeps running from
/// `Packet::created`, so stalling shows up in the measured latency exactly
/// as source queueing would.
///
/// # Example
///
/// ```
/// use desim::Time;
/// use macrochip::runner::{drive, DriveLimits};
/// use netcore::{Grid, MacrochipConfig, Network, NetworkKind, PacketSource};
/// use workloads::{OpenLoopTraffic, Pattern};
///
/// let config = MacrochipConfig::scaled();
/// let mut net = networks::build(NetworkKind::PointToPoint, config);
/// let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform,
///                                        0.05, 320.0, 64, 7);
/// traffic.set_horizon(Time::from_ns(500));
/// let outcome = drive(net.as_mut(), &mut traffic, DriveLimits::default());
/// assert!(!outcome.saturated);
/// assert!(net.stats().delivered_packets() > 0);
/// ```
pub fn drive(
    net: &mut dyn Network,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
) -> RunOutcome {
    drive_traced(net, source, limits, Tracer::disabled())
}

/// [`drive`] with a flight-recorder handle.
///
/// The driver itself emits [`TraceEvent::Stall`] when the network first
/// refuses a packet and [`TraceEvent::Retry`] when a stalled packet is
/// finally accepted on re-offer; everything in between comes from the
/// network's own instrumentation (the tracer is **not** forwarded to the
/// network here — callers attach it via [`Network::set_tracer`] so the two
/// layers can share one sink).
/// [`drive_traced`] with a capture hook: `observer` is called for every
/// packet the source emits, in emission order, before the network sees it.
///
/// This is how trace capture taps the runner — a
/// [`replay::CaptureSink`]-backed closure records each injected packet
/// without perturbing the run (the observer cannot reorder, drop or delay
/// packets; it only watches). Because the driver visits emissions in
/// event-time order, the observed stream is sorted by `Packet::created`.
pub fn drive_observed<F: FnMut(&Packet)>(
    net: &mut dyn Network,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
    tracer: Tracer,
    observer: F,
) -> RunOutcome {
    let mut observed = ObservedSource::new(source, observer);
    drive_traced(net, &mut observed, limits, tracer)
}

pub fn drive_traced(
    net: &mut dyn Network,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
    tracer: Tracer,
) -> RunOutcome {
    // Host observability brackets: deltas (the network may be driven more
    // than once, e.g. by the sustained-bandwidth bisection) roll into the
    // process-wide prof counters when the run ends. None of this touches
    // simulation state — profiling on or off, results are byte-identical.
    let events_before = net.events_processed();
    let packets_before = net.stats().delivered_packets();
    let mut stalled = StallQueue::default();
    let outcome = drive_loop(net, source, limits, tracer, &mut stalled);
    prof::add(Counter::ReoffersMade, stalled.made);
    prof::add(Counter::ReoffersSkipped, stalled.skipped);
    prof::add(
        Counter::SimEvents,
        net.events_processed().saturating_sub(events_before),
    );
    prof::add(
        Counter::Packets,
        net.stats()
            .delivered_packets()
            .saturating_sub(packets_before),
    );
    prof::note_sim_time(outcome.end.as_ps());
    prof::flush();
    outcome
}

/// Most stalled packets re-offered per driver iteration, so a saturated run
/// stays O(events) instead of O(events x stalls).
const REOFFER_BATCH: usize = 64;

/// A refused packet and its source's admission key when it was refused.
struct Stalled {
    packet: Packet,
    key: u64,
}

/// The driver's FIFO of refused packets, with the bookkeeping that lets a
/// pass skip packets whose source cannot admit them yet.
///
/// A packet is *asleep* when its source's admission key still equals the
/// key it was refused at: offering it again is certain to fail. Per
/// source site, `asleep[s]` counts the stalled packets refused at key
/// `snap[s]`; a site whose key moved is re-snapped and its count zeroed,
/// since every packet refused there before may now be accepted. When the
/// network's generation has not moved and every stalled packet is asleep,
/// a pass is a rotation of slot indices — no packet is touched.
#[derive(Default)]
struct StallQueue {
    /// Re-offer order, as indices into `slots`.
    order: VecDeque<u32>,
    slots: Vec<Option<Stalled>>,
    free: Vec<u32>,
    snap: Vec<u64>,
    asleep: Vec<u32>,
    /// Sites that may have asleep packets (each listed once; one whose
    /// count dropped to zero leaves at the next refresh).
    sleeping: Vec<u32>,
    listed: Vec<bool>,
    asleep_total: usize,
    /// Network generation the sleeping sites were last checked against.
    generation: Option<u64>,
    /// Re-offers made and skipped, for the host counters.
    made: u64,
    skipped: u64,
}

impl StallQueue {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Appends a packet the network just refused.
    fn push(&mut self, packet: Packet, admission: Option<Admission<'_>>) {
        let key = admission.map_or(0, |a| {
            let site = packet.src.index();
            let key = a.key(site);
            self.sleep(site, key, a.sites.len());
            key
        });
        let stalled = Some(Stalled { packet, key });
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = stalled;
                idx
            }
            None => {
                self.slots.push(stalled);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 stalled packets")
            }
        };
        self.order.push_back(idx);
    }

    /// Brings `site`'s snapshot up to `key`: if the key moved, every
    /// packet refused there before is awake.
    fn freshen(&mut self, site: usize, key: u64) {
        if self.snap[site] != key {
            self.snap[site] = key;
            self.asleep_total -= self.asleep[site] as usize;
            self.asleep[site] = 0;
        }
    }

    /// Counts one more packet of `site` refused at `key`.
    fn sleep(&mut self, site: usize, key: u64, sites: usize) {
        if self.snap.len() < sites {
            self.snap.resize(sites, 0);
            self.asleep.resize(sites, 0);
            self.listed.resize(sites, false);
        }
        self.freshen(site, key);
        self.asleep[site] += 1;
        self.asleep_total += 1;
        if !self.listed[site] {
            self.listed[site] = true;
            self.sleeping.push(site as u32);
        }
    }

    /// Re-checks the sleeping sites against `admission` unless nothing
    /// has changed since the last check.
    fn refresh(&mut self, admission: Admission<'_>) {
        if self.generation == Some(admission.generation) {
            return;
        }
        self.generation = Some(admission.generation);
        let mut sleeping = std::mem::take(&mut self.sleeping);
        sleeping.retain(|&s| {
            let s = s as usize;
            self.freshen(s, admission.key(s));
            let keep = self.asleep[s] > 0;
            self.listed[s] = keep;
            keep
        });
        self.sleeping = sleeping;
    }

    /// One re-offer pass: the oldest [`REOFFER_BATCH`] packets, FIFO.
    /// Accepted packets leave; refused (or skipped) ones go to the back.
    fn reoffer(&mut self, net: &mut dyn Network, now: Time, tracer: &Tracer) {
        let window = self.len().min(REOFFER_BATCH);
        if let Some(admission) = net.admission_epochs() {
            self.refresh(admission);
            if self.asleep_total == self.len() {
                // Nothing can be admitted: the pass would refuse every
                // packet it offers.
                self.order.rotate_left(window);
                self.skipped += window as u64;
                net.count_skipped_refusals(window as u64);
                return;
            }
        }
        let mut skipped = 0;
        for _ in 0..window {
            let idx = self.order.pop_front().expect("len checked");
            let slot = &self.slots[idx as usize];
            let (site, refused_at) = slot
                .as_ref()
                .map(|s| (s.packet.src.index(), s.key))
                .expect("queued slot is full");
            if let Some(key) = net.admission_epochs().map(|a| a.key(site)) {
                self.freshen(site, key);
                if refused_at == key {
                    skipped += 1;
                    self.order.push_back(idx);
                    continue;
                }
            }
            let p = self.slots[idx as usize]
                .take()
                .expect("queued slot is full")
                .packet;
            self.made += 1;
            // The packet is moved into the network, so its trace fields
            // are copied out beforehand — only when the flight recorder
            // is attached.
            let retry_fields = tracer.is_enabled().then(|| (p.id.0, p.src.index()));
            match net.inject(p, now) {
                Ok(()) => {
                    self.free.push(idx);
                    if let Some((id, src)) = retry_fields {
                        tracer.emit(now, || TraceEvent::Retry {
                            packet: id,
                            site: src,
                        });
                    }
                }
                Err(back) => {
                    let admission = net.admission_epochs();
                    let key = admission.map_or(0, |a| {
                        let key = a.key(site);
                        self.sleep(site, key, a.sites.len());
                        key
                    });
                    self.slots[idx as usize] = Some(Stalled { packet: back, key });
                    self.order.push_back(idx);
                }
            }
        }
        if skipped > 0 {
            self.skipped += skipped;
            net.count_skipped_refusals(skipped);
        }
    }
}

/// The event loop behind [`drive_traced`]. After every network event it
/// makes one re-offer pass over `stalled` ([`StallQueue::reoffer`]): the
/// oldest 64 packets, FIFO, each offered again only if its source's
/// admission key moved since it was refused — every one of them when the
/// network keeps no admission epochs.
fn drive_loop(
    net: &mut dyn Network,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
    tracer: Tracer,
    stalled: &mut StallQueue,
) -> RunOutcome {
    let mut emissions: Vec<Packet> = Vec::new();
    let mut delivered: Vec<Packet> = Vec::new();
    let mut now = Time::ZERO;
    let mut iterations: u32 = 0;
    // An open-loop source cannot change its schedule on a delivery, so a
    // batch-capable network may be advanced through every event up to the
    // next emission in one call instead of one driver iteration per event.
    // Stalled packets force the per-event path: a re-offer pass follows
    // every network event, and that retry cadence is part of the results.
    let batchable = net.supports_batched_advance() && !source.reacts_to_delivery();

    loop {
        let _dispatch = prof::span(Site::Dispatch);
        iterations = iterations.wrapping_add(1);
        if iterations.is_multiple_of(4096) {
            prof::note_sim_time(now.as_ps());
        }
        let t_src = source.next_emission();
        let t_net = net.next_event();
        let t = match (t_src, t_net) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => {
                // Nothing scheduled anywhere. Stalled packets with no
                // pending network event would mean a deadlock; networks
                // always have events while their queues are full.
                debug_assert!(stalled.is_empty(), "stalled packets with an idle network");
                return RunOutcome {
                    end: now,
                    saturated: false,
                    timed_out: false,
                };
            }
        };
        if t > limits.deadline {
            return RunOutcome {
                end: limits.deadline,
                saturated: false,
                timed_out: true,
            };
        }
        now = t;

        let mut advanced = false;
        if batchable && stalled.is_empty() {
            // Sweep the network through every event up to the next
            // emission instant (or the deadline) in one call, then inject
            // at that instant in the *same* iteration — one driver
            // iteration per emission instant instead of one per event.
            // Each event still runs at its own timestamp inside
            // `advance`, and events at the emission instant are processed
            // before the injection, so results match the per-event path
            // exactly.
            match t_src {
                Some(ts) if ts <= limits.deadline => {
                    if t_net.is_some_and(|tn| tn <= ts) {
                        let _step = prof::span(Site::NetworkStep);
                        net.advance(ts);
                        advanced = true;
                    }
                    now = ts;
                }
                // No further emissions inside the window: run the network
                // dry up to the deadline and read the clock back.
                _ => {
                    if t_net.is_some_and(|tn| tn <= limits.deadline) {
                        {
                            let _step = prof::span(Site::NetworkStep);
                            net.advance(limits.deadline);
                        }
                        advanced = true;
                        now = net.last_event_time().expect("events were due");
                    }
                }
            }
        } else {
            let _step = prof::span(Site::NetworkStep);
            net.advance(now);
            advanced = true;
        }
        // Deliveries only happen inside `advance`; an emission-only
        // iteration has nothing to drain.
        if advanced {
            let _drain = prof::span(Site::Drain);
            delivered.clear();
            net.drain_delivered_into(&mut delivered);
            for p in &delivered {
                source.on_delivered(p, now);
            }
        }

        if !stalled.is_empty() {
            let _inject = prof::span(Site::Inject);
            stalled.reoffer(net, now, &tracer);
        }

        // Emissions are due only when the clock reached the next emission
        // instant (on pure event iterations `emit_due` would be a no-op).
        if t_src.is_some_and(|ts| ts <= now) {
            emissions.clear();
            {
                let _emit = prof::span(Site::SourceEmit);
                source.emit_due(now, &mut emissions);
            }
            let _inject = prof::span(Site::Inject);
            for p in emissions.drain(..) {
                if let Err(back) = net.inject(p, now) {
                    tracer.emit(now, || TraceEvent::Stall {
                        packet: back.id.0,
                        site: back.src.index(),
                    });
                    stalled.push(back, net.admission_epochs());
                }
            }
        }

        if stalled.len() > limits.max_stalled {
            return RunOutcome {
                end: now,
                saturated: true,
                timed_out: false,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::{MacrochipConfig, NetworkKind};
    use workloads::{OpenLoopTraffic, Pattern};

    fn run(kind: NetworkKind, load: f64, horizon_ns: u64) -> (RunOutcome, u64, u64) {
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(kind, config);
        let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, load, 320.0, 64, 11);
        traffic.set_horizon(Time::from_ns(horizon_ns));
        let outcome = drive(net.as_mut(), &mut traffic, DriveLimits::default());
        let delivered = net.stats().delivered_packets();
        (outcome, traffic.emitted(), delivered)
    }

    #[test]
    fn light_load_delivers_everything() {
        let (outcome, emitted, delivered) = run(NetworkKind::PointToPoint, 0.05, 1_000);
        assert!(!outcome.saturated && !outcome.timed_out);
        assert_eq!(emitted, delivered);
        assert!(emitted > 1_000);
    }

    #[test]
    fn every_network_drains_a_light_uniform_load() {
        for kind in NetworkKind::ALL {
            let (outcome, emitted, delivered) = run(kind, 0.01, 500);
            assert!(!outcome.saturated, "{kind} saturated at 1% load");
            assert_eq!(emitted, delivered, "{kind} lost packets");
        }
    }

    #[test]
    fn deadline_cuts_the_run() {
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(NetworkKind::PointToPoint, config);
        let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, 0.1, 320.0, 64, 3);
        let outcome = drive(
            net.as_mut(),
            &mut traffic,
            DriveLimits {
                deadline: Time::from_ns(200),
                max_stalled: 1_000_000,
            },
        );
        assert!(outcome.timed_out);
        assert_eq!(outcome.end, Time::from_ns(200));
    }

    #[test]
    fn overload_is_declared_saturated() {
        // The circuit-switched network cannot take uniform traffic at 50%
        // of peak (its sustainable share is ~2.5%).
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(NetworkKind::CircuitSwitched, config);
        let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, 0.5, 320.0, 64, 5);
        traffic.set_horizon(Time::from_us(50));
        let outcome = drive(
            net.as_mut(),
            &mut traffic,
            DriveLimits {
                deadline: Time::MAX,
                max_stalled: 2_000,
            },
        );
        assert!(outcome.saturated);
    }

    #[test]
    fn stalled_latency_counts_from_creation() {
        // Saturate one p2p channel; late packets must include their stall
        // time in measured latency.
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(NetworkKind::PointToPoint, config);
        struct Burst(Vec<netcore::Packet>);
        impl PacketSource for Burst {
            fn next_emission(&self) -> Option<Time> {
                self.0.last().map(|p| p.created)
            }
            fn emit_due(&mut self, now: Time, out: &mut Vec<netcore::Packet>) {
                while self.0.last().is_some_and(|p| p.created <= now) {
                    out.push(self.0.pop().expect("checked"));
                }
            }
            fn on_delivered(&mut self, _: &netcore::Packet, _: Time) {}
            fn is_exhausted(&self) -> bool {
                self.0.is_empty()
            }
        }
        let g = config.grid;
        let packets: Vec<_> = (0..40)
            .map(|i| {
                netcore::Packet::new(
                    netcore::PacketId(i),
                    g.site(0, 0),
                    g.site(1, 0),
                    64,
                    netcore::MessageKind::Data,
                    Time::ZERO,
                )
            })
            .rev()
            .collect();
        let mut src = Burst(packets);
        drive(net.as_mut(), &mut src, DriveLimits::default());
        let stats = net.stats();
        assert_eq!(stats.delivered_packets(), 40);
        // 40 packets at 12.8 ns serialization each: the last one waited
        // ~500 ns even though the channel queue holds only 16.
        assert!(stats.latency().max().as_ns_f64() > 400.0);
    }
}
