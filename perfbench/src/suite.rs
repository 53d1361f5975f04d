//! The four workloads: their fixed operation lists, derived from the
//! benchmark seed, and one measured pass over each list.

use crate::hostspeed;
use crate::serving::ServeStats;
use crate::sim::{self, Op, OpResult};
use crate::span;
use crate::stats::{median, Fnv};
use desim::Span;
use netcore::NetworkKind;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{AppProfile, Pattern};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "chip-sweep",
    "board-neighbor",
    "coherent-replay",
    "campaign-serve",
];

/// Patterns of the single-chip sweep.
pub const CHIP_PATTERNS: [Pattern; 2] = [Pattern::Uniform, Pattern::Neighbor];

/// Seeds per configuration in `chip-sweep` and `board-neighbor`.
const SEEDS_PER_POINT: u64 = 2;

/// Packets each `chip-sweep` point offers: the generation window is sized
/// from the load so every network carries a similar packet count.
const CHIP_PACKETS: f64 = 40_000.0;

/// Board sizes of `board-neighbor` (chips per side); 1 is the reference.
pub const BOARD_CHIPS: [usize; 3] = [1, 2, 4];

/// Networks of `board-neighbor`. Circuit-switched is left out: it
/// saturates on a 4×4 board even at 1% neighbor traffic.
pub const BOARD_KINDS: [NetworkKind; 5] = [
    NetworkKind::PointToPoint,
    NetworkKind::LimitedPointToPoint,
    NetworkKind::TokenRing,
    NetworkKind::TwoPhase,
    NetworkKind::Hierarchical,
];

/// Per-chip offered load of `board-neighbor`, equal at every board size:
/// 1%, except the hierarchical network, whose cluster rings saturate near
/// 1.4% on a 4×4 board.
pub fn board_load(kind: NetworkKind) -> f64 {
    if kind == NetworkKind::Hierarchical {
        0.005
    } else {
        0.01
    }
}

/// Generation window of every `board-neighbor` point.
pub const BOARD_WINDOW: Span = Span::from_ns(800);

/// Longest generation window of a `chip-sweep` point.
pub const CHIP_MAX_WINDOW: Span = Span::from_us(20);

/// Application models of `coherent-replay` (the Figure 7 suite; the
/// Fluidanimate entry is its densities kernel).
const APPS: [&str; 5] = ["Radix", "Barnes", "Blackscholes", "Densities", "Swaptions"];

/// Coherence operations per core in each coherent run.
const OPS_PER_CORE: u32 = 12;

/// Networks the coherent runs execute on; the first one's runs are
/// captured to `.mtrc`.
const COHERENT_KINDS: [NetworkKind; 3] = [
    NetworkKind::PointToPoint,
    NetworkKind::TokenRing,
    NetworkKind::CircuitSwitched,
];

/// Networks each captured trace is replayed through, bare.
const REPLAY_KINDS: [NetworkKind; 4] = [
    NetworkKind::LimitedPointToPoint,
    NetworkKind::TokenRing,
    NetworkKind::TwoPhaseAlt,
    NetworkKind::TwoPhase,
];

/// Networks each captured trace is replayed through under the fault plan.
const FAULTED_KINDS: [NetworkKind; 2] =
    [NetworkKind::PointToPoint, NetworkKind::LimitedPointToPoint];

/// Offered load of each single-chip point, about half the ceiling the
/// calibration measured for that network and pattern (see
/// `calibration.json`).
pub fn chip_load(kind: NetworkKind, pattern: Pattern) -> f64 {
    let neighbor = pattern == Pattern::Neighbor;
    match (kind, neighbor) {
        (NetworkKind::PointToPoint, false) => 0.46,
        (NetworkKind::PointToPoint, true) => 0.021,
        (NetworkKind::LimitedPointToPoint, false) => 0.23,
        (NetworkKind::LimitedPointToPoint, true) => 0.068,
        (NetworkKind::TokenRing, false) => 0.17,
        (NetworkKind::TokenRing, true) => 0.017,
        (NetworkKind::CircuitSwitched, false) => 0.0065,
        (NetworkKind::CircuitSwitched, true) => 0.021,
        (NetworkKind::TwoPhase, false) => 0.030,
        (NetworkKind::TwoPhase, true) => 0.029,
        (NetworkKind::TwoPhaseAlt, false) => 0.031,
        (NetworkKind::TwoPhaseAlt, true) => 0.029,
        (NetworkKind::Hierarchical, false) => 0.0049,
        (NetworkKind::Hierarchical, true) => 0.0073,
    }
}

/// The seed of operation `index`, derived from the benchmark seed
/// (SplitMix64).
pub fn op_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generation window that makes a single-chip point at `load` offer about
/// [`CHIP_PACKETS`] packets (64 sites, 64-byte packets, 320 B/ns peak),
/// at most [`CHIP_MAX_WINDOW`].
fn chip_window(load: f64) -> Span {
    let ns = CHIP_PACKETS / (64.0 * load * 320.0 / 64.0);
    Span::from_ns_f64(ns.min(CHIP_MAX_WINDOW.as_ns_f64()))
}

pub fn chip_sweep_ops(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for s in 0..SEEDS_PER_POINT {
        for kind in NetworkKind::ALL {
            for pattern in CHIP_PATTERNS {
                let load = chip_load(kind, pattern);
                ops.push(Op::Open {
                    kind,
                    pattern,
                    load,
                    chips: 1,
                    sim: chip_window(load),
                    seed: op_seed(seed, ops.len() as u64 + 1000 * s),
                });
            }
        }
    }
    ops
}

pub fn board_ops(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..SEEDS_PER_POINT {
        for kind in BOARD_KINDS {
            for chips in BOARD_CHIPS {
                ops.push(Op::Open {
                    kind,
                    pattern: Pattern::Neighbor,
                    load: board_load(kind),
                    chips,
                    sim: BOARD_WINDOW,
                    seed: op_seed(seed, ops.len() as u64),
                });
            }
        }
    }
    ops
}

fn app(name: &str) -> AppProfile {
    AppProfile::suite()
        .into_iter()
        .find(|p| p.name == name)
        .expect("known application model")
        .with_ops_per_core(OPS_PER_CORE)
}

pub fn coherent_ops(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for (slot, name) in APPS.iter().enumerate() {
        let app_seed = op_seed(seed, slot as u64);
        for (k, kind) in COHERENT_KINDS.into_iter().enumerate() {
            ops.push(Op::Coherent {
                kind,
                app: app(name),
                seed: app_seed,
                capture: (k == 0).then_some(slot),
            });
        }
    }
    for slot in 0..APPS.len() {
        for kind in REPLAY_KINDS {
            ops.push(Op::Replay {
                kind,
                trace: slot,
                faulted: false,
                seed: 0,
            });
        }
        for kind in FAULTED_KINDS {
            ops.push(Op::Replay {
                kind,
                trace: slot,
                faulted: true,
                seed: op_seed(seed, 100 + ops.len() as u64),
            });
        }
    }
    ops
}

/// One pass over a workload's operation list.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time spent building the pass's inputs, outside every op.
    pub setup_s: f64,
    /// Host latency of each operation.
    pub op_ms: Vec<f64>,
    /// Host-speed probe times: one before the first operation and one
    /// after each operation.
    pub probe_ms: Vec<f64>,
    /// Set-up time of each simulation operation that ran.
    pub setup_ms: Vec<f64>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations whose checks failed.
    pub failed: usize,
    pub digest: u64,
    pub events: u64,
    pub packets: u64,
    /// Per-operation results (simulation workloads).
    pub results: Vec<(Op, OpResult)>,
    /// Request timings (`campaign-serve`).
    pub serve: Option<ServeStats>,
}

impl Pass {
    /// Host time of the operations, as measured.
    pub fn raw_wall_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    /// Each operation's latency referred to the reference host speed by
    /// the mean of the probes just before and just after it.
    pub fn scaled_op_ms(&self) -> Vec<f64> {
        self.op_ms
            .iter()
            .zip(self.probe_ms.windows(2))
            .map(|(ms, p)| ms * hostspeed::scale((p[0] + p[1]) / 2.0))
            .collect()
    }

    /// Host time of the operations at the reference host speed.
    pub fn wall_s(&self) -> f64 {
        self.scaled_op_ms().iter().sum::<f64>() / 1e3
    }

    /// Set-up time at the reference host speed, scaled by the pass's
    /// median probe.
    pub fn scaled_setup_s(&self) -> f64 {
        self.setup_s * hostspeed::scale(median(&self.probe_ms))
    }

    /// Times the host-speed probe once: call before the first operation
    /// and after each one.
    pub fn probe(&mut self) {
        self.probe_ms.push(hostspeed::probe_ms());
    }
}

/// A workload: a fixed operation list run once per pass.
pub enum Workload {
    Sim { ops: Vec<Op>, dir: PathBuf },
    Serve { seed: u64, dir: PathBuf },
}

impl Workload {
    /// The workload `name` at `seed`, keeping its files under `dir`.
    pub fn new(name: &str, seed: u64, dir: &Path) -> Option<Workload> {
        let dir = dir.to_path_buf();
        let ops = match name {
            "chip-sweep" => chip_sweep_ops(seed),
            "board-neighbor" => board_ops(seed),
            "coherent-replay" => coherent_ops(seed),
            "campaign-serve" => return Some(Workload::Serve { seed, dir }),
            _ => return None,
        };
        Some(Workload::Sim { ops, dir })
    }

    /// Runs pass number `k`.
    pub fn pass(&self, k: usize, traced: bool) -> Pass {
        match self {
            Workload::Sim { ops, dir } => sim_pass(ops, dir, traced),
            Workload::Serve { seed, dir } => crate::serving::pass(*seed, dir, k, traced),
        }
    }
}

fn sim_pass(ops: &[Op], dir: &Path, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Fnv::new();
    pass.probe();
    for (i, op) in ops.iter().enumerate() {
        span::set_op(u32::try_from(i).unwrap_or(u32::MAX));
        pass.attempted += 1;
        let t = Instant::now();
        let prepared = sim::prepare(op, dir, traced);
        let setup_s = t.elapsed().as_secs_f64();
        pass.setup_s += setup_s;
        let prepared = match prepared {
            Ok(p) => {
                pass.setup_ms.push(setup_s * 1e3);
                p
            }
            Err(e) => {
                pass.failed += 1;
                pass.failures.push(format!("op {i}: {e}"));
                continue;
            }
        };
        let t = Instant::now();
        let result = sim::run(op, prepared, traced);
        pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.probe();
        if let Some(why) = &result.failure {
            pass.failed += 1;
            pass.failures
                .push(format!("op {i} ({}): {why}", describe(op)));
        }
        digest.u64(result.digest);
        pass.events += result.events;
        pass.packets += result.packets;
        pass.results.push((op.clone(), result));
    }
    pass.digest = digest.finish();
    pass
}

/// A one-line description of an operation, for failure reports.
pub fn describe(op: &Op) -> String {
    match op {
        Op::Open {
            kind,
            pattern,
            load,
            chips,
            ..
        } => format!(
            "{} {} at {load} on {chips}x{chips}",
            kind.name(),
            pattern.name()
        ),
        Op::Coherent { kind, app, .. } => format!("coherent {} on {}", app.name, kind.name()),
        Op::Replay {
            kind,
            trace,
            faulted,
            ..
        } => format!(
            "replay of trace {trace} through {}{}",
            kind.name(),
            if *faulted { " under faults" } else { "" }
        ),
    }
}
