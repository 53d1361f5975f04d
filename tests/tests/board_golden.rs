//! Pinned results for 2x2 boards of every architecture.
//!
//! The fabric's scheduler decides, within every simulated instant, which
//! chip runs next and when board-link events fire. A change to that
//! order shows up in the event stream, and often in latencies, retries
//! or end times. This test pins a digest of the bit-exact `PointResult`
//! encoding, the metrics snapshot and the event stream for sweep and
//! fault points on a 2x2 board of side-4 chips, for all seven kinds —
//! including circuit-switched and two-phase ALT, which the board
//! benchmark skips.
//!
//! The digests were recorded with the scan-every-chip scheduler that
//! preceded the cached per-chip next-event times; a scheduling rewrite
//! must reproduce them unchanged. Update them only for a deliberate
//! change in model behaviour, and say so in the change log. The
//! transient column was re-recorded once, when the fabric stopped
//! re-emitting `Hop` events for relay bytes a retransmitted packet
//! carried in from its earlier attempt (and started carrying those bytes
//! through gateway-sourced and evicted packets).

use desim::Span;
use faults::FaultPlan;
use macrochip::campaign::{run_point_full, CampaignPoint, PointExecOptions, PointRun};
use macrochip::sweep::SweepOptions;
use netcore::{FabricConfig, MacrochipConfig, NetworkKind};
use workloads::Pattern;

const SIM: Span = Span::from_ns(500);
const DRAIN: Span = Span::from_us(5);

fn board() -> FabricConfig {
    FabricConfig::grid(2, MacrochipConfig::with_side(4))
}

fn sweep(kind: NetworkKind, pattern: Pattern, offered: f64) -> CampaignPoint {
    CampaignPoint::Sweep {
        kind,
        pattern,
        offered,
        options: SweepOptions {
            sim: SIM,
            drain: DRAIN,
            max_stalled: 5_000,
            seed: 0xB0A2D,
        },
    }
}

/// Kills the chip(0,0) -> chip(0,1) board link (global gateways 0 and 4)
/// mid-run; `extra` appends clauses such as a transient model.
fn fault(kind: NetworkKind, extra: &str) -> CampaignPoint {
    CampaignPoint::Fault {
        kind,
        pattern: Pattern::Uniform,
        load: 0.02,
        plan: FaultPlan::parse(&format!("link:0->4@500ns; repair=2us{extra}")).unwrap(),
        seed: 91,
        sim: SIM,
        drain: DRAIN,
        max_stalled: 5_000,
    }
}

/// FNV-1a over the result's cache encoding (minus its format-version
/// line), the metrics JSON and the flight-recorder stream. The result
/// alone is too coarse for fault points (clean deliveries and end time
/// rarely move); the metrics add every latency and per-phase counter,
/// and the event stream pins the order of events within an instant.
fn digest(run: &PointRun) -> u64 {
    let bytes = run.result.to_cache_bytes();
    let body = bytes.split_once('\n').map_or("", |(_, rest)| rest);
    let metrics = run.metrics.as_ref().expect("metrics requested").to_json();
    let trace: String = run.trace.iter().map(|e| format!("{e:?}\n")).collect();
    body.bytes()
        .chain(metrics.bytes())
        .chain(trace.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `(kind, [uniform 1%, neighbor 3%, link-kill fault, link-kill fault
/// with transients])`.
const GOLDEN: [(NetworkKind, [u64; 4]); 7] = [
    (
        NetworkKind::TokenRing,
        [
            0xd8810a2e6136ab4d,
            0xbbaf633fa028dfe1,
            0x70d76725cf429bca,
            0xb98c70a1c4c62520,
        ],
    ),
    (
        NetworkKind::CircuitSwitched,
        [
            0xe73465130e22433d,
            0xf6af062e32b1a087,
            0xc5161871b2f1acc3,
            0x73e1038baeca7e8e,
        ],
    ),
    (
        NetworkKind::PointToPoint,
        [
            0x50278505d631deb8,
            0x5c36952f276c08fc,
            0x619ec96a1c2ddba2,
            0xcdf9288d083c3ab4,
        ],
    ),
    (
        NetworkKind::LimitedPointToPoint,
        [
            0xbaf34c279bc1b106,
            0x690f3cbacacc829f,
            0x8ee08860dfbfeae5,
            0x0336c61cc2cd9577,
        ],
    ),
    (
        NetworkKind::TwoPhase,
        [
            0x014c395b952edafb,
            0xe897d738a4e78437,
            0x0ddbcb7dd27cbbae,
            0x9d929c28721f4278,
        ],
    ),
    (
        NetworkKind::TwoPhaseAlt,
        [
            0xca7c34685cea397d,
            0x97c1a9a73861def3,
            0x32f105dc2b164d4e,
            0xa5ab94b590adbf41,
        ],
    ),
    (
        NetworkKind::Hierarchical,
        [
            0x72b83c1ecc8fc8df,
            0xa702d8f7849a3c37,
            0x624b1a8e91d5cc26,
            0x27bc7278ce065147,
        ],
    ),
];

#[test]
fn board_results_match_the_pinned_digests() {
    let fabric = board();
    let exec = PointExecOptions {
        metrics: true,
        trace: true,
        // Larger than any point's stream, so nothing is dropped.
        trace_capacity: 1 << 20,
        ..PointExecOptions::default()
    };
    let mut mismatches = Vec::new();
    for (kind, want) in GOLDEN {
        let points = [
            sweep(kind, Pattern::Uniform, 0.01),
            sweep(kind, Pattern::Neighbor, 0.03),
            fault(kind, ""),
            fault(kind, "; transient=0.01"),
        ];
        let got: Vec<u64> = points
            .iter()
            .map(|p| digest(&run_point_full(p, &fabric, exec)))
            .collect();
        if got != want {
            let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
            mismatches.push(format!("(NetworkKind::{kind:?}, [{}]),", hex.join(", ")));
        }
    }
    assert!(
        mismatches.is_empty(),
        "2x2 board results changed; got:\n{}",
        mismatches.join("\n")
    );
}
