//! `perfbench calibrate`: measures each benchmarked configuration's
//! saturation point with the library's `sustained_bandwidth` bisection
//! and checks the benchmark's loads sit well below it.
//!
//! The output is the JSON recorded in `perfbench/calibration.json`,
//! together with the deterministic work counts of every workload at the
//! default seed.

use crate::suite::{self, BOARD_CHIPS, BOARD_KINDS, CHIP_MAX_WINDOW, CHIP_PATTERNS};
use desim::Span;
use macrochip::sweep::{sustained_bandwidth, sustained_bandwidth_on, SweepOptions};
use netcore::{FabricConfig, MacrochipConfig, NetworkKind};
use std::fmt::Write as _;
use workloads::Pattern;

/// Bisection resolution, as a fraction of the per-site peak.
const TOLERANCE: f64 = 0.0005;

/// A configuration's load may be at most this share of its ceiling.
pub const MAX_LOAD_SHARE: f64 = 0.6;

/// Generation window of the board bisections: longer than any benchmarked
/// board point's, so the measured ceiling is conservative for them.
const BOARD_CALIBRATION_WINDOW: Span = Span::from_us(2);

/// Bisection options. A window at least as long as the benchmarked points'
/// gives a ceiling no higher than theirs: queues that build slowly show.
fn options(chips: usize) -> SweepOptions {
    SweepOptions {
        sim: if chips == 1 {
            CHIP_MAX_WINDOW
        } else {
            BOARD_CALIBRATION_WINDOW
        },
        drain: Span::from_us(20),
        max_stalled: 5_000,
        seed: 0xC0FFEE,
    }
}

/// The saturation ceiling of `kind` under `pattern` on a `chips`×`chips`
/// board of side-8 chips.
pub fn ceiling(kind: NetworkKind, pattern: Pattern, chips: usize) -> f64 {
    let chip = MacrochipConfig::scaled();
    if chips == 1 {
        sustained_bandwidth(kind, pattern, &chip, options(chips), TOLERANCE)
    } else {
        let fabric = FabricConfig::grid(chips, chip);
        sustained_bandwidth_on(
            || networks::build_fabric(kind, &fabric),
            pattern,
            &fabric.global_config(),
            options(chips),
            TOLERANCE,
        )
    }
}

/// Runs the calibration and returns `(json, all_loads_ok)`.
pub fn run(counts: &str) -> (String, bool) {
    let mut ok = true;
    let mut rows = Vec::new();
    let mut check = |kind: NetworkKind, pattern: Pattern, chips: usize, load: Option<f64>| {
        let c = ceiling(kind, pattern, chips);
        let fits = load.is_none_or(|l| l <= MAX_LOAD_SHARE * c);
        ok &= fits;
        eprintln!(
            "calibrate {:<24} {:<8} {chips}x{chips}: ceiling {c:.4} (half: {:.2e}), load {}{}",
            kind.name(),
            pattern.name(),
            c / 2.0,
            load.map_or("(not benchmarked)".to_string(), |l| format!("{l}")),
            if fits {
                ""
            } else {
                "  <-- too close to saturation"
            }
        );
        rows.push(format!(
            "    {{\"network\": \"{}\", \"pattern\": \"{}\", \"chips\": {chips}, \
             \"ceiling\": {c:.4}, \"load\": {}}}",
            kind.name(),
            pattern.name(),
            load.map_or("null".to_string(), |l| format!("{l}")),
        ));
    };
    for kind in NetworkKind::ALL {
        for pattern in CHIP_PATTERNS {
            check(kind, pattern, 1, Some(suite::chip_load(kind, pattern)));
        }
    }
    for chips in BOARD_CHIPS.into_iter().filter(|&c| c > 1) {
        for kind in NetworkKind::ALL {
            let load = BOARD_KINDS.contains(&kind).then(|| suite::board_load(kind));
            check(kind, Pattern::Neighbor, chips, load);
        }
    }
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"method\": \"macrochip::sweep::sustained_bandwidth bisection on side-8 chips \
         (sustained_bandwidth_on over networks::build_fabric for boards), generation window \
         {} ns on one chip and {} ns on boards, drain 20 us, max_stalled 5000, seed 0xC0FFEE, \
         tolerance {TOLERANCE}; a benchmarked load is at most {MAX_LOAD_SHARE} of its \
         ceiling\",",
        CHIP_MAX_WINDOW.as_ns_f64(),
        BOARD_CALIBRATION_WINDOW.as_ns_f64()
    );
    let _ = writeln!(out, "  \"loads\": [\n{}\n  ],", rows.join(",\n"));
    let _ = write!(out, "  \"work_counts\": {counts}\n}}\n");
    (out, ok)
}
