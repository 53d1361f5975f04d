//! Shared helpers for the cross-crate integration test suite (see the
//! sibling `tests/` directory for the test files themselves).

use netcore::NetworkKind;
use workloads::Pattern;

/// A pattern and offered load well above `kind`'s saturation ceiling on
/// one 8x8 chip, so a run spends its window under injection backpressure
/// with a stall queue far longer than one re-offer batch.
pub fn overload(kind: NetworkKind) -> (Pattern, f64) {
    match kind {
        NetworkKind::TokenRing => (Pattern::Uniform, 0.6),
        NetworkKind::CircuitSwitched => (Pattern::Uniform, 0.3),
        // Uniform traffic spreads over 63 dedicated channels; neighbor
        // traffic concentrates on a few and saturates them.
        NetworkKind::PointToPoint => (Pattern::Neighbor, 0.09),
        NetworkKind::LimitedPointToPoint => (Pattern::Uniform, 0.8),
        // Per-destination queues: neighbor traffic fills them.
        NetworkKind::TwoPhase | NetworkKind::TwoPhaseAlt => (Pattern::Neighbor, 0.5),
        NetworkKind::Hierarchical => (Pattern::Uniform, 0.02),
    }
}
