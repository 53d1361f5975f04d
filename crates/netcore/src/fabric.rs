//! Multi-macrochip fabric configuration: an `M×M` board of macrochips
//! joined by dedicated board-level photonic links between per-chip
//! gateway sites (ROADMAP item 2; HERMES-style third network level).
//!
//! A [`FabricConfig`] is deliberately a *separate* type from
//! [`MacrochipConfig`]: single-chip campaign cache keys hash the chip
//! config's `Debug` form, so growing `MacrochipConfig` itself would
//! invalidate every cached single-chip result. A one-chip fabric is
//! byte-identical to the plain config it wraps.
//!
//! Site addressing is positional: the fabric exposes one global
//! `(M·side)×(M·side)` grid, each chip owning a `side×side` sub-square.
//! A chip's *gateway* is its local `(0, 0)` site, which carries the
//! board-level transceivers (the hierarchical network's bridge backbone
//! extended one level up).

use crate::{Grid, MacrochipConfig, SiteId};
use photonics::geometry::Layout;

/// Board-level inter-chip photonic link parameters. These are distinct
/// from the on-chip Table 1 values: board links cross an interposer
/// (two extra, lossier couplers) and run centimeters of silicon-nitride
/// waveguide between chip gateways.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterChipLinkConfig {
    /// Wavelengths multiplexed on each directed gateway-to-gateway link.
    pub lambdas: usize,
    /// Center-to-center spacing of adjacent chips on the board, in
    /// centimeters (chip span plus board-level routing margin).
    pub chip_pitch_cm: f64,
    /// Propagation delay of the board waveguides, in ns/cm.
    pub prop_ns_per_cm: f64,
}

impl InterChipLinkConfig {
    /// Default link provisioning for a given chip: the chip's own WDM
    /// factor per link, chips spaced one chip-span plus a 5 cm routing
    /// gap apart, board waveguides at the on-chip 0.1 ns/cm figure.
    pub fn for_chip(chip: &MacrochipConfig) -> InterChipLinkConfig {
        InterChipLinkConfig {
            lambdas: chip.wavelengths_per_waveguide,
            chip_pitch_cm: chip.grid.side() as f64 * chip.layout.site_pitch_cm() + 5.0,
            prop_ns_per_cm: 0.1,
        }
    }
}

/// An `M×M` arrangement of identical macrochips with board-level
/// photonic links between their gateway sites.
///
/// # Example
///
/// ```
/// use netcore::{FabricConfig, MacrochipConfig};
///
/// let fabric = FabricConfig::grid(2, MacrochipConfig::scaled());
/// assert_eq!(fabric.chips(), 4);
/// assert_eq!(fabric.global_config().grid.side(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Chips per board side (`M`); `1` is a plain single macrochip.
    pub chips_per_side: usize,
    /// The per-chip configuration (all chips are identical).
    pub chip: MacrochipConfig,
    /// Board-level link provisioning.
    pub link: InterChipLinkConfig,
}

impl FabricConfig {
    /// A one-chip fabric: behaviorally identical to the bare config.
    pub fn single(chip: MacrochipConfig) -> FabricConfig {
        FabricConfig::grid(1, chip)
    }

    /// An `M×M` fabric of identical chips with default board links.
    pub fn grid(chips_per_side: usize, chip: MacrochipConfig) -> FabricConfig {
        FabricConfig {
            chips_per_side,
            chip,
            link: InterChipLinkConfig::for_chip(&chip),
        }
    }

    /// Total chip count (`M²`).
    pub fn chips(&self) -> usize {
        self.chips_per_side * self.chips_per_side
    }

    /// True when this fabric is a single bare macrochip.
    pub fn is_single(&self) -> bool {
        self.chips_per_side == 1
    }

    /// Sites per chip side.
    pub fn chip_side(&self) -> usize {
        self.chip.grid.side()
    }

    /// Sites per global grid side (`M · chip_side`).
    pub fn global_side(&self) -> usize {
        self.chips_per_side * self.chip_side()
    }

    /// The configuration of the fabric viewed as one flat site grid:
    /// traffic patterns, fault plans and latency statistics address this
    /// global grid, while per-site provisioning stays the chip's. A
    /// one-chip fabric returns the chip configuration unchanged.
    pub fn global_config(&self) -> MacrochipConfig {
        if self.is_single() {
            return self.chip;
        }
        let gs = self.global_side();
        MacrochipConfig {
            grid: Grid::new(gs),
            layout: Layout::new(
                gs,
                self.chip.layout.site_pitch_cm(),
                // Propagation speed is preserved via the hop delay: the
                // global layout only feeds per-hop flight-time floors.
                0.1,
            ),
            ..self.chip
        }
    }

    /// The chip (row-major board index) owning a global site.
    pub fn chip_of(&self, s: SiteId) -> usize {
        let cs = self.chip_side();
        let (x, y) = self.global_coord(s);
        (y / cs) * self.chips_per_side + (x / cs)
    }

    /// Translates a global site id to its chip-local equivalent.
    pub fn local(&self, s: SiteId) -> SiteId {
        let cs = self.chip_side();
        let (x, y) = self.global_coord(s);
        self.chip.grid.site(x % cs, y % cs)
    }

    /// Translates a chip-local site id back to the global grid.
    pub fn global(&self, chip: usize, local: SiteId) -> SiteId {
        let cs = self.chip_side();
        let (cx, cy) = (chip % self.chips_per_side, chip / self.chips_per_side);
        let (lx, ly) = self.chip.grid.coord(local);
        let gs = self.global_side();
        let index = (cy * cs + ly) * gs + (cx * cs + lx);
        SiteId::from_index(index)
    }

    /// The gateway site of a chip, in global coordinates: the chip's
    /// local `(0, 0)` corner, which carries the board transceivers.
    pub fn gateway(&self, chip: usize) -> SiteId {
        self.global(chip, self.chip.grid.site(0, 0))
    }

    /// Manhattan distance between two chips on the board, in chip
    /// pitches.
    pub fn chip_hops(&self, a: usize, b: usize) -> usize {
        let m = self.chips_per_side;
        let (ax, ay) = (a % m, a / m);
        let (bx, by) = (b % m, b / m);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Board time of flight between two chips' gateways, in ns.
    pub fn board_flight_ns(&self, a: usize, b: usize) -> f64 {
        self.chip_hops(a, b) as f64 * self.link.chip_pitch_cm * self.link.prop_ns_per_cm
    }

    /// Bandwidth of one directed inter-chip link, in bytes/ns.
    pub fn link_bytes_per_ns(&self) -> f64 {
        self.chip.channel_bytes_per_ns(self.link.lambdas)
    }

    /// Directed gateway-to-gateway links on the board (`k·(k−1)`).
    pub fn directed_links(&self) -> usize {
        let k = self.chips();
        k * (k - 1)
    }

    fn global_coord(&self, s: SiteId) -> (usize, usize) {
        let gs = self.global_side();
        let i = s.index();
        assert!(i < gs * gs, "site {i} outside the {gs}x{gs} fabric");
        (i % gs, i / gs)
    }

    /// Validates internal consistency; network constructors call this.
    ///
    /// # Panics
    ///
    /// Panics if the board dimensions or link parameters are out of
    /// range.
    pub fn validate(&self) {
        self.chip.validate();
        assert!(self.chips_per_side >= 1, "fabric needs at least one chip");
        assert!(
            self.global_side() <= 128,
            "fabric global side {} exceeds the supported 128",
            self.global_side()
        );
        assert!(self.link.lambdas > 0, "inter-chip links need wavelengths");
        assert!(
            self.link.chip_pitch_cm > 0.0 && self.link.chip_pitch_cm.is_finite(),
            "invalid chip pitch"
        );
        assert!(
            self.link.prop_ns_per_cm > 0.0 && self.link.prop_ns_per_cm.is_finite(),
            "invalid board propagation speed"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chip_global_config_is_the_chip() {
        let chip = MacrochipConfig::scaled();
        let fabric = FabricConfig::single(chip);
        assert!(fabric.is_single());
        assert_eq!(fabric.global_config(), chip);
        // Not a rebuilt layout that happens to agree at 0.1 ns/cm.
        let slow = MacrochipConfig {
            layout: Layout::new(8, 2.5, 0.2),
            ..chip
        };
        assert_eq!(FabricConfig::single(slow).global_config(), slow);
    }

    #[test]
    fn two_by_two_addressing_round_trips() {
        let fabric = FabricConfig::grid(2, MacrochipConfig::scaled());
        fabric.validate();
        assert_eq!(fabric.chips(), 4);
        let global = fabric.global_config();
        assert_eq!(global.grid.sites(), 256);
        for i in 0..global.grid.sites() {
            let s = SiteId::from_index(i);
            let chip = fabric.chip_of(s);
            let local = fabric.local(s);
            assert_eq!(fabric.global(chip, local), s, "site {i}");
        }
    }

    #[test]
    fn gateways_sit_at_chip_corners() {
        let fabric = FabricConfig::grid(2, MacrochipConfig::scaled());
        let global = fabric.global_config();
        assert_eq!(global.grid.coord(fabric.gateway(0)), (0, 0));
        assert_eq!(global.grid.coord(fabric.gateway(1)), (8, 0));
        assert_eq!(global.grid.coord(fabric.gateway(2)), (0, 8));
        assert_eq!(global.grid.coord(fabric.gateway(3)), (8, 8));
        for chip in 0..fabric.chips() {
            assert_eq!(fabric.chip_of(fabric.gateway(chip)), chip);
        }
    }

    #[test]
    fn board_geometry_scales_with_chip_distance() {
        let fabric = FabricConfig::grid(2, MacrochipConfig::scaled());
        // 8 sites at 2.5 cm + 5 cm gap = 25 cm pitch; 0.1 ns/cm.
        assert!((fabric.link.chip_pitch_cm - 25.0).abs() < 1e-9);
        assert_eq!(fabric.chip_hops(0, 3), 2);
        assert!((fabric.board_flight_ns(0, 1) - 2.5).abs() < 1e-9);
        assert!((fabric.board_flight_ns(0, 3) - 5.0).abs() < 1e-9);
        assert_eq!(fabric.board_flight_ns(2, 2), 0.0);
    }

    #[test]
    fn link_bandwidth_uses_chip_lambda_rate() {
        let fabric = FabricConfig::grid(2, MacrochipConfig::scaled());
        // 8 wavelengths at 2.5 B/ns = 20 B/ns per directed link.
        assert!((fabric.link_bytes_per_ns() - 20.0).abs() < 1e-9);
        assert_eq!(fabric.directed_links(), 12);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_fabrics_rejected() {
        FabricConfig::grid(8, MacrochipConfig::with_side(32)).validate();
    }
}
