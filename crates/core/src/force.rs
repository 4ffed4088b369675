use meda_degradation::HealthLevel;
use meda_grid::{Cell, Grid, Rect};

/// Source of per-microelectrode relative EWOD force `F̄_ij` (Eq. 1–2).
///
/// Two implementations mirror the paper's two model fidelities
/// (Section V-C):
///
/// * [`HealthField`] — the controller's view: force estimated from the
///   quantized health matrix **H** (used for synthesis);
/// * [`DegradationField`] — ground truth: force from the real-valued
///   degradation matrix **D** (used by the simulator to sample outcomes).
///
/// Cells off the chip exert no force (they have no electrode), but still
/// count toward the frontier size `|Fr|`, so a frontier hanging off the chip
/// weakens the mean pull — matching the physical situation of a droplet at
/// the array edge.
pub trait ForceProvider {
    /// Relative EWOD force `F̄_ij ∈ [0, 1]` of the microelectrode at `cell`
    /// (0 for off-chip cells).
    fn cell_force(&self, cell: Cell) -> f64;

    /// Mean relative force over a frontier set,
    /// `F̄(δ; a, d) / |Fr(δ; a, d)|` — the success probability contribution
    /// of one direction (Section V-B).
    fn mean_force(&self, frontier: Rect) -> f64 {
        let count = frontier.area() as f64;
        let total: f64 = frontier.cells().map(|c| self.cell_force(c)).sum();
        total / count
    }
}

/// A borrowed field is a field: lets callers hand `&&HealthField` (say, a
/// binding that already holds a borrow from a live chip) to anything that
/// takes `&dyn ForceProvider`.
impl<T: ForceProvider + ?Sized> ForceProvider for &T {
    fn cell_force(&self, cell: Cell) -> f64 {
        (**self).cell_force(cell)
    }

    fn mean_force(&self, frontier: Rect) -> f64 {
        (**self).mean_force(frontier)
    }
}

/// How the controller turns a quantized health reading `H` into a
/// degradation estimate: the true `D` lies in the bin
/// `[H/2^b, (H+1)/2^b)`, so any planning value is bracketed by the two bin
/// edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HealthInterpretation {
    /// Lower bin edge `H/2^b` — never over-estimates the force, so
    /// synthesized expected times are upper bounds on reality. The paper's
    /// (and this library's) default.
    #[default]
    Conservative,
    /// Upper bin edge `(H+1)/2^b` (clamped to 1) — never under-estimates,
    /// giving lower bounds. Useful for bracketing the true value.
    Optimistic,
    /// Bin midpoint `(H + ½)/2^b` — the minimum-expected-error point
    /// estimate.
    Midpoint,
}

impl HealthInterpretation {
    /// The degradation estimate for a reading under this interpretation.
    #[must_use]
    pub fn degradation(self, level: HealthLevel, bits: u8) -> f64 {
        let bins = f64::from(1u16 << bits);
        let h = f64::from(level.level());
        match self {
            Self::Conservative => h / bins,
            Self::Optimistic => ((h + 1.0) / bins).min(1.0),
            Self::Midpoint => (h + 0.5) / bins,
        }
    }
}

/// Controller-side force field derived from the quantized health matrix
/// **H** with a `bits`-bit sensor: `F̄_ij = D̂_ij²`, where `D̂` follows the
/// configured [`HealthInterpretation`] (conservative lower bin edge by
/// default).
///
/// # Examples
///
/// ```
/// use meda_core::{ForceProvider, HealthField};
/// use meda_degradation::HealthLevel;
/// use meda_grid::{Cell, ChipDims, Grid};
///
/// let dims = ChipDims::new(8, 8);
/// let field = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
/// // Full health at b = 2 reads H = 3 ⇒ F̄ = (3/4)² = 0.5625.
/// assert!((field.cell_force(Cell::new(1, 1)) - 0.5625).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct HealthField {
    health: Grid<HealthLevel>,
    bits: u8,
    interpretation: HealthInterpretation,
}

impl HealthField {
    /// Creates a force field from a health matrix with the conservative
    /// interpretation.
    #[must_use]
    pub fn new(health: Grid<HealthLevel>, bits: u8) -> Self {
        Self {
            health,
            bits,
            interpretation: HealthInterpretation::Conservative,
        }
    }

    /// Creates a force field with an explicit reading interpretation.
    #[must_use]
    pub fn with_interpretation(
        health: Grid<HealthLevel>,
        bits: u8,
        interpretation: HealthInterpretation,
    ) -> Self {
        Self {
            health,
            bits,
            interpretation,
        }
    }

    /// The same field under a different interpretation (cheap: grids are
    /// cloned, levels unchanged).
    #[must_use]
    pub fn reinterpret(&self, interpretation: HealthInterpretation) -> Self {
        Self {
            health: self.health.clone(),
            bits: self.bits,
            interpretation,
        }
    }

    /// The reading interpretation in use.
    #[must_use]
    pub fn interpretation(&self) -> HealthInterpretation {
        self.interpretation
    }

    /// The underlying health matrix.
    #[must_use]
    pub fn health(&self) -> &Grid<HealthLevel> {
        &self.health
    }

    /// The sensor resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Overwrites the reading at one cell — how a live chip keeps **H**
    /// current as single cells wear.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is off-chip.
    pub fn set(&mut self, cell: Cell, level: HealthLevel) {
        self.health[cell] = level;
    }

    /// A digest of the health values inside `region`, used as a
    /// strategy-library key by the hybrid scheduler (Section VI-D).
    #[must_use]
    pub fn digest(&self, region: Rect) -> u64 {
        // FNV-1a over the in-region levels; cheap and deterministic.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for cell in region.cells() {
            let lvl = self.health.get(cell).map_or(0xff, |h| h.level());
            hash ^= u64::from(lvl);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }
}

impl ForceProvider for HealthField {
    fn cell_force(&self, cell: Cell) -> f64 {
        self.health.get(cell).map_or(0.0, |h| {
            let d = self.interpretation.degradation(*h, self.bits);
            d * d
        })
    }
}

/// Ground-truth force field derived from the real-valued degradation matrix
/// **D**: `F̄_ij = D_ij²` (Eq. 1).
#[derive(Debug, Clone)]
pub struct DegradationField {
    degradation: Grid<f64>,
}

impl DegradationField {
    /// Creates a force field from a degradation matrix (values in `[0, 1]`).
    #[must_use]
    pub fn new(degradation: Grid<f64>) -> Self {
        Self { degradation }
    }

    /// The underlying degradation matrix.
    #[must_use]
    pub fn degradation(&self) -> &Grid<f64> {
        &self.degradation
    }

    /// Overwrites the degradation of one cell — how a live chip keeps **D**
    /// current as single cells wear.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is off-chip.
    pub fn set(&mut self, cell: Cell, degradation: f64) {
        self.degradation[cell] = degradation;
    }
}

impl ForceProvider for DegradationField {
    fn cell_force(&self, cell: Cell) -> f64 {
        self.degradation.get(cell).map_or(0.0, |d| d * d)
    }
}

/// A uniform force field: every cell (on an infinite chip) exerts the same
/// relative force. Useful for tests and for the offline strategy library's
/// no-degradation baseline (Section VI-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformField {
    force: f64,
}

impl UniformField {
    /// Creates a uniform field with per-cell force `force ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `force ∉ [0, 1]`.
    #[must_use]
    pub fn new(force: f64) -> Self {
        assert!((0.0..=1.0).contains(&force), "force must be in [0, 1]");
        Self { force }
    }

    /// The pristine-chip field (force 1 everywhere).
    #[must_use]
    pub fn pristine() -> Self {
        Self::new(1.0)
    }
}

impl ForceProvider for UniformField {
    fn cell_force(&self, _cell: Cell) -> f64 {
        self.force
    }
}

/// A force field backed by an explicit per-cell grid of `F̄_ij` values,
/// used to reproduce the paper's worked Example 3 where per-cell force
/// contributions are given directly.
#[derive(Debug, Clone)]
pub struct RawField {
    forces: Grid<f64>,
}

impl RawField {
    /// Creates a raw field from per-cell force values.
    #[must_use]
    pub fn new(forces: Grid<f64>) -> Self {
        Self { forces }
    }
}

impl ForceProvider for RawField {
    fn cell_force(&self, cell: Cell) -> f64 {
        self.forces.get(cell).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_degradation::quantize_health;
    use meda_grid::ChipDims;

    #[test]
    fn mean_force_averages_over_frontier() {
        let dims = ChipDims::new(10, 10);
        let mut forces = Grid::new(dims, 0.0);
        forces[Cell::new(2, 2)] = 1.0;
        forces[Cell::new(3, 2)] = 0.5;
        let field = RawField::new(forces);
        let fr = Rect::new(2, 2, 3, 2);
        assert!((field.mean_force(fr) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn off_chip_cells_contribute_zero_but_count() {
        let dims = ChipDims::new(4, 4);
        let field = DegradationField::new(Grid::new(dims, 1.0));
        // Frontier half on-chip, half off: mean force halves.
        let fr = Rect::new(3, 4, 3, 5);
        assert!((field.mean_force(fr) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degradation_force_is_squared() {
        let dims = ChipDims::new(4, 4);
        let field = DegradationField::new(Grid::new(dims, 0.8));
        assert!((field.cell_force(Cell::new(2, 2)) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn health_force_uses_quantized_levels() {
        let dims = ChipDims::new(4, 4);
        let health = Grid::from_fn(dims, |c| {
            quantize_health(if c.x == 1 { 1.0 } else { 0.3 }, 2)
        });
        let field = HealthField::new(health, 2);
        assert!((field.cell_force(Cell::new(1, 1)) - 0.5625).abs() < 1e-12); // (3/4)²
        assert!((field.cell_force(Cell::new(2, 1)) - 0.0625).abs() < 1e-12); // (1/4)²
    }

    #[test]
    fn uniform_pristine_field_is_one_everywhere() {
        let f = UniformField::pristine();
        assert_eq!(f.cell_force(Cell::new(-100, 100)), 1.0);
        assert_eq!(f.mean_force(Rect::new(0, 0, 9, 9)), 1.0);
    }

    #[test]
    fn interpretations_bracket_the_bin() {
        use crate::HealthInterpretation as HI;
        for bits in 1..=3u8 {
            for lvl in 0..(1u8 << bits) {
                let h = HealthLevel::new(lvl, bits);
                let lo = HI::Conservative.degradation(h, bits);
                let mid = HI::Midpoint.degradation(h, bits);
                let hi = HI::Optimistic.degradation(h, bits);
                assert!(lo < mid && mid < hi, "b={bits} H={lvl}");
                assert!(hi <= 1.0);
                // The true D that produced this reading lies in [lo, hi).
                assert!((hi - lo - 1.0 / f64::from(1u16 << bits)).abs() < 1e-12 || hi == 1.0);
            }
        }
    }

    #[test]
    fn reinterpret_changes_force_not_readings() {
        use crate::HealthInterpretation as HI;
        let dims = ChipDims::new(4, 4);
        let health = Grid::from_fn(dims, |_| quantize_health(0.6, 2)); // H = 2
        let field = HealthField::new(health, 2);
        let optimistic = field.reinterpret(HI::Optimistic);
        assert_eq!(field.health(), optimistic.health());
        let c = Cell::new(2, 2);
        assert!((field.cell_force(c) - 0.25).abs() < 1e-12); // (2/4)²
        assert!((optimistic.cell_force(c) - 0.5625).abs() < 1e-12); // (3/4)²
        assert_eq!(
            field.digest(Rect::new(1, 1, 4, 4)),
            optimistic.digest(Rect::new(1, 1, 4, 4))
        );
    }

    #[test]
    fn digest_changes_with_health() {
        let dims = ChipDims::new(6, 6);
        let region = Rect::new(1, 1, 6, 6);
        let full = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
        let mut degraded_grid = Grid::new(dims, HealthLevel::full(2));
        degraded_grid[Cell::new(3, 3)] = HealthLevel::full(2).degraded_once();
        let degraded = HealthField::new(degraded_grid, 2);
        assert_ne!(full.digest(region), degraded.digest(region));
        assert_eq!(full.digest(region), full.digest(region));
    }

    #[test]
    fn digest_is_region_scoped() {
        let dims = ChipDims::new(8, 8);
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        grid[Cell::new(8, 8)] = HealthLevel::new(0, 2);
        let field = HealthField::new(grid, 2);
        let pristine = HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2);
        // A change outside the region leaves the digest unchanged.
        let region = Rect::new(1, 1, 4, 4);
        assert_eq!(field.digest(region), pristine.digest(region));
    }
}
