use std::sync::OnceLock;

use meda_rng::Rng;

use meda_core::{DegradationField, HealthField};
use meda_degradation::{DegradationParams, ParamDistribution};
use meda_grid::{Cell, ChipDims, Grid};

use crate::FaultMode;

/// Configuration of a simulated biochip's degradation behaviour
/// (Section VII-A/B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Health-sensor resolution in bits (the fabricated design uses 2).
    pub bits: u8,
    /// `(τ, c)` distribution of normal MCs.
    pub normal: ParamDistribution,
    /// `(τ, c)` distribution of faulty MCs (they also fail suddenly).
    pub faulty: ParamDistribution,
    /// Fault-injection placement mode.
    pub fault_mode: FaultMode,
    /// Fraction of MCs that are faulty.
    pub fault_fraction: f64,
    /// Range of the sudden-failure actuation count `n_f ~ U(lo, hi)`:
    /// a faulty MC's degradation drops to 0 at its `n_f`-th actuation.
    pub fault_threshold: (u64, u64),
}

impl DegradationConfig {
    /// The Section VII-B setup: `c ~ U(200, 500)`, `τ ~ U(0.5, 0.9)`,
    /// no injected faults.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            bits: 2,
            normal: ParamDistribution::paper_normal(),
            faulty: ParamDistribution::paper_faulty(),
            fault_mode: FaultMode::None,
            fault_fraction: 0.0,
            fault_threshold: (20, 200),
        }
    }

    /// The Section VII-C fault-injection setup with the given mode and a
    /// `fraction` of faulty MCs.
    #[must_use]
    pub fn paper_with_faults(mode: FaultMode, fraction: f64) -> Self {
        Self {
            fault_mode: mode,
            fault_fraction: fraction,
            ..Self::paper()
        }
    }

    /// An idealized chip that never degrades — useful for tests and the
    /// Fig. 3 correlation study (which records actuation patterns only).
    #[must_use]
    pub fn pristine() -> Self {
        Self {
            bits: 2,
            normal: ParamDistribution::new((1.0, 1.0), (1.0, 1.0)),
            faulty: ParamDistribution::new((1.0, 1.0), (1.0, 1.0)),
            fault_mode: FaultMode::None,
            fault_fraction: 0.0,
            fault_threshold: (u64::MAX - 1, u64::MAX),
        }
    }
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The simulated MEDA biochip: per-MC degradation constants, actuation
/// counts **N**, and sudden-fault thresholds.
///
/// The chip exposes the two model fidelities of Section V-C:
/// [`Biochip::degradation_field`] (ground truth **D**, for sampling
/// outcomes) and [`Biochip::health_field`] (quantized **H**, what the
/// controller can observe).
///
/// Both matrices are live state: the first read builds them, and from then
/// on every actuation and kill re-evaluates just the cells it touched, with
/// the same expression a full rebuild would use. Keeping them current so
/// costs time in proportion to the cells a cycle actuates, not to the chip
/// area.
#[derive(Debug, Clone)]
pub struct Biochip {
    dims: ChipDims,
    bits: u8,
    params: Grid<DegradationParams>,
    actuations: Grid<u64>,
    fault_at: Grid<Option<u64>>,
    /// **D** and **H**, built on first read (never eagerly: most generated
    /// chips are cloned or worn before anyone looks).
    live: OnceLock<LiveFields>,
}

/// The live **D** and **H** of a [`Biochip`].
#[derive(Debug, Clone)]
struct LiveFields {
    degradation: DegradationField,
    health: HealthField,
}

/// Ground-truth degradation of one MC after `n` actuations: `τ^(n/c)`, or 0
/// once a faulty MC's sudden-failure threshold has passed.
fn degradation(params: &DegradationParams, n: u64, fault_at: Option<u64>) -> f64 {
    if fault_at.is_some_and(|nf| n >= nf) {
        0.0
    } else {
        params.degradation(n)
    }
}

impl Biochip {
    /// Generates a chip: every MC samples `(τ, c)` from the configured
    /// distributions, and fault placement follows the configured mode.
    pub fn generate(dims: ChipDims, config: &DegradationConfig, rng: &mut impl Rng) -> Self {
        let mut params = Grid::from_fn(dims, |_| config.normal.sample(rng));
        let mut fault_at: Grid<Option<u64>> = Grid::new(dims, None);
        for cell in config.fault_mode.place(dims, config.fault_fraction, rng) {
            params[cell] = config.faulty.sample(rng);
            let (lo, hi) = config.fault_threshold;
            fault_at[cell] = Some(rng.gen_range(lo..=hi));
        }
        Self {
            dims,
            bits: config.bits,
            params,
            actuations: Grid::new(dims, 0),
            fault_at,
            live: OnceLock::new(),
        }
    }

    /// The chip dimensions.
    #[must_use]
    pub fn dims(&self) -> ChipDims {
        self.dims
    }

    /// The health-sensor resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of actuations MC `cell` has undergone (the **N** matrix).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is off-chip.
    #[must_use]
    pub fn actuation_count(&self, cell: Cell) -> u64 {
        self.actuations[cell]
    }

    /// Applies an actuation pattern **U**: every actuated MC's count
    /// increments (degrading it per its `(τ, c)` law). Returns the number
    /// of MCs actuated.
    pub fn apply_actuation(&mut self, pattern: &Grid<bool>) -> usize {
        assert_eq!(pattern.dims(), self.dims, "pattern dims mismatch");
        let mut count = 0;
        for (cell, &on) in pattern.iter() {
            if on {
                self.actuations[cell] += 1;
                self.refresh(cell);
                count += 1;
            }
        }
        count
    }

    /// Re-evaluates the live **D** and **H** at one on-chip cell after its
    /// actuation count or fault threshold changed. Before the first read
    /// there is nothing to keep current, and this does nothing.
    fn refresh(&mut self, cell: Cell) {
        let Self {
            bits,
            params,
            actuations,
            fault_at,
            live,
            ..
        } = self;
        if let Some(live) = live.get_mut() {
            let d = degradation(&params[cell], actuations[cell], fault_at[cell]);
            live.degradation.set(cell, d);
            live.health
                .set(cell, meda_degradation::quantize_health(d, *bits));
        }
    }

    /// The live fields, built from **N** on first use.
    fn live(&self) -> &LiveFields {
        self.live.get_or_init(|| {
            let d = Grid::from_fn(self.dims, |c| {
                degradation(&self.params[c], self.actuations[c], self.fault_at[c])
            });
            let h = d.map(|_, &d| meda_degradation::quantize_health(d, self.bits));
            LiveFields {
                degradation: DegradationField::new(d),
                health: HealthField::new(h, self.bits),
            }
        })
    }

    /// Ground-truth degradation of one MC: `τ^(n/c)`, or 0 after a faulty
    /// MC's sudden-failure threshold.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is off-chip.
    #[must_use]
    pub fn degradation_at(&self, cell: Cell) -> f64 {
        self.live().degradation.degradation()[cell]
    }

    /// The ground-truth degradation matrix **D** as a force field — the
    /// distribution the simulator samples droplet outcomes from.
    #[must_use]
    pub fn degradation_field(&self) -> &DegradationField {
        &self.live().degradation
    }

    /// The observable health matrix **H** (quantized **D**) as a force
    /// field — everything a router is allowed to see.
    #[must_use]
    pub fn health_field(&self) -> &HealthField {
        &self.live().health
    }

    /// Total actuations across the chip — a wear indicator used by the
    /// experiment harness.
    #[must_use]
    pub fn total_actuations(&self) -> u64 {
        self.actuations.iter().map(|(_, n)| *n).sum()
    }

    /// Kills one MC outright: its degradation drops to 0 from now on, as if
    /// a sudden-failure threshold already passed. Used by the chaos harness
    /// for scheduled mid-run electrode death. Off-chip cells are ignored.
    pub fn kill_cell(&mut self, cell: Cell) {
        if let Some(slot) = self.fault_at.get_mut(cell) {
            *slot = Some(0);
            self.refresh(cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_core::ForceProvider;
    use meda_grid::Rect;
    use meda_rng::{Rng, SeedableRng, StdRng};

    fn chip(config: &DegradationConfig, seed: u64) -> Biochip {
        let mut rng = StdRng::seed_from_u64(seed);
        Biochip::generate(ChipDims::new(20, 10), config, &mut rng)
    }

    #[test]
    fn fresh_chip_is_fully_healthy() {
        let chip = chip(&DegradationConfig::paper(), 1);
        for cell in chip.dims().cells() {
            assert_eq!(chip.degradation_at(cell), 1.0);
        }
        let h = chip.health_field();
        assert_eq!(h.cell_force(Cell::new(1, 1)), 0.5625); // (3/4)²
    }

    #[test]
    fn actuation_wears_only_actuated_cells() {
        let mut c = chip(&DegradationConfig::paper(), 2);
        let mut u = Grid::new(c.dims(), false);
        u.fill_rect(Rect::new(2, 2, 4, 4), true);
        for _ in 0..100 {
            c.apply_actuation(&u);
        }
        assert_eq!(c.actuation_count(Cell::new(3, 3)), 100);
        assert_eq!(c.actuation_count(Cell::new(10, 5)), 0);
        assert!(c.degradation_at(Cell::new(3, 3)) < 1.0);
        assert_eq!(c.degradation_at(Cell::new(10, 5)), 1.0);
    }

    #[test]
    fn faulty_cells_die_suddenly() {
        let config = DegradationConfig {
            fault_mode: FaultMode::Uniform,
            fault_fraction: 0.2,
            fault_threshold: (5, 10),
            ..DegradationConfig::paper()
        };
        let mut c = chip(&config, 3);
        let all_on = Grid::new(c.dims(), true);
        for _ in 0..10 {
            c.apply_actuation(&all_on);
        }
        let dead = c
            .dims()
            .cells()
            .filter(|&cell| c.degradation_at(cell) == 0.0)
            .count();
        assert_eq!(dead, (200.0 * 0.2) as usize);
    }

    #[test]
    fn pristine_chip_never_degrades() {
        let mut c = chip(&DegradationConfig::pristine(), 4);
        let all_on = Grid::new(c.dims(), true);
        for _ in 0..1000 {
            c.apply_actuation(&all_on);
        }
        assert!(c.dims().cells().all(|cell| c.degradation_at(cell) == 1.0));
        assert_eq!(c.total_actuations(), 1000 * 200);
    }

    #[test]
    fn health_quantizes_degradation() {
        let mut c = chip(&DegradationConfig::paper(), 5);
        let all_on = Grid::new(c.dims(), true);
        for _ in 0..2000 {
            c.apply_actuation(&all_on);
        }
        for cell in c.dims().cells() {
            let d = c.degradation_at(cell);
            let h = c.health_field().health()[cell];
            assert_eq!(h, meda_degradation::quantize_health(d, 2), "at {cell}");
        }
    }

    #[test]
    fn kill_cell_zeroes_degradation_immediately() {
        let mut c = chip(&DegradationConfig::pristine(), 6);
        let victim = Cell::new(4, 4);
        assert_eq!(c.degradation_at(victim), 1.0);
        c.kill_cell(victim);
        assert_eq!(c.degradation_at(victim), 0.0);
        assert_eq!(c.degradation_at(Cell::new(5, 5)), 1.0);
        // Off-chip kill is a no-op, not a panic.
        c.kill_cell(Cell::new(999, 999));
    }

    /// **D** recomputed from scratch, the way every read rebuilt it before
    /// the chip kept live fields.
    fn recomputed(chip: &Biochip) -> Grid<f64> {
        Grid::from_fn(chip.dims, |c| {
            let n = chip.actuations[c];
            match chip.fault_at[c] {
                Some(nf) if n >= nf => 0.0,
                _ => chip.params[c].degradation(n),
            }
        })
    }

    fn assert_live_matches_recomputation(chip: &Biochip) {
        let fresh = recomputed(chip);
        let d = chip.degradation_field();
        let h = chip.health_field();
        assert_eq!(h.bits(), chip.bits());
        for (cell, &want) in fresh.iter() {
            assert_eq!(
                chip.degradation_at(cell).to_bits(),
                want.to_bits(),
                "D at {cell}"
            );
            assert_eq!(
                d.degradation()[cell].to_bits(),
                want.to_bits(),
                "field D at {cell}"
            );
            let level = meda_degradation::quantize_health(want, chip.bits());
            assert_eq!(h.health()[cell], level, "H at {cell}");
        }
    }

    /// A random rectangle, sometimes reaching past the chip edge (clipped).
    fn random_pattern(dims: ChipDims, rng: &mut StdRng) -> Grid<bool> {
        let (w, h) = (dims.width as i32, dims.height as i32);
        let (xa, ya) = (rng.gen_range(-1..=w), rng.gen_range(-1..=h));
        let (xb, yb) = (rng.gen_range(xa..=w + 1), rng.gen_range(ya..=h + 1));
        let mut pattern = Grid::new(dims, false);
        pattern.fill_rect(Rect::new(xa, ya, xb, yb), true);
        pattern
    }

    /// Random wear: bursts of one actuation pattern (long enough to cross
    /// health bins and fault thresholds) and kills, some of them off-chip.
    fn wear_randomly(chip: &mut Biochip, rng: &mut StdRng, steps: usize) {
        let dims = chip.dims();
        for _ in 0..steps {
            if rng.gen_bool(0.25) {
                let cell = Cell::new(
                    rng.gen_range(-2..=dims.width as i32 + 2),
                    rng.gen_range(-2..=dims.height as i32 + 2),
                );
                chip.kill_cell(cell);
            } else {
                let pattern = random_pattern(dims, rng);
                for _ in 0..rng.gen_range(1..=120usize) {
                    chip.apply_actuation(&pattern);
                }
            }
            if rng.gen_bool(0.3) {
                assert_live_matches_recomputation(chip);
            }
        }
    }

    #[test]
    fn live_fields_equal_recomputation_bit_for_bit() {
        let config = DegradationConfig {
            fault_mode: FaultMode::Uniform,
            fault_fraction: 0.2,
            fault_threshold: (3, 300),
            ..DegradationConfig::paper()
        };
        for seed in 0..6 {
            let mut c = chip(&config, 10 + seed);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            // Odd seeds read before any wear; even ones build the live
            // fields only once the chip is already worn.
            if seed % 2 == 1 {
                assert_live_matches_recomputation(&c);
            }
            wear_randomly(&mut c, &mut rng, 20);
            // Clone, then let the copies diverge: neither may see the
            // other's wear through shared state.
            let mut copy = c.clone();
            wear_randomly(&mut c, &mut rng, 20);
            wear_randomly(&mut copy, &mut rng, 20);
            assert_live_matches_recomputation(&c);
            assert_live_matches_recomputation(&copy);
            assert!(
                c.dims().cells().any(|cell| c.degradation_at(cell) == 0.0),
                "seed {seed}: some fault threshold or kill must have fired"
            );
        }
    }

    #[test]
    fn chip_with_live_fields_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Biochip>();
    }

    #[test]
    fn force_read_through_a_reference_matches_direct_read() {
        let mut c = chip(&DegradationConfig::paper(), 8);
        let mut rng = StdRng::seed_from_u64(8);
        wear_randomly(&mut c, &mut rng, 10);
        let h = c.health_field();
        let d = c.degradation_field();
        let (h_ref, d_ref): (&dyn ForceProvider, &dyn ForceProvider) = (&h, &d);
        for cell in Rect::new(-1, -1, 22, 12).cells() {
            assert_eq!(
                h_ref.cell_force(cell).to_bits(),
                h.cell_force(cell).to_bits()
            );
            assert_eq!(
                d_ref.cell_force(cell).to_bits(),
                d.cell_force(cell).to_bits()
            );
        }
        let frontier = Rect::new(19, 3, 21, 3);
        assert_eq!(h_ref.mean_force(frontier), h.mean_force(frontier));
        assert_eq!(d_ref.mean_force(frontier), d.mean_force(frontier));
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = chip(
            &DegradationConfig::paper_with_faults(FaultMode::Clustered, 0.1),
            7,
        );
        let b = chip(
            &DegradationConfig::paper_with_faults(FaultMode::Clustered, 0.1),
            7,
        );
        for cell in a.dims().cells() {
            assert_eq!(a.degradation_at(cell), b.degradation_at(cell));
        }
    }
}
