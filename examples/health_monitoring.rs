//! Health monitoring end to end: from the dual-DFF circuit reading of
//! Section III to the quantized health matrix the router consumes.
//!
//! Wears a small chip down, senses it through the operational-cycle model,
//! and prints the health map together with the underlying (hidden)
//! degradation levels.
//!
//! ```sh
//! cargo run --release --example health_monitoring
//! ```

use meda::cell::{CellParams, OperationalCycle};
use meda::degradation::DegradationParams;
use meda::grid::{Cell, ChipDims, Grid, Rect};
use meda::sim::{Biochip, DegradationConfig};
use meda_rng::SeedableRng;

fn main() {
    let dims = ChipDims::new(24, 10);
    let mut rng = meda_rng::StdRng::seed_from_u64(5);
    let mut chip = Biochip::generate(dims, &DegradationConfig::paper(), &mut rng);

    // Stress a corridor the way a repeatedly-used droplet route would.
    let corridor = Rect::new(3, 4, 20, 7);
    let mut pattern = Grid::new(dims, false);
    pattern.fill_rect(corridor, true);
    for _ in 0..700 {
        chip.apply_actuation(&pattern);
    }

    // Per-MC circuit-level sensing (Fig. 2): map each MC's degradation to
    // a capacitance and read it through the dual-DFF circuit.
    let params = CellParams::paper();
    let cycle = OperationalCycle::new(dims, params);
    let caps = chip.degradation_field().degradation().map(|_, &d| {
        // Interpolate Table I: D = 1 → healthy capacitance, D = 0 → fully
        // degraded capacitance.
        params.cap_degraded - (params.cap_degraded - params.cap_healthy) * d
    });
    let report = cycle.run(&Grid::new(dims, false), &caps, &Grid::new(dims, false));

    println!("2-bit circuit readings (row 10 at top; corridor rows 4-7 are worn):");
    for y in (1..=dims.height as i32).rev() {
        let line: String = (1..=dims.width as i32)
            .map(|x| char::from_digit(u32::from(report.health[Cell::new(x, y)].bits()), 4).unwrap())
            .collect();
        println!("  {line}");
    }

    // The model-level health matrix the router sees (H = ⌊2^b·D⌋).
    let health = chip.health_field();
    println!("\nquantized health levels H (b = 2):");
    for y in (1..=dims.height as i32).rev() {
        let line: String = (1..=dims.width as i32)
            .map(|x| {
                char::from_digit(u32::from(health.health()[Cell::new(x, y)].level()), 4).unwrap()
            })
            .collect();
        println!("  {line}");
    }

    let sample = Cell::new(10, 5);
    println!(
        "\nMC {sample}: n = {} actuations, true D = {:.3}, observed H = {} \
         (estimate {:.2}), projected dead after {} total actuations",
        chip.actuation_count(sample),
        chip.degradation_at(sample),
        health.health()[sample].level(),
        health.health()[sample].as_degradation(2),
        DegradationParams::new(0.7, 350.0)
            .actuations_to_reach(0.25)
            .unwrap_or(u64::MAX),
    );
    println!(
        "\nscan-out stream per operational cycle: {} bits ({} location + {} health)",
        report.scan_bits,
        dims.cell_count(),
        2 * dims.cell_count()
    );
}
