//! Degradation monotonicity of `Rmin`, driven by `meda-check`: does a
//! healthier field's optimal expected completion time lower-bound a
//! degraded field's, state by state? It depends on the action set:
//!
//! * **Cardinal-only models** have no partial-move outcomes — every move
//!   either succeeds or stays — so expected cycles are genuinely monotone
//!   nonincreasing in the field, and a healthier field's values lower-bound
//!   a degraded field's values everywhere. The property below checks
//!   exactly that.
//! * **Ordinal moves break the bound**: an ordinal step reaches its
//!   axis-partial landing with probability `p·(1−p)`, which *rises* as the
//!   frontier degrades past `p = 0.5`. When the only useful way into the
//!   goal is such a partial branch, degradation makes the route *faster*.
//!   The counterexample test pins this down on a 3×3 chip.

use meda_check::{arb, cases_from_env, check, choose_i32, default_corpus_dir, Config, Gen};
use meda_core::{ActionConfig, RawField, RoutingMdp};
use meda_grid::{Cell, ChipDims, Grid, Rect};
use meda_synth::{min_expected_cycles, SolverOptions};

/// A chip with a strictly positive base field and a pointwise-degraded
/// copy, plus a routing job on it. Strict positivity keeps the reachable
/// state space identical across the two fields (the builder drops zero-
/// probability branches).
#[derive(Debug, Clone)]
struct DegradedPair {
    dims: ChipDims,
    healthy: Grid<f64>,
    degraded: Grid<f64>,
    start: Rect,
    goal: Rect,
}

fn degraded_pair() -> Gen<DegradedPair> {
    arb::dims(4, 8).flat_map(|&dims| {
        let bounds = dims.bounds();
        arb::droplet_in(bounds, 2)
            .flat_map(move |&start| {
                let (w, h) = (start.width(), start.height());
                choose_i32(bounds.xa, bounds.xb - w as i32 + 1)
                    .zip(choose_i32(bounds.ya, bounds.yb - h as i32 + 1))
                    .map(move |&(gx, gy)| (start, Rect::with_size(gx, gy, w, h)))
            })
            .zip(
                arb::degradation_matrix(dims, 0.3, 1.0)
                    .zip(arb::degradation_matrix(dims, 0.5, 1.0)),
            )
            .map(move |case| {
                let ((start, goal), (healthy, factor)) = case;
                let degraded = healthy.map(|c, v| v * factor[c]);
                DegradedPair {
                    dims,
                    healthy: healthy.clone(),
                    degraded,
                    start: *start,
                    goal: *goal,
                }
            })
    })
}

fn build(pair: &DegradedPair, field: &Grid<f64>) -> Result<RoutingMdp, String> {
    RoutingMdp::build(
        pair.start,
        pair.goal,
        pair.dims.bounds(),
        &RawField::new(field.clone()),
        &ActionConfig::cardinal_only(),
    )
    .map_err(|e| format!("build failed: {e:?}"))
}

/// Without partial-move outcomes, a healthier field's Rmin values are a
/// pointwise lower bound on the degraded field's.
#[test]
fn healthy_rmin_lower_bounds_degraded_rmin_on_cardinal_models() {
    let config = Config::default()
        .with_cases(cases_from_env(48))
        .with_corpus(default_corpus_dir());
    check("synth-rmin-monotone", &config, &degraded_pair(), |pair| {
        let healthy_mdp = build(pair, &pair.healthy)?;
        let degraded_mdp = build(pair, &pair.degraded)?;
        if healthy_mdp.stats().states != degraded_mdp.stats().states {
            return Err("state spaces diverged on positive fields".into());
        }
        let healthy = min_expected_cycles(&healthy_mdp, SolverOptions::default());
        let degraded = min_expected_cycles(&degraded_mdp, SolverOptions::default());
        if !(healthy.converged && degraded.converged) {
            return Err("a solve failed to converge".into());
        }
        for (i, (&h, &d)) in healthy.values.iter().zip(&degraded.values).enumerate() {
            if h.is_finite() != d.is_finite() {
                return Err(format!("state {i}: finiteness diverged ({h}, {d})"));
            }
            if h.is_finite() && d < h - 1e-6 {
                return Err(format!(
                    "state {i}: degraded value {d} below healthy value {h}"
                ));
            }
        }
        Ok(())
    });
}

/// The documented counterexample: with ordinal moves the bound fails.
///
/// On a 3×3 chip the goal (2,2) is gated by a nearly dead direct frontier
/// (force 0.05 at the goal cell), so the fast route from (2,1) is the
/// ordinal NE step whose *N-only partial* branch lands exactly on the
/// goal. Both of that branch's frontier cells read force `p` from cell
/// (3,2), so the branch fires with probability `p·(1−p)`: degrading `p`
/// from 0.9 to 0.5 raises it from 0.09 to 0.25, and the expected
/// completion time *drops* — the healthy values are not a lower bound for
/// the degraded fixed point.
#[test]
fn ordinal_partial_moves_break_seed_monotonicity() {
    let dims = ChipDims::new(3, 3);
    let field_with = |p: f64| {
        let mut f = Grid::new(dims, p);
        f[Cell::new(2, 2)] = 0.05;
        RawField::new(f)
    };
    let build = |p: f64| {
        RoutingMdp::build(
            Rect::new(2, 1, 2, 1),
            Rect::new(2, 2, 2, 2),
            dims.bounds(),
            &field_with(p),
            &ActionConfig::moves_only(),
        )
        .expect("3x3 model builds")
    };
    let healthy = build(0.9);
    let degraded = build(0.5);
    assert_eq!(healthy.stats().states, degraded.stats().states);
    let v_healthy = min_expected_cycles(&healthy, SolverOptions::default());
    let v_degraded = min_expected_cycles(&degraded, SolverOptions::default());
    let (init_h, init_d) = (
        v_healthy.values[healthy.init()],
        v_degraded.values[degraded.init()],
    );
    assert!(
        init_d < init_h - 0.5,
        "expected the degraded chip to finish faster: healthy {init_h}, degraded {init_d}"
    );
}
