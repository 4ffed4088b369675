//! Solver agreement, meda-check style: the product engine (topological
//! value iteration) must land on the same `Pmax`/`Rmin` fixed points as the
//! frozen Gauss–Seidel reference ([`meda_bench::gs`]) across generated
//! chips, droplets, and degradation fields — with shrinking to a small
//! witness on disagreement.

use meda_bench::gs;
use meda_check::oracle::{routing_scenario, RoutingScenario};
use meda_check::{cases_from_env, run_property, Config, Outcome};
use meda_core::{ActionConfig, RawField, RoutingMdp};
use meda_grid::{Cell, ChipDims, Grid, Rect};
use meda_synth::{max_reach_probability, min_expected_cycles, SolverOptions};

/// Relative agreement with matching infinities. An ε-Bellman-residual only
/// bounds the *value* error by ε/(1−γ), where the per-sweep contraction γ
/// depends on the field, so the tolerance must sit above the residual
/// threshold: ~2e-7 relative at epsilon 1e-9 for arbitrary generated fields,
/// 1e-7 for the fixed fixtures below.
fn agree(a: &[f64], b: &[f64], rel: f64, what: &str) -> Result<(), String> {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.is_infinite() || y.is_infinite() {
            if x != y {
                return Err(format!("{what}: state {i} finite/infinite: {x} vs {y}"));
            }
        } else if (x - y).abs() > rel * f64::max(1.0, y.abs()) {
            return Err(format!("{what}: state {i}: {x} vs {y}"));
        }
    }
    Ok(())
}

/// Both queries, product engine against the reference, at relative
/// tolerance `rel`.
fn check_against_reference(mdp: &RoutingMdp, rel: f64) -> Result<(), String> {
    let options = SolverOptions::default();
    let base_p = gs::max_reach_probability(mdp, options);
    let base_r = gs::min_expected_cycles(mdp, options);
    if !base_p.converged || !base_r.converged {
        return Err("reference Gauss–Seidel did not converge".into());
    }
    let p = max_reach_probability(mdp, options);
    let r = min_expected_cycles(mdp, options);
    if !p.converged || !r.converged {
        return Err("topological engine did not converge".into());
    }
    agree(&p.values, &base_p.values, rel, "Pmax")?;
    agree(&r.values, &base_r.values, rel, "Rmin")
}

fn check_scenario(s: &RoutingScenario) -> Result<(), String> {
    let mdp = s.build().map_err(|e| format!("{e:?}"))?;
    check_against_reference(&mdp, 2e-7)
}

#[test]
fn topological_agrees_with_reference_on_generated_scenarios() {
    let gen = routing_scenario(4, 8);
    let config = Config::default().with_cases(cases_from_env(24));
    let out = run_property("solver-matches-reference", &config, &gen, check_scenario);
    if let Outcome::Failed(f) = out {
        panic!(
            "topological engine disagrees with the reference:\n{}",
            f.report()
        );
    }
}

/// A hand-seeded fixture whose condensation has exactly one non-trivial
/// component (reversible moves glue all non-goal states together), forcing
/// the topological engine's within-SCC iteration path rather than the
/// one-backup acyclic shortcut — and it must still match the reference.
#[test]
fn cyclic_scc_fixture_forces_within_scc_iteration() {
    let dims = ChipDims::new(9, 9);
    let mut f = Grid::new(dims, 1.0);
    // A weak diagonal band keeps the field interesting without
    // disconnecting anything.
    for k in 2..=7 {
        f[Cell::new(k, k)] = 0.4;
    }
    let mdp = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(8, 8, 9, 9),
        Rect::new(1, 1, 9, 9),
        &RawField::new(f),
        &ActionConfig::cardinal_only(),
    )
    .unwrap();
    let cond = mdp.condensation();
    assert_eq!(cond.nontrivial(), 1, "expected one big cyclic component");
    assert!(cond.largest() > 1);
    check_against_reference(&mdp, 2e-7).unwrap();
}

/// The uniform-force counterpart: every non-goal state of a 10×10 area at
/// force 0.5 sits in one cyclic component, so this also runs the
/// within-SCC path, against the reference at 1e-7.
#[test]
fn uniform_cyclic_fixture_matches_reference() {
    let mdp = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(9, 9, 10, 10),
        Rect::new(1, 1, 10, 10),
        &meda_core::UniformField::new(0.5),
        &ActionConfig::cardinal_only(),
    )
    .unwrap();
    let cond = mdp.condensation();
    assert_eq!(cond.nontrivial(), 1, "expected one big cyclic component");
    assert!(cond.largest() > 1);
    check_against_reference(&mdp, 1e-7).unwrap();
}

/// A weak wall with a one-row gap: the optimal strategy detours, and both
/// engines must agree on every state's value, the detour included.
#[test]
fn detour_fixture_matches_reference() {
    let dims = ChipDims::new(7, 5);
    let mut f = Grid::new(dims, 1.0);
    for y in 1..=4 {
        f[Cell::new(4, y)] = 0.05;
    }
    let mdp = RoutingMdp::build(
        Rect::new(1, 1, 1, 1),
        Rect::new(7, 1, 7, 1),
        Rect::new(1, 1, 7, 5),
        &RawField::new(f),
        &ActionConfig::cardinal_only(),
    )
    .unwrap();
    check_against_reference(&mdp, 1e-7).unwrap();
}

/// The reference confirms convergence the same way the product engine
/// does: a converged result carries a frozen-iterate residual below
/// epsilon, which one exact audit backup re-checks.
#[test]
fn reference_convergence_is_confirmed_against_the_frozen_iterate() {
    let mdp = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(9, 9, 10, 10),
        Rect::new(1, 1, 10, 10),
        &meda_core::UniformField::new(0.3),
        &ActionConfig::cardinal_only(),
    )
    .unwrap();
    let options = SolverOptions {
        epsilon: 1e-3,
        ..SolverOptions::default()
    };
    let r = gs::min_expected_cycles(&mdp, options);
    assert!(r.converged);
    assert!(r.residual < options.epsilon, "residual {}", r.residual);
    let artifact = meda_audit::ModelArtifact::from(&mdp);
    let cert = meda_audit::bellman_certificate(
        &artifact,
        &r.values,
        meda_audit::ValueKind::ExpectedCycles,
    );
    assert!(
        cert.max_residual <= options.epsilon * 1.01,
        "audit residual {} exceeds epsilon",
        cert.max_residual
    );
}
