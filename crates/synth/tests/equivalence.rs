//! Equivalence of the CSR/dense-index model builder against a reference
//! implementation of the original hash-map-based construction, and of the
//! flat-array solver sweeps against per-state reference iteration.
//!
//! The CSR rewrite (DESIGN.md §7) must be a pure representation change:
//! identical state sets in identical BFS order, identical `MdpStats`, and
//! solver values equal to the reference within 1e-9 — including the
//! `AbsorbingSink` sentinel path and the blocked/detour cases that
//! exercise ∞ values.

use std::collections::HashMap;

use meda_core::{
    transitions, Action, ActionConfig, ForceProvider, HazardHandling, RawField, RoutingMdp,
    UniformField,
};
use meda_grid::{Cell, ChipDims, Grid, Rect};
use meda_synth::{max_reach_probability, min_expected_cycles, SolverOptions};

/// One state's choices in the pre-CSR nested-`Vec` layout.
type ChoiceRow = Vec<(Action, Vec<(usize, f64)>)>;

/// The pre-CSR model layout: per-state nested vectors plus a hash-map
/// state index — the representation the dense/CSR builder replaced.
struct RefMdp {
    states: Vec<Rect>,
    choices: Vec<ChoiceRow>,
    goal_flags: Vec<bool>,
    sink: Option<usize>,
}

/// Faithful reimplementation of the original hash-map BFS construction.
fn build_reference(
    start: Rect,
    goal: Rect,
    bounds: Rect,
    field: &dyn ForceProvider,
    config: &ActionConfig,
    hazard: HazardHandling,
) -> RefMdp {
    let mut states = vec![start];
    let mut index: HashMap<Rect, usize> = HashMap::new();
    index.insert(start, 0);
    let mut choices: Vec<ChoiceRow> = Vec::new();
    let mut goal_flags = vec![goal.contains_rect(start)];
    let mut sink: Option<usize> = None;

    let mut frontier = 0;
    while frontier < states.len() {
        let delta = states[frontier];
        let mut row = Vec::new();
        let is_sink = Some(frontier) == sink;
        if !goal_flags[frontier] && !is_sink {
            for action in Action::ALL {
                let enabled = match hazard {
                    HazardHandling::GuardDisable => action.is_enabled(delta, bounds, config),
                    HazardHandling::AbsorbingSink => {
                        action.is_applicable(delta)
                            && action.is_enabled(delta, bounds.expand(4), config)
                    }
                };
                if !enabled {
                    continue;
                }
                let mut branch = Vec::new();
                for outcome in transitions(delta, action, field) {
                    if outcome.probability <= 0.0 {
                        continue;
                    }
                    let next = if bounds.contains_rect(outcome.droplet) {
                        *index.entry(outcome.droplet).or_insert_with(|| {
                            states.push(outcome.droplet);
                            goal_flags.push(goal.contains_rect(outcome.droplet));
                            states.len() - 1
                        })
                    } else {
                        *sink.get_or_insert_with(|| {
                            let sentinel = bounds.translate(2 * (bounds.xb - bounds.xa + 10), 0);
                            states.push(sentinel);
                            goal_flags.push(false);
                            index.insert(sentinel, states.len() - 1);
                            states.len() - 1
                        })
                    };
                    branch.push((next, outcome.probability));
                }
                if !branch.is_empty() {
                    row.push((action, branch));
                }
            }
        }
        choices.push(row);
        frontier += 1;
    }

    RefMdp {
        states,
        choices,
        goal_flags,
        sink,
    }
}

/// Reference Gauss–Seidel Pmax over the nested-vector layout.
fn ref_pmax(mdp: &RefMdp) -> Vec<f64> {
    let n = mdp.states.len();
    let mut values: Vec<f64> = (0..n)
        .map(|i| if mdp.goal_flags[i] { 1.0 } else { 0.0 })
        .collect();
    for _ in 0..100_000 {
        let mut delta = 0.0f64;
        for i in 0..n {
            if mdp.goal_flags[i] {
                continue;
            }
            let mut best = 0.0f64;
            for (_, branch) in &mdp.choices[i] {
                let v: f64 = branch.iter().map(|&(j, p)| p * values[j]).sum();
                best = best.max(v);
            }
            delta = delta.max((best - values[i]).abs());
            values[i] = best;
        }
        if delta < 1e-12 {
            break;
        }
    }
    values
}

/// Reference Gauss–Seidel Rmin with self-loop factoring and ∞-seeding.
fn ref_rmin(mdp: &RefMdp) -> Vec<f64> {
    let reach = ref_pmax(mdp);
    let n = mdp.states.len();
    let mut values: Vec<f64> = (0..n)
        .map(|i| {
            if mdp.goal_flags[i] {
                0.0
            } else if reach[i] < 1.0 - 1e-6 {
                f64::INFINITY
            } else {
                0.0
            }
        })
        .collect();
    for _ in 0..100_000 {
        let mut delta = 0.0f64;
        for i in 0..n {
            if mdp.goal_flags[i] || values[i].is_infinite() {
                continue;
            }
            let mut best = f64::INFINITY;
            'choices: for (_, branch) in &mdp.choices[i] {
                let mut p_self = 0.0;
                let mut rest = 0.0;
                for &(j, p) in branch {
                    if j == i {
                        p_self += p;
                    } else if values[j].is_infinite() {
                        continue 'choices;
                    } else {
                        rest += p * values[j];
                    }
                }
                if p_self < 1.0 - 1e-12 {
                    best = best.min((1.0 + rest) / (1.0 - p_self));
                }
            }
            if best.is_finite() {
                delta = delta.max((best - values[i]).abs());
                values[i] = best;
            }
        }
        if delta < 1e-12 {
            break;
        }
    }
    values
}

/// Asserts the CSR model is bit-identical to the reference construction:
/// same states in the same order, same per-state actions and branch
/// distributions, same sink, same stats.
fn assert_models_equal(mdp: &RoutingMdp, reference: &RefMdp) {
    assert_eq!(mdp.len(), reference.states.len(), "state count");
    for i in 0..mdp.len() {
        assert_eq!(mdp.state(i), reference.states[i], "state {i}");
        assert_eq!(mdp.is_goal(i), reference.goal_flags[i], "goal flag {i}");
        assert_eq!(mdp.state_index(reference.states[i]), Some(i));
        let got: Vec<(Action, Vec<(usize, f64)>)> = mdp
            .choices(i)
            .iter()
            .map(|(a, b)| (a, b.to_vec()))
            .collect();
        assert_eq!(got, reference.choices[i], "choices of state {i}");
    }
    assert_eq!(mdp.hazard_sink(), reference.sink, "sink index");
    let stats = mdp.stats();
    assert_eq!(stats.states, reference.states.len());
    assert_eq!(
        stats.choices,
        reference.choices.iter().map(Vec::len).sum::<usize>()
    );
    assert_eq!(
        stats.transitions,
        reference
            .choices
            .iter()
            .flatten()
            .map(|(_, b)| b.len())
            .sum::<usize>()
    );
}

/// Asserts solver values agree with the reference within 1e-9 (∞ matches
/// exactly).
fn assert_values_equal(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if w.is_infinite() {
            assert!(g.is_infinite(), "state {i}: {g} vs ∞");
        } else {
            assert!((g - w).abs() < 1e-9, "state {i}: {g} vs {w}");
        }
    }
}

fn check_case(
    start: Rect,
    goal: Rect,
    bounds: Rect,
    field: &dyn ForceProvider,
    config: &ActionConfig,
    hazard: HazardHandling,
) {
    let mdp = RoutingMdp::build_with(start, goal, bounds, field, config, hazard).unwrap();
    let reference = build_reference(start, goal, bounds, field, config, hazard);
    assert_models_equal(&mdp, &reference);
    // Converge both sides to 1e-12 so the 1e-9 comparison measures the
    // representations, not residual iteration error.
    let opts = SolverOptions {
        epsilon: 1e-12,
        ..SolverOptions::default()
    };
    assert_values_equal(
        &max_reach_probability(&mdp, opts).values,
        &ref_pmax(&reference),
    );
    assert_values_equal(
        &min_expected_cycles(&mdp, opts).values,
        &ref_rmin(&reference),
    );
}

#[test]
fn hand_enumerated_corridor() {
    // 1×1 droplet, 3-cell corridor at force 0.5: exactly the states
    // (1,1), (2,1), (3,1) in BFS order; the interior state has E and W,
    // the start only E, the goal nothing; every move branches into
    // {success 0.5, stay 0.5}.
    let mdp = RoutingMdp::build(
        Rect::new(1, 1, 1, 1),
        Rect::new(3, 1, 3, 1),
        Rect::new(1, 1, 3, 1),
        &UniformField::new(0.5),
        &ActionConfig::cardinal_only(),
    )
    .unwrap();
    assert_eq!(mdp.len(), 3);
    assert_eq!(mdp.state(0), Rect::new(1, 1, 1, 1));
    let s1 = mdp.state_index(Rect::new(2, 1, 2, 1)).unwrap();
    let s2 = mdp.state_index(Rect::new(3, 1, 3, 1)).unwrap();
    assert_eq!((s1, s2), (1, 2), "BFS discovers left-to-right");
    assert!(mdp.is_goal(2) && !mdp.is_goal(0) && !mdp.is_goal(1));

    let stats = mdp.stats();
    assert_eq!(stats.states, 3);
    assert_eq!(stats.choices, 3, "E at s0; E and W at s1");
    assert_eq!(stats.transitions, 6, "each move: success + stay");
    assert!(mdp.choices(2).is_empty());

    for i in [0usize, 1] {
        for (_, branch) in mdp.choices(i) {
            assert_eq!(branch.len(), 2);
            let total: f64 = branch.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(branch.iter().any(|(j, _)| j == i), "stay branch");
        }
    }
    // Expected cycles: distance 2 at success probability 0.5 each step.
    let r = min_expected_cycles(&mdp, SolverOptions::default());
    assert!((r.values[0] - 4.0).abs() < 1e-9);

    check_case(
        Rect::new(1, 1, 1, 1),
        Rect::new(3, 1, 3, 1),
        Rect::new(1, 1, 3, 1),
        &UniformField::new(0.5),
        &ActionConfig::cardinal_only(),
        HazardHandling::GuardDisable,
    );
}

#[test]
fn uniform_area_matches_reference() {
    for config in [ActionConfig::cardinal_only(), ActionConfig::default()] {
        check_case(
            Rect::new(1, 1, 3, 3),
            Rect::new(8, 8, 10, 10),
            Rect::new(1, 1, 10, 10),
            &UniformField::new(0.8),
            &config,
            HazardHandling::GuardDisable,
        );
    }
}

#[test]
fn absorbing_sink_sentinel_matches_reference() {
    for config in [ActionConfig::cardinal_only(), ActionConfig::default()] {
        check_case(
            Rect::new(1, 1, 3, 3),
            Rect::new(8, 8, 10, 10),
            Rect::new(1, 1, 10, 10),
            &UniformField::new(0.9),
            &config,
            HazardHandling::AbsorbingSink,
        );
    }
}

#[test]
fn blocked_corridor_matches_reference() {
    // Dead middle cell ⇒ Pmax 0 / Rmin ∞ at the init state; the ∞
    // plumbing must agree exactly between layouts.
    let dims = ChipDims::new(5, 1);
    let mut f = Grid::new(dims, 1.0);
    f[Cell::new(3, 1)] = 0.0;
    check_case(
        Rect::new(1, 1, 1, 1),
        Rect::new(5, 1, 5, 1),
        Rect::new(1, 1, 5, 1),
        &RawField::new(f),
        &ActionConfig::cardinal_only(),
        HazardHandling::GuardDisable,
    );
}

#[test]
fn detour_field_matches_reference() {
    let dims = ChipDims::new(7, 5);
    let mut f = Grid::new(dims, 1.0);
    for y in 1..=4 {
        f[Cell::new(4, y)] = 0.05;
    }
    let field = RawField::new(f);
    for hazard in [HazardHandling::GuardDisable, HazardHandling::AbsorbingSink] {
        check_case(
            Rect::new(1, 1, 1, 1),
            Rect::new(7, 1, 7, 1),
            Rect::new(1, 1, 7, 5),
            &field,
            &ActionConfig::cardinal_only(),
            hazard,
        );
    }
}

#[test]
fn nonuniform_field_with_morphing_matches_reference() {
    let dims = ChipDims::new(9, 9);
    let f = Grid::from_fn(dims, |c: Cell| {
        0.3 + 0.6 * f64::from((c.x * 7 + c.y * 13) % 10) / 10.0
    });
    let field = RawField::new(f);
    check_case(
        Rect::new(1, 1, 2, 3),
        Rect::new(7, 7, 9, 9),
        Rect::new(1, 1, 9, 9),
        &field,
        &ActionConfig::default(),
        HazardHandling::GuardDisable,
    );
}
