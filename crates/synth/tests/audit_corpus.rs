//! Corruption-corpus and equivalence-fixture tests for `meda-audit`.
//!
//! Two obligations (ISSUE acceptance criteria):
//!
//! 1. **Equivalence fixtures.** For a spread of pristine model geometries,
//!    solves must pass the *strict* Bellman-residual certificate
//!    (`Certificate::certifies`) for both `Pmax` and `Rmin`.
//! 2. **Corruption corpus.** Seeded single-field mutations of the exported
//!    CSR artifact — one offset, one probability, one branch target, one
//!    goal flag, one strategy entry per case — must *every one* be flagged
//!    by the combined auditor. No mutant may slip through clean.

use meda_audit::{
    audit_model, audit_solution, audit_solution_sound, audit_strategy, bellman_certificate,
    compute_bounds, verify_bounds, BoundsCertificate, ModelArtifact, ValueKind, Violation,
    BOUNDS_MAX_ITERATIONS, CERTIFICATE_EPSILON,
};
use meda_core::{Action, ActionConfig, HazardHandling, RawField, RoutingMdp, UniformField};
use meda_grid::{ChipDims, Grid, Rect};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_synth::{max_reach_probability, min_expected_cycles_with_reach, SolverOptions};

/// The pristine fixture battery: every geometry/field/hazard combination
/// the workspace's own tests and experiments exercise.
fn fixtures() -> Vec<(&'static str, RoutingMdp)> {
    let corridor = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(6, 1, 7, 2),
        Rect::new(1, 1, 7, 2),
        &UniformField::new(0.8),
        &ActionConfig::cardinal_only(),
    )
    .expect("corridor fixture");

    let area_cardinal = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(9, 9, 10, 10),
        Rect::new(1, 1, 10, 10),
        &UniformField::new(0.8),
        &ActionConfig::cardinal_only(),
    )
    .expect("cardinal area fixture");

    let area_full = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(9, 9, 10, 10),
        Rect::new(1, 1, 10, 10),
        &UniformField::new(0.8),
        &ActionConfig::default(),
    )
    .expect("full-action area fixture");

    let sink = RoutingMdp::build_with(
        Rect::new(1, 1, 2, 2),
        Rect::new(7, 7, 8, 8),
        Rect::new(1, 1, 8, 8),
        &UniformField::new(0.9),
        &ActionConfig::cardinal_only(),
        HazardHandling::AbsorbingSink,
    )
    .expect("absorbing-sink fixture");

    // A corridor with a dead cell at (3, 1): single-height droplet, so the
    // dead column is impassable and part of the state space is hopeless.
    let mut forces = Grid::new(ChipDims::new(8, 3), 0.9);
    forces.fill_rect(Rect::new(3, 1, 3, 1), 0.0);
    let blocked = RoutingMdp::build(
        Rect::new(1, 1, 1, 1),
        Rect::new(7, 1, 7, 1),
        Rect::new(1, 1, 7, 1),
        &RawField::new(forces),
        &ActionConfig::cardinal_only(),
    )
    .expect("blocked corridor fixture");

    // A weak (force 0.05) column the optimizer should detour around.
    let mut weak = Grid::new(ChipDims::new(10, 10), 0.9);
    weak.fill_rect(Rect::new(5, 1, 5, 6), 0.05);
    let detour = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(8, 8, 9, 9),
        Rect::new(1, 1, 9, 9),
        &RawField::new(weak),
        &ActionConfig::cardinal_only(),
    )
    .expect("detour fixture");

    // Non-uniform field with the full action set (morphing included).
    let mut rough = Grid::new(ChipDims::new(9, 9), 1.0);
    rough.fill_rect(Rect::new(4, 4, 6, 6), 0.6);
    let morphing = RoutingMdp::build(
        Rect::new(1, 1, 2, 2),
        Rect::new(7, 7, 8, 8),
        Rect::new(1, 1, 8, 8),
        &RawField::new(rough),
        &ActionConfig::default(),
    )
    .expect("morphing fixture");

    vec![
        ("corridor", corridor),
        ("area-cardinal", area_cardinal),
        ("area-full", area_full),
        ("absorbing-sink", sink),
        ("blocked-corridor", blocked),
        ("detour", detour),
        ("morphing", morphing),
    ]
}

fn solve_both(
    mdp: &RoutingMdp,
    options: SolverOptions,
) -> (meda_synth::SolverResult, meda_synth::SolverResult) {
    let reach = max_reach_probability(mdp, options);
    let cycles = min_expected_cycles_with_reach(mdp, options, &reach);
    (reach, cycles)
}

// ---------------------------------------------------------------------------
// Equivalence fixtures: pristine models audit clean, every solver variant
// certifies.
// ---------------------------------------------------------------------------

#[test]
fn pristine_fixtures_audit_clean() {
    for (name, mdp) in fixtures() {
        let artifact = ModelArtifact::from(&mdp);
        let report = audit_model(&artifact);
        assert!(
            report.violations.is_empty(),
            "{name}: pristine model has violations:\n{report}"
        );
    }
}

#[test]
fn cold_solves_certify() {
    for (name, mdp) in fixtures() {
        let artifact = ModelArtifact::from(&mdp);
        let (reach, cycles) = solve_both(&mdp, SolverOptions::default());
        for (kind, result) in [
            (ValueKind::Reachability, &reach),
            (ValueKind::ExpectedCycles, &cycles),
        ] {
            let cert = bellman_certificate(&artifact, &result.values, kind);
            assert!(
                cert.certifies(CERTIFICATE_EPSILON),
                "{name} [{kind:?}] cold solve: residual {} at {:?}, {} inconsistent",
                cert.max_residual,
                cert.worst_state,
                cert.inconsistent.len()
            );
        }
    }
}

#[test]
fn full_solution_audit_is_clean_on_fixtures() {
    for (name, mdp) in fixtures() {
        let artifact = ModelArtifact::from(&mdp);
        let (reach, cycles) = solve_both(&mdp, SolverOptions::default());
        for (kind, result) in [
            (ValueKind::Reachability, &reach),
            (ValueKind::ExpectedCycles, &cycles),
        ] {
            let report = audit_solution(
                &artifact,
                &result.values,
                &result.choice,
                kind,
                CERTIFICATE_EPSILON,
            );
            assert!(report.is_clean(), "{name} [{kind:?}]:\n{report}");
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption corpus: every seeded single-field mutation must be flagged.
// ---------------------------------------------------------------------------

/// Runs the full auditor over a (possibly corrupted) artifact + solution and
/// returns the total violation count across model, value, and strategy
/// passes. Like [`audit_solution`], the value and strategy passes only run
/// once the model audit is structurally clean (the certificate's documented
/// precondition — a dangling target would index out of the value vector).
/// Mutations that keep the model structurally valid (e.g. an offset shift
/// that stays monotone) therefore still reach the certificate and the
/// strategy-closure check, which is where they must be caught.
fn violation_count(
    artifact: &ModelArtifact,
    values: &[f64],
    choice: &[Option<Action>],
    kind: ValueKind,
) -> usize {
    let model = audit_model(artifact).violations.len();
    if model > 0 {
        return model;
    }
    let (value_violations, _) =
        meda_audit::audit_values(artifact, values, kind, CERTIFICATE_EPSILON);
    let strategy = if choice.len() == artifact.states {
        audit_strategy(artifact, choice, values, kind).len()
    } else {
        1 // wrong-length strategy is itself a violation
    };
    value_violations.len() + strategy
}

/// States reachable from `init` when following only the strategy's chosen
/// action at each state — the closure on which [`audit_strategy`] checks
/// totality. Off-closure entries are don't-cares (Algorithm 2 strategies
/// are partial functions on the induced reachable set), so strategy
/// mutations must strike *inside* the closure to be detectable.
fn strategy_closure(art: &ModelArtifact, choice: &[Option<Action>]) -> Vec<usize> {
    let mut seen = vec![false; art.states];
    let mut stack = vec![art.init];
    seen[art.init] = true;
    while let Some(i) = stack.pop() {
        let Some(action) = choice[i] else { continue };
        for c in art.choice_range(i) {
            if art.choice_action[c] != action {
                continue;
            }
            for b in art.branch_range(c) {
                let j = art.branch_target[b] as usize;
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
    }
    (0..art.states).filter(|&i| seen[i]).collect()
}

/// One corpus case: a named single-field mutation applied to a fresh copy
/// of the pristine artifact/solution. Returns `false` when the fixture has
/// no site for this mutation class (e.g. a strategy mutation on a model
/// whose goal is unreachable and whose strategy is therefore all-`None`).
struct Mutation {
    name: &'static str,
    apply: fn(&mut ModelArtifact, &mut Vec<Option<Action>>, &mut StdRng) -> bool,
}

const MUTATIONS: &[Mutation] = &[
    // CSR offset, monotonicity-breaking: zero an interior state offset.
    Mutation {
        name: "offset-nonmonotone",
        apply: |art, _, rng| {
            let i = rng.gen_range(1..art.states);
            art.state_choice_start[i] = 0;
            true
        },
    },
    // CSR offset, semantic shift: bump one interior branch offset by one.
    // The arrays stay monotone if the neighbour allows it, silently moving
    // a transition between adjacent branches — the class of corruption only
    // the probability-mass check or the certificate can see.
    Mutation {
        name: "offset-semantic-shift",
        apply: |art, _, rng| {
            let c = rng.gen_range(1..art.choice_branch_start.len() - 1);
            art.choice_branch_start[c] += 1;
            true
        },
    },
    // Probability mass: scale one branch probability.
    Mutation {
        name: "probability-mass",
        apply: |art, _, rng| {
            let b = rng.gen_range(0..art.branch_prob.len());
            art.branch_prob[b] *= 1.5;
            true
        },
    },
    // Probability sign/NaN corruption.
    Mutation {
        name: "probability-nan",
        apply: |art, _, rng| {
            let b = rng.gen_range(0..art.branch_prob.len());
            art.branch_prob[b] = f64::NAN;
            true
        },
    },
    // Branch target: point one transition out of the state space.
    Mutation {
        name: "target-dangling",
        apply: |art, _, rng| {
            let b = rng.gen_range(0..art.branch_target.len());
            art.branch_target[b] = art.states as u32;
            true
        },
    },
    // Goal flag: flip one state's goal bit. Promoting a state with choices
    // to goal breaks absorption; demoting the real goal breaks the value
    // certificate (its value is pinned by the flag).
    Mutation {
        name: "goal-flip",
        apply: |art, _, rng| {
            let i = rng.gen_range(0..art.states);
            art.goal_flags[i] = !art.goal_flags[i];
            true
        },
    },
    // Strategy entry: erase the decision at a hopeful state with choices.
    Mutation {
        name: "strategy-erased",
        apply: |art, choice, rng| {
            let candidates: Vec<usize> = strategy_closure(art, choice)
                .into_iter()
                .filter(|&i| choice[i].is_some() && !art.goal_flags[i])
                .collect();
            if candidates.is_empty() {
                return false;
            }
            let i = candidates[rng.gen_range(0..candidates.len())];
            choice[i] = None;
            true
        },
    },
    // Strategy entry: replace a decision with an action the state does not
    // offer (the droplet cannot execute it from there).
    Mutation {
        name: "strategy-foreign-action",
        apply: |art, choice, rng| {
            let candidates: Vec<usize> = strategy_closure(art, choice)
                .into_iter()
                .filter(|&i| choice[i].is_some())
                .collect();
            if candidates.is_empty() {
                return false;
            }
            let i = candidates[rng.gen_range(0..candidates.len())];
            let offered: Vec<Action> = art.choice_range(i).map(|c| art.choice_action[c]).collect();
            let foreign = Action::ALL
                .into_iter()
                .find(|a| !offered.contains(a))
                .expect("some action is not offered");
            choice[i] = Some(foreign);
            true
        },
    },
];

#[test]
fn every_corruption_is_flagged() {
    // 3 seeds x 8 mutation classes x 7 fixtures, each applicable mutant of
    // which must trip at least one violation in the combined auditor.
    let mut survivors = Vec::new();
    let mut applied = 0usize;
    for (name, mdp) in fixtures() {
        let pristine = ModelArtifact::from(&mdp);
        let (_, cycles) = solve_both(&mdp, SolverOptions::default());
        for mutation in MUTATIONS {
            for seed in 0..3u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut artifact = pristine.clone();
                let mut choice = cycles.choice.clone();
                if !(mutation.apply)(&mut artifact, &mut choice, &mut rng) {
                    continue;
                }
                applied += 1;
                let flagged = violation_count(
                    &artifact,
                    &cycles.values,
                    &choice,
                    ValueKind::ExpectedCycles,
                );
                if flagged == 0 {
                    survivors.push(format!("{name}/{}/seed{seed}", mutation.name));
                }
            }
        }
    }
    assert!(
        survivors.is_empty(),
        "corruption corpus mutants survived the auditor unflagged: {survivors:?}"
    );
    // 8 classes over 7 fixtures at 3 seeds, minus the strategy classes on
    // the one all-hopeless fixture: the corpus must stay this size or grow.
    assert!(applied >= 150, "corpus shrank: only {applied} mutants ran");
}

#[test]
fn sound_pass_certifies_every_pristine_fixture() {
    // Control for the forgery tests below, and the fixture-level mirror of
    // the `meda audit --sound` acceptance criterion: certified bounds
    // converge to width ≤ 2ε, the solver's values sit inside them, and the
    // shipped strategy's exact induced-chain value does too.
    for (name, mdp) in fixtures() {
        let artifact = ModelArtifact::from(&mdp);
        let (reach, cycles) = solve_both(&mdp, SolverOptions::default());
        for (kind, result) in [
            (ValueKind::Reachability, &reach),
            (ValueKind::ExpectedCycles, &cycles),
        ] {
            let (report, cert) = audit_solution_sound(
                &artifact,
                &result.values,
                &result.choice,
                kind,
                CERTIFICATE_EPSILON,
            );
            assert!(report.is_clean(), "{name} [{kind:?}]:\n{report}");
            let cert = cert.expect("clean structural audit yields a certificate");
            assert!(
                cert.converged && cert.width <= 2.0 * CERTIFICATE_EPSILON,
                "{name} [{kind:?}]: width {} after {} iterations",
                cert.width,
                cert.iterations
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Bound-certificate corpus: forged interval certificates and off-policy
// strategy redirects must be rejected by the sound pass, which re-derives
// every claim from scratch (MEC quotient, monotone backups, exact
// induced-chain evaluation).
// ---------------------------------------------------------------------------

/// One-step factored `Rmin` backup of a *specific* choice `c` at state `i`
/// — used to find enabled actions that are strictly worse than the
/// solver's pick.
fn rmin_choice_backup(art: &ModelArtifact, v: &[f64], i: usize, c: usize) -> f64 {
    let mut p_self = 0.0;
    let mut rest = 0.0;
    for b in art.branch_range(c) {
        let j = art.branch_target[b] as usize;
        let p = art.branch_prob[b];
        if j == i {
            p_self += p;
        } else if v[j].is_infinite() {
            return f64::INFINITY;
        } else {
            rest += p * v[j];
        }
    }
    if p_self >= 1.0 - 1e-12 {
        return f64::INFINITY;
    }
    (1.0 + rest) / (1.0 - p_self)
}

#[test]
fn forged_bound_certificates_are_rejected() {
    // Three forgery classes per fixture per seed: an inflated lower bound
    // (claims the strategy needs more cycles than it provably can), a
    // deflated upper bound (claims cheaper than possible), and a crossed
    // interval. verify_bounds must catch each one from the certificate
    // alone — it never sees which field was touched.
    let mut checked = 0usize;
    for (name, mdp) in fixtures() {
        let artifact = ModelArtifact::from(&mdp);
        let cert = compute_bounds(
            &artifact,
            ValueKind::ExpectedCycles,
            CERTIFICATE_EPSILON,
            BOUNDS_MAX_ITERATIONS,
        );
        assert!(cert.converged, "{name}: fresh bounds did not converge");
        assert!(
            verify_bounds(&artifact, &cert).is_empty(),
            "{name}: fresh bounds fail their own verification"
        );
        let sites: Vec<usize> = (0..artifact.states)
            .filter(|&i| !artifact.goal_flags[i] && cert.hi[i].is_finite() && cert.hi[i] >= 1.0)
            .collect();
        if sites.is_empty() {
            // The all-hopeless fixture: every non-goal state is ∞/∞, so
            // there is no finite bound to forge.
            continue;
        }
        let rejected_as =
            |forged: &BoundsCertificate, label: &str, pred: fn(&Violation) -> bool| {
                let violations = verify_bounds(&artifact, forged);
                assert!(
                    violations.iter().any(pred),
                    "{name}/{label}: forged certificate not rejected as expected: {violations:?}"
                );
            };
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let i = sites[rng.gen_range(0..sites.len())];

            let mut inflated = cert.clone();
            inflated.lo[i] += 1.0;
            inflated.hi[i] = inflated.hi[i].max(inflated.lo[i]);
            rejected_as(&inflated, "inflated-lo", |v| {
                matches!(v, Violation::BoundUnsound { upper: false, .. })
            });

            let mut deflated = cert.clone();
            deflated.hi[i] -= 1.0;
            deflated.lo[i] = deflated.lo[i].min(deflated.hi[i]);
            rejected_as(&deflated, "deflated-hi", |v| {
                matches!(v, Violation::BoundUnsound { upper: true, .. })
            });

            let mut crossed = cert.clone();
            crossed.lo[i] = crossed.hi[i] + 1.0;
            rejected_as(&crossed, "crossed", |v| {
                matches!(v, Violation::BoundsCrossed { .. })
            });

            checked += 3;
        }
    }
    // 3 classes x 3 seeds over the six fixtures with finite values.
    assert!(
        checked >= 54,
        "bound corpus shrank: only {checked} forgeries ran"
    );
}

#[test]
fn off_policy_strategy_redirect_is_rejected_by_the_sound_pass() {
    // Redirect the strategy at a closure state to an enabled-but-worse
    // action. The plain closure audit cannot see it (the action is legal
    // and the walk stays total); the sound pass evaluates the induced
    // chain exactly and must find the attained value outside the
    // certified interval.
    let mut applicable = 0usize;
    for (name, mdp) in fixtures() {
        let artifact = ModelArtifact::from(&mdp);
        let (_, cycles) = solve_both(&mdp, SolverOptions::default());
        let v = &cycles.values;
        // Candidate redirects: closure states with an enabled alternative
        // whose one-step backup is clearly worse than the optimal value
        // (so the induced-chain detour is detectable far beyond 2ε).
        let mut candidates: Vec<(usize, Action)> = Vec::new();
        for i in strategy_closure(&artifact, &cycles.choice) {
            let Some(current) = cycles.choice[i] else {
                continue;
            };
            for c in artifact.choice_range(i) {
                let action = artifact.choice_action[c];
                if action != current && rmin_choice_backup(&artifact, v, i, c) > v[i] + 0.25 {
                    candidates.push((i, action));
                }
            }
        }
        if candidates.is_empty() {
            continue;
        }
        applicable += 1;
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (i, action) = candidates[rng.gen_range(0..candidates.len())];
            let mut choice = cycles.choice.clone();
            choice[i] = Some(action);
            let plain = audit_solution(
                &artifact,
                v,
                &choice,
                ValueKind::ExpectedCycles,
                CERTIFICATE_EPSILON,
            );
            assert!(
                plain.is_clean(),
                "{name}/seed{seed}: the redirect must be invisible to the closure audit:\n{plain}"
            );
            let (report, _) = audit_solution_sound(
                &artifact,
                v,
                &choice,
                ValueKind::ExpectedCycles,
                CERTIFICATE_EPSILON,
            );
            assert!(
                report
                    .violations
                    .iter()
                    .any(|vi| matches!(vi, Violation::StrategyValueOutsideBounds { .. })),
                "{name}/seed{seed}: off-policy redirect at state {i} survived the sound pass"
            );
        }
    }
    assert!(
        applicable >= 3,
        "only {applicable} fixtures offered a worse enabled action"
    );
}

#[test]
fn pristine_copies_of_the_corpus_baseline_stay_clean() {
    // Control for the test above: the unmutated artifact/solution pairs the
    // corpus starts from must audit clean, so the mutants' violations are
    // attributable to the mutation alone.
    for (name, mdp) in fixtures() {
        let artifact = ModelArtifact::from(&mdp);
        let (_, cycles) = solve_both(&mdp, SolverOptions::default());
        let flagged = violation_count(
            &artifact,
            &cycles.values,
            &cycles.choice,
            ValueKind::ExpectedCycles,
        );
        assert_eq!(flagged, 0, "{name}: pristine baseline is not clean");
    }
}
