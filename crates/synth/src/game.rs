//! Robust strategy synthesis on the two-player game — the SMG side of the
//! paper's formalism (Section V-C) beyond the fixed-health MDP reduction.
//!
//! The paper reduces the MEDA stochastic game to an MDP by freezing the
//! health matrix during one routing job (Section VI-C), arguing health
//! changes within a job are small. This module quantifies that argument:
//! it solves the *game* where, each cycle, the degradation player may spend
//! one unit of a bounded interference budget to knock out (zero, for that
//! cycle) any single microelectrode in the controller's frontier sets.
//! Alternating min/max value iteration over the product
//! `(droplet, remaining budget)` yields worst-case guarantees:
//!
//! * [`RobustGame::min_expected_cycles`] — the worst-case expected
//!   completion time the controller can still guarantee;
//! * [`RobustGame::max_reach_probability`] — the guaranteed reachability
//!   probability.
//!
//! With budget 0 the game collapses to the paper's MDP, which is asserted
//! by tests; small budgets give a principled margin for the health drift
//! the partial-order reduction ignores.

use meda_core::{frontier_set, Action, ActionConfig, BuildError, Dir, ForceProvider, RoutingMdp};
use meda_grid::{Cell, Rect};

use crate::SolverOptions;

/// One adversary variant of a controller action: whether it spends budget,
/// and the outcome distribution it induces.
type Variant = (bool, Vec<(usize, f64)>);

/// The budget-bounded robust routing game (see module docs).
#[derive(Debug, Clone)]
pub struct RobustGame {
    base: RoutingMdp,
    budget: u32,
    /// Per base state, per enabled action: the adversary's variants
    /// (variant 0 is always "no interference").
    variants: Vec<Vec<(Action, Vec<Variant>)>>,
}

/// Worst-case values over the product state space.
#[derive(Debug, Clone)]
pub struct RobustValues {
    values: Vec<f64>,
    choice: Vec<Option<Action>>,
    states: usize,
    budget: u32,
    /// Whether value iteration converged.
    pub converged: bool,
}

impl RobustValues {
    /// The value at `(state, remaining_budget)`.
    ///
    /// # Panics
    ///
    /// Panics if the state index or budget is out of range.
    #[must_use]
    pub fn at(&self, state: usize, budget: u32) -> f64 {
        assert!(state < self.states && budget <= self.budget);
        self.values[state * (self.budget as usize + 1) + budget as usize]
    }

    /// The worst-case optimal action at `(state, remaining_budget)`.
    ///
    /// # Panics
    ///
    /// Panics if the state index or budget is out of range.
    #[must_use]
    pub fn action_at(&self, state: usize, budget: u32) -> Option<Action> {
        assert!(state < self.states && budget <= self.budget);
        self.choice[state * (self.budget as usize + 1) + budget as usize]
    }
}

/// A force field with one microelectrode transiently knocked out.
struct Knockout<'a> {
    inner: &'a dyn ForceProvider,
    dead: Cell,
}

impl ForceProvider for Knockout<'_> {
    fn cell_force(&self, cell: Cell) -> f64 {
        if cell == self.dead {
            0.0
        } else {
            self.inner.cell_force(cell)
        }
    }
}

impl RobustGame {
    /// Builds the robust game over the same geometry as
    /// [`RoutingMdp::build`], with the given adversary budget.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the underlying MDP construction.
    pub fn build(
        start: Rect,
        goal: Rect,
        bounds: Rect,
        field: &dyn ForceProvider,
        config: &ActionConfig,
        budget: u32,
    ) -> Result<Self, BuildError> {
        let base = RoutingMdp::build(start, goal, bounds, field, config)?;
        let mut variants = Vec::with_capacity(base.len());
        for i in base.state_indices() {
            let delta = base.state(i);
            let mut per_action = Vec::new();
            for (action, base_branch) in base.choices(i) {
                let mut list: Vec<Variant> = vec![(false, base_branch.to_vec())];
                for cell in interference_targets(delta, action) {
                    let knocked = Knockout {
                        inner: field,
                        dead: cell,
                    };
                    let branch: Vec<(usize, f64)> = meda_core::transitions(delta, action, &knocked)
                        .into_iter()
                        .filter(|o| o.probability > 0.0)
                        .map(|o| {
                            let j = base
                                .state_index(o.droplet)
                                .expect("knockout cannot create new outcomes");
                            (j, o.probability)
                        })
                        .collect();
                    list.push((true, branch));
                }
                per_action.push((action, list));
            }
            variants.push(per_action);
        }
        Ok(Self {
            base,
            budget,
            variants,
        })
    }

    /// The underlying (budget-0) routing MDP.
    #[must_use]
    pub fn base(&self) -> &RoutingMdp {
        &self.base
    }

    /// The adversary's total interference budget.
    #[must_use]
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Worst-case minimum expected cycles to the goal: the controller
    /// minimizes, the interference adversary maximizes.
    #[must_use]
    pub fn min_expected_cycles(&self, options: SolverOptions) -> RobustValues {
        self.solve(options, true)
    }

    /// Guaranteed (worst-case) probability of reaching the goal.
    #[must_use]
    pub fn max_reach_probability(&self, options: SolverOptions) -> RobustValues {
        self.solve(options, false)
    }

    fn solve(&self, options: SolverOptions, cycles: bool) -> RobustValues {
        let n = self.base.len();
        let width = self.budget as usize + 1;
        let mut values = vec![0.0f64; n * width];
        let mut choice: Vec<Option<Action>> = vec![None; n * width];
        if !cycles {
            for i in 0..n {
                if self.base.is_goal(i) {
                    for b in 0..width {
                        values[i * width + b] = 1.0;
                    }
                }
            }
        }

        // For Rmin, seed hopeless states with ∞ via the budget-0 (plain
        // MDP) reachability: interference is transient, so a state that
        // reaches the goal a.s. without interference still does under a
        // finite budget (the adversary runs out).
        if cycles {
            let reach = crate::max_reach_probability(&self.base, options);
            for i in 0..n {
                if !self.base.is_goal(i) && reach.values[i] < 1.0 - 1e-6 {
                    for b in 0..width {
                        values[i * width + b] = f64::INFINITY;
                    }
                }
            }
        }

        let mut iterations = 0;
        let mut converged = false;
        while iterations < options.max_iterations {
            iterations += 1;
            let mut delta_max = 0.0f64;
            for i in 0..n {
                if self.base.is_goal(i) {
                    continue;
                }
                for b in 0..width {
                    let idx = i * width + b;
                    if values[idx].is_infinite() {
                        continue;
                    }
                    let mut best = if cycles { f64::INFINITY } else { 0.0 };
                    let mut best_action = None;
                    for (action, variants) in &self.variants[i] {
                        // Adversary: worst variant for the controller.
                        let mut worst = if cycles { 0.0f64 } else { 1.0f64 };
                        let mut any = false;
                        for (spends, branch) in variants {
                            if *spends && b == 0 {
                                continue;
                            }
                            let succ_b = if *spends { b - 1 } else { b };
                            let v = self.eval(branch, &values, idx, i, succ_b, width, cycles);
                            any = true;
                            if cycles {
                                worst = worst.max(v);
                            } else {
                                worst = worst.min(v);
                            }
                        }
                        if !any {
                            continue;
                        }
                        let better = if cycles { worst < best } else { worst > best };
                        if better {
                            best = worst;
                            best_action = Some(*action);
                        }
                    }
                    if best.is_finite() && (best_action.is_some() || !cycles) {
                        delta_max = delta_max.max((best - values[idx]).abs());
                        values[idx] = best;
                        choice[idx] = best_action;
                    }
                }
            }
            if delta_max < options.epsilon {
                converged = true;
                break;
            }
        }

        RobustValues {
            values,
            choice,
            states: n,
            budget: self.budget,
            converged,
        }
    }

    /// Evaluates one (action, variant) pair: expected 1 + Σ p·v for Rmin
    /// (self-loop factored out), or Σ p·v for Pmax.
    #[allow(clippy::too_many_arguments)]
    fn eval(
        &self,
        branch: &[(usize, f64)],
        values: &[f64],
        self_idx: usize,
        state: usize,
        succ_budget: usize,
        width: usize,
        cycles: bool,
    ) -> f64 {
        if cycles {
            let mut p_self = 0.0;
            let mut rest = 0.0;
            for &(j, p) in branch {
                let jdx = j * width + succ_budget;
                if j == state && jdx == self_idx {
                    p_self += p;
                } else if values[jdx].is_infinite() {
                    return f64::INFINITY;
                } else {
                    rest += p * values[jdx];
                }
            }
            if p_self >= 1.0 - 1e-12 {
                f64::INFINITY
            } else {
                (1.0 + rest) / (1.0 - p_self)
            }
        } else {
            branch
                .iter()
                .map(|&(j, p)| p * values[j * width + succ_budget])
                .sum()
        }
    }
}

/// The microelectrodes the adversary may knock out while `action` executes
/// on `delta`: every cell of its frontier sets (for double steps, both the
/// first- and second-step frontiers).
fn interference_targets(delta: Rect, action: Action) -> Vec<Cell> {
    let mut cells = Vec::new();
    for dir in Dir::ALL {
        if let Some(fr) = frontier_set(delta, action, dir) {
            cells.extend(fr.cells());
        }
        if let Some(mid) = action.intermediate(delta) {
            if let Some(fr) = frontier_set(mid, action, dir) {
                cells.extend(fr.cells());
            }
        }
    }
    cells.sort_unstable();
    cells.dedup();
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min_expected_cycles;
    use meda_core::UniformField;

    fn game(budget: u32) -> RobustGame {
        RobustGame::build(
            Rect::new(1, 1, 2, 2),
            Rect::new(6, 1, 7, 2),
            Rect::new(1, 1, 8, 4),
            &UniformField::new(0.9),
            &ActionConfig::cardinal_only(),
            budget,
        )
        .unwrap()
    }

    #[test]
    fn budget_zero_matches_the_mdp() {
        let g = game(0);
        let robust = g.min_expected_cycles(SolverOptions::default());
        let plain = min_expected_cycles(g.base(), SolverOptions::default());
        for i in g.base().state_indices() {
            assert!(
                (robust.at(i, 0) - plain.values[i]).abs() < 1e-6,
                "state {i}: {} vs {}",
                robust.at(i, 0),
                plain.values[i]
            );
        }
    }

    #[test]
    fn worst_case_cost_is_monotone_in_budget() {
        let opts = SolverOptions::default();
        let mut prev = 0.0;
        for budget in 0..=3 {
            let g = game(budget);
            let v = g.min_expected_cycles(opts).at(g.base().init(), budget);
            assert!(
                v >= prev - 1e-9,
                "budget {budget}: worst-case cost fell from {prev} to {v}"
            );
            assert!(v.is_finite(), "transient interference cannot block forever");
            prev = v;
        }
    }

    #[test]
    fn guaranteed_probability_is_antitone_in_budget() {
        let opts = SolverOptions::default();
        let mut prev = 1.0;
        for budget in 0..=3 {
            let g = game(budget);
            let p = g.max_reach_probability(opts).at(g.base().init(), budget);
            assert!(p <= prev + 1e-9, "budget {budget}: {p} > {prev}");
            assert!(p > 0.0);
            prev = p;
        }
    }

    #[test]
    fn interference_is_transient_so_goal_stays_reachable() {
        let g = game(5);
        let v = g.min_expected_cycles(SolverOptions::default());
        assert!(v.converged);
        assert!(v.at(g.base().init(), 5).is_finite());
        // Spending the whole budget costs at most budget extra expected
        // cycles per knockout... loosely: bounded by the no-interference
        // value plus budget / (worst residual probability).
        let base = v.at(g.base().init(), 0);
        let worst = v.at(g.base().init(), 5);
        assert!(
            worst <= base + 5.0 / 0.45 + 1e-6,
            "worst {worst} vs base {base}"
        );
    }

    #[test]
    fn robust_strategy_exists_at_every_live_state() {
        let g = game(2);
        let v = g.min_expected_cycles(SolverOptions::default());
        for i in g.base().state_indices() {
            if g.base().is_goal(i) {
                continue;
            }
            for b in 0..=2 {
                assert!(
                    v.action_at(i, b).is_some(),
                    "no robust action at state {i}, budget {b}"
                );
            }
        }
    }

    #[test]
    fn interference_targets_cover_frontiers() {
        let delta = Rect::new(3, 2, 7, 5);
        let targets = interference_targets(delta, Action::Move(Dir::N));
        assert_eq!(targets.len(), 5); // the 5-cell north frontier
        let targets = interference_targets(delta, Action::MoveDouble(Dir::N));
        assert_eq!(targets.len(), 10); // both steps' frontiers
    }
}
