//! The whole-vector Gauss–Seidel value-iteration engine that
//! `meda-synth`'s topological solver replaced, frozen as a reference.
//!
//! `bench_synthesis` times it as `solve_gs_ms` (the baseline of
//! `construct_solve_speedup`), and the `methods` integration test checks
//! the topological engine's fixed points against it. It reproduces the
//! retired engine exactly, so both keep measuring the same thing:
//!
//! * sweeps run in state order over every state, with no condensation and
//!   no qualitative precomputation;
//! * the `Pmax` backup is unfactored (`v ← max_a Σ p·v`), so stay-in-place
//!   failure branches recycle value across sweeps instead of converging in
//!   one backup;
//! * `Rmin` ascends from 0 on the `Pmax = 1` states and treats every `∞`
//!   value as a frozen seed;
//! * the budget is `max_iterations × states` backups, charged a whole
//!   sweep at a time, and a converged sweep is followed by the same
//!   confirmation pass as the product engine: one Jacobi pass against the
//!   frozen iterate whose max delta must stay below `epsilon`.
//!
//! Results come back as [`SolverResult`]s, so callers compare them with
//! the product solver's field by field.

use meda_core::{Action, CsrView, RoutingMdp};
use meda_synth::{SolverOptions, SolverResult};

/// `Pmax[◇goal]` by whole-vector Gauss–Seidel from 0 (goal states at 1).
#[must_use]
pub fn max_reach_probability(mdp: &RoutingMdp, options: SolverOptions) -> SolverResult {
    let goal = goal_flags(mdp);
    let init = goal.iter().map(|&g| if g { 1.0 } else { 0.0 }).collect();
    solve(mdp, Op::Pmax, &goal, init, options)
}

/// `Rmin[◇goal]` by whole-vector Gauss–Seidel, after a Gauss–Seidel `Pmax`
/// solve that decides which states start at 0 (`Pmax = 1`) and which are
/// frozen at `∞`.
#[must_use]
pub fn min_expected_cycles(mdp: &RoutingMdp, options: SolverOptions) -> SolverResult {
    let reach = max_reach_probability(mdp, options);
    let goal = goal_flags(mdp);
    let init = goal
        .iter()
        .zip(&reach.values)
        .map(|(&g, &p)| {
            if g {
                0.0
            } else if p < 1.0 - 1e-6 {
                f64::INFINITY
            } else {
                0.0
            }
        })
        .collect();
    solve(mdp, Op::Rmin, &goal, init, options)
}

fn goal_flags(mdp: &RoutingMdp) -> Vec<bool> {
    (0..mdp.len()).map(|i| mdp.is_goal(i)).collect()
}

#[derive(Clone, Copy)]
enum Op {
    Pmax,
    Rmin,
}

struct Kernel<'a> {
    op: Op,
    csr: CsrView<'a>,
    goal: &'a [bool],
}

impl Kernel<'_> {
    fn eval(&self, i: usize, values: &[f64], choice: &[Option<Action>]) -> (f64, Option<Action>) {
        match self.op {
            Op::Pmax => self.eval_pmax(i, values),
            Op::Rmin => self.eval_rmin(i, values, choice),
        }
    }

    /// `v(s) ← max_a Σ p·v`, with the self-loop mass left in.
    fn eval_pmax(&self, i: usize, values: &[f64]) -> (f64, Option<Action>) {
        if self.goal[i] {
            return (1.0, None);
        }
        let csr = &self.csr;
        let mut best = 0.0;
        let mut best_action = None;
        let c_lo = csr.state_choice_start[i] as usize;
        let c_hi = csr.state_choice_start[i + 1] as usize;
        for c in c_lo..c_hi {
            let b_lo = csr.choice_branch_start[c] as usize;
            let b_hi = csr.choice_branch_start[c + 1] as usize;
            let mut v = 0.0;
            for b in b_lo..b_hi {
                v += csr.branch_prob[b] * values[csr.branch_target[b] as usize];
            }
            if v > best {
                best = v;
                best_action = Some(csr.choice_action[c]);
            }
        }
        (best, best_action)
    }

    /// `v(s) ← min_a (1 + Σ_{s'≠s} p·v) / (1 − p_self)`, skipping actions
    /// with an `∞`-valued successor unless all are; any `∞` value is a
    /// frozen seed.
    fn eval_rmin(
        &self,
        i: usize,
        values: &[f64],
        choice: &[Option<Action>],
    ) -> (f64, Option<Action>) {
        if self.goal[i] {
            return (0.0, None);
        }
        let current = values[i];
        if current.is_infinite() {
            return (current, None);
        }
        let csr = &self.csr;
        let near_one = 1.0 - 1e-12;
        let mut best = f64::INFINITY;
        let mut best_action = None;
        let c_lo = csr.state_choice_start[i] as usize;
        let c_hi = csr.state_choice_start[i + 1] as usize;
        'choices: for c in c_lo..c_hi {
            let mut p_self = 0.0;
            let mut rest = 0.0;
            let b_lo = csr.choice_branch_start[c] as usize;
            let b_hi = csr.choice_branch_start[c + 1] as usize;
            for b in b_lo..b_hi {
                let j = csr.branch_target[b] as usize;
                let p = csr.branch_prob[b];
                if j == i {
                    p_self += p;
                } else if values[j].is_infinite() {
                    continue 'choices;
                } else {
                    rest += p * values[j];
                }
            }
            if p_self >= near_one {
                continue;
            }
            let v = (1.0 + rest) / (1.0 - p_self);
            if v < best {
                best = v;
                best_action = Some(csr.choice_action[c]);
            }
        }
        if best.is_finite() {
            (best, best_action)
        } else {
            (current, choice[i])
        }
    }
}

/// One in-place Gauss–Seidel sweep in state order, returning the max
/// delta.
fn sweep(kernel: &Kernel<'_>, values: &mut [f64], choice: &mut [Option<Action>]) -> f64 {
    let mut delta = 0.0_f64;
    for i in 0..values.len() {
        let (v, a) = kernel.eval(i, values, choice);
        if v != values[i] {
            delta = delta.max((v - values[i]).abs());
        }
        values[i] = v;
        choice[i] = a;
    }
    delta
}

/// In-place sweeps until the sweep delta drops below `epsilon`, then a
/// confirmation pass; repeats until the confirmation holds or the budget
/// runs out.
fn solve(
    mdp: &RoutingMdp,
    op: Op,
    goal: &[bool],
    mut values: Vec<f64>,
    options: SolverOptions,
) -> SolverResult {
    let kernel = Kernel {
        op,
        csr: mdp.csr(),
        goal,
    };
    let n = values.len();
    let budget = options.max_iterations.saturating_mul(n);
    let mut evals = 0usize;
    let mut charge = || {
        if evals.saturating_add(n) > budget {
            return false;
        }
        evals += n;
        true
    };
    let mut choice: Vec<Option<Action>> = vec![None; n];
    let mut scratch: Vec<(f64, Option<Action>)> = vec![(0.0, None); n];
    let mut converged = false;
    let mut residual = f64::INFINITY;
    'solve: loop {
        // An empty model has nothing to sweep (and would spin forever at
        // `epsilon = 0`).
        if n > 0 {
            loop {
                if !charge() {
                    break 'solve;
                }
                if sweep(&kernel, &mut values, &mut choice) < options.epsilon {
                    break;
                }
            }
        }
        if !charge() {
            break;
        }
        for (i, slot) in scratch.iter_mut().enumerate() {
            *slot = kernel.eval(i, &values, &choice);
        }
        let mut delta = 0.0_f64;
        for (i, &(v, a)) in scratch.iter().enumerate() {
            if v != values[i] {
                delta = delta.max((v - values[i]).abs());
            }
            values[i] = v;
            choice[i] = a;
        }
        residual = delta;
        if delta < options.epsilon {
            converged = true;
            break;
        }
    }
    SolverResult {
        values,
        choice,
        iterations: evals.div_ceil(n.max(1)),
        converged,
        residual,
    }
}
