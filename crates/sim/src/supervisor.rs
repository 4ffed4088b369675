//! Supervised bioassay execution with graceful degradation.
//!
//! The plain [`BioassayRunner`](crate::BioassayRunner) is all-or-nothing:
//! the first failed routing job aborts the whole bioassay. Cyberphysical
//! DMFB practice instead detects errors through the sensing loop and
//! re-executes bounded portions of the assay. The [`Supervisor`] implements
//! that discipline on top of the shared execution core: every failed
//! routing job climbs an escalation ladder — re-sense the droplet and
//! retry, re-synthesize with a widened corridor from the refreshed health
//! matrix, detour via the reactive [`RecoveryRouter`] — and only when the
//! retry budget is exhausted is the operation aborted, its dependents
//! skipped, and the rest of the plan continued. The result is a structured
//! [`FailureReport`] with a per-operation completion fraction instead of a
//! single terminal status.
//!
//! With [`SupervisorConfig::reconfig_budget`] above zero a further rung
//! sits between the detour and the abort: the *reconfiguration planner*.
//! When the whole per-job ladder fails, the supervisor scans the quantized
//! health matrix **H** for a healthy spare region large enough for the
//! failing operation's target zone, relocates the zone there through the
//! bioassay placer ([`RjHelper::relocate`] — the Algorithm-1 re-entry for
//! the displaced subtree), rewrites the restart jobs from the droplets'
//! actual positions, and re-dispatches the operation. Strategy-backed
//! routers see fresh start/goal/bounds keys and re-synthesize
//! automatically, with a cold solve for the relocated jobs.

use meda_rng::Rng;

use meda_bioassay::{BioassayPlan, PlannedMo, RjHelper, RoutingJob};
use meda_core::ForceProvider;
use meda_grid::Rect;

use crate::engine::{Exec, JobError};
use crate::{Biochip, FaultPlan, RecoveryRouter, Router, RunConfig, RunStatus};

/// Minimum per-cell relative EWOD force for a cell to count as *spare* in
/// the reconfiguration scan — at least half-strength under the
/// conservative health interpretation (dead and nearly-dead cells are
/// excluded; a pristine 2-bit cell reads 0.5625).
const SPARE_MIN_FORCE: f64 = 0.25;

/// Configuration of supervised execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// The underlying run configuration (cycle budget, sensed feedback).
    pub run: RunConfig,
    /// Retries allowed per routing job beyond its first attempt. Each
    /// retry climbs one rung of the escalation ladder; retry 3 and beyond
    /// stay on the detour rung.
    pub retry_budget: u32,
    /// Stall patience of the [`RecoveryRouter`] used on the detour rung.
    pub detour_patience: u32,
    /// Watchdog: cycles one routing attempt may burn before it is declared
    /// [`RunStatus::Stalled`] and retried. Without it, a wedged position
    /// estimate (e.g. stuck sensors swallowing the goal region) silently
    /// eats the whole global `k_max` — terminal for supervised and
    /// unsupervised runs alike.
    pub attempt_cycles: u64,
    /// Relocations allowed per operation on the reconfiguration rung
    /// (0 — the default — disables the rung, leaving the classic
    /// resense → resynth → detour → abort ladder byte-for-byte intact).
    pub reconfig_budget: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            run: RunConfig::default(),
            retry_budget: 3,
            detour_patience: 4,
            attempt_cycles: 256,
            reconfig_budget: 0,
        }
    }
}

/// One aborted microfluidic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoFailure {
    /// The operation's id in the plan.
    pub mo: usize,
    /// Index of the routing job that exhausted its retries.
    pub job: usize,
    /// The failure class of the final attempt.
    pub status: RunStatus,
    /// Where the droplet was last believed to be.
    pub last_position: Rect,
    /// Retries consumed before giving up.
    pub retries: u32,
}

/// The highest escalation rung an operation needed before it completed —
/// the *winning* rung, as opposed to [`RungCounts`] which tallies attempts.
/// Ordered by severity, so `max` folds per-job outcomes into a per-MO one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Every routing job landed on its first attempt.
    FirstTry,
    /// Rung 1: a global re-sense relocated the droplet.
    Resense,
    /// Rung 2: re-synthesis with a widened corridor.
    Resynth,
    /// Rung 3: a reactive detour.
    Detour,
    /// Rung 4: the operation was relocated onto spare electrodes.
    Reconfig,
}

/// How often each rung of the escalation ladder fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RungCounts {
    /// Rung 1: global re-sense, retry with the same router.
    pub resense: u64,
    /// Rung 2: re-synthesis from the refreshed health matrix with a
    /// widened routing corridor.
    pub resynth: u64,
    /// Rung 3: detour via a fresh reactive [`RecoveryRouter`].
    pub detour: u64,
    /// Rung 4: relocations onto spare electrodes by the reconfiguration
    /// planner.
    pub reconfig: u64,
    /// Rung 5: operations aborted after every budget ran out.
    pub aborted_ops: u64,
}

/// The structured outcome of a supervised run: what completed, what was
/// aborted and why, and how hard the supervisor had to work.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Total operational cycles consumed.
    pub cycles: u64,
    /// [`RunStatus::Success`] when every operation completed; otherwise
    /// the root cause — the status of the earliest failure,
    /// [`RunStatus::CycleLimit`] when the budget died, or
    /// [`RunStatus::Deadlock`] for a malformed plan.
    pub status: RunStatus,
    /// Operations that completed.
    pub completed_ops: usize,
    /// Total operations in the plan.
    pub total_ops: usize,
    /// Every aborted operation, in failure order.
    pub failures: Vec<MoFailure>,
    /// Operations skipped because a (transitive) predecessor was aborted.
    pub skipped: Vec<usize>,
    /// Escalation-ladder statistics.
    pub rungs: RungCounts,
    /// For every *completed* operation, the highest ladder rung it needed
    /// (`(mo id, winning rung)`, in completion order).
    pub resolved_by: Vec<(usize, Rung)>,
}

impl FailureReport {
    /// Whether every operation completed.
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.completed_ops == self.total_ops
    }

    /// Fraction of the plan's operations that completed (1 for an empty
    /// plan).
    #[must_use]
    pub fn completion_fraction(&self) -> f64 {
        if self.total_ops == 0 {
            1.0
        } else {
            self.completed_ops as f64 / self.total_ops as f64
        }
    }
}

/// Supervised execution: [`BioassayRunner`](crate::BioassayRunner)
/// semantics plus a per-job retry ladder and partial completion.
///
/// # Examples
///
/// ```
/// use meda_bioassay::{benchmarks, RjHelper};
/// use meda_grid::ChipDims;
/// use meda_rng::SeedableRng;
/// use meda_sim::{
///     BaselineRouter, Biochip, DegradationConfig, FaultPlan, Supervisor, SupervisorConfig,
/// };
///
/// let mut rng = meda_rng::StdRng::seed_from_u64(7);
/// let plan = RjHelper::new(ChipDims::PAPER).plan(&benchmarks::master_mix())?;
/// let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
/// let mut router = BaselineRouter::new();
/// let report = Supervisor::new(SupervisorConfig::default())
///     .run(&plan, &mut chip, &mut router, &FaultPlan::none(), &mut rng);
/// assert!(report.is_success());
/// assert_eq!(report.completion_fraction(), 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Supervisor {
    config: SupervisorConfig,
}

impl Supervisor {
    /// Creates a supervisor.
    #[must_use]
    pub fn new(config: SupervisorConfig) -> Self {
        Self { config }
    }

    /// Runs `plan` on `chip` under `chaos`, retrying failed jobs up the
    /// escalation ladder and skipping the dependents of aborted
    /// operations. With [`FaultPlan::none`] and sensed feedback off, the
    /// execution is bit-identical to
    /// [`BioassayRunner::run`](crate::BioassayRunner::run) — the ladder
    /// only exists on the failure path.
    pub fn run(
        &self,
        plan: &BioassayPlan,
        chip: &mut Biochip,
        router: &mut dyn Router,
        chaos: &FaultPlan,
        rng: &mut impl Rng,
    ) -> FailureReport {
        let total = plan.operations().len();
        let mut exec = Exec::new(self.config.run, chip, rng, chaos);
        let mut done = vec![false; total];
        let mut failed = vec![false; total];
        let mut completed = 0usize;
        let mut failures: Vec<MoFailure> = Vec::new();
        let mut skipped: Vec<usize> = Vec::new();
        let mut resolved_by: Vec<(usize, Rung)> = Vec::new();
        let mut rungs = RungCounts::default();
        let mut out_of_budget = false;
        // Reconfiguration state: the plan is cloned lazily on the first
        // relocation, so the fault-free path never allocates a copy.
        let mut working: Option<BioassayPlan> = None;
        let mut reconfigs_left = vec![self.config.reconfig_budget; total];

        loop {
            // Transitively skip the dependents of aborted operations. Plan
            // ids are topological (predecessors have smaller ids), so one
            // increasing pass reaches a fixpoint. Relocation never changes
            // the dependency topology, so `plan` is authoritative here.
            for id in 0..total {
                let mo = &plan.operations()[id];
                if !done[id] && !failed[id] && mo.pre.iter().any(|&p| failed[p]) {
                    failed[id] = true;
                    skipped.push(id);
                }
            }
            let ready: Vec<usize> = plan
                .operations()
                .iter()
                .filter(|mo| !done[mo.id] && !failed[mo.id] && mo.pre.iter().all(|&p| done[p]))
                .map(|mo| mo.id)
                .collect();
            let Some(&picked) = ready.first() else {
                break;
            };

            // Execute the picked operation, re-dispatching through the
            // reconfiguration planner while its relocation budget lasts.
            let mut mo_rung = Rung::FirstTry;
            let result = loop {
                let mo = working.as_ref().unwrap_or(plan).operations()[picked].clone();
                let mut fail_job = 0usize;
                let mut fail_retries = 0u32;
                let mut arrived: Vec<Rect> = Vec::new();
                let attempt = exec.exec_mo(&mo, &mut |e, job, held, job_idx| {
                    fail_job = job_idx;
                    fail_retries = 0;
                    let landed = self.run_job_with_ladder(
                        e,
                        job,
                        router,
                        held,
                        &mut rungs,
                        &mut fail_retries,
                        &mut mo_rung,
                    );
                    if let Ok(rect) = landed {
                        arrived.push(rect);
                    }
                    landed
                });
                match attempt {
                    Ok(()) => break Ok(()),
                    Err(err) => {
                        if err.status != RunStatus::CycleLimit
                            && reconfigs_left[picked] > 0
                            && self.try_reconfigure(
                                &mut exec,
                                plan,
                                &mut working,
                                picked,
                                fail_job,
                                &arrived,
                                err.at,
                            )
                        {
                            reconfigs_left[picked] -= 1;
                            rungs.reconfig += 1;
                            mo_rung = Rung::Reconfig;
                            continue;
                        }
                        break Err((err, fail_job, fail_retries));
                    }
                }
            };
            match result {
                Ok(()) => {
                    done[picked] = true;
                    completed += 1;
                    resolved_by.push((picked, mo_rung));
                }
                Err((err, fail_job, fail_retries)) => {
                    failures.push(MoFailure {
                        mo: picked,
                        job: fail_job,
                        status: err.status,
                        last_position: err.at,
                        retries: fail_retries,
                    });
                    // The aborted operation's droplets go to waste; make
                    // sure the next job does not inherit a stale physical
                    // position.
                    exec.pending = None;
                    if err.status == RunStatus::CycleLimit {
                        // The shared cycle budget is gone: nothing further
                        // can execute, matching the plain runner's
                        // accounting cycle for cycle.
                        out_of_budget = true;
                        break;
                    }
                    failed[picked] = true;
                    rungs.aborted_ops += 1;
                }
            }
        }

        let status = if completed == total {
            RunStatus::Success
        } else if out_of_budget {
            RunStatus::CycleLimit
        } else if let Some(first) = failures.first() {
            first.status
        } else {
            // Nothing failed, yet operations remain: the plan's dependency
            // graph can never release them.
            RunStatus::Deadlock
        };
        let telemetry = meda_telemetry::global();
        telemetry.add("sim.supervisor.runs", 1);
        telemetry.add("sim.supervisor.rung.resense", rungs.resense);
        telemetry.add("sim.supervisor.rung.resynth", rungs.resynth);
        telemetry.add("sim.supervisor.rung.detour", rungs.detour);
        telemetry.add("sim.supervisor.rung.reconfig", rungs.reconfig);
        telemetry.add("sim.supervisor.aborted_ops", rungs.aborted_ops);

        FailureReport {
            cycles: exec.cycles,
            status,
            completed_ops: completed,
            total_ops: total,
            failures,
            skipped,
            rungs,
            resolved_by,
        }
    }

    /// The reconfiguration rung: find a healthy spare region for the
    /// failing operation's target zone, relocate the zone there through
    /// the bioassay placer, and rewrite the restart jobs from the
    /// droplets' actual positions. Returns `true` when the operation was
    /// relocated and should be re-dispatched, `false` when no spare region
    /// exists (the caller falls through to the abort path).
    #[allow(clippy::too_many_arguments)]
    fn try_reconfigure<R: Rng>(
        &self,
        exec: &mut Exec<'_, R>,
        plan: &BioassayPlan,
        working: &mut Option<BioassayPlan>,
        picked: usize,
        fail_job: usize,
        arrived: &[Rect],
        last_estimate: Rect,
    ) -> bool {
        let telemetry = meda_telemetry::global();
        let mo = working.as_ref().unwrap_or(plan).operations()[picked].clone();
        if mo.jobs.is_empty() {
            return false;
        }
        let failed_dispense = mo.jobs[fail_job].is_dispense();
        // The rung only helps against electrode *death*: when no cell of
        // the operation's working region — corridors and targets alike —
        // has failed outright, the failure is sensing- or
        // congestion-shaped, and a relocation would burn shared cycle
        // budget without fixing anything. Outright death (degradation
        // exactly 0) is distinguishable from deep wear, which decays
        // `τ^(n/c)` and never reaches 0 — in the fabricated design the
        // sudden drop is what the health telemetry flags. Dispense is
        // exempt from the gate: it has no sensing loop, so a stalled
        // dispense already implicates its (unsensed, off-region) entry
        // corridor.
        if !failed_dispense {
            let dims = exec.chip.dims();
            let mut region: Option<Rect> = None;
            for r in mo
                .jobs
                .iter()
                .map(|j| j.bounds)
                .chain(mo.outputs.iter().copied())
            {
                region = Some(region.map_or(r, |f| f.union(r)));
            }
            let no_dead_cells = region.is_none_or(|region| {
                region
                    .cells()
                    .filter(|&c| dims.contains(c))
                    .all(|c| exec.chip.degradation_at(c) > 0.0)
            });
            if no_dead_cells {
                telemetry.add("sim.supervisor.reconfig.skipped_healthy", 1);
                return false;
            }
        }
        // Everything else physically on the chip: parked droplets, this
        // operation's already-arrived partners, and its not-yet-started
        // ones.
        let mut held = exec.resting.clone();
        held.extend(arrived.iter().copied());
        held.extend(
            mo.jobs[fail_job + 1..]
                .iter()
                .map(|j| j.start)
                .filter(|r| !r.is_off_chip_origin()),
        );
        // A chip-wide re-sense pins down the failed droplet; if it is
        // invisible (occluded / swallowed by stuck bits), restart from the
        // last estimate — the detour rungs already failed from there, so
        // there is nothing better. A failed dispense has no on-chip
        // droplet to find: the half-dispensed volume is written off and
        // the dispense restarts from the edge of the relocated zone.
        let estimate = if failed_dispense {
            last_estimate
        } else {
            exec.resense(last_estimate, &held).unwrap_or(last_estimate)
        };

        let displacement = {
            let _scan = telemetry.span("sim.supervisor.reconfig.scan");
            self.find_spare_region(exec, &mo, &held)
        };
        let Some((dx, dy)) = displacement else {
            telemetry.add("sim.supervisor.reconfig.scan_misses", 1);
            return false;
        };

        let wp = working.get_or_insert_with(|| plan.clone());
        let dims = exec.chip.dims();
        if RjHelper::new(dims).relocate(wp, picked, dx, dy).is_err() {
            // The footprint fits, but a re-derived successor rectangle
            // (e.g. a recentered split source) left the chip: give up on
            // this relocation rather than commit half a plan.
            telemetry.add("sim.supervisor.reconfig.scan_misses", 1);
            return false;
        }
        telemetry
            .histogram("sim.supervisor.reconfig.distance")
            .record(u64::from(dx.unsigned_abs() + dy.unsigned_abs()));

        // Rewrite the restart jobs from where the droplets actually are:
        // already-arrived partners re-route from their (old) goals, the
        // failed droplet from its re-sensed position, later jobs keep the
        // starts the placer derived. Its inputs were consumed on the
        // first dispatch, so the restart consumes none.
        let mo = &mut wp.operations_mut()[picked];
        mo.inputs.clear();
        for (i, job) in mo.jobs.iter_mut().enumerate() {
            let start = match i.cmp(&fail_job) {
                std::cmp::Ordering::Less => arrived[i],
                // The relocated dispense keeps its off-chip start; the
                // placer already re-derived its entry zone.
                std::cmp::Ordering::Equal if failed_dispense => job.start,
                std::cmp::Ordering::Equal => estimate,
                std::cmp::Ordering::Greater => job.start,
            };
            if i <= fail_job && !start.is_off_chip_origin() {
                let bounds = meda_bioassay::zone(start, job.goal, dims);
                *job = RoutingJob::new(start, job.goal, bounds);
            }
        }
        // Physical continuity: the failed droplet's ground truth carries
        // into the restart only when it is the first job to run again;
        // otherwise an earlier restart job would wrongly inherit it. A
        // half-dispensed droplet never carries over — the restart
        // dispenses fresh volume from the edge.
        if fail_job != 0 || failed_dispense {
            exec.pending = None;
        }
        true
    }

    /// Scans the quantized health matrix for the nearest displacement
    /// `(dx, dy)` that lands the operation's whole target footprint (goals
    /// and outputs, plus a one-cell hazard rim) on spare electrodes —
    /// every cell at least [`SPARE_MIN_FORCE`] — while keeping a two-cell
    /// clearance from every held droplet.
    fn find_spare_region<R: Rng>(
        &self,
        exec: &Exec<'_, R>,
        mo: &PlannedMo,
        held: &[Rect],
    ) -> Option<(i32, i32)> {
        let mut footprint: Option<Rect> = None;
        for r in mo
            .jobs
            .iter()
            .map(|j| j.goal)
            .chain(mo.outputs.iter().copied())
        {
            footprint = Some(footprint.map_or(r, |f| f.union(r)));
        }
        let footprint = footprint?;
        let dims = exec.chip.dims();
        let health = exec.chip.health_field();
        let mut best: Option<(u32, i32, i32)> = None;
        for dx in (1 - footprint.xa)..=(dims.width as i32 - footprint.xb) {
            for dy in (1 - footprint.ya)..=(dims.height as i32 - footprint.yb) {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let dist = dx.unsigned_abs() + dy.unsigned_abs();
                if best.is_some_and(|(d, _, _)| d <= dist) {
                    continue;
                }
                let target = footprint.translate(dx, dy);
                let clearance = target.expand(2);
                if held.iter().any(|r| clearance.intersection(*r).is_some()) {
                    continue;
                }
                if target
                    .expand(1)
                    .cells()
                    .filter(|&c| dims.contains(c))
                    .all(|c| health.cell_force(c) >= SPARE_MIN_FORCE)
                {
                    best = Some((dist, dx, dy));
                }
            }
        }
        best.map(|(_, dx, dy)| (dx, dy))
    }

    /// One routing job under the escalation ladder. Dispense jobs are not
    /// retried (their only failure mode is the shared cycle budget).
    #[allow(clippy::too_many_arguments)]
    fn run_job_with_ladder<R: Rng>(
        &self,
        exec: &mut Exec<'_, R>,
        job: &RoutingJob,
        router: &mut dyn Router,
        held: &[Rect],
        rungs: &mut RungCounts,
        retries_out: &mut u32,
        mo_rung: &mut Rung,
    ) -> Result<Rect, JobError> {
        if job.is_dispense() {
            // Dispense has no sensing loop, so the retry rungs cannot help
            // it — but the watchdog still applies, turning a dead entry
            // corridor into a `Stalled` failure the reconfiguration rung
            // can relocate instead of a silent global-budget burn.
            exec.attempt_budget = Some(self.config.attempt_cycles);
            let result = exec.run_dispense(job, held);
            exec.attempt_budget = None;
            if let Err(err) = &result {
                if err.status == RunStatus::Stalled {
                    meda_telemetry::global().add("sim.supervisor.watchdog_fires", 1);
                }
            }
            return result;
        }
        let chip_bounds = exec.chip.dims().bounds();
        let mut attempt = *job;
        let mut retries = 0u32;
        exec.attempt_budget = Some(self.config.attempt_cycles);
        let result = loop {
            let result = if retries >= 3 {
                let mut detour = RecoveryRouter::new(self.config.detour_patience);
                exec.run_routed(&attempt, &mut detour, held)
            } else {
                exec.run_routed(&attempt, router, held)
            };
            match result {
                Ok(rect) => {
                    // Record the rung that finally landed this job; the
                    // per-MO winner is the max over its jobs.
                    let won = match retries {
                        0 => Rung::FirstTry,
                        1 => Rung::Resense,
                        2 => Rung::Resynth,
                        _ => Rung::Detour,
                    };
                    *mo_rung = (*mo_rung).max(won);
                    break Ok(rect);
                }
                Err(err) => {
                    if err.status == RunStatus::Stalled {
                        meda_telemetry::global().add("sim.supervisor.watchdog_fires", 1);
                    }
                    *retries_out = retries;
                    if err.status == RunStatus::CycleLimit || retries >= self.config.retry_budget {
                        break Err(err);
                    }
                    retries += 1;
                    *retries_out = retries;
                    // Rung 1: a fresh global sensor read relocates the
                    // droplet. Without it there is nothing to retry from.
                    let Some(estimate) = exec.resense(err.at, held) else {
                        break Err(JobError {
                            status: RunStatus::DropletLost,
                            at: err.at,
                        });
                    };
                    let bounds = match retries {
                        1 => {
                            rungs.resense += 1;
                            attempt.bounds
                        }
                        2 => {
                            // Rung 2: widening the corridor changes the
                            // synthesis query, forcing strategy-backed
                            // routers to re-synthesize from the refreshed
                            // health matrix with more room to detour.
                            rungs.resynth += 1;
                            attempt
                                .bounds
                                .expand(2)
                                .intersection(chip_bounds)
                                // Never empty — attempt.bounds lies on the
                                // chip — and the whole chip is a sound
                                // fallback corridor regardless.
                                .unwrap_or(chip_bounds)
                        }
                        _ => {
                            rungs.detour += 1;
                            attempt
                                .bounds
                                .expand(2)
                                .intersection(chip_bounds)
                                .unwrap_or(chip_bounds)
                        }
                    };
                    attempt =
                        RoutingJob::new(estimate, job.goal, bounds.union(estimate).union(job.goal));
                }
            }
        };
        exec.attempt_budget = None;
        result
    }
}
