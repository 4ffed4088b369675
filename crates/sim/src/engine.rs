use meda_rng::Rng;

use meda_bioassay::{BioassayPlan, PlannedMo, RoutingJob};
use meda_cell::apply_stuck_bits;
use meda_core::{transitions, Action, DegradationField, Dir, ForceProvider};
use meda_grid::{Cell, Grid, Rect};

use crate::sensing::{locate_droplets, snap_to_size};
use crate::{Biochip, DefectFront, FaultPlan, FifoScheduler, MoScheduler, Router, SuddenDeath};

/// Configuration of a bioassay execution run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Maximum total cycles before the run is aborted (the paper uses
    /// 1,000 for the Fig. 16 trials).
    pub k_max: u64,
    /// Record the actuation matrix **U** of every cycle (needed by the
    /// Fig. 3 correlation analysis; costs memory).
    pub record_actuation: bool,
    /// Drive the router from droplet positions *reconstructed from the
    /// sensed location matrix* **Y** (Algorithm 3, line 6) instead of the
    /// simulator's ground truth. With this on, stuck sensor bits and
    /// unexpected merges become visible to the run as
    /// [`RunStatus::DropletLost`] / [`RunStatus::DropletMerged`]; off
    /// (the default, used for the paper figures), the router is handed the
    /// true droplet rectangle every cycle.
    pub sensed_feedback: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            k_max: 1_000,
            record_actuation: false,
            sensed_feedback: false,
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every microfluidic operation completed.
    Success,
    /// The cycle budget `k_max` was exhausted (stuck droplet or excessive
    /// degradation).
    CycleLimit,
    /// The router declared a job infeasible (e.g. a fault wall with no
    /// detour).
    NoRoute,
    /// The plan has an operation whose predecessors can never all complete
    /// (malformed dependency graph) — reported instead of crashing the
    /// harness.
    Deadlock,
    /// Sensed feedback lost track of a droplet: no sensed cluster matches
    /// where it should be (stuck-at-0 sensors swallowing it, or drift past
    /// the estimate).
    DropletLost,
    /// Sensed feedback saw two droplets' clusters merge into one —
    /// accidental contamination, the error cyberphysical DMFB work guards
    /// against.
    DropletMerged,
    /// A single routing attempt exceeded the supervisor's per-attempt
    /// watchdog budget without reaching its goal — retryable, unlike the
    /// global [`RunStatus::CycleLimit`].
    Stalled,
}

/// The result of executing one bioassay on one chip.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Total operational cycles consumed.
    pub cycles: u64,
    /// Terminal status.
    pub status: RunStatus,
    /// Microfluidic operations completed before the run ended.
    pub completed_ops: usize,
    /// Total microfluidic operations in the plan.
    pub total_ops: usize,
    /// Per-cycle actuation matrices, if recording was enabled.
    pub trace: Option<Vec<Grid<bool>>>,
}

impl RunOutcome {
    /// Whether the bioassay completed successfully.
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.status == RunStatus::Success
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

/// Executes planned bioassays cycle by cycle — the control flow of Fig. 14
/// and Algorithm 3.
///
/// Per cycle, the actuation matrix **U** is the union of the moving
/// droplet's commanded pattern and the hold patterns of every other on-chip
/// droplet (the paper's no-free-roaming rule: idle droplets are actuated in
/// place, wearing their MCs). The moving droplet's outcome is sampled from
/// the chip's hidden degradation matrix **D**; the router only ever sees
/// the quantized health matrix **H** — and, with
/// [`RunConfig::sensed_feedback`], a droplet position reconstructed from
/// the sensed location matrix **Y** rather than the ground truth.
///
/// Operations execute when ready (all predecessors done), ordered by the
/// active [`MoScheduler`] — plan order by default; droplets waiting for a
/// partner are held in place.
#[derive(Debug, Clone, Copy, Default)]
pub struct BioassayRunner {
    config: RunConfig,
}

impl BioassayRunner {
    /// Creates a runner.
    #[must_use]
    pub fn new(config: RunConfig) -> Self {
        Self { config }
    }

    /// Runs `plan` on `chip` with `router` in plan (FIFO) order, consuming
    /// randomness from `rng`. The chip keeps its accumulated wear
    /// afterwards, so repeated calls model biochip reuse (Section VII-B).
    pub fn run(
        &self,
        plan: &BioassayPlan,
        chip: &mut Biochip,
        router: &mut dyn Router,
        rng: &mut impl Rng,
    ) -> RunOutcome {
        self.run_with_scheduler(plan, chip, router, &mut FifoScheduler::new(), rng)
    }

    /// [`BioassayRunner::run`] with a runtime operation scheduler: each
    /// step, the scheduler picks which *ready* operation (all of its input
    /// droplets parked on chip) executes next — the paper-conclusion
    /// extension implemented by
    /// [`HealthAwareScheduler`](crate::HealthAwareScheduler).
    pub fn run_with_scheduler(
        &self,
        plan: &BioassayPlan,
        chip: &mut Biochip,
        router: &mut dyn Router,
        scheduler: &mut dyn MoScheduler,
        rng: &mut impl Rng,
    ) -> RunOutcome {
        self.run_with_chaos(plan, chip, router, scheduler, &FaultPlan::none(), rng)
    }

    /// [`BioassayRunner::run_with_scheduler`] under a scripted chaos
    /// scenario: scheduled electrode deaths fire as cycles pass,
    /// intermittent cells glitch each movement cycle, and stuck sensor bits
    /// corrupt the **Y** matrix that sensed feedback reads. An empty plan
    /// ([`FaultPlan::none`]) adds no cycles and consumes no randomness, so
    /// the run stays bit-identical to [`BioassayRunner::run_with_scheduler`].
    pub fn run_with_chaos(
        &self,
        plan: &BioassayPlan,
        chip: &mut Biochip,
        router: &mut dyn Router,
        scheduler: &mut dyn MoScheduler,
        chaos: &FaultPlan,
        rng: &mut impl Rng,
    ) -> RunOutcome {
        let total = plan.operations().len();
        let mut exec = Exec::new(self.config, chip, rng, chaos);
        let mut done = vec![false; total];
        let mut completed = 0;

        while completed < total {
            // Algorithm 3's readiness check: every predecessor operation is
            // done (not droplet-value matching — distinct droplets can park
            // at identical rectangles, e.g. before and after an in-place
            // magnetic operation).
            let ready: Vec<usize> = plan
                .operations()
                .iter()
                .filter(|mo| !done[mo.id] && mo.pre.iter().all(|&p| done[p]))
                .map(|mo| mo.id)
                .collect();
            if ready.is_empty() {
                return exec.finish(RunStatus::Deadlock, completed, total);
            }
            debug_assert!(ready
                .iter()
                .all(|&id| inputs_available(&plan.operations()[id].inputs, &exec.resting)));
            let picked = scheduler.pick(&ready, plan, exec.chip.health_field());
            debug_assert!(ready.contains(&picked), "scheduler picked a non-ready op");
            let mo = &plan.operations()[picked];
            let result = exec.exec_mo(mo, &mut |e, job, held, _| {
                if job.is_dispense() {
                    e.run_dispense(job, held)
                } else {
                    e.run_routed(job, router, held)
                }
            });
            match result {
                Ok(()) => {
                    done[picked] = true;
                    completed += 1;
                }
                Err(err) => return exec.finish(err.status, completed, total),
            }
        }

        exec.finish(RunStatus::Success, completed, total)
    }
}

/// A failed routing job: why, and where the droplet was last believed to
/// be.
pub(crate) struct JobError {
    /// The failure class (never `Success`).
    pub(crate) status: RunStatus,
    /// Last believed droplet position (the sensed estimate under sensed
    /// feedback, the true rectangle otherwise).
    pub(crate) at: Rect,
}

/// The execution core shared by [`BioassayRunner`] and the
/// [`Supervisor`](crate::Supervisor): owns the cycle counter, parked
/// droplets, trace, and chaos bookkeeping, and executes one microfluidic
/// operation at a time. The runner and the supervisor differ only in the
/// per-job closure they hand to [`Exec::exec_mo`] — everything else (input
/// consumption, hold patterns, module cycles, output parking) is this one
/// code path, which is what keeps supervised fault-free runs bit-identical
/// to plain ones.
pub(crate) struct Exec<'a, R: Rng> {
    pub(crate) config: RunConfig,
    pub(crate) chip: &'a mut Biochip,
    pub(crate) rng: &'a mut R,
    chaos: &'a FaultPlan,
    /// Scheduled deaths sorted by cycle; `next_death` marks the first not
    /// yet fired.
    deaths: Vec<SuddenDeath>,
    next_death: usize,
    /// Growing defect fronts paired with the radius of their next unfired
    /// Manhattan ring (ring `r` dies at `start_cycle + r · period`).
    fronts: Vec<(DefectFront, u64)>,
    pub(crate) cycles: u64,
    pub(crate) resting: Vec<Rect>,
    pub(crate) trace: Option<Vec<Grid<bool>>>,
    /// Ground-truth position of the droplet whose job just failed —
    /// consumed by the next attempt so retries stay physically continuous,
    /// and readable (without consuming) by [`Exec::resense`].
    pub(crate) pending: Option<Rect>,
    /// Per-attempt watchdog: when set (by the supervisor), a single
    /// [`Exec::run_routed`] call that burns this many cycles without
    /// reaching its goal fails with the retryable [`RunStatus::Stalled`]
    /// instead of silently eating the global budget.
    pub(crate) attempt_budget: Option<u64>,
    /// Per-run telemetry accumulators (flushed on drop).
    tele: TelemetryAcc,
}

/// Local per-run observability counters. Kept as plain integers on the hot
/// path and flushed to the global [`meda_telemetry`] registry exactly once,
/// on drop — which covers both ways an [`Exec`] ends (the runner's
/// [`Exec::finish`] and the supervisor building its report directly).
/// Purely passive: never touches the RNG or any simulation output.
#[derive(Debug, Default)]
struct TelemetryAcc {
    cycles: u64,
    /// Cells switched on, summed over cycles: the chip work a cycle does.
    actuated_cells: u64,
    actuate_ns: u64,
    sense_ns: u64,
    sense_reads: u64,
    sense_mismatches: u64,
    dead_reckoned: u64,
}

impl Drop for TelemetryAcc {
    fn drop(&mut self) {
        let t = meda_telemetry::global();
        t.add("sim.runs", 1);
        t.add("sim.cycles", self.cycles);
        t.add("sim.actuated_cells", self.actuated_cells);
        t.add("sim.phase.actuate_ns", self.actuate_ns);
        t.add("sim.phase.sense_ns", self.sense_ns);
        t.add("sim.sense.reads", self.sense_reads);
        t.add("sim.sense.mismatches", self.sense_mismatches);
        t.add("sim.sense.dead_reckoned", self.dead_reckoned);
    }
}

impl<'a, R: Rng> Exec<'a, R> {
    pub(crate) fn new(
        config: RunConfig,
        chip: &'a mut Biochip,
        rng: &'a mut R,
        chaos: &'a FaultPlan,
    ) -> Self {
        let mut deaths = chaos.sudden_deaths.clone();
        deaths.sort_by_key(|d| d.at_cycle);
        let fronts = chaos.defect_fronts.iter().map(|&f| (f, 0)).collect();
        Self {
            config,
            chip,
            rng,
            chaos,
            deaths,
            next_death: 0,
            fronts,
            cycles: 0,
            resting: Vec::new(),
            trace: config.record_actuation.then(Vec::new),
            pending: None,
            attempt_budget: None,
            tele: TelemetryAcc::default(),
        }
    }

    pub(crate) fn finish(
        self,
        status: RunStatus,
        completed_ops: usize,
        total_ops: usize,
    ) -> RunOutcome {
        RunOutcome {
            cycles: self.cycles,
            status,
            completed_ops,
            total_ops,
            trace: self.trace,
        }
    }

    /// Executes one microfluidic operation: consumes its inputs from the
    /// parked droplets, runs every routing job through `run_one` (with the
    /// rest of the chip held in place), then the module's execution cycles,
    /// then parks the outputs. On `Err` the operation is abandoned
    /// mid-flight: inputs stay consumed and no outputs appear (the
    /// operation's droplets are considered sent to waste).
    pub(crate) fn exec_mo<F>(&mut self, mo: &PlannedMo, run_one: &mut F) -> Result<(), JobError>
    where
        F: FnMut(&mut Self, &RoutingJob, &[Rect], usize) -> Result<Rect, JobError>,
    {
        // Consume this operation's inputs: they stop being held and become
        // the routed droplets (or pieces) of its jobs.
        for input in &mo.inputs {
            if let Some(pos) = self.resting.iter().position(|r| r == input) {
                self.resting.swap_remove(pos);
            }
        }

        let mut arrived: Vec<Rect> = Vec::new();
        for (job_idx, job) in mo.jobs.iter().enumerate() {
            // Everything else on the chip is held in place this job:
            // parked outputs, this operation's not-yet-routed droplets,
            // and already-arrived partners.
            let mut held = self.resting.clone();
            held.extend(
                mo.jobs[job_idx + 1..]
                    .iter()
                    .map(|j| j.start)
                    .filter(|r| !r.is_off_chip_origin()),
            );
            held.extend(arrived.iter().copied());

            let landed = run_one(self, job, &held, job_idx)?;
            arrived.push(landed);
        }

        // The module itself now runs (mixing loops, incubation, …),
        // actuating its droplets in place for the operation's duration
        // while everything else on the chip is held.
        self.module_cycles(mo)?;

        // The operation completes: its outputs appear, arrivals merge or
        // exit.
        self.resting.extend(mo.outputs.iter().copied());
        Ok(())
    }

    fn module_cycles(&mut self, mo: &PlannedMo) -> Result<(), JobError> {
        for _ in 0..mo.op.execution_cycles() {
            if self.cycles >= self.config.k_max {
                return Err(JobError {
                    status: RunStatus::CycleLimit,
                    at: mo.outputs.first().copied().unwrap_or_default(),
                });
            }
            let mut pattern = Grid::new(self.chip.dims(), false);
            for rect in self.resting.iter().chain(mo.outputs.iter()) {
                pattern.fill_rect(*rect, true);
            }
            self.apply_cycle(pattern);
        }
        Ok(())
    }

    /// Dispensing (Section VI-B): the droplet enters from the nearest chip
    /// edge and is pushed perpendicular to it; each step still samples the
    /// EWOD outcome, so a degraded dispense corridor slows entry. Dispense
    /// is tracked by the dispenser hardware, not the location sensors, so
    /// sensed feedback does not apply here.
    pub(crate) fn run_dispense(
        &mut self,
        job: &RoutingJob,
        held: &[Rect],
    ) -> Result<Rect, JobError> {
        let goal = job.goal;
        let dims = self.chip.dims();
        // Distance to each edge and the inward push direction.
        let to_edges = [
            (goal.ya - 1, Dir::N),
            (dims.height as i32 - goal.yb, Dir::S),
            (goal.xa - 1, Dir::E),
            (dims.width as i32 - goal.xb, Dir::W),
        ];
        // Fold instead of `min_by_key(..).expect(..)`: the array is
        // structurally non-empty, so no panic path is needed. Strict `<`
        // keeps the first minimum, matching `min_by_key`.
        let (dist, dir) =
            to_edges[1..].iter().fold(
                to_edges[0],
                |best, &cand| if cand.0 < best.0 { cand } else { best },
            );
        let (dx, dy) = dir.delta();
        let mut droplet = goal.translate(-dx * dist, -dy * dist);

        let attempt_start = self.cycles;
        while droplet != goal {
            if self.cycles >= self.config.k_max {
                self.pending = Some(droplet);
                return Err(JobError {
                    status: RunStatus::CycleLimit,
                    at: droplet,
                });
            }
            // The supervisor's per-attempt watchdog applies here too: a
            // dispense corridor severed by electrode death would otherwise
            // spin against the dead cells until the global budget dies.
            if let Some(limit) = self.attempt_budget {
                if self.cycles - attempt_start >= limit {
                    self.pending = Some(droplet);
                    return Err(JobError {
                        status: RunStatus::Stalled,
                        at: droplet,
                    });
                }
            }
            let action = Action::Move(dir);
            self.actuate(action.apply(droplet), held);
            droplet = self.sample(droplet, action);
        }
        self.pending = None;
        Ok(goal)
    }

    /// A routed (non-dispense) job under the router's control. The router
    /// is fed the ground-truth rectangle, or — with
    /// [`RunConfig::sensed_feedback`] — the estimate reconstructed from the
    /// corrupted **Y** matrix each cycle; the commanded actuation pattern
    /// follows the estimate while the physics follows the truth.
    pub(crate) fn run_routed(
        &mut self,
        job: &RoutingJob,
        router: &mut dyn Router,
        held: &[Rect],
    ) -> Result<Rect, JobError> {
        if !router.begin_job(job, self.chip.health_field()) {
            return Err(JobError {
                status: RunStatus::NoRoute,
                at: job.start,
            });
        }
        // Physical continuity: a retry of a failed job resumes from the
        // true droplet position its predecessor left behind, even though
        // the router only knows the (possibly wrong) estimate in
        // `job.start`.
        let mut actual = self.pending.take().unwrap_or(job.start);
        let mut sensed = job.start;
        let attempt_start = self.cycles;
        while !job.goal.contains_rect(sensed) {
            if self.cycles >= self.config.k_max {
                self.pending = Some(actual);
                return Err(JobError {
                    status: RunStatus::CycleLimit,
                    at: sensed,
                });
            }
            if let Some(limit) = self.attempt_budget {
                if self.cycles - attempt_start >= limit {
                    self.pending = Some(actual);
                    return Err(JobError {
                        status: RunStatus::Stalled,
                        at: sensed,
                    });
                }
            }
            let Some(action) = router.next_action(sensed, self.chip.health_field()) else {
                self.pending = Some(actual);
                return Err(JobError {
                    status: RunStatus::NoRoute,
                    at: sensed,
                });
            };
            let commanded = action.apply(sensed);
            self.actuate(commanded, held);
            actual = self.sample(actual, action);
            if self.config.sensed_feedback {
                match self.sense(actual, sensed, commanded, held) {
                    Ok(estimate) => sensed = estimate,
                    Err(status) => {
                        self.pending = Some(actual);
                        return Err(JobError { status, at: sensed });
                    }
                }
            } else {
                sensed = actual;
            }
        }
        self.pending = None;
        Ok(sensed)
    }

    /// Builds and applies one cycle's actuation matrix: the commanded
    /// pattern plus hold patterns for every waiting droplet.
    fn actuate(&mut self, command: Rect, held: &[Rect]) {
        let mut pattern = Grid::new(self.chip.dims(), false);
        pattern.fill_rect(command, true);
        for rect in held {
            pattern.fill_rect(*rect, true);
        }
        self.apply_cycle(pattern);
    }

    /// The single point every cycle goes through: fire scheduled electrode
    /// deaths, spread defect fronts, wear the chip, advance the clock,
    /// record the trace.
    pub(crate) fn apply_cycle(&mut self, pattern: Grid<bool>) {
        let sw = meda_telemetry::Stopwatch::start();
        while self.next_death < self.deaths.len()
            && self.deaths[self.next_death].at_cycle <= self.cycles
        {
            self.chip.kill_cell(self.deaths[self.next_death].cell);
            self.next_death += 1;
        }
        // Each front kills one Manhattan ring per period; rings beyond
        // width+height lie entirely off-chip, so the cursor stops there.
        let max_radius = u64::from(self.chip.dims().width) + u64::from(self.chip.dims().height);
        for (front, next_radius) in &mut self.fronts {
            while *next_radius <= max_radius
                && self.cycles >= front.start_cycle + *next_radius * front.period.max(1)
            {
                let r = *next_radius as i32;
                for dx in -r..=r {
                    let dy = r - dx.abs();
                    self.chip
                        .kill_cell(Cell::new(front.seed.x + dx, front.seed.y + dy));
                    if dy != 0 {
                        self.chip
                            .kill_cell(Cell::new(front.seed.x + dx, front.seed.y - dy));
                    }
                }
                *next_radius += 1;
            }
        }
        self.tele.actuated_cells += self.chip.apply_actuation(&pattern) as u64;
        self.cycles += 1;
        if let Some(trace) = self.trace.as_mut() {
            trace.push(pattern);
        }
        self.tele.cycles += 1;
        self.tele.actuate_ns += sw.elapsed_ns();
    }

    /// Samples the droplet's next location from the Section V-B outcome
    /// distribution under the chip's ground-truth degradation, with this
    /// cycle's intermittent glitches (if any) zeroing their cells. Draws
    /// one `gen_bool` per intermittent cell plus the outcome roll — and
    /// exactly the outcome roll when the plan has no intermittent cells,
    /// preserving seed reproducibility.
    pub(crate) fn sample(&mut self, droplet: Rect, action: Action) -> Rect {
        let field = self.chip.degradation_field();
        let dead: Vec<Cell> = self
            .chaos
            .intermittent
            .iter()
            .filter(|glitch| self.rng.gen_bool(glitch.probability))
            .map(|glitch| glitch.cell)
            .collect();
        sample_outcome(droplet, action, &Glitched { field, dead: &dead }, self.rng)
    }

    /// Reads the location sensors: builds the **Y** matrix from the true
    /// droplet cover, applies stuck sensor bits, subtracts the hold
    /// patterns the controller itself commanded, and reconstructs the
    /// moving droplet from the remaining clusters. Consumes no randomness.
    ///
    /// Returns the moving droplet's new estimate — its cluster's bounds
    /// when cleanly rectangular and droplet-sized, a [`snap_to_size`]
    /// estimate when the cluster is malformed. While the droplet is fully
    /// occluded by a hold pattern (routes may legitimately pass over a
    /// parked partner's cells — the model has no droplet collisions), the
    /// controller dead-reckons on the commanded position instead. Only when
    /// no cluster is near the previous estimate *and* dead reckoning cannot
    /// explain the blank read is the failure class returned: the droplet
    /// vanished next to a parked droplet ([`RunStatus::DropletMerged`]) or
    /// is simply gone from the sensors ([`RunStatus::DropletLost`]).
    pub(crate) fn sense(
        &mut self,
        actual: Rect,
        last_sensed: Rect,
        commanded: Rect,
        held: &[Rect],
    ) -> Result<Rect, RunStatus> {
        let sw = meda_telemetry::Stopwatch::start();
        let result = self.sense_inner(actual, last_sensed, commanded, held);
        self.tele.sense_ns += sw.elapsed_ns();
        self.tele.sense_reads += 1;
        // A Y-reconstruction mismatch: the controller's estimate differs
        // from the ground-truth droplet (the engine knows both; a real
        // controller would not).
        if result.is_ok_and(|estimate| estimate != actual) {
            self.tele.sense_mismatches += 1;
        }
        result
    }

    /// [`Exec::sense`] without the telemetry wrapper.
    fn sense_inner(
        &mut self,
        actual: Rect,
        last_sensed: Rect,
        commanded: Rect,
        held: &[Rect],
    ) -> Result<Rect, RunStatus> {
        let chaos = self.chaos;
        let mut y = Grid::new(self.chip.dims(), false);
        y.fill_rect(actual, true);
        for rect in held {
            y.fill_rect(*rect, true);
        }
        apply_stuck_bits(&mut y, &chaos.stuck_sensors);
        // The controller commanded the hold patterns itself, so it can
        // subtract them from Y; the remainder is the moving droplet plus
        // sensor noise. (Without the subtraction, routing merely adjacent
        // to a parked droplet would read as a merge.)
        for rect in held {
            y.fill_rect(*rect, false);
        }
        let clusters = locate_droplets(&y);

        // The droplet moves at most two cells per cycle, so its cluster
        // must contain the previous estimate's center or at least overlap
        // the previous estimate.
        let (cx, cy) = last_sensed.center();
        let center = Cell::new(cx.round() as i32, cy.round() as i32);
        let moving = clusters
            .iter()
            .find(|d| d.bounds.contains_cell(center))
            .or_else(|| {
                clusters
                    .iter()
                    .filter(|d| d.bounds.intersects(last_sensed.expand(1)))
                    .min_by_key(|d| d.bounds.manhattan_gap(last_sensed))
            });
        let Some(moving) = moving else {
            // A blank read with the commanded position overlapping a hold
            // pattern just means the subtraction occluded the droplet;
            // dead-reckon on the command until it re-emerges.
            if held.iter().any(|rect| rect.intersects(commanded)) {
                self.tele.dead_reckoned += 1;
                return Ok(commanded);
            }
            let merged = held
                .iter()
                .any(|rect| rect.expand(1).intersects(last_sensed));
            return Err(if merged {
                RunStatus::DropletMerged
            } else {
                RunStatus::DropletLost
            });
        };
        let clean = moving.is_rectangular()
            && moving.bounds.width() == last_sensed.width()
            && moving.bounds.height() == last_sensed.height();
        if clean {
            return Ok(moving.bounds);
        }
        // A truncated cluster can still validate the commanded position as
        // a prediction: when the visible remainder of a droplet sitting at
        // `commanded` matches the observation, the droplet is partially
        // occluded by a hold pattern, not malformed.
        let visible: Vec<Cell> = commanded
            .cells()
            .filter(|c| !held.iter().any(|r| r.contains_cell(*c)))
            .collect();
        if visible.len() as u32 == moving.cells
            && visible.iter().all(|c| moving.bounds.contains_cell(*c))
        {
            return Ok(commanded);
        }
        Ok(snap_to_size(moving.bounds, last_sensed))
    }

    /// A fresh global read of the location sensors around a failed job —
    /// the supervisor's first escalation rung. Unlike the per-cycle
    /// [`Exec::sense`], the search is chip-wide: hold patterns are
    /// subtracted from **Y** and the remaining cluster nearest the last
    /// estimate, snapped to droplet size, becomes the new position
    /// estimate. Returns `None` when no cluster is left (the droplet is
    /// truly invisible). Consumes no randomness and leaves
    /// [`Exec::pending`] in place for the retry.
    pub(crate) fn resense(&mut self, last_estimate: Rect, held: &[Rect]) -> Option<Rect> {
        let chaos = self.chaos;
        let actual = self.pending.unwrap_or(last_estimate);
        let mut y = Grid::new(self.chip.dims(), false);
        y.fill_rect(actual, true);
        for rect in held {
            y.fill_rect(*rect, true);
        }
        apply_stuck_bits(&mut y, &chaos.stuck_sensors);
        for rect in held {
            y.fill_rect(*rect, false);
        }
        locate_droplets(&y)
            .iter()
            .min_by_key(|c| c.bounds.manhattan_gap(last_estimate))
            .map(|c| snap_to_size(c.bounds, last_estimate))
    }
}

/// The live **D** with one cycle's glitched cells read as dead: what
/// [`Exec::sample`] draws from under intermittent faults, without copying
/// the chip-sized grid.
struct Glitched<'a> {
    field: &'a DegradationField,
    dead: &'a [Cell],
}

impl ForceProvider for Glitched<'_> {
    fn cell_force(&self, cell: Cell) -> f64 {
        if self.dead.contains(&cell) {
            0.0
        } else {
            self.field.cell_force(cell)
        }
    }
}

/// Samples one movement-cycle outcome for `droplet` executing `action`
/// under `field`, exactly as the simulator's inner loop does: a single
/// uniform roll walks the Section V-B outcome distribution returned by
/// [`transitions`] in order. This is the simulator's step semantics in
/// isolation — differential tests draw from it directly and compare the
/// empirical frequencies against the MDP's transition probabilities.
///
/// Consumes exactly one `f64` from `rng`. If the distribution's mass
/// falls short of the roll (floating-point slack), the last outcome wins;
/// an empty distribution leaves the droplet in place.
pub fn sample_outcome<R: Rng>(
    droplet: Rect,
    action: Action,
    field: &dyn ForceProvider,
    rng: &mut R,
) -> Rect {
    let outcomes = transitions(droplet, action, field);
    let mut roll: f64 = rng.gen();
    for outcome in &outcomes {
        if roll < outcome.probability {
            return outcome.droplet;
        }
        roll -= outcome.probability;
    }
    outcomes.last().map_or(droplet, |o| o.droplet)
}

/// Whether every input rectangle is currently parked (multiset
/// containment: duplicated rects need duplicated parkings).
fn inputs_available(inputs: &[Rect], resting: &[Rect]) -> bool {
    let mut pool = resting.to_vec();
    inputs.iter().all(|input| {
        if let Some(pos) = pool.iter().position(|r| r == input) {
            pool.swap_remove(pos);
            true
        } else {
            false
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveConfig, AdaptiveRouter, BaselineRouter, DegradationConfig};
    use meda_bioassay::{benchmarks, RjHelper};
    use meda_grid::ChipDims;
    use meda_rng::SeedableRng;
    use meda_rng::StdRng;

    fn plan(sg: &meda_bioassay::SequencingGraph) -> BioassayPlan {
        RjHelper::new(ChipDims::PAPER).plan(sg).unwrap()
    }

    #[test]
    fn master_mix_succeeds_on_pristine_chip_with_baseline() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let mut router = BaselineRouter::new();
        let outcome = BioassayRunner::new(RunConfig::default()).run(
            &plan(&benchmarks::master_mix()),
            &mut chip,
            &mut router,
            &mut rng,
        );
        assert!(outcome.is_success(), "{:?}", outcome.status);
        assert!(outcome.cycles > 0);
        assert_eq!(outcome.completed_ops, outcome.total_ops);
        assert_eq!(outcome.completion_fraction(), 1.0);
    }

    #[test]
    fn master_mix_succeeds_with_adaptive() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
        let outcome = BioassayRunner::new(RunConfig::default()).run(
            &plan(&benchmarks::master_mix()),
            &mut chip,
            &mut router,
            &mut rng,
        );
        assert!(outcome.is_success(), "{:?}", outcome.status);
    }

    #[test]
    fn all_benchmarks_complete_on_pristine_chip() {
        for sg in benchmarks::evaluation_suite() {
            let mut rng = StdRng::seed_from_u64(3);
            let mut chip =
                Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
            let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
            let outcome = BioassayRunner::new(RunConfig::default()).run(
                &plan(&sg),
                &mut chip,
                &mut router,
                &mut rng,
            );
            assert!(
                outcome.is_success(),
                "{} -> {:?}",
                sg.name(),
                outcome.status
            );
        }
    }

    #[test]
    fn all_benchmarks_complete_with_sensed_feedback() {
        // Closing the sensing loop on a pristine chip (no sensor faults)
        // must not change the verdict: the Y reconstruction feeds the
        // router positions equivalent to the ground truth.
        for sg in benchmarks::evaluation_suite() {
            let mut rng = StdRng::seed_from_u64(3);
            let mut chip =
                Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
            let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
            let outcome = BioassayRunner::new(RunConfig {
                sensed_feedback: true,
                ..RunConfig::default()
            })
            .run(&plan(&sg), &mut chip, &mut router, &mut rng);
            assert!(
                outcome.is_success(),
                "{} -> {:?}",
                sg.name(),
                outcome.status
            );
        }
    }

    #[test]
    fn pristine_sensing_is_bit_identical_to_ground_truth() {
        // On a pristine chip every commanded move succeeds, so the Y
        // reconstruction (including dead-reckoning through hold-pattern
        // occlusion) must track ground truth exactly: same seeds, same
        // cycle counts, same wear, same RNG stream position.
        let p = plan(&benchmarks::master_mix());
        let go = |sensed: bool| {
            let mut rng = StdRng::seed_from_u64(42);
            let mut chip =
                Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
            let mut router = BaselineRouter::new();
            let outcome = BioassayRunner::new(RunConfig {
                sensed_feedback: sensed,
                ..RunConfig::default()
            })
            .run(&p, &mut chip, &mut router, &mut rng);
            (
                outcome.cycles,
                outcome.status,
                chip.total_actuations(),
                rng.gen::<u64>(),
            )
        };
        assert_eq!(
            go(false),
            go(true),
            "pristine sensing must not perturb the run"
        );
    }

    #[test]
    fn runs_accumulate_wear_on_the_same_chip() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
        let runner = BioassayRunner::new(RunConfig::default());
        let p = plan(&benchmarks::covid_rat());
        let _ = runner.run(&p, &mut chip, &mut router, &mut rng);
        let wear_after_one = chip.total_actuations();
        let _ = runner.run(&p, &mut chip, &mut router, &mut rng);
        assert!(chip.total_actuations() > wear_after_one);
    }

    #[test]
    fn trace_records_one_pattern_per_cycle() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let mut router = BaselineRouter::new();
        let outcome = BioassayRunner::new(RunConfig {
            record_actuation: true,
            ..RunConfig::default()
        })
        .run(
            &plan(&benchmarks::covid_rat()),
            &mut chip,
            &mut router,
            &mut rng,
        );
        let trace = outcome.trace.expect("recording enabled");
        assert_eq!(trace.len() as u64, outcome.cycles);
        assert!(trace.iter().all(|u| u.count_set() > 0));
    }

    #[test]
    fn dispense_enters_from_the_nearest_edge() {
        // Goals hugging each edge must sweep in perpendicular to it: the
        // swept corridor (and nothing across the chip) accumulates wear.
        let dims = ChipDims::new(20, 20);
        let cases = [
            (Rect::new(9, 2, 12, 5), "south"),
            (Rect::new(9, 16, 12, 19), "north"),
            (Rect::new(2, 9, 5, 12), "west"),
            (Rect::new(16, 9, 19, 12), "east"),
        ];
        for (goal, edge) in cases {
            let mut rng = StdRng::seed_from_u64(8);
            let mut chip = Biochip::generate(dims, &DegradationConfig::pristine(), &mut rng);
            let mut sg = meda_bioassay::SequencingGraph::new("edge");
            let (cx, cy) = goal.center();
            sg.dispense((cx, cy), (4, 4));
            let plan = RjHelper::new(dims).plan(&sg).unwrap();
            let mut router = BaselineRouter::new();
            let outcome = BioassayRunner::new(RunConfig::default()).run(
                &plan,
                &mut chip,
                &mut router,
                &mut rng,
            );
            assert!(outcome.is_success(), "{edge}");
            // Each sweep step actuates its *target* pattern (U(a(δ)) = 1),
            // and these goals sit one cell from their edge, so the worn
            // region is exactly the goal rectangle — nothing across the
            // chip.
            for cell in dims.cells() {
                let worn = chip.actuation_count(cell) > 0;
                assert_eq!(
                    worn,
                    goal.contains_cell(cell),
                    "{edge}: unexpected wear state at {cell}"
                );
            }
        }
    }

    #[test]
    fn tiny_cycle_budget_aborts() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let mut router = BaselineRouter::new();
        let outcome = BioassayRunner::new(RunConfig {
            k_max: 3,
            ..RunConfig::default()
        })
        .run(
            &plan(&benchmarks::master_mix()),
            &mut chip,
            &mut router,
            &mut rng,
        );
        assert_eq!(outcome.status, RunStatus::CycleLimit);
        assert!(outcome.cycles <= 3);
        assert!(outcome.completed_ops < outcome.total_ops);
    }

    #[test]
    fn malformed_plan_reports_deadlock_instead_of_panicking() {
        // An operation that depends on itself can never become ready.
        use meda_bioassay::{MoType, PlannedMo};
        let stuck = BioassayPlan::from_parts(
            "deadlocked",
            vec![PlannedMo {
                id: 0,
                op: MoType::Mix,
                pre: vec![0],
                inputs: vec![],
                jobs: vec![],
                outputs: vec![],
            }],
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let mut router = BaselineRouter::new();
        let outcome =
            BioassayRunner::new(RunConfig::default()).run(&stuck, &mut chip, &mut router, &mut rng);
        assert_eq!(outcome.status, RunStatus::Deadlock);
        assert_eq!(outcome.cycles, 0);
        assert_eq!(outcome.completed_ops, 0);
        assert_eq!(outcome.total_ops, 1);
    }

    #[test]
    fn scheduled_death_fires_at_its_cycle() {
        use meda_grid::Cell;
        let mut rng = StdRng::seed_from_u64(9);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let victim = Cell::new(30, 15);
        let chaos = FaultPlan {
            sudden_deaths: vec![SuddenDeath {
                cell: victim,
                at_cycle: 5,
            }],
            ..FaultPlan::none()
        };
        let mut router = BaselineRouter::new();
        let outcome = BioassayRunner::new(RunConfig::default()).run_with_chaos(
            &plan(&benchmarks::master_mix()),
            &mut chip,
            &mut router,
            &mut FifoScheduler::new(),
            &chaos,
            &mut rng,
        );
        assert!(outcome.cycles > 5);
        assert_eq!(
            chip.degradation_at(victim),
            0.0,
            "the scheduled death must have fired"
        );
    }

    #[test]
    fn defect_front_spreads_one_ring_per_period() {
        use meda_grid::Cell;
        let mut rng = StdRng::seed_from_u64(10);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let seed_cell = Cell::new(30, 15);
        let chaos = FaultPlan {
            defect_fronts: vec![DefectFront {
                seed: seed_cell,
                start_cycle: 2,
                period: 4,
            }],
            ..FaultPlan::none()
        };
        let mut router = BaselineRouter::new();
        // A short budget keeps the fired radius small enough that every
        // probe cell below stays on the chip.
        let outcome = BioassayRunner::new(RunConfig {
            k_max: 40,
            ..RunConfig::default()
        })
        .run_with_chaos(
            &plan(&benchmarks::master_mix()),
            &mut chip,
            &mut router,
            &mut FifoScheduler::new(),
            &chaos,
            &mut rng,
        );
        // After c cycles the rings with 2 + 4r <= c - 1 have fired; the run
        // comfortably outlives several periods, so the dead ball around the
        // seed must match that radius exactly (ring r+1 still alive).
        let fired = (outcome.cycles.saturating_sub(3) / 4) as i32;
        assert!(fired >= 1, "run too short to grow the front");
        for r in 0..=fired {
            let probe = Cell::new(seed_cell.x + r, seed_cell.y);
            assert_eq!(chip.degradation_at(probe), 0.0, "ring {r} must be dead");
        }
        let alive = Cell::new(seed_cell.x - (fired + 1), seed_cell.y);
        assert!(
            chip.degradation_at(alive) > 0.0,
            "ring {} must not have fired yet",
            fired + 1
        );
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let p = plan(&benchmarks::master_mix());
        let go = |chaotic: bool| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut chip =
                Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
            let mut router = BaselineRouter::new();
            let runner = BioassayRunner::new(RunConfig::default());
            let outcome = if chaotic {
                runner.run_with_chaos(
                    &p,
                    &mut chip,
                    &mut router,
                    &mut FifoScheduler::new(),
                    &FaultPlan::none(),
                    &mut rng,
                )
            } else {
                runner.run(&p, &mut chip, &mut router, &mut rng)
            };
            (
                outcome.cycles,
                outcome.status,
                chip.total_actuations(),
                rng.gen::<u64>(),
            )
        };
        assert_eq!(go(false), go(true));
    }

    /// The glitch overlay must draw exactly what sampling from a copy of
    /// **D** with the glitched cells zeroed drew, from the same generator
    /// state, so chaos runs with intermittent cells stay reproducible.
    #[test]
    fn glitch_overlay_samples_like_a_zeroed_copy_of_d() {
        use crate::IntermittentCell;
        let dims = ChipDims::new(12, 12);
        let mut rng = StdRng::seed_from_u64(21);
        let mut chip = Biochip::generate(dims, &DegradationConfig::paper(), &mut rng);
        let mut wear = Grid::new(dims, false);
        wear.fill_rect(Rect::new(3, 3, 9, 9), true);
        for _ in 0..300 {
            chip.apply_actuation(&wear);
        }
        let droplet = Rect::new(5, 5, 7, 7);
        let glitch = |x, y, probability| IntermittentCell {
            cell: Cell::new(x, y),
            probability,
        };
        let chaos = FaultPlan {
            intermittent: vec![
                glitch(6, 8, 0.5),
                glitch(8, 6, 0.3),
                glitch(4, 5, 0.7),
                glitch(6, 4, 0.2),
                glitch(0, 6, 0.5), // off-chip: drawn for, never read
            ],
            ..FaultPlan::none()
        };
        let mut reference = rng.clone();
        let mut exec = Exec::new(RunConfig::default(), &mut chip, &mut rng, &chaos);
        for i in 0..400 {
            let action = Action::Move(Dir::ALL[i % 4]);
            let got = exec.sample(droplet, action);
            let mut grid = exec.chip.degradation_field().degradation().clone();
            for g in &chaos.intermittent {
                if reference.gen_bool(g.probability) {
                    if let Some(d) = grid.get_mut(g.cell) {
                        *d = 0.0;
                    }
                }
            }
            let field = DegradationField::new(grid);
            let want = sample_outcome(droplet, action, &field, &mut reference);
            assert_eq!(got, want, "cycle {i}");
        }
        assert_eq!(*exec.rng, reference, "generators diverged");
    }
}
