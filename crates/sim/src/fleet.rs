//! Concurrent multi-droplet fleet execution.
//!
//! The serial [`BioassayRunner`](crate::BioassayRunner) routes one
//! micro-operation at a time, holding every other droplet in place — the
//! paper's execution model. This module generalizes it: the fleet engine
//! dispatches up to [`FleetConfig::max_active`] *independent* operations
//! (no data dependency between them) onto the chip at once and interleaves
//! their routing cycle by cycle, so a COVID-PCR panel's parallel branches
//! overlap instead of queueing. Three mechanisms make that safe:
//!
//! * **Fluidic separation** ([`FluidicConstraints`]): each cycle, every
//!   proposed move is screened against the other in-flight droplets'
//!   current and committed-next rectangles (static + dynamic rules). An
//!   inadmissible move becomes a *hold* — the droplet stalls in place under
//!   its own actuation pattern and retries next cycle.
//! * **Corridor hazards** ([`meda_synth::CorridorReservations`]): a
//!   dispatched operation reserves its jobs' hazard bounds as
//!   time-expanded soft [`HazardBox`]es. Peer routers see them through
//!   [`Router::set_hazards`], so strategy synthesis steers *around* busy
//!   corridors up front; a reservation shift re-keys the strategy digest
//!   and triggers a cold re-solve.
//! * **Stall escalation**: a droplet stalled past
//!   [`FleetConfig::stall_patience`] hardens the blocking peer's rectangle
//!   into a wall hazard and re-synthesizes a detour; the wall is dropped as
//!   soon as the droplet moves again.
//!
//! With `max_active == 1` ([`FleetConfig::serial`]) none of the fleet
//! machinery is armed — no hazards are installed, the screening is
//! vacuous, and the engine replays the serial runner's semantics *exactly*:
//! same per-cycle actuation patterns, same RNG draws, same cycle counts
//! (property-pinned by the `fleet_serial_equivalence` oracle and the
//! golden traces).
//!
//! Screening compares *commanded* rectangles. With sensed feedback off the
//! command tracks ground truth, and because droplets move at most two
//! cells per cycle while the interference ring is two cells wide, two
//! separated endpoints cannot tunnel through a ring mid-step — endpoint
//! screening is sufficient. Under sensed feedback with faulty sensors the
//! commanded and physical rectangles can drift apart; the engine screens
//! what the controller knows, which is the cyberphysical best available.

use meda_rng::Rng;

use meda_bioassay::{BioassayPlan, MoId};
use meda_core::{Action, Dir, HazardBox};
use meda_grid::{ChipDims, Grid, Rect};
use meda_synth::CorridorReservations;

use crate::engine::{Exec, JobError};
use crate::{
    AdaptiveConfig, AdaptiveRouter, Biochip, FaultPlan, FluidicConstraints, MoScheduler, Router,
    RunConfig, RunStatus,
};

/// Configuration of a concurrent fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// The underlying per-cycle run configuration (budget, trace, sensing).
    pub run: RunConfig,
    /// Maximum micro-operations in flight at once. `1` replays the serial
    /// engine bit for bit; the fleet machinery (hazards, screening,
    /// stalls) arms only above 1.
    pub max_active: usize,
    /// The droplet-separation rules enforced between concurrent movers.
    pub constraints: FluidicConstraints,
    /// Consecutive stalled cycles a mover tolerates before hardening the
    /// blocker's rectangle into a wall hazard and re-synthesizing a
    /// detour.
    pub stall_patience: u64,
    /// Force attenuation factor of a reserved peer corridor (soft hazard):
    /// synthesis sees the corridor's cells at this fraction of their true
    /// force, which prices detours around busy lanes without forbidding
    /// them.
    pub corridor_attenuation: f64,
    /// Record the per-cycle positions of every in-flight droplet (the
    /// separation oracle's input; costs memory).
    pub record_movers: bool,
    /// Supervised degradation: on a routing failure, abort only the
    /// failing operation (and transitively its dependents) and keep the
    /// rest of the fleet running, instead of aborting the whole run.
    pub continue_on_failure: bool,
    /// Give-up threshold under hard chaos: a mover that makes no physical
    /// progress (dead electrodes under a commanded move) or holds against
    /// a fluidic blocker for this many *consecutive* cycles is declared
    /// [`RunStatus::NoRoute`] and handed to the failure path, instead of
    /// silently burning the remaining cycle budget. `0` (the default)
    /// disables the give-up entirely — required for bit-identity with the
    /// serial engine, which has no such mechanism.
    pub stall_abort: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::serial(RunConfig::default())
    }
}

impl FleetConfig {
    /// Serial mode: one operation in flight, bit-identical to
    /// [`BioassayRunner`](crate::BioassayRunner).
    #[must_use]
    pub fn serial(run: RunConfig) -> Self {
        Self {
            run,
            max_active: 1,
            constraints: FluidicConstraints::default(),
            stall_patience: 8,
            corridor_attenuation: 0.3,
            record_movers: false,
            continue_on_failure: false,
            stall_abort: 0,
        }
    }

    /// Concurrent mode with up to `n` operations in flight.
    #[must_use]
    pub fn concurrent(n: usize, run: RunConfig) -> Self {
        Self {
            max_active: n.max(1),
            ..Self::serial(run)
        }
    }

    /// Whether the fleet machinery (hazards, screening, stalls) is armed.
    #[must_use]
    pub fn is_fleet(&self) -> bool {
        self.max_active > 1
    }
}

/// The outcome of a fleet run: the serial outcome fields plus fleet
/// observability (peak concurrency, stall pressure, per-operation failures
/// in supervised mode).
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Total operational cycles consumed — the assay *makespan*.
    pub cycles: u64,
    /// Terminal status ([`RunStatus::Success`] when every operation
    /// completed; in supervised mode, the first failure's status
    /// otherwise).
    pub status: RunStatus,
    /// Operations completed.
    pub completed_ops: usize,
    /// Operations in the plan.
    pub total_ops: usize,
    /// Per-cycle actuation matrices, when recording was enabled.
    pub trace: Option<Vec<Grid<bool>>>,
    /// Per-cycle in-flight droplet positions `(mo, rect)` — ground truth,
    /// post-move — when [`FleetConfig::record_movers`] was set.
    pub movers: Option<Vec<Vec<(MoId, Rect)>>>,
    /// Most operations ever simultaneously active.
    pub peak_active: usize,
    /// Total mover-cycles spent stalled behind a fluidic constraint.
    pub stall_cycles: u64,
    /// Operations aborted by a routing failure (supervised mode), in
    /// failure order.
    pub failed: Vec<(MoId, RunStatus)>,
    /// Operations skipped because a (transitive) predecessor failed.
    pub skipped: Vec<MoId>,
}

impl FleetOutcome {
    /// Whether the whole bioassay completed.
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

/// A per-slot router supply: the fleet engine needs one [`Router`] per
/// concurrently active operation (routers carry per-job state). Slots are
/// recycled lowest-free-first, so serial mode always uses slot 0 — one
/// router instance across the whole run, exactly like the serial engine.
pub trait RouterPool {
    /// The router bound to `slot` (slots are dense, `0..max_active`).
    fn router(&mut self, slot: usize) -> &mut dyn Router;
}

/// A [`RouterPool`] of [`AdaptiveRouter`]s grown on demand from one
/// configuration. Each slot keeps its own strategy library, warmed across
/// the operations that pass through it.
#[derive(Debug, Default)]
pub struct AdaptivePool {
    config: AdaptiveConfig,
    routers: Vec<AdaptiveRouter>,
}

impl AdaptivePool {
    /// Creates a pool synthesizing with `config`.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            config,
            routers: Vec::new(),
        }
    }
}

impl RouterPool for AdaptivePool {
    fn router(&mut self, slot: usize) -> &mut dyn Router {
        while self.routers.len() <= slot {
            self.routers.push(AdaptiveRouter::new(self.config));
        }
        &mut self.routers[slot]
    }
}

/// A [`RouterPool`] cloning a prototype router per slot — the natural pool
/// for stateless-per-job routers like
/// [`BaselineRouter`](crate::BaselineRouter).
#[derive(Debug)]
pub struct ClonePool<R: Router + Clone> {
    proto: R,
    routers: Vec<R>,
}

impl<R: Router + Clone> ClonePool<R> {
    /// Creates a pool cloning `proto` into each slot.
    pub fn new(proto: R) -> Self {
        Self {
            proto,
            routers: Vec::new(),
        }
    }
}

impl<R: Router + Clone> RouterPool for ClonePool<R> {
    fn router(&mut self, slot: usize) -> &mut dyn Router {
        while self.routers.len() <= slot {
            self.routers.push(self.proto.clone());
        }
        &mut self.routers[slot]
    }
}

/// Where one in-flight operation currently is in its lifecycle.
#[derive(Debug, Clone)]
enum Phase {
    /// Sweeping a dispensed droplet in from the nearest edge.
    Dispense { droplet: Rect, dir: Dir },
    /// Routing the current job's droplet under its slot router.
    Route { actual: Rect, sensed: Rect },
    /// Executing the module's in-place cycles (mixing loops, incubation).
    Module { remaining: u64 },
}

/// One active operation.
#[derive(Debug, Clone)]
struct Task {
    mo: MoId,
    slot: usize,
    job_idx: usize,
    phase: Phase,
    /// Goals reached by this operation's earlier jobs (held in place until
    /// the module phase begins).
    arrived: Vec<Rect>,
    /// Consecutive cycles this mover has been stalled.
    stalled_for: u64,
    /// Consecutive committed moves that produced no physical displacement
    /// (dead electrodes swallowing the droplet's force); feeds the
    /// [`FleetConfig::stall_abort`] give-up.
    no_progress: u64,
    /// Escalation walls (hardened blocker rectangles) feeding this task's
    /// router on top of the peer corridor reservations.
    walls: Vec<HazardBox>,
}

impl Task {
    /// The in-flight droplet's ground-truth rectangle (`None` in the
    /// module phase — its droplets are parked outputs).
    fn physical(&self) -> Option<Rect> {
        match self.phase {
            Phase::Dispense { droplet, .. } => Some(droplet),
            Phase::Route { actual, .. } => Some(actual),
            Phase::Module { .. } => None,
        }
    }

    /// The controller's belief of the in-flight droplet (what hold
    /// commands are issued against).
    fn belief(&self) -> Option<Rect> {
        match self.phase {
            Phase::Dispense { droplet, .. } => Some(droplet),
            Phase::Route { sensed, .. } => Some(sensed),
            Phase::Module { .. } => None,
        }
    }
}

/// What a mover decided this cycle (used for peer screening).
#[derive(Debug, Clone, Copy)]
enum Decision {
    Move { action: Action, commanded: Rect },
    Hold,
}

/// The separation-audit exemption for a plan's producer→consumer droplet
/// handoffs: dependency-linked operations are never concurrently in
/// flight, but across the completion boundary the movers log shows the
/// same physical droplet under both MO ids (see
/// [`FluidicConstraints::audit_exempting`]).
pub fn dependency_exemption(plan: &BioassayPlan) -> impl Fn(MoId, MoId) -> bool + '_ {
    |a, b| plan.operations()[a].pre.contains(&b) || plan.operations()[b].pre.contains(&a)
}

/// The dispense entry point: the droplet materializes at the nearest chip
/// edge and is pushed perpendicular to it — byte-for-byte the serial
/// engine's edge fold.
fn dispense_entry(goal: Rect, dims: ChipDims) -> (Rect, Dir) {
    let to_edges = [
        (goal.ya - 1, Dir::N),
        (dims.height as i32 - goal.yb, Dir::S),
        (goal.xa - 1, Dir::E),
        (dims.width as i32 - goal.xb, Dir::W),
    ];
    let (dist, dir) =
        to_edges[1..].iter().fold(
            to_edges[0],
            |best, &cand| if cand.0 < best.0 { cand } else { best },
        );
    let (dx, dy) = dir.delta();
    (goal.translate(-dx * dist, -dy * dist), dir)
}

/// Executes planned bioassays with up to [`FleetConfig::max_active`]
/// independent operations in flight at once.
///
/// # Examples
///
/// ```
/// use meda_bioassay::{benchmarks, RjHelper};
/// use meda_grid::ChipDims;
/// use meda_rng::SeedableRng;
/// use meda_sim::{
///     Biochip, ClonePool, BaselineRouter, DegradationConfig, FaultPlan, FifoScheduler,
///     FleetConfig, FleetRunner, RunConfig,
/// };
///
/// let mut rng = meda_rng::StdRng::seed_from_u64(1);
/// let plan = RjHelper::new(ChipDims::PAPER).plan(&benchmarks::master_mix())?;
/// let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
/// let mut pool = ClonePool::new(BaselineRouter::new());
/// let outcome = FleetRunner::new(FleetConfig::concurrent(2, RunConfig::default())).run(
///     &plan,
///     &mut chip,
///     &mut pool,
///     &mut FifoScheduler::new(),
///     &FaultPlan::none(),
///     &mut rng,
/// );
/// assert!(outcome.is_success());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetRunner {
    config: FleetConfig,
}

impl FleetRunner {
    /// Creates a fleet runner.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// Runs `plan` on `chip` with the fleet engine. With
    /// [`FleetConfig::serial`] this is bit-identical to
    /// [`BioassayRunner::run_with_chaos`](crate::BioassayRunner::run_with_chaos)
    /// driven by the slot-0 router.
    pub fn run(
        &self,
        plan: &BioassayPlan,
        chip: &mut Biochip,
        pool: &mut dyn RouterPool,
        scheduler: &mut dyn MoScheduler,
        chaos: &FaultPlan,
        rng: &mut impl Rng,
    ) -> FleetOutcome {
        let cfg = self.config;
        let total = plan.operations().len();
        let mut exec = Exec::new(cfg.run, chip, rng, chaos);
        let mut done = vec![false; total];
        let mut failed_mask = vec![false; total];
        let mut completed = 0usize;
        let mut failures: Vec<(MoId, RunStatus)> = Vec::new();
        let mut skipped: Vec<MoId> = Vec::new();
        let mut tasks: Vec<Task> = Vec::new();
        let mut free_slots: Vec<usize> = (0..cfg.max_active).rev().collect();
        let mut reservations = CorridorReservations::new();
        let mut movers_log = cfg.record_movers.then(Vec::new);
        let mut peak_active = 0usize;
        let mut stall_cycles = 0u64;
        let mut dispatches = 0u64;

        // Releases one task's fleet footprint (slot + corridor).
        let release = |task: &Task, free: &mut Vec<usize>, res: &mut CorridorReservations| {
            free.push(task.slot);
            free.sort_unstable_by(|a, b| b.cmp(a)); // pop() yields the lowest
            res.release(task.mo);
        };

        let status = 'run: loop {
            // --- Cycle boundary: transitions, completions, dispatch. ---
            loop {
                let mut changed = false;

                // Advance every task whose current stage is finished; loop
                // within the task because a job can be zero-cycle (start
                // inside goal) and a module can have zero execution cycles.
                let mut ti = 0;
                while ti < tasks.len() {
                    let mut remove = false;
                    loop {
                        let mo = &plan.operations()[tasks[ti].mo];
                        let advance = match tasks[ti].phase {
                            Phase::Dispense { droplet, .. } => {
                                (droplet == mo.jobs[tasks[ti].job_idx].goal).then_some(droplet)
                            }
                            Phase::Route { sensed, .. } => mo.jobs[tasks[ti].job_idx]
                                .goal
                                .contains_rect(sensed)
                                .then_some(sensed),
                            Phase::Module { remaining } => {
                                if remaining == 0 {
                                    // The operation completes: outputs
                                    // appear, the slot and corridor free up.
                                    exec.resting.extend(mo.outputs.iter().copied());
                                    done[tasks[ti].mo] = true;
                                    completed += 1;
                                    release(&tasks[ti], &mut free_slots, &mut reservations);
                                    remove = true;
                                    changed = true;
                                }
                                break;
                            }
                        };
                        let Some(landed) = advance else { break };
                        changed = true;
                        tasks[ti].arrived.push(landed);
                        tasks[ti].job_idx += 1;
                        if let Err(err) =
                            self.start_job(&mut tasks[ti], plan, &mut exec, pool, &reservations)
                        {
                            if cfg.continue_on_failure && err.status != RunStatus::CycleLimit {
                                failures.push((tasks[ti].mo, err.status));
                                failed_mask[tasks[ti].mo] = true;
                                release(&tasks[ti], &mut free_slots, &mut reservations);
                                remove = true;
                            } else {
                                break 'run err.status;
                            }
                            break;
                        }
                    }
                    if remove {
                        tasks.remove(ti);
                    } else {
                        ti += 1;
                    }
                }

                // Transitively skip dependents of failed operations (plan
                // ids are topological, one increasing pass suffices).
                if cfg.continue_on_failure {
                    for id in 0..total {
                        let mo = &plan.operations()[id];
                        if !done[id] && !failed_mask[id] && mo.pre.iter().any(|&p| failed_mask[p]) {
                            failed_mask[id] = true;
                            skipped.push(id);
                        }
                    }
                }

                // Dispatch ready operations into free slots.
                if tasks.len() < cfg.max_active {
                    let active: Vec<MoId> = tasks.iter().map(|t| t.mo).collect();
                    let ready: Vec<MoId> = plan
                        .operations()
                        .iter()
                        .filter(|mo| {
                            !done[mo.id]
                                && !failed_mask[mo.id]
                                && !active.contains(&mo.id)
                                && mo.pre.iter().all(|&p| done[p])
                        })
                        .map(|mo| mo.id)
                        .collect();
                    if !ready.is_empty() {
                        let slots = cfg.max_active - tasks.len();
                        let health = exec.chip.health_field();
                        let picks = scheduler.dispatch(&ready, plan, health, slots);
                        for mo in picks {
                            match self.admit(
                                mo,
                                plan,
                                &mut exec,
                                pool,
                                &mut reservations,
                                &mut tasks,
                                &mut free_slots,
                            ) {
                                Ok(true) => {
                                    dispatches += 1;
                                    changed = true;
                                }
                                Ok(false) => {} // deferred: separation or a busy corridor
                                Err(err) => {
                                    if cfg.continue_on_failure
                                        && err.status != RunStatus::CycleLimit
                                    {
                                        failures.push((mo, err.status));
                                        failed_mask[mo] = true;
                                        changed = true;
                                    } else {
                                        break 'run err.status;
                                    }
                                }
                            }
                        }
                        tasks.sort_by_key(|t| t.mo);
                    }
                }

                if !changed {
                    break;
                }
            }

            if completed == total {
                break RunStatus::Success;
            }
            if tasks.is_empty() {
                // Nothing in flight and nothing admissible: either the
                // dependency graph is wedged, or (supervised) every
                // remaining operation failed or was skipped.
                break if let Some(&(_, st)) = failures.first() {
                    st
                } else {
                    RunStatus::Deadlock
                };
            }
            peak_active = peak_active.max(tasks.len());

            // --- One movement cycle. ---
            if exec.cycles >= cfg.run.k_max {
                break RunStatus::CycleLimit;
            }

            // Decide every mover's command in MoId order, screening against
            // peers already committed this cycle (their next) and peers not
            // yet decided (their current).
            let mut decisions: Vec<Option<Decision>> = vec![None; tasks.len()];
            let mut ti = 0;
            while ti < tasks.len() {
                let (action, commanded) = match tasks[ti].phase {
                    Phase::Module { .. } => {
                        ti += 1;
                        continue;
                    }
                    Phase::Dispense { droplet, dir } => {
                        let action = Action::Move(dir);
                        (action, action.apply(droplet))
                    }
                    Phase::Route { sensed, .. } => {
                        let job = &plan.operations()[tasks[ti].mo].jobs[tasks[ti].job_idx];
                        debug_assert!(!job.is_dispense());
                        let health = exec.chip.health_field();
                        let router = pool.router(tasks[ti].slot);
                        if cfg.is_fleet() {
                            let mut boxes = reservations.boxes_excluding(tasks[ti].mo);
                            boxes.extend(tasks[ti].walls.iter().copied());
                            router.set_hazards(&boxes);
                        }
                        let action = match router.next_action(sensed, health) {
                            Some(a) => a,
                            None if !tasks[ti].walls.is_empty() => {
                                // The escalation wall painted the job into a
                                // corner; drop it and fall back to waiting.
                                tasks[ti].walls.clear();
                                let boxes = reservations.boxes_excluding(tasks[ti].mo);
                                router.set_hazards(&boxes);
                                match router.next_action(sensed, health) {
                                    Some(a) => a,
                                    None => {
                                        if let Some(st) = self.mover_failure(
                                            ti,
                                            RunStatus::NoRoute,
                                            &mut tasks,
                                            &mut failures,
                                            &mut failed_mask,
                                            &mut free_slots,
                                            &mut reservations,
                                            &release,
                                        ) {
                                            break 'run st;
                                        }
                                        decisions.remove(ti);
                                        continue;
                                    }
                                }
                            }
                            None => {
                                if let Some(st) = self.mover_failure(
                                    ti,
                                    RunStatus::NoRoute,
                                    &mut tasks,
                                    &mut failures,
                                    &mut failed_mask,
                                    &mut free_slots,
                                    &mut reservations,
                                    &release,
                                ) {
                                    break 'run st;
                                }
                                decisions.remove(ti);
                                continue;
                            }
                        };
                        (action, action.apply(sensed))
                    }
                };

                // Fluidic screening against every other in-flight droplet.
                let mut blocker: Option<Rect> = None;
                if cfg.constraints.is_enabled() {
                    for tj in 0..tasks.len() {
                        if tj == ti || tasks[tj].mo == tasks[ti].mo {
                            continue;
                        }
                        let Some(peer_cur) = tasks[tj].physical() else {
                            continue;
                        };
                        let peer_next = match decisions[tj] {
                            Some(Decision::Move { commanded, .. }) => Some(commanded),
                            Some(Decision::Hold) => Some(peer_cur),
                            None => None,
                        };
                        if !cfg
                            .constraints
                            .admissible_against(commanded, peer_cur, peer_next)
                        {
                            blocker = Some(peer_cur);
                            break;
                        }
                    }
                }

                if let Some(block) = blocker {
                    if cfg.stall_abort > 0 && tasks[ti].stalled_for >= cfg.stall_abort {
                        // Held against a peer past the give-up threshold
                        // (e.g. a chaos-stranded droplet squatting on our
                        // corridor): declare the mover lost rather than
                        // burning the remaining budget.
                        if let Some(st) = self.mover_failure(
                            ti,
                            RunStatus::NoRoute,
                            &mut tasks,
                            &mut failures,
                            &mut failed_mask,
                            &mut free_slots,
                            &mut reservations,
                            &release,
                        ) {
                            break 'run st;
                        }
                        decisions.remove(ti);
                        continue;
                    }
                    decisions[ti] = Some(Decision::Hold);
                    tasks[ti].stalled_for += 1;
                    stall_cycles += 1;
                    if cfg.is_fleet()
                        && tasks[ti].stalled_for >= cfg.stall_patience
                        && tasks[ti].walls.is_empty()
                    {
                        // Patience exhausted: harden the blocker's current
                        // footprint into a wall (unless that would wall off
                        // our own goal) and let the digest shift force a
                        // detour re-synthesis.
                        let ring = cfg.constraints.ring().max(0);
                        let wall = block.expand(ring);
                        let job = &plan.operations()[tasks[ti].mo].jobs[tasks[ti].job_idx];
                        if !wall.intersects(job.goal) {
                            tasks[ti].walls.push(HazardBox::wall(wall));
                        }
                    }
                } else {
                    decisions[ti] = Some(Decision::Move { action, commanded });
                }
                ti += 1;
            }

            // One union actuation pattern for the whole chip this cycle.
            let mut pattern = Grid::new(exec.chip.dims(), false);
            for (ti, task) in tasks.iter().enumerate() {
                match decisions[ti] {
                    Some(Decision::Move { commanded, .. }) => {
                        pattern.fill_rect(commanded, true);
                    }
                    Some(Decision::Hold) => {
                        if let Some(cur) = task.belief() {
                            pattern.fill_rect(cur, true);
                        }
                    }
                    None => {}
                }
                let mo = &plan.operations()[task.mo];
                match task.phase {
                    Phase::Module { .. } => {
                        for out in &mo.outputs {
                            pattern.fill_rect(*out, true);
                        }
                    }
                    _ => {
                        for start in mo.jobs[task.job_idx + 1..]
                            .iter()
                            .map(|j| j.start)
                            .filter(|r| !r.is_off_chip_origin())
                        {
                            pattern.fill_rect(start, true);
                        }
                        for r in &task.arrived {
                            pattern.fill_rect(*r, true);
                        }
                    }
                }
            }
            for r in &exec.resting {
                pattern.fill_rect(*r, true);
            }
            exec.apply_cycle(pattern);

            // Sample every committed mover's physical outcome, in MoId
            // order (one RNG draw per mover, exactly like the serial
            // engine's per-cycle draw).
            for ti in 0..tasks.len() {
                let Some(Decision::Move { action, .. }) = decisions[ti] else {
                    if let Phase::Module { ref mut remaining } = tasks[ti].phase {
                        *remaining -= 1;
                    }
                    continue;
                };
                let moved = match &mut tasks[ti].phase {
                    Phase::Dispense { droplet, .. } => {
                        let before = *droplet;
                        *droplet = exec.sample(*droplet, action);
                        *droplet != before
                    }
                    Phase::Route { actual, sensed } => {
                        let before = *actual;
                        *actual = exec.sample(*actual, action);
                        if !cfg.run.sensed_feedback {
                            // Open-loop: the controller is handed ground
                            // truth, exactly like the serial engine.
                            *sensed = *actual;
                        }
                        *actual != before
                    }
                    Phase::Module { .. } => unreachable!("modules never commit moves"),
                };
                if moved {
                    tasks[ti].no_progress = 0;
                } else {
                    tasks[ti].no_progress += 1;
                }
                if tasks[ti].stalled_for > 0 {
                    meda_telemetry::global()
                        .histogram("sim.fleet.stall_streak")
                        .record(tasks[ti].stalled_for);
                    tasks[ti].stalled_for = 0;
                    tasks[ti].walls.clear();
                }
            }

            // Close the sensing loop for committed routed movers.
            if cfg.run.sensed_feedback {
                let mut failed_now: Vec<(usize, RunStatus)> = Vec::new();
                for ti in 0..tasks.len() {
                    let Some(Decision::Move { action, .. }) = decisions[ti] else {
                        continue;
                    };
                    let Phase::Route { actual, sensed } = tasks[ti].phase else {
                        continue;
                    };
                    let commanded = action.apply(sensed);
                    let held = self.held_for(ti, &tasks, plan, &exec);
                    match exec.sense(actual, sensed, commanded, &held) {
                        Ok(estimate) => {
                            if let Phase::Route { sensed, .. } = &mut tasks[ti].phase {
                                *sensed = estimate;
                            }
                        }
                        Err(st) => failed_now.push((ti, st)),
                    }
                }
                for &(ti, st) in failed_now.iter().rev() {
                    if let Some(st) = self.mover_failure(
                        ti,
                        st,
                        &mut tasks,
                        &mut failures,
                        &mut failed_mask,
                        &mut free_slots,
                        &mut reservations,
                        &release,
                    ) {
                        break 'run st;
                    }
                }
            }

            if let Some(log) = movers_log.as_mut() {
                log.push(
                    tasks
                        .iter()
                        .filter_map(|t| t.physical().map(|r| (t.mo, r)))
                        .collect::<Vec<_>>(),
                );
            }

            // Give-up sweep: movers whose commanded moves have produced no
            // displacement for `stall_abort` consecutive cycles are sitting
            // on dead electrodes with no detour in sight — fail them now
            // instead of burning the remaining cycle budget.
            if cfg.stall_abort > 0 {
                let aborted: Vec<usize> = tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.no_progress >= cfg.stall_abort)
                    .map(|(ti, _)| ti)
                    .collect();
                for &ti in aborted.iter().rev() {
                    if let Some(st) = self.mover_failure(
                        ti,
                        RunStatus::NoRoute,
                        &mut tasks,
                        &mut failures,
                        &mut failed_mask,
                        &mut free_slots,
                        &mut reservations,
                        &release,
                    ) {
                        break 'run st;
                    }
                }
            }
        };

        let telemetry = meda_telemetry::global();
        telemetry.add("sim.fleet.runs", 1);
        telemetry.add("sim.fleet.dispatches", dispatches);
        telemetry.add("sim.fleet.stall_cycles", stall_cycles);
        telemetry.add("sim.fleet.peak_active", peak_active as u64);

        let cycles = exec.cycles;
        let trace = exec.trace.take();
        drop(exec);
        FleetOutcome {
            cycles,
            status,
            completed_ops: completed,
            total_ops: total,
            trace,
            movers: movers_log,
            peak_active,
            stall_cycles,
            failed: failures,
            skipped,
        }
    }

    /// Tries to admit `mo` into a free slot. `Ok(true)` — admitted (inputs
    /// consumed, task pushed); `Ok(false)` — deferred this cycle
    /// (separation against an in-flight peer, or the router declined under
    /// corridor hazards while peers are active — it will be retried);
    /// `Err` — the first job is infeasible with nothing else in flight.
    #[allow(clippy::too_many_arguments)]
    fn admit<R: Rng>(
        &self,
        mo_id: MoId,
        plan: &BioassayPlan,
        exec: &mut Exec<'_, R>,
        pool: &mut dyn RouterPool,
        reservations: &mut CorridorReservations,
        tasks: &mut Vec<Task>,
        free_slots: &mut Vec<usize>,
    ) -> Result<bool, JobError> {
        let cfg = self.config;
        let mo = &plan.operations()[mo_id];

        // Admission separation: the first droplet must materialize clear of
        // every in-flight peer (vacuous in serial mode — the single slot is
        // only free when nothing is active).
        if let Some(first) = mo.jobs.first() {
            let entry = if first.is_dispense() {
                dispense_entry(first.goal, exec.chip.dims()).0
            } else {
                first.start
            };
            if cfg.constraints.is_enabled() {
                let clear = tasks
                    .iter()
                    .filter(|t| t.mo != mo_id)
                    .filter_map(Task::physical)
                    .all(|peer| cfg.constraints.separated(entry, peer));
                if !clear {
                    return Ok(false);
                }
            }
        }

        let Some(slot) = free_slots.pop() else {
            return Ok(false);
        };

        // Reserve the corridor first so peers of *this* operation see it
        // from their very next synthesis query.
        if cfg.is_fleet() {
            let boxes: Vec<HazardBox> = mo
                .jobs
                .iter()
                .map(|j| HazardBox::soft(j.bounds, cfg.corridor_attenuation))
                .collect();
            reservations.reserve(mo_id, boxes);
        }

        let mut task = Task {
            mo: mo_id,
            slot,
            job_idx: 0,
            phase: Phase::Module { remaining: 0 }, // replaced by start_job
            arrived: Vec::new(),
            stalled_for: 0,
            no_progress: 0,
            walls: Vec::new(),
        };
        if let Err(err) = self.start_job(&mut task, plan, exec, pool, reservations) {
            reservations.release(mo_id);
            free_slots.push(slot);
            free_slots.sort_unstable_by(|a, b| b.cmp(a));
            if tasks.is_empty() {
                // Nothing else in flight and no hazard to blame: genuinely
                // infeasible, exactly like the serial engine's NoRoute.
                return Err(err);
            }
            return Ok(false);
        }

        // Inputs are consumed only once admission is certain.
        for input in &mo.inputs {
            if let Some(pos) = exec.resting.iter().position(|r| r == input) {
                exec.resting.swap_remove(pos);
            }
        }
        tasks.push(task);
        Ok(true)
    }

    /// Initializes `task.phase` for its current `job_idx` (or enters the
    /// module phase when the jobs are exhausted). Routed jobs call
    /// [`Router::begin_job`] here — under the current corridor hazards in
    /// fleet mode.
    fn start_job<R: Rng>(
        &self,
        task: &mut Task,
        plan: &BioassayPlan,
        exec: &mut Exec<'_, R>,
        pool: &mut dyn RouterPool,
        reservations: &CorridorReservations,
    ) -> Result<(), JobError> {
        let mo = &plan.operations()[task.mo];
        if task.job_idx >= mo.jobs.len() {
            task.phase = Phase::Module {
                remaining: mo.op.execution_cycles(),
            };
            task.arrived.clear();
            return Ok(());
        }
        let job = &mo.jobs[task.job_idx];
        if job.is_dispense() {
            let (droplet, dir) = dispense_entry(job.goal, exec.chip.dims());
            task.phase = Phase::Dispense { droplet, dir };
        } else {
            let health = exec.chip.health_field();
            let router = pool.router(task.slot);
            if self.config.is_fleet() {
                let mut boxes = reservations.boxes_excluding(task.mo);
                boxes.extend(task.walls.iter().copied());
                router.set_hazards(&boxes);
            }
            if !router.begin_job(job, health) {
                return Err(JobError {
                    status: RunStatus::NoRoute,
                    at: job.start,
                });
            }
            task.phase = Phase::Route {
                actual: job.start,
                sensed: job.start,
            };
        }
        Ok(())
    }

    /// Everything on the chip except task `ti`'s own moving droplet — the
    /// hold set its sensing subtraction uses. In serial mode this is
    /// exactly the serial engine's held set (resting + later job starts +
    /// arrived partners).
    fn held_for<R: Rng>(
        &self,
        ti: usize,
        tasks: &[Task],
        plan: &BioassayPlan,
        exec: &Exec<'_, R>,
    ) -> Vec<Rect> {
        let mut held = exec.resting.clone();
        for (tj, task) in tasks.iter().enumerate() {
            let mo = &plan.operations()[task.mo];
            match task.phase {
                Phase::Module { .. } => held.extend(mo.outputs.iter().copied()),
                _ => {
                    held.extend(
                        mo.jobs[task.job_idx + 1..]
                            .iter()
                            .map(|j| j.start)
                            .filter(|r| !r.is_off_chip_origin()),
                    );
                    held.extend(task.arrived.iter().copied());
                    if tj != ti {
                        if let Some(r) = task.physical() {
                            held.push(r);
                        }
                    }
                }
            }
        }
        held
    }

    /// Handles a mover's routing failure: in supervised mode the operation
    /// is aborted in place (task removed, returns `None`); otherwise the
    /// status bubbles up to abort the run (`Some(status)`).
    #[allow(clippy::too_many_arguments)]
    fn mover_failure(
        &self,
        ti: usize,
        status: RunStatus,
        tasks: &mut Vec<Task>,
        failures: &mut Vec<(MoId, RunStatus)>,
        failed_mask: &mut [bool],
        free_slots: &mut Vec<usize>,
        reservations: &mut CorridorReservations,
        release: &impl Fn(&Task, &mut Vec<usize>, &mut CorridorReservations),
    ) -> Option<RunStatus> {
        if self.config.continue_on_failure && status != RunStatus::CycleLimit {
            let task = tasks.remove(ti);
            failures.push((task.mo, status));
            failed_mask[task.mo] = true;
            release(&task, free_slots, reservations);
            None
        } else {
            Some(status)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BaselineRouter, BioassayRunner, DegradationConfig, FifoScheduler, HealthAwareScheduler,
    };
    use meda_bioassay::{benchmarks, RjHelper};
    use meda_grid::ChipDims;
    use meda_rng::{SeedableRng, StdRng};

    fn plan(sg: &meda_bioassay::SequencingGraph) -> BioassayPlan {
        RjHelper::new(ChipDims::PAPER).plan(sg).unwrap()
    }

    fn fingerprint(
        run: impl FnOnce(&mut StdRng, &mut Biochip) -> (u64, RunStatus),
    ) -> (u64, RunStatus, u64, u64) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let (cycles, status) = run(&mut rng, &mut chip);
        (cycles, status, chip.total_actuations(), rng.gen::<u64>())
    }

    #[test]
    fn serial_fleet_is_bit_identical_to_the_serial_engine() {
        let p = plan(&benchmarks::master_mix());
        let serial = fingerprint(|rng, chip| {
            let mut router = BaselineRouter::new();
            let o = BioassayRunner::new(RunConfig::default()).run(&p, chip, &mut router, rng);
            (o.cycles, o.status)
        });
        let fleet = fingerprint(|rng, chip| {
            let mut pool = ClonePool::new(BaselineRouter::new());
            let o = FleetRunner::new(FleetConfig::serial(RunConfig::default())).run(
                &p,
                chip,
                &mut pool,
                &mut FifoScheduler::new(),
                &FaultPlan::none(),
                rng,
            );
            (o.cycles, o.status)
        });
        assert_eq!(serial, fleet, "serial fleet must replay the serial engine");
    }

    #[test]
    fn serial_fleet_matches_with_the_health_aware_scheduler() {
        let p = plan(&benchmarks::multiplex_invitro((4, 4)));
        let serial = fingerprint(|rng, chip| {
            let mut router = BaselineRouter::new();
            let o = BioassayRunner::new(RunConfig::default()).run_with_scheduler(
                &p,
                chip,
                &mut router,
                &mut HealthAwareScheduler::new(),
                rng,
            );
            (o.cycles, o.status)
        });
        let fleet = fingerprint(|rng, chip| {
            let mut pool = ClonePool::new(BaselineRouter::new());
            let o = FleetRunner::new(FleetConfig::serial(RunConfig::default())).run(
                &p,
                chip,
                &mut pool,
                &mut HealthAwareScheduler::new(),
                &FaultPlan::none(),
                rng,
            );
            (o.cycles, o.status)
        });
        assert_eq!(serial, fleet);
    }

    #[test]
    fn concurrent_fleet_beats_serial_makespan_on_parallel_branches() {
        let p = plan(&benchmarks::multiplex_invitro((4, 4)));
        let go = |n: usize| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut chip =
                Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
            let mut pool = ClonePool::new(BaselineRouter::new());
            FleetRunner::new(FleetConfig::concurrent(n, RunConfig::default())).run(
                &p,
                &mut chip,
                &mut pool,
                &mut FifoScheduler::new(),
                &FaultPlan::none(),
                &mut rng,
            )
        };
        let serial = go(1);
        let fleet = go(4);
        assert!(serial.is_success(), "{:?}", serial.status);
        assert!(fleet.is_success(), "{:?}", fleet.status);
        assert!(
            fleet.cycles < serial.cycles,
            "concurrent makespan {} must beat serial {}",
            fleet.cycles,
            serial.cycles
        );
        assert!(fleet.peak_active >= 2, "never actually overlapped");
    }

    #[test]
    fn concurrent_movers_never_violate_separation() {
        let p = plan(&benchmarks::multiplex_invitro((4, 4)));
        let mut rng = StdRng::seed_from_u64(7);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut pool = ClonePool::new(BaselineRouter::new());
        let cfg = FleetConfig {
            record_movers: true,
            ..FleetConfig::concurrent(4, RunConfig::default())
        };
        let outcome = FleetRunner::new(cfg).run(
            &p,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert!(outcome.is_success(), "{:?}", outcome.status);
        let log = outcome.movers.expect("recording enabled");
        assert_eq!(log.len() as u64, outcome.cycles);
        let v = cfg
            .constraints
            .audit_exempting(&log, dependency_exemption(&p));
        assert!(v.is_none(), "separation violated: {v:?}");
    }

    #[test]
    fn adaptive_pool_routes_a_concurrent_fleet_around_corridor_hazards() {
        let p = plan(&benchmarks::multiplex_invitro((4, 4)));
        let mut rng = StdRng::seed_from_u64(11);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut pool = AdaptivePool::new(AdaptiveConfig::default());
        let outcome = FleetRunner::new(FleetConfig::concurrent(4, RunConfig::default())).run(
            &p,
            &mut chip,
            &mut pool,
            &mut HealthAwareScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert!(outcome.is_success(), "{:?}", outcome.status);
        assert!(outcome.peak_active >= 2);
    }

    #[test]
    fn malformed_plan_reports_deadlock() {
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
        let mut rng = StdRng::seed_from_u64(5);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let mut pool = ClonePool::new(BaselineRouter::new());
        let outcome = FleetRunner::new(FleetConfig::concurrent(4, RunConfig::default())).run(
            &stuck,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert_eq!(outcome.status, RunStatus::Deadlock);
        assert_eq!(outcome.cycles, 0);
    }

    #[test]
    fn tiny_budget_reports_cycle_limit() {
        let p = plan(&benchmarks::master_mix());
        let mut rng = StdRng::seed_from_u64(6);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::pristine(), &mut rng);
        let mut pool = ClonePool::new(BaselineRouter::new());
        let outcome = FleetRunner::new(FleetConfig::concurrent(
            2,
            RunConfig {
                k_max: 3,
                ..RunConfig::default()
            },
        ))
        .run(
            &p,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert_eq!(outcome.status, RunStatus::CycleLimit);
        assert!(outcome.cycles <= 3);
    }
}
