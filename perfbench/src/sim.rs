//! The simulator workloads.
//!
//! - `reuse-adaptive`: the paper's chip-reuse setting (Fig. 16). Each of
//!   several seeded, paper-degraded 60×30 chips runs the six evaluation
//!   assays back to back, each assay [`REUSE_REPS`] times, serially through
//!   [`BioassayRunner`] with one `AdaptiveRouter::new(AdaptiveConfig::paper())`
//!   per chip, so wear accumulates and the router re-synthesizes.
//! - `fleet-chaos`: [`FleetRunner`] with four operations in flight,
//!   supervised (`continue_on_failure`, `stall_abort`), sensed feedback on,
//!   under a seeded stuck-sensor chaos plan, one fresh chip per
//!   (assay, sub-seed). One router pool serves all of an assay's chips, so
//!   its strategy libraries carry over from chip to chip.
//!
//! One round is one pass over the seeded inputs; the run repeats rounds
//! until its time budget is spent (at least two: the first warms caches up
//! and is not timed). Every round replays the same inputs
//! from cloned chips and re-seeded generators, so every round must produce
//! the same outcomes as the first — a difference is a failed check.
//!
//! Timing sits at the public seams only: a wrapper over the `Router`
//! trait (two timestamps per `begin_job`/`next_action` call — the
//! controller's decision latency), a wrapper over `MoScheduler`, and the
//! run call itself. The engine's self time is the run's wall time minus
//! the router and scheduler time inside it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use meda_bioassay::{benchmarks, BioassayPlan, MoId, RjHelper, RoutingJob};
use meda_core::{Action, HazardBox, HealthField};
use meda_grid::{ChipDims, Rect};
use meda_rng::{SeedableRng, StdRng};
use meda_sim::experiment::FaultClass;
use meda_sim::{
    dependency_exemption, AdaptiveConfig, AdaptivePool, AdaptiveRouter, BioassayRunner, Biochip,
    DegradationConfig, FaultPlan, FifoScheduler, FleetConfig, FleetRunner, MoScheduler, Router,
    RouterPool, RunConfig, RunStatus,
};
use meda_telemetry::Stopwatch;

use crate::stats::{ratio, RoundTiming};
use crate::trace::{now_ns, overhead, ProgramDelta, Snapshot, Tracer};
use crate::{set_up, sub_seed, Args, Report};

/// Chips per `reuse-adaptive` round.
const REUSE_CHIPS: u64 = 12;
/// Back-to-back runs of each assay on one chip.
const REUSE_REPS: usize = 2;
/// Fresh chips per assay in a `fleet-chaos` round.
const FLEET_SEEDS: u64 = 48;
/// The `fleet-chaos` fault class and severity (per-MC stuck-bit rate).
const FLEET_CHAOS: (FaultClass, f64) = (FaultClass::StuckSensors, 0.002);
/// The `fleet-chaos` cycle budget per assay run.
const FLEET_K_MAX: u64 = 1_200;

/// One planned evaluation assay.
pub struct Assay {
    pub name: String,
    pub plan: BioassayPlan,
}

/// Plans the six evaluation assays on the paper's 60×30 chip; also returns
/// the planning time in ms.
pub fn plan_suite() -> Result<(Vec<Assay>, f64), String> {
    let t0 = Stopwatch::start();
    let helper = RjHelper::new(ChipDims::PAPER);
    let assays = benchmarks::evaluation_suite()
        .iter()
        .map(|sg| {
            helper
                .plan(sg)
                .map(|plan| Assay {
                    name: sg.name().to_string(),
                    plan,
                })
                .map_err(|e| format!("planning {}: {e:?}", sg.name()))
        })
        .collect::<Result<_, _>>()?;
    Ok((assays, t0.elapsed_ns() as f64 / 1e6))
}

/// A seeded paper-degraded 60×30 chip, and the generator after it.
pub fn paper_chip(seed: u64) -> (Biochip, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
    (chip, rng)
}

/// Timing gathered by one [`Timed`] router.
#[derive(Debug, Default)]
struct RouterTotals {
    decisions_ns: Vec<u64>,
    begin_ns: u64,
    next_ns: u64,
    hazards_ns: u64,
    hazards: u64,
    resynth: u64,
    synthesis_ns: u64,
    library_hits: u64,
    library_misses: u64,
}

impl RouterTotals {
    fn add(&mut self, o: RouterTotals) {
        self.decisions_ns.extend(o.decisions_ns);
        self.begin_ns += o.begin_ns;
        self.next_ns += o.next_ns;
        self.hazards_ns += o.hazards_ns;
        self.hazards += o.hazards;
        self.resynth += o.resynth;
        self.synthesis_ns += o.synthesis_ns;
        self.library_hits += o.library_hits;
        self.library_misses += o.library_misses;
    }

    fn busy_ns(&self) -> u64 {
        self.begin_ns + self.next_ns + self.hazards_ns
    }
}

/// An [`AdaptiveRouter`] timed at the `Router` seam.
struct Timed {
    inner: AdaptiveRouter,
    totals: RouterTotals,
    /// `(span name, start, duration)` of every call, in traced rounds.
    spans: Option<Vec<(&'static str, u64, u64)>>,
}

impl Timed {
    fn new(traced: bool) -> Self {
        Self {
            inner: AdaptiveRouter::new(AdaptiveConfig::paper()),
            totals: RouterTotals::default(),
            spans: traced.then(Vec::new),
        }
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut AdaptiveRouter) -> T,
    ) -> (T, u64) {
        let t0 = now_ns();
        let out = call(&mut self.inner);
        let dt = now_ns().saturating_sub(t0);
        if let Some(spans) = &mut self.spans {
            spans.push((name, t0, dt));
        }
        (out, dt)
    }

    /// The router's totals, with its spans moved into `tracer`.
    fn finish(mut self, tracer: &mut Tracer) -> RouterTotals {
        for (name, t0, dt) in self.spans.take().unwrap_or_default() {
            tracer.span(name, t0, dt);
        }
        self.totals.resynth = self.inner.resynth_count();
        self.totals.synthesis_ns = self.inner.synthesis_time().as_nanos() as u64;
        self.totals.library_hits = self.inner.library().hits();
        self.totals.library_misses = self.inner.library().misses();
        self.totals
    }
}

impl Router for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_job(&mut self, job: &RoutingJob, health: &HealthField) -> bool {
        let (ok, dt) = self.time("router.begin_job", |r| r.begin_job(job, health));
        self.totals.begin_ns += dt;
        self.totals.decisions_ns.push(dt);
        ok
    }

    fn next_action(&mut self, droplet: Rect, health: &HealthField) -> Option<Action> {
        let (action, dt) = self.time("router.next_action", |r| r.next_action(droplet, health));
        self.totals.next_ns += dt;
        self.totals.decisions_ns.push(dt);
        action
    }

    fn set_hazards(&mut self, boxes: &[HazardBox]) {
        let ((), dt) = self.time("router.set_hazards", |r| r.set_hazards(boxes));
        self.totals.hazards_ns += dt;
        self.totals.hazards += 1;
    }
}

/// A [`FifoScheduler`] timed at the `MoScheduler` seam.
struct TimedScheduler {
    inner: FifoScheduler,
    ns: u64,
    spans: Option<Vec<(u64, u64)>>,
}

impl TimedScheduler {
    fn new(traced: bool) -> Self {
        Self {
            inner: FifoScheduler::new(),
            ns: 0,
            spans: traced.then(Vec::new),
        }
    }

    fn time<T>(&mut self, call: impl FnOnce(&mut FifoScheduler) -> T) -> T {
        let t0 = now_ns();
        let out = call(&mut self.inner);
        let dt = now_ns().saturating_sub(t0);
        self.ns += dt;
        if let Some(spans) = &mut self.spans {
            spans.push((t0, dt));
        }
        out
    }

    fn finish(mut self, tracer: &mut Tracer) -> u64 {
        for (t0, dt) in self.spans.take().unwrap_or_default() {
            tracer.span("scheduler", t0, dt);
        }
        self.ns
    }
}

impl MoScheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, ready: &[MoId], plan: &BioassayPlan, health: &HealthField) -> MoId {
        self.time(|s| s.pick(ready, plan, health))
    }

    fn dispatch(
        &mut self,
        ready: &[MoId],
        plan: &BioassayPlan,
        health: &HealthField,
        slots: usize,
    ) -> Vec<MoId> {
        self.time(|s| s.dispatch(ready, plan, health, slots))
    }
}

/// A router pool of [`Timed`] adaptive routers, grown on demand exactly as
/// [`AdaptivePool`] grows its own (which cannot be wrapped: it lends out
/// routers borrowed from itself). The traced round checks that the two
/// pools give identical fleet outcomes.
struct TimedPool {
    routers: Vec<Timed>,
    traced: bool,
}

impl RouterPool for TimedPool {
    fn router(&mut self, slot: usize) -> &mut dyn Router {
        while self.routers.len() <= slot {
            self.routers.push(Timed::new(self.traced));
        }
        &mut self.routers[slot]
    }
}

/// One round's outcomes and timings.
#[derive(Debug, Default)]
struct Round {
    /// Per-run outcome words, compared across rounds.
    outcomes: Vec<u64>,
    runs: u64,
    successes: u64,
    ops_done: u64,
    ops_total: u64,
    cycles: u64,
    run_ns: u64,
    wall_ns: u64,
    router: RouterTotals,
    scheduler_ns: u64,
    stall_cycles: u64,
    peak_active: u64,
    failed_ops: u64,
    skipped_ops: u64,
    failures: Vec<String>,
    program: ProgramDelta,
}

impl Round {
    /// Records one assay run and checks its outcome is self-consistent.
    fn record(&mut self, what: &str, status: RunStatus, cycles: u64, done: usize, total: usize) {
        self.runs += 1;
        self.successes += u64::from(status == RunStatus::Success);
        self.ops_done += done as u64;
        self.ops_total += total as u64;
        self.cycles += cycles;
        self.outcomes
            .extend([cycles, status as u64, done as u64, total as u64]);
        if done > total || (status == RunStatus::Success) != (done == total) {
            self.failures
                .push(format!("{what}: {status:?} with {done}/{total} operations"));
        }
    }
}

/// The `reuse-adaptive` inputs: planned assays plus seeded chips.
struct ReuseInputs {
    assays: Vec<Assay>,
    /// `(chip, seed of the run-time generator)`.
    chips: Vec<(Biochip, u64)>,
}

/// Runs one reuse chip: every assay [`REUSE_REPS`] times on one chip with
/// one router. A panicking run ends the chip.
fn reuse_chip(
    inputs: &ReuseInputs,
    chip_index: usize,
    router: &mut dyn Router,
    scheduler: &mut dyn MoScheduler,
    round: &mut Round,
    mut tracer: Option<&mut Tracer>,
) {
    let (chip, run_seed) = &inputs.chips[chip_index];
    let mut chip = chip.clone();
    let mut rng = StdRng::seed_from_u64(*run_seed);
    let runner = BioassayRunner::new(RunConfig::default());
    for assay in &inputs.assays {
        for _ in 0..REUSE_REPS {
            let t0 = now_ns();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                runner.run_with_scheduler(&assay.plan, &mut chip, router, scheduler, &mut rng)
            }));
            let dt = now_ns().saturating_sub(t0);
            round.run_ns += dt;
            if let Some(t) = tracer.as_deref_mut() {
                t.span(&assay.name, t0, dt);
            }
            match outcome {
                Ok(o) => round.record(
                    &assay.name,
                    o.status,
                    o.cycles,
                    o.completed_ops,
                    o.total_ops,
                ),
                Err(_) => {
                    round.runs += 1;
                    round.failures.push(format!("{}: run panicked", assay.name));
                    return;
                }
            }
        }
    }
}

fn reuse_round(inputs: &ReuseInputs, traced: bool, tracer: &mut Tracer) -> Round {
    let mut round = Round::default();
    let wall0 = now_ns();
    for i in 0..inputs.chips.len() {
        let mut router = Timed::new(traced);
        let mut scheduler = TimedScheduler::new(traced);
        reuse_chip(
            inputs,
            i,
            &mut router,
            &mut scheduler,
            &mut round,
            traced.then_some(&mut *tracer),
        );
        round.router.add(router.finish(tracer));
        round.scheduler_ns += scheduler.finish(tracer);
    }
    round.wall_ns = now_ns().saturating_sub(wall0);
    round
}

/// Replays the first reuse chip with the bare router and the stock
/// FIFO scheduler; the wrappers must not change a single outcome.
fn reuse_transparency(inputs: &ReuseInputs, reference: &[u64]) -> Option<String> {
    let mut bare = Round::default();
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    reuse_chip(
        inputs,
        0,
        &mut router,
        &mut FifoScheduler::new(),
        &mut bare,
        None,
    );
    (reference.get(..bare.outcomes.len()) != Some(&bare.outcomes[..]))
        .then(|| "bare router and timed router disagree on chip 0".to_string())
}

/// `reuse-adaptive`: see the module docs.
pub fn reuse_adaptive(args: &Args, report: &mut Report) -> Result<(), String> {
    let (inputs, setup_s, plan_ms) = set_up(|| {
        let (assays, plan_ms) = plan_suite()?;
        let chips = (0..REUSE_CHIPS)
            .map(|i| {
                (
                    paper_chip(sub_seed(args.seed, 0, i)).0,
                    sub_seed(args.seed, 1, i),
                )
            })
            .collect();
        Ok((ReuseInputs { assays, chips }, plan_ms))
    })?;
    drive(
        args,
        report,
        setup_s,
        plan_ms,
        &inputs,
        reuse_round,
        |inputs, round| reuse_transparency(inputs, &round.outcomes),
    )
}

/// One `fleet-chaos` case: an assay on a fresh chip under its chaos plan.
struct FleetCase {
    assay: usize,
    chip: Biochip,
    chaos: FaultPlan,
    run_seed: u64,
}

struct FleetInputs {
    assays: Vec<Assay>,
    cases: Vec<FleetCase>,
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        continue_on_failure: true,
        stall_abort: 24,
        record_movers: true,
        ..FleetConfig::concurrent(
            4,
            RunConfig {
                k_max: FLEET_K_MAX,
                record_actuation: false,
                sensed_feedback: true,
            },
        )
    }
}

/// Runs one fleet case and audits droplet separation on its movers log.
fn fleet_case(
    inputs: &FleetInputs,
    case: &FleetCase,
    pool: &mut dyn RouterPool,
    scheduler: &mut dyn MoScheduler,
    round: &mut Round,
    tracer: Option<&mut Tracer>,
) {
    let assay = &inputs.assays[case.assay];
    let cfg = fleet_config();
    let mut chip = case.chip.clone();
    let mut rng = StdRng::seed_from_u64(case.run_seed);
    let t0 = now_ns();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        FleetRunner::new(cfg).run(
            &assay.plan,
            &mut chip,
            pool,
            scheduler,
            &case.chaos,
            &mut rng,
        )
    }));
    let dt = now_ns().saturating_sub(t0);
    round.run_ns += dt;
    if let Some(t) = tracer {
        t.span(&assay.name, t0, dt);
    }
    let o = match outcome {
        Ok(o) => o,
        Err(_) => {
            round.runs += 1;
            round
                .failures
                .push(format!("{}: fleet run panicked", assay.name));
            return;
        }
    };
    round.record(
        &assay.name,
        o.status,
        o.cycles,
        o.completed_ops,
        o.total_ops,
    );
    round.outcomes.extend([
        o.stall_cycles,
        o.peak_active as u64,
        o.failed.len() as u64,
        o.skipped.len() as u64,
    ]);
    round.stall_cycles += o.stall_cycles;
    round.peak_active += o.peak_active as u64;
    round.failed_ops += o.failed.len() as u64;
    round.skipped_ops += o.skipped.len() as u64;
    match &o.movers {
        Some(log) => {
            if let Some(v) = cfg
                .constraints
                .audit_exempting(log, dependency_exemption(&assay.plan))
            {
                round
                    .failures
                    .push(format!("{}: separation violated: {v:?}", assay.name));
            }
        }
        None => round
            .failures
            .push(format!("{}: no movers log to audit", assay.name)),
    }
}

fn fleet_round(inputs: &FleetInputs, traced: bool, tracer: &mut Tracer) -> Round {
    let mut round = Round::default();
    let wall0 = now_ns();
    for cases in inputs.cases.chunks(FLEET_SEEDS as usize) {
        let mut pool = TimedPool {
            routers: Vec::new(),
            traced,
        };
        let mut scheduler = TimedScheduler::new(traced);
        for case in cases {
            fleet_case(
                inputs,
                case,
                &mut pool,
                &mut scheduler,
                &mut round,
                traced.then_some(&mut *tracer),
            );
        }
        for router in pool.routers {
            round.router.add(router.finish(tracer));
        }
        round.scheduler_ns += scheduler.finish(tracer);
    }
    round.wall_ns = now_ns().saturating_sub(wall0);
    round
}

/// Replays every case with the stock [`AdaptivePool`] and FIFO scheduler;
/// the timed pool must give the same outcomes.
fn fleet_transparency(inputs: &FleetInputs, reference: &[u64]) -> Option<String> {
    let mut bare = Round::default();
    for cases in inputs.cases.chunks(FLEET_SEEDS as usize) {
        let mut pool = AdaptivePool::new(AdaptiveConfig::paper());
        for case in cases {
            fleet_case(
                inputs,
                case,
                &mut pool,
                &mut FifoScheduler::new(),
                &mut bare,
                None,
            );
        }
    }
    (bare.outcomes != reference).then(|| "AdaptivePool and timed pool disagree".to_string())
}

/// `fleet-chaos`: see the module docs.
pub fn fleet_chaos(args: &Args, report: &mut Report) -> Result<(), String> {
    let (inputs, setup_s, plan_ms) = set_up(|| {
        let (assays, plan_ms) = plan_suite()?;
        let mut cases = Vec::new();
        for assay in 0..assays.len() {
            for s in 0..FLEET_SEEDS {
                let index = assay as u64 * FLEET_SEEDS + s;
                let (chip, mut rng) = paper_chip(sub_seed(args.seed, 2, index));
                let (class, severity) = FLEET_CHAOS;
                let chaos = class.plan(ChipDims::PAPER, severity, FLEET_K_MAX, &mut rng);
                cases.push(FleetCase {
                    assay,
                    chip,
                    chaos,
                    run_seed: sub_seed(args.seed, 3, index),
                });
            }
        }
        Ok((FleetInputs { assays, cases }, plan_ms))
    })?;
    drive(
        args,
        report,
        setup_s,
        plan_ms,
        &inputs,
        fleet_round,
        |inputs, round| fleet_transparency(inputs, &round.outcomes),
    )
}

/// The round loop shared by both simulator workloads: untraced rounds
/// until the budget is spent (with `--trace 1`, each followed by a traced
/// round), then the metrics.
fn drive<I>(
    args: &Args,
    report: &mut Report,
    setup_s: f64,
    plan_ms: f64,
    inputs: &I,
    round_fn: fn(&I, bool, &mut Tracer) -> Round,
    transparency: fn(&I, &Round) -> Option<String>,
) -> Result<(), String> {
    let mut tracer = Tracer::default();
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let start = Stopwatch::start();
    loop {
        plain.push(round_fn(inputs, false, &mut tracer));
        if args.trace {
            let snap = Snapshot::take();
            tracer.capture_program();
            let mut round = round_fn(inputs, true, &mut tracer);
            tracer.collect_program();
            round.program = ProgramDelta::since(&snap);
            if traced.is_empty() {
                if let Some(why) = transparency(inputs, &round) {
                    round.failures.push(why);
                }
            }
            traced.push(round);
        }
        if plain.len() > 1 && start.elapsed_ns() >= args.budget_ns {
            break;
        }
    }

    let reference = plain[0].outcomes.clone();
    for (i, round) in plain.iter().chain(&traced).enumerate() {
        report.attempted += round.runs;
        for why in &round.failures {
            report.fail(why);
        }
        if round.outcomes != reference {
            report.fail(&format!("round {i} outcomes differ from round 0"));
        }
    }

    if args.trace {
        per_layer(report, plan_ms, &plain, &traced);
        tracer
            .write(&args.trace_path(), &args.workload, args.seed)
            .map_err(|e| format!("writing trace: {e}"))?;
    } else {
        end_to_end(report, setup_s, &mut plain)?;
    }
    Ok(())
}

fn end_to_end(report: &mut Report, setup_s: f64, rounds: &mut [Round]) -> Result<(), String> {
    // Round 0 warms caches and the allocator up; it sets the reference
    // outcomes but no timing.
    let timings = rounds[1..]
        .iter_mut()
        .map(|r| RoundTiming::of(r.runs, r.run_ns, &mut r.router.decisions_ns))
        .collect::<Result<Vec<_>, _>>()?;
    RoundTiming::median_of(&timings).report(report);
    let first = &rounds[0];
    report.set("setup_s", setup_s);
    report.set("pos", ratio(first.successes as f64, first.runs as f64));
    report.set(
        "completion",
        ratio(first.ops_done as f64, first.ops_total as f64),
    );
    report.set("cycles_mean", ratio(first.cycles as f64, first.runs as f64));
    report.set(
        "hit_rate",
        ratio(
            first.router.library_hits as f64,
            (first.router.library_hits + first.router.library_misses) as f64,
        ),
    );
    Ok(())
}

fn per_layer(report: &mut Report, plan_ms: f64, plain: &[Round], traced: &[Round]) {
    let n = traced.len() as f64;
    let sum = |f: fn(&Round) -> u64| traced.iter().map(f).sum::<u64>();
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let router_ns = sum(|r| r.router.busy_ns());
    let scheduler_ns = sum(|r| r.scheduler_ns);
    let run_ns = sum(|r| r.run_ns);
    let engine_ns = run_ns.saturating_sub(router_ns + scheduler_ns);
    let mut program = ProgramDelta::default();
    for r in traced {
        program.add(&r.program);
    }
    program.report(report, n);

    report.set("bioassay.plan_ms", plan_ms);
    report.set("router.begin_job_ms", ms(sum(|r| r.router.begin_ns)));
    report.set("router.next_action_ms", ms(sum(|r| r.router.next_ns)));
    report.set("router.set_hazards_ms", ms(sum(|r| r.router.hazards_ns)));
    report.set(
        "router.calls",
        sum(|r| r.router.decisions_ns.len() as u64) as f64 / n,
    );
    report.set("router.resynth", sum(|r| r.router.resynth) as f64 / n);
    report.set("router.synthesis_ms", ms(sum(|r| r.router.synthesis_ns)));
    report.set("router.set_hazards", sum(|r| r.router.hazards) as f64 / n);
    report.set("scheduler.ms", ms(scheduler_ns));
    report.set("engine.self_ms", ms(engine_ns));
    report.set(
        "engine.us_per_cycle",
        ratio(engine_ns as f64 / 1e3, program.sim_cycles() as f64),
    );
    report.set("fleet.stall_cycles", sum(|r| r.stall_cycles) as f64 / n);
    report.set(
        "fleet.peak_active",
        ratio(sum(|r| r.peak_active) as f64, sum(|r| r.runs) as f64),
    );
    report.set("fleet.failed_ops", sum(|r| r.failed_ops) as f64 / n);
    report.set("fleet.skipped_ops", sum(|r| r.skipped_ops) as f64 / n);
    report.set(
        "synth.library.hit_ratio",
        ratio(
            sum(|r| r.router.library_hits) as f64,
            sum(|r| r.router.library_hits + r.router.library_misses) as f64,
        ),
    );
    report.set(
        "trace.coverage",
        ratio(run_ns as f64, sum(|r| r.wall_ns) as f64),
    );
    let walls = |rounds: &[Round]| rounds.iter().map(|r| r.wall_ns).collect::<Vec<_>>();
    report.set("trace.overhead", overhead(&walls(plain), &walls(traced)));
}
