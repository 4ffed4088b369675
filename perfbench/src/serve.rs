//! The `serve-replay` workload: newline-JSON routing requests replayed in
//! order through one `ServeEngine::handle`, in three phases per round.
//!
//! The corpus is generated from the six evaluation assays' routing jobs on
//! [`CORPUS_CHIPS`] seeded chips, each worn in by baseline-routed runs;
//! each job carries its force patch from its chip's health field, once per
//! force variant. The
//! distinct canonical jobs ("orbits") are the **cold** lines. The **warm**
//! lines are eight images of every orbit — the identity plus the other
//! seven D4 elements (reflections, transposes) — each but the identity at
//! a seeded translation, shuffled. A round sends:
//!
//! 1. cold: the cold lines to a fresh engine on an empty cache directory
//!    — every one a miss that synthesizes and writes the cache;
//! 2. warm: the warm lines to the same engine — memory-tier hits;
//! 3. restart: the cold lines again to a new engine on the same directory
//!    — every lookup a disk-tier read with load validation.
//!
//! With `--trace 1` every other round replays the same three phases
//! through the public stages `handle` is built from (`parse_request`,
//! `canonicalize`, `PersistentCache::get`, `CanonicalJob::synthesize`,
//! `PersistentCache::insert`, the response), timing each stage; its
//! responses must match `handle`'s byte for byte.

use std::path::Path;

use meda_bioassay::RoutingJob;
use meda_core::{ForceProvider, RawField};
use meda_grid::{ChipDims, Grid, Rect};
use meda_rng::{Rng, SeedableRng, StdRng};
use meda_sim::{BaselineRouter, BioassayRunner, RunConfig};
use meda_synth::{
    canonicalize, parse_request, CanonicalJob, JobTransform, PersistentCache, Query,
    RoutingStrategy, ServeEngine, ServeRequest,
};
use meda_telemetry::{global, Json, Stopwatch};

use crate::sim::{paper_chip, plan_suite, Assay};
use crate::stats::{ratio, RoundTiming};
use crate::trace::{now_ns, overhead, ProgramDelta, Snapshot, Tracer};
use crate::{set_up, sub_seed, Args, Report};

/// Seeded chips the corpus draws its force patches from.
const CORPUS_CHIPS: u64 = 4;
/// Baseline-routed runs of each assay that wear a corpus chip in.
const WEAR_RUNS: usize = 2;
/// Force scales applied to every job; each scale is its own orbit.
const FORCE_VARIANTS: [f64; 2] = [1.0, 0.95];
/// Memory-tier capacity: larger than any corpus, so warm lines never
/// evict.
const CACHE_CAPACITY: usize = 4096;
/// The corpus must carry at least this many warm lines.
const MIN_WARM_LINES: usize = 1000;

/// A routing job in its own frame: local coordinates `0..w × 0..h`, forces
/// row-major over the bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalJob {
    w: i32,
    h: i32,
    start: Rect,
    goal: Rect,
    forces: Vec<f64>,
}

impl LocalJob {
    /// A plan's job with its force patch read from `field`; also returns
    /// the job's origin (the bounds' lower corner).
    fn from_job(job: &RoutingJob, field: &dyn ForceProvider) -> (Self, (i32, i32)) {
        let b = job.bounds;
        let local = |r: Rect| Rect::new(r.xa - b.xa, r.ya - b.ya, r.xb - b.xa, r.yb - b.ya);
        let forces = b.cells().map(|c| field.cell_force(c)).collect();
        let job = Self {
            w: b.width() as i32,
            h: b.height() as i32,
            start: local(job.start),
            goal: local(job.goal),
            forces,
        };
        (job, (b.xa, b.ya))
    }

    fn scaled(&self, factor: f64) -> Self {
        Self {
            forces: self.forces.iter().map(|f| f * factor).collect(),
            ..self.clone()
        }
    }

    /// The image under a transpose followed by reflections in x and y —
    /// together the eight elements of D4.
    pub fn transformed(&self, transpose: bool, flip_x: bool, flip_y: bool) -> Self {
        let (w, h) = if transpose {
            (self.h, self.w)
        } else {
            (self.w, self.h)
        };
        let map = |u: i32, v: i32| {
            let (u, v) = if transpose { (v, u) } else { (u, v) };
            (
                if flip_x { w - 1 - u } else { u },
                if flip_y { h - 1 - v } else { v },
            )
        };
        let rect = |r: Rect| {
            let (xa, ya) = map(r.xa, r.ya);
            let (xb, yb) = map(r.xb, r.yb);
            Rect::new(xa.min(xb), ya.min(yb), xa.max(xb), ya.max(yb))
        };
        let mut forces = vec![0.0; self.forces.len()];
        for v in 0..self.h {
            for u in 0..self.w {
                let (u2, v2) = map(u, v);
                forces[(v2 * w + u2) as usize] = self.forces[(v * self.w + u) as usize];
            }
        }
        Self {
            w,
            h,
            start: rect(self.start),
            goal: rect(self.goal),
            forces,
        }
    }

    /// The job as a serve request line with its bounds at `origin`.
    pub fn line(&self, id: &str, origin: (i32, i32)) -> String {
        let (ox, oy) = origin;
        let arr = |r: Rect| format!("[{},{},{},{}]", r.xa + ox, r.ya + oy, r.xb + ox, r.yb + oy);
        let cells: Vec<String> = self.forces.iter().map(|f| format!("{f}")).collect();
        format!(
            "{{\"id\":\"{id}\",\"bounds\":{},\"start\":{},\"goal\":{},\"query\":\"rmin\",\"cells\":[{}]}}",
            arr(Rect::new(0, 0, self.w - 1, self.h - 1)),
            arr(self.start),
            arr(self.goal),
            cells.join(",")
        )
    }
}

/// The generated request corpus.
pub struct Corpus {
    /// One line per orbit.
    pub cold: Vec<String>,
    /// `(line, orbit)`: eight D4 images per orbit, shuffled.
    pub warm: Vec<(String, usize)>,
}

/// Lifts a parsed request's forces onto a chip-sized grid and
/// canonicalizes it — what `handle` does between parsing and lookup.
pub fn canonicalize_request(req: &ServeRequest) -> (CanonicalJob, JobTransform) {
    let b = req.bounds;
    let w = b.width() as usize;
    let grid = Grid::from_fn(ChipDims::new(b.xb as u32, b.yb as u32), |cell| {
        if b.contains_cell(cell) {
            let (u, v) = ((cell.x - b.xa) as usize, (cell.y - b.ya) as usize);
            req.forces.get(v * w + u).copied().unwrap_or(0.0)
        } else {
            0.0
        }
    });
    canonicalize(
        req.start,
        req.goal,
        req.bounds,
        &RawField::new(grid),
        &req.hazards,
        &req.config,
        req.query,
    )
}

/// The canonical digest of a request line.
pub fn digest_of(line: &str) -> Result<u64, String> {
    Ok(canonicalize_request(&parse_request(line)?).0.digest())
}

/// Builds the corpus for `seed`: see the module docs.
pub fn build_corpus(assays: &[Assay], seed: u64) -> Result<Corpus, String> {
    let mut jobs = Vec::new();
    for c in 0..CORPUS_CHIPS {
        let (mut chip, mut rng) = paper_chip(sub_seed(seed, 4, c));
        let runner = BioassayRunner::new(RunConfig::default());
        for assay in assays {
            for _ in 0..WEAR_RUNS {
                runner.run(&assay.plan, &mut chip, &mut BaselineRouter::new(), &mut rng);
            }
        }
        let health = chip.health_field();
        for assay in assays {
            for mo in assay.plan.operations() {
                for job in &mo.jobs {
                    if !job.is_dispense() && !job.goal.contains_rect(job.start) {
                        jobs.push(LocalJob::from_job(job, &health));
                    }
                }
            }
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut orbits: Vec<(LocalJob, (i32, i32))> = Vec::new();
    let mut cold = Vec::new();
    for factor in FORCE_VARIANTS {
        for (job, origin) in &jobs {
            let job = job.scaled(factor);
            let line = job.line(&format!("o{}", orbits.len()), *origin);
            if seen.insert(digest_of(&line)?) {
                cold.push(line);
                orbits.push((job, *origin));
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5, 0));
    let mut warm = Vec::new();
    for (k, (job, origin)) in orbits.iter().enumerate() {
        for element in 0..8u8 {
            let image = job.transformed(element & 4 != 0, element & 1 != 0, element & 2 != 0);
            let line = if element == 0 {
                // The identity at the original origin, under the cold id:
                // its answer must be the cold answer byte for byte.
                image.line(&format!("o{k}"), *origin)
            } else {
                let at = (rng.gen_range(1..=24), rng.gen_range(1..=12));
                image.line(&format!("o{k}.{element}"), at)
            };
            warm.push((line, k));
        }
    }
    for i in (1..warm.len()).rev() {
        warm.swap(i, rng.gen_range(0..=i));
    }
    if warm.len() < MIN_WARM_LINES {
        return Err(format!("corpus has only {} warm lines", warm.len()));
    }
    Ok(Corpus { cold, warm })
}

/// The `value_bits` field of a response, if present.
fn value_bits(response: &str) -> Option<&str> {
    let at = response.find("\"value_bits\":\"")? + "\"value_bits\":\"".len();
    response.get(at..at + 16)
}

/// One round's responses, in corpus order per phase.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Responses {
    pub cold: Vec<String>,
    pub warm: Vec<String>,
    pub restart: Vec<String>,
}

/// The per-round output checks: no error responses; restart answers equal
/// the cold answers byte for byte; every warm answer carries its orbit's
/// cold `value_bits`; the warm identity image answers exactly as cold.
pub fn check_responses(corpus: &Corpus, r: &Responses) -> Vec<String> {
    let mut failures = Vec::new();
    for (phase, lines) in [
        ("cold", &r.cold),
        ("warm", &r.warm),
        ("restart", &r.restart),
    ] {
        for (i, resp) in lines.iter().enumerate() {
            if !resp.contains("\"status\":\"ok\"") {
                failures.push(format!("{phase} line {i}: {resp}"));
            }
        }
    }
    if r.cold.len() != corpus.cold.len() || r.restart.len() != corpus.cold.len() {
        failures.push("cold or restart phase is missing responses".into());
    }
    for (i, (cold, restart)) in r.cold.iter().zip(&r.restart).enumerate() {
        if cold != restart {
            failures.push(format!("restart answer {i} differs from cold"));
        }
    }
    if r.warm.len() != corpus.warm.len() {
        failures.push("warm phase is missing responses".into());
    }
    for (i, ((line, orbit), resp)) in corpus.warm.iter().zip(&r.warm).enumerate() {
        let cold = r.cold.get(*orbit).map(String::as_str).unwrap_or("");
        if value_bits(resp).is_none() || value_bits(resp) != value_bits(cold) {
            failures.push(format!("warm line {i} value differs from its orbit's"));
        }
        if line.starts_with(&format!("{{\"id\":\"o{orbit}\",")) && resp != cold {
            failures.push(format!("warm identity line {i} differs from cold"));
        }
    }
    failures
}

/// Each orbit's first answer against a direct `CanonicalJob::synthesize`.
fn check_direct(corpus: &Corpus, r: &Responses) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, (line, resp)) in corpus.cold.iter().zip(&r.cold).enumerate() {
        let direct = parse_request(line)
            .ok()
            .and_then(|req| canonicalize_request(&req).0.synthesize())
            .map(|s| format!("{:016x}", s.value_at_init().to_bits()));
        if direct.as_deref() != value_bits(resp) {
            failures.push(format!("cold answer {i} differs from direct synthesis"));
        }
    }
    failures
}

/// How a lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    Cold,
    Mem,
    Disk,
}

/// Per-stage nanoseconds of the staged pipeline.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    parse: u64,
    canonicalize: u64,
    lookup_mem: u64,
    lookup_disk: u64,
    lookup_miss: u64,
    synthesize: u64,
    persist: u64,
    respond: u64,
    /// `(requests, total ns, MDP builds)` per provenance.
    cold: (u64, u64, u64),
    mem: (u64, u64, u64),
    disk: (u64, u64, u64),
}

impl Stages {
    fn covered(&self) -> u64 {
        self.parse
            + self.canonicalize
            + self.lookup_mem
            + self.lookup_disk
            + self.lookup_miss
            + self.synthesize
            + self.persist
            + self.respond
    }

    fn add(&mut self, o: &Stages) {
        self.parse += o.parse;
        self.canonicalize += o.canonicalize;
        self.lookup_mem += o.lookup_mem;
        self.lookup_disk += o.lookup_disk;
        self.lookup_miss += o.lookup_miss;
        self.synthesize += o.synthesize;
        self.persist += o.persist;
        self.respond += o.respond;
        for (a, b) in [
            (&mut self.cold, o.cold),
            (&mut self.mem, o.mem),
            (&mut self.disk, o.disk),
        ] {
            a.0 += b.0;
            a.1 += b.1;
            a.2 += b.2;
        }
    }
}

/// `handle`'s response for a route request, rebuilt from the public
/// strategy and transform API.
fn respond(req: &ServeRequest, tf: &JobTransform, strategy: &RoutingStrategy) -> String {
    let canon_path = strategy.nominal_path();
    let mut path = Vec::with_capacity(canon_path.len());
    let mut actions = Vec::new();
    for (i, rc) in canon_path.iter().enumerate() {
        let r = tf.from_canonical_rect(*rc);
        path.push(Json::Arr(vec![
            Json::num(r.xa),
            Json::num(r.ya),
            Json::num(r.xb),
            Json::num(r.yb),
        ]));
        if i + 1 < canon_path.len() {
            if let Some(a) = strategy.decide(*rc) {
                actions.push(Json::str(tf.from_canonical_action(a).to_string()));
            }
        }
    }
    let value = strategy.value_at_init();
    let query = match strategy.query() {
        Query::MaxReachProbability => "pmax",
        Query::MinExpectedCycles => "rmin",
    };
    Json::Obj(vec![
        ("id".into(), Json::str(&req.id)),
        ("status".into(), Json::str("ok")),
        ("query".into(), Json::str(query)),
        (
            "value_bits".into(),
            Json::str(format!("{:016x}", value.to_bits())),
        ),
        (
            "value".into(),
            if value.is_finite() {
                Json::Num(value)
            } else {
                Json::Null
            },
        ),
        ("path".into(), Json::Arr(path)),
        ("actions".into(), Json::Arr(actions)),
    ])
    .to_string()
}

/// One request through the public stages of `handle`, timed per stage.
fn staged(
    line: &str,
    cache: &mut PersistentCache,
    stages: &mut Stages,
    tracer: &mut Tracer,
) -> Result<String, String> {
    let builds = global().counter("core.mdp.builds");
    let (b0, t0) = (builds.get(), now_ns());
    let req = parse_request(line)?;
    let t1 = now_ns();
    let (job, tf) = canonicalize_request(&req);
    let t2 = now_ns();
    let before = cache.stats();
    let hit = cache.get(&job);
    let t3 = now_ns();
    let after = cache.stats();
    let (strategy, t5) = match hit {
        Some(s) => (s, t3),
        None => {
            let s = job.synthesize().ok_or("infeasible job in corpus")?;
            let t4 = now_ns();
            stages.synthesize += t4 - t3;
            tracer.span("serve.synthesize", t3, t4 - t3);
            let s = cache
                .insert(&job, s)
                .map_err(|e| format!("cache write: {e}"))?;
            let t5 = now_ns();
            stages.persist += t5 - t4;
            tracer.span("serve.persist", t4, t5 - t4);
            (s, t5)
        }
    };
    let response = respond(&req, &tf, &strategy);
    let t6 = now_ns();
    let provenance = if after.mem_hits > before.mem_hits {
        stages.lookup_mem += t3 - t2;
        Provenance::Mem
    } else if after.disk_hits > before.disk_hits {
        stages.lookup_disk += t3 - t2;
        Provenance::Disk
    } else {
        stages.lookup_miss += t3 - t2;
        Provenance::Cold
    };
    stages.parse += t1 - t0;
    stages.canonicalize += t2 - t1;
    stages.respond += t6 - t5;
    let slot = match provenance {
        Provenance::Cold => &mut stages.cold,
        Provenance::Mem => &mut stages.mem,
        Provenance::Disk => &mut stages.disk,
    };
    slot.0 += 1;
    slot.1 += t6 - t0;
    slot.2 += builds.get() - b0;
    tracer.span("serve.parse", t0, t1 - t0);
    tracer.span("serve.canonicalize", t1, t2 - t1);
    tracer.span("serve.lookup", t2, t3 - t2);
    tracer.span("serve.respond", t5, t6 - t5);
    tracer.span("serve.request", t0, t6 - t0);
    Ok(response)
}

/// One round's measurements.
#[derive(Debug, Default)]
struct Round {
    responses: Responses,
    latencies_ns: Vec<u64>,
    /// Summed phase loop time (cache opens excluded).
    wall_ns: u64,
    /// `(warm + restart hits, warm + restart requests)`.
    hits: (u64, u64),
    failures: Vec<String>,
    stages: Stages,
    program: ProgramDelta,
    cache_counts: [u64; 5],
    entry_bytes: (u64, u64),
}

/// How one request is answered in a round.
trait Server {
    fn open(dir: &Path) -> Result<Self, String>
    where
        Self: Sized;
    fn serve(&mut self, line: &str, round: &mut Round, tracer: &mut Tracer) -> String;
    fn stats(&self) -> meda_synth::CacheStats;
}

impl Server for ServeEngine {
    fn open(dir: &Path) -> Result<Self, String> {
        ServeEngine::open(dir, CACHE_CAPACITY).map_err(|e| format!("opening cache: {e}"))
    }

    fn serve(&mut self, line: &str, _: &mut Round, _: &mut Tracer) -> String {
        self.handle(line)
    }

    fn stats(&self) -> meda_synth::CacheStats {
        ServeEngine::stats(self)
    }
}

impl Server for PersistentCache {
    fn open(dir: &Path) -> Result<Self, String> {
        PersistentCache::open(dir, CACHE_CAPACITY).map_err(|e| format!("opening cache: {e}"))
    }

    fn serve(&mut self, line: &str, round: &mut Round, tracer: &mut Tracer) -> String {
        staged(line, self, &mut round.stages, tracer).unwrap_or_else(|e| {
            round.failures.push(format!("staged request failed: {e}"));
            String::new()
        })
    }

    fn stats(&self) -> meda_synth::CacheStats {
        PersistentCache::stats(self)
    }
}

/// Sends `lines` in order, timing each request.
fn phase<'a, S: Server>(
    server: &mut S,
    lines: impl Iterator<Item = &'a str>,
    round: &mut Round,
    tracer: &mut Tracer,
) -> Vec<String> {
    let wall0 = now_ns();
    let mut out = Vec::new();
    for line in lines {
        let t0 = now_ns();
        let response = server.serve(line, round, tracer);
        round.latencies_ns.push(now_ns().saturating_sub(t0));
        out.push(response);
    }
    round.wall_ns += now_ns().saturating_sub(wall0);
    out
}

/// Runs the three phases with server type `S` on a fresh directory.
fn run_round<S: Server>(corpus: &Corpus, dir: &Path, tracer: &mut Tracer) -> Result<Round, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut round = Round::default();
    let cold_lines = || corpus.cold.iter().map(String::as_str);

    let mut server = S::open(dir)?;
    round.responses.cold = phase(&mut server, cold_lines(), &mut round, tracer);
    let cold = server.stats();
    round.responses.warm = phase(
        &mut server,
        corpus.warm.iter().map(|(l, _)| l.as_str()),
        &mut round,
        tracer,
    );
    let warm = server.stats();
    drop(server);
    let mut server = S::open(dir)?;
    round.responses.restart = phase(&mut server, cold_lines(), &mut round, tracer);
    let restart = server.stats();

    let n_cold = corpus.cold.len() as u64;
    let n_warm = corpus.warm.len() as u64;
    let warm_hits = warm.mem_hits - cold.mem_hits + warm.disk_hits - cold.disk_hits;
    if cold.misses != n_cold || cold.inserts != n_cold || cold.hits() != 0 {
        round
            .failures
            .push(format!("cold phase was not all misses: {cold:?}"));
    }
    if warm_hits != n_warm {
        round
            .failures
            .push(format!("warm phase hit {warm_hits} of {n_warm}"));
    }
    if restart.disk_hits != n_cold || restart.rejected != 0 {
        round
            .failures
            .push(format!("restart phase was not all disk hits: {restart:?}"));
    }
    round.hits = (warm_hits + restart.hits(), n_warm + n_cold);
    // `warm` is cumulative over the first engine's two phases.
    round.cache_counts = [
        warm.mem_hits + restart.mem_hits,
        warm.disk_hits + restart.disk_hits,
        warm.misses + restart.misses,
        warm.rejected + restart.rejected,
        warm.inserts + restart.inserts,
    ];
    round
        .failures
        .extend(check_responses(corpus, &round.responses));
    Ok(round)
}

/// `serve-replay`: see the module docs.
pub fn serve_replay(args: &Args, report: &mut Report) -> Result<(), String> {
    let dir = args
        .work_dir()
        .join(format!("serve-{}", std::process::id()));
    let result = serve_in(args, report, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve_in(args: &Args, report: &mut Report, dir: &Path) -> Result<(), String> {
    let cache_dir = dir.join("cache");
    let (corpus, setup_s, plan_ms) = set_up(|| {
        let (assays, plan_ms) = plan_suite()?;
        let corpus = build_corpus(&assays, args.seed)?;
        let _ = std::fs::remove_dir_all(&cache_dir);
        drop(<ServeEngine as Server>::open(&cache_dir)?);
        Ok((corpus, plan_ms))
    })?;
    let corpus = &corpus;

    let mut tracer = Tracer::default();
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let start = Stopwatch::start();
    loop {
        let mut round = run_round::<ServeEngine>(corpus, &cache_dir, &mut tracer)?;
        if plain.is_empty() {
            round
                .failures
                .extend(check_direct(corpus, &round.responses));
        }
        if args.trace {
            let snap = Snapshot::take();
            tracer.capture_program();
            let mut staged = run_round::<PersistentCache>(corpus, &cache_dir, &mut tracer)?;
            tracer.collect_program();
            let now = global().summary();
            staged.program = ProgramDelta::since(&snap);
            staged.entry_bytes = snap.histogram_delta(&now, "synth.cache.entry_bytes");
            if staged.responses != round.responses {
                staged
                    .failures
                    .push("staged pipeline answers differ from handle".into());
            }
            traced.push(staged);
        }
        plain.push(round);
        if plain.len() > 1 && start.elapsed_ns() >= args.budget_ns {
            break;
        }
    }

    let requests_per_round = (2 * corpus.cold.len() + corpus.warm.len()) as u64;
    for round in plain.iter().chain(&traced) {
        report.attempted += requests_per_round;
        for why in &round.failures {
            report.fail(why);
        }
    }
    if args.trace {
        per_layer(report, plan_ms, &plain, &traced);
        tracer
            .write(&args.trace_path(), &args.workload, args.seed)
            .map_err(|e| format!("writing trace: {e}"))?;
    } else {
        end_to_end(report, setup_s, corpus, &mut plain)?;
    }
    Ok(())
}

fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    corpus: &Corpus,
    rounds: &mut [Round],
) -> Result<(), String> {
    // Round 0 warms caches and the allocator up and is not timed.
    let timings = rounds[1..]
        .iter_mut()
        .map(|r| {
            let busy_ns = r.latencies_ns.iter().sum();
            RoundTiming::of(r.latencies_ns.len() as u64, busy_ns, &mut r.latencies_ns)
        })
        .collect::<Result<Vec<_>, _>>()?;
    RoundTiming::median_of(&timings).report(report);
    let first = &rounds[0];
    let all: Vec<&String> = first
        .responses
        .cold
        .iter()
        .chain(&first.responses.warm)
        .chain(&first.responses.restart)
        .collect();
    let ok = all
        .iter()
        .filter(|r| r.contains("\"status\":\"ok\""))
        .count();
    // Quality of the served strategies, over the cold answers (one per
    // orbit): does the nominal path end inside the goal, and how many
    // cycles does the strategy expect to take.
    let (mut reached, mut cycles, mut valued) = (0usize, 0.0, 0usize);
    for (line, resp) in corpus.cold.iter().zip(&first.responses.cold) {
        let goal = parse_request(line).map(|r| r.goal).ok();
        let doc = Json::parse(resp).ok();
        let last = doc
            .as_ref()
            .and_then(|d| d.get("path"))
            .and_then(Json::as_arr)
            .and_then(|p| p.last())
            .and_then(Json::as_arr)
            .and_then(|c| {
                let v: Vec<i32> = c
                    .iter()
                    .filter_map(Json::as_f64)
                    .map(|x| x as i32)
                    .collect();
                (v.len() == 4).then(|| Rect::new(v[0], v[1], v[2], v[3]))
            });
        if let (Some(goal), Some(last)) = (goal, last) {
            reached += usize::from(goal.contains_rect(last));
        }
        if let Some(v) = doc
            .as_ref()
            .and_then(|d| d.get("value"))
            .and_then(Json::as_f64)
        {
            cycles += v;
            valued += 1;
        }
    }
    report.set("setup_s", setup_s);
    report.set("pos", ratio(ok as f64, all.len() as f64));
    report.set(
        "completion",
        ratio(reached as f64, corpus.cold.len() as f64),
    );
    report.set("cycles_mean", ratio(cycles, valued as f64));
    report.set("hit_rate", ratio(first.hits.0 as f64, first.hits.1 as f64));
    Ok(())
}

fn per_layer(report: &mut Report, plan_ms: f64, plain: &[Round], traced: &[Round]) {
    let n = traced.len() as f64;
    let mut s = Stages::default();
    let mut program = ProgramDelta::default();
    let (mut counts, mut bytes) = ([0u64; 5], (0u64, 0u64));
    for r in traced {
        s.add(&r.stages);
        program.add(&r.program);
        for (c, v) in counts.iter_mut().zip(r.cache_counts) {
            *c += v;
        }
        bytes.0 += r.entry_bytes.0;
        bytes.1 += r.entry_bytes.1;
    }
    program.report(report, n);
    let requests = (s.cold.0 + s.mem.0 + s.disk.0) as f64;
    let us = |ns: u64, count: u64| ratio(ns as f64 / 1e3, count as f64);
    report.set("bioassay.plan_ms", plan_ms);
    report.set("serve.parse_us", ratio(s.parse as f64 / 1e3, requests));
    report.set(
        "serve.canonicalize_us",
        ratio(s.canonicalize as f64 / 1e3, requests),
    );
    report.set("serve.lookup_mem_us", us(s.lookup_mem, s.mem.0));
    report.set("serve.lookup_disk_us", us(s.lookup_disk, s.disk.0));
    report.set("serve.lookup_miss_us", us(s.lookup_miss, s.cold.0));
    report.set("serve.synthesize_ms", us(s.synthesize, s.cold.0) / 1e3);
    report.set("serve.persist_us", us(s.persist, s.cold.0));
    report.set("serve.respond_us", ratio(s.respond as f64 / 1e3, requests));
    report.set("serve.cold_us", us(s.cold.1, s.cold.0));
    report.set("serve.mem_hit_us", us(s.mem.1, s.mem.0));
    report.set("serve.disk_hit_us", us(s.disk.1, s.disk.0));
    report.set(
        "serve.mdp_builds_per_cold",
        ratio(s.cold.2 as f64, s.cold.0 as f64),
    );
    report.set(
        "serve.mdp_builds_per_mem_hit",
        ratio(s.mem.2 as f64, s.mem.0 as f64),
    );
    report.set(
        "serve.mdp_builds_per_disk_hit",
        ratio(s.disk.2 as f64, s.disk.0 as f64),
    );
    for (name, v) in [
        "synth.cache.mem_hits",
        "synth.cache.disk_hits",
        "synth.cache.misses",
        "synth.cache.rejected",
        "synth.cache.inserts",
    ]
    .into_iter()
    .zip(counts)
    {
        report.set(name, v as f64 / n);
    }
    report.set(
        "synth.cache.entry_bytes_mean",
        ratio(bytes.1 as f64, bytes.0 as f64),
    );
    let wall: u64 = traced.iter().map(|r| r.wall_ns).sum();
    report.set("trace.coverage", ratio(s.covered() as f64, wall as f64));
    let walls = |rounds: &[Round]| rounds.iter().map(|r| r.wall_ns).collect::<Vec<_>>();
    report.set("trace.overhead", overhead(&walls(plain), &walls(traced)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        build_corpus(&plan_suite().unwrap().0, 11).unwrap()
    }

    #[test]
    fn d4_and_translated_images_share_the_original_digest() {
        let job = LocalJob {
            w: 7,
            h: 4,
            start: Rect::new(0, 0, 1, 1),
            goal: Rect::new(5, 2, 6, 3),
            forces: (0..28).map(|i| 0.5 + f64::from(i) / 100.0).collect(),
        };
        let original = digest_of(&job.line("a", (3, 5))).unwrap();
        for element in 0..8u8 {
            let image = job.transformed(element & 4 != 0, element & 1 != 0, element & 2 != 0);
            for origin in [(1, 1), (9, 2), (17, 13)] {
                assert_eq!(
                    digest_of(&image.line("b", origin)).unwrap(),
                    original,
                    "element {element} at {origin:?}"
                );
            }
        }
        // A different force patch is a different orbit.
        assert_ne!(
            digest_of(&job.scaled(0.97).line("c", (3, 5))).unwrap(),
            original
        );
    }

    #[test]
    fn every_warm_line_lands_on_its_orbit() {
        let c = corpus();
        assert!(c.warm.len() >= MIN_WARM_LINES);
        let cold: Vec<u64> = c.cold.iter().map(|l| digest_of(l).unwrap()).collect();
        let distinct: std::collections::BTreeSet<_> = cold.iter().collect();
        assert_eq!(distinct.len(), cold.len(), "cold lines are distinct orbits");
        for (line, orbit) in &c.warm {
            assert_eq!(digest_of(line).unwrap(), cold[*orbit], "{line}");
        }
    }

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let (a, b) = (corpus(), corpus());
        assert_eq!(a.cold, b.cold);
        assert_eq!(a.warm, b.warm);
        let other = build_corpus(&plan_suite().unwrap().0, 12).unwrap();
        assert_ne!(a.cold, other.cold);
    }

    /// Answers shaped like `handle`'s, consistent with the corpus.
    fn answers(c: &Corpus) -> Responses {
        let answer = |id: &str, bits: usize| {
            format!("{{\"id\":\"{id}\",\"status\":\"ok\",\"query\":\"rmin\",\"value_bits\":\"{bits:016x}\",\"value\":1}}")
        };
        let cold: Vec<String> = (0..c.cold.len())
            .map(|k| answer(&format!("o{k}"), k))
            .collect();
        let warm = c
            .warm
            .iter()
            .map(|(line, k)| {
                let id = parse_request(line).unwrap().id;
                answer(&id, *k)
            })
            .collect();
        Responses {
            restart: cold.clone(),
            cold,
            warm,
        }
    }

    #[test]
    fn consistent_answers_pass_the_checks() {
        let c = corpus();
        assert_eq!(check_responses(&c, &answers(&c)), Vec::<String>::new());
    }

    #[test]
    fn a_corrupted_response_trips_the_check() {
        let c = corpus();
        let good = answers(&c);

        let mut r = good.clone();
        r.restart[3] = r.restart[3].replace("\"value\":1", "\"value\":2");
        assert_eq!(check_responses(&c, &r).len(), 1, "restart byte drift");

        let mut r = good.clone();
        let bits = value_bits(&r.warm[5]).unwrap().to_string();
        r.warm[5] = r.warm[5].replace(&bits, "7ff0000000000000");
        assert!(!check_responses(&c, &r).is_empty(), "warm value drift");

        let mut r = good;
        r.cold[0] = "{\"id\":\"\",\"status\":\"error\",\"error\":\"parse\"}".into();
        assert!(!check_responses(&c, &r).is_empty(), "error response");
    }
}
