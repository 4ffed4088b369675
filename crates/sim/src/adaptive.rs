use std::sync::Arc;
use std::time::{Duration, Instant};

use meda_bioassay::{BioassayPlan, RoutingJob};
use meda_core::{
    hazard_digest, Action, ActionConfig, HazardBox, HazardedField, HealthField, RoutingMdp,
};
use meda_grid::Rect;
use meda_synth::{
    canonicalize, canonicalize_strategy, materialize, synthesize, LibraryKey, PersistentCache,
    Query, RoutingStrategy, StrategyLibrary,
};

use crate::Router;

/// Configuration of the adaptive formal-synthesis router.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdaptiveConfig {
    /// Microfluidic action classes available to synthesis.
    pub actions: ActionConfig,
    /// Primary synthesis query (Algorithm 2 uses `Rmin`).
    pub query: Query,
    /// Whether to re-synthesize when the health matrix changes within the
    /// job's hazard bounds (the hybrid scheduler of Section VI-D). With
    /// `false`, the strategy synthesized at job start is used throughout —
    /// the "static synthesis" ablation.
    pub resynthesize: bool,
    /// Whether to keep and consult the strategy library (Section VI-D's
    /// hybrid scheduling). With `false` every job synthesizes from scratch
    /// — the pure-online scheduling ablation.
    pub use_library: bool,
}

impl AdaptiveConfig {
    /// The paper's configuration: all action classes, `Rmin` query,
    /// re-synthesis on health change, hybrid library scheduling.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            actions: ActionConfig::default(),
            query: Query::MinExpectedCycles,
            resynthesize: true,
            use_library: true,
        }
    }

    /// The pure-online scheduling ablation: synthesize on demand for every
    /// job, never caching (Section VI-D's strawman).
    #[must_use]
    pub fn pure_online() -> Self {
        Self {
            use_library: false,
            ..Self::paper()
        }
    }
}

/// The adaptive router of Section VI: per routing job it induces the MDP
/// from the current health matrix, synthesizes an optimal strategy
/// (Algorithm 2), and follows it; when the sensed health within the hazard
/// bounds changes, it re-synthesizes (Algorithm 3's hybrid scheduling,
/// with the [`StrategyLibrary`] serving repeat jobs).
///
/// If the `Rmin` query is infeasible (the goal is not almost-surely
/// reachable, e.g. a fault cluster blocks the only corridor), the router
/// falls back to the `Pmax` strategy, which still maximizes the chance of
/// getting through; only `Pmax = 0` makes it give up.
#[derive(Debug)]
pub struct AdaptiveRouter {
    config: AdaptiveConfig,
    library: StrategyLibrary,
    job: Option<RoutingJob>,
    digest: u64,
    strategy: Option<Arc<RoutingStrategy>>,
    resynth_count: u64,
    synthesis_time: Duration,
    /// Fleet hazard zones (peer corridors). Empty on the serial path, in
    /// which case every digest and synthesis below reduces byte-identically
    /// to the hazard-free behaviour.
    hazards: Vec<HazardBox>,
    /// Opt-in persistent content-addressed cache (DESIGN.md §16). `None`
    /// on the default path, which therefore stays byte-identical to the
    /// pre-cache router — golden `meda run`/`meda fleet` traces depend on
    /// this.
    cache: Option<PersistentCache>,
}

impl AdaptiveRouter {
    /// Creates an adaptive router. `AdaptiveConfig::default()` disables
    /// re-synthesis and the library; pass [`AdaptiveConfig::paper`] for the
    /// paper's hybrid setup.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            config,
            library: StrategyLibrary::new(),
            job: None,
            digest: 0,
            strategy: None,
            resynth_count: 0,
            synthesis_time: Duration::ZERO,
            hazards: Vec::new(),
            cache: None,
        }
    }

    /// Creates an adaptive router backed by a persistent content-addressed
    /// strategy cache: in-memory library misses consult the canonical
    /// cache (answering translated/symmetric repeats of earlier jobs —
    /// even from previous processes), and cold syntheses are persisted
    /// canonically for the next caller. Value-transparent by construction
    /// (proven by meda-check oracle 8): a warm answer carries the same
    /// evaluated value as cold synthesis, validated on load by the
    /// meda-audit totality/closure pass.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures.
    pub fn with_cache(
        config: AdaptiveConfig,
        cache_dir: impl Into<std::path::PathBuf>,
        capacity: usize,
    ) -> std::io::Result<Self> {
        let mut router = Self::new(config);
        router.cache = Some(PersistentCache::open(cache_dir, capacity)?);
        Ok(router)
    }

    /// Persistent-cache statistics, if the cache is enabled.
    #[must_use]
    pub fn cache_stats(&self) -> Option<meda_synth::CacheStats> {
        self.cache.as_ref().map(PersistentCache::stats)
    }

    /// The combined health + hazard digest over `bounds` — the quantity
    /// whose change triggers a re-solve. With no hazard intersecting the
    /// bounds this is exactly the health digest, keeping the serial path
    /// bit-identical.
    fn scoped_digest(&self, health: &HealthField, bounds: Rect) -> u64 {
        health.digest(bounds) ^ hazard_digest(&self.hazards, bounds)
    }

    /// Pre-populates the strategy library offline for every routed job of a
    /// planned bioassay, assuming a fully healthy chip — the offline half
    /// of the paper's hybrid scheduling (Section VI-D: "a library of
    /// pre-synthesized strategies is first created offline … assuming no
    /// degradation"). Returns the number of strategies stored.
    pub fn warm_up(&mut self, plan: &BioassayPlan, health: &HealthField) -> usize {
        let mut stored = 0;
        for mo in plan.operations() {
            for job in &mo.jobs {
                if job.is_dispense() || job.goal.contains_rect(job.start) {
                    continue;
                }
                if self.synthesize_for(job, job.start, health).is_some() {
                    stored += 1;
                }
            }
        }
        stored
    }

    /// Total wall-clock time spent in strategy synthesis (library hits are
    /// free) — the online overhead the hybrid scheduler exists to hide.
    #[must_use]
    pub fn synthesis_time(&self) -> Duration {
        self.synthesis_time
    }

    /// Number of mid-job re-syntheses triggered by health changes.
    #[must_use]
    pub fn resynth_count(&self) -> u64 {
        self.resynth_count
    }

    /// The strategy library (hit/miss statistics for the hybrid-scheduler
    /// ablation).
    #[must_use]
    pub fn library(&self) -> &StrategyLibrary {
        &self.library
    }

    fn synthesize_for(
        &mut self,
        job: &RoutingJob,
        start: Rect,
        health: &HealthField,
    ) -> Option<Arc<RoutingStrategy>> {
        // Peer-corridor hazards fold into the library key: a corridor
        // shift changes the digest exactly like a health change, so stale
        // strategies are never replayed against a moved hazard.
        let digest = self.scoped_digest(health, job.bounds);
        let key = LibraryKey {
            start,
            goal: job.goal,
            bounds: job.bounds,
            health_digest: digest,
        };
        let telemetry = meda_telemetry::global();
        if self.config.use_library {
            if let Some(hit) = self.library.get(&key) {
                telemetry.add("synth.library.hits", 1);
                return Some(hit);
            }
            telemetry.add("synth.library.misses", 1);
        }
        // Library miss: with the persistent cache enabled, canonicalize the
        // job (translation + D4) and try a content-addressed lookup before
        // paying for synthesis. A hit is rehydrated into this job's frame;
        // a miss remembers the canonical context so the cold result can be
        // persisted for the next caller.
        let canonical_ctx = if self.cache.is_some() {
            let (cjob, tf) = canonicalize(
                start,
                job.goal,
                job.bounds,
                health,
                &self.hazards,
                &self.config.actions,
                self.config.query,
            );
            let hit = self.cache.as_mut().and_then(|cache| cache.get(&cjob));
            if let Some(canon) = hit {
                let hazarded;
                let field: &dyn meda_core::ForceProvider =
                    if self.hazards.iter().any(|b| b.rect.intersects(job.bounds)) {
                        hazarded = HazardedField::new(health, &self.hazards);
                        &hazarded
                    } else {
                        health
                    };
                if let Ok(mdp) =
                    RoutingMdp::build(start, job.goal, job.bounds, field, &self.config.actions)
                {
                    if let Some(strategy) = materialize(&canon, &tf, mdp) {
                        return Some(if self.config.use_library {
                            self.library.insert(key, strategy)
                        } else {
                            Arc::new(strategy)
                        });
                    }
                }
            }
            Some((cjob, tf))
        } else {
            None
        };
        let _job_span = telemetry.span("synth.job");
        let t0 = Instant::now();
        let result = (|| {
            let hazarded;
            let field: &dyn meda_core::ForceProvider =
                if self.hazards.iter().any(|b| b.rect.intersects(job.bounds)) {
                    hazarded = HazardedField::new(health, &self.hazards);
                    &hazarded
                } else {
                    health
                };
            let mdp =
                RoutingMdp::build(start, job.goal, job.bounds, field, &self.config.actions).ok()?;
            let strategy = synthesize(&mdp, self.config.query)
                .or_else(|_| synthesize(&mdp, Query::MaxReachProbability))
                .ok()?;
            if strategy.query() == Query::MaxReachProbability && strategy.value_at_init() <= 0.0 {
                return None;
            }
            Some(strategy)
        })();
        self.synthesis_time += t0.elapsed();
        let strategy = result?;
        if let (Some(cache), Some((cjob, tf))) = (self.cache.as_mut(), canonical_ctx.as_ref()) {
            if let Ok(canon_mdp) = cjob.build_mdp() {
                if let Some(canon) = canonicalize_strategy(&strategy, tf, canon_mdp) {
                    // Persistence failure is non-fatal: the cache only
                    // ever costs a miss, never correctness.
                    let _ = cache.insert(cjob, canon);
                }
            }
        }
        if self.config.use_library {
            Some(self.library.insert(key, strategy))
        } else {
            Some(Arc::new(strategy))
        }
    }
}

impl Router for AdaptiveRouter {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn begin_job(&mut self, job: &RoutingJob, health: &HealthField) -> bool {
        self.digest = self.scoped_digest(health, job.bounds);
        self.strategy = self.synthesize_for(job, job.start, health);
        self.job = Some(*job);
        self.strategy.is_some()
    }

    fn next_action(&mut self, droplet: Rect, health: &HealthField) -> Option<Action> {
        let job = self.job?;
        if self.config.resynthesize {
            let digest = self.scoped_digest(health, job.bounds);
            if digest != self.digest {
                self.digest = digest;
                // Re-synthesize from the droplet's *current* location.
                if let Some(strategy) = self.synthesize_for(&job, droplet, health) {
                    self.strategy = Some(strategy);
                    self.resynth_count += 1;
                }
                // If re-synthesis fails, keep following the stale strategy:
                // worse than fresh, better than freezing.
            }
        }
        let strategy = Arc::clone(self.strategy.as_ref()?);
        strategy.decide(droplet).or_else(|| {
            // The droplet drifted off the synthesized state set (e.g. a
            // partial ordinal move under a stale strategy); re-synthesize
            // from here.
            let refreshed = self.synthesize_for(&job, droplet, health)?;
            let action = refreshed.decide(droplet);
            self.strategy = Some(refreshed);
            action
        })
    }

    fn set_hazards(&mut self, boxes: &[HazardBox]) {
        self.hazards = boxes.to_vec();
        // The next `next_action` sees a changed scoped digest and re-solves
        // from the droplet's current position.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meda_degradation::HealthLevel;
    use meda_grid::{Cell, ChipDims, Grid};

    fn full_health(dims: ChipDims) -> HealthField {
        HealthField::new(Grid::new(dims, HealthLevel::full(2)), 2)
    }

    fn job() -> RoutingJob {
        RoutingJob::new(
            Rect::new(1, 1, 3, 3),
            Rect::new(12, 1, 14, 3),
            Rect::new(1, 1, 16, 8),
        )
    }

    #[test]
    fn follows_synthesized_strategy_to_goal() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        let mut droplet = Rect::new(1, 1, 3, 3);
        let mut steps = 0;
        while !job().goal.contains_rect(droplet) {
            let a = r.next_action(droplet, &health).expect("action available");
            droplet = a.apply(droplet);
            steps += 1;
            assert!(steps < 100, "router is cycling");
        }
        // Pristine chip: double steps make this ~⌈11/2⌉ cycles.
        assert!(steps <= 11);
    }

    #[test]
    fn avoids_dead_wall_when_gap_exists() {
        let dims = ChipDims::new(20, 10);
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        for y in 1..=6 {
            grid[Cell::new(8, y)] = HealthLevel::new(0, 2);
        }
        let health = HealthField::new(grid, 2);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health), "gap at rows 7-8 is routable");
        // March the droplet with *successful* outcomes; it must never be
        // commanded into the dead column.
        let mut droplet = Rect::new(1, 1, 3, 3);
        for _ in 0..100 {
            if job().goal.contains_rect(droplet) {
                return;
            }
            let a = r.next_action(droplet, &health).expect("action");
            droplet = a.apply(droplet);
        }
        panic!("never reached the goal");
    }

    #[test]
    fn fully_blocked_job_reports_infeasible() {
        let dims = ChipDims::new(20, 10);
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        for y in 1..=10 {
            grid[Cell::new(8, y)] = HealthLevel::new(0, 2);
        }
        let health = HealthField::new(grid, 2);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(!r.begin_job(&job(), &health));
    }

    #[test]
    fn resynthesizes_on_health_change() {
        let dims = ChipDims::new(20, 10);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &full_health(dims)));
        // Degrade a cell inside the bounds mid-job.
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        grid[Cell::new(6, 2)] = HealthLevel::new(1, 2);
        let changed = HealthField::new(grid, 2);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &changed);
        assert_eq!(r.resynth_count(), 1);
    }

    #[test]
    fn static_config_never_resynthesizes() {
        let dims = ChipDims::new(20, 10);
        let mut r = AdaptiveRouter::new(AdaptiveConfig {
            resynthesize: false,
            ..AdaptiveConfig::paper()
        });
        assert!(r.begin_job(&job(), &full_health(dims)));
        let mut grid = Grid::new(dims, HealthLevel::full(2));
        grid[Cell::new(6, 2)] = HealthLevel::new(1, 2);
        let changed = HealthField::new(grid, 2);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &changed);
        assert_eq!(r.resynth_count(), 0);
    }

    #[test]
    fn warm_up_prefills_the_library() {
        let dims = ChipDims::new(60, 30);
        let plan = meda_bioassay::RjHelper::new(dims)
            .plan(&meda_bioassay::benchmarks::master_mix())
            .unwrap();
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        let stored = r.warm_up(&plan, &health);
        assert!(stored > 0);
        assert_eq!(r.library().len(), stored);
        // The first real job on the still-healthy chip is a library hit.
        let job = plan
            .operations()
            .iter()
            .flat_map(|mo| mo.jobs.iter())
            .find(|j| !j.is_dispense() && !j.goal.contains_rect(j.start))
            .copied()
            .unwrap();
        let hits_before = r.library().hits();
        assert!(r.begin_job(&job, &health));
        assert!(r.library().hits() > hits_before);
    }

    #[test]
    fn pure_online_never_stores_strategies() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::pure_online());
        assert!(r.begin_job(&job(), &health));
        assert!(r.begin_job(&job(), &health));
        assert!(r.library().is_empty());
        assert_eq!(r.library().hits(), 0);
        assert!(r.synthesis_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn hazard_shift_triggers_resynthesis_like_a_health_change() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        // A peer corridor appears inside the bounds mid-job: the scoped
        // digest changes and the next action re-solves.
        r.set_hazards(&[meda_core::HazardBox::soft(Rect::new(6, 1, 9, 6), 0.3)]);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &health);
        assert_eq!(r.resynth_count(), 1);
        // Releasing the corridor is another shift.
        r.set_hazards(&[]);
        let _ = r.next_action(Rect::new(3, 1, 5, 3), &health);
        assert_eq!(r.resynth_count(), 2);
    }

    #[test]
    fn hazards_outside_the_bounds_do_not_perturb_the_job() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        r.set_hazards(&[meda_core::HazardBox::wall(Rect::new(18, 9, 19, 10))]);
        let _ = r.next_action(Rect::new(2, 1, 4, 3), &health);
        assert_eq!(r.resynth_count(), 0, "far-away hazard must be invisible");
    }

    #[test]
    fn hazard_wall_still_reaches_the_goal_through_the_gap() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        // Wall off rows 1..=6 of column 8 with a hazard instead of dead
        // cells: same detour behaviour as `avoids_dead_wall_when_gap_exists`
        // — the job stays feasible and completes via the row 7–8 gap.
        r.set_hazards(&[meda_core::HazardBox::wall(Rect::new(8, 1, 8, 6))]);
        assert!(r.begin_job(&job(), &health), "hazard must not kill the job");
        let mut droplet = Rect::new(1, 1, 3, 3);
        for _ in 0..100 {
            if job().goal.contains_rect(droplet) {
                return;
            }
            let a = r.next_action(droplet, &health).expect("action");
            droplet = a.apply(droplet);
        }
        panic!("never reached the goal");
    }

    #[test]
    fn persistent_cache_serves_translated_jobs_across_router_instances() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let dir = std::path::Path::new("target")
            .join("test-adaptive-cache")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);

        let mut cold = AdaptiveRouter::with_cache(AdaptiveConfig::paper(), &dir, 8).unwrap();
        assert!(cold.begin_job(&job(), &health));
        let stats = cold.cache_stats().unwrap();
        assert_eq!(stats.inserts, 1, "cold synthesis persisted");

        // A different router process (fresh library!) routes a translated
        // copy of the same job: canonical cache hit, no synthesis.
        let translated = RoutingJob::new(
            Rect::new(3, 2, 5, 4),
            Rect::new(14, 2, 16, 4),
            Rect::new(3, 2, 18, 9),
        );
        let mut warm = AdaptiveRouter::with_cache(AdaptiveConfig::paper(), &dir, 8).unwrap();
        assert!(warm.begin_job(&translated, &health));
        let stats = warm.cache_stats().unwrap();
        assert_eq!(stats.hits(), 1, "translated job answered from disk");
        assert_eq!(stats.inserts, 0);
        // The warm strategy routes the translated job to its goal.
        let mut droplet = translated.start;
        for _ in 0..100 {
            if translated.goal.contains_rect(droplet) {
                return;
            }
            let a = warm.next_action(droplet, &health).expect("action");
            droplet = a.apply(droplet);
        }
        panic!("never reached the goal");
    }

    #[test]
    fn default_router_never_touches_a_cache() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        assert!(
            r.cache_stats().is_none(),
            "default path must stay cache-free"
        );
    }

    #[test]
    fn library_serves_repeat_jobs() {
        let dims = ChipDims::new(20, 10);
        let health = full_health(dims);
        let mut r = AdaptiveRouter::new(AdaptiveConfig::paper());
        assert!(r.begin_job(&job(), &health));
        assert!(r.begin_job(&job(), &health));
        assert!(r.library().hits() >= 1);
    }
}
