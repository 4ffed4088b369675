//! Persistent, content-addressed strategy cache — the `meda-cache/1`
//! on-disk store behind `meda serve` and the adaptive router's warm path
//! (DESIGN.md §16).
//!
//! Each entry is one JSON file named by the canonical job's FNV digest
//! (`<16 hex>.json`), written with the in-tree [`meda_telemetry::Json`]
//! writer. The entry embeds the **full canonical job** (geometry, action
//! configuration, query, hazards, force patch) alongside the strategy, so
//! a load can re-derive the digest from first principles and rebuild the
//! exact MDP the strategy claims to solve.
//!
//! Floats are stored as 16-hex-digit IEEE-754 bit patterns, never as JSON
//! numbers: strategy values can be `∞` (`Json::num` degrades non-finite
//! values to `null`) and force/value bits must round-trip exactly for the
//! digest and the value-transparency oracle to hold.
//!
//! **Validation on load**: a cache entry is untrusted input. Before a
//! loaded strategy is used it must (1) re-encode to the digest it is filed
//! under and match the requesting job field-for-field, (2) rebuild its
//! MDP, and (3) pass the cheap `meda-audit` totality/closure pass
//! ([`meda_audit::audit_strategy`]) against that model. Corrupt or forged
//! entries are counted, rejected, and fall back to cold synthesis — a bad
//! cache can cost time, never correctness.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use meda_audit::{audit_strategy, ModelArtifact, ValueKind};
use meda_core::{Action, ActionConfig, HazardBox};
use meda_grid::Rect;
use meda_telemetry::{global, Json};

use crate::{CanonicalJob, Query, RoutingStrategy, MAX_JOB_DIM, MAX_JOB_HAZARDS};

/// On-disk schema identifier of a cache entry.
pub const CACHE_SCHEMA: &str = "meda-cache/1";

/// Hit/miss/rejection counters of a [`PersistentCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs answered from the in-memory LRU tier.
    pub mem_hits: u64,
    /// Jobs answered from disk (validated, then promoted to memory).
    pub disk_hits: u64,
    /// Jobs found in neither tier.
    pub misses: u64,
    /// Disk entries rejected by validation (corrupt, forged, or stale).
    pub rejected: u64,
    /// Strategies persisted via [`PersistentCache::insert`].
    pub inserts: u64,
}

impl CacheStats {
    /// Total hits across both tiers.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }
}

#[derive(Debug)]
struct MemEntry {
    strategy: Arc<RoutingStrategy>,
    tick: u64,
}

/// A persistent, content-addressed strategy cache with an LRU-bounded
/// in-memory tier over a `meda-cache/1` directory.
#[derive(Debug)]
pub struct PersistentCache {
    dir: PathBuf,
    capacity: usize,
    entries: BTreeMap<u64, MemEntry>,
    tick: u64,
    stats: CacheStats,
}

impl PersistentCache {
    /// Opens (creating if needed) a cache directory, keeping at most
    /// `capacity` strategies resident in memory.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of strategies resident in the memory tier.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn entry_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.json"))
    }

    fn touch(&mut self, digest: u64) -> Option<Arc<RoutingStrategy>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&digest).map(|e| {
            e.tick = tick;
            Arc::clone(&e.strategy)
        })
    }

    fn admit(&mut self, digest: u64, strategy: Arc<RoutingStrategy>) {
        self.tick += 1;
        while self.entries.len() >= self.capacity && !self.entries.contains_key(&digest) {
            let coldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(d, _)| *d);
            match coldest {
                Some(d) => {
                    self.entries.remove(&d);
                }
                None => break,
            }
        }
        self.entries.insert(
            digest,
            MemEntry {
                strategy,
                tick: self.tick,
            },
        );
    }

    /// Looks up the strategy for a canonical job: memory tier first, then
    /// disk (validated before use and promoted on success). `None` is a
    /// miss — including the case where a disk entry existed but failed
    /// validation.
    pub fn get(&mut self, job: &CanonicalJob) -> Option<Arc<RoutingStrategy>> {
        let digest = job.digest();
        if let Some(hit) = self.touch(digest) {
            self.stats.mem_hits += 1;
            global().add("synth.cache.mem_hits", 1);
            return Some(hit);
        }
        let path = self.entry_path(digest);
        let start_ns = global().now_ns();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.stats.misses += 1;
                global().add("synth.cache.misses", 1);
                return None;
            }
        };
        global()
            .histogram("synth.cache.entry_bytes")
            .record(text.len() as u64);
        match rehydrate(&text, Some(job)) {
            Ok((strategy, _)) => {
                global()
                    .histogram("synth.cache.load_ns")
                    .record(global().now_ns().saturating_sub(start_ns));
                let arc = Arc::new(strategy);
                self.admit(digest, Arc::clone(&arc));
                self.stats.disk_hits += 1;
                global().add("synth.cache.disk_hits", 1);
                Some(arc)
            }
            Err(_) => {
                self.stats.rejected += 1;
                self.stats.misses += 1;
                global().add("synth.cache.rejected", 1);
                global().add("synth.cache.misses", 1);
                None
            }
        }
    }

    /// Persists a freshly synthesized strategy for `job` and admits it to
    /// the memory tier.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the entry write.
    pub fn insert(
        &mut self,
        job: &CanonicalJob,
        strategy: RoutingStrategy,
    ) -> io::Result<Arc<RoutingStrategy>> {
        let digest = job.digest();
        let text = serialize_entry(job, &strategy).to_string();
        let path = self.entry_path(digest);
        let tmp = self
            .dir
            .join(format!("{digest:016x}.tmp.{}", std::process::id()));
        fs::write(&tmp, &text)?;
        fs::rename(&tmp, &path)?;
        global()
            .histogram("synth.cache.entry_bytes")
            .record(text.len() as u64);
        self.stats.inserts += 1;
        global().add("synth.cache.inserts", 1);
        let arc = Arc::new(strategy);
        self.admit(digest, Arc::clone(&arc));
        Ok(arc)
    }

    /// Validates every entry file in the cache directory, returning the
    /// number of sound entries or the list of `(path, reason)` failures.
    /// Used by `meda serve --check-cache`.
    ///
    /// # Errors
    ///
    /// Returns the failure list if any entry is unreadable, unparsable,
    /// misfiled, or fails the audit pass.
    pub fn validate_all(&self) -> Result<usize, Vec<(PathBuf, String)>> {
        let mut ok = 0usize;
        let mut bad = Vec::new();
        let mut paths: Vec<PathBuf> = match fs::read_dir(&self.dir) {
            Ok(rd) => rd
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect(),
            Err(e) => return Err(vec![(self.dir.clone(), format!("read_dir: {e}"))]),
        };
        paths.sort();
        for path in paths {
            let verdict = fs::read_to_string(&path)
                .map_err(|e| format!("read: {e}"))
                .and_then(|text| rehydrate(&text, None))
                .and_then(|(_, job)| {
                    // The file must be filed under its own digest.
                    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                    let actual = format!("{:016x}", job.digest());
                    if stem == actual {
                        Ok(())
                    } else {
                        Err(format!("misfiled: digest {actual} under name {stem}"))
                    }
                });
            match verdict {
                Ok(()) => ok += 1,
                Err(reason) => bad.push((path, reason)),
            }
        }
        if bad.is_empty() {
            Ok(ok)
        } else {
            Err(bad)
        }
    }
}

/// FNV-1a digest over the strategy body (choice indices and value bits) —
/// detects bit-rot and forged values, which the structural audit pass
/// cannot see (it validates choices against the model, not value bits).
fn strategy_digest(choice: &[Option<Action>], values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        hash ^= word;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for c in choice {
        mix(match c {
            None => u64::MAX,
            Some(a) => Action::ALL.iter().position(|b| b == a).unwrap_or(0) as u64,
        });
    }
    for v in values {
        mix(v.to_bits());
    }
    hash
}

fn hex_bits(f: f64) -> Json {
    Json::str(format!("{:016x}", f.to_bits()))
}

fn parse_hex_bits(j: &Json) -> Result<f64, String> {
    let s = j.as_str().ok_or("expected hex-bits string")?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad hex bits {s:?}: {e}"))
}

fn rect_json(r: Rect) -> Json {
    Json::Arr(vec![
        Json::num(r.xa),
        Json::num(r.ya),
        Json::num(r.xb),
        Json::num(r.yb),
    ])
}

fn parse_rect(j: &Json) -> Result<Rect, String> {
    let a = j.as_arr().ok_or("expected rect array")?;
    if a.len() != 4 {
        return Err(format!("rect needs 4 coords, got {}", a.len()));
    }
    let mut c = [0i32; 4];
    for (i, v) in a.iter().enumerate() {
        let f = v.as_f64().ok_or("rect coord not a number")?;
        c[i] = f as i32;
    }
    Rect::try_new(c[0], c[1], c[2], c[3]).map_err(|e| format!("bad rect: {e:?}"))
}

fn query_tag(q: Query) -> &'static str {
    match q {
        Query::MaxReachProbability => "pmax",
        Query::MinExpectedCycles => "rmin",
    }
}

fn parse_query(j: &Json) -> Result<Query, String> {
    match j.as_str() {
        Some("pmax") => Ok(Query::MaxReachProbability),
        Some("rmin") => Ok(Query::MinExpectedCycles),
        other => Err(format!("unknown query tag {other:?}")),
    }
}

/// Serializes a canonical job plus its synthesized strategy into one
/// `meda-cache/1` entry document.
fn serialize_entry(job: &CanonicalJob, strategy: &RoutingStrategy) -> Json {
    let body_choice: Vec<Option<Action>> = (0..strategy.mdp().len())
        .map(|i| strategy.decide(strategy.mdp().state(i)))
        .collect();
    let choice: Vec<Json> = body_choice
        .iter()
        .map(|c| match c {
            None => Json::Null,
            Some(a) => {
                let idx = Action::ALL.iter().position(|b| b == a).unwrap_or(0);
                Json::u64(idx as u64)
            }
        })
        .collect();
    let values: Vec<Json> = strategy.values().iter().map(|&v| hex_bits(v)).collect();
    Json::Obj(vec![
        ("schema".into(), Json::str(CACHE_SCHEMA)),
        ("digest".into(), Json::str(format!("{:016x}", job.digest()))),
        ("width".into(), Json::u64(u64::from(job.width))),
        ("height".into(), Json::u64(u64::from(job.height))),
        ("start".into(), rect_json(job.start)),
        ("goal".into(), rect_json(job.goal)),
        (
            "config".into(),
            Json::Obj(vec![
                (
                    "aspect_ratio_max".into(),
                    hex_bits(job.config.aspect_ratio_max),
                ),
                ("double_step".into(), Json::Bool(job.config.double_step)),
                ("ordinal".into(), Json::Bool(job.config.ordinal)),
                ("morphing".into(), Json::Bool(job.config.morphing)),
            ]),
        ),
        ("query".into(), Json::str(query_tag(job.query))),
        (
            "strategy_query".into(),
            Json::str(query_tag(strategy.query())),
        ),
        (
            "hazards".into(),
            Json::Arr(
                job.hazards
                    .iter()
                    .map(|b| {
                        Json::Arr(vec![
                            Json::num(b.rect.xa),
                            Json::num(b.rect.ya),
                            Json::num(b.rect.xb),
                            Json::num(b.rect.yb),
                            hex_bits(b.factor),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "forces".into(),
            Json::Arr(job.forces.iter().map(|&f| hex_bits(f)).collect()),
        ),
        ("choice".into(), Json::Arr(choice)),
        ("values".into(), Json::Arr(values)),
        (
            "strategy_digest".into(),
            Json::str(format!(
                "{:016x}",
                strategy_digest(&body_choice, strategy.values())
            )),
        ),
    ])
}

/// Parses and fully validates one entry document. When `expected` is given
/// (the requesting job), the embedded job must match it field-for-field;
/// either way the embedded job must re-encode to the digest the entry
/// claims, its MDP must rebuild, and the strategy must pass the
/// totality/closure audit against that model.
fn rehydrate(
    text: &str,
    expected: Option<&CanonicalJob>,
) -> Result<(RoutingStrategy, CanonicalJob), String> {
    let doc = Json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(CACHE_SCHEMA) {
        return Err("bad or missing schema".into());
    }
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing field {k}"));
    let width = field("width")?.as_f64().ok_or("width not a number")? as u32;
    let height = field("height")?.as_f64().ok_or("height not a number")? as u32;
    if width == 0 || height == 0 || width > MAX_JOB_DIM || height > MAX_JOB_DIM {
        return Err(format!("implausible dims {width}x{height}"));
    }
    let start = parse_rect(field("start")?)?;
    let goal = parse_rect(field("goal")?)?;
    let cfg = field("config")?;
    let config = ActionConfig {
        aspect_ratio_max: parse_hex_bits(cfg.get("aspect_ratio_max").ok_or("missing aspect")?)?,
        double_step: matches!(cfg.get("double_step"), Some(Json::Bool(true))),
        ordinal: matches!(cfg.get("ordinal"), Some(Json::Bool(true))),
        morphing: matches!(cfg.get("morphing"), Some(Json::Bool(true))),
    };
    let query = parse_query(field("query")?)?;
    let strategy_query = parse_query(field("strategy_query")?)?;
    let hazards = field("hazards")?.as_arr().ok_or("hazards not an array")?;
    if hazards.len() > MAX_JOB_HAZARDS {
        return Err(format!(
            "{} hazards, limit {MAX_JOB_HAZARDS}",
            hazards.len()
        ));
    }
    let hazards = hazards
        .iter()
        .map(|j| {
            let a = j.as_arr().ok_or("hazard not an array")?;
            if a.len() != 5 {
                return Err(format!("hazard needs 5 fields, got {}", a.len()));
            }
            let mut c = [0i32; 4];
            for (i, v) in a.iter().take(4).enumerate() {
                c[i] = v.as_f64().ok_or("hazard coord not a number")? as i32;
            }
            Ok(HazardBox {
                rect: Rect::try_new(c[0], c[1], c[2], c[3])
                    .map_err(|e| format!("bad hazard rect: {e:?}"))?,
                factor: parse_hex_bits(&a[4])?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let forces = field("forces")?
        .as_arr()
        .ok_or("forces not an array")?
        .iter()
        .map(parse_hex_bits)
        .collect::<Result<Vec<_>, String>>()?;
    if forces.len() != width as usize * height as usize {
        return Err(format!(
            "force patch has {} cells, dims say {}",
            forces.len(),
            width as usize * height as usize
        ));
    }
    let job = CanonicalJob {
        width,
        height,
        start,
        goal,
        forces,
        hazards,
        config,
        query,
    };
    let claimed = doc.get("digest").and_then(Json::as_str).unwrap_or("");
    let actual = format!("{:016x}", job.digest());
    if claimed != actual {
        return Err(format!(
            "digest mismatch: claimed {claimed}, actual {actual}"
        ));
    }
    if let Some(want) = expected {
        if job != *want {
            return Err("entry does not match the requesting job".into());
        }
    }
    let mdp = job
        .build_mdp()
        .map_err(|e| format!("model rebuild failed: {e:?}"))?;
    let choice = field("choice")?
        .as_arr()
        .ok_or("choice not an array")?
        .iter()
        .map(|j| match j {
            Json::Null => Ok(None),
            _ => {
                let idx = j.as_f64().ok_or("choice not null or index")? as usize;
                Action::ALL
                    .get(idx)
                    .copied()
                    .map(Some)
                    .ok_or_else(|| format!("action index {idx} out of range"))
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let values = field("values")?
        .as_arr()
        .ok_or("values not an array")?
        .iter()
        .map(parse_hex_bits)
        .collect::<Result<Vec<_>, String>>()?;
    if choice.len() != mdp.len() || values.len() != mdp.len() {
        return Err(format!(
            "strategy length {}/{} vs {} states",
            choice.len(),
            values.len(),
            mdp.len()
        ));
    }
    let claimed_body = doc
        .get("strategy_digest")
        .and_then(Json::as_str)
        .unwrap_or("");
    let actual_body = format!("{:016x}", strategy_digest(&choice, &values));
    if claimed_body != actual_body {
        return Err(format!(
            "strategy digest mismatch: claimed {claimed_body}, actual {actual_body}"
        ));
    }
    let kind = match strategy_query {
        Query::MaxReachProbability => ValueKind::Reachability,
        Query::MinExpectedCycles => ValueKind::ExpectedCycles,
    };
    let violations = audit_strategy(&ModelArtifact::from(&mdp), &choice, &values, kind);
    if !violations.is_empty() {
        return Err(format!(
            "audit rejected entry: {} violation(s), first: {:?}",
            violations.len(),
            violations.first()
        ));
    }
    let strategy = RoutingStrategy::from_parts(mdp, choice, values, strategy_query)
        .ok_or("strategy reassembly failed")?;
    Ok((strategy, job))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonicalize;
    use meda_core::UniformField;

    fn temp_cache(tag: &str) -> PersistentCache {
        let dir = std::path::Path::new("target")
            .join("test-cache")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PersistentCache::open(dir, 8).expect("open cache")
    }

    fn sample_job(force: f64) -> CanonicalJob {
        canonicalize(
            Rect::new(1, 1, 2, 2),
            Rect::new(6, 4, 7, 5),
            Rect::new(1, 1, 7, 5),
            &UniformField::new(force),
            &[],
            &ActionConfig::default(),
            Query::MinExpectedCycles,
        )
        .0
    }

    #[test]
    fn round_trip_preserves_digest_values_and_choices() {
        let mut cache = temp_cache("round-trip");
        let job = sample_job(0.9);
        let strategy = job.synthesize().expect("synth");
        let values_before = strategy.values().to_vec();
        cache.insert(&job, strategy).expect("insert");

        // A fresh cache instance over the same directory must answer from
        // disk with bit-identical values.
        let mut warm = PersistentCache::open(cache.dir(), 8).expect("reopen");
        let loaded = warm.get(&job).expect("disk hit");
        assert_eq!(warm.stats().disk_hits, 1);
        assert_eq!(loaded.values().len(), values_before.len());
        for (a, b) in loaded.values().iter().zip(&values_before) {
            assert_eq!(a.to_bits(), b.to_bits(), "values must round-trip exactly");
        }
        // Second lookup hits the memory tier.
        let _ = warm.get(&job).expect("mem hit");
        assert_eq!(warm.stats().mem_hits, 1);
    }

    #[test]
    fn corrupt_entry_is_rejected_and_counted() {
        let mut cache = temp_cache("corrupt");
        let job = sample_job(0.9);
        let strategy = job.synthesize().expect("synth");
        cache.insert(&job, strategy).expect("insert");
        let path = cache.entry_path(job.digest());
        let mut text = fs::read_to_string(&path).expect("read");
        // Forge a value: flip one hex digit inside the values array.
        let idx = text.rfind("\"values\":").expect("values field");
        let tail = &text[idx..];
        let quote = idx + tail.find("\"3").unwrap_or(tail.find("\"4").unwrap_or(12)) + 1;
        let mut bytes = text.clone().into_bytes();
        bytes[quote] = if bytes[quote] == b'3' { b'4' } else { b'3' };
        text = String::from_utf8(bytes).expect("utf8");
        fs::write(&path, text).expect("rewrite");

        let mut warm = PersistentCache::open(cache.dir(), 8).expect("reopen");
        assert!(warm.get(&job).is_none(), "forged entry must not load");
        assert_eq!(warm.stats().rejected, 1);
        assert!(warm.validate_all().is_err(), "check-cache must flag it");
    }

    #[test]
    fn lru_bounds_the_memory_tier() {
        let dir = std::path::Path::new("target")
            .join("test-cache")
            .join(format!("lru-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut cache = PersistentCache::open(&dir, 2).expect("open");
        for force in [0.7, 0.8, 0.9] {
            let job = sample_job(force);
            let strategy = job.synthesize().expect("synth");
            cache.insert(&job, strategy).expect("insert");
        }
        assert_eq!(cache.resident(), 2, "LRU capacity respected");
        // Evicted entries are still on disk.
        let mut hits = 0;
        for force in [0.7, 0.8, 0.9] {
            if cache.get(&sample_job(force)).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 3, "all entries recoverable from disk");
    }

    #[test]
    fn validate_all_passes_on_sound_store() {
        let mut cache = temp_cache("validate");
        for force in [0.85, 0.95] {
            let job = sample_job(force);
            let strategy = job.synthesize().expect("synth");
            cache.insert(&job, strategy).expect("insert");
        }
        assert_eq!(cache.validate_all().expect("sound"), 2);
    }

    #[test]
    fn misfiled_entry_fails_validation() {
        let mut cache = temp_cache("misfiled");
        let job = sample_job(0.9);
        let strategy = job.synthesize().expect("synth");
        cache.insert(&job, strategy).expect("insert");
        // A sound entry copied under another job's digest.
        let other = sample_job(0.8).digest();
        fs::copy(cache.entry_path(job.digest()), cache.entry_path(other)).expect("copy");
        let bad = cache.validate_all().expect_err("misfiled entry must fail");
        assert_eq!(bad.len(), 1, "only the copy is misfiled: {bad:?}");
        assert_eq!(bad[0].0, cache.entry_path(other));
        assert!(bad[0].1.contains("misfiled"), "reason: {}", bad[0].1);
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let job = sample_job(0.9);
        let strategy = job.synthesize().expect("synth");
        let text = serialize_entry(&job, &strategy).to_string();
        let big = format!("\"width\":{}", MAX_JOB_DIM + 1);
        let wide = text.replacen(&format!("\"width\":{}", job.width), &big, 1);
        let err = rehydrate(&wide, None).expect_err("dims over the limit");
        assert!(err.contains("implausible dims"), "{err}");
        let hazard = "[1,1,1,1,\"3fe0000000000000\"]";
        let many = vec![hazard; MAX_JOB_HAZARDS + 1].join(",");
        let crowded = text.replacen("\"hazards\":[]", &format!("\"hazards\":[{many}]"), 1);
        let err = rehydrate(&crowded, None).expect_err("hazards over the limit");
        assert!(err.contains("limit"), "{err}");
    }
}
