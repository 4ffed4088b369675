//! The synthesis-service engine behind `meda serve` (DESIGN.md §16).
//!
//! Requests are newline-delimited JSON routing jobs; each is canonicalized
//! ([`crate::canonicalize`]), answered from the persistent
//! content-addressed cache when possible, and synthesized (in canonical
//! frame, then persisted) otherwise. Because the **cold path also solves
//! the canonical frame**, a cold response and a later warm response for
//! the same orbit carry bit-identical values — the two-run byte-identity
//! the `serve-smoke` CI stage asserts.
//!
//! Responses carry no hit/miss provenance; cache statistics go to the
//! caller via [`BatchOutcome::stats`] (the CLI prints them to stderr), so
//! stdout is a pure function of the request stream.
//!
//! [`run_batch`] is the deterministic replay path: requests are answered
//! in input order, sharded across a `std::thread::scope` worker pool by
//! canonical digest (so every repeat of an orbit lands on the worker that
//! already holds it in its memory tier). [`run_stream`] drives the same
//! engine over an interactive line stream; `drift` requests re-synthesize
//! asynchronously with respect to the submitting client — they are just
//! work items for the pool.

use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use std::sync::mpsc;
use std::thread;

use meda_core::{ActionConfig, HazardBox, RawField};
use meda_grid::{ChipDims, Grid, Rect};
use meda_telemetry::Json;

use crate::cache::{CacheStats, PersistentCache};
use crate::canonical::{canonicalize, CanonicalJob, JobTransform, MAX_JOB_DIM, MAX_JOB_HAZARDS};
use crate::Query;

/// Longest request line `meda serve` accepts, in bytes. It admits a
/// full-precision per-cell `cells` patch at the [`MAX_JOB_DIM`] limit
/// (about 22 bytes a cell) and bounds what one line can make the parser
/// allocate; longer lines get an `error` response and are never buffered
/// whole.
pub const MAX_REQUEST_BYTES: usize = 8 << 20;

fn oversized_line() -> String {
    format!("request line exceeds {MAX_REQUEST_BYTES} bytes")
}

/// Operation requested by one serve line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Synthesize-or-fetch a strategy and return value + nominal path.
    Route,
    /// Health drift: pre-warm the cache for the new force patch. The
    /// response acknowledges; the synthesized strategy stays cached.
    Drift,
}

/// One parsed serve request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// The requested operation.
    pub op: ServeOp,
    /// Hazard bounds of the routing job.
    pub bounds: Rect,
    /// Start droplet.
    pub start: Rect,
    /// Goal region.
    pub goal: Rect,
    /// Effective force per bounds cell, row-major (length `w·h`).
    pub forces: Vec<f64>,
    /// Hazard boxes (absolute coordinates; may cross the bounds).
    pub hazards: Vec<HazardBox>,
    /// Action configuration.
    pub config: ActionConfig,
    /// Synthesis query.
    pub query: Query,
}

/// A request that already went through canonicalization — the unit of
/// work the pool shards by canonical digest.
struct Prepared {
    index: usize,
    request: ServeRequest,
    job: CanonicalJob,
    transform: JobTransform,
}

fn parse_rect_arr(j: &Json) -> Result<Rect, String> {
    let a = j.as_arr().ok_or("expected [xa,ya,xb,yb]")?;
    if a.len() != 4 {
        return Err(format!("rect needs 4 coords, got {}", a.len()));
    }
    let mut c = [0i32; 4];
    for (i, v) in a.iter().enumerate() {
        c[i] = v.as_f64().ok_or("rect coord not a number")? as i32;
    }
    Rect::try_new(c[0], c[1], c[2], c[3]).map_err(|e| format!("bad rect: {e:?}"))
}

/// Parses one newline-delimited request document.
///
/// Schema: `{"id": str, "op": "route"|"drift", "bounds": [xa,ya,xb,yb],
/// "start": [...], "goal": [...], "force": f | "cells": [f,...],
/// "hazards": [[xa,ya,xb,yb,factor],...], "query": "rmin"|"pmax",
/// "config": {"aspect_ratio_max": f, "double_step": b, "ordinal": b,
/// "morphing": b}}` — `hazards`, `query`, `config`, and `op` optional.
///
/// Sizes are capped before anything is allocated for them: the line at
/// [`MAX_REQUEST_BYTES`], the bounds' chip coordinates at [`MAX_JOB_DIM`]
/// (the limit cache entries are held to on load), and the hazard list at
/// [`MAX_JOB_HAZARDS`].
///
/// # Errors
///
/// Returns a human-readable reason for malformed or oversized requests.
pub fn parse_request(line: &str) -> Result<ServeRequest, String> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err(oversized_line());
    }
    let doc = Json::parse(line)?;
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .ok_or("missing string field id")?
        .to_string();
    let op = match doc.get("op").and_then(Json::as_str) {
        None | Some("route") => ServeOp::Route,
        Some("drift") => ServeOp::Drift,
        Some(other) => return Err(format!("unknown op {other:?}")),
    };
    let bounds = parse_rect_arr(doc.get("bounds").ok_or("missing bounds")?)?;
    let start = parse_rect_arr(doc.get("start").ok_or("missing start")?)?;
    let goal = parse_rect_arr(doc.get("goal").ok_or("missing goal")?)?;
    if bounds.xa < 1 || bounds.ya < 1 {
        return Err("bounds must lie in chip coordinates (xa, ya ≥ 1)".into());
    }
    let limit = MAX_JOB_DIM as i32;
    if bounds.xb > limit || bounds.yb > limit {
        return Err(format!(
            "bounds must lie within a {MAX_JOB_DIM}x{MAX_JOB_DIM} chip (xb, yb ≤ {MAX_JOB_DIM})"
        ));
    }
    if !bounds.contains_rect(start) || !bounds.contains_rect(goal) {
        return Err("start and goal must lie within bounds".into());
    }
    let cell_count = bounds.width() as usize * bounds.height() as usize;
    let forces = if let Some(cells) = doc.get("cells") {
        let arr = cells.as_arr().ok_or("cells not an array")?;
        if arr.len() != cell_count {
            return Err(format!(
                "cells has {} entries, bounds {}x{} needs {}",
                arr.len(),
                bounds.width(),
                bounds.height(),
                cell_count
            ));
        }
        arr.iter()
            .map(|j| {
                let f = j.as_f64().ok_or("cell force not a number")?;
                if (0.0..=1.0).contains(&f) {
                    Ok(f)
                } else {
                    Err(format!("cell force {f} outside [0, 1]"))
                }
            })
            .collect::<Result<Vec<_>, String>>()?
    } else {
        let f = doc
            .get("force")
            .and_then(Json::as_f64)
            .ok_or("missing force (uniform) or cells (per-cell)")?;
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("force {f} outside [0, 1]"));
        }
        vec![f; cell_count]
    };
    let hazard_count = doc
        .get("hazards")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    if hazard_count > MAX_JOB_HAZARDS {
        return Err(format!("{hazard_count} hazards, limit {MAX_JOB_HAZARDS}"));
    }
    let hazards = match doc.get("hazards") {
        None => Vec::new(),
        Some(h) => h
            .as_arr()
            .ok_or("hazards not an array")?
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
                let factor = a[4].as_f64().ok_or("hazard factor not a number")?;
                if !(0.0..=1.0).contains(&factor) {
                    return Err(format!("hazard factor {factor} outside [0, 1]"));
                }
                Ok(HazardBox {
                    rect: Rect::try_new(c[0], c[1], c[2], c[3])
                        .map_err(|e| format!("bad hazard rect: {e:?}"))?,
                    factor,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    let query = match doc.get("query").and_then(Json::as_str) {
        None | Some("rmin") => Query::MinExpectedCycles,
        Some("pmax") => Query::MaxReachProbability,
        Some(other) => return Err(format!("unknown query {other:?}")),
    };
    let config = match doc.get("config") {
        None => ActionConfig::default(),
        Some(c) => ActionConfig {
            aspect_ratio_max: c
                .get("aspect_ratio_max")
                .and_then(Json::as_f64)
                .unwrap_or(ActionConfig::default().aspect_ratio_max),
            double_step: !matches!(c.get("double_step"), Some(Json::Bool(false))),
            ordinal: !matches!(c.get("ordinal"), Some(Json::Bool(false))),
            morphing: !matches!(c.get("morphing"), Some(Json::Bool(false))),
        },
    };
    Ok(ServeRequest {
        id,
        op,
        bounds,
        start,
        goal,
        forces,
        hazards,
        config,
        query,
    })
}

fn canonicalize_request(request: ServeRequest, index: usize) -> Prepared {
    // The request's forces are row-major over its bounds; lift them into a
    // chip-sized grid so the canonicalizer can read them as a field.
    let dims = ChipDims::new(request.bounds.xb as u32, request.bounds.yb as u32);
    let bounds = request.bounds;
    let w = bounds.width() as usize;
    let grid = Grid::from_fn(dims, |cell| {
        if bounds.contains_cell(cell) {
            let u = (cell.x - bounds.xa) as usize;
            let v = (cell.y - bounds.ya) as usize;
            request.forces.get(v * w + u).copied().unwrap_or(0.0)
        } else {
            0.0
        }
    });
    let field = RawField::new(grid);
    let (job, transform) = canonicalize(
        request.start,
        request.goal,
        request.bounds,
        &field,
        &request.hazards,
        &request.config,
        request.query,
    );
    Prepared {
        index,
        request,
        job,
        transform,
    }
}

fn error_response(id: &str, reason: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::str(id)),
        ("status".into(), Json::str("error")),
        ("error".into(), Json::str(reason)),
    ])
    .to_string()
}

/// Resolves one prepared request against a cache: hit in O(lookup),
/// synthesis on miss (canonical frame, persisted for the next caller).
fn resolve(cache: &mut PersistentCache, p: &Prepared) -> String {
    let strategy = match cache.get(&p.job) {
        Some(s) => s,
        None => match p.job.synthesize() {
            Some(s) => match cache.insert(&p.job, s) {
                Ok(arc) => arc,
                Err(e) => return error_response(&p.request.id, &format!("cache write: {e}")),
            },
            None => {
                return Json::Obj(vec![
                    ("id".into(), Json::str(&p.request.id)),
                    ("status".into(), Json::str("infeasible")),
                ])
                .to_string()
            }
        },
    };
    if p.request.op == ServeOp::Drift {
        return Json::Obj(vec![
            ("id".into(), Json::str(&p.request.id)),
            ("status".into(), Json::str("ok")),
            ("op".into(), Json::str("drift")),
            ("prewarmed".into(), Json::Bool(true)),
        ])
        .to_string();
    }
    // Map the canonical-frame answer back to the request frame.
    let canon_path = strategy.nominal_path();
    let mut path = Vec::with_capacity(canon_path.len());
    let mut actions = Vec::new();
    for (i, rc) in canon_path.iter().enumerate() {
        let r = p.transform.from_canonical_rect(*rc);
        path.push(Json::Arr(vec![
            Json::num(r.xa),
            Json::num(r.ya),
            Json::num(r.xb),
            Json::num(r.yb),
        ]));
        if i + 1 < canon_path.len() {
            if let Some(a) = strategy.decide(*rc) {
                actions.push(Json::str(p.transform.from_canonical_action(a).to_string()));
            }
        }
    }
    let value = strategy.value_at_init();
    let query_tag = match strategy.query() {
        Query::MaxReachProbability => "pmax",
        Query::MinExpectedCycles => "rmin",
    };
    Json::Obj(vec![
        ("id".into(), Json::str(&p.request.id)),
        ("status".into(), Json::str("ok")),
        ("query".into(), Json::str(query_tag)),
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

/// A single-threaded serve engine over one persistent cache — the unit a
/// worker owns, and the driver `bench_serve` times.
pub struct ServeEngine {
    cache: PersistentCache,
}

impl ServeEngine {
    /// Opens the engine over a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures.
    pub fn open(cache_dir: impl Into<std::path::PathBuf>, capacity: usize) -> io::Result<Self> {
        Ok(Self {
            cache: PersistentCache::open(cache_dir, capacity)?,
        })
    }

    /// Handles one request line, returning one response line.
    pub fn handle(&mut self, line: &str) -> String {
        match parse_request(line) {
            Ok(request) => {
                let prepared = canonicalize_request(request, 0);
                resolve(&mut self.cache, &prepared)
            }
            Err(reason) => error_response("", &format!("parse: {reason}")),
        }
    }

    /// The cache counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Validates every on-disk entry; see
    /// [`PersistentCache::validate_all`].
    ///
    /// # Errors
    ///
    /// Returns the `(path, reason)` failure list.
    pub fn validate_cache(&self) -> Result<usize, Vec<(std::path::PathBuf, String)>> {
        self.cache.validate_all()
    }
}

/// The outcome of a batch run: responses in request order plus the merged
/// cache statistics of all workers.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One response line per request line, in input order.
    pub responses: Vec<String>,
    /// Merged worker cache statistics.
    pub stats: CacheStats,
}

fn merge(into: &mut CacheStats, s: CacheStats) {
    into.mem_hits += s.mem_hits;
    into.disk_hits += s.disk_hits;
    into.misses += s.misses;
    into.rejected += s.rejected;
    into.inserts += s.inserts;
}

/// Deterministic batch replay: every input line is answered, in order,
/// sharded by canonical digest across `workers` scoped threads (each with
/// its own view of the shared cache directory — shards are disjoint by
/// construction, so no two workers touch the same entry file).
///
/// # Errors
///
/// Propagates cache-directory creation failures; malformed requests
/// produce `status: "error"` responses instead of failing the batch.
pub fn run_batch(
    lines: &[String],
    cache_dir: &Path,
    capacity: usize,
    workers: usize,
) -> io::Result<BatchOutcome> {
    let mut responses: Vec<Option<String>> = vec![None; lines.len()];
    let mut prepared = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            responses[i] = Some(String::new());
            continue;
        }
        match parse_request(line) {
            Ok(req) => prepared.push(canonicalize_request(req, i)),
            Err(reason) => responses[i] = Some(error_response("", &format!("parse: {reason}"))),
        }
    }
    let workers = workers.max(1);
    let mut stats = CacheStats::default();
    if workers == 1 || prepared.len() <= 1 {
        let mut cache = PersistentCache::open(cache_dir, capacity)?;
        for p in &prepared {
            responses[p.index] = Some(resolve(&mut cache, p));
        }
        merge(&mut stats, cache.stats());
    } else {
        // Disjoint shards by canonical digest: an orbit always lands on
        // the same worker, so repeats hit that worker's memory tier.
        let mut shards: Vec<Vec<Prepared>> = Vec::new();
        shards.resize_with(workers, Vec::new);
        for p in prepared {
            let w = (p.job.digest() % workers as u64) as usize;
            shards[w].push(p);
        }
        let (tx, rx) = mpsc::channel::<(usize, String)>();
        let (stx, srx) = mpsc::channel::<io::Result<CacheStats>>();
        thread::scope(|scope| {
            for shard in &shards {
                let tx = tx.clone();
                let stx = stx.clone();
                scope.spawn(move || {
                    let mut cache = match PersistentCache::open(cache_dir, capacity) {
                        Ok(c) => c,
                        Err(e) => {
                            let _ = stx.send(Err(e));
                            return;
                        }
                    };
                    for p in shard {
                        let _ = tx.send((p.index, resolve(&mut cache, p)));
                    }
                    let _ = stx.send(Ok(cache.stats()));
                });
            }
        });
        drop(tx);
        drop(stx);
        for (index, response) in rx {
            responses[index] = Some(response);
        }
        for s in srx {
            merge(&mut stats, s?);
        }
    }
    Ok(BatchOutcome {
        responses: responses
            .into_iter()
            .map(|r| r.unwrap_or_default())
            .collect(),
        stats,
    })
}

/// Long-running line-stream front end: reads newline-delimited requests
/// from `input` until EOF, writes one response line per request to
/// `output` (flushed per line, so interactive clients see answers
/// immediately). Single engine, in-order — the worker pool applies to
/// [`run_batch`], where the full request set is known up front.
///
/// # Errors
///
/// Propagates I/O errors from the transport and cache-directory creation.
pub fn run_stream(
    mut input: impl BufRead,
    mut output: impl Write,
    cache_dir: &Path,
    capacity: usize,
) -> io::Result<CacheStats> {
    let mut engine = ServeEngine::open(cache_dir, capacity)?;
    let mut buf = Vec::new();
    while read_capped_line(&mut input, &mut buf)? {
        let response = if buf.len() > MAX_REQUEST_BYTES {
            error_response("", &format!("parse: {}", oversized_line()))
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => engine.handle(line),
                Err(_) => error_response("", "parse: request line is not UTF-8"),
            }
        };
        writeln!(output, "{response}")?;
        output.flush()?;
    }
    Ok(engine.stats())
}

/// Reads the next line into `buf` without its `\n` / `\r\n` ending. At
/// most `MAX_REQUEST_BYTES + 2` bytes are buffered, enough to tell a line
/// at the limit with a `\r\n` ending from an oversized one; the rest of an
/// oversized line is skipped. Returns `false` at end of input.
fn read_capped_line(input: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    let cap = MAX_REQUEST_BYTES as u64 + 2;
    if (&mut *input).take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(true);
    }
    loop {
        let chunk = input.fill_buf()?;
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                input.consume(i + 1);
                return Ok(true);
            }
            None if chunk.is_empty() => return Ok(true),
            None => {
                let len = chunk.len();
                input.consume(len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new("target")
            .join("test-serve")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn request(id: &str, dx: i32, dy: i32) -> String {
        format!(
            r#"{{"id":"{id}","bounds":[{},{},{},{}],"start":[{},{},{},{}],"goal":[{},{},{},{}],"force":0.9}}"#,
            1 + dx,
            1 + dy,
            8 + dx,
            6 + dy,
            1 + dx,
            1 + dy,
            2 + dx,
            2 + dy,
            7 + dx,
            5 + dy,
            8 + dx,
            6 + dy,
        )
    }

    #[test]
    fn translated_requests_share_one_cache_entry() {
        let dir = temp_dir("translated");
        let lines = vec![request("a", 0, 0), request("b", 5, 3), request("c", 11, 2)];
        let out = run_batch(&lines, &dir, 8, 1).expect("batch");
        assert_eq!(out.stats.inserts, 1, "one canonical orbit, one entry");
        assert_eq!(out.stats.hits(), 2, "translations are cache hits");
        // All three answers carry the same optimal value bits.
        let bits: Vec<&str> = out
            .responses
            .iter()
            .map(|r| {
                Json::parse(r)
                    .ok()
                    .and_then(|d| {
                        d.get("value_bits")
                            .and_then(|v| v.as_str().map(String::from))
                    })
                    .map(|s| Box::leak(s.into_boxed_str()) as &str)
                    .expect("value_bits")
            })
            .collect();
        assert_eq!(bits[0], bits[1]);
        assert_eq!(bits[1], bits[2]);
    }

    #[test]
    fn two_runs_are_byte_identical() {
        let dir = temp_dir("determinism");
        let lines = vec![request("a", 0, 0), request("b", 4, 1), request("a2", 0, 0)];
        let cold = run_batch(&lines, &dir, 8, 1).expect("cold");
        let warm = run_batch(&lines, &dir, 8, 1).expect("warm");
        assert_eq!(cold.responses, warm.responses);
        assert!(warm.stats.hits() >= 3, "second run fully warm");
        assert_eq!(warm.stats.inserts, 0);
    }

    #[test]
    fn worker_pool_matches_single_thread_responses() {
        let dir_a = temp_dir("pool-a");
        let dir_b = temp_dir("pool-b");
        let mut lines = Vec::new();
        for i in 0..6 {
            lines.push(request(&format!("r{i}"), i % 3, (i * 2) % 5));
        }
        let single = run_batch(&lines, &dir_a, 8, 1).expect("single");
        let pooled = run_batch(&lines, &dir_b, 8, 4).expect("pooled");
        assert_eq!(single.responses, pooled.responses);
    }

    #[test]
    fn malformed_and_infeasible_requests_are_reported() {
        let dir = temp_dir("errors");
        let lines = vec![
            "not json".to_string(),
            // Start walled off from the goal by zero-force cells.
            r#"{"id":"z","bounds":[1,1,3,1],"start":[1,1,1,1],"goal":[3,1,3,1],"cells":[0.9,0.0,0.9],"config":{"double_step":false,"ordinal":false,"morphing":false}}"#
                .to_string(),
        ];
        let out = run_batch(&lines, &dir, 8, 1).expect("batch");
        assert!(out.responses[0].contains("\"error\""));
        assert!(out.responses[1].contains("infeasible"));
    }

    #[test]
    fn oversized_requests_are_rejected_with_an_error() {
        let huge = r#"{"id":"h","bounds":[1,1,2000000000,2000000000],"start":[1,1,1,1],"goal":[2,2,2,2],"force":0.9}"#;
        let err = parse_request(huge).expect_err("huge bounds");
        assert!(err.contains("chip"), "{err}");
        let far = r#"{"id":"f","bounds":[99999,99999,100000,100000],"start":[99999,99999,99999,99999],"goal":[100000,100000,100000,100000],"force":0.9}"#;
        assert!(
            parse_request(far).is_err(),
            "a small patch far off the chip"
        );
        let edge = MAX_JOB_DIM as i32;
        let at_limit = format!(
            r#"{{"id":"e","bounds":[{a},{a},{edge},{edge}],"start":[{a},{a},{a},{a}],"goal":[{edge},{edge},{edge},{edge}],"force":0.9}}"#,
            a = edge - 3
        );
        assert!(
            parse_request(&at_limit).is_ok(),
            "the limit itself is admitted"
        );
        let hazard = "[1,1,2,2,0.5]";
        let crowded = request("c", 0, 0).replace(
            "\"force\"",
            &format!(
                "\"hazards\":[{}],\"force\"",
                vec![hazard; MAX_JOB_HAZARDS + 1].join(",")
            ),
        );
        assert!(parse_request(&crowded)
            .expect_err("hazards")
            .contains("limit"));
        let long = format!("{}{}", request("l", 0, 0), " ".repeat(MAX_REQUEST_BYTES));
        assert!(parse_request(&long)
            .expect_err("long line")
            .contains("exceeds"));

        // The engine answers each with an error line, and the stream keeps
        // serving the requests after them.
        let dir = temp_dir("oversized");
        let lines = vec![huge.to_string(), crowded, request("ok", 0, 0)];
        let out = run_batch(&lines, &dir, 8, 1).expect("batch");
        assert!(out.responses[0].contains("\"status\":\"error\""));
        assert!(out.responses[1].contains("\"status\":\"error\""));
        assert!(out.responses[2].contains("\"status\":\"ok\""));
        let mut at_max = request("m", 0, 0);
        at_max.push_str(&" ".repeat(MAX_REQUEST_BYTES - at_max.len()));
        let input = format!("{long}\n{huge}\r\n{at_max}\r\n{}", request("s", 0, 0));
        let mut output = Vec::new();
        run_stream(input.as_bytes(), &mut output, &dir, 8).expect("stream");
        let text = String::from_utf8(output).expect("utf8");
        let replies: Vec<&str> = text.lines().collect();
        assert_eq!(replies.len(), 4, "{text}");
        assert!(replies[0].contains("exceeds"));
        assert!(replies[1].contains("chip"));
        assert!(
            replies[2].contains("\"status\":\"ok\""),
            "a line at the limit is served"
        );
        assert!(replies[3].contains("\"status\":\"ok\""));
    }

    #[test]
    fn drift_prewarms_the_cache_for_later_routes() {
        let dir = temp_dir("drift");
        let drift = request("d", 0, 0).replace("\"id\":\"d\"", "\"id\":\"d\",\"op\":\"drift\"");
        let out = run_batch(&[drift, request("r", 0, 0)], &dir, 8, 1).expect("batch");
        assert!(out.responses[0].contains("prewarmed"));
        assert_eq!(out.stats.hits(), 1, "route after drift is a hit");
    }

    #[test]
    fn stream_mode_answers_each_line() {
        let dir = temp_dir("stream");
        let input = format!("{}\n{}\n", request("s1", 0, 0), request("s2", 2, 2));
        let mut output = Vec::new();
        let stats = run_stream(input.as_bytes(), &mut output, &dir, 8).expect("stream");
        let text = String::from_utf8(output).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.contains("\"status\":\"ok\"")));
        assert_eq!(stats.hits(), 1);
    }
}
