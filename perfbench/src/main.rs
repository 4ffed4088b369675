//! The repository benchmark: three closed-loop workloads over the public
//! APIs of meda-sim, meda-synth and meda-core, one client on one thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reuse-adaptive|fleet-chaos|serve-replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! All inputs are generated from `--seed`. With `--trace 0` the run prints
//! the end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced rounds, prints the per-layer metrics, and writes the traced
//! spans as Chrome trace-event JSON. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `NOTES.md` beside this crate explains every workload and metric.
#![forbid(unsafe_code)]

mod serve;
mod sim;
mod stats;
mod trace;

use meda_telemetry::{Json, Stopwatch};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("latency_us_p99", "us"),
    ("pos", "ratio"),
    ("completion", "ratio"),
    ("cycles_mean", "cycles"),
    ("hit_rate", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Times and counts
/// are per round (one pass over the workload's inputs) unless the name
/// says otherwise; a layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bioassay.plan_ms", "ms"),
    ("router.begin_job_ms", "ms"),
    ("router.next_action_ms", "ms"),
    ("router.set_hazards_ms", "ms"),
    ("router.calls", "count"),
    ("router.resynth", "count"),
    ("router.synthesis_ms", "ms"),
    ("router.set_hazards", "count"),
    ("scheduler.ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.us_per_cycle", "us"),
    ("sim.cycles", "count"),
    ("sim.phase.actuate_ns", "ns"),
    ("sim.phase.sense_ns", "ns"),
    ("sim.sense.reads", "count"),
    ("sim.sense.mismatches", "count"),
    ("fleet.stall_cycles", "count"),
    ("fleet.peak_active", "count"),
    ("fleet.failed_ops", "count"),
    ("fleet.skipped_ops", "count"),
    ("core.mdp.build_ms", "ms"),
    ("core.mdp.builds", "count"),
    ("core.mdp.states", "count"),
    ("core.mdp.transitions", "count"),
    ("core.frontier_memo_hit_ratio", "ratio"),
    ("synth.solve_ms", "ms"),
    ("synth.solve.rmin.iterations", "count"),
    ("synth.solve.pq.pops", "count"),
    ("synth.solve.warm_start.used", "count"),
    ("synth.solve.scc.components", "count"),
    ("synth.library.hit_ratio", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.canonicalize_us", "us"),
    ("serve.lookup_mem_us", "us"),
    ("serve.lookup_disk_us", "us"),
    ("serve.lookup_miss_us", "us"),
    ("serve.synthesize_ms", "ms"),
    ("serve.persist_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.cold_us", "us"),
    ("serve.mem_hit_us", "us"),
    ("serve.disk_hit_us", "us"),
    ("serve.mdp_builds_per_cold", "count"),
    ("serve.mdp_builds_per_mem_hit", "count"),
    ("serve.mdp_builds_per_disk_hit", "count"),
    ("synth.cache.mem_hits", "count"),
    ("synth.cache.disk_hits", "count"),
    ("synth.cache.misses", "count"),
    ("synth.cache.rejected", "count"),
    ("synth.cache.inserts", "count"),
    ("synth.cache.entry_bytes_mean", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// A run builds its inputs at least `MIN_SETUPS` times, and more while
/// its set-ups so far took under `SETUP_BUDGET_S`, at most `MAX_SETUPS`
/// times. `setup_s` is the median. A sub-millisecond set-up is timed
/// hundreds of times across a second, because a shared VM's speed wanders
/// on that time scale: on a 2-vCPU VM a median over a few milliseconds
/// varied by ±30% from run to run.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 1.0;

/// Builds a workload's inputs repeatedly (see [`MIN_SETUPS`]); `build`
/// returns the inputs and its planning time in ms. Returns the last
/// inputs, the median set-up seconds and the median planning ms.
pub fn set_up<I>(
    mut build: impl FnMut() -> Result<(I, f64), String>,
) -> Result<(I, f64, f64), String> {
    let (mut setup_s, mut plan_ms) = (Vec::new(), Vec::new());
    loop {
        let t0 = Stopwatch::start();
        let (inputs, plan) = build()?;
        setup_s.push(t0.elapsed_ns() as f64 / 1e9);
        plan_ms.push(plan);
        let n = setup_s.len();
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S) {
            return Ok((
                inputs,
                stats::median(&mut setup_s),
                stats::median(&mut plan_ms),
            ));
        }
    }
}

/// A seed for input stream `stream`, item `index`, derived from the run's
/// `--seed` (splitmix64 finalizer), so every generated input is a pure
/// function of the command line.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut x = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_add(1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// The measuring time, `--seconds`, in nanoseconds.
    pub budget_ns: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            budget_ns: (seconds.ok_or("missing --seconds")? * 1e9) as u64,
            trace: trace.unwrap_or(false),
        })
    }

    /// Scratch directory for this process (cache files, trace output),
    /// under the cargo target directory so it stays inside the checkout.
    pub fn work_dir(&self) -> PathBuf {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        target.join("perfbench")
    }

    /// Where the traced run writes its Chrome trace.
    pub fn trace_path(&self) -> PathBuf {
        self.work_dir()
            .join(format!("trace-{}-seed{}.json", self.workload, self.seed))
    }
}

/// The result line under construction.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// Benchmark operations attempted (assay runs, or serve requests).
    pub attempted: u64,
    /// Operations that failed a check, errored or panicked.
    pub failed: u64,
}

impl Report {
    /// Sets metric `name` (which must appear in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records one failed operation, with the reason on standard error.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("check failed: {why}");
    }

    /// The result line. End-to-end metrics must all have been set; a
    /// per-layer metric of a layer the workload never enters reads 0.
    fn to_json(&self, trace: bool) -> Result<Json, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is {v}")),
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            metrics.push((
                (*name).to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::str(*unit)),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let ran = match args.workload.as_str() {
        "reuse-adaptive" => sim::reuse_adaptive(&args, &mut report),
        "fleet-chaos" => sim::fleet_chaos(&args, &mut report),
        "serve-replay" => serve::serve_replay(&args, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    report.set(
        "ok_share",
        (1.0 - stats::ratio(report.failed as f64, report.attempted as f64)).max(0.0),
    );
    report.set("peak_rss_mib", stats::peak_rss_mib());
    match report.to_json(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit, or the benchmark file and the binary
    /// disagree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv = [
            "--workload",
            "fleet-chaos",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ];
        let a = Args::parse(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.workload, "fleet-chaos");
        assert_eq!(a.seed, 7);
        assert_eq!(a.budget_ns, 3_000_000_000);
        assert!(a.trace);
        assert!(Args::parse(["--seed", "x"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn result_line_refuses_a_missing_end_to_end_metric() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        assert!(r.to_json(false).is_err());
        // The traced table fills layers a workload never enters with 0.
        assert!(r.to_json(true).is_ok());
    }
}
