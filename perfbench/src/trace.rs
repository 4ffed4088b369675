//! Traced-run plumbing: bench-side spans kept in memory and written out as
//! Chrome trace-event JSON when the run ends, plus deltas of the program's
//! own meda-telemetry span totals and counters.
//!
//! Every bench-side span is timed at a public seam (a call into
//! meda-sim, meda-synth or meda-core made from this benchmark); the
//! program's internal spans (`mdp.build`, `solve.rmin`, …) are captured
//! from the global registry while a traced round runs. Both use the
//! registry's clock, so the two streams line up on one time axis.

use std::path::Path;

use meda_telemetry::{global, Json, Summary};

use crate::stats::ratio;
use crate::Report;

/// Spans retained for the trace file; later spans still count in the
/// aggregates but are not written out, so a long run cannot grow the file
/// without bound.
const MAX_EVENTS: usize = 100_000;

/// Nanoseconds on the telemetry registry's clock.
pub fn now_ns() -> u64 {
    global().now_ns()
}

/// One complete span.
#[derive(Debug, Clone)]
struct Event {
    name: String,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span store for one traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Vec<Event>,
    dropped: u64,
}

impl Tracer {
    /// Records a bench-side span.
    pub fn span(&mut self, name: &str, start_ns: u64, dur_ns: u64) {
        self.push(name.to_string(), "bench", start_ns, dur_ns);
    }

    fn push(&mut self, name: String, cat: &'static str, start_ns: u64, dur_ns: u64) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(Event {
                name,
                cat,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Starts capturing the program's own span events.
    pub fn capture_program(&self) {
        global().set_capture(true);
    }

    /// Stops capturing and moves the program's captured span events in.
    pub fn collect_program(&mut self) {
        global().set_capture(false);
        for e in global().take_events() {
            let leaf = e.path.rsplit('/').next().unwrap_or(&e.path).to_string();
            self.push(leaf, "program", e.start_ns, e.dur_ns);
        }
    }

    /// The trace as a Chrome trace-event document (`ph: "X"` complete
    /// events, microsecond timestamps, one process and thread).
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("name".into(), Json::str(e.name.as_str())),
                    ("cat".into(), Json::str(e.cat)),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::Num(e.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(e.dur_ns as f64 / 1e3)),
                    ("pid".into(), Json::u64(1)),
                    ("tid".into(), Json::u64(1)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::str("ms")),
            (
                "otherData".into(),
                Json::Obj(vec![
                    ("workload".into(), Json::str(workload)),
                    ("seed".into(), Json::u64(seed)),
                    ("dropped_events".into(), Json::u64(self.dropped)),
                ]),
            ),
        ])
    }

    /// Writes the trace to `path`.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed).to_string())
    }
}

/// Traced wall time over untraced wall time on the same inputs. Round `i`
/// of each list ran back to back; the first pair is left out, because
/// untraced round 0 also warms caches up.
pub fn overhead(plain_wall_ns: &[u64], traced_wall_ns: &[u64]) -> f64 {
    let skip = usize::from(plain_wall_ns.len() > 1);
    let sum = |w: &[u64]| w.iter().skip(skip).sum::<u64>() as f64;
    ratio(sum(traced_wall_ns), sum(plain_wall_ns))
}

/// A snapshot of the global registry, for deltas around a traced region.
pub struct Snapshot(Summary);

impl Snapshot {
    /// Snapshots the global registry now.
    pub fn take() -> Self {
        Self(global().summary())
    }

    /// How much counter `name` grew since this snapshot.
    pub fn counter_delta(&self, now: &Summary, name: &str) -> u64 {
        now.counter(name)
            .unwrap_or(0)
            .saturating_sub(self.0.counter(name).unwrap_or(0))
    }

    /// How much time the outermost spans named in `leaves` gained since
    /// this snapshot, in nanoseconds. A span nested under another listed
    /// span is not counted twice.
    pub fn span_delta_ns(&self, now: &Summary, leaves: &[&str]) -> u64 {
        outermost_ns(now, leaves).saturating_sub(outermost_ns(&self.0, leaves))
    }

    /// Growth of histogram `name` since this snapshot, as `(count, sum)`.
    pub fn histogram_delta(&self, now: &Summary, name: &str) -> (u64, u64) {
        let get = |s: &Summary| {
            s.histograms
                .iter()
                .find(|h| h.name == name)
                .map_or((0, 0), |h| (h.snapshot.count, h.snapshot.sum))
        };
        let (c1, s1) = get(now);
        let (c0, s0) = get(&self.0);
        (c1.saturating_sub(c0), s1.wrapping_sub(s0))
    }
}

/// What the program's own telemetry recorded during one traced region:
/// the meda-core MDP builder, the meda-synth solver and the meda-sim
/// engine's per-run counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProgramDelta {
    mdp_build_ns: u64,
    mdp_builds: u64,
    mdp_states: u64,
    mdp_transitions: u64,
    memo_hits: u64,
    memo_misses: u64,
    solve_ns: u64,
    rmin_iterations: u64,
    pq_pops: u64,
    warm_start_used: u64,
    scc_components: u64,
    sim_cycles: u64,
    actuate_ns: u64,
    sense_ns: u64,
    sense_reads: u64,
    sense_mismatches: u64,
}

impl ProgramDelta {
    /// Everything recorded since `snap`.
    pub fn since(snap: &Snapshot) -> Self {
        let now = global().summary();
        let c = |name| snap.counter_delta(&now, name);
        Self {
            mdp_build_ns: snap.span_delta_ns(&now, &["mdp.build"]),
            mdp_builds: c("core.mdp.builds"),
            mdp_states: c("core.mdp.states"),
            mdp_transitions: c("core.mdp.transitions"),
            memo_hits: c("core.mdp.frontier_memo_hits"),
            memo_misses: c("core.mdp.frontier_memo_misses"),
            solve_ns: snap.span_delta_ns(&now, &["solve.rmin", "solve.pmax"]),
            rmin_iterations: c("synth.solve.rmin.iterations"),
            pq_pops: c("synth.solve.pq.pops"),
            warm_start_used: c("synth.solve.warm_start.used"),
            scc_components: c("synth.solve.scc.components"),
            sim_cycles: c("sim.cycles"),
            actuate_ns: c("sim.phase.actuate_ns"),
            sense_ns: c("sim.phase.sense_ns"),
            sense_reads: c("sim.sense.reads"),
            sense_mismatches: c("sim.sense.mismatches"),
        }
    }

    /// Accumulates another region's figures.
    pub fn add(&mut self, o: &Self) {
        self.mdp_build_ns += o.mdp_build_ns;
        self.mdp_builds += o.mdp_builds;
        self.mdp_states += o.mdp_states;
        self.mdp_transitions += o.mdp_transitions;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.solve_ns += o.solve_ns;
        self.rmin_iterations += o.rmin_iterations;
        self.pq_pops += o.pq_pops;
        self.warm_start_used += o.warm_start_used;
        self.scc_components += o.scc_components;
        self.sim_cycles += o.sim_cycles;
        self.actuate_ns += o.actuate_ns;
        self.sense_ns += o.sense_ns;
        self.sense_reads += o.sense_reads;
        self.sense_mismatches += o.sense_mismatches;
    }

    /// Simulated cycles recorded.
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }

    /// Sets the `core.*`, `synth.solve*` and `sim.*` per-layer metrics,
    /// per round over `rounds` traced rounds.
    pub fn report(&self, report: &mut Report, rounds: f64) {
        let per = |v: u64| v as f64 / rounds;
        report.set("core.mdp.build_ms", per(self.mdp_build_ns) / 1e6);
        report.set("core.mdp.builds", per(self.mdp_builds));
        report.set("core.mdp.states", per(self.mdp_states));
        report.set("core.mdp.transitions", per(self.mdp_transitions));
        report.set(
            "core.frontier_memo_hit_ratio",
            ratio(
                self.memo_hits as f64,
                (self.memo_hits + self.memo_misses) as f64,
            ),
        );
        report.set("synth.solve_ms", per(self.solve_ns) / 1e6);
        report.set("synth.solve.rmin.iterations", per(self.rmin_iterations));
        report.set("synth.solve.pq.pops", per(self.pq_pops));
        report.set("synth.solve.warm_start.used", per(self.warm_start_used));
        report.set("synth.solve.scc.components", per(self.scc_components));
        report.set("sim.cycles", per(self.sim_cycles));
        report.set("sim.phase.actuate_ns", per(self.actuate_ns));
        report.set("sim.phase.sense_ns", per(self.sense_ns));
        report.set("sim.sense.reads", per(self.sense_reads));
        report.set("sim.sense.mismatches", per(self.sense_mismatches));
    }
}

fn outermost_ns(summary: &Summary, leaves: &[&str]) -> u64 {
    summary
        .spans
        .iter()
        .filter(|s| {
            let mut segments = s.path.split('/').rev();
            let leaf = segments.next().unwrap_or("");
            leaves.contains(&leaf) && !segments.any(|a| leaves.contains(&a))
        })
        .map(|s| s.total_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let mut t = Tracer::default();
        t.span("assay.run", 1_000, 2_500);
        let text = t.to_json("w", 3).to_string();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.5));
    }
}
