//! `meda` — command-line front end to the MEDA reproduction workspace.
//!
//! ```text
//! meda list                                  benchmark bioassays + stats
//! meda plan <assay>                          Table IV-style RJ decomposition
//! meda run <assay> [options]                 execute on a simulated chip
//! meda synth [options]                       synthesize one routing job
//! meda export-prism <assay> <job#> [--dir D] PRISM explicit-format export
//! meda audit <assay> [--force F] [--sound]   verify + certify every routed job
//! meda wear <assay> [options]                run repeatedly, print wear map
//! meda fleet <assay> [--n N] [--smoke]       concurrent fleet vs serial makespan
//! meda profile <assay> [--chaos]             per-stage time/percentage table
//! meda serve [--batch F] [--socket P]        synthesis service over the strategy cache
//! ```
//!
//! Run `meda <command> --help` (or no arguments) for the option lists.
#![forbid(unsafe_code)]

use std::process::ExitCode;

use meda::audit::{
    audit_solution, audit_solution_sound, evaluate_strategy, unsound_vi_fixture, ModelArtifact,
    ValueKind, CERTIFICATE_EPSILON,
};
use meda::bioassay::{benchmarks, BioassayPlan, RjHelper, SequencingGraph};
use meda::core::{ActionConfig, RoutingMdp, UniformField};
use meda::grid::{ChipDims, Rect};
use meda::sim::{
    dependency_exemption, experiment::FaultClass, render, AdaptiveConfig, AdaptivePool,
    AdaptiveRouter, BaselineRouter, BioassayRunner, Biochip, DegradationConfig, FaultMode,
    FaultPlan, FifoScheduler, FleetConfig, FleetOutcome, FleetRunner, RecoveryRouter, Router,
    RunConfig, Supervisor, SupervisorConfig,
};
use meda::synth::{
    max_reach_probability, min_expected_cycles_with_reach, synthesize, to_prism_explicit, Query,
    SolverOptions,
};
use meda_rng::SeedableRng;

const USAGE: &str = "\
meda — formal synthesis of adaptive droplet routing for MEDA biochips

USAGE:
  meda list
  meda plan <assay>
  meda run <assay> [--router adaptive|baseline|recovery] [--seed N]
                   [--faults uniform|clustered] [--fraction F] [--runs N]
                   [--k-max N] [--chaos[=stuck|cluster|rowloss|front]]
                   [--severity F] [--stuck-rate F] [--supervised] [--reconfig]
  meda synth [--area WxH] [--droplet WxH] [--force F] [--query rmin|pmax]
  meda export-prism <assay> <job-index>
  meda audit <assay> [--force F] [--sound]
  meda audit selftest-unsound [--sound]
  meda wear <assay> [--runs N] [--seed N]
  meda fleet <assay> [--n N] [--seed N] [--k-max N] [--smoke]
  meda check [--cases N] [--seed N] [--replay-only] [--smoke]
  meda profile <assay> [--chaos] [--seed N] [--k-max N]
               [--json PATH] [--events PATH]
  meda serve [--batch FILE] [--socket PATH] [--cache-dir DIR] [--workers N]
             [--capacity N] [--min-hits N] [--check-cache]

Assays: master-mix, covid-rat, cep, covid-pcr, nuip, serial-dilution";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("plan") => cmd_plan(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("export-prism") => cmd_export(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("wear") => cmd_wear(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn assay_by_name(name: &str) -> Result<SequencingGraph, String> {
    benchmarks::evaluation_suite()
        .into_iter()
        .find(|sg| sg.name() == name)
        .ok_or_else(|| format!("unknown assay '{name}' (see `meda list`)"))
}

fn plan_assay(name: &str) -> Result<BioassayPlan, String> {
    let sg = assay_by_name(name)?;
    RjHelper::new(ChipDims::PAPER)
        .plan(&sg)
        .map_err(|e| e.to_string())
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_size(text: &str) -> Result<(u32, u32), String> {
    let (w, h) = text
        .split_once('x')
        .ok_or_else(|| format!("expected WxH, got '{text}'"))?;
    Ok((
        w.parse().map_err(|_| format!("bad width '{w}'"))?,
        h.parse().map_err(|_| format!("bad height '{h}'"))?,
    ))
}

fn cmd_list() -> Result<(), String> {
    let helper = RjHelper::new(ChipDims::PAPER);
    println!(
        "{:18} {:>5} {:>6} {:>11}",
        "assay", "ops", "jobs", "transport"
    );
    for sg in benchmarks::evaluation_suite() {
        let plan = helper.plan(&sg).map_err(|e| e.to_string())?;
        println!(
            "{:18} {:>5} {:>6} {:>11.1}",
            sg.name(),
            plan.operations().len(),
            plan.total_jobs(),
            plan.total_transport()
        );
    }
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("usage: meda plan <assay>")?;
    let plan = plan_assay(name)?;
    println!(
        "{:6} {:5} {:>20} {:>20} {:>20}",
        "RJ", "type", "start", "goal", "bounds"
    );
    for mo in plan.operations() {
        for (j, job) in mo.jobs.iter().enumerate() {
            println!(
                "{:6} {:5} {:>20} {:>20} {:>20}",
                format!("RJ{}.{j}", mo.id + 1),
                mo.op.to_string(),
                job.start.to_string(),
                job.goal.to_string(),
                job.bounds.to_string()
            );
        }
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("usage: meda run <assay> [options]")?;
    let plan = plan_assay(name)?;
    let seed: u64 =
        flag(args, "--seed").map_or(Ok(1), |s| s.parse().map_err(|_| format!("bad seed '{s}'")))?;
    let runs: u32 = flag(args, "--runs").map_or(Ok(1), |s| {
        s.parse().map_err(|_| format!("bad run count '{s}'"))
    })?;
    let k_max: u64 = flag(args, "--k-max").map_or(Ok(2_000), |s| {
        s.parse().map_err(|_| format!("bad k-max '{s}'"))
    })?;
    let fraction: f64 = flag(args, "--fraction").map_or(Ok(0.05), |s| {
        s.parse().map_err(|_| format!("bad fraction '{s}'"))
    })?;
    let degradation = match flag(args, "--faults").as_deref() {
        None => DegradationConfig::paper(),
        Some("uniform") => DegradationConfig::paper_with_faults(FaultMode::Uniform, fraction),
        Some("clustered") => DegradationConfig::paper_with_faults(FaultMode::Clustered, fraction),
        Some(other) => return Err(format!("unknown fault mode '{other}'")),
    };
    let router_name = flag(args, "--router").unwrap_or_else(|| "adaptive".into());
    let mut router: Box<dyn Router> = match router_name.as_str() {
        "adaptive" => Box::new(AdaptiveRouter::new(AdaptiveConfig::paper())),
        "baseline" => Box::new(BaselineRouter::new()),
        "recovery" => Box::new(RecoveryRouter::new(8)),
        other => return Err(format!("unknown router '{other}'")),
    };

    // Chaos mode closes the sensing loop: the router sees Y-matrix
    // reconstructions, and the chosen fault class corrupts the run at
    // --severity. Bare `--chaos` keeps the classic stuck-sensor sweep;
    // `--chaos=<class>` selects a hard-chaos class from the degradation
    // matrix (see DESIGN.md §13).
    let chaos_class = args
        .iter()
        .find_map(|a| {
            if a == "--chaos" {
                Some(Ok(FaultClass::StuckSensors))
            } else {
                a.strip_prefix("--chaos=").map(|name| {
                    FaultClass::from_name(name).ok_or_else(|| {
                        format!("unknown chaos class '{name}' (stuck|cluster|rowloss|front)")
                    })
                })
            }
        })
        .transpose()?;
    let chaos_on = chaos_class.is_some();
    let supervised = args.iter().any(|a| a == "--supervised");
    let reconfig = args.iter().any(|a| a == "--reconfig");
    let severity: f64 = flag(args, "--severity")
        .or_else(|| flag(args, "--stuck-rate"))
        .map_or(Ok(0.02), |s| {
            s.parse().map_err(|_| format!("bad severity '{s}'"))
        })?;

    let mut rng = meda_rng::StdRng::seed_from_u64(seed);
    let mut chip = Biochip::generate(ChipDims::PAPER, &degradation, &mut rng);
    let config = RunConfig {
        k_max,
        record_actuation: false,
        sensed_feedback: chaos_on,
    };
    for run in 1..=runs {
        let chaos = match chaos_class {
            Some(class) => class.plan(ChipDims::PAPER, severity, k_max, &mut rng),
            None => FaultPlan::none(),
        };
        if supervised {
            let report = Supervisor::new(SupervisorConfig {
                run: config,
                reconfig_budget: if reconfig { 2 } else { 0 },
                ..SupervisorConfig::default()
            })
            .run(&plan, &mut chip, router.as_mut(), &chaos, &mut rng);
            println!(
                "run {run}: {:?} in {} cycles — {}/{} ops complete, \
                 ladder resense/resynth/detour/reconfig/abort {}/{}/{}/{}/{}",
                report.status,
                report.cycles,
                report.completed_ops,
                report.total_ops,
                report.rungs.resense,
                report.rungs.resynth,
                report.rungs.detour,
                report.rungs.reconfig,
                report.rungs.aborted_ops
            );
            for failure in &report.failures {
                println!(
                    "  aborted MO {} (job {}) after {} retries: {:?} near {}",
                    failure.mo, failure.job, failure.retries, failure.status, failure.last_position
                );
            }
            if !report.skipped.is_empty() {
                println!("  skipped dependents: {:?}", report.skipped);
            }
        } else {
            let outcome = BioassayRunner::new(config).run_with_chaos(
                &plan,
                &mut chip,
                router.as_mut(),
                &mut FifoScheduler::new(),
                &chaos,
                &mut rng,
            );
            println!(
                "run {run}: {:?} in {} cycles — {}/{} ops complete (total chip actuations {})",
                outcome.status,
                outcome.cycles,
                outcome.completed_ops,
                outcome.total_ops,
                chip.total_actuations()
            );
        }
    }
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let (aw, ah) = flag(args, "--area").map_or(Ok((20, 20)), |s| parse_size(&s))?;
    let (dw, dh) = flag(args, "--droplet").map_or(Ok((4, 4)), |s| parse_size(&s))?;
    let force: f64 = flag(args, "--force").map_or(Ok(0.9), |s| {
        s.parse().map_err(|_| format!("bad force '{s}'"))
    })?;
    let query = match flag(args, "--query").as_deref() {
        None | Some("rmin") => Query::MinExpectedCycles,
        Some("pmax") => Query::MaxReachProbability,
        Some(other) => return Err(format!("unknown query '{other}'")),
    };
    if dw >= aw || dh >= ah {
        return Err("droplet must be smaller than the area".into());
    }

    let start = Rect::with_size(1, 1, dw, dh);
    let goal = Rect::with_size(aw as i32 - dw as i32 + 1, ah as i32 - dh as i32 + 1, dw, dh);
    let bounds = Rect::new(1, 1, aw as i32, ah as i32);
    let mdp = RoutingMdp::build(
        start,
        goal,
        bounds,
        &UniformField::new(force),
        &ActionConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let stats = mdp.stats();
    println!(
        "model: {} states, {} transitions, {} choices (query {query})",
        stats.states, stats.transitions, stats.choices
    );
    let strategy = synthesize(&mdp, query).map_err(|e| e.to_string())?;
    println!("value at start: {:.4}", strategy.value_at_init());

    let rects = strategy.nominal_path();
    let mut rendered = vec![format!("{}", rects[0])];
    for pair in rects.windows(2) {
        let action = strategy.decide(pair[0]).expect("interior step");
        rendered.push(format!("-[{action}]-> {}", pair[1]));
    }
    println!("nominal path: {}", rendered.join(" "));
    println!(
        "policy map (anchor positions, north up):\n{}",
        strategy.policy_map()
    );
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let name = args
        .first()
        .ok_or("usage: meda export-prism <assay> <job-index>")?;
    let index: usize = args
        .get(1)
        .ok_or("usage: meda export-prism <assay> <job-index>")?
        .parse()
        .map_err(|_| "job index must be a number".to_string())?;
    let plan = plan_assay(name)?;
    let job = plan
        .operations()
        .iter()
        .flat_map(|mo| mo.jobs.iter())
        .filter(|j| !j.is_dispense())
        .nth(index)
        .ok_or_else(|| format!("assay has fewer than {} routed jobs", index + 1))?;
    let mdp = RoutingMdp::build(
        job.start,
        job.goal,
        job.bounds,
        &UniformField::new(0.9),
        &ActionConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let model = to_prism_explicit(&mdp);
    println!("== {name}-{index}.sta ==\n{}", model.states);
    println!("== {name}-{index}.tra ==\n{}", model.transitions);
    println!("== {name}-{index}.lab ==\n{}", model.labels);
    Ok(())
}

/// Audits every routed job of an assay: structural well-formedness of the
/// induced MDP, then a Bellman-residual certificate over the Pmax and Rmin
/// value vectors and a closure check on the synthesized strategy. With
/// `--sound`, additionally computes certified `[lo, hi]` interval-iteration
/// bounds over the MEC quotient, re-verifies them from scratch, and checks
/// that the shipped strategy's exact induced-chain value lies inside the
/// interval (DESIGN.md §14). The pseudo-assay `selftest-unsound` replays a
/// packaged end-component trap the residual certificate provably accepts:
/// it must pass the plain audit and be rejected under `--sound`, which is
/// what the CI `audit-sound-selftest` stage asserts. Exits nonzero if any
/// job fails, so CI can gate on it.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    let name = args
        .first()
        .ok_or("usage: meda audit <assay> [--force F] [--sound]")?;
    let sound = args.iter().any(|a| a == "--sound");
    if name == "selftest-unsound" {
        return audit_unsound_selftest(sound);
    }
    let force: f64 = flag(args, "--force").map_or(Ok(0.9), |s| {
        s.parse().map_err(|_| format!("bad force '{s}'"))
    })?;
    if !(force > 0.0 && force <= 1.0) {
        return Err(format!("force must be in (0, 1], got {force}"));
    }
    let plan = plan_assay(name)?;
    let field = UniformField::new(force);
    let mut audited = 0usize;
    let mut failed = 0usize;
    for (index, job) in plan
        .operations()
        .iter()
        .flat_map(|mo| mo.jobs.iter())
        .filter(|j| !j.is_dispense())
        .enumerate()
    {
        let mdp = RoutingMdp::build(
            job.start,
            job.goal,
            job.bounds,
            &field,
            &ActionConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let artifact = ModelArtifact::from(&mdp);
        let options = SolverOptions::default();
        let reach = max_reach_probability(&mdp, options);
        let cycles = min_expected_cycles_with_reach(&mdp, options, &reach);
        let stats = mdp.stats();
        for (kind, result) in [
            (ValueKind::Reachability, &reach),
            (ValueKind::ExpectedCycles, &cycles),
        ] {
            let (report, cert) = if sound {
                audit_solution_sound(
                    &artifact,
                    &result.values,
                    &result.choice,
                    kind,
                    CERTIFICATE_EPSILON,
                )
            } else {
                let report = audit_solution(
                    &artifact,
                    &result.values,
                    &result.choice,
                    kind,
                    CERTIFICATE_EPSILON,
                );
                (report, None)
            };
            audited += 1;
            if report.is_clean() {
                if let Some(cert) = &cert {
                    let attained = evaluate_strategy(&artifact, &result.choice, kind)
                        .map_or(f64::NAN, |eval| eval.values[artifact.init]);
                    println!(
                        "job {index} {} -> {} [{kind:?}]: sound \
                         (init in [{:.9}, {:.9}], width {:.3e} <= 2eps, \
                         strategy attains {:.9}, {} iterations, {} MECs)",
                        job.start,
                        job.goal,
                        cert.lo[artifact.init],
                        cert.hi[artifact.init],
                        cert.width,
                        attained,
                        cert.iterations,
                        cert.mecs
                    );
                } else {
                    println!(
                        "job {index} {} -> {} [{kind:?}]: ok ({} states, {} reachable)",
                        job.start, job.goal, stats.states, report.census.reachable
                    );
                }
            } else {
                failed += 1;
                println!(
                    "job {index} {} -> {} [{kind:?}]: FAILED",
                    job.start, job.goal
                );
                print!("{report}");
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {audited} audits failed"));
    }
    println!("{audited} audits clean");
    Ok(())
}

/// Replays the packaged end-component trap ([`unsound_vi_fixture`]): a
/// value vector that is an exact fixed point of the plain `Pmax` operator
/// (residual 0, so the Bellman-residual certificate accepts it) yet 0.4
/// above the true value, together with the strategy greedy with respect to
/// those bogus values, which never reaches the goal. The plain audit must
/// accept the whole solution — demonstrating the residual certificate's
/// blind spot — and `--sound` must reject it with a nonzero exit.
fn audit_unsound_selftest(sound: bool) -> Result<(), String> {
    let (artifact, values, strategy) = unsound_vi_fixture();
    let kind = ValueKind::Reachability;
    if !sound {
        let report = audit_solution(&artifact, &values, &strategy, kind, CERTIFICATE_EPSILON);
        if !report.is_clean() {
            println!("{report}");
            return Err("selftest fixture unexpectedly failed the plain audit".into());
        }
        println!(
            "selftest-unsound [{kind:?}]: ok — the residual certificate accepts a value \
             0.4 above the truth (an end-component fixed point); rerun with --sound to \
             see it rejected"
        );
        return Ok(());
    }
    let (report, cert) =
        audit_solution_sound(&artifact, &values, &strategy, kind, CERTIFICATE_EPSILON);
    if report.is_clean() {
        return Err("selftest fixture was NOT rejected by the sound audit".into());
    }
    if let Some(cert) = &cert {
        println!(
            "selftest-unsound [{kind:?}]: certified interval [{:.9}, {:.9}] at init \
             excludes the claimed value {:.1}",
            cert.lo[artifact.init], cert.hi[artifact.init], values[artifact.init]
        );
    }
    println!("{report}");
    Err("selftest-unsound rejected by the sound audit, as intended".into())
}

/// Runs the `meda-check` differential oracle suite: sim-vs-MDP step
/// semantics, sensing round-trip, and supervisor dominance. Failures are
/// shrunk and persisted to the shared corpus, which is replayed first on
/// the next invocation. Exits nonzero on any failure, so CI can gate on
/// it; `MEDA_CHECK_CASES` scales the budget without recompiling.
fn cmd_check(args: &[String]) -> Result<(), String> {
    use meda::check::{cases_from_env, default_corpus_dir, Config};

    let smoke = args.iter().any(|a| a == "--smoke");
    let default_cases = if smoke { 16 } else { 64 };
    let cases: usize = flag(args, "--cases").map_or_else(
        || Ok(cases_from_env(default_cases)),
        |s| s.parse().map_err(|_| format!("bad case count '{s}'")),
    )?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4D45_4441), |s| {
        s.parse().map_err(|_| format!("bad seed '{s}'"))
    })?;
    let mut config = Config::default()
        .with_cases(cases)
        .with_seed(seed)
        .with_corpus(default_corpus_dir());
    if args.iter().any(|a| a == "--replay-only") {
        config = config.replay_only();
    }

    let outcomes = meda::check::oracle::run_suite(&config);
    let mut failed = 0usize;
    for out in &outcomes {
        if out.passed {
            println!(
                "{:28} ok ({} cases, {} replayed)",
                out.name, out.cases, out.replayed
            );
        } else {
            failed += 1;
            println!("{:28} FAILED", out.name);
            if let Some(report) = &out.report {
                print!("{report}");
            }
        }
    }
    if failed > 0 {
        return Err(format!(
            "{failed} of {} properties failed (failure corpus: {})",
            outcomes.len(),
            default_corpus_dir().display()
        ));
    }
    Ok(())
}

/// Profiles one assay under full telemetry capture: prints the per-stage
/// time/percentage table, writes the aggregated `telemetry.json` summary
/// (default `target/telemetry.json`, override with `--json`), and — with
/// `--events PATH` — the raw JSONL span-event stream. Exits nonzero if
/// less than 90% of the measured run time is attributed to named stages,
/// so CI catches instrumentation rot.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: meda profile <assay> [--chaos] [--seed N] [--k-max N] [--json PATH] [--events PATH]")?;
    let mut options = meda::profile::ProfileOptions {
        chaos: args.iter().any(|a| a == "--chaos"),
        ..meda::profile::ProfileOptions::default()
    };
    if let Some(s) = flag(args, "--seed") {
        options.seed = s.parse().map_err(|_| format!("bad seed '{s}'"))?;
    }
    if let Some(s) = flag(args, "--k-max") {
        options.k_max = s.parse().map_err(|_| format!("bad k-max '{s}'"))?;
    }
    let json_path = flag(args, "--json").unwrap_or_else(|| "target/telemetry.json".into());

    let report = meda::profile::profile_assay(name, &options)?;
    println!("{}", report.outcome);
    println!();
    print!("{}", meda::profile::render_table(&report));

    let doc = meda::telemetry::export::summary_to_string(&report.summary);
    write_creating_parent(&json_path, &doc)?;
    println!("\nwrote {json_path}");
    if let Some(events_path) = flag(args, "--events") {
        let stream = meda::telemetry::export::events_to_jsonl(&report.events);
        write_creating_parent(&events_path, &stream)?;
        println!("wrote {events_path} ({} events)", report.events.len());
    }

    if report.coverage < 0.9 {
        return Err(format!(
            "span coverage {:.1}% is below the 90% bar — instrumentation no \
             longer covers the hot paths",
            100.0 * report.coverage
        ));
    }
    Ok(())
}

fn write_creating_parent(path: &str, contents: &str) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn cmd_wear(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("usage: meda wear <assay> [options]")?;
    let plan = plan_assay(name)?;
    let runs: u32 = flag(args, "--runs").map_or(Ok(3), |s| {
        s.parse().map_err(|_| format!("bad run count '{s}'"))
    })?;
    let seed: u64 =
        flag(args, "--seed").map_or(Ok(1), |s| s.parse().map_err(|_| format!("bad seed '{s}'")))?;
    let mut rng = meda_rng::StdRng::seed_from_u64(seed);
    let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
    let mut router = AdaptiveRouter::new(AdaptiveConfig::paper());
    let runner = BioassayRunner::new(RunConfig {
        k_max: 5_000,
        record_actuation: false,
        sensed_feedback: false,
    });
    for _ in 0..runs {
        let outcome = runner.run(&plan, &mut chip, &mut router, &mut rng);
        if !outcome.is_success() {
            println!("run aborted: {:?}", outcome.status);
            break;
        }
    }
    println!("wear after {runs} runs of {name} (log-scale buckets, north up):");
    println!("{}", render::wear_map(&chip));
    println!("\nhealth map:");
    println!("{}", render::health_map(chip.health_field(), &[]));
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let name = match args.first().map(String::as_str) {
        Some(n) if !n.starts_with("--") => n.to_string(),
        Some(_) | None if smoke => "master-mix".to_string(),
        _ => {
            return Err("usage: meda fleet <assay> [--n N] [--seed N] [--k-max N] [--smoke]".into())
        }
    };
    let plan = plan_assay(&name)?;
    let n: usize = flag(args, "--n").map_or(Ok(4), |s| {
        s.parse().map_err(|_| format!("bad fleet size '{s}'"))
    })?;
    let seed: u64 =
        flag(args, "--seed").map_or(Ok(1), |s| s.parse().map_err(|_| format!("bad seed '{s}'")))?;
    let k_max: u64 = flag(args, "--k-max").map_or(Ok(6_000), |s| {
        s.parse().map_err(|_| format!("bad cycle budget '{s}'"))
    })?;

    let run_at = |fleet_size: usize| -> FleetOutcome {
        let run = RunConfig {
            k_max,
            ..RunConfig::default()
        };
        let cfg = FleetConfig {
            record_movers: true,
            ..FleetConfig::concurrent(fleet_size, run)
        };
        let mut rng = meda_rng::StdRng::seed_from_u64(seed);
        let mut chip = Biochip::generate(ChipDims::PAPER, &DegradationConfig::paper(), &mut rng);
        let mut pool = AdaptivePool::new(AdaptiveConfig::paper());
        FleetRunner::new(cfg).run(
            &plan,
            &mut chip,
            &mut pool,
            &mut FifoScheduler::new(),
            &FaultPlan::none(),
            &mut rng,
        )
    };

    println!("fleet makespan for {name} (seed {seed}, paper-degraded 60x30 chip):");
    println!(
        "{:>4} {:>10} {:>6} {:>8} {:>9} {:>10}",
        "N", "cycles", "peak", "stalls", "speedup", "status"
    );
    let serial = run_at(1);
    let concurrent = run_at(n);
    for (size, outcome) in [(1, &serial), (n, &concurrent)] {
        println!(
            "{:>4} {:>10} {:>6} {:>8} {:>8.2}x {:>10}",
            size,
            outcome.cycles,
            outcome.peak_active,
            outcome.stall_cycles,
            serial.cycles as f64 / outcome.cycles as f64,
            format!("{:?}", outcome.status),
        );
    }

    // Separation audit over the concurrent run's movers log — the same
    // check the fleet oracle enforces, here as an end-to-end smoke.
    let log = concurrent.movers.as_ref().expect("recording enabled");
    let exempt = dependency_exemption(&plan);
    if let Some(v) = FleetConfig::default()
        .constraints
        .audit_exempting(log, exempt)
    {
        return Err(format!("fluidic separation violated: {v:?}"));
    }
    println!("separation audit: clean over {} cycles", log.len());

    if smoke {
        if !concurrent.is_success() {
            return Err(format!(
                "smoke: concurrent fleet (N={n}) ended {:?}",
                concurrent.status
            ));
        }
        if concurrent.cycles > serial.cycles {
            return Err(format!(
                "smoke: concurrent makespan {} exceeds serial {}",
                concurrent.cycles, serial.cycles
            ));
        }
        println!(
            "smoke: N={n} makespan {} <= serial {} with a clean separation audit",
            concurrent.cycles, serial.cycles
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use meda::synth::{run_batch, run_stream, ServeEngine};
    use std::io::Write;

    let cache_dir = std::path::PathBuf::from(
        flag(args, "--cache-dir").unwrap_or_else(|| "target/meda-cache".to_string()),
    );
    let capacity: usize = flag(args, "--capacity")
        .map(|s| s.parse().map_err(|_| format!("bad --capacity '{s}'")))
        .transpose()?
        .unwrap_or(256);
    let workers: usize = flag(args, "--workers")
        .map(|s| s.parse().map_err(|_| format!("bad --workers '{s}'")))
        .transpose()?
        .unwrap_or(4);
    let min_hits: u64 = flag(args, "--min-hits")
        .map(|s| s.parse().map_err(|_| format!("bad --min-hits '{s}'")))
        .transpose()?
        .unwrap_or(0);

    if args.iter().any(|a| a == "--check-cache") {
        let engine = ServeEngine::open(&cache_dir, capacity).map_err(|e| e.to_string())?;
        return match engine.validate_cache() {
            Ok(n) => {
                println!(
                    "cache {} sound: {n} entr{}",
                    cache_dir.display(),
                    if n == 1 { "y" } else { "ies" }
                );
                Ok(())
            }
            Err(bad) => {
                for (path, reason) in &bad {
                    eprintln!("corrupt entry {}: {reason}", path.display());
                }
                Err(format!("{} corrupt cache entr(ies)", bad.len()))
            }
        };
    }

    if let Some(batch) = flag(args, "--batch") {
        let text = std::fs::read_to_string(&batch).map_err(|e| format!("read {batch}: {e}"))?;
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let outcome =
            run_batch(&lines, &cache_dir, capacity, workers).map_err(|e| e.to_string())?;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for response in &outcome.responses {
            if !response.is_empty() {
                writeln!(out, "{response}").map_err(|e| e.to_string())?;
            }
        }
        out.flush().map_err(|e| e.to_string())?;
        let s = outcome.stats;
        eprintln!(
            "serve: {} requests, {} hits ({} mem, {} disk), {} misses, {} rejected, {} inserted",
            outcome.responses.iter().filter(|r| !r.is_empty()).count(),
            s.hits(),
            s.mem_hits,
            s.disk_hits,
            s.misses,
            s.rejected,
            s.inserts,
        );
        if s.hits() < min_hits {
            return Err(format!(
                "cache hits {} below --min-hits {min_hits}",
                s.hits()
            ));
        }
        return Ok(());
    }

    #[cfg(unix)]
    if let Some(socket) = flag(args, "--socket") {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).map_err(|e| format!("bind {socket}: {e}"))?;
        eprintln!("serve: listening on {socket}");
        for conn in listener.incoming() {
            let conn = conn.map_err(|e| e.to_string())?;
            let reader = std::io::BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
            let stats =
                run_stream(reader, conn, &cache_dir, capacity).map_err(|e| e.to_string())?;
            eprintln!(
                "serve: connection done, {} hits / {} misses",
                stats.hits(),
                stats.misses
            );
        }
        return Ok(());
    }

    let stdin = std::io::stdin();
    let stats = run_stream(stdin.lock(), std::io::stdout(), &cache_dir, capacity)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "serve: {} hits ({} mem, {} disk), {} misses, {} rejected, {} inserted",
        stats.hits(),
        stats.mem_hits,
        stats.disk_hits,
        stats.misses,
        stats.rejected,
        stats.inserts,
    );
    if stats.hits() < min_hits {
        return Err(format!(
            "cache hits {} below --min-hits {min_hits}",
            stats.hits()
        ));
    }
    Ok(())
}
