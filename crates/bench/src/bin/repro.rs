//! `repro` — regenerates every table and figure of the IotSan paper's
//! evaluation (§10–§11) on the IotSan-rs reproduction.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p iotsan-bench --bin repro            # everything
//! cargo run --release -p iotsan-bench --bin repro table5     # one experiment
//! cargo run --release -p iotsan-bench --bin repro -- --json BENCH_pr.json parallel
//! ```
//!
//! Available experiments: `table1 table2 table3 table4 table5 table6 table7a
//! table7b table8 table9 attribution fig4 fig7 fig8a fig8b parallel fleet
//! properties slice daemon telemetry scenarios chaos`.
//!
//! `telemetry` is the observability subsystem's overhead guard: the same
//! sequential workload verified with metric recording switched off and on
//! (the `iotsan-telemetry` runtime kill-switch) inside one process, the
//! enabled arm required to keep ≥95% of the disabled arm's throughput.
//! The final registry snapshot rides along in the JSON document so the
//! BENCH artifact records exactly which counters the workload moved.
//!
//! `scenarios` runs the scenario-factory differential fuzzer
//! (`iotsan-scenarios`): `--size N` households (default 200) generated from
//! `--seed S` (default 1) onward, each checked for sequential == parallel ==
//! sliced == warm-cache agreement.  Any divergence shrinks the failing
//! household to a minimal reproduction, writes it to `scenario_repro.json`
//! and exits non-zero — CI's `fuzz-smoke` job uploads the artifact.
//!
//! `chaos` sweeps `--faults N` (default 50) seeded I/O-fault schedules
//! (`ChaosPlan::generate(seed)` for seeds `--seed S` onward) through the
//! daemon's fault seam: each schedule runs a cold daemon under injected
//! store faults (and optionally a panicking job), restarts on the surviving
//! log, and checks three invariants — no acknowledged verdict is lost, no
//! wrong verdict is ever served, every job reaches a definite outcome.  A
//! violating schedule shrinks to a minimal plan written to
//! `chaos_repro.json` before exiting non-zero — CI's `chaos-smoke` job
//! uploads the artifact.
//!
//! `--json <path>` additionally writes the machine-readable timings collected
//! by the timing experiments (`parallel`: sequential baseline vs parallel
//! checker at 2/4/8 workers; `fleet`: corpus-size × worker sweep of the
//! group-wise planner with cold/warm/mutated cache phases; `properties`:
//! built-ins vs built-ins+customs throughput plus the `property_eval`
//! micro-benchmark of one compiled property pass; `slice`: sliced vs
//! unsliced exploration per market bundle, the `slice_effectiveness` rows;
//! `daemon`: cold vs warm-restart fleet verification over the durable
//! verdict store, including torn-tail crash recovery) — CI's `bench-smoke`
//! and `daemon-smoke` jobs upload these as JSON artifacts so the perf
//! trajectory accumulates.
//!
//! Absolute numbers differ from the paper (different corpus snapshot, a
//! simulator substrate instead of Spin on the authors' laptop); the *shape* of
//! each result is what is being reproduced — see EXPERIMENTS.md.

use iotsan::attribution::AttributionThresholds;
use iotsan::config::standard_household;
use iotsan::depgraph::{analyze, render_summary};
use iotsan::devices::{DeviceId, FailurePolicy};
use iotsan::model::ModelOptions;
use iotsan::properties::{PropertyClass, PropertySet};
use iotsan::{render_table1, Pipeline};
use iotsan_apps::{ifttt, malicious, market, samples};
use iotsan_bench::{
    expert_config, format_duration, format_runtime, run_concurrent, run_sequential,
    translate_group, volunteer_config, TimedRun,
};
use iotsan_telemetry::rows::JsonRow;
use std::collections::BTreeMap;

/// Every experiment name `main` dispatches on, in presentation order.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7a",
    "table7b",
    "table8",
    "table9",
    "attribution",
    "fig4",
    "fig7",
    "fig8a",
    "fig8b",
    "parallel",
    "fleet",
    "properties",
    "slice",
    "daemon",
    "telemetry",
    "scenarios",
    "chaos",
];

/// Parses `--flag <integer>` out of `args`, removing both tokens.
fn take_numeric_flag(args: &mut Vec<String>, flag: &str) -> Option<u64> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("error: {flag} requires an integer value");
        std::process::exit(2);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    match value.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("error: {flag} wants an integer, got `{value}`");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut which: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = None;
    if let Some(pos) = which.iter().position(|a| a == "--json") {
        if pos + 1 >= which.len() {
            eprintln!("error: --json requires a file path");
            std::process::exit(2);
        }
        json_path = Some(which.remove(pos + 1));
        which.remove(pos);
    }
    let mut baseline_path = None;
    if let Some(pos) = which.iter().position(|a| a == "--baseline") {
        if pos + 1 >= which.len() {
            eprintln!("error: --baseline requires a file path");
            std::process::exit(2);
        }
        baseline_path = Some(which.remove(pos + 1));
        which.remove(pos);
    }
    let fuzz_seed = take_numeric_flag(&mut which, "--seed").unwrap_or(1);
    let fuzz_size = take_numeric_flag(&mut which, "--size").unwrap_or(200) as usize;
    let chaos_schedules = take_numeric_flag(&mut which, "--faults").unwrap_or(50) as usize;
    if let Some(unknown) = which.iter().find(|a| *a != "all" && !EXPERIMENTS.contains(&a.as_str()))
    {
        eprintln!("error: unknown experiment `{unknown}`");
        eprintln!("available: all {}", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    let all = which.is_empty() || which.iter().any(|a| a == "all");
    let want = |name: &str| all || which.iter().any(|a| a == name);
    let mut bench_json = BenchJson::new();

    if want("table1") {
        table1();
    }
    if want("table2") || want("fig4") || want("table3") {
        table2_and_3_and_fig4();
    }
    if want("table4") {
        table4();
    }
    if want("table5") {
        table5();
    }
    if want("table6") {
        table6();
    }
    if want("table7a") {
        table7a();
    }
    if want("table7b") {
        table7b();
    }
    if want("table8") {
        table8();
    }
    if want("table9") {
        table9();
    }
    if want("attribution") {
        attribution();
    }
    if want("fig7") {
        fig7();
    }
    if want("fig8a") {
        fig8a();
    }
    if want("fig8b") {
        fig8b();
    }
    let mut sequential_throughput = None;
    if want("parallel") {
        sequential_throughput = Some(parallel(&mut bench_json));
    }
    if want("fleet") {
        fleet(&mut bench_json);
    }
    if want("properties") {
        properties_experiment(&mut bench_json);
    }
    if want("slice") {
        slice_experiment(&mut bench_json);
    }
    if want("daemon") {
        daemon_experiment(&mut bench_json);
    }
    if want("telemetry") {
        telemetry_experiment(&mut bench_json);
    }
    if want("scenarios") {
        scenarios_experiment(&mut bench_json, fuzz_seed, fuzz_size);
    }
    if want("chaos") {
        chaos_experiment(&mut bench_json, fuzz_seed, chaos_schedules);
    }
    if let Some(path) = json_path {
        std::fs::write(&path, bench_json.render())
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("\nwrote machine-readable timings to {path}");
    }
    if let Some(path) = baseline_path {
        let Some(measured) = sequential_throughput else {
            eprintln!("error: --baseline requires the `parallel` experiment to run");
            std::process::exit(2);
        };
        check_throughput_baseline(&path, measured);
    }
}

/// The open-property-API experiment: the same scaling workload verified
/// under the 45 built-ins and under built-ins + 5 custom `PropertySpec`s
/// (see `iotsan_bench::sample_custom_properties`).  Asserts the custom run
/// is consistent (identical built-in violated set, identical states and
/// transitions — same-step custom specs cannot change the state space) and
/// that the open API causes no throughput cliff, then times one compiled
/// property pass in isolation (the `property_eval` rows).
fn properties_experiment(json: &mut BenchJson) {
    use iotsan::system::InstalledSystem;
    use std::collections::BTreeSet;
    use std::time::Instant;

    heading("Open property API: built-ins vs built-ins + custom specs");
    let (apps, config) = iotsan_bench::scaling_workload();
    let events = iotsan_bench::experiment_events(2, 3);
    let budget = iotsan_bench::experiment_budget(30, 120);

    let builtin_run = iotsan_bench::run_search(&apps, &config, events, 1, true, budget);
    let extended_set = iotsan_bench::extended_property_set();
    let custom_count = extended_set.len() - 45;
    let custom_run = iotsan_bench::run_search_with_properties(
        &apps,
        &config,
        events,
        1,
        true,
        budget,
        extended_set,
    );

    // Consistency: custom specs must not perturb the built-in verdict or the
    // explored state space.
    let base: BTreeSet<u32> = builtin_run.report.violated_properties();
    let extended: BTreeSet<u32> = custom_run.report.violated_properties();
    let extended_builtins: BTreeSet<u32> = extended.iter().copied().filter(|p| *p <= 45).collect();
    assert_eq!(base, extended_builtins, "custom properties changed the built-in violated set");
    assert_eq!(
        builtin_run.report.stats.states_stored, custom_run.report.stats.states_stored,
        "custom same-step properties must not change the state count"
    );
    assert_eq!(
        builtin_run.report.stats.transitions, custom_run.report.stats.transitions,
        "custom same-step properties must not change the transition count"
    );

    let ratio =
        custom_run.report.stats.states_per_sec / builtin_run.report.stats.states_per_sec.max(1e-9);
    println!(
        "{:<22} {:>14} {:>10} {:>12} {:>12}",
        "Property set", "Time", "States", "States/sec", "Violations"
    );
    for (label, run) in [("45 built-ins", &builtin_run), ("+5 custom specs", &custom_run)] {
        println!(
            "{label:<22} {:>14} {:>10} {:>12.0} {:>12}",
            format_runtime(run),
            run.report.stats.states_stored,
            run.report.stats.states_per_sec,
            run.report.violated_properties().len()
        );
    }
    println!("custom/builtin throughput ratio: {ratio:.3}");
    // The cliff guard: a structural regression (e.g. per-transition
    // allocation or string matching sneaking back into the compiled path)
    // costs integer factors, far below this noise-tolerant floor.
    assert!(
        ratio >= 0.5,
        "throughput cliff: custom specs dropped states/sec to {ratio:.3}x of built-ins"
    );

    let property_row = |phase: &str, properties: usize, run: &TimedRun, ratio: f64| {
        JsonRow::with_capacity(256)
            .str("phase", phase)
            .num_u("properties", properties as u64)
            .fixed("seconds", run.elapsed.as_secs_f64(), 6)
            .num_u("states", run.report.stats.states_stored as u64)
            .num_u("transitions", run.report.stats.transitions as u64)
            .fixed("states_per_sec", run.report.stats.states_per_sec, 1)
            .num_u("violated_properties", run.report.violated_properties().len() as u64)
            .flag("truncated", run.truncated)
            .fixed("throughput_ratio", ratio, 3)
            .finish()
    };
    let rows = vec![
        property_row("builtins", 45, &builtin_run, 1.0),
        property_row("customs", 45 + custom_count, &custom_run, ratio),
    ];
    json.push_experiment("properties", "market8+failures", events, &rows);

    // ---- property_eval micro-benchmark: one compiled pass in isolation ----
    // The pass reads the state vector, exactly as the model does per
    // transition, so the row is the whole property cost of a transition.
    // `hit` re-evaluates one state with one scratch: the memoised verdicts
    // a search replays on almost every transition.  `miss` uses a fresh
    // scratch per pass: the programs plus the memo insert.
    let pipeline = Pipeline::with_events(events);
    let restricted = pipeline.restrict_config(&apps, &config);
    let system = InstalledSystem::new(apps.clone(), restricted);
    let state = system.initial_state();
    let observation = iotsan::properties::StepObservation::default();
    let mut eval_rows = Vec::new();
    println!("\nproperty_eval micro-benchmark (one compiled pass per transition):");
    for (label, set) in [
        ("builtins", PropertySet::all()),
        ("builtins+customs", iotsan_bench::extended_property_set()),
    ] {
        let compiled = system.compile_properties(&set);
        let mut monitors = vec![0u8; compiled.monitor_count()];
        let mut out = Vec::new();
        for path in ["hit", "miss"] {
            let mut scratch = iotsan::properties::EvalScratch::default();
            let iters = 200_000u32;
            let start = Instant::now();
            for _ in 0..iters {
                if path == "miss" {
                    scratch = iotsan::properties::EvalScratch::default();
                }
                out.clear();
                compiled.check_transition(
                    &state.devices,
                    state.mode,
                    &observation,
                    &mut monitors,
                    &mut scratch,
                    &mut out,
                );
            }
            let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
            println!(
                "  {label:<18} {:>3} specs, {:>3} atoms, {path:<4}: {ns:>8.1} ns/pass",
                set.len(),
                compiled.atom_count()
            );
            eval_rows.push(
                JsonRow::new()
                    .str("set", label)
                    .str("path", path)
                    .num_u("properties", set.len() as u64)
                    .num_u("atoms", compiled.atom_count() as u64)
                    .fixed("ns_per_eval", ns, 1)
                    .finish(),
            );
        }
    }
    json.push_experiment("property_eval", "market8", events, &eval_rows);
}

/// The property-directed-slicing experiment: every market bundle verified
/// sliced and unsliced, under the full 45-property catalog and under the
/// focused state-only selection (the specs whose cone watches no command /
/// notification stream — the case slicing is built for).  Asserts the
/// violated-property sets are identical per related group on every run, and
/// that at least one bundle explores strictly fewer states when sliced.
fn slice_experiment(json: &mut BenchJson) {
    use iotsan::analysis::{slice_plan, Cone};
    use iotsan::properties::PropertyId;
    use std::collections::BTreeSet;
    use std::time::Instant;

    heading("Property-directed slicing: sliced vs unsliced exploration");
    let events = iotsan_bench::experiment_events(2, 3);
    let full = PropertySet::all();

    // The focused selection: built-ins whose standalone cone has no
    // command/notification flag set — pure device/mode-state safety.
    let state_ids: Vec<PropertyId> = full
        .specs()
        .iter()
        .filter(|s| {
            let cone = Cone::seed(&PropertySet::selection(&[s.property_id()]));
            !cone.commands
                && !cone.sms
                && !cone.push
                && !cone.network
                && !cone.unsubscribe
                && !cone.fake_events
        })
        .map(|s| s.property_id())
        .collect();
    assert!(!state_ids.is_empty(), "the catalog has state-only properties");

    // The narrowest property: the state-only spec whose cone seeds the fewest
    // channels — verifying just one such property is the sharpest slicing
    // demonstration (a real workflow: re-checking a single safety rule).
    let narrowest: PropertyId = *state_ids
        .iter()
        .min_by_key(|id| Cone::seed(&PropertySet::selection(&[**id])).channels.len())
        .expect("state-only selection is non-empty");

    let outcome = |result: &iotsan::VerificationResult| -> Vec<(Vec<String>, BTreeSet<u32>)> {
        let mut out: Vec<_> = result
            .groups
            .iter()
            .map(|g| (g.apps.clone(), g.report.violated_properties()))
            .collect();
        out.sort();
        out
    };

    println!(
        "{:<10} {:<12} {:>9} {:>9} {:>9} {:>11} {:>11} {:>10}",
        "Bundle",
        "Properties",
        "Handlers",
        "Dropped",
        "Analysis",
        "States",
        "Sliced st.",
        "Verdicts"
    );
    let mut rows = Vec::new();
    let mut reduced_bundles = 0usize;
    for (i, group) in market::six_groups().iter().enumerate() {
        let apps = translate_group(group);
        let config = expert_config(&apps);
        let handler_count: usize = apps.iter().map(|a| a.handlers.len()).sum();
        for (set_label, set) in [
            ("builtins45", full.clone()),
            ("state-only", PropertySet::selection(&state_ids)),
            ("single-prop", PropertySet::selection(&[narrowest])),
        ] {
            // Bundle-level analysis cost: one summary + cone fixpoint pass.
            let t0 = Instant::now();
            let plan = slice_plan(&apps, &set);
            let analysis_seconds = t0.elapsed().as_secs_f64();

            let (plain_time, plain) =
                iotsan_bench::run_pipeline_verify(&apps, &config, events, set.clone(), false);
            let (sliced_time, sliced) =
                iotsan_bench::run_pipeline_verify(&apps, &config, events, set, true);
            assert_eq!(
                outcome(&plain),
                outcome(&sliced),
                "bundle {i} ({set_label}): slicing changed a verdict"
            );
            let plain_states: usize =
                plain.groups.iter().map(|g| g.report.stats.states_stored).sum();
            let sliced_states: usize =
                sliced.groups.iter().map(|g| g.report.stats.states_stored).sum();
            assert!(
                sliced_states <= plain_states,
                "bundle {i} ({set_label}): sliced exploration grew"
            );
            if sliced_states < plain_states {
                reduced_bundles += 1;
            }
            println!(
                "{i:<10} {set_label:<12} {handler_count:>9} {:>9} {analysis_seconds:>9.4} {plain_states:>11} {sliced_states:>11} {:>10}",
                plan.dropped_count(),
                "equal",
            );
            rows.push(
                JsonRow::with_capacity(256)
                    .num_u("bundle", i as u64)
                    .str("properties", set_label)
                    .num_u("handlers", handler_count as u64)
                    .num_u("dropped_handlers", plan.dropped_count() as u64)
                    .fixed("analysis_seconds", analysis_seconds, 6)
                    .fixed("unsliced_seconds", plain_time.as_secs_f64(), 6)
                    .fixed("sliced_seconds", sliced_time.as_secs_f64(), 6)
                    .num_u("unsliced_states", plain_states as u64)
                    .num_u("sliced_states", sliced_states as u64)
                    .flag("verdicts_identical", true)
                    .finish(),
            );
        }
    }
    assert!(reduced_bundles >= 1, "slicing reduced the explored state count on no bundle at all");
    println!(
        "slicing preserved every verdict; {reduced_bundles} bundle runs explored strictly fewer states"
    );
    json.push_experiment("slice_effectiveness", "market-six-groups", events, &rows);
}

/// Maximum tolerated drop of the sequential checker's states/sec relative to
/// the committed baseline before the CI bench-smoke job fails.
const THROUGHPUT_REGRESSION_TOLERANCE: f64 = 0.20;

/// Extracts the sequential-engine `states_per_sec` value from a
/// machine-readable timings document (the committed `BENCH_baseline.json`).
/// Hand-rolled scan, tolerating optional whitespace after the colon so both
/// the legacy spaced baseline and rows rendered by `JsonRow` parse.
fn baseline_states_per_sec(text: &str) -> Option<f64> {
    let row = text.lines().find(|l| l.contains("\"engine\":") && l.contains("\"sequential\""))?;
    let start = row.find("\"states_per_sec\":")? + "\"states_per_sec\":".len();
    let rest = row[start..].trim_start();
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The bench-smoke regression guard: fails the run when the measured
/// sequential throughput has regressed more than
/// [`THROUGHPUT_REGRESSION_TOLERANCE`] below the committed baseline.
/// (Cross-machine noise caveat: the baseline is refreshed whenever the
/// benchmark machine class changes — see EXPERIMENTS.md.)
fn check_throughput_baseline(path: &str, measured: f64) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("failed to read baseline {path}: {e}"));
    let Some(baseline) = baseline_states_per_sec(&text) else {
        eprintln!("error: no sequential states_per_sec row in baseline {path}");
        std::process::exit(2);
    };
    let floor = baseline * (1.0 - THROUGHPUT_REGRESSION_TOLERANCE);
    println!(
        "\nthroughput guard: sequential {measured:.0} states/sec vs baseline {baseline:.0} (floor {floor:.0})"
    );
    if measured < floor {
        eprintln!(
            "error: sequential throughput regressed more than {:.0}% below the committed baseline \
             ({measured:.0} < {floor:.0} states/sec); investigate or refresh BENCH_baseline.json",
            THROUGHPUT_REGRESSION_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
}

/// Collector for the machine-readable timing document written by `--json`.
/// The document frame (experiment list, pretty-printed nesting) is rendered
/// here; the rows themselves are [`JsonRow`] objects from
/// `iotsan-telemetry`, the same serializer behind the daemon's NDJSON
/// outcomes and the metrics snapshot, so the surfaces cannot drift in
/// escaping or number formatting.
struct BenchJson {
    experiments: Vec<String>,
}

impl BenchJson {
    fn new() -> Self {
        BenchJson { experiments: Vec::new() }
    }

    fn push_experiment(&mut self, name: &str, group: &str, events: usize, rows: &[String]) {
        let body: Vec<String> = rows.iter().map(|row| format!("        {row}")).collect();
        self.experiments.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"group\": \"{group}\",\n      \"events\": {events},\n      \"rows\": [\n{}\n      ]\n    }}",
            body.join(",\n")
        ));
    }

    fn render(&self) -> String {
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        format!(
            "{{\n  \"schema\": 1,\n  \"profile\": \"{}\",\n  \"host_cpus\": {cpus},\n  \"experiments\": [\n{}\n  ]\n}}\n",
            if iotsan_bench::PAPER_SCALE { "bench" } else { "quick" },
            self.experiments.join(",\n")
        )
    }
}

/// Speedup of `run` relative to `baseline` (guarding against a zero-length
/// run); used by both the printed table and the JSON rows so they can never
/// diverge.
fn speedup_vs(baseline: &TimedRun, run: &TimedRun) -> f64 {
    baseline.elapsed.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9)
}

fn timing_row(workers: usize, run: &TimedRun, baseline: &TimedRun) -> String {
    JsonRow::with_capacity(256)
        .num_u("workers", workers as u64)
        .str("engine", if workers <= 1 { "sequential" } else { "parallel" })
        .fixed("seconds", run.elapsed.as_secs_f64(), 6)
        .num_u("states", run.report.stats.states_stored as u64)
        .num_u("transitions", run.report.stats.transitions as u64)
        .fixed("states_per_sec", run.report.stats.states_per_sec, 1)
        .num_u("peak_trace_bytes", run.report.stats.peak_trace_bytes as u64)
        .num_u("violated_properties", run.report.violated_properties().len() as u64)
        .flag("truncated", run.truncated)
        .fixed("speedup", speedup_vs(baseline, run), 3)
        .finish()
}

/// Worker-count sweep: the sequential checker vs the parallel checker at
/// 2/4/8 workers on the bench-profile scaling workload — 8 market apps with
/// failure injection (the paper has no multi-core numbers — this tracks the
/// reproduction's own scaling; see EXPERIMENTS.md).  Returns the sequential
/// engine's measured states/sec (the throughput-guard metric).
fn parallel(json: &mut BenchJson) -> f64 {
    heading("Parallel checker: worker-count sweep (8 market apps, failures on)");
    let (apps, config) = iotsan_bench::scaling_workload();
    let events = iotsan_bench::experiment_events(3, 4);
    let budget = iotsan_bench::experiment_budget(30, 120);

    let baseline = iotsan_bench::run_search(&apps, &config, events, 1, true, budget);
    let mut rows = vec![timing_row(1, &baseline, &baseline)];
    println!(
        "{:<10} {:>14} {:>10} {:>12} {:>12} {:>9}",
        "Workers", "Time", "States", "Transitions", "Violations", "Speedup"
    );
    println!(
        "{:<10} {:>14} {:>10} {:>12} {:>12} {:>9}",
        "1 (seq)",
        format_runtime(&baseline),
        baseline.report.stats.states_stored,
        baseline.report.stats.transitions,
        baseline.report.violated_properties().len(),
        "1.00x"
    );
    let mut any_truncated = baseline.truncated;
    for workers in [2usize, 4, 8] {
        let run = iotsan_bench::run_search(&apps, &config, events, workers, true, budget);
        let speedup = speedup_vs(&baseline, &run);
        println!(
            "{workers:<10} {:>14} {:>10} {:>12} {:>12} {:>8.2}x",
            format_runtime(&run),
            run.report.stats.states_stored,
            run.report.stats.transitions,
            run.report.violated_properties().len(),
            speedup
        );
        // The deterministic-merge guarantee only holds for complete searches:
        // runs truncated by the wall-clock budget (e.g. an overloaded CI
        // runner) legitimately stop at different frontiers.
        any_truncated |= run.truncated;
        if !run.truncated && !baseline.truncated {
            let consistent = run.report.violated_properties()
                == baseline.report.violated_properties()
                && run.report.stats.states_stored == baseline.report.stats.states_stored
                && run.report.stats.transitions == baseline.report.stats.transitions;
            assert!(
                consistent,
                "parallel checker at {workers} workers disagrees with the sequential checker: \
                 violations {:?} vs {:?}, states {} vs {}, transitions {} vs {}",
                run.report.violated_properties(),
                baseline.report.violated_properties(),
                run.report.stats.states_stored,
                baseline.report.stats.states_stored,
                run.report.stats.transitions,
                baseline.report.stats.transitions,
            );
        }
        rows.push(timing_row(workers, &run, &baseline));
    }
    json.push_experiment("parallel_scaling", "market8+failures", events, &rows);
    if any_truncated {
        println!("(a run hit its wall-clock budget; cross-engine consistency not fully checked)");
    } else {
        println!("(equal violation sets, state and transition counts across all worker counts: deterministic merge verified)");
    }
    baseline.report.stats.states_per_sec
}

fn fleet_row(
    corpus: usize,
    workers: usize,
    phase: &str,
    run: &iotsan_bench::FleetRun,
    cold: &iotsan_bench::FleetRun,
) -> String {
    JsonRow::with_capacity(256)
        .num_u("corpus", corpus as u64)
        .num_u("workers", workers as u64)
        .str("phase", phase)
        .fixed("seconds", run.elapsed.as_secs_f64(), 6)
        .num_u("groups", run.report.groups.len() as u64)
        .num_u("cache_hits", run.report.cache_hits as u64)
        .num_u("cache_misses", run.report.cache_misses as u64)
        .fixed("hit_rate", run.report.cache_hit_rate(), 3)
        .num_u("violated_properties", run.report.violated_properties().len() as u64)
        .num_u("states", run.states() as u64)
        .num_u("transitions", run.transitions() as u64)
        .flag("truncated", run.truncated())
        .fixed(
            "speedup_vs_cold",
            cold.elapsed.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9),
            3,
        )
        .finish()
}

/// Fleet planner sweep: group counts (via corpus size) × worker counts ×
/// cache phases (cold, warm replay, warm after mutating one app) over the
/// market corpus with failure injection.  The paper has no fleet-cache
/// numbers — this tracks the reproduction's own analyze→check→attribute
/// subsystem; see EXPERIMENTS.md.
fn fleet(json: &mut BenchJson) {
    heading("Fleet planner: cached group-wise verification (market corpus, failures on)");
    let events = iotsan_bench::experiment_events(2, 3);
    let budget = iotsan_bench::experiment_budget(30, 120);
    let corpus_sizes: &[usize] = if iotsan_bench::PAPER_SCALE { &[8, 16, 24] } else { &[4, 8, 12] };
    let mut rows = Vec::new();
    println!(
        "{:<8} {:<8} {:<10} {:>12} {:>8} {:>6} {:>8} {:>9} {:>12}",
        "Corpus", "Workers", "Phase", "Time", "Groups", "Hits", "Misses", "HitRate", "Violations"
    );
    for &corpus in corpus_sizes {
        let (apps, config) = iotsan_bench::fleet_workload(corpus);
        for workers in [1usize, 2] {
            let mut cache = iotsan::VerificationCache::new();
            let cold =
                iotsan_bench::run_fleet(&apps, &config, events, workers, true, budget, &mut cache);
            let warm =
                iotsan_bench::run_fleet(&apps, &config, events, workers, true, budget, &mut cache);

            // Mutate one verified app's IR (not its event profile): only the
            // groups containing it may be re-checked.
            let mut mutated = apps.clone();
            let target = mutated
                .iter_mut()
                .find(|a| !a.dynamic_discovery)
                .expect("a verifiable app in the corpus");
            let target_name = target.name.clone();
            target.description.push_str(" (fleet mutation)");
            let after = iotsan_bench::run_fleet(
                &mutated, &config, events, workers, true, budget, &mut cache,
            );

            // Consistency: a warm replay must be outcome-identical to the
            // cold run, and the mutation must invalidate exactly the groups
            // containing the mutated app.  Only complete searches carry the
            // guarantee (a budget-truncated report is never cached).
            if !cold.truncated() && !warm.truncated() {
                assert_eq!(
                    warm.report.outcome(),
                    cold.report.outcome(),
                    "warm fleet replay diverged from the cold run ({corpus} apps, {workers} workers)"
                );
                assert_eq!(warm.report.cache_hits, warm.report.groups.len());
                for group in &after.report.groups {
                    let contains_target = group.apps.contains(&target_name);
                    assert_eq!(
                        group.from_cache, !contains_target,
                        "mutation of {target_name} invalidated the wrong groups"
                    );
                }
            }

            for (phase, run) in [("cold", &cold), ("warm", &warm), ("mutated", &after)] {
                println!(
                    "{corpus:<8} {workers:<8} {phase:<10} {:>12} {:>8} {:>6} {:>8} {:>8.0}% {:>12}",
                    format_duration(run.elapsed, run.truncated()),
                    run.report.groups.len(),
                    run.report.cache_hits,
                    run.report.cache_misses,
                    run.report.cache_hit_rate() * 100.0,
                    run.report.violated_properties().len(),
                );
                rows.push(fleet_row(corpus, workers, phase, run, &cold));
            }
        }
    }
    json.push_experiment("fleet", "market+failures", events, &rows);
    println!("(warm replays verified outcome-identical; mutation invalidated only its own groups)");
}

/// Warm-restart experiment over `iotsan-daemon`'s durable verdict store:
/// verify the 8-app market fleet cold (writing every group verdict through
/// to the append-only log), tear the log's tail the way a crash mid-append
/// would, then verify again in a fresh "process" over the same file.  The
/// restart must detect and skip the torn tail, replay every verdict from
/// disk (`backing_hits`) byte-identically to the cold run, and come in at
/// least 10x faster — all asserted here, so CI's `daemon-smoke` job fails
/// loudly if durability ever regresses.
fn daemon_experiment(json: &mut BenchJson) {
    use iotsan::VerificationCache;
    use iotsan_daemon::{Recovery, StoreBacking, VerdictStore};
    use std::sync::{Arc, Mutex};

    heading("Daemon: durable verdict store across a crashed restart (8 market apps, failures on)");
    // A fixed 3-event bound in both profiles: deep enough that cold
    // verification dwarfs the disk replay, cheap enough for the quick one.
    let events = 3;
    let budget = iotsan_bench::experiment_budget(60, 180);
    let (apps, config) = iotsan_bench::fleet_workload(8);

    let dir = std::env::temp_dir().join(format!("iotsan-repro-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let path = dir.join("verdicts.log");

    let open_cache = |path: &std::path::Path| {
        let store = Arc::new(Mutex::new(VerdictStore::open(path).expect("open the verdict store")));
        let recovery = store.lock().unwrap().recovery().clone();
        let cache = VerificationCache::new().with_backing(Box::new(StoreBacking::new(store)));
        (cache, recovery)
    };

    // Phase 1: cold run, writing every verdict through to the log.
    let (mut cache, recovery) = open_cache(&path);
    assert_eq!(recovery, Recovery::Fresh, "the experiment starts from a fresh store");
    let cold = iotsan_bench::run_fleet(&apps, &config, events, 1, true, budget, &mut cache);
    drop(cache); // "process exit": nothing in memory survives past here

    // Kill the process mid-append: a torn half-record at the log's tail.
    {
        use std::io::Write as _;
        let mut file =
            std::fs::OpenOptions::new().append(true).open(&path).expect("reopen the log");
        file.write_all(&[0x01, 0xde, 0xad, 0xbe]).expect("append a torn record");
    }

    // Phase 2: restart.  Replay a few times (fresh cache each time, so every
    // lookup goes to disk) and keep the fastest, like any microbenchmark.
    let (mut cache, recovery) = open_cache(&path);
    let recovered = format!("{recovery:?}");
    assert!(
        matches!(recovery, Recovery::CorruptTail { .. }),
        "the torn tail must be detected and skipped, got {recovery:?}"
    );
    let mut warm = iotsan_bench::run_fleet(&apps, &config, events, 1, true, budget, &mut cache);
    let mut warm_backing_hits = cache.backing_hits();
    for _ in 0..2 {
        let (mut again, _) = open_cache(&path);
        let run = iotsan_bench::run_fleet(&apps, &config, events, 1, true, budget, &mut again);
        if run.elapsed < warm.elapsed {
            warm = run;
            warm_backing_hits = again.backing_hits();
        }
    }

    let speedup = cold.elapsed.as_secs_f64() / warm.elapsed.as_secs_f64().max(1e-9);
    if !cold.truncated() {
        assert_eq!(warm.report.cache_misses, 0, "a warm restart must not re-verify any group");
        assert_eq!(
            warm_backing_hits,
            warm.report.groups.len(),
            "every warm verdict must be served from the on-disk store"
        );
        for (c, w) in cold.report.groups.iter().zip(&warm.report.groups) {
            assert_eq!(c.report, w.report, "replayed verdict diverged from the cold run");
        }
        assert!(
            speedup >= 10.0,
            "warm restart must be at least 10x faster than the cold run, got {speedup:.1}x"
        );
    }

    println!(
        "{:<14} {:>12} {:>8} {:>6} {:>8} {:>13} {:>10}",
        "Phase", "Time", "Groups", "Hits", "Misses", "BackingHits", "Speedup"
    );
    let mut rows = Vec::new();
    for (phase, run, backing) in
        [("cold", &cold, 0usize), ("warm-restart", &warm, warm_backing_hits)]
    {
        let vs_cold = cold.elapsed.as_secs_f64() / run.elapsed.as_secs_f64().max(1e-9);
        println!(
            "{phase:<14} {:>12} {:>8} {:>6} {:>8} {backing:>13} {vs_cold:>9.1}x",
            format_duration(run.elapsed, run.truncated()),
            run.report.groups.len(),
            run.report.cache_hits,
            run.report.cache_misses,
        );
        rows.push(
            JsonRow::with_capacity(256)
                .str("phase", phase)
                .fixed("seconds", run.elapsed.as_secs_f64(), 6)
                .num_u("groups", run.report.groups.len() as u64)
                .num_u("cache_hits", run.report.cache_hits as u64)
                .num_u("cache_misses", run.report.cache_misses as u64)
                .num_u("backing_hits", backing as u64)
                .num_u("violated_properties", run.report.violated_properties().len() as u64)
                .flag("truncated", run.truncated())
                .fixed("speedup_vs_cold", vs_cold, 3)
                .finish(),
        );
    }
    json.push_experiment("daemon", "market8+failures", events, &rows);
    println!("(recovery: {recovered}; warm verdicts byte-identical and served from disk)");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Minimum fraction of the recording-disabled throughput the
/// recording-enabled run must retain: the telemetry subsystem's "<5%
/// overhead" budget, enforced by CI's bench-smoke job.
const TELEMETRY_OVERHEAD_FLOOR: f64 = 0.95;

/// The telemetry overhead guard: the same sequential scaling workload
/// verified with metric recording switched off (the runtime kill-switch)
/// and on, interleaved best-of-3 inside one process so machine noise and
/// thermal drift hit both arms equally.  Asserts the instrumented run keeps
/// at least [`TELEMETRY_OVERHEAD_FLOOR`] of the uninstrumented throughput
/// and that recording changes no verification result, then emits the final
/// registry snapshot so the BENCH artifact records which counters moved.
fn telemetry_experiment(json: &mut BenchJson) {
    heading("Telemetry: recording overhead A/B (metrics off vs on, one process)");
    let (apps, config) = iotsan_bench::scaling_workload();
    let events = iotsan_bench::experiment_events(2, 3);
    let budget = iotsan_bench::experiment_budget(30, 120);

    // Warm-up run: fault in code paths and allocator state before timing.
    let warmup = iotsan_bench::run_search(&apps, &config, events, 1, true, budget);

    // Interleaved best-of-3 per arm: alternating off/on inside each round
    // keeps slow drift from systematically favouring either arm.
    let mut best: [Option<TimedRun>; 2] = [None, None];
    for _round in 0..3 {
        for (arm, recording) in [(0usize, false), (1usize, true)] {
            iotsan_telemetry::metrics::set_enabled(recording);
            let run = iotsan_bench::run_search(&apps, &config, events, 1, true, budget);
            iotsan_telemetry::metrics::set_enabled(true);
            let faster = match &best[arm] {
                None => true,
                Some(b) => run.report.stats.states_per_sec > b.report.stats.states_per_sec,
            };
            if faster {
                best[arm] = Some(run);
            }
        }
    }
    let [disabled, enabled] = best;
    let (disabled, enabled) =
        (disabled.expect("disabled arm ran"), enabled.expect("enabled arm ran"));

    // Recording is observation only: both arms (and the warm-up) must agree
    // on every verification result.
    for (label, run) in [("disabled", &disabled), ("enabled", &enabled)] {
        assert_eq!(
            run.report.violated_properties(),
            warmup.report.violated_properties(),
            "telemetry {label} arm changed the violated-property set"
        );
        assert_eq!(
            run.report.stats.states_stored, warmup.report.stats.states_stored,
            "telemetry {label} arm changed the explored state count"
        );
    }

    let ratio =
        enabled.report.stats.states_per_sec / disabled.report.stats.states_per_sec.max(1e-9);
    println!(
        "{:<22} {:>14} {:>10} {:>12} {:>12}",
        "Recording", "Time", "States", "States/sec", "Violations"
    );
    for (label, run) in [("off (kill-switch)", &disabled), ("on (default)", &enabled)] {
        println!(
            "{label:<22} {:>14} {:>10} {:>12.0} {:>12}",
            format_runtime(run),
            run.report.stats.states_stored,
            run.report.stats.states_per_sec,
            run.report.violated_properties().len()
        );
    }
    println!("enabled/disabled throughput ratio: {ratio:.3} (floor {TELEMETRY_OVERHEAD_FLOOR})");
    assert!(
        ratio >= TELEMETRY_OVERHEAD_FLOOR,
        "telemetry recording costs more than its overhead budget: \
         enabled run at {ratio:.3}x of the disabled run (floor {TELEMETRY_OVERHEAD_FLOOR})"
    );

    // The wiring check: a workload this size must have moved the checker
    // counters through the registry's global flush path.
    let snap = iotsan_telemetry::snapshot();
    assert!(
        snap.counter("iotsan_checker_searches_total") > 0
            && snap.counter("iotsan_checker_states_total") > 0,
        "the checker flushed no telemetry despite recording being enabled"
    );

    let overhead_row = |phase: &str, run: &TimedRun, ratio: f64| {
        JsonRow::with_capacity(256)
            .str("phase", phase)
            .fixed("seconds", run.elapsed.as_secs_f64(), 6)
            .num_u("states", run.report.stats.states_stored as u64)
            .num_u("transitions", run.report.stats.transitions as u64)
            .fixed("states_per_sec", run.report.stats.states_per_sec, 1)
            .flag("truncated", run.truncated)
            .fixed("throughput_ratio", ratio, 3)
            .finish()
    };
    json.push_experiment(
        "telemetry_overhead",
        "market8+failures",
        events,
        &[overhead_row("disabled", &disabled, 1.0), overhead_row("enabled", &enabled, ratio)],
    );
    json.push_experiment("telemetry_snapshot", "registry", events, &[snap.render_json()]);
}

/// The scenario-factory differential fuzzer: `size` generated households
/// starting at `seed_start`, each verified sequential / parallel / sliced /
/// warm-cache and by the naive reference explorer, with all engine pairs
/// required to agree (plus a Promela LTL spot-check on small instances).
/// Emits one `scenario_fuzz` summary row.
/// On any divergence: shrinks the household to a minimal reproduction under
/// the *same* divergence phase, writes it to `scenario_repro.json` and exits
/// non-zero so CI fails loudly and uploads the artifact.
fn scenarios_experiment(json: &mut BenchJson, seed_start: u64, size: usize) {
    use iotsan_scenarios::{check_household, shrink, Household, HouseholdReport, SizeProfile};
    use std::time::Instant;

    heading(&format!(
        "Scenario factory: differential fuzzing over {size} households (seeds {seed_start}..{})",
        seed_start + size as u64
    ));
    let profile = SizeProfile::default();
    let mut totals = HouseholdReport::default();
    let mut households = 0usize;
    let mut apps = 0usize;
    let mut truncated = 0usize;
    let mut promela_checked = 0usize;
    let mut violating = 0usize;
    let start = Instant::now();

    for seed in seed_start..seed_start + size as u64 {
        let household = Household::generate(seed, &profile);
        match check_household(&household) {
            Ok(report) => {
                households += 1;
                apps += household.sources.len();
                totals.groups += report.groups;
                totals.states += report.states;
                totals.transitions += report.transitions;
                truncated += report.truncated as usize;
                promela_checked += report.promela_checked as usize;
                violating += usize::from(!report.violated.is_empty());
            }
            Err(divergence) => {
                eprintln!("DIVERGENCE: {divergence}");
                let phase = divergence.phase;
                let minimal = shrink(
                    &household,
                    |h| matches!(check_household(h), Err(d) if d.phase == phase),
                );
                let path = "scenario_repro.json";
                std::fs::write(path, minimal.to_json() + "\n")
                    .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
                eprintln!(
                    "shrunk reproduction ({} apps, {} devices) written to {path}",
                    minimal.sources.len(),
                    minimal.config.devices.len()
                );
                std::process::exit(1);
            }
        }
    }

    let seconds = start.elapsed().as_secs_f64();
    let states_per_sec = totals.states as f64 / seconds.max(1e-9);
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>12} {:>10} {:>10}",
        "Households", "Apps", "Groups", "States", "Transitions", "Violating", "Truncated"
    );
    println!(
        "{households:<12} {apps:>8} {:>8} {:>10} {:>12} {violating:>10} {truncated:>10}",
        totals.groups, totals.states, totals.transitions
    );
    println!(
        "all five engines agreed on every household ({promela_checked} Promela spot-checks); \
         {seconds:.2}s, {states_per_sec:.0} states/sec"
    );
    json.push_experiment(
        "scenario_fuzz",
        "generated-households",
        0,
        &[JsonRow::with_capacity(256)
            .num_u("households", households as u64)
            .num_u("seed_start", seed_start)
            .num_u("divergences", 0)
            .num_u("apps", apps as u64)
            .num_u("groups", totals.groups as u64)
            .num_u("states", totals.states as u64)
            .num_u("transitions", totals.transitions as u64)
            .num_u("violating_households", violating as u64)
            .num_u("truncated_households", truncated as u64)
            .num_u("promela_checked", promela_checked as u64)
            .fixed("seconds", seconds, 6)
            .fixed("states_per_sec", states_per_sec, 1)
            .finish()],
    );
}

/// The timing-free digest of one verified group, used to detect a wrong
/// verdict: the apps and how many properties they violate are deterministic
/// for this workload, the timing statistics are not.
type ChaosReference = BTreeMap<u64, (Vec<String>, usize)>;

/// What one surviving chaos schedule contributes to the sweep summary.
#[derive(Default)]
struct ChaosScheduleStats {
    degraded: bool,
    lost_persists: usize,
    quarantined: usize,
}

fn chaos_retry() -> iotsan_daemon::RetryPolicy {
    // Tight backoff: the sweep cares about ordering, not wall-clock realism.
    iotsan_daemon::RetryPolicy { max_attempts: 2, base_delay_ms: 1 }
}

fn chaos_config(
    store_path: &std::path::Path,
    plan: Option<&iotsan_scenarios::ChaosPlan>,
) -> iotsan_daemon::DaemonConfig {
    use iotsan_daemon::{DaemonConfig, Fault, FaultKind, FaultPlan};
    use iotsan_scenarios::ChaosFaultKind;
    // The one-line mapping from the scenario crate's plain plan vocabulary
    // onto the daemon's fault seam (the crates deliberately do not depend
    // on each other in this direction).
    let fault_plan = plan.map(|p| FaultPlan {
        faults: p
            .faults
            .iter()
            .map(|f| Fault {
                at: f.at,
                kind: match f.kind {
                    ChaosFaultKind::ShortWrite => FaultKind::ShortWrite,
                    ChaosFaultKind::NoSpace => FaultKind::NoSpace,
                    ChaosFaultKind::FsyncFail => FaultKind::FsyncFail,
                    ChaosFaultKind::RenameFail => FaultKind::RenameFail,
                },
            })
            .collect(),
    });
    DaemonConfig {
        store_path: store_path.to_path_buf(),
        store_options: iotsan_daemon::StoreOptions::default(),
        workers: 1,
        queue_capacity: 16,
        retry: chaos_retry(),
        fault_injection: fault_plan.is_some(),
        fault_plan,
    }
}

/// The fixed chaos workload: two distinct market jobs, a duplicate of the
/// first (exercising the shared in-flight/cache path), and — when the plan
/// says so — a panicking job plus its duplicate (exercising supervision,
/// the shared attempt budget and the quarantine fail-fast).
fn chaos_jobs(plan: &iotsan_scenarios::ChaosPlan) -> Vec<iotsan_daemon::JobSpec> {
    use iotsan_daemon::{BundleSpec, JobSpec};
    let job = |id: &str, n: usize, inject_panic: bool| JobSpec {
        id: id.into(),
        bundle: BundleSpec::Market(n),
        events: 2,
        workers: 1,
        failures: false,
        timeout_ms: None,
        inject_panic,
    };
    // The panic jobs go first: the injected panic fires on a cache miss,
    // so they must reach their groups before a healthy job verifies them.
    // The healthy duplicate of the same bundle then proves a quarantined
    // class does not poison its fingerprints for later jobs.
    let mut jobs = Vec::new();
    if plan.panic_job {
        jobs.push(job("chaos-panic", 2, true));
        jobs.push(job("chaos-panic-dup", 2, true));
    }
    jobs.extend([job("chaos-a", 2, false), job("chaos-b", 3, false), job("chaos-a-dup", 2, false)]);
    jobs
}

/// Runs the fault-free workload once and digests every group verdict — the
/// ground truth all fault-injected runs are compared against.
fn chaos_reference(dir: &std::path::Path) -> ChaosReference {
    use iotsan_daemon::{Daemon, JobStatus};
    let store_path = dir.join("reference").join("verdicts.log");
    let mut daemon = Daemon::start(chaos_config(&store_path, None)).expect("reference daemon");
    let plan = iotsan_scenarios::ChaosPlan { seed: 0, faults: Vec::new(), panic_job: false };
    let outcomes = daemon.run_batch(chaos_jobs(&plan));
    let mut reference = ChaosReference::new();
    for outcome in &outcomes {
        assert!(matches!(outcome.status, JobStatus::Ok), "reference run must be clean");
        for group in &outcome.report.as_ref().expect("reference report").groups {
            reference
                .insert(group.fingerprint.0, (group.apps.clone(), group.report.violations.len()));
        }
    }
    daemon.shutdown().expect("reference shutdown");
    reference
}

/// Drives one chaos schedule through cold run → restart → warm run and
/// checks the three invariants.  `Err` carries a human-readable violation.
fn run_chaos_schedule(
    plan: &iotsan_scenarios::ChaosPlan,
    reference: &ChaosReference,
    dir: &std::path::Path,
    run_id: usize,
) -> Result<ChaosScheduleStats, String> {
    use iotsan_daemon::{Daemon, JobStatus, VerdictStore};

    let run_dir = dir.join(format!("run-{run_id}"));
    let _ = std::fs::remove_dir_all(&run_dir);
    let store_path = run_dir.join("verdicts.log");
    let mut stats = ChaosScheduleStats::default();

    // Cold run under the injected faults.
    let mut daemon = Daemon::start(chaos_config(&store_path, Some(plan)))
        .map_err(|e| format!("cold daemon failed to start: {e}"))?;
    let jobs = chaos_jobs(plan);
    let outcomes = daemon.run_batch(jobs.clone());
    // Invariant 3: every submitted job reaches a definite outcome (the
    // batch returning at all also proves no worker died or hung).
    if outcomes.len() != jobs.len() {
        return Err(format!("{} jobs submitted, {} outcomes returned", jobs.len(), outcomes.len()));
    }
    let mut acked = 0usize;
    for outcome in &outcomes {
        let spec = jobs.iter().find(|j| j.id == outcome.id).expect("outcome matches a job");
        match &outcome.status {
            JobStatus::Ok => {
                let report = outcome
                    .report
                    .as_ref()
                    .ok_or_else(|| format!("job {} is Ok without a report", outcome.id))?;
                // Invariant 2 (cold): every served verdict matches the
                // fault-free reference.
                for group in &report.groups {
                    match reference.get(&group.fingerprint.0) {
                        Some((apps, violations))
                            if *apps == group.apps
                                && *violations == group.report.violations.len() => {}
                        Some(_) => {
                            return Err(format!(
                                "job {} served a wrong verdict for {:?}",
                                outcome.id, group.apps
                            ))
                        }
                        None => {
                            return Err(format!(
                                "job {} served a verdict for an unknown group {:?}",
                                outcome.id, group.apps
                            ))
                        }
                    }
                }
                // Verdicts acknowledged as durable: fresh verifications
                // whose append the store accepted.
                acked += report.cache_misses - report.persist_failures;
                stats.lost_persists += report.persist_failures;
                stats.degraded |= outcome.degraded;
            }
            JobStatus::Failed { .. } if spec.inject_panic => {} // supervised as designed
            other => {
                return Err(format!("job {} ended {:?} instead of completing", outcome.id, other))
            }
        }
    }
    let summary = daemon.shutdown().map_err(|e| format!("cold daemon shutdown failed: {e}"))?;
    stats.quarantined = summary.quarantined;

    // Restart on whatever survived, with real I/O.  Invariant 1: the disk
    // holds exactly the acknowledged verdicts, and (invariant 2) each one
    // replays to the reference verdict.
    let store =
        VerdictStore::open(&store_path).map_err(|e| format!("post-fault reopen failed: {e}"))?;
    let disk: Vec<u64> = store.fingerprints().map(|f| f.0).collect();
    if disk.len() != acked {
        return Err(format!(
            "store lost or invented verdicts: {} acknowledged, {} on disk",
            acked,
            disk.len()
        ));
    }
    for fingerprint in &disk {
        let result = store.get(iotsan::Fingerprint(*fingerprint)).expect("listed fingerprint");
        match reference.get(fingerprint) {
            Some((apps, violations))
                if *apps == result.apps && *violations == result.report.violations.len() => {}
            _ => return Err(format!("recovered verdict for {:?} is wrong", result.apps)),
        }
    }
    drop(store);

    // Warm run, no faults: every durable verdict must be served from the
    // store (not re-verified), and every outcome must match the reference.
    let mut daemon = Daemon::start(chaos_config(&store_path, None))
        .map_err(|e| format!("warm daemon failed to start: {e}"))?;
    let no_panic = iotsan_scenarios::ChaosPlan { seed: 0, faults: Vec::new(), panic_job: false };
    let outcomes = daemon.run_batch(chaos_jobs(&no_panic));
    let mut backing_hits = 0usize;
    for outcome in &outcomes {
        if !matches!(outcome.status, JobStatus::Ok) {
            return Err(format!("warm job {} ended {:?}", outcome.id, outcome.status));
        }
        let report = outcome.report.as_ref().expect("warm report");
        for group in &report.groups {
            match reference.get(&group.fingerprint.0) {
                Some((apps, violations))
                    if *apps == group.apps && *violations == group.report.violations.len() => {}
                _ => {
                    return Err(format!(
                        "warm job {} served a wrong verdict for {:?}",
                        outcome.id, group.apps
                    ))
                }
            }
        }
        backing_hits += outcome.backing_hits;
    }
    if backing_hits != disk.len() {
        return Err(format!(
            "warm restart re-verified durable verdicts: {} on disk, {} served from it",
            disk.len(),
            backing_hits
        ));
    }
    daemon.shutdown().map_err(|e| format!("warm daemon shutdown failed: {e}"))?;

    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(stats)
}

/// The seeded chaos sweep over the daemon's self-healing machinery.
fn chaos_experiment(json: &mut BenchJson, seed_start: u64, schedules: usize) {
    use iotsan_scenarios::ChaosPlan;
    use std::time::Instant;

    heading(&format!(
        "Chaos: {schedules} seeded fault schedules through the daemon (seeds {seed_start}..{})",
        seed_start + schedules as u64
    ));
    let dir = std::env::temp_dir().join(format!("iotsan-repro-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Injected panics are expected; their backtraces would swamp the output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let start = Instant::now();
    let reference = chaos_reference(&dir);
    let mut run_id = 0usize;
    let mut faults_scheduled = 0usize;
    let mut panic_schedules = 0usize;
    let mut degraded_runs = 0usize;
    let mut lost_persists = 0usize;
    let mut quarantined_jobs = 0usize;

    for seed in seed_start..seed_start + schedules as u64 {
        let plan = ChaosPlan::generate(seed);
        faults_scheduled += plan.faults.len();
        panic_schedules += usize::from(plan.panic_job);
        run_id += 1;
        match run_chaos_schedule(&plan, &reference, &dir, run_id) {
            Ok(stats) => {
                degraded_runs += usize::from(stats.degraded);
                lost_persists += stats.lost_persists;
                quarantined_jobs += stats.quarantined;
            }
            Err(violation) => {
                std::panic::set_hook(hook);
                eprintln!("CHAOS VIOLATION at seed {seed}: {violation}");
                let shrink_id = std::cell::Cell::new(run_id);
                let minimal = plan.shrink(|p| {
                    shrink_id.set(shrink_id.get() + 1);
                    run_chaos_schedule(p, &reference, &dir, shrink_id.get()).is_err()
                });
                let path = "chaos_repro.json";
                std::fs::write(path, minimal.to_json())
                    .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
                eprintln!(
                    "shrunk reproduction ({} faults, panic_job={}) written to {path}",
                    minimal.faults.len(),
                    minimal.panic_job
                );
                std::process::exit(1);
            }
        }
    }
    std::panic::set_hook(hook);
    let _ = std::fs::remove_dir_all(&dir);

    let seconds = start.elapsed().as_secs_f64();
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>14} {:>12}",
        "Schedules", "Faults", "Panics", "Degraded", "LostPersists", "Quarantined"
    );
    println!(
        "{schedules:<12} {faults_scheduled:>8} {panic_schedules:>10} {degraded_runs:>10} \
         {lost_persists:>14} {quarantined_jobs:>12}"
    );
    println!(
        "all {schedules} schedules upheld the invariants (no lost acknowledged verdict, \
         no wrong verdict, every job definite); {seconds:.2}s"
    );
    json.push_experiment(
        "chaos",
        "daemon-fault-schedules",
        2,
        &[JsonRow::with_capacity(256)
            .num_u("schedules", schedules as u64)
            .num_u("seed_start", seed_start)
            .num_u("violations", 0)
            .num_u("faults_scheduled", faults_scheduled as u64)
            .num_u("panic_schedules", panic_schedules as u64)
            .num_u("degraded_runs", degraded_runs as u64)
            .num_u("lost_persists", lost_persists as u64)
            .num_u("quarantined_jobs", quarantined_jobs as u64)
            .fixed("seconds", seconds, 6)
            .finish()],
    );
}

fn heading(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Table 1: feature comparison of IotSan and related work.
fn table1() {
    heading("Table 1: Comparison of IotSan and related work");
    print!("{}", render_table1());
}

/// Table 2 / Table 3 / Figure 4: the dependency-graph example.
fn table2_and_3_and_fig4() {
    heading("Table 2 / Table 3 / Figure 4: dependency graph and related sets");
    let apps = translate_group(&samples::figure4_group());
    let (graph, sets) = analyze(&apps);
    print!("{}", render_summary(&graph, &sets));
    println!(
        "original handlers: {}, largest related set: {}, scale ratio: {:.1}x",
        graph.handler_count(),
        sets.largest_handler_count(&graph),
        sets.scale_ratio(&graph)
    );
}

/// Table 4: the safety-property catalog by category.
fn table4() {
    heading("Table 4: sample safe physical states (property catalog)");
    let set = PropertySet::all();
    let mut by_category: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for p in set.properties() {
        by_category.entry(p.category.clone()).or_default().push(p.name.clone());
    }
    println!("{:<38} {:>10}   sample property", "Category", "#props");
    for (category, names) in &by_category {
        println!("{category:<38} {:>10}   {}", names.len(), names[0]);
    }
    println!("total properties: {}", set.len());
}

/// Table 5: market apps with expert configurations (with and without
/// device/communication failures).
fn table5() {
    heading("Table 5: verification results with market apps (expert configurations)");
    let groups = market::six_groups();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut totals_failures: BTreeMap<String, usize> = BTreeMap::new();
    let mut violated_props = std::collections::BTreeSet::new();
    let mut violated_props_failures = std::collections::BTreeSet::new();

    for (i, group) in groups.iter().enumerate() {
        let apps = translate_group(group);
        let config = expert_config(&apps);

        let pipeline = Pipeline::with_events(2);
        let result = pipeline.verify(&apps, &config);
        for (class, count) in result.violations_by_class(&pipeline.properties) {
            *totals.entry(class).or_insert(0) += count;
        }
        for (p, _) in result.violations() {
            violated_props.insert(p);
        }

        let pipeline_f = Pipeline::with_events(2).with_failures();
        let result_f = pipeline_f.verify(&apps, &config);
        for (class, count) in result_f.violations_by_class(&pipeline_f.properties) {
            *totals_failures.entry(class).or_insert(0) += count;
        }
        for (p, _) in result_f.violations() {
            violated_props_failures.insert(p);
        }
        println!(
            "  group {}: {} apps, {} violations (no failures), {} violations (with failures)",
            i + 1,
            group.len(),
            result.violation_count(),
            result_f.violation_count()
        );
    }

    println!("\nWithout device/communication failures:");
    println!("{:<28} {:>10}", "Violation type", "violations");
    for (class, count) in &totals {
        println!("{class:<28} {count:>10}");
    }
    println!("violated properties: {}", violated_props.len());

    println!("\nWith device/communication failures (additional coverage):");
    println!("{:<28} {:>10}", "Violation type", "violations");
    for (class, count) in &totals_failures {
        println!("{class:<28} {count:>10}");
    }
    println!("violated properties: {}", violated_props_failures.len());
    println!(
        "paper reports: 38 violations of 11 properties without failures; failures add 9 more violated properties"
    );
}

/// Table 6: market apps with volunteer (non-expert) configurations.
fn table6() {
    heading("Table 6: verification results with volunteer configurations");
    // 10 groups of ~5 related apps, 7 volunteer configurations each.
    let corpus = market::market_apps();
    let groups: Vec<Vec<market::MarketApp>> =
        corpus.chunks(5).take(10).map(|c| c.to_vec()).collect();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    let mut violated_props = std::collections::BTreeSet::new();
    let mut configurations = 0usize;

    for group in &groups {
        let apps = translate_group(group);
        for seed in 0..7u64 {
            configurations += 1;
            let config = volunteer_config(&apps, seed);
            let pipeline = Pipeline::with_events(2);
            let result = pipeline.verify(&apps, &config);
            for (class, count) in result.violations_by_class(&pipeline.properties) {
                *totals.entry(class).or_insert(0) += count;
            }
            for (p, _) in result.violations() {
                violated_props.insert(p);
            }
        }
    }
    println!(
        "{} groups x 7 volunteer configurations = {configurations} configurations",
        groups.len()
    );
    println!("{:<28} {:>10}", "Violation type", "violations");
    for (class, count) in &totals {
        println!("{class:<28} {count:>10}");
    }
    println!("violated properties: {}", violated_props.len());
    println!("paper reports: 97 violations of 10 properties (19 conflicting, 12 repeated, 66 unsafe states)");
}

/// Table 7a: dependency-graph scalability over the six market groups.
fn table7a() {
    heading("Table 7a: scalability with dependency graphs");
    println!("{:<8} {:>14} {:>10} {:>12}", "Group", "Original Size", "New Size", "Scale Ratio");
    let mut ratios = Vec::new();
    for (i, group) in market::six_groups().iter().enumerate() {
        let apps = translate_group(group);
        let (graph, sets) = analyze(&apps);
        let original = graph.handler_count();
        let reduced = sets.largest_handler_count(&graph);
        let ratio = sets.scale_ratio(&graph);
        ratios.push(ratio);
        println!("{:<8} {original:>14} {reduced:>10} {ratio:>12.1}", i + 1);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("{:<8} {:>14} {:>10} {mean:>12.1}", "mean", "", "");
    println!("paper reports a mean scale ratio of 3.4x");
}

/// Table 7b: concurrent vs sequential runtimes on the good group.
fn table7b() {
    heading("Table 7b: runtimes with concurrent and sequential design (good group)");
    let apps = translate_group(&samples::good_group());
    let config = expert_config(&apps);
    let budget = iotsan_bench::experiment_budget(10, 30);
    println!("{:<8} {:>22} {:>22}", "Events", "Concurrent", "Sequential");
    for events in 1..=iotsan_bench::experiment_events(5, 7) {
        let sequential = run_sequential(&apps, &config, events, budget);
        let concurrent = if events <= 4 {
            format_runtime(&run_concurrent(&apps, &config, events, budget))
        } else {
            "-".to_string()
        };
        println!("{events:<8} {concurrent:>22} {:>22}", format_runtime(&sequential));
    }
    println!("paper: concurrent exceeds 139 minutes at 3 events and never finishes at 4; sequential stays in seconds");
}

/// Table 8: sequential verification time vs number of events on the larger
/// 5-app group.
fn table8() {
    heading("Table 8: verification time vs number of events (5 related apps)");
    let apps = translate_group(&samples::table8_group());
    let config = expert_config(&apps);
    let budget = iotsan_bench::experiment_budget(20, 120);
    println!("{:<8} {:>16} {:>16} {:>16}", "Events", "Time", "States", "Transitions");
    for events in 1..=iotsan_bench::experiment_events(4, 6) {
        let run = run_sequential(&apps, &config, events, budget);
        println!(
            "{events:<8} {:>16} {:>16} {:>16}",
            format_runtime(&run),
            run.report.stats.states_stored,
            run.report.stats.transitions
        );
    }
    println!("paper: time grows from 6.61s at 6 events to 23.39h at 11 events (exponential in the event bound)");
}

/// Table 9: verification results with IFTTT rules.
fn table9() {
    heading("Table 9: verification results with IFTTT rules");
    let rules = ifttt::ifttt_rules();
    let apps = ifttt::translate_rules(&rules);
    let config = expert_config(&apps);
    let pipeline = Pipeline::with_events(2);
    let result = pipeline.verify(&apps, &config);
    let mut rows: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for group in &result.groups {
        for property in group.violated_properties() {
            if let Some(p) = pipeline.properties.get(iotsan::properties::PropertyId(property)) {
                if p.class == PropertyClass::PhysicalState {
                    rows.entry(p.name.clone()).or_default().push(group.apps.join(", "));
                }
            }
        }
    }
    println!("{:<70} related rules", "Violated property");
    for (property, groups) in &rows {
        println!("{property:<70} {}", groups.join(" | "));
    }
    println!("total violations: {}", result.violation_count());
    println!("paper reports 7 violations of 4 unsafe physical states across the 10 rules");
}

/// §10.3: violation attribution of the 9 malicious apps plus benign controls.
fn attribution() {
    heading("Attribution (Section 10.3): malicious apps and market apps");
    let devices = standard_household();
    let pipeline = Pipeline::with_events(3);
    let thresholds = AttributionThresholds::default();

    // The malicious apps are evaluated installed alongside benign apps, as in
    // §10.1; these two provide mode changes and lock commands.
    let installed_sources = [market::AUTO_MODE_CHANGE, market::LOCK_IT_WHEN_I_LEAVE];
    let installed =
        iotsan::translate_sources(&installed_sources).expect("installed apps translate");

    println!("-- ContexIoT-style malicious apps --");
    let mut flagged = 0usize;
    let malicious = malicious::malicious_apps();
    for entry in &malicious {
        let apps = translate_group(std::slice::from_ref(&entry.app));
        let report = pipeline.attribute_new_app(&apps[0], &installed, &devices, &thresholds);
        if report.verdict.flags_app() {
            flagged += 1;
        }
        println!(
            "  {:<24} -> {} (standalone ratio {:.0}%)",
            entry.app.name,
            report.verdict,
            report.standalone_ratio * 100.0
        );
    }
    println!(
        "flagged {flagged}/{} malicious apps (paper: 9/9 at 100% violation ratio)",
        malicious.len()
    );

    println!("\n-- benign market apps (controls) --");
    for app in market::named_apps().iter().take(5) {
        let apps = translate_group(std::slice::from_ref(app));
        if apps[0].handlers.is_empty() {
            continue;
        }
        let report = pipeline.attribute_new_app(&apps[0], &installed, &devices, &thresholds);
        println!("  {:<24} -> {}", app.name, report.verdict);
    }
}

/// Figure 7: the Spin-style counterexample log for Auto Mode Change + Unlock Door.
fn fig7() {
    heading("Figure 7: example violation log (Auto Mode Change + Unlock Door)");
    let apps = translate_group(&samples::bad_group_mode_unlock());
    let config = expert_config(&apps);
    let run = run_sequential(&apps, &config, 2, iotsan_bench::experiment_budget(10, 30));
    let Some(found) = run.report.violations.iter().find(|v| {
        v.violation.description.contains("main door should be locked when no one is at home")
    }) else {
        println!("no violation found (unexpected)");
        return;
    };
    print!("{}", found.trace.render(&found.violation));
}

/// Figure 8a: the four-app interaction chain that unlocks the door at night.
fn fig8a() {
    heading("Figure 8a: violation due to bad app interactions (4 apps)");
    let apps = translate_group(&samples::figure8a_group());
    let config = expert_config(&apps);
    let pipeline = Pipeline::with_events(3);
    let result = pipeline.verify(&apps, &config);
    for group in &result.groups {
        for found in &group.report.violations {
            if found.violation.description.contains("sleeping")
                || found.violation.description.contains("main door")
            {
                println!("violated: {}", found.violation);
                println!("apps involved: {}", group.apps.join(", "));
                println!("counterexample ({} events):", found.trace.len());
                print!("{}", found.trace);
                return;
            }
        }
    }
    println!("violations found: {:?}", result.violations());
}

/// Figure 8b: a failed motion sensor prevents Make It So from arming the house.
fn fig8b() {
    heading("Figure 8b: violation due to a device failure (failed motion sensor)");
    let apps = translate_group(&samples::figure8b_group());
    let config = expert_config(&apps);
    let pipeline = Pipeline::with_events(3);
    let restricted = pipeline.restrict_config(&apps, &config);
    // Fail only the motion sensor, as in the paper's scenario.
    let motion = restricted
        .devices
        .iter()
        .position(|d| d.capability == "motionSensor")
        .map(|i| DeviceId(i as u32))
        .into_iter()
        .collect::<Vec<_>>();
    let mut options = ModelOptions::with_events(3);
    options.failure_policy = FailurePolicy::OnlyDevices(motion);
    let system = iotsan::system::InstalledSystem::new(apps.clone(), restricted);
    let model = iotsan::model::SequentialModel::new(system, PropertySet::all(), options);
    let report =
        iotsan::checker::Checker::new(iotsan::checker::SearchConfig::with_depth(3)).verify(&model);
    for found in &report.violations {
        println!("violated: {}", found.violation);
        println!("counterexample ({} events):", found.trace.len());
        print!("{}", found.trace);
        println!();
    }
    if report.violations.is_empty() {
        println!("no violations found (unexpected)");
    }
    println!(
        "paper: the failed motion sensor leaves the door unlocked and no notification is sent"
    );
}
