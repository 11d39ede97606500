//! `daemon_cold` and `daemon_warm`: the seeded job stream through a library
//! `Daemon` — its write path on a fresh store, and its read path after a
//! restart over the log a cold run wrote.

use crate::golden::{market_jobs, Shape};
use crate::host::{median, peak_rss_mib, reset_peak_rss};
use crate::layers::{Counters, Ledger};
use crate::stream::{generate, job_shape};
use crate::trace::Tracer;
use crate::{job_latency, Args, Metric, Outcome};
use iotsan::attribution::attribute_traces;
use iotsan::config::{expert_configure, standard_household};
use iotsan::depgraph::analyze;
use iotsan::groovy::SmartApp;
use iotsan::ir::{lower_app, IrApp};
use iotsan::planner::fingerprint_group;
use iotsan::{FleetGroupReport, Pipeline, VerificationCache, VerificationPlanner};
use iotsan_daemon::{
    resolve_sources, Daemon, DaemonConfig, JobOutcome, JobSpec, JobStatus, StoreBacking,
    VerdictStore,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon worker threads.  One: on a shared 2-vCPU host a second worker
/// made the job stream's times follow the neighbours' load (ten seeded
/// `daemon_cold` runs spread up to 0.29 IQR / median in wall time, as the
/// 2-worker parallel checker did on `deep_group`), and the jobs' elapsed
/// times included waits on the other worker's in-flight groups.
pub const WORKERS: usize = 1;
/// Timed units run even when the time is up sooner.  Four units of the
/// 30-job stream give 120 job samples, so the 90th percentile has at least
/// 10 beyond it.
const MIN_UNITS: usize = 4;
/// Extra empty-store daemon starts timed for `daemon_cold`'s `setup_s`,
/// besides the one every timed unit makes.
const COLD_SETUP_REPEATS: usize = 100;

/// One daemon job's verdict in comparable form.
type GroupKey = (Vec<String>, u64, iotsan::checker::SearchReport);

fn groups(outcome: &JobOutcome) -> Vec<GroupKey> {
    outcome.report.as_ref().map_or_else(Vec::new, |r| {
        r.groups.iter().map(|g| (g.apps.clone(), g.fingerprint.0, g.report.clone())).collect()
    })
}

/// Why a job failed, if it did.  `reference` is the cold run's outcome of
/// the same job, which a warm replay must reproduce exactly.
fn job_failure(
    outcome: &JobOutcome,
    spec: &JobSpec,
    goldens: &BTreeMap<Shape, BTreeSet<u32>>,
    reference: Option<&JobOutcome>,
) -> Option<String> {
    let id = &outcome.id;
    if outcome.status != JobStatus::Ok {
        return Some(format!("{id}: status {:?}", outcome.status));
    }
    let Some(report) = &outcome.report else { return Some(format!("{id}: no report")) };
    if outcome.degraded {
        return Some(format!("{id}: degraded"));
    }
    if report.groups.iter().any(|g| g.report.stats.truncated) {
        return Some(format!("{id}: truncated search"));
    }
    let violated = report.violated_properties();
    let shape = job_shape(spec);
    match goldens.get(&shape) {
        Some(golden) if *golden == violated => {}
        golden => return Some(format!("{id} {shape:?}: violated {violated:?}, golden {golden:?}")),
    }
    if let Some(reference) = reference {
        if groups(outcome) != groups(reference) {
            return Some(format!("{id}: warm report differs from the cold run's"));
        }
    }
    None
}

/// One daemon lifetime: start over `store`, run the stream, shut down.
struct DaemonUnit {
    setup: Duration,
    wall: Duration,
    outcomes: Vec<JobOutcome>,
    /// Groups model-checked (summed over the job reports; in-flight dedup
    /// makes this exact under any interleaving).
    misses: usize,
    store_appends: u64,
}

fn daemon_unit(store: &Path, stream: &[JobSpec]) -> io::Result<DaemonUnit> {
    let begun = Instant::now();
    let mut daemon = Daemon::start(DaemonConfig { workers: WORKERS, ..DaemonConfig::new(store) })?;
    let setup = begun.elapsed();
    let appends = Counters::read().store_appends;
    let begun = Instant::now();
    let outcomes = daemon.run_batch(stream.to_vec());
    let wall = begun.elapsed();
    let store_appends = Counters::read().store_appends - appends;
    daemon.shutdown()?;
    let misses = outcomes.iter().filter_map(|o| o.report.as_ref()).map(|r| r.cache_misses).sum();
    Ok(DaemonUnit { setup, wall, outcomes, misses, store_appends })
}

/// Σ job time over the worker time a batch had.
fn busy_share(unit: &DaemonUnit) -> f64 {
    let busy: f64 = unit.outcomes.iter().map(|o| o.elapsed.as_secs_f64()).sum();
    busy / (unit.wall.as_secs_f64() * WORKERS as f64)
}

/// Runs `daemon_cold` (`warm == false`) or `daemon_warm`.
pub fn run(warm: bool, args: &Args, work: &Path, t: &mut Tracer) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let stream = generate(args.seed);
    let goldens = market_jobs();
    let fixture_log = work.join("fixture").join("verdicts.log");
    // The warm fixture: a cold run of the same stream, untimed.  Its
    // outcomes are the reference every warm job must reproduce.
    let fixture = if warm { Some(daemon_unit(&fixture_log, &stream)?) } else { None };
    let reference = fixture.as_ref().map(|f| &f.outcomes);
    if let Some(fixture) = &fixture {
        for (spec, job) in stream.iter().zip(&fixture.outcomes) {
            outcome.check(job_failure(job, spec, &goldens, None));
        }
        let records = VerdictStore::open(&fixture_log)?.records();
        outcome.notes.push(format!(
            "fixture: cold run of the stream, {} groups verified, {records} store records, {:.3} s",
            fixture.misses,
            fixture.wall.as_secs_f64()
        ));
    }
    let unit_store = |unit: usize| -> PathBuf {
        if warm {
            fixture_log.clone()
        } else {
            work.join(format!("cold-{unit}")).join("verdicts.log")
        }
    };

    if !args.trace {
        let (mut setups, mut walls, mut job_ms) = (Vec::new(), Vec::new(), Vec::new());
        if !warm {
            for repeat in 0..COLD_SETUP_REPEATS {
                let store = work.join(format!("empty-{repeat}"));
                let begun = Instant::now();
                let config = DaemonConfig::new(store.join("verdicts.log"));
                let daemon = Daemon::start(DaemonConfig { workers: WORKERS, ..config })?;
                setups.push(begun.elapsed().as_secs_f64());
                daemon.shutdown()?;
                let _ = std::fs::remove_dir_all(store);
            }
        }
        reset_peak_rss();
        let mut first = None;
        let mut lookups = (0usize, 0usize, 0usize);
        let start = Instant::now();
        while walls.len() < MIN_UNITS || start.elapsed().as_secs() < args.seconds {
            let unit = walls.len();
            let store = unit_store(unit);
            let run = daemon_unit(&store, &stream)?;
            if !warm {
                let _ = std::fs::remove_dir_all(store.parent().expect("store has a directory"));
            }
            setups.push(run.setup.as_secs_f64());
            walls.push(run.wall.as_secs_f64());
            let counts = (run.misses, run.store_appends);
            outcome.expect_repeat("daemon misses/store appends", &first, unit, &counts);
            first.get_or_insert(counts);
            for (index, (spec, job)) in stream.iter().zip(&run.outcomes).enumerate() {
                job_ms.push(job.elapsed.as_secs_f64() * 1e3);
                let reference = reference.map(|r| &r[index]);
                outcome.check(job_failure(job, spec, &goldens, reference));
                if let Some(report) = &job.report {
                    lookups.0 += report.groups.len();
                    lookups.1 += report.cache_hits;
                    lookups.2 += job.backing_hits;
                }
            }
        }
        let (groups, hits, backing) = lookups;
        outcome.notes.push(format!("units: {walls:?} s"));
        outcome.notes.push(format!(
            "stream: {} jobs x {} units; per unit {:.0} group lookups, {:.3} hit share, \
             {:.3} served from disk, {} groups verified",
            stream.len(),
            walls.len(),
            groups as f64 / walls.len() as f64,
            hits as f64 / groups.max(1) as f64,
            backing as f64 / groups.max(1) as f64,
            first.map_or(0, |c| c.0)
        ));
        outcome.metrics.push(Metric::new("setup_s", median(&setups), "s"));
        outcome.metrics.push(Metric::new("wall_s", median(&walls), "s"));
        job_latency(&mut outcome, &job_ms);
        outcome.metrics.push(Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"));
        return Ok(outcome);
    }

    // Traced.  One real daemon batch gives the workers' busy share; then the
    // stream goes single-threaded through the functions a worker composes.
    let mut ledger = Ledger::default();
    let busy_store =
        if warm { fixture_log.clone() } else { work.join("busy").join("verdicts.log") };
    let busy = daemon_unit(&busy_store, &stream)?;
    ledger.busy_share = busy_share(&busy);
    for (index, (spec, job)) in stream.iter().zip(&busy.outcomes).enumerate() {
        outcome.check(job_failure(job, spec, &goldens, reference.map(|r| &r[index])));
    }
    let mut first = None;
    let start = Instant::now();
    while ledger.units == 0 || start.elapsed().as_secs() < args.seconds {
        let unit = ledger.units;
        let store_path = unit_store(unit);
        let before = Counters::read();
        let (reports, store) = t.unit(unit, |t| traced_unit(t, &mut ledger, &store_path, &stream));
        let delta = Counters::read().since(before);
        let counts = (delta.cache_misses, delta.store_appends);
        outcome.expect_repeat("cache misses/store appends", &first, unit, &counts);
        first.get_or_insert(counts);
        ledger.add_unit(delta);
        {
            let store = store.lock().unwrap_or_else(|e| e.into_inner());
            ledger.store_records = store.records();
            ledger.store_log_bytes = store.file_bytes()?;
        }
        drop(store);
        if !warm {
            let _ = std::fs::remove_dir_all(store_path.parent().expect("store has a directory"));
        }
        for (index, (spec, report)) in stream.iter().zip(reports).enumerate() {
            let job = JobOutcome {
                index,
                id: spec.id.clone(),
                status: JobStatus::Ok,
                report: Some(report),
                backing_hits: 0,
                degraded: false,
                elapsed: Duration::ZERO,
            };
            let reference = reference.map(|r| &r[index]);
            outcome.check(job_failure(&job, spec, &goldens, reference));
        }
    }
    if ledger.codec_mismatches > 0 {
        outcome
            .failures
            .push(format!("{} verdicts changed in a codec round trip", ledger.codec_mismatches));
    }
    outcome.metrics = ledger.metrics(t);
    Ok(outcome)
}

/// The pipeline a daemon worker builds for `spec`.
fn pipeline_for(spec: &JobSpec) -> Pipeline {
    let mut pipeline = Pipeline::with_events(spec.events);
    if spec.failures {
        pipeline = pipeline.with_failures();
    }
    if spec.workers > 1 {
        pipeline = pipeline.with_workers(spec.workers);
    }
    pipeline
}

/// One traced unit: open the store, then every job through the layers a
/// daemon worker composes, single-threaded.  Returns each job's report and
/// the store handle.
fn traced_unit(
    t: &mut Tracer,
    ledger: &mut Ledger,
    store_path: &Path,
    stream: &[JobSpec],
) -> (Vec<iotsan::FleetReport>, Arc<Mutex<VerdictStore>>) {
    if let Some(dir) = store_path.parent() {
        std::fs::create_dir_all(dir).expect("create the store directory");
    }
    let store = t.span("store.recover", |_| VerdictStore::open(store_path).expect("open store"));
    let store = Arc::new(Mutex::new(store));
    let mut cache =
        VerificationCache::new().with_backing(Box::new(StoreBacking::new(Arc::clone(&store))));
    let mut reports = Vec::with_capacity(stream.len());
    for spec in stream {
        reports.push(traced_job(t, ledger, &mut cache, spec));
    }
    t.span("store.close", |_| drop(cache));
    (reports, store)
}

/// One job through resolve, parse, lower, configure, plan (with analyze
/// and fingerprint also timed on their own), cache lookup, verification of
/// misses, store append and attribution.
fn traced_job(
    t: &mut Tracer,
    ledger: &mut Ledger,
    cache: &mut VerificationCache,
    spec: &JobSpec,
) -> iotsan::FleetReport {
    let sources = t.span("apps.resolve", |_| resolve_sources(&spec.bundle).expect("market job"));
    let mut apps: Vec<IrApp> = Vec::with_capacity(sources.len());
    for source in &sources {
        let parsed =
            t.span("groovy.parse", |_| SmartApp::parse(source).expect("market app parses"));
        apps.push(t.span("ir.lower", |_| lower_app(&parsed).expect("market app lowers")));
    }
    let config = t.span("config.configure", |_| expert_configure(&apps, &standard_household()));
    let pipeline = pipeline_for(spec);
    t.span("depgraph.analyze", |_| {
        let verifiable: Vec<IrApp> =
            apps.iter().filter(|a| !a.dynamic_discovery).cloned().collect();
        analyze(&verifiable)
    });
    let planner = VerificationPlanner::new(&pipeline);
    let plan = t.span("planner.plan", |_| planner.plan(&apps, &config));
    for job in &plan.jobs {
        let fingerprint = t.span("planner.fingerprint", |_| {
            fingerprint_group(&pipeline, &job.members, &job.config)
        });
        assert_eq!(fingerprint, job.fingerprint, "fingerprints are pure");
    }
    ledger.groups += plan.jobs.len() as u64;

    let mut groups = Vec::with_capacity(plan.jobs.len());
    let (mut cache_hits, mut cache_misses) = (0, 0);
    for job in &plan.jobs {
        let backing_before = cache.backing_hits();
        let (result, from_cache) = match t.span("cache.lookup", |_| cache.lookup(job.fingerprint)) {
            Some(hit) => {
                if cache.backing_hits() > backing_before {
                    ledger.round_trip(t, &hit);
                }
                (hit, true)
            }
            None => {
                let fresh =
                    ledger.verify_restricted(t, &pipeline, &job.members, job.config.clone());
                if !fresh.report.stats.truncated {
                    ledger.round_trip(t, &fresh);
                    t.span("store.append", |_| cache.insert(job.fingerprint, fresh.clone()));
                }
                (fresh, false)
            }
        };
        if from_cache {
            cache_hits += 1;
        } else {
            cache_misses += 1;
        }
        let attributions = t.span("attribution.rank", |_| {
            attribute_traces(&result.apps, &result.report.violations)
        });
        ledger.attribution_calls += 1;
        groups.push(FleetGroupReport {
            apps: result.apps,
            fingerprint: job.fingerprint,
            from_cache,
            report: result.report,
            attributions,
        });
    }
    groups.sort_by(|a, b| a.apps.cmp(&b.apps));
    iotsan::FleetReport {
        groups,
        excluded_apps: plan.excluded_apps.clone(),
        original_handlers: plan.original_handlers,
        reduced_handlers: plan.reduced_handlers,
        cache_hits,
        cache_misses,
        persist_failures: 0,
    }
}
