//! `deep_group`: one explicit group verified over and over on the
//! sequential engine, the checker's steady-state loop doing nearly all the
//! work.
//!
//! The same input on the 2-worker `ParallelChecker` is not a workload: over
//! ten seeded runs on a shared 2-vCPU host its wall time spread 0.29 and
//! 0.30 (IQR / median), above the largest bound a metric may have (0.25);
//! both of its threads feel every neighbour's load.

use crate::golden::DEEP_GROUP;
use crate::host::{median, peak_rss_mib, reset_peak_rss};
use crate::layers::{Counters, Ledger};
use crate::trace::Tracer;
use crate::{job_latency, Args, Metric, Outcome};
use iotsan::config::{expert_configure, standard_household, SystemConfig};
use iotsan::ir::IrApp;
use iotsan::{translate_sources, GroupResult, Pipeline};
use std::collections::BTreeSet;
use std::time::Instant;

/// Market apps in the group.
const APPS: usize = 8;
/// External-event bound.
const EVENTS: usize = 6;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 41;
/// Timed units run even when the time is up sooner.
const MIN_UNITS: usize = 2;

/// Translates the group and configures it (the set-up a user pays before
/// the first verification can start).
fn inputs() -> (Vec<IrApp>, SystemConfig) {
    let market = iotsan_apps::market::market_apps();
    let sources: Vec<&str> = market.iter().take(APPS).map(|a| a.source.as_str()).collect();
    let apps = translate_sources(&sources).expect("the market corpus translates");
    let config = expert_configure(&apps, &standard_household());
    (apps, config)
}

/// The pipeline the group is verified with.
fn pipeline() -> Pipeline {
    Pipeline::with_events(EVENTS).with_failures()
}

fn check(outcome: &mut Outcome, unit: usize, result: &GroupResult) {
    let violated = result.violated_properties();
    let golden: BTreeSet<u32> = DEEP_GROUP.iter().copied().collect();
    let why = if result.report.stats.truncated {
        Some(format!("unit {unit}: search truncated"))
    } else if violated != golden {
        Some(format!("unit {unit}: violated {violated:?}, golden {golden:?}"))
    } else {
        None
    };
    outcome.check(why);
}

/// Checks that the checker counts of `delta` repeat those of the first unit.
fn expect_repeat(
    outcome: &mut Outcome,
    first: &mut Option<Counters>,
    unit: usize,
    delta: Counters,
) {
    let counts = Counters {
        states: delta.states,
        transitions: delta.transitions,
        dedup_hits: delta.dedup_hits,
        ..Counters::default()
    };
    outcome.expect_repeat("checker states/transitions/dedup hits", first, unit, &counts);
    first.get_or_insert(counts);
}

/// Runs `deep_group`.
pub fn run(args: &Args, t: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs_once = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let made = inputs();
        setups.push(start.elapsed().as_secs_f64());
        inputs_once = Some(made);
    }
    let (apps, config) = inputs_once.expect("at least one set-up");
    let pipeline = pipeline();
    let mut first = None;

    if !args.trace {
        reset_peak_rss();
        let mut unit_s = Vec::new();
        let start = Instant::now();
        while unit_s.len() < MIN_UNITS || start.elapsed().as_secs() < args.seconds {
            let before = Counters::read();
            let begun = Instant::now();
            let result = pipeline.verify_group(&apps, &config);
            unit_s.push(begun.elapsed().as_secs_f64());
            let unit = unit_s.len() - 1;
            expect_repeat(&mut outcome, &mut first, unit, Counters::read().since(before));
            check(&mut outcome, unit, &result);
        }
        outcome.notes.push(format!("units: {unit_s:?} s"));
        let job_ms: Vec<f64> = unit_s.iter().map(|s| s * 1e3).collect();
        outcome.metrics.push(Metric::new("setup_s", median(&setups), "s"));
        outcome.metrics.push(Metric::new("wall_s", median(&unit_s), "s"));
        job_latency(&mut outcome, &job_ms);
        outcome.metrics.push(Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"));
        return outcome;
    }

    // Traced: alternate an untraced `verify_group` unit with a traced unit
    // that composes the same layers, so the difference is the overhead.
    let mut ledger = Ledger::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced_s.is_empty() || start.elapsed().as_secs() < args.seconds {
        let begun = Instant::now();
        let result = pipeline.verify_group(&apps, &config);
        plain_s.push(begun.elapsed().as_secs_f64());
        check(&mut outcome, plain_s.len() - 1, &result);

        let unit = traced_s.len();
        let before = Counters::read();
        let begun = Instant::now();
        let result = t.unit(unit, |t| {
            let restricted =
                t.span("core.properties", |_| pipeline.restrict_config(&apps, &config));
            ledger.verify_restricted(t, &pipeline, &apps, restricted)
        });
        traced_s.push(begun.elapsed().as_secs_f64());
        let delta = Counters::read().since(before);
        expect_repeat(&mut outcome, &mut first, unit, delta);
        ledger.add_unit(delta);
        ledger.groups += 1;
        check(&mut outcome, unit, &result);
    }
    ledger.overhead_s = median(&traced_s) - median(&plain_s);
    outcome.notes.push(format!(
        "tracing overhead: traced {:.4} s - untraced {:.4} s per unit ({} units each)",
        median(&traced_s),
        median(&plain_s),
        traced_s.len()
    ));
    outcome.metrics = ledger.metrics(t);
    outcome
}
