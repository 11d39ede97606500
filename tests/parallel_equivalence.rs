//! Equivalence suite for the parallel search engine: for the same bounded
//! model, [`ParallelChecker`] must report exactly the set of violated
//! properties the sequential [`Checker`] reports — and, with exact storage,
//! the same state and transition counts, since every level of the
//! level-order search holds a schedule-independent set of states.  Both
//! engines are also held to the naive reference explorer of
//! `iotsan-scenarios`, which stores `(encoding, depth)` pairs instead of
//! each state once.

use iotsan::checker::{Checker, ParallelChecker, SearchConfig, SearchReport};
use iotsan::config::{expert_configure, standard_household};
use iotsan::model::{ModelOptions, SequentialModel};
use iotsan::properties::PropertySet;
use iotsan::system::InstalledSystem;
use iotsan::translate_sources;
use iotsan_apps::{market, samples};
use iotsan_scenarios::reference;
use proptest::prelude::*;

/// Builds the sequential-design model for a set of corpus apps under the
/// expert configuration restricted to those apps' devices.
fn model_for(apps_sources: &[&str], events: usize) -> Option<SequentialModel> {
    let mut apps = translate_sources(apps_sources).ok()?;
    apps.dedup_by(|x, y| x.name == y.name);
    let config = expert_configure(&apps, &standard_household());
    let pipeline = iotsan::Pipeline::with_events(events);
    let config = pipeline.restrict_config(&apps, &config);
    let system = InstalledSystem::new(apps, config);
    Some(SequentialModel::new(system, PropertySet::all(), ModelOptions::with_events(events)))
}

fn assert_equivalent(seq: &SearchReport, par: &SearchReport, context: &str) {
    assert_eq!(
        seq.violated_properties(),
        par.violated_properties(),
        "violation sets diverge ({context})"
    );
    assert_eq!(seq.stats.states_stored, par.stats.states_stored, "state counts ({context})");
    assert_eq!(seq.stats.transitions, par.stats.transitions, "transition counts ({context})");
    assert_eq!(
        seq.stats.max_depth_reached, par.stats.max_depth_reached,
        "depth reached ({context})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random pairs of market apps at random depths and worker counts:
    /// the parallel checker is a drop-in replacement for the sequential one.
    #[test]
    fn parallel_matches_sequential_on_random_configs(
        a in 0usize..12,
        b in 0usize..12,
        depth in 1usize..4,
        workers in 2usize..5,
    ) {
        let named = market::named_apps();
        let pair = [named[a % named.len()].clone(), named[b % named.len()].clone()];
        let sources: Vec<&str> = pair.iter().map(|x| x.source.as_str()).collect();
        let Some(model) = model_for(&sources, depth) else { return Ok(()); };

        let seq = Checker::new(SearchConfig::with_depth(depth)).verify(&model);
        let par =
            ParallelChecker::new(SearchConfig::with_depth(depth).parallel(workers)).verify(&model);
        prop_assert_eq!(seq.violated_properties(), par.violated_properties());
        prop_assert_eq!(seq.stats.states_stored, par.stats.states_stored);
        prop_assert_eq!(seq.stats.transitions, par.stats.transitions);
        let naive = reference::explore(&model, depth);
        prop_assert_eq!(&naive.violated, &seq.violated_properties());
        prop_assert!(seq.stats.states_stored <= naive.states);
    }
}

/// Depth-4 sweep (the ISSUE's bound) over fixed groups: a violating group and
/// a safe group, checked at every worker count up to 8.
#[test]
fn depth_four_equivalence_on_fixed_groups() {
    for group in [samples::bad_group_mode_unlock(), samples::good_group()] {
        let sources: Vec<&str> = group.iter().map(|a| a.source.as_str()).collect();
        let model = model_for(&sources, 4).expect("corpus apps translate");
        let seq = Checker::new(SearchConfig::with_depth(4)).verify(&model);
        let naive = reference::explore(&model, 4);
        assert_eq!(naive.violated, seq.violated_properties(), "reference verdicts");
        let depths = |report: &SearchReport| {
            report.violations.iter().map(|v| (v.violation.property, v.depth)).collect::<Vec<_>>()
        };
        for workers in [2usize, 4, 8] {
            let par =
                ParallelChecker::new(SearchConfig::with_depth(4).parallel(workers)).verify(&model);
            assert_equivalent(&seq, &par, &format!("{workers} workers, depth 4"));
            // Both engines report shortest counterexamples.
            assert_eq!(depths(&seq), depths(&par), "{workers} workers, depth 4");
        }
    }
}

/// Repeated parallel runs are reproducible in everything the deterministic
/// merge guarantees: the violated-property set, each counterexample's depth,
/// and the explored-state counters.  (The specific trace per property is
/// best-effort — equal-depth paths racing to the same state may seed
/// different subtree traces; see `iotsan_checker::parallel` docs.)
#[test]
fn parallel_reports_are_reproducible() {
    let group = samples::bad_group_mode_unlock();
    let sources: Vec<&str> = group.iter().map(|a| a.source.as_str()).collect();
    let model = model_for(&sources, 3).expect("corpus apps translate");
    let config = SearchConfig::with_depth(3).parallel(4);
    let signature = |report: &SearchReport| {
        report.violations.iter().map(|v| (v.violation.property, v.depth)).collect::<Vec<_>>()
    };
    let first = ParallelChecker::new(config.clone()).verify(&model);
    assert!(first.has_violations());
    for _ in 0..3 {
        let again = ParallelChecker::new(config.clone()).verify(&model);
        assert_eq!(signature(&first), signature(&again));
        assert_eq!(first.stats.states_stored, again.stats.states_stored);
        assert_eq!(first.stats.transitions, again.stats.transitions);
    }
}
