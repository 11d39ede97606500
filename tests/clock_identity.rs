//! Clock-aware state identity.
//!
//! The checker stores each encoded state once, at the shallowest depth it is
//! reached.  That is only sound when the encoding is the whole state: apps
//! that read the modelled clock (`now()`, `evt.date`, a timer's tick event)
//! behave differently after different event counts, so for them the
//! sequential model must encode the count.  These tests pin that: the model
//! detects the clock reads, its counts equal the naive `(encoding, depth)`
//! reference explorer's exactly, and a clock-blind identity would lose a
//! violation the reference finds.

use iotsan::checker::{
    Checker, LogLine, ParallelChecker, SearchConfig, StepLog, StepOutcome, TransitionSystem,
};
use iotsan::config::{expert_configure, standard_household};
use iotsan::logevent::LogEvent;
use iotsan::model::{ExternalAction, ModelScratch, SequentialModel};
use iotsan::system::SystemState;
use iotsan::{translate_sources, Pipeline};
use iotsan_scenarios::reference;

/// "Lights should be off while people are sleeping".
const LIGHTS_OFF_AT_NIGHT: u32 = 39;

/// Night mode and lights on, but only once the clock reads 1800 s — the
/// third external event.  Its one trigger toggles a motion sensor, so the
/// second event returns the home to its initial physical state.
const BEDTIME: &str = r#"
definition(name: "Bedtime", namespace: "t", author: "t", description: "d")
preferences {
    section("s") { input "motion1", "capability.motionSensor" }
    section("s") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(motion1, "motion", onMotion) }
def onMotion(evt) {
    if (now() >= 1800) { setLocationMode("Night"); lights.on() }
}
"#;

/// A timer handler that reads its tick event's timestamp.
const NIGHTFALL: &str = r#"
definition(name: "Nightfall", namespace: "t", author: "t", description: "d")
preferences { section("s") { input "lights", "capability.switch", multiple: true } }
def installed() { runIn(600, nightfall) }
def nightfall(evt) {
    if (evt.date >= 1200) { setLocationMode("Night") }
}
"#;

/// The same lights app without any clock read.
const NIGHT_LIGHT: &str = r#"
definition(name: "Night Light", namespace: "t", author: "t", description: "d")
preferences {
    section("s") { input "motion1", "capability.motionSensor" }
    section("s") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(motion1, "motion", onMotion) }
def onMotion(evt) {
    if (evt.value == "active") { setLocationMode("Night"); lights.on() }
}
"#;

fn model(sources: &[&str], events: usize) -> SequentialModel {
    let apps = translate_sources(sources).expect("the apps translate");
    let config = expert_configure(&apps, &standard_household());
    let pipeline = Pipeline::with_events(events);
    pipeline.group_model(&apps, pipeline.restrict_config(&apps, &config))
}

#[test]
fn clock_reads_put_the_event_count_into_the_encoding() {
    let encoding = |model: &SequentialModel, events: usize| {
        let mut state = model.initial_state();
        state.external_events = events;
        let mut out = Vec::new();
        model.encode(&state, &mut out);
        out
    };
    for sources in [&[BEDTIME][..], &[NIGHTFALL], &[BEDTIME, NIGHT_LIGHT]] {
        let model = model(sources, 3);
        assert_ne!(encoding(&model, 1), encoding(&model, 2), "{sources:?}");
    }
    // Without clock reads, equal physical states merge across event counts.
    let model = model(&[NIGHT_LIGHT], 3);
    assert_eq!(encoding(&model, 1), encoding(&model, 2));
}

#[test]
fn clock_aware_counts_equal_the_depth_tagged_reference() {
    for (sources, events) in [(&[BEDTIME][..], 4), (&[NIGHTFALL], 4), (&[BEDTIME, NIGHTFALL], 3)] {
        let model = model(sources, events);
        let naive = reference::explore(&model, events);
        let config = SearchConfig::with_depth(events);
        for report in [
            Checker::new(config.clone()).verify(&model),
            ParallelChecker::new(config.clone().parallel(3)).verify(&model),
        ] {
            // The encoded count is the depth, so `(encoding, depth)` pairs
            // and encodings are the same identity.
            assert_eq!(report.stats.states_stored, naive.states, "{sources:?}");
            assert_eq!(report.stats.transitions, naive.transitions, "{sources:?}");
            assert_eq!(report.violated_properties(), naive.violated, "{sources:?}");
        }
    }
}

/// The sequential model with the event count left out of the encoding — the
/// identity the checker would use if the clock reads went unnoticed.
struct ClockBlind(SequentialModel);

impl TransitionSystem for ClockBlind {
    type State = SystemState;
    type Action = ExternalAction;
    type Event = LogEvent;
    type Scratch = ModelScratch;

    fn initial_state(&self) -> SystemState {
        self.0.initial_state()
    }

    fn actions(&self, state: &SystemState, out: &mut Vec<ExternalAction>) {
        self.0.actions(state, out);
    }

    fn apply(
        &self,
        state: &SystemState,
        action: &ExternalAction,
        scratch: &mut ModelScratch,
        log: &mut StepLog<LogEvent>,
    ) -> StepOutcome<SystemState> {
        self.0.apply(state, action, scratch, log)
    }

    fn encode(&self, state: &SystemState, out: &mut Vec<u8>) {
        state.encode_into(out);
    }

    fn display_action(&self, action: &ExternalAction) -> String {
        self.0.display_action(action)
    }

    fn render_event(&self, event: &LogEvent) -> LogLine {
        self.0.render_event(event)
    }
}

#[test]
fn a_clock_dependent_violation_survives_state_merging() {
    let model = model(&[BEDTIME], 3);
    let naive = reference::explore(&model, 3);
    let report = Checker::new(SearchConfig::with_depth(3)).verify(&model);
    assert!(naive.violated.contains(&LIGHTS_OFF_AT_NIGHT));
    assert_eq!(report.violated_properties(), naive.violated);
    let found = report.violation_for(LIGHTS_OFF_AT_NIGHT).expect("violation found");
    assert_eq!(found.depth, 3);

    // Without the count, the second event's state (motion back to its
    // initial value, clock at 1200 s) merges with the initial state, and
    // the 1800 s event that breaks the property is never explored.
    let blind = Checker::new(SearchConfig::with_depth(3)).verify(&ClockBlind(model));
    assert!(!blind.violated_properties().contains(&LIGHTS_OFF_AT_NIGHT));
}
