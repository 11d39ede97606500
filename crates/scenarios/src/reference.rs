//! A deliberately naive reference explorer for differential checks.
//!
//! The checker's engines store each state once, at the shallowest depth it
//! is reached, and expand it once.  This explorer keeps the older, plainly
//! sound identity instead: a state is the pair `(encoding, depth)`, so a
//! physical state reached after different event counts is stored and
//! expanded once per count.  It has none of the engines' machinery — a
//! breadth-first walk over a `HashSet<Vec<u8>>`, no trace arena, no caps, no
//! sharding — so agreeing verdicts are evidence that the shortcut loses
//! nothing.  Only use it on small models: nothing stops it from running out
//! of memory.

use iotsan::checker::{StepLog, TransitionSystem};
use std::collections::{BTreeSet, HashSet};

/// What the reference explorer saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReferenceReport {
    /// Ids of the violated properties.
    pub violated: BTreeSet<u32>,
    /// Distinct `(encoding, depth)` pairs stored, the initial state included.
    pub states: usize,
    /// Transitions applied.
    pub transitions: usize,
}

/// Explores `model` up to `max_depth` transitions along any path.
pub fn explore<T: TransitionSystem>(model: &T, max_depth: usize) -> ReferenceReport {
    let key = |state: &T::State, depth: usize| {
        let mut bytes = Vec::new();
        model.encode(state, &mut bytes);
        bytes.extend_from_slice(&(depth as u64).to_le_bytes());
        bytes
    };
    let mut report = ReferenceReport::default();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let initial = model.initial_state();
    seen.insert(key(&initial, 0));
    let mut level = vec![initial];
    let mut actions = Vec::new();
    let mut scratch = T::Scratch::default();
    let mut log = StepLog::disabled();
    for depth in 1..=max_depth {
        let mut next = Vec::new();
        for state in &level {
            model.actions(state, &mut actions);
            for action in &actions {
                let outcome = model.apply(state, action, &mut scratch, &mut log);
                report.transitions += 1;
                report.violated.extend(outcome.violations.iter().map(|v| v.property));
                if seen.insert(key(&outcome.state, depth)) {
                    next.push(outcome.state);
                }
            }
        }
        level = next;
    }
    report.states = seen.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan::checker::{Checker, SearchConfig};
    use iotsan::config::{expert_configure, standard_household};
    use iotsan::{translate_sources, Pipeline};

    /// One app on a motion sensor, which toggles between two values, so
    /// physical states repeat at different depths.
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

    #[test]
    fn reference_counts_every_depth_and_agrees_on_verdicts() {
        let apps = translate_sources(&[NIGHT_LIGHT]).expect("the app translates");
        let config = expert_configure(&apps, &standard_household());
        let pipeline = Pipeline::with_events(4);
        let model = pipeline.group_model(&apps, pipeline.restrict_config(&apps, &config));
        let reference = explore(&model, 4);
        let engine = Checker::new(SearchConfig::with_depth(4)).verify(&model);
        assert!(!reference.violated.is_empty());
        assert_eq!(reference.violated, engine.violated_properties());
        // Motion turns active again at depth 3, repeating the depth-1 state:
        // the reference stores and expands it again, the engine does not.
        assert!(reference.states > engine.stats.states_stored);
        assert!(reference.transitions > engine.stats.transitions);
    }
}
