//! The Model Generator (§8): builds transition systems the checker explores.
//!
//! [`SequentialModel`] implements Algorithm 1's sequential design: each
//! transition is one external physical event (plus an optional injected
//! failure), and the entire cascade of handler executions and internal events
//! it triggers is dispatched atomically within that transition.  This is the
//! "weak concurrency" the paper adopts because it discovered all violations
//! the strict model found at a fraction of the cost (Table 7b).
//!
//! [`ConcurrentModel`] implements the strict-concurrency design used for the
//! comparison: external events only *enqueue* cyber events, and the order in
//! which pending events are dispatched is itself a non-deterministic choice,
//! so the checker explores all interleavings of internal and external events.
//!
//! # Hot-loop discipline
//!
//! Actions are small `Copy` values — device ids, attribute positions and
//! interned [`Sym`]s, never owned strings — because the checker clones one
//! into its counterexample arena for every admitted state.  `apply` threads a
//! reusable [`ModelScratch`] (observation buffers, the cascade queue, the
//! property evaluator's packed atom valuation and verdict memo) and a
//! deferred [`StepLog`], so a steady-state transition on a non-violating
//! path performs no heap allocation beyond constructing its successor
//! state.  The compiled properties read the successor's device states and
//! mode directly: no physical-state snapshot is rendered per transition.
//! A search keeps one scratch per worker, so the property programs run once
//! per distinct atom valuation it meets; every other transition replays
//! the memoised verdicts.
//! Log lines and action strings are rendered only for materialized
//! counterexamples ([`TransitionSystem::display_action`] /
//! [`TransitionSystem::render_event`]).

use crate::interp::{run_handler, DispatchedEvent};
use crate::logevent::LogEvent;
use crate::system::{InstalledSystem, InternalEvent, SystemState};
use iotsan_checker::{LogLine, StepLog, StepOutcome, TransitionSystem, Violation};
use iotsan_devices::{DeviceId, FailureMode, FailurePolicy};
use iotsan_ir::{Sym, Trigger, Value};
use iotsan_properties::{
    CompiledPropertySet, EvalScratch, PropertyId, PropertySet, StepObservation,
};

/// Options controlling model construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOptions {
    /// Maximum number of external events (the verification depth bound).
    pub max_events: usize,
    /// Which device/communication failures to inject.
    pub failure_policy: FailurePolicy,
    /// Upper bound on the number of internal events dispatched per external
    /// event (guards against event cycles between apps).
    pub max_cascade: usize,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions { max_events: 3, failure_policy: FailurePolicy::None, max_cascade: 32 }
    }
}

impl ModelOptions {
    /// A model exploring up to `max_events` external events.
    pub fn with_events(max_events: usize) -> Self {
        ModelOptions { max_events, ..Default::default() }
    }

    /// Enables exhaustive failure injection.
    pub fn with_failures(mut self) -> Self {
        self.failure_policy = FailurePolicy::Exhaustive;
        self
    }
}

/// One external event choice (the checker's action alphabet).
///
/// Deliberately `Copy` and string-free: display names are resolved through
/// the [`InstalledSystem`] only when a counterexample is rendered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExternalAction {
    /// The physical environment changes a sensor attribute.
    SensorEvent {
        /// The sensor device.
        device: DeviceId,
        /// Interned attribute name.
        attribute: Sym,
        /// Position of the attribute in the device spec.
        attr_index: u8,
        /// The index of the new value in the attribute's domain.
        value_index: u8,
        /// The injected failure mode for this step.
        failure: FailureMode,
    },
    /// The user taps an app in the companion app.
    AppTouch {
        /// Index of the app.
        app: u32,
    },
    /// A scheduled timer fires for a specific handler.
    TimerFire {
        /// Index of the app.
        app: u32,
        /// Index of the handler within the app.
        handler: u32,
    },
    /// A location environment event (sunrise / sunset).
    LocationEvent {
        /// Interned event name.
        name: Sym,
    },
}

/// Reusable per-worker scratch for [`SequentialModel::apply`] /
/// [`ConcurrentModel::apply`]: step observation buffers, the cascade queue
/// and the compiled property evaluator's buffers.  All of it is cleared
/// (never reallocated) per transition.
#[derive(Debug, Default)]
pub struct ModelScratch {
    observation: StepObservation,
    queue: Vec<InternalEvent>,
    eval: EvalScratch,
    violated: Vec<PropertyId>,
}

/// Shared model core used by both designs.
#[derive(Debug, Clone)]
struct ModelCore {
    system: InstalledSystem,
    /// The registry (names, classes — counterexample metadata).
    properties: PropertySet,
    /// The registry compiled against `system` at model-construction time:
    /// selectors resolved to state-vector slots and domain-index masks,
    /// formulas flattened to programs
    /// over a deduplicated atom table (see `iotsan-properties::compile`).
    compiled: CompiledPropertySet,
    options: ModelOptions,
    /// True when some handler can read the modelled clock (see
    /// [`iotsan_analysis::EffectSummary::observes_clock`]).  Modelled time
    /// is a function of the external-event count, so the sequential design
    /// then encodes that count as part of the state identity.
    observes_clock: bool,
}

impl ModelCore {
    fn new(system: InstalledSystem, properties: PropertySet, options: ModelOptions) -> Self {
        let compiled = system.compile_properties(&properties);
        let observes_clock = system.apps.iter().any(|app| {
            iotsan_analysis::summarize_app(app).iter().any(|summary| summary.observes_clock())
        });
        ModelCore { system, properties, compiled, options, observes_clock }
    }

    /// The initial state, with one zeroed leads-to monitor slot per compiled
    /// bounded-response property.
    fn initial_state(&self) -> SystemState {
        let mut state = self.system.initial_state();
        state.monitors = vec![0; self.compiled.monitor_count()];
        state
    }
}

impl ModelCore {
    /// External actions available when fewer than `max_events` have happened,
    /// written into the caller's reused buffer.
    fn external_actions(&self, state: &SystemState, out: &mut Vec<ExternalAction>) {
        out.clear();
        if state.external_events >= self.options.max_events {
            return;
        }
        for device in &self.system.devices {
            if !device.is_sensor() {
                continue;
            }
            let spec = device.spec();
            for (attr_index, attr) in spec.attributes.iter().enumerate() {
                if !attr.environment_driven {
                    continue;
                }
                let attribute = self.system.device_attr_sym(device.id, attr_index);
                for value_index in 0..attr.domain.len() {
                    // Skip events that would not change the sensor state
                    // (Algorithm 1 only acts when evt != current state).
                    if state.devices[device.id.0 as usize].raw(attr_index)
                        == Some(value_index as u8)
                    {
                        continue;
                    }
                    for failure in self.options.failure_policy.modes_for(device.id) {
                        out.push(ExternalAction::SensorEvent {
                            device: device.id,
                            attribute,
                            attr_index: attr_index as u8,
                            value_index: value_index as u8,
                            failure: *failure,
                        });
                    }
                }
            }
        }
        for (app_index, app) in self.system.apps.iter().enumerate() {
            if app.handlers.iter().any(|h| matches!(h.trigger, Trigger::AppTouch)) {
                out.push(ExternalAction::AppTouch { app: app_index as u32 });
            }
            for (handler_index, handler) in app.handlers.iter().enumerate() {
                if matches!(handler.trigger, Trigger::Timer { .. }) {
                    out.push(ExternalAction::TimerFire {
                        app: app_index as u32,
                        handler: handler_index as u32,
                    });
                }
            }
            for handler in &app.handlers {
                if let Trigger::LocationEvent { name } = &handler.trigger {
                    let action = ExternalAction::LocationEvent { name: self.system.sym_of(name) };
                    if !out.contains(&action) {
                        out.push(action);
                    }
                }
            }
        }
    }

    /// The domain value of a sensor attribute as a [`Value`] (numeric domain
    /// levels become integers, enum names numbers-or-strings — the same
    /// parse the old string path applied).
    fn domain_value(
        spec: &iotsan_devices::DeviceSpec,
        attr_index: usize,
        value_index: usize,
    ) -> Value {
        let attr = &spec.attributes[attr_index];
        match attr.domain.numeric_at(value_index) {
            Some(n) => Value::Int(n),
            None => match attr.domain.value_at(value_index) {
                Some(text) => parse_value(&text),
                None => Value::Null,
            },
        }
    }

    /// Applies the external action to `state`, appending the initial internal
    /// events to dispatch to `events`, and updating the observation.
    fn apply_external(
        &self,
        state: &mut SystemState,
        action: &ExternalAction,
        observation: &mut StepObservation,
        events: &mut Vec<InternalEvent>,
        log: &mut StepLog<LogEvent>,
    ) {
        state.external_events += 1;
        state.time.tick();
        match *action {
            ExternalAction::SensorEvent { device, attribute, attr_index, value_index, failure } => {
                let spec = self.system.device(device).spec();
                let attr_index = attr_index as usize;
                let value_index = value_index as usize;
                match failure {
                    FailureMode::DeviceOffline => {
                        state.devices[device.0 as usize].set_online(false);
                        log.push(|| LogEvent::SensorOffline {
                            device,
                            attribute,
                            value: spec.attributes[attr_index]
                                .domain
                                .value_at(value_index)
                                .unwrap_or_default(),
                        });
                    }
                    FailureMode::CommunicationLost => {
                        // Communication between the hub/cloud and the devices
                        // is down (e.g. jamming): the sensor reading is still
                        // observed, but commands sent to actuators during this
                        // step are lost — see `inject_command_failure` below.
                        let changed = state.devices[device.0 as usize].set_index_at(
                            spec,
                            attr_index,
                            value_index,
                        );
                        log.push(|| LogEvent::SensorCommDown {
                            device,
                            attribute,
                            value: spec.attributes[attr_index]
                                .domain
                                .value_at(value_index)
                                .unwrap_or_default(),
                        });
                        if changed {
                            events.push(InternalEvent {
                                device: Some(device),
                                attribute,
                                value: Self::domain_value(spec, attr_index, value_index),
                                physical: true,
                            });
                        }
                    }
                    FailureMode::None => {
                        let changed = state.devices[device.0 as usize].set_index_at(
                            spec,
                            attr_index,
                            value_index,
                        );
                        log.push(|| LogEvent::GeneratedEvent {
                            value: spec.attributes[attr_index]
                                .domain
                                .value_at(value_index)
                                .unwrap_or_default(),
                        });
                        if changed {
                            events.push(InternalEvent {
                                device: Some(device),
                                attribute,
                                value: Self::domain_value(spec, attr_index, value_index),
                                physical: true,
                            });
                        }
                    }
                }
            }
            ExternalAction::AppTouch { app } => {
                log.push(|| LogEvent::AppTouch { app });
                let touch = DispatchedEvent {
                    device: None,
                    attribute: self.system.touch_sym(),
                    value: Value::Str("touched".into()),
                };
                let app_index = app as usize;
                for handler_index in 0..self.system.apps[app_index].handlers.len() {
                    let handler = &self.system.apps[app_index].handlers[handler_index];
                    if !matches!(handler.trigger, Trigger::AppTouch) {
                        continue;
                    }
                    run_handler(
                        &self.system,
                        app_index,
                        handler,
                        &touch,
                        state,
                        observation,
                        false,
                        events,
                        log,
                    );
                }
            }
            ExternalAction::TimerFire { app, handler } => {
                let app_index = app as usize;
                let handler = &self.system.apps[app_index].handlers[handler as usize];
                log.push(|| LogEvent::TimerFired { handler: handler.name.clone() });
                let tick = DispatchedEvent {
                    device: None,
                    attribute: self.system.time_sym(),
                    value: Value::Int(state.time.seconds() as i64),
                };
                if matches!(handler.trigger, Trigger::Timer { .. }) {
                    run_handler(
                        &self.system,
                        app_index,
                        handler,
                        &tick,
                        state,
                        observation,
                        false,
                        events,
                        log,
                    );
                }
            }
            ExternalAction::LocationEvent { name } => {
                log.push(|| LogEvent::LocationEvent { name });
                events.push(InternalEvent {
                    device: None,
                    attribute: name,
                    value: Value::Str(self.system.attr_name(name).to_string()),
                    physical: true,
                });
            }
        }
    }

    /// True when `handler` of `app_index` subscribes to `event`.
    fn subscribes(
        &self,
        app_index: usize,
        handler: &iotsan_ir::IrHandler,
        event: &InternalEvent,
    ) -> bool {
        let event_attribute = self.system.attr_name(event.attribute);
        match &handler.trigger {
            Trigger::Device { input, attribute, value } => {
                if attribute != event_attribute {
                    return false;
                }
                if let Some(expected) = value {
                    if !event.value.eq_str(expected) {
                        return false;
                    }
                }
                match event.device {
                    Some(device) => self.system.bound_slice(app_index, input).contains(&device),
                    // A device-less event (e.g. a fake `sendEvent`) reaches any
                    // subscriber of that attribute.
                    None => true,
                }
            }
            Trigger::LocationMode { value } => {
                event_attribute == "mode"
                    && value.as_ref().map(|v| event.value.eq_str(v)).unwrap_or(true)
            }
            Trigger::LocationEvent { name } => event_attribute == *name,
            Trigger::AppTouch | Trigger::Timer { .. } => false,
        }
    }

    /// Dispatches one event to every subscribed handler (Algorithm 1's
    /// `dispatch_event`), appending newly generated events to `events`.
    fn dispatch_one(
        &self,
        state: &mut SystemState,
        event: &InternalEvent,
        observation: &mut StepObservation,
        events: &mut Vec<InternalEvent>,
        log: &mut StepLog<LogEvent>,
        commands_fail: bool,
    ) {
        let dispatched = DispatchedEvent::from_internal(event);
        for app_index in 0..self.system.apps.len() {
            for handler_index in 0..self.system.apps[app_index].handlers.len() {
                let handler = &self.system.apps[app_index].handlers[handler_index];
                if !self.subscribes(app_index, handler, event) {
                    continue;
                }
                run_handler(
                    &self.system,
                    app_index,
                    handler,
                    &dispatched,
                    state,
                    observation,
                    commands_fail,
                    events,
                    log,
                );
            }
        }
    }

    /// Dispatches a whole cascade to quiescence (sequential design).  `queue`
    /// already holds the initial events; newly generated events are appended
    /// and consumed in FIFO order through a cursor (no per-event shifting or
    /// queue reallocation across transitions).
    fn dispatch_cascade(
        &self,
        state: &mut SystemState,
        queue: &mut Vec<InternalEvent>,
        observation: &mut StepObservation,
        log: &mut StepLog<LogEvent>,
        commands_fail: bool,
    ) {
        let mut cursor = 0usize;
        while cursor < queue.len() {
            if cursor >= self.options.max_cascade {
                log.push(|| LogEvent::CascadeBound);
                break;
            }
            // Take the event out without shifting the queue; the placeholder
            // is never dispatched (the cursor moves past it).
            let event = std::mem::replace(
                &mut queue[cursor],
                InternalEvent {
                    device: None,
                    attribute: Sym(0),
                    value: Value::Null,
                    physical: false,
                },
            );
            cursor += 1;
            self.dispatch_one(state, &event, observation, queue, log, commands_fail);
        }
    }

    /// True when the action models a hub ↔ actuator communication failure, in
    /// which case every command sent while handling it is lost.
    fn commands_fail(action: &ExternalAction) -> bool {
        matches!(
            action,
            ExternalAction::SensorEvent { failure: FailureMode::CommunicationLost, .. }
        )
    }

    /// Evaluates all compiled properties after a step on the state vector
    /// itself, updating the state's leads-to monitors.
    fn check(&self, state: &mut SystemState, scratch: &mut ModelScratch) -> Vec<Violation> {
        let ModelScratch { observation, eval, violated, .. } = scratch;
        violated.clear();
        self.compiled.check_transition(
            &state.devices,
            state.mode,
            observation,
            &mut state.monitors,
            eval,
            violated,
        );
        self.to_violations(violated)
    }

    /// Evaluates only the step-only compiled properties (the strict
    /// concurrency design's non-quiescent steps).
    fn check_step_only(
        &self,
        state: &mut SystemState,
        scratch: &mut ModelScratch,
    ) -> Vec<Violation> {
        let ModelScratch { observation, eval, violated, .. } = scratch;
        violated.clear();
        self.compiled.check_step_only(observation, &mut state.monitors, eval, violated);
        self.to_violations(violated)
    }

    /// Maps violated property ids to [`Violation`]s (sorted, deduplicated).
    /// Allocates only when there are violations to report.
    fn to_violations(&self, violated: &mut Vec<PropertyId>) -> Vec<Violation> {
        violated.sort();
        violated.dedup();
        violated
            .iter()
            .filter_map(|id| {
                self.properties
                    .get(*id)
                    .map(|p| Violation { property: id.0, description: p.name.clone() })
            })
            .collect()
    }

    /// Prepares the scratch for one transition: clears the step buffers and
    /// re-syncs the configured SMS recipients (without reallocating when they
    /// are unchanged, which is always after the first transition).
    fn reset_scratch(&self, scratch: &mut ModelScratch) {
        scratch.observation.reset();
        scratch.queue.clear();
        if scratch.observation.configured_recipients != self.system.config.phone_numbers {
            scratch.observation.configured_recipients.clone_from(&self.system.config.phone_numbers);
        }
    }

    /// Renders an action for counterexample traces.
    fn display_action(&self, action: &ExternalAction) -> String {
        match *action {
            ExternalAction::SensorEvent { device, attribute, attr_index, value_index, failure } => {
                let dev = self.system.device(device);
                let value = dev
                    .spec()
                    .attributes
                    .get(attr_index as usize)
                    .and_then(|a| a.domain.value_at(value_index as usize))
                    .unwrap_or_default();
                format!("{}/{}={value} [{failure}]", dev.label, self.system.attr_name(attribute))
            }
            ExternalAction::AppTouch { app } => {
                format!("app/touch -> {}", self.system.apps[app as usize].name)
            }
            ExternalAction::TimerFire { app, handler } => {
                format!(
                    "timer -> {}",
                    self.system.apps[app as usize].handlers[handler as usize].name
                )
            }
            ExternalAction::LocationEvent { name } => {
                format!("location/{}", self.system.attr_name(name))
            }
        }
    }
}

fn parse_value(text: &str) -> Value {
    if let Ok(i) = text.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(d) = text.parse::<f64>() {
        Value::Decimal(d)
    } else {
        Value::Str(text.to_string())
    }
}

/// The sequential-design transition system (the paper's preferred model).
#[derive(Debug, Clone)]
pub struct SequentialModel {
    core: ModelCore,
}

impl SequentialModel {
    /// Builds a sequential model, compiling `properties` against the
    /// installed system.
    pub fn new(system: InstalledSystem, properties: PropertySet, options: ModelOptions) -> Self {
        SequentialModel { core: ModelCore::new(system, properties, options) }
    }

    /// The compiled property set the model evaluates per transition.
    pub fn compiled_properties(&self) -> &CompiledPropertySet {
        &self.core.compiled
    }

    /// The installed system under verification.
    pub fn system(&self) -> &InstalledSystem {
        &self.core.system
    }

    /// The options the model was built with.
    pub fn options(&self) -> &ModelOptions {
        &self.core.options
    }
}

impl TransitionSystem for SequentialModel {
    type State = SystemState;
    type Action = ExternalAction;
    type Event = LogEvent;
    type Scratch = ModelScratch;

    fn initial_state(&self) -> SystemState {
        self.core.initial_state()
    }

    fn actions(&self, state: &SystemState, out: &mut Vec<ExternalAction>) {
        self.core.external_actions(state, out);
    }

    fn apply(
        &self,
        state: &SystemState,
        action: &ExternalAction,
        scratch: &mut ModelScratch,
        log: &mut StepLog<LogEvent>,
    ) -> StepOutcome<SystemState> {
        let mut next = state.clone();
        self.core.reset_scratch(scratch);
        let commands_fail = ModelCore::commands_fail(action);
        self.core.apply_external(
            &mut next,
            action,
            &mut scratch.observation,
            &mut scratch.queue,
            log,
        );
        self.core.dispatch_cascade(
            &mut next,
            &mut scratch.queue,
            &mut scratch.observation,
            log,
            commands_fail,
        );
        let violations = self.core.check(&mut next, scratch);
        StepOutcome { state: next, violations }
    }

    fn encode(&self, state: &SystemState, out: &mut Vec<u8>) {
        state.encode_into(out);
        if self.core.observes_clock {
            out.extend_from_slice(&(state.external_events as u32).to_le_bytes());
        }
    }

    fn display_action(&self, action: &ExternalAction) -> String {
        self.core.display_action(action)
    }

    fn render_event(&self, event: &LogEvent) -> LogLine {
        event.render(&self.core.system)
    }
}

/// One step of the strict-concurrency design: either generate an external
/// event (which only enqueues its cyber event) or dispatch one pending event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConcurrentAction {
    /// Generate an external event.
    External(ExternalAction),
    /// Dispatch the pending event at the given queue index.
    Dispatch {
        /// Index into the pending-event queue.
        index: u32,
    },
}

/// The strict-concurrency transition system (used for the Table 7b
/// comparison; interleavings of internal and external events are explored).
#[derive(Debug, Clone)]
pub struct ConcurrentModel {
    core: ModelCore,
}

impl ConcurrentModel {
    /// Builds a concurrent model, compiling `properties` against the
    /// installed system.
    pub fn new(system: InstalledSystem, properties: PropertySet, options: ModelOptions) -> Self {
        ConcurrentModel { core: ModelCore::new(system, properties, options) }
    }

    /// A search depth sufficient to drain every cascade the model can create.
    pub fn suggested_depth(&self) -> usize {
        self.core.options.max_events * (self.core.options.max_cascade + 1)
    }
}

impl TransitionSystem for ConcurrentModel {
    type State = SystemState;
    type Action = ConcurrentAction;
    type Event = LogEvent;
    type Scratch = ModelScratch;

    fn initial_state(&self) -> SystemState {
        self.core.initial_state()
    }

    fn actions(&self, state: &SystemState, out: &mut Vec<ConcurrentAction>) {
        out.clear();
        // The concurrent design is the comparison model, not the hot path, so
        // a per-expansion buffer for the external enumeration is acceptable.
        let mut externals = Vec::new();
        self.core.external_actions(state, &mut externals);
        out.extend(externals.into_iter().map(ConcurrentAction::External));
        for index in 0..state.pending.len() {
            out.push(ConcurrentAction::Dispatch { index: index as u32 });
        }
    }

    fn apply(
        &self,
        state: &SystemState,
        action: &ConcurrentAction,
        scratch: &mut ModelScratch,
        log: &mut StepLog<LogEvent>,
    ) -> StepOutcome<SystemState> {
        let mut next = state.clone();
        self.core.reset_scratch(scratch);
        match *action {
            ConcurrentAction::External(external) => {
                self.core.apply_external(
                    &mut next,
                    &external,
                    &mut scratch.observation,
                    &mut scratch.queue,
                    log,
                );
                next.pending.append(&mut scratch.queue);
            }
            ConcurrentAction::Dispatch { index } => {
                let index = index as usize;
                if index < next.pending.len() {
                    let event = next.pending.remove(index);
                    log.push(|| LogEvent::DispatchPending { event: event.clone() });
                    if next.pending.len() < self.core.options.max_cascade {
                        self.core.dispatch_one(
                            &mut next,
                            &event,
                            &mut scratch.observation,
                            &mut scratch.queue,
                            log,
                            false,
                        );
                        next.pending.append(&mut scratch.queue);
                    }
                }
            }
        }
        // Physical-state invariants are evaluated at quiescent points (no
        // events pending), so the strict-concurrent design checks the same
        // observable states as the sequential one; step-level observations
        // (conflicting commands, leakage) are checked on every action.
        let violations = if next.pending.is_empty() {
            self.core.check(&mut next, scratch)
        } else {
            self.core.check_step_only(&mut next, scratch)
        };
        StepOutcome { state: next, violations }
    }

    fn encode(&self, state: &SystemState, out: &mut Vec<u8>) {
        state.encode_into(out);
        out.push(state.external_events as u8);
    }

    fn display_action(&self, action: &ConcurrentAction) -> String {
        match action {
            ConcurrentAction::External(a) => self.core.display_action(a),
            ConcurrentAction::Dispatch { index } => format!("dispatch pending[{index}]"),
        }
    }

    fn render_event(&self, event: &LogEvent) -> LogLine {
        event.render(&self.core.system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotsan_checker::{Checker, SearchConfig};
    use iotsan_config::{AppConfig, Binding, DeviceConfig, SystemConfig};
    use iotsan_groovy::SmartApp;
    use iotsan_ir::lower_app;
    use iotsan_properties::{Expr, PropertySpec};

    /// Auto Mode Change + Unlock Door — the running example of the paper
    /// (Figure 7): leaving home switches the mode to Away, which unlocks the
    /// front door, violating "the main door should be locked when no one is
    /// at home".
    fn unlock_door_system() -> InstalledSystem {
        let auto_mode = r#"
definition(name: "Auto Mode Change", namespace: "st", author: "a", description: "Change mode on presence")
preferences { section("s") { input "people", "capability.presenceSensor", multiple: true } }
def installed() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.value == "not present") {
        setLocationMode("Away")
    } else {
        setLocationMode("Home")
    }
}
"#;
        let unlock_door = r#"
definition(name: "Unlock Door", namespace: "st", author: "a", description: "Unlock on mode change or touch")
preferences { section("s") { input "lock1", "capability.lock" } }
def installed() {
    subscribe(app, "touch", appTouch)
    subscribe(location, "mode", changedLocationMode)
}
def appTouch(evt) { lock1.unlock() }
def changedLocationMode(evt) { lock1.unlock() }
"#;
        let apps = vec![
            lower_app(&SmartApp::parse(auto_mode).unwrap()).unwrap(),
            lower_app(&SmartApp::parse(unlock_door).unwrap()).unwrap(),
        ];
        let config = SystemConfig::new()
            .with_device(DeviceConfig::new("alicePresence", "presenceSensor", ""))
            .with_device(DeviceConfig::new("doorLock", "lock", "main door lock"))
            .with_app(
                AppConfig::new("Auto Mode Change")
                    .with("people", Binding::Devices(vec!["alicePresence".into()])),
            )
            .with_app(
                AppConfig::new("Unlock Door")
                    .with("lock1", Binding::Devices(vec!["doorLock".into()])),
            );
        InstalledSystem::new(apps, config)
    }

    #[test]
    fn sequential_model_finds_unlock_door_violation() {
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(2),
        );
        let report = Checker::new(SearchConfig::with_depth(2)).verify(&model);
        assert!(report.has_violations());
        // "The main door should be locked when no one is at home" must be
        // among the violated properties, with a counterexample that starts
        // from the presence sensor reporting "not present".
        let found = report
            .violations
            .iter()
            .find(|v| {
                v.violation
                    .description
                    .contains("main door should be locked when no one is at home")
            })
            .expect("expected the unlock-door violation");
        assert!(found.trace.events().iter().any(|e| e.contains("not present")));
        let rendered = found.trace.render(&found.violation);
        assert!(rendered.contains("assertion violated"));
        assert!(rendered.contains("doorLock.unlock"));
        // Handler log lines carry structured provenance for the Output
        // Analyzer.
        assert!(found
            .trace
            .steps
            .iter()
            .flat_map(|s| &s.log)
            .any(|l| l.owner.as_deref() == Some("Unlock Door")));
    }

    #[test]
    fn single_event_suffices_for_the_mode_chain() {
        // The cascade presence → mode change → unlock happens within one
        // external event in the sequential design.
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let report = Checker::new(SearchConfig::with_depth(1)).verify(&model);
        assert!(report.has_violations());
        let violation = &report.violations[0];
        assert_eq!(violation.depth, 1);
    }

    #[test]
    fn concurrent_model_finds_the_same_violation() {
        let system = unlock_door_system();
        let model = ConcurrentModel::new(system, PropertySet::all(), ModelOptions::with_events(1));
        let depth = model.suggested_depth();
        let report = Checker::new(SearchConfig::with_depth(depth)).verify(&model);
        assert!(report.has_violations());
        assert!(report
            .violations
            .iter()
            .any(|v| v.violation.description.contains("main door should be locked")));
    }

    #[test]
    fn concurrent_model_explores_more_states_than_sequential() {
        let system = unlock_door_system();
        let seq =
            SequentialModel::new(system.clone(), PropertySet::all(), ModelOptions::with_events(2));
        let seq_report = Checker::new(SearchConfig::with_depth(2)).verify(&seq);
        let conc = ConcurrentModel::new(system, PropertySet::all(), ModelOptions::with_events(2));
        let conc_report =
            Checker::new(SearchConfig::with_depth(conc.suggested_depth())).verify(&conc);
        assert!(
            conc_report.stats.states_stored > seq_report.stats.states_stored,
            "concurrent {} <= sequential {}",
            conc_report.stats.states_stored,
            seq_report.stats.states_stored
        );
    }

    #[test]
    fn failure_policy_enumerates_more_actions() {
        let system = unlock_door_system();
        let no_failures =
            SequentialModel::new(system.clone(), PropertySet::all(), ModelOptions::with_events(1));
        let with_failures = SequentialModel::new(
            system,
            PropertySet::all(),
            ModelOptions::with_events(1).with_failures(),
        );
        let state = no_failures.initial_state();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        no_failures.actions(&state, &mut a);
        with_failures.actions(&state, &mut b);
        assert!(b.len() > a.len());
    }

    #[test]
    fn actions_stop_at_event_bound() {
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let mut state = model.initial_state();
        state.external_events = 1;
        let mut actions = vec![ExternalAction::AppTouch { app: 0 }];
        model.actions(&state, &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn no_op_sensor_events_are_not_offered() {
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let state = model.initial_state();
        // The presence sensor starts "present"; only "not present" (plus the
        // app-touch action) should be offered, never a redundant "present".
        let mut actions = Vec::new();
        model.actions(&state, &mut actions);
        assert!(actions.iter().all(|a| match a {
            ExternalAction::SensorEvent { .. } => !model.display_action(a).contains("=present "),
            _ => true,
        }));
    }

    /// Every transition of `model`, breadth-first over distinct states:
    /// the compiled violated ids (and, for the one bounded leads-to
    /// property `leads`, its monitor countdown) must equal the interpreted
    /// reference on a snapshot built from scratch.  Returns (states,
    /// transitions, leads-to violations).
    fn differential_walk(
        model: &SequentialModel,
        set: &PropertySet,
        leads: Option<(u32, &iotsan_properties::LeadsTo)>,
    ) -> (usize, usize, usize) {
        let system = model.system();
        let mut scratch = ModelScratch::default();
        let mut log = StepLog::disabled();
        let mut actions = Vec::new();
        let mut buf = Vec::new();
        let mut visited = std::collections::HashSet::new();
        let initial = model.initial_state();
        model.encode(&initial, &mut buf);
        visited.insert(buf.clone());
        let (mut level, mut next) = (vec![initial], Vec::new());
        let (mut transitions, mut leads_violations) = (0, 0);
        while !level.is_empty() {
            for state in level.drain(..) {
                model.actions(&state, &mut actions);
                for action in &actions {
                    let outcome = model.apply(&state, action, &mut scratch, &mut log);
                    transitions += 1;
                    let got: Vec<u32> = outcome.violations.iter().map(|v| v.property).collect();

                    let snapshot = system.snapshot(&outcome.state);
                    let step = &scratch.observation;
                    let mut want: Vec<u32> =
                        set.check_point(&snapshot, step).into_iter().map(|id| id.0).collect();
                    if let Some((id, leads)) = leads {
                        // check_point reads leads-to with same-step response;
                        // the bounded countdown is re-derived here.
                        want.retain(|&w| w != id);
                        let mut slot = state.monitors[0];
                        if leads.response.eval(&snapshot, step) {
                            slot = 0;
                        } else {
                            if slot > 0 {
                                slot -= 1;
                                if slot == 0 {
                                    want.push(id);
                                    leads_violations += 1;
                                }
                            }
                            if slot == 0 && leads.trigger.eval(&snapshot, step) {
                                slot = leads.within as u8;
                            }
                        }
                        assert_eq!(outcome.state.monitors, vec![slot], "monitor after {action:?}");
                    }
                    want.sort_unstable();
                    want.dedup();
                    assert_eq!(got, want, "violations after {action:?}");

                    buf.clear();
                    model.encode(&outcome.state, &mut buf);
                    if visited.insert(buf.clone()) {
                        next.push(outcome.state);
                    }
                }
            }
            std::mem::swap(&mut level, &mut next);
        }
        (visited.len(), transitions, leads_violations)
    }

    #[test]
    fn compiled_properties_match_the_interpreted_reference_on_every_transition() {
        let (apps, config) = iotsan_bench::scaling_workload();
        let system = InstalledSystem::new(
            apps.clone(),
            crate::Pipeline::default().restrict_config(&apps, &config),
        );
        let options = ModelOptions::with_events(3).with_failures();

        let builtins = PropertySet::all();
        let model = SequentialModel::new(system.clone(), builtins.clone(), options.clone());
        assert_eq!(differential_walk(&model, &builtins, None), (2008, 13905, 0));

        // The custom specs plus one bounded response, so the leads-to
        // monitor countdown is part of the state and compared too.
        let leads = iotsan_properties::LeadsTo {
            trigger: Expr::not(Expr::anyone_home()),
            response: Expr::capability_attr("lock", "lock", "locked"),
            within: 2,
        };
        let extended = iotsan_bench::extended_property_set().with(
            PropertySpec::builder(60, "Locks follow a departure within 2 events").leads_to(
                leads.trigger.clone(),
                leads.response.clone(),
                leads.within,
            ),
        );
        let model = SequentialModel::new(system, extended.clone(), options);
        assert_eq!(model.compiled_properties().monitor_count(), 1);
        let (states, transitions, leads_violations) =
            differential_walk(&model, &extended, Some((60, &leads)));
        assert!(states > 2008 && transitions > 13905);
        assert!(leads_violations > 0, "the bounded response never expired");
    }

    #[test]
    fn action_display_matches_the_old_format() {
        let model = SequentialModel::new(
            unlock_door_system(),
            PropertySet::all(),
            ModelOptions::with_events(1),
        );
        let state = model.initial_state();
        let mut actions = Vec::new();
        model.actions(&state, &mut actions);
        let displays: Vec<String> = actions.iter().map(|a| model.display_action(a)).collect();
        assert!(
            displays.iter().any(|d| d == "alicePresence/presence=not present [ok]"),
            "displays: {displays:?}"
        );
        assert!(displays.iter().any(|d| d == "app/touch -> Unlock Door"));
    }
}
