//! Golden and property-based tests for the PropertySpec redesign.
//!
//! The open `PropertySpec` API replaced the closed enum catalog
//! (`PhysicalInvariant`/`PropertyKind`); these tests pin the pre-redesign
//! behavior as literals captured from the old catalog:
//!
//! * the exact LTL rendering of all 45 built-ins,
//! * the violated-property sets, state and transition counts of the `repro
//!   parallel` / `repro fleet` workloads,
//!
//! plus proptest evidence that JSON roundtripping and compilation preserve
//! verdicts against the interpreted reference semantics.

use iotsan::config::{DeviceConfig, SystemConfig};
use iotsan::devices::{registry, DeviceId, LocationMode};
use iotsan::properties::{
    CompiledPropertySet, DeviceSelect, EvalScratch, Expr, PropertyClass, PropertySet, PropertySpec,
    StepObservation,
};
use iotsan::system::{InstalledSystem, SystemState};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

/// The exact `id|class|category|name|ltl` lines of the pre-redesign catalog
/// (captured from `Property::to_ltl()` before the spec migration).
const GOLDEN_LTL: &str = "\
1|Conflicting commands|An actuator should not receive conflicting commands from a single event|[] !(conflicting_commands)
2|Repeated commands|An actuator should not receive repeated commands from a single event|[] !(repeated_commands)
3|Thermostat, AC, and Heater|Temperature should be within [50, 90] when people are at home|[] !( anyone_home && (temperature < 50 || temperature > 90) )
4|Thermostat, AC, and Heater|A heater should not be off when temperature is below 50|[] !( anyone_home && temperature < 50 && heater == off )
5|Thermostat, AC, and Heater|A heater should not be on when temperature is above 85|[] !( temperature > 85 && heater == on )
6|Thermostat, AC, and Heater|An AC and a heater should not both be turned on|[] !( heater == on && ac == on )
7|Thermostat, AC, and Heater|An AC should not be on when temperature is below 50|[] !( temperature < 50 && ac == on )
8|Lock and door control|The main door should be locked when no one is at home|[] !( !anyone_home && main_door == unlocked )
9|Lock and door control|The main door should be locked when people are sleeping at night|[] !( mode == Night && main_door == unlocked )
10|Lock and door control|Entrance doors should be closed when no one is at home|[] !( !anyone_home && entrance_door == open )
11|Lock and door control|Entrance doors should be closed when people are sleeping|[] !( mode == Night && entrance_door == open )
12|Lock and door control|No lock should be unlocked in Away mode|[] !( mode == Away && any_lock == unlocked )
13|Lock and door control|The garage door should be closed at night|[] !( mode == Night && garage_door == open )
14|Lock and door control|All locks should be locked when no one is at home|[] !( !anyone_home && any_lock == unlocked )
15|Lock and door control|The main door should not be unlocked when motion is detected and no one is home|[] !( !anyone_home && motion == active && main_door == unlocked )
16|Location mode|Location mode should be changed to Away when no one is at home|[] !( all_not_present && mode != Away )
17|Location mode|Location mode should not be Away when someone is at home|[] !( any_present && mode == Away )
18|Location mode|Location mode should not be Night when no one is at home|[] !( all_not_present && mode == Night )
19|Security and alarming|An alarm should strobe/siren when detecting smoke|[] !( smoke == detected && alarm == off )
20|Security and alarming|An alarm should strobe/siren when detecting carbon monoxide|[] !( co == detected && alarm == off )
21|Security and alarming|An alarm should sound when an intruder is detected|[] !( !anyone_home && motion == active && alarm == off )
22|Security and alarming|The alarm should not sound when there is no danger|[] !( alarm != off && !danger )
23|Security and alarming|The alarm should be silent at night unless there is danger|[] !( mode == Night && alarm != off && !danger )
24|Security and alarming|The main door should be unlocked during a fire when people are home|[] !( smoke == detected && anyone_home && main_door == locked )
25|Security and alarming|Doors should be openable when carbon monoxide is detected|[] !( co == detected && anyone_home && main_door == locked )
26|Security and alarming|The water valve should not be closed when smoke is detected|[] !( smoke == detected && valve == closed )
27|Security and alarming|Lights should turn on during a fire at night|[] !( smoke == detected && mode == Night && lights == off )
28|Security and alarming|Smoke and CO detectors should be online|[] !( smoke_detector_offline || co_detector_offline )
29|Security and alarming|A camera should capture when an intruder is detected|[] !( !anyone_home && motion == active && camera == idle )
30|Security and alarming|Appliances should be off when smoke is detected|[] !( smoke == detected && appliance == on )
31|Security and alarming|Fans should be off when smoke is detected|[] !( smoke == detected && fan == on )
32|Security and alarming|Heaters should be off when smoke is detected|[] !( smoke == detected && heater == on )
33|Water and sprinkler|Soil moisture should be within [20, 80]|[] !( moisture < 20 || moisture > 80 )
34|Water and sprinkler|The sprinkler should be off when rain/moisture is detected|[] !( water == wet && sprinkler == on )
35|Water and sprinkler|The water valve should be closed when a leak is detected|[] !( water == wet && valve == open )
36|Others|Lights should not be on when no one is at home|[] !( !anyone_home && lights == on )
37|Others|Appliances should not be on when no one is at home|[] !( !anyone_home && appliance == on )
38|Others|Appliances should not be on while people are sleeping|[] !( mode == Night && appliance == on )
39|Others|Lights should be off while people are sleeping|[] !( mode == Night && lights == on )
40|Others|Speakers should not be playing while people are sleeping|[] !( mode == Night && speaker == playing )
41|Security|Private information is sent out only via message interfaces, not network interfaces|[] !(http_request && !user_allowed)
42|Security|SMS recipients match the configured phone numbers|[] (send_sms -> recipient == configured_phone)
43|Security|No app executes the security-sensitive unsubscribe command|[] !(unsubscribe_executed)
44|Security|No app creates fake device events|[] !(fake_event_raised)
45|Robustness|Apps check command delivery and notify the user upon device/communication failure|[] (command_failed -> <> user_notified)";

#[test]
fn golden_ltl_renderings_match_the_pre_redesign_catalog() {
    let set = PropertySet::all();
    let rendered: Vec<String> = set
        .specs()
        .iter()
        .map(|p| format!("{}|{}|{}|{}", p.id, p.category, p.name, p.to_ltl()))
        .collect();
    let expected: Vec<&str> = GOLDEN_LTL.lines().collect();
    assert_eq!(rendered.len(), expected.len());
    for (got, want) in rendered.iter().zip(&expected) {
        assert_eq!(got, want);
    }
}

/// `repro parallel`'s quick-profile workload (8 market apps, failure
/// injection, 3 events): the violated-property set must be byte-identical to
/// the pre-redesign enum catalog.  The state/transition counts are those of
/// the level-order search, which stores each state once (the depth-tagged
/// search stored 2345 and applied 15165).
#[test]
fn golden_parallel_workload_verdict_is_unchanged() {
    let (apps, config) = iotsan_bench::scaling_workload();
    let run = iotsan_bench::run_search(&apps, &config, 3, 1, true, Duration::from_secs(300));
    assert!(!run.truncated);
    let violated: BTreeSet<u32> = run.report.violated_properties();
    let expected: BTreeSet<u32> =
        [1, 2, 3, 4, 5, 8, 9, 12, 14, 15, 16, 18, 36, 39, 45].into_iter().collect();
    assert_eq!(violated, expected);
    assert_eq!(run.report.stats.states_stored, 2008);
    assert_eq!(run.report.stats.transitions, 13905);
}

/// `repro fleet`'s quick-profile workloads (market corpus, 2 events, failure
/// injection, group-wise planner): violated sets, states and transitions per
/// corpus size pinned against the pre-redesign catalog.  The state,
/// transition and group pins track the effect-derived dependency graph:
/// effect summaries surface flows the subscription walk missed (mode writes
/// read elsewhere, app-state channels), which merges related groups — the
/// violated-property sets are invariant across both partitions, and across
/// the move from depth-tagged to once-per-state storage (which lowered the
/// counts from 387/1759, 340/1262 and 665/2464).
#[test]
fn golden_fleet_workload_verdicts_are_unchanged() {
    let cases: [(usize, &[u32], usize, usize, usize); 3] = [
        (4, &[1, 3, 4, 5, 45], 325, 1672, 5),
        (8, &[1, 2, 3, 4, 5, 8, 9, 12, 14, 15, 16, 18, 36, 39, 45], 311, 1217, 2),
        (12, &[1, 2, 3, 4, 5, 8, 9, 12, 14, 15, 16, 17, 18, 21, 36, 45], 608, 2375, 3),
    ];
    for (corpus, expected, states, transitions, groups) in cases {
        let (apps, config) = iotsan_bench::fleet_workload(corpus);
        let mut cache = iotsan::planner::VerificationCache::new();
        let run = iotsan_bench::run_fleet(
            &apps,
            &config,
            2,
            1,
            true,
            Duration::from_secs(300),
            &mut cache,
        );
        assert!(!run.truncated(), "corpus {corpus} truncated");
        let violated: BTreeSet<u32> = run.report.violated_properties();
        assert_eq!(violated, expected.iter().copied().collect(), "corpus {corpus}");
        assert_eq!(run.states(), states, "corpus {corpus} states");
        assert_eq!(run.transitions(), transitions, "corpus {corpus} transitions");
        assert_eq!(run.report.groups.len(), groups, "corpus {corpus} groups");
    }
}

// ---------------------------------------------------------------------------
// Proptest: spec → JSON → compile preserves verdicts
// ---------------------------------------------------------------------------
//
// The vendored proptest stub binds simple scalar strategies; richer values
// (households and their states, steps, spec ASTs) are derived in-body from a seed through a
// small deterministic splitmix generator, so every failing case is
// reproducible from its printed case number.

/// Deterministic splitmix64 stream used to derive structured test values
/// from one proptest-bound seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() % 2 == 0
    }
}

/// A random installed household (0–10 devices, mostly drawn from the
/// devices the built-in properties talk about, sometimes any registry
/// capability) in a random state (see [`gen_state`]).
fn gen_household(g: &mut Gen) -> (InstalledSystem, SystemState) {
    const TEMPLATE: [(&str, &str); 14] = [
        ("presenceSensor", ""),
        ("lock", "main door lock"),
        ("lock", ""),
        ("smokeDetector", ""),
        ("carbonMonoxideDetector", ""),
        ("switch", "heater"),
        ("switch", "light"),
        ("switch", "ac"),
        ("motionSensor", ""),
        ("alarm", "alarm"),
        ("valve", "water valve"),
        ("temperatureMeasurement", ""),
        ("thermostat", ""),
        ("garageDoorControl", "entrance door"),
    ];
    const ROLES: [&str; 6] = ["", "heater", "light", "appliance", "sprinkler", "camera"];
    let specs = registry().specs();
    let mut config = SystemConfig::new();
    for i in 0..g.pick(11) {
        let (capability, role) = if g.pick(4) == 0 {
            (specs[g.pick(specs.len())].capability, ROLES[g.pick(ROLES.len())])
        } else {
            TEMPLATE[g.pick(TEMPLATE.len())]
        };
        config = config.with_device(DeviceConfig::new(format!("d{i}"), capability, role));
    }
    let system = InstalledSystem::new(Vec::new(), config);
    let state = gen_state(g, &system);
    (system, state)
}

/// A random state of `system`: a random in-domain index for every
/// attribute, random online flags and any of the three location modes.
fn gen_state(g: &mut Gen, system: &InstalledSystem) -> SystemState {
    let mut state = system.initial_state();
    for (device, dstate) in system.devices.iter().zip(&mut state.devices) {
        let spec = device.spec();
        for (index, attr) in spec.attributes.iter().enumerate() {
            dstate.set_index_at(spec, index, g.pick(attr.domain.len()));
        }
        dstate.set_online(g.pick(4) != 0);
    }
    state.mode = LocationMode::ALL[g.pick(3)];
    state
}

/// The first draw (`state`, `step`), two more random draws of the same
/// household, then the first again: one scratch evaluates all four, so its
/// memo answers the repeats.
fn draws(
    g: &mut Gen,
    system: &InstalledSystem,
    state: SystemState,
    step: StepObservation,
) -> Vec<(SystemState, StepObservation)> {
    let mut draws = vec![(state, step)];
    for _ in 0..2 {
        let state = gen_state(g, system);
        draws.push((state, gen_step(g)));
    }
    draws.push(draws[0].clone());
    draws
}

/// Violated ids of `set` at `state` after `step`: (`compiled` on the state
/// vector with `scratch`, interpreted on the snapshot), each sorted.
fn verdicts(
    system: &InstalledSystem,
    state: &SystemState,
    (set, compiled): (&PropertySet, &CompiledPropertySet),
    step: &StepObservation,
    scratch: &mut EvalScratch,
) -> (Vec<u32>, Vec<u32>) {
    let mut monitors = vec![0u8; compiled.monitor_count()];
    let mut out = Vec::new();
    compiled.check_transition(&state.devices, state.mode, step, &mut monitors, scratch, &mut out);
    let mut got: Vec<u32> = out.iter().map(|id| id.0).collect();
    got.sort_unstable();
    let mut want: Vec<u32> =
        set.check_point(&system.snapshot(state), step).into_iter().map(|id| id.0).collect();
    want.sort_unstable();
    (got, want)
}

/// A random step observation (commands, failures, notifications).
fn gen_step(g: &mut Gen) -> StepObservation {
    let mut step = StepObservation::default();
    if g.flag() {
        step.unsubscribes.push("A".into());
    }
    if g.flag() {
        step.command_failures = 1;
    }
    for i in 0..g.pick(3) {
        step.commands.push(iotsan::properties::CommandRecord {
            app: "A".into(),
            handler: "h".into(),
            device: DeviceId(1),
            device_label: "d1".into(),
            command: if i % 2 == 0 { "unlock" } else { "lock" }.into(),
            delivered: true,
            changed_state: true,
        });
    }
    if g.flag() {
        step.messages.push(iotsan::properties::MessageRecord {
            app: "A".into(),
            channel: iotsan::properties::MessageChannel::Push,
            recipient: String::new(),
            body: "b".into(),
        });
    }
    step
}

/// A random formula over the household vocabulary, depth-bounded.
fn gen_expr(g: &mut Gen, depth: usize) -> Expr {
    if depth == 0 || g.pick(3) == 0 {
        let atoms: [Expr; 18] = [
            Expr::anyone_home(),
            Expr::mode_is("Night"),
            Expr::mode_is("Away"),
            Expr::capability_attr("lock", "lock", "unlocked"),
            Expr::role_attr("heater", "switch", "on"),
            Expr::capability_attr("smokeDetector", "smoke", "detected"),
            Expr::any_offline(DeviceSelect::capability("smokeDetector")),
            Expr::any_below(DeviceSelect::any(), "temperature", 50.0),
            Expr::any_above(DeviceSelect::any(), "temperature", 90.0),
            // Thresholds and numeric equality on an exact domain level.
            Expr::any_below(DeviceSelect::any(), "temperature", 50.0),
            Expr::capability_attr("temperatureMeasurement", "temperature", "75.0"),
            Expr::all_attr(DeviceSelect::capability("presenceSensor"), "presence", "not present"),
            // Broad-selector all-quantifier: most selected devices lack the
            // attribute, which must fail the test in both evaluators.
            Expr::all_attr(DeviceSelect::any(), "presence", "not present"),
            Expr::has_device(DeviceSelect::role("sprinkler")),
            Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
            Expr::atom(iotsan::properties::Atom::ConflictingCommands),
            Expr::atom(iotsan::properties::Atom::CommandFailed),
            Expr::atom(iotsan::properties::Atom::UserNotified),
        ];
        return atoms[g.pick(atoms.len())].clone();
    }
    match g.pick(3) {
        0 => Expr::not(gen_expr(g, depth - 1)),
        1 => Expr::and((0..1 + g.pick(2)).map(|_| gen_expr(g, depth - 1)).collect::<Vec<_>>()),
        _ => Expr::or((0..1 + g.pick(2)).map(|_| gen_expr(g, depth - 1)).collect::<Vec<_>>()),
    }
}

/// A random custom spec (never/always over a random formula).
fn gen_spec(g: &mut Gen) -> PropertySpec {
    let expr = gen_expr(g, 3);
    let builder = PropertySpec::builder(99, "generated").category("Generated");
    if g.flag() {
        builder.never(expr)
    } else {
        builder.always(expr)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// PropertySpec → JSON → PropertySpec is the identity, and the compiled
    /// evaluator agrees with the interpreted reference on random states of
    /// random households.
    #[test]
    fn spec_json_compile_roundtrip_preserves_verdicts(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let spec = gen_spec(&mut g);
        let (system, state) = gen_household(&mut g);
        let step = gen_step(&mut g);

        // JSON roundtrip.
        let json = spec.to_json();
        let parsed = PropertySpec::from_json(&json).unwrap();
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.content_hash(), spec.content_hash());

        // Compiled verdict == interpreted verdict, on memo misses and hits.
        let set = PropertySet::from_specs(vec![parsed]);
        let compiled = system.compile_properties(&set);
        let mut scratch = EvalScratch::default();
        for (state, step) in draws(&mut g, &system, state, step) {
            let (got, want) = verdicts(&system, &state, (&set, &compiled), &step, &mut scratch);
            prop_assert_eq!(!got.is_empty(), !want.is_empty());
        }
    }

    /// The whole built-in corpus agrees between the compiled and interpreted
    /// paths on random states of random households and random steps, on
    /// memo misses and hits.
    #[test]
    fn builtin_corpus_compiled_matches_interpreted(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (system, state) = gen_household(&mut g);
        let step = gen_step(&mut g);
        let set = PropertySet::all();
        let compiled = system.compile_properties(&set);
        let mut scratch = EvalScratch::default();
        for (state, step) in draws(&mut g, &system, state, step) {
            let (got, want) = verdicts(&system, &state, (&set, &compiled), &step, &mut scratch);
            prop_assert_eq!(got, want);
        }
    }
}

// ---------------------------------------------------------------------------
// Custom properties end-to-end
// ---------------------------------------------------------------------------

const UNLOCK_DOOR: &str = r#"
definition(name: "Unlock Door", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "lock1", "capability.lock" } }
def installed() {
    subscribe(app, "touch", appTouch)
    subscribe(location, "mode", changedLocationMode)
}
def appTouch(evt) { lock1.unlock() }
def changedLocationMode(evt) { lock1.unlock() }
"#;

const AUTO_MODE: &str = r#"
definition(name: "Auto Mode Change", namespace: "st", author: "a", description: "d")
preferences { section("s") { input "people", "capability.presenceSensor", multiple: true } }
def installed() { subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.value == "not present") { setLocationMode("Away") } else { setLocationMode("Home") }
}
"#;

/// A user-defined property is compiled, checked, violated, rendered into the
/// Promela output, and bucketed under its custom class label.
#[test]
fn custom_property_flows_through_the_whole_pipeline() {
    let apps = iotsan::translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
    let config = iotsan::config::expert_configure(&apps, &iotsan::config::standard_household());
    let custom = PropertySpec::builder(46, "No unlock command while anyone is away")
        .category("Custom")
        .class(PropertyClass::Custom("Night security".into()))
        .never(Expr::and([
            Expr::not(Expr::anyone_home()),
            Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
        ]));
    let mut pipeline = iotsan::Pipeline::with_events(2);
    pipeline.properties = PropertySet::all().with(custom);
    let result = pipeline.verify(&apps, &config);
    let violated: BTreeSet<u32> =
        result.groups.iter().flat_map(|g| g.violated_properties()).collect();
    assert!(violated.contains(&46), "custom property not violated: {violated:?}");

    let by_class = result.violations_by_class(&pipeline.properties);
    assert!(by_class.get("Night security").copied().unwrap_or(0) >= 1, "{by_class:?}");

    let promela = pipeline.emit_promela(&apps, &config);
    assert!(promela.contains("ltl p46"), "custom ltl block missing");
    assert!(
        promela.contains("!anyone_home && command(lock.unlock)"),
        "derived proposition missing: {promela}"
    );
}

/// Custom properties shipped inside the system configuration
/// (`SystemConfig::custom_properties`) are registered and verified.
#[test]
fn config_shipped_custom_properties_are_verified() {
    let apps = iotsan::translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
    let config = iotsan::config::expert_configure(&apps, &iotsan::config::standard_household())
        .with_custom_property(
            PropertySpec::builder(46, "No unlock command while nobody is home")
                .category("Custom")
                .class(PropertyClass::Custom("House rules".into()))
                .never(Expr::and([
                    Expr::not(Expr::anyone_home()),
                    Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
                ])),
        );
    // The config round-trips through JSON with the spec aboard.
    let config = iotsan::config::SystemConfig::from_json(&config.to_json()).unwrap();
    // No explicit property registration: the verify path itself merges
    // config-shipped specs (`Pipeline::properties_for`).
    let pipeline = iotsan::Pipeline::with_events(2);
    let result = pipeline.verify(&apps, &config);
    let violated: BTreeSet<u32> =
        result.groups.iter().flat_map(|g| g.violated_properties()).collect();
    assert!(violated.contains(&46), "config-shipped property not verified: {violated:?}");
    // with_config_properties additionally exposes the spec for display
    // lookups, and tolerates the identical re-registration.
    let pipeline = pipeline.with_config_properties(&config);
    assert_eq!(pipeline.properties.len(), 46);
    let by_class = result.violations_by_class(&pipeline.properties);
    assert!(by_class.get("House rules").copied().unwrap_or(0) >= 1, "{by_class:?}");
}

/// Duplicate ids in an uploaded property-set JSON are rejected (violations
/// are attributed by id; a duplicate would misreport under the wrong spec).
#[test]
fn property_set_json_with_duplicate_ids_is_rejected() {
    let set = PropertySet::from_specs(vec![
        PropertySpec::builder(46, "first").never(Expr::mode_is("Night")),
        PropertySpec::builder(47, "second").never(Expr::mode_is("Away")),
    ]);
    assert!(PropertySet::from_json(&set.to_json()).is_ok());
    let clashing = set.to_json().replace("\"id\": 47", "\"id\": 46");
    let err = PropertySet::from_json(&clashing).unwrap_err();
    assert!(err.to_string().contains("duplicate property id P46"), "{err}");
}

/// Unknown property ids surface in the class table instead of disappearing.
#[test]
fn unknown_property_ids_are_reported_not_dropped() {
    let apps = iotsan::translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
    let config = iotsan::config::expert_configure(&apps, &iotsan::config::standard_household());
    let pipeline = iotsan::Pipeline::with_events(2);
    let result = pipeline.verify(&apps, &config);
    assert!(result.has_violations());
    // Bucket the violations against a property set that does not contain the
    // violated ids: every one must land in an explicit "unknown" bucket.
    let empty = PropertySet::empty();
    let by_class = result.violations_by_class(&empty);
    let total: usize = by_class.values().sum();
    assert_eq!(total, result.violation_count());
    assert!(by_class.keys().all(|k| k.starts_with("unknown property P")), "{by_class:?}");
}

/// A leads-to property with slack (`within > 0`) adds monitor slots to the
/// state vector and fires only when the deadline truly expires.
#[test]
fn leads_to_with_slack_verifies_through_the_model() {
    let apps = iotsan::translate_sources(&[AUTO_MODE, UNLOCK_DOOR]).unwrap();
    let config = iotsan::config::expert_configure(&apps, &iotsan::config::standard_household());
    // "An unlock command leads to someone coming home within 1 step" — the
    // bundle never satisfies this, so at depth 3 the deadline expires.
    let custom = PropertySpec::builder(47, "Unlock implies arrival within one step").leads_to(
        Expr::command_issued(DeviceSelect::capability("lock"), "unlock"),
        Expr::anyone_home(),
        1,
    );
    let mut pipeline = iotsan::Pipeline::with_events(3);
    pipeline.properties = PropertySet::all().with(custom);
    pipeline.search.max_depth = 3;
    let result = pipeline.verify(&apps, &config);
    let violated: BTreeSet<u32> =
        result.groups.iter().flat_map(|g| g.violated_properties()).collect();
    assert!(violated.contains(&47), "deadline violation not found: {violated:?}");
}
