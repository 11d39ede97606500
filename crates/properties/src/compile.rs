//! Compilation of [`PropertySpec`](crate::PropertySpec)s into slot-indexed, zero-allocation
//! evaluators.
//!
//! The checker evaluates every property once per explored transition, so the
//! interpreted [`crate::Expr::eval`] walk (selector matching, attribute-name
//! lookups) is far too slow for the hot path.  At install time the
//! [`CompiledPropertySet`] resolves everything that is fixed by the installed
//! system against a [`CompileTarget`]:
//!
//! * device selectors become lists of `(device index, attribute index)`
//!   *slots* into the snapshot's fixed layout — no capability/role/attribute
//!   string matching remains at evaluation time;
//! * existence tests ([`crate::Atom::HasDevice`]) fold to constants;
//! * formulas become flat postfix programs over a shared, deduplicated atom
//!   table: each distinct atom is evaluated once per transition into a slot
//!   vector, then every property's program runs pure boolean ops.
//!
//! Evaluation reuses an [`EvalScratch`] (slot vector + program stack), so a
//! steady-state transition check performs no heap allocation.  Leads-to
//! obligations are tracked in caller-owned per-property monitor counters that
//! are part of the model-checker state identity.

//! Compilation of [`PropertySpec`](crate::PropertySpec)s into slot-indexed, zero-allocation
//! evaluators over the model checker's state vector.
//!
//! The checker evaluates every property once per explored transition, so the
//! interpreted [`crate::Expr::eval`] walk (selector matching, attribute-name
//! lookups, string values re-parsed as numbers) is far too slow for the hot
//! path.  At install time the [`CompiledPropertySet`] resolves everything
//! that is fixed by the installed system against a [`CompileTarget`]:
//!
//! * device selectors become lists of `(device index, attribute index)`
//!   *slots* into the state vector — no capability/role/attribute string
//!   matching remains at evaluation time;
//! * every state predicate becomes a *domain-index mask* per slot.  Attribute
//!   domains are finite and fixed at install, so the compiler applies the
//!   atom's own predicate (`eq_str`, `as_number` against a threshold, a
//!   case-insensitive mode-name match) to the rendered value of each domain
//!   index ([`AttrDomain::value`], the rule snapshots render with too) and
//!   sets bit `i` where it holds.  Evaluation is then `mask >> index & 1` on
//!   the raw [`DeviceState`] index — no [`crate::Snapshot`] is built, no
//!   string is rendered or parsed;
//! * existence tests ([`crate::Atom::HasDevice`]) fold to constants;
//! * formulas become flat postfix programs over a shared, deduplicated atom
//!   table: each distinct atom is evaluated once per transition into a slot
//!   vector, then every property's program runs pure boolean ops.
//!
//! Evaluation reuses an [`EvalScratch`] (slot vector + program stack), so a
//! steady-state transition check performs no heap allocation.  Leads-to
//! obligations are tracked in caller-owned per-property monitor counters that
//! are part of the model-checker state identity.  The interpreted
//! [`PropertySet::check_point`] over a snapshot stays the reference
//! semantics the compiled evaluator is tested against.

use crate::registry::PropertySet;
use crate::snapshot::{
    has_conflicting_commands, has_repeated_commands, DeviceRole, StepObservation,
};
use crate::spec::{Atom, DeviceSelect, Expr, Modality, PropertyId};
use iotsan_devices::{AttrDomain, DeviceState, LocationMode};
use iotsan_ir::Value;

/// One installed device, as the compiler sees it: identity for selector
/// matching plus the attribute layout of its state-vector entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetDevice {
    /// The raw device id (`DeviceId.0`), used to match step command records.
    pub id: u32,
    /// User-facing label.
    pub label: String,
    /// Spec capability name.
    pub capability: String,
    /// User-assigned role.
    pub role: DeviceRole,
    /// Attribute names and value domains, in the exact order of the device's
    /// [`DeviceState`] indices (slot positions and masks are resolved
    /// against this).
    pub attributes: Vec<(String, AttrDomain)>,
}

/// The installed-system layout properties are compiled against.  Device
/// positions must match the position of each device in the state vectors
/// later passed to [`CompiledPropertySet::check_transition`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileTarget {
    /// The installed devices, in state-vector order.
    pub devices: Vec<TargetDevice>,
}

impl CompileTarget {
    /// A target over the given devices.
    pub fn new(devices: Vec<TargetDevice>) -> Self {
        CompileTarget { devices }
    }

    /// A mask slot for every selected device that has the attribute, with
    /// bit `i` set where `holds` accepts the attribute's domain value `i`.
    fn attr_slots(
        &self,
        select: &DeviceSelect,
        attribute: &str,
        holds: impl Fn(&Value) -> bool,
    ) -> Vec<Slot> {
        let mut out = Vec::new();
        for (di, device) in self.devices.iter().enumerate() {
            if !select.matches(&device.label, &device.capability, device.role) {
                continue;
            }
            let Some(ai) = device.attributes.iter().position(|(name, _)| name == attribute) else {
                continue;
            };
            let domain = &device.attributes[ai].1;
            assert!(
                domain.len() <= u64::BITS as usize,
                "{}.{attribute} has {} domain values but a property mask holds {}",
                device.label,
                domain.len(),
                u64::BITS
            );
            let mask = (0..domain.len())
                .filter(|&i| holds(&domain.value(i)))
                .fold(0u64, |mask, i| mask | 1 << i);
            out.push(Slot { device: di as u16, attr: ai as u8, mask });
        }
        out
    }

    /// Positions of every selected device.
    fn device_slots(&self, select: &DeviceSelect) -> Vec<u16> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| select.matches(&d.label, &d.capability, d.role))
            .map(|(i, _)| i as u16)
            .collect()
    }

    /// Raw device ids of every selected device.
    fn device_ids(&self, select: &DeviceSelect) -> Vec<u32> {
        self.devices
            .iter()
            .filter(|d| select.matches(&d.label, &d.capability, d.role))
            .map(|d| d.id)
            .collect()
    }
}

/// The location modes whose canonical name satisfies `holds`, as a mask
/// over `LocationMode as u32`.
fn mode_mask(holds: impl Fn(&str) -> bool) -> u8 {
    LocationMode::ALL.iter().filter(|m| holds(m.name())).fold(0u8, |mask, &m| mask | 1 << m as u32)
}

/// One `(device, attribute)` position of a state atom plus the domain
/// indices at which the atom's predicate holds there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    device: u16,
    attr: u8,
    mask: u64,
}

impl Slot {
    #[inline]
    fn holds(self, devices: &[DeviceState]) -> bool {
        devices[self.device as usize]
            .raw(self.attr as usize)
            .and_then(|index| self.mask.checked_shr(u32::from(index)))
            .is_some_and(|bits| bits & 1 != 0)
    }
}

/// Some slot holds (false for an empty selection).
fn any_in(slots: Vec<Slot>) -> CAtom {
    if slots.is_empty() {
        CAtom::Const(false)
    } else {
        CAtom::AnyIn(slots)
    }
}

/// A compiled atom: every name resolved to slots, every state predicate to
/// domain-index masks, selectors gone.
#[derive(Debug, Clone, PartialEq)]
enum CAtom {
    /// Constant folded at compile time (existence tests, empty selections).
    Const(bool),
    /// The location mode's bit (`LocationMode as u32`) is set in the mask.
    ModeIn(u8),
    /// Some slot holds.
    AnyIn(Vec<Slot>),
    /// Every slot holds (never empty: that folds to a constant).
    AllIn(Vec<Slot>),
    /// Some listed device is offline.
    AnyOffline(Vec<u16>),
    /// Step detectors (see [`crate::snapshot`]).
    Conflicting,
    Repeated,
    DisallowedNetwork,
    SmsMismatch,
    Unsubscribe,
    FakeEvent,
    CommandFailed,
    UserNotified,
    /// A command with the given name reached one of the listed device ids
    /// (`None` = any device).
    CommandIssued {
        command: String,
        devices: Option<Vec<u32>>,
    },
}

impl CAtom {
    fn reads_state(&self) -> bool {
        matches!(self, CAtom::ModeIn(_) | CAtom::AnyIn(_) | CAtom::AllIn(_) | CAtom::AnyOffline(_))
    }

    /// Evaluates the atom.  `devices` and `mode` are only read by state
    /// atoms, which the caller never schedules without a state.
    fn eval(&self, devices: &[DeviceState], mode: LocationMode, step: &StepObservation) -> bool {
        match self {
            CAtom::Const(v) => *v,
            CAtom::ModeIn(mask) => (mask >> mode as u32) & 1 != 0,
            CAtom::AnyIn(slots) => slots.iter().any(|s| s.holds(devices)),
            CAtom::AllIn(slots) => slots.iter().all(|s| s.holds(devices)),
            CAtom::AnyOffline(listed) => listed.iter().any(|&d| !devices[d as usize].is_online()),
            CAtom::Conflicting => has_conflicting_commands(step),
            CAtom::Repeated => has_repeated_commands(step),
            CAtom::DisallowedNetwork => step.network.iter().any(|n| !n.allowed),
            CAtom::SmsMismatch => step.sms_recipient_mismatch(),
            CAtom::Unsubscribe => !step.unsubscribes.is_empty(),
            CAtom::FakeEvent => !step.fake_events.is_empty(),
            CAtom::CommandFailed => step.command_failures > 0,
            CAtom::UserNotified => !step.messages.is_empty(),
            CAtom::CommandIssued { command, devices } => step.commands.iter().any(|c| {
                c.command == *command
                    && devices.as_ref().map(|ids| ids.contains(&c.device.0)).unwrap_or(true)
            }),
        }
    }
}

/// One postfix program instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push the atom slot's value.
    Push(u16),
    /// Pop one, push its negation.
    Not,
    /// Pop two, push the conjunction.
    And,
    /// Pop two, push the disjunction.
    Or,
}

/// A program is a range into the shared op tape.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Program {
    start: u32,
    len: u32,
}

/// How a compiled property decides violations.
#[derive(Debug, Clone, PartialEq)]
enum CompiledKind {
    /// Violated when the program evaluates true.
    Check { program: Program },
    /// Bounded response: a trigger opens an obligation the response must
    /// discharge within `within` further evaluated steps; the countdown
    /// lives in the caller's monitor slot.
    LeadsTo { trigger: Program, response: Program, within: u8, monitor: u16 },
}

/// One property compiled against an installed system.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProperty {
    id: PropertyId,
    kind: CompiledKind,
    step_only: bool,
}

impl CompiledProperty {
    /// The property's id in the source [`PropertySet`].
    pub fn id(&self) -> PropertyId {
        self.id
    }

    /// True when the property reads only the step observation (and is
    /// therefore evaluated on non-quiescent steps too).
    pub fn step_only(&self) -> bool {
        self.step_only
    }
}

/// Reusable evaluation buffers: one bool per distinct atom plus the program
/// stack.  Per-worker, cleared (never reallocated) on every transition.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    slots: Vec<bool>,
    stack: Vec<bool>,
}

/// A [`PropertySet`] compiled against one installed system.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPropertySet {
    atoms: Vec<CAtom>,
    ops: Vec<Op>,
    props: Vec<CompiledProperty>,
    /// Number of leads-to monitor slots the caller must carry in its state.
    monitor_count: usize,
}

impl CompiledPropertySet {
    /// Compiles every spec in `set` against the target layout.
    pub fn compile(set: &PropertySet, target: &CompileTarget) -> Self {
        let mut c = Compiler { target, atoms: Vec::new(), ops: Vec::new() };
        let mut props = Vec::new();
        let mut monitor_count = 0usize;
        for spec in set.specs() {
            let step_only = spec.step_only();
            let kind = match &spec.modality {
                Modality::Never(e) => CompiledKind::Check { program: c.compile_expr(e) },
                Modality::Always(e) => {
                    let program = c.compile_negated(e);
                    CompiledKind::Check { program }
                }
                Modality::LeadsTo(l) => {
                    let trigger = c.compile_expr(&l.trigger);
                    let response = c.compile_expr(&l.response);
                    assert!(
                        l.within <= u32::from(u8::MAX),
                        "property {} ({}): leads-to `within` is {} but the monitor bound is 255 \
                         (bounded search depths are far smaller)",
                        spec.property_id(),
                        spec.name,
                        l.within
                    );
                    if l.within == 0 {
                        CompiledKind::LeadsTo { trigger, response, within: 0, monitor: u16::MAX }
                    } else {
                        let monitor = monitor_count as u16;
                        monitor_count += 1;
                        CompiledKind::LeadsTo { trigger, response, within: l.within as u8, monitor }
                    }
                }
            };
            props.push(CompiledProperty { id: spec.property_id(), kind, step_only });
        }
        CompiledPropertySet { atoms: c.atoms, ops: c.ops, props, monitor_count }
    }

    /// The number of monitor slots leads-to properties with `within > 0`
    /// need; the model checker carries this many `u8` countdown counters in
    /// its state vector (all zero initially).
    pub fn monitor_count(&self) -> usize {
        self.monitor_count
    }

    /// The compiled properties, in set order.
    pub fn properties(&self) -> &[CompiledProperty] {
        &self.props
    }

    /// Number of distinct atoms shared by all programs.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Evaluates every property at a quiescent point (both the physical
    /// state — every device's state in [`CompileTarget`] order plus the
    /// location mode — and the step observation are visible), appending
    /// violated ids to `out` and updating leads-to monitors in place.
    pub fn check_transition(
        &self,
        devices: &[DeviceState],
        mode: LocationMode,
        step: &StepObservation,
        monitors: &mut [u8],
        scratch: &mut EvalScratch,
        out: &mut Vec<PropertyId>,
    ) {
        self.fill_slots(Some((devices, mode)), step, scratch);
        for prop in &self.props {
            self.check_one(prop, monitors, scratch, out);
        }
    }

    /// Evaluates only the step-only properties (the strict-concurrency
    /// design's non-quiescent steps, where physical-state invariants are
    /// deferred until the pending-event queue drains).
    pub fn check_step_only(
        &self,
        step: &StepObservation,
        monitors: &mut [u8],
        scratch: &mut EvalScratch,
        out: &mut Vec<PropertyId>,
    ) {
        self.fill_slots(None, step, scratch);
        for prop in &self.props {
            if prop.step_only {
                self.check_one(prop, monitors, scratch, out);
            }
        }
    }

    fn check_one(
        &self,
        prop: &CompiledProperty,
        monitors: &mut [u8],
        scratch: &mut EvalScratch,
        out: &mut Vec<PropertyId>,
    ) {
        match &prop.kind {
            CompiledKind::Check { program } => {
                if self.run(*program, scratch) {
                    out.push(prop.id);
                }
            }
            CompiledKind::LeadsTo { trigger, response, within, monitor } => {
                let triggered = self.run(*trigger, scratch);
                let responded = self.run(*response, scratch);
                if *within == 0 {
                    if triggered && !responded {
                        out.push(prop.id);
                    }
                    return;
                }
                let slot = &mut monitors[*monitor as usize];
                if responded {
                    // A response discharges every open obligation at once.
                    *slot = 0;
                    return;
                }
                let mut violated = false;
                if *slot > 0 {
                    *slot -= 1;
                    if *slot == 0 {
                        violated = true;
                    }
                }
                // The counter tracks the *earliest* open obligation — the
                // first deadline to expire.  A re-trigger while one is
                // pending must therefore never refresh the countdown (that
                // would silently extend the first obligation's deadline and
                // miss its violation); a new countdown starts only when no
                // obligation is open (including right after one just
                // expired — the new trigger stands on its own).
                if triggered && *slot == 0 {
                    *slot = *within;
                }
                if violated {
                    out.push(prop.id);
                }
            }
        }
    }

    /// Evaluates each distinct atom once into the slot vector.  State atoms
    /// are skipped when no state is given (their slots are then never read
    /// — only step-only programs run).
    fn fill_slots(
        &self,
        state: Option<(&[DeviceState], LocationMode)>,
        step: &StepObservation,
        scratch: &mut EvalScratch,
    ) {
        scratch.slots.clear();
        scratch.slots.resize(self.atoms.len(), false);
        for (slot, atom) in scratch.slots.iter_mut().zip(&self.atoms) {
            match state {
                Some((devices, mode)) => *slot = atom.eval(devices, mode, step),
                None if !atom.reads_state() => *slot = atom.eval(&[], LocationMode::Home, step),
                None => {}
            }
        }
    }

    fn run(&self, program: Program, scratch: &mut EvalScratch) -> bool {
        let ops = &self.ops[program.start as usize..(program.start + program.len) as usize];
        let stack = &mut scratch.stack;
        stack.clear();
        for op in ops {
            match op {
                Op::Push(slot) => stack.push(scratch.slots[*slot as usize]),
                Op::Not => {
                    let v = stack.pop().expect("program underflow");
                    stack.push(!v);
                }
                Op::And => {
                    let b = stack.pop().expect("program underflow");
                    let a = stack.pop().expect("program underflow");
                    stack.push(a && b);
                }
                Op::Or => {
                    let b = stack.pop().expect("program underflow");
                    let a = stack.pop().expect("program underflow");
                    stack.push(a || b);
                }
            }
        }
        stack.pop().expect("empty program")
    }
}

struct Compiler<'a> {
    target: &'a CompileTarget,
    atoms: Vec<CAtom>,
    ops: Vec<Op>,
}

impl Compiler<'_> {
    fn slot(&mut self, atom: CAtom) -> u16 {
        if let Some(pos) = self.atoms.iter().position(|a| *a == atom) {
            return pos as u16;
        }
        assert!(
            self.atoms.len() <= u16::MAX as usize,
            "property set exceeds {} distinct atoms",
            u16::MAX as usize + 1
        );
        self.atoms.push(atom);
        (self.atoms.len() - 1) as u16
    }

    fn compile_expr(&mut self, expr: &Expr) -> Program {
        let start = self.ops.len() as u32;
        self.emit(expr);
        Program { start, len: self.ops.len() as u32 - start }
    }

    fn compile_negated(&mut self, expr: &Expr) -> Program {
        let start = self.ops.len() as u32;
        self.emit(expr);
        self.ops.push(Op::Not);
        Program { start, len: self.ops.len() as u32 - start }
    }

    fn emit(&mut self, expr: &Expr) {
        match expr {
            Expr::Atom(atom) => self.emit_atom(atom),
            Expr::Not(e) => {
                self.emit(e);
                self.ops.push(Op::Not);
            }
            Expr::All(es) => self.emit_nary(es, Op::And, true),
            Expr::AnyOf(es) => self.emit_nary(es, Op::Or, false),
        }
    }

    fn emit_nary(&mut self, es: &[Expr], op: Op, empty: bool) {
        match es.split_first() {
            None => {
                let slot = self.slot(CAtom::Const(empty));
                self.ops.push(Op::Push(slot));
            }
            Some((first, rest)) => {
                self.emit(first);
                for e in rest {
                    self.emit(e);
                    self.ops.push(op);
                }
            }
        }
    }

    fn emit_atom(&mut self, atom: &Atom) {
        let t = self.target;
        let lowered = match atom {
            Atom::ModeIs(mode) => CAtom::ModeIn(mode_mask(|name| name.eq_ignore_ascii_case(mode))),
            Atom::AnyoneHome => {
                // Resolved at compile time: with presence sensors installed,
                // "anyone home" means some sensor reports `present`; without
                // any, the location mode not being Away is the paper's proxy.
                let presence = DeviceSelect::capability("presenceSensor");
                let slots = t.attr_slots(&presence, "presence", |v| v.eq_str("present"));
                if slots.is_empty() {
                    CAtom::ModeIn(mode_mask(|name| !name.eq_ignore_ascii_case("away")))
                } else {
                    any_in(slots)
                }
            }
            Atom::AnyAttr(a) => {
                any_in(t.attr_slots(&a.select, &a.attribute, |v| v.eq_str(&a.value)))
            }
            Atom::AllAttr(a) => {
                // Match the interpreted semantics exactly: a selected device
                // *without* the attribute fails the test (`attr_is` on a
                // missing attribute is false).  Attribute layouts are fixed
                // at install time, so that case folds to a constant.
                let selected = t.device_slots(&a.select).len();
                let slots = t.attr_slots(&a.select, &a.attribute, |v| v.eq_str(&a.value));
                if slots.len() < selected {
                    CAtom::Const(false)
                } else if slots.is_empty() {
                    CAtom::Const(true)
                } else {
                    CAtom::AllIn(slots)
                }
            }
            Atom::HasDevice(select) => CAtom::Const(!t.device_slots(select).is_empty()),
            Atom::AnyOffline(select) => {
                let devices = t.device_slots(select);
                if devices.is_empty() {
                    CAtom::Const(false)
                } else {
                    CAtom::AnyOffline(devices)
                }
            }
            Atom::AnyBelow(n) => any_in(t.attr_slots(&n.select, &n.attribute, |v| {
                v.as_number().is_some_and(|x| x < n.threshold)
            })),
            Atom::AnyAbove(n) => any_in(t.attr_slots(&n.select, &n.attribute, |v| {
                v.as_number().is_some_and(|x| x > n.threshold)
            })),
            Atom::ConflictingCommands => CAtom::Conflicting,
            Atom::RepeatedCommands => CAtom::Repeated,
            Atom::DisallowedNetwork => CAtom::DisallowedNetwork,
            Atom::SmsRecipientMismatch => CAtom::SmsMismatch,
            Atom::UnsubscribeCalled => CAtom::Unsubscribe,
            Atom::FakeEventRaised => CAtom::FakeEvent,
            Atom::CommandFailed => CAtom::CommandFailed,
            Atom::UserNotified => CAtom::UserNotified,
            Atom::CommandIssued(c) => CAtom::CommandIssued {
                command: c.command.clone(),
                devices: if c.select.is_any() { None } else { Some(t.device_ids(&c.select)) },
            },
        };
        let slot = self.slot(lowered);
        self.ops.push(Op::Push(slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{DeviceSnapshot, Snapshot};
    use crate::spec::PropertySpec;
    use iotsan_devices::{registry, DeviceId, DeviceSpec};

    /// A test household over registry device specs: the compile target plus
    /// a state vector the tests mutate.
    struct Home {
        specs: Vec<&'static DeviceSpec>,
        target: CompileTarget,
        devices: Vec<DeviceState>,
        mode: LocationMode,
    }

    impl Home {
        fn new(devices: &[(&str, DeviceRole)]) -> Home {
            let specs: Vec<&'static DeviceSpec> =
                devices.iter().map(|(cap, _)| registry().spec(cap).expect("built-in")).collect();
            let target = CompileTarget::new(
                specs
                    .iter()
                    .zip(devices)
                    .enumerate()
                    .map(|(i, (spec, (_, role)))| TargetDevice {
                        id: i as u32,
                        label: format!("d{i}"),
                        capability: spec.capability.to_string(),
                        role: *role,
                        attributes: spec
                            .attributes
                            .iter()
                            .map(|a| (a.name.to_string(), a.domain.clone()))
                            .collect(),
                    })
                    .collect(),
            );
            let devices = specs.iter().map(|spec| DeviceState::initial(spec)).collect();
            Home { specs, target, devices, mode: LocationMode::Home }
        }

        /// The presence sensor, main door lock, smoke detector and heater
        /// outlet most tests share (initially present/locked/clear/off).
        fn household() -> Home {
            Home::new(&[
                ("presenceSensor", DeviceRole::Generic),
                ("lock", DeviceRole::MainDoorLock),
                ("smokeDetector", DeviceRole::Generic),
                ("switch", DeviceRole::Heater),
            ])
        }

        fn set(&mut self, device: usize, attribute: &str, value: impl Into<Value>) {
            assert!(self.devices[device].set(self.specs[device], attribute, &value.into()));
        }

        /// The interpreted reference view of the current state.
        fn snapshot(&self) -> Snapshot {
            let devices = self
                .target
                .devices
                .iter()
                .zip(&self.devices)
                .map(|(t, state)| DeviceSnapshot {
                    id: DeviceId(t.id),
                    label: t.label.clone(),
                    capability: t.capability.clone(),
                    role: t.role,
                    attributes: t
                        .attributes
                        .iter()
                        .enumerate()
                        .map(|(i, (name, domain))| {
                            (name.clone(), domain.value(state.raw(i).unwrap() as usize))
                        })
                        .collect(),
                    online: state.is_online(),
                })
                .collect();
            Snapshot { mode: self.mode.name().to_string(), devices, time_seconds: 0 }
        }

        fn compile(&self, set: &PropertySet) -> CompiledPropertySet {
            CompiledPropertySet::compile(set, &self.target)
        }

        fn check(
            &self,
            compiled: &CompiledPropertySet,
            step: &StepObservation,
            monitors: &mut [u8],
            out: &mut Vec<PropertyId>,
        ) {
            let mut scratch = EvalScratch::default();
            compiled.check_transition(&self.devices, self.mode, step, monitors, &mut scratch, out);
        }

        /// Violated ids of `set` on a quiet step, compiled — asserted equal
        /// to the interpreted reference on the snapshot.
        fn violated(&self, set: &PropertySet) -> Vec<u32> {
            let compiled = self.compile(set);
            let step = StepObservation::default();
            let mut monitors = vec![0u8; compiled.monitor_count()];
            let mut out = Vec::new();
            self.check(&compiled, &step, &mut monitors, &mut out);
            let mut got: Vec<u32> = out.into_iter().map(|id| id.0).collect();
            got.sort_unstable();
            let mut want: Vec<u32> =
                set.check_point(&self.snapshot(), &step).into_iter().map(|id| id.0).collect();
            want.sort_unstable();
            assert_eq!(got, want, "compiled vs interpreted");
            got
        }
    }

    fn one(spec: PropertySpec) -> PropertySet {
        PropertySet::from_specs(vec![spec])
    }

    fn never(id: u32, expr: Expr) -> PropertySpec {
        PropertySpec::builder(id, "p").never(expr)
    }

    #[test]
    fn selectors_resolve_to_slots_and_constants_fold() {
        let mut home = Home::household();
        let set = one(never(
            1,
            Expr::and([
                Expr::has_device(DeviceSelect::role("heater")),
                Expr::capability_attr("lock", "lock", "unlocked"),
            ]),
        ));
        // `has_device` folded into a constant, the attr test into one atom.
        assert!(home.compile(&set).atom_count() <= 2);
        assert!(home.violated(&set).is_empty());
        home.set(1, "lock", "unlocked");
        assert_eq!(home.violated(&set), vec![1]);
    }

    #[test]
    fn anyone_home_compiles_to_presence_or_mode_fallback() {
        let set = one(PropertySpec::builder(1, "p").always(Expr::anyone_home()));
        let mut home = Home::household();
        assert!(home.violated(&set).is_empty());
        home.set(0, "presence", "not present");
        assert_eq!(home.violated(&set), vec![1]);

        // No presence sensors: mode decides.
        let mut bare = Home::new(&[]);
        assert!(bare.violated(&set).is_empty());
        bare.mode = LocationMode::Away;
        assert_eq!(bare.violated(&set), vec![1]);
    }

    #[test]
    fn compiled_verdicts_match_interpreted_for_builtins() {
        // Every built-in property agrees with the interpreted reference on a
        // hand-made situation (`violated` asserts the agreement).
        let mut home = Home::household();
        home.mode = LocationMode::Night;
        home.set(1, "lock", "unlocked");
        home.set(2, "smoke", "detected");
        home.devices[2].set_online(false);
        home.set(3, "switch", "on");
        assert!(!home.violated(&PropertySet::all()).is_empty());
    }

    #[test]
    fn numeric_strings_match_a_numeric_level() {
        // `eq_str` compares numerically when both sides parse, so "75" and
        // "75.0" both select the Numeric level 75.
        let mut home = Home::new(&[("temperatureMeasurement", DeviceRole::Generic)]);
        let set = PropertySet::from_specs(vec![
            never(1, Expr::capability_attr("temperatureMeasurement", "temperature", "75")),
            never(2, Expr::capability_attr("temperatureMeasurement", "temperature", "75.0")),
        ]);
        home.set(0, "temperature", 75i64);
        assert_eq!(home.violated(&set), vec![1, 2]);
        home.set(0, "temperature", 68i64);
        assert!(home.violated(&set).is_empty());
    }

    #[test]
    fn thresholds_on_a_domain_level_are_strict() {
        let mut home = Home::new(&[("temperatureMeasurement", DeviceRole::Generic)]);
        let set = PropertySet::from_specs(vec![
            never(1, Expr::any_below(DeviceSelect::any(), "temperature", 50.0)),
            never(2, Expr::any_above(DeviceSelect::any(), "temperature", 85.0)),
        ]);
        home.set(0, "temperature", 50i64);
        assert!(home.violated(&set).is_empty());
        home.set(0, "temperature", 85i64);
        assert!(home.violated(&set).is_empty());
        home.set(0, "temperature", 30i64);
        assert_eq!(home.violated(&set), vec![1]);
        home.set(0, "temperature", 95i64);
        assert_eq!(home.violated(&set), vec![2]);
    }

    #[test]
    fn all_attr_is_vacuous_or_fails_on_a_device_without_the_attribute() {
        let home = Home::household();
        // No sprinkler installed: vacuously true.
        let vacuous =
            one(never(1, Expr::all_attr(DeviceSelect::role("sprinkler"), "switch", "on")));
        assert_eq!(home.violated(&vacuous), vec![1]);
        // The presence sensor is present, but the lock, smoke detector and
        // outlet are selected too and have no `presence` attribute.
        let broad = one(never(2, Expr::all_attr(DeviceSelect::any(), "presence", "present")));
        assert!(home.violated(&broad).is_empty());
        let exact = one(never(
            3,
            Expr::all_attr(DeviceSelect::capability("presenceSensor"), "presence", "present"),
        ));
        assert_eq!(home.violated(&exact), vec![3]);
    }

    #[test]
    fn mode_names_match_case_insensitively_but_synonyms_do_not() {
        let mut home = Home::new(&[]);
        let set = PropertySet::from_specs(vec![
            never(1, Expr::mode_is("away")),
            never(2, Expr::mode_is("Goodbye!")),
        ]);
        home.mode = LocationMode::Away;
        assert_eq!(home.violated(&set), vec![1]);
        home.mode = LocationMode::Night;
        assert!(home.violated(&set).is_empty());
    }

    #[test]
    fn offline_devices_are_seen_and_keep_their_values() {
        let mut home = Home::household();
        let set = PropertySet::from_specs(vec![
            never(1, Expr::any_offline(DeviceSelect::capability("smokeDetector"))),
            never(2, Expr::capability_attr("smokeDetector", "smoke", "detected")),
        ]);
        assert!(home.violated(&set).is_empty());
        home.set(2, "smoke", "detected");
        home.devices[2].set_online(false);
        assert_eq!(home.violated(&set), vec![1, 2]);
    }

    #[test]
    fn step_only_pass_skips_state_properties() {
        let home = Home::household();
        let compiled = home.compile(&PropertySet::all());
        let step = StepObservation {
            unsubscribes: vec!["A".into()],
            command_failures: 1,
            ..Default::default()
        };
        let mut monitors = vec![0u8; compiled.monitor_count()];
        let mut scratch = EvalScratch::default();
        let mut out = Vec::new();
        compiled.check_step_only(&step, &mut monitors, &mut scratch, &mut out);
        let ids: Vec<u32> = out.iter().map(|id| id.0).collect();
        // Unsubscribe (43) and the same-step robustness response (45) fire;
        // no physical-state property can.
        assert_eq!(ids, vec![43, 45]);
    }

    #[test]
    fn leads_to_monitors_count_down_and_discharge() {
        let spec = PropertySpec::builder(9, "failures notify within 2").leads_to(
            Expr::atom(Atom::CommandFailed),
            Expr::atom(Atom::UserNotified),
            2,
        );
        let home = Home::new(&[]);
        let compiled = home.compile(&one(spec));
        assert_eq!(compiled.monitor_count(), 1);
        let failing = StepObservation { command_failures: 1, ..Default::default() };
        let quiet = StepObservation::default();
        let notified = StepObservation {
            messages: vec![crate::snapshot::MessageRecord {
                app: "A".into(),
                channel: crate::snapshot::MessageChannel::Push,
                recipient: String::new(),
                body: "b".into(),
            }],
            ..Default::default()
        };

        // Trigger, silence, silence → violated exactly on the second
        // follow-up step.
        let mut monitors = vec![0u8];
        let mut out = Vec::new();
        home.check(&compiled, &failing, &mut monitors, &mut out);
        assert!(out.is_empty());
        assert_eq!(monitors, vec![2]);
        home.check(&compiled, &quiet, &mut monitors, &mut out);
        assert!(out.is_empty());
        home.check(&compiled, &quiet, &mut monitors, &mut out);
        assert_eq!(out.iter().map(|id| id.0).collect::<Vec<_>>(), vec![9]);
        assert_eq!(monitors, vec![0]);

        // Trigger then notify → obligation discharged, never violated.
        let mut monitors = vec![0u8];
        let mut out = Vec::new();
        home.check(&compiled, &failing, &mut monitors, &mut out);
        home.check(&compiled, &notified, &mut monitors, &mut out);
        home.check(&compiled, &quiet, &mut monitors, &mut out);
        assert!(out.is_empty());
        assert_eq!(monitors, vec![0]);
    }

    #[test]
    fn leads_to_retrigger_keeps_the_earliest_deadline() {
        // The counter tracks the first deadline to expire: a second trigger
        // while an obligation is open must not extend it, or the first
        // obligation's violation would be missed entirely.
        let spec = PropertySpec::builder(9, "failures notify within 2").leads_to(
            Expr::atom(Atom::CommandFailed),
            Expr::atom(Atom::UserNotified),
            2,
        );
        let home = Home::new(&[]);
        let compiled = home.compile(&one(spec));
        let failing = StepObservation { command_failures: 1, ..Default::default() };
        let quiet = StepObservation::default();
        let mut monitors = vec![0u8];
        let mut out = Vec::new();
        // t0: trigger (deadline t2).  t1: trigger again — countdown must
        // keep counting the t0 obligation (slot 1, not refreshed to 2).
        home.check(&compiled, &failing, &mut monitors, &mut out);
        home.check(&compiled, &failing, &mut monitors, &mut out);
        assert!(out.is_empty());
        assert_eq!(monitors, vec![1]);
        // t2: silence — the t0 deadline expires.
        home.check(&compiled, &quiet, &mut monitors, &mut out);
        assert_eq!(out.iter().map(|id| id.0).collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    #[should_panic(expected = "monitor bound is 255")]
    fn leads_to_within_beyond_the_monitor_bound_fails_compilation() {
        let spec = PropertySpec {
            id: 9,
            name: "huge".into(),
            category: String::new(),
            class: crate::spec::PropertyClass::Custom("Custom".into()),
            modality: crate::spec::Modality::LeadsTo(crate::spec::LeadsTo {
                trigger: Expr::atom(Atom::CommandFailed),
                response: Expr::atom(Atom::UserNotified),
                within: 1000,
            }),
            ltl: None,
        };
        let _ = CompiledPropertySet::compile(&one(spec), &CompileTarget::default());
    }

    #[test]
    #[should_panic(expected = "a property mask holds 64")]
    fn domains_wider_than_a_mask_fail_compilation() {
        let wide = TargetDevice {
            id: 0,
            label: "dial".into(),
            capability: "dial".into(),
            role: DeviceRole::Generic,
            attributes: vec![("level".into(), AttrDomain::Numeric((0..65).collect()))],
        };
        let set = one(never(1, Expr::any_above(DeviceSelect::any(), "level", 10.0)));
        let _ = CompiledPropertySet::compile(&set, &CompileTarget::new(vec![wide]));
    }

    #[test]
    fn builtin_corpus_needs_no_monitors() {
        // The paper corpus only uses same-step response (within = 0), so the
        // model-checker state vector stays byte-identical to the pre-spec
        // catalog.
        let compiled = Home::household().compile(&PropertySet::all());
        assert_eq!(compiled.monitor_count(), 0);
    }
}
