//! The explicit-state search engine.
//!
//! This is the Spin substitute: a bounded, explicit-state safety checker
//! (ARCHITECTURE.md, "Verification layers").  The model checker "enumerates
//! all possible permutations of the input physical events up to a maximum
//! number of events per user's configuration to exhaustively verify the
//! system" (Algorithm 1) — here that bound is [`SearchConfig::max_depth`],
//! the maximum number of external events along any path.  Visited states are stored exactly, hash-compacted or in a
//! BITSTATE bit array ([`crate::store`]).
//!
//! # Level order
//!
//! The search is breadth-first, one level (event count) at a time, over a
//! plain visited set keyed by the model's encoding.  A state is admitted at
//! the shallowest depth it is reachable at and expanded exactly once: any
//! deeper path to it has less budget left, so its successors were already
//! explored from the shallow copy.  This relies on the encoding being the
//! whole state identity — a model whose behaviour depends on how many events
//! happened (a clock the apps can read) must encode that count itself, as
//! `iotsan-core`'s models do.  Counterexamples are therefore shortest: the
//! first violation of a property is found at its minimum depth.
//!
//! # Allocation discipline
//!
//! The exploration loop performs no per-transition heap allocation in steady
//! state:
//!
//! * enabled actions are written into one reused buffer per expansion;
//! * counterexample bookkeeping is a parent-pointer `TraceArena` — one
//!   `(parent, action)` node per *admitted* state instead of an O(depth)
//!   trace clone per transition (which made path cost quadratic);
//! * effect logs are deferred: the search runs with a disabled
//!   [`StepLog`], so the model never formats or even constructs log events on
//!   the hot path;
//! * full [`Trace`]s (action strings plus rendered log lines) exist only for
//!   the ≤1-per-property violations that are actually reported — they are
//!   *materialized* by replaying the arena's action path from the initial
//!   state with logging enabled.

use crate::store::StoreKind;
use crate::trace::Trace;
use crate::transition::{StepLog, TransitionSystem, Violation};
use iotsan_telemetry::flight::{self, EventCode, Level};
use iotsan_telemetry::METRICS;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation handle for an in-flight search.
///
/// A long-running verification job (e.g. one queued in `iotsan-daemon`) can
/// hand the engines a token via [`SearchConfig::cancel`]; calling
/// [`CancelToken::cancel`] from any thread stops the search at its next
/// per-expansion cap check, and the report comes back with
/// [`SearchStats::truncated`] set (no count-cap flag — like a wall-clock
/// budget firing).  Cloning the token clones the *handle*: all clones observe
/// the same flag.
///
/// ```
/// use iotsan_checker::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every search configured with (a clone of) this
    /// token stops at its next cap check.  Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Tokens compare by *identity* (shared flag), not by current state: a config
/// carrying a fresh token is not interchangeable with one carrying another.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Configuration of one verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Maximum number of external events along a path (the paper's
    /// "maximum number of events", Tables 7b and 8 sweep this).
    pub max_depth: usize,
    /// Hard cap on stored states (safety net against state explosion).
    pub max_states: usize,
    /// Hard cap on applied transitions.
    pub max_transitions: usize,
    /// Visited-state storage strategy.
    pub store: StoreKind,
    /// Stop at the first violation instead of collecting one counterexample
    /// per violated property.
    pub stop_at_first: bool,
    /// Wall-clock budget; the search stops (reporting partial results) when
    /// exceeded.
    pub time_limit: Option<Duration>,
    /// Number of search workers.  `0` or `1` selects the sequential engine;
    /// larger values select [`crate::parallel::ParallelChecker`]'s
    /// level-synchronous engine over a sharded visited-state store.
    pub workers: usize,
    /// Number of shards of the concurrent visited-state store (rounded up to
    /// a power of two).  `0` picks a default proportional to `workers`.
    /// Ignored by the sequential engine.
    pub shards: usize,
    /// Property-directed slicing: when set, verification entry points that
    /// know the registered properties (`iotsan::Pipeline`) drop handlers the
    /// static analysis proves irrelevant to them before exploring.  Off by
    /// default; verdicts are preserved exactly (see `iotsan-analysis`).
    pub slice: bool,
    /// Cooperative cancellation: when set, both engines poll the token at
    /// their per-expansion cap check and stop (reporting
    /// [`SearchStats::truncated`]) once it is cancelled.  `None` (the
    /// default) disables the poll entirely.
    pub cancel: Option<CancelToken>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_depth: 3,
            max_states: 2_000_000,
            max_transitions: 20_000_000,
            store: StoreKind::Exact,
            stop_at_first: false,
            time_limit: None,
            workers: 1,
            shards: 0,
            slice: false,
            cancel: None,
        }
    }
}

impl SearchConfig {
    /// A configuration exploring up to `max_depth` external events.
    pub fn with_depth(max_depth: usize) -> Self {
        SearchConfig { max_depth, ..Default::default() }
    }

    /// Switches to BITSTATE storage with default sizing.
    pub fn bitstate(mut self) -> Self {
        self.store = StoreKind::Bitstate { log2_bits: 24, hash_functions: 3 };
        self
    }

    /// Requests a parallel search with the given number of workers.
    pub fn parallel(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables property-directed slicing (builder style).
    pub fn sliced(mut self) -> Self {
        self.slice = true;
        self
    }

    /// Attaches a cancellation token (builder style); see
    /// [`SearchConfig::cancel`].
    pub fn cancellable(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The effective worker count (at least one).
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }
}

/// Statistics reported after a search.
///
/// Time accounting is monotonic (a single [`Instant`] anchor is sampled once
/// when the search finishes, including when a cap fires mid-expansion) and
/// all counters saturate instead of wrapping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Number of distinct states stored.
    pub states_stored: usize,
    /// Number of transitions applied.
    pub transitions: usize,
    /// Deepest path (in external events) reached.
    pub max_depth_reached: usize,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Exploration throughput: distinct states stored per second of
    /// wall-clock search time (the headline number the zero-allocation core
    /// is measured by; `repro parallel --json` and the CI regression guard
    /// consume it).
    pub states_per_sec: f64,
    /// Approximate memory used by the state store.
    pub store_memory_bytes: usize,
    /// High-water mark, in bytes, of counterexample bookkeeping: the
    /// parent-pointer trace arena(s) plus every materialized counterexample.
    /// The arena grows by one pointer-sized node per admitted state; full
    /// traces with strings exist only for reported violations.
    pub peak_trace_bytes: usize,
    /// True when the search stopped because of a resource cap rather than
    /// exhausting the bounded state space.
    pub truncated: bool,
    /// True when [`SearchConfig::max_states`] fired (the state space was not
    /// exhausted; results are a lower bound).
    pub states_capped: bool,
    /// True when [`SearchConfig::max_transitions`] fired.
    pub transitions_capped: bool,
    /// Number of workers that actually explored the state space (1 for the
    /// sequential engine).
    pub workers: usize,
}

/// The resource cap that ended a search early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CapHit {
    States,
    Transitions,
    Time,
    Cancelled,
}

impl SearchStats {
    /// Records that `cap` ended the search early.
    fn record_cap(&mut self, cap: CapHit) {
        self.truncated = true;
        match cap {
            CapHit::States => self.states_capped = true,
            CapHit::Transitions => self.transitions_capped = true,
            // Like a wall-clock budget, a cancellation truncates the search
            // without implicating either count cap.
            CapHit::Time | CapHit::Cancelled => {}
        }
    }
}

/// One reported violation with its counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundViolation {
    /// The violated property.
    pub violation: Violation,
    /// A counterexample trace from the initial state.
    pub trace: Trace,
    /// Number of external events in the counterexample.
    pub depth: usize,
}

/// The result of a verification run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchReport {
    /// One entry per violated property (first counterexample found).
    pub violations: Vec<FoundViolation>,
    /// Search statistics.
    pub stats: SearchStats,
}

impl SearchReport {
    /// True when at least one property was violated.
    pub fn has_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// The set of violated property identifiers.
    pub fn violated_properties(&self) -> BTreeSet<u32> {
        self.violations.iter().map(|v| v.violation.property).collect()
    }

    /// The violation for a specific property, if found.
    pub fn violation_for(&self, property: u32) -> Option<&FoundViolation> {
        self.violations.iter().find(|v| v.violation.property == property)
    }
}

/// Sentinel parent id of root frames (the initial state, empty path).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Parent-pointer counterexample bookkeeping.
///
/// The search engines record one `(parent, action)` node per **admitted**
/// state — never a full trace per transition.  A counterexample's action
/// sequence is reconstructed by walking parents from the violating frame to
/// the root, which only happens for the ≤1-per-property violations that are
/// reported.
///
/// The parallel engine keeps one arena for the whole search and appends a
/// level's admitted states to it only between levels, so workers read it
/// freely while they expand the next level.
#[derive(Debug)]
pub(crate) struct TraceArena<A> {
    nodes: Vec<(u32, A)>,
}

impl<A: Clone> TraceArena<A> {
    pub(crate) fn new() -> Self {
        TraceArena { nodes: Vec::new() }
    }

    /// Records an admitted state's provenance; returns its node id.
    #[inline]
    pub(crate) fn push(&mut self, parent: u32, action: &A) -> u32 {
        let id = self.nodes.len() as u32;
        assert!(id < NO_PARENT, "trace arena overflow (>2^32 admitted states)");
        self.nodes.push((parent, action.clone()));
        id
    }

    /// Reconstructs the root-to-`node` action path into `out` (cleared
    /// first).
    pub(crate) fn path(&self, mut node: u32, out: &mut Vec<A>) {
        out.clear();
        while node != NO_PARENT {
            let (parent, action) = &self.nodes[node as usize];
            out.push(action.clone());
            node = *parent;
        }
        out.reverse();
    }

    /// Approximate heap footprint of the arena in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<(u32, A)>()
    }
}

/// Materializes the counterexample for an action sequence by replaying it
/// from the initial state with logging enabled — the only place the checker
/// renders action strings and log lines.  `apply` is deterministic, so the
/// replay reproduces exactly the transitions the search took.
pub(crate) fn materialize_trace<T: TransitionSystem>(model: &T, actions: &[T::Action]) -> Trace {
    let mut trace = Trace::new();
    let mut state = model.initial_state();
    let mut scratch = T::Scratch::default();
    let mut log = StepLog::enabled();
    for action in actions {
        log.clear();
        let outcome = model.apply(&state, action, &mut scratch, &mut log);
        let lines = log.events().iter().map(|e| model.render_event(e)).collect();
        trace.push(model.display_action(action), lines);
        state = outcome.state;
    }
    trace
}

/// The explicit-state model checker.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    config: SearchConfig,
}

impl Checker {
    /// Creates a checker with the given configuration.
    pub fn new(config: SearchConfig) -> Self {
        Checker { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs the search over `model` and reports violations and statistics.
    ///
    /// This is the sequential engine; [`SearchConfig::workers`] is ignored
    /// here (use [`crate::parallel::ParallelChecker`] for multi-core search —
    /// for an *exhaustive* run, i.e. no [`SearchConfig::stop_at_first`] and
    /// no cap or time budget firing, the two report the same violated
    /// properties, counterexample depths, state and transition counts for
    /// the same bounded model; an early-stopped search is order-dependent in
    /// either engine).
    pub fn verify<T: TransitionSystem>(&self, model: &T) -> SearchReport {
        let start = Instant::now();
        let mut store = self.config.store.build();
        let mut report = SearchReport::default();
        let mut seen_properties: BTreeSet<u32> = BTreeSet::new();
        // Per-search telemetry tallies, flushed once at the end — the hot
        // loop never touches the global registry.
        let mut dedup_hits: usize = 0;
        let mut frontier_peak: usize = 1;
        flight::record(
            Level::Debug,
            EventCode::SearchStart,
            &format!("sequential depth={} store={:?}", self.config.max_depth, self.config.store),
        );

        // Reused hot-loop buffers: encoded state bytes, enabled actions,
        // model scratch, the (disabled) effect log and the path scratch for
        // the rare materializations.
        let mut encode_buf = Vec::new();
        let mut actions_buf: Vec<T::Action> = Vec::new();
        let mut scratch = T::Scratch::default();
        let mut log = StepLog::disabled();
        let mut path_buf: Vec<T::Action> = Vec::new();
        let mut arena: TraceArena<T::Action> = TraceArena::new();

        let initial = model.initial_state();
        model.encode(&initial, &mut encode_buf);
        store.insert(&encode_buf);

        // The current level and the next one: (state, arena node) pairs.
        let mut level: Vec<(T::State, u32)> = vec![(initial, NO_PARENT)];
        let mut next: Vec<(T::State, u32)> = Vec::new();

        'search: for depth in 0..self.config.max_depth {
            let next_depth = depth + 1;
            // States at the bound are stored but never expanded, so the last
            // level is not kept: it is usually the widest.
            let keep = next_depth < self.config.max_depth;
            for (state, node) in level.drain(..) {
                if let Some(cap) = self.cap_hit(&report.stats, start, store.len()) {
                    report.stats.record_cap(cap);
                    break 'search;
                }
                model.actions(&state, &mut actions_buf);
                for action in &actions_buf {
                    if let Some(cap) = self.cap_hit(&report.stats, start, store.len()) {
                        report.stats.record_cap(cap);
                        break 'search;
                    }
                    let outcome = model.apply(&state, action, &mut scratch, &mut log);
                    report.stats.transitions = report.stats.transitions.saturating_add(1);
                    report.stats.max_depth_reached = next_depth;

                    if !outcome.violations.is_empty() {
                        record_violations(
                            model,
                            &outcome.violations,
                            &arena,
                            node,
                            action,
                            next_depth,
                            &mut seen_properties,
                            &mut report,
                            &mut path_buf,
                        );
                        if self.config.stop_at_first {
                            break 'search;
                        }
                    }

                    encode_buf.clear();
                    model.encode(&outcome.state, &mut encode_buf);
                    if !store.insert(&encode_buf) {
                        dedup_hits += 1;
                    } else if keep {
                        next.push((outcome.state, arena.push(node, action)));
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier_peak = frontier_peak.max(next.len());
            std::mem::swap(&mut level, &mut next);
        }

        self.finish(&mut report, store.as_ref(), start, arena.memory_bytes());
        flush_search_telemetry(
            &report.stats,
            dedup_hits,
            frontier_peak,
            self.config.cancel.as_ref().is_some_and(|t| t.is_cancelled()),
        );
        report
    }

    fn cap_hit(&self, stats: &SearchStats, start: Instant, stored: usize) -> Option<CapHit> {
        if stats.transitions >= self.config.max_transitions {
            return Some(CapHit::Transitions);
        }
        if stored >= self.config.max_states {
            return Some(CapHit::States);
        }
        if let Some(limit) = self.config.time_limit {
            if start.elapsed() > limit {
                return Some(CapHit::Time);
            }
        }
        if let Some(token) = &self.config.cancel {
            if token.is_cancelled() {
                return Some(CapHit::Cancelled);
            }
        }
        None
    }

    /// Samples the monotonic clock exactly once and fills in the store-derived
    /// statistics — every exit path (exhaustion, caps firing mid-expansion,
    /// stop-at-first) reports time the same way.
    fn finish(
        &self,
        report: &mut SearchReport,
        store: &dyn crate::store::StateStore,
        start: Instant,
        arena_bytes: usize,
    ) {
        report.stats.states_stored = store.len();
        report.stats.store_memory_bytes = store.memory_bytes();
        report.stats.elapsed = start.elapsed();
        // Derived from the single elapsed sample above, so the reported
        // throughput always equals states_stored / elapsed exactly.
        report.stats.states_per_sec =
            states_per_sec(report.stats.states_stored, report.stats.elapsed);
        report.stats.peak_trace_bytes =
            arena_bytes + report.violations.iter().map(|v| v.trace.memory_bytes()).sum::<usize>();
        report.stats.workers = 1;
    }
}

/// Records the not-yet-seen violations of one step, materializing the shared
/// counterexample (arena path + triggering action, replayed from the initial
/// state) exactly once.
#[allow(clippy::too_many_arguments)]
fn record_violations<T: TransitionSystem>(
    model: &T,
    violations: &[Violation],
    arena: &TraceArena<T::Action>,
    parent: u32,
    action: &T::Action,
    depth: usize,
    seen: &mut BTreeSet<u32>,
    report: &mut SearchReport,
    path_buf: &mut Vec<T::Action>,
) {
    let fresh: Vec<&Violation> = violations.iter().filter(|v| seen.insert(v.property)).collect();
    let Some((last, rest)) = fresh.split_last() else { return };
    arena.path(parent, path_buf);
    path_buf.push(action.clone());
    let trace = materialize_trace(model, path_buf);
    // Co-violations of one step share the trace; only the first n−1 clone it.
    for violation in rest {
        report.violations.push(FoundViolation {
            violation: (*violation).clone(),
            trace: trace.clone(),
            depth,
        });
    }
    report.violations.push(FoundViolation { violation: (*last).clone(), trace, depth });
}

/// Distinct-states-per-second throughput, guarded against zero elapsed time.
///
/// The guard keeps the result finite for every input a search can produce
/// (a zero-duration run divides by `1e-9`, not `0`), so no `inf`/NaN ever
/// reaches [`SearchStats::states_per_sec`], the daemon codec or a rendered
/// BENCH row — see `states_per_sec_is_always_finite`.
pub(crate) fn states_per_sec(states: usize, elapsed: Duration) -> f64 {
    states as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Flushes one finished search's tallies into the global telemetry
/// registry and flight ring — the engines' single per-search telemetry
/// touch point (sequential `run` and the parallel merge both end here).
pub(crate) fn flush_search_telemetry(
    stats: &SearchStats,
    dedup_hits: usize,
    frontier_peak: usize,
    cancelled: bool,
) {
    METRICS.checker_searches.inc();
    METRICS.checker_states.add(stats.states_stored as u64);
    METRICS.checker_transitions.add(stats.transitions as u64);
    METRICS.checker_dedup_hits.add(dedup_hits as u64);
    METRICS.checker_last_states_per_sec.set(stats.states_per_sec);
    METRICS.checker_frontier_peak.set(frontier_peak as i64);
    METRICS.checker_arena_peak_bytes.set(stats.peak_trace_bytes as i64);
    if stats.truncated {
        METRICS.checker_truncated.inc();
        let code = if cancelled { EventCode::SearchCancel } else { EventCode::SearchCap };
        flight::record(
            Level::Info,
            code,
            &format!(
                "states={} transitions={} states_capped={} transitions_capped={}",
                stats.states_stored,
                stats.transitions,
                stats.states_capped,
                stats.transitions_capped
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::testing::CounterModel;

    fn model() -> CounterModel {
        CounterModel { bad_value: 6, max_value: 32 }
    }

    #[test]
    fn finds_the_violation() {
        let checker = Checker::new(SearchConfig::with_depth(5));
        let report = checker.verify(&model());
        assert!(report.has_violations());
        assert_eq!(report.violated_properties().len(), 1);
        let found = report.violation_for(1).unwrap();
        // The counter starts at 1; reaching 6 needs at least 3 steps
        // (1→2→3→6 or 1→2→4→5→6 ...), so the trace is non-trivial.
        assert!(found.depth >= 3);
        assert!(!found.trace.is_empty());
    }

    #[test]
    fn materialized_trace_replays_actions_and_logs() {
        let checker = Checker::new(SearchConfig::with_depth(5));
        let report = checker.verify(&model());
        let found = report.violation_for(1).unwrap();
        // The trace has one step per external event and each step carries the
        // replayed log (the counter model logs its value every step), with
        // the final log line naming the bad value.
        assert_eq!(found.trace.len(), found.depth);
        assert!(found.trace.steps.iter().all(|s| !s.log.is_empty()));
        assert_eq!(found.trace.steps.last().unwrap().log[0].text, "counter = 6");
        // Action strings come from display_action.
        assert!(found.trace.events().iter().all(|e| *e == "inc" || *e == "dbl"));
    }

    #[test]
    fn bfs_finds_shortest_counterexample() {
        let report = Checker::new(SearchConfig::with_depth(6)).verify(&model());
        let found = report.violation_for(1).unwrap();
        // Shortest path to 6: 1→2→3→6 (double, increment, double) = 3 steps.
        assert_eq!(found.depth, 3);
    }

    #[test]
    fn each_state_is_stored_once_at_its_shallowest_depth() {
        // Levels from 1: {1}, {2}, {3, 4}, {5, 6, 8}.  The 4 reached again
        // at depth 3 (3 + 1) is the depth-2 state already stored, so it is
        // neither stored nor expanded a second time.
        let report = Checker::new(SearchConfig::with_depth(3)).verify(&model());
        assert_eq!(report.stats.states_stored, 7);
        // Every stored state above the bound is expanded once: 1, 2, 3 and 4
        // have two actions each.
        assert_eq!(report.stats.transitions, 8);
        assert_eq!(report.violation_for(1).unwrap().depth, 3);
    }

    #[test]
    fn depth_bound_limits_reachability() {
        // With a depth bound of 2 the counter can reach at most 4, so the bad
        // value 6 is unreachable.
        let checker = Checker::new(SearchConfig::with_depth(2));
        let report = checker.verify(&model());
        assert!(!report.has_violations());
        assert!(report.stats.max_depth_reached <= 2);
        assert!(report.stats.states_stored > 0);
    }

    #[test]
    fn stop_at_first_terminates_early() {
        let mut config = SearchConfig::with_depth(8);
        config.stop_at_first = true;
        let report = Checker::new(config).verify(&model());
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn bitstate_explores_comparable_state_count() {
        let exact = Checker::new(SearchConfig::with_depth(6)).verify(&model());
        let bitstate = Checker::new(SearchConfig::with_depth(6).bitstate()).verify(&model());
        // Bitstate hashing may lose a few states to false positives but must
        // never explore more than exact storage.
        assert!(bitstate.stats.states_stored <= exact.stats.states_stored);
        assert!(bitstate.stats.states_stored as f64 >= exact.stats.states_stored as f64 * 0.9);
        // And it still finds the violation.
        assert!(bitstate.has_violations());
    }

    #[test]
    fn transition_cap_truncates_search() {
        let mut config = SearchConfig::with_depth(10);
        config.max_transitions = 5;
        let report = Checker::new(config).verify(&model());
        assert!(report.stats.truncated);
        assert!(report.stats.transitions_capped);
        assert!(!report.stats.states_capped);
        assert!(report.stats.transitions <= 6);
    }

    #[test]
    fn state_cap_truncates_search_and_is_flagged() {
        let mut config = SearchConfig::with_depth(10);
        config.max_states = 3;
        let report = Checker::new(config).verify(&model());
        assert!(report.stats.truncated);
        assert!(report.stats.states_capped);
        // The cap is checked between expansions, so the store may exceed it by
        // at most one expansion's successors (branching factor 2 here).
        assert!(report.stats.states_stored >= 3);
        assert!(report.stats.states_stored <= 5);
    }

    #[test]
    fn uncapped_search_reports_no_cap_flags() {
        let report = Checker::new(SearchConfig::with_depth(4)).verify(&model());
        assert!(!report.stats.truncated);
        assert!(!report.stats.states_capped);
        assert!(!report.stats.transitions_capped);
        assert_eq!(report.stats.workers, 1);
    }

    #[test]
    fn time_cap_reports_monotonic_elapsed() {
        let mut config = SearchConfig::with_depth(12);
        config.time_limit = Some(Duration::ZERO);
        let report = Checker::new(config).verify(&model());
        assert!(report.stats.truncated);
        // Neither count cap fired; the elapsed time is recorded and usable.
        assert!(!report.stats.states_capped);
        assert!(!report.stats.transitions_capped);
        assert!(report.stats.elapsed > Duration::ZERO);
    }

    #[test]
    fn cancelled_token_truncates_search() {
        let token = CancelToken::new();
        token.cancel();
        let config = SearchConfig::with_depth(12).cancellable(token);
        let report = Checker::new(config).verify(&model());
        // The token was cancelled before the search started: it stops at the
        // very first cap check, reporting truncation but no count cap.
        assert!(report.stats.truncated);
        assert!(!report.stats.states_capped);
        assert!(!report.stats.transitions_capped);
        assert_eq!(report.stats.transitions, 0);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let plain = Checker::new(SearchConfig::with_depth(5)).verify(&model());
        let token = CancelToken::new();
        let tokened =
            Checker::new(SearchConfig::with_depth(5).cancellable(token.clone())).verify(&model());
        assert!(!tokened.stats.truncated);
        assert_eq!(plain.violated_properties(), tokened.violated_properties());
        assert_eq!(plain.stats.states_stored, tokened.stats.states_stored);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn cancel_tokens_compare_by_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, CancelToken::new());
    }

    #[test]
    fn states_per_sec_is_always_finite() {
        // The raw guard: no input a search can produce divides by zero.
        assert!(states_per_sec(0, Duration::ZERO).is_finite());
        assert!(states_per_sec(usize::MAX, Duration::ZERO).is_finite());
        assert!(states_per_sec(1_000_000, Duration::from_nanos(1)).is_finite());
        assert!(states_per_sec(0, Duration::MAX).is_finite());
        assert_eq!(states_per_sec(5, Duration::from_secs(2)), 2.5);
        assert!(!states_per_sec(1, Duration::ZERO).is_nan());
    }

    #[test]
    fn zero_elapsed_search_reports_finite_throughput() {
        // A search that stops at its very first cap check measures ~zero
        // elapsed time; the reported rate must still be finite (it flows
        // into the daemon codec and rendered BENCH rows unchecked).
        let mut config = SearchConfig::with_depth(12);
        config.time_limit = Some(Duration::ZERO);
        let report = Checker::new(config).verify(&model());
        assert!(report.stats.states_per_sec.is_finite());
        assert!(!report.stats.states_per_sec.is_nan());
    }

    #[test]
    fn stats_are_populated() {
        let report = Checker::new(SearchConfig::with_depth(4)).verify(&model());
        assert!(report.stats.transitions > 0);
        assert!(report.stats.states_stored > 0);
        assert!(report.stats.store_memory_bytes > 0);
        assert!(report.stats.max_depth_reached <= 4);
        assert!(report.stats.states_per_sec > 0.0);
        // The arena recorded nodes, and the reported violation carries a
        // materialized trace — both show up in the bookkeeping high-water
        // mark.
        assert!(report.stats.peak_trace_bytes > 0);
    }

    #[test]
    fn arena_paths_round_trip() {
        let mut arena: TraceArena<u8> = TraceArena::new();
        let a = arena.push(NO_PARENT, &1);
        let b = arena.push(a, &2);
        let c = arena.push(b, &3);
        let mut path = Vec::new();
        arena.path(c, &mut path);
        assert_eq!(path, vec![1, 2, 3]);
        arena.path(NO_PARENT, &mut path);
        assert!(path.is_empty());
        assert!(arena.memory_bytes() > 0);
    }
}
