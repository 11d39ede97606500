//! Multi-core explicit-state search.
//!
//! [`ParallelChecker`] is the parallel counterpart of [`Checker`]: a pool of
//! `std::thread` workers explores the same bounded state space, level by
//! level, over a [`ShardedStore`] of visited states (in the spirit of Spin's
//! multi-core and swarm verification).  No external runtime is involved —
//! the engine is plain `std` threads and atomics.
//!
//! # Level-synchronous search
//!
//! Like the sequential engine the search is breadth-first: level `d` holds
//! the states first reached after `d` external events.  Workers claim chunks
//! of the current level through an atomic cursor, expand them, and insert
//! the successors into the shared store; the store admits each state once,
//! to whichever worker gets there first.  When the level is exhausted the
//! workers join (the barrier), their admitted states are appended to the
//! trace arena and become the next level (states at the depth bound are
//! stored but never kept: nothing expands them).  Because the arena only
//! grows between levels, workers read it without locks while expanding.
//!
//! # Determinism
//!
//! With exact (or hash-compact) storage the set of states in every level is
//! schedule-independent, so for an *exhaustive* search (no `stop_at_first`,
//! no cap or time budget firing) the set of expanded states — and therefore
//! the set of violated properties, the number of stored states, the number
//! of applied transitions and the depth reached — is identical to the
//! sequential checker's for the same bounded model.  Worker results are
//! merged by keeping, per property, the lexicographically least `(depth,
//! rendered action sequence)` candidate; every counterexample is shortest,
//! so its depth also equals the sequential engine's.  The trace itself is
//! best-effort: when two paths race to admit the same state, the winner's
//! path seeds that state's whole subtree, so the specific event sequence
//! reported for a property may differ between runs (its length never does).
//! An early-stopped search is order-dependent in either engine: under
//! `stop_at_first` the merge reports the co-violated properties of one
//! best-ranked triggering step.  (Bitstate storage stays approximate:
//! admission of colliding states depends on insertion order, exactly as
//! Spin's multi-core BITSTATE mode trades determinism for memory.)

use crate::search::{
    flush_search_telemetry, materialize_trace, states_per_sec, Checker, FoundViolation,
    SearchConfig, SearchReport, SearchStats, TraceArena, NO_PARENT,
};
use crate::store::ShardedStore;
use crate::transition::{StepLog, TransitionSystem, Violation};
use iotsan_telemetry::flight::{self, EventCode, Level};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// How many level entries a worker claims at once.
const CHUNK: usize = 16;

/// A violation candidate: enough to rank deterministically and to
/// materialize the winner's trace later.
struct Candidate<A> {
    violation: Violation,
    depth: usize,
    /// Root-to-violation action sequence (the triggering action included).
    actions: Vec<A>,
    /// Rendered action strings (the merge's tie-break key; computed once per
    /// candidate, not per comparison).
    events: Vec<String>,
}

impl<A> Candidate<A> {
    fn rank(&self) -> (usize, &[String]) {
        (self.depth, &self.events)
    }
}

/// Everything the workers share.
struct Shared<'m, T: TransitionSystem> {
    model: &'m T,
    config: &'m SearchConfig,
    store: ShardedStore,
    /// Index of the next unclaimed entry of the current level.
    cursor: AtomicUsize,
    transitions: AtomicUsize,
    stored: AtomicUsize,
    /// Hard-stop flag (budget exhausted or stop-at-first fired).
    stop: AtomicBool,
    transitions_capped: AtomicBool,
    states_capped: AtomicBool,
    deadline: Option<Instant>,
}

impl<T: TransitionSystem> Shared<'_, T> {
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Checks the wall-clock budget and the cancellation token; called once
    /// per expansion, like the sequential engine's per-expansion cap check.
    fn check_deadline(&self) {
        if self.deadline.is_some_and(|deadline| Instant::now() > deadline)
            || self.config.cancel.as_ref().is_some_and(|token| token.is_cancelled())
        {
            self.request_stop();
        }
    }
}

/// What one worker produced while expanding its share of a level.
struct LevelOutput<S, A> {
    /// Newly admitted states with their parent node and the action that
    /// reached them.
    admitted: Vec<(S, u32, A)>,
    /// Best violation candidate per property found at this level.
    best: BTreeMap<u32, Candidate<A>>,
    /// Store insertions rejected as already-visited (telemetry tally).
    dedup_hits: usize,
}

/// The multi-core explicit-state model checker.
///
/// Constructed from the same [`SearchConfig`] as [`Checker`];
/// [`SearchConfig::workers`] sets the pool size (a value of `0` or `1` simply
/// delegates to the sequential engine) and [`SearchConfig::shards`] sizes the
/// [`ShardedStore`] (0 = proportional to the worker count).
#[derive(Debug, Clone, Default)]
pub struct ParallelChecker {
    config: SearchConfig,
}

impl ParallelChecker {
    /// Creates a parallel checker with the given configuration.
    pub fn new(config: SearchConfig) -> Self {
        ParallelChecker { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The number of store shards the engine will use.
    fn shard_count(&self) -> usize {
        if self.config.shards > 0 {
            self.config.shards
        } else {
            // Enough shards that workers rarely collide on a lock, with a
            // floor so small pools still spread hot states.
            (self.config.effective_workers() * 8).max(16)
        }
    }

    /// Runs the search over `model` and reports violations and statistics.
    ///
    /// The model must be shareable across worker threads (`Sync`, with
    /// shareable states and actions); every model in `iotsan-core` satisfies
    /// this.
    pub fn verify<T>(&self, model: &T) -> SearchReport
    where
        T: TransitionSystem + Sync,
        T::State: Send + Sync,
        T::Action: Send + Sync,
    {
        let workers = self.config.effective_workers();
        if workers == 1 {
            return Checker::new(self.config.clone()).verify(model);
        }

        let start = Instant::now();
        flight::record(
            Level::Debug,
            EventCode::SearchStart,
            &format!("parallel depth={} workers={}", self.config.max_depth, workers),
        );
        let store = ShardedStore::new(self.config.store, self.shard_count());
        let initial = model.initial_state();
        let mut encode_buf = Vec::new();
        model.encode(&initial, &mut encode_buf);
        store.insert(&encode_buf);

        let shared = Shared {
            model,
            config: &self.config,
            store,
            cursor: AtomicUsize::new(0),
            transitions: AtomicUsize::new(0),
            stored: AtomicUsize::new(1),
            stop: AtomicBool::new(false),
            transitions_capped: AtomicBool::new(false),
            states_capped: AtomicBool::new(false),
            // checked_add: a caller spelling "unlimited" as Duration::MAX
            // must behave like no deadline, as it does sequentially.
            deadline: self.config.time_limit.and_then(|limit| start.checked_add(limit)),
        };

        let mut arena: TraceArena<T::Action> = TraceArena::new();
        let mut best: BTreeMap<u32, Candidate<T::Action>> = BTreeMap::new();
        let mut level: Vec<(T::State, u32)> = vec![(initial, NO_PARENT)];
        let (mut dedup_hits, mut frontier_peak, mut max_depth_reached) = (0, 1, 0);
        for depth in 0..self.config.max_depth {
            shared.cursor.store(0, Ordering::Relaxed);
            let before = shared.transitions.load(Ordering::Relaxed);
            let outputs: Vec<LevelOutput<T::State, T::Action>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| scope.spawn(|| expand_level(&shared, &level, &arena, &best, depth)))
                    .collect();
                // Joining every worker is the level barrier; a worker panic
                // (in `actions`/`apply`/`encode`) propagates to the caller.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                    .collect()
            });
            if shared.transitions.load(Ordering::Relaxed) > before {
                max_depth_reached = depth + 1;
            }
            level.clear();
            for output in outputs {
                dedup_hits += output.dedup_hits;
                for candidate in output.best.into_values() {
                    record_candidate(&mut best, candidate);
                }
                for (state, parent, action) in output.admitted {
                    level.push((state, arena.push(parent, &action)));
                }
            }
            if level.is_empty() || shared.stopped() {
                break;
            }
            frontier_peak = frontier_peak.max(level.len());
        }

        let violations = merge_violations(model, best, self.config.stop_at_first);
        let stopped_early = shared.stopped();
        let states_capped = shared.states_capped.load(Ordering::Relaxed);
        let transitions_capped = shared.transitions_capped.load(Ordering::Relaxed);
        // Stop-at-first ending on a found violation is a normal exit, not a
        // truncation — unless a resource cap also fired (a cap racing with
        // the violation still means the space was not exhausted), keeping the
        // invariant that any `*_capped` flag implies `truncated`.
        let stop_at_first_exit = self.config.stop_at_first && !violations.is_empty();
        let states_stored = shared.store.len();
        let elapsed = start.elapsed();
        let stats = SearchStats {
            states_stored,
            transitions: shared.transitions.load(Ordering::Relaxed),
            max_depth_reached,
            elapsed,
            states_per_sec: states_per_sec(states_stored, elapsed),
            store_memory_bytes: shared.store.memory_bytes(),
            peak_trace_bytes: arena.memory_bytes()
                + violations.iter().map(|v| v.trace.memory_bytes()).sum::<usize>(),
            truncated: (stopped_early && !stop_at_first_exit)
                || states_capped
                || transitions_capped,
            states_capped,
            transitions_capped,
            workers,
        };
        flush_search_telemetry(
            &stats,
            dedup_hits,
            frontier_peak,
            self.config.cancel.as_ref().is_some_and(|t| t.is_cancelled()),
        );
        SearchReport { violations, stats }
    }
}

/// Reduces the merged candidates to one counterexample per property, ordered
/// by property id.  Only the winners are materialized into full traces (by
/// replaying their action sequences).  Under `stop_at_first` only the
/// best-ranked triggering transition's violations survive — like the
/// sequential engine, which records *every* property the first violating
/// step breaks before stopping (a single step can violate several properties
/// at once).
fn merge_violations<T: TransitionSystem>(
    model: &T,
    best: BTreeMap<u32, Candidate<T::Action>>,
    stop_at_first: bool,
) -> Vec<FoundViolation> {
    let mut merged: Vec<Candidate<T::Action>> = best.into_values().collect();
    if stop_at_first && merged.len() > 1 {
        // Keep the co-violated properties of a single triggering step:
        // violations from the same step share the full action path, so path
        // identity — not just rank — keys the retain.
        let best_index = (0..merged.len())
            .min_by_key(|&i| (merged[i].depth, merged[i].events.clone()))
            .expect("merged is non-empty");
        let best_depth = merged[best_index].depth;
        let best_events = merged[best_index].events.clone();
        merged.retain(|c| c.depth == best_depth && c.events == best_events);
    }
    merged
        .into_iter()
        .map(|c| FoundViolation {
            trace: materialize_trace(model, &c.actions),
            violation: c.violation,
            depth: c.depth,
        })
        .collect()
}

/// Records a violation candidate, keeping the least-ranked one per property.
fn record_candidate<A>(best: &mut BTreeMap<u32, Candidate<A>>, candidate: Candidate<A>) {
    match best.get_mut(&candidate.violation.property) {
        Some(current) => {
            if candidate.rank() < current.rank() {
                *current = candidate;
            }
        }
        None => {
            best.insert(candidate.violation.property, candidate);
        }
    }
}

/// One worker's share of a level: claim chunks of `level` until none are
/// left, apply every enabled action, record violations and admit unseen
/// successors to the shared store.  `arena` and `found` (the candidates of
/// earlier levels) are read-only until the level's barrier.
fn expand_level<T>(
    shared: &Shared<'_, T>,
    level: &[(T::State, u32)],
    arena: &TraceArena<T::Action>,
    found: &BTreeMap<u32, Candidate<T::Action>>,
    depth: usize,
) -> LevelOutput<T::State, T::Action>
where
    T: TransitionSystem,
{
    let model = shared.model;
    let next_depth = depth + 1;
    // States at the bound are stored but never expanded: keep none of them.
    let keep = next_depth < shared.config.max_depth;
    let mut output = LevelOutput { admitted: Vec::new(), best: BTreeMap::new(), dedup_hits: 0 };
    let mut actions = Vec::new();
    let mut encode = Vec::new();
    let mut path = Vec::new();
    let mut model_scratch = T::Scratch::default();
    let mut log = StepLog::disabled();
    loop {
        let begin = shared.cursor.fetch_add(CHUNK, Ordering::Relaxed);
        if begin >= level.len() {
            return output;
        }
        for (state, node) in &level[begin..(begin + CHUNK).min(level.len())] {
            shared.check_deadline();
            if shared.stopped() {
                return output;
            }
            model.actions(state, &mut actions);
            for action in &actions {
                if shared.stopped() {
                    return output;
                }
                let transitions = shared.transitions.fetch_add(1, Ordering::Relaxed) + 1;
                if transitions >= shared.config.max_transitions {
                    shared.transitions_capped.store(true, Ordering::Relaxed);
                    shared.request_stop();
                }
                let outcome = model.apply(state, action, &mut model_scratch, &mut log);
                if !outcome.violations.is_empty() {
                    record_step_violations(
                        model,
                        &outcome.violations,
                        arena,
                        *node,
                        action,
                        next_depth,
                        found,
                        &mut output.best,
                        &mut path,
                    );
                    if shared.config.stop_at_first {
                        shared.request_stop();
                        return output;
                    }
                }
                encode.clear();
                model.encode(&outcome.state, &mut encode);
                if shared.store.insert(&encode) {
                    let stored = shared.stored.fetch_add(1, Ordering::Relaxed) + 1;
                    if stored >= shared.config.max_states {
                        shared.states_capped.store(true, Ordering::Relaxed);
                        shared.request_stop();
                    }
                    if keep {
                        output.admitted.push((outcome.state, *node, action.clone()));
                    }
                } else {
                    output.dedup_hits += 1;
                }
            }
        }
    }
}

/// Records candidates for every violation of one step, skipping the path
/// walk and action rendering for properties already violated at an earlier
/// level: those counterexamples are strictly shallower, so this one cannot
/// win.
#[allow(clippy::too_many_arguments)]
fn record_step_violations<T: TransitionSystem>(
    model: &T,
    violations: &[Violation],
    arena: &TraceArena<T::Action>,
    parent: u32,
    action: &T::Action,
    depth: usize,
    found: &BTreeMap<u32, Candidate<T::Action>>,
    best: &mut BTreeMap<u32, Candidate<T::Action>>,
    path_buf: &mut Vec<T::Action>,
) {
    // One path walk / render pass per step, shared by its co-violations, and
    // only when at least one of them can improve on the current best.
    let mut rendered: Option<(Vec<T::Action>, Vec<String>)> = None;
    for violation in violations {
        if found.contains_key(&violation.property) {
            continue;
        }
        let (actions, events) = rendered.get_or_insert_with(|| {
            arena.path(parent, path_buf);
            path_buf.push(action.clone());
            let events = path_buf.iter().map(|a| model.display_action(a)).collect();
            (path_buf.clone(), events)
        });
        record_candidate(
            best,
            Candidate {
                violation: violation.clone(),
                depth,
                actions: actions.clone(),
                events: events.clone(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreKind;
    use crate::trace::LogLine;
    use crate::transition::testing::CounterModel;
    use crate::transition::StepOutcome;
    use std::time::Duration;

    fn model() -> CounterModel {
        CounterModel { bad_value: 6, max_value: 32 }
    }

    fn sequential(config: &SearchConfig) -> SearchReport {
        let mut sequential = config.clone();
        sequential.workers = 1;
        Checker::new(sequential).verify(&model())
    }

    #[test]
    fn parallel_matches_sequential_violations_and_state_counts() {
        for workers in [2usize, 3, 4, 8] {
            let config = SearchConfig::with_depth(6).parallel(workers);
            let par = ParallelChecker::new(config.clone()).verify(&model());
            let seq = sequential(&config);
            assert_eq!(par.violated_properties(), seq.violated_properties(), "{workers} workers");
            // With exact storage every level's state set is
            // schedule-independent, so the counters agree exactly.
            assert_eq!(par.stats.states_stored, seq.stats.states_stored, "{workers} workers");
            assert_eq!(par.stats.transitions, seq.stats.transitions, "{workers} workers");
            assert_eq!(par.stats.max_depth_reached, seq.stats.max_depth_reached);
            assert_eq!(par.stats.workers, workers);
            assert!(!par.stats.truncated);
        }
    }

    #[test]
    fn counterexample_depths_are_deterministic_across_runs() {
        // The violated-property set and each counterexample's depth are
        // schedule-independent; the specific trace is best-effort (see the
        // module docs) and deliberately not compared here.
        let config = SearchConfig::with_depth(6).parallel(4);
        let signature = |report: &SearchReport| {
            report.violations.iter().map(|v| (v.violation.property, v.depth)).collect::<Vec<_>>()
        };
        let first = ParallelChecker::new(config.clone()).verify(&model());
        for _ in 0..5 {
            let again = ParallelChecker::new(config.clone()).verify(&model());
            assert_eq!(signature(&first), signature(&again));
        }
    }

    #[test]
    fn parallel_counterexamples_are_materialized() {
        let config = SearchConfig::with_depth(6).parallel(4);
        let report = ParallelChecker::new(config).verify(&model());
        let found = report.violation_for(1).expect("violation found");
        assert_eq!(found.trace.len(), found.depth);
        assert_eq!(found.trace.steps.last().unwrap().log[0].text, "counter = 6");
        assert!(report.stats.peak_trace_bytes > 0);
        assert!(report.stats.states_per_sec > 0.0);
    }

    #[test]
    fn one_worker_delegates_to_the_sequential_engine() {
        let config = SearchConfig::with_depth(5);
        let par = ParallelChecker::new(config.clone()).verify(&model());
        let seq = Checker::new(config).verify(&model());
        assert_eq!(par.violated_properties(), seq.violated_properties());
        assert_eq!(par.stats.workers, 1);
    }

    #[test]
    fn cancelled_token_truncates_parallel_search() {
        use crate::search::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let config = SearchConfig::with_depth(12).parallel(4).cancellable(token);
        let report = ParallelChecker::new(config).verify(&model());
        // Cancelled before any worker expanded: the pool drains immediately
        // and the report is flagged truncated without any count cap.
        assert!(report.stats.truncated);
        assert!(!report.stats.states_capped);
        assert!(!report.stats.transitions_capped);
    }

    #[test]
    fn stop_at_first_reports_exactly_one_violation() {
        // CounterModel steps violate at most one property, so stop-at-first
        // yields a single counterexample, like the sequential engine.
        let mut config = SearchConfig::with_depth(8).parallel(4);
        config.stop_at_first = true;
        let report = ParallelChecker::new(config).verify(&model());
        assert_eq!(report.violations.len(), 1);
        assert!(!report.stats.truncated);
    }

    #[test]
    fn stop_at_first_keeps_all_properties_of_the_triggering_step() {
        use crate::transition::testing::CounterAction;

        /// Like `CounterModel`, but reaching the bad value violates two
        /// properties in the same step.
        struct DoubleViolationModel;
        impl TransitionSystem for DoubleViolationModel {
            type State = u32;
            type Action = CounterAction;
            type Event = ();
            type Scratch = ();

            fn initial_state(&self) -> u32 {
                1
            }

            fn actions(&self, state: &u32, out: &mut Vec<CounterAction>) {
                out.clear();
                if *state < 32 {
                    out.push(CounterAction::Increment);
                    out.push(CounterAction::Double);
                }
            }

            fn apply(
                &self,
                state: &u32,
                action: &CounterAction,
                _scratch: &mut (),
                _log: &mut StepLog<()>,
            ) -> StepOutcome<u32> {
                let next = match action {
                    CounterAction::Increment => state + 1,
                    CounterAction::Double => state * 2,
                }
                .min(32);
                let violations = if next == 6 {
                    vec![
                        Violation { property: 1, description: "reached 6".into() },
                        Violation { property: 2, description: "also reached 6".into() },
                    ]
                } else {
                    Vec::new()
                };
                StepOutcome { state: next, violations }
            }

            fn encode(&self, state: &u32, out: &mut Vec<u8>) {
                out.extend_from_slice(&state.to_le_bytes());
            }

            fn display_action(&self, action: &CounterAction) -> String {
                action.to_string()
            }

            fn render_event(&self, _event: &()) -> LogLine {
                LogLine::new("")
            }
        }

        // The sequential engine records every property the triggering step
        // breaks before stopping; the parallel merge must preserve that.
        let mut config = SearchConfig::with_depth(8);
        config.stop_at_first = true;
        let seq = Checker::new(config.clone()).verify(&DoubleViolationModel);
        let par = ParallelChecker::new(config.parallel(4)).verify(&DoubleViolationModel);
        assert_eq!(seq.violated_properties().len(), 2);
        assert_eq!(par.violated_properties(), seq.violated_properties());
    }

    #[test]
    fn transition_cap_stops_all_workers() {
        let mut config = SearchConfig::with_depth(10).parallel(4);
        config.max_transitions = 5;
        let report = ParallelChecker::new(config).verify(&model());
        assert!(report.stats.truncated);
        assert!(report.stats.transitions_capped);
        // The cap may overshoot by a couple of in-flight transitions per
        // worker before the stop flag becomes visible.
        assert!(report.stats.transitions <= 5 + 2 * 4);
    }

    #[test]
    fn state_cap_stops_all_workers() {
        let mut config = SearchConfig::with_depth(10).parallel(4);
        config.max_states = 4;
        let report = ParallelChecker::new(config).verify(&model());
        assert!(report.stats.truncated);
        assert!(report.stats.states_capped);
    }

    #[test]
    fn zero_time_budget_truncates_without_panicking() {
        let mut config = SearchConfig::with_depth(12).parallel(4);
        config.time_limit = Some(Duration::ZERO);
        let report = ParallelChecker::new(config).verify(&model());
        assert!(report.stats.truncated);
    }

    #[test]
    fn maximal_time_budget_behaves_like_no_deadline() {
        // `Some(Duration::MAX)` as "effectively unlimited" must not overflow
        // the deadline computation (Instant + Duration panics unchecked).
        let mut config = SearchConfig::with_depth(6).parallel(4);
        config.time_limit = Some(Duration::MAX);
        let report = ParallelChecker::new(config).verify(&model());
        assert!(report.has_violations());
        assert!(!report.stats.truncated);
    }

    #[test]
    fn hash_compact_store_agrees_with_exact() {
        let mut config = SearchConfig::with_depth(6).parallel(4);
        config.store = StoreKind::HashCompact;
        let compact = ParallelChecker::new(config.clone()).verify(&model());
        config.store = StoreKind::Exact;
        let exact = ParallelChecker::new(config).verify(&model());
        assert_eq!(compact.violated_properties(), exact.violated_properties());
        assert_eq!(compact.stats.states_stored, exact.stats.states_stored);
    }

    #[test]
    fn bitstate_store_still_finds_the_violation() {
        let config = SearchConfig::with_depth(6).parallel(4).bitstate();
        let report = ParallelChecker::new(config).verify(&model());
        assert!(report.has_violations());
    }

    #[test]
    fn explicit_shard_count_is_honored() {
        let mut config = SearchConfig::with_depth(4).parallel(2);
        config.shards = 4;
        let checker = ParallelChecker::new(config);
        assert_eq!(checker.shard_count(), 4);
        // The counter reaches the bad value 6 within 4 steps (1→2→3→6).
        assert!(checker.verify(&model()).has_violations());
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        use crate::transition::testing::CounterAction;

        /// A model whose `apply` panics on one reachable state.
        struct ExplodingModel;
        impl TransitionSystem for ExplodingModel {
            type State = u32;
            type Action = CounterAction;
            type Event = ();
            type Scratch = ();

            fn initial_state(&self) -> u32 {
                1
            }

            fn actions(&self, state: &u32, out: &mut Vec<CounterAction>) {
                out.clear();
                if *state < 32 {
                    out.push(CounterAction::Increment);
                    out.push(CounterAction::Double);
                }
            }

            fn apply(
                &self,
                state: &u32,
                action: &CounterAction,
                _scratch: &mut (),
                _log: &mut StepLog<()>,
            ) -> StepOutcome<u32> {
                assert!(*state != 5, "model exploded at 5");
                let next = match action {
                    CounterAction::Increment => state + 1,
                    CounterAction::Double => state * 2,
                }
                .min(32);
                StepOutcome { state: next, violations: Vec::new() }
            }

            fn encode(&self, state: &u32, out: &mut Vec<u8>) {
                out.extend_from_slice(&state.to_le_bytes());
            }

            fn display_action(&self, action: &CounterAction) -> String {
                action.to_string()
            }

            fn render_event(&self, _event: &()) -> LogLine {
                LogLine::new("")
            }
        }

        // The level barrier joins every worker, so the panic propagates to
        // the caller instead of leaving the search half-finished.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ParallelChecker::new(SearchConfig::with_depth(8).parallel(4)).verify(&ExplodingModel)
        }));
        assert!(result.is_err());
    }
}
