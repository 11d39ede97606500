//! The per-layer ledger of a traced run.
//!
//! The traced path calls each crate's public functions itself, inside
//! spans named after the crate, and reads the telemetry registry around
//! them.  [`Ledger::metrics`] turns the spans and counts into the per-layer
//! metrics; every traced run reports the full set, with 0 for a layer the
//! workload never reaches.

use crate::host::median;
use crate::trace::{Tracer, UNIT};
use crate::Metric;
use iotsan::checker::ParallelChecker;
use iotsan::config::SystemConfig;
use iotsan::ir::IrApp;
use iotsan::{GroupResult, InstalledSystem, Pipeline, SequentialModel};
use iotsan_daemon::codec::{decode_group_result, encode_group_result};
use iotsan_telemetry::METRICS;
use std::time::Instant;

/// Registry counters read around a unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Checker states admitted.
    pub states: u64,
    /// Checker transitions applied.
    pub transitions: u64,
    /// Checker dedup hits.
    pub dedup_hits: u64,
    /// Cache hits (memory or backing).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache hits served by the durable backing.
    pub backing_hits: u64,
    /// Verdict-store appends.
    pub store_appends: u64,
}

impl Counters {
    /// The registry's current values.
    pub fn read() -> Self {
        Counters {
            states: METRICS.checker_states.get(),
            transitions: METRICS.checker_transitions.get(),
            dedup_hits: METRICS.checker_dedup_hits.get(),
            cache_hits: METRICS.cache_hits.get(),
            cache_misses: METRICS.cache_misses.get(),
            backing_hits: METRICS.cache_backing_hits.get(),
            store_appends: METRICS.store_appends.get(),
        }
    }

    /// What happened between `before` and `self`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            states: self.states - before.states,
            transitions: self.transitions - before.transitions,
            dedup_hits: self.dedup_hits - before.dedup_hits,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            backing_hits: self.backing_hits - before.backing_hits,
            store_appends: self.store_appends - before.store_appends,
        }
    }

    fn add(&mut self, other: Counters) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.dedup_hits += other.dedup_hits;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.backing_hits += other.backing_hits;
        self.store_appends += other.store_appends;
    }
}

/// Counts and extrema gathered along the traced path.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Traced units run.
    pub units: usize,
    /// Registry deltas summed over the traced units.
    pub counters: Counters,
    /// Duration of every search, ms.
    pub search_ms: Vec<f64>,
    /// Wall seconds spent inside searches.
    pub search_wall_s: f64,
    /// Largest visited-store footprint of any search, bytes.
    pub store_bytes: usize,
    /// Largest trace-arena peak of any search, bytes.
    pub trace_peak_bytes: usize,
    /// Largest frontier of any search.
    pub frontier_peak: i64,
    /// Planned groups.
    pub groups: u64,
    /// `attribute_traces` calls.
    pub attribution_calls: u64,
    /// Verdicts encoded and decoded, and their encoded bytes.
    pub verdicts_coded: u64,
    /// See [`Ledger::verdicts_coded`].
    pub coded_bytes: u64,
    /// Records and log size of the verdict store after the last unit.
    pub store_records: usize,
    /// See [`Ledger::store_records`].
    pub store_log_bytes: u64,
    /// Share of daemon worker time spent on jobs (from one real daemon
    /// batch; 0 where no daemon runs).
    pub busy_share: f64,
    /// Median traced-minus-untraced unit wall, seconds (deep workloads).
    pub overhead_s: f64,
    /// Verdicts whose codec round trip did not reproduce them.
    pub codec_mismatches: u64,
}

impl Ledger {
    /// Adds one traced unit's registry deltas.
    pub fn add_unit(&mut self, delta: Counters) {
        self.units += 1;
        self.counters.add(delta);
    }

    /// Verifies one group the way `Pipeline::verify_group_restricted` does
    /// (property merge, install, property compile, search), with a span
    /// around each layer.  `config` must already be restricted to the
    /// group's devices.
    pub fn verify_restricted(
        &mut self,
        t: &mut Tracer,
        pipeline: &Pipeline,
        members: &[IrApp],
        config: SystemConfig,
    ) -> GroupResult {
        let properties = t.span("core.properties", |_| pipeline.properties_for(&config));
        let system = t.span("system.install", |_| InstalledSystem::new(members.to_vec(), config));
        let model = t.span("properties.compile", |_| {
            SequentialModel::new(system, properties, pipeline.model_options.clone())
        });
        let (report, wall_s) = t.span("checker.search", |_| {
            let wall = Instant::now();
            let report = ParallelChecker::new(pipeline.search.clone()).verify(&model);
            drop(model);
            (report, wall.elapsed().as_secs_f64())
        });
        self.search_ms.push(wall_s * 1e3);
        self.search_wall_s += wall_s;
        self.store_bytes = self.store_bytes.max(report.stats.store_memory_bytes);
        self.trace_peak_bytes = self.trace_peak_bytes.max(report.stats.peak_trace_bytes);
        self.frontier_peak = self.frontier_peak.max(METRICS.checker_frontier_peak.get());
        GroupResult { apps: members.iter().map(|a| a.name.clone()).collect(), report }
    }

    /// Encodes and decodes one verdict with the verdict-store codec, inside
    /// `codec.encode` / `codec.decode` spans; the decoded copy must equal
    /// the original, or it counts as a codec mismatch.
    pub fn round_trip(&mut self, t: &mut Tracer, result: &GroupResult) {
        let bytes = t.span("codec.encode", |_| {
            let mut bytes = Vec::new();
            encode_group_result(result, &mut bytes);
            bytes
        });
        let decoded = t.span("codec.decode", |_| decode_group_result(&bytes));
        self.verdicts_coded += 1;
        self.coded_bytes += bytes.len() as u64;
        if decoded.as_ref() != Ok(result) {
            self.codec_mismatches += 1;
        }
    }

    /// The per-layer metrics of a traced run.  Times are per traced unit
    /// unless their unit says otherwise.
    pub fn metrics(&self, t: &Tracer) -> Vec<Metric> {
        let times = t.self_times();
        let ms = |name: &str| times.get(name).map_or(0.0, |s| s.ms());
        let count = |name: &str| times.get(name).map_or(0, |s| s.count);
        let units = self.units.max(1) as f64;
        let per_unit = |name: &str| ms(name) / units;
        let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
        let c = &self.counters;
        let lookups = c.cache_hits + c.cache_misses;
        let unit_ns = t.unit_ns() as f64;
        let covered = unit_ns - times.get(UNIT).map_or(0, |s| s.ns) as f64;
        let search_s = self.search_wall_s;
        vec![
            Metric::new("apps.resolve_ms", per_unit("apps.resolve"), "ms"),
            Metric::new("groovy.parse_ms", per_unit("groovy.parse"), "ms"),
            Metric::new("ir.lower_ms", per_unit("ir.lower"), "ms"),
            Metric::new("config.configure_ms", per_unit("config.configure"), "ms"),
            Metric::new("depgraph.analyze_ms", per_unit("depgraph.analyze"), "ms"),
            Metric::new(
                "planner.plan_self_ms",
                ((ms("planner.plan") - ms("depgraph.analyze")) / units).max(0.0),
                "ms",
            ),
            Metric::new("planner.fingerprint_ms", per_unit("planner.fingerprint"), "ms"),
            Metric::new("planner.groups", self.groups as f64 / units, "count"),
            Metric::new("core.properties_ms", per_unit("core.properties"), "ms"),
            Metric::new("cache.lookup_ms", per_unit("cache.lookup"), "ms"),
            Metric::new("cache.lookups", lookups as f64 / units, "count"),
            Metric::new("cache.hit_share", per(c.cache_hits as f64, lookups), "ratio"),
            Metric::new("cache.backing_hit_share", per(c.backing_hits as f64, lookups), "ratio"),
            Metric::new("system.install_ms", per_unit("system.install"), "ms"),
            Metric::new("properties.compile_ms", per_unit("properties.compile"), "ms"),
            Metric::new("checker.search_ms", per_unit("checker.search"), "ms"),
            Metric::new("checker.searches", count("checker.search") as f64 / units, "count"),
            Metric::new("checker.small_search_ms_p50", median(&self.search_ms), "ms"),
            Metric::new("checker.states", c.states as f64 / units, "count"),
            Metric::new("checker.transitions", c.transitions as f64 / units, "count"),
            Metric::new("checker.dedup_hits", c.dedup_hits as f64 / units, "count"),
            Metric::new(
                "checker.new_state_ratio",
                per(c.states as f64, c.states + c.dedup_hits),
                "ratio",
            ),
            Metric::new(
                "checker.states_per_s",
                if search_s > 0.0 { c.states as f64 / search_s } else { 0.0 },
                "1/s",
            ),
            Metric::new(
                "checker.transitions_per_s",
                if search_s > 0.0 { c.transitions as f64 / search_s } else { 0.0 },
                "1/s",
            ),
            Metric::new("checker.store_bytes", self.store_bytes as f64, "bytes"),
            Metric::new("checker.trace_peak_bytes", self.trace_peak_bytes as f64, "bytes"),
            Metric::new("checker.frontier_peak", self.frontier_peak as f64, "count"),
            Metric::new("attribution.rank_ms", per_unit("attribution.rank"), "ms"),
            Metric::new("attribution.calls", self.attribution_calls as f64 / units, "count"),
            Metric::new("store.recover_ms", per_unit("store.recover"), "ms"),
            Metric::new("store.records", self.store_records as f64, "count"),
            Metric::new("store.log_mb", self.store_log_bytes as f64 / (1024.0 * 1024.0), "MiB"),
            Metric::new(
                "store.append_us",
                per(ms("store.append") * 1e3, count("store.append")),
                "us",
            ),
            Metric::new(
                "codec.encode_us",
                per(ms("codec.encode") * 1e3, self.verdicts_coded),
                "us",
            ),
            Metric::new(
                "codec.decode_us",
                per(ms("codec.decode") * 1e3, self.verdicts_coded),
                "us",
            ),
            Metric::new(
                "codec.bytes_per_verdict",
                per(self.coded_bytes as f64, self.verdicts_coded),
                "bytes",
            ),
            Metric::new("daemon.busy_share", self.busy_share, "ratio"),
            Metric::new("trace.wall_s", unit_ns / 1e9 / units, "s"),
            Metric::new(
                "trace.coverage",
                if unit_ns > 0.0 { covered / unit_ns } else { 0.0 },
                "ratio",
            ),
            Metric::new("trace.overhead_s", self.overhead_s, "s"),
        ]
    }
}
