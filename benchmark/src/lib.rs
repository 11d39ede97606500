//! The repository benchmark.
//!
//! One command runs one workload for a fixed time, checks every verdict
//! against its pinned golden, and prints every metric with its name and
//! unit, ending with one JSON line:
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (each one process, one thread doing the work):
//!
//! * `deep_group` — the first 8 market apps, expert configuration, failure
//!   injection, 6 external events, verified as one explicit group by
//!   `Pipeline::verify_group` on the sequential engine.  The checker's
//!   steady-state loop does almost all the work.
//! * `daemon_cold` — a library `Daemon` (1 worker, default queue) over a
//!   fresh verdict store runs one `run_batch` of the seeded job stream
//!   ([`stream`]): hundreds of small searches, per-group fixed costs, the
//!   shared cache and the store's write path.
//! * `daemon_warm` — a `Daemon` restarts over the log a cold run of the same
//!   stream wrote (an untimed fixture) and replays the stream; every verdict
//!   comes from disk, so the frontend, planner and the store's read path
//!   dominate.
//!
//! With `--trace 0` the run reports the end-to-end metrics (`setup_s`,
//! `wall_s`, `job_p50_ms`, `job_p90_ms`, `peak_rss_mb`, `ok_share`), timed
//! through the public entry points with no tracing.  A job is one daemon
//! job, or one `verify_group` call on `deep_group`; `job_p90_ms` is the
//! nearest-rank 90th percentile and the run prints how many samples lie
//! beyond it.  `ok_share` is the share of operations that passed their
//! checks (1 − failed share).  With `--trace 1` it
//! instead sends the same work, single-threaded for the daemon workloads,
//! through the public functions those entry points compose, each inside a
//! span named after its crate, and reports the per-layer ledger
//! ([`layers`]).  Spans are written to `.bench_trace/` when the run ends.
//!
//! An operation is one verdict: one `verify_group` call or one daemon job.
//! It fails when its violated-property set differs from the pinned golden
//! ([`golden`]), its search was truncated, its status is not `ok` or it is
//! `degraded`; a `daemon_warm` job also fails when its report differs from
//! the cold run's.  Counts that must repeat exactly between units (checker
//! states, transitions and dedup hits; daemon misses and store appends) are
//! compared unit against unit and a drift is flagged, never averaged.

pub mod daemon;
pub mod deep;
pub mod golden;
pub mod host;
pub mod layers;
pub mod stream;
pub mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values are reported as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See the crate docs.
    DeepGroup,
    /// See the crate docs.
    DaemonCold,
    /// See the crate docs.
    DaemonWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::DeepGroup, Workload::DaemonCold, Workload::DaemonWarm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepGroup => "deep_group",
            Workload::DaemonCold => "daemon_cold",
            Workload::DaemonWarm => "daemon_warm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A validated command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload `{value}` (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|s| (1..=3600).contains(s))
                            .ok_or_else(|| format!("bad seconds `{value}`"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (verdicts) attempted.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Deterministic counts that drifted between units.
    pub drifts: Vec<String>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation, failing it with `why` when `why` is `Some`.
    pub fn check(&mut self, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failures.push(why);
        }
    }

    /// Flags `name` when `value` differs from the first unit's value.
    pub fn expect_repeat<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: &str,
        first: &Option<T>,
        unit: usize,
        value: &T,
    ) {
        if let Some(first) = first {
            if first != value {
                self.drifts.push(format!("{name}: unit 0 {first:?}, unit {unit} {value:?}"));
            }
        }
    }

    /// The report: notes, one line per metric, then the result JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for failure in self.failures.iter().take(20) {
            let _ = writeln!(out, "FAILED {failure}");
        }
        for drift in &self.drifts {
            let _ = writeln!(out, "FLAG count drift {drift}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.drifts.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        );
        out
    }
}

/// A temporary directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<pid>` under the current directory.
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Runs one workload as `args` describes.
pub fn run(args: &Args) -> std::io::Result<Outcome> {
    let work = WorkDir::create()?;
    let mut tracer = trace::Tracer::default();
    let mut outcome = match args.workload {
        Workload::DeepGroup => deep::run(args, &mut tracer),
        Workload::DaemonCold => daemon::run(false, args, work.path(), &mut tracer)?,
        Workload::DaemonWarm => daemon::run(true, args, work.path(), &mut tracer)?,
    };
    outcome.notes.insert(0, host::stamp());
    if args.trace {
        let dir = Path::new(".bench_trace");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        tracer.write_jsonl(&path)?;
        outcome.notes.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
    } else {
        // `failed_share` would read 0 on every healthy run; its complement
        // is reported instead.
        let ok = outcome.attempted.saturating_sub(outcome.failures.len() as u64);
        let share = ok as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.push(Metric::new("ok_share", share, "ratio"));
    }
    Ok(outcome)
}

/// The end-to-end job-latency metrics and a note stating their sample
/// counts.  `job_p90_ms` is the nearest-rank 90th percentile; the note says
/// how many samples lie beyond it.
pub fn job_latency(outcome: &mut Outcome, job_ms: &[f64]) {
    let p50 = host::quantile(job_ms, 0.5);
    let p90 = host::quantile(job_ms, 0.9);
    let beyond = job_ms.iter().filter(|&&v| v > p90).count();
    outcome.notes.push(format!(
        "job latency: {} samples, p50 {p50:.3} ms, p90 {p90:.3} ms with {beyond} samples beyond it",
        job_ms.len()
    ));
    outcome.metrics.push(Metric::new("job_p50_ms", p50, "ms"));
    outcome.metrics.push(Metric::new("job_p90_ms", p90, "ms"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = Args::parse(&strings(&[
            "--workload",
            "daemon_warm",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args { workload: Workload::DaemonWarm, seed: 9, seconds: 20, trace: true }
        );
        assert!(Args::parse(&strings(&["--workload", "nope"])).is_err());
        assert!(Args::parse(&strings(&["--workload", "deep_group", "--seed", "1"])).is_err());
    }

    #[test]
    fn the_last_line_is_the_result_object() {
        let mut outcome = Outcome::default();
        outcome.check(None);
        outcome.check(Some("job-01: wrong verdict".to_string()));
        outcome.metrics.push(Metric::new("wall_s", 1.25, "s"));
        let rendered = outcome.render();
        let last = rendered.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
