//! Prints the golden verdict table (`goldens/market_jobs.txt`): the violated
//! properties of every job shape the seeded stream can produce, computed by
//! a 2-worker `Daemon` over a fresh store.  Run it from the repository root
//! only when a change is meant to move verdicts:
//!
//!     cargo run --release --offline --manifest-path benchmark/Cargo.toml \
//!         --bin pin_goldens > benchmark/goldens/market_jobs.txt

use iotsan_daemon::{BundleSpec, Daemon, DaemonConfig, JobSpec, JobStatus};
use iotsan_perfbench::golden::render_line;
use iotsan_perfbench::stream::{MAX_APPS, MIN_APPS};
use iotsan_perfbench::WorkDir;

fn main() -> std::io::Result<()> {
    let mut specs = Vec::new();
    for events in 2..=3 {
        for failures in [false, true] {
            for apps in MIN_APPS..=MAX_APPS {
                specs.push(JobSpec {
                    id: format!("{apps}-{events}-{failures}"),
                    bundle: BundleSpec::Market(apps),
                    events,
                    workers: 1,
                    failures,
                    timeout_ms: None,
                    inject_panic: false,
                });
            }
        }
    }
    let work = WorkDir::create()?;
    let mut daemon = Daemon::start(DaemonConfig::new(work.path().join("verdicts.log")))?;
    let outcomes = daemon.run_batch(specs.clone());
    daemon.shutdown()?;
    println!("# apps events failures violated-properties (\"-\" when none)");
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        let report = outcome.report.as_ref().expect("every market job runs");
        assert_eq!(outcome.status, JobStatus::Ok, "{}", outcome.id);
        assert!(!outcome.degraded, "{}", outcome.id);
        assert!(report.groups.iter().all(|g| !g.report.stats.truncated), "{}", outcome.id);
        let BundleSpec::Market(apps) = spec.bundle else { unreachable!("market jobs only") };
        println!(
            "{}",
            render_line((apps, spec.events, spec.failures), &report.violated_properties())
        );
    }
    Ok(())
}
