//! Process and host facts read from `/proc`: peak resident memory and the
//! stamp printed with every result.

use std::fs;

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS, so work
/// done before the timed part cannot set the peak.
pub fn reset_peak_rss() {
    // Best effort: without the reset the peak still bounds the timed part
    // from above.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set size since the last reset, MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// One line naming the host and the code a result was measured on.
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={} source_digest={}",
        env!("BENCH_RUSTC"),
        env!("BENCH_COMMIT"),
        env!("BENCH_SOURCE_DIGEST")
    )
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.9), 90.0);
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_facts_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        assert!(stamp().starts_with("host: nproc="));
    }
}
