//! Pinned golden verdicts.
//!
//! A verdict is the set of violated property ids.  `deep_group`'s is pinned
//! below; every possible stream job's is pinned in `goldens/market_jobs.txt`,
//! keyed by its `(apps, events, failures)` shape, so any seed's stream is
//! checked job by job.  Regenerate the table with the `pin_goldens` binary
//! only when a change is meant to move verdicts.  State and transition
//! counts are deliberately not pinned: reductions are expected to move them.

use std::collections::{BTreeMap, BTreeSet};

/// The violated properties of `deep_group` (first 8 market apps, expert
/// configuration, failure injection, 6 external events).
pub const DEEP_GROUP: &[u32] = &[1, 2, 3, 4, 5, 8, 9, 12, 14, 15, 16, 18, 36, 39, 45];

const MARKET_JOBS: &str = include_str!("../goldens/market_jobs.txt");

/// A job shape: `(market apps, external events, failure injection)`.
pub type Shape = (usize, usize, bool);

/// Renders one golden-table line.
pub fn render_line(shape: Shape, violated: &BTreeSet<u32>) -> String {
    let ids: Vec<String> = violated.iter().map(u32::to_string).collect();
    let ids = if ids.is_empty() { "-".to_string() } else { ids.join(",") };
    format!("{} {} {} {ids}", shape.0, shape.1, u8::from(shape.2))
}

/// The pinned verdict of every job shape.
pub fn market_jobs() -> BTreeMap<Shape, BTreeSet<u32>> {
    MARKET_JOBS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 4, "malformed golden line `{line}`");
            let number = |f: &str| f.parse::<usize>().expect("numeric golden field");
            let ids = if fields[3] == "-" {
                BTreeSet::new()
            } else {
                fields[3].split(',').map(|id| id.parse().expect("property id")).collect()
            };
            ((number(fields[0]), number(fields[1]), fields[2] == "1"), ids)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{MAX_APPS, MIN_APPS};

    #[test]
    fn the_table_pins_every_job_shape() {
        let table = market_jobs();
        for apps in MIN_APPS..=MAX_APPS {
            for events in 2..=3 {
                for failures in [false, true] {
                    assert!(table.contains_key(&(apps, events, failures)));
                }
            }
        }
        assert_eq!(table.len(), (MAX_APPS - MIN_APPS + 1) * 4);
    }

    #[test]
    fn lines_round_trip() {
        let table = market_jobs();
        for (shape, ids) in table.iter().take(20) {
            let line = render_line(*shape, ids);
            assert!(MARKET_JOBS.contains(&line), "{line}");
        }
    }
}
