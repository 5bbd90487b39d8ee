//! Named correctness checks, counted per run.

use std::collections::BTreeMap;

use crate::stats;

/// Every check of a run, by name: how often it ran and how often it failed.
#[derive(Debug, Default)]
pub struct Checks {
    by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl Checks {
    /// Record one checked operation; returns `ok`.
    pub fn check(&mut self, name: &'static str, ok: bool) -> bool {
        let e = self.by_name.entry(name).or_insert((0, 0));
        e.0 += 1;
        if !ok {
            e.1 += 1;
            eprintln!("check failed: {name}");
        }
        ok
    }

    /// Record a fallible operation: an `Err` is a failed check.
    pub fn ok<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        r: Result<T, E>,
    ) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(name, true);
                Some(v)
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                self.check(name, false);
                None
            }
        }
    }

    /// A pass's digest must equal the first pass's.
    pub fn digest(&mut self, first: u64, this: u64) -> bool {
        self.check("digest.stable", first == this)
    }

    /// Checked operations run.
    pub fn attempted(&self) -> u64 {
        self.by_name.values().map(|e| e.0).sum()
    }

    /// Checked operations that failed.
    pub fn failed(&self) -> u64 {
        self.by_name.values().map(|e| e.1).sum()
    }

    /// Names of checks that failed at least once.
    pub fn failed_names(&self) -> Vec<&'static str> {
        self.by_name
            .iter()
            .filter(|(_, e)| e.1 > 0)
            .map(|(n, _)| *n)
            .collect()
    }

    /// The run's `fail_ratio` (see [`stats::fail_ratio`]).
    pub fn fail_ratio(&self) -> f64 {
        stats::fail_ratio(self.failed_names().len(), self.by_name.len())
    }
}
