//! Longitudinal FD tracking (paper Section 1 and Section 8, item 1).
//!
//! The paper motivates maintenance with *temporal* questions: which
//! dependencies are robust over time, which flicker with daily business
//! (`num_sales -> num_shipments` holding only overnight), and which
//! sudden breaks signal erroneous updates. [`FdMonitor`] consumes the
//! [`BatchResult`] stream a [`DynFd`](crate::DynFd) instance produces
//! and answers those questions: per-FD age, flip counts, robustness and
//! volatility queries, and an alert list of robust dependencies that
//! just broke.

use crate::BatchResult;
use dynfd_common::Fd;
use std::collections::HashMap;

/// Per-FD lifetime statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FdStats {
    /// Batch index at which the FD (re-)appeared; `None` while absent.
    present_since: Option<u64>,
    /// Total number of batches the FD was present after.
    batches_present: u64,
    /// Number of status changes (appearances + disappearances).
    flips: u32,
}

/// Tracks the evolution of the minimal FD set across batches.
///
/// Feed every [`BatchResult`] to [`FdMonitor::observe`]; query
/// robustness and volatility at any time.
///
/// ```
/// use dynfd_core::{DynFd, DynFdConfig, FdMonitor};
/// use dynfd_relation::{Batch, DynamicRelation};
/// use dynfd_common::Schema;
///
/// let rel = DynamicRelation::from_rows(
///     Schema::of("t", &["a", "b"]),
///     &[vec!["x", "1"], vec!["x", "1"]],
/// ).unwrap();
/// let mut dynfd = DynFd::new(rel, DynFdConfig::default());
/// let mut monitor = FdMonitor::new(&dynfd.minimal_fds());
///
/// let mut batch = Batch::new();
/// batch.insert(vec!["x", "2"]); // breaks a -> b and the constants
/// let result = dynfd.apply_batch(&batch).unwrap();
/// let report = monitor.observe(&result);
/// assert!(!report.broken.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FdMonitor {
    batch_no: u64,
    stats: HashMap<Fd, FdStats>,
}

/// What one batch did to the tracked FD population, with ages attached.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorReport {
    /// FDs that disappeared, with the number of batches they had been
    /// continuously present (their *age* at breakage).
    pub broken: Vec<(Fd, u64)>,
    /// FDs that appeared; `true` marks a *re*-appearance (the FD held
    /// before at some point — a flickering dependency).
    pub appeared: Vec<(Fd, bool)>,
    /// Whether this batch triggered a degraded-mode cover rebuild
    /// (`BatchMetrics::cover_rebuilds > 0`) — an operator alert: the FD
    /// deltas of this batch reflect a recovery, not organic data change.
    pub recovered: bool,
}

impl FdMonitor {
    /// Starts tracking from an initial minimal FD set (age 0 each).
    pub fn new(initial: &[Fd]) -> Self {
        let mut m = FdMonitor::default();
        for &fd in initial {
            m.stats.insert(
                fd,
                FdStats {
                    present_since: Some(0),
                    ..FdStats::default()
                },
            );
        }
        m
    }

    /// Number of batches observed so far.
    pub fn batches_observed(&self) -> u64 {
        self.batch_no
    }

    /// Incorporates one batch's delta and reports breaks/appearances.
    pub fn observe(&mut self, result: &BatchResult) -> MonitorReport {
        self.batch_no += 1;
        let mut report = MonitorReport {
            recovered: result.metrics.cover_rebuilds > 0,
            ..MonitorReport::default()
        };
        for &fd in &result.removed {
            let entry = self.stats.entry(fd).or_default();
            let age = entry.present_since.map_or(0, |s| self.batch_no - 1 - s);
            entry.present_since = None;
            entry.flips += 1;
            report.broken.push((fd, age));
        }
        for &fd in &result.added {
            let entry = self.stats.entry(fd).or_default();
            let reappearance = entry.flips > 0;
            entry.present_since = Some(self.batch_no);
            entry.flips += 1;
            report.appeared.push((fd, reappearance));
        }
        // Age accounting for everything still present.
        for stats in self.stats.values_mut() {
            if stats.present_since.is_some() {
                stats.batches_present += 1;
            }
        }
        report.broken.sort();
        report.appeared.sort();
        report
    }

    /// Current age (consecutive batches present) of `fd`; `None` if it
    /// does not hold right now.
    pub fn age(&self, fd: &Fd) -> Option<u64> {
        self.stats
            .get(fd)
            .and_then(|s| s.present_since)
            .map(|s| self.batch_no - s)
    }

    /// How often `fd` changed status (appeared or disappeared).
    pub fn flip_count(&self, fd: &Fd) -> u32 {
        self.stats.get(fd).map_or(0, |s| s.flips)
    }

    /// All currently-holding FDs with age ≥ `min_age`, sorted — the
    /// *robust* dependencies worth acting on (schema design, constraint
    /// candidates).
    pub fn robust_fds(&self, min_age: u64) -> Vec<Fd> {
        let mut out: Vec<Fd> = self
            .stats
            .iter()
            .filter(|(_, s)| {
                s.present_since
                    .is_some_and(|since| self.batch_no - since >= min_age)
            })
            .map(|(&fd, _)| fd)
            .collect();
        out.sort();
        out
    }

    /// All FDs (holding or not) that flipped status at least
    /// `min_flips` times — the *flickering* dependencies whose change
    /// pattern is itself a signal (paper Section 1).
    pub fn volatile_fds(&self, min_flips: u32) -> Vec<Fd> {
        let mut out: Vec<Fd> = self
            .stats
            .iter()
            .filter(|(_, s)| s.flips >= min_flips)
            .map(|(&fd, _)| fd)
            .collect();
        out.sort();
        out
    }

    /// Fraction of observed batches during which `fd` held — a simple
    /// interestingness/stability score in `[0, 1]`.
    pub fn stability(&self, fd: &Fd) -> f64 {
        if self.batch_no == 0 {
            return if self.age(fd).is_some() { 1.0 } else { 0.0 };
        }
        self.stats
            .get(fd)
            .map_or(0.0, |s| s.batches_present as f64 / self.batch_no as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfd_common::AttrSet;

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(lhs.iter().copied().collect::<AttrSet>(), rhs)
    }

    fn result(added: &[Fd], removed: &[Fd]) -> BatchResult {
        BatchResult {
            added: added.to_vec(),
            removed: removed.to_vec(),
            metrics: Default::default(),
        }
    }

    #[test]
    fn ages_accumulate_until_broken() {
        let a = fd(&[1], 0);
        let mut m = FdMonitor::new(&[a]);
        m.observe(&result(&[], &[]));
        m.observe(&result(&[], &[]));
        assert_eq!(m.age(&a), Some(2));
        let report = m.observe(&result(&[], &[a]));
        assert_eq!(report.broken, vec![(a, 2)]);
        assert_eq!(m.age(&a), None);
    }

    #[test]
    fn reappearance_is_flagged() {
        let a = fd(&[1], 0);
        let mut m = FdMonitor::new(&[]);
        let r = m.observe(&result(&[a], &[]));
        assert_eq!(r.appeared, vec![(a, false)]);
        m.observe(&result(&[], &[a]));
        let r = m.observe(&result(&[a], &[]));
        assert_eq!(
            r.appeared,
            vec![(a, true)],
            "second appearance is a re-appearance"
        );
        assert_eq!(m.flip_count(&a), 3);
    }

    #[test]
    fn robust_and_volatile_queries() {
        let stable = fd(&[1], 0);
        let flicker = fd(&[2], 0);
        let mut m = FdMonitor::new(&[stable]);
        for i in 0..6 {
            if i % 2 == 0 {
                m.observe(&result(&[flicker], &[]));
            } else {
                m.observe(&result(&[], &[flicker]));
            }
        }
        assert_eq!(m.robust_fds(5), vec![stable]);
        assert_eq!(m.volatile_fds(4), vec![flicker]);
        assert!(m.stability(&stable) > 0.99);
        assert!(m.stability(&flicker) < 0.6);
    }

    #[test]
    fn initial_fds_have_age_zero_and_full_stability() {
        let a = fd(&[1], 0);
        let m = FdMonitor::new(&[a]);
        assert_eq!(m.age(&a), Some(0));
        assert_eq!(m.stability(&a), 1.0);
        assert_eq!(m.batches_observed(), 0);
    }

    #[test]
    fn unknown_fd_queries() {
        let m = FdMonitor::new(&[]);
        let ghost = fd(&[3], 1);
        assert_eq!(m.age(&ghost), None);
        assert_eq!(m.flip_count(&ghost), 0);
        assert_eq!(m.stability(&ghost), 0.0);
    }
}
