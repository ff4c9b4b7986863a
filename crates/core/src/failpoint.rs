//! Deterministic fault injection for the maintenance pipeline.
//!
//! A [`FailPoint`] armed on a [`DynFd`] instance trips once, at a
//! deterministic point of the *next* batch: when the named phase has
//! issued at least `after_validations` candidate validations (the
//! trigger is keyed on [`BatchMetrics::validation_jobs`]). The
//! failpoint disarms itself *before* acting, so a retry of
//! the same batch after the injected failure succeeds — exactly the
//! recovery story the transactional boundary promises.
//!
//! This lives in the engine (rather than the testkit) because the
//! interesting failure points are inside `pub(crate)` phase internals;
//! the public surface is the single [`DynFd::arm_failpoint`] method.

use crate::{BatchMetrics, DynFd};

/// Which maintenance phase an armed [`FailPoint`] targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailPhase {
    /// The delete phase (Algorithm 4), after a level's verdicts applied.
    DeletePhase,
    /// The insert phase (Algorithm 2), after a level's verdicts applied.
    InsertPhase,
}

/// What happens when an armed [`FailPoint`] trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a recognizable message — exercises the `catch_unwind`
    /// rollback path of [`DynFd::apply_batch`].
    Panic,
    /// Silently corrupt the positive cover without touching the
    /// negative cover — plants exactly the cover drift that
    /// [`DynFd::verify_consistency`] (and the cheap antichain/inversion
    /// check) must detect, exercising the degraded-mode rebuild. The
    /// corruption is a *redundant specialization* of an existing minimal
    /// FD: it holds on the data, so neither phase's validations nor the
    /// violation search will ever remove it — unlike a dropped FD, which
    /// the running batch may coincidentally have removed anyway. If no
    /// specialization slot exists (saturated LHS), the last cover FD is
    /// dropped instead.
    DropCoverFd,
}

/// A one-shot injected fault (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailPoint {
    /// The phase in which to trip.
    pub phase: FailPhase,
    /// Trip once the phase's cumulative validation-job count for the
    /// current batch reaches this value. `0` trips at the phase's first
    /// check point.
    pub after_validations: usize,
    /// What to do when tripping.
    pub action: FailAction,
}

impl DynFd {
    /// Arms `fp` for the next batch. At most one failpoint is armed at a
    /// time; arming replaces any previous one. The failpoint disarms
    /// itself when it trips (or stays armed if its condition is never
    /// reached, e.g. the targeted phase does not run).
    pub fn arm_failpoint(&mut self, fp: FailPoint) {
        self.failpoint = Some(fp);
    }

    /// The currently armed failpoint, if any.
    pub fn armed_failpoint(&self) -> Option<FailPoint> {
        self.failpoint
    }

    /// Removes the armed failpoint (if any) without tripping it. Useful
    /// for harnesses that arm speculatively: a failpoint whose condition
    /// was never reached stays armed and would otherwise leak into the
    /// next batch.
    pub fn disarm_failpoint(&mut self) {
        self.failpoint = None;
    }

    /// Phase-internal check point: trips the armed failpoint if its
    /// condition is met. Panics (by design) for [`FailAction::Panic`].
    pub(crate) fn failpoint_check(&mut self, phase: FailPhase, metrics: &BatchMetrics) {
        let Some(fp) = self.failpoint else {
            return;
        };
        if fp.phase != phase || metrics.validation_jobs() < fp.after_validations {
            return;
        }
        // Disarm before acting so a retried batch runs clean.
        self.failpoint = None;
        match fp.action {
            FailAction::Panic => panic!(
                "injected failpoint: {:?} after {} validations",
                phase,
                metrics.validation_jobs()
            ),
            FailAction::DropCoverFd => {
                let all = self.fds.all_fds();
                let arity = self.rel.arity();
                let planted = all.iter().find_map(|fd| {
                    (0..arity)
                        .find(|&a| a != fd.rhs && !fd.lhs.contains(a))
                        .map(|a| (fd.lhs.with(a), fd.rhs))
                });
                match planted {
                    Some((lhs, rhs)) => {
                        self.fds.add(lhs, rhs);
                    }
                    None => {
                        if let Some(fd) = all.last() {
                            self.fds.remove(fd.lhs, fd.rhs);
                        }
                    }
                }
            }
        }
    }
}
