//! Client-side session helper: synchronous submit with
//! jittered-exponential-backoff retry.
//!
//! The engine's governance rejections (overload, quota, eviction
//! window) carry a machine-readable `retry_after_ms` hint that grows
//! with the tenant's consecutive-rejection streak. A compliant client
//! treats the hint as a *floor*: it sleeps `max(hint, base × 2^retry)`
//! plus bounded jitter, so a fleet of rejected clients neither hammers
//! the server (the hint floor) nor stampedes back in lockstep (the
//! jitter). Rejections without a hint — missed deadlines, unknown
//! tenants, engine rejections, shutdown — are the caller's problem and
//! are returned immediately.
//!
//! The jitter PRNG is a seeded splitmix64, so a fixed
//! [`RetryPolicy::seed`] makes the whole retry schedule reproducible —
//! the property the overload-governance proptests replay.

use crate::server::{ApplySummary, ServeEngine};
use crate::transport::{ListenAddr, Stream};
use crate::wire::{self, FrameIo, Request, Response};
use crate::{
    ServeError, CODE_DEADLINE_EXCEEDED, CODE_SESSION, CODE_SHUTTING_DOWN, CODE_SLOW_CLIENT,
};
use dynfd_relation::Batch;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

/// Backoff schedule for [`submit_with_retry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-retry backoff (doubles per consecutive rejection).
    pub base: Duration,
    /// Ceiling on a single computed backoff (the server hint may still
    /// exceed it — the hint always wins as a floor).
    pub cap: Duration,
    /// Total attempts, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(640),
            max_attempts: 8,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

/// What one [`submit_with_retry`] call did end to end.
#[derive(Debug)]
pub struct RetryReport {
    /// Attempts made (>= 1).
    pub attempts: u32,
    /// Total time slept between attempts.
    pub backoff_total: Duration,
    /// Retry-after hints observed, in order — the overload-governance
    /// proptests assert these are monotone under sustained pressure.
    pub hints_ms: Vec<u64>,
    /// The final outcome: the applied batch's summary, or the error
    /// that was not retryable (or exhausted the attempt budget).
    pub outcome: Result<ApplySummary, ServeError>,
}

impl RetryReport {
    /// Whether the batch was eventually applied.
    pub fn succeeded(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// splitmix64 step: a tiny, seedable, statistically fine generator for
/// jitter — no dependency, fully deterministic per [`RetryPolicy::seed`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One jittered backoff step: `max(server hint, base × 2^retry, capped)
/// + jitter`, jitter uniform over half the floor. Shared by the
/// in-process [`submit_with_retry`] and the reconnecting
/// [`SessionClient`], so both back off on the same schedule.
fn backoff_for(policy: &RetryPolicy, retry: u32, hint_ms: u64, rng: &mut u64) -> Duration {
    let exp = policy
        .base
        .saturating_mul(1u32 << retry.min(16))
        .min(policy.cap);
    let floor = Duration::from_millis(hint_ms).max(exp);
    let jitter_range = (floor / 2).as_millis().min(u64::MAX as u128) as u64;
    let jitter = if jitter_range == 0 {
        0
    } else {
        splitmix64(rng) % jitter_range
    };
    floor + Duration::from_millis(jitter)
}

/// Submits `batch` and blocks for the reply, retrying governance
/// rejections per `policy`. Each retry sleeps
/// `max(server hint, base × 2^retry, capped) + jitter` where the jitter
/// is uniform over half the computed backoff (decorrelates clients
/// that were rejected together). Non-governance errors and exhausted
/// attempts are returned in the report without further retries.
pub fn submit_with_retry(
    engine: &ServeEngine,
    tenant: &str,
    request_id: u64,
    batch: &Batch,
    deadline: Option<Duration>,
    policy: &RetryPolicy,
) -> RetryReport {
    let mut rng = policy.seed;
    let mut report = RetryReport {
        attempts: 0,
        backoff_total: Duration::ZERO,
        hints_ms: Vec::new(),
        outcome: Err(ServeError::ShuttingDown),
    };
    let attempts = policy.max_attempts.max(1);
    for retry in 0..attempts {
        report.attempts = retry + 1;
        let (tx, rx) = mpsc::channel();
        let submitted = engine.submit_with_deadline(
            tenant,
            request_id,
            batch.clone(),
            deadline,
            move |reply| {
                // The submitter may have given up; a dead receiver is
                // fine, the reply is simply dropped.
                let _ = tx.send(reply.outcome);
            },
        );
        let outcome = match submitted {
            // Admitted: the completion fires exactly once.
            Ok(()) => match rx.recv() {
                Ok(outcome) => outcome,
                Err(_) => Err(ServeError::ShuttingDown),
            },
            Err(rejected) => Err(rejected),
        };
        let hint = match &outcome {
            Err(e) => e.retry_after_ms(),
            Ok(_) => None,
        };
        let Some(hint_ms) = hint else {
            report.outcome = outcome;
            return report;
        };
        report.hints_ms.push(hint_ms);
        if retry + 1 == attempts {
            report.outcome = outcome;
            return report;
        }
        let sleep = backoff_for(policy, retry, hint_ms, &mut rng);
        report.backoff_total += sleep;
        std::thread::sleep(sleep);
        report.outcome = outcome;
    }
    report
}

/// Telemetry of one [`SessionClient`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionClientReport {
    /// Successful dials (first connect + reconnects).
    pub connects: u64,
    /// Reconnects after a drop, timeout, shed, or drain notice.
    pub reconnects: u64,
    /// Unacked frames re-sent verbatim after a reconnect or silence.
    pub resends: u64,
    /// Fresh-sequence retries after settled governance rejections.
    pub retries: u64,
    /// `Hello` responses whose epoch was > 1 (the server resumed us).
    pub resumed: u64,
    /// Total time slept in reconnect/retry backoff.
    pub backoff_total: Duration,
}

/// A reconnecting socket client with exactly-once apply semantics.
///
/// Extends [`submit_with_retry`]'s jittered-backoff discipline across
/// the network boundary: every connection starts with a `Hello` naming
/// this client's session, every apply carries a per-tenant monotone
/// `session_seq`, and an unacked frame is re-sent **verbatim** (same
/// request id, same sequence) after a drop — the server deduplicates,
/// so the batch applies exactly once no matter how many times the
/// network forces a re-send (see `crate::resume`).
///
/// Settled governance rejections (backoff hints, missed deadlines) are
/// retried with a *fresh* sequence number, mirroring the in-process
/// helper. One request is in flight at a time; stale duplicate
/// responses (possible after replays) are dropped by request-id.
pub struct SessionClient {
    addr: ListenAddr,
    session: String,
    policy: RetryPolicy,
    rng: u64,
    /// Response-wait tick (client-side read deadline granularity).
    tick: Duration,
    /// Silence budget: no response for this long forces a reconnect
    /// and a re-send of the in-flight frame.
    patience: Duration,
    next_request_id: u64,
    next_seq: HashMap<String, u64>,
    conn: Option<FrameIo<Stream>>,
    report: SessionClientReport,
}

impl SessionClient {
    /// A client for `addr` under session id `session` (stable across
    /// reconnects — reuse the same id to resume). Does not dial yet;
    /// the first request connects lazily.
    pub fn new(addr: ListenAddr, session: impl Into<String>, policy: RetryPolicy) -> SessionClient {
        let policy_seed = policy.seed;
        SessionClient {
            addr,
            session: session.into(),
            policy,
            rng: policy_seed,
            tick: Duration::from_millis(25),
            patience: Duration::from_millis(2000),
            next_request_id: 1,
            next_seq: HashMap::new(),
            conn: None,
            report: SessionClientReport::default(),
        }
    }

    /// Overrides the silence budget after which the in-flight frame is
    /// re-sent over a fresh connection.
    pub fn with_patience(mut self, patience: Duration) -> SessionClient {
        self.patience = patience.max(Duration::from_millis(10));
        self
    }

    /// What this client did so far.
    pub fn report(&self) -> SessionClientReport {
        self.report
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    fn drop_conn(&mut self) {
        if let Some(io) = self.conn.take() {
            io.get_ref().shutdown();
        }
    }

    /// Dials, arms client-side deadlines, and performs the `Hello`
    /// handshake. Responses that are not the hello ack (late replays
    /// from a previous incarnation) are discarded — the pending frame
    /// is re-sent afterwards anyway and answered from the replay window.
    fn try_connect(&mut self) -> Result<(), String> {
        self.drop_conn();
        let stream = Stream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_client_timeouts(self.tick, Duration::from_secs(5))
            .map_err(|e| format!("set timeouts: {e}"))?;
        let mut io = FrameIo::new(stream);
        let hello_id = self.fresh_id();
        let hello = wire::encode_request(&Request::Hello {
            request_id: hello_id,
            session_id: self.session.clone(),
        });
        io.write(&hello).map_err(|e| format!("hello write: {e}"))?;
        let mut waited = Duration::ZERO;
        loop {
            match io.read() {
                Ok(Some(payload)) => match wire::decode_response(&payload) {
                    Ok(resp) if resp.request_id == hello_id => {
                        if resp.code != 0 {
                            return Err(format!(
                                "hello rejected (code {}): {}",
                                resp.code, resp.detail
                            ));
                        }
                        if resp.seq > 1 {
                            self.report.resumed += 1;
                        }
                        self.conn = Some(io);
                        self.report.connects += 1;
                        return Ok(());
                    }
                    Ok(_) => continue,
                    Err(e) => return Err(format!("hello response: {e}")),
                },
                Ok(None) => return Err("connection closed during hello".into()),
                Err(e) if e.is_timeout() => {
                    waited += self.tick;
                    if waited >= self.patience {
                        return Err("hello timed out".into());
                    }
                }
                Err(e) => return Err(format!("hello read: {e}")),
            }
        }
    }

    /// Sends `frame` (re-sending across reconnects as needed) until a
    /// response for `request_id` arrives. The reconnect budget is
    /// [`RetryPolicy::max_attempts`] with jittered backoff.
    fn deliver(&mut self, frame: &[u8], request_id: u64) -> Result<Response, String> {
        let mut reconnects = 0u32;
        let mut sent_once = false;
        let mut last_err = String::from("no attempt made");
        while reconnects < self.policy.max_attempts.max(1) {
            if self.conn.is_none() {
                if reconnects > 0 || self.report.connects > 0 {
                    let sleep = backoff_for(&self.policy, reconnects, 0, &mut self.rng);
                    self.report.backoff_total += sleep;
                    std::thread::sleep(sleep);
                }
                match self.try_connect() {
                    Ok(()) => {
                        if sent_once {
                            self.report.reconnects += 1;
                        }
                    }
                    Err(e) => {
                        reconnects += 1;
                        last_err = e;
                        continue;
                    }
                }
                // Fresh connection: the in-flight frame (if any) must
                // ride it again.
                if sent_once {
                    self.report.resends += 1;
                }
            }
            let Some(io) = self.conn.as_mut() else {
                continue;
            };
            if io.write(frame).is_err() {
                self.drop_conn();
                reconnects += 1;
                last_err = "write failed".into();
                continue;
            }
            sent_once = true;
            // Await the matching response.
            let mut quiet = Duration::ZERO;
            while let Some(io) = self.conn.as_mut() {
                match io.read() {
                    Ok(Some(payload)) => {
                        quiet = Duration::ZERO;
                        let Ok(resp) = wire::decode_response(&payload) else {
                            self.drop_conn();
                            reconnects += 1;
                            last_err = "undecodable response".into();
                            break;
                        };
                        if resp.request_id == request_id {
                            return Ok(resp);
                        }
                        if resp.request_id == 0
                            && (u32::from(resp.code) == CODE_SHUTTING_DOWN
                                || u32::from(resp.code) == CODE_SLOW_CLIENT)
                        {
                            // Drain notice or shed: this connection is
                            // over; resume elsewhere.
                            self.drop_conn();
                            reconnects += 1;
                            last_err = format!("server notice code {}", resp.code);
                            break;
                        }
                        // A stale duplicate for an earlier request:
                        // replays make responses at-least-once. Drop it.
                    }
                    Ok(None) => {
                        self.drop_conn();
                        reconnects += 1;
                        last_err = "connection closed".into();
                        break;
                    }
                    Err(e) if e.is_timeout() => {
                        quiet += self.tick;
                        if quiet >= self.patience {
                            // Silence: assume the frame or its response
                            // was lost; re-send over a new connection.
                            self.drop_conn();
                            reconnects += 1;
                            last_err = "response timed out".into();
                            break;
                        }
                    }
                    Err(e) => {
                        self.drop_conn();
                        reconnects += 1;
                        last_err = format!("read: {e}");
                        break;
                    }
                }
            }
        }
        Err(format!(
            "request {request_id} undeliverable after {reconnects} reconnect attempts: {last_err}"
        ))
    }

    /// Opens (or recovers) `tenant`. Not sessioned: `Open` is
    /// idempotent for our purposes, so a re-send racing a successful
    /// first delivery may answer `TenantExists` (code 15) — callers
    /// treat both as success.
    pub fn open(
        &mut self,
        tenant: &str,
        columns: &[String],
        rows: &[Vec<String>],
    ) -> Result<Response, String> {
        let request_id = self.fresh_id();
        let frame = wire::encode_request(&Request::Open {
            request_id,
            tenant: tenant.to_string(),
            columns: columns.to_vec(),
            rows: rows.to_vec(),
        });
        self.deliver(&frame, request_id)
    }

    /// Applies `batch` to `tenant` exactly once, reconnecting and
    /// re-sending as needed. Settled governance rejections (a
    /// `retry_after_ms` hint, or a missed deadline) consume their
    /// sequence and are retried with a fresh one, up to the policy
    /// budget; any other settled outcome is returned as-is.
    pub fn apply(
        &mut self,
        tenant: &str,
        batch: &Batch,
        deadline_ms: u64,
    ) -> Result<Response, String> {
        let attempts = self.policy.max_attempts.max(1);
        for retry in 0..attempts {
            let seq = *self.next_seq.entry(tenant.to_string()).or_insert(1);
            let request_id = self.fresh_id();
            let frame = wire::encode_request(&Request::Apply {
                request_id,
                tenant: tenant.to_string(),
                deadline_ms,
                session_seq: seq,
                batch: batch.clone(),
            });
            let resp = self.deliver(&frame, request_id)?;
            // Whatever settled consumed the sequence.
            if let Some(s) = self.next_seq.get_mut(tenant) {
                *s += 1;
            }
            let retryable =
                resp.retry_after_ms > 0 || u32::from(resp.code) == CODE_DEADLINE_EXCEEDED;
            if resp.code == 0 || !retryable {
                if u32::from(resp.code) == CODE_SESSION {
                    return Err(format!("session protocol violation: {}", resp.detail));
                }
                return Ok(resp);
            }
            if retry + 1 == attempts {
                return Ok(resp);
            }
            self.report.retries += 1;
            let sleep = backoff_for(&self.policy, retry, resp.retry_after_ms, &mut self.rng);
            self.report.backoff_total += sleep;
            std::thread::sleep(sleep);
        }
        Err("retry budget exhausted".into())
    }

    /// Closes (evicts) `tenant` on the server.
    pub fn close_tenant(&mut self, tenant: &str) -> Result<Response, String> {
        let request_id = self.fresh_id();
        let frame = wire::encode_request(&Request::Close {
            request_id,
            tenant: tenant.to_string(),
        });
        self.deliver(&frame, request_id)
    }

    /// Asks the server to drain and shut down (best-effort, no retry —
    /// the server may be gone before the ack).
    pub fn shutdown_server(&mut self) -> Result<Response, String> {
        let request_id = self.fresh_id();
        let frame = wire::encode_request(&Request::Shutdown { request_id });
        if self.conn.is_none() {
            self.try_connect()?;
        }
        let Some(io) = self.conn.as_mut() else {
            return Err("not connected".into());
        };
        io.write(&frame).map_err(|e| format!("write: {e}"))?;
        let mut waited = Duration::ZERO;
        loop {
            let Some(io) = self.conn.as_mut() else {
                return Err("not connected".into());
            };
            match io.read() {
                Ok(Some(payload)) => {
                    if let Ok(resp) = wire::decode_response(&payload) {
                        if resp.request_id == request_id {
                            return Ok(resp);
                        }
                    }
                }
                Ok(None) => return Err("connection closed before shutdown ack".into()),
                Err(e) if e.is_timeout() => {
                    waited += self.tick;
                    if waited >= self.patience {
                        return Err("shutdown ack timed out".into());
                    }
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Drops the connection (the session survives server-side; a new
    /// client with the same session id resumes it).
    pub fn disconnect(&mut self) {
        self.drop_conn();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stream_is_deterministic_per_seed() {
        let mut a = 42u64;
        let mut b = 42u64;
        let first: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let second: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(first, second);
        let mut c = 43u64;
        let third: Vec<u64> = (0..8).map(|_| splitmix64(&mut c)).collect();
        assert_ne!(first, third);
    }

    #[test]
    fn default_policy_backoff_is_bounded() {
        let p = RetryPolicy::default();
        // base × 2^7 = 640ms hits the cap exactly; deeper retries must
        // not overflow or exceed it.
        let exp = p.base.saturating_mul(1u32 << 16).min(p.cap);
        assert_eq!(exp, p.cap);
    }
}
