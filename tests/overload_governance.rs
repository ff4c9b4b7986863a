//! Overload governance from the client's side of the wire: the
//! retry-after hints a saturated server hands out must be **monotone**
//! under sustained pressure (each consecutive rejection backs the
//! client off at least as far as the last — no oscillation a client
//! could exploit or be confused by), and a **compliant client** — one
//! that honors the hints via `submit_with_retry` — must eventually get
//! its batch applied once the pressure clears: governance degrades
//! service, it never livelocks it.

use dynfd_core::DynFdConfig;
use dynfd_relation::Batch;
use dynfd_serve::{
    submit_with_retry, AdmissionPolicy, RetryPolicy, ServeConfig, ServeEngine, ServeError,
    TenantQuota,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A one-row insert batch over the anonymous 2-column schema.
fn tiny_batch(k: u64) -> Batch {
    let mut batch = Batch::new();
    batch.insert(vec![format!("a{k}"), format!("b{}", k % 3)]);
    batch
}

/// A paused single-slot engine with one tenant open: the first
/// admitted job plugs the gate, and every further submission is
/// governed traffic.
fn plugged_engine() -> ServeEngine {
    let engine = ServeEngine::new(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        policy: AdmissionPolicy::Shed,
        root: None,
        quota: TenantQuota::default(),
        ..ServeConfig::default()
    });
    engine.pause();
    engine
        .open_tenant("t", dynfd_common::Schema::anonymous("t", 2), &[])
        .expect("open tenant");
    engine
        .submit("t", 1, tiny_batch(0), |_| {})
        .expect("the first job must be admitted into the empty gate");
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sustained overload: every rejection's hint is at least the
    /// previous one, the hint actually escalates, and it is capped.
    #[test]
    fn retry_hints_monotone_under_sustained_overload(rejections in 3u64..24) {
        let engine = plugged_engine();
        let mut hints = Vec::new();
        for i in 0..rejections {
            match engine.submit("t", 2 + i, tiny_batch(i), |_| {}) {
                Err(ServeError::Overloaded { retry_after_ms, .. }) => hints.push(retry_after_ms),
                other => {
                    return Err(TestCaseError::fail(format!(
                        "paused full gate must shed, got {other:?}"
                    )))
                }
            }
        }
        prop_assert_eq!(hints.len() as u64, rejections);
        prop_assert!(
            hints.windows(2).all(|w| w[1] >= w[0]),
            "hints must be monotone: {:?}",
            hints
        );
        prop_assert!(
            hints.last() > hints.first(),
            "sustained pressure must escalate the hint: {:?}",
            hints
        );
        prop_assert!(
            hints.iter().all(|&h| h > 0 && h <= 1280),
            "hints must stay within the documented cap: {:?}",
            hints
        );
        engine.shutdown();
    }

    /// Pressure clears mid-retry: a compliant client backing off on the
    /// server's hints eventually succeeds — no livelock, no starvation.
    #[test]
    fn compliant_client_succeeds_once_pressure_clears(
        seed in 0u64..1_000_000,
        clear_after_ms in 5u64..40,
    ) {
        let engine = Arc::new(plugged_engine());
        // Burn a few rejections so the client starts against a standing
        // streak, not a fresh one.
        for i in 0..4u64 {
            let _ = engine.submit("t", 100 + i, tiny_batch(i), |_| {});
        }
        let unplug = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(clear_after_ms));
                engine.resume();
            })
        };
        let policy = RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(100),
            max_attempts: 16,
            seed,
        };
        let report = submit_with_retry(&engine, "t", 500, &tiny_batch(99), None, &policy);
        unplug.join().expect("unplug thread");
        prop_assert!(
            report.succeeded(),
            "compliant client must succeed after pressure clears: {:?} ({} attempts, hints {:?})",
            report.outcome,
            report.attempts,
            report.hints_ms
        );
        prop_assert!(
            report.hints_ms.windows(2).all(|w| w[1] >= w[0]),
            "hints observed by one client must be monotone: {:?}",
            report.hints_ms
        );
        engine.quiesce();
        let engine = Arc::try_unwrap(engine)
            .map_err(|_| TestCaseError::fail("engine still shared"))?;
        engine.shutdown();
    }
}

/// A tenant whose engine runs without a PLI cache has nothing for the
/// degradation ladder to squeeze or drop: over its byte quota it is
/// refused with code 17 straight away, and no degradation step is
/// counted for it or for the pool.
#[test]
fn uncached_tenant_over_quota_is_refused_without_degrading() {
    let engine = ServeEngine::new(ServeConfig {
        workers: 1,
        root: None,
        engine: DynFdConfig {
            pli_cache_bytes: 0,
            ..DynFdConfig::default()
        },
        quota: TenantQuota {
            max_resident_bytes: Some(1),
            max_cpu: None,
        },
        ..ServeConfig::default()
    });
    engine
        .open_tenant("t", dynfd_common::Schema::anonymous("t", 2), &[])
        .expect("open tenant");
    for i in 0..4u64 {
        match engine.submit("t", 1 + i, tiny_batch(i), |_| {}) {
            Err(e @ ServeError::QuotaExceeded { .. }) => assert_eq!(e.wire_code(), 17),
            other => panic!("an over-quota tenant must be refused with code 17, got {other:?}"),
        }
    }
    assert_eq!(engine.metrics("t").expect("tenant metrics").degrades, 0);
    assert_eq!(engine.global_metrics().totals.degrades, 0);
    engine.shutdown();
}
