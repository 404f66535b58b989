//! Serial-equivalence suite for the deterministic parallel substrate.
//!
//! Contract under test: every hot path that runs over `itrust_core::par`
//! produces **byte-identical** output with 1 thread and with 4 — the thread
//! count is a performance knob, never a semantic one. This is the property
//! that lets fixed-seed experiment artifacts stay reproducible on any
//! machine regardless of its core count.

use itrust_core::par;
use neural::layers::{conv2d_forward_naive, Conv2d, Layer};
use neural::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fixed-seed simulation → serialized SimOutput bytes must be identical.
#[test]
fn sim_output_bytes_identical_across_thread_counts() {
    use escs::external::ExternalTimeline;
    use escs::graph::Topology;
    use escs::sim::{run, SimConfig};
    let bytes = |threads: usize| {
        par::with_threads(threads, || {
            let duration = 1_800_000; // 30 min under surge: queues + overflow
            let config = SimConfig::with_defaults(
                Topology::metro(3),
                ExternalTimeline::disaster(duration),
                duration,
                2024,
            );
            serde_json::to_vec(&run(&config, &itrust_obs::ObsCtx::null())).unwrap()
        })
    };
    let serial = bytes(1);
    assert_eq!(bytes(4), serial);
    assert_eq!(bytes(2), serial);
}

fn conv_bits(threads: usize) -> Vec<Vec<u32>> {
    par::with_threads(threads, || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(3, 5, 3, 1, &mut rng);
        let x = Tensor::rand_uniform(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
        let gi = conv.backward(&g);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let (wg, bg) = {
            let params = conv.params_mut();
            (params[0].grad.clone(), params[1].grad.clone())
        };
        vec![bits(&y), bits(&gi), bits(&wg), bits(&bg)]
    })
}

/// Conv2d forward + backward (output, grad_in, grad_w, grad_b) must be
/// bit-identical across thread counts.
#[test]
fn conv2d_tensors_bit_identical_across_thread_counts() {
    let serial = conv_bits(1);
    assert_eq!(conv_bits(4), serial);
    assert_eq!(conv_bits(2), serial);
}

/// The blocked Conv2d forward also equals the retained naive reference
/// (the pre-parallel implementation) under f32 equality.
#[test]
fn conv2d_forward_equals_retained_naive_reference() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut conv = Conv2d::new(2, 4, 3, 1, &mut rng);
    let x = Tensor::rand_uniform(&[3, 2, 7, 7], -1.0, 1.0, &mut rng);
    let got = conv.forward(&x, false);
    let (wt, bt) = {
        let params = conv.params_mut();
        (params[0].value.clone(), params[1].value.clone())
    };
    let want = conv2d_forward_naive(&x, &wt, &bt, 3, 1);
    assert_eq!(got.shape(), want.shape());
    for (a, b) in got.data().iter().zip(want.data()) {
        assert!(a == b, "{a} != {b}");
    }
}

/// Multi-block store puts, hashed across the batch by `put_many`, must
/// produce identical digests at every thread count, all equal to the
/// serial one-shot SHA-256.
#[test]
fn store_digests_identical_across_thread_counts() {
    use trustdb::store::{MemoryBackend, ObjectStore};
    let payloads: Vec<Vec<u8>> = (0..4usize)
        .map(|i| (0..64 * 1024 + i * 31 + 5).map(|j| ((i + j) % 251) as u8).collect())
        .collect();
    let digests = |threads: usize| {
        par::with_threads(threads, || {
            let store = ObjectStore::new(MemoryBackend::new());
            store.put_many(payloads.clone()).unwrap()
        })
    };
    let serial = digests(1);
    assert_eq!(digests(4), serial);
    for (d, p) in serial.iter().zip(&payloads) {
        assert_eq!(*d, trustdb::hash::sha256(p));
    }
}

/// The multi-tenant service layer: a fixed-seed admission-controlled
/// workload (puts + gets from three tenants through the sharded executor,
/// with rate limiting and shedding engaged) must produce identical
/// per-shard fixity roots, audit chain lengths, telemetry counters, and
/// completion accounting at every thread count.
#[test]
fn service_shard_roots_and_counters_identical_across_thread_counts() {
    use bytes::Bytes;
    use itrust_core::service::{
        BucketConfig, ExecutorConfig, Quota, Request, ServiceExecutor, ShardedConfig, ShardedStore,
    };
    use itrust_obs::ObsCtx;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use trustdb::replica::{Clock, ManualClock};

    let run = |threads: usize| {
        par::with_threads(threads, || {
            let clock = Arc::new(ManualClock::new());
            let ctx = ObsCtx::new();
            let store =
                Arc::new(ShardedStore::open(&ShardedConfig::in_memory(5), ctx.clone()).unwrap());
            for name in ["alpha", "beta", "gamma"] {
                store.register_tenant(name, Quota::unlimited()).unwrap();
            }
            let exec = ServiceExecutor::new(
                store.clone(),
                clock.clone() as Arc<dyn Clock>,
                ExecutorConfig {
                    queue_capacity: 24,
                    bucket: BucketConfig { capacity: 8, refill_per_ms: 4 },
                    service_floor_ms: 1,
                    service_bytes_per_ms: 64,
                },
            );
            let mut rng = StdRng::seed_from_u64(99);
            let (mut accepted, mut shed, mut completed) = (0u64, 0u64, Vec::new());
            for wave in 0..60u64 {
                for i in 0..10u64 {
                    use rand::Rng;
                    let tenant = ["alpha", "beta", "gamma"][rng.gen_range(0..3usize)];
                    let key = format!("k{}", rng.gen_range(0..40u32));
                    let req = if rng.gen_range(0..10u32) < 7 {
                        Request::Put {
                            tenant: tenant.into(),
                            key,
                            payload: Bytes::from(vec![(wave * 10 + i) as u8; 80]),
                        }
                    } else {
                        Request::Get { tenant: tenant.into(), key }
                    };
                    match exec.submit(req) {
                        Ok(_) => accepted += 1,
                        Err(_) => shed += 1,
                    }
                }
                clock.advance_ms(1);
                for c in exec.tick() {
                    completed.push((c.seq, c.tenant.clone(), c.completed_ms, c.outcome.is_ok()));
                }
            }
            // Drain what the rate limiter deferred.
            while exec.queue_depth() > 0 {
                clock.advance_ms(1);
                for c in exec.tick() {
                    completed.push((c.seq, c.tenant.clone(), c.completed_ms, c.outcome.is_ok()));
                }
            }
            let roots: Vec<String> =
                store.fixity_roots().iter().map(|d| d.to_hex()).collect();
            let audit_lens: Vec<usize> =
                store.shards().iter().map(|s| s.audit_len()).collect();
            let snap = ctx.snapshot();
            let tenant_counters: BTreeMap<String, BTreeMap<String, u64>> = store
                .tenants()
                .iter()
                .map(|t| (t.name().to_string(), t.obs().snapshot().counters))
                .collect();
            (accepted, shed, completed, roots, audit_lens, snap.counters, tenant_counters)
        })
    };
    let serial = run(1);
    assert!(serial.1 > 0, "the rate limiter must actually shed in this workload");
    assert!(!serial.3.iter().all(|r| r == &serial.3[0]), "objects must spread across shards");
    assert_eq!(run(4), serial);
    assert_eq!(run(2), serial);
}

/// Telemetry counters and gauges are part of the deterministic surface:
/// the same fixed-seed workload must record identical counter values and
/// gauge high-water marks at every thread count. (Histograms time wall
/// clock, so only their observation *counts* are compared.)
#[test]
fn telemetry_counters_identical_across_thread_counts() {
    use escs::external::ExternalTimeline;
    use escs::graph::Topology;
    use escs::sim::{run, SimConfig};
    use itrust_obs::ObsCtx;
    use trustdb::store::{MemoryBackend, ObjectStore};

    let telemetry = |threads: usize| {
        par::with_threads(threads, || {
            let ctx = ObsCtx::new();
            let config = SimConfig::with_defaults(
                Topology::metro(3),
                ExternalTimeline::disaster(900_000),
                900_000,
                77,
            );
            run(&config, &ctx);
            let store = ObjectStore::new(MemoryBackend::new()).with_obs(ctx.clone());
            store
                .put_many((0..32usize).map(|i| vec![i as u8; 1024 + i]).collect::<Vec<_>>())
                .unwrap();
            let snap = ctx.snapshot();
            let hist_counts: Vec<(String, u64)> =
                snap.histograms.iter().map(|(k, h)| (k.clone(), h.count)).collect();
            (snap.counters, snap.gauges, hist_counts)
        })
    };
    let serial = telemetry(1);
    assert!(!serial.0.is_empty() && !serial.1.is_empty());
    assert_eq!(telemetry(4), serial);
    assert_eq!(telemetry(2), serial);
}
