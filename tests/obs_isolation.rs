//! Telemetry isolation suite for the handle-based `itrust-obs` API.
//!
//! Contract under test: an [`itrust_obs::ObsCtx`] is the *only* place a
//! run's telemetry lands. Two concurrent workloads with separate contexts
//! must produce disjoint registries (no cross-contamination through any
//! process-global state), and the null context must record nothing at all.

use escs::external::ExternalTimeline;
use escs::graph::Topology;
use escs::sim::{run, SimConfig};
use itrust_obs::ObsCtx;
use trustdb::store::{MemoryBackend, ObjectStore};

fn sim_config(seed: u64) -> SimConfig {
    SimConfig::with_defaults(Topology::metro(3), ExternalTimeline::quiet(), 600_000, seed)
}

fn store_workload(store: &ObjectStore<MemoryBackend>) {
    let mut digests = Vec::new();
    for i in 0..200u32 {
        digests.push(store.put(format!("isolation object {i}").into_bytes()).unwrap());
    }
    for d in &digests {
        store.get(d).unwrap();
    }
}

/// A simulation and a store workload on separate threads, each with its own
/// context: the two snapshots must cover disjoint metric-name sets, with
/// every metric attributed to the context whose workload produced it.
#[test]
fn concurrent_contexts_record_disjoint_registries() {
    let sim_ctx = ObsCtx::new();
    let store_ctx = ObsCtx::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            run(&sim_config(41), &sim_ctx);
        });
        scope.spawn(|| {
            let store = ObjectStore::new(MemoryBackend::new()).with_obs(store_ctx.clone());
            store_workload(&store);
        });
    });

    let sim = sim_ctx.snapshot();
    let store = store_ctx.snapshot();

    assert!(sim.counters["escs.sim.events_dispatched"] > 0);
    assert!(store.counters["trustdb.store.put_bytes"] > 0);
    assert_eq!(store.histograms["trustdb.store.put"].count, 200);

    // Disjointness: no metric name appears in both registries, and neither
    // context picked up the other workload's namespace.
    let sim_names: Vec<&str> = sim_ctx.metric_names();
    let store_names: Vec<&str> = store_ctx.metric_names();
    for name in &sim_names {
        assert!(!store_names.contains(name), "{name} leaked across contexts");
        assert!(name.starts_with("escs."), "unexpected metric {name} in sim context");
    }
    for name in &store_names {
        assert!(name.starts_with("trustdb."), "unexpected metric {name} in store context");
    }
}

/// Two simulations with separate contexts on separate threads: each context
/// sees exactly its own run's event count, not the sum.
#[test]
fn concurrent_sims_do_not_share_counters() {
    let a = ObsCtx::new();
    let b = ObsCtx::new();
    // Different durations so the two runs dispatch different event counts.
    let config_a = sim_config(7);
    let config_b = SimConfig::with_defaults(
        Topology::metro(3),
        ExternalTimeline::quiet(),
        1_200_000,
        7,
    );
    std::thread::scope(|scope| {
        scope.spawn(|| run(&config_a, &a));
        scope.spawn(|| run(&config_b, &b));
    });
    let count_a = a.snapshot().counters["escs.sim.events_dispatched"];
    let count_b = b.snapshot().counters["escs.sim.events_dispatched"];
    assert!(count_a > 0 && count_b > 0);
    assert!(
        count_b > count_a,
        "longer run must dispatch more events ({count_b} vs {count_a}) — equal or \
         inflated counts would mean shared state"
    );

    // Serial re-run into fresh contexts reproduces each count exactly.
    let fresh = ObsCtx::new();
    run(&config_a, &fresh);
    assert_eq!(fresh.snapshot().counters["escs.sim.events_dispatched"], count_a);
}

/// Two tenants on one sharded service share **no** telemetry state: each
/// tenant's isolated ObsCtx sees exactly its own operation counts and
/// latency samples, the service-level context sees the aggregate, and
/// mutating one tenant's registry never moves the other's.
#[test]
fn service_tenants_have_isolated_obs_registries() {
    use bytes::Bytes;
    use itrust_core::service::{Quota, ShardedConfig, ShardedStore};

    let service_ctx = ObsCtx::new();
    let store = ShardedStore::open(&ShardedConfig::in_memory(4), service_ctx.clone()).unwrap();
    let a = store.register_tenant("archive-a", Quota::unlimited()).unwrap();
    let b = store.register_tenant("archive-b", Quota::unlimited()).unwrap();

    for i in 0..10u32 {
        store.put("archive-a", &format!("k{i}"), Bytes::from(vec![1u8; 64]), i as u64).unwrap();
    }
    for i in 0..3u32 {
        store.put("archive-b", &format!("k{i}"), Bytes::from(vec![2u8; 64]), 100 + i as u64).unwrap();
    }
    store.get("archive-a", "k0").unwrap();

    let snap_a = a.obs().snapshot();
    let snap_b = b.obs().snapshot();
    // Each tenant sees exactly its own work — not the sum, not a share.
    assert_eq!(snap_a.counters["service.tenant.puts"], 10);
    assert_eq!(snap_b.counters["service.tenant.puts"], 3);
    assert_eq!(snap_a.counters["service.tenant.gets"], 1);
    assert!(!snap_b.counters.contains_key("service.tenant.gets"));
    // The service-level context aggregates across tenants but holds no
    // per-tenant names; tenant registries hold no service-level names.
    let service_snap = service_ctx.snapshot();
    assert_eq!(service_snap.counters["service.store.puts"], 13);
    for name in service_ctx.metric_names() {
        assert!(!name.starts_with("service.tenant."), "{name} leaked into the service ctx");
    }
    for name in a.obs().metric_names() {
        assert!(name.starts_with("service.tenant."), "unexpected {name} in a tenant ctx");
    }
    // Registries are live-isolated: more work for B must not move A.
    let a_before = a.obs().snapshot().counters;
    store.put("archive-b", "k99", Bytes::from(vec![3u8; 64]), 200).unwrap();
    assert_eq!(a.obs().snapshot().counters, a_before);
    assert_eq!(b.obs().snapshot().counters["service.tenant.puts"], 4);
}

/// The null context records nothing: no metrics register, snapshots stay
/// empty, and the instrumented code paths still run to completion.
#[test]
fn null_context_records_nothing() {
    let null = ObsCtx::null();
    let output = run(&sim_config(13), &null);
    assert!(!output.calls.is_empty());

    let store = ObjectStore::new(MemoryBackend::new()).with_obs(null.clone());
    store_workload(&store);

    assert!(null.is_null());
    assert!(null.metric_names().is_empty());
    let snap = null.snapshot();
    assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    assert!(null.span_path().is_empty());

    // Default-constructed contexts are null — library types that never get
    // `with_obs` stay silent.
    assert!(ObsCtx::default().is_null());
}
