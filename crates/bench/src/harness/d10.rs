//! D10 — multi-tenant service under closed-loop load: the Table 1 fond mix
//! replayed by thousands of simulated clients against the `itrust-service`
//! front end (hash-sharded store + per-tenant quotas + admission control).
//!
//! Four tenants drawn from the paper's Table 1 share one
//! [`ShardedStore`], with client populations proportional to the fonds'
//! relative sizes (Trademarks 30 : laws/decrees 15 : study-room
//! inventories 15 : photographic funds 2). Every client runs a closed
//! loop on the **virtual** clock: submit one request, wait for its
//! completion, think a seeded 15–45 virtual ms, repeat. The mix is ~80%
//! puts / 20% gets of the client's own earlier keys.
//!
//! The service pushes back and the clients react like real ones:
//!
//! * **shed** ([`trustdb::Error::Overloaded`], transient) → seeded
//!   exponential backoff and retry;
//! * **quota breach** ([`trustdb::Error::QuotaExceeded`], permanent) →
//!   the client switches to read-only for the rest of the run. The
//!   photographic tenant is given a deliberately tight object budget so
//!   this path actually fires.
//!
//! Latency is *virtual*: queue wait (admission backlog) plus a
//! deterministic service time (floor + size-proportional term), recorded
//! into each tenant's isolated `ObsCtx` histogram by the executor. The
//! report prints per-tenant throughput and p50/p99/p999 plus per-shard
//! holdings, and ends with a full fixity verification. Nothing in it
//! depends on wall time or thread count, so two runs at different
//! `ITRUST_THREADS` produce byte-identical output.

use itrust_service::{
    BucketConfig, ExecutorConfig, OpOutput, Quota, Request, ServiceExecutor, ShardedConfig,
    ShardedStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use trustdb::replica::{Clock, ManualClock};

/// The Table 1 fonds acting as tenants: (short name, paper TB weight).
/// Weights drive the client population split.
pub const TENANT_MIX: [(&str, u64); 4] = [
    ("trademarks", 30),   // Trademarks series (UIBM)
    ("decrees", 15),      // Official collection of laws and decrees
    ("inventories", 15),  // Digitised study room inventories
    ("photographic", 2),  // Various photographic funds
];

/// Load-test configuration (one run).
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Total simulated clients across all tenants.
    pub clients: usize,
    /// Shard count.
    pub shards: usize,
    /// Virtual run length in milliseconds (excluding the drain phase).
    pub duration_ms: u64,
    /// Token-bucket refill (admissions per virtual ms).
    pub rate_per_ms: u64,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Base seed for every client's schedule.
    pub seed: u64,
}

impl LoadConfig {
    /// The experiment's defaults: 1 240 clients, 8 shards, 3 s virtual.
    pub fn default_experiment() -> Self {
        LoadConfig {
            clients: 1_240,
            shards: 8,
            duration_ms: 3_000,
            rate_per_ms: 24,
            queue_capacity: 256,
            seed: 42,
        }
    }
}

/// Per-tenant result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant (fond) name.
    pub tenant: &'static str,
    /// Clients assigned to this tenant.
    pub clients: usize,
    /// Requests completed.
    pub ops: u64,
    /// Successful puts completed.
    pub puts: u64,
    /// Successful gets completed.
    pub gets: u64,
    /// Submissions shed by admission control.
    pub shed: u64,
    /// Puts rejected for quota breach.
    pub quota_rejected: u64,
    /// Completed ops per virtual second.
    pub ops_per_s: u64,
    /// Virtual latency percentiles (ms) from the tenant's isolated
    /// histogram: queue wait + service time.
    pub p50_ms: u64,
    /// 99th percentile.
    pub p99_ms: u64,
    /// 99.9th percentile.
    pub p999_ms: u64,
}

/// Per-shard result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRow {
    /// Shard index.
    pub shard: usize,
    /// Cataloged objects.
    pub objects: usize,
    /// Post-dedup payload bytes.
    pub bytes: u64,
    /// Audit chain length (ingests + the final fixity sweep).
    pub audit_len: usize,
    /// First 8 hex chars of the shard's fixity root.
    pub root: String,
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Per-tenant rows, in [`TENANT_MIX`] order.
    pub tenants: Vec<TenantRow>,
    /// Per-shard rows, in ring order.
    pub shards: Vec<ShardRow>,
    /// Virtual ms consumed including the drain phase.
    pub total_ms: u64,
    /// True when every shard swept clean and every audit chain verified.
    pub verified: bool,
}

struct Client {
    tenant_idx: usize,
    rng: StdRng,
    /// Virtual time of the next submission attempt.
    next_ms: u64,
    /// A request is in flight (closed loop: at most one).
    waiting: bool,
    /// Keys this client has successfully written (k0..kN-1).
    written: u64,
    /// Put key indices already claimed by an accepted submission.
    claimed: u64,
    /// Quota breached: reads only from here on.
    read_only: bool,
    /// Current shed backoff (ms), doubled per consecutive shed.
    backoff: u64,
}

impl Client {
    fn think(&mut self) -> u64 {
        self.rng.gen_range(15..46u64)
    }
}

/// Split `total` clients over [`TENANT_MIX`] proportionally to weight,
/// guaranteeing at least one client per tenant.
pub fn client_split(total: usize) -> Vec<usize> {
    let weight_sum: u64 = TENANT_MIX.iter().map(|(_, w)| w).sum();
    let mut split: Vec<usize> = TENANT_MIX
        .iter()
        .map(|(_, w)| ((total as u64 * w) / weight_sum).max(1) as usize)
        .collect();
    // Largest tenant absorbs the rounding remainder.
    let assigned: usize = split.iter().sum();
    if total > assigned {
        split[0] += total - assigned;
    }
    split
}

fn payload_for(client: usize, key_idx: u64) -> Vec<u8> {
    let len = 128 + ((client as u64 * 31 + key_idx * 17) % 1024) as usize;
    vec![(client as u64 ^ key_idx) as u8; len]
}

/// Run one closed-loop load test. Deterministic in `config` alone.
pub fn load_run(config: &LoadConfig, obs: &itrust_obs::ObsCtx) -> LoadOutcome {
    let clock = Arc::new(ManualClock::new());
    let store = Arc::new(
        ShardedStore::open(&ShardedConfig::in_memory(config.shards), obs.clone())
            .expect("shard count ≥ 1"),
    );
    let split = client_split(config.clients);
    for (i, (name, _)) in TENANT_MIX.iter().enumerate() {
        // The photographic fond gets a deliberately tight object budget so
        // the QuotaExceeded → read-only client path is exercised for real.
        let quota = if *name == "photographic" {
            Quota { max_objects: (split[i] as u64 * 2).max(4), max_bytes: u64::MAX }
        } else {
            Quota::unlimited()
        };
        store.register_tenant(*name, quota).expect("unique tenant names");
    }
    let exec = ServiceExecutor::new(
        store.clone(),
        clock.clone() as Arc<dyn Clock>,
        ExecutorConfig {
            queue_capacity: config.queue_capacity,
            bucket: BucketConfig { capacity: config.rate_per_ms * 2, refill_per_ms: config.rate_per_ms },
            service_floor_ms: 2,
            service_bytes_per_ms: 256,
        },
    );

    let mut clients: Vec<Client> = Vec::with_capacity(config.clients);
    for (tenant_idx, n) in split.iter().enumerate() {
        for j in 0..*n {
            let id = clients.len() as u64;
            clients.push(Client {
                tenant_idx,
                rng: StdRng::seed_from_u64(
                    config.seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
                // Stagger arrivals over the first think window.
                next_ms: (id * 7 + j as u64) % 30,
                waiting: false,
                written: 0,
                claimed: 0,
                read_only: false,
                backoff: 1,
            });
        }
    }

    let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
    let mut shed = vec![0u64; TENANT_MIX.len()];
    let mut quota_rejected = vec![0u64; TENANT_MIX.len()];
    let mut ops = vec![0u64; TENANT_MIX.len()];
    let mut puts = vec![0u64; TENANT_MIX.len()];
    let mut gets = vec![0u64; TENANT_MIX.len()];

    let mut process = |completions: Vec<itrust_service::Completion>,
                       clients: &mut Vec<Client>,
                       pending: &mut BTreeMap<u64, usize>| {
        for c in completions {
            let Some(cid) = pending.remove(&c.seq) else { continue };
            let client = &mut clients[cid];
            client.waiting = false;
            let think = client.think();
            client.next_ms = c.completed_ms + think;
            ops[client.tenant_idx] += 1;
            match &c.outcome {
                Ok(OpOutput::Put(_)) => {
                    client.written += 1;
                    puts[client.tenant_idx] += 1;
                }
                Ok(OpOutput::Get(_)) => gets[client.tenant_idx] += 1,
                Err(_) => {}
            }
        }
    };

    for t in 0..config.duration_ms {
        // Rotate the scan origin each tick so early client ids cannot
        // monopolize the admission queue (deterministic round-robin
        // fairness — without it the last tenants in id order starve).
        let origin = (t as usize).wrapping_mul(7919) % clients.len().max(1);
        for step in 0..clients.len() {
            let cid = (origin + step) % clients.len();
            let client = &mut clients[cid];
            if client.waiting || client.next_ms > t {
                continue;
            }
            let tenant = TENANT_MIX[client.tenant_idx].0;
            let do_put = !client.read_only
                && (client.written == 0 || client.rng.gen_range(0..100u32) < 80);
            let request = if do_put {
                let key_idx = client.claimed;
                Request::Put {
                    tenant: tenant.into(),
                    key: format!("c{cid:05}/k{key_idx}"),
                    payload: payload_for(cid, key_idx).into(),
                }
            } else if client.written > 0 {
                let key_idx = client.rng.gen_range(0..client.written);
                Request::Get { tenant: tenant.into(), key: format!("c{cid:05}/k{key_idx}") }
            } else {
                // Read-only with nothing written yet: idle out a think time.
                let think = client.think();
                client.next_ms = t + think;
                continue;
            };
            match exec.submit(request) {
                Ok(seq) => {
                    client.waiting = true;
                    client.backoff = 1;
                    if do_put {
                        client.claimed += 1;
                    }
                    pending.insert(seq, cid);
                }
                Err(e) if e.is_transient() => {
                    shed[client.tenant_idx] += 1;
                    client.backoff = (client.backoff * 2).min(16);
                    let jitter = client.rng.gen_range(0..4u64);
                    client.next_ms = t + client.backoff + jitter;
                }
                Err(_) => {
                    // QuotaExceeded: permanent — no retry can fix a budget.
                    quota_rejected[client.tenant_idx] += 1;
                    client.read_only = true;
                    let think = client.think();
                    client.next_ms = t + think;
                }
            }
        }
        process(exec.tick(), &mut clients, &mut pending);
        clock.advance_ms(1);
    }

    // Drain: no new submissions; let the bucket refill until the queue and
    // the in-flight set are empty.
    let mut drained = 0u64;
    while exec.queue_depth() > 0 {
        clock.advance_ms(1);
        process(exec.tick(), &mut clients, &mut pending);
        drained += 1;
        assert!(drained < 100_000, "admission queue failed to drain");
    }
    let total_ms = clock.now_ms();

    // Final integrity pass: every shard sweeps clean, every chain verifies.
    let reports = store.verify_all(total_ms + 1).expect("fixity sweep");
    let verified = reports.iter().all(|r| r.is_clean())
        && store.shards().iter().all(|s| s.audit().verify_chain().is_ok());

    let tenants = TENANT_MIX
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let t = store.tenant(name).expect("registered above");
            let snap = t.obs().snapshot();
            let hist = snap.histograms.get("service.tenant.request_ms");
            TenantRow {
                tenant: name,
                clients: split[i],
                ops: ops[i],
                puts: puts[i],
                gets: gets[i],
                shed: shed[i],
                quota_rejected: quota_rejected[i],
                ops_per_s: ops[i] * 1_000 / config.duration_ms.max(1),
                p50_ms: hist.map(|h| h.p50).unwrap_or(0),
                p99_ms: hist.map(|h| h.p99).unwrap_or(0),
                p999_ms: hist.map(|h| h.p999).unwrap_or(0),
            }
        })
        .collect();
    let shards = store
        .shards()
        .iter()
        .map(|s| ShardRow {
            shard: s.index(),
            objects: s.object_count(),
            bytes: s.payload_bytes(),
            audit_len: s.audit_len(),
            root: s.fixity_root().to_hex()[..8].to_string(),
        })
        .collect();
    LoadOutcome { tenants, shards, total_ms, verified }
}

/// Render the report (everything in it is virtual-time-derived).
pub fn format_report(config: &LoadConfig, outcome: &LoadOutcome) -> String {
    let mut out = format!(
        "D10 — multi-tenant service under closed-loop load (Table 1 fond mix)\n\
         {} clients, {} shards, {} virtual ms, {} admissions/ms, queue {}\n\n\
         tenant          clients      ops     puts     gets     shed   quota_rej   ops/s   p50   p99   p999\n",
        config.clients, config.shards, config.duration_ms, config.rate_per_ms, config.queue_capacity,
    );
    for r in &outcome.tenants {
        out.push_str(&format!(
            "{:<15} {:>7} {:>8} {:>8} {:>8} {:>8} {:>11} {:>7} {:>5} {:>5} {:>6}\n",
            r.tenant,
            r.clients,
            r.ops,
            r.puts,
            r.gets,
            r.shed,
            r.quota_rejected,
            r.ops_per_s,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
        ));
    }
    out.push_str("\nshard   objects      bytes   audit   root\n");
    for s in &outcome.shards {
        out.push_str(&format!(
            "{:>5} {:>9} {:>10} {:>7} {:>8}\n",
            s.shard, s.objects, s.bytes, s.audit_len, s.root
        ));
    }
    let total_ops: u64 = outcome.tenants.iter().map(|r| r.ops).sum();
    let total_shed: u64 = outcome.tenants.iter().map(|r| r.shed).sum();
    out.push_str(&format!(
        "\ntotal: {} ops in {} virtual ms ({} shed, {} quota-rejected), fixity {}\n",
        total_ops,
        outcome.total_ms,
        total_shed,
        outcome.tenants.iter().map(|r| r.quota_rejected).sum::<u64>(),
        if outcome.verified { "verified clean on every shard" } else { "FAILED" },
    ));
    out.push_str(
        "Latencies are virtual (admission queue wait + deterministic service time),\n\
         recorded per tenant in isolated ObsCtx histograms; the report is\n\
         byte-identical at any ITRUST_THREADS.\n",
    );
    out
}

/// Full experiment: closed-loop run at the default configuration → report.
pub fn run(obs: &itrust_obs::ObsCtx) -> (LoadOutcome, String) {
    let config = LoadConfig::default_experiment();
    let outcome = load_run(&config, obs);
    let report = format_report(&config, &outcome);
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> LoadConfig {
        LoadConfig {
            clients: 96,
            shards: 4,
            duration_ms: 400,
            rate_per_ms: 2,
            queue_capacity: 24,
            seed: 7,
        }
    }

    #[test]
    fn closed_loop_exercises_every_admission_path() {
        let cfg = smoke_config();
        let outcome = load_run(&cfg, &itrust_obs::ObsCtx::null());
        assert!(outcome.verified);
        let total_ops: u64 = outcome.tenants.iter().map(|r| r.ops).sum();
        let total_shed: u64 = outcome.tenants.iter().map(|r| r.shed).sum();
        let quota: u64 = outcome.tenants.iter().map(|r| r.quota_rejected).sum();
        assert!(total_ops > 100, "closed loop must make progress (got {total_ops})");
        assert!(total_shed > 0, "the rate limit must actually shed (got {total_shed})");
        assert!(quota > 0, "the photographic budget must actually fire (got {quota})");
        // Only the photographic tenant has a finite budget.
        for r in &outcome.tenants {
            if r.tenant != "photographic" {
                assert_eq!(r.quota_rejected, 0, "{} must not hit quota", r.tenant);
            }
        }
        // Latency percentiles are populated and ordered.
        for r in &outcome.tenants {
            assert!(r.ops > 0, "every tenant must complete work");
            assert!(r.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms);
            assert!(r.p50_ms > 0);
        }
        // Objects spread across all shards.
        assert!(outcome.shards.iter().all(|s| s.objects > 0));
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let cfg = smoke_config();
        let (a, b) = (
            itrust_par::with_threads(1, || {
                let o = load_run(&cfg, &itrust_obs::ObsCtx::null());
                format_report(&cfg, &o)
            }),
            itrust_par::with_threads(4, || {
                let o = load_run(&cfg, &itrust_obs::ObsCtx::null());
                format_report(&cfg, &o)
            }),
        );
        assert_eq!(a, b, "D10 report must not depend on thread count");
    }

    #[test]
    fn client_split_covers_all_tenants_and_sums() {
        for total in [4, 62, 100, 1_240] {
            let split = client_split(total);
            assert_eq!(split.len(), TENANT_MIX.len());
            assert!(split.iter().all(|n| *n >= 1));
            assert_eq!(split.iter().sum::<usize>(), total);
        }
        // The default experiment satisfies the acceptance floor.
        let split = client_split(1_240);
        assert_eq!(split.iter().sum::<usize>(), 1_240);
        assert!(split[0] > split[3], "weights must bias the population");
    }
}
