//! D9 — partition tolerance: availability and time-to-eventual-fixity vs
//! partition rate for 1, 2 and 3 replicas, with and without delay-tolerant
//! ingest.
//!
//! Each cell ingests N objects at one virtual millisecond per write while a
//! seeded schedule of network partitions severs replicas
//! ([`trustdb::antientropy::PartitionedBackend`] driven by
//! [`FaultPlan::partition_between`]). The timeline is split into three equal
//! segments per replica; in each segment a window of `segment × rate`
//! milliseconds is severed at a seeded offset, so windows on different
//! replicas overlap more as the rate grows and quorum is lost for real
//! stretches of the run.
//!
//! Two ingest modes per cell:
//!
//! * **plain** — writes go straight to the quorum store; a write that cannot
//!   reach majority is rejected (availability drops with the partition rate).
//! * **dtn** — writes go through [`DelayTolerantIngest`]: when quorum is
//!   unreachable the write lands in a durable per-replica intent log and is
//!   accepted, keeping availability at 1.0.
//!
//! After the storm every link heals. DTN cells replay their intent logs in
//! deterministic global order; merkle-diff gossip ([`AntiEntropy`])
//! converges replica membership (partial quorum writes left divergent
//! holdings); then a seeded bit-rot storm corrupts a fraction of at-rest
//! copies and a [`FixityAuditor::sweep_and_repair`] pass rewrites them from
//! surviving peers. The cell reports availability, reconcile
//! volume, gossip rounds/comparisons/transfers (time-to-eventual-fixity in
//! deterministic units), repair counts, survival, and the shared post-heal
//! merkle root. Nothing in the report depends on wall time or thread count,
//! so two runs at different `ITRUST_THREADS` produce byte-identical output.

use std::path::PathBuf;
use std::sync::Arc;
use trustdb::antientropy::{AntiEntropy, DelayTolerantIngest, IntentLog, PartitionedBackend};
use trustdb::audit::AuditLog;
use trustdb::fault::{FaultPlan, FaultyBackend};
use trustdb::fixity::FixityAuditor;
use trustdb::hash::sha256;
use trustdb::replica::{BreakerConfig, Clock, ManualClock, ReplicatedBackend, RetryPolicy};
use trustdb::store::{Backend, MemoryBackend, ObjectStore};

/// Ingest discipline for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Quorum-or-reject writes, no intent logs.
    Plain,
    /// Delay-tolerant: defer to a durable intent log when quorum is lost.
    Dtn,
}

impl IngestMode {
    fn label(self) -> &'static str {
        match self {
            IngestMode::Plain => "plain",
            IngestMode::Dtn => "dtn",
        }
    }
}

/// One cell of the partition sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCell {
    /// Replica count.
    pub replicas: usize,
    /// Fraction of each timeline segment spent severed, per replica.
    pub partition_rate: f64,
    /// Ingest discipline.
    pub mode: IngestMode,
    /// Logical objects offered for ingest.
    pub objects: usize,
    /// Writes accepted (quorum or deferred).
    pub accepted: u64,
    /// Writes accepted on the deferred (intent-log) path.
    pub deferred: u64,
    /// Writes rejected outright.
    pub rejected: u64,
    /// accepted / (accepted + rejected).
    pub availability: f64,
    /// Intents replayed into the quorum store on heal.
    pub applied: usize,
    /// Gossip rounds until replica membership converged.
    pub gossip_rounds: usize,
    /// Merkle node comparisons spent locating divergence.
    pub comparisons: usize,
    /// Object copies transferred by gossip.
    pub transferred: usize,
    /// At-rest copies hit by the post-heal bit-rot storm.
    pub rotted_copies: usize,
    /// Objects restored by the fixity sweep.
    pub repaired: usize,
    /// Objects with no verifiable copy left — data loss.
    pub lost: usize,
    /// Fraction of stored objects served after repair.
    pub survival: f64,
    /// Whether all replicas ended on one merkle root.
    pub converged: bool,
    /// First 8 hex chars of the shared post-heal root.
    pub root: String,
}

/// Seeded, schedule-stable offset for one partition window.
fn window_offset(seed: u64, replica: usize, segment: u64, span: u64) -> u64 {
    let mut msg = [0u8; 24];
    msg[..8].copy_from_slice(&seed.to_le_bytes());
    msg[8..16].copy_from_slice(&(replica as u64).to_le_bytes());
    msg[16..].copy_from_slice(&segment.to_le_bytes());
    let h = sha256(&msg);
    let mut word = [0u8; 8];
    word.copy_from_slice(&h.0[..8]);
    u64::from_le_bytes(word) % span.max(1)
}

/// Three seeded partition windows for one replica, each confined to its own
/// third of the timeline so a single replica is never severed for one long
/// contiguous stretch.
fn partition_plan(seed: u64, replica: usize, rate: f64, timeline_ms: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed + replica as u64);
    let seg = timeline_ms / 3;
    let win = (seg as f64 * rate) as u64;
    if win == 0 {
        return plan;
    }
    for s in 0..3u64 {
        let off = window_offset(seed, replica, s, seg - win + 1);
        let start = s * seg + off;
        plan = plan.partition_between(start, start + win);
    }
    plan
}

fn intent_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("trustdb-d9-intent-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Run one partition storm: ingest under a partition schedule, heal,
/// reconcile (DTN only), rot, gossip to convergence, sweep, measure.
pub fn storm_run(
    replicas: usize,
    objects: usize,
    partition_rate: f64,
    rot_rate: f64,
    mode: IngestMode,
    seed: u64,
    obs: &itrust_obs::ObsCtx,
) -> PartitionCell {
    let clock = Arc::new(ManualClock::new());
    let timeline_ms = objects as u64; // one virtual millisecond per write
    let links: Vec<Arc<PartitionedBackend<FaultyBackend<MemoryBackend>>>> = (0..replicas)
        .map(|i| {
            // The Faulty layer injects no live faults here; it carries the
            // seeded bit-rot storm applied after heal.
            let inner = FaultyBackend::new(MemoryBackend::new(), FaultPlan::new(seed + 100 + i as u64))
                .with_obs(obs.clone());
            Arc::new(
                PartitionedBackend::new(inner, i, clock.clone() as Arc<dyn Clock>)
                    .with_plan(&partition_plan(seed, i, partition_rate, timeline_ms))
                    .with_obs(obs.clone()),
            )
        })
        .collect();
    let dyns: Vec<Arc<dyn Backend>> = links.iter().map(|l| l.clone() as Arc<dyn Backend>).collect();
    let backend = ReplicatedBackend::new(dyns)
        .with_clock(clock.clone())
        .with_retry(RetryPolicy { max_attempts: 2, base_backoff_ms: 1, max_backoff_ms: 4 })
        .with_breaker(BreakerConfig { failure_threshold: 4, cooldown_ms: 8 })
        .with_seed(seed)
        .with_obs(obs.clone());
    let store = ObjectStore::new(backend).with_obs(obs.clone());

    let log_paths: Vec<PathBuf> = (0..replicas)
        .map(|i| intent_path(&format!("{replicas}r-{}p-{}-{i}", (partition_rate * 100.0) as u64, mode.label())))
        .collect();
    let dti = match mode {
        IngestMode::Plain => None,
        IngestMode::Dtn => {
            let logs: Vec<IntentLog> = log_paths
                .iter()
                .map(|p| IntentLog::open(p, obs.clone()).expect("open intent log"))
                .collect();
            Some(DelayTolerantIngest::new(&store, links.iter().cloned().zip(logs).collect(), seed))
        }
    };

    // The storm: one write per virtual millisecond while the partition
    // schedule severs and heals links underneath the quorum.
    let (mut plain_accepted, mut plain_rejected) = (0u64, 0u64);
    for i in 0..objects {
        clock.advance_ms(1);
        let payload =
            format!("d9 archival holding {seed}/{i} payload {}", "x".repeat(i % 97)).into_bytes();
        match &dti {
            Some(d) => {
                let _ = d.put(payload);
            }
            None => match store.put(payload) {
                Ok(_) => plain_accepted += 1,
                Err(_) => plain_rejected += 1,
            },
        }
    }
    let (accepted, deferred, rejected, availability) = match &dti {
        Some(d) => (d.accepted(), d.deferred(), d.rejected(), d.availability()),
        None => {
            let total = plain_accepted + plain_rejected;
            let avail = if total == 0 { 1.0 } else { plain_accepted as f64 / total as f64 };
            (plain_accepted, 0, plain_rejected, avail)
        }
    };

    // Heal: drain any still-queued schedule events, force every link up, and
    // let the breaker cooldowns expire on the virtual clock.
    clock.advance_ms(timeline_ms + 16);
    for l in &links {
        let _ = l.is_severed();
        l.rejoin();
    }
    clock.advance_ms(100);

    let audit = AuditLog::new();
    let applied = match &dti {
        Some(d) => {
            let report =
                d.reconcile(&audit, "d9-dtn-daemon", clock.now_ms()).expect("reconcile intents");
            assert_eq!(report.failed, 0, "healed quorum must accept every pending intent");
            report.applied
        }
        None => 0,
    };

    // Gossip membership back together first: partial quorum writes during
    // the storm left divergent holdings, and the merkle-diff sweeps locate
    // and copy exactly the missing objects.
    clock.advance_ms(1);
    let gossip = AntiEntropy::new(&store, &audit, "d9-gossip");
    let g = gossip.run(clock.now_ms(), 8).expect("gossip run");

    // Then the bit-rot storm: each replica loses an independent seeded
    // slice of its at-rest copies (distinct FaultPlan seeds per replica).
    // Rot corrupts payloads but removes nothing from the listings, so
    // membership stays converged; the fixity sweep rewrites every rotted
    // copy that still has a healthy peer.
    let rotted_copies: usize =
        links.iter().map(|l| l.local().corrupt_fraction(rot_rate).len()).sum();
    clock.advance_ms(1);
    let auditor = FixityAuditor::new(&store, &audit, "d9-fixity-daemon");
    let sweep = auditor.sweep_and_repair(clock.now_ms()).expect("fixity sweep");
    audit.verify_chain().expect("repair history must keep the audit chain intact");

    let converged = gossip.converged();
    let root = if converged {
        gossip.roots()[0].to_hex()[..8].to_string()
    } else {
        "diverged".to_string()
    };
    for p in &log_paths {
        std::fs::remove_file(p).ok();
    }
    PartitionCell {
        replicas,
        partition_rate,
        mode,
        objects,
        accepted,
        deferred,
        rejected,
        availability,
        applied,
        gossip_rounds: g.rounds,
        comparisons: g.comparisons,
        transferred: g.transferred,
        rotted_copies,
        repaired: sweep.repaired.len(),
        lost: sweep.unrecoverable.len(),
        survival: sweep.survival_ratio(),
        converged,
        root,
    }
}

/// Base seed of the storm cells.
pub const SEED: u64 = 42;

/// Full experiment: availability and post-heal convergence vs partition
/// rate for 1–3 replicas, plain vs delay-tolerant ingest. 400 objects per
/// cell; the post-heal bit-rot storm hits 5% of at-rest copies.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<PartitionCell>, String) {
    let (objects, rot) = (400, 0.05);
    let mut rows = Vec::new();
    for replicas in 1..=3usize {
        for (ri, &rate) in [0.0, 0.10, 0.25, 0.50].iter().enumerate() {
            for mode in [IngestMode::Plain, IngestMode::Dtn] {
                rows.push(storm_run(
                    replicas,
                    objects,
                    rate,
                    rot,
                    mode,
                    SEED + replicas as u64 * 1_000 + ri as u64 * 10,
                    obs,
                ));
            }
        }
    }

    let mut out = String::from(
        "D9 — partition tolerance (availability during partitions, convergence after heal)\n\
         replicas   part rate   mode   objects   accepted   deferred   rejected   avail   applied   rounds   cmp   xfer   rotted   repaired   lost   survival   root\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>8} {:>11.2} {:>6} {:>9} {:>10} {:>10} {:>10} {:>7.4} {:>9} {:>8} {:>5} {:>6} {:>8} {:>10} {:>6} {:>10.4} {:>10}\n",
            r.replicas,
            r.partition_rate,
            r.mode.label(),
            r.objects,
            r.accepted,
            r.deferred,
            r.rejected,
            r.availability,
            r.applied,
            r.gossip_rounds,
            r.comparisons,
            r.transferred,
            r.rotted_copies,
            r.repaired,
            r.lost,
            r.survival,
            r.root,
        ));
    }
    out.push('\n');
    out.push_str("Delay-tolerant ingest keeps availability at 1.0 through every partition by\n");
    out.push_str("deferring to durable intent logs; plain quorum ingest rejects writes whenever\n");
    out.push_str("a majority is severed. After heal, intent replay + merkle-diff gossip converge\n");
    out.push_str("all replicas to one root, and the fixity sweep repairs the bit-rot storm.\n");
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtn_stays_available_while_plain_degrades() {
        let obs = itrust_obs::ObsCtx::null();
        let plain = storm_run(1, 200, 0.5, 0.0, IngestMode::Plain, 7, &obs);
        let dtn = storm_run(1, 200, 0.5, 0.0, IngestMode::Dtn, 7, &obs);
        assert!(
            plain.availability < 0.8,
            "half the timeline severed must reject plain writes (got {})",
            plain.availability
        );
        assert!((dtn.availability - 1.0).abs() < 1e-12, "dtn accepts every write");
        assert!(dtn.deferred > 0, "some writes must have taken the intent-log path");
        assert_eq!(dtn.applied as u64, dtn.deferred, "every deferred write replays on heal");
    }

    #[test]
    fn post_heal_gossip_converges_and_repairs_rot() {
        let cell = storm_run(3, 150, 0.25, 0.05, IngestMode::Dtn, 11, &itrust_obs::ObsCtx::null());
        assert!(cell.converged, "three replicas must share one merkle root after gossip");
        assert_ne!(cell.root, "diverged");
        assert!(cell.survival >= 0.99, "rot on 3 replicas rarely kills all copies");
        assert!(cell.rotted_copies > 0, "the rot storm must actually bite");
    }

    #[test]
    fn storm_is_deterministic_per_seed() {
        let a = storm_run(2, 120, 0.25, 0.05, IngestMode::Dtn, 13, &itrust_obs::ObsCtx::null());
        let b = storm_run(2, 120, 0.25, 0.05, IngestMode::Dtn, 13, &itrust_obs::ObsCtx::null());
        assert_eq!(a, b, "identical seed must reproduce the whole cell");
    }
}
