//! D11 — provenance ledger: custody proofs vs ledger size, witness quorum
//! under partition, and the one-event-type round trip.
//!
//! The paper's trust argument needs custody histories that verify without
//! trusting the custodian. This experiment drives the `itrust-ledger`
//! crate end to end at several ledger sizes:
//!
//! 1. **Proof cost vs size.** For each size, append that many synthetic
//!    events, cut four evenly spaced signed checkpoints, and collect
//!    witness countersignatures over partition-aware replica links after
//!    each cut (one witness is severed during the second round and caught
//!    up afterwards — the partition path runs for real). Then sample
//!    event indices, build [`itrust_ledger::CustodyProof`]s with the
//!    order-preserving `itrust_par::par_map`, verify every one at the
//!    witness quorum, and record the merkle path lengths. The report pins
//!    `max_path ≤ ⌈log2(size)⌉` — the O(log n) claim, measured, at every
//!    size up to a million events.
//! 2. **Unified event API round trip.** A `trustdb::audit::AuditLog`, an
//!    `archival_core::provenance::ProvenanceChain`, and an
//!    `itrust-service` sharded store each produce events through their
//!    own legacy surface; all three merge into one fresh ledger via
//!    `ingest` / `export_to_ledger`, one event from each source is proven
//!    and verified, and the merged ledger passes its full audit.
//!
//! Everything in the report is derived from seeded RNG, virtual
//! timestamps, and hash arithmetic — no wall time — so two runs at
//! different `ITRUST_THREADS` produce byte-identical output. Wall-clock
//! proof latency still lands in the telemetry snapshot (the
//! `ledger.prove` span histogram), where benchdiff gates it with the
//! wide d9/d10 band.

use std::sync::Arc;

use itrust_ledger::{Keyring, Ledger, SecretKey, Witness, WitnessExchange};
use itrust_service::{Quota, ShardedStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trustdb::antientropy::PartitionedBackend;
use trustdb::event::{EventKind, LedgerEvent};
use trustdb::store::MemoryBackend;
use trustdb::{Clock, ManualClock};

/// Witness replica count (quorum = 2 of 3).
pub const WITNESSES: usize = 3;
/// Checkpoints cut per ledger size (evenly spaced).
pub const CHECKPOINTS: usize = 4;

/// Ledger experiment configuration (one run).
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// Ledger sizes to sweep (events appended per ledger).
    pub sizes: Vec<usize>,
    /// Custody proofs sampled, built, and verified per size.
    pub proofs: usize,
    /// Seed for the proof-index sampler.
    pub seed: u64,
}

impl LedgerConfig {
    /// The experiment's defaults: 10k / 100k / 1M events, 64 proofs each.
    pub fn default_experiment() -> Self {
        LedgerConfig { sizes: vec![10_000, 100_000, 1_000_000], proofs: 64, seed: 42 }
    }
}

/// Per-size result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeRow {
    /// Events appended.
    pub events: usize,
    /// Checkpoints cut.
    pub checkpoints: usize,
    /// Endorsements per checkpoint, append order (e.g. "3/2/3/3").
    pub endorsements: String,
    /// Witness round-trips skipped because the link was severed.
    pub unreachable: usize,
    /// Custody proofs built and verified at the witness quorum.
    pub proofs: usize,
    /// Longest merkle path over all sampled proofs (hash ops to verify).
    pub max_path: usize,
    /// Mean merkle path length, in tenths (deterministic integer).
    pub mean_path_tenths: usize,
    /// The O(log n) bound the row must stay under.
    pub log2_ceil: usize,
    /// First 8 hex chars of the final checkpoint's events root.
    pub root: String,
    /// Full ledger audit passed and every proof verified.
    pub verified: bool,
}

/// One legacy source merged in the round-trip section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeRow {
    /// Source surface.
    pub source: &'static str,
    /// Events contributed.
    pub events: u64,
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerOutcome {
    /// Per-size rows, in configured order.
    pub sizes: Vec<SizeRow>,
    /// Round-trip contributions, audit log / provenance chain / store.
    pub merged: Vec<MergeRow>,
    /// Events in the merged ledger.
    pub merged_total: u64,
    /// First 8 hex chars of the merged ledger's head hash.
    pub merged_head: String,
    /// Merged ledger audit + per-source proofs all passed.
    pub merged_verified: bool,
}

fn ring() -> Keyring {
    let mut ring = Keyring::new().with("custodian", SecretKey::derive("custodian"));
    for w in 1..=WITNESSES {
        let id = format!("w{w}");
        ring.insert(id.clone(), SecretKey::derive(&id));
    }
    ring
}

/// Deterministic synthetic event stream: kinds and actors cycle, subjects
/// spread over a fixed population so the subject index gets real fan-in.
fn fill(ledger: &Ledger, n: usize, t0: u64) {
    const KINDS: [EventKind; 5] = [
        EventKind::Ingest,
        EventKind::FixityCheck,
        EventKind::Access,
        EventKind::Migration,
        EventKind::Repair,
    ];
    const ACTORS: [&str; 3] = ["ingestd", "auditor", "migrator"];
    for i in 0..n {
        ledger
            .append(
                LedgerEvent::builder(KINDS[i % KINDS.len()])
                    .at(t0 + i as u64)
                    .actor(ACTORS[i % ACTORS.len()])
                    .subject(format!("rec-{}", i % 997))
                    .outcome("success"),
            )
            .expect("timestamps are non-decreasing by construction");
    }
}

/// One size sweep: append, checkpoint + witness rounds, sampled proofs.
fn size_run(size: usize, config: &LedgerConfig, obs: &itrust_obs::ObsCtx) -> SizeRow {
    let ledger = Ledger::new("d11", "custodian", ring()).with_obs(obs.clone());
    let clock = Arc::new(ManualClock::new());
    let mut exchange = WitnessExchange::new().with_obs(obs.clone());
    let mut links = Vec::with_capacity(WITNESSES);
    for w in 0..WITNESSES {
        let link = Arc::new(PartitionedBackend::new(
            MemoryBackend::new(),
            w,
            clock.clone() as Arc<dyn Clock>,
        ));
        exchange.register(Witness::new(format!("w{}", w + 1), ring()), link.clone());
        links.push(link);
    }

    let t0 = 1_000u64;
    let mut endorsements = Vec::with_capacity(CHECKPOINTS);
    let mut unreachable = 0usize;
    let mut appended = 0usize;
    for round in 0..CHECKPOINTS {
        // Evenly spaced cuts; the last one covers every event.
        let upto = (size * (round + 1)) / CHECKPOINTS;
        fill(&ledger, upto - appended, t0 + appended as u64);
        appended = upto;
        let cp_ts = t0 + size as u64 + round as u64;
        ledger.checkpoint(cp_ts).expect("each cut covers new events");
        // The second round runs under a partition: one witness is severed
        // and must be caught up by later rounds (for later checkpoints).
        if round == 1 {
            links[1].sever();
        } else {
            links[1].rejoin();
        }
        let report = exchange.collect(&ledger).expect("collection rounds never fail");
        endorsements.push(report.endorsements.to_string());
        unreachable += report.unreachable;
    }

    // Sample event indices and build/verify custody proofs in parallel.
    // par_map preserves order, so the path-length stats are deterministic.
    let mut rng = StdRng::seed_from_u64(config.seed ^ size as u64);
    let seqs: Vec<u64> = (0..config.proofs).map(|_| rng.gen_range(0..size as u64)).collect();
    let quorum = exchange.quorum_size();
    let proofs = itrust_par::par_map(&seqs, |&seq| {
        ledger.prove(seq).expect("every event is covered by the final checkpoint")
    });
    let verified_proofs = itrust_par::par_map(&proofs, |p| {
        p.verify(ledger.name(), ledger.keyring(), quorum).is_ok()
    });
    let max_path = proofs.iter().map(|p| p.inclusion.path.len()).max().unwrap_or(0);
    let sum_path: usize = proofs.iter().map(|p| p.inclusion.path.len()).sum();
    let log2_ceil = (usize::BITS - (size - 1).leading_zeros()) as usize;
    assert!(
        max_path <= log2_ceil,
        "proof path blew the O(log n) bound: {max_path} > {log2_ceil} at size {size}"
    );

    let root = ledger
        .latest_checkpoint()
        .expect("checkpoints were cut")
        .checkpoint
        .events_root
        .to_hex()[..8]
        .to_string();
    let verified = ledger.verify().is_ok() && verified_proofs.iter().all(|v| *v);
    SizeRow {
        events: size,
        checkpoints: ledger.checkpoint_count(),
        endorsements: endorsements.join("/"),
        unreachable,
        proofs: proofs.len(),
        max_path,
        mean_path_tenths: sum_path * 10 / proofs.len().max(1),
        log2_ceil,
        root,
        verified,
    }
}

/// The unified-API round trip: three legacy surfaces, one ledger.
fn merge_run(obs: &itrust_obs::ObsCtx) -> (Vec<MergeRow>, u64, String, bool) {
    let ledger = Ledger::new("d11-merged", "custodian", ring()).with_obs(obs.clone());

    // Legacy surface 1: the flat audit log.
    let audit = trustdb::audit::AuditLog::new();
    audit.append(10, "op", EventKind::Ingest, "obj-1", "accessioned").expect("ts ordered");
    audit.append(11, "op", EventKind::FixityCheck, "obj-1", "clean").expect("ts ordered");
    audit.append(12, "op", EventKind::Repair, "obj-2", "healed").expect("ts ordered");
    let from_audit = ledger.ingest(audit.export().iter()).expect("ordered ingest");

    // Legacy surface 2: a per-record provenance chain.
    let mut chain = archival_core::provenance::ProvenanceChain::new("rec-7");
    chain.append(20, "author", EventKind::Creation, "created", "born digital").expect("ordered");
    chain.append(21, "archive", EventKind::Transfer, "custody", "accessioned").expect("ordered");
    chain.append(22, "model", EventKind::AiDecision, "described", "p=0.93").expect("ordered");
    let from_chain = chain.export_to_ledger(&ledger).expect("verified chain exports");

    // Legacy surface 3: the sharded store's per-shard audit chains.
    let store = ShardedStore::in_memory(2).expect("shard count ≥ 1");
    store.register_tenant("alpha", Quota::unlimited()).expect("unique tenant");
    store.register_tenant("beta", Quota::unlimited()).expect("unique tenant");
    for (i, (tenant, key)) in
        [("alpha", "k0"), ("beta", "k0"), ("alpha", "k1"), ("beta", "k1")].iter().enumerate()
    {
        store
            .put(tenant, key, vec![i as u8; 64 + i].into(), 30 + i as u64)
            .expect("puts fit the quota");
    }
    let from_store = store.export_to_ledger(&ledger, None).expect("ordered export");

    // One checkpoint covers the merged history; prove one event per source.
    ledger.checkpoint(100).expect("merged ledger is non-empty");
    let probe = [0u64, from_audit, from_audit + from_chain];
    let proofs_ok = probe.iter().all(|&seq| {
        ledger
            .prove(seq)
            .and_then(|p| p.verify(ledger.name(), ledger.keyring(), 0))
            .is_ok()
    });
    let merged = vec![
        MergeRow { source: "trustdb audit log", events: from_audit },
        MergeRow { source: "provenance chain", events: from_chain },
        MergeRow { source: "sharded store", events: from_store },
    ];
    let total = ledger.len() as u64;
    let head = ledger.head().to_hex()[..8].to_string();
    let verified = ledger.verify().is_ok() && proofs_ok;
    (merged, total, head, verified)
}

/// Run the full experiment. Deterministic in `config` alone.
pub fn ledger_run(config: &LedgerConfig, obs: &itrust_obs::ObsCtx) -> LedgerOutcome {
    let sizes = config.sizes.iter().map(|&n| size_run(n, config, obs)).collect();
    let (merged, merged_total, merged_head, merged_verified) = merge_run(obs);
    LedgerOutcome { sizes, merged, merged_total, merged_head, merged_verified }
}

/// Render the report (everything in it is hash- or virtual-time-derived).
pub fn format_report(config: &LedgerConfig, outcome: &LedgerOutcome) -> String {
    let mut out = format!(
        "D11 — provenance ledger: custody proofs vs size, witness quorum, unified event API\n\
         {} witnesses (quorum {}), {} checkpoints per size, {} proofs sampled per size\n\n\
         \u{20}   events   ckpts   endorsements   unreach   proofs   max_path   mean/10   log2⌈n⌉   root       audit\n",
        WITNESSES,
        WITNESSES / 2 + 1,
        CHECKPOINTS,
        config.proofs,
    );
    for r in &outcome.sizes {
        out.push_str(&format!(
            "{:>9} {:>7} {:>14} {:>9} {:>8} {:>10} {:>9} {:>9}   {:<8}   {}\n",
            r.events,
            r.checkpoints,
            r.endorsements,
            r.unreachable,
            r.proofs,
            r.max_path,
            r.mean_path_tenths,
            r.log2_ceil,
            r.root,
            if r.verified { "ok" } else { "FAILED" },
        ));
    }
    out.push_str("\nunified event API round trip (one ledger, three legacy surfaces):\n");
    for m in &outcome.merged {
        out.push_str(&format!("  {:<18} {:>3} events\n", m.source, m.events));
    }
    out.push_str(&format!(
        "  merged: {} events, head {}, {}\n",
        outcome.merged_total,
        outcome.merged_head,
        if outcome.merged_verified { "audit + per-source proofs ok" } else { "FAILED" },
    ));
    out.push_str(
        "\nWitness endorsements ride partition-aware replica links (one witness is\n\
         severed during the second round). Path lengths are merkle hash-op counts\n\
         — the verification cost — and stay ≤ ⌈log2(n)⌉ at every size. The report\n\
         is byte-identical at any ITRUST_THREADS; wall-clock proof latency lives\n\
         in the telemetry span histograms, not here.\n",
    );
    out
}

/// Full experiment: ledger sweep at the default configuration → report.
pub fn run(obs: &itrust_obs::ObsCtx) -> (LedgerOutcome, String) {
    let config = LedgerConfig::default_experiment();
    let outcome = ledger_run(&config, obs);
    let report = format_report(&config, &outcome);
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> LedgerConfig {
        LedgerConfig { sizes: vec![200, 1_000], proofs: 12, seed: 42 }
    }

    #[test]
    fn sweep_holds_the_log_bound_and_reaches_quorum() {
        let cfg = smoke_config();
        let outcome = ledger_run(&cfg, &itrust_obs::ObsCtx::null());
        assert_eq!(outcome.sizes.len(), 2);
        for r in &outcome.sizes {
            assert!(r.verified, "size {} failed its audit", r.events);
            assert_eq!(r.checkpoints, CHECKPOINTS);
            assert!(r.max_path <= r.log2_ceil);
            assert_eq!(r.proofs, cfg.proofs);
            // The severed round endorses 2 of 3; every other round all 3.
            assert_eq!(r.endorsements, "3/2/3/3");
            assert_eq!(r.unreachable, 1);
        }
        // Distinct sizes yield distinct roots.
        assert_ne!(outcome.sizes[0].root, outcome.sizes[1].root);
    }

    #[test]
    fn round_trip_merges_all_three_legacy_surfaces() {
        let cfg = smoke_config();
        let outcome = ledger_run(&cfg, &itrust_obs::ObsCtx::null());
        assert!(outcome.merged_verified);
        assert_eq!(outcome.merged.len(), 3);
        assert!(outcome.merged.iter().all(|m| m.events > 0), "every surface contributes");
        let sum: u64 = outcome.merged.iter().map(|m| m.events).sum();
        assert_eq!(outcome.merged_total, sum);
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let cfg = smoke_config();
        let (a, b) = (
            itrust_par::with_threads(1, || {
                let o = ledger_run(&cfg, &itrust_obs::ObsCtx::null());
                format_report(&cfg, &o)
            }),
            itrust_par::with_threads(4, || {
                let o = ledger_run(&cfg, &itrust_obs::ObsCtx::null());
                format_report(&cfg, &o)
            }),
        );
        assert_eq!(a, b, "D11 report must not depend on thread count");
    }
}
