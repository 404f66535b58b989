//! D5 — tamper detection: every injected corruption must be found
//! (detection rate 1.0), with verification-cost measurements and the
//! hash-chain vs Merkle ablation from DESIGN.md §4.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trustdb::audit::AuditLog;
use trustdb::event::EventKind;
use trustdb::fixity::FixityAuditor;
use trustdb::hash::Digest;
use trustdb::merkle::MerkleTree;
use trustdb::store::{MemoryBackend, ObjectStore};

/// Result of one tamper-detection run.
#[derive(Debug, Clone)]
pub struct TamperResult {
    /// Objects in the store.
    pub objects: usize,
    /// Corruptions injected.
    pub injected: usize,
    /// Corruptions detected by the sweep.
    pub detected: usize,
    /// Sweep throughput (MiB/s).
    pub sweep_mib_s: f64,
}

/// Store `objects` blobs, corrupt `injected` of them (bit flips,
/// truncations, extensions), sweep, count detections.
pub fn tamper_run(
    objects: usize,
    injected: usize,
    seed: u64,
    obs: &itrust_obs::ObsCtx,
) -> TamperResult {
    assert!(injected <= objects);
    let store = ObjectStore::new(MemoryBackend::new()).with_obs(obs.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<Digest> = Vec::with_capacity(objects);
    let mut bytes_total = 0u64;
    for i in 0..objects {
        let size = rng.gen_range(256..2048);
        let mut blob = vec![0u8; size];
        rng.fill(&mut blob[..]);
        blob.extend_from_slice(&(i as u64).to_le_bytes()); // ensure uniqueness
        bytes_total += blob.len() as u64;
        ids.push(store.put(blob).unwrap());
    }
    // Corrupt a random subset with varied damage models.
    let mut victims = ids.clone();
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.gen_range(0..=i));
    }
    for (k, victim) in victims.iter().take(injected).enumerate() {
        store.backend().tamper(victim, |v| match k % 3 {
            0 => {
                let pos = k % v.len();
                v[pos] ^= 1 << (k % 8);
            }
            1 => {
                v.truncate(v.len() / 2);
            }
            _ => v.push(0xAA),
        });
    }
    let audit = AuditLog::new();
    let auditor = FixityAuditor::new(&store, &audit, "fixity-daemon");
    let (report, secs) = super::timed(|| auditor.sweep(1_000).unwrap());
    TamperResult {
        objects,
        injected,
        detected: report.incidents.len(),
        sweep_mib_s: bytes_total as f64 / (1024.0 * 1024.0) / secs.max(1e-9),
    }
}

/// Ablation: cost of verifying N records via (a) full hash-chain re-walk
/// vs (b) one Merkle inclusion proof per spot-check.
#[derive(Debug, Clone)]
pub struct VerifyAblation {
    /// Entries/leaves.
    pub n: usize,
    /// Seconds to verify the whole audit chain.
    pub chain_verify_s: f64,
    /// Seconds per single Merkle inclusion proof verification.
    pub merkle_proof_s: f64,
    /// Proof length (hashes).
    pub proof_len: usize,
}

/// Compare whole-chain verification with per-record Merkle proofs.
pub fn verify_ablation(n: usize) -> VerifyAblation {
    let audit = AuditLog::new();
    for i in 0..n {
        audit
            .append(i as u64, "agent", EventKind::Ingest, format!("rec-{i}"), "x")
            .unwrap();
    }
    let (_, chain_verify_s) = super::timed(|| audit.verify_chain().unwrap());

    let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("record-{i}").into_bytes()).collect();
    let tree = MerkleTree::from_leaves(leaves.iter(), &itrust_obs::ObsCtx::null()).unwrap();
    let root = tree.root();
    let proof = tree.prove(n / 2).unwrap();
    let proof_len = proof.path.len();
    // Amortize the proof verification over many runs for a stable number.
    let runs = 1000;
    let (_, total) = super::timed(|| {
        for _ in 0..runs {
            proof.verify(&leaves[n / 2], &root).unwrap();
        }
    });
    VerifyAblation { n, chain_verify_s, merkle_proof_s: total / runs as f64, proof_len }
}

/// Full experiment: detection sweep + ablation table. The report holds the
/// deterministic columns; the sweep rates and verification timings are
/// returned for the run summary.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<TamperResult>, Vec<VerifyAblation>, String) {
    let mut rows = Vec::new();
    for &(objects, injected) in &[(2_000usize, 0usize), (2_000, 20), (2_000, 200), (10_000, 100)] {
        rows.push(tamper_run(objects, injected, 77, obs));
    }
    let mut out = String::from(
        "D5 — tamper detection (bit flips / truncations / extensions)\n\
         objects   injected   detected   detection rate\n",
    );
    for r in &rows {
        let rate = if r.injected == 0 {
            1.0
        } else {
            r.detected as f64 / r.injected as f64
        };
        out.push_str(&format!(
            "{:>7} {:>10} {:>10} {:>16.3}\n",
            r.objects, r.injected, r.detected, rate
        ));
    }
    let ablation: Vec<VerifyAblation> =
        [1_000usize, 10_000, 100_000].into_iter().map(verify_ablation).collect();
    out.push('\n');
    out.push_str("ablation — whole-chain verify vs Merkle spot proof\n");
    out.push_str("       n   proof hashes\n");
    for a in &ablation {
        out.push_str(&format!("{:>8} {:>14}\n", a.n, a.proof_len));
    }
    (rows, ablation, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn detection_rate_is_exactly_one() {
        let r = super::tamper_run(500, 25, 3, &itrust_obs::ObsCtx::null());
        assert_eq!(r.detected, r.injected, "every corruption must be found");
        let clean = super::tamper_run(500, 0, 4, &itrust_obs::ObsCtx::null());
        assert_eq!(clean.detected, 0, "no false positives");
    }

    #[test]
    fn merkle_proofs_are_logarithmic() {
        let small = super::verify_ablation(1_000);
        let large = super::verify_ablation(100_000);
        assert!(large.proof_len <= small.proof_len + 8);
        assert!(large.proof_len <= 18);
        // Whole-chain verification is linear: 100× entries ≫ proof growth.
        assert!(large.chain_verify_s > small.chain_verify_s);
    }
}
