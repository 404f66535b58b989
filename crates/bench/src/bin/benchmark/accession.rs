//! `accession`: SIPs of page scans and masters accessioned one at a time
//! into a `Repository` over a `MemoryBackend`, with an incremental fixity
//! sweep after each and one full sweep at the end.
//!
//! Bulk validate/persist/seal work dominates. Page scans sit below
//! `PAR_HASH_MIN_BYTES` (64 KiB) and masters above it, so both the serial
//! and the parallel SHA-256 paths run; the sweeps re-read with the hash
//! layer the ingest wrote with. The holding (670 MiB at `--seconds 10`) is
//! far larger than any cache.

use crate::{call, stats, Env, Outcome};
use archival_core::ingest::Repository;
use archival_core::oais::{Sip, SubmissionItem};
use archival_core::provenance::ProvenanceChain;
use archival_core::record::{Classification, DocumentaryForm, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trustdb::event::EventKind;
use trustdb::fixity::FixityAuditor;
use trustdb::store::{MemoryBackend, ObjectStore};
use trustdb::Digest;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// SIPs of the holding each set-up builds; after every measured SIP
    /// the fixity daemon re-verifies one of them.
    pub base_sips: usize,
    /// SIPs accessioned in the measured phase.
    pub sips: usize,
    /// Consecutive SIPs per latency and throughput window.
    pub window: usize,
    pub pages: usize,
    pub page_bytes: usize,
    pub masters: usize,
    pub master_bytes: usize,
}

impl Size {
    /// 20 SIPs per second of run time, each 40 × 32 KiB scans plus
    /// 2 × 1 MiB masters (3.25 MiB).
    pub fn for_seconds(seconds: u64) -> Size {
        Size {
            base_sips: 6,
            sips: 20 * seconds as usize,
            window: 3,
            pages: 40,
            page_bytes: 32 * 1024,
            masters: 2,
            master_bytes: 1024 * 1024,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            base_sips: 2,
            sips: 4,
            window: 2,
            pages: 3,
            page_bytes: 4096,
            masters: 1,
            master_bytes: 80 * 1024,
        }
    }

    fn items(&self) -> usize {
        self.pages + self.masters
    }

    fn sip_bytes(&self) -> u64 {
        (self.pages * self.page_bytes + self.masters * self.master_bytes) as u64
    }
}

/// SIP number `n` of the seeded stream; the same `(seed, n)` always gives
/// the same bytes, whatever was generated before it.
pub fn make_sip(seed: u64, n: usize, size: &Size) -> Sip {
    let mut rng = StdRng::seed_from_stream(seed, n as u64);
    let mut sip = Sip::new("State Central Archives", 1_000 + n as u64);
    for i in 0..size.items() {
        let (kind, bytes) = if i < size.pages {
            ("scan", size.page_bytes)
        } else {
            ("master", size.master_bytes)
        };
        let mut content = vec![0u8; bytes];
        rng.fill(&mut content[..]);
        let id = format!("sip-{n:05}/{kind}-{i:03}");
        let record = Record::over_content(
            id.clone(),
            format!("SIP {n} {kind} {i}"),
            "State Central Archives",
            500,
            "digitisation-programme",
            DocumentaryForm::visual("image/tiff"),
            Classification::Public,
            &content,
        );
        let mut provenance = ProvenanceChain::new(id);
        provenance
            .append(
                400,
                "scanner-lab",
                EventKind::Creation,
                "success",
                "digitised master",
            )
            .expect("a fresh provenance chain accepts its first event");
        sip = sip.with_item(SubmissionItem {
            record,
            content,
            provenance,
        });
    }
    sip
}

type Repo = Repository<MemoryBackend>;

/// Accession SIP `n`; returns its commit latency (SIP in → receipt), µs,
/// and the digests of the objects it stored (its items and manifest).
fn accession(
    env: &Env,
    out: &mut Outcome,
    repo: &Repo,
    seed: u64,
    n: usize,
    size: &Size,
) -> (f64, Vec<Digest>) {
    let sip = env
        .bench
        .time("bench.accession.generate", || make_sip(seed, n, size));
    let mut digests: Vec<Digest> = sip.items.iter().map(|i| i.record.content_digest).collect();
    let (receipt, us) = call(&env.bench, "bench.accession.ingest", || {
        repo.ingest(sip, 2_000 + n as u64, "archivist")
    });
    let receipt = receipt
        .ok()
        .filter(|r| r.record_count == size.items() && r.payload_bytes == size.sip_bytes());
    out.op(receipt.is_some(), || {
        format!("SIP {n} was not accessioned whole")
    });
    if let Some(r) = receipt {
        let manifest = env.bench.time("bench.accession.manifest", || {
            repo.store().get(&r.manifest_digest).map_or(0, |m| m.len())
        });
        out.count("accession.records", r.record_count as f64);
        out.count("accession.bytes", r.payload_bytes as f64);
        out.count("accession.manifest_bytes", manifest as f64);
        out.mix(&r.merkle_root.0);
        digests.push(r.manifest_digest);
    }
    (us, digests)
}

pub fn run(seed: u64, size: &Size, env: &Env) -> Outcome {
    let mut out = Outcome {
        window: size.window,
        ..Outcome::default()
    };
    let new_repo =
        || Repository::new(ObjectStore::new(MemoryBackend::new()).with_obs(env.obs.clone()));

    // Set-up: accession the base holding into a fresh repository, `setups`
    // times; the last repository is kept.
    let mut repo = new_repo();
    let mut base = Vec::new();
    for _ in 0..env.setups {
        let _phase = env.bench.span("bench.accession.setup");
        repo = env.bench.time("bench.accession.new_repository", new_repo);
        let (mut us, mut digests) = (0.0, Vec::new());
        for n in 0..size.base_sips {
            let (t, d) = accession(env, &mut out, &repo, seed, n, size);
            us += t;
            digests.push(d);
        }
        out.setup_s.push(us / 1e6);
        base = digests;
    }
    out.reset_counts();

    // After every SIP the fixity daemon re-verifies one SIP of the base
    // holding, so the audit samples are spread over the whole run.
    let auditor = FixityAuditor::new(repo.store(), repo.audit(), "fixity-daemon");
    let end = size.base_sips + size.sips;
    for n in size.base_sips..end {
        {
            let _phase = env.bench.span("bench.accession.main");
            let (us, _) = accession(env, &mut out, &repo, seed, n, size);
            out.latencies_us.push(us);
        }
        let Some(piece) = base.get(n % base.len().max(1)) else {
            continue;
        };
        // Stamped with the accession's time: audit chain timestamps never
        // decrease.
        let _phase = env.bench.span("bench.accession.audit");
        let (report, us) = call(&env.bench, "bench.accession.sweep_subset", || {
            auditor.sweep_subset(2_000 + n as u64, piece)
        });
        let clean = report
            .as_ref()
            .is_ok_and(|r| r.is_clean() && r.checked == piece.len());
        out.op(clean, || {
            format!("incremental sweep after SIP {n}: {report:?}")
        });
        out.audits.push((piece.len() as f64, us / 1e6));
    }
    out.rate_windows = stats::latency_windows(&out.latencies_us, size.window);

    // The full sweep and the audit chain, once, over everything written.
    let objects = end * (size.items() + 1);
    let _phase = env.bench.span("bench.accession.final_audit");
    let (report, us) = call(&env.bench, "bench.accession.fixity_sweep", || {
        let report = repo.fixity_sweep(1_000_000)?;
        repo.audit().verify_chain()?;
        Ok::<_, archival_core::ArchivalError>(report)
    });
    let report = report.ok().filter(|r| r.is_clean() && r.checked == objects);
    out.op(
        report.is_some() && repo.store().object_count() == objects,
        || format!("fixity sweep over {objects} objects was not clean"),
    );
    let mib = report.map_or(0, |r| r.bytes_verified) as f64 / (1024.0 * 1024.0);
    out.line("accession.fixity_mib_s", mib / (us / 1e6), "MiB/s");
    out.count("accession.objects", objects as f64);
    let sip_mib = size.sip_bytes() as f64 / (1024.0 * 1024.0);
    out.line(
        "accession.ingest_mib_s",
        stats::best_rate(&out.rate_windows) * sip_mib,
        "MiB/s",
    );
    out.fingerprint("accession.fingerprint");
    out
}
