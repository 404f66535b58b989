//! Table 1 — "Digitalised Heritage Data": ingest every fond the paper
//! lists, at a 1 TB → 0.1 MB scale factor that preserves the relative
//! proportions (30 : 15 : 1 : 2 : 3 : 2 : 15 : 1323).
//!
//! The paper's table reports only *sizes*; the reproduction turns it into a
//! measurable experiment: accession each fond as TIFF-like blobs, check the
//! accession receipt and a clean fixity sweep, and measure ingest and
//! fixity-sweep throughput (reported in the run summary, not the table).
//! [`wal_sync_ablation`] times the WAL sync policies (DESIGN.md §4).

use archival_core::ingest::Repository;
use archival_core::oais::{Sip, SubmissionItem};
use archival_core::provenance::ProvenanceChain;
use trustdb::event::EventKind;
use archival_core::record::{Classification, DocumentaryForm, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trustdb::store::{MemoryBackend, ObjectStore};
use trustdb::wal::{SyncPolicy, Wal};

/// The paper's Table 1, verbatim: (fond, size in TB).
pub const FONDS: [(&str, f64); 8] = [
    ("Trademarks series (UIBM)", 30.0),
    ("Official collection of laws and decrees", 15.0),
    ("Fund A5G (First World War)", 1.0),
    ("Special collections (declassified)", 2.0),
    ("Judgments of military courts", 3.0),
    ("Various photographic funds", 2.0),
    ("Digitised study room inventories", 15.0),
    ("National Archives of the US", 1323.0),
];

/// Scale factor: bytes of synthetic data per paper-TB.
pub const BYTES_PER_TB: u64 = 100 * 1024; // 0.1 MiB per TB

/// Synthetic blob size (a "scanned TIFF page" at scale).
pub const BLOB_BYTES: usize = 32 * 1024;

/// Result row for one fond.
#[derive(Debug, Clone)]
pub struct FondResult {
    /// Fond name.
    pub fond: &'static str,
    /// Paper-reported size (TB).
    pub paper_tb: f64,
    /// Synthetic bytes ingested.
    pub bytes: u64,
    /// Records ingested.
    pub records: usize,
    /// Ingest throughput (MiB/s).
    pub ingest_mib_s: f64,
    /// Fixity sweep throughput (MiB/s).
    pub fixity_mib_s: f64,
}

/// Build the SIP for one fond (deterministic in `seed`).
pub fn fond_sip(fond: &'static str, tb: f64, seed: u64) -> Sip {
    let total_bytes = (tb * BYTES_PER_TB as f64) as u64;
    let n_records = (total_bytes as usize).div_ceil(BLOB_BYTES).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sip = Sip::new("State Central Archives", 1_000);
    for i in 0..n_records {
        let size = BLOB_BYTES.min((total_bytes as usize) - i * BLOB_BYTES).max(1);
        let mut blob = vec![0u8; size];
        rng.fill(&mut blob[..]);
        let id = format!("{}/{i:06}", fond.to_lowercase().replace(' ', "-"));
        let record = Record::over_content(
            id.clone(),
            format!("{fond} — scan {i}"),
            "State Central Archives",
            500,
            "digitisation-programme",
            DocumentaryForm::visual("image/tiff"),
            Classification::Public,
            &blob,
        );
        let mut provenance = ProvenanceChain::new(id);
        provenance
            .append(400, "scanner-lab", EventKind::Creation, "success", "digitised master")
            .expect("fresh chain");
        sip = sip.with_item(SubmissionItem { record, content: blob, provenance });
    }
    sip
}

/// Ingest every fond into a fresh repository; measure per-fond throughput.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<FondResult>, String) {
    let mut rows = Vec::with_capacity(FONDS.len());
    for (i, &(fond, tb)) in FONDS.iter().enumerate() {
        let repo =
            Repository::new(ObjectStore::new(MemoryBackend::new()).with_obs(obs.clone()));
        let sip = fond_sip(fond, tb, 42 + i as u64);
        let bytes = sip.payload_bytes();
        let records = sip.items.len();
        let (receipt, ingest_s) =
            super::timed(|| repo.ingest(sip, 2_000, "archivist").expect("valid sip"));
        let (report, fixity_s) = super::timed(|| repo.fixity_sweep(3_000).expect("sweep"));
        assert!(report.is_clean());
        assert_eq!(receipt.record_count, records);
        let mib = bytes as f64 / (1024.0 * 1024.0);
        rows.push(FondResult {
            fond,
            paper_tb: tb,
            bytes,
            records,
            ingest_mib_s: mib / ingest_s.max(1e-9),
            fixity_mib_s: mib / fixity_s.max(1e-9),
        });
    }
    let mut out = String::from(
        "Table 1 — heritage fond ingest (scaled 1 TB → 0.1 MiB)\n\
         fond                                      paper TB   records      bytes\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<42} {:>8.0} {:>9} {:>10}\n",
            r.fond, r.paper_tb, r.records, r.bytes
        ));
    }
    let total_bytes: u64 = rows.iter().map(|r| r.bytes).sum();
    out.push_str(&format!(
        "TOTAL: {:.1} MiB across {} records in {} fonds\n",
        total_bytes as f64 / (1024.0 * 1024.0),
        rows.iter().map(|r| r.records).sum::<usize>(),
        rows.len()
    ));
    (rows, out)
}

/// WAL sync-policy ablation: seconds to append 64 frames of 4 KiB to a
/// fresh scratch log under each policy. `Always` gets one append (and one
/// fsync) per frame; `GroupCommit` and `Never` get one batch each.
pub fn wal_sync_ablation() -> Vec<(&'static str, f64)> {
    let frames: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 4096]).collect();
    [
        ("fsync_per_record", SyncPolicy::Always),
        ("group_commit", SyncPolicy::GroupCommit),
        ("no_sync", SyncPolicy::Never),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let path =
            std::env::temp_dir().join(format!("itrust-table1-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let wal = Wal::open(&path, policy).expect("open scratch WAL");
        let (_, secs) = super::timed(|| match policy {
            SyncPolicy::Always => {
                for f in &frames {
                    wal.append(f).expect("append frame");
                }
            }
            _ => {
                wal.append_batch(frames.iter().map(|f| f.as_slice())).expect("append batch");
            }
        });
        drop(wal);
        let _ = std::fs::remove_file(&path);
        (name, secs)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fond_sizes_preserve_paper_proportions() {
        let small = fond_sip("Fund A5G (First World War)", 1.0, 1);
        let large = fond_sip("Official collection of laws and decrees", 15.0, 2);
        let ratio = large.payload_bytes() as f64 / small.payload_bytes() as f64;
        assert!((ratio - 15.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn sips_validate() {
        let sip = fond_sip("Judgments of military courts", 3.0, 3);
        assert!(sip.validate().is_empty());
        assert!(sip.items.len() >= 9);
    }
}
