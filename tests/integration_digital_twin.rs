//! Integration: digital-twin preservation through the archival stack —
//! archive, verify, assess trust, rehydrate, and survive a fixity incident.

use archival_core::ingest::Repository;
use archival_core::trust::{TrustAssessor, TrustGrade};
use digital_twin::archive::{archive_twin, DigitalTwin, COMPONENTS};
use digital_twin::rehydrate::{rehydrate_twin, verify_fidelity};
use trustdb::store::{MemoryBackend, ObjectStore};

#[test]
fn twin_records_are_trustworthy_archival_records() {
    let twin = DigitalTwin::synthetic("Campus", 3, 1, 600_000, 1, &itrust_obs::ObsCtx::null());
    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let receipt = archive_twin(&repo, &twin, 1_000, "archivist").unwrap();

    // The twin's six component records pass the same trust assessment as
    // any other holding.
    let manifest = repo.manifest(&receipt.aip_id).unwrap();
    let assessor = TrustAssessor::new(repo.store());
    for entry in &manifest.records {
        let report = assessor.assess(entry).unwrap();
        assert_ne!(
            report.grade,
            TrustGrade::Untrustworthy,
            "{}: {report:?}",
            entry.record.id
        );
        assert_eq!(report.accuracy.score, 1.0);
    }
    // Documentary form marks them as interactive twin components.
    for entry in &manifest.records {
        assert!(entry
            .record
            .form
            .intrinsic_elements
            .iter()
            .any(|e| e.starts_with("component:")));
    }
}

#[test]
fn full_round_trip_then_tamper_then_detect() {
    let twin = DigitalTwin::synthetic("Campus", 2, 2, 900_000, 2, &itrust_obs::ObsCtx::null());
    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let receipt = archive_twin(&repo, &twin, 1_000, "archivist").unwrap();

    // Perfect rehydration first.
    let back = rehydrate_twin(&repo, &receipt.aip_id).unwrap();
    let fidelity = verify_fidelity(&twin, &back);
    assert!(fidelity.is_perfect(), "{fidelity:?}");
    assert_eq!(fidelity.bit_identical.len(), COMPONENTS.len());

    // Now a storage fault corrupts the sensors component.
    let manifest = repo.manifest(&receipt.aip_id).unwrap();
    let sensors_entry = manifest
        .records
        .iter()
        .find(|e| e.record.id.as_str().ends_with("/sensors"))
        .unwrap();
    repo.store()
        .backend()
        .tamper(&sensors_entry.record.content_digest, |v| {
            let mid = v.len() / 2;
            v[mid] ^= 0xff;
        });
    let sweep = repo.fixity_sweep(2_000).unwrap();
    assert_eq!(sweep.incidents.len(), 1);
    assert_eq!(sweep.incidents[0].0, sensors_entry.record.content_digest);
}

#[test]
fn twin_scale_sweep_round_trips_at_every_size() {
    // The D4 shape in miniature: round-trip fidelity is scale-invariant.
    for (buildings, sensors) in [(1usize, 1usize), (3, 2), (7, 2)] {
        let twin = DigitalTwin::synthetic(
            "Campus",
            buildings,
            sensors,
            300_000,
            42,
            &itrust_obs::ObsCtx::null(),
        );
        let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
        let receipt = archive_twin(&repo, &twin, 1_000, "a").unwrap();
        let back = rehydrate_twin(&repo, &receipt.aip_id).unwrap();
        assert_eq!(back, twin, "round trip at {buildings} buildings");
        assert!(receipt.payload_bytes > 0);
    }
}

#[test]
fn preservation_readiness_gates_archiving_end_to_end() {
    let mut twin = DigitalTwin::synthetic("Campus", 1, 1, 300_000, 3, &itrust_obs::ObsCtx::null());
    // Strip the paradata registry: automation becomes undocumented.
    twin.paradata = digital_twin::paradata::ParadataRegistry::new();
    let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
    let err = archive_twin(&repo, &twin, 1_000, "a").unwrap_err();
    assert!(err.to_string().contains("preservation-ready"));
    assert!(repo.list_aips().is_empty());
    assert_eq!(repo.store().object_count(), 0);
}
