//! Rehydrating a preserved twin and verifying fidelity.
//!
//! Preservation only counts if the package can be opened later and the
//! twin reconstructed *exactly*. [`rehydrate_twin`] loads the six component
//! records of a twin AIP back into a [`DigitalTwin`], and
//! [`verify_fidelity`] checks both bit-level identity (component digests)
//! and structural invariants (sensor bindings resolve, telemetry validates,
//! paradata still covers every decision-maker) — the measurements of
//! Experiment D4.

use crate::archive::{DigitalTwin, COMPONENTS};
use archival_core::ingest::Repository;
use archival_core::oais::AipManifest;
use archival_core::{ArchivalError, Result};
use serde::{Deserialize, Serialize};
use trustdb::store::Backend;

/// Fidelity report comparing a rehydrated twin against the original.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Per-component bit-level identity (component name, identical?).
    pub bit_identical: Vec<(String, bool)>,
    /// Structural problems found in the rehydrated twin.
    pub structural_issues: Vec<String>,
}

impl FidelityReport {
    /// True when every component is bit-identical and no structural issues
    /// were found.
    pub fn is_perfect(&self) -> bool {
        self.bit_identical.iter().all(|(_, ok)| *ok) && self.structural_issues.is_empty()
    }
}

fn component_record<'m>(
    manifest: &'m AipManifest,
    component: &str,
) -> Result<&'m archival_core::oais::AipRecordEntry> {
    manifest
        .records
        .iter()
        .find(|e| e.record.id.as_str().ends_with(&format!("/{component}")))
        .ok_or_else(|| {
            ArchivalError::NotFound(format!("component record {component} in {}", manifest.aip_id))
        })
}

/// Load a twin back from its AIP. Verifies the manifest first.
pub fn rehydrate_twin<B: Backend>(repo: &Repository<B>, aip_id: &str) -> Result<DigitalTwin> {
    let manifest = repo.manifest(aip_id)?;
    manifest.verify_internal_consistency()?;
    let fetch = |component: &str| -> Result<Vec<u8>> {
        let entry = component_record(&manifest, component)?;
        repo.content(&entry.record.content_digest)
    };
    // The twin name is recoverable from any component record id: dt/<name>/<component>.
    let any_id = component_record(&manifest, "bim")?.record.id.as_str().to_string();
    let name = any_id
        .strip_prefix("dt/")
        .and_then(|s| s.rsplit_once('/').map(|(n, _)| n.to_string()))
        .ok_or_else(|| ArchivalError::Codec(format!("unexpected twin record id {any_id}")))?;
    Ok(DigitalTwin {
        name,
        bim: serde_json::from_slice(&fetch("bim")?)?,
        sensors: serde_json::from_slice(&fetch("sensors")?)?,
        ams: serde_json::from_slice(&fetch("ams")?)?,
        sync_log: serde_json::from_slice(&fetch("sync-log")?)?,
        paradata: serde_json::from_slice(&fetch("paradata")?)?,
        integration_reports: serde_json::from_slice(&fetch("integration")?)?,
    })
}

/// Compare a rehydrated twin against the original and run structural
/// checks on the rehydrated copy.
pub fn verify_fidelity(original: &DigitalTwin, rehydrated: &DigitalTwin) -> FidelityReport {
    let mut bit_identical = Vec::with_capacity(COMPONENTS.len());
    for component in COMPONENTS {
        let a = original.component_bytes(component);
        let b = rehydrated.component_bytes(component);
        bit_identical.push((component.to_string(), a == b));
    }
    let mut structural_issues = Vec::new();
    // Sensor bindings must resolve against the rehydrated BIM.
    for s in &rehydrated.sensors.sensors {
        if rehydrated.bim.element(&s.element).is_none() {
            structural_issues.push(format!("sensor {} bound to missing element {}", s.id, s.element));
        }
    }
    // Telemetry must still validate.
    for p in rehydrated.sensors.validate() {
        structural_issues.push(format!("telemetry: {p}"));
    }
    // Paradata must still cover every logged decision-maker.
    let makers: Vec<&str> =
        rehydrated.ams.control_log.iter().map(|a| a.decided_by.as_str()).collect();
    for missing in rehydrated.paradata.undescribed(makers) {
        structural_issues.push(format!("paradata lost description of {missing}"));
    }
    FidelityReport { bit_identical, structural_issues }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::archive_twin;
    use trustdb::store::{MemoryBackend, ObjectStore};

    fn preserved() -> (Repository<MemoryBackend>, DigitalTwin, String) {
        let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
        let twin = DigitalTwin::synthetic("Campus", 3, 1, 300_000, 9, &itrust_obs::ObsCtx::null());
        let receipt = archive_twin(&repo, &twin, 1_000, "archivist").unwrap();
        (repo, twin, receipt.aip_id)
    }

    #[test]
    fn round_trip_is_bit_perfect() {
        let (repo, original, aip) = preserved();
        let rehydrated = rehydrate_twin(&repo, &aip).unwrap();
        assert_eq!(rehydrated, original);
        let report = verify_fidelity(&original, &rehydrated);
        assert!(report.is_perfect(), "{report:?}");
        assert_eq!(report.bit_identical.len(), 6);
    }

    #[test]
    fn storage_corruption_is_detected_not_silently_loaded() {
        let (repo, _original, aip) = preserved();
        // Corrupt the stored BIM component.
        let manifest = repo.manifest(&aip).unwrap();
        let bim_entry = manifest
            .records
            .iter()
            .find(|e| e.record.id.as_str().ends_with("/bim"))
            .unwrap();
        repo.store()
            .backend()
            .tamper(&bim_entry.record.content_digest, |v| v[10] ^= 0xff);
        // A fixity sweep finds it even though rehydrate (which trusts the
        // digest lookup) may parse or fail depending on the corrupted byte.
        let sweep = repo.fixity_sweep(2_000).unwrap();
        assert_eq!(sweep.incidents.len(), 1);
    }

    #[test]
    fn fidelity_detects_component_drift() {
        let (_repo, original, _aip) = preserved();
        let mut drifted = original.clone();
        drifted
            .bim
            .element_mut(&crate::bim::ElementId::new("B0/S0/E0"))
            .unwrap()
            .attributes
            .insert("material".into(), "drifted".into());
        let report = verify_fidelity(&original, &drifted);
        assert!(!report.is_perfect());
        let bim_flag = report.bit_identical.iter().find(|(c, _)| c == "bim").unwrap();
        assert!(!bim_flag.1);
        // Other components remain identical.
        let sensors_flag =
            report.bit_identical.iter().find(|(c, _)| c == "sensors").unwrap();
        assert!(sensors_flag.1);
    }

    #[test]
    fn fidelity_detects_structural_damage() {
        let (_repo, original, _aip) = preserved();
        let mut broken = original.clone();
        // Orphan a sensor by renaming its element binding.
        broken.sensors.sensors[0].element = crate::bim::ElementId::new("B99/S9/E9");
        let report = verify_fidelity(&original, &broken);
        assert!(report
            .structural_issues
            .iter()
            .any(|i| i.contains("missing element")));
    }

    #[test]
    fn rehydrate_unknown_aip_errors() {
        let repo: Repository<MemoryBackend> =
            Repository::new(ObjectStore::new(MemoryBackend::new()));
        assert!(rehydrate_twin(&repo, "aip-999999").is_err());
    }

    #[test]
    fn rehydrate_non_twin_aip_errors_cleanly() {
        let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
        // Ingest an unrelated AIP.
        use archival_core::oais::{Sip, SubmissionItem};
        use archival_core::provenance::ProvenanceChain;
use trustdb::event::EventKind;
        use archival_core::record::{Classification, DocumentaryForm, Record};
        let record = Record::over_content(
            "misc/r1",
            "t",
            "c",
            1,
            "a",
            DocumentaryForm::textual("text/plain"),
            Classification::Public,
            b"x",
        );
        let mut provenance = ProvenanceChain::new("misc/r1");
        provenance.append(1, "c", EventKind::Creation, "success", "").unwrap();
        let receipt = repo
            .ingest(
                Sip::new("P", 1).with_item(SubmissionItem {
                    record,
                    content: b"x".to_vec(),
                    provenance,
                }),
                1_000,
                "a",
            )
            .unwrap();
        assert!(matches!(
            rehydrate_twin(&repo, &receipt.aip_id),
            Err(ArchivalError::NotFound(_))
        ));
    }
}
