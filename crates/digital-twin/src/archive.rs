//! Assembling a complete digital twin and packaging it as an AIP.
//!
//! The study's central question — *can a digital twin be preserved, and
//! what is required at the point of creation to ensure that it can be?* —
//! gets an operational answer: a twin is preservation-ready when every
//! component serializes canonically, every automated decision-maker is
//! described in the paradata registry, and the synchronization log fixes
//! the twin's temporal boundary. [`archive_twin`] then packages the six
//! components as records of one accession.

use crate::ams::AssetManagement;
use crate::bim::BimModel;
use crate::integration::{integrate_all, synthetic_source, IntegrationReport, SourceKind};
use crate::paradata::{ParadataRegistry, ToolDescription, ToolKind};
use crate::sensors::SensorNetwork;
use crate::sync::{Direction, SyncLog};
use archival_core::ingest::{AccessionReceipt, Repository};
use archival_core::oais::{Sip, SubmissionItem};
use archival_core::provenance::ProvenanceChain;
use trustdb::event::EventKind;
use archival_core::record::{Classification, DocumentaryForm, Medium, Record};
use archival_core::Result;
use serde::{Deserialize, Serialize};
use trustdb::store::Backend;

/// A complete digital twin: the "ecosystem of interoperable subsystems".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigitalTwin {
    /// Twin name (site).
    pub name: String,
    /// The BIM (after database integration).
    pub bim: BimModel,
    /// Sensor fleet + telemetry history.
    pub sensors: SensorNetwork,
    /// Asset management state.
    pub ams: AssetManagement,
    /// Physical↔digital synchronization log.
    pub sync_log: SyncLog,
    /// AI/automation paradata.
    pub paradata: ParadataRegistry,
    /// Reports from the Figure 2 database integration.
    pub integration_reports: Vec<IntegrationReport>,
}

/// Record-id suffixes of the six component records inside a twin AIP.
pub const COMPONENTS: [&str; 6] =
    ["bim", "sensors", "ams", "sync-log", "paradata", "integration"];

impl DigitalTwin {
    /// Build a fully-populated synthetic twin: a campus BIM, six integrated
    /// source databases, a deployed sensor fleet with `telemetry_ms` of
    /// history, comfort-rule automation, sync events, and a complete
    /// paradata registry. Deterministic in `seed`. Integration and sync
    /// telemetry is recorded into `obs`.
    pub fn synthetic(
        name: &str,
        buildings: usize,
        sensors_per_element: usize,
        telemetry_ms: u64,
        seed: u64,
        obs: &itrust_obs::ObsCtx,
    ) -> DigitalTwin {
        let mut bim = BimModel::synthetic_campus(name, buildings, 3, 8);
        // Five synthetic sources plus a *real* BPS-derived source: the
        // building-performance results come from the 1R1C thermal model run
        // against each building's own BIM (the BIM-feeds-BPS loop of §3.3).
        let outdoor = crate::bps::outdoor_profile(72, 2.0, 6.0);
        let bps_source = {
            let mut records = Vec::new();
            for building in &bim.buildings {
                let result = crate::bps::simulate(building, &outdoor);
                for storey in &building.storeys {
                    for e in &storey.elements {
                        let mut fields = std::collections::BTreeMap::new();
                        fields.insert(
                            "annual_kwh".to_string(),
                            format!(
                                "{:.0}",
                                (result.total_heating_kwh() + result.total_cooling_kwh())
                                    * 365.0 / 3.0
                                    / building.element_count() as f64
                            ),
                        );
                        fields.insert("bps_tool".to_string(), crate::bps::TOOL_ID.to_string());
                        records.push(crate::integration::SourceRecord {
                            key: format!("bps-{}", e.id),
                            element_ref: Some(e.id.0.clone()),
                            fields,
                        });
                    }
                }
            }
            crate::integration::SourceDatabase {
                name: "bpsresults".into(),
                kind: SourceKind::BpsResults,
                records,
            }
        };
        let mut sources: Vec<_> = SourceKind::ALL
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != SourceKind::BpsResults)
            .map(|(i, &k)| synthetic_source(&bim, k, 0.8, 1, 1, seed.wrapping_add(i as u64)))
            .collect();
        sources.push(bps_source);
        let integration_reports = integrate_all(&mut bim, &sources, obs);

        let mut sensors = SensorNetwork::deploy(&bim.element_ids(), sensors_per_element);
        sensors.simulate(telemetry_ms, seed.wrapping_add(100));

        let mut sync_log = SyncLog::new();
        let telemetry_blob =
            // itrust-lint: allow(panic-reachable) — plain in-memory telemetry structs serialize infallibly
            serde_json::to_vec(&sensors.history).expect("history serializable");
        sync_log.record(telemetry_ms, Direction::Inbound, "telemetry", &telemetry_blob, obs);

        let mut ams = AssetManagement::new();
        let actions = ams.run_comfort_rules(&sensors, telemetry_ms, 19.0, 24.0);
        if actions > 0 {
            let control_blob =
                // itrust-lint: allow(panic-reachable) — plain in-memory control-log structs serialize infallibly
                serde_json::to_vec(&ams.control_log).expect("control log serializable");
            sync_log.record(telemetry_ms, Direction::Outbound, "control", &control_blob, obs);
        }

        let mut paradata = ParadataRegistry::new();
        paradata
            .register(ToolDescription {
                id: "rule:comfort-band-v1".into(),
                kind: ToolKind::Rule,
                version: "1.0".into(),
                purpose: "HVAC comfort-band control".into(),
                inputs: vec!["temperature telemetry".into()],
                config_digest: None,
            })
            // itrust-lint: allow(panic-reachable) — fresh registry with distinct hard-coded ids; register cannot collide
            .expect("fresh registry");
        paradata
            .register(ToolDescription {
                id: crate::bps::TOOL_ID.into(),
                kind: ToolKind::Simulator,
                version: "1.0".into(),
                purpose: "1R1C building performance simulation from BIM".into(),
                inputs: vec!["BIM element inventory".into(), "outdoor temperature profile".into()],
                config_digest: Some(trustdb::hash::sha256(b"1r1c-defaults")),
            })
            // itrust-lint: allow(panic-reachable) — fresh registry with distinct hard-coded ids; register cannot collide
            .expect("fresh registry");
        paradata
            .register(ToolDescription {
                id: "sim:sensor-telemetry-v1".into(),
                kind: ToolKind::Simulator,
                version: "1.0".into(),
                purpose: "synthetic telemetry generation".into(),
                inputs: vec!["sensor registry".into()],
                config_digest: Some(trustdb::hash::sha256(&seed.to_le_bytes())),
            })
            // itrust-lint: allow(panic-reachable) — fresh registry with distinct hard-coded ids; register cannot collide
            .expect("fresh registry");

        DigitalTwin {
            name: name.to_string(),
            bim,
            sensors,
            ams,
            sync_log,
            paradata,
            integration_reports,
        }
    }

    /// Preservation-readiness check: the "what is required at the point of
    /// creation" answer. Returns blocking issues (empty = ready).
    pub fn preservation_readiness(&self) -> Vec<String> {
        let mut issues = Vec::new();
        if self.bim.element_count() == 0 {
            issues.push("BIM has no elements".into());
        }
        for p in self.sensors.validate() {
            issues.push(format!("sensor data: {p}"));
        }
        // Every decision-maker in the control log must be described.
        let makers: Vec<&str> =
            self.ams.control_log.iter().map(|a| a.decided_by.as_str()).collect();
        for missing in self.paradata.undescribed(makers) {
            issues.push(format!("undescribed automation tool: {missing}"));
        }
        if self.sync_log.last_inbound_ms().is_none() && !self.sensors.history.is_empty() {
            issues.push("telemetry exists but no inbound sync event fixes its boundary".into());
        }
        issues
    }

    /// Serialize one component by suffix.
    pub fn component_bytes(&self, component: &str) -> Option<Vec<u8>> {
        let bytes = match component {
            "bim" => serde_json::to_vec_pretty(&self.bim),
            "sensors" => serde_json::to_vec_pretty(&self.sensors),
            "ams" => serde_json::to_vec_pretty(&self.ams),
            "sync-log" => serde_json::to_vec_pretty(&self.sync_log),
            "paradata" => serde_json::to_vec_pretty(&self.paradata),
            "integration" => serde_json::to_vec_pretty(&self.integration_reports),
            _ => return None,
        };
        bytes.ok()
    }
}

/// Package a preservation-ready twin into `repo` as one AIP with six
/// component records. Refuses a twin with readiness issues.
pub fn archive_twin<B: Backend>(
    repo: &Repository<B>,
    twin: &DigitalTwin,
    now_ms: u64,
    archivist: &str,
) -> Result<AccessionReceipt> {
    let issues = twin.preservation_readiness();
    if !issues.is_empty() {
        return Err(archival_core::ArchivalError::InvariantViolation(format!(
            "twin not preservation-ready: {}",
            issues.join("; ")
        )));
    }
    let mut sip = Sip::new(format!("{} facilities management", twin.name), now_ms);
    for component in COMPONENTS {
        let body = twin.component_bytes(component).ok_or_else(|| {
            archival_core::ArchivalError::InvariantViolation(format!(
                "unknown twin component {component}"
            ))
        })?;
        let id = format!("dt/{}/{component}", twin.name);
        let record = Record::over_content(
            id.clone(),
            format!("Digital twin component: {component}"),
            format!("{} facilities management", twin.name),
            now_ms,
            "digital-twin-operation",
            DocumentaryForm {
                medium: Medium::Interactive,
                format: "application/json".into(),
                intrinsic_elements: vec![format!("component:{component}")],
                extrinsic_elements: vec![],
            },
            Classification::Public,
            &body,
        );
        let mut provenance = ProvenanceChain::new(id);
        provenance.append(
            now_ms,
            "digital-twin-platform",
            EventKind::Creation,
            "success",
            format!("serialized live {component} state"),
        )?;
        sip = sip.with_item(SubmissionItem { record, content: body, provenance });
    }
    repo.ingest(sip, now_ms, archivist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustdb::store::{MemoryBackend, ObjectStore};

    fn twin() -> DigitalTwin {
        DigitalTwin::synthetic("TestCampus", 2, 1, 300_000, 5, &itrust_obs::ObsCtx::null())
    }

    #[test]
    fn synthetic_twin_is_fully_populated() {
        let t = twin();
        assert!(t.bim.element_count() > 0);
        assert!(!t.sensors.history.is_empty());
        assert_eq!(t.integration_reports.len(), 6);
        assert!(!t.sync_log.is_empty());
        assert!(t.paradata.tools().len() >= 2);
    }

    #[test]
    fn synthetic_twin_is_deterministic() {
        assert_eq!(twin(), twin());
        let other =
            DigitalTwin::synthetic("TestCampus", 2, 1, 300_000, 6, &itrust_obs::ObsCtx::null());
        assert_ne!(twin(), other);
    }

    #[test]
    fn fresh_twin_is_preservation_ready() {
        let issues = twin().preservation_readiness();
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn undescribed_tool_blocks_preservation() {
        let mut t = twin();
        t.paradata = ParadataRegistry::new(); // lose the tool descriptions
        let issues = t.preservation_readiness();
        assert!(
            issues.iter().any(|i| i.contains("undescribed automation tool")),
            "{issues:?}"
        );
        let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
        assert!(archive_twin(&repo, &t, 1_000, "archivist").is_err());
    }

    #[test]
    fn missing_sync_boundary_blocks_preservation() {
        let mut t = twin();
        t.sync_log = SyncLog::new();
        let issues = t.preservation_readiness();
        assert!(issues.iter().any(|i| i.contains("sync event")), "{issues:?}");
    }

    #[test]
    fn archive_produces_six_record_aip() {
        let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
        let receipt = archive_twin(&repo, &twin(), 1_000, "archivist").unwrap();
        assert_eq!(receipt.record_count, 6);
        let manifest = repo.manifest(&receipt.aip_id).unwrap();
        manifest.verify_internal_consistency().unwrap();
        for component in COMPONENTS {
            assert!(
                manifest
                    .records
                    .iter()
                    .any(|e| e.record.id.as_str().ends_with(component)),
                "missing component record {component}"
            );
        }
    }

    #[test]
    fn component_bytes_rejects_unknown() {
        assert!(twin().component_bytes("warp-core").is_none());
        for c in COMPONENTS {
            assert!(twin().component_bytes(c).is_some());
        }
    }
}
