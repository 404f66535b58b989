//! Preserving simulation runs as trustworthy archival records.
//!
//! This is the loop Section 3.1 proposes: simulation output + its artifact
//! provenance become records in a preservation repository, under a
//! data-sharing agreement, such that a later researcher can (a) verify the
//! records' integrity and (b) *replay* the scenario (see [`crate::replay`]).
//!
//! One run becomes a four-record SIP:
//!
//! | record id suffix | content                               | form    |
//! |------------------|---------------------------------------|---------|
//! | `/config`        | full [`crate::sim::SimConfig`] JSON    | Dataset |
//! | `/calls`         | sanitized call log, one JSON per line  | Dataset |
//! | `/stats`         | aggregate [`crate::call::CallStats`]   | Dataset |
//! | `/paradata`      | [`crate::sim::RunProvenance`] JSON     | Dataset |

use crate::agreement::{DataSharingAgreement, LegalRestriction, TransferViolation};
use crate::call::{CallRecord, CallStats};
use crate::sim::{RunProvenance, SimConfig, SimOutput};
use archival_core::ingest::{AccessionReceipt, Repository};
use archival_core::oais::{Sip, SubmissionItem};
use archival_core::provenance::ProvenanceChain;
use trustdb::event::EventKind;
use archival_core::record::{Classification, DocumentaryForm, Medium, Record};
use trustdb::store::Backend;

/// Errors when preserving a run.
#[derive(Debug)]
pub enum PreserveError {
    /// The transfer violates its data-sharing agreement.
    Agreement(TransferViolation),
    /// The archival layer refused the accession.
    Archive(archival_core::ArchivalError),
    /// A run artifact failed to serialize before ingest.
    Serialize(String),
}

impl std::fmt::Display for PreserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreserveError::Agreement(v) => write!(f, "agreement violation: {v}"),
            PreserveError::Archive(e) => write!(f, "archive error: {e}"),
            PreserveError::Serialize(what) => write!(f, "serialization failed: {what}"),
        }
    }
}

impl std::error::Error for PreserveError {}

impl From<archival_core::ArchivalError> for PreserveError {
    fn from(e: archival_core::ArchivalError) -> Self {
        PreserveError::Archive(e)
    }
}

/// The record-id prefix for a scenario, e.g. `escs/run-<config digest8>`.
pub fn scenario_prefix(config: &SimConfig) -> String {
    format!("escs/run-{}", config.digest().short())
}

fn dataset_record(
    id: String,
    title: &str,
    owner: &str,
    created_ms: u64,
    body: &[u8],
) -> Result<SubmissionItem, PreserveError> {
    let record = Record::over_content(
        id.clone(),
        title,
        owner,
        created_ms,
        "escs-simulation-study",
        DocumentaryForm {
            medium: Medium::Dataset,
            format: "application/json".into(),
            intrinsic_elements: vec![],
            extrinsic_elements: vec![],
        },
        Classification::Public,
        body,
    );
    let mut provenance = ProvenanceChain::new(id);
    provenance.append(
        created_ms,
        crate::sim::ENGINE_VERSION,
        EventKind::Creation,
        "success",
        "generated by deterministic simulation",
    )?;
    Ok(SubmissionItem { record, content: body.to_vec(), provenance })
}

/// Serialize a call batch as JSON lines.
pub fn calls_to_jsonl(calls: &[CallRecord]) -> Result<Vec<u8>, serde_json::Error> {
    let mut out = Vec::new();
    for c in calls {
        out.extend_from_slice(c.to_json()?.as_bytes());
        out.push(b'\n');
    }
    Ok(out)
}

/// Parse a JSONL call log.
pub fn calls_from_jsonl(bytes: &[u8]) -> Option<Vec<CallRecord>> {
    let text = std::str::from_utf8(bytes).ok()?;
    text.lines().map(CallRecord::from_json).collect()
}

/// Preserve a run into `repo` under `agreement`, sanitizing calls first.
/// Returns the accession receipt.
pub fn preserve_run<B: Backend>(
    repo: &Repository<B>,
    config: &SimConfig,
    output: &SimOutput,
    agreement: &DataSharingAgreement,
    restrictions: &[LegalRestriction],
    now_ms: u64,
    archivist: &str,
) -> Result<AccessionReceipt, PreserveError> {
    let obs = repo.obs();
    let _span = itrust_obs::span!(obs, "escs.preserve.run");
    itrust_obs::counter_add!(obs, "escs.preserve.calls", output.calls.len() as u64);
    let sanitized = agreement
        .prepare_transfer(&output.calls, now_ms, restrictions)
        .map_err(PreserveError::Agreement)?;
    let prefix = scenario_prefix(config);
    let owner = agreement.owner.as_str();
    let config_json = serde_json::to_vec_pretty(config)
        .map_err(|e| PreserveError::Serialize(format!("scenario config: {e}")))?;
    let calls_jsonl = calls_to_jsonl(&sanitized)
        .map_err(|e| PreserveError::Serialize(format!("call log: {e}")))?;
    let stats_json = serde_json::to_vec_pretty(&output.stats)
        .map_err(|e| PreserveError::Serialize(format!("stats: {e}")))?;
    let paradata_json = serde_json::to_vec_pretty(&output.provenance)
        .map_err(|e| PreserveError::Serialize(format!("run provenance: {e}")))?;
    let sip = Sip::new(owner, now_ms)
        .under_agreement(agreement.id.clone())
        .with_item(dataset_record(
            format!("{prefix}/config"),
            "Simulation scenario configuration",
            owner,
            now_ms,
            &config_json,
        )?)
        .with_item(dataset_record(
            format!("{prefix}/calls"),
            "Sanitized call detail records",
            owner,
            now_ms,
            &calls_jsonl,
        )?)
        .with_item(dataset_record(
            format!("{prefix}/stats"),
            "Aggregate call statistics",
            owner,
            now_ms,
            &stats_json,
        )?)
        .with_item(dataset_record(
            format!("{prefix}/paradata"),
            "Run provenance (engine, config digest, seed)",
            owner,
            now_ms,
            &paradata_json,
        )?);
    Ok(repo.ingest(sip, now_ms, archivist)?)
}

/// A preserved run, loaded back from the archive.
#[derive(Debug, Clone)]
pub struct PreservedRun {
    /// The exact scenario configuration (including seed).
    pub config: SimConfig,
    /// The sanitized call log as preserved.
    pub calls: Vec<CallRecord>,
    /// The aggregate stats as preserved.
    pub stats: CallStats,
    /// Artifact provenance.
    pub provenance: RunProvenance,
}

/// Load a preserved run from an AIP. Verifies manifest consistency first.
pub fn load_run<B: Backend>(
    repo: &Repository<B>,
    aip_id: &str,
) -> Result<PreservedRun, PreserveError> {
    let _span = itrust_obs::span!(repo.obs(), "escs.preserve.load");
    let manifest = repo.manifest(aip_id)?;
    manifest.verify_internal_consistency()?;
    let fetch = |suffix: &str| -> Result<Vec<u8>, PreserveError> {
        let entry = manifest
            .records
            .iter()
            .find(|e| e.record.id.as_str().ends_with(suffix))
            .ok_or_else(|| {
                PreserveError::Archive(archival_core::ArchivalError::NotFound(format!(
                    "record *{suffix} in {aip_id}"
                )))
            })?;
        Ok(repo.content(&entry.record.content_digest)?)
    };
    let config: SimConfig = serde_json::from_slice(&fetch("/config")?)
        .map_err(|e| PreserveError::Archive(e.into()))?;
    let calls = calls_from_jsonl(&fetch("/calls")?).ok_or_else(|| {
        PreserveError::Archive(archival_core::ArchivalError::Codec(
            "call log is not valid JSONL".into(),
        ))
    })?;
    let stats: CallStats = serde_json::from_slice(&fetch("/stats")?)
        .map_err(|e| PreserveError::Archive(e.into()))?;
    let provenance: RunProvenance = serde_json::from_slice(&fetch("/paradata")?)
        .map_err(|e| PreserveError::Archive(e.into()))?;
    Ok(PreservedRun { config, calls, stats, provenance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::external::ExternalTimeline;
    use crate::graph::Topology;
    use crate::privacy::PrivacyProfile;
    use trustdb::store::{MemoryBackend, ObjectStore};

    fn setup() -> (Repository<MemoryBackend>, SimConfig, SimOutput, DataSharingAgreement) {
        let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
        let config = SimConfig::with_defaults(
            Topology::single_city(),
            ExternalTimeline::quiet(),
            600_000,
            77,
        );
        let output = crate::sim::run(&config, &itrust_obs::ObsCtx::null());
        let dsa = DataSharingAgreement {
            id: "dsa-1".into(),
            owner: "County E-911".into(),
            recipient: "Research Lab".into(),
            purpose: "replay research".into(),
            jurisdiction: "US-WA".into(),
            privacy: PrivacyProfile::research_default(),
            valid_ms: (0, u64::MAX),
            research_retention_ms: u64::MAX,
        };
        (repo, config, output, dsa)
    }

    #[test]
    fn preserve_and_load_round_trip() {
        let (repo, config, output, dsa) = setup();
        let receipt =
            preserve_run(&repo, &config, &output, &dsa, &[], 10_000, "archivist").unwrap();
        assert_eq!(receipt.record_count, 4);
        let run = load_run(&repo, &receipt.aip_id).unwrap();
        assert_eq!(run.config.seed, 77);
        assert_eq!(run.calls.len(), output.calls.len());
        assert_eq!(run.stats, output.stats);
        assert_eq!(run.provenance, output.provenance);
    }

    #[test]
    fn preserved_calls_are_sanitized() {
        let (repo, config, output, dsa) = setup();
        let receipt =
            preserve_run(&repo, &config, &output, &dsa, &[], 10_000, "archivist").unwrap();
        let run = load_run(&repo, &receipt.aip_id).unwrap();
        for call in &run.calls {
            assert!(call.caller_phone.ends_with("XXXX"), "{}", call.caller_phone);
        }
        crate::privacy::verify_no_leakage(&dsa.privacy, &run.calls).unwrap();
    }

    #[test]
    fn agreement_violation_blocks_preservation() {
        let (repo, config, output, mut dsa) = setup();
        dsa.valid_ms = (0, 5); // expired
        let err =
            preserve_run(&repo, &config, &output, &dsa, &[], 10_000, "archivist").unwrap_err();
        assert!(matches!(err, PreserveError::Agreement(_)));
        assert!(repo.list_aips().is_empty(), "nothing must be stored");
    }

    #[test]
    fn jsonl_round_trip() {
        let (_, _, output, _) = setup();
        let bytes = calls_to_jsonl(&output.calls).unwrap();
        let back = calls_from_jsonl(&bytes).unwrap();
        assert_eq!(back, output.calls);
        assert!(calls_from_jsonl(b"not json\n").is_none());
        assert_eq!(calls_from_jsonl(b"").unwrap().len(), 0);
    }

    #[test]
    fn scenario_prefix_is_stable_per_config() {
        let (_, config, _, _) = setup();
        assert_eq!(scenario_prefix(&config), scenario_prefix(&config));
        let mut other = config.clone();
        other.seed += 1;
        assert_ne!(scenario_prefix(&config), scenario_prefix(&other));
    }

    #[test]
    fn load_run_fails_on_missing_record() {
        let (repo, _, _, _) = setup();
        // Ingest an unrelated AIP lacking the escs record layout.
        let sip = Sip::new("P", 1).with_item(
            dataset_record("misc/record".into(), "misc", "P", 1, b"{}").unwrap(),
        );
        let receipt = repo.ingest(sip, 1_000, "a").unwrap();
        assert!(load_run(&repo, &receipt.aip_id).is_err());
    }
}
