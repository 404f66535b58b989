//! The `ITrustPlatform` facade: one object wiring the preservation
//! repository, the trustworthiness guard, and the AI capabilities into the
//! integrated system the paper calls for.
//!
//! The flow a platform instance supports end-to-end:
//!
//! 1. **Acquisition** — [`ITrustPlatform::ingest_documents`] packages
//!    producer documents as a SIP and accessions them (AIP + receipt).
//! 2. **Appraisal/review** — [`ITrustPlatform::sensitivity_review`] scores
//!    every record of an AIP with the sensitivity model; each decision
//!    passes through the [`crate::ai_task::TrustGuard`], so low-confidence
//!    calls land in the human review queue instead of acting.
//! 3. **Access** — [`ITrustPlatform::build_access_index`] and
//!    [`ITrustPlatform::build_linker`] expose retrieval and connected-item
//!    suggestion over the preserved descriptions.
//!
//! Timestamps are always caller-supplied: the platform is deterministic and
//! testable, and real deployments inject wall-clock time at the edge.

use crate::access::AccessIndex;
use crate::ai_task::{GuardedDecision, Routing, TrustGuard};
use crate::functions::{ArchivalFunction, Capability, CapabilityRegistry, Maturity};
use crate::linking::RecordLinker;
use crate::sensitivity::SensitivityModel;
use archival_core::ingest::{AccessionReceipt, Repository};
use archival_core::oais::{Sip, SubmissionItem};
use archival_core::provenance::ProvenanceChain;
use trustdb::event::EventKind;
use archival_core::record::{Classification, DocumentaryForm, Record};
use archival_core::Result;
use trustdb::store::{MemoryBackend, ObjectStore};

/// Model identifier of the platform's sensitivity capability.
pub const SENSITIVITY_MODEL_ID: &str = "itrust/sensitivity-nb-v1";

/// One record's sensitivity-review outcome.
#[derive(Debug, Clone)]
pub struct ReviewResult {
    /// Record reviewed.
    pub record_id: String,
    /// P(sensitive) from the model.
    pub score: f32,
    /// Where the guard routed the decision.
    pub routing: Routing,
    /// The record's provenance chain including the new AI event(s). In a
    /// full deployment this chain is re-packaged into a metadata-update
    /// AIP; it is returned here so callers can do exactly that.
    pub provenance: ProvenanceChain,
}

/// The integrated platform.
pub struct ITrustPlatform {
    repo: Repository<MemoryBackend>,
    registry: CapabilityRegistry,
    guard_threshold: f32,
}

impl Default for ITrustPlatform {
    fn default() -> Self {
        Self::new(0.85)
    }
}

impl ITrustPlatform {
    /// Fresh platform with an in-memory repository and the standard
    /// capability registrations.
    pub fn new(guard_threshold: f32) -> Self {
        let repo = Repository::new(ObjectStore::new(MemoryBackend::new()));
        let mut registry = CapabilityRegistry::new();
        let register = |registry: &mut CapabilityRegistry,
                        function: ArchivalFunction,
                        id: &str,
                        model: &str,
                        description: &str| {
            registry
                .register(
                    function,
                    Capability {
                        id: id.into(),
                        model_id: model.into(),
                        description: description.into(),
                        maturity: Maturity::Assisted,
                        risk_assessed: true,
                    },
                )
                // itrust-lint: allow(panic-reachable) — fresh registry with distinct hard-coded ids; register cannot collide
                .expect("fresh registry");
        };
        register(
            &mut registry,
            ArchivalFunction::Appraisal,
            "sensitivity-review",
            SENSITIVITY_MODEL_ID,
            "flag records containing sensitive personal information",
        );
        register(
            &mut registry,
            ArchivalFunction::Retention,
            "tar-prioritization",
            SENSITIVITY_MODEL_ID,
            "active-learning prioritization of disposition review",
        );
        register(
            &mut registry,
            ArchivalFunction::Description,
            "perganet-pipeline",
            "perganet/vgglite-v1",
            "recto/verso, text and signum analysis of digitised parchments",
        );
        register(
            &mut registry,
            ArchivalFunction::Access,
            "bm25-search",
            "itrust/bm25-v1",
            "full-text ranked retrieval over descriptions",
        );
        register(
            &mut registry,
            ArchivalFunction::Access,
            "record-linking",
            "itrust/tfidf-linker-v1",
            "connected-item suggestion and deduplication",
        );
        ITrustPlatform { repo, registry, guard_threshold }
    }

    /// The underlying repository.
    pub fn repo(&self) -> &Repository<MemoryBackend> {
        &self.repo
    }

    /// The capability registry.
    pub fn registry(&self) -> &CapabilityRegistry {
        &self.registry
    }

    /// Accession a batch of textual documents from `producer`.
    pub fn ingest_documents(
        &self,
        producer: &str,
        docs: &[(String, String, String)], // (id, title, text)
        classification: Classification,
        now_ms: u64,
    ) -> Result<AccessionReceipt> {
        let mut sip = Sip::new(producer, now_ms);
        for (id, title, text) in docs {
            let record = Record::over_content(
                id.clone(),
                title.clone(),
                producer,
                now_ms,
                "records-management",
                DocumentaryForm::textual("text/plain"),
                classification,
                text.as_bytes(),
            );
            let mut provenance = ProvenanceChain::new(id.clone());
            provenance.append(now_ms, producer, EventKind::Creation, "success", "")?;
            sip = sip.with_item(SubmissionItem {
                record,
                content: text.as_bytes().to_vec(),
                provenance,
            });
        }
        self.repo.ingest(sip, now_ms, "itrust-platform")
    }

    /// Run a sensitivity review over every record of an AIP. Returns one
    /// [`ReviewResult`] per record; decisions below the guard threshold are
    /// queued on the returned guard (inspect `guard.pending()`).
    pub fn sensitivity_review<'a>(
        &'a self,
        aip_id: &str,
        model: &SensitivityModel,
        now_ms: u64,
    ) -> Result<(Vec<ReviewResult>, TrustGuard<'a>)> {
        let manifest = self.repo.manifest(aip_id)?;
        let guard = TrustGuard::new(self.repo.audit(), self.guard_threshold);
        let mut results = Vec::with_capacity(manifest.records.len());
        for entry in &manifest.records {
            let content = self.repo.content(&entry.record.content_digest)?;
            let text = String::from_utf8_lossy(&content).to_string();
            // itrust-lint: allow(panic-reachable) — stage indices walk a fixed-size pipeline table
            let score = model.score(&[text])[0];
            // Confidence is distance from the decision boundary, rescaled
            // to [0,1]: a 0.5 score is a coin flip (confidence 0), 0 or 1
            // is certainty.
            let confidence = (score - 0.5).abs() * 2.0;
            let label = if score >= 0.5 { "sensitive" } else { "not-sensitive" };
            let mut provenance = entry.provenance.clone();
            let routing = guard.vet(
                now_ms,
                GuardedDecision {
                    subject: entry.record.id.as_str().to_string(),
                    model_id: SENSITIVITY_MODEL_ID.into(),
                    decision: format!("classify as {label} (p={score:.3})"),
                    confidence,
                },
                &mut provenance,
            )?;
            results.push(ReviewResult {
                record_id: entry.record.id.as_str().to_string(),
                score,
                routing,
                provenance,
            });
        }
        Ok((results, guard))
    }

    /// Build a BM25 index over every preserved textual record the platform
    /// holds (all AIPs).
    pub fn build_access_index(&self) -> Result<AccessIndex> {
        let mut index = AccessIndex::default();
        for aip_id in self.repo.list_aips() {
            let manifest = self.repo.manifest(&aip_id)?;
            for entry in &manifest.records {
                let content = self.repo.content(&entry.record.content_digest)?;
                if let Ok(text) = String::from_utf8(content) {
                    index.add(entry.record.id.as_str(), &text);
                }
            }
        }
        Ok(index)
    }

    /// Build a record linker over `(id, title + text)` of all holdings.
    pub fn build_linker(&self) -> Result<RecordLinker> {
        let mut records = Vec::new();
        for aip_id in self.repo.list_aips() {
            let manifest = self.repo.manifest(&aip_id)?;
            for entry in &manifest.records {
                let content = self.repo.content(&entry.record.content_digest)?;
                if let Ok(text) = String::from_utf8(content) {
                    records.push((
                        entry.record.id.as_str().to_string(),
                        format!("{} {}", entry.record.title, text),
                    ));
                }
            }
        }
        RecordLinker::build(&records, itrust_obs::ObsCtx::null())
            .map_err(archival_core::ArchivalError::Codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::{generate_corpus, FitMode};
    use itrust_obs::ObsCtx;

    fn docs_from_corpus(n: usize, seed: u64) -> Vec<(String, String, String)> {
        generate_corpus(n, 0.3, 0.1, seed)
            .into_iter()
            .enumerate()
            .map(|(i, d)| (format!("doc-{i:04}"), format!("Document {i}"), d.text))
            .collect()
    }

    #[test]
    fn registry_covers_most_functions() {
        let platform = ITrustPlatform::default();
        let gaps = platform.registry().uncovered();
        // Acquisition and Preservation are deliberately human/mechanical.
        assert!(gaps.len() <= 2, "{gaps:?}");
        assert!(!platform.registry().is_empty());
    }

    #[test]
    fn ingest_and_review_routes_by_confidence() {
        let platform = ITrustPlatform::new(0.9);
        let docs = docs_from_corpus(40, 1);
        let receipt = platform
            .ingest_documents("Records Office", &docs, Classification::Public, 1_000)
            .unwrap();
        assert_eq!(receipt.record_count, 40);

        let train = generate_corpus(400, 0.3, 0.1, 2);
        let model = SensitivityModel::fit(&train, &[], FitMode::Supervised, &ObsCtx::null());
        let (results, guard) = platform
            .sensitivity_review(&receipt.aip_id, &model, 2_000)
            .unwrap();
        assert_eq!(results.len(), 40);
        let queued = results
            .iter()
            .filter(|r| r.routing == Routing::NeedsHumanReview)
            .count();
        assert_eq!(queued, guard.pending_count());
        // Every result's provenance gained an AiProcessing event and still
        // verifies.
        for r in &results {
            assert!(r
                .provenance
                .events()
                .iter()
                .any(|e| e.kind == EventKind::AiDecision));
            r.provenance.verify().unwrap();
            assert!((0.0..=1.0).contains(&r.score));
        }
        // The audit chain recorded every decision.
        let decisions = platform
            .repo()
            .audit()
            .query(|e| e.kind == trustdb::event::EventKind::AiDecision);
        assert_eq!(decisions.len(), 40);
    }

    #[test]
    fn review_scores_track_content() {
        let platform = ITrustPlatform::new(0.85);
        let docs = vec![
            (
                "sensitive-1".to_string(),
                "Medical file".to_string(),
                "patient diagnosis psychiatric classified informant salary".to_string(),
            ),
            (
                "routine-1".to_string(),
                "Meeting minutes".to_string(),
                "meeting agenda budget schedule committee report".to_string(),
            ),
        ];
        platform
            .ingest_documents("Office", &docs, Classification::Public, 1_000)
            .unwrap();
        let train = generate_corpus(400, 0.3, 0.0, 3);
        let model = SensitivityModel::fit(&train, &[], FitMode::Supervised, &ObsCtx::null());
        let aip = platform.repo().list_aips()[0].clone();
        let (results, _guard) = platform.sensitivity_review(&aip, &model, 2_000).unwrap();
        let by_id = |id: &str| results.iter().find(|r| r.record_id == id).unwrap().score;
        assert!(by_id("sensitive-1") > by_id("routine-1"));
    }

    #[test]
    fn access_index_finds_ingested_documents() {
        let platform = ITrustPlatform::default();
        let docs = vec![
            (
                "r1".to_string(),
                "War report".to_string(),
                "military supply lines at the western front".to_string(),
            ),
            (
                "r2".to_string(),
                "Parchment".to_string(),
                "signum tabellionis on a damaged recto".to_string(),
            ),
        ];
        platform
            .ingest_documents("Office", &docs, Classification::Public, 1_000)
            .unwrap();
        let index = platform.build_access_index().unwrap();
        assert_eq!(index.len(), 2);
        let hits = index.search("signum recto", 2);
        assert_eq!(hits[0].doc_id, "r2");
    }

    #[test]
    fn linker_suggests_connected_items_across_aips() {
        let platform = ITrustPlatform::default();
        platform
            .ingest_documents(
                "Office A",
                &[(
                    "a1".to_string(),
                    "Supply report 1916".to_string(),
                    "military supply lines western front".to_string(),
                )],
                Classification::Public,
                1_000,
            )
            .unwrap();
        platform
            .ingest_documents(
                "Office B",
                &[
                    (
                        "b1".to_string(),
                        "Supply report 1917".to_string(),
                        "military supply ammunition front".to_string(),
                    ),
                    (
                        "b2".to_string(),
                        "Canal permit".to_string(),
                        "building permit canal renovation".to_string(),
                    ),
                ],
                Classification::Public,
                2_000,
            )
            .unwrap();
        let linker = platform.build_linker().unwrap();
        assert_eq!(linker.len(), 3);
        let similar = linker.similar("a1", 1).unwrap();
        assert_eq!(similar[0].0, "b1", "cross-accession connection found");
    }

    #[test]
    fn review_of_unknown_aip_errors() {
        let platform = ITrustPlatform::default();
        let train = generate_corpus(50, 0.3, 0.0, 4);
        let model = SensitivityModel::fit(&train, &[], FitMode::Supervised, &ObsCtx::null());
        assert!(platform.sensitivity_review("aip-404", &model, 1).is_err());
    }
}
