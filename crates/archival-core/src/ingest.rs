//! The accession pipeline: SIP → validation → AIP → store, plus
//! dissemination (AIP → DIP). This is the repository facade the rest of
//! the workspace builds on, and the unit of measurement for experiment T1.

use crate::errors::{ArchivalError, Result};
use crate::oais::{
    AipManifest, AipRecordEntry, Dip, DipRedactionNote, Sip, MANIFEST_FORMAT_VERSION,
};
use crate::record::{Classification, RecordId};
use crate::redaction::Redactor;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use trustdb::audit::AuditLog;
use trustdb::event::EventKind;
use trustdb::fixity::{FixityAuditor, FixityReport};
use trustdb::hash::Digest;
use trustdb::merkle::MerkleTree;
use trustdb::store::{Backend, ObjectStore};

/// Receipt issued to the producer when an accession commits. Publishing
/// `merkle_root` (or countersigning `audit_head`) lets third parties later
/// verify inclusion of individual records.
#[derive(Debug, Clone)]
pub struct AccessionReceipt {
    /// Assigned AIP id.
    pub aip_id: String,
    /// Content address of the stored manifest.
    pub manifest_digest: Digest,
    /// Merkle root over the accession's record contents.
    pub merkle_root: Digest,
    /// Audit chain head at commit.
    pub audit_head: Digest,
    /// Number of records preserved.
    pub record_count: usize,
    /// Total content bytes preserved.
    pub payload_bytes: u64,
}

/// The preservation repository: object store + audit chain + AIP index.
pub struct Repository<B: Backend> {
    store: ObjectStore<B>,
    audit: AuditLog,
    aips: RwLock<BTreeMap<String, Digest>>,
    next_aip: AtomicU64,
    next_dip: AtomicU64,
}

impl<B: Backend> Repository<B> {
    /// Wrap an object store into a repository.
    pub fn new(store: ObjectStore<B>) -> Self {
        Repository {
            store,
            audit: AuditLog::new(),
            aips: RwLock::new(BTreeMap::new()),
            next_aip: AtomicU64::new(1),
            next_dip: AtomicU64::new(1),
        }
    }

    /// The underlying object store.
    pub fn store(&self) -> &ObjectStore<B> {
        &self.store
    }

    /// The repository audit chain.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The telemetry context (inherited from the wrapped store).
    pub fn obs(&self) -> &itrust_obs::ObsCtx {
        self.store.obs()
    }

    /// Ids of all AIPs, sorted.
    pub fn list_aips(&self) -> Vec<String> {
        self.aips.read().keys().cloned().collect()
    }

    /// Ingest a SIP: validate, persist contents, form and persist the AIP.
    pub fn ingest(
        &self,
        mut sip: Sip,
        timestamp_ms: u64,
        archivist: &str,
    ) -> Result<AccessionReceipt> {
        let obs = self.store.obs();
        let _span = itrust_obs::span!(obs, "archival.ingest");
        // Validation moves the contents out of the SIP, so count them first.
        let payload_bytes = sip.payload_bytes();
        let contents = match obs.time("archival.ingest.validate", || sip.validate()) {
            Ok(contents) => contents,
            Err(problems) => {
                self.audit.append(
                    timestamp_ms,
                    archivist,
                    EventKind::Ingest,
                    format!("sip from {}", sip.producer),
                    format!("REJECTED: {} validation problems", problems.len()),
                )?;
                itrust_obs::counter_inc!(obs, "archival.ingest.rejected");
                return Err(ArchivalError::ValidationFailed(problems));
            }
        };
        if sip.items.is_empty() {
            return Err(ArchivalError::InvariantViolation("SIP has no items".into()));
        }
        let aip_id = format!("aip-{:06}", self.next_aip.fetch_add(1, Ordering::SeqCst));
        // Persist contents under the digests validation computed, in
        // submission order, without hashing them again (content
        // addressing dedups automatically).
        let persist_span = itrust_obs::span!(obs, "archival.ingest.persist");
        let stored_digests = self.store.put_many(contents)?;
        let mut entries = Vec::with_capacity(sip.items.len());
        for (mut item, stored) in sip.items.into_iter().zip(stored_digests) {
            debug_assert_eq!(stored, item.record.content_digest);
            item.provenance.append(
                timestamp_ms,
                archivist,
                EventKind::Ingest,
                "success",
                format!("accessioned into {aip_id}"),
            )?;
            entries.push(AipRecordEntry {
                identity_fingerprint: item.record.identity_fingerprint(),
                provenance: item.provenance,
                record: item.record,
            });
        }
        drop(persist_span);
        let _seal_span = itrust_obs::span!(obs, "archival.ingest.seal");
        let tree = MerkleTree::from_leaves(
            entries.iter().map(|e| e.record.content_digest.0.to_vec()),
            obs,
        )
        .ok_or_else(|| ArchivalError::InvariantViolation("cannot seal an empty accession".into()))?;
        let merkle_root = tree.root();
        // Commit point: audit first, then embed the head into the manifest.
        let audit_head = self.audit.append(
            timestamp_ms,
            archivist,
            EventKind::Ingest,
            &aip_id,
            format!(
                "accessioned {} records ({} bytes) from {}, merkle root {}",
                entries.len(),
                payload_bytes,
                sip.producer,
                merkle_root.short()
            ),
        )?;
        let manifest = AipManifest {
            aip_id: aip_id.clone(),
            format_version: MANIFEST_FORMAT_VERSION,
            created_at_ms: timestamp_ms,
            producer: sip.producer,
            agreement_id: sip.agreement_id,
            records: entries,
            merkle_root,
            audit_head: Some(audit_head),
        };
        let manifest_digest = self.store.put(manifest.to_bytes()?)?;
        let record_count = manifest.records.len();
        self.aips.write().insert(aip_id.clone(), manifest_digest);
        itrust_obs::counter_inc!(obs, "archival.ingest.aips");
        itrust_obs::counter_add!(obs, "archival.ingest.records", record_count as u64);
        itrust_obs::counter_add!(obs, "archival.ingest.payload_bytes", payload_bytes);
        Ok(AccessionReceipt {
            aip_id,
            manifest_digest,
            merkle_root,
            audit_head,
            record_count,
            payload_bytes,
        })
    }

    /// Load an AIP manifest by id.
    pub fn manifest(&self, aip_id: &str) -> Result<AipManifest> {
        let digest = self
            .aips
            .read()
            .get(aip_id)
            .copied()
            .ok_or_else(|| ArchivalError::NotFound(format!("AIP {aip_id}")))?;
        let bytes = self.store.get(&digest)?;
        AipManifest::from_bytes(&bytes)
    }

    /// Fetch a preserved record's content by digest.
    pub fn content(&self, digest: &Digest) -> Result<Vec<u8>> {
        Ok(self.store.get(digest)?.to_vec())
    }

    /// Find the AIP containing a record id (linear over manifests; the
    /// description layer provides faster lookup for arranged holdings).
    pub fn locate_record(&self, id: &RecordId) -> Result<(String, AipManifest)> {
        for aip_id in self.list_aips() {
            let manifest = self.manifest(&aip_id)?;
            if manifest.position_of(id).is_some() {
                return Ok((aip_id, manifest));
            }
        }
        Err(ArchivalError::NotFound(format!("record {id}")))
    }

    /// Generate a DIP for `consumer` from a subset of an AIP's records.
    ///
    /// * `Public` records are released as-is.
    /// * `Restricted` records require a `redactor`; their textual content is
    ///   redacted and the DIP carries redaction notes.
    /// * `Confidential` records are never disseminated by this method.
    pub fn disseminate(
        &self,
        aip_id: &str,
        record_ids: &[RecordId],
        consumer: &str,
        timestamp_ms: u64,
        redactor: Option<&Redactor>,
    ) -> Result<Dip> {
        let manifest = self.manifest(aip_id)?;
        let mut items = Vec::with_capacity(record_ids.len());
        let mut notes = Vec::new();
        let mut proofs = Vec::with_capacity(record_ids.len());
        for id in record_ids {
            let pos = manifest
                .position_of(id)
                .ok_or_else(|| ArchivalError::NotFound(format!("record {id} in {aip_id}")))?;
            // itrust-lint: allow(panic-reachable) — header fields sit at fixed offsets within the length-checked record
            let entry = &manifest.records[pos];
            match entry.record.classification {
                Classification::Confidential => {
                    return Err(ArchivalError::AccessDenied {
                        actor: consumer.to_string(),
                        resource: id.to_string(),
                        reason: "confidential records are not disseminated".into(),
                    });
                }
                Classification::Restricted if redactor.is_none() => {
                    return Err(ArchivalError::AccessDenied {
                        actor: consumer.to_string(),
                        resource: id.to_string(),
                        reason: "restricted record requires redaction".into(),
                    });
                }
                _ => {}
            }
            let raw = self.content(&entry.record.content_digest)?;
            let released = match (&entry.record.classification, redactor) {
                (Classification::Restricted, Some(redactor)) => {
                    match String::from_utf8(raw.clone()) {
                        Ok(text) => {
                            let outcome = redactor.redact(&text);
                            notes.push(DipRedactionNote {
                                record_id: id.clone(),
                                spans_redacted: outcome.spans.len(),
                                categories: outcome.categories(),
                            });
                            outcome.text.into_bytes()
                        }
                        Err(_) => {
                            return Err(ArchivalError::InvariantViolation(format!(
                                "restricted record {id} is not textual; cannot redact"
                            )))
                        }
                    }
                }
                // The gate above already rejects this pairing; the arm stays
                // so that removing the gate can never release unredacted
                // restricted content.
                (Classification::Restricted, None) => {
                    return Err(ArchivalError::AccessDenied {
                        actor: consumer.to_string(),
                        resource: id.to_string(),
                        reason: "restricted record requires redaction".into(),
                    });
                }
                _ => raw,
            };
            proofs.push(manifest.prove_inclusion(id)?);
            items.push((entry.record.clone(), released));
        }
        let dip_id = format!("dip-{:06}", self.next_dip.fetch_add(1, Ordering::SeqCst));
        self.audit.append(
            timestamp_ms,
            consumer,
            EventKind::Access,
            aip_id,
            format!("disseminated {} record(s) as {dip_id}", items.len()),
        )?;
        Ok(Dip {
            dip_id,
            source_aip: aip_id.to_string(),
            consumer: consumer.to_string(),
            generated_at_ms: timestamp_ms,
            items,
            redactions: notes,
            proofs,
        })
    }

    /// Run a full fixity sweep, audited.
    pub fn fixity_sweep(&self, timestamp_ms: u64) -> Result<FixityReport> {
        let auditor = FixityAuditor::new(&self.store, &self.audit, "fixity-daemon");
        auditor.sweep(timestamp_ms).map_err(ArchivalError::Storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oais::SubmissionItem;
    use crate::provenance::ProvenanceChain;
    use crate::record::{DocumentaryForm, Record};
    use trustdb::store::MemoryBackend;

    fn repo() -> Repository<MemoryBackend> {
        Repository::new(ObjectStore::new(MemoryBackend::new()))
    }

    fn item(id: &str, body: &[u8], class: Classification) -> SubmissionItem {
        let record = Record::over_content(
            id,
            format!("Title {id}"),
            "Producer",
            100,
            "business activity",
            DocumentaryForm::textual("text/plain"),
            class,
            body,
        );
        let mut provenance = ProvenanceChain::new(id);
        provenance.append(50, "Producer", EventKind::Creation, "success", "").unwrap();
        SubmissionItem { record, content: body.to_vec(), provenance }
    }

    fn public_sip(n: usize) -> Sip {
        let mut sip = Sip::new("Producer", 200);
        for i in 0..n {
            sip = sip.with_item(item(
                &format!("rec-{i}"),
                format!("content of record {i}").as_bytes(),
                Classification::Public,
            ));
        }
        sip
    }

    #[test]
    fn ingest_produces_verifiable_aip() {
        let repo = repo();
        let receipt = repo.ingest(public_sip(5), 1_000, "archivist").unwrap();
        assert_eq!(receipt.record_count, 5);
        assert!(receipt.payload_bytes > 0);
        let manifest = repo.manifest(&receipt.aip_id).unwrap();
        manifest.verify_internal_consistency().unwrap();
        assert_eq!(manifest.merkle_root, receipt.merkle_root);
        assert_eq!(manifest.audit_head, Some(receipt.audit_head));
        // Contents retrievable and intact.
        for entry in &manifest.records {
            let content = repo.content(&entry.record.content_digest).unwrap();
            assert_eq!(trustdb::hash::sha256(&content), entry.record.content_digest);
        }
        repo.audit().verify_chain().unwrap();
    }

    #[test]
    fn ingest_rejects_invalid_sip_and_audits_rejection() {
        let repo = repo();
        let mut bad = item("r1", b"original", Classification::Public);
        bad.content = b"swapped".to_vec();
        let sip = Sip::new("P", 1).with_item(item("r0", b"fine", Classification::Public));
        let err = repo.ingest(sip.with_item(bad), 1_000, "archivist");
        let Err(ArchivalError::ValidationFailed(problems)) = err else {
            panic!("expected a validation failure, got {err:?}");
        };
        let want: Vec<(String, String)> = vec![
            ("r1".into(), "content does not match declared digest".into()),
            ("r1".into(), "content size mismatch".into()),
        ];
        assert_eq!(problems, want);
        // Rejection is audited; nothing was stored, not even the valid item.
        assert_eq!(repo.audit().len(), 1);
        let rejected = repo.audit().query(|e| e.kind == EventKind::Ingest);
        assert_eq!(rejected[0].detail, "REJECTED: 2 validation problems");
        assert_eq!(repo.store().object_count(), 0);
    }

    #[test]
    fn empty_sip_rejected() {
        let repo = repo();
        assert!(matches!(
            repo.ingest(Sip::new("P", 1), 1_000, "a"),
            Err(ArchivalError::InvariantViolation(_))
        ));
    }

    #[test]
    fn aip_ids_are_sequential_and_listed() {
        let repo = repo();
        let r1 = repo.ingest(public_sip(1), 1_000, "a").unwrap();
        let r2 = repo.ingest(public_sip(2), 2_000, "a").unwrap();
        assert_ne!(r1.aip_id, r2.aip_id);
        assert_eq!(repo.list_aips(), vec![r1.aip_id.clone(), r2.aip_id.clone()]);
    }

    #[test]
    fn locate_record_finds_aip() {
        let repo = repo();
        let r1 = repo.ingest(public_sip(3), 1_000, "a").unwrap();
        let (aip, manifest) = repo.locate_record(&RecordId::new("rec-1")).unwrap();
        assert_eq!(aip, r1.aip_id);
        assert!(manifest.position_of(&RecordId::new("rec-1")).is_some());
        assert!(repo.locate_record(&RecordId::new("ghost")).is_err());
    }

    #[test]
    fn dissemination_releases_public_records_with_proofs() {
        let repo = repo();
        let receipt = repo.ingest(public_sip(4), 1_000, "a").unwrap();
        let ids = vec![RecordId::new("rec-0"), RecordId::new("rec-2")];
        let dip = repo
            .disseminate(&receipt.aip_id, &ids, "researcher-x", 2_000, None)
            .unwrap();
        assert_eq!(dip.items.len(), 2);
        assert!(dip.redactions.is_empty());
        // Consumer-side verification: each proof validates against the
        // published merkle root using only the DIP.
        let manifest = repo.manifest(&receipt.aip_id).unwrap();
        for ((record, _content), proof) in dip.items.iter().zip(&dip.proofs) {
            manifest.verify_inclusion(&record.content_digest, proof).unwrap();
        }
        // Access was audited.
        let accesses = repo.audit().query(|e| e.kind == EventKind::Access);
        assert_eq!(accesses.len(), 1);
    }

    #[test]
    fn restricted_requires_redactor_and_notes_redactions() {
        let repo = repo();
        let sip = Sip::new("P", 1).with_item(item(
            "r1",
            b"caller phone 555-123-4567 reported smoke",
            Classification::Restricted,
        ));
        let receipt = repo.ingest(sip, 1_000, "a").unwrap();
        let ids = vec![RecordId::new("r1")];
        // Without a redactor → denied.
        assert!(matches!(
            repo.disseminate(&receipt.aip_id, &ids, "res", 2_000, None),
            Err(ArchivalError::AccessDenied { .. })
        ));
        // With a redactor → released with spans removed.
        let redactor = Redactor::all();
        let dip = repo
            .disseminate(&receipt.aip_id, &ids, "res", 2_000, Some(&redactor))
            .unwrap();
        let text = String::from_utf8(dip.items[0].1.clone()).unwrap();
        assert!(text.contains("[REDACTED:phone]"));
        assert!(!text.contains("4567"));
        assert_eq!(dip.redactions.len(), 1);
        assert_eq!(dip.redactions[0].spans_redacted, 1);
    }

    #[test]
    fn confidential_never_disseminated() {
        let repo = repo();
        let sip = Sip::new("P", 1).with_item(item("r1", b"secret", Classification::Confidential));
        let receipt = repo.ingest(sip, 1_000, "a").unwrap();
        let redactor = Redactor::all();
        assert!(matches!(
            repo.disseminate(
                &receipt.aip_id,
                &[RecordId::new("r1")],
                "res",
                2_000,
                Some(&redactor)
            ),
            Err(ArchivalError::AccessDenied { .. })
        ));
    }

    #[test]
    fn fixity_sweep_covers_manifests_and_contents() {
        let repo = repo();
        repo.ingest(public_sip(3), 1_000, "a").unwrap();
        let report = repo.fixity_sweep(5_000).unwrap();
        // 3 contents + 1 manifest.
        assert_eq!(report.checked, 4);
        assert!(report.is_clean());
        // Tamper with one object → next sweep finds it.
        let victim = repo.store().list()[0];
        repo.store().backend().tamper(&victim, |v| v[0] ^= 1);
        let report = repo.fixity_sweep(6_000).unwrap();
        assert_eq!(report.incidents.len(), 1);
    }

    #[test]
    fn concurrent_ingests_get_distinct_aips() {
        let repo = std::sync::Arc::new(repo());
        let mut handles = Vec::new();
        for t in 0..4 {
            let repo = repo.clone();
            handles.push(std::thread::spawn(move || {
                let mut sip = Sip::new("P", 100);
                sip = sip.with_item(item(
                    &format!("t{t}-r0"),
                    format!("thread {t}").as_bytes(),
                    Classification::Public,
                ));
                repo.ingest(sip, 1_000, "a").unwrap().aip_id
            }));
        }
        let ids: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_eq!(repo.list_aips().len(), 4);
    }
}
