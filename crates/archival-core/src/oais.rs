//! OAIS information packages: SIP → AIP → DIP.
//!
//! The Open Archival Information System reference model (ISO 14721)
//! structures preservation around three package types: producers submit
//! **Submission Information Packages**, the archive converts them into
//! **Archival Information Packages** under its custody, and consumers
//! receive **Dissemination Information Packages**. The digital-twin case
//! study (Section 3.3) asks precisely "what must be captured at the point
//! of creation so an AIP can be formed" — the [`AipManifest`] here is the
//! concrete answer this reproduction gives.

use crate::errors::{ArchivalError, Result};
use crate::provenance::ProvenanceChain;
use crate::record::{Record, RecordId};
use serde::{Deserialize, Serialize};
use trustdb::hash::Digest;
use trustdb::merkle::{InclusionProof, MerkleTree};
use trustdb::store::Hashed;

/// Manifest schema version (bumped on breaking layout changes so future
/// migrations can dispatch).
pub const MANIFEST_FORMAT_VERSION: u32 = 1;

/// One item of a submission: metadata, raw content, and whatever provenance
/// the producer can supply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmissionItem {
    /// Record metadata (its `content_digest` must match `content`).
    pub record: Record,
    /// The record's content bytes.
    pub content: Vec<u8>,
    /// Pre-custody provenance from the producer (may be empty).
    pub provenance: ProvenanceChain,
}

/// A Submission Information Package.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sip {
    /// The producing person/organization/system.
    pub producer: String,
    /// Submission timestamp (ms).
    pub submitted_at_ms: u64,
    /// Optional data-sharing / transfer agreement identifier.
    pub agreement_id: Option<String>,
    /// The submitted items.
    pub items: Vec<SubmissionItem>,
}

impl Sip {
    /// Empty SIP builder.
    pub fn new(producer: impl Into<String>, submitted_at_ms: u64) -> Self {
        Sip { producer: producer.into(), submitted_at_ms, agreement_id: None, items: Vec::new() }
    }

    /// Reference a transfer agreement.
    pub fn under_agreement(mut self, id: impl Into<String>) -> Self {
        self.agreement_id = Some(id.into());
        self
    }

    /// Add an item.
    pub fn with_item(mut self, item: SubmissionItem) -> Self {
        self.items.push(item);
        self
    }

    /// Validate internal consistency: digests bind, sizes match, ids are
    /// unique, identity metadata is present.
    ///
    /// Each item's content moves out of the SIP and is hashed exactly once,
    /// in parallel ([`Hashed::all`]), so take [`Sip::payload_bytes`] first.
    /// A valid SIP yields the hashed contents in item order, ready for
    /// `ObjectStore::put_many`; an invalid one yields its per-record
    /// problems, item by item in submission order.
    pub fn validate(&mut self) -> std::result::Result<Vec<Hashed>, Vec<(String, String)>> {
        let contents: Vec<Vec<u8>> =
            self.items.iter_mut().map(|item| std::mem::take(&mut item.content)).collect();
        let contents = Hashed::all(contents);
        let mut problems = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (item, content) in self.items.iter().zip(&contents) {
            let id = item.record.id.as_str().to_string();
            if !seen.insert(id.clone()) {
                problems.push((id.clone(), "duplicate record id in SIP".into()));
            }
            if content.digest() != item.record.content_digest {
                problems.push((id.clone(), "content does not match declared digest".into()));
            }
            if item.record.content_size != content.bytes().len() as u64 {
                problems.push((id.clone(), "content size mismatch".into()));
            }
            if item.record.title.is_empty() {
                problems.push((id.clone(), "missing title".into()));
            }
            if item.record.creator.is_empty() {
                problems.push((id.clone(), "missing creator".into()));
            }
            if item.provenance.verify().is_err() {
                problems.push((id, "supplied provenance chain does not verify".into()));
            } else if item.provenance.record_id != item.record.id {
                problems.push((
                    item.record.id.as_str().to_string(),
                    "provenance chain names a different record".into(),
                ));
            }
        }
        if problems.is_empty() {
            Ok(contents)
        } else {
            Err(problems)
        }
    }

    /// Total content bytes across items.
    pub fn payload_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.content.len() as u64).sum()
    }
}

/// Per-record entry inside an AIP manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AipRecordEntry {
    /// Record metadata as preserved.
    pub record: Record,
    /// Post-ingest provenance (includes the Ingestion event).
    pub provenance: ProvenanceChain,
    /// Identity fingerprint at ingest time (authenticity baseline).
    pub identity_fingerprint: Digest,
}

/// The Archival Information Package manifest: everything needed to
/// re-verify the accession without trusting the live system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AipManifest {
    /// Archive-assigned package id.
    pub aip_id: String,
    /// Manifest schema version.
    pub format_version: u32,
    /// When the AIP was formed (ms).
    pub created_at_ms: u64,
    /// Producer of the underlying SIP.
    pub producer: String,
    /// Transfer agreement, if any.
    pub agreement_id: Option<String>,
    /// Preserved records with their provenance.
    pub records: Vec<AipRecordEntry>,
    /// Merkle root over the record content digests (accession attestation).
    pub merkle_root: Digest,
    /// Repository audit-chain head at ingest (external commitment point).
    pub audit_head: Option<Digest>,
}

impl AipManifest {
    /// Serialize canonically (serde_json with stable field order — struct
    /// order is fixed by declaration).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        Ok(serde_json::to_vec_pretty(self)?)
    }

    /// Parse a manifest from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(serde_json::from_slice(bytes)?)
    }

    /// Index of a record within the package.
    pub fn position_of(&self, id: &RecordId) -> Option<usize> {
        self.records.iter().position(|e| &e.record.id == id)
    }

    /// Rebuild the Merkle tree over content digests (leaf = digest bytes).
    pub fn merkle_tree(&self) -> Option<MerkleTree> {
        MerkleTree::from_leaves(
            self.records.iter().map(|e| e.record.content_digest.0.to_vec()),
            &itrust_obs::ObsCtx::null(),
        )
    }

    /// Produce an inclusion proof that record `id` belongs to this AIP.
    pub fn prove_inclusion(&self, id: &RecordId) -> Result<InclusionProof> {
        let pos = self
            .position_of(id)
            .ok_or_else(|| ArchivalError::NotFound(format!("record {id} in AIP {}", self.aip_id)))?;
        let tree = self
            .merkle_tree()
            .ok_or_else(|| ArchivalError::InvariantViolation("empty AIP".into()))?;
        tree.prove(pos).map_err(ArchivalError::Storage)
    }

    /// Verify an inclusion proof produced by [`AipManifest::prove_inclusion`]
    /// for a record's content digest against this manifest's root.
    pub fn verify_inclusion(&self, digest: &Digest, proof: &InclusionProof) -> Result<()> {
        proof
            .verify(&digest.0, &self.merkle_root)
            .map_err(ArchivalError::Storage)
    }

    /// Self-check: Merkle root matches records, provenance chains verify,
    /// identity fingerprints match the stored records.
    pub fn verify_internal_consistency(&self) -> Result<()> {
        if self.records.is_empty() {
            return Err(ArchivalError::InvariantViolation("AIP has no records".into()));
        }
        let tree = self
            .merkle_tree()
            .ok_or_else(|| ArchivalError::InvariantViolation("empty AIP".into()))?;
        if tree.root() != self.merkle_root {
            return Err(ArchivalError::InvariantViolation(format!(
                "AIP {} merkle root mismatch",
                self.aip_id
            )));
        }
        for entry in &self.records {
            entry.provenance.verify()?;
            if entry.record.identity_fingerprint() != entry.identity_fingerprint {
                return Err(ArchivalError::InvariantViolation(format!(
                    "record {} identity fingerprint mismatch",
                    entry.record.id
                )));
            }
            if !entry.provenance.has_custody_path() {
                return Err(ArchivalError::InvariantViolation(format!(
                    "record {} lacks an unbroken custody path",
                    entry.record.id
                )));
            }
        }
        Ok(())
    }
}

/// A redaction note attached to a disseminated record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DipRedactionNote {
    /// Which record was redacted.
    pub record_id: RecordId,
    /// Number of spans removed.
    pub spans_redacted: usize,
    /// Categories removed (e.g. "phone", "gps").
    pub categories: Vec<String>,
}

/// A Dissemination Information Package: what a consumer actually receives.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dip {
    /// Dissemination id.
    pub dip_id: String,
    /// Source AIP.
    pub source_aip: String,
    /// Consumer identity.
    pub consumer: String,
    /// Generation time (ms).
    pub generated_at_ms: u64,
    /// Records with (possibly redacted) content.
    pub items: Vec<(Record, Vec<u8>)>,
    /// Redactions applied, if any.
    pub redactions: Vec<DipRedactionNote>,
    /// Inclusion proofs letting the consumer verify each item against the
    /// published AIP merkle root. Proof i corresponds to `items[i]` and
    /// covers the *original* content digest.
    pub proofs: Vec<InclusionProof>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustdb::event::EventKind;
    use crate::record::{Classification, DocumentaryForm};

    pub(crate) fn item(id: &str, body: &[u8]) -> SubmissionItem {
        let record = Record::over_content(
            id,
            format!("Title of {id}"),
            "Producer Org",
            1_000,
            "record keeping",
            DocumentaryForm::textual("text/plain"),
            Classification::Public,
            body,
        );
        let mut provenance = ProvenanceChain::new(id);
        provenance
            .append(500, "Producer Org", EventKind::Creation, "success", "")
            .unwrap();
        SubmissionItem { record, content: body.to_vec(), provenance }
    }

    #[test]
    fn sip_builder_and_validation_clean() {
        let mut sip = Sip::new("Producer Org", 2_000)
            .under_agreement("dsa-2022-01")
            .with_item(item("r1", b"alpha"))
            .with_item(item("r2", b"beta"));
        assert_eq!(sip.items.len(), 2);
        assert_eq!(sip.payload_bytes(), 9);
        // A valid SIP hands back its contents, hashed, in item order.
        let contents = sip.validate().unwrap();
        let digests: Vec<Digest> = contents.iter().map(Hashed::digest).collect();
        assert_eq!(digests, vec![trustdb::hash::sha256(b"alpha"), trustdb::hash::sha256(b"beta")]);
        assert_eq!(contents[1].bytes(), b"beta");
        assert_eq!(sip.payload_bytes(), 0, "the contents moved out of the SIP");
    }

    #[test]
    fn sip_validation_catches_digest_mismatch() {
        let mut bad = item("r1", b"alpha");
        bad.content = b"tampered in transit".to_vec();
        let mut sip = Sip::new("P", 1).with_item(bad);
        let problems = sip.validate().unwrap_err();
        assert!(problems.iter().any(|(_, p)| p.contains("digest")));
        assert!(problems.iter().any(|(_, p)| p.contains("size")));
    }

    #[test]
    fn sip_validation_pins_each_problem_in_item_order() {
        // Same length, other bytes: a wrong digest alone.
        let mut wrong_digest = item("r1", b"alpha");
        wrong_digest.content = b"alphb".to_vec();
        // The declared size alone is wrong.
        let mut wrong_size = item("r2", b"beta");
        wrong_size.record.content_size = 5;
        let mut sip = Sip::new("P", 1)
            .with_item(wrong_digest)
            .with_item(wrong_size)
            .with_item(item("r3", b"gamma"))
            .with_item(item("r3", b"gamma"));
        let want: Vec<(String, String)> = vec![
            ("r1".into(), "content does not match declared digest".into()),
            ("r2".into(), "content size mismatch".into()),
            ("r3".into(), "duplicate record id in SIP".into()),
        ];
        assert_eq!(sip.validate().unwrap_err(), want);
    }

    #[test]
    fn sip_validation_catches_duplicates_and_missing_metadata() {
        let mut no_title = item("r2", b"x");
        no_title.record.title.clear();
        let mut sip = Sip::new("P", 1)
            .with_item(item("r1", b"a"))
            .with_item(item("r1", b"a"))
            .with_item(no_title);
        let problems = sip.validate().unwrap_err();
        assert!(problems.iter().any(|(_, p)| p.contains("duplicate")));
        assert!(problems.iter().any(|(_, p)| p.contains("title")));
    }

    #[test]
    fn sip_validation_catches_foreign_provenance() {
        let mut alien = item("r1", b"a");
        alien.provenance = ProvenanceChain::new("other-record");
        alien
            .provenance
            .append(1, "x", EventKind::Creation, "success", "")
            .unwrap();
        let mut sip = Sip::new("P", 1).with_item(alien);
        assert!(sip
            .validate()
            .unwrap_err()
            .iter()
            .any(|(_, p)| p.contains("different record")));
    }

    fn manifest_over(items: Vec<SubmissionItem>) -> AipManifest {
        let entries: Vec<AipRecordEntry> = items
            .into_iter()
            .map(|mut it| {
                it.provenance
                    .append(3_000, "archive", EventKind::Ingest, "success", "aip-1")
                    .unwrap();
                AipRecordEntry {
                    identity_fingerprint: it.record.identity_fingerprint(),
                    provenance: it.provenance,
                    record: it.record,
                }
            })
            .collect();
        let tree = MerkleTree::from_leaves(
            entries.iter().map(|e| e.record.content_digest.0.to_vec()),
            &itrust_obs::ObsCtx::null(),
        )
        .unwrap();
        AipManifest {
            aip_id: "aip-1".into(),
            format_version: MANIFEST_FORMAT_VERSION,
            created_at_ms: 3_000,
            producer: "Producer Org".into(),
            agreement_id: None,
            records: entries,
            merkle_root: tree.root(),
            audit_head: None,
        }
    }

    #[test]
    fn manifest_round_trip_and_consistency() {
        let m = manifest_over(vec![item("r1", b"a"), item("r2", b"b"), item("r3", b"c")]);
        m.verify_internal_consistency().unwrap();
        let bytes = m.to_bytes().unwrap();
        let back = AipManifest::from_bytes(&bytes).unwrap();
        back.verify_internal_consistency().unwrap();
        assert_eq!(back.aip_id, "aip-1");
        assert_eq!(back.records.len(), 3);
    }

    #[test]
    fn manifest_detects_swapped_record_metadata() {
        let mut m = manifest_over(vec![item("r1", b"a"), item("r2", b"b")]);
        m.records[0].record.title = "forged title".into();
        assert!(m.verify_internal_consistency().is_err());
    }

    #[test]
    fn manifest_detects_merkle_mismatch() {
        let mut m = manifest_over(vec![item("r1", b"a"), item("r2", b"b")]);
        m.records.swap(0, 1);
        assert!(m.verify_internal_consistency().is_err());
    }

    #[test]
    fn inclusion_proofs_work_per_record() {
        let m = manifest_over(vec![item("r1", b"a"), item("r2", b"b"), item("r3", b"c")]);
        for entry in &m.records {
            let proof = m.prove_inclusion(&entry.record.id).unwrap();
            m.verify_inclusion(&entry.record.content_digest, &proof).unwrap();
        }
        // A proof does not validate a different record's digest.
        let p1 = m.prove_inclusion(&RecordId::new("r1")).unwrap();
        let other = m.records[1].record.content_digest;
        assert!(m.verify_inclusion(&other, &p1).is_err());
    }

    #[test]
    fn prove_inclusion_unknown_record() {
        let m = manifest_over(vec![item("r1", b"a")]);
        assert!(matches!(
            m.prove_inclusion(&RecordId::new("ghost")),
            Err(ArchivalError::NotFound(_))
        ));
    }

    #[test]
    fn custody_path_required() {
        // Build a manifest whose provenance lacks the Creation event.
        let mut it = item("r1", b"a");
        it.provenance = ProvenanceChain::new("r1");
        let entries = vec![AipRecordEntry {
            identity_fingerprint: it.record.identity_fingerprint(),
            provenance: {
                let mut p = it.provenance.clone();
                p.append(1, "archive", EventKind::Ingest, "success", "").unwrap();
                p
            },
            record: it.record,
        }];
        let tree = MerkleTree::from_leaves(
            entries.iter().map(|e| e.record.content_digest.0.to_vec()),
            &itrust_obs::ObsCtx::null(),
        )
        .unwrap();
        let m = AipManifest {
            aip_id: "aip-x".into(),
            format_version: MANIFEST_FORMAT_VERSION,
            created_at_ms: 1,
            producer: "p".into(),
            agreement_id: None,
            records: entries,
            merkle_root: tree.root(),
            audit_head: None,
        };
        let err = m.verify_internal_consistency().unwrap_err();
        assert!(err.to_string().contains("custody"));
    }
}
