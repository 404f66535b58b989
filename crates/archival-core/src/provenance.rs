//! Per-record provenance: PREMIS-style event chains.
//!
//! Where the repository-wide audit log answers "what happened in the
//! archive", provenance answers "what happened to *this record*" — the
//! chain of custody that authenticity assessments inspect. Events are
//! hash-linked per record, the same construction as the audit chain but
//! scoped to one object, so a record's history travels with it inside an
//! AIP and remains independently verifiable after dissemination.
//!
//! Events are canonical [`LedgerEvent`]s (see [`trustdb::event`]) with the
//! record id as their `subject`, so a chain can be replayed into the
//! provenance ledger (`itrust-ledger`) without translation.

use crate::errors::{ArchivalError, Result};
use crate::record::RecordId;
use serde::{Deserialize, Serialize};
use trustdb::event::{verify_events, EventKind, LedgerEvent, Verifiable};
use trustdb::hash::{sha256, Digest};

/// A record's complete, hash-linked event history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceChain {
    /// The record this chain belongs to.
    pub record_id: RecordId,
    events: Vec<LedgerEvent>,
}

impl ProvenanceChain {
    /// Empty chain for a record.
    pub fn new(record_id: impl Into<RecordId>) -> Self {
        ProvenanceChain { record_id: record_id.into(), events: Vec::new() }
    }

    /// Append an event. Timestamps must be non-decreasing. The event's
    /// `subject` is always the chain's record id.
    pub fn append(
        &mut self,
        timestamp_ms: u64,
        agent: impl Into<String>,
        kind: EventKind,
        outcome: impl Into<String>,
        detail: impl Into<String>,
    ) -> Result<&LedgerEvent> {
        let (seq, prev, floor) = match self.events.last() {
            Some(e) => (e.seq + 1, e.hash, e.timestamp_ms),
            None => (0, Digest::zero(), 0),
        };
        let event = LedgerEvent::builder(kind)
            .at(timestamp_ms)
            .actor(agent)
            .subject(self.record_id.to_string())
            .outcome(outcome)
            .detail(detail)
            .seal(seq, prev, floor)
            .map_err(|e| {
                ArchivalError::InvariantViolation(format!(
                    "provenance of {}: {e}",
                    self.record_id
                ))
            })?;
        self.events.push(event);
        self.events
            .last()
            .ok_or_else(|| ArchivalError::InvariantViolation("event vanished after push".into()))
    }

    /// Events in order.
    pub fn events(&self) -> &[LedgerEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the chain has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Digest of the latest event (commits to the whole history).
    pub fn head(&self) -> Option<Digest> {
        self.events.last().map(|e| e.hash)
    }

    /// Verify every hash link plus the record-id binding (every event's
    /// subject must name this record); errors identify the first broken
    /// index.
    pub fn verify(&self) -> Result<()> {
        verify_events(&self.events).map_err(|e| {
            ArchivalError::InvariantViolation(format!(
                "provenance chain of {} broken: {e}",
                self.record_id
            ))
        })?;
        let id = self.record_id.to_string();
        for (i, e) in self.events.iter().enumerate() {
            if e.subject != id {
                return Err(ArchivalError::InvariantViolation(format!(
                    "provenance event {i} of {} names foreign subject {}",
                    self.record_id, e.subject
                )));
            }
        }
        Ok(())
    }

    /// Does the chain contain an unbroken custody path: a `Creation` (or
    /// `Transfer`) followed eventually by `Ingest`? This is the minimal
    /// custody criterion the authenticity assessment uses.
    pub fn has_custody_path(&self) -> bool {
        let mut origin_seen = false;
        for e in &self.events {
            match e.kind {
                EventKind::Creation | EventKind::Transfer => origin_seen = true,
                EventKind::Ingest if origin_seen => return true,
                _ => {}
            }
        }
        false
    }

    /// All events by a given agent.
    pub fn by_agent(&self, agent: &str) -> Vec<&LedgerEvent> {
        self.events.iter().filter(|e| e.actor == agent).collect()
    }

    /// Digest of the serialized chain (stored in AIP manifests so chain and
    /// manifest cannot drift apart).
    pub fn content_digest(&self) -> Digest {
        sha256(&serde_json::to_vec(self).unwrap_or_default())
    }

    /// Replay this chain into a provenance ledger. Events keep their
    /// timestamps, agents, kinds, outcomes, details, and record-id subject
    /// — only the seq/prev chain is re-sealed under the ledger's own
    /// history. The chain is verified first: a broken chain must never
    /// launder itself into the ledger. Returns the number of events
    /// appended.
    pub fn export_to_ledger(&self, ledger: &itrust_ledger::Ledger) -> Result<u64> {
        self.verify()?;
        ledger.ingest(self.events.iter()).map_err(|e| {
            ArchivalError::InvariantViolation(format!(
                "exporting provenance of {}: {e}",
                self.record_id
            ))
        })
    }
}

impl Verifiable for ProvenanceChain {
    fn verify(&self) -> trustdb::Result<()> {
        ProvenanceChain::verify(self)
            .map_err(|e| trustdb::Error::ChainBroken { index: 0, detail: e.to_string() })
    }

    fn head(&self) -> Digest {
        ProvenanceChain::head(self).unwrap_or_else(Digest::zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with(n: u64) -> ProvenanceChain {
        let mut c = ProvenanceChain::new("rec-1");
        for i in 0..n {
            c.append(i * 10, "agent", EventKind::FixityCheck, "success", "").unwrap();
        }
        c
    }

    #[test]
    fn append_links_and_verifies() {
        let mut c = ProvenanceChain::new("rec-1");
        c.append(1, "author", EventKind::Creation, "success", "born digital").unwrap();
        c.append(2, "archive", EventKind::Ingest, "success", "accession 7").unwrap();
        assert_eq!(c.len(), 2);
        c.verify().unwrap();
        assert!(c.head().is_some());
        // Every event is bound to the record id through its subject.
        assert!(c.events().iter().all(|e| e.subject == "rec-1"));
    }

    #[test]
    fn tampering_with_detail_detected() {
        let mut c = chain_with(5);
        c.events[2].detail = "rewritten history".into();
        assert!(c.verify().is_err());
    }

    #[test]
    fn tampering_with_kind_detected() {
        let mut c = chain_with(5);
        c.events[1].kind = EventKind::Dissemination;
        assert!(c.verify().is_err());
    }

    #[test]
    fn foreign_subject_detected() {
        // A forged event re-hashed onto another record's chain is caught by
        // the subject binding even though the hash links are consistent.
        let mut c = ProvenanceChain::new("rec-1");
        c.append(1, "a", EventKind::Creation, "success", "").unwrap();
        let mut foreign = ProvenanceChain::new("rec-2");
        foreign.record_id = "rec-1".into();
        foreign.append(1, "a", EventKind::Creation, "success", "").unwrap();
        foreign.record_id = "rec-2".into();
        assert!(foreign.verify().is_err());
        c.verify().unwrap();
    }

    #[test]
    fn removal_and_reorder_detected() {
        let mut c = chain_with(5);
        c.events.remove(0);
        assert!(c.verify().is_err());
        let mut c = chain_with(5);
        c.events.swap(3, 4);
        assert!(c.verify().is_err());
    }

    #[test]
    fn monotonic_timestamps_required() {
        let mut c = ProvenanceChain::new("rec-1");
        c.append(100, "a", EventKind::Creation, "success", "").unwrap();
        assert!(c.append(50, "a", EventKind::Ingest, "success", "").is_err());
    }

    #[test]
    fn custody_path_requires_origin_then_ingest() {
        let mut c = ProvenanceChain::new("rec-1");
        assert!(!c.has_custody_path());
        c.append(1, "archive", EventKind::Ingest, "success", "").unwrap();
        // Ingest without a preceding origin event is NOT custody.
        assert!(!c.has_custody_path());

        let mut c = ProvenanceChain::new("rec-2");
        c.append(1, "author", EventKind::Creation, "success", "").unwrap();
        assert!(!c.has_custody_path());
        c.append(2, "archive", EventKind::Ingest, "success", "").unwrap();
        assert!(c.has_custody_path());

        // Transfer counts as an origin too (for legacy records).
        let mut c = ProvenanceChain::new("rec-3");
        c.append(1, "donor", EventKind::Transfer, "success", "").unwrap();
        c.append(2, "archive", EventKind::Ingest, "success", "").unwrap();
        assert!(c.has_custody_path());
    }

    #[test]
    fn by_agent_filters() {
        let mut c = ProvenanceChain::new("rec-1");
        c.append(1, "model:vgglite-v1", EventKind::AiDecision, "success", "recto p=0.93")
            .unwrap();
        c.append(2, "archivist-b", EventKind::HumanReview, "success", "confirmed")
            .unwrap();
        c.append(3, "model:vgglite-v1", EventKind::AiDecision, "success", "verso p=0.88")
            .unwrap();
        assert_eq!(c.by_agent("model:vgglite-v1").len(), 2);
        assert_eq!(c.by_agent("archivist-b").len(), 1);
        assert!(c.by_agent("nobody").is_empty());
    }

    #[test]
    fn serde_round_trip_preserves_verifiability() {
        let c = chain_with(8);
        let json = serde_json::to_string(&c).unwrap();
        let back: ProvenanceChain = serde_json::from_str(&json).unwrap();
        back.verify().unwrap();
        assert_eq!(back.head(), c.head());
        assert_eq!(back.content_digest(), c.content_digest());
    }

    #[test]
    fn content_digest_reflects_changes() {
        let a = chain_with(3);
        let b = chain_with(4);
        assert_ne!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn verifiable_impl_matches_inherent_api() {
        let c = chain_with(4);
        Verifiable::verify(&c).unwrap();
        assert_eq!(Verifiable::head(&c), c.head().unwrap());
        let empty = ProvenanceChain::new("rec-0");
        assert_eq!(Verifiable::head(&empty), Digest::zero());
    }

    #[test]
    fn export_to_ledger_round_trips_the_chain() {
        use itrust_ledger::{Keyring, Ledger, SecretKey};

        let mut c = ProvenanceChain::new("rec-1");
        c.append(1, "author", EventKind::Creation, "success", "born digital").unwrap();
        c.append(2, "archive", EventKind::Ingest, "success", "accession 7").unwrap();
        c.append(3, "model:vgglite-v1", EventKind::AiDecision, "success", "recto p=0.93")
            .unwrap();

        let ledger =
            Ledger::new("archive", "custodian", Keyring::new().with("custodian", SecretKey::derive("k")));
        assert_eq!(c.export_to_ledger(&ledger).unwrap(), 3);
        // Content survives re-sealing; the ledger's subject index serves
        // the record's history back.
        let history = ledger.events_for_subject("rec-1");
        assert_eq!(history.len(), 3);
        assert_eq!(history[2].actor, "model:vgglite-v1");
        assert_eq!(history[2].kind, EventKind::AiDecision);
        ledger.checkpoint(10).unwrap();
        ledger.prove(1).unwrap().verify("archive", ledger.keyring(), 0).unwrap();

        // A tampered chain is refused wholesale.
        let mut bad = c.clone();
        bad.events[1].detail = "rewritten".into();
        let fresh =
            Ledger::new("archive", "custodian", Keyring::new().with("custodian", SecretKey::derive("k")));
        assert!(bad.export_to_ledger(&fresh).is_err());
        assert!(fresh.is_empty());
    }
}
