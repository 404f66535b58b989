//! The one canonical provenance event vocabulary for the whole workspace.
//!
//! Historically the workspace grew three mutually incompatible event types:
//! `trustdb::audit::AuditEntry` (repository-wide actions),
//! `archival_core::provenance::ProvenanceEvent` (per-record custody), and
//! the per-shard audit entries in `itrust-service` (which reused
//! `AuditEntry` but with its own actor/subject conventions). Three
//! vocabularies meant three verify paths and no way to merge histories into
//! one ledger. This module collapses them into a single [`LedgerEvent`]
//! with a single [`EventKind`] taxonomy (the union of the old PREMIS-style
//! enums) and a single canonical byte encoding that every hash chain in the
//! workspace commits to.
//!
//! [`Verifiable`] is the shared contract for every hash-chained container
//! (audit logs, provenance chains, the provenance ledger): one `verify()`
//! that re-hashes the whole structure, one `head()` digest that commits to
//! the entire history.

use crate::errors::{Error, Result};
use crate::hash::{sha256, Digest};
use serde::{Deserialize, Serialize};

/// Category of a provenance event: the union of the PREMIS-inspired
/// taxonomies the workspace previously split across `AuditAction` and
/// `EventType`. Tag values (see `kind_tag`) are part of the canonical
/// encoding and must never be reused or reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Record created by its author/system.
    Creation,
    /// Transferred to the archive's custody.
    Transfer,
    /// Object, package, or record ingested into the repository.
    Ingest,
    /// Fixity of an object was verified.
    FixityCheck,
    /// Object was read / disseminated to a caller.
    Access,
    /// Object migrated to a new format or storage location.
    Migration,
    /// Sanctioned destruction under a disposition authority.
    Disposition,
    /// Redaction applied for access purposes.
    Redaction,
    /// Annotated/described (including AI-generated description).
    Description,
    /// Disseminated to an external consumer.
    Dissemination,
    /// A decision produced by an AI model (always logged with paradata).
    AiDecision,
    /// Human review/override of an AI decision.
    HumanReview,
    /// Administrative/configuration change.
    Admin,
    /// A corrupt or unreadable replica copy was rewritten from a healthy
    /// one (self-healing fixity, see `fixity::FixityAuditor::sweep_and_repair`).
    Repair,
}

fn kind_tag(k: EventKind) -> u8 {
    match k {
        EventKind::Creation => 0,
        EventKind::Transfer => 1,
        EventKind::Ingest => 2,
        EventKind::FixityCheck => 3,
        EventKind::Access => 4,
        EventKind::Migration => 5,
        EventKind::Disposition => 6,
        EventKind::Redaction => 7,
        EventKind::Description => 8,
        EventKind::Dissemination => 9,
        EventKind::AiDecision => 10,
        EventKind::HumanReview => 11,
        EventKind::Admin => 12,
        EventKind::Repair => 13,
    }
}

/// One immutable, hash-chained provenance event — the single event type
/// every chain in the workspace appends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEvent {
    /// Position in its chain, starting at 0.
    pub seq: u64,
    /// Caller-supplied timestamp in milliseconds. Chains enforce
    /// monotonicity so chain order and time order agree.
    pub timestamp_ms: u64,
    /// Who performed the action (person, system component, or model id).
    pub actor: String,
    /// What kind of event.
    pub kind: EventKind,
    /// The object/package/record the event concerned.
    pub subject: String,
    /// Outcome ("success", "failure: …"; empty when not applicable).
    pub outcome: String,
    /// Free-form, human-auditable detail (including AI paradata).
    pub detail: String,
    /// Chain digest of the previous event ([`Digest::zero`] for the first).
    pub prev: Digest,
    /// Digest over this event's canonical encoding including `prev`.
    pub hash: Digest,
}

impl LedgerEvent {
    /// Start building an event of `kind`. The builder carries the payload
    /// fields; the owning chain supplies position (`seq`, `prev`) and the
    /// timestamp floor at [`EventBuilder::seal`] time.
    pub fn builder(kind: EventKind) -> EventBuilder {
        EventBuilder {
            kind,
            timestamp_ms: 0,
            actor: String::new(),
            subject: String::new(),
            outcome: String::new(),
            detail: String::new(),
        }
    }

    /// Canonical byte encoding that the event hash commits to. Field order
    /// and separators are fixed; changing any field changes the hash.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            80 + self.actor.len() + self.subject.len() + self.outcome.len() + self.detail.len(),
        );
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.timestamp_ms.to_le_bytes());
        // Length-prefix strings so field boundaries cannot be confused.
        for s in [&self.actor, &self.subject, &self.outcome, &self.detail] {
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        buf.push(kind_tag(self.kind));
        buf.extend_from_slice(&self.prev.0);
        buf
    }

    /// Recompute the digest the `hash` field must hold.
    pub fn compute_hash(&self) -> Digest {
        sha256(&self.canonical_bytes())
    }
}

/// Builder for the payload half of a [`LedgerEvent`]; see
/// [`LedgerEvent::builder`].
#[derive(Debug, Clone)]
pub struct EventBuilder {
    kind: EventKind,
    timestamp_ms: u64,
    actor: String,
    subject: String,
    outcome: String,
    detail: String,
}

impl EventBuilder {
    /// Set the event timestamp (milliseconds).
    pub fn at(mut self, timestamp_ms: u64) -> Self {
        self.timestamp_ms = timestamp_ms;
        self
    }

    /// Set the responsible actor.
    pub fn actor(mut self, actor: impl Into<String>) -> Self {
        self.actor = actor.into();
        self
    }

    /// Set the subject (object/package/record id).
    pub fn subject(mut self, subject: impl Into<String>) -> Self {
        self.subject = subject.into();
        self
    }

    /// Set the outcome.
    pub fn outcome(mut self, outcome: impl Into<String>) -> Self {
        self.outcome = outcome.into();
        self
    }

    /// Set the free-form detail.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// The timestamp currently set on the builder.
    pub fn timestamp_ms(&self) -> u64 {
        self.timestamp_ms
    }

    /// Seal the event into a chain at position `seq` following `prev`.
    /// `floor_ms` is the previous event's timestamp; monotonicity is
    /// enforced here so every chain gets the same guarantee.
    pub fn seal(self, seq: u64, prev: Digest, floor_ms: u64) -> Result<LedgerEvent> {
        if self.timestamp_ms < floor_ms {
            return Err(Error::InvariantViolation(format!(
                "event timestamps must be monotonic: {} < {floor_ms}",
                self.timestamp_ms
            )));
        }
        let mut event = LedgerEvent {
            seq,
            timestamp_ms: self.timestamp_ms,
            actor: self.actor,
            kind: self.kind,
            subject: self.subject,
            outcome: self.outcome,
            detail: self.detail,
            prev,
            hash: Digest::zero(),
        };
        event.hash = event.compute_hash();
        Ok(event)
    }
}

/// Verify a hash-chained event slice: dense sequence numbers from 0, prev
/// links matching predecessor hashes, non-decreasing timestamps, and every
/// hash matching its canonical encoding. The single verify path shared by
/// the audit log, per-record provenance chains, and the ledger.
pub fn verify_events(events: &[LedgerEvent]) -> Result<()> {
    let mut prev = Digest::zero();
    let mut last_ts = 0u64;
    for (i, e) in events.iter().enumerate() {
        if e.seq != i as u64 {
            return Err(Error::ChainBroken {
                index: i as u64,
                detail: format!("sequence gap: expected {i}, found {}", e.seq),
            });
        }
        if e.prev != prev {
            return Err(Error::ChainBroken {
                index: i as u64,
                detail: "prev link does not match predecessor hash".into(),
            });
        }
        if e.timestamp_ms < last_ts {
            return Err(Error::ChainBroken {
                index: i as u64,
                detail: "timestamp regression".into(),
            });
        }
        let recomputed = e.compute_hash();
        if recomputed != e.hash {
            return Err(Error::ChainBroken {
                index: i as u64,
                detail: "event hash does not match contents".into(),
            });
        }
        prev = e.hash;
        last_ts = e.timestamp_ms;
    }
    Ok(())
}

/// Shared contract for every tamper-evident, hash-chained container in the
/// workspace (audit logs, per-record provenance chains, the provenance
/// ledger): a full O(n) re-hash verification and a single head digest that
/// commits to the entire history. Lets the chaos-soak and property suites
/// verify every chain generically through one interface.
pub trait Verifiable {
    /// Re-verify the whole structure; any tampering is an error.
    fn verify(&self) -> Result<()>;
    /// Digest committing to the entire history ([`Digest::zero`] when
    /// empty).
    fn head(&self) -> Digest;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: u64) -> Vec<LedgerEvent> {
        let mut events: Vec<LedgerEvent> = Vec::new();
        for i in 0..n {
            let (prev, floor) =
                events.last().map(|e| (e.hash, e.timestamp_ms)).unwrap_or((Digest::zero(), 0));
            let e = LedgerEvent::builder(EventKind::Ingest)
                .at(i * 100)
                .actor("archivist-a")
                .subject(format!("record-{i}"))
                .outcome("success")
                .detail("accession 2022-07")
                .seal(i, prev, floor)
                .unwrap();
            events.push(e);
        }
        events
    }

    #[test]
    fn builder_round_trip_preserves_fields() {
        let e = LedgerEvent::builder(EventKind::AiDecision)
            .at(42)
            .actor("model:vgglite-v1")
            .subject("rec-9")
            .outcome("success")
            .detail("recto p=0.93")
            .seal(0, Digest::zero(), 0)
            .unwrap();
        assert_eq!(e.kind, EventKind::AiDecision);
        assert_eq!(e.timestamp_ms, 42);
        assert_eq!(e.actor, "model:vgglite-v1");
        assert_eq!(e.subject, "rec-9");
        assert_eq!(e.outcome, "success");
        assert_eq!(e.hash, e.compute_hash());
    }

    #[test]
    fn seal_enforces_timestamp_floor() {
        let b = LedgerEvent::builder(EventKind::Ingest).at(5);
        assert!(b.seal(1, Digest::zero(), 10).is_err());
    }

    #[test]
    fn verify_events_accepts_well_formed_chain() {
        verify_events(&chain(20)).unwrap();
        verify_events(&[]).unwrap();
    }

    #[test]
    fn verify_events_rejects_any_field_edit() {
        let mut events = chain(10);
        events[4].detail = "falsified".into();
        assert!(matches!(
            verify_events(&events).unwrap_err(),
            Error::ChainBroken { index: 4, .. }
        ));
        let mut events = chain(10);
        events[3].kind = EventKind::Admin;
        assert!(verify_events(&events).is_err());
        let mut events = chain(10);
        events[7].outcome = "failure: rewritten".into();
        assert!(verify_events(&events).is_err());
    }

    #[test]
    fn verify_events_rejects_removal_and_reorder() {
        let mut events = chain(10);
        events.remove(3);
        assert!(verify_events(&events).is_err());
        let mut events = chain(10);
        events.swap(2, 3);
        assert!(verify_events(&events).is_err());
    }

    #[test]
    fn every_kind_has_a_distinct_tag() {
        let kinds = [
            EventKind::Creation,
            EventKind::Transfer,
            EventKind::Ingest,
            EventKind::FixityCheck,
            EventKind::Access,
            EventKind::Migration,
            EventKind::Disposition,
            EventKind::Redaction,
            EventKind::Description,
            EventKind::Dissemination,
            EventKind::AiDecision,
            EventKind::HumanReview,
            EventKind::Admin,
            EventKind::Repair,
        ];
        let mut tags: Vec<u8> = kinds.iter().map(|k| kind_tag(*k)).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), kinds.len(), "kind tags must be unique");
    }

    #[test]
    fn length_prefixing_prevents_field_splice() {
        // "ab" + "c" must hash differently from "a" + "bc" even though the
        // concatenated bytes agree.
        let a = LedgerEvent::builder(EventKind::Admin)
            .actor("ab")
            .subject("c")
            .seal(0, Digest::zero(), 0)
            .unwrap();
        let b = LedgerEvent::builder(EventKind::Admin)
            .actor("a")
            .subject("bc")
            .seal(0, Digest::zero(), 0)
            .unwrap();
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn serde_round_trip_preserves_hash() {
        let events = chain(5);
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<LedgerEvent> = serde_json::from_str(&json).unwrap();
        verify_events(&back).unwrap();
        assert_eq!(back, events);
    }
}
