//! Hash-chained, tamper-evident audit log.
//!
//! Archival accountability requires that the history of actions on holdings
//! ("who ingested / accessed / disposed what, when") is itself trustworthy.
//! Each entry embeds the digest of its predecessor, so the log forms a hash
//! chain: editing, deleting, or reordering any past entry invalidates every
//! subsequent link and is caught by [`AuditLog::verify_chain`].
//!
//! The chain digest of the latest entry (the *chain head*) can be published
//! or countersigned externally; that single value then commits to the entire
//! history.
//!
//! Entries are canonical [`LedgerEvent`]s (see [`crate::event`]).

use crate::errors::Result;
use crate::event::{verify_events, EventKind, LedgerEvent, Verifiable};
use crate::hash::Digest;
use parking_lot::RwLock;

/// An append-only audit log whose entries form a hash chain.
pub struct AuditLog {
    entries: RwLock<Vec<LedgerEvent>>,
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::new()
    }
}

impl AuditLog {
    /// Create an empty log.
    pub fn new() -> Self {
        AuditLog { entries: RwLock::new(Vec::new()) }
    }

    /// Rebuild a log from previously-exported entries, verifying the chain
    /// as it loads. Rejects any tampering with [`crate::Error::ChainBroken`].
    pub fn from_entries(entries: Vec<LedgerEvent>) -> Result<Self> {
        let log = AuditLog { entries: RwLock::new(entries) };
        log.verify_chain()?;
        Ok(log)
    }

    /// Append an action. `timestamp_ms` must be ≥ the previous entry's.
    pub fn append(
        &self,
        timestamp_ms: u64,
        actor: impl Into<String>,
        action: EventKind,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) -> Result<Digest> {
        let mut entries = self.entries.write();
        let (seq, prev, floor) = match entries.last() {
            Some(last) => (last.seq + 1, last.hash, last.timestamp_ms),
            None => (0, Digest::zero(), 0),
        };
        let entry = LedgerEvent::builder(action)
            .at(timestamp_ms)
            .actor(actor)
            .subject(subject)
            .detail(detail)
            .seal(seq, prev, floor)?;
        let head = entry.hash;
        entries.push(entry);
        Ok(head)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// The chain head: digest of the latest entry, committing to the whole
    /// history. `None` when empty.
    pub fn head(&self) -> Option<Digest> {
        self.entries.read().last().map(|e| e.hash)
    }

    /// Clone out all entries (e.g. for export into an AIP or the ledger).
    pub fn export(&self) -> Vec<LedgerEvent> {
        self.entries.read().clone()
    }

    /// Entries matching a predicate, in order.
    pub fn query(&self, mut pred: impl FnMut(&LedgerEvent) -> bool) -> Vec<LedgerEvent> {
        self.entries.read().iter().filter(|e| pred(e)).cloned().collect()
    }

    /// Verify every link of the chain. O(n) re-hash.
    pub fn verify_chain(&self) -> Result<()> {
        let entries = self.entries.read();
        verify_events(&entries)
    }

    /// Verify an exported entry slice (e.g. after round-tripping through an
    /// archival package). Alias of [`crate::event::verify_events`].
    pub fn verify_entries(entries: &[LedgerEvent]) -> Result<()> {
        verify_events(entries)
    }
}

impl Verifiable for AuditLog {
    fn verify(&self) -> Result<()> {
        self.verify_chain()
    }

    fn head(&self) -> Digest {
        AuditLog::head(self).unwrap_or_else(Digest::zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::Error;

    fn sample_log(n: u64) -> AuditLog {
        let log = AuditLog::new();
        for i in 0..n {
            log.append(
                i * 1000,
                "archivist-a",
                EventKind::Ingest,
                format!("record-{i}"),
                "accession 2022-07",
            )
            .unwrap();
        }
        log
    }

    #[test]
    fn empty_log_verifies_and_has_no_head() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        assert!(log.head().is_none());
        log.verify_chain().unwrap();
    }

    #[test]
    fn chain_verifies_after_appends() {
        let log = sample_log(50);
        assert_eq!(log.len(), 50);
        log.verify_chain().unwrap();
        assert!(log.head().is_some());
    }

    #[test]
    fn head_commits_to_history() {
        let a = sample_log(10);
        let b = sample_log(10);
        assert_eq!(a.head(), b.head(), "identical histories → identical heads");
        b.append(10_000, "x", EventKind::Access, "record-0", "read").unwrap();
        assert_ne!(a.head(), b.head());
    }

    #[test]
    fn editing_any_field_breaks_chain() {
        let log = sample_log(10);
        let mut entries = log.export();
        entries[4].detail = "falsified".into();
        let err = AuditLog::verify_entries(&entries).unwrap_err();
        assert!(matches!(err, Error::ChainBroken { index: 4, .. }));
    }

    #[test]
    fn deleting_an_entry_breaks_chain() {
        let log = sample_log(10);
        let mut entries = log.export();
        entries.remove(3);
        assert!(AuditLog::verify_entries(&entries).is_err());
    }

    #[test]
    fn reordering_entries_breaks_chain() {
        let log = sample_log(10);
        let mut entries = log.export();
        entries.swap(2, 3);
        assert!(AuditLog::verify_entries(&entries).is_err());
    }

    #[test]
    fn truncating_tail_still_verifies_but_changes_head() {
        // Hash chains cannot detect pure tail truncation without an external
        // head attestation — that is exactly why `head()` exists and is
        // exported into accession receipts (and why the ledger adds signed
        // checkpoints on top).
        let log = sample_log(10);
        let full_head = log.head().unwrap();
        let mut entries = log.export();
        entries.truncate(5);
        AuditLog::verify_entries(&entries).unwrap();
        assert_ne!(entries.last().unwrap().hash, full_head);
    }

    #[test]
    fn recomputed_hash_forgery_detected() {
        // An attacker who edits an entry AND recomputes its hash still breaks
        // the next entry's prev link.
        let log = sample_log(5);
        let mut entries = log.export();
        entries[2].detail = "falsified".into();
        entries[2].hash = entries[2].compute_hash();
        let err = AuditLog::verify_entries(&entries).unwrap_err();
        assert!(matches!(err, Error::ChainBroken { index: 3, .. }));
    }

    #[test]
    fn timestamp_monotonicity_enforced() {
        let log = AuditLog::new();
        log.append(1000, "a", EventKind::Ingest, "s", "d").unwrap();
        assert!(log.append(999, "a", EventKind::Ingest, "s", "d").is_err());
        // Equal timestamps are allowed (same-millisecond actions).
        log.append(1000, "a", EventKind::Ingest, "s2", "d").unwrap();
    }

    #[test]
    fn from_entries_rejects_tampered_export() {
        let log = sample_log(8);
        let mut entries = log.export();
        entries[0].actor = "intruder".into();
        assert!(AuditLog::from_entries(entries).is_err());
    }

    #[test]
    fn query_filters_by_kind() {
        let log = sample_log(3);
        log.append(99_000, "m", EventKind::FixityCheck, "record-1", "sweep").unwrap();
        let checks = log.query(|e| e.kind == EventKind::FixityCheck);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].subject, "record-1");
    }

    #[test]
    fn verifiable_impl_matches_inherent_api() {
        let log = sample_log(4);
        Verifiable::verify(&log).unwrap();
        assert_eq!(Verifiable::head(&log), log.head().unwrap());
        let empty = AuditLog::new();
        assert_eq!(Verifiable::head(&empty), Digest::zero());
    }
}
