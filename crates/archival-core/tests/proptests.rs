//! Property-based tests over the archival substrate.

use archival_core::oais::{Sip, SubmissionItem};
use archival_core::provenance::ProvenanceChain;
use trustdb::event::EventKind;
use trustdb::store::Hashed;
use archival_core::record::{Classification, DocumentaryForm, Record};
use archival_core::redaction::Redactor;
use archival_core::retention::{Disposition, RetentionRule, RetentionSchedule};
use proptest::prelude::*;

fn record_over(content: &[u8], title: &str, created: u64) -> Record {
    Record::over_content(
        "rec-x",
        title,
        "creator",
        created,
        "activity",
        DocumentaryForm::textual("text/plain"),
        Classification::Public,
        content,
    )
}

proptest! {
    /// Redaction is idempotent and leakage-free for arbitrary text mixed
    /// with sensitive patterns.
    #[test]
    fn redaction_idempotent_and_leakage_free(
        prefix in "[a-z ]{0,40}",
        area in 200u32..999,
        line in 100u32..999,
        number in 0u32..9999,
        suffix in "[a-z ]{0,40}",
    ) {
        let text = format!("{prefix} {area}-{line}-{number:04} {suffix}");
        let redactor = Redactor::all();
        let once = redactor.redact(&text);
        // The full phone number never survives.
        let full = format!("{area}-{line}-{number:04}");
        prop_assert!(!once.text.contains(&full));
        // Second pass finds nothing.
        let twice = redactor.redact(&once.text);
        prop_assert!(twice.spans.is_empty(), "second pass found {:?} in {:?}", twice.spans, once.text);
        prop_assert_eq!(&twice.text, &once.text);
    }

    /// Identity fingerprints are stable under re-serialization and change
    /// whenever identity metadata changes.
    #[test]
    fn identity_fingerprint_stability(
        content in proptest::collection::vec(any::<u8>(), 0..256),
        title in "[A-Za-z0-9 ]{1,30}",
        created in 1u64..u64::MAX / 2,
    ) {
        let r = record_over(&content, &title, created);
        let json = serde_json::to_string(&r).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.identity_fingerprint(), r.identity_fingerprint());
        let mut altered = r.clone();
        altered.title.push('!');
        prop_assert_ne!(altered.identity_fingerprint(), r.identity_fingerprint());
    }

    /// SIP validation accepts well-formed items and rejects digest
    /// mismatches, for arbitrary content.
    #[test]
    fn sip_validation_soundness(content in proptest::collection::vec(any::<u8>(), 0..512)) {
        let record = record_over(&content, "Title", 10);
        let mut provenance = ProvenanceChain::new("rec-x");
        provenance.append(5, "creator", EventKind::Creation, "success", "").unwrap();
        let mut good = Sip::new("P", 100).with_item(SubmissionItem {
            record: record.clone(),
            content: content.clone(),
            provenance: provenance.clone(),
        });
        // A valid SIP hands back its content, hashed once.
        let hashed: Result<Vec<trustdb::hash::Digest>, _> =
            good.validate().map(|items| items.iter().map(Hashed::digest).collect());
        prop_assert_eq!(hashed, Ok(vec![trustdb::hash::sha256(&content)]));
        // Append a byte → digest and size mismatch must be caught.
        let mut tampered_content = content.clone();
        tampered_content.push(0x7f);
        let mut bad = Sip::new("P", 100).with_item(SubmissionItem {
            record,
            content: tampered_content,
            provenance,
        });
        let problems: Vec<String> =
            bad.validate().err().unwrap_or_default().into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(
            problems,
            vec!["content does not match declared digest", "content size mismatch"]
        );
    }

    /// Retention: once due, always due (monotone in time); never due before
    /// creation + period.
    #[test]
    fn retention_due_is_monotone(
        created in 0u64..1_000_000,
        period in 1u64..1_000_000,
        probe in 0u64..4_000_000,
    ) {
        let mut schedule = RetentionSchedule::new();
        schedule.add_rule(RetentionRule {
            records_class: "activity".into(),
            retention_ms: Some(period),
            disposition: Disposition::Destroy,
            authority: "T".into(),
        }).unwrap();
        let record = record_over(b"x", "t", created);
        let due_at = |t: u64| schedule.due_action(&record, t).is_some();
        let boundary = created.saturating_add(period);
        prop_assert_eq!(due_at(probe), probe >= boundary);
        if due_at(probe) {
            prop_assert!(due_at(probe.saturating_add(1)));
        }
    }

    /// Provenance chains verify after arbitrary event sequences and break
    /// under any single-field mutation.
    #[test]
    fn provenance_chain_integrity(
        agents in proptest::collection::vec("[a-z]{1,10}", 1..10),
        mutate_at in any::<usize>(),
    ) {
        let mut chain = ProvenanceChain::new("rec");
        for (i, agent) in agents.iter().enumerate() {
            chain.append(i as u64 * 10, agent.clone(), EventKind::FixityCheck, "success", "d").unwrap();
        }
        chain.verify().unwrap();
        // Mutate one event via serde round trip (fields are private to the
        // chain's Vec but public on the event).
        let json = serde_json::to_string(&chain).unwrap();
        let back: ProvenanceChain = serde_json::from_str(&json).unwrap();
        back.verify().unwrap();
        let idx = mutate_at % agents.len();
        // Forge the detail through JSON manipulation.
        let forged = json.replacen("\"detail\":\"d\"", "\"detail\":\"forged\"", idx + 1);
        if forged != json {
            let tampered: ProvenanceChain = serde_json::from_str(&forged).unwrap();
            prop_assert!(tampered.verify().is_err());
        }
    }
}
