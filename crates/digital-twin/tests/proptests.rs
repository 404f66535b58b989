//! Property-based tests over the digital-twin subsystems.

use digital_twin::bim::BimModel;
use digital_twin::integration::{integrate, synthetic_source, SourceKind};
use digital_twin::sync::{Direction, SyncLog};
use proptest::prelude::*;

proptest! {
    /// Synthetic campuses have exactly the requested shape and digest
    /// deterministically.
    #[test]
    fn campus_shape_and_determinism(b in 1usize..6, s in 1usize..4, e in 1usize..8) {
        let m1 = BimModel::synthetic_campus("c", b, s, e);
        let m2 = BimModel::synthetic_campus("c", b, s, e);
        prop_assert_eq!(m1.element_count(), b * s * e);
        prop_assert_eq!(m1.digest(), m2.digest());
        // Element ids resolve.
        for id in m1.element_ids() {
            prop_assert!(m1.element(&id).is_some());
        }
    }

    /// Integration accounting: integrated + unmatched == records in, and
    /// mapping records cover every input record in order.
    #[test]
    fn integration_accounting(
        coverage in 0.0f64..=1.0,
        orphans in 0usize..10,
        blanks in 0usize..10,
        seed in any::<u64>(),
    ) {
        let mut model = BimModel::synthetic_campus("c", 2, 2, 5);
        let src = synthetic_source(&model, SourceKind::CostTable, coverage, orphans, blanks, seed);
        let total = src.records.len();
        let report = integrate(&mut model, &src, &itrust_obs::ObsCtx::null());
        prop_assert_eq!(report.integrated + report.unmatched, total);
        prop_assert_eq!(report.mappings.len(), total);
        prop_assert!(report.unmatched >= orphans + blanks);
        for (mapping, record) in report.mappings.iter().zip(&src.records) {
            prop_assert_eq!(&mapping.record_key, &record.key);
        }
    }

    /// Sync-log payload verification accepts the original payload and
    /// rejects any modification.
    #[test]
    fn sync_log_payload_binding(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..64), 1..10)
    ) {
        let mut log = SyncLog::new();
        for (i, p) in payloads.iter().enumerate() {
            log.record(i as u64, Direction::Inbound, "telemetry", p, &itrust_obs::ObsCtx::null());
        }
        for (i, p) in payloads.iter().enumerate() {
            prop_assert!(log.verify_payload(i as u64, p));
            let mut altered = p.clone();
            altered[0] ^= 0xff;
            prop_assert!(!log.verify_payload(i as u64, &altered));
        }
        prop_assert_eq!(log.last_inbound_ms(), Some(payloads.len() as u64 - 1));
    }

    /// Twin component serialization round-trips for arbitrary small twins.
    #[test]
    fn twin_components_round_trip(buildings in 1usize..3, seed in any::<u64>()) {
        use digital_twin::archive::{DigitalTwin, COMPONENTS};
        let twin =
            DigitalTwin::synthetic("T", buildings, 1, 120_000, seed, &itrust_obs::ObsCtx::null());
        for component in COMPONENTS {
            let bytes = twin.component_bytes(component).unwrap();
            prop_assert!(!bytes.is_empty());
            // Valid JSON, and serialization is deterministic call-to-call.
            let _: serde_json::Value = serde_json::from_slice(&bytes).unwrap();
            prop_assert_eq!(twin.component_bytes(component).unwrap(), bytes);
        }
    }
}
