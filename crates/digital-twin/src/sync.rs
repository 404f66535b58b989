//! Physical↔digital synchronization log.
//!
//! A twin is only a twin while the digital side tracks the physical side.
//! Every state change crossing the boundary — a sensor batch arriving, a
//! renovation updating the BIM, a control action going out — is logged
//! here with direction and payload digest, so the preserved twin can show
//! *that* and *when* it was synchronized (one of the study's "what must be
//! captured at creation" answers).

use serde::{Deserialize, Serialize};
use trustdb::hash::{sha256, Digest};

/// Direction of a synchronization event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Physical → digital (telemetry, surveys).
    Inbound,
    /// Digital → physical (control actions, work orders).
    Outbound,
}

/// One synchronization event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncEvent {
    /// Sequence number.
    pub seq: u64,
    /// Event time (ms).
    pub timestamp_ms: u64,
    /// Direction.
    pub direction: Direction,
    /// Channel (e.g. "telemetry", "bim-update", "control").
    pub channel: String,
    /// Digest of the payload crossing the boundary.
    pub payload_digest: Digest,
    /// Size of the payload (bytes).
    pub payload_bytes: u64,
}

/// Append-only synchronization log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SyncLog {
    events: Vec<SyncEvent>,
}

impl SyncLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a crossing; the payload is hashed, not stored. Timed into
    /// `obs` (the log itself is a plain serializable value, so it does not
    /// carry a context).
    pub fn record(
        &mut self,
        timestamp_ms: u64,
        direction: Direction,
        channel: impl Into<String>,
        payload: &[u8],
        obs: &itrust_obs::ObsCtx,
    ) -> &SyncEvent {
        let _span = itrust_obs::span!(obs, "twin.sync.record");
        itrust_obs::counter_add!(obs, "twin.sync.payload_bytes", payload.len() as u64);
        let seq = self.events.len() as u64;
        self.events.push(SyncEvent {
            seq,
            timestamp_ms,
            direction,
            channel: channel.into(),
            payload_digest: sha256(payload),
            payload_bytes: payload.len() as u64,
        });
        // itrust-lint: allow(panic-reachable) — event pushed on the previous line
        self.events.last().unwrap()
    }

    /// All events.
    pub fn events(&self) -> &[SyncEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the latest inbound event — the twin's staleness marker: the
    /// moment after which the digital side no longer reflects the physical.
    pub fn last_inbound_ms(&self) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.direction == Direction::Inbound)
            .map(|e| e.timestamp_ms)
            .max()
    }

    /// Verify a payload against the recorded digest at `seq`.
    pub fn verify_payload(&self, seq: u64, payload: &[u8]) -> bool {
        self.events
            .get(seq as usize)
            .is_some_and(|e| e.payload_digest == sha256(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itrust_obs::ObsCtx;

    #[test]
    fn record_and_query() {
        let mut log = SyncLog::new();
        assert!(log.is_empty());
        log.record(100, Direction::Inbound, "telemetry", b"batch-1", &ObsCtx::null());
        log.record(200, Direction::Outbound, "control", b"setpoint 21", &ObsCtx::null());
        log.record(300, Direction::Inbound, "telemetry", b"batch-2", &ObsCtx::null());
        assert_eq!(log.len(), 3);
        assert_eq!(log.last_inbound_ms(), Some(300));
        assert_eq!(log.events()[1].direction, Direction::Outbound);
        assert_eq!(log.events()[0].seq, 0);
        assert_eq!(log.events()[2].seq, 2);
    }

    #[test]
    fn payload_verification() {
        let mut log = SyncLog::new();
        log.record(1, Direction::Inbound, "telemetry", b"the batch", &ObsCtx::null());
        assert!(log.verify_payload(0, b"the batch"));
        assert!(!log.verify_payload(0, b"a different batch"));
        assert!(!log.verify_payload(9, b"the batch"));
    }

    #[test]
    fn no_inbound_means_no_staleness_marker() {
        let mut log = SyncLog::new();
        log.record(1, Direction::Outbound, "control", b"x", &ObsCtx::null());
        assert_eq!(log.last_inbound_ms(), None);
    }

    #[test]
    fn payload_sizes_recorded() {
        let mut log = SyncLog::new();
        log.record(1, Direction::Inbound, "telemetry", &[0u8; 1234], &ObsCtx::null());
        assert_eq!(log.events()[0].payload_bytes, 1234);
    }

    #[test]
    fn serde_round_trip() {
        let mut log = SyncLog::new();
        log.record(1, Direction::Inbound, "telemetry", b"x", &ObsCtx::null());
        let json = serde_json::to_string(&log).unwrap();
        let back: SyncLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
        assert!(back.verify_payload(0, b"x"));
    }
}
