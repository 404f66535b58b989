//! Error types shared across the storage substrate.

use std::fmt;

/// Convenience alias used throughout `trustdb`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the storage substrate.
///
/// Corruption-class errors ([`Error::DigestMismatch`],
/// [`Error::ChainBroken`], [`Error::ProofInvalid`]) are deliberately
/// distinct from "not found" and I/O errors: in an archival setting a
/// corruption is an *integrity incident* that must be reported and logged,
/// never silently retried.
#[derive(Debug)]
pub enum Error {
    /// The requested object is not present in the store.
    NotFound(String),
    /// A content-addressed object no longer matches its digest.
    DigestMismatch {
        expected: String,
        actual: String,
    },
    /// A hash-chained log entry does not link to its predecessor.
    ChainBroken { index: u64, detail: String },
    /// A Merkle proof failed to verify.
    ProofInvalid(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Serialization / deserialization failure.
    Codec(String),
    /// An operation was rejected because it would violate an invariant
    /// (e.g. overwriting an immutable object with different content).
    InvariantViolation(String),
    /// A replicated write could not reach its quorum.
    QuorumFailed { required: usize, achieved: usize },
    /// A replica is (possibly permanently) refusing operations.
    ReplicaUnavailable { replica: usize, detail: String },
    /// A replica is severed from the network by an active partition. Unlike
    /// [`Error::ReplicaUnavailable`] (a health judgement made by the caller's
    /// circuit breaker), this is a statement about connectivity: the replica
    /// itself may be perfectly healthy and accepting local writes, which is
    /// exactly what delay-tolerant ingest exploits.
    Partitioned { replica: usize },
    /// A tenant's namespace budget (object count or byte budget) would be
    /// exceeded by the operation. A policy decision, not a fault: retrying
    /// cannot help until the custodian raises the quota or disposes
    /// holdings, so this is never transient.
    QuotaExceeded { tenant: String, detail: String },
    /// The service front end is saturated (admission queue full or rate
    /// limit exhausted) and shed the request to protect tail latency for
    /// admitted work. Transient by definition: the same request may be
    /// admitted a moment later once load drains.
    Overloaded { detail: String },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(k) => write!(f, "object not found: {k}"),
            Error::DigestMismatch { expected, actual } => {
                write!(f, "digest mismatch: expected {expected}, got {actual}")
            }
            Error::ChainBroken { index, detail } => {
                write!(f, "audit chain broken at entry {index}: {detail}")
            }
            Error::ProofInvalid(d) => write!(f, "merkle proof invalid: {d}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Codec(d) => write!(f, "codec error: {d}"),
            Error::InvariantViolation(d) => write!(f, "invariant violation: {d}"),
            Error::QuorumFailed { required, achieved } => {
                write!(f, "write quorum failed: {achieved} of {required} required replicas")
            }
            Error::ReplicaUnavailable { replica, detail } => {
                write!(f, "replica {replica} unavailable: {detail}")
            }
            Error::Partitioned { replica } => {
                write!(f, "replica {replica} is severed by a network partition")
            }
            Error::QuotaExceeded { tenant, detail } => {
                write!(f, "quota exceeded for tenant {tenant}: {detail}")
            }
            Error::Overloaded { detail } => {
                write!(f, "service overloaded, request shed: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// True when the error indicates stored data no longer matches what was
    /// written — the class of error a fixity audit exists to surface.
    pub fn is_integrity_incident(&self) -> bool {
        matches!(
            self,
            Error::DigestMismatch { .. } | Error::ChainBroken { .. } | Error::ProofInvalid(_)
        )
    }

    /// True when the failure is plausibly momentary (a flaky disk, an
    /// interrupted syscall, a saturated device) and the same operation may
    /// succeed if simply retried. Drives the replica retry policy: transient
    /// errors are retried with backoff, everything else fails over
    /// immediately. Integrity incidents are *never* transient — retrying
    /// cannot un-corrupt data.
    pub fn is_transient(&self) -> bool {
        use std::io::ErrorKind;
        match self {
            Error::Io(e) => matches!(
                e.kind(),
                ErrorKind::Interrupted
                    | ErrorKind::WouldBlock
                    | ErrorKind::TimedOut
                    | ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::BrokenPipe
            ),
            // Load shedding clears as soon as the admission queue drains;
            // clients should back off and retry.
            Error::Overloaded { .. } => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrity_classification() {
        assert!(Error::DigestMismatch { expected: "a".into(), actual: "b".into() }
            .is_integrity_incident());
        assert!(Error::ChainBroken { index: 3, detail: "d".into() }.is_integrity_incident());
        assert!(!Error::NotFound("k".into()).is_integrity_incident());
        assert!(!Error::Codec("bad".into()).is_integrity_incident());
    }

    #[test]
    fn transient_classification() {
        use std::io::{Error as IoError, ErrorKind};
        assert!(Error::Io(IoError::new(ErrorKind::TimedOut, "slow disk")).is_transient());
        assert!(Error::Io(IoError::new(ErrorKind::Interrupted, "signal")).is_transient());
        // Permanent I/O failures are not retried.
        assert!(!Error::Io(IoError::new(ErrorKind::PermissionDenied, "dead")).is_transient());
        assert!(!Error::NotFound("k".into()).is_transient());
        // Corruption is never transient: a retry cannot un-rot bytes.
        assert!(!Error::DigestMismatch { expected: "a".into(), actual: "b".into() }
            .is_transient());
        assert!(!Error::QuorumFailed { required: 2, achieved: 1 }.is_transient());
    }

    #[test]
    fn admission_errors_classify_and_display() {
        // Shedding is transient (back off and retry); a quota breach is a
        // policy decision that no retry can fix. Neither says anything
        // about the integrity of stored bytes.
        let shed = Error::Overloaded { detail: "queue full".into() };
        assert!(shed.is_transient());
        assert!(!shed.is_integrity_incident());
        assert!(shed.to_string().contains("overloaded"));
        let quota = Error::QuotaExceeded { tenant: "trademarks".into(), detail: "bytes".into() };
        assert!(!quota.is_transient());
        assert!(!quota.is_integrity_incident());
        assert!(quota.to_string().contains("trademarks"));
    }

    #[test]
    fn replication_errors_display() {
        let e = Error::QuorumFailed { required: 2, achieved: 1 };
        assert!(e.to_string().contains("quorum"));
        let e = Error::ReplicaUnavailable { replica: 1, detail: "circuit open".into() };
        assert!(e.to_string().contains("replica 1"));
        let e = Error::Partitioned { replica: 2 };
        assert!(e.to_string().contains("replica 2") && e.to_string().contains("partition"));
    }

    #[test]
    fn proof_invalid_is_a_nontransient_integrity_incident() {
        // The provenance ledger maps every verification failure — bad
        // merkle path, bad checkpoint hash, bad custodian or witness
        // signature — to ProofInvalid. That classification must stay
        // pinned: an invalid proof is an integrity incident to report,
        // and retrying verification can never make a forged proof pass.
        let e = Error::ProofInvalid("sibling hash mismatch at depth 3".into());
        assert!(e.is_integrity_incident());
        assert!(!e.is_transient());
        assert!(e.to_string().contains("proof invalid"));
    }

    #[test]
    fn partitioned_is_neither_transient_nor_integrity() {
        // A partition is not momentary at the operation timescale (retrying
        // within the same virtual instant cannot heal the network), and it
        // says nothing about the bytes on disk.
        let e = Error::Partitioned { replica: 0 };
        assert!(!e.is_transient());
        assert!(!e.is_integrity_incident());
    }

    #[test]
    fn display_is_informative() {
        let e = Error::DigestMismatch { expected: "aa".into(), actual: "bb".into() };
        let s = e.to_string();
        assert!(s.contains("aa") && s.contains("bb"));
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::other("disk on fire");
        let e: Error = io.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("disk on fire"));
    }
}
