//! # trustdb — tamper-evident storage substrate for trusted digital preservation
//!
//! `trustdb` is the storage layer underneath the `itrust` workspace. Archival
//! preservation ("trusted data forever") imposes requirements an ordinary
//! key-value store does not meet:
//!
//! * **Fixity** — every stored object is content-addressed by its SHA-256
//!   digest, and the store can re-verify all holdings on demand
//!   ([`fixity::FixityAuditor`]).
//! * **Tamper evidence** — every mutation is recorded in a hash-chained audit
//!   log ([`audit::AuditLog`]); any retroactive edit breaks the chain.
//! * **Durability discipline** — writes flow through an append-only,
//!   CRC-framed write-ahead log ([`wal::Wal`]) with group commit.
//! * **Verifiable batches** — Merkle trees ([`merkle::MerkleTree`]) provide
//!   logarithmic inclusion proofs over ingest batches, so a third party can
//!   verify that a single record belongs to an attested accession.
//! * **Survivability** — holdings replicate across N backends
//!   ([`replica::ReplicatedBackend`]: quorum writes, digest-verified
//!   fallback reads, per-replica circuit breakers), and
//!   [`fixity::FixityAuditor::sweep_and_repair`] rewrites corrupt or lost
//!   copies from a healthy replica, logging each repair into the audit
//!   chain. The whole failure model is testable deterministically via
//!   seeded fault injection ([`fault::FaultyBackend`]).
//! * **Partition tolerance** — replicas keep accepting writes while severed
//!   from quorum ([`antientropy::DelayTolerantIngest`] + durable intent
//!   logs), reconcile deterministically on heal, and converge via
//!   merkle-diff gossip sweeps ([`antientropy::AntiEntropy`]) whose every
//!   transfer is audited. Partition/flap/rejoin schedules are part of the
//!   deterministic fault model ([`fault::FaultPlan::net_events`]).
//!
//! All cryptographic primitives (SHA-256, CRC32C) are implemented in this
//! crate from scratch — no external crypto dependencies — and validated
//! against published test vectors. SHA-256 runs on the x86 SHA extensions
//! when the CPU has them (runtime detection) and on portable code
//! otherwise; that compression function is the only `unsafe` code in the
//! workspace.
//!
//! ## Quick example
//!
//! ```
//! use trustdb::store::{ObjectStore, MemoryBackend};
//!
//! let store = ObjectStore::new(MemoryBackend::default());
//! let id = store.put(b"archival record content".as_slice()).unwrap();
//! assert_eq!(&store.get(&id).unwrap()[..], b"archival record content");
//! assert!(store.verify(&id).unwrap());
//! ```

#![deny(unsafe_code)]

pub mod antientropy;
pub mod audit;
pub mod catalog;
pub mod errors;
pub mod event;
pub mod fault;
pub mod fixity;
pub mod hash;
pub mod merkle;
pub mod replica;
pub mod store;
pub mod wal;

pub use antientropy::{
    AntiEntropy, DelayTolerantIngest, GossipReport, IngestOutcome, IntentLog, IntentRecord,
    PairOutcome, PartitionedBackend, ReconcileReport, SetSummary,
};
pub use errors::{Error, Result};
pub use event::{verify_events, EventBuilder, EventKind, LedgerEvent, Verifiable};
pub use fault::{FaultPlan, FaultyBackend, NetEvent};
pub use hash::{crc32c, sha256, Digest};
pub use replica::{
    BreakerConfig, BreakerState, Clock, HealOutcome, ManualClock, ReplicatedBackend, RetryPolicy,
    SelfHealing, SystemClock,
};
pub use store::{MemoryBackend, ObjectStore};
