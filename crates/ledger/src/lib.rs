//! itrust-ledger: the unified provenance ledger.
//!
//! Every subsystem in the workspace used to keep its own tamper-evident
//! chain — the repository audit log (`trustdb::audit`), per-record
//! provenance (`archival-core::provenance`), per-shard tenant audit chains
//! (`itrust-service`). They shared a construction but not a type, so
//! nothing could answer "what happened across the whole archive" without
//! stitching three vocabularies together. This crate closes that gap:
//!
//! * **One event API.** Everything appends [`trustdb::event::LedgerEvent`]
//!   via its builder; the legacy chains re-export the same type, and their
//!   histories [`Ledger::ingest`] without translation.
//! * **Signed checkpoints.** The ledger periodically freezes its prefix
//!   under a custodian HMAC signature ([`checkpoint::Checkpoint`]),
//!   hash-chained checkpoint-to-checkpoint.
//! * **Witness certificates.** Replica witnesses re-verify and countersign
//!   checkpoints over the anti-entropy partition model
//!   ([`witness::WitnessExchange`]), and endorsements are anchored into
//!   the replicated object store.
//! * **O(log n) inclusion proofs.** An incremental merkle accumulator
//!   ([`tree::IncrementalMerkle`]) serves proofs against any checkpoint's
//!   root; a [`checkpoint::CustodyProof`] verifies offline with at most
//!   ⌈log₂ n⌉ hash operations (≤ 20 for a million events).
//!
//! Proof and signature failures are always
//! [`trustdb::Error::ProofInvalid`]: non-transient integrity incidents,
//! never retried.

#![deny(unsafe_code)]

pub mod checkpoint;
pub mod ledger;
pub mod sign;
pub mod tree;
pub mod witness;

pub use checkpoint::{
    Checkpoint, CustodyProof, SealedCheckpoint, WitnessCertificate, CHECKPOINT_DOMAIN,
    WITNESS_DOMAIN,
};
pub use ledger::Ledger;
pub use sign::{Keyring, SecretKey, Signature};
pub use tree::IncrementalMerkle;
pub use witness::{anchor, load_anchor, AnchorReport, Witness, WitnessExchange};

// The canonical event vocabulary lives in trustdb (the dependency root);
// re-export it so ledger users need one import path.
pub use trustdb::event::{verify_events, EventBuilder, EventKind, LedgerEvent, Verifiable};
