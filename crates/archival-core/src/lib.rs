//! # archival-core — the archival-science substrate
//!
//! The paper's framing contribution is that *archival concepts and
//! principles should inform AI systems*, not the other way round. This
//! crate encodes those concepts as types and invariants so the AI layers
//! above (`itrust-core`, `perganet`, `escs`, `digital-twin`) cannot violate
//! them silently:
//!
//! * A **record** ([`record::Record`]) is information affixed to a medium
//!   with *stable content* and *fixed form*, made or received in the course
//!   of activity. Stable content is enforced by content addressing
//!   (`trustdb`); fixed form is captured by [`record::DocumentaryForm`].
//! * **Trustworthiness** decomposes into *reliability* (content can be
//!   trusted), *accuracy* (data unchanged and unchangeable), and
//!   *authenticity* (identity and integrity intact) — assessed by
//!   [`trust::TrustAssessor`].
//! * Preservation follows the **OAIS** reference model: producers submit
//!   SIPs, the archive creates AIPs, consumers receive DIPs ([`oais`]).
//! * Every action on holdings is recorded in a tamper-evident audit chain
//!   and in per-record **provenance** ([`provenance`], PREMIS-style).
//! * Holdings are arranged in the classical **description hierarchy**
//!   fonds → series → file → item ([`description`]).
//! * **Retention and disposition** schedules decide what is kept forever
//!   and what is destroyed under authority, with legal holds
//!   ([`retention`]).
//! * **Access** is role- and classification-gated, and always audited
//!   ([`access`]); dissemination can apply **redaction** ([`redaction`]).
//!
//! The [`ingest`] module ties these together into the accession pipeline
//! measured by experiment T1.

#![deny(unsafe_code)]

pub mod access;
pub mod bagit;
pub mod description;
pub mod errors;
pub mod ingest;
pub mod migration;
pub mod oais;
pub mod provenance;
pub mod record;
pub mod redaction;
pub mod retention;
pub mod trust;

pub use errors::{ArchivalError, Result};
pub use record::{DocumentaryForm, Record, RecordId};
