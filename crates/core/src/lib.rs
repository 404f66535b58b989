//! # itrust-core — AI for archival functions, governed by archival principles
//!
//! The paper's research question: *"what would AI look like if archival
//! concepts, principles and methods were to inform the development of AI
//! tools?"* This crate is the workspace's answer — the integration layer
//! where AI capabilities are applied to archival functions **under archival
//! constraints**:
//!
//! * Every model decision is wrapped by a [`ai_task::TrustGuard`]: it is
//!   recorded as provenance with paradata (model id, version, confidence),
//!   and low-confidence decisions are routed to a human review queue
//!   instead of acting autonomously (responsibility, Objective 3).
//! * The archival functions themselves are first-class
//!   ([`functions::ArchivalFunction`]), and AI capabilities register
//!   against them, so coverage and gaps are inspectable
//!   ([`functions::CapabilityRegistry`]).
//! * Adopting an AI capability requires a benefit/risk assessment
//!   ([`risk`], Objective 2).
//!
//! The concrete capabilities implemented:
//!
//! * [`sensitivity`] — sensitive-information classification over documents
//!   (supervised and semi-supervised; Experiment D2).
//! * [`tar`] — technology-assisted review: active-learning prioritization
//!   for declassification/sensitivity review (the conclusion's "quick
//!   review and assessment of vast quantities of records"; Experiment D3).
//! * [`access`] — a BM25 full-text access index ("making current records
//!   easier to organise, retrieve and use"; Experiment D6).
//! * [`linking`] — record similarity and connected-item suggestion
//!   ("helping patrons find connected items"; Experiment D6).
//! * [`describe`] — extractive summarization and subject suggestion for
//!   draft archival descriptions.
//! * [`distant`] — distant supervision from retention-schedule keyword
//!   cues (§2's "surrogate cues" paradigm).
//! * [`text`] — the shared tokenizer / vocabulary / TF-IDF substrate.
//! * [`platform`] — the [`platform::ITrustPlatform`] facade wiring the
//!   repository, the guard, and the capabilities together end-to-end.

#![deny(unsafe_code)]

pub use itrust_ledger as ledger;
pub use itrust_par as par;
pub use itrust_service as service;

pub mod access;
pub mod ai_task;
pub mod describe;
pub mod distant;
pub mod functions;
pub mod linking;
pub mod platform;
pub mod risk;
pub mod sensitivity;
pub mod tar;
pub mod text;
