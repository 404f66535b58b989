//! # digital-twin — BIM + IoT + AMS ecosystem with archival packaging
//!
//! Section 3.3 studies whether a digital twin — "an ecosystem of
//! multi-dimensional and interoperable subsystems made up of physical
//! things in the real-world, digital versions of those real things,
//! synchronized data connections between them and the people, organizations
//! and institutions involved" — can be preserved, and what must be captured
//! at the point of creation to make that possible. This crate builds the
//! ecosystem and answers the paper's three research questions in code:
//!
//! * *Can a digital twin be preserved?* — [`archive`] packages a complete
//!   twin (BIM model, sensor histories, asset-management state, sync log,
//!   integration mappings) into an OAIS AIP via `archival-core`, and
//!   [`rehydrate`] restores it and verifies bit-level and structural
//!   fidelity (Experiment D4).
//! * *Can information about the AI tools, automation and real-time data be
//!   preserved?* — [`paradata`] records model identities, versions,
//!   training data digests, and decision logs alongside the twin.
//! * *What is the role of AI/ML in creating the archival package?* — the
//!   `itrust-core` appraisal tooling consumes this crate's inventories.
//!
//! [`integration`] reproduces Figure 2 ("Integrating diverse databases into
//! BIM"): heterogeneous source databases (vendor catalogs, permits, cost
//! tables, sensor registries) are merged into the BIM element graph with
//! full mapping records (Experiment F2).

#![deny(unsafe_code)]

pub mod ams;
pub mod archive;
pub mod bim;
pub mod bps;
pub mod integration;
pub mod paradata;
pub mod rehydrate;
pub mod sensors;
pub mod sync;
