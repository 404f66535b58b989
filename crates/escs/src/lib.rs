//! # escs — graph-based emergency services communications system simulator
//!
//! Section 3.1 of the paper studies how data from emergency services
//! communications systems (9-1-1 / NG911) can be preserved as trustworthy
//! records. The study is explicitly *pre-data-collection*: the paper's plan
//! is to connect "large-scale simulations of ESCS to historical data" and
//! to use "simulation results and simulation artifact provenance
//! information as exemplars". This crate builds exactly that apparatus,
//! following the graph-based simulator design of the paper's cited
//! companion work (Jordan et al., ANNSIM 2022):
//!
//! * [`graph`] — the PSAP (public-safety answering point) network topology:
//!   call sources, primary/secondary PSAPs, dispatch centers, responder
//!   pools, with transfer and overflow edges.
//! * [`stats`] — Poisson/exponential/log-normal samplers driving arrivals
//!   and service times (implemented in-repo; no rand_distr dependency).
//! * [`event`] — a deterministic discrete-event engine (binary-heap future
//!   event list with stable tie-breaking).
//! * [`call`] — the call record: the *data object* whose preservation the
//!   study is about, including the fields the paper enumerates (partial
//!   phone numbers, categorization, GPS, responder info, response times).
//! * [`external`] — the event streams the paper notes are *absent* from
//!   ESCS data (weather, traffic, geopolitical events) that drive call
//!   surges.
//! * [`sim`] — the simulation engine: arrivals, queueing, answering,
//!   transfer, dispatch, abandonment; produces call detail records plus
//!   artifact provenance.
//! * [`privacy`] — redaction/fuzzing for transfer to research environments
//!   (the study's stated privacy risk), and [`agreement`] — the model
//!   data-sharing agreement the study drafts.
//! * [`preserve`] — packaging simulation output as archival records
//!   (SIP construction against `archival-core`).
//! * [`replay`] — re-running a preserved scenario ("replay of a previous
//!   disaster") and verifying divergence is zero.

#![deny(unsafe_code)]

pub mod agreement;
pub mod analytic;
pub mod call;
pub mod event;
pub mod external;
pub mod graph;
pub mod preserve;
pub mod privacy;
pub mod replay;
pub mod sim;
pub mod stats;
