//! # perganet — the Figure 1 pipeline: DL analysis of historical parchments
//!
//! Section 3.2 describes PergaNet, "a lightweight DL-based system for the
//! historical reconstructions of ancient parchments", with three stages:
//!
//! 1. **Recto/verso classification** — the paper uses VGG16; here a small
//!    from-scratch CNN ([`classifier::VggLite`]) fills the same role.
//! 2. **Text detection** — the paper uses EAST; [`text_detect::EastLite`]
//!    reproduces EAST's decision structure (a dense per-cell score map) at
//!    laptop scale. Its purpose in the pipeline is to *exclude* text regions
//!    before signum detection.
//! 3. **Signum tabellionis detection** — the paper uses YOLOv3;
//!    [`signum::YoloLite`] is a single-pass grid detector with objectness,
//!    box regression, and non-max suppression.
//!
//! The original scanned parchments are unpublished archival holdings, so
//! [`corpus`] generates synthetic parchments with full ground truth
//! (side, text-line boxes, signum boxes, damage) — which also enables the
//! precision/recall measurement the paper itself never reports (Experiment
//! F1). [`continuous`] implements the paper's "manual annotations as a form
//! of continuous learning" loop with a simulated annotator (Experiment D7).

#![deny(unsafe_code)]

pub mod classifier;
pub mod continuous;
pub mod corpus;
pub mod eval;
pub mod image;
pub mod pipeline;
pub mod signum;
pub mod text_detect;
