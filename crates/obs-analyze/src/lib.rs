//! # itrust-obs-analyze — turning telemetry into evidence
//!
//! The observability layer (`itrust-obs`) makes every run leave artifacts:
//! `results/<name>.trace.jsonl` span streams, `results/<name>.telemetry.json`
//! registry snapshots, and `results/<name>.blackbox.json` flight-recorder
//! post-mortems. This crate is the layer that *consumes* them — the paper's
//! trust argument wants archives auditable at every step, and a perf claim
//! is only auditable if regressions are machine-checkable.
//!
//! Three analyses, all exposed through the `obstool` binary:
//!
//! - **Span profiler** ([`profile`]): parses a span trace into an
//!   aggregated span tree and reports per-path self-time vs. child-time,
//!   the top-k hot spans, the critical path, and collapsed-stack lines
//!   (`a;b;c N`, flamegraph.pl-compatible). Output depends only on the
//!   trace file, with total ordering everywhere, so two invocations are
//!   byte-identical — CI diffs them.
//! - **Benchdiff** ([`diff`]): compares two telemetry snapshots (typically
//!   a fresh run against a committed baseline under `results/baselines/`)
//!   with per-metric relative-delta thresholds and emits a machine-readable
//!   verdict; `obstool benchdiff --check` exits nonzero on regression,
//!   which is the CI perf gate.
//! - **Black-box reader** ([`blackbox`]): renders the flight-recorder dump
//!   a panicking bench run leaves behind.
//!
//! Everything here is a pure function over artifact *contents*; file I/O
//! lives in the `obstool` binary. No wallclock reads, no environment reads,
//! no panicking paths — the same invariants `itrust-lint` enforces on every
//! other library crate apply here.

#![deny(unsafe_code)]

pub mod blackbox;
pub mod diff;
pub mod profile;
pub mod trace;

use std::fmt;

/// Error from parsing or validating an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError {
    /// 1-based line number inside the artifact, when meaningful.
    pub line: Option<usize>,
    pub msg: String,
}

impl AnalyzeError {
    pub fn new(msg: impl Into<String>) -> Self {
        AnalyzeError { line: None, msg: msg.into() }
    }

    pub fn at_line(line: usize, msg: impl Into<String>) -> Self {
        AnalyzeError { line: Some(line), msg: msg.into() }
    }
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for AnalyzeError {}
