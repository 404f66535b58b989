//! # itrust-bench — experiment harnesses for every table and figure
//!
//! One module per experiment in DESIGN.md §3. Each exposes a `run()`
//! returning a printable report (the same rows the paper's exhibit implies)
//! plus the structured results, so the Criterion benches
//! (`benches/*.rs`) and the printable binaries (`src/bin/*.rs`) share one
//! implementation.
//!
//! | module | exhibit |
//! |--------|---------|
//! | [`harness::table1`] | Table 1 — heritage fond ingest (scaled) |
//! | [`harness::fig1`] | Figure 1 — PergaNet pipeline stage metrics |
//! | [`harness::fig2`] | Figure 2 — BIM database integration |
//! | [`harness::d1`] | ESCS simulator throughput / delay vs load |
//! | [`harness::d2`] | self-training vs supervised vs labeled fraction |
//! | [`harness::d3`] | TAR vs linear review |
//! | [`harness::d4`] | digital-twin preservation round trip |
//! | [`harness::d5`] | tamper detection + verification cost ablation |
//! | [`harness::d6`] | access index + record linking |
//! | [`harness::d7`] | continuous learning vs annotator error |
//! | [`harness::d8`] | privacy redaction throughput + leakage |
//! | [`harness::d9`] | fault-storm survival with self-healing repair |
//! | [`harness::d10`] | multi-tenant service layer under closed-loop load |

#![deny(unsafe_code)]

pub mod harness;
pub mod report;

/// Right-pad or align simple report tables.
pub fn fmt_row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:>w$}  ", w = w));
    }
    out.trim_end().to_string()
}
