//! Figure 2 — integrating diverse databases into BIM: records/second
//! merged from six heterogeneous sources, with match/conflict accounting,
//! swept over model scale.

use digital_twin::bim::BimModel;
use digital_twin::integration::{integrate_all, synthetic_source, SourceKind};

/// Result row for one model scale.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Elements in the BIM.
    pub elements: usize,
    /// Source records processed (all six sources).
    pub records_in: usize,
    /// Successfully integrated.
    pub integrated: usize,
    /// Unmatched (orphans/blanks).
    pub unmatched: usize,
    /// Attribute conflicts surfaced.
    pub conflicts: usize,
    /// Integration throughput (records/s).
    pub records_per_sec: f64,
}

/// Integrate six synthetic sources into campuses of increasing size.
pub fn run(obs: &itrust_obs::ObsCtx) -> (Vec<ScaleRow>, String) {
    let mut rows = Vec::new();
    for &buildings in &[2usize, 7, 20] {
        let mut model = BimModel::synthetic_campus("Campus", buildings, 3, 10);
        let sources: Vec<_> = SourceKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| synthetic_source(&model, k, 0.85, 5, 3, 100 + i as u64))
            .collect();
        let records_in: usize = sources.iter().map(|s| s.records.len()).sum();
        let (reports, secs) = super::timed(|| integrate_all(&mut model, &sources, obs));
        rows.push(ScaleRow {
            elements: model.element_count(),
            records_in,
            integrated: reports.iter().map(|r| r.integrated).sum(),
            unmatched: reports.iter().map(|r| r.unmatched).sum(),
            conflicts: reports.iter().map(|r| r.conflicts).sum(),
            records_per_sec: records_in as f64 / secs.max(1e-9),
        });
    }
    let mut out = String::from(
        "Figure 2 — integrating diverse databases into BIM (6 sources per campus)\n\
         elements   records in   integrated   unmatched   conflicts\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:>8} {:>12} {:>12} {:>11} {:>11}\n",
            r.elements, r.records_in, r.integrated, r.unmatched, r.conflicts
        ));
    }
    (rows, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn accounting_is_consistent() {
        let (rows, _) = super::run(&itrust_obs::ObsCtx::null());
        for r in &rows {
            assert_eq!(r.integrated + r.unmatched, r.records_in);
            // 5 orphans + 3 blanks per source × 6 sources.
            assert_eq!(r.unmatched, 48);
        }
        // Larger campuses integrate more records.
        assert!(rows[2].integrated > rows[0].integrated);
    }
}
