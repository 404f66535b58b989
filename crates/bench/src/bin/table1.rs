//! Printable harness for Table 1 (heritage fond ingest).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("table1")
        .with_trace(itrust_bench::report::trace_path("table1"))
        .expect("create trace sink")
        .with_blackbox(4096);
    let (rows, report) = itrust_bench::harness::table1::run(em.obs());
    println!("{report}");
    for r in &rows {
        let fond = slug(r.fond);
        em.metric(&format!("table1.{fond}.ingest_mib_s"), r.ingest_mib_s)
            .metric(&format!("table1.{fond}.fixity_mib_s"), r.fixity_mib_s);
    }
    for (policy, secs) in itrust_bench::harness::table1::wal_sync_ablation() {
        em.metric(&format!("table1.wal_sync.{policy}_ms"), secs * 1e3);
    }
    em.metric("table1.bytes_total", rows.iter().map(|r| r.bytes).sum::<u64>() as f64)
        .metric("table1.records_total", rows.iter().map(|r| r.records).sum::<usize>() as f64)
        .metric(
            "table1.ingest_mib_s_mean",
            rows.iter().map(|r| r.ingest_mib_s).sum::<f64>() / rows.len() as f64,
        )
        .metric(
            "table1.fixity_mib_s_mean",
            rows.iter().map(|r| r.fixity_mib_s).sum::<f64>() / rows.len() as f64,
        );
    em.finish(rows.len() as u64, &report).expect("write results");
}

/// Metric-key form of a fond name: `Trademarks series (UIBM)` →
/// `trademarks_series_uibm`.
fn slug(fond: &str) -> String {
    fond.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
        .collect::<Vec<_>>()
        .join("_")
}
