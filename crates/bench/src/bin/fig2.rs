//! Printable harness for Figure 2 (BIM database integration).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("fig2")
        .with_trace(itrust_bench::report::trace_path("fig2"))
        .expect("create trace sink")
        .with_blackbox(4096);
    let (rows, report) = itrust_bench::harness::fig2::run(em.obs());
    println!("{report}");
    for r in &rows {
        em.metric(&format!("fig2.elements{}.records_per_sec", r.elements), r.records_per_sec);
    }
    em.metric("fig2.records_in_total", rows.iter().map(|r| r.records_in).sum::<usize>() as f64)
        .metric("fig2.integrated_total", rows.iter().map(|r| r.integrated).sum::<usize>() as f64)
        .metric("fig2.conflicts_total", rows.iter().map(|r| r.conflicts).sum::<usize>() as f64)
        .metric(
            "fig2.records_per_sec_max",
            rows.iter().map(|r| r.records_per_sec).fold(0.0, f64::max),
        );
    em.finish(rows.len() as u64, &report).expect("write results");
}
