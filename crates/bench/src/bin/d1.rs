//! Printable harness for D1 (ESCS simulator scaling).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("d1")
        .with_trace(itrust_bench::report::trace_path("d1"))
        .expect("create trace sink")
        .with_blackbox(4096);
    em.meta("seed_base", 7_000); // SimConfig seeds are 7000 + psap count
    let (rows, report) = itrust_bench::harness::d1::run(em.obs());
    println!("{report}");
    for r in &rows {
        em.metric(&format!("d1.psaps{}.{}.calls_per_sec", r.psaps, r.scenario), r.calls_per_sec);
    }
    let calls: usize = rows.iter().map(|r| r.calls).sum();
    em.metric("d1.calls_total", calls as f64)
        .metric(
            "d1.calls_per_sec_mean",
            rows.iter().map(|r| r.calls_per_sec).sum::<f64>() / rows.len() as f64,
        )
        .metric("d1.abandonment_max", rows.iter().map(|r| r.abandonment).fold(0.0, f64::max))
        .metric(
            "d1.replay_divergence_max",
            rows.iter().map(|r| r.replay_divergence).max().unwrap_or(0) as f64,
        );
    em.finish(rows.len() as u64, &report).expect("write results");
}
