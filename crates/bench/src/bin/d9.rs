//! Printable harness for D9 (partition tolerance: availability + post-heal
//! convergence, plain vs delay-tolerant ingest).
use itrust_bench::harness::d9::IngestMode;
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("d9")
        .with_trace(itrust_bench::report::trace_path("d9"))
        .expect("create trace sink")
        .with_blackbox(4096);
    let (rows, report) = itrust_bench::harness::d9::run(em.obs());
    println!("{report}");
    // CI knob: crash after the workload so the flight-recorder dump can be
    // exercised end-to-end (`obstool blackbox results/d9.blackbox.json`).
    if std::env::var("D9_FORCE_PANIC").is_ok_and(|v| v == "1") {
        panic!("D9_FORCE_PANIC requested — dumping flight recorder");
    }
    let min_avail = |mode: IngestMode| {
        rows.iter().filter(|r| r.mode == mode).map(|r| r.availability).fold(1.0, f64::min)
    };
    em.meta("seed", itrust_bench::harness::d9::SEED);
    em.metric("d9.availability_min_dtn", min_avail(IngestMode::Dtn))
        .metric("d9.availability_min_plain", min_avail(IngestMode::Plain))
        .metric(
            "d9.gossip_rounds_max",
            rows.iter().map(|r| r.gossip_rounds).max().unwrap_or(0) as f64,
        )
        .metric("d9.transferred_total", rows.iter().map(|r| r.transferred).sum::<usize>() as f64)
        .metric("d9.applied_total", rows.iter().map(|r| r.applied).sum::<usize>() as f64)
        .metric("d9.rotted_copies_total", rows.iter().map(|r| r.rotted_copies).sum::<usize>() as f64)
        .metric("d9.repaired_total", rows.iter().map(|r| r.repaired).sum::<usize>() as f64)
        .metric("d9.lost_total", rows.iter().map(|r| r.lost).sum::<usize>() as f64)
        .metric(
            "d9.survival_min_3_replicas",
            rows.iter()
                .filter(|r| r.replicas == 3)
                .map(|r| r.survival)
                .fold(1.0, f64::min),
        );
    em.finish(rows.len() as u64, &report).expect("write results");
}
