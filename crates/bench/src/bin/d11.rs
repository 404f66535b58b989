//! Printable harness for D11 (provenance ledger: custody proofs vs ledger
//! size, witness quorum under partition, unified event API round trip).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("d11")
        .with_trace(itrust_bench::report::trace_path("d11"))
        .expect("create trace sink")
        .with_blackbox(4096);
    let (outcome, report) = itrust_bench::harness::d11::run(em.obs());
    println!("{report}");
    let all_verified =
        outcome.merged_verified && outcome.sizes.iter().all(|r| r.verified);
    em.meta("seed", itrust_bench::harness::d11::LedgerConfig::default_experiment().seed);
    em.metric("d11.events_total", outcome.sizes.iter().map(|r| r.events).sum::<usize>() as f64)
        .metric(
            "d11.checkpoints_total",
            outcome.sizes.iter().map(|r| r.checkpoints).sum::<usize>() as f64,
        )
        .metric("d11.proofs_total", outcome.sizes.iter().map(|r| r.proofs).sum::<usize>() as f64)
        .metric("d11.max_path", outcome.sizes.iter().map(|r| r.max_path).max().unwrap_or(0) as f64)
        .metric(
            "d11.unreachable_total",
            outcome.sizes.iter().map(|r| r.unreachable).sum::<usize>() as f64,
        )
        .metric("d11.merged_events", outcome.merged_total as f64)
        .metric("d11.verified", if all_verified { 1.0 } else { 0.0 });
    em.finish(outcome.sizes.len() as u64, &report).expect("write results");
}
