//! Printable harness for D10 (multi-tenant service layer under closed-loop
//! load: Table 1 fond mix, sharded store, admission control).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("d10")
        .with_trace(itrust_bench::report::trace_path("d10"))
        .expect("create trace sink")
        .with_blackbox(4096);
    let (outcome, report) = itrust_bench::harness::d10::run(em.obs());
    println!("{report}");
    let total = |f: fn(&itrust_bench::harness::d10::TenantRow) -> u64| -> f64 {
        outcome.tenants.iter().map(f).sum::<u64>() as f64
    };
    em.meta("seed", itrust_bench::harness::d10::LoadConfig::default_experiment().seed);
    em.metric("d10.ops_total", total(|r| r.ops))
        .metric("d10.puts_total", total(|r| r.puts))
        .metric("d10.gets_total", total(|r| r.gets))
        .metric("d10.shed_total", total(|r| r.shed))
        .metric("d10.quota_rejected_total", total(|r| r.quota_rejected))
        .metric("d10.p99_max_ms", outcome.tenants.iter().map(|r| r.p99_ms).max().unwrap_or(0) as f64)
        .metric("d10.objects_total", outcome.shards.iter().map(|s| s.objects).sum::<usize>() as f64)
        .metric("d10.verified", if outcome.verified { 1.0 } else { 0.0 });
    em.finish(outcome.tenants.len() as u64, &report).expect("write results");
}
