//! Printable harness for D5 (tamper detection + verification ablation).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("d5")
        .with_trace(itrust_bench::report::trace_path("d5"))
        .expect("create trace sink")
        .with_blackbox(4096);
    let (rows, ablation, report) = itrust_bench::harness::d5::run(em.obs());
    println!("{report}");
    for r in &rows {
        em.metric(
            &format!("d5.objects{}.injected{}.sweep_mib_s", r.objects, r.injected),
            r.sweep_mib_s,
        );
    }
    for a in &ablation {
        em.metric(&format!("d5.ablation.n{}.chain_verify_ms", a.n), a.chain_verify_s * 1e3)
            .metric(&format!("d5.ablation.n{}.proof_verify_us", a.n), a.merkle_proof_s * 1e6);
    }
    em.metric("d5.injected_total", rows.iter().map(|r| r.injected).sum::<usize>() as f64)
        .metric("d5.detected_total", rows.iter().map(|r| r.detected).sum::<usize>() as f64)
        .metric("d5.sweep_mib_s_max", rows.iter().map(|r| r.sweep_mib_s).fold(0.0, f64::max));
    em.finish(rows.len() as u64, &report).expect("write results");
}
