//! Printable harness for D6 (access index + record linking).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("d6")
        .with_trace(itrust_bench::report::trace_path("d6"))
        .expect("create trace sink")
        .with_blackbox(4096);
    let (index_rows, index_report) = itrust_bench::harness::d6::run_index(em.obs());
    println!("{index_report}");
    let (linking, linking_report) = itrust_bench::harness::d6::run_linking(em.obs());
    println!("{linking_report}");
    for r in &index_rows {
        em.metric(&format!("d6.docs{}.build_docs_s", r.docs), r.build_docs_s)
            .metric(&format!("d6.docs{}.queries_s", r.docs), r.queries_s);
    }
    em.metric(
        "d6.build_docs_s_max",
        index_rows.iter().map(|r| r.build_docs_s).fold(0.0, f64::max),
    )
    .metric("d6.queries_s_max", index_rows.iter().map(|r| r.queries_s).fold(0.0, f64::max))
    .metric("d6.linking_recall", linking.recovered as f64 / linking.planted.max(1) as f64)
    .metric("d6.linking_false_merges", linking.false_merges as f64);
    em.finish(
        (index_rows.len() + 1) as u64,
        &format!("{index_report}\n{linking_report}"),
    )
    .expect("write results");
}
