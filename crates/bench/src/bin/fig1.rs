//! Printable harness for Figure 1 (PergaNet pipeline).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("fig1")
        .with_trace(itrust_bench::report::trace_path("fig1"))
        .expect("create trace sink")
        .with_blackbox(4096);
    em.meta("corpus_seeds", "train 1..3, test 10+damage");
    let (rows, train_s, report) = itrust_bench::harness::fig1::run(em.obs());
    println!("{report}");
    em.metric("fig1.train_s", train_s);
    for r in &rows {
        em.metric(&format!("fig1.side_acc_damage{}", r.damage), r.eval.side_accuracy)
            .metric(&format!("fig1.signum_ap_damage{}", r.damage), r.eval.signum_ap)
            .metric(&format!("fig1.images_per_sec_damage{}", r.damage), r.images_per_sec);
    }
    em.finish(rows.len() as u64, &report).expect("write results");
}
