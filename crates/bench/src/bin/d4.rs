//! Printable harness for D4 (digital-twin round trip).
use itrust_bench::report::Emitter;

fn main() {
    let mut em = Emitter::begin("d4")
        .with_trace(itrust_bench::report::trace_path("d4"))
        .expect("create trace sink")
        .with_blackbox(4096);
    let (rows, report) = itrust_bench::harness::d4::run(em.obs());
    println!("{report}");
    for r in &rows {
        let row = format!("d4.buildings{}.sensors{}", r.buildings, r.sensors_per_element);
        em.metric(&format!("{row}.archive_s"), r.archive_s)
            .metric(&format!("{row}.rehydrate_s"), r.rehydrate_s);
    }
    em.metric("d4.readings_total", rows.iter().map(|r| r.readings).sum::<usize>() as f64)
        .metric("d4.aip_bytes_total", rows.iter().map(|r| r.aip_bytes).sum::<u64>() as f64)
        .metric("d4.archive_s_max", rows.iter().map(|r| r.archive_s).fold(0.0, f64::max))
        .metric("d4.rehydrate_s_max", rows.iter().map(|r| r.rehydrate_s).fold(0.0, f64::max))
        .metric("d4.all_perfect", rows.iter().all(|r| r.perfect) as u64 as f64);
    em.finish(rows.len() as u64, &report).expect("write results");
}
