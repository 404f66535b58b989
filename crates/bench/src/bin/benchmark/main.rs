//! The repository benchmark: four workloads that drive the libraries only
//! through their public APIs and check that every output is correct.
//!
//! ```text
//! cargo run --offline --release -q -p itrust-bench --bin benchmark -- \
//!     --workload <accession|service|custody|perganet> --seed <n> --seconds <s> --trace <0|1> \
//!     [--trace-out FILE]
//! ```
//!
//! Every measurement is printed as `<name> <value> <unit>`; the last line
//! is one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The exit code is 1 when a correctness
//! check failed and 2 on a usage error. Runs write only to `.bench_work-*`
//! directories in the working directory (and `--trace-out`), and remove
//! them again. See README.md beside this file.

mod accession;
mod custody;
mod openloop;
mod perganet;
mod probes;
mod service;
mod stats;
mod trace;

use itrust_obs::ObsCtx;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// itrust-par pool size for every run, whatever the host offers.
const THREADS: &str = "2";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Least share of each traced phase's wall time its child spans must cover.
const MIN_COVERAGE: f64 = 0.95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Accession,
    Service,
    Custody,
    Perganet,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Accession,
        Workload::Service,
        Workload::Custody,
        Workload::Perganet,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Accession => "accession",
            Workload::Service => "service",
            Workload::Custody => "custody",
            Workload::Perganet => "perganet",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn run(self, seed: u64, seconds: u64, env: &Env) -> Outcome {
        match self {
            Workload::Accession => {
                accession::run(seed, &accession::Size::for_seconds(seconds), env)
            }
            Workload::Service => service::run(seed, &service::Size::for_seconds(seconds), env),
            Workload::Custody => custody::run(seed, &custody::Size::for_seconds(seconds), env),
            Workload::Perganet => perganet::run(seed, &perganet::Size::for_seconds(seconds), env),
        }
    }
}

/// How one workload run is instrumented.
pub struct Env {
    /// Handed to every library component that takes an `ObsCtx`.
    pub obs: ObsCtx,
    /// Carries the benchmark's own spans: null in the untraced pass, the
    /// traced context otherwise (so library spans nest under them).
    pub bench: ObsCtx,
    /// How many times the workload's set-up runs.
    pub setups: usize,
}

impl Env {
    /// As deployed: a live registry and no span sink.
    fn plain(setups: usize) -> Env {
        Env {
            obs: ObsCtx::new(),
            bench: ObsCtx::null(),
            setups,
        }
    }

    fn traced(ctx: &ObsCtx) -> Env {
        Env {
            obs: ctx.clone(),
            bench: ctx.clone(),
            setups: 1,
        }
    }
}

/// What one workload run measured and checked. Every workload runs its
/// load in rounds, each ending with an audit pass, so that the windows the
/// end-to-end metrics read (see `stats.rs`) are spread over the whole run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every main operation in the order measured, microseconds.
    pub latencies_us: Vec<f64>,
    /// Consecutive latencies per window for `p50_us`.
    pub window: usize,
    /// `(operations, seconds)` of each window of back-to-back operations.
    pub rate_windows: Vec<(f64, f64)>,
    /// `(items checked, seconds)` of each audit pass.
    pub audits: Vec<(f64, f64)>,
    /// Program operations issued, and how many failed or returned wrong
    /// results.
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, in words.
    pub failures: Vec<String>,
    /// Further measurements, printed but not part of the JSON result.
    pub lines: Vec<(String, f64, &'static str)>,
    /// Counts that must repeat exactly for a repeated seed.
    pub counts: BTreeMap<&'static str, f64>,
    digest: u64,
}

impl Outcome {
    pub fn line(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.lines.push((name.into(), value, unit));
    }

    /// Add `value` to the deterministic count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Record one operation's result: a failure counts against `failed`.
    pub fn op(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.fail(msg());
        }
    }

    /// Fold output bytes into the run's fingerprint (64-bit FNV-1a).
    pub fn mix(&mut self, bytes: &[u8]) {
        if self.digest == 0 {
            self.digest = 0xcbf2_9ce4_8422_2325;
        }
        for &b in bytes {
            self.digest = (self.digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Forget counts and fingerprint gathered so far (set-up runs repeat).
    pub fn reset_counts(&mut self) {
        self.counts.clear();
        self.digest = 0;
    }

    /// Store the fingerprint as the count `name`: 48 bits, so the JSON
    /// number is exact.
    pub fn fingerprint(&mut self, name: &'static str) {
        self.counts.insert(name, (self.digest >> 16) as f64);
    }
}

/// Time `f` inside the benchmark span `span`; returns its result and
/// duration in microseconds.
pub fn call<T>(bench: &ObsCtx, span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = bench.span(span);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64 / 1e3)
}

/// Splitmix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A scratch directory `.bench_work-<label>-<pid>-<n>` in the working
/// directory (a run reads and writes nothing outside it), removed when
/// dropped. Each has a name of its own and no shared parent, so concurrent
/// runs and tests never remove one another's.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(format!(".bench_work-{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the files directly inside, bytes.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|d| {
                d.filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FIPS 180-4 SHA-256 vectors, plus bit-identity of the parallel path.
fn hash_self_test() -> Vec<String> {
    use trustdb::hash::{par_sha256, sha256};
    let million = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    let mut failures = Vec::new();
    for (msg, want) in vectors {
        if sha256(msg).to_hex() != want || par_sha256(msg).to_hex() != want {
            failures.push(format!(
                "SHA-256 of a {}-byte FIPS 180-4 vector is wrong",
                msg.len()
            ));
        }
    }
    failures
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run (see README.md for what the
/// main operation and the audit are in each workload). Timings other than
/// the set-up read the least disturbed window (see `stats.rs`); the latency
/// tail is reported by the traced pass instead, because on a shared host it
/// moves too much from run to run to gate on.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    vec![
        metric("setup_s", stats::median(&out.setup_s), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("ops_per_s", stats::best_rate(&out.rate_windows), "1/s"),
        metric(
            "p50_us",
            stats::best_window_median(&out.latencies_us, out.window),
            "us",
        ),
        metric("audit_per_s", stats::best_rate(&out.audits), "1/s"),
    ]
}

/// Render the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_lines(out: &Outcome) {
    for (name, value, unit) in &out.lines {
        println!("{name} {value} {unit}");
    }
    for (name, value) in &out.counts {
        println!("{name} {value} count");
    }
    let lat = stats::summarize(&out.latencies_us);
    println!("latency.samples {} count", lat.n);
    println!("latency.p50_us {} us", lat.p50);
    println!("latency.tail_us {} us", lat.tail);
    println!("latency.tail_percentile {} pct", lat.tail_pct);
}

/// Result of a whole run, untraced or traced.
struct Run {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn untraced(run: impl Fn(&Env) -> Outcome) -> Run {
    let out = run(&Env::plain(SETUPS));
    print_lines(&out);
    Run {
        metrics: end_to_end(&out),
        attempted: out.attempted,
        failed: out.failed,
        failures: out.failures,
    }
}

/// The traced pass: the workload once as deployed and once traced (their
/// main-operation medians give the tracing overhead, their counts must
/// agree), then the per-layer probes under the same trace.
fn traced(
    workload: Workload,
    seed: u64,
    run: impl Fn(&Env) -> Outcome,
    probe_size: &probes::Size,
    trace_out: Option<&str>,
) -> Run {
    let plain = run(&Env::plain(1));
    let collector = Arc::new(trace::Collector::new());
    let ctx = ObsCtx::with_sink(collector.clone());
    let mut out = run(&Env::traced(&ctx));
    let mut spans = collector.take();
    let report = trace::analyze(&spans);

    let mut failures = plain.failures.clone();
    failures.append(&mut out.failures);
    if plain.counts != out.counts {
        failures.push(format!(
            "counts differ between the untraced and traced runs of seed {seed}"
        ));
    }
    let prefix = format!("bench.{}.", workload.name());
    let mut coverage = f64::INFINITY;
    for phase in report.phases.iter().filter(|p| p.name.starts_with(&prefix)) {
        coverage = coverage.min(phase.coverage());
        eprintln!(
            "phase {} wall {:.3} s, child spans cover {:.4}",
            phase.name,
            phase.wall_ns as f64 / 1e9,
            phase.coverage()
        );
        let mut top: Vec<(&String, &u64)> = phase.self_ns.iter().collect();
        top.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (name, ns) in top.into_iter().take(8) {
            eprintln!("    {:<40} self {:>10.3} ms", name, *ns as f64 / 1e6);
        }
    }
    if coverage < MIN_COVERAGE {
        failures.push(format!(
            "traced phases leave {:.1}% of their wall time outside child spans",
            100.0 * (1.0 - coverage)
        ));
    }
    eprintln!(
        "orphan spans on itrust-par workers: {} ({:.3} ms)",
        report.orphans,
        report.orphan_ns as f64 / 1e6
    );
    let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let s = stats::summarize(&trace::durations_us(&spans, name));
        println!("span.{name}.p50_us {} us", s.p50);
        println!("span.{name}.n {} spans", s.n);
    }
    print_lines(&out);

    let overhead = stats::median(&out.latencies_us) / stats::median(&plain.latencies_us);
    let mut probe_out = Outcome::default();
    let mut metrics = probes::run(
        seed,
        probe_size,
        &ctx,
        &collector,
        &mut spans,
        &mut probe_out,
    );
    spans.extend(collector.take());
    metrics.push(metric(
        "tail_us",
        stats::summarize(&plain.latencies_us).tail,
        "us",
    ));
    metrics.push(metric("trace.overhead_ratio", overhead, "ratio"));
    metrics.push(metric("trace.self_coverage", coverage, "ratio"));
    failures.append(&mut probe_out.failures);
    if let Some(path) = trace_out {
        if let Err(e) = trace::write_jsonl(path, &spans) {
            failures.push(format!("cannot write trace {path}: {e}"));
        }
    }
    Run {
        metrics,
        attempted: plain.attempted + out.attempted + probe_out.attempted,
        failed: plain.failed + out.failed + probe_out.failed,
        failures,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: benchmark --workload <accession|service|custody|perganet> --seed <n> \
                     --seconds <1..=60> --trace <0|1> [--trace-out FILE]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--trace-out") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| {
        map.get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let workload = Workload::parse(get("--workload")?).ok_or("unknown workload")?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<u64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out: map.get("--trace-out").map(|s| s.to_string()),
    })
}

fn main() {
    // Before any thread exists: fixes the pool size for the main thread and
    // for nested calls inside itrust-par workers alike.
    std::env::set_var("ITRUST_THREADS", THREADS);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut failures = hash_self_test();
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    let run = if args.trace {
        let probe_size = probes::Size::full();
        traced(
            w,
            seed,
            |env| w.run(seed, seconds, env),
            &probe_size,
            args.trace_out.as_deref(),
        )
    } else {
        untraced(|env| w.run(seed, seconds, env))
    };
    failures.extend(run.failures);
    for m in &run.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not a number", m.name));
        }
    }
    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty() && run.failed == 0;
    let metrics: Vec<Metric> = run
        .metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!(
        "{}",
        result_json(correct, run.attempted.max(1), run.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(w: Workload, seed: u64, env: &Env) -> Outcome {
        match w {
            Workload::Accession => accession::run(seed, &accession::Size::tiny(), env),
            Workload::Service => service::run(seed, &service::Size::tiny(), env),
            Workload::Custody => custody::run(seed, &custody::Size::tiny(), env),
            Workload::Perganet => perganet::run(seed, &perganet::Size::tiny(), env),
        }
    }

    #[test]
    fn every_workload_passes_its_checks_and_repeats_its_counts() {
        assert!(hash_self_test().is_empty());
        for w in Workload::ALL {
            let a = tiny(w, 42, &Env::plain(2));
            assert!(
                a.failures.is_empty() && a.failed == 0,
                "{w:?}: {:?}",
                a.failures
            );
            assert!(a.attempted > 0 && !a.latencies_us.is_empty(), "{w:?}");
            assert_eq!(a.setup_s.len(), 2, "{w:?}");
            assert!(a.audits.len() >= 2 && a.rate_windows.len() >= 2, "{w:?}");
            assert!(
                end_to_end(&a).iter().all(|m| m.value > 0.0),
                "{w:?}: {:?}",
                end_to_end(&a)
            );
            let fingerprint = format!("{}.fingerprint", w.name());
            assert!(
                a.counts.contains_key(fingerprint.as_str()),
                "{w:?}: {:?}",
                a.counts
            );
            let again = tiny(w, 42, &Env::plain(1));
            assert_eq!(a.counts, again.counts, "{w:?}: same seed, same counts");
            let other = tiny(w, 7, &Env::plain(1));
            assert!(other.failures.is_empty(), "{w:?}: {:?}", other.failures);
            assert_ne!(
                a.counts[fingerprint.as_str()],
                other.counts[fingerprint.as_str()],
                "{w:?}: seed 7"
            );
        }
    }

    #[test]
    fn tampered_custody_proofs_are_rejected() {
        let out = tiny(Workload::Custody, 42, &Env::plain(1));
        assert!(
            out.counts["custody.tampered_rejected"] > 0.0,
            "{:?}",
            out.counts
        );
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    /// Names listed under `key` in BENCHMARK.json (a flat scan: the file's
    /// metric objects are one line each).
    fn listed(key: &str) -> Vec<String> {
        let text = include_str!("../../../../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..start + text[start..].find(']').expect("section closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let out = tiny(Workload::Accession, 42, &Env::plain(1));
        let e2e: Vec<String> = end_to_end(&out).into_iter().map(|m| m.name).collect();
        assert_eq!(e2e, listed("end_to_end"));
        let w = Workload::Accession;
        let run = traced(w, 42, |env| tiny(w, 42, env), &probes::Size::tiny(), None);
        let per_layer: Vec<String> = run.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(per_layer, listed("per_layer"));
        assert!(
            run.metrics.iter().all(|m| m.value.is_finite()),
            "{:?}",
            run.metrics
        );
        let json = result_json(true, 3, 0, &run.metrics[..1]);
        assert!(json
            .starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\""));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload custody --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Custody, 7, 10, true)
        );
        for bad in [
            "--workload custody --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload service --seed x --seconds 10 --trace 0",
            "--workload service --seed 1 --seconds 0 --trace 0",
            "--workload service --seed 1 --seconds 10 --trace 2",
            "--workload service --seed 1 --seconds 10 --trace 0 --size 3",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
