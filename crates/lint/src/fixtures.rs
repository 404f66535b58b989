//! Per-rule fixture snippets: one positive (must fire), one negative (must
//! stay silent), one suppressed (must stay silent with the annotation
//! consumed). Shared between the unit/integration tests and the runtime
//! `--self-check` mode that ci.sh runs before anything else, so the gate
//! fails fast if the analyzer itself regresses.

/// Synthetic path fixtures are linted under: an ordinary library crate, so
/// every library-scoped rule applies.
pub const FIXTURE_PATH: &str = "crates/demo/src/lib.rs";

/// One rule's fixture triple.
pub struct Fixture {
    pub rule: &'static str,
    /// Must produce at least one finding of `rule`.
    pub positive: &'static str,
    /// Must produce no finding of `rule`.
    pub negative: &'static str,
    /// Positive variant with a valid suppression: must produce no findings
    /// at all (the annotation is well-formed and consumed).
    pub suppressed: &'static str,
}

/// The fixture table, one entry per enforceable rule.
pub const FIXTURES: &[Fixture] = &[
    Fixture {
        rule: "global-telemetry",
        positive: r#"
pub fn install(sink: Sink) {
    itrust_obs::set_sink(sink);
    itrust_obs::registry().reset();
}
"#,
        negative: r#"
pub fn snap(obs: &itrust_obs::ObsCtx) -> String {
    obs.snapshot().to_json()
}
"#,
        suppressed: r#"
pub fn install(sink: Sink) {
    // itrust-lint: allow(global-telemetry) — migration shim kept for one release
    legacy::set_sink(sink);
}
"#,
    },
    Fixture {
        rule: "wallclock-in-core",
        positive: r#"
pub fn stamp() -> u64 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_millis() as u64
}
"#,
        negative: r#"
pub fn stamp(clock: &dyn Clock) -> u64 {
    clock.now_ms()
}
"#,
        suppressed: r#"
impl Default for SystemClock {
    fn default() -> Self {
        // itrust-lint: allow(wallclock-in-core) — the production Clock impl is the one sanctioned reader
        SystemClock { start: Instant::now() }
    }
}
"#,
    },
    Fixture {
        rule: "panic-reachable",
        positive: r#"
pub fn head(v: &[u8]) -> u8 {
    first_or_die(v)
}
fn first_or_die(v: &[u8]) -> u8 {
    v.first().copied().unwrap()
}
"#,
        negative: r##"
pub fn head(v: &[u8]) -> Option<u8> {
    // a comment may say .unwrap() or panic!() freely
    v.first().copied()
}
fn dead_helper(v: &[u8]) -> u8 {
    // no public API reaches this helper, so its unwrap is unreachable
    v.first().copied().unwrap()
}
pub const DOC: &str = r#"strings may say .unwrap() and panic!() too"#;
#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        super::head(&[1]).unwrap();
        super::dead_helper(&[1]);
    }
}
"##,
        suppressed: r#"
pub fn head(v: &[u8]) -> u8 {
    // itrust-lint: allow(panic-reachable) — caller verified v is non-empty
    v.first().copied().unwrap()
}
"#,
    },
    Fixture {
        rule: "unordered-iter",
        positive: r#"
use std::collections::HashMap;
pub fn dump(m: &HashMap<String, u64>) -> Vec<String> {
    let mut out = Vec::new();
    for pair in m {
        out.push(pair.0.clone());
    }
    out.extend(m.keys().cloned());
    out
}
"#,
        negative: r#"
use std::collections::{BTreeMap, HashMap};
pub fn dump(m: &BTreeMap<String, u64>, lookup: &HashMap<String, u64>) -> Vec<String> {
    let mut out = Vec::new();
    for pair in m {
        out.push(pair.0.clone());
    }
    out.retain(|k| lookup.contains_key(k));
    out
}
"#,
        suppressed: r#"
use std::collections::HashMap;
pub fn total(m: &HashMap<String, u64>) -> u64 {
    // itrust-lint: allow(unordered-iter) — summation is order-independent
    m.values().sum()
}
"#,
    },
    Fixture {
        rule: "ctx-first-macro",
        positive: r#"
pub fn stage() {
    let _s = itrust_obs::span!("demo.stage");
    itrust_obs::counter_inc!("demo.count");
}
"#,
        negative: r#"
pub fn stage(obs: &itrust_obs::ObsCtx) {
    let _s = itrust_obs::span!(obs, "demo.stage");
    itrust_obs::counter_inc!(obs, "demo.count");
}
"#,
        suppressed: r#"
pub fn stage() {
    // itrust-lint: allow(ctx-first-macro) — doc example renders the legacy form on purpose
    let _s = itrust_obs::span!("demo.stage");
}
"#,
    },
    Fixture {
        rule: "raw-thread-spawn",
        positive: r#"
pub fn fan_out(xs: Vec<u8>) {
    let handle = std::thread::spawn(move || xs.len());
    let _ = handle.join();
}
"#,
        negative: r#"
pub fn fan_out(xs: &[u8]) -> Vec<usize> {
    itrust_par::par_map(xs, |x| *x as usize)
}
#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn_raw_threads() {
        let h = std::thread::spawn(|| 1 + 1);
        let _ = h.join();
    }
}
"#,
        suppressed: r#"
pub fn watchdog() {
    // itrust-lint: allow(raw-thread-spawn) — detached watchdog must outlive the scoped pool
    std::thread::spawn(|| loop_forever());
}
"#,
    },
    Fixture {
        rule: "env-read-outside-config",
        positive: r#"
pub fn results_dir() -> String {
    std::env::var("ITRUST_RESULTS_DIR").unwrap_or_default()
}
"#,
        negative: r#"
pub fn results_dir(cfg: &Config) -> &str {
    cfg.results_dir.as_str()
}
"#,
        suppressed: r#"
pub fn results_dir() -> String {
    // itrust-lint: allow(env-read-outside-config) — demo of the one sanctioned pattern
    std::env::var("ITRUST_RESULTS_DIR").unwrap_or_default()
}
"#,
    },
    Fixture {
        rule: "lock-order",
        // The seeded ABBA deadlock: `ab` holds A then takes B, `ba` holds B
        // then takes A — a cycle in the lock-order graph.
        positive: r#"
pub struct S { a: Mutex<u8>, b: Mutex<u8> }
impl S {
    pub fn ab(&self) -> u8 { let ga = self.a.lock(); let gb = self.b.lock(); *ga + *gb }
    pub fn ba(&self) -> u8 { let gb = self.b.lock(); let ga = self.a.lock(); *ga + *gb }
}
"#,
        negative: r#"
pub struct S { a: Mutex<u8>, b: Mutex<u8> }
impl S {
    pub fn ab(&self) -> u8 { let ga = self.a.lock(); let gb = self.b.lock(); *ga + *gb }
    pub fn also_ab(&self) -> u8 { let ga = self.a.lock(); let gb = self.b.lock(); *ga + *gb }
}
"#,
        suppressed: r#"
pub struct S { a: Mutex<u8>, b: Mutex<u8> }
impl S {
    // itrust-lint: allow(lock-order) — ba() is only callable while holding the commit token, so the orders never race
    pub fn ab(&self) -> u8 { let ga = self.a.lock(); let gb = self.b.lock(); *ga + *gb }
    pub fn ba(&self) -> u8 { let gb = self.b.lock(); let ga = self.a.lock(); *ga + *gb }
}
"#,
    },
    Fixture {
        rule: "error-discipline",
        // A transient error constructed where no retry/backoff-aware caller
        // can reach it: the transient classification is dead weight.
        positive: r#"
pub fn shed() -> Result<(), Error> {
    Err(Error::Overloaded { detail: String::from("queue full") })
}
"#,
        negative: r#"
pub fn shed() -> Result<(), Error> {
    Err(Error::Overloaded { detail: String::from("queue full") })
}
pub fn drive() -> u64 {
    let mut backoff_ms = 1;
    while shed().is_err() { backoff_ms *= 2; }
    backoff_ms
}
pub fn classify(e: &Error) -> bool {
    matches!(e, Error::Overloaded { .. })
}
"#,
        suppressed: r#"
pub fn shed() -> Result<(), Error> {
    // itrust-lint: allow(error-discipline) — the retrying caller lives in a downstream crate outside this workspace
    Err(Error::Overloaded { detail: String::from("queue full") })
}
"#,
    },
];

/// A multi-file fixture for the interprocedural passes, linted through
/// `lint_files` so cross-crate resolution is exercised end to end.
pub struct GraphFixture {
    pub name: &'static str,
    /// Rule expected to fire (`expect_finding`) or stay silent.
    pub rule: &'static str,
    pub files: &'static [(&'static str, &'static str)],
    pub expect_finding: bool,
}

/// Cross-file fixtures: the seeded cross-crate ABBA deadlock (plus its
/// suppressed twin), a public-API-reachable `unwrap` two crates deep, and
/// a transient-error constructor whose retrier lives in another crate.
pub const GRAPH_FIXTURES: &[GraphFixture] = &[
    GraphFixture {
        name: "abba-deadlock-cross-crate",
        rule: "lock-order",
        files: &[
            (
                "crates/service/src/executor.rs",
                r#"
pub struct Exec { queue: Mutex<u8> }
impl Exec {
    pub fn tick(&self, r: &Replica) -> u8 { let g = self.queue.lock(); r.apply(); *g }
}
"#,
            ),
            (
                "crates/trustdb/src/replica.rs",
                r#"
pub struct Replica { inner: Mutex<u8> }
impl Replica {
    pub fn apply(&self) -> u8 { let g = self.inner.lock(); *g }
    pub fn drain(&self, e: &Exec) -> u8 { let g = self.inner.lock(); e.tick(self); *g }
}
"#,
            ),
        ],
        expect_finding: true,
    },
    GraphFixture {
        name: "abba-deadlock-cross-crate-suppressed",
        rule: "lock-order",
        files: &[
            (
                "crates/service/src/executor.rs",
                r#"
pub struct Exec { queue: Mutex<u8> }
impl Exec {
    // itrust-lint: allow(lock-order) — drain() only runs during single-threaded recovery, never under ticks
    pub fn tick(&self, r: &Replica) -> u8 { let g = self.queue.lock(); r.apply(); *g }
}
"#,
            ),
            (
                "crates/trustdb/src/replica.rs",
                r#"
pub struct Replica { inner: Mutex<u8> }
impl Replica {
    pub fn apply(&self) -> u8 { let g = self.inner.lock(); *g }
    pub fn drain(&self, e: &Exec) -> u8 { let g = self.inner.lock(); e.tick(self); *g }
}
"#,
            ),
        ],
        expect_finding: false,
    },
    GraphFixture {
        name: "public-api-reachable-unwrap-cross-crate",
        rule: "panic-reachable",
        files: &[
            (
                "crates/service/src/lib.rs",
                "pub fn api(v: &[u8]) -> u8 { trustdb::wal::head(v) }\n",
            ),
            (
                "crates/trustdb/src/wal.rs",
                "pub(crate) fn head(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n",
            ),
        ],
        expect_finding: true,
    },
    GraphFixture {
        name: "transient-error-retrier-in-other-crate",
        rule: "error-discipline",
        files: &[
            (
                "crates/service/src/lib.rs",
                "pub fn shed() -> Result<(), Error> { Err(Error::Overloaded { detail: String::from(\"full\") }) }\n",
            ),
            (
                "crates/trustdb/src/lib.rs",
                "pub fn drive() -> u64 { let mut backoff_ms = 1; while itrust_service::shed().is_err() { backoff_ms *= 2; } backoff_ms }\n",
            ),
        ],
        expect_finding: false,
    },
];

/// Crate-scope probes: a source snippet linted under a real workspace
/// path, plus the rule that must fire there. These pin the rule-scoping
/// table in `rules::run_rules` — newly added crates are covered by default
/// unless explicitly exempted, and `crates/obs-analyze` (the trace/diff
/// analysis library) is NOT exempt from any core invariant even though it
/// consumes obs artifacts.
pub const SCOPE_PROBES: &[(&str, &str, &str)] = &[
    (
        "crates/obs-analyze/src/lib.rs",
        "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n",
        "wallclock-in-core",
    ),
    (
        "crates/obs-analyze/src/lib.rs",
        "pub fn s() { let _g = itrust_obs::span!(\"analyze.parse\"); }\n",
        "ctx-first-macro",
    ),
    (
        "crates/obs-analyze/src/lib.rs",
        "pub fn p(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n",
        "panic-reachable",
    ),
    (
        "crates/obs-analyze/src/lib.rs",
        "pub fn e() -> String { std::env::var(\"ITRUST_RESULTS_DIR\").unwrap_or_default() }\n",
        "env-read-outside-config",
    ),
    // The obstool binary target keeps the panic exemption every bin has…
    (
        "crates/obs-analyze/src/main.rs",
        "pub fn p(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n",
        "",
    ),
    // …but stays subject to the env-read ban: obstool is configured by CLI
    // flags only, never by environment variables.
    (
        "crates/obs-analyze/src/main.rs",
        "pub fn e() -> String { std::env::var(\"OBSTOOL_MODE\").unwrap_or_default() }\n",
        "env-read-outside-config",
    ),
    // The partition-tolerance layer is core library code: its epoch counters
    // and gossip schedules must run on injected clocks, stay panic-free, and
    // iterate holdings in digest order — pin all three invariants to its
    // path so a future exemption of crates/trustdb can't silently widen.
    (
        "crates/trustdb/src/antientropy.rs",
        "pub fn epoch_now() -> std::time::Instant { std::time::Instant::now() }\n",
        "wallclock-in-core",
    ),
    (
        "crates/trustdb/src/antientropy.rs",
        "pub fn first_intent(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n",
        "panic-reachable",
    ),
    (
        "crates/trustdb/src/antientropy.rs",
        "use std::collections::HashMap;\npub fn roots(m: &HashMap<String, u64>) -> Vec<String> { m.keys().cloned().collect() }\n",
        "unordered-iter",
    ),
    // The multi-tenant service layer is core library code too: admission
    // decisions must run on the injected clock (a wall-clock read would
    // desynchronize the token bucket from the virtual timeline), executor
    // paths must be panic-free, and shard catalogs must iterate in order —
    // pin all three invariants under crates/service so a future exemption
    // can't silently widen.
    (
        "crates/service/src/executor.rs",
        "pub fn admit_now() -> std::time::Instant { std::time::Instant::now() }\n",
        "wallclock-in-core",
    ),
    (
        "crates/service/src/executor.rs",
        "pub fn head_seq(q: &[u64]) -> u64 { q.first().copied().unwrap() }\n",
        "panic-reachable",
    ),
    (
        "crates/service/src/shard.rs",
        "use std::collections::HashMap;\npub fn keys(c: &HashMap<String, u64>) -> Vec<String> { c.keys().cloned().collect() }\n",
        "unordered-iter",
    ),
    // The provenance ledger is core library code: checkpoints must be cut
    // at injected timestamps (never ambient wall clock) and its telemetry is
    // handle-based.
    (
        "crates/ledger/src/ledger.rs",
        "pub fn cut_now() -> std::time::Instant { std::time::Instant::now() }\n",
        "wallclock-in-core",
    ),
    (
        "crates/ledger/src/ledger.rs",
        "pub fn s() { let _g = itrust_obs::span!(\"ledger.checkpoint\"); }\n",
        "ctx-first-macro",
    ),
];

/// Run every fixture through the analyzer and return human-readable
/// failures (empty = all good). This is the `--self-check` body.
pub fn self_check() -> Vec<String> {
    let mut failures = Vec::new();
    for (path, src, rule) in SCOPE_PROBES {
        let diags = crate::lint_source(path, src);
        if rule.is_empty() {
            if let Some(d) = diags.first() {
                failures.push(format!(
                    "scope probe `{path}`: expected silence, got `{}` at {}:{}",
                    d.rule, d.line, d.col
                ));
            }
        } else if !diags.iter().any(|d| d.rule == *rule) {
            failures.push(format!("scope probe `{path}`: expected a `{rule}` finding, got none"));
        }
    }
    for f in FIXTURES {
        let pos = crate::lint_source(FIXTURE_PATH, f.positive);
        if !pos.iter().any(|d| d.rule == f.rule) {
            failures.push(format!("rule `{}`: positive fixture produced no `{}` finding", f.rule, f.rule));
        }
        let neg = crate::lint_source(FIXTURE_PATH, f.negative);
        if let Some(d) = neg.iter().find(|d| d.rule == f.rule) {
            failures.push(format!(
                "rule `{}`: negative fixture fired at {}:{}: {}",
                f.rule, d.line, d.col, d.message
            ));
        }
        let sup = crate::lint_source(FIXTURE_PATH, f.suppressed);
        if !sup.is_empty() {
            failures.push(format!(
                "rule `{}`: suppressed fixture not clean: {:?}",
                f.rule,
                sup.iter().map(|d| d.render_human()).collect::<Vec<_>>()
            ));
        }
    }
    for g in GRAPH_FIXTURES {
        let sources: Vec<(String, String)> =
            g.files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let outcome = crate::lint_files(&sources);
        if g.expect_finding {
            if !outcome.diagnostics.iter().any(|d| d.rule == g.rule) {
                failures.push(format!(
                    "graph fixture `{}`: expected a `{}` finding, got {:?}",
                    g.name,
                    g.rule,
                    outcome.diagnostics.iter().map(|d| d.render_human()).collect::<Vec<_>>()
                ));
            }
        } else if !outcome.diagnostics.is_empty() {
            failures.push(format!(
                "graph fixture `{}`: expected silence, got {:?}",
                g.name,
                outcome.diagnostics.iter().map(|d| d.render_human()).collect::<Vec<_>>()
            ));
        }
    }
    failures
}
