//! The workspace invariant rules.
//!
//! Each rule is a pure function over a lexed file plus path-derived scope
//! flags. Rules match token *shapes* (never raw text), so string literals,
//! comments, and doc examples can mention forbidden APIs freely.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

/// Static description of one rule, used by `--explain`, the README table,
/// and suppression validation.
pub struct RuleInfo {
    /// Stable rule id, used in diagnostics and `allow(...)` comments.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The workspace invariant the rule protects.
    pub invariant: &'static str,
    /// What the rule matches, concretely.
    pub detects: &'static str,
    /// Where the rule intentionally does not apply.
    pub skips: &'static str,
}

/// All enforceable rules, in the order they are documented.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "global-telemetry",
        summary: "no process-global telemetry API outside crates/obs",
        invariant: "telemetry isolation: every metric/span flows through an explicit ObsCtx handle, \
                    so concurrent runs never share state (PR 4 API redesign)",
        detects: "the identifiers `set_sink`/`clear_sink` anywhere, and the paths \
                  `itrust_obs::reset`, `itrust_obs::registry`, `itrust_obs::snapshot`",
        skips: "crates/obs itself (the words appear in its docs and history)",
    },
    RuleInfo {
        id: "wallclock-in-core",
        summary: "no direct wall-clock reads outside obs/bench",
        invariant: "determinism: core crates must take time from an injectable Clock so replays, \
                    fault storms, and serial-equivalence checks are bit-reproducible",
        detects: "`Instant::now` and `SystemTime::now` path tokens",
        skips: "crates/obs (span timing) and crates/bench (timing harnesses)",
    },
    RuleInfo {
        id: "panic-reachable",
        summary: "no panic site reachable from a public library API",
        invariant: "no-panic: a preservation platform degrades with Result, it does not abort; \
                    any `unwrap` a public entry point can reach — even three private helpers \
                    deep — is a latent availability bug (interprocedural successor of the \
                    file-local panic-in-lib rule)",
        detects: "`.unwrap()`, `.expect(`, `panic!`, `todo!`, `unimplemented!`, and index \
                  expressions in any function transitively reachable (over the workspace call \
                  graph) from a `pub` non-test library function",
        skips: "crates/bench, bin targets, tests/ and benches/ dirs, #[cfg(test)] items, and \
                library functions no public API reaches",
    },
    RuleInfo {
        id: "unordered-iter",
        summary: "no iteration over HashMap/HashSet in library code",
        invariant: "byte-identity: HashMap iteration order is randomized per process, so any \
                    iteration feeding output, digests, or Merkle roots breaks reproducibility — \
                    use BTreeMap/BTreeSet or sort first",
        detects: "`for … in m` and `m.iter()/keys()/values()/into_iter()/drain()/…` where `m` \
                  is a file-local binding, field, or parameter declared as HashMap/HashSet",
        skips: "tests/ dirs and #[cfg(test)] items",
    },
    RuleInfo {
        id: "ctx-first-macro",
        summary: "telemetry macros must take a ctx expression first",
        invariant: "telemetry isolation: span!/counter_inc!/… write to an explicit ObsCtx; a \
                    string-literal first argument is the retired global-registry calling form",
        detects: "`span!`, `counter_inc!`, `counter_add!`, `gauge_set!`, `hist_record!` whose \
                  first argument token is a string literal",
        skips: "crates/obs (the macro definitions live there)",
    },
    RuleInfo {
        id: "raw-thread-spawn",
        summary: "no std::thread::spawn outside crates/par",
        invariant: "determinism: parallel work must go through itrust-par's order-preserving \
                    pool so thread count never changes observable output",
        detects: "the path tokens `thread::spawn`",
        skips: "crates/par, tests/ dirs, #[cfg(test)] items (tests may exercise raw threads)",
    },
    RuleInfo {
        id: "env-read-outside-config",
        summary: "no std::env reads outside par/bench",
        invariant: "reproducibility: ambient environment must enter through the two sanctioned \
                    configuration points (ITRUST_THREADS in par, harness knobs in bench), never \
                    deep inside a library",
        detects: "the path tokens `env::var`, `env::var_os`, `env::vars`",
        skips: "crates/par and crates/bench",
    },
    RuleInfo {
        id: "lock-order",
        summary: "no cycles in the workspace lock-order graph",
        invariant: "deadlock freedom: shard-grouped parallel ticks, gossip anti-entropy, and the \
                    admission executor all hold Mutex/RwLock guards across calls into other \
                    crates; two code paths acquiring the same pair of locks in opposite order \
                    can deadlock under load even when each path is individually correct",
        detects: "`.lock()`/`.read()`/`.write()` acquisition sites per function, held-lock sets \
                  propagated over the call graph; any cycle in the resulting lock-order graph \
                  (with a witness chain of acquisition sites), plus direct double acquisition \
                  of one non-reentrant lock",
        skips: "tests/ and benches/ dirs and #[cfg(test)] items (their lock use is \
                single-scenario); guards the analysis sees dropped at statement end",
    },
    RuleInfo {
        id: "error-discipline",
        summary: "transient errors need a retrier; non-transient errors must not be retried",
        invariant: "error taxonomy: `Error::is_transient` partitions failures into retry-safe \
                    (Overloaded, transient I/O) and fail-fast (QuotaExceeded, ProofInvalid, \
                    InvariantViolation); a transient constructor no retry/backoff caller can \
                    reach degrades to a hard failure, and a non-transient constructor inside a \
                    retry loop invites retrying the unretryable",
        detects: "construction sites of classified `Error` variants (and `io::Error::new` with \
                  a transient `ErrorKind`); transient sites with no retry/backoff-aware caller \
                  upstream in the call graph, and non-transient sites lexically inside a loop \
                  of a retry-aware function",
        skips: "crates/bench, bin targets, tests/ and benches/ dirs, #[cfg(test)] items, and \
                match/`matches!`/`if let` pattern positions (classification, not construction)",
    },
];

/// Meta-rule id for a suppression comment that fails to parse or names an
/// unknown rule or has no reason. Always denied; not suppressible.
pub const MALFORMED_SUPPRESSION: &str = "malformed-suppression";
/// Meta-rule id for a suppression that matched no finding. Denied under
/// `--deny-all` so stale allowlists rot loudly, advisory otherwise.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Scope flags derived from a file's path plus its lexed tokens.
pub struct FileCtx<'a> {
    /// Path normalized to `/` separators, as reported in diagnostics.
    pub path: &'a str,
    /// Directory name under `crates/` ("trustdb", "obs", …), or "".
    pub crate_name: &'a str,
    /// Under a `tests/` or `benches/` directory.
    pub in_test_dir: bool,
    /// A binary target (`src/bin/` or `src/main.rs`).
    pub is_bin: bool,
    pub toks: &'a [Tok],
    /// Parallel to `toks`: token is inside a `#[cfg(test)]` item.
    pub in_test: &'a [bool],
}

impl<'a> FileCtx<'a> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    fn is_path_seq(&self, i: usize, first: &str, second: &str) -> bool {
        // `first :: second`
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the rule scanners' explicit bounds checks
        self.toks[i].is_ident(first)
            && self.tok(i + 1).is_some_and(|t| t.is_punct(':'))
            && self.tok(i + 2).is_some_and(|t| t.is_punct(':'))
            && self.tok(i + 3).is_some_and(|t| t.is_ident(second))
    }

    fn diag(&self, tok: &Tok, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic { file: self.path.to_string(), line: tok.line, col: tok.col, rule, message }
    }
}

/// Run every applicable rule over one file. Suppressions are applied by the
/// caller (`lib.rs`), not here.
pub fn run_rules(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.crate_name != "obs" {
        global_telemetry(ctx, &mut out);
        ctx_first_macro(ctx, &mut out);
    }
    if ctx.crate_name != "obs" && ctx.crate_name != "bench" {
        wallclock_in_core(ctx, &mut out);
    }
    if ctx.crate_name != "par" && ctx.crate_name != "bench" {
        env_read_outside_config(ctx, &mut out);
    }
    // panic sites are handled by the interprocedural `panic-reachable`
    // pass (see `passes.rs`), which replaced the file-local panic-in-lib.
    if !ctx.in_test_dir {
        unordered_iter(ctx, &mut out);
        if ctx.crate_name != "par" {
            raw_thread_spawn(ctx, &mut out);
        }
    }
    out
}

fn global_telemetry(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.is_ident("set_sink") || t.is_ident("clear_sink") {
            out.push(ctx.diag(
                t,
                "global-telemetry",
                format!("`{}` is the retired process-global sink API; pass an ObsCtx instead", t.text),
            ));
        }
        for gone in ["reset", "registry", "snapshot"] {
            if ctx.is_path_seq(i, "itrust_obs", gone)
                // `itrust_obs::snapshot::…` as a module path inside obs is
                // excluded by crate scope; outside obs any such path is dead.
            {
                out.push(ctx.diag(
                    t,
                    "global-telemetry",
                    format!("`itrust_obs::{gone}` is the retired global-registry API; use an ObsCtx handle"),
                ));
            }
        }
    }
}

fn wallclock_in_core(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        for ty in ["Instant", "SystemTime"] {
            if ctx.is_path_seq(i, ty, "now") {
                out.push(ctx.diag(
                    t,
                    "wallclock-in-core",
                    format!("direct `{ty}::now` read; route time through the injectable Clock (determinism hazard)"),
                ));
            }
        }
    }
}

/// Methods whose iteration order leaks the hash seed.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

fn unordered_iter(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    // Pass 1: collect names declared (file-locally) with a HashMap/HashSet
    // type annotation or initializer. Token-level type inference is
    // impossible; this heuristic covers `name: HashMap<…>` (fields, params,
    // annotated lets) and `let [mut] name = …HashMap::new()…`.
    let mut tracked: Vec<String> = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        if let Some(name) = binding_for_collection(ctx.toks, i) {
            if !tracked.contains(&name) {
                tracked.push(name);
            }
        }
    }
    if tracked.is_empty() {
        return;
    }
    // Pass 2: flag iteration over tracked names.
    for (i, t) in ctx.toks.iter().enumerate() {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the rule scanners' explicit bounds checks
        if ctx.in_test[i] || t.kind != TokKind::Ident || !tracked.contains(&t.text) {
            continue;
        }
        if ctx.tok(i + 1).is_some_and(|d| d.is_punct('.'))
            && ctx.tok(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && ctx.tok(i + 3).is_some_and(|p| p.is_punct('('))
        {
            let method = &ctx.toks[i + 2].text;
            out.push(ctx.diag(
                t,
                "unordered-iter",
                format!("`{}.{}()` iterates a Hash collection in unspecified order; use a BTree collection or sort", t.text, method),
            ));
            continue;
        }
        // `for pat in [&|mut|self.]* name {`
        if is_for_in_target(ctx.toks, i) {
            out.push(ctx.diag(
                t,
                "unordered-iter",
                format!("`for … in {}` iterates a Hash collection in unspecified order; use a BTree collection or sort", t.text),
            ));
        }
    }
}

/// Walk back from a `HashMap`/`HashSet` ident to the name it is bound to,
/// if the token shape is a declaration. Returns `None` for use-paths,
/// nested generic positions, return types, turbofish, etc.
fn binding_for_collection(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i;
    // Skip a leading path prefix: `std :: collections ::` etc.
    // itrust-lint: allow(panic-reachable) — token indices are guarded by the rule scanners' explicit bounds checks
    while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        if j >= 3 && toks[j - 3].kind == TokKind::Ident {
            j -= 3;
        } else {
            return None;
        }
    }
    if j == 0 {
        return None;
    }
    // Skip reference/mut type sigils between the colon and the type.
    let mut k = j - 1;
    loop {
        let t = &toks[k];
        if t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime {
            if k == 0 {
                return None;
            }
            k -= 1;
            continue;
        }
        break;
    }
    if toks[k].is_punct(':') {
        // `name : [&] HashMap` — but not `path :: HashMap` (handled above).
        if k >= 1 && toks[k - 1].is_punct(':') {
            return None;
        }
        if k >= 1 && toks[k - 1].kind == TokKind::Ident {
            return Some(toks[k - 1].text.clone());
        }
        return None;
    }
    if toks[k].is_punct('=') {
        // `let [mut] name = HashMap::new()` — find the `let` within a short
        // window (covers `let name: Ty =` via the annotation arm instead).
        let start = k.saturating_sub(8);
        for m in (start..k).rev() {
            if toks[m].is_ident("let") {
                let mut n = m + 1;
                if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                    n += 1;
                }
                if let Some(name) = toks.get(n) {
                    if name.kind == TokKind::Ident {
                        return Some(name.text.clone());
                    }
                }
                return None;
            }
            if toks[m].is_punct(';') || toks[m].is_punct('{') || toks[m].is_punct('}') {
                return None;
            }
        }
        return None;
    }
    None
}

/// Is `toks[i]` the sole expression of a `for … in <expr> {` header
/// (allowing `&`, `mut`, and a `self.` prefix)?
fn is_for_in_target(toks: &[Tok], i: usize) -> bool {
    // The iterated name must be directly followed by the loop body brace.
    if !toks.get(i + 1).is_some_and(|t| t.is_punct('{')) {
        return false;
    }
    // Walk back over `&`, `mut`, `self`, `.` to find `in`.
    let mut j = i;
    while j > 0 {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the rule scanners' explicit bounds checks
        let t = &toks[j - 1];
        if t.is_punct('&') || t.is_ident("mut") || t.is_ident("self") || t.is_punct('.') {
            j -= 1;
            continue;
        }
        return t.is_ident("in") && preceded_by_for(toks, j - 1);
    }
    false
}

/// Does a `for` keyword open the loop whose `in` sits at `in_idx`?
fn preceded_by_for(toks: &[Tok], in_idx: usize) -> bool {
    let start = in_idx.saturating_sub(24);
    let mut depth = 0i32;
    for m in (start..in_idx).rev() {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the rule scanners' explicit bounds checks
        let t = &toks[m];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => depth -= 1,
                ";" | "{" | "}" => return false,
                _ => {}
            }
        }
        if depth <= 0 && t.is_ident("for") {
            return true;
        }
    }
    false
}

const CTX_FIRST_MACROS: &[&str] = &["span", "counter_inc", "counter_add", "gauge_set", "hist_record"];

fn ctx_first_macro(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !CTX_FIRST_MACROS.contains(&t.text.as_str()) {
            continue;
        }
        if !(ctx.tok(i + 1).is_some_and(|b| b.is_punct('!'))
            && ctx.tok(i + 2).is_some_and(|p| p.is_punct('(')))
        {
            continue;
        }
        if ctx.tok(i + 3).is_some_and(|first| first.kind == TokKind::Str) {
            out.push(ctx.diag(
                t,
                "ctx-first-macro",
                format!("`{}!` takes an ObsCtx expression first; a leading string literal is the retired global calling form", t.text),
            ));
        }
    }
}

fn raw_thread_spawn(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the rule scanners' explicit bounds checks
        if ctx.in_test[i] {
            continue;
        }
        if ctx.is_path_seq(i, "thread", "spawn") {
            out.push(ctx.diag(
                t,
                "raw-thread-spawn",
                "`thread::spawn` bypasses the deterministic itrust-par pool; use par_map/par_map_chunks".to_string(),
            ));
        }
    }
}

fn env_read_outside_config(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        for f in ["var", "var_os", "vars"] {
            if ctx.is_path_seq(i, "env", f) {
                out.push(ctx.diag(
                    t,
                    "env-read-outside-config",
                    format!("`env::{f}` read outside the sanctioned config points (crates/par, crates/bench)"),
                ));
            }
        }
    }
}
