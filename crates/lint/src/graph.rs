//! Workspace model: per-function facts and the cross-crate call graph.
//!
//! Every file's token stream is parsed into function items (`parse`), then
//! each function's body is scanned once for the facts the interprocedural
//! passes consume: outgoing calls, lock acquisitions with hold ranges,
//! panic sites, and error-construction sites. Calls are resolved against
//! the whole workspace by *suffix-qualified path matching* — the call
//! `wal::Wal::append(…)` matches any function whose qualified path embeds
//! those segments in order and ends in `append` — with conservative
//! fan-out for method calls (`x.append(…)` resolves to every method named
//! `append` anywhere in the workspace that takes as many arguments; a call
//! whose arguments cannot be counted keeps every arity). Over-approximation
//! is the default:
//! an edge the program cannot take costs a false positive that a
//! suppression documents; a missing edge would silently hide a deadlock.
//! Three receiver heuristics carve out calls that demonstrably resolve to
//! std rather than the workspace — std container/iterator names
//! ([`STD_METHODS`]), receivers that are call/index temporaries
//! (`x.read().len()`), and locals bound to lock guards — because without
//! them every `v.len()` links every lock in the workspace into one
//! meaningless cycle.

use crate::lexer::{lex, test_regions, LineComment, Tok, TokKind};
use crate::parse::{self, is_reserved, Item, Visibility};
use std::collections::BTreeMap;

/// One source file, lexed and parsed.
pub struct FileUnit {
    /// Path normalized to `/` separators.
    pub path: String,
    /// Directory name under `crates/`, or "".
    pub crate_name: String,
    pub in_test_dir: bool,
    pub is_bin: bool,
    pub toks: Vec<Tok>,
    pub in_test: Vec<bool>,
    pub comments: Vec<LineComment>,
}

/// A call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments as written (with `Self` rewritten to the impl type).
    pub segs: Vec<String>,
    /// Receiver-method call (`x.m(…)`) rather than a path call.
    pub method: bool,
    /// Argument count (after the receiver); `None` when not countable.
    pub args: Option<usize>,
    /// Token index of the name.
    pub tok: usize,
    pub line: u32,
    pub col: u32,
    /// Resolved target item indices (workspace-wide), sorted.
    pub targets: Vec<usize>,
}

/// A `Mutex`/`RwLock` guard acquisition (`.lock()`, `.read()`, `.write()`
/// with no arguments).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock identity: `crate:field` — the receiver's final field name
    /// qualified by the acquiring crate.
    pub lock: String,
    /// Full receiver chain (`self.shards.store`) for self-deadlock checks.
    pub chain: String,
    /// Token index of the method name (`lock`/`read`/`write`).
    pub tok: usize,
    /// Token index past which the guard is treated as released: end of the
    /// enclosing block for `let`-bound guards, end of the statement for
    /// temporaries.
    pub hold_end: usize,
    pub line: u32,
    pub col: u32,
}

/// What kind of panic a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    Unwrap,
    Expect,
    PanicMacro,
    TodoMacro,
    UnimplementedMacro,
    Index,
}

impl PanicKind {
    pub fn describe(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "`.unwrap()`",
            PanicKind::Expect => "`.expect(…)`",
            PanicKind::PanicMacro => "`panic!`",
            PanicKind::TodoMacro => "`todo!`",
            PanicKind::UnimplementedMacro => "`unimplemented!`",
            PanicKind::Index => "index expression",
        }
    }
}

/// A site that can panic at runtime.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub kind: PanicKind,
    pub tok: usize,
    pub line: u32,
    pub col: u32,
}

/// A construction site of a classified `trustdb::Error` variant (or a
/// transient `io::Error` built via `Error::new(ErrorKind::…)`).
#[derive(Debug, Clone)]
pub struct ErrSite {
    /// Variant name as written (`Overloaded`, `QuotaExceeded`, …).
    pub variant: String,
    /// Transient per the `Error::is_transient` contract.
    pub transient: bool,
    /// Lexically inside a `loop`/`while`/`for` body within its function.
    pub in_loop: bool,
    pub tok: usize,
    pub line: u32,
    pub col: u32,
}

/// Everything a pass needs to know about one function.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    pub calls: Vec<Call>,
    pub locks: Vec<LockSite>,
    pub panics: Vec<PanicSite>,
    pub errs: Vec<ErrSite>,
    /// Body mentions retry/backoff machinery or calls `is_transient()`.
    pub retry_aware: bool,
}

/// The parsed workspace: files, items, facts, and the resolved call graph.
pub struct Workspace {
    pub files: Vec<FileUnit>,
    /// All items, in file order then body order.
    pub items: Vec<Item>,
    /// Parallel to `items`: owning file index.
    pub item_file: Vec<usize>,
    /// Parallel to `items`.
    pub facts: Vec<FnFacts>,
    /// Adjacency: `edges[i]` = sorted deduped callee item indices of `i`.
    pub edges: Vec<Vec<usize>>,
}

const TRANSIENT_IO_KINDS: &[&str] = &[
    "Interrupted",
    "WouldBlock",
    "TimedOut",
    "ConnectionReset",
    "ConnectionAborted",
    "BrokenPipe",
];

const TRANSIENT_VARIANTS: &[&str] = &["Overloaded"];
const NONTRANSIENT_VARIANTS: &[&str] = &["QuotaExceeded", "ProofInvalid", "InvariantViolation"];

/// Method names assumed to resolve to the standard library, never to a
/// workspace item. Without a type system, `order.len()` would otherwise
/// fan out to every workspace `len` method, merging unrelated locks into
/// one giant spurious cycle. Workspace methods that shadow these names
/// are still analyzed as roots in their own right — only the *call edge*
/// is dropped. This is the analyzer's main deliberate unsoundness; see
/// DESIGN.md.
const STD_METHODS: &[&str] = &[
    "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str", "bytes",
    "chain", "chars", "chunks", "clear", "clone", "cloned", "collect", "contains", "contains_key",
    "copied", "count", "dedup", "drain", "ends_with", "entry", "enumerate", "err", "extend",
    "filter", "filter_map", "find", "first", "flat_map", "flatten", "flush", "fold", "for_each",
    "get_mut",
    "insert", "into_iter", "is_empty", "is_err", "is_none", "is_ok", "is_some", "iter",
    "iter_mut", "join", "keys", "last", "len", "map", "map_err", "max", "max_by", "max_by_key",
    "min",
    "min_by", "min_by_key", "next", "ok", "ok_or", "ok_or_else", "or_default", "or_else",
    "or_insert", "or_insert_with", "parse", "pop", "position", "push", "push_str", "remove",
    "retain", "rev", "reverse", "skip", "sort", "sort_by", "sort_by_key", "sort_unstable",
    "split", "split_whitespace", "splitn", "starts_with", "sum", "swap", "swap_remove", "take",
    "to_owned", "to_string", "to_vec", "trim", "unwrap_or", "unwrap_or_default",
    "unwrap_or_else", "values", "values_mut", "windows", "write_all", "zip",
];

fn crate_name_of(path: &str) -> String {
    let mut parts = path.split('/').peekable();
    while let Some(part) = parts.next() {
        if part == "crates" {
            return parts.peek().copied().unwrap_or("").to_string();
        }
    }
    String::new()
}

/// Lex + parse one in-memory file into a [`FileUnit`].
pub fn file_unit(path: &str, src: &str) -> FileUnit {
    let norm = path.replace('\\', "/");
    let lexed = lex(src);
    let in_test = test_regions(&lexed.toks);
    FileUnit {
        crate_name: crate_name_of(&norm),
        in_test_dir: norm.split('/').any(|p| p == "tests" || p == "benches"),
        is_bin: norm.contains("/src/bin/") || norm.ends_with("src/main.rs"),
        path: norm,
        toks: lexed.toks,
        in_test,
        comments: lexed.comments,
    }
}

/// Build the full workspace model from parsed files.
pub fn build_workspace(files: Vec<FileUnit>) -> Workspace {
    let mut items: Vec<Item> = Vec::new();
    let mut item_file: Vec<usize> = Vec::new();
    let mut facts: Vec<FnFacts> = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        let mod_path = parse::module_path_of(&file.path);
        let file_items = parse::parse_items(&file.toks, &file.in_test, &mod_path);
        let owners = parse::token_owners(&file_items, file.toks.len());
        let base = items.len();
        let mut file_facts: Vec<FnFacts> = vec![FnFacts::default(); file_items.len()];
        extract_facts(file, &file_items, &owners, &mut file_facts);
        for item in file_items {
            items.push(item);
            item_file.push(fi);
        }
        facts.extend(file_facts);
        debug_assert_eq!(items.len() - base, facts.len() - base);
    }

    // Name index for resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, item) in items.iter().enumerate() {
        by_name.entry(item.name.as_str()).or_default().push(idx);
    }

    // Resolve calls and build adjacency.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
    for idx in 0..items.len() {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        let caller_file = item_file[idx];
        let mut resolved_calls = std::mem::take(&mut facts[idx].calls);
        for call in resolved_calls.iter_mut() {
            call.targets = resolve_call(call, caller_file, &items, &item_file, &by_name);
            for &t in &call.targets {
                edges[idx].push(t);
            }
        }
        facts[idx].calls = resolved_calls;
        edges[idx].sort_unstable();
        edges[idx].dedup();
    }

    Workspace { files, items, item_file, facts, edges }
}

/// Resolve one call to its candidate target items.
///
/// * Method calls fan out to every method (first param `self`) with the
///   name and, when both are known, the argument count, workspace-wide —
///   the conservative treatment of trait dispatch.
/// * Path calls match items whose qualified path embeds the written
///   segments in order (allowing up to two leading segments — crate
///   aliases like `itrust_core::` — to be dropped).
/// * Bare calls prefer same-file items, falling back to workspace-wide
///   non-method items with the name.
///
/// `#[cfg(test)]` items are never targets: non-test code cannot call them.
fn resolve_call(
    call: &Call,
    caller_file: usize,
    items: &[Item],
    item_file: &[usize],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let Some(name) = call.segs.last() else {
        return Vec::new();
    };
    let Some(candidates) = by_name.get(name.as_str()) else {
        return Vec::new();
    };
    let mut out: Vec<usize> = Vec::new();
    if call.method {
        for &c in candidates {
            // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
            let item = &items[c];
            let arity_fits = match (call.args, item.params) {
                (Some(args), Some(params)) => args == params,
                _ => true,
            };
            if item.has_self && !item.in_test && arity_fits {
                out.push(c);
            }
        }
        return out;
    }
    if call.segs.len() == 1 {
        // Bare call: same-file first, then workspace non-methods.
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| item_file[c] == caller_file && !items[c].in_test)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        for &c in candidates {
            if !items[c].has_self && !items[c].in_test {
                out.push(c);
            }
        }
        return out;
    }
    for &c in candidates {
        if !items[c].in_test && qual_matches(&call.segs, &items[c].qualified) {
            out.push(c);
        }
    }
    out
}

/// Does the written call path match a qualified item path? The call's
/// segments must embed in the qualified path in order, ending at the item
/// name. Up to two *crate-alias* leading segments (the target crate's own
/// name, its `itrust_`-prefixed package name, or the `itrust_core`
/// facade) may be dropped first — arbitrary leading segments may NOT be,
/// so `m::helper` never matches an unrelated crate's `n::helper`.
fn qual_matches(call: &[String], qual: &[String]) -> bool {
    if qual.is_empty() {
        return false;
    }
    'drops: for k in 0..call.len().min(3) {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        if k > 0 && !is_crate_alias(&call[k - 1], &qual[0]) {
            break;
        }
        let segs = &call[k..];
        if segs.is_empty() || qual.last() != segs.last() {
            continue;
        }
        let prefix = &segs[..segs.len() - 1];
        let mut qi = 0usize;
        for s in prefix {
            let mut found = false;
            while qi + 1 < qual.len() {
                if &qual[qi] == s {
                    found = true;
                    qi += 1;
                    break;
                }
                qi += 1;
            }
            if !found {
                continue 'drops;
            }
        }
        return true;
    }
    false
}

/// Is `seg` a plausible alias for the crate whose root module is
/// `crate_root`? Covers the crate's own module name, the `itrust_<name>`
/// package form, and the `itrust_core` re-export facade.
fn is_crate_alias(seg: &str, crate_root: &str) -> bool {
    seg == crate_root
        || seg == "itrust_core"
        || (seg.strip_prefix("itrust_") == Some(crate_root))
}

/// Scan a file's tokens once, attributing facts to the innermost owning
/// function.
fn extract_facts(file: &FileUnit, items: &[Item], owners: &[usize], facts: &mut [FnFacts]) {
    let toks = &file.toks;
    // Locals bound to lock guards (`let g = x.lock();`), per function.
    // Method calls rooted at a guard operate on the protected std
    // container, so they never resolve to workspace items.
    let mut guard_locals: BTreeMap<usize, std::collections::BTreeSet<String>> = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        let owner = owners.get(i).copied().unwrap_or(usize::MAX);
        if owner == usize::MAX {
            i += 1;
            continue;
        }
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        let t = &toks[i];

        // Retry-awareness markers.
        if t.kind == TokKind::Ident
            && (t.text.contains("backoff") || t.text.contains("retry") || t.text == "RetryPolicy")
        {
            facts[owner].retry_aware = true;
        }
        if t.is_ident("is_transient") && i > 0 && toks[i - 1].is_punct('.') {
            facts[owner].retry_aware = true;
        }

        // Panic macros.
        if (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            let kind = match t.text.as_str() {
                "panic" => PanicKind::PanicMacro,
                "todo" => PanicKind::TodoMacro,
                _ => PanicKind::UnimplementedMacro,
            };
            facts[owner].panics.push(PanicSite { kind, tok: i, line: t.line, col: t.col });
            i += 1;
            continue;
        }

        // Method-shaped sites: `.name(`.
        if t.is_punct('.') {
            if let Some(name) = toks.get(i + 1) {
                let open = toks.get(i + 2).is_some_and(|p| p.is_punct('('));
                let empty = open && toks.get(i + 3).is_some_and(|p| p.is_punct(')'));
                if name.is_ident("unwrap") && empty {
                    facts[owner].panics.push(PanicSite {
                        kind: PanicKind::Unwrap,
                        tok: i + 1,
                        line: name.line,
                        col: name.col,
                    });
                    i += 4;
                    continue;
                }
                if name.is_ident("expect") && open {
                    facts[owner].panics.push(PanicSite {
                        kind: PanicKind::Expect,
                        tok: i + 1,
                        line: name.line,
                        col: name.col,
                    });
                    i += 3;
                    continue;
                }
                let lockish =
                    name.is_ident("lock") || name.is_ident("read") || name.is_ident("write");
                if lockish && empty {
                    if let Some(site) = lock_site(file, items, i, owner) {
                        facts[owner].locks.push(site);
                    }
                    if let Some(bound) = guard_binding_name(toks, i) {
                        guard_locals.entry(owner).or_default().insert(bound);
                    }
                    i += 4;
                    continue;
                }
            }
        }

        // Index expressions: `recv[…]` where recv ends in an ident, `)` or
        // `]`. Full-range slices (`x[..]`) cannot panic and are skipped.
        if t.is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let indexable = (prev.kind == TokKind::Ident && !is_reserved(&prev.text))
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexable && !is_full_range(toks, i) {
                facts[owner].panics.push(PanicSite {
                    kind: PanicKind::Index,
                    tok: i,
                    line: t.line,
                    col: t.col,
                });
            }
            i += 1;
            continue;
        }

        // Error-variant construction sites: `Error::Variant { … }` or
        // `Error::Variant(…)`, excluding pattern positions.
        if t.kind == TokKind::Ident
            && (TRANSIENT_VARIANTS.contains(&t.text.as_str())
                || NONTRANSIENT_VARIANTS.contains(&t.text.as_str()))
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("Error")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('{') || n.is_punct('('))
            && !is_pattern_position(toks, i)
        {
            let transient = TRANSIENT_VARIANTS.contains(&t.text.as_str());
            facts[owner].errs.push(ErrSite {
                variant: t.text.clone(),
                transient,
                in_loop: in_loop_within(toks, items[owner].body, i),
                tok: i,
                line: t.line,
                col: t.col,
            });
            i += 1;
            continue;
        }

        // Transient io::Error construction: `Error::new(… ErrorKind::Kind …)`.
        if t.kind == TokKind::Ident
            && TRANSIENT_IO_KINDS.contains(&t.text.as_str())
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("ErrorKind")
            && preceded_by_new(toks, i - 3)
        {
            facts[owner].errs.push(ErrSite {
                variant: format!("Io({})", t.text),
                transient: true,
                in_loop: in_loop_within(toks, items[owner].body, i),
                tok: i,
                line: t.line,
                col: t.col,
            });
            i += 1;
            continue;
        }

        // Call expressions: `name(` — path or method, not macro, not decl.
        if t.is_punct('(') && i > 0 {
            let p = &toks[i - 1];
            if p.kind == TokKind::Ident
                && !is_reserved(&p.text)
                && !(i >= 2 && toks[i - 2].is_ident("fn"))
            {
                static EMPTY: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
                let guards = guard_locals.get(&owner).unwrap_or(&EMPTY);
                if let Some(call) = call_at(file, items, owner, i - 1, guards) {
                    facts[owner].calls.push(call);
                }
            }
        }
        i += 1;
    }
}

/// Is the bracket group at `open` exactly `[..]`?
fn is_full_range(toks: &[Tok], open: usize) -> bool {
    toks.get(open + 1).is_some_and(|a| a.is_punct('.'))
        && toks.get(open + 2).is_some_and(|b| b.is_punct('.'))
        && toks.get(open + 3).is_some_and(|c| c.is_punct(']'))
}

/// Is the `Error::Variant` at `idx` in pattern position (a match arm, a
/// `matches!` argument, or an `if let`/`while let` binding) rather than an
/// expression?
fn is_pattern_position(toks: &[Tok], idx: usize) -> bool {
    // Scan back to the statement boundary for `matches!` or `let`.
    let mut j = idx;
    let mut steps = 0;
    while j > 0 && steps < 48 {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("matches") && toks.get(j).is_some_and(|n| n.is_punct('!')) {
            return true;
        }
        if t.is_ident("let") {
            return true;
        }
        j -= 1;
        steps += 1;
    }
    // Scan forward past the payload group for `=>` (a match arm).
    let Some(group_open) = toks.get(idx + 1) else {
        return false;
    };
    let (open, close) = if group_open.is_punct('{') { ('{', '}') } else { ('(', ')') };
    let mut depth = 0i32;
    let mut k = idx + 1;
    while k < toks.len() {
        if toks[k].is_punct(open) {
            depth += 1;
        } else if toks[k].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return toks.get(k + 1).is_some_and(|n| n.is_punct('='))
                    && toks.get(k + 2).is_some_and(|n| n.is_punct('>'));
            }
        }
        k += 1;
    }
    false
}

/// Was `ErrorKind::…` at `kind_idx` preceded (within the same expression)
/// by an `Error::new(`-style constructor call?
fn preceded_by_new(toks: &[Tok], kind_idx: usize) -> bool {
    let start = kind_idx.saturating_sub(8);
    for j in (start..kind_idx).rev() {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        if toks[j].is_ident("new") && toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
            return true;
        }
        if toks[j].is_punct(';') {
            return false;
        }
    }
    false
}

/// Is token `idx` lexically inside a `loop`/`while`/`for` body within the
/// function body `body`?
fn in_loop_within(toks: &[Tok], body: Option<(usize, usize)>, idx: usize) -> bool {
    let Some((body_open, _)) = body else {
        return false;
    };
    // Walk back; each time we see an unmatched `{`, check whether a loop
    // keyword opens it.
    let mut depth = 0i32;
    let mut j = idx;
    while j > body_open {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        let t = &toks[j - 1];
        if t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('{') {
            if depth > 0 {
                depth -= 1;
            } else if opens_loop(toks, j - 1, body_open) {
                return true;
            }
        }
        j -= 1;
    }
    false
}

/// Does the `{` at `brace_idx` open a loop body? Checks the header tokens
/// back to the previous statement boundary for `loop`/`while`/`for`.
fn opens_loop(toks: &[Tok], brace_idx: usize, floor: usize) -> bool {
    let mut j = brace_idx;
    let mut depth = 0i32;
    while j > floor {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        let t = &toks[j - 1];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                return false;
            }
            if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") {
                return true;
            }
        }
        j -= 1;
    }
    false
}

/// Build a [`LockSite`] for the `.lock()`/`.read()`/`.write()` whose dot
/// sits at `dot_idx`. Returns `None` when no receiver ident can be found
/// (e.g. a free call `lock()`).
fn lock_site(file: &FileUnit, items: &[Item], dot_idx: usize, owner: usize) -> Option<LockSite> {
    let toks = &file.toks;
    // Walk back over the receiver chain collecting field idents.
    let mut chain_rev: Vec<String> = Vec::new();
    let mut j = dot_idx;
    let mut chain_start = dot_idx;
    while j > 0 {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        let t = &toks[j - 1];
        if t.kind == TokKind::Ident && !is_reserved(&t.text) || t.is_ident("self") {
            chain_rev.push(t.text.clone());
            chain_start = j - 1;
            j -= 1;
            // Continue only through `.` / `::`.
            if j > 0 && toks[j - 1].is_punct('.') {
                j -= 1;
                continue;
            }
            if j > 1 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                j -= 2;
                continue;
            }
            break;
        }
        if t.is_punct(')') || t.is_punct(']') {
            // Skip a call/index group backward.
            let close_ch = if t.is_punct(')') { ')' } else { ']' };
            let open_ch = if close_ch == ')' { '(' } else { '[' };
            let mut depth = 0i32;
            let mut k = j;
            loop {
                if k == 0 {
                    return None;
                }
                let u = &toks[k - 1];
                if u.is_punct(close_ch) {
                    depth += 1;
                } else if u.is_punct(open_ch) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            j = k - 1;
            chain_start = j;
            continue;
        }
        break;
    }
    let field = chain_rev.first()?.clone();
    chain_rev.reverse();
    let name_tok = &toks[dot_idx + 1];
    let hold_end = lock_hold_end(toks, items[owner].body, chain_start, dot_idx);
    Some(LockSite {
        lock: format!("{}:{}", file.crate_name, field),
        chain: chain_rev.join("."),
        tok: dot_idx + 1,
        hold_end,
        line: name_tok.line,
        col: name_tok.col,
    })
}

/// Token index past which an acquired guard is treated as released.
///
/// `let`-bound guards live to the end of the enclosing block; temporaries
/// die at the end of their statement. `drop(guard)` is not modelled — the
/// hold range stays conservative.
fn lock_hold_end(
    toks: &[Tok],
    body: Option<(usize, usize)>,
    chain_start: usize,
    dot_idx: usize,
) -> usize {
    let (body_open, body_close) = body.unwrap_or((0, toks.len().saturating_sub(1)));
    // Is the *guard itself* `let`-bound? A mid-chain acquisition inside a
    // `let` statement (`let n = x.read().len();`) binds the chain result;
    // the guard is a temporary that dies at the semicolon.
    let mut let_bound = false;
    if guard_terminates_stmt(toks, dot_idx) {
        let mut j = chain_start;
        while j > body_open {
            // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
            let t = &toks[j - 1];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            if t.is_ident("let") {
                let_bound = true;
                break;
            }
            j -= 1;
        }
    }
    let mut depth = 0i32;
    let mut k = dot_idx;
    while k <= body_close {
        let t = &toks[k];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                // End of the enclosing block.
                return k;
            }
        } else if t.is_punct(';') && depth == 0 && !let_bound {
            return k;
        }
        k += 1;
    }
    body_close
}

/// If the lock call whose dot sits at `dot_idx` is the whole initializer
/// of a `let` statement (`let [mut] g = recv.lock()[.unwrap()];`), return
/// the bound name. Mid-chain acquisitions (`let n = x.read().len();`)
/// bind the chain's result, not the guard, and return `None`.
fn guard_binding_name(toks: &[Tok], dot_idx: usize) -> Option<String> {
    if !guard_terminates_stmt(toks, dot_idx) {
        return None;
    }
    // Scan back to the statement boundary for `let [mut] NAME =`.
    let mut j = dot_idx;
    let mut steps = 0;
    while j > 0 && steps < 32 {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.is_ident("let") {
            let mut k = j;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let name = toks.get(k)?;
            if name.kind == TokKind::Ident && !is_reserved(&name.text) {
                return Some(name.text.clone());
            }
            return None;
        }
        j -= 1;
        steps += 1;
    }
    None
}

/// Does the chain end right after the lock call (modulo `.unwrap()` /
/// `.expect(…)` adapters), i.e. the next token is `;`? When further
/// methods follow, the guard is a temporary inside a longer chain.
fn guard_terminates_stmt(toks: &[Tok], dot_idx: usize) -> bool {
    // The lock call's parens are empty (`.lock()`), so the close sits at
    // `dot_idx + 3`.
    let mut k = dot_idx + 3;
    loop {
        let Some(next) = toks.get(k + 1) else {
            return false;
        };
        if next.is_punct(';') {
            return true;
        }
        if !next.is_punct('.') {
            return false;
        }
        let adapter = toks
            .get(k + 2)
            .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
        if !adapter || !toks.get(k + 3).is_some_and(|t| t.is_punct('(')) {
            return false;
        }
        // Skip the adapter's argument group.
        let mut depth = 0i32;
        let mut m = k + 3;
        loop {
            let Some(t) = toks.get(m) else {
                return false;
            };
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            m += 1;
        }
        k = m;
    }
}

/// Call expression with its name token at `name_idx` (the `(` follows).
fn call_at(
    file: &FileUnit,
    items: &[Item],
    owner: usize,
    name_idx: usize,
    guards: &std::collections::BTreeSet<String>,
) -> Option<Call> {
    let toks = &file.toks;
    // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
    let name = &toks[name_idx];
    // Collect the written path backward: `a::b::name`.
    let mut segs_rev: Vec<String> = vec![name.text.clone()];
    let mut j = name_idx;
    while j >= 3 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        let seg = &toks[j - 3];
        if seg.kind == TokKind::Ident {
            // Turbofish `collect::<Vec<_>>()` leaves a `>` before `::` —
            // the ident arm only matches plain path segments.
            segs_rev.push(seg.text.clone());
            j -= 3;
        } else {
            break;
        }
    }
    let method = segs_rev.len() == 1 && j > 0 && toks[j - 1].is_punct('.');
    if method {
        // Std container/iterator names never resolve to workspace items.
        if STD_METHODS.contains(&name.text.as_str()) {
            return None;
        }
        if name_idx >= 2 {
            let recv = &toks[name_idx - 2];
            // A receiver that is itself a call or index result is a
            // temporary (typically a lock guard or adapter); its methods
            // resolve to std, not the workspace.
            if recv.is_punct(')') || recv.is_punct(']') {
                return None;
            }
            // Walk to the root ident of a plain field chain; methods on
            // guard-bound locals operate on the protected container.
            let mut r = name_idx - 2;
            while r >= 2
                && toks[r].kind == TokKind::Ident
                && toks[r - 1].is_punct('.')
                && toks[r - 2].kind == TokKind::Ident
            {
                r -= 2;
            }
            if toks[r].kind == TokKind::Ident && guards.contains(&toks[r].text) {
                return None;
            }
        }
    }
    let mut segs: Vec<String> = segs_rev.into_iter().rev().collect();
    // Rewrite `Self::helper(…)` to the enclosing impl type.
    if segs.first().is_some_and(|s| s == "Self") {
        let qual = &items[owner].qualified;
        if qual.len() >= 2 {
            segs[0] = qual[qual.len() - 2].clone();
        } else {
            segs.remove(0);
        }
    }
    segs.retain(|s| s != "crate" && s != "self" && s != "super");
    if segs.is_empty() {
        return None;
    }
    let args = parse::matching_pair(toks, name_idx + 1, toks.len(), '(', ')')
        .and_then(|close| toks.get(name_idx + 2..close))
        .and_then(|run| parse::list_len(run, false));
    Some(Call {
        segs,
        method,
        args,
        tok: name_idx,
        line: name.line,
        col: name.col,
        targets: Vec::new(),
    })
}

/// Multi-source BFS over the call graph. Returns, for every item, the
/// predecessor (item index, root index) pair on a shortest chain from any
/// source, or `None` when unreachable. Sources are their own roots.
/// Processing order is sorted, so chains are deterministic.
pub fn reach_from(sources: &[usize], edges: &[Vec<usize>], n: usize) -> Vec<Option<(usize, usize)>> {
    let mut state: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut sorted = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &s in &sorted {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        if state[s].is_none() {
            state[s] = Some((s, s));
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let root = state[u].map(|(_, r)| r).unwrap_or(u);
        for &v in &edges[u] {
            if state[v].is_none() {
                state[v] = Some((u, root));
                queue.push_back(v);
            }
        }
    }
    state
}

/// Render the call chain from the BFS `state` root to `target` as
/// `root → … → target` using item names.
pub fn chain_to(
    state: &[Option<(usize, usize)>],
    items: &[Item],
    target: usize,
    max_hops: usize,
) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut cur = target;
    for _ in 0..=max_hops {
        // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
        names.push(&items[cur].name);
        match state[cur] {
            Some((pred, _)) if pred != cur => cur = pred,
            _ => break,
        }
    }
    names.reverse();
    names.join(" → ")
}

/// Is this item a public-API root: plain `pub`, not test-gated, in a
/// library crate (not bench), not in a bin target or tests dir?
pub fn is_public_root(ws: &Workspace, idx: usize) -> bool {
    // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
    let item = &ws.items[idx];
    let file = &ws.files[ws.item_file[idx]];
    item.vis == Visibility::Public
        && !item.in_test
        && !file.in_test_dir
        && !file.is_bin
        && file.crate_name != "bench"
        && !file.crate_name.is_empty()
}

/// Do panic/error findings apply to this item at all? (Library code only:
/// bins, bench, tests dirs and `#[cfg(test)]` items are exempt.)
pub fn is_lib_item(ws: &Workspace, idx: usize) -> bool {
    // itrust-lint: allow(panic-reachable) — token indices are guarded by the scan-loop bounds and saturating backward walks
    let item = &ws.items[idx];
    let file = &ws.files[ws.item_file[idx]];
    !item.in_test
        && !file.in_test_dir
        && !file.is_bin
        && file.crate_name != "bench"
        && !file.crate_name.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        build_workspace(files.iter().map(|(p, s)| file_unit(p, s)).collect())
    }

    fn find(w: &Workspace, name: &str) -> usize {
        w.items.iter().position(|i| i.name == name).expect("item")
    }

    #[test]
    fn path_call_resolution_is_suffix_qualified() {
        let w = ws(&[
            ("crates/a/src/m.rs", "pub fn helper() {}"),
            ("crates/b/src/n.rs", "pub fn helper() {}"),
            ("crates/c/src/lib.rs", "pub fn go() { m::helper(); }"),
        ]);
        let go = find(&w, "go");
        let a_helper = find(&w, "helper");
        assert_eq!(w.edges[go], vec![a_helper], "only crate a's m::helper matches");
    }

    #[test]
    fn method_calls_fan_out_conservatively() {
        let w = ws(&[
            ("crates/a/src/x.rs", "pub struct A; impl A { pub fn put(&self) {} }"),
            ("crates/b/src/y.rs", "pub struct B; impl B { pub fn put(&self) {} }"),
            ("crates/c/src/lib.rs", "pub fn go(o: &O) { o.put(); }"),
        ]);
        let go = find(&w, "go");
        assert_eq!(w.edges[go].len(), 2, "method call resolves to both put impls");
    }

    #[test]
    fn method_fan_out_skips_other_arities() {
        let w = ws(&[
            ("crates/a/src/x.rs", "pub struct A; impl A { pub fn get(&self, t: u8, k: u8) {} }"),
            ("crates/b/src/y.rs", "pub struct B; impl B { pub fn get(&self, m: Map<u8, u8>) {} }"),
            (
                "crates/c/src/lib.rs",
                "pub fn one(v: &V) { v.get(1); }\npub fn unknown(v: &V) { v.get(a | b, c); }",
            ),
        ]);
        let b_get =
            w.items.iter().position(|i| i.display_path() == "b::y::B::get").expect("B::get");
        assert_eq!(w.edges[find(&w, "one")], vec![b_get], "one argument: only B::get fits");
        assert_eq!(w.edges[find(&w, "unknown")].len(), 2, "uncountable arguments keep both");
    }

    #[test]
    fn bare_calls_prefer_same_file() {
        let w = ws(&[
            ("crates/a/src/x.rs", "pub fn helper() {} pub fn go() { helper(); }"),
            ("crates/b/src/y.rs", "pub fn helper() {}"),
        ]);
        let go = find(&w, "go");
        assert_eq!(w.edges[go].len(), 1);
        assert_eq!(w.item_file[w.edges[go][0]], 0);
    }

    #[test]
    fn lock_sites_and_hold_ranges() {
        let src = "pub fn f(&self) { let g = self.queue.lock(); self.other.lock().len(); }";
        let w = ws(&[("crates/svc/src/lib.rs", src)]);
        let f = find(&w, "f");
        let locks = &w.facts[f].locks;
        assert_eq!(locks.len(), 2);
        assert_eq!(locks[0].lock, "svc:queue");
        assert_eq!(locks[1].lock, "svc:other");
        assert!(locks[0].hold_end > locks[1].tok, "let-bound guard held past second site");
        assert!(locks[1].hold_end < locks[0].hold_end, "temporary dies at its statement");
    }

    #[test]
    fn panic_sites_detected_and_full_range_index_skipped() {
        let src = "pub fn f(v: &[u8], m: &M) -> u8 { let _ = &v[..]; let x = v[0]; m.get().unwrap(); panic!(\"boom\"); x }";
        let w = ws(&[("crates/a/src/lib.rs", src)]);
        let f = find(&w, "f");
        let kinds: Vec<PanicKind> = w.facts[f].panics.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, vec![PanicKind::Index, PanicKind::Unwrap, PanicKind::PanicMacro]);
    }

    #[test]
    fn error_sites_classified_and_patterns_excluded() {
        let src = r#"
pub fn shed() -> Result<(), Error> { Err(Error::Overloaded { detail: "q".into() }) }
pub fn classify(e: &Error) -> bool { matches!(e, Error::Overloaded { .. }) }
pub fn arm(e: Error) -> u8 { match e { Error::QuotaExceeded { .. } => 1, _ => 0 } }
"#;
        let w = ws(&[("crates/svc/src/lib.rs", src)]);
        let shed = find(&w, "shed");
        assert_eq!(w.facts[shed].errs.len(), 1);
        assert!(w.facts[shed].errs[0].transient);
        let classify = find(&w, "classify");
        assert!(w.facts[classify].errs.is_empty(), "matches! pattern is not a construction");
        let arm = find(&w, "arm");
        assert!(w.facts[arm].errs.is_empty(), "match arm is not a construction");
    }

    #[test]
    fn transient_io_construction_detected() {
        let src = r#"
pub fn flake() -> Error { Error::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, "slow")) }
pub fn classify(k: std::io::ErrorKind) -> bool { matches!(k, std::io::ErrorKind::TimedOut) }
"#;
        let w = ws(&[("crates/db/src/lib.rs", src)]);
        let flake = find(&w, "flake");
        assert_eq!(w.facts[flake].errs.len(), 1);
        assert_eq!(w.facts[flake].errs[0].variant, "Io(TimedOut)");
        let classify = find(&w, "classify");
        assert!(w.facts[classify].errs.is_empty(), "pattern position is not a construction");
    }

    #[test]
    fn retry_awareness_markers() {
        let src = "pub fn retry_loop(e: &Error) { let backoff = 5; if e.is_transient() { let _ = backoff; } }\npub fn plain() {}";
        let w = ws(&[("crates/db/src/lib.rs", src)]);
        assert!(w.facts[find(&w, "retry_loop")].retry_aware);
        assert!(!w.facts[find(&w, "plain")].retry_aware);
    }

    #[test]
    fn closure_bodies_attribute_to_enclosing_fn() {
        let src = "pub fn outer(xs: &[u8]) { xs.iter().map(|x| helper(*x)).count(); }\nfn helper(_x: u8) {}";
        let w = ws(&[("crates/a/src/lib.rs", src)]);
        let outer = find(&w, "outer");
        let helper = find(&w, "helper");
        assert!(w.edges[outer].contains(&helper), "call inside closure belongs to outer");
    }

    #[test]
    fn in_loop_detection() {
        let src = r#"
pub fn f() -> Result<(), Error> {
    let retry = true;
    loop {
        if !retry { return Err(Error::InvariantViolation("x".into())); }
    }
}
"#;
        let w = ws(&[("crates/db/src/lib.rs", src)]);
        let f = find(&w, "f");
        assert_eq!(w.facts[f].errs.len(), 1);
        assert!(w.facts[f].errs[0].in_loop);
    }

    #[test]
    fn reach_and_chain() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn api() { mid(); }\nfn mid() { deep(); }\nfn deep() {}",
        )]);
        let api = find(&w, "api");
        let deep = find(&w, "deep");
        let state = reach_from(&[api], &w.edges, w.items.len());
        assert!(state[deep].is_some());
        assert_eq!(chain_to(&state, &w.items, deep, 8), "api → mid → deep");
    }
}

