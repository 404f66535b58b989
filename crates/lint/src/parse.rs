//! Item-level recursive-descent parser on top of the token stream.
//!
//! The interprocedural passes need more structure than the token-shape
//! rules: *which function* a token belongs to, whether that function is
//! public API, and what type an `impl` block targets. This parser
//! recognizes exactly the item grammar the passes consume — `mod` blocks,
//! `impl`/`trait` blocks, and `fn` items (including nested functions) —
//! and leaves everything else (struct bodies, match arms, closures) as
//! opaque token runs attributed to the innermost enclosing function.
//!
//! It is deliberately *not* a full Rust parser: generics are skipped by
//! angle-bracket matching, bodies by brace matching. The soundness limits
//! this buys are documented in DESIGN.md §10; the invariant it must hold
//! (and a proptest pins) is that item body spans nest properly, so every
//! token has a unique innermost owner.

use crate::lexer::{Tok, TokKind};

/// Visibility of a function item, as far as the passes care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Plain `pub` — part of the crate's public API surface.
    Public,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — visible but not API.
    Restricted,
    /// No visibility qualifier.
    Private,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The function's bare name.
    pub name: String,
    /// Qualified path: module segments (crate dir, file stem, inline
    /// `mod`s), then the `impl`/`trait` self type if any, then the name.
    pub qualified: Vec<String>,
    pub vis: Visibility,
    /// First parameter is some form of `self` (method).
    pub has_self: bool,
    /// Parameters after any `self`; `None` when the list did not parse.
    pub params: Option<usize>,
    /// Inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token index range `[open, close]` of the body braces; `None` for a
    /// bodiless trait method declaration.
    pub body: Option<(usize, usize)>,
    /// Source position of the name token (diagnostic anchor).
    pub line: u32,
    pub col: u32,
}

impl Item {
    /// Render the qualified path for diagnostics: `a::b::Type::name`.
    pub fn display_path(&self) -> String {
        self.qualified.join("::")
    }
}

const RESERVED: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "in", "as", "use", "pub", "impl", "trait", "struct", "enum", "union", "where", "unsafe",
    "async", "await", "dyn", "const", "static", "crate", "super", "type", "mod", "extern",
    "break", "continue", "yield", "box",
];

/// Is this identifier a keyword that can never be a call target?
pub fn is_reserved(name: &str) -> bool {
    RESERVED.contains(&name)
}

/// Module path segments derived from a file path:
/// `crates/trustdb/src/wal.rs` → `["trustdb", "wal"]`,
/// `crates/bench/src/bin/d9.rs` → `["bench", "d9"]`,
/// `crates/neural/src/classical/bayes.rs` → `["neural", "classical", "bayes"]`.
/// `lib.rs`, `main.rs` and `mod.rs` stems are dropped.
pub fn module_path_of(path: &str) -> Vec<String> {
    let norm = path.replace('\\', "/");
    let mut out = Vec::new();
    let parts: Vec<&str> = norm.split('/').collect();
    let mut i = 0;
    while i < parts.len() {
        // itrust-lint: allow(panic-reachable) — token indices are produced by the parser cursor, which checks len before every step
        if parts[i] == "crates" && i + 1 < parts.len() {
            out.push(parts[i + 1].replace('-', "_"));
            i += 2;
            continue;
        }
        i += 1;
    }
    // Everything after `src/` contributes module segments.
    if let Some(src_idx) = parts.iter().position(|p| *p == "src") {
        for seg in &parts[src_idx + 1..] {
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            if stem == "lib" || stem == "main" || stem == "mod" || stem == "bin" {
                continue;
            }
            out.push(stem.to_string());
        }
    } else if let Some(last) = parts.last() {
        // tests/foo.rs and other non-src layouts: use the file stem.
        let stem = last.strip_suffix(".rs").unwrap_or(last);
        if !stem.is_empty() && !out.iter().any(|s| s == stem) {
            out.push(stem.to_string());
        }
    }
    out
}

/// Parse every function item in a lexed file. `in_test` is the parallel
/// `test_regions` flag array; `mod_path` seeds the qualified paths.
pub fn parse_items(toks: &[Tok], in_test: &[bool], mod_path: &[String]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut path: Vec<String> = mod_path.to_vec();
    scan(toks, in_test, 0, toks.len(), &mut path, None, &mut items);
    items
}

/// Walk `toks[start..end]` collecting items. `self_ty` is the enclosing
/// `impl`/`trait` type name, if any.
fn scan(
    toks: &[Tok],
    in_test: &[bool],
    start: usize,
    end: usize,
    path: &mut Vec<String>,
    self_ty: Option<&str>,
    items: &mut Vec<Item>,
) {
    let mut i = start;
    while i < end {
        // itrust-lint: allow(panic-reachable) — token indices are produced by the parser cursor, which checks len before every step
        let t = &toks[i];
        if t.is_ident("mod") {
            // `mod name { … }` or `mod name;`
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == TokKind::Ident {
                    match toks.get(i + 2) {
                        Some(open) if open.is_punct('{') => {
                            let Some(close) = matching_brace(toks, i + 2, end) else {
                                return;
                            };
                            path.push(name_tok.text.clone());
                            scan(toks, in_test, i + 3, close, path, None, items);
                            path.pop();
                            i = close + 1;
                            continue;
                        }
                        _ => {
                            i += 2;
                            continue;
                        }
                    }
                }
            }
            i += 1;
        } else if t.is_ident("impl") || t.is_ident("trait") {
            let is_trait = t.is_ident("trait");
            let Some((ty, open)) = impl_target(toks, i, end, is_trait) else {
                i += 1;
                continue;
            };
            let Some(close) = matching_brace(toks, open, end) else {
                return;
            };
            scan(toks, in_test, open + 1, close, path, Some(&ty), items);
            i = close + 1;
        } else if t.is_ident("fn") {
            // `fn` in type position (`fn(u8) -> u8`) has no name ident.
            let Some(name_tok) = toks.get(i + 1) else {
                i += 1;
                continue;
            };
            if name_tok.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let Some(parsed) = parse_fn(toks, i, end) else {
                i += 1;
                continue;
            };
            let mut qualified = path.clone();
            if let Some(ty) = self_ty {
                qualified.push(ty.to_string());
            }
            qualified.push(name_tok.text.clone());
            let item_idx = items.len();
            items.push(Item {
                name: name_tok.text.clone(),
                qualified,
                vis: visibility_before(toks, i),
                has_self: parsed.has_self,
                params: parsed.params,
                in_test: in_test.get(i).copied().unwrap_or(false),
                fn_tok: i,
                body: parsed.body,
                line: name_tok.line,
                col: name_tok.col,
            });
            if let Some((open, close)) = items[item_idx].body {
                // Nested `fn` items inside the body become their own items
                // (free functions — they lose the impl self type).
                scan(toks, in_test, open + 1, close, path, None, items);
                i = close + 1;
            } else {
                i = parsed.resume;
            }
        } else {
            i += 1;
        }
    }
}

struct FnShape {
    has_self: bool,
    params: Option<usize>,
    body: Option<(usize, usize)>,
    /// Where to continue scanning when there is no body.
    resume: usize,
}

/// Parse the shape of a `fn` starting at the `fn` keyword index.
fn parse_fn(toks: &[Tok], fn_idx: usize, end: usize) -> Option<FnShape> {
    let mut i = fn_idx + 2; // past `fn name`
    // Skip generics.
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angles(toks, i, end)?;
    }
    // Parameter list.
    if !toks.get(i).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_close = matching_pair(toks, i, end, '(', ')')?;
    // itrust-lint: allow(panic-reachable) — token indices are produced by the parser cursor, which checks len before every step
    let param_toks = &toks[i + 1..params_close];
    let has_self = first_param_is_self(param_toks);
    let params = list_len(param_toks, true).map(|n| n.saturating_sub(usize::from(has_self)));
    // Scan forward for the body `{` or a terminating `;`, skipping any
    // parenthesized groups (tuple return types, `impl Fn(…)` bounds) and
    // angle groups in where clauses.
    let mut j = params_close + 1;
    while j < end {
        let t = &toks[j];
        if t.is_punct('{') {
            let close = matching_brace(toks, j, end)?;
            return Some(FnShape { has_self, params, body: Some((j, close)), resume: close + 1 });
        }
        if t.is_punct(';') {
            return Some(FnShape { has_self, params, body: None, resume: j + 1 });
        }
        if t.is_punct('(') {
            j = matching_pair(toks, j, end, '(', ')')? + 1;
            continue;
        }
        if t.is_punct('<') && !toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('-')) {
            j = skip_angles(toks, j, end)?;
            continue;
        }
        j += 1;
    }
    None
}

/// Number of comma-separated entries in the token run between a pair of
/// parentheses; commas inside nested brackets do not count. `angles`
/// treats `<`/`>` as brackets (type position: a parameter list). Without
/// it, a top-level `<` or `|` (turbofish, comparison, closure parameters)
/// makes the count unknowable and yields `None`.
pub(crate) fn list_len(run: &[Tok], angles: bool) -> Option<usize> {
    let mut depth = 0i32;
    let mut commas = 0;
    let mut prev_dash = false;
    for t in run {
        let arrow = prev_dash && t.is_punct('>');
        prev_dash = t.is_punct('-');
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || (angles && t.is_punct('<')) {
            depth += 1;
        } else if t.is_punct(')')
            || t.is_punct(']')
            || t.is_punct('}')
            || (angles && t.is_punct('>') && !arrow)
        {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            commas += 1;
        } else if depth == 0 && !angles && (t.is_punct('<') || t.is_punct('|')) {
            return None;
        }
    }
    match run.last() {
        None => Some(0),
        Some(t) if t.is_punct(',') => Some(commas),
        Some(_) => Some(commas + 1),
    }
}

/// Does the parameter token run start with some `self` form?
fn first_param_is_self(params: &[Tok]) -> bool {
    for t in params.iter().take(4) {
        if t.is_ident("self") {
            return true;
        }
        if t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime {
            continue;
        }
        return false;
    }
    false
}

/// Visibility of the item whose `fn`/`struct` keyword sits at `kw_idx`,
/// determined by walking back over qualifier keywords.
fn visibility_before(toks: &[Tok], kw_idx: usize) -> Visibility {
    let mut j = kw_idx;
    while j > 0 {
        // itrust-lint: allow(panic-reachable) — token indices are produced by the parser cursor, which checks len before every step
        let t = &toks[j - 1];
        if t.is_ident("unsafe") || t.is_ident("const") || t.is_ident("async") || t.is_ident("extern")
        {
            j -= 1;
            continue;
        }
        if t.kind == TokKind::Str {
            // extern "C"
            j -= 1;
            continue;
        }
        if t.is_punct(')') {
            // Possibly the close of `pub(crate)` — find the opening paren.
            let mut depth = 0i32;
            let mut k = j - 1;
            loop {
                if toks[k].is_punct(')') {
                    depth += 1;
                } else if toks[k].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return Visibility::Private;
                }
                k -= 1;
            }
            if k > 0 && toks[k - 1].is_ident("pub") {
                return Visibility::Restricted;
            }
            return Visibility::Private;
        }
        if t.is_ident("pub") {
            return Visibility::Public;
        }
        return Visibility::Private;
    }
    Visibility::Private
}

/// Extract the self-type name of an `impl`/`trait` block and the index of
/// its body `{`. For `impl<T> Trait for Type<T> where …` the target is
/// `Type`; for `impl Type` it is `Type`; for `trait Name` it is `Name`.
fn impl_target(toks: &[Tok], kw_idx: usize, end: usize, is_trait: bool) -> Option<(String, usize)> {
    let mut i = kw_idx + 1;
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angles(toks, i, end)?;
    }
    // Collect idents at angle-depth 0 until the body `{`, tracking the
    // last path segment seen and whether a `for` splits trait from type.
    let mut last_seg: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut j = i;
    while j < end {
        // itrust-lint: allow(panic-reachable) — token indices are produced by the parser cursor, which checks len before every step
        let t = &toks[j];
        if t.is_punct('{') {
            let name = if saw_for { after_for.or(last_seg) } else { last_seg };
            return name.map(|n| (n, j));
        }
        if t.is_punct(';') {
            return None; // `impl Trait for Type;` style — no body
        }
        if t.is_punct('<') {
            j = skip_angles(toks, j, end)?;
            continue;
        }
        if t.is_punct('(') {
            j = matching_pair(toks, j, end, '(', ')')? + 1;
            continue;
        }
        if t.is_ident("where") {
            // Type name is settled; keep scanning for the `{` only.
            j += 1;
            while j < end && !toks[j].is_punct('{') {
                if toks[j].is_punct('<') {
                    j = skip_angles(toks, j, end)?;
                } else if toks[j].is_punct('(') {
                    j = matching_pair(toks, j, end, '(', ')')? + 1;
                } else {
                    j += 1;
                }
            }
            continue;
        }
        if t.is_ident("for") && !is_trait {
            saw_for = true;
            j += 1;
            continue;
        }
        if t.kind == TokKind::Ident && !is_reserved(&t.text) {
            if saw_for {
                after_for = Some(t.text.clone());
            } else {
                last_seg = Some(t.text.clone());
            }
            if is_trait {
                // `trait Name: Bound { … }` — the name is the first ident.
                let name = t.text.clone();
                while j < end && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    if toks[j].is_punct('<') {
                        if let Some(nj) = skip_angles(toks, j, end) {
                            j = nj;
                            continue;
                        }
                        return None;
                    }
                    if toks[j].is_punct('(') {
                        if let Some(cl) = matching_pair(toks, j, end, '(', ')') {
                            j = cl + 1;
                            continue;
                        }
                        return None;
                    }
                    j += 1;
                }
                if j < end && toks[j].is_punct('{') {
                    return Some((name, j));
                }
                return None;
            }
        }
        j += 1;
    }
    None
}

/// Index just past the matching `>` of the `<` at `open`. Understands `->`
/// (the `>` of an arrow never closes an angle group) and treats shift-like
/// `>>` as two closes.
fn skip_angles(toks: &[Tok], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < end {
        // itrust-lint: allow(panic-reachable) — token indices are produced by the parser cursor, which checks len before every step
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = j > 0 && toks[j - 1].is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
        } else if t.is_punct('(') {
            j = matching_pair(toks, j, end, '(', ')')?;
        } else if t.is_punct(';') || t.is_punct('{') {
            // Angle group ran off the item — malformed; bail.
            return None;
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`, within `toks[..end]`.
pub fn matching_brace(toks: &[Tok], open: usize, end: usize) -> Option<usize> {
    matching_pair(toks, open, end, '{', '}')
}

/// Index of the `c` closing the `o` at `open`, within `toks[..end]`.
pub(crate) fn matching_pair(
    toks: &[Tok],
    open: usize,
    end: usize,
    o: char,
    c: char,
) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Innermost-owner map: for each token index, the index (into `items`) of
/// the innermost function whose body contains it, or `usize::MAX`.
/// Items are produced outer-before-inner by `parse_items`, so a plain
/// overwrite assigns the innermost.
pub fn token_owners(items: &[Item], n_toks: usize) -> Vec<usize> {
    let mut owners = vec![usize::MAX; n_toks];
    for (idx, item) in items.iter().enumerate() {
        if let Some((open, close)) = item.body {
            for o in owners.iter_mut().take(close.min(n_toks.saturating_sub(1)) + 1).skip(open) {
                *o = idx;
            }
        }
    }
    owners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};

    fn parse(src: &str, path: &str) -> Vec<Item> {
        let lexed = lex(src);
        let in_test = test_regions(&lexed.toks);
        parse_items(&lexed.toks, &in_test, &module_path_of(path))
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path_of("crates/trustdb/src/wal.rs"), vec!["trustdb", "wal"]);
        assert_eq!(module_path_of("crates/obs/src/lib.rs"), vec!["obs"]);
        assert_eq!(module_path_of("crates/bench/src/bin/d9.rs"), vec!["bench", "d9"]);
        assert_eq!(
            module_path_of("crates/neural/src/classical/bayes.rs"),
            vec!["neural", "classical", "bayes"]
        );
        assert_eq!(module_path_of("crates/bench/src/harness/mod.rs"), vec!["bench", "harness"]);
    }

    #[test]
    fn free_fn_and_method_qualification() {
        let src = "pub fn free() {}\nimpl Wal { pub fn append(&mut self, x: u8) -> u8 { x } }\n";
        let items = parse(src, "crates/trustdb/src/wal.rs");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].display_path(), "trustdb::wal::free");
        assert_eq!(items[0].vis, Visibility::Public);
        assert!(!items[0].has_self);
        assert_eq!(items[1].display_path(), "trustdb::wal::Wal::append");
        assert!(items[1].has_self);
    }

    #[test]
    fn trait_impl_for_type_uses_type_name() {
        let src = "impl<B: Backend> Backend for Faulty<B> { fn put(&self) {} }";
        let items = parse(src, "crates/trustdb/src/fault.rs");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].display_path(), "trustdb::fault::Faulty::put");
    }

    #[test]
    fn trait_decl_methods_and_bodiless_decls() {
        let src = "pub trait Clock: Send { fn now_ms(&self) -> u64; fn tick(&self) -> u64 { 1 } }";
        let items = parse(src, "crates/trustdb/src/replica.rs");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "now_ms");
        assert!(items[0].body.is_none());
        assert_eq!(items[1].display_path(), "trustdb::replica::Clock::tick");
        assert!(items[1].body.is_some());
    }

    #[test]
    fn inline_mod_nesting_and_visibility() {
        let src = "mod inner { pub(crate) fn helper() {} fn hidden() {} }";
        let items = parse(src, "crates/demo/src/lib.rs");
        assert_eq!(items[0].display_path(), "demo::inner::helper");
        assert_eq!(items[0].vis, Visibility::Restricted);
        assert_eq!(items[1].vis, Visibility::Private);
    }

    #[test]
    fn nested_fn_is_its_own_item_and_owners_are_innermost() {
        let src = "pub fn outer() { fn inner(x: u8) -> u8 { x } inner(1); }";
        let lexed = lex(src);
        let in_test = test_regions(&lexed.toks);
        let items = parse_items(&lexed.toks, &in_test, &["demo".into()]);
        assert_eq!(items.len(), 2);
        let owners = token_owners(&items, lexed.toks.len());
        let x_idx = lexed.toks.iter().rposition(|t| t.is_ident("x")).expect("x");
        assert_eq!(owners[x_idx], 1, "inner body token owned by inner fn");
        let call_idx = lexed.toks.iter().rposition(|t| t.is_ident("inner")).expect("call");
        assert_eq!(owners[call_idx], 0, "call token owned by outer fn");
    }

    #[test]
    fn generics_with_fn_bounds_do_not_confuse_params() {
        let src = "pub fn map<F: FnMut(u8) -> u8>(f: F) -> u8 { f(1) }";
        let items = parse(src, "crates/par/src/lib.rs");
        assert_eq!(items.len(), 1);
        assert!(!items[0].has_self);
        assert!(items[0].body.is_some());
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let src = "pub fn take(cb: fn(u8) -> u8) -> u8 { cb(2) } type F = fn() -> u8;";
        let items = parse(src, "crates/demo/src/lib.rs");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "take");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests { fn t() {} }";
        let items = parse(src, "crates/demo/src/lib.rs");
        assert!(!items[0].in_test);
        assert!(items[1].in_test);
        assert_eq!(items[1].display_path(), "demo::tests::t");
    }

    #[test]
    fn spans_nest_properly() {
        let src = "pub fn a() { fn b() { fn c() {} } } pub fn d() {}";
        let items = parse(src, "crates/demo/src/lib.rs");
        for x in &items {
            for y in &items {
                let (Some((xo, xc)), Some((yo, yc))) = (x.body, y.body) else { continue };
                let disjoint = xc < yo || yc < xo;
                let x_in_y = yo <= xo && xc <= yc;
                let y_in_x = xo <= yo && yc <= xc;
                assert!(disjoint || x_in_y || y_in_x, "spans must nest or be disjoint");
            }
        }
    }
}
