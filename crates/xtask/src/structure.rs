//! Structure-aware analysis over the flat token stream.
//!
//! The L5 rule family needs more than token matching: it must know
//! *which* lock guards are live at a call site. This module recovers
//! just enough structure from the [`ScannedFile`] token stream —
//! brace-matched function bodies, guard scopes, receiver chains —
//! without a real parser (the offline container cannot fetch `syn`).
//!
//! The model is deliberately lexical and conservative:
//!
//! - A **lock field** is an owned `Mutex<...>` in a field/let position
//!   (`name: Mutex<..>`, possibly through `Arc`/`Vec`/`[..]` wrappers).
//!   Borrowed `&Mutex<T>` parameters and `Mutex::new(..)` paths are not
//!   field declarations.
//! - An **acquisition** is `lock(..)` / `lock_stats(..)` (the
//!   workspace's poison-recovering helpers) or a `.lock()` method call.
//!   The guard lives until the end of the enclosing block — or, for an
//!   unbound temporary, the end of its statement — or an explicit
//!   `drop(guard)`.
//! - A **blocking call** under a live guard (probe forwarding,
//!   `Condvar::wait`, channel `recv`, sleeps, zero-arg `.join()`) is a
//!   violation, except the condvar idiom where the guard itself is the
//!   `wait(..)` argument.

use crate::source::{LockAnnotation, ScannedFile, Token};

/// Free functions treated as lock acquisitions (the workspace's
/// poison-recovering helpers in `storage::web` and `serve`).
pub const ACQUIRE_FNS: &[&str] = &["lock", "lock_stats"];

/// Calls that may block or perform probe I/O; holding any lock guard
/// across one of these is an L5 violation.
pub const BLOCKING_CALLS: &[&str] = &[
    "try_query",
    "query",
    "wait",
    "wait_timeout",
    "recv",
    "recv_timeout",
    "park",
    "sleep",
];

const LOCK_TYPES: &[&str] = &["Mutex", "RwLock"];

/// Generic wrappers a field type may route through between the field
/// name and the lock type token.
const TYPE_WRAPPERS: &[&str] = &["Arc", "Vec", "Box", "Option", "VecDeque", "Cell", "RefCell"];

/// Keywords that precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "fn", "move", "in", "as", "else",
    "break", "continue", "unsafe", "ref", "mut", "use", "pub", "impl", "where", "dyn",
];

/// An owned `Mutex`/`RwLock` field (or binding) declaration.
#[derive(Debug, Clone)]
pub struct LockField {
    /// Field name.
    pub name: String,
    /// Declared family (from `aimq-lock: family(..)`), if any.
    pub family: Option<String>,
    /// 1-based line of the field name.
    pub line: usize,
    /// 1-based column of the type token.
    pub col: usize,
}

/// One lock acquisition site inside a function.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Resolved family; `None` when no annotation or field matched.
    pub family: Option<String>,
    /// Receiver text for diagnostics (`self.state`, `stripe`, ...).
    pub receiver: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Families of guards already live at this site.
    pub held: Vec<String>,
}

/// A call made while one or more guards are live.
#[derive(Debug, Clone)]
pub struct HeldCall {
    /// Callee identifier.
    pub callee: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Families of guards live across the call.
    pub held: Vec<String>,
}

/// A blocking call made while a guard is live.
#[derive(Debug, Clone)]
pub struct BlockedHold {
    /// The blocking callee (`try_query`, `wait`, ...).
    pub callee: String,
    /// Family of the guard held across it.
    pub family: String,
    /// 1-based line of the blocking call.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Line the offending guard was acquired on.
    pub acquired_line: usize,
}

/// Everything the walk learned about one function.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Lock acquisitions, in source order.
    pub acquisitions: Vec<Acquisition>,
    /// Calls made while holding at least one resolved guard.
    pub held_calls: Vec<HeldCall>,
    /// Blocking calls under a live guard.
    pub blocking: Vec<BlockedHold>,
    /// Every callee identifier (deduplicated) — call-graph input.
    pub calls: Vec<String>,
}

/// Per-file structural facts consumed by the L5 and effect checkers.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Owned lock declarations.
    pub lock_fields: Vec<LockField>,
    /// Non-test functions, in source order.
    pub functions: Vec<FnFacts>,
}

/// Analyze one scanned file.
pub fn analyze(file: &ScannedFile) -> FileAnalysis {
    let lock_fields = find_fields(file, LOCK_TYPES)
        .into_iter()
        .map(|(name, line, col)| LockField {
            family: family_for(file, line),
            name,
            line,
            col,
        })
        .collect::<Vec<_>>();
    let functions = find_functions(&file.tokens)
        .into_iter()
        .filter(|f| !file.in_test_region(file.tokens[f.body_start].offset))
        .map(|f| walk_fn(file, &f, &lock_fields))
        .collect();
    FileAnalysis {
        lock_fields,
        functions,
    }
}

fn family_for(file: &ScannedFile, line: usize) -> Option<String> {
    file.lock_directives.iter().find_map(|d| {
        if d.target_line != line {
            return None;
        }
        match &d.annotation {
            LockAnnotation::Family(name) => Some(name.clone()),
            LockAnnotation::Use(_) => None,
        }
    })
}

fn use_family_for(file: &ScannedFile, line: usize) -> Option<String> {
    file.lock_directives.iter().find_map(|d| {
        if d.target_line != line {
            return None;
        }
        match &d.annotation {
            LockAnnotation::Use(name) => Some(name.clone()),
            LockAnnotation::Family(_) => None,
        }
    })
}

/// Find owned field/binding declarations of one of `types`: the type
/// token must not be a path qualifier (`Mutex::new`), must not be
/// borrowed (`&Mutex<T>`), and walking back over generic wrappers must
/// land on `name :`.
fn find_fields(file: &ScannedFile, types: &[&str]) -> Vec<(String, usize, usize)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        if !t.is_ident || !types.contains(&t.text.as_str()) || file.in_test_region(t.offset) {
            continue;
        }
        if toks.get(idx + 1).is_some_and(|n| n.text == ":") {
            continue; // `Mutex::new(..)` — a path, not a declaration
        }
        if idx == 0 {
            continue;
        }
        if toks[idx - 1].text == "&" {
            continue; // borrowed parameter, ownership lives elsewhere
        }
        let mut j = idx - 1;
        while j > 0
            && (toks[j].text == "<"
                || toks[j].text == "["
                || TYPE_WRAPPERS.contains(&toks[j].text.as_str()))
        {
            j -= 1;
        }
        if j >= 1 && toks[j].text == ":" && toks[j - 1].is_ident && toks[j - 1].text != ":" {
            // `name : [wrappers] Type` — but `a::b` emits `:`+`:`, so a
            // second colon before the name position means a path.
            if j >= 2 && toks[j - 2].text == ":" {
                continue;
            }
            out.push((toks[j - 1].text.clone(), toks[j - 1].line, t.col));
        }
    }
    out
}

/// A function's name plus the token span of its brace-matched body —
/// shared with the wire-contract (`wire`) pass, which walks bodies on
/// its own terms.
pub(crate) struct FnSpan {
    pub(crate) name: String,
    pub(crate) line: usize,
    /// Token index of the body `{`.
    pub(crate) body_start: usize,
    /// Token index one past the matching `}`.
    pub(crate) body_end: usize,
}

pub(crate) fn find_functions(toks: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        if toks[k].text != "fn" || !toks.get(k + 1).is_some_and(|n| n.is_ident) {
            k += 1;
            continue;
        }
        let name = toks[k + 1].text.clone();
        let line = toks[k].line;
        // Scan to the body `{` at paren depth 0; a `;` first means a
        // trait method declaration without a body.
        let mut j = k + 2;
        let mut paren = 0usize;
        let mut body_start = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => paren += 1,
                ")" => paren = paren.saturating_sub(1),
                "{" if paren == 0 => {
                    body_start = Some(j);
                    break;
                }
                ";" if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(start) = body_start else {
            k = j + 1;
            continue;
        };
        let mut depth = 0usize;
        let mut end = toks.len();
        let mut m = start;
        while m < toks.len() {
            match toks[m].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = m + 1;
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        out.push(FnSpan {
            name,
            line,
            body_start: start,
            body_end: end,
        });
        // Resume past the body: nested items are analyzed in the
        // context of the enclosing function, not re-walked.
        k = end;
    }
    out
}

#[derive(Debug)]
struct Guard {
    family: Option<String>,
    binding: Option<String>,
    /// Brace depth the guard's scope was opened at.
    depth: usize,
    /// Unbound temporary: dies at the end of its statement.
    temp: bool,
    line: usize,
}

fn walk_fn(file: &ScannedFile, span: &FnSpan, lock_fields: &[LockField]) -> FnFacts {
    let toks = &file.tokens;
    let mut facts = FnFacts {
        name: span.name.clone(),
        line: span.line,
        ..FnFacts::default()
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 1usize;
    let mut i = span.body_start + 1;
    while i < span.body_end.saturating_sub(1) {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
            }
            ";" => guards.retain(|g| !(g.temp && g.depth == depth)),
            _ => {}
        }
        // `drop(guard)` ends the guard's life explicitly.
        if t.text == "drop" && toks.get(i + 1).is_some_and(|n| n.text == "(") {
            if let Some(arg) = toks.get(i + 2) {
                if arg.is_ident && toks.get(i + 3).is_some_and(|n| n.text == ")") {
                    guards.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
                }
            }
            i += 1;
            continue;
        }

        let is_call = t.is_ident
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && !t.text.starts_with(char::is_uppercase);
        if !is_call {
            i += 1;
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].text == ".";
        let is_fn_def = i > 0 && toks[i - 1].text == "fn";

        // Lock acquisition: helper call or `.lock()` method.
        let is_acquire = !is_fn_def
            && ((ACQUIRE_FNS.contains(&t.text.as_str()) && !prev_dot)
                || (t.text == "lock" && prev_dot));
        if is_acquire {
            let receiver_idents = if prev_dot {
                receiver_chain(toks, i - 1)
            } else {
                idents_in_parens(toks, i + 1)
            };
            let family = resolve_family(
                file,
                toks,
                i,
                &receiver_idents,
                lock_fields,
                span.body_start,
            );
            let held: Vec<String> = guards.iter().filter_map(|g| g.family.clone()).collect();
            facts.acquisitions.push(Acquisition {
                family: family.clone(),
                receiver: receiver_idents.join("."),
                line: t.line,
                col: t.col,
                held,
            });
            let (binding, temp) = binding_of(toks, i, span.body_start);
            guards.push(Guard {
                family,
                binding,
                depth,
                temp,
                line: t.line,
            });
            i += 1;
            continue;
        }

        // Blocking call while a guard is live. The condvar idiom
        // `cv.wait(guard)` consumes and re-issues the guard, so a guard
        // passed as an argument to wait/wait_timeout is exempt; a
        // *different* live guard held across the wait is still flagged.
        let is_blocking = !is_fn_def
            && (BLOCKING_CALLS.contains(&t.text.as_str())
                || (t.text == "join"
                    && prev_dot
                    && toks.get(i + 2).is_some_and(|n| n.text == ")")));
        if is_blocking {
            let args = idents_in_parens(toks, i + 1);
            let waits = t.text == "wait" || t.text == "wait_timeout";
            for g in &guards {
                let Some(family) = &g.family else { continue };
                let handed_off = waits && g.binding.as_ref().is_some_and(|b| args.contains(b));
                if !handed_off {
                    facts.blocking.push(BlockedHold {
                        callee: t.text.clone(),
                        family: family.clone(),
                        line: t.line,
                        col: t.col,
                        acquired_line: g.line,
                    });
                }
            }
        }

        // Call-graph input for the interprocedural lock pass.
        if !is_fn_def {
            if !facts.calls.iter().any(|c| c == &t.text) {
                facts.calls.push(t.text.clone());
            }
            let held: Vec<String> = guards.iter().filter_map(|g| g.family.clone()).collect();
            if !held.is_empty() {
                facts.held_calls.push(HeldCall {
                    callee: t.text.clone(),
                    line: t.line,
                    col: t.col,
                    held,
                });
            }
        }
        i += 1;
    }
    facts
}

/// Idents of the dotted receiver chain ending at the `.` at `dot`:
/// `self.state.lock()` → `["state", "self"]` (bracketed index args are
/// skipped, their contents excluded).
fn receiver_chain(toks: &[Token], dot: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        j -= 1;
        match toks[j].text.as_str() {
            "]" => {
                let mut depth = 1;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
            }
            ")" => {
                let mut depth = 1;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        ")" => depth += 1,
                        "(" => depth -= 1,
                        _ => {}
                    }
                }
            }
            _ if toks[j].is_ident => idents.push(toks[j].text.clone()),
            _ => break,
        }
        if j == 0 || toks[j - 1].text != "." {
            break;
        }
        j -= 1; // consume the `.` and continue down the chain
    }
    idents
}

/// All idents inside the balanced parens opening at `open`.
fn idents_in_parens(toks: &[Token], open: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    for t in &toks[open..] {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ if t.is_ident => idents.push(t.text.clone()),
            _ => {}
        }
    }
    idents
}

/// Statement token range around `i`, bounded by `;`/`{`/`}`.
fn stmt_range(toks: &[Token], i: usize, floor: usize) -> (usize, usize) {
    let boundary = |text: &str| matches!(text, ";" | "{" | "}");
    let mut start = i;
    while start > floor + 1 && !boundary(&toks[start - 1].text) {
        start -= 1;
    }
    let mut end = i;
    while end + 1 < toks.len() && !boundary(&toks[end + 1].text) {
        end += 1;
    }
    (start, end)
}

/// Resolve the lock family of the acquisition at token `i`.
///
/// Order: inline `aimq-lock: use(..)` directive on the line, receiver
/// idents against annotated fields, statement idents against annotated
/// fields, then the receiver's `let`/`for` binding statement. Multiple
/// matches resolve only when they agree on one family.
fn resolve_family(
    file: &ScannedFile,
    toks: &[Token],
    i: usize,
    receiver_idents: &[String],
    lock_fields: &[LockField],
    fn_start: usize,
) -> Option<String> {
    if let Some(name) = use_family_for(file, toks[i].line) {
        return Some(name);
    }
    let family_of = |idents: &[String]| -> Option<String> {
        let mut found: Option<String> = None;
        for f in lock_fields {
            if !idents.iter().any(|r| r == &f.name) {
                continue;
            }
            let fam = f.family.clone()?;
            match &found {
                Some(existing) if *existing != fam => return None,
                _ => found = Some(fam),
            }
        }
        found
    };
    if let Some(fam) = family_of(receiver_idents) {
        return Some(fam);
    }
    let (s, e) = stmt_range(toks, i, fn_start);
    let stmt_idents: Vec<String> = toks[s..=e]
        .iter()
        .filter(|t| t.is_ident)
        .map(|t| t.text.clone())
        .collect();
    if let Some(fam) = family_of(&stmt_idents) {
        return Some(fam);
    }
    // Binding scan: `let recv = ...` / `for recv in ...` earlier in the
    // function, using that statement's idents.
    for recv in receiver_idents {
        let mut j = i;
        while j > fn_start {
            j -= 1;
            if toks[j].text != *recv || !toks[j].is_ident {
                continue;
            }
            let bound = j >= 1
                && (toks[j - 1].text == "let"
                    || toks[j - 1].text == "for"
                    || (toks[j - 1].text == "mut" && j >= 2 && toks[j - 2].text == "let"));
            if !bound {
                continue;
            }
            let (bs, be) = stmt_range(toks, j, fn_start);
            let idents: Vec<String> = toks[bs..=be]
                .iter()
                .filter(|t| t.is_ident)
                .map(|t| t.text.clone())
                .collect();
            if let Some(fam) = family_of(&idents) {
                return Some(fam);
            }
            break;
        }
    }
    None
}

/// Is the acquisition at token `i` bound by a `let`? Returns the
/// binding name (guard lives to end of block) or marks a temporary
/// (guard dies at the statement's `;`).
fn binding_of(toks: &[Token], i: usize, fn_start: usize) -> (Option<String>, bool) {
    let (s, _) = stmt_range(toks, i, fn_start);
    if toks[s].text == "let" {
        let mut k = s + 1;
        if toks.get(k).is_some_and(|t| t.text == "mut") {
            k += 1;
        }
        if let Some(name) = toks.get(k).filter(|t| t.is_ident) {
            return (Some(name.text.clone()), false);
        }
    }
    (None, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    #[test]
    fn lock_fields_are_found_through_wrappers() {
        let src = "\
struct Cache {\n\
    // aimq-lock: family(cache-stripe) -- guards one stripe\n\
    stripes: Arc<Vec<Mutex<CacheState>>>,\n\
}\n\
use std::sync::{Condvar, Mutex};\n\
fn helper(mutex: &Mutex<u32>) {}\n\
fn make() { let m = Mutex::new(0); }\n";
        let a = analyze(&scan(src));
        assert_eq!(a.lock_fields.len(), 1, "{:#?}", a.lock_fields);
        assert_eq!(a.lock_fields[0].name, "stripes");
        assert_eq!(a.lock_fields[0].family.as_deref(), Some("cache-stripe"));
    }

    #[test]
    fn guard_dies_at_block_end_before_blocking_call() {
        let src = "\
struct S {\n\
    // aimq-lock: family(meta) -- guards the metadata\n\
    state: Mutex<u32>,\n\
}\n\
impl S {\n\
    fn ok(&self) {\n\
        { let s = lock(&self.state); }\n\
        self.inner.try_query(q);\n\
    }\n\
    fn bad(&self) {\n\
        let s = lock(&self.state);\n\
        self.inner.try_query(q);\n\
    }\n\
}\n";
        let a = analyze(&scan(src));
        let ok = a.functions.iter().find(|f| f.name == "ok").unwrap();
        assert!(ok.blocking.is_empty(), "{:#?}", ok.blocking);
        let bad = a.functions.iter().find(|f| f.name == "bad").unwrap();
        assert_eq!(bad.blocking.len(), 1);
        assert_eq!(bad.blocking[0].family, "meta");
        assert_eq!(bad.blocking[0].callee, "try_query");
    }

    #[test]
    fn drop_and_condvar_wait_release_the_guard() {
        let src = "\
struct Q {\n\
    // aimq-lock: family(queue) -- guards items\n\
    state: Mutex<u32>,\n\
}\n\
impl Q {\n\
    fn pop(&self) {\n\
        let mut state = lock(&self.state);\n\
        state = self.cv.wait(state);\n\
        drop(state);\n\
        self.inner.try_query(q);\n\
    }\n\
}\n";
        let a = analyze(&scan(src));
        let f = &a.functions[0];
        assert!(f.blocking.is_empty(), "{:#?}", f.blocking);
    }

    #[test]
    fn nested_acquisition_records_held_families() {
        let src = "\
struct S {\n\
    // aimq-lock: family(a) -- first\n\
    left: Mutex<u32>,\n\
    // aimq-lock: family(b) -- second\n\
    right: Mutex<u32>,\n\
}\n\
impl S {\n\
    fn both(&self) {\n\
        let l = lock(&self.left);\n\
        let r = lock(&self.right);\n\
    }\n\
}\n";
        let a = analyze(&scan(src));
        let f = &a.functions[0];
        assert_eq!(f.acquisitions.len(), 2);
        assert!(f.acquisitions[0].held.is_empty());
        assert_eq!(f.acquisitions[1].held, vec!["a".to_string()]);
        assert_eq!(f.acquisitions[1].family.as_deref(), Some("b"));
    }

    #[test]
    fn use_directive_resolves_indirect_receivers() {
        let src = "\
struct S {\n\
    // aimq-lock: family(stripe) -- shard lock\n\
    stripes: Vec<Mutex<u32>>,\n\
}\n\
impl S {\n\
    fn via_local(&self) {\n\
        let stripe = self.pick();\n\
        let s = lock_stats(stripe); // aimq-lock: use(stripe)\n\
    }\n\
    fn via_loop(&self) {\n\
        for stripe in self.stripes.iter() {\n\
            let s = lock_stats(stripe);\n\
        }\n\
    }\n\
}\n";
        let a = analyze(&scan(src));
        let direct = &a.functions[0].acquisitions[0];
        assert_eq!(direct.family.as_deref(), Some("stripe"));
        let looped = &a.functions[1].acquisitions[0];
        assert_eq!(looped.family.as_deref(), Some("stripe"), "{looped:#?}");
    }
}
