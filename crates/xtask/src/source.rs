//! Lexical analysis for the lint pass.
//!
//! The container has no crates.io access, so `syn` is unavailable;
//! instead the linter runs on a hand-rolled scan that is precise
//! enough for the rule set: a byte-class mask separating code from
//! comments and string/char literals, a flat token stream over the
//! code bytes, `#[cfg(test)]`/`#[test]` region detection by brace
//! matching, and `aimq-lint: allow(...)` suppression parsing.

/// Classification of every source byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ByteClass {
    /// Compiled code (incl. whitespace between tokens).
    Code,
    /// Any comment form.
    Comment,
    /// Interior of a string, raw string, byte string or char literal.
    Literal,
}

/// One lexical token drawn from the code bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text (identifier/number) or a single punctuation char.
    pub text: String,
    /// Byte offset in the file.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (bytes).
    pub col: usize,
    /// `true` for identifier-shaped tokens.
    pub is_ident: bool,
}

/// A scanned source file ready for rule matching.
#[derive(Debug)]
pub struct ScannedFile {
    /// Raw source text.
    pub text: String,
    /// Code tokens in order.
    pub tokens: Vec<Token>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Parsed suppression directives.
    pub allows: Vec<AllowDirective>,
    /// Parsed `aimq-lock:` family/use annotations.
    pub lock_directives: Vec<LockDirective>,
    /// Parsed `aimq-probe: entry` annotations (L8 probe effects).
    pub probe_directives: Vec<ProbeDirective>,
    /// Parsed `aimq-arith:` annotations (L10 counter arithmetic).
    pub arith_directives: Vec<ArithDirective>,
    /// Malformed directives (missing justification, bad syntax).
    pub bad_directives: Vec<(usize, String)>,
}

/// A parsed `// aimq-lint: allow(rule, ...) -- justification` comment.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Line the directive text sits on (1-based).
    pub line: usize,
    /// The line of code the suppression applies to (1-based).
    pub target_line: usize,
    /// Rule identifiers inside `allow(...)`.
    pub rules: Vec<String>,
    /// Justification text after `--`.
    pub justification: String,
}

/// What an `aimq-lock:` annotation asserts (L5 lock discipline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockAnnotation {
    /// `family(<name>)` on a `Mutex` field declaration: every guard of
    /// that field belongs to the named workspace-global lock family.
    Family(String),
    /// `use(<name>)` on an acquisition site whose receiver the scanner
    /// cannot trace back to an annotated field (e.g. a local borrowed
    /// out of a helper): asserts the acquired family explicitly.
    Use(String),
}

/// A parsed `// aimq-lock: family(..) -- why` / `// aimq-lock: use(..)`.
#[derive(Debug, Clone)]
pub struct LockDirective {
    /// Line the directive text sits on (1-based).
    pub line: usize,
    /// The line of code the annotation applies to (1-based).
    pub target_line: usize,
    /// Family declaration or acquisition-site assertion.
    pub annotation: LockAnnotation,
    /// Justification text after `--` (required for `family`).
    pub justification: String,
}

/// A parsed `// aimq-probe: entry -- justification` annotation (L8).
///
/// Marks a function that directly calls the `WebDatabase::try_query`
/// boundary as a *sanctioned* probing entry point; the justification
/// must say where its budget/degradation accounting lives. The lint
/// errors on entry points without this annotation and on stale
/// annotations whose function no longer probes.
#[derive(Debug, Clone)]
pub struct ProbeDirective {
    /// Line the directive text sits on (1-based).
    pub line: usize,
    /// The line of code (the `fn` line) the annotation applies to.
    pub target_line: usize,
    /// Justification text after `--`.
    pub justification: String,
}

/// What an `aimq-arith:` annotation asserts (L10 counter arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithAnnotation {
    /// `counter` on a plain-integer field declaration: the field is a
    /// budget/counter/statistic whose arithmetic must not wrap, so
    /// every `+`/`-`/`*` touching it needs `saturating_*`/`checked_*`
    /// (atomic counters are `aimq_catalog::Counter`, which saturates
    /// on its own).
    Counter,
    /// `allow` on an arithmetic site: the stated invariant bounds the
    /// operands, so plain arithmetic cannot wrap there.
    Allow,
}

/// A parsed `// aimq-arith: counter|allow -- justification`.
#[derive(Debug, Clone)]
pub struct ArithDirective {
    /// Line the directive text sits on (1-based).
    pub line: usize,
    /// The line of code the annotation applies to (1-based).
    pub target_line: usize,
    /// Tracked-field marker or per-site escape.
    pub annotation: ArithAnnotation,
    /// Justification text after `--`.
    pub justification: String,
}

const DIRECTIVE: &str = "aimq-lint:";
const LOCK_DIRECTIVE: &str = "aimq-lock:";
const PROBE_DIRECTIVE: &str = "aimq-probe:";
const ARITH_DIRECTIVE: &str = "aimq-arith:";

/// Scan `text` into classes, tokens, test regions and suppressions.
pub fn scan(text: &str) -> ScannedFile {
    let classes = classify(text);
    let tokens = tokenize(text, &classes);
    let test_regions = find_test_regions(&tokens);
    let directives = collect_directives(text, &classes);
    ScannedFile {
        text: text.to_string(),
        tokens,
        test_regions,
        allows: directives.allows,
        lock_directives: directives.locks,
        probe_directives: directives.probes,
        arith_directives: directives.ariths,
        bad_directives: directives.bad,
    }
}

impl ScannedFile {
    /// Is byte offset `pos` inside a test-only item?
    pub fn in_test_region(&self, pos: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| pos >= start && pos < end)
    }

    /// Does a well-formed allow directive cover `rule` on `line`?
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.target_line == line && a.rules.iter().any(|r| r == rule))
    }
}

fn classify(text: &str) -> Vec<ByteClass> {
    let bytes = text.as_bytes();
    let mut classes = vec![ByteClass::Code; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    classes[i] = ByteClass::Comment;
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        classes[i] = ByteClass::Comment;
                        classes[i + 1] = ByteClass::Comment;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        classes[i] = ByteClass::Comment;
                        classes[i + 1] = ByteClass::Comment;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        classes[i] = ByteClass::Comment;
                        i += 1;
                    }
                }
            }
            b'"' => i = eat_string(bytes, &mut classes, i),
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                i = eat_raw_or_byte_string(bytes, &mut classes, i);
            }
            b'\'' => i = eat_char_or_lifetime(bytes, &mut classes, i),
            _ => i += 1,
        }
    }
    classes
}

fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    // r"..", r#".."#, b"..", br"..", br#".."#
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    j > i && bytes.get(j) == Some(&b'"')
}

fn eat_string(bytes: &[u8], classes: &mut [ByteClass], start: usize) -> usize {
    classes[start] = ByteClass::Literal;
    let mut i = start + 1;
    while i < bytes.len() {
        classes[i] = ByteClass::Literal;
        match bytes[i] {
            b'\\' => {
                if i + 1 < bytes.len() {
                    classes[i + 1] = ByteClass::Literal;
                }
                i += 2;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn eat_raw_or_byte_string(bytes: &[u8], classes: &mut [ByteClass], start: usize) -> usize {
    let mut i = start;
    if bytes[i] == b'b' {
        classes[i] = ByteClass::Literal;
        i += 1;
    }
    let raw = bytes.get(i) == Some(&b'r');
    if raw {
        classes[i] = ByteClass::Literal;
        i += 1;
    }
    let mut hashes = 0;
    while bytes.get(i) == Some(&b'#') {
        classes[i] = ByteClass::Literal;
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    classes[i] = ByteClass::Literal;
    i += 1;
    while i < bytes.len() {
        classes[i] = ByteClass::Literal;
        if !raw && bytes[i] == b'\\' {
            if i + 1 < bytes.len() {
                classes[i + 1] = ByteClass::Literal;
            }
            i += 2;
            continue;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                for c in classes.iter_mut().take(j).skip(i) {
                    *c = ByteClass::Literal;
                }
                return j;
            }
        }
        i += 1;
    }
    i
}

fn eat_char_or_lifetime(bytes: &[u8], classes: &mut [ByteClass], start: usize) -> usize {
    // `'a` (lifetime) vs `'x'` / `'\n'` (char literal). A lifetime is a
    // quote followed by an identifier NOT closed by another quote.
    let next = bytes.get(start + 1).copied();
    match next {
        Some(b'\\') => {
            // Escaped char literal: consume through the closing quote.
            let mut i = start;
            classes[i] = ByteClass::Literal;
            i += 1;
            while i < bytes.len() {
                classes[i] = ByteClass::Literal;
                if bytes[i] == b'\\' {
                    if i + 1 < bytes.len() {
                        classes[i + 1] = ByteClass::Literal;
                    }
                    i += 2;
                    continue;
                }
                if bytes[i] == b'\'' {
                    return i + 1;
                }
                i += 1;
            }
            i
        }
        Some(_) if bytes.get(start + 2) == Some(&b'\'') => {
            // 'x'
            classes[start] = ByteClass::Literal;
            classes[start + 1] = ByteClass::Literal;
            classes[start + 2] = ByteClass::Literal;
            start + 3
        }
        _ => start + 1, // lifetime or stray quote: leave as code
    }
}

fn tokenize(text: &str, classes: &[ByteClass]) -> Vec<Token> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let (mut line, mut col) = (1usize, 1usize);
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if classes[i] != ByteClass::Code || b.is_ascii_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        if b.is_ascii_alphabetic() || b == b'_' || b.is_ascii_digit() {
            let start = i;
            let (start_line, start_col) = (line, col);
            while i < bytes.len()
                && classes[i] == ByteClass::Code
                && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
                col += 1;
            }
            tokens.push(Token {
                text: text[start..i].to_string(),
                offset: start,
                line: start_line,
                col: start_col,
                is_ident: !bytes[start].is_ascii_digit(),
            });
        } else {
            tokens.push(Token {
                text: (b as char).to_string(),
                offset: i,
                line,
                col,
                is_ident: false,
            });
            i += 1;
            col += 1;
        }
    }
    tokens
}

/// Locate `#[cfg(test)]` / `#[test]` attributes and return the byte
/// span of the item each one decorates (through its closing brace).
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut k = 0;
    while k < tokens.len() {
        let matched = match_attr(tokens, k, &["cfg", "(", "test", ")"])
            .or_else(|| match_attr(tokens, k, &["test"]));
        let Some(after_attr) = matched else {
            k += 1;
            continue;
        };
        // Scan forward past further attributes to the item body.
        let mut j = after_attr;
        let mut depth = 0usize;
        let mut end = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = Some(tokens[j].offset + 1);
                        break;
                    }
                }
                ";" if depth == 0 => {
                    // `mod foo;` or an associated const — no inline body.
                    end = Some(tokens[j].offset + 1);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let start = tokens[k].offset;
        regions.push((start, end.unwrap_or(usize::MAX)));
        k = after_attr;
    }
    regions
}

/// If `tokens[k..]` starts `#` `[` `<inner...>` `]`, return the index
/// just past `]`.
fn match_attr(tokens: &[Token], k: usize, inner: &[&str]) -> Option<usize> {
    if tokens.get(k)?.text != "#" || tokens.get(k + 1)?.text != "[" {
        return None;
    }
    for (n, want) in inner.iter().enumerate() {
        if tokens.get(k + 2 + n)?.text != *want {
            return None;
        }
    }
    let close = k + 2 + inner.len();
    (tokens.get(close)?.text == "]").then_some(close + 1)
}

/// Everything `collect_directives` extracts from the comment channel.
struct Directives {
    allows: Vec<AllowDirective>,
    locks: Vec<LockDirective>,
    probes: Vec<ProbeDirective>,
    ariths: Vec<ArithDirective>,
    bad: Vec<(usize, String)>,
}

fn collect_directives(text: &str, classes: &[ByteClass]) -> Directives {
    let mut out = Directives {
        allows: Vec::new(),
        locks: Vec::new(),
        probes: Vec::new(),
        ariths: Vec::new(),
        bad: Vec::new(),
    };
    let mut offset = 0usize;
    let lines: Vec<&str> = text.split_inclusive('\n').collect();

    // Per-line: does the line hold any code bytes, and the comment text.
    let mut line_info = Vec::with_capacity(lines.len());
    for raw in &lines {
        let start = offset;
        offset += raw.len();
        let mut has_code = false;
        let mut comment = String::new();
        for (n, b) in raw.bytes().enumerate() {
            match classes[start + n] {
                ByteClass::Comment => comment.push(b as char),
                ByteClass::Code if !b.is_ascii_whitespace() => has_code = true,
                _ => {}
            }
        }
        line_info.push((has_code, comment));
    }

    // A trailing directive guards its own line; a standalone comment
    // line guards the next line bearing code.
    let target_of = |idx: usize| -> usize {
        let line = idx + 1;
        if line_info[idx].0 {
            line
        } else {
            line_info
                .iter()
                .enumerate()
                .skip(idx + 1)
                .find(|(_, (code, _))| *code)
                .map(|(n, _)| n + 1)
                .unwrap_or(line)
        }
    };

    for (idx, (_, comment)) in line_info.iter().enumerate() {
        let line = idx + 1;
        if let Some(pos) = comment.find(DIRECTIVE) {
            let body = comment[pos + DIRECTIVE.len()..].trim();
            match parse_allow(body) {
                Ok((rules, justification)) => out.allows.push(AllowDirective {
                    line,
                    target_line: target_of(idx),
                    rules,
                    justification,
                }),
                Err(msg) => out.bad.push((line, msg)),
            }
        } else if let Some(pos) = comment.find(LOCK_DIRECTIVE) {
            let body = comment[pos + LOCK_DIRECTIVE.len()..].trim();
            match parse_lock(body) {
                Ok((annotation, justification)) => out.locks.push(LockDirective {
                    line,
                    target_line: target_of(idx),
                    annotation,
                    justification,
                }),
                Err(msg) => out.bad.push((line, msg)),
            }
        } else if let Some(pos) = comment.find(PROBE_DIRECTIVE) {
            let body = comment[pos + PROBE_DIRECTIVE.len()..].trim();
            match parse_probe(body) {
                Ok(justification) => out.probes.push(ProbeDirective {
                    line,
                    target_line: target_of(idx),
                    justification,
                }),
                Err(msg) => out.bad.push((line, msg)),
            }
        } else if let Some(pos) = comment.find(ARITH_DIRECTIVE) {
            let body = comment[pos + ARITH_DIRECTIVE.len()..].trim();
            match parse_arith(body) {
                Ok((annotation, justification)) => out.ariths.push(ArithDirective {
                    line,
                    target_line: target_of(idx),
                    annotation,
                    justification,
                }),
                Err(msg) => out.bad.push((line, msg)),
            }
        }
    }
    out
}

/// Parse `allow(rule, ...) -- justification`.
fn parse_allow(body: &str) -> Result<(Vec<String>, String), String> {
    let rest = body
        .strip_prefix("allow")
        .ok_or_else(|| format!("expected `allow(...)` after `{DIRECTIVE}`"))?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `allow(` directive".to_string())?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("`allow()` names no rules".to_string());
    }
    let tail = rest[close + 1..].trim();
    let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err(
            "suppression requires a justification: `aimq-lint: allow(rule) -- <why this is safe>`"
                .to_string(),
        );
    }
    Ok((rules, justification.to_string()))
}

/// Validate a family name: lowercase kebab-case identifiers only, so
/// families read as workspace-global class names (`cache-stripe`).
fn valid_family_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
}

/// Parse `family(<name>) -- why` or `use(<name>) [-- why]`.
fn parse_lock(body: &str) -> Result<(LockAnnotation, String), String> {
    let (kind, rest) = if let Some(rest) = body.strip_prefix("family") {
        ("family", rest.trim_start())
    } else if let Some(rest) = body.strip_prefix("use") {
        ("use", rest.trim_start())
    } else {
        return Err(format!(
            "expected `family(<name>)` or `use(<name>)` after `{LOCK_DIRECTIVE}`"
        ));
    };
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| format!("expected `(` after `{kind}`"))?;
    let close = rest
        .find(')')
        .ok_or_else(|| format!("unclosed `{kind}(` directive"))?;
    let name = rest[..close].trim().to_string();
    if !valid_family_name(&name) {
        return Err(format!(
            "lock family name `{name}` must be non-empty lowercase kebab-case"
        ));
    }
    let tail = rest[close + 1..].trim();
    let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if kind == "family" && justification.is_empty() {
        return Err(format!(
            "lock family declaration requires a justification: \
             `{LOCK_DIRECTIVE} family({name}) -- <what this lock guards>`"
        ));
    }
    let annotation = match kind {
        "family" => LockAnnotation::Family(name),
        _ => LockAnnotation::Use(name),
    };
    Ok((annotation, justification.to_string()))
}

/// Parse `entry -- justification`.
fn parse_probe(body: &str) -> Result<String, String> {
    let tail = body
        .strip_prefix("entry")
        .ok_or_else(|| format!("expected `entry` after `{PROBE_DIRECTIVE}`"))?
        .trim();
    let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err(format!(
            "probing entry point requires a justification: \
             `{PROBE_DIRECTIVE} entry -- <where budget/degradation accounting lives>`"
        ));
    }
    Ok(justification.to_string())
}

/// Parse `counter -- why` or `allow -- invariant`.
fn parse_arith(body: &str) -> Result<(ArithAnnotation, String), String> {
    let (word, tail) = match body.find(|c: char| c.is_ascii_whitespace()) {
        Some(n) => (&body[..n], body[n..].trim()),
        None => (body, ""),
    };
    let annotation = match word {
        "counter" => ArithAnnotation::Counter,
        "allow" => ArithAnnotation::Allow,
        _ => {
            return Err(format!(
                "unknown arith annotation `{word}`: expected `counter` or `allow`"
            ))
        }
    };
    let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err(match annotation {
            ArithAnnotation::Counter => format!(
                "tracked-counter annotation requires a justification: \
                 `{ARITH_DIRECTIVE} counter -- <what this field counts>`"
            ),
            ArithAnnotation::Allow => format!(
                "arith escape requires the bounding invariant: \
                 `{ARITH_DIRECTIVE} allow -- <why these operands cannot wrap>`"
            ),
        });
    }
    Ok((annotation, justification.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_masked() {
        let src = "let x = \"unwrap()\"; // .unwrap() here\nlet y = 1;";
        let f = scan(src);
        assert!(!f.tokens.iter().any(|t| t.text == "unwrap"));
    }

    #[test]
    fn raw_strings_and_chars_are_masked() {
        let src = "let p = r#\"panic!\"#; let c = '\\''; let l: &'static str = \"x\";";
        let f = scan(src);
        assert!(!f.tokens.iter().any(|t| t.text == "panic"));
        assert!(f.tokens.iter().any(|t| t.text == "static"));
    }

    #[test]
    fn cfg_test_region_spans_the_module() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let f = scan(src);
        let unwrap_tok = f.tokens.iter().find(|t| t.text == "unwrap").expect("tok");
        assert!(f.in_test_region(unwrap_tok.offset));
        let tail_tok = f.tokens.iter().find(|t| t.text == "tail").expect("tok");
        assert!(!f.in_test_region(tail_tok.offset));
    }

    #[test]
    fn allow_directive_parses_with_justification() {
        let src = "// aimq-lint: allow(indexing, float-ordering) -- index bounded by arity, scores finite\nlet o = xs[0].partial_cmp(&y);";
        let f = scan(src);
        assert!(f.bad_directives.is_empty());
        assert!(f.is_allowed("float-ordering", 2));
        assert!(f.is_allowed("indexing", 2));
        assert!(!f.is_allowed("lock-discipline", 2));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let v = xs[0]; // aimq-lint: allow(indexing) -- len checked above";
        let f = scan(src);
        assert!(f.is_allowed("indexing", 1));
    }

    #[test]
    fn unjustified_allow_is_rejected() {
        let src = "// aimq-lint: allow(indexing)\nlet v = xs[0];";
        let f = scan(src);
        assert_eq!(f.bad_directives.len(), 1);
        assert!(f.allows.is_empty());
    }

    #[test]
    fn lock_family_directive_parses() {
        let src = "// aimq-lock: family(cache-stripe) -- guards one stripe's pages\nstate: Mutex<CacheState>,";
        let f = scan(src);
        assert!(f.bad_directives.is_empty(), "{:?}", f.bad_directives);
        assert_eq!(f.lock_directives.len(), 1);
        let d = &f.lock_directives[0];
        assert_eq!(d.annotation, LockAnnotation::Family("cache-stripe".into()));
        assert_eq!(d.target_line, 2);
    }

    #[test]
    fn lock_use_directive_allows_bare_form() {
        let src = "let mut s = lock_stats(stripe); // aimq-lock: use(cache-stripe)";
        let f = scan(src);
        assert!(f.bad_directives.is_empty(), "{:?}", f.bad_directives);
        assert_eq!(
            f.lock_directives[0].annotation,
            LockAnnotation::Use("cache-stripe".into())
        );
        assert_eq!(f.lock_directives[0].target_line, 1);
    }

    #[test]
    fn lock_family_requires_justification_and_kebab_name() {
        let unjustified = scan("// aimq-lock: family(queue)\nstate: Mutex<u32>,");
        assert_eq!(unjustified.bad_directives.len(), 1);
        let bad_name = scan("// aimq-lock: family(Queue State) -- x\nstate: Mutex<u32>,");
        assert_eq!(bad_name.bad_directives.len(), 1);
    }

    #[test]
    fn probe_entry_directive_parses_and_targets_the_fn_line() {
        let src =
            "// aimq-probe: entry -- budget accounted in ResilienceReport\nfn probe(&self) {}";
        let f = scan(src);
        assert!(f.bad_directives.is_empty(), "{:?}", f.bad_directives);
        assert_eq!(f.probe_directives.len(), 1);
        assert_eq!(f.probe_directives[0].target_line, 2);
    }

    #[test]
    fn probe_entry_requires_keyword_and_justification() {
        let bare = scan("// aimq-probe: entry\nfn probe(&self) {}");
        assert_eq!(bare.bad_directives.len(), 1);
        let wrong = scan("// aimq-probe: exit -- nope\nfn probe(&self) {}");
        assert_eq!(wrong.bad_directives.len(), 1);
    }

    #[test]
    fn arith_directives_parse_both_kinds() {
        let src = "// aimq-arith: counter -- probe budget\nattempts: u64,\n\
                   fn f(&self) { let x = self.attempts + 1; } // aimq-arith: allow -- bounded by budget";
        let f = scan(src);
        assert!(f.bad_directives.is_empty(), "{:?}", f.bad_directives);
        assert_eq!(f.arith_directives.len(), 2);
        assert_eq!(f.arith_directives[0].annotation, ArithAnnotation::Counter);
        assert_eq!(f.arith_directives[0].target_line, 2);
        assert_eq!(f.arith_directives[1].annotation, ArithAnnotation::Allow);
        assert_eq!(f.arith_directives[1].target_line, 3);
    }

    #[test]
    fn arith_directive_rejects_unknown_kind_and_missing_invariant() {
        let unknown = scan("// aimq-arith: gauge -- hmm\nx: u64,");
        assert_eq!(unknown.bad_directives.len(), 1);
        let bare = scan("x += 1; // aimq-arith: allow");
        assert_eq!(bare.bad_directives.len(), 1);
    }
}
