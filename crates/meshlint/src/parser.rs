//! Item-level parsing on top of the masked lexer: a brace-tree walk
//! that extracts `fn` definitions (with their enclosing `impl`/`trait`/
//! `mod` qualifier and body span), every call site inside them, and the
//! closure regions handed to the parallel fork-join entry points.
//!
//! The input is the *masked* source (comments and literals blanked by
//! the lexer in `lib.rs`), so text inside strings and comments can
//! never fabricate items or calls. `macro_rules!` definitions are
//! skipped wholesale: their bodies are token soup that expands
//! elsewhere, not calls made by this file. Macro *invocations*
//! (`format!(..)`) are not calls either, but the expressions inside
//! their delimiters are scanned normally. `#[cfg(test)]` filtering
//! happens later, at the line level, against the spans reported here.

/// Byte range (`start..end`) in the masked text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Inclusive start offset.
    pub start: usize,
    /// Exclusive end offset.
    pub end: usize,
}

impl Span {
    /// Whether `pos` falls inside the span.
    #[must_use]
    pub fn contains(self, pos: usize) -> bool {
        self.start <= pos && pos < self.end
    }
}

/// Byte-offset → line/column translation for one file.
#[derive(Clone, Debug)]
pub struct Lines {
    /// Byte offset of each line start (line 1 starts at offset 0).
    starts: Vec<usize>,
}

impl Lines {
    /// Indexes the line starts of `text`.
    #[must_use]
    pub fn new(text: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        Lines { starts }
    }

    /// 1-based line containing byte `pos`.
    #[must_use]
    pub fn line_of(&self, pos: usize) -> usize {
        self.starts.partition_point(|&s| s <= pos)
    }

    /// 1-based byte column of `pos` within its line.
    #[must_use]
    pub fn col_of(&self, pos: usize) -> usize {
        let line = self.line_of(pos);
        pos - self.starts.get(line - 1).copied().unwrap_or(0) + 1
    }

    /// `(first, last)` 1-based lines covered by `span`.
    #[must_use]
    pub fn line_range(&self, span: Span) -> (usize, usize) {
        (
            self.line_of(span.start),
            self.line_of(span.end.saturating_sub(1).max(span.start)),
        )
    }
}

/// One function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The bare function name.
    pub name: String,
    /// The enclosing `impl`/`trait` type name, or `""` for free fns.
    pub qual: String,
    /// Innermost enclosing `mod` name, or `""` at file scope.
    pub module: String,
    /// Span from the `fn` keyword to the body's `{` (exclusive).
    pub sig: Span,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// Body block including both braces; `None` for bodyless
    /// declarations (trait methods without defaults).
    pub body: Option<Span>,
    /// Call sites lexically inside this fn. Nested fns collect their
    /// own calls (the innermost enclosing fn wins).
    pub calls: Vec<CallSite>,
}

/// One call site: `name(..)`, `path::name(..)` or `recv.name(..)`.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The called name.
    pub name: String,
    /// The path segment right before `::name(`, with `Self` already
    /// resolved to the enclosing impl/trait type. `None` for bare and
    /// method calls.
    pub qual: Option<String>,
    /// Whether this is a method call (`recv.name(..)`).
    pub method: bool,
    /// Identifiers along the receiver chain, left to right
    /// (`sh.queues[b].x(..)` → `["sh", "queues"]`). Empty for
    /// non-method calls.
    pub recv: Vec<String>,
    /// Byte position of the name in the masked text.
    pub pos: usize,
    /// Byte position of the call's opening parenthesis.
    pub open: usize,
    /// 1-based line of the name.
    pub line: usize,
    /// 1-based byte column of the name.
    pub col: usize,
}

/// A worker-evaluated region: the closure (or function path) handed to
/// a parallel fork-join entry point. Code inside it runs off the
/// coordinator thread.
#[derive(Clone, Debug)]
pub struct ParRegion {
    /// Which entry point the region was handed to.
    pub entry: String,
    /// 1-based line of the entry call (the report anchor).
    pub line: usize,
    /// Span of the worker-executed code: the closure body, or the whole
    /// final argument when a function path is passed instead.
    pub body: Span,
}

/// Parse result for one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnDef>,
    /// Worker-evaluated regions, in source order.
    pub regions: Vec<ParRegion>,
}

/// Words that can never be a call-site name.
const KEYWORDS: [&str; 37] = [
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Index just past the last non-whitespace byte before `i` (exclusive).
fn skip_ws_back(bytes: &[u8], mut i: usize) -> usize {
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    i
}

fn ident_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && is_ident_byte(bytes[i]) {
        i += 1;
    }
    i
}

fn ident_start(bytes: &[u8], mut i: usize) -> usize {
    while i > 0 && is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    i
}

/// What a pending item header will attach to at its opening `{`.
enum Pending {
    Impl(String),
    Trait(String),
    Mod(String),
    Fn(usize),
}

/// What an open brace belongs to.
enum Ctx {
    Impl(String),
    Trait(String),
    Mod(String),
    Fn(usize),
    Block,
}

/// Parses one masked file. `par_entries` names the fork-join entry
/// points whose final argument is a worker-evaluated region.
#[must_use]
pub fn parse(masked: &str, par_entries: &[String]) -> ParsedFile {
    let bytes = masked.as_bytes();
    let lines = Lines::new(masked);
    let mut out = ParsedFile::default();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut i = 0usize;

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'{' {
            let ctx = match pending.take() {
                Some(Pending::Impl(n)) => Ctx::Impl(n),
                Some(Pending::Trait(n)) => Ctx::Trait(n),
                Some(Pending::Mod(n)) => Ctx::Mod(n),
                Some(Pending::Fn(fi)) => {
                    if let Some(f) = out.fns.get_mut(fi) {
                        f.body = Some(Span { start: i, end: i });
                    }
                    Ctx::Fn(fi)
                }
                None => Ctx::Block,
            };
            stack.push(ctx);
            i += 1;
        } else if b == b'}' {
            if let Some(Ctx::Fn(fi)) = stack.last() {
                let fi = *fi;
                if let Some(body) = out.fns.get_mut(fi).and_then(|f| f.body.as_mut()) {
                    body.end = i + 1;
                }
            }
            stack.pop();
            i += 1;
        } else if b == b';' {
            // A `;` terminates whatever item header was pending
            // (bodyless trait fn, `mod name;`, `impl T for U;`).
            pending = None;
            i += 1;
        } else if is_ident_start(b) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
            let e = ident_end(bytes, i);
            let word = &masked[i..e];
            match word {
                "impl" => {
                    let (name, ni) = scan_impl_header(masked, e);
                    pending = Some(Pending::Impl(name));
                    i = ni;
                }
                "trait" => {
                    let (name, ni) = scan_named_header(masked, e);
                    pending = Some(Pending::Trait(name));
                    i = ni;
                }
                "mod" => {
                    let (name, ni) = scan_named_header(masked, e);
                    pending = Some(Pending::Mod(name));
                    i = ni;
                }
                "fn" => {
                    let ns = skip_ws(bytes, e);
                    if bytes.get(ns).copied().is_some_and(is_ident_start) {
                        let ne = ident_end(bytes, ns);
                        let sig_end = scan_fn_sig(masked, ne);
                        out.fns.push(FnDef {
                            name: masked[ns..ne].to_string(),
                            qual: type_qual(&stack),
                            module: mod_qual(&stack),
                            sig: Span {
                                start: i,
                                end: sig_end,
                            },
                            sig_line: lines.line_of(i),
                            body: None,
                            calls: Vec::new(),
                        });
                        pending = Some(Pending::Fn(out.fns.len() - 1));
                        i = sig_end;
                    } else {
                        // `fn(` — a function-pointer type, not an item.
                        i = e;
                    }
                }
                "macro_rules" => {
                    i = skip_macro_rules(masked, e);
                }
                w if KEYWORDS.contains(&w) => {
                    i = e;
                }
                _ => {
                    i = scan_possible_call(masked, &lines, i, e, &stack, par_entries, &mut out);
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The innermost enclosing impl/trait type name.
fn type_qual(stack: &[Ctx]) -> String {
    for ctx in stack.iter().rev() {
        match ctx {
            Ctx::Impl(n) | Ctx::Trait(n) => return n.clone(),
            _ => {}
        }
    }
    String::new()
}

/// The innermost enclosing module name.
fn mod_qual(stack: &[Ctx]) -> String {
    for ctx in stack.iter().rev() {
        if let Ctx::Mod(n) = ctx {
            return n.clone();
        }
    }
    String::new()
}

/// Index of the innermost enclosing fn, if any.
fn enclosing_fn(stack: &[Ctx]) -> Option<usize> {
    stack.iter().rev().find_map(|c| match c {
        Ctx::Fn(fi) => Some(*fi),
        _ => None,
    })
}

/// Scans an `impl` header from just after the keyword, returning the
/// implemented type's last path segment and the position of the body
/// `{` (or the terminating `;`/EOF). `impl Trait for Type` names
/// `Type`; generics, lifetimes and `where` clauses are skipped.
fn scan_impl_header(masked: &str, from: usize) -> (String, usize) {
    let bytes = masked.as_bytes();
    let mut angle = 0usize;
    let mut paren = 0usize;
    let mut capture = true;
    let mut name = String::new();
    let mut j = from;
    while j < bytes.len() {
        let b = bytes[j];
        match b {
            b'{' if angle == 0 && paren == 0 => break,
            b';' if angle == 0 && paren == 0 => break,
            b'-' if bytes.get(j + 1) == Some(&b'>') => j += 2,
            b'<' => {
                angle += 1;
                j += 1;
            }
            b'>' => {
                angle = angle.saturating_sub(1);
                j += 1;
            }
            b'(' => {
                paren += 1;
                j += 1;
            }
            b')' => {
                paren = paren.saturating_sub(1);
                j += 1;
            }
            _ if is_ident_start(b) && !is_ident_byte(bytes[j.saturating_sub(1)]) || j == 0 => {
                let e = ident_end(bytes, j);
                let word = &masked[j..e];
                if angle == 0 && paren == 0 {
                    if word == "for" {
                        name.clear();
                    } else if word == "where" {
                        capture = false;
                    } else if capture && word != "dyn" && word != "mut" {
                        name = word.to_string();
                    }
                }
                j = e;
            }
            _ => j += 1,
        }
    }
    (name, j)
}

/// Scans a `trait`/`mod` header: the name is the first identifier after
/// the keyword; returns it plus the position of the `{`/`;`/EOF.
fn scan_named_header(masked: &str, from: usize) -> (String, usize) {
    let bytes = masked.as_bytes();
    let ns = skip_ws(bytes, from);
    if !bytes.get(ns).copied().is_some_and(is_ident_start) {
        return (String::new(), from);
    }
    let ne = ident_end(bytes, ns);
    let name = masked[ns..ne].to_string();
    let mut angle = 0usize;
    let mut j = ne;
    while j < bytes.len() {
        match bytes[j] {
            b'{' | b';' if angle == 0 => break,
            b'<' => angle += 1,
            b'>' => angle = angle.saturating_sub(1),
            _ => {}
        }
        j += 1;
    }
    (name, j)
}

/// Scans a fn signature from just after the name to the body `{` or the
/// terminating `;`, tracking paren/angle nesting (and skipping `->`).
fn scan_fn_sig(masked: &str, from: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut angle = 0usize;
    let mut paren = 0usize;
    let mut j = from;
    while j < bytes.len() {
        match bytes[j] {
            b'{' | b';' if angle == 0 && paren == 0 => break,
            b'-' if bytes.get(j + 1) == Some(&b'>') => j += 1,
            b'<' => angle += 1,
            b'>' => angle = angle.saturating_sub(1),
            b'(' => paren += 1,
            b')' => paren = paren.saturating_sub(1),
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skips a whole `macro_rules! name { .. }` definition, returning the
/// position just past its closing delimiter.
fn skip_macro_rules(masked: &str, from: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut j = skip_ws(bytes, from);
    if bytes.get(j) == Some(&b'!') {
        j = skip_ws(bytes, j + 1);
    }
    j = ident_end(bytes, j); // the macro's name
    j = skip_ws(bytes, j);
    let open = match bytes.get(j) {
        Some(&b'{') => b'{',
        Some(&b'(') => b'(',
        Some(&b'[') => b'[',
        _ => return j,
    };
    let close = match open {
        b'{' => b'}',
        b'(' => b')',
        _ => b']',
    };
    let mut depth = 0usize;
    while j < bytes.len() {
        if bytes[j] == open {
            depth += 1;
        } else if bytes[j] == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Handles a non-keyword identifier at `[s, e)`: records a call site if
/// it is one, plus the worker region when the call is a par entry
/// point. Returns the position to resume the main scan from.
fn scan_possible_call(
    masked: &str,
    lines: &Lines,
    s: usize,
    e: usize,
    stack: &[Ctx],
    par_entries: &[String],
    out: &mut ParsedFile,
) -> usize {
    let bytes = masked.as_bytes();
    let mut j = skip_ws(bytes, e);
    // `name!` — a macro invocation, not a call. The delimiter group is
    // scanned normally so calls inside macro arguments still register.
    if bytes.get(j) == Some(&b'!') {
        return j + 1;
    }
    // `name::<T>(..)` — skip the turbofish.
    if bytes.get(j) == Some(&b':') && bytes.get(j + 1) == Some(&b':') {
        let k = skip_ws(bytes, j + 2);
        if bytes.get(k) == Some(&b'<') {
            j = skip_ws(bytes, skip_angles(bytes, k));
        } else {
            return e; // plain path continuation; later segments re-scan
        }
    }
    if bytes.get(j) != Some(&b'(') {
        return e;
    }
    let open = j;
    let Some(fi) = enclosing_fn(stack) else {
        return e; // top-level const expression — out of scope
    };

    let name = masked[s..e].to_string();
    let mut qual = None;
    let mut method = false;
    let mut recv = Vec::new();
    if s >= 2 && &bytes[s - 2..s] == b"::" {
        let qe = skip_ws_back(bytes, s - 2);
        if qe > 0 && is_ident_byte(bytes[qe - 1]) {
            let qs = ident_start(bytes, qe);
            let q = &masked[qs..qe];
            qual = Some(if q == "Self" {
                type_qual(stack)
            } else {
                q.to_string()
            });
        }
    } else {
        let p = skip_ws_back(bytes, s);
        if p > 0 && bytes[p - 1] == b'.' {
            method = true;
            recv = receiver_chain(masked, p - 1);
        }
    }

    let call = CallSite {
        name: name.clone(),
        qual,
        method,
        recv,
        pos: s,
        open,
        line: lines.line_of(s),
        col: lines.col_of(s),
    };
    let line = call.line;
    if let Some(f) = out.fns.get_mut(fi) {
        f.calls.push(call);
    }

    if par_entries.iter().any(|p| p == &name) {
        if let Some(last) = call_args(masked, open).last() {
            let body = closure_body(masked, *last).unwrap_or(*last);
            out.regions.push(ParRegion {
                entry: name,
                line,
                body,
            });
        }
    }
    open + 1
}

/// Skips a balanced `<..>` group starting at `bytes[at] == b'<'`.
fn skip_angles(bytes: &[u8], at: usize) -> usize {
    let mut depth = 0usize;
    let mut j = at;
    while j < bytes.len() {
        match bytes[j] {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            b';' | b'{' => return j, // bail: not a type-argument list
            _ => {}
        }
        j += 1;
    }
    j
}

/// Collects the identifiers of a method call's receiver chain, walking
/// back from the final `.` over idents, `::`, and `(..)`/`[..]` groups.
fn receiver_chain(masked: &str, dot: usize) -> Vec<String> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut sep = dot; // index of the separator byte ('.' or the first ':')
    loop {
        let mut p = skip_ws_back(bytes, sep);
        // Trailing index/call groups: `queues[b]`, `f()`.
        loop {
            match bytes.get(p.wrapping_sub(1)) {
                Some(&b')') => p = match_back(bytes, p - 1, b'(', b')'),
                Some(&b']') => p = match_back(bytes, p - 1, b'[', b']'),
                _ => break,
            }
        }
        if p == 0 || !is_ident_byte(bytes[p - 1]) {
            break;
        }
        let s = ident_start(bytes, p);
        out.push(masked[s..p].to_string());
        let q = skip_ws_back(bytes, s);
        if q >= 1 && bytes[q - 1] == b'.' {
            sep = q - 1;
        } else if q >= 2 && &bytes[q - 2..q] == b"::" {
            sep = q - 2;
        } else {
            break;
        }
    }
    out.reverse();
    out
}

/// Given the index of a closing delimiter, returns the index of its
/// matching opener (or 0 when unbalanced).
fn match_back(bytes: &[u8], close_at: usize, open: u8, close: u8) -> usize {
    let mut depth = 0usize;
    let mut j = close_at;
    loop {
        if bytes[j] == close {
            depth += 1;
        } else if bytes[j] == open {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        if j == 0 {
            return 0;
        }
        j -= 1;
    }
}

/// Splits the arguments of a call whose `(` sits at `open` into
/// top-level comma-separated spans (whitespace-trimmed).
#[must_use]
pub fn call_args(masked: &str, open: usize) -> Vec<Span> {
    let bytes = masked.as_bytes();
    let mut args = Vec::new();
    let mut depth_paren = 1usize;
    let mut depth_sq = 0usize;
    let mut depth_brace = 0usize;
    // Inside a closure's `|..|` parameter list commas must not split.
    let mut in_params = false;
    let mut start = open + 1;
    let mut j = open + 1;
    let push = |args: &mut Vec<Span>, s: usize, e: usize| {
        let s = skip_ws(bytes, s);
        let e = skip_ws_back(bytes, e.min(bytes.len()));
        if s < e {
            args.push(Span { start: s, end: e });
        }
    };
    while j < bytes.len() {
        match bytes[j] {
            b'(' => depth_paren += 1,
            b')' => {
                depth_paren -= 1;
                if depth_paren == 0 {
                    push(&mut args, start, j);
                    return args;
                }
            }
            b'[' => depth_sq += 1,
            b']' => depth_sq = depth_sq.saturating_sub(1),
            b'{' => depth_brace += 1,
            b'}' => depth_brace = depth_brace.saturating_sub(1),
            b'|' if in_params => in_params = false,
            b'|' => {
                // A `|` right after `(`, `,` or `=` opens a closure's
                // parameter list (`||` is an empty one, over at once);
                // anything else is bitwise-or.
                let p = skip_ws_back(bytes, j);
                let after_move = p >= 4 && &bytes[p - 4..p] == b"move";
                let prefix = p == open + 1
                    || after_move
                    || matches!(bytes.get(p.wrapping_sub(1)), Some(&b'(' | &b',' | &b'='));
                if prefix && bytes.get(j + 1) == Some(&b'|') {
                    j += 1;
                } else if prefix {
                    in_params = true;
                }
            }
            b',' if depth_paren == 1 && depth_sq == 0 && depth_brace == 0 && !in_params => {
                push(&mut args, start, j);
                start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    push(&mut args, start, j);
    args
}

/// The worker-executed span of a closure argument: the body after the
/// parameter list. `None` when the argument is not a closure (a
/// function path was passed instead).
fn closure_body(masked: &str, arg: Span) -> Option<Span> {
    let bytes = masked.as_bytes();
    let mut depth = 0usize;
    let mut j = arg.start;
    let mut params_open = None;
    while j < arg.end {
        match bytes[j] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b'|' if depth == 0 => {
                params_open = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let p = params_open?;
    let body_from = if bytes.get(p + 1) == Some(&b'|') {
        p + 2 // `||` — empty parameter list
    } else {
        let mut k = p + 1;
        let mut d = 0usize;
        while k < arg.end {
            match bytes[k] {
                b'(' | b'[' => d += 1,
                b')' | b']' => d = d.saturating_sub(1),
                b'|' if d == 0 => break,
                _ => {}
            }
            k += 1;
        }
        k + 1
    };
    let s = skip_ws(bytes, body_from);
    if bytes.get(s) == Some(&b'{') {
        let mut d = 0usize;
        let mut k = s;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => d += 1,
                b'}' => {
                    d -= 1;
                    if d == 0 {
                        return Some(Span {
                            start: s,
                            end: k + 1,
                        });
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
    Some(Span {
        start: s,
        end: arg.end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<String> {
        vec!["run_chunks".into(), "map_chunks".into()]
    }

    #[test]
    fn fn_items_get_quals_and_bodies() {
        let src = "\
impl<'a> Reader<'a> {
    pub fn take(&mut self, n: usize) -> &'a [u8] { helper(n) }
}
impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { todo(f) }
}
trait Metric {
    fn rank(&self) -> u32;
    fn better(&self, other: &Self) -> bool { self.rank() < other.rank() }
}
mod cast {
    pub fn clamp(n: usize) -> u32 { narrow(n) }
}
fn free() {}
";
        let p = parse(src, &entries());
        let names: Vec<(String, String, String, bool)> = p
            .fns
            .iter()
            .map(|f| {
                (
                    f.qual.clone(),
                    f.module.clone(),
                    f.name.clone(),
                    f.body.is_some(),
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("Reader".into(), String::new(), "take".into(), true),
                ("Rule".into(), String::new(), "fmt".into(), true),
                ("Metric".into(), String::new(), "rank".into(), false),
                ("Metric".into(), String::new(), "better".into(), true),
                (String::new(), "cast".into(), "clamp".into(), true),
                (String::new(), String::new(), "free".into(), true),
            ]
        );
    }

    #[test]
    fn call_sites_record_path_method_and_receiver() {
        let src = "\
fn f(&mut self) {
    let seq = self.queue.alloc_seq();
    sh.queues[sh.home[node]].schedule_at_seq(at, seq, event);
    codec::decode(frame);
    Self::helper(x);
    items.iter().collect::<Vec<_>>();
}
";
        let p = parse(src, &entries());
        let calls = &p.fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.name == n).expect(n);
        let alloc = find("alloc_seq");
        assert!(alloc.method);
        assert_eq!(alloc.recv, vec!["self".to_string(), "queue".into()]);
        let sched = find("schedule_at_seq");
        assert!(sched.recv.contains(&"queues".to_string()));
        let dec = find("decode");
        assert_eq!(dec.qual.as_deref(), Some("codec"));
        assert!(!dec.method);
        let helper = find("helper");
        assert_eq!(helper.qual.as_deref(), Some(""));
        let collect = find("collect");
        assert!(collect.method, "turbofish method call");
    }

    #[test]
    fn macro_invocations_and_definitions_are_not_calls() {
        let src = "\
macro_rules! boom {
    () => { hidden_call() };
}
fn f() {
    println!(\"x\");
    assert_eq!(real_call(1), 2);
}
";
        let p = parse(src, &entries());
        let calls: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["real_call"], "macro args scan, bodies do not");
    }

    #[test]
    fn par_regions_cover_closure_bodies() {
        let src = "\
fn f(rows: &[usize]) {
    let out = par::map_chunks(threads, rows, |_, &i| {
        let row = cache.compute_row(i);
        row
    });
    par::run_chunks(threads, &mut state, |start, chunk| step(start, chunk));
    par::map_chunks(threads, rows, helper);
}
";
        let p = parse(src, &entries());
        assert_eq!(p.regions.len(), 3);
        let body0 = &src[p.regions[0].body.start..p.regions[0].body.end];
        assert!(body0.contains("compute_row"), "{body0}");
        let body1 = &src[p.regions[1].body.start..p.regions[1].body.end];
        assert_eq!(body1, "step(start, chunk)");
        let body2 = &src[p.regions[2].body.start..p.regions[2].body.end];
        assert_eq!(body2, "helper", "fn-path argument is the region");
        // Calls inside the closures attach to the enclosing fn.
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"compute_row"));
        assert!(names.contains(&"step"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn f(cb: fn(u8) -> u8) -> u8 { cb(1) }\n";
        let p = parse(src, &entries());
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "f");
        assert_eq!(p.fns[0].calls.len(), 1);
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let src = "\
fn outer() {
    fn inner() { deep_call(); }
    inner();
}
";
        let p = parse(src, &entries());
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        let outer_calls: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        let inner_calls: Vec<&str> = inner.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_calls, vec!["inner"]);
        assert_eq!(inner_calls, vec!["deep_call"]);
    }

    #[test]
    fn call_args_split_at_top_level_commas() {
        let src = "f(a, g(b, c), [d, e], |x| h(x, 1))";
        let args = call_args(src, 1);
        let texts: Vec<&str> = args.iter().map(|a| &src[a.start..a.end]).collect();
        assert_eq!(texts, vec!["a", "g(b, c)", "[d, e]", "|x| h(x, 1)"]);
        let src2 = "f(n, move |a, b| a | b, |_, c| c)";
        let args2 = call_args(src2, 1);
        let texts2: Vec<&str> = args2.iter().map(|a| &src2[a.start..a.end]).collect();
        assert_eq!(texts2, vec!["n", "move |a, b| a | b", "|_, c| c"]);
    }
}
