//! `tspg-lint`: a zero-dependency static analyzer for the tspg workspace.
//!
//! The workspace's performance and correctness story rests on invariants no
//! compiler checks: the zero-steady-state-allocation rule for the `_into`
//! pipeline, the notify-under-lock rule for the resident server's
//! `Condvar`s, the no-panic discipline in serving code, and justification
//! comments on `Ordering::Relaxed` / `unsafe`. This crate turns each of
//! those into a machine-checked rule over a lexical token stream (see
//! [`tokens`]), producing `file:line:col` diagnostics with rendered
//! excerpts (see [`diagnostics`]) and honoring `// tspg-lint: allow(<rule>)`
//! suppression pragmas.
//!
//! Run it with `cargo run -p tspg-lint` from the repo root; it exits
//! nonzero when any finding survives suppression filtering. The rules are
//! catalogued in [`rules`].

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diagnostics;
pub mod lockgraph;
pub mod rules;
pub mod tokens;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use diagnostics::{collect_suppressions, is_suppressed, Diagnostic};
use tokens::{tokenize, Token, TokenKind};

/// Span of one `fn` item, as index ranges into [`SourceFile::code`].
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Index of the `fn` keyword token.
    pub sig_start: usize,
    /// Index of the `{` opening the body.
    pub body_start: usize,
    /// Index of the matching `}` closing the body.
    pub body_end: usize,
}

/// One loaded-and-analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators.
    pub rel_path: String,
    /// Full file text (used for excerpt rendering).
    pub text: String,
    /// Full token stream, comments included (used for pragma and
    /// justification-comment queries).
    pub tokens: Vec<Token>,
    /// Token stream with comments stripped (used for structural scans —
    /// the indices in [`Self::fn_spans`] and [`Self::test_spans`] refer to
    /// this vector).
    pub code: Vec<Token>,
    /// Every `fn` item with a body, innermost listed after enclosing.
    pub fn_spans: Vec<FnSpan>,
    /// Index ranges (into [`Self::code`], inclusive) covered by
    /// `#[cfg(test)]` items or `#[test]` functions.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Tokenize and analyze `text`.
    pub fn new(rel_path: String, text: String) -> Self {
        let tokens = tokenize(&text);
        let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
        let fn_spans = find_fn_spans(&code);
        let test_spans = find_test_spans(&code);
        Self { rel_path, text, tokens, code, fn_spans, test_spans }
    }

    /// True when the `code` token at `idx` lies inside test-only code
    /// (`#[cfg(test)]` item or `#[test]` function).
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(start, end)| idx >= start && idx <= end)
    }

    /// Innermost function whose span (signature through closing brace)
    /// contains the `code` token at `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.enclosing_fn_idx(idx).map(|i| &self.fn_spans[i])
    }

    /// Index into [`Self::fn_spans`] of the innermost function containing
    /// the `code` token at `idx` — the stable handle the call graph uses
    /// to attribute call sites to their defining function.
    pub fn enclosing_fn_idx(&self, idx: usize) -> Option<usize> {
        self.fn_spans
            .iter()
            .enumerate()
            .filter(|(_, f)| idx >= f.sig_start && idx <= f.body_end)
            .min_by_key(|(_, f)| f.body_end - f.sig_start)
            .map(|(i, _)| i)
    }

    /// True when a comment containing `needle` starts on `line` or the
    /// line directly above it.
    pub fn comment_near_line(&self, line: u32, needle: &str) -> bool {
        self.tokens.iter().any(|t| {
            t.is_comment() && (t.line == line || t.line + 1 == line) && t.text.contains(needle)
        })
    }

    /// Build a diagnostic anchored at `tok`.
    pub fn diag(&self, tok: &Token, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic { path: self.rel_path.clone(), line: tok.line, col: tok.col, rule, message }
    }
}

/// Detect every `fn <name> … { … }` item by brace matching.
///
/// Bodyless declarations (trait methods ending in `;`) are skipped, as are
/// `fn`-pointer types (no identifier follows the keyword).
fn find_fn_spans(code: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = code.get(i + 1) else { continue };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Between the name and the body only parens/generics/where clauses
        // can appear — none of which contain braces in function position —
        // so the first `{` or `;` decides body vs. declaration.
        let mut j = i + 2;
        let body_start = loop {
            match code.get(j) {
                Some(t) if t.is_punct("{") => break Some(j),
                Some(t) if t.is_punct(";") => break None,
                Some(_) => j += 1,
                None => break None,
            }
        };
        let Some(body_start) = body_start else { continue };
        if let Some(body_end) = match_brace(code, body_start) {
            // Store the raw-prefix-stripped name so `fn r#try` and a call
            // site `r#try(…)` compare equal in the call graph.
            spans.push(FnSpan {
                name: name_tok.ident_name().to_string(),
                sig_start: i,
                body_start,
                body_end,
            });
        }
    }
    spans
}

/// Index of the `}` matching the `{` at `open`, if balanced.
pub(crate) fn match_brace(code: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, tok) in code.iter().enumerate().skip(open) {
        if tok.is_punct("{") {
            depth += 1;
        } else if tok.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Detect spans of test-only code: any item whose attribute list contains
/// the `test` identifier (`#[test]`, `#[cfg(test)]`, …) — but not
/// `#[cfg(not(test))]`, which marks the opposite.
fn find_test_spans(code: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if !(code[i].is_punct("#") && code[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let Some(attr_end) = match_bracket(code, i + 1) else { break };
        let idents: Vec<&str> = code[i + 2..attr_end]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        let is_test_attr = idents.contains(&"test") && !idents.contains(&"not");
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = attr_end + 1;
        while k + 1 < code.len() && code[k].is_punct("#") && code[k + 1].is_punct("[") {
            match match_bracket(code, k + 1) {
                Some(end) => k = end + 1,
                None => break,
            }
        }
        // The item's body is the first `{` before any `;` (a `;` first
        // means an expression/use item — nothing to span).
        let mut j = k;
        loop {
            match code.get(j) {
                Some(t) if t.is_punct("{") => {
                    if let Some(close) = match_brace(code, j) {
                        spans.push((i, close));
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                    break;
                }
                Some(t) if t.is_punct(";") => {
                    i = j + 1;
                    break;
                }
                Some(_) => j += 1,
                None => {
                    i = code.len();
                    break;
                }
            }
        }
    }
    spans
}

/// Index of the `]` matching the `[` at `open`, if balanced.
fn match_bracket(code: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, tok) in code.iter().enumerate().skip(open) {
        if tok.is_punct("[") {
            depth += 1;
        } else if tok.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Everything the rules need to inspect one lint root.
#[derive(Debug)]
pub struct LintContext {
    /// The root directory being linted.
    pub root: PathBuf,
    /// All Rust sources under `<root>/crates/*/src/**` and
    /// `<root>/src/**`, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Pass-1 workspace call graph, built lazily on first use and shared
    /// by every flow-aware rule (see [`callgraph`]).
    graph: OnceLock<callgraph::CallGraph>,
}

impl LintContext {
    /// Assemble a context from pre-analyzed parts (rule unit tests build
    /// synthetic contexts this way; [`LintContext::load`] goes through it
    /// too so the lazy graph cell has exactly one initialization site).
    pub fn from_parts(root: PathBuf, files: Vec<SourceFile>) -> Self {
        Self { root, files, graph: OnceLock::new() }
    }

    /// The workspace call graph, built on first access and cached for the
    /// lifetime of the context.
    pub fn callgraph(&self) -> &callgraph::CallGraph {
        self.graph.get_or_init(|| callgraph::CallGraph::build(self))
    }
    /// Load and analyze every lintable file under `root`.
    ///
    /// The walk covers `crates/*/src/**` plus the umbrella package's own
    /// `src/**`; `vendor/`, `tests/`, fixtures, and benches stay out of
    /// scope by construction.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for crate_dir in crate_dirs {
                let src = crate_dir.join("src");
                if src.is_dir() {
                    walk_rust_files(&src, root, &mut files)?;
                }
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            walk_rust_files(&root_src, root, &mut files)?;
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Self::from_parts(root.to_path_buf(), files))
    }

    /// The loaded file with this lint-root-relative path, if any.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }
}

/// Recursively collect `.rs` files under `dir` into `files`.
fn walk_rust_files(dir: &Path, root: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rust_files(&path, root, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::new(rel, text));
        }
    }
    Ok(())
}

/// Result of linting one root: the analyzed context plus the surviving
/// (unsuppressed) diagnostics, sorted by path/line/column.
#[derive(Debug)]
pub struct LintReport {
    /// The analyzed sources (kept for excerpt rendering).
    pub context: LintContext,
    /// Findings that survived suppression filtering.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Render every diagnostic with its source excerpt.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            let source = self.context.file(&diag.path).map(|f| f.text.as_str()).unwrap_or("");
            out.push_str(&diag.render(source));
        }
        out
    }
}

/// Lint `root` with every rule whose name is in `rule_filter` (all rules
/// when the filter is empty), applying suppression pragmas.
pub fn lint_root(root: &Path, rule_filter: &[String]) -> io::Result<LintReport> {
    let context = LintContext::load(root)?;
    let mut diagnostics = Vec::new();
    for rule in rules::all() {
        if !rule_filter.is_empty() && !rule_filter.iter().any(|r| r == rule.name()) {
            continue;
        }
        diagnostics.extend(rule.check(&context));
    }
    for file in &context.files {
        let suppressions = collect_suppressions(&file.tokens);
        if suppressions.is_empty() {
            continue;
        }
        diagnostics.retain(|d| d.path != file.rel_path || !is_suppressed(d, &suppressions));
    }
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(LintReport { context, diagnostics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/core/src/x.rs".into(), src.into())
    }

    #[test]
    fn fn_spans_cover_bodies_and_skip_declarations() {
        let f = file(
            "trait T { fn decl(&self); }\n\
             fn outer() { let x = 1; fn inner() { () } }\n",
        );
        let names: Vec<_> = f.fn_spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        let outer = &f.fn_spans[0];
        let inner = &f.fn_spans[1];
        assert!(outer.sig_start < inner.sig_start && inner.body_end < outer.body_end);
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let f = file("fn outer() { fn inner() { let y = 2; } }\n");
        let y_idx = f.code.iter().position(|t| t.is_ident("y")).unwrap();
        assert_eq!(f.enclosing_fn(y_idx).unwrap().name, "inner");
    }

    #[test]
    fn test_spans_cover_cfg_test_mods_and_test_fns() {
        let f = file(
            "fn live() { () }\n\
             #[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t() { live(); }\n}\n\
             fn also_live() { () }\n",
        );
        let live = f.code.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!f.in_test(live));
        let inner_call = f.code.iter().rposition(|t| t.is_ident("live")).unwrap();
        assert!(f.in_test(inner_call));
        let also = f.code.iter().position(|t| t.is_ident("also_live")).unwrap();
        assert!(!f.in_test(also));
    }

    #[test]
    fn nested_cfg_test_mod_inside_excluded_mod_does_not_leak() {
        // A `#[cfg(test)] mod` *inside* an already-excluded module must
        // not truncate the outer span at its own closing brace: code after
        // the inner module but still inside the outer one stays excluded,
        // and the first live item after the outer module does not.
        let f = file(
            "#[cfg(test)]\nmod outer_tests {\n\
                 fn helper() { () }\n\
                 #[cfg(test)]\n    mod inner {\n        fn deep() { () }\n    }\n\
                 fn tail_helper() { () }\n\
             }\n\
             fn live() { () }\n",
        );
        for name in ["helper", "deep", "tail_helper"] {
            let idx = f.code.iter().position(|t| t.is_ident(name)).unwrap();
            assert!(f.in_test(idx), "`{name}` leaked out of the excluded outer module");
        }
        let live = f.code.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!f.in_test(live), "item after the outer test module was over-excluded");
    }

    #[test]
    fn inner_test_mod_in_live_module_excludes_only_itself() {
        let f = file(
            "mod workers {\n\
                 fn prod() { () }\n\
                 #[cfg(test)]\n    mod tests {\n        fn t() { () }\n    }\n\
                 fn also_prod() { () }\n\
             }\n",
        );
        for name in ["prod", "also_prod"] {
            let idx = f.code.iter().position(|t| t.is_ident(name)).unwrap();
            assert!(!f.in_test(idx), "live `{name}` was swallowed by a sibling test module");
        }
        let t = f.code.iter().position(|t| t.is_ident("t")).unwrap();
        assert!(f.in_test(t));
    }

    #[test]
    fn fn_span_names_are_raw_ident_normalized() {
        let f = file("fn r#try() { () }\nfn plain() { r#try() }\n");
        let names: Vec<_> = f.fn_spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["try", "plain"]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let f = file("#[cfg(not(test))]\nfn prod() { () }\n");
        let idx = f.code.iter().position(|t| t.is_ident("prod")).unwrap();
        assert!(!f.in_test(idx));
    }

    #[test]
    fn comment_near_line_sees_same_and_previous_line() {
        let f = file("// relaxed: counter only\nlet a = 1;\nlet b = 2; // relaxed: b\n");
        assert!(f.comment_near_line(2, "relaxed:"));
        assert!(f.comment_near_line(3, "relaxed:"));
        assert!(!f.comment_near_line(5, "relaxed:"));
    }
}
