//! Pass 1 of the flow-aware analyzer: a workspace-wide call graph.
//!
//! Nodes are the brace-matched `fn` items the [`crate::SourceFile`]
//! `fn_spans` pass already discovers (test-only functions excluded);
//! edges are call expressions
//! found lexically inside each body. Resolution is deliberately
//! conservative in the over-approximating direction — a call resolves to
//! *every* workspace function it could plausibly name — because the
//! downstream rules (`hot-alloc-transitive`, `lock-order`) treat edges as
//! "may call": a spurious edge costs a justified pragma, a missing edge
//! hides a real bug.
//!
//! Resolution rules:
//! - `name(…)` free calls resolve to every fn named `name`.
//! - `recv.name(…)` method calls resolve among fns named `name` whose
//!   first parameter is `self`: a `self.name(…)` receiver prefers the
//!   caller's own impl type; otherwise the name must belong to a single
//!   impl type workspace-wide — a method name defined on several types is
//!   lexically ambiguous (`.get()`, `.insert()`, …) and resolves to
//!   nothing rather than to the cross-product of every type's method.
//! - `Qual::name(…)` resolves to fns inside `impl Qual` blocks when any
//!   exist. With none, a lowercase `qual` is a module path segment and
//!   falls back to every fn named `name`; an uppercase `Qual` names a
//!   type whose fn we cannot see (a derive or std/trait impl) and
//!   resolves to nothing — `Stats::default()` must not resolve to every
//!   `fn default` in the workspace.
//! - `Self::name(…)` maps the qualifier to the calling fn's own impl type.
//! - Macro invocations (`name!(…)`) and definitions (`fn name`) never
//!   count as call sites, and raw-identifier names (`r#try`) compare under
//!   their stripped form.

use std::collections::HashMap;

use crate::tokens::TokenKind;
use crate::{LintContext, SourceFile};

/// Keywords that look like `name(`-shaped call heads but never are. The
/// check runs on the *raw* token text, so a genuine `r#match(…)` call to a
/// function named `match` still counts.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "break", "continue", "else", "in", "as",
    "move", "await", "let", "ref", "mut", "box", "yield",
];

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name, raw-ident-normalized.
    pub callee: String,
    /// True for `recv.name(…)` method-call syntax.
    pub method: bool,
    /// True when a method call's receiver is literally `self`.
    pub self_receiver: bool,
    /// The path segment directly before `::name(…)`, when present
    /// (raw-ident-normalized; `Self` is kept literal and resolved against
    /// the caller's impl type).
    pub qualifier: Option<String>,
    /// Index of the callee token in the owning file's `code` stream.
    pub code_idx: usize,
    /// 1-based source line of the callee token.
    pub line: u32,
    /// 1-based source column of the callee token.
    pub col: u32,
}

/// One function definition — a node in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`LintContext::files`].
    pub file: usize,
    /// Index into that file's `fn_spans`.
    pub span: usize,
    /// Function name, raw-ident-normalized.
    pub name: String,
    /// True when the first parameter is `self` — the only functions a
    /// method-call site may resolve to.
    pub has_self: bool,
    /// Enclosing `impl` block's type name, when there is one.
    pub owner: Option<String>,
    /// Call sites lexically inside this body (innermost-fn attribution:
    /// a nested fn's calls belong to the nested fn, not this one).
    pub calls: Vec<CallSite>,
}

/// The workspace call graph. Build once per [`LintContext`] via
/// [`LintContext::callgraph`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every non-test function in the workspace.
    pub nodes: Vec<FnNode>,
    by_name: HashMap<String, Vec<usize>>,
    by_position: HashMap<(usize, usize), usize>,
}

impl CallGraph {
    /// Build the graph over every loaded file.
    pub fn build(ctx: &LintContext) -> Self {
        let mut graph = CallGraph::default();
        for (file_idx, file) in ctx.files.iter().enumerate() {
            let impls = find_impl_blocks(file);
            for (span_idx, span) in file.fn_spans.iter().enumerate() {
                if file.in_test(span.sig_start) {
                    continue;
                }
                let owner = impls
                    .iter()
                    .filter(|b| span.sig_start > b.open && span.body_end < b.close)
                    .min_by_key(|b| b.close - b.open)
                    .map(|b| b.type_name.clone());
                let node_idx = graph.nodes.len();
                graph.nodes.push(FnNode {
                    file: file_idx,
                    span: span_idx,
                    name: span.name.clone(),
                    has_self: first_param_is_self(file, span_idx),
                    owner,
                    calls: Vec::new(),
                });
                graph.by_name.entry(span.name.clone()).or_default().push(node_idx);
                graph.by_position.insert((file_idx, span_idx), node_idx);
            }
        }
        for (file_idx, file) in ctx.files.iter().enumerate() {
            collect_call_sites(&mut graph, file_idx, file);
        }
        graph
    }

    /// The node for the `span_idx`-th fn span of file `file_idx`, if that
    /// function is in the graph (test-only fns are not).
    pub fn node_at(&self, file_idx: usize, span_idx: usize) -> Option<usize> {
        self.by_position.get(&(file_idx, span_idx)).copied()
    }

    /// Every node a call site may resolve to, per the module-level rules.
    pub fn resolve(&self, caller: &FnNode, site: &CallSite) -> Vec<usize> {
        let Some(candidates) = self.by_name.get(&site.callee) else { return Vec::new() };
        let candidates: Vec<usize> = if site.method {
            candidates.iter().copied().filter(|&n| self.nodes[n].has_self).collect()
        } else {
            candidates.clone()
        };
        if let Some(qualifier) = site.qualifier.as_deref() {
            let wanted =
                if qualifier == "Self" { caller.owner.as_deref() } else { Some(qualifier) };
            let Some(wanted) = wanted else { return candidates };
            let owned: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&n| self.nodes[n].owner.as_deref() == Some(wanted))
                .collect();
            if !owned.is_empty() {
                return owned;
            }
            // A type-like qualifier (including a resolved `Self`) with no
            // visible impl fn means the real body is a derive or std/trait
            // impl we cannot see.
            if qualifier == "Self" || qualifier.starts_with(|c: char| c.is_ascii_uppercase()) {
                return Vec::new();
            }
            return candidates;
        }
        if site.method {
            if site.self_receiver {
                if let Some(owner) = caller.owner.as_deref() {
                    let owned: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&n| self.nodes[n].owner.as_deref() == Some(owner))
                        .collect();
                    if !owned.is_empty() {
                        return owned;
                    }
                }
            }
            // Without a receiver type, a name defined on several impl
            // types is ambiguous — refuse to cross-product them.
            let mut owners: Vec<Option<&str>> =
                candidates.iter().map(|&n| self.nodes[n].owner.as_deref()).collect();
            owners.sort_unstable();
            owners.dedup();
            if owners.len() > 1 {
                return Vec::new();
            }
        }
        candidates
    }
}

/// One `impl … { … }` block: its self-type name and body brace indices.
struct ImplBlock {
    type_name: String,
    open: usize,
    close: usize,
}

/// Scan a file for `impl` blocks and extract each one's self-type name
/// (the last path segment before any generic arguments — `Y` in
/// `impl<T> X<T> for m::Y<T> { … }`).
fn find_impl_blocks(file: &SourceFile) -> Vec<ImplBlock> {
    let code = &file.code;
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if code.get(j).is_some_and(|t| t.is_punct("<")) {
            j = skip_angles(code, j);
        }
        // Walk the header up to its body `{`, remembering where the
        // self-type segment starts (after `for` when present).
        let mut seg_start = j;
        let mut angle_depth = 0usize;
        let open = loop {
            match code.get(j) {
                Some(t) if t.is_punct("<") => angle_depth += 1,
                Some(t) if t.is_punct(">") && angle_depth > 0 => {
                    // `->` in a bound like `Fn() -> T` is two tokens; the
                    // `>` of an arrow closes nothing.
                    if !code.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct("-")) {
                        angle_depth -= 1;
                    }
                }
                Some(t) if t.is_ident("for") && angle_depth == 0 => seg_start = j + 1,
                Some(t) if t.is_punct("{") && angle_depth == 0 => break Some(j),
                Some(t) if t.is_punct(";") && angle_depth == 0 => break None,
                Some(_) => {}
                None => break None,
            }
            j += 1;
        };
        let Some(open) = open else {
            i += 1;
            continue;
        };
        // Last identifier of the self-type path before its generics open.
        let mut type_name = None;
        let mut depth = 0usize;
        for tok in &code[seg_start..open] {
            if tok.is_punct("<") {
                depth += 1;
            } else if tok.is_punct(">") && depth > 0 {
                depth -= 1;
            } else if depth == 0 && tok.kind == TokenKind::Ident && !tok.is_ident("dyn") {
                type_name = Some(tok.ident_name().to_string());
            }
        }
        match (type_name, crate::match_brace(code, open)) {
            (Some(type_name), Some(close)) => {
                blocks.push(ImplBlock { type_name, open, close });
                i = open + 1;
            }
            _ => i = open + 1,
        }
    }
    blocks
}

/// Index just past a balanced `<…>` run starting at `open` (which must be
/// `<`). `->` arrows inside bounds do not close angles.
fn skip_angles(code: &[crate::tokens::Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while let Some(tok) = code.get(j) {
        if tok.is_punct("<") {
            depth += 1;
        } else if tok.is_punct(">") && !code.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct("-"))
        {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    code.len()
}

/// True when the fn's first parameter is `self` (incl. `&self`,
/// `&'a mut self`, `mut self`, `self: Arc<Self>`).
fn first_param_is_self(file: &SourceFile, span_idx: usize) -> bool {
    let span = &file.fn_spans[span_idx];
    let code = &file.code;
    let mut j = span.sig_start + 2;
    if code.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(code, j);
    }
    if !code.get(j).is_some_and(|t| t.is_punct("(")) {
        return false;
    }
    // Scan the first parameter only: up to the first `,` or `)` at the
    // parameter list's own depth.
    let mut depth = 0usize;
    for tok in &code[j..=span.body_end.min(code.len() - 1)] {
        if tok.is_punct("(") || tok.is_punct("[") {
            depth += 1;
        } else if tok.is_punct(")") || tok.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if depth == 1 && tok.is_punct(",") {
            return false;
        } else if depth == 1 && tok.ident_name() == "self" && tok.kind == TokenKind::Ident {
            return true;
        }
    }
    false
}

/// Find every call expression in `file` and attribute it to its innermost
/// enclosing non-test function's node.
fn collect_call_sites(graph: &mut CallGraph, file_idx: usize, file: &SourceFile) {
    let code = &file.code;
    for k in 0..code.len() {
        let tok = &code[k];
        if tok.kind != TokenKind::Ident
            || NON_CALL_KEYWORDS.contains(&tok.text.as_str())
            || tok.text == "fn"
        {
            continue;
        }
        if !code.get(k + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let prev = k.checked_sub(1).map(|p| &code[p]);
        if prev.is_some_and(|t| t.is_ident("fn")) {
            continue;
        }
        if file.in_test(k) {
            continue;
        }
        let Some(span_idx) = file.enclosing_fn_idx(k) else { continue };
        let Some(node_idx) = graph.node_at(file_idx, span_idx) else { continue };
        let method = prev.is_some_and(|t| t.is_punct("."));
        let self_receiver = method
            && k.checked_sub(2)
                .and_then(|r| code.get(r))
                .is_some_and(|t| t.kind == TokenKind::Ident && t.ident_name() == "self");
        let qualifier = if prev.is_some_and(|t| t.is_punct("::")) {
            k.checked_sub(2).map(|q| &code[q]).filter(|t| t.kind == TokenKind::Ident).map(|t| {
                if t.text == "Self" {
                    t.text.clone()
                } else {
                    t.ident_name().to_string()
                }
            })
        } else {
            None
        };
        graph.nodes[node_idx].calls.push(CallSite {
            callee: tok.ident_name().to_string(),
            method,
            self_receiver,
            qualifier,
            code_idx: k,
            line: tok.line,
            col: tok.col,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn graph_of(files: &[(&str, &str)]) -> (LintContext, Vec<String>) {
        let files: Vec<SourceFile> =
            files.iter().map(|(p, s)| SourceFile::new((*p).into(), (*s).into())).collect();
        let ctx = LintContext::from_parts(PathBuf::from("."), files);
        let names: Vec<String> = ctx.callgraph().nodes.iter().map(|n| n.name.clone()).collect();
        (ctx, names)
    }

    fn edges(ctx: &LintContext) -> Vec<(String, String)> {
        let g = ctx.callgraph();
        let mut out = Vec::new();
        for node in &g.nodes {
            for site in &node.calls {
                for callee in g.resolve(node, site) {
                    out.push((node.name.clone(), g.nodes[callee].name.clone()));
                }
            }
        }
        out
    }

    #[test]
    fn free_calls_resolve_by_name_and_skip_macros_and_keywords() {
        let (ctx, names) = graph_of(&[(
            "crates/core/src/x.rs",
            "fn a() { b(); vec![1]; if x() { () } }\nfn b() { () }\nfn x() -> bool { true }\n",
        )]);
        assert_eq!(names, vec!["a", "b", "x"]);
        let e = edges(&ctx);
        assert!(e.contains(&("a".into(), "b".into())), "{e:?}");
        assert!(e.contains(&("a".into(), "x".into())), "{e:?}");
        // `vec!` is a macro, `if` is a keyword: neither is an edge source.
        assert_eq!(e.len(), 2, "{e:?}");
    }

    #[test]
    fn method_calls_resolve_only_to_self_taking_fns() {
        let (ctx, _) = graph_of(&[(
            "crates/core/src/x.rs",
            "struct S;\n\
             impl S { fn go(&self) { () } }\n\
             fn go() { () }\n\
             fn driver(s: &S) { s.go(); }\n",
        )]);
        let g = ctx.callgraph();
        let driver = g.nodes.iter().find(|n| n.name == "driver").unwrap();
        let site = &driver.calls[0];
        let resolved = g.resolve(driver, site);
        assert_eq!(resolved.len(), 1, "{resolved:?}");
        assert!(g.nodes[resolved[0]].has_self);
        assert_eq!(g.nodes[resolved[0]].owner.as_deref(), Some("S"));
    }

    #[test]
    fn qualified_calls_prefer_impl_owner_and_self_maps_to_caller_owner() {
        let (ctx, _) = graph_of(&[(
            "crates/core/src/x.rs",
            "struct A;\nstruct B;\n\
             impl A { fn make() { () }\n    fn run(&self) { Self::make(); } }\n\
             impl B { fn make() { () } }\n\
             fn driver() { A::make(); }\n",
        )]);
        let g = ctx.callgraph();
        let driver = g.nodes.iter().find(|n| n.name == "driver").unwrap();
        let resolved = g.resolve(driver, &driver.calls[0]);
        assert_eq!(resolved.len(), 1, "{resolved:?}");
        assert_eq!(g.nodes[resolved[0]].owner.as_deref(), Some("A"));
        let run = g.nodes.iter().find(|n| n.name == "run").unwrap();
        let resolved = g.resolve(run, &run.calls[0]);
        assert_eq!(resolved.len(), 1, "{resolved:?}");
        assert_eq!(g.nodes[resolved[0]].owner.as_deref(), Some("A"));
    }

    #[test]
    fn type_qualifier_without_visible_impl_resolves_to_nothing() {
        // `Stats::default()` must not resolve to every `fn default` in the
        // workspace when Stats's impl is a derive we cannot see.
        let (ctx, _) = graph_of(&[(
            "crates/core/src/x.rs",
            "struct Other;\n\
             impl Other { fn default() -> Self { Other } }\n\
             fn driver() { let s = Stats::default(); }\n",
        )]);
        assert!(edges(&ctx).is_empty(), "{:?}", edges(&ctx));
    }

    #[test]
    fn ambiguous_multi_owner_method_resolves_to_nothing() {
        let (ctx, _) = graph_of(&[(
            "crates/core/src/x.rs",
            "struct A;\nstruct B;\n\
             impl A { fn len(&self) -> usize { 0 } }\n\
             impl B { fn len(&self) -> usize { 1 } }\n\
             fn driver(xs: &A) { xs.len(); }\n",
        )]);
        assert!(edges(&ctx).is_empty(), "{:?}", edges(&ctx));
    }

    #[test]
    fn self_receiver_prefers_the_callers_own_impl() {
        let (ctx, _) = graph_of(&[(
            "crates/core/src/x.rs",
            "struct A;\nstruct B;\n\
             impl A { fn step(&self) { () }\n    fn run(&self) { self.step(); } }\n\
             impl B { fn step(&self) { () } }\n",
        )]);
        let g = ctx.callgraph();
        let run = g.nodes.iter().find(|n| n.name == "run").unwrap();
        let resolved = g.resolve(run, &run.calls[0]);
        assert_eq!(resolved.len(), 1, "{resolved:?}");
        assert_eq!(g.nodes[resolved[0]].owner.as_deref(), Some("A"));
    }

    #[test]
    fn module_qualifier_falls_back_to_all_candidates() {
        let (ctx, _) = graph_of(&[(
            "crates/core/src/x.rs",
            "mod util { pub fn helper() { () } }\nfn driver() { util::helper(); }\n",
        )]);
        let e = edges(&ctx);
        assert_eq!(e, vec![("driver".to_string(), "helper".to_string())]);
    }

    #[test]
    fn impl_for_blocks_attribute_to_the_self_type() {
        let (ctx, _) = graph_of(&[(
            "crates/core/src/x.rs",
            "struct Wrap<T>(T);\n\
             impl<T: Clone> std::fmt::Debug for Wrap<T> {\n\
                 fn fmt(&self) { () }\n\
             }\n",
        )]);
        let g = ctx.callgraph();
        let fmt = g.nodes.iter().find(|n| n.name == "fmt").unwrap();
        assert_eq!(fmt.owner.as_deref(), Some("Wrap"));
        assert!(fmt.has_self);
    }

    #[test]
    fn test_fns_and_test_call_sites_stay_out() {
        let (ctx, names) = graph_of(&[(
            "crates/core/src/x.rs",
            "fn live() { () }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { live(); }\n}\n",
        )]);
        assert_eq!(names, vec!["live"]);
        assert!(edges(&ctx).is_empty());
    }

    #[test]
    fn raw_ident_calls_match_raw_ident_definitions() {
        let (ctx, names) = graph_of(&[(
            "crates/core/src/x.rs",
            "fn r#try() { () }\nfn driver() { r#try(); }\nfn m() { match x { _ => () } }\n",
        )]);
        assert_eq!(names, vec!["try", "driver", "m"]);
        let e = edges(&ctx);
        assert_eq!(e, vec![("driver".to_string(), "try".to_string())]);
    }

    #[test]
    fn nested_fn_calls_attribute_to_the_inner_fn() {
        let (ctx, _) = graph_of(&[(
            "crates/core/src/x.rs",
            "fn leaf() { () }\nfn outer() { fn inner() { leaf(); } inner(); }\n",
        )]);
        let e = edges(&ctx);
        assert!(e.contains(&("inner".into(), "leaf".into())), "{e:?}");
        assert!(e.contains(&("outer".into(), "inner".into())), "{e:?}");
        assert!(!e.contains(&("outer".into(), "leaf".into())), "{e:?}");
    }
}
