//! Pass 1, second half: a global lock-acquisition-order graph.
//!
//! Scope is the code that actually takes locks on the serving path:
//! `crates/server/src/**` and `crates/core/src/engine/**`. A lock is
//! identified by its *receiver name* — the field or accessor-method name
//! the guard comes from (`self.admission.lock()` → `admission`,
//! `self.shard(&key).lock()` → `shard`) — which is the right granularity
//! for a lexical tool: the repo names each Mutex-guarded resource once.
//!
//! Liveness reuses the brace-frame model proven by `notify-under-lock`,
//! refined with bindings so guards can end before their block does:
//!
//! - `let g = m.lock()…;` holds until `drop(g)` or the end of the block;
//! - `let v = *m.lock()…;` (deref-copy) and bare `m.lock()…;` statements
//!   hold only to the end of the statement (`;`);
//! - a lock in an `if`/`while`/`match` header is live for the block the
//!   header opens (the `if let Ok(g) = m.lock()` shape).
//!
//! Edges are recorded held→acquired, both for direct nesting and — via
//! the call graph — when a function called under a guard (transitively)
//! acquires a lock. Any cycle in the resulting order graph is a static
//! deadlock candidate: two threads taking the same pair of locks in
//! opposite orders can each hold one and wait forever for the other.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::tokens::{Token, TokenKind};
use crate::{LintContext, SourceFile};

/// Guard-producing calls the order graph tracks. `Condvar::wait*` is
/// excluded on purpose: it re-acquires the *same* mutex it released, so it
/// introduces no new ordering edge.
const LOCK_CALLS: &[&str] = &["lock", "try_lock"];

/// Keywords whose headers scope a guard to the block they open.
const COND_KEYWORDS: &[&str] = &["if", "while", "match"];

/// One lock acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquisition {
    /// Receiver name identifying the lock.
    pub lock: String,
    /// Lint-root-relative path of the acquiring file.
    pub path: String,
    /// 1-based line of the `lock`/`try_lock` token.
    pub line: u32,
    /// 1-based column of the `lock`/`try_lock` token.
    pub col: u32,
}

/// One ordered pair: `acquired` taken while `held` was live.
#[derive(Debug)]
pub struct LockEdge {
    /// The lock already held.
    pub held: Acquisition,
    /// The lock being acquired under it.
    pub acquired: Acquisition,
    /// File index (into [`LintContext::files`]) of the anchor token.
    pub anchor_file: usize,
    /// `code` index of the anchor token — the nested `.lock()` for direct
    /// edges, the mediating call site for call-mediated ones.
    pub anchor_idx: usize,
    /// Call chain (fn names, caller first) for call-mediated edges; empty
    /// when the nesting is direct.
    pub via: Vec<String>,
}

/// The workspace lock-order graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every held→acquired pair found in scope.
    pub edges: Vec<LockEdge>,
}

/// True for the files whose lock usage the graph covers.
pub fn in_scope(rel_path: &str) -> bool {
    rel_path.starts_with("crates/server/src/") || rel_path.starts_with("crates/core/src/engine/")
}

impl LockGraph {
    /// Build the graph over `ctx`, consulting its call graph for edges
    /// mediated by function calls made under a live guard.
    pub fn build(ctx: &LintContext) -> Self {
        let graph = ctx.callgraph();
        let mut reach = ReachableLocks::new(ctx, graph);
        let mut edges = Vec::new();
        for (file_idx, file) in ctx.files.iter().enumerate() {
            if !in_scope(&file.rel_path) {
                continue;
            }
            for span_idx in 0..file.fn_spans.len() {
                if file.in_test(file.fn_spans[span_idx].sig_start) {
                    continue;
                }
                scan_fn(graph, &mut reach, file_idx, file, span_idx, &mut edges);
            }
        }
        // One edge per (held lock, acquired lock, anchor token): the same
        // call site must not multiply by resolution fan-out.
        let mut seen = HashSet::new();
        edges.retain(|e| {
            seen.insert((e.held.lock.clone(), e.acquired.lock.clone(), e.anchor_file, e.anchor_idx))
        });
        LockGraph { edges }
    }

    /// Indices of edges participating in an acquisition-order cycle: the
    /// acquired lock can reach the held lock again through other edges
    /// (or is the held lock itself — re-entrant acquisition of a std
    /// `Mutex` self-deadlocks).
    pub fn cycle_edges(&self) -> Vec<usize> {
        let mut adj: HashMap<&str, HashSet<&str>> = HashMap::new();
        for e in &self.edges {
            adj.entry(e.held.lock.as_str()).or_default().insert(e.acquired.lock.as_str());
        }
        (0..self.edges.len())
            .filter(|&i| {
                let e = &self.edges[i];
                reaches(&adj, e.acquired.lock.as_str(), e.held.lock.as_str())
            })
            .collect()
    }

    /// A shortest lock-name cycle through `edge` (for diagnostics), e.g.
    /// `["alpha", "beta", "alpha"]`.
    pub fn cycle_path(&self, edge: &LockEdge) -> Vec<String> {
        if edge.acquired.lock == edge.held.lock {
            // Re-entrant acquisition: the two-entry "cycle" is the edge
            // itself.
            return vec![edge.held.lock.clone(), edge.acquired.lock.clone()];
        }
        let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
        for e in &self.edges {
            adj.entry(e.held.lock.as_str()).or_default().push(e.acquired.lock.as_str());
        }
        let mut path = vec![edge.held.lock.clone(), edge.acquired.lock.clone()];
        // BFS parent-trace from `acquired` back to `held`.
        let mut parents: HashMap<&str, &str> = HashMap::new();
        let mut queue = VecDeque::from([edge.acquired.lock.as_str()]);
        let target = edge.held.lock.as_str();
        'bfs: while let Some(cur) = queue.pop_front() {
            for &next in adj.get(cur).into_iter().flatten() {
                if next == target {
                    let mut tail = vec![cur];
                    let mut at = cur;
                    while let Some(&p) = parents.get(at) {
                        tail.push(p);
                        at = p;
                    }
                    tail.reverse();
                    // `tail` runs acquired→…→cur; append the intermediate
                    // hops and close the cycle on the held lock.
                    path.extend(tail.into_iter().skip(1).map(str::to_string));
                    path.push(target.to_string());
                    break 'bfs;
                }
                if next != edge.acquired.lock.as_str() && !parents.contains_key(next) {
                    parents.insert(next, cur);
                    queue.push_back(next);
                }
            }
        }
        path
    }
}

/// True when `from` reaches `to` through one or more edges.
fn reaches(adj: &HashMap<&str, HashSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen = HashSet::new();
    let mut queue = VecDeque::from([from]);
    while let Some(cur) = queue.pop_front() {
        for &next in adj.get(cur).into_iter().flatten() {
            if next == to {
                return true;
            }
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    false
}

/// A guard live in some frame.
#[derive(Debug, Clone)]
struct Held {
    acq: Acquisition,
    /// `let` binding holding the guard, when there is one.
    binding: Option<String>,
    /// True when the guard is a temporary that dies at the next `;`.
    temp: bool,
}

/// One transitively reachable lock: its representative acquisition site
/// plus the fn-name chain that reaches it.
type ReachedLock = (Acquisition, Vec<String>);

/// Memoized per-callgraph-node "locks this function may (transitively)
/// acquire", with the fn-name chain that reaches each one.
struct ReachableLocks<'a> {
    ctx: &'a LintContext,
    graph: &'a CallGraph,
    /// Per-node cache; `None` = not yet computed.
    memo: Vec<Option<Vec<ReachedLock>>>,
    /// DFS in-progress flags (recursion through a call cycle yields no
    /// further locks).
    visiting: Vec<bool>,
}

impl<'a> ReachableLocks<'a> {
    fn new(ctx: &'a LintContext, graph: &'a CallGraph) -> Self {
        let n = graph.nodes.len();
        Self { ctx, graph, memo: vec![None; n], visiting: vec![false; n] }
    }

    fn get(&mut self, node: usize) -> Vec<ReachedLock> {
        if let Some(cached) = &self.memo[node] {
            return cached.clone();
        }
        if self.visiting[node] {
            return Vec::new();
        }
        self.visiting[node] = true;
        let fn_node = &self.graph.nodes[node];
        let file = &self.ctx.files[fn_node.file];
        let mut out: Vec<(Acquisition, Vec<String>)> = Vec::new();
        // One entry per lock name: the first acquisition site found is
        // representative, and the bound keeps chains from exploding.
        let mut have: HashSet<String> = HashSet::new();
        if in_scope(&file.rel_path) {
            let span = &file.fn_spans[fn_node.span];
            for j in span.body_start..=span.body_end {
                let Some((name_tok, lock)) = lock_call_at(file, j) else { continue };
                if file.enclosing_fn_idx(j) != Some(fn_node.span) {
                    continue;
                }
                if have.insert(lock.clone()) {
                    out.push((acquisition(file, name_tok, lock), vec![fn_node.name.clone()]));
                }
            }
        }
        let calls = fn_node.calls.clone();
        for site in &calls {
            for callee in self.graph.resolve(&self.graph.nodes[node], site) {
                for (acq, chain) in self.get(callee) {
                    if have.insert(acq.lock.clone()) {
                        let mut full = vec![self.graph.nodes[node].name.clone()];
                        full.extend(chain);
                        out.push((acq, full));
                    }
                }
            }
        }
        self.visiting[node] = false;
        self.memo[node] = Some(out.clone());
        out
    }
}

/// If the `.`-led tokens at `j` are a `.lock(`/`.try_lock(` call, return
/// the method-name token and the receiver-derived lock name.
fn lock_call_at(file: &SourceFile, j: usize) -> Option<(&Token, String)> {
    let code = &file.code;
    let tok = code.get(j)?;
    if !tok.is_punct(".") {
        return None;
    }
    let name = code.get(j + 1)?;
    if name.kind != TokenKind::Ident
        || !LOCK_CALLS.contains(&name.text.as_str())
        || !code.get(j + 2).is_some_and(|t| t.is_punct("("))
    {
        return None;
    }
    let lock = receiver_name(code, j)?;
    Some((name, lock))
}

/// Name of the receiver expression ending just before the `.` at
/// `dot_idx`: the trailing field name, or the method/accessor name for a
/// call or index result (`self.shard(&key)` → `shard`).
fn receiver_name(code: &[Token], dot_idx: usize) -> Option<String> {
    let mut k = dot_idx.checked_sub(1)?;
    // Step back over one trailing `(…)` or `[…]` group.
    for (close, open) in [(")", "("), ("]", "[")] {
        if code[k].is_punct(close) {
            let mut depth = 0usize;
            loop {
                if code[k].is_punct(close) {
                    depth += 1;
                } else if code[k].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k = k.checked_sub(1)?;
            }
            k = k.checked_sub(1)?;
            break;
        }
    }
    let tok = &code[k];
    (tok.kind == TokenKind::Ident && tok.ident_name() != "self")
        .then(|| tok.ident_name().to_string())
}

/// Build an [`Acquisition`] for the lock call whose method token is `tok`.
fn acquisition(file: &SourceFile, tok: &Token, lock: String) -> Acquisition {
    Acquisition { lock, path: file.rel_path.clone(), line: tok.line, col: tok.col }
}

/// Frame-scan one function body, appending every held→acquired edge.
fn scan_fn(
    graph: &CallGraph,
    reach: &mut ReachableLocks<'_>,
    file_idx: usize,
    file: &SourceFile,
    span_idx: usize,
    edges: &mut Vec<LockEdge>,
) {
    let span = &file.fn_spans[span_idx];
    let code = &file.code;
    let mut frames: Vec<Vec<Held>> = Vec::new();
    let mut pending: Vec<Held> = Vec::new();
    let mut cond_pending = false;
    let mut stmt_start = span.body_start + 1;
    let mut j = span.body_start;
    while j <= span.body_end {
        // Skip nested fn items wholesale: their guards are their own.
        if j > span.body_start && file.enclosing_fn_idx(j) != Some(span_idx) {
            j += 1;
            continue;
        }
        let tok = &code[j];
        match tok.kind {
            TokenKind::Ident if COND_KEYWORDS.contains(&tok.text.as_str()) => cond_pending = true,
            TokenKind::Ident if tok.text == "drop" => {
                // `drop(binding)` ends that guard's liveness early.
                let parenthesized = code.get(j + 1).is_some_and(|t| t.is_punct("("))
                    && code.get(j + 3).is_some_and(|t| t.is_punct(")"));
                let arg = code.get(j + 2).filter(|t| parenthesized && t.kind == TokenKind::Ident);
                if let Some(arg) = arg {
                    let name = arg.ident_name();
                    for frame in &mut frames {
                        frame.retain(|h| h.binding.as_deref() != Some(name));
                    }
                    pending.retain(|h| h.binding.as_deref() != Some(name));
                }
            }
            TokenKind::Punct if tok.text == "{" => {
                frames.push(std::mem::take(&mut pending));
                cond_pending = false;
                stmt_start = j + 1;
            }
            TokenKind::Punct if tok.text == "}" => {
                frames.pop();
                cond_pending = false;
                stmt_start = j + 1;
            }
            TokenKind::Punct if tok.text == ";" => {
                if let Some(top) = frames.last_mut() {
                    top.retain(|h| !h.temp);
                }
                cond_pending = false;
                stmt_start = j + 1;
            }
            TokenKind::Punct if tok.text == "." => {
                if let Some((name_tok, lock)) = lock_call_at(file, j) {
                    let acq = acquisition(file, name_tok, lock);
                    for h in frames.iter().flatten().chain(pending.iter()) {
                        edges.push(LockEdge {
                            held: h.acq.clone(),
                            acquired: acq.clone(),
                            anchor_file: file_idx,
                            anchor_idx: j + 1,
                            via: Vec::new(),
                        });
                    }
                    let (binding, temp) = binding_of_statement(code, stmt_start, span.body_end);
                    let held = Held { acq, binding, temp };
                    if cond_pending {
                        pending.push(Held { temp: false, ..held });
                    } else if let Some(top) = frames.last_mut() {
                        top.push(held);
                    }
                }
            }
            TokenKind::Ident
                if code.get(j + 1).is_some_and(|t| t.is_punct("("))
                    && !code.get(j.wrapping_sub(1)).is_some_and(|t| t.is_ident("fn"))
                    && tok.text != "drop" =>
            {
                // A call made under a live guard: every lock the callee
                // may (transitively) take orders after every held lock.
                if frames.iter().all(|f| f.is_empty()) && pending.is_empty() {
                    j += 1;
                    continue;
                }
                let Some(node) = graph.node_at(file_idx, span_idx) else {
                    j += 1;
                    continue;
                };
                let site = graph.nodes[node].calls.iter().find(|s| s.code_idx == j).cloned();
                let Some(site) = site else {
                    j += 1;
                    continue;
                };
                for callee in graph.resolve(&graph.nodes[node], &site) {
                    for (acq, chain) in reach.get(callee) {
                        for h in frames.iter().flatten().chain(pending.iter()) {
                            edges.push(LockEdge {
                                held: h.acq.clone(),
                                acquired: acq.clone(),
                                anchor_file: file_idx,
                                anchor_idx: j,
                                via: chain.clone(),
                            });
                        }
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
}

/// For the statement starting at `stmt_start`, the `let` binding name (if
/// any) and whether a guard produced in it is a temporary: no `let`, or a
/// `let x = *…` deref-copy where the guard dies at the statement's end.
fn binding_of_statement(code: &[Token], stmt_start: usize, limit: usize) -> (Option<String>, bool) {
    if !code.get(stmt_start).is_some_and(|t| t.is_ident("let")) {
        return (None, true);
    }
    let mut binding = None;
    for tok in &code[stmt_start + 1..=limit.min(code.len() - 1)] {
        if tok.is_punct("=") || tok.is_punct(";") {
            break;
        }
        if tok.kind == TokenKind::Ident
            && !matches!(tok.text.as_str(), "mut" | "ref" | "Ok" | "Err" | "Some")
        {
            binding = Some(tok.ident_name().to_string());
            break;
        }
    }
    // `let v = *m.lock()…;` copies out of the guard; the guard itself is a
    // temporary.
    let deref = code[stmt_start..=limit.min(code.len() - 1)]
        .iter()
        .position(|t| t.is_punct("="))
        .is_some_and(|eq| code.get(stmt_start + eq + 1).is_some_and(|t| t.is_punct("*")));
    (binding, deref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn graph_of(src: &str) -> LockGraph {
        let file = SourceFile::new("crates/server/src/lib.rs".into(), src.into());
        let ctx = LintContext::from_parts(PathBuf::from("."), vec![file]);
        LockGraph::build(&ctx)
    }

    fn pairs(g: &LockGraph) -> Vec<(String, String)> {
        g.edges.iter().map(|e| (e.held.lock.clone(), e.acquired.lock.clone())).collect()
    }

    #[test]
    fn direct_nesting_produces_an_edge() {
        let g = graph_of(
            "fn f(&self) {\n\
                 let a = self.alpha.lock().unwrap();\n\
                 let b = self.beta.lock().unwrap();\n\
             }\n",
        );
        assert_eq!(pairs(&g), vec![("alpha".into(), "beta".into())]);
        assert!(g.cycle_edges().is_empty());
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let g = graph_of(
            "fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n\
             fn g(&self) { let b = self.beta.lock().unwrap(); let a = self.alpha.lock().unwrap(); }\n",
        );
        assert_eq!(g.cycle_edges().len(), 2, "{:?}", g.edges);
        let path = g.cycle_path(&g.edges[0]);
        assert_eq!(path, vec!["alpha", "beta", "alpha"]);
    }

    #[test]
    fn guard_scope_ends_with_block_or_drop() {
        let g = graph_of(
            "fn f(&self) {\n\
                 { let a = self.alpha.lock().unwrap(); }\n\
                 let b = self.beta.lock().unwrap();\n\
             }\n\
             fn g(&self) {\n\
                 let b = self.beta.lock().unwrap();\n\
                 drop(b);\n\
                 let a = self.alpha.lock().unwrap();\n\
             }\n",
        );
        assert!(pairs(&g).is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn temp_guard_statement_and_deref_copy_release_at_semicolon() {
        let g = graph_of(
            "fn f(&self) {\n\
                 self.alpha.lock().unwrap().push(1);\n\
                 let n = *self.beta.lock().unwrap();\n\
                 let g = self.gamma.lock().unwrap();\n\
             }\n",
        );
        // Neither the bare statement's temp nor the deref-copy guard is
        // still held when `gamma` is taken.
        assert!(pairs(&g).is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn cond_header_guard_is_live_for_its_block() {
        let g = graph_of(
            "fn f(&self) {\n\
                 if let Ok(a) = self.alpha.lock() {\n\
                     let b = self.beta.lock().unwrap();\n\
                 }\n\
                 let c = self.gamma.lock().unwrap();\n\
             }\n",
        );
        assert_eq!(pairs(&g), vec![("alpha".into(), "beta".into())]);
    }

    #[test]
    fn call_mediated_edges_carry_the_chain() {
        let g = graph_of(
            "fn outer(&self) {\n\
                 let g = self.gamma.lock().unwrap();\n\
                 self.take_delta();\n\
             }\n\
             fn take_delta(&self) { let d = self.delta.lock().unwrap(); }\n",
        );
        let found = g
            .edges
            .iter()
            .find(|e| e.held.lock == "gamma" && e.acquired.lock == "delta")
            .expect("call-mediated edge");
        assert_eq!(found.via, vec!["take_delta"]);
    }

    #[test]
    fn reentrant_same_lock_is_a_cycle() {
        let g = graph_of(
            "fn f(&self) {\n\
                 let a = self.alpha.lock().unwrap();\n\
                 let b = self.alpha.lock().unwrap();\n\
             }\n",
        );
        assert_eq!(g.cycle_edges().len(), 1, "{:?}", g.edges);
        assert_eq!(g.cycle_path(&g.edges[0]), vec!["alpha", "alpha"]);
    }

    #[test]
    fn accessor_receiver_uses_the_method_name() {
        let g = graph_of(
            "fn f(&self, key: u64) {\n\
                 let s = self.shard(key).lock().unwrap();\n\
                 let t = self.totals.lock().unwrap();\n\
             }\n",
        );
        assert_eq!(pairs(&g), vec![("shard".into(), "totals".into())]);
    }

    #[test]
    fn out_of_scope_files_produce_no_edges() {
        let file = SourceFile::new(
            "crates/graph/src/lib.rs".into(),
            "fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n"
                .into(),
        );
        let ctx = LintContext::from_parts(PathBuf::from("."), vec![file]);
        assert!(LockGraph::build(&ctx).edges.is_empty());
    }
}
