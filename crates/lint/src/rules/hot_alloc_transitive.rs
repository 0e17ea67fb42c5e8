//! `hot-alloc-transitive`: allocation-freedom propagated through calls.
//!
//! `hot-alloc` checks the body of each `*_into`/`*_scratch` function;
//! this rule closes the hole it leaves — a hot function calling a
//! harmlessly-named helper that allocates. Starting from every hot root
//! in `tspg-core`, it walks the pass-1 call graph and reports the first
//! allocating function reachable on each path, with the full call chain
//! in the diagnostic so the reader can decide where to break it (hoist
//! the allocation to setup, rename the helper into the hot convention, or
//! justify with a pragma).
//!
//! Hot callees are not expanded or reported: they are roots of their own
//! analysis, so each link of a hot chain is checked exactly once. The
//! diagnostic anchors at the *call site inside the root*, which keeps
//! suppression pragmas local to the hot function whose budget is being
//! spent.

use std::collections::{HashSet, VecDeque};

use crate::diagnostics::Diagnostic;
use crate::LintContext;

use super::hot_alloc::{is_hot_name, match_alloc};
use super::Rule;

/// See the module docs.
pub struct HotAllocTransitive;

impl Rule for HotAllocTransitive {
    fn name(&self) -> &'static str {
        "hot-alloc-transitive"
    }

    fn description(&self) -> &'static str {
        "hot-path function reaches an allocating callee through the call graph"
    }

    fn check(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let graph = ctx.callgraph();
        // First allocating construct per node, workspace-wide: a hot core
        // fn may reach an allocating helper living in another crate.
        let direct_alloc: Vec<Option<(String, usize)>> = graph
            .nodes
            .iter()
            .map(|node| {
                let file = &ctx.files[node.file];
                let span = &file.fn_spans[node.span];
                (span.body_start..=span.body_end).find_map(|j| {
                    if file.enclosing_fn_idx(j) != Some(node.span) || file.in_test(j) {
                        return None;
                    }
                    match_alloc(file, j).map(|what| (what, j))
                })
            })
            .collect();

        let mut out = Vec::new();
        for (root_idx, root) in graph.nodes.iter().enumerate() {
            let root_file = &ctx.files[root.file];
            if !root_file.rel_path.starts_with("crates/core/src/") || !is_hot_name(&root.name) {
                continue;
            }
            // BFS: shortest chain to each reachable callee, one report per
            // (root, allocating fn).
            let mut visited: HashSet<usize> = HashSet::from([root_idx]);
            let mut queue: VecDeque<(usize, Vec<String>, usize)> = VecDeque::new();
            for site in &root.calls {
                for target in graph.resolve(root, site) {
                    queue.push_back((
                        target,
                        vec![root.name.clone(), graph.nodes[target].name.clone()],
                        site.code_idx,
                    ));
                }
            }
            while let Some((node_idx, chain, first_hop)) = queue.pop_front() {
                if !visited.insert(node_idx) {
                    continue;
                }
                let node = &graph.nodes[node_idx];
                if is_hot_name(&node.name) {
                    // A hot callee is a root of its own traversal.
                    continue;
                }
                if let Some((what, alloc_idx)) = &direct_alloc[node_idx] {
                    let callee_file = &ctx.files[node.file];
                    let alloc_tok = &callee_file.code[*alloc_idx];
                    out.push(root_file.diag(
                        &root_file.code[first_hop],
                        "hot-alloc-transitive",
                        format!(
                            "hot-path function `{}` reaches allocating call `{what}` in `{}` \
                             ({}:{}) via `{}` (zero-steady-state-allocation discipline: hoist \
                             the allocation to setup or rename the helper into the hot \
                             convention)",
                            root.name,
                            node.name,
                            callee_file.rel_path,
                            alloc_tok.line,
                            chain.join(" -> "),
                        ),
                    ));
                    // Calls past an allocating fn are that fn's problem.
                    continue;
                }
                for site in &node.calls {
                    for target in graph.resolve(node, site) {
                        if !visited.contains(&target) {
                            let mut next = chain.clone();
                            next.push(graph.nodes[target].name.clone());
                            queue.push_back((target, next, first_hop));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;
    use std::path::PathBuf;

    fn check(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<SourceFile> =
            files.iter().map(|(p, s)| SourceFile::new((*p).into(), (*s).into())).collect();
        let ctx = LintContext::from_parts(PathBuf::from("."), files);
        HotAllocTransitive.check(&ctx)
    }

    #[test]
    fn two_hop_chain_is_reported_with_full_chain() {
        let out = check(&[(
            "crates/core/src/x.rs",
            "fn fill_into(out: &mut [u32]) { expand(out); }\n\
             fn expand(out: &mut [u32]) { grow(out); }\n\
             fn grow(out: &mut [u32]) { let v: Vec<u32> = Vec::new(); }\n",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0]
            .message
            .contains("`fill_into` reaches allocating call `Vec::new` in `grow`"));
        assert!(out[0].message.contains("fill_into -> expand -> grow"), "{}", out[0].message);
        // Anchored at the `expand(out)` call inside the root.
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn hot_callees_are_not_reported_or_expanded() {
        let out = check(&[(
            "crates/core/src/x.rs",
            "fn fill_into(out: &mut [u32]) { shrink_into(out); }\n\
             fn shrink_into(out: &mut [u32]) { let v = Vec::new(); }\n",
        )]);
        // `shrink_into` is hot: plain hot-alloc owns that finding.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn clean_helpers_produce_nothing() {
        let out = check(&[(
            "crates/core/src/x.rs",
            "fn fill_into(out: &mut [u32]) { clamp(out); }\n\
             fn clamp(out: &mut [u32]) { out.sort_unstable(); }\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn chains_cross_files_and_crates() {
        let out = check(&[
            ("crates/core/src/hot.rs", "fn fill_into(out: &mut [u32]) { helper(out); }\n"),
            ("crates/graph/src/lib.rs", "pub fn helper(out: &mut [u32]) { let v = vec![1]; }\n"),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].path.ends_with("crates/core/src/hot.rs"));
        assert!(out[0].message.contains("crates/graph/src/lib.rs"));
    }

    #[test]
    fn non_core_roots_are_out_of_scope() {
        let out = check(&[(
            "crates/server/src/lib.rs",
            "fn drain_into(out: &mut [u32]) { helper(out); }\n\
             fn helper(out: &mut [u32]) { let v = Vec::new(); }\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn call_cycles_terminate() {
        let out = check(&[(
            "crates/core/src/x.rs",
            "fn fill_into(out: &mut [u32]) { a(out); }\n\
             fn a(out: &mut [u32]) { b(out); }\n\
             fn b(out: &mut [u32]) { a(out); }\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn method_call_chains_resolve() {
        let out = check(&[(
            "crates/core/src/x.rs",
            "struct S;\n\
             impl S {\n\
                 fn fill_into(&self, out: &mut [u32]) { self.expand(out); }\n\
                 fn expand(&self, out: &mut [u32]) { let v = Vec::new(); }\n\
             }\n",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("in `expand`"), "{}", out[0].message);
    }
}
