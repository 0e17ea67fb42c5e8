//! `lock-order`: the global lock-acquisition-order graph must be acyclic.
//!
//! Built on the pass-1 lock graph (see [`crate::lockgraph`]): every
//! held→acquired pair across `tspg-server` and `tspg-core::engine` —
//! direct nesting and call-mediated, via the call graph — forms an order
//! edge. A cycle means two code paths take the same pair of locks in
//! opposite orders, which is a static deadlock candidate: each path can
//! hold one lock and block forever on the other. Re-entrant acquisition
//! of the same lock is the degenerate cycle (std `Mutex` is not
//! re-entrant) and is reported too.
//!
//! Every edge participating in a cycle is reported at its acquisition
//! site, with the held lock's site in the message — both halves of the
//! inversion get a diagnostic, so the fix (or the pragma stating why the
//! locks can never contend) lands next to each acquisition involved.

use crate::diagnostics::Diagnostic;
use crate::lockgraph::LockGraph;
use crate::LintContext;

use super::Rule;

/// See the module docs.
pub struct LockOrder;

impl Rule for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "lock-acquisition-order cycle (static deadlock candidate) in server/engine code"
    }

    fn check(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let graph = LockGraph::build(ctx);
        let mut out = Vec::new();
        for idx in graph.cycle_edges() {
            let edge = &graph.edges[idx];
            let file = &ctx.files[edge.anchor_file];
            let anchor = &file.code[edge.anchor_idx];
            let via = if edge.via.is_empty() {
                String::new()
            } else {
                format!(" via `{}`", edge.via.join(" -> "))
            };
            out.push(file.diag(
                anchor,
                "lock-order",
                format!(
                    "lock `{}` acquired{via} while `{}` is held (acquired at {}:{}:{}) — \
                     acquisition-order cycle `{}`: static deadlock candidate",
                    edge.acquired.lock,
                    edge.held.lock,
                    edge.held.path,
                    edge.held.line,
                    edge.held.col,
                    graph.cycle_path(edge).join(" -> "),
                ),
            ));
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
        LockOrder.check(&ctx)
    }

    #[test]
    fn consistent_order_is_clean() {
        let out = check(&[(
            "crates/server/src/lib.rs",
            "fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n\
             fn g(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn inverted_orders_report_both_sites() {
        let out = check(&[(
            "crates/server/src/lib.rs",
            "fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n\
             fn g(&self) { let b = self.beta.lock().unwrap(); let a = self.alpha.lock().unwrap(); }\n",
        )]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("cycle `alpha -> beta -> alpha`"), "{}", out[0].message);
        assert!(out[0].message.contains("crates/server/src/lib.rs:1:"), "{}", out[0].message);
        assert!(out[1].message.contains("cycle `beta -> alpha -> beta`"), "{}", out[1].message);
    }

    #[test]
    fn interprocedural_inversion_names_the_chain() {
        let out = check(&[(
            "crates/server/src/lib.rs",
            "fn outer(&self) { let g = self.gamma.lock().unwrap(); self.take_delta(); }\n\
             fn take_delta(&self) { let d = self.delta.lock().unwrap(); }\n\
             fn rev(&self) {\n\
                 let d = self.delta.lock().unwrap();\n\
                 let g = self.gamma.lock().unwrap();\n\
             }\n",
        )]);
        assert_eq!(out.len(), 2, "{out:?}");
        let mediated = out.iter().find(|d| d.message.contains("via `")).expect("{out:?}");
        assert!(mediated.message.contains("via `take_delta`"), "{}", mediated.message);
    }

    #[test]
    fn engine_files_are_in_scope_but_other_core_files_are_not() {
        let cycle = "fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }\n\
                     fn g(&self) { let b = self.beta.lock().unwrap(); let a = self.alpha.lock().unwrap(); }\n";
        let out = check(&[("crates/core/src/engine/cache.rs", cycle)]);
        assert_eq!(out.len(), 2, "{out:?}");
        let out = check(&[("crates/core/src/polarity.rs", cycle)]);
        assert!(out.is_empty(), "{out:?}");
    }
}
