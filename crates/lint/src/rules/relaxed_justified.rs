//! `relaxed-justified`: audited memory orderings and unsafe blocks.
//!
//! `Ordering::Relaxed` is correct for most of this repo's counters and
//! work-claiming cursors, but *why* it is correct differs per site (pure
//! statistics vs. cursors whose consumers re-check under a lock). Each
//! use must carry a `// relaxed:` comment recording the argument — one
//! justification comment anywhere earlier in the same function covers the
//! whole function, so a counter cluster needs a single comment, not one
//! per line. Outside a function body the comment must sit on the same or
//! the preceding line.
//!
//! The same rule audits `unsafe` blocks: each needs a `// SAFETY:`
//! comment on the same or preceding line. (The workspace denies
//! `unsafe_code` today; the check future-proofs any crate that opts in.)

use crate::diagnostics::Diagnostic;
use crate::{LintContext, SourceFile};

use super::Rule;

/// See the module docs.
pub struct RelaxedJustified;

impl Rule for RelaxedJustified {
    fn name(&self) -> &'static str {
        "relaxed-justified"
    }

    fn description(&self) -> &'static str {
        "Ordering::Relaxed without `// relaxed:` comment, or unsafe block without `// SAFETY:`"
    }

    fn check(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &ctx.files {
            scan_file(file, &mut out);
        }
        out
    }
}

/// True when a comment containing `needle` appears between `from_line`
/// and `to_line` inclusive.
fn comment_in_lines(file: &SourceFile, from_line: u32, to_line: u32, needle: &str) -> bool {
    file.tokens.iter().any(|t| {
        t.is_comment() && t.line >= from_line && t.line <= to_line && t.text.contains(needle)
    })
}

fn scan_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for j in 0..code.len() {
        let tok = &code[j];
        if tok.is_ident("Ordering")
            && code.get(j + 1).is_some_and(|t| t.is_punct("::"))
            && code.get(j + 2).is_some_and(|t| t.is_ident("Relaxed"))
        {
            if file.in_test(j) {
                continue;
            }
            let site_line = tok.line;
            let justified = match file.enclosing_fn(j) {
                // One `// relaxed:` anywhere earlier in the function
                // covers every site after it.
                Some(span) => {
                    comment_in_lines(file, code[span.sig_start].line, site_line, "relaxed:")
                }
                None => file.comment_near_line(site_line, "relaxed:"),
            };
            if !justified {
                out.push(
                    file.diag(
                        tok,
                        "relaxed-justified",
                        "`Ordering::Relaxed` without a `// relaxed:` justification \
                     comment (record why relaxed ordering is sufficient here)"
                            .to_string(),
                    ),
                );
            }
        } else if tok.is_ident("unsafe")
            && code.get(j + 1).is_some_and(|t| t.is_punct("{"))
            && !file.in_test(j)
            && !file.comment_near_line(tok.line, "SAFETY:")
        {
            out.push(
                file.diag(
                    tok,
                    "relaxed-justified",
                    "`unsafe` block without a `// SAFETY:` comment on the same or \
                 preceding line"
                        .to_string(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn findings(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::new("crates/core/src/x.rs".into(), src.into());
        let mut out = Vec::new();
        scan_file(&file, &mut out);
        out
    }

    #[test]
    fn unjustified_relaxed_is_flagged() {
        let out = findings("fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn one_comment_covers_the_rest_of_the_function() {
        let out = findings(
            "fn f(c: &AtomicU64) {\n\
                 // relaxed: monotone counters, read only for stats reporting\n\
                 c.fetch_add(1, Ordering::Relaxed);\n\
                 c.fetch_add(2, Ordering::Relaxed);\n\
             }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn comment_after_the_site_does_not_count() {
        let out = findings(
            "fn f(c: &AtomicU64) {\n\
                 c.fetch_add(1, Ordering::Relaxed);\n\
                 // relaxed: too late for the site above\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn trailing_comment_on_the_same_line_counts() {
        let out = findings(
            "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); // relaxed: stats snapshot\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn outside_fn_needs_adjacent_comment() {
        let out = findings("static ORDER: Ordering = Ordering::Relaxed;\n");
        assert_eq!(out.len(), 1, "{out:?}");
        let out = findings(
            "// relaxed: constant used only for stats loads\n\
             static ORDER: Ordering = Ordering::Relaxed;\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn relaxed_in_test_code_or_strings_is_ignored() {
        let out = findings(
            "#[cfg(test)]\nmod tests {\n    fn t() { c.load(Ordering::Relaxed); }\n}\n\
             fn f() { let s = \"Ordering::Relaxed\"; }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_block_needs_safety_comment() {
        let out = findings("fn f(p: *const u8) { unsafe { p.read() }; }\n");
        assert_eq!(out.len(), 1, "{out:?}");
        let out = findings(
            "fn f(p: *const u8) {\n\
                 // SAFETY: p is non-null and aligned by construction\n\
                 unsafe { p.read() };\n\
             }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_fn_signature_is_not_a_block() {
        let out = findings("unsafe fn f() { () }\n");
        assert!(out.is_empty(), "{out:?}");
    }
}
