//! `hot-alloc`: no allocating calls inside hot-path functions.
//!
//! The `_into` / `_scratch` naming convention in `tspg-core` marks
//! functions on the steady-state query path: they must write into
//! caller-provided buffers and never allocate (the zero-steady-state-
//! allocation discipline from the scratch-buffer refactor). This rule
//! flags the allocating constructs a lexical scan can see — container
//! constructors, `Box`/`Rc`/`Arc::new`, `vec!`/`format!`, and owning
//! conversion methods like `.clone()` / `.to_vec()` / `.collect()`.

use crate::diagnostics::Diagnostic;
use crate::tokens::TokenKind;
use crate::{LintContext, SourceFile};

use super::Rule;

/// Container and smart-pointer types whose associated constructors
/// allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Box", "Rc", "Arc", "String",
];

/// Associated functions on [`ALLOC_TYPES`] that allocate.
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "from_iter"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Methods that produce a fresh owned allocation from a borrow.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string", "collect"];

/// See the module docs.
pub struct HotAlloc;

/// True for function names the hot-path naming convention covers.
pub(crate) fn is_hot_name(name: &str) -> bool {
    name.ends_with("_into")
        || name.ends_with("_scratch")
        || name.contains("_into_")
        || name.contains("_scratch_")
}

impl Rule for HotAlloc {
    fn name(&self) -> &'static str {
        "hot-alloc"
    }

    fn description(&self) -> &'static str {
        "allocating call inside a `*_into`/`*_scratch` hot-path function in tspg-core"
    }

    fn check(&self, ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &ctx.files {
            if !file.rel_path.starts_with("crates/core/src/") {
                continue;
            }
            scan_file(file, &mut out);
        }
        out
    }
}

fn scan_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for (j, tok) in code.iter().enumerate() {
        let Some(what) = match_alloc(file, j) else { continue };
        if file.in_test(j) {
            continue;
        }
        // Attribute the hit to the innermost enclosing function so a
        // non-hot helper nested inside a hot function is not blamed on
        // its parent.
        let Some(enclosing) = file.enclosing_fn(j) else { continue };
        if !is_hot_name(&enclosing.name) {
            continue;
        }
        out.push(file.diag(
            tok,
            "hot-alloc",
            format!(
                "allocating call `{what}` in hot-path function `{}` \
                 (zero-steady-state-allocation discipline: write into \
                 caller-provided scratch instead)",
                enclosing.name
            ),
        ));
    }
}

/// If the code tokens starting at `j` form an allocating construct,
/// return its display form. (Shared with `hot-alloc-transitive`, which
/// propagates the same allocation predicate through the call graph.)
pub(crate) fn match_alloc(file: &SourceFile, j: usize) -> Option<String> {
    let code = &file.code;
    let tok = &code[j];
    if tok.kind == TokenKind::Ident {
        // `Vec::new(`-style constructor paths.
        if ALLOC_TYPES.contains(&tok.text.as_str())
            && code.get(j + 1).is_some_and(|t| t.is_punct("::"))
            && code.get(j + 2).is_some_and(|t| {
                t.kind == TokenKind::Ident && ALLOC_CTORS.contains(&t.text.as_str())
            })
        {
            return Some(format!("{}::{}", tok.text, code[j + 2].text));
        }
        // `vec![…]` / `format!(…)`.
        if ALLOC_MACROS.contains(&tok.text.as_str())
            && code.get(j + 1).is_some_and(|t| t.is_punct("!"))
        {
            return Some(format!("{}!", tok.text));
        }
    }
    // `.clone()` / `.collect()` / `.collect::<…>()` method calls.
    if tok.is_punct(".")
        && code
            .get(j + 1)
            .is_some_and(|t| t.kind == TokenKind::Ident && ALLOC_METHODS.contains(&t.text.as_str()))
        && code.get(j + 2).is_some_and(|t| t.is_punct("(") || t.is_punct("::"))
    {
        return Some(format!(".{}()", code[j + 1].text));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn findings(src: &str) -> Vec<String> {
        let file = SourceFile::new("crates/core/src/x.rs".into(), src.into());
        let mut out = Vec::new();
        scan_file(&file, &mut out);
        out.into_iter().map(|d| d.message).collect()
    }

    #[test]
    fn flags_constructors_macros_and_methods_in_hot_fns() {
        let msgs = findings(
            "fn fill_into(out: &mut Vec<u32>) {\n\
                 let v = Vec::new();\n\
                 let s = format!(\"x\");\n\
                 let c = out.clone();\n\
                 let t: Vec<u32> = out.iter().copied().collect();\n\
             }\n",
        );
        assert_eq!(msgs.len(), 4, "{msgs:?}");
        assert!(msgs[0].contains("Vec::new"));
        assert!(msgs[1].contains("format!"));
        assert!(msgs[2].contains(".clone()"));
        assert!(msgs[3].contains(".collect()"));
    }

    #[test]
    fn turbofish_collect_is_flagged() {
        let msgs = findings("fn drain_scratch(xs: &[u32]) { xs.iter().collect::<Vec<_>>(); }\n");
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains(".collect()"));
    }

    #[test]
    fn non_hot_functions_and_tests_are_ignored() {
        let msgs = findings(
            "fn build() -> Vec<u32> { Vec::new() }\n\
             #[cfg(test)]\nmod tests {\n    fn helper_into() { let v = Vec::new(); }\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn nested_non_hot_helper_is_not_blamed_on_hot_parent() {
        let msgs = findings(
            "fn fill_into() {\n    fn cold_helper() { let v = Vec::new(); }\n    cold_helper();\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn strings_and_comments_do_not_trip_the_rule() {
        let msgs = findings(
            "fn fill_into() {\n\
                 // Vec::new() would allocate here\n\
                 let s = \"Vec::new()\";\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn files_outside_core_are_out_of_scope() {
        let file = SourceFile::new(
            "crates/server/src/x.rs".into(),
            "fn fill_into() { let v = Vec::new(); }\n".into(),
        );
        let ctx = crate::LintContext::from_parts(std::path::PathBuf::from("."), vec![file]);
        assert!(HotAlloc.check(&ctx).is_empty());
    }
}
