//! Diagnostic records, rendering, and suppression-pragma filtering.
//!
//! Every rule reports findings as [`Diagnostic`] values carrying a
//! `file:line:col` span, the rule name, and a one-line message. The driver
//! renders them with a source excerpt and a caret, and filters out findings
//! covered by a `// tspg-lint: allow(<rule>, ...)` pragma on the finding's
//! line or the line immediately above it.

use crate::tokens::Token;

/// A single finding produced by a lint rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path of the file the finding is in.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Name of the rule that produced the finding (e.g. `hot-alloc`).
    pub rule: &'static str,
    /// One-line human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Render the diagnostic with a source excerpt and caret marker.
    ///
    /// `source` is the full text of the file the diagnostic points into; it
    /// is used only to extract the offending line for display.
    pub fn render(&self, source: &str) -> String {
        let mut out =
            format!("{}:{}:{}: [{}] {}\n", self.path, self.line, self.col, self.rule, self.message);
        if let Some(text) = source.lines().nth(self.line as usize - 1) {
            out.push_str("    | ");
            out.push_str(text);
            out.push('\n');
            out.push_str("    | ");
            // Align the caret with the column, expanding nothing: columns are
            // byte-based on the trimmed-ASCII source this repo keeps, which is
            // close enough for a pointer line.
            for _ in 1..self.col {
                out.push(' ');
            }
            out.push_str("^\n");
        }
        out
    }
}

/// Parsed contents of a suppression pragma comment.
///
/// Syntax: `// tspg-lint: allow(rule-a, rule-b)`. The pragma suppresses the
/// listed rules on its own line and on the line immediately below it, so it
/// can either trail the offending code or sit on its own line above it.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the pragma comment starts on (1-based).
    pub line: u32,
    /// Rules the pragma allows.
    pub rules: Vec<String>,
}

/// Extract all suppression pragmas from a file's token stream.
pub fn collect_suppressions(tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for tok in tokens {
        if !tok.is_comment() {
            continue;
        }
        let body = tok.text.as_str();
        let Some(idx) = body.find("tspg-lint:") else {
            continue;
        };
        let rest = body[idx + "tspg-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(end) = args.find(')') else {
            continue;
        };
        let rules: Vec<String> = args[..end]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if !rules.is_empty() {
            out.push(Suppression { line: tok.line, rules });
        }
    }
    out
}

/// True if `diag` is covered by one of `suppressions`.
///
/// A pragma covers findings on its own line (trailing pragma) and on the
/// next line (pragma-above style).
pub fn is_suppressed(diag: &Diagnostic, suppressions: &[Suppression]) -> bool {
    suppressions.iter().any(|s| {
        (s.line == diag.line || s.line + 1 == diag.line) && s.rules.iter().any(|r| r == diag.rule)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    fn diag(line: u32, rule: &'static str) -> Diagnostic {
        Diagnostic { path: "x.rs".into(), line, col: 5, rule, message: "m".into() }
    }

    #[test]
    fn parses_trailing_and_standalone_pragmas() {
        let src = "let a = 1; // tspg-lint: allow(hot-alloc)\n\
                   // tspg-lint: allow(no-panic-in-server, relaxed-justified)\n\
                   let b = 2;\n";
        let sup = collect_suppressions(&tokenize(src));
        assert_eq!(sup.len(), 2);
        assert_eq!(sup[0].line, 1);
        assert_eq!(sup[0].rules, vec!["hot-alloc"]);
        assert_eq!(sup[1].line, 2);
        assert_eq!(sup[1].rules, vec!["no-panic-in-server", "relaxed-justified"]);
    }

    #[test]
    fn suppression_covers_same_and_next_line_only() {
        let sup = collect_suppressions(&tokenize("// tspg-lint: allow(hot-alloc)\n"));
        assert!(is_suppressed(&diag(1, "hot-alloc"), &sup));
        assert!(is_suppressed(&diag(2, "hot-alloc"), &sup));
        assert!(!is_suppressed(&diag(3, "hot-alloc"), &sup));
        assert!(!is_suppressed(&diag(2, "relaxed-justified"), &sup));
    }

    #[test]
    fn pragma_inside_string_is_ignored() {
        let sup = collect_suppressions(&tokenize("let s = \"// tspg-lint: allow(hot-alloc)\";\n"));
        assert!(sup.is_empty());
    }

    #[test]
    fn render_includes_excerpt_and_caret() {
        let src = "fn f() {\n    let v = Vec::new();\n}\n";
        let d = Diagnostic {
            path: "crates/core/src/x.rs".into(),
            line: 2,
            col: 13,
            rule: "hot-alloc",
            message: "allocation in hot path".into(),
        };
        let rendered = d.render(src);
        assert!(rendered.starts_with("crates/core/src/x.rs:2:13: [hot-alloc]"));
        assert!(rendered.contains("let v = Vec::new();"));
        assert!(rendered.contains("            ^"));
    }
}
