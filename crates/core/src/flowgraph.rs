//! Value-flow graph rendering for manual triage.
//!
//! The paper requires that reported errors "are verified using the value
//! flow graphs manually" (§1) and that false positives are "manually
//! identified with the aid of the value flow graphs representing the flow
//! of values from unmonitored non-core values to the critical data" (§4).
//! This module renders those graphs, one Graphviz DOT digraph per error,
//! from the report document, so a replayed run draws them as well as an
//! analyzed one.

use crate::Json;

/// Renders one error's value-flow path as a Graphviz DOT digraph. `error`
/// is one element of the `errors` array of a report's JSON form
/// ([`crate::AnalysisResult::report_json`], the `report` member of the
/// report document): its `critical`, `function` and `flow` members (each flow
/// step a `what` and a `location`) are drawn.
///
/// # Examples
///
/// ```
/// use safeflow::{Analyzer, AnalysisConfig};
/// use safeflow::flowgraph::error_to_dot;
///
/// let src = r#"
///     typedef struct { float c; } D;
///     D *nc;
///     void *shmat(int a, void *b, int c);
///     void send(float v);
///     void init(void)
///     /** SafeFlow Annotation shminit */
///     {
///         nc = (D *) shmat(0, 0, 0);
///         /** SafeFlow Annotation
///             assume(shmvar(nc, sizeof(D)))
///             assume(noncore(nc))
///         */
///     }
///     int main() {
///         float out;
///         init();
///         out = nc->c;
///         /** SafeFlow Annotation assert(safe(out)) */
///         send(out);
///         return 0;
///     }
/// "#;
/// let result = Analyzer::new(AnalysisConfig::default())
///     .analyze_source("t.c", src)
///     .unwrap();
/// let Some(safeflow::Json::Arr(errors)) = result.report_json.get("errors") else { panic!() };
/// let dot = error_to_dot(&errors[0]);
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("->"));
/// ```
pub fn error_to_dot(error: &Json) -> String {
    let mut out = String::from("digraph valueflow {\n");
    out.push_str("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");
    let path = error.arr_member("flow");
    if path.is_empty() {
        out.push_str(&format!(
            "  sink [label=\"{}\", style=filled, fillcolor=\"#ffdddd\"];\n",
            escape(&format!(
                "critical `{}` in `{}`",
                error.str_member("critical"),
                error.str_member("function")
            ))
        ));
    }
    for (i, step) in path.iter().enumerate() {
        let (what, loc) = (step.str_member("what"), step.str_member("location"));
        let color = if i == 0 {
            ", style=filled, fillcolor=\"#ffeecc\"" // source
        } else if i + 1 == path.len() {
            ", style=filled, fillcolor=\"#ffdddd\"" // sink
        } else {
            ""
        };
        out.push_str(&format!("  n{i} [label=\"{}\\n{}\"{color}];\n", escape(what), escape(loc)));
        if i > 0 {
            out.push_str(&format!("  n{} -> n{};\n", i - 1, i));
        }
    }
    out.push_str("}\n");
    out
}

/// Escapes a string for use inside a double-quoted DOT label: backslash,
/// quote, and the common whitespace controls get escape sequences; any
/// other control character would make the output invalid DOT, so it is
/// dropped.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {}
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisConfig, Analyzer};

    const SRC: &str = r#"
        typedef struct { float c; } D;
        D *nc;
        void *shmat(int a, void *b, int c);
        void send(float v);
        void init(void)
        /** SafeFlow Annotation shminit */
        {
            nc = (D *) shmat(0, 0, 0);
            /** SafeFlow Annotation
                assume(shmvar(nc, sizeof(D)))
                assume(noncore(nc))
            */
        }
        int main() {
            float out;
            init();
            out = nc->c;
            /** SafeFlow Annotation assert(safe(out)) */
            send(out);
            return 0;
        }
    "#;

    /// The DOT of the first error in `SRC`'s report.
    fn first_error_dot() -> String {
        let result = Analyzer::new(AnalysisConfig::default()).analyze_source("t.c", SRC).unwrap();
        let Some(Json::Arr(errors)) = result.report_json.get("errors") else {
            panic!("no errors array")
        };
        error_to_dot(&errors[0])
    }

    #[test]
    fn dot_contains_source_and_sink() {
        let dot = first_error_dot();
        assert!(dot.contains("digraph valueflow"));
        assert!(dot.contains("non-core"), "{dot}");
        assert!(dot.contains("assert(safe(out))"), "{dot}");
        assert!(dot.contains("n0 -> n1"));
    }

    /// Counts quote characters that actually delimit strings, honoring
    /// backslash escapes (substring matching double-counts `\\"`, where
    /// the backslash is itself escaped and the quote is a real delimiter).
    fn delimiter_quotes(line: &str) -> usize {
        let mut count = 0;
        let mut escaped = false;
        for c in line.chars() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                count += 1;
            }
        }
        count
    }

    #[test]
    fn dot_escapes_quotes() {
        // Labels contain backtick-quoted names; ensure output stays valid.
        let dot = first_error_dot();
        // No raw unescaped quote inside a label.
        for line in dot.lines() {
            assert!(delimiter_quotes(line).is_multiple_of(2), "unbalanced quotes in {line}");
        }
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\r\nb\tc"), "a\\r\\nb\\tc");
        // Other control characters are dropped, not passed through.
        assert_eq!(escape("a\u{7}b\u{1b}c"), "abc");
        // The original cases still hold.
        assert_eq!(escape(r#"a\"b"#), r#"a\\\"b"#);
    }

    #[test]
    fn quote_counter_is_backslash_aware() {
        // `\\"`: escaped backslash followed by a *real* delimiter quote —
        // naive substring counting sees `\"` here and miscounts.
        assert_eq!(delimiter_quotes(r#"label="a\\""#), 2);
        assert_eq!(delimiter_quotes(r#""a\"b""#), 2);
        assert_eq!(delimiter_quotes(r#""unterminated"#), 1);
    }
}
