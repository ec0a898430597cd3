//! Human-readable and JSON-lines renderers for [`Report`]s.
//!
//! The JSON renderer emits one object per line (JSON-lines), hand-rolled so
//! the crate stays dependency-free. The shape is stable and golden-tested:
//!
//! ```json
//! {"code":"SA001","severity":"error","location":{"kind":"workload",
//!  "workload":"505.mcf_r","item":"phase 3"},"message":"...","help":"..."}
//! ```

use crate::diag::{Diagnostic, Location, Report, Rule, Severity};
use sampsim_util::json::{string, Schema};
use std::fmt::Write;

/// Renders a report in `rustc`-style human-readable form.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for d in report.diagnostics() {
        let _ = writeln!(out, "{}[{}]: {}", d.severity, d.rule, d.message);
        let _ = writeln!(out, "  --> {}", d.location);
        let _ = writeln!(out, "  help: {}", d.help);
    }
    if !report.is_empty() {
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} note(s)",
            report.count(Severity::Error),
            report.count(Severity::Warning),
            report.count(Severity::Note),
        );
    }
    out
}

/// Renders a report as JSON lines, one diagnostic per line.
pub fn render_json_lines(report: &Report) -> String {
    let mut out = String::new();
    for d in report.diagnostics() {
        out.push_str(&diagnostic_json(d));
        out.push('\n');
    }
    out
}

/// The schema of one [`diagnostic_json`] object, shared by every reader
/// of diagnostics: the `lint --format json` line check and the
/// `soundness` array of a plan report.
pub const DIAGNOSTIC: Schema = {
    use Schema::*;
    // `item` is empty when the diagnostic is about the whole workload.
    const WORKLOAD: Schema = Object(&[
        ("kind", Tag("workload")),
        ("workload", NonEmptyStr),
        ("item", Str),
    ]);
    const CONFIG: Schema = Object(&[("kind", Tag("config")), ("field", NonEmptyStr)]);
    const ARTIFACT: Schema = Object(&[("kind", Tag("artifact")), ("path", NonEmptyStr)]);
    Object(&[
        ("code", OneOf(Rule::CODES)),
        ("severity", OneOf(&["error", "warning", "note"])),
        ("location", Tagged(&[WORKLOAD, CONFIG, ARTIFACT])),
        ("message", NonEmptyStr),
        ("help", NonEmptyStr),
    ])
};

/// Renders one diagnostic as a single-line JSON object.
pub fn diagnostic_json(d: &Diagnostic) -> String {
    format!(
        "{{\"code\":{},\"severity\":{},\"location\":{},\"message\":{},\"help\":{}}}",
        string(d.rule.code()),
        string(d.severity.label()),
        location_json(&d.location),
        string(&d.message),
        string(d.help)
    )
}

fn location_json(loc: &Location) -> String {
    match loc {
        Location::Workload { workload, item } => format!(
            "{{\"kind\":\"workload\",\"workload\":{},\"item\":{}}}",
            string(workload),
            string(item)
        ),
        Location::Config { field } => {
            format!("{{\"kind\":\"config\",\"field\":{}}}", string(field))
        }
        Location::Artifact { path } => {
            format!("{{\"kind\":\"artifact\",\"path\":{}}}", string(path))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Location, Rule};

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Rule::DanglingBlockRef,
            Location::workload_item("demo", "phase 0"),
            "block 9 of 1",
        ));
        r.push(Diagnostic::new(
            Rule::UnreachablePhase,
            Location::workload_item("demo", "phase 2"),
            "never scheduled",
        ));
        r
    }

    #[test]
    fn human_rendering_mentions_code_location_help() {
        let text = render_human(&sample());
        assert!(text.contains("error[SA001]: block 9 of 1"));
        assert!(text.contains("--> workload `demo`, phase 0"));
        assert!(text.contains("warning[SA003]"));
        assert!(text.contains("help: "));
        assert!(text.contains("1 error(s), 1 warning(s), 0 note(s)"));
    }

    #[test]
    fn empty_report_renders_empty() {
        assert_eq!(render_human(&Report::new()), "");
        assert_eq!(render_json_lines(&Report::new()), "");
    }

    #[test]
    fn json_lines_conform_to_the_diagnostic_schema() {
        let mut report = sample();
        report.push(Diagnostic::new(
            Rule::EmptyPhase,
            Location::workload("whole"),
            "tricky \"quoted\" \\ text\nwith\ttabs \u{1}",
        ));
        report.push(Diagnostic::new(
            Rule::EmptyPhase,
            Location::config("simpoint.max_k"),
            "c",
        ));
        for line in render_json_lines(&report).lines() {
            sampsim_util::json::validate(line, &DIAGNOSTIC).unwrap();
        }
        let bad = diagnostic_json(&report.diagnostics()[0]).replace("\"warning\"", "\"fatal\"");
        let bad = bad.replace("\"error\"", "\"fatal\"");
        let err = sampsim_util::json::validate(&bad, &DIAGNOSTIC).unwrap_err();
        assert!(err.contains("severity"), "{err}");
    }

    #[test]
    fn json_lines_one_object_per_diagnostic() {
        let text = render_json_lines(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"code\":\"SA001\""));
        assert!(lines[0].ends_with("}"));
        assert!(lines[1].contains("\"severity\":\"warning\""));
    }
}
