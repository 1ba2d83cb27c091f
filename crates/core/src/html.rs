//! Self-contained HTML rendering of oracle reports, for sharing triage
//! results outside the terminal.

use crate::diff::DiffResult;
use crate::policy::render_dnf;
use crate::report::ReportGroup;
use std::fmt::Write as _;

/// Escapes text for HTML contexts.
fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '&' => "&amp;".chars().collect::<Vec<_>>(),
            '<' => "&lt;".chars().collect(),
            '>' => "&gt;".chars().collect(),
            '"' => "&quot;".chars().collect(),
            other => vec![other],
        })
        .collect()
}

/// Renders a pairing's grouped report as a single self-contained HTML
/// document (inline CSS, no external assets).
pub fn render_html(result: &DiffResult, groups: &[ReportGroup]) -> String {
    let mut sorted: Vec<&ReportGroup> = groups.iter().collect();
    sorted.sort_by_key(|g| std::cmp::Reverse(g.manifestation_count()));
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    let _ = writeln!(
        out,
        "<title>security policy oracle: {} vs {}</title>",
        esc(&result.left_name),
        esc(&result.right_name)
    );
    out.push_str(
        "<style>\
         body{font-family:system-ui,sans-serif;margin:2rem;max-width:70rem}\
         h1{font-size:1.4rem} .summary{color:#444}\
         .group{border:1px solid #ccc;border-radius:6px;padding:0.8rem 1rem;margin:1rem 0}\
         .kind{font-weight:600} .cause{font-size:0.85rem;color:#666;margin-left:0.5rem}\
         .delta{color:#b00020;font-family:monospace}\
         table{border-collapse:collapse;margin:0.5rem 0}\
         td,th{border:1px solid #ddd;padding:0.25rem 0.6rem;font-family:monospace;font-size:0.85rem}\
         .manifests{font-size:0.85rem;color:#333}\
         </style></head><body>\n",
    );
    let _ = write!(
        out,
        "<h1>Policy differences: {} vs {}</h1>\n<p class=\"summary\">{} matching APIs, \
         {} distinct difference(s), {} manifestation(s).</p>\n",
        esc(&result.left_name),
        esc(&result.right_name),
        result.matching_apis,
        groups.len(),
        groups
            .iter()
            .map(ReportGroup::manifestation_count)
            .sum::<usize>(),
    );
    for g in sorted {
        let d = &g.representative;
        out.push_str("<div class=\"group\">\n");
        let _ = writeln!(
            out,
            "<div><span class=\"kind\">{}</span><span class=\"cause\">{} cause, {} \
             manifestation(s)</span></div>",
            esc(&d.kind.to_string()),
            g.cause,
            g.manifestation_count(),
        );
        let _ = writeln!(
            out,
            "<div>delta checks: <span class=\"delta\">{}</span></div>",
            esc(&d.delta.to_string())
        );
        let _ = writeln!(
            out,
            "<table><tr><th></th><th>must</th><th>may (per path)</th></tr>\
             <tr><td>{}</td><td>{}</td><td>{}</td></tr>\
             <tr><td>{}</td><td>{}</td><td>{}</td></tr></table>",
            esc(&result.left_name),
            esc(&d.left.must.to_string()),
            esc(&render_dnf(&d.left.may_paths)),
            esc(&result.right_name),
            esc(&d.right.must.to_string()),
            esc(&render_dnf(&d.right.may_paths)),
        );
        if !d.origins.is_empty() {
            let origins: Vec<String> = d.origins.iter().map(|o| esc(o)).collect();
            let _ = writeln!(out, "<div>implicated methods: {}</div>", origins.join(", "));
        }
        let sample: Vec<String> = g.manifestations.iter().take(6).map(|m| esc(m)).collect();
        let _ = writeln!(
            out,
            "<div class=\"manifests\">e.g. {}{}</div>",
            sample.join(", "),
            if g.manifestations.len() > 6 {
                ", …"
            } else {
                ""
            },
        );
        out.push_str("</div>\n");
    }
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::{Check, CheckSet};
    use crate::diff::{DifferenceKind, PolicyDifference, SideEvidence};
    use crate::events::EventKey;
    use crate::report::{group_differences, RootCause};

    fn sample() -> (DiffResult, Vec<ReportGroup>) {
        let diff = PolicyDifference {
            signature: "api.C.m(int)".into(),
            kind: DifferenceKind::CheckSetMismatch {
                event: EventKey::Native("write0<script>".into()),
            },
            left: SideEvidence {
                may: CheckSet::of(Check::Write),
                must: CheckSet::empty(),
                may_paths: spo_dataflow::Dnf::of(CheckSet::of(Check::Write).bits()),
            },
            right: SideEvidence::default(),
            origins: ["api.C.helper".into()].into(),
            delta: CheckSet::of(Check::Write),
        };
        let result = DiffResult {
            left_name: "vendor<a>".into(),
            right_name: "vendor-b".into(),
            matching_apis: 3,
            differences: vec![diff],
        };
        let groups = group_differences(&result, &Default::default());
        (result, groups)
    }

    #[test]
    fn html_contains_the_report_content() {
        let (result, groups) = sample();
        let html = render_html(&result, &groups);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("checkWrite"));
        assert!(html.contains("api.C.helper"));
        assert!(html.contains("api.C.m(int)"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn html_escapes_untrusted_names() {
        let (result, groups) = sample();
        let html = render_html(&result, &groups);
        assert!(!html.contains("<script>"), "event name must be escaped");
        assert!(html.contains("&lt;script&gt;"));
        assert!(html.contains("vendor&lt;a&gt;"));
    }

    #[test]
    fn groups_sorted_by_manifestations() {
        let (result, mut groups) = sample();
        // Add a bigger group and confirm it renders first.
        let mut big = groups[0].clone();
        big.root_key = "other".into();
        big.manifestations = (0..5).map(|i| format!("api.Big.m{i}()")).collect();
        big.representative.delta = CheckSet::of(Check::Exit);
        big.cause = RootCause::Interprocedural;
        groups.push(big);
        let html = render_html(&result, &groups);
        let big_pos = html.find("checkExit").unwrap();
        let small_pos = html.find("checkWrite").unwrap();
        assert!(big_pos < small_pos);
    }
}
