//! Rendering of experiment results: plain-text tables for the paper's
//! tables and figures, and the [`Json`] tree every machine-readable BENCH
//! report is built as and printed by.

use crate::experiments::{ExperimentOutput, RollbackAblation, RuntimeStats, Table1Row};
use sag_core::metrics::ExperimentSummary;
use sag_core::model::PayoffTable;
use sag_sim::AlertTypeId;
use std::fmt::Write as _;

/// One value of a BENCH report (`BENCH_1.json`, `BENCH_2.json` and the
/// sections `load_gen` merges into it). Every report is built as a `Json`
/// tree and printed by [`Json::render`], the one JSON writer of this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An object; members keep their insertion order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A non-negative integer.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string, escaped on output by `json_escape`.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl Json {
    /// An empty object, to be filled with [`field`](Self::field).
    #[must_use]
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Append member `key`.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object (a bug in the report builder).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Object(members) = &mut self else {
            panic!("member {key:?} added to a non-object");
        };
        members.push((key.to_owned(), value.into()));
        self
    }

    /// Append member `key` as a float with `decimals` decimals.
    #[must_use]
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Json {
        self.field(key, Json::Fixed(value, decimals))
    }

    /// Append member `key` only when `value` is present.
    #[must_use]
    pub fn maybe(self, key: &str, value: Option<impl Into<Json>>) -> Json {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }

    /// The value at a dotted `path` of object keys and array indices
    /// (`"lp_kernel.sizes.2.speedup"`); `None` when any step is missing.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |node, step| match node {
            Json::Object(members) => members.iter().find(|(k, _)| k == step).map(|(_, v)| v),
            Json::Array(items) => items.get(step.parse::<usize>().ok()?),
            _ => None,
        })
    }

    /// The pretty-printed JSON text: two-space indent, one member or
    /// element per line, no trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        self.render_at(0)
    }

    /// [`render`](Self::render) as if nested `depth` levels deep: the first
    /// line is not indented, every following line is.
    pub(crate) fn render_at(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, depth);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
        match self {
            Json::Object(members) if members.is_empty() => out.push_str("{}"),
            Json::Array(items) if items.is_empty() => out.push_str("[]"),
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, depth + 1);
                    let _ = write!(out, "\"{}\": ", json_escape(key));
                    value.write(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push(']');
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Fixed(x, decimals) => {
                let _ = write!(out, "{x:.decimals$}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the reproduced Table 1 (paper vs. measured daily statistics).
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<3} {:<52} {:>11} {:>10} {:>14} {:>13}",
        "ID", "Alert Type Description", "Paper Mean", "Paper Std", "Measured Mean", "Measured Std"
    );
    let _ = writeln!(out, "{}", "-".repeat(108));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<3} {:<52} {:>11.2} {:>10.2} {:>14.2} {:>13.2}",
            row.id,
            row.description,
            row.paper_mean,
            row.paper_std,
            row.measured_mean,
            row.measured_std
        );
    }
    out
}

/// Render the payoff structures of Table 2.
#[must_use]
pub fn render_table2(payoffs: &PayoffTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "Type ID", "Ud,c", "Ud,u", "Ua,c", "Ua,u"
    );
    let _ = writeln!(out, "{}", "-".repeat(46));
    for t in 0..payoffs.len() {
        let p = payoffs.get(AlertTypeId(t as u16));
        let _ = writeln!(
            out,
            "{:<8} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
            t + 1,
            p.auditor_covered,
            p.auditor_uncovered,
            p.attacker_covered,
            p.attacker_uncovered
        );
    }
    out
}

/// Render an experiment summary as a small table.
#[must_use]
pub fn render_summary(label: &str, summary: &ExperimentSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {label} ==");
    let _ = writeln!(out, "test days             : {}", summary.num_days);
    let _ = writeln!(out, "alerts processed      : {}", summary.num_alerts);
    let _ = writeln!(out, "mean utility  OSSP    : {:>10.2}", summary.mean_ossp);
    let _ = writeln!(out, "mean utility  online  : {:>10.2}", summary.mean_online);
    let _ = writeln!(
        out,
        "mean utility  offline : {:>10.2}",
        summary.mean_offline
    );
    let _ = writeln!(
        out,
        "OSSP >= online SSE    : {:>9.1}%",
        summary.fraction_ossp_not_worse * 100.0
    );
    let _ = writeln!(
        out,
        "attacks deterred      : {:>9.1}%",
        summary.fraction_deterred * 100.0
    );
    let _ = writeln!(
        out,
        "mean solve time       : {:>8.1} us/alert",
        summary.mean_solve_micros
    );
    out
}

/// Render a figure experiment: per-day down-sampled series plus the summary.
#[must_use]
pub fn render_figure(label: &str, output: &ExperimentOutput, points_per_day: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {label}");
    for series in &output.series {
        let small = series.downsample(points_per_day);
        let _ = writeln!(out, "-- day {} ({} alerts) --", series.day, series.len());
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>12}",
            "time", "OSSP", "online SSE", "offline SSE"
        );
        for i in 0..small.len() {
            let _ = writeln!(
                out,
                "{:<10} {:>12.2} {:>12.2} {:>12.2}",
                small.times[i].to_string(),
                small.ossp[i],
                small.online_sse[i],
                small.offline_sse[i]
            );
        }
    }
    out.push('\n');
    out.push_str(&render_summary(
        &format!("{label} summary"),
        &output.summary,
    ));
    out
}

/// Render the runtime experiment result.
#[must_use]
pub fn render_runtime(stats: &RuntimeStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "alerts timed          : {}", stats.alerts);
    let _ = writeln!(
        out,
        "mean per-alert solve  : {:>10.1} us",
        stats.mean_micros
    );
    let _ = writeln!(out, "max  per-alert solve  : {:>10.1} us", stats.max_micros);
    let _ = writeln!(
        out,
        "whole-day replay      : {:>10.1} ms",
        stats.total_millis
    );
    let _ = writeln!(
        out,
        "paper reference       : ~20000.0 us per alert (Mac laptop, 2017 hardware)"
    );
    out
}

/// Render the rollback ablation.
#[must_use]
pub fn render_rollback(ablation: &RollbackAblation) -> String {
    let mut out = String::new();
    out.push_str(&render_summary(
        "with knowledge rollback",
        &ablation.with_rollback,
    ));
    out.push('\n');
    out.push_str(&render_summary(
        "without knowledge rollback",
        &ablation.without_rollback,
    ));
    let _ = writeln!(out);
    let _ = writeln!(out, "coverage of the last alert of each test day:");
    let _ = writeln!(
        out,
        "{:<8} {:>16} {:>18}",
        "day", "with rollback", "without rollback"
    );
    for (i, (w, wo)) in ablation
        .final_coverage_with
        .iter()
        .zip(&ablation.final_coverage_without)
        .enumerate()
    {
        let _ = writeln!(out, "{:<8} {:>16.4} {:>18.4}", i, w, wo);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{table1_experiment, FigureExperimentConfig};

    #[test]
    fn table1_rendering_contains_every_type() {
        let rows = table1_experiment(1, 8);
        let text = render_table1(&rows);
        assert_eq!(text.lines().count(), 2 + rows.len());
        assert!(text.contains("Same Last Name"));
        assert!(text.contains("196.57"));
    }

    #[test]
    fn table2_rendering_matches_paper_constants() {
        let text = render_table2(&PayoffTable::paper_table2());
        assert!(text.contains("-2000"));
        assert!(text.contains("800"));
        assert_eq!(text.lines().count(), 2 + 7);
    }

    #[test]
    fn figure_rendering_is_nonempty_and_downsampled() {
        let output = crate::run_figure_experiment(&FigureExperimentConfig::quick(2, true));
        let text = render_figure("Figure 2 (quick)", &output, 10);
        assert!(text.contains("OSSP"));
        assert!(text.contains("summary"));
        // Down-sampling keeps the report bounded.
        assert!(text.lines().count() < 60);
    }

    #[test]
    fn json_renders_nested_pretty_text() {
        let tree = Json::object()
            .field("bench", "x \"y\"")
            .field("alerts", 3u64)
            .fixed("rate", 0.123_456, 4)
            .field("ok", true)
            .field("empty", Json::object())
            .field("none", Vec::<Json>::new())
            .field(
                "rows",
                vec![Json::object().fixed("p50", 11.0, 1), Json::Int(7)],
            )
            .maybe("note", None::<&str>);
        assert_eq!(
            tree.render(),
            "{\n  \"bench\": \"x \\\"y\\\"\",\n  \"alerts\": 3,\n  \"rate\": 0.1235,\n  \
             \"ok\": true,\n  \"empty\": {},\n  \"none\": [],\n  \"rows\": [\n    {\n      \
             \"p50\": 11.0\n    },\n    7\n  ]\n}"
        );
        assert_eq!(tree.get("alerts"), Some(&Json::Int(3)));
        assert_eq!(tree.get("rows.0.p50"), Some(&Json::Fixed(11.0, 1)));
        assert_eq!(tree.get("rows.1"), Some(&Json::Int(7)));
        assert_eq!(tree.get("rows.2"), None);
        assert_eq!(tree.get("note"), None);
        assert_eq!(Json::Int(3).get("alerts"), None);
    }

    #[test]
    fn runtime_and_rollback_renderings_work() {
        let stats = crate::runtime_experiment(3, 5);
        let text = render_runtime(&stats);
        assert!(text.contains("per-alert solve"));
        let ablation = crate::rollback_ablation(3, 5, 1);
        let text = render_rollback(&ablation);
        assert!(text.contains("with knowledge rollback"));
        assert!(text.contains("without knowledge rollback"));
    }
}
