//! Result aggregation: time series and summary statistics for experiments.
//!
//! The paper's Figures 2 and 3 plot, for each triggered alert of a test day,
//! the auditor's expected utility under the OSSP, the online SSE and the
//! offline SSE. [`UtilitySeries`] extracts exactly those series from a
//! [`CycleResult`]; [`ExperimentSummary`] aggregates multiple test days.

use crate::engine::CycleResult;
use sag_sim::TimeOfDay;
use std::io::{self, Write};

/// The three per-alert utility series of one test day.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilitySeries {
    /// Day index.
    pub day: u32,
    /// Arrival time of each alert.
    pub times: Vec<TimeOfDay>,
    /// OSSP (signaling) auditor utility per alert.
    pub ossp: Vec<f64>,
    /// Online SSE auditor utility per alert.
    pub online_sse: Vec<f64>,
    /// Offline SSE auditor utility per alert (constant).
    pub offline_sse: Vec<f64>,
}

impl UtilitySeries {
    /// Extract the series from a cycle result.
    #[must_use]
    pub fn from_cycle(result: &CycleResult) -> Self {
        UtilitySeries {
            day: result.day,
            times: result.outcomes.iter().map(|o| o.time).collect(),
            ossp: result.outcomes.iter().map(|o| o.ossp_utility).collect(),
            online_sse: result
                .outcomes
                .iter()
                .map(|o| o.online_sse_utility)
                .collect(),
            offline_sse: result
                .outcomes
                .iter()
                .map(|o| o.offline_sse_utility)
                .collect(),
        }
    }

    /// Number of alerts in the series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Write the series as CSV (`time,seconds,ossp,online_sse,offline_sse`),
    /// the format consumed by the plotting scripts that regenerate the
    /// figures.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "time,seconds,ossp,online_sse,offline_sse")?;
        for i in 0..self.len() {
            writeln!(
                out,
                "{},{},{:.6},{:.6},{:.6}",
                self.times[i],
                self.times[i].seconds(),
                self.ossp[i],
                self.online_sse[i],
                self.offline_sse[i]
            )?;
        }
        Ok(())
    }

    /// Down-sample the series to at most `max_points` evenly spaced points
    /// (useful for terminal-friendly summaries of dense days).
    #[must_use]
    pub fn downsample(&self, max_points: usize) -> UtilitySeries {
        let n = self.len();
        if max_points == 0 || n <= max_points {
            return self.clone();
        }
        let step = n as f64 / max_points as f64;
        let indices: Vec<usize> = (0..max_points)
            .map(|i| ((i as f64 * step) as usize).min(n - 1))
            .collect();
        UtilitySeries {
            day: self.day,
            times: indices.iter().map(|&i| self.times[i]).collect(),
            ossp: indices.iter().map(|&i| self.ossp[i]).collect(),
            online_sse: indices.iter().map(|&i| self.online_sse[i]).collect(),
            offline_sse: indices.iter().map(|&i| self.offline_sse[i]).collect(),
        }
    }
}

/// Aggregate statistics over one or more replayed test days.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSummary {
    /// Number of test days aggregated.
    pub num_days: usize,
    /// Total number of alerts across the days.
    pub num_alerts: usize,
    /// Mean per-alert auditor utility under the OSSP.
    pub mean_ossp: f64,
    /// Mean per-alert auditor utility under the online SSE.
    pub mean_online: f64,
    /// Mean per-alert auditor utility under the offline SSE.
    pub mean_offline: f64,
    /// Fraction of alerts where the OSSP is at least as good as the online
    /// SSE (Theorem 2 predicts 1.0).
    pub fraction_ossp_not_worse: f64,
    /// Mean per-alert optimization time in microseconds.
    pub mean_solve_micros: f64,
    /// Fraction of alerts on which the OSSP fully deterred an attack.
    pub fraction_deterred: f64,
}

impl ExperimentSummary {
    /// Aggregate several cycle results.
    #[must_use]
    pub fn from_cycles(cycles: &[CycleResult]) -> Self {
        let num_days = cycles.len();
        let num_alerts: usize = cycles.iter().map(CycleResult::len).sum();
        let n = num_alerts.max(1) as f64;
        let sum = |f: &dyn Fn(&crate::engine::AlertOutcome) -> f64| -> f64 {
            cycles
                .iter()
                .flat_map(|c| c.outcomes.iter())
                .map(f)
                .sum::<f64>()
        };
        let not_worse = cycles
            .iter()
            .flat_map(|c| c.outcomes.iter())
            .filter(|o| o.ossp_utility >= o.online_sse_utility - 1e-9)
            .count();
        let deterred = cycles
            .iter()
            .flat_map(|c| c.outcomes.iter())
            .filter(|o| o.ossp_deterred)
            .count();
        ExperimentSummary {
            num_days,
            num_alerts,
            mean_ossp: sum(&|o| o.ossp_utility) / n,
            mean_online: sum(&|o| o.online_sse_utility) / n,
            mean_offline: sum(&|o| o.offline_sse_utility) / n,
            fraction_ossp_not_worse: not_worse as f64 / n,
            mean_solve_micros: sum(&|o| o.solve_micros as f64) / n,
            fraction_deterred: deterred as f64 / n,
        }
    }

    /// Improvement of the OSSP over the online SSE in mean utility.
    #[must_use]
    pub fn ossp_gain_over_online(&self) -> f64 {
        self.mean_ossp - self.mean_online
    }

    /// Improvement of the OSSP over the offline SSE in mean utility.
    #[must_use]
    pub fn ossp_gain_over_offline(&self) -> f64 {
        self.mean_ossp - self.mean_offline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AuditCycleEngine, EngineConfig};
    use sag_sim::{StreamConfig, StreamGenerator};

    fn run_single_type_day(seed: u64) -> CycleResult {
        let mut gen = StreamGenerator::new(StreamConfig::paper_single_type(seed));
        let (history, mut tests) = gen.generate_split(15, 1);
        let engine = AuditCycleEngine::new(EngineConfig::paper_single_type()).unwrap();
        engine
            .open_day(&history, None)
            .unwrap()
            .drive(&tests.remove(0))
            .unwrap()
    }

    #[test]
    fn series_extraction_matches_outcomes() {
        let result = run_single_type_day(1);
        let series = UtilitySeries::from_cycle(&result);
        assert_eq!(series.len(), result.len());
        assert!(!series.is_empty());
        assert_eq!(series.ossp[0], result.outcomes[0].ossp_utility);
        assert_eq!(series.online_sse[3], result.outcomes[3].online_sse_utility);
        // Offline is flat.
        assert!(series.offline_sse.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn csv_output_has_one_row_per_alert() {
        let result = run_single_type_day(2);
        let series = UtilitySeries::from_cycle(&result);
        let mut buf = Vec::new();
        series.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), series.len() + 1);
        assert!(text.starts_with("time,seconds,ossp,online_sse,offline_sse"));
    }

    #[test]
    fn downsampling_preserves_endpoints_and_bounds() {
        let result = run_single_type_day(3);
        let series = UtilitySeries::from_cycle(&result);
        let small = series.downsample(20);
        assert_eq!(small.len(), 20.min(series.len()));
        assert_eq!(small.times[0], series.times[0]);
        // Unchanged when already small enough.
        assert_eq!(series.downsample(10_000).len(), series.len());
        assert_eq!(series.downsample(0).len(), series.len());
    }

    #[test]
    fn summary_aggregates_and_reflects_theorem2() {
        // Seeds chosen so the replay contains at least one deterred alert.
        let results = vec![run_single_type_day(3), run_single_type_day(11)];
        let summary = ExperimentSummary::from_cycles(&results);
        assert_eq!(summary.num_days, 2);
        assert_eq!(summary.num_alerts, results[0].len() + results[1].len());
        assert!((summary.fraction_ossp_not_worse - 1.0).abs() < 1e-12);
        assert!(summary.ossp_gain_over_online() > 0.0);
        assert!(summary.ossp_gain_over_offline() >= 0.0);
        assert!(summary.mean_solve_micros > 0.0);
        assert!(summary.fraction_deterred > 0.0);
    }

    #[test]
    fn summary_of_empty_input_is_well_defined() {
        let summary = ExperimentSummary::from_cycles(&[]);
        assert_eq!(summary.num_days, 0);
        assert_eq!(summary.num_alerts, 0);
        assert_eq!(summary.mean_ossp, 0.0);
    }
}
