//! The paper's full rolling-group evaluation: 56 days of alert logs, each
//! group pairing 41 days of history with the following test day (15 groups),
//! replayed in parallel, for both the single-type and the 7-type settings.
//!
//! Usage: `cargo run --release -p sag-bench --bin repro_groups [seed] [total_days]`

use sag_bench::{report, rolling_group_summaries, FigureExperimentConfig};
use sag_core::metrics::ExperimentSummary;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2017);
    let total_days: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(56);

    for (label, single) in [
        ("single type (Figure 2 setting)", true),
        ("7 types (Figure 3 setting)", false),
    ] {
        println!("=== Rolling groups, {label}, {total_days} days, seed {seed} ===\n");
        let config = if single {
            FigureExperimentConfig::figure2(seed)
        } else {
            FigureExperimentConfig::figure3(seed)
        };
        let groups = rolling_group_summaries(&config, total_days);
        println!(
            "{:<6} {:>8} {:>8} {:>12} {:>12} {:>12} {:>10}",
            "group", "day", "alerts", "OSSP", "online SSE", "offline SSE", "OSSP>=SSE"
        );
        for g in &groups {
            println!(
                "{:<6} {:>8} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>9.1}%",
                g.group,
                g.test_day,
                g.summary.num_alerts,
                g.summary.mean_ossp,
                g.summary.mean_online,
                g.summary.mean_offline,
                g.summary.fraction_ossp_not_worse * 100.0
            );
        }
        // Aggregate across groups by averaging the per-group means weighted by
        // alert counts (done by re-aggregating the raw numbers).
        let total_alerts: usize = groups.iter().map(|g| g.summary.num_alerts).sum();
        let weighted = |f: &dyn Fn(&ExperimentSummary) -> f64| {
            groups
                .iter()
                .map(|g| f(&g.summary) * g.summary.num_alerts as f64)
                .sum::<f64>()
                / total_alerts.max(1) as f64
        };
        println!(
            "\nacross all {} groups ({} alerts):",
            groups.len(),
            total_alerts
        );
        println!(
            "  mean utility, OSSP        : {:10.2}",
            weighted(&|s| s.mean_ossp)
        );
        println!(
            "  mean utility, online SSE  : {:10.2}",
            weighted(&|s| s.mean_online)
        );
        println!(
            "  mean utility, offline SSE : {:10.2}",
            weighted(&|s| s.mean_offline)
        );
        println!();
        let _ = report::render_summary("", &groups[0].summary); // keep report linked
    }
}
