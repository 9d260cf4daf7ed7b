//! End-to-end EMR pipeline: from raw access events to audit decisions.
//!
//! This example exercises the *full* substrate rather than the calibrated
//! alert stream: it builds a synthetic hospital population, generates raw
//! `⟨employee, patient, time⟩` access events with a workday diurnal profile,
//! runs the breach-detection rule engine (same last name, department
//! co-worker, neighbor, same address and their combinations), and finally
//! replays the resulting typed alert stream through the Signaling Audit Game.
//!
//! Run with: `cargo run --release --example emr_pipeline [seed]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sag::prelude::*;
use sag::sim::access::{AccessConfig, AccessGenerator};
use sag::sim::population::{Population, PopulationConfig};
use sag::sim::rules::RuleEngine;
use sag::sim::stream::count_by_type;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. A synthetic hospital world: employees, patients, names, addresses.
    let population = Population::generate(&PopulationConfig::default(), &mut rng);
    println!(
        "population: {} employees, {} patients ({} are both)",
        population.employees().len(),
        population.patients().len(),
        population
            .employees()
            .iter()
            .filter(|e| population.patients().contains(e))
            .count()
    );

    // 2. Raw access events for a training window and one test day.
    let generator = AccessGenerator::new(AccessConfig::default());
    let engine = RuleEngine::new(AlertCatalog::paper_table1());
    let training_days = 10u32;

    let mut history: Vec<DayLog> = Vec::new();
    for day in 0..training_days {
        let accesses = generator.generate_day(&population, day, &mut rng);
        let alerts = engine.evaluate_day(&population, &accesses);
        history.push(DayLog::new(day, alerts));
    }
    let test_accesses = generator.generate_day(&population, training_days, &mut rng);
    let test_alerts = engine.evaluate_day(&population, &test_accesses);
    let test_day = DayLog::new(training_days, test_alerts);

    println!(
        "rule engine: {} accesses on the test day -> {} alerts ({:.2}% alert rate)",
        test_accesses.len(),
        test_day.len(),
        100.0 * test_day.len() as f64 / test_accesses.len().max(1) as f64
    );
    let counts = count_by_type(test_day.alerts(), 7);
    for (i, info) in AlertCatalog::paper_table1().types().iter().enumerate() {
        println!(
            "  type {:<2} {:<52} {:>5}",
            i + 1,
            info.description,
            counts[i]
        );
    }

    // 3. Run the audit game over the rule engine's alerts. The alert volumes
    //    of this small world differ from the paper's hospital, so scale the
    //    budget to roughly the same coverage ratio (budget ~ 10% of alerts).
    let audit_engine = EngineBuilder::paper_multi_type()
        .budget((test_day.len() as f64 * 0.10).max(5.0))
        .build()
        .expect("valid configuration");
    let result = audit_engine
        .open_day(&history, None)
        .and_then(|session| session.drive(&test_day))
        .expect("replay succeeds");

    let summary = ExperimentSummary::from_cycles(std::slice::from_ref(&result));
    println!(
        "\naudit game over the detected alerts (budget {:.0})",
        audit_engine.config().game.budget
    );
    println!("  mean utility, OSSP        : {:8.2}", summary.mean_ossp);
    println!("  mean utility, online SSE  : {:8.2}", summary.mean_online);
    println!("  mean utility, offline SSE : {:8.2}", summary.mean_offline);
    println!(
        "  OSSP >= online SSE        : {:.1}% of alerts",
        summary.fraction_ossp_not_worse * 100.0
    );
}
