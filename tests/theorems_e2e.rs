//! Theorem-level integration tests: the paper's Theorems 1–4 checked on real
//! engine runs over calibrated alert streams (not just on isolated payoff
//! structures).

use sag::core::theorems;
use sag::prelude::*;

fn replay(seed: u64, single: bool) -> (EngineConfig, CycleResult) {
    let stream = if single {
        StreamConfig::paper_single_type(seed)
    } else {
        StreamConfig::paper_multi_type(seed)
    };
    let mut generator = StreamGenerator::new(stream);
    let history = generator.generate_days(15);
    let test_day = generator.generate_day(15);
    let config = if single {
        EngineConfig::paper_single_type()
    } else {
        EngineConfig::paper_multi_type()
    };
    let engine = AuditCycleEngine::new(config.clone()).unwrap();
    let session = engine.open_day(&history, None).unwrap();
    (config, session.drive(&test_day).unwrap())
}

/// Theorem 1: the OSSP scheme's marginal audit probability equals the online
/// SSE coverage of the triggered type, for every alert the SAG was applied to.
#[test]
fn theorem1_marginals_match_on_engine_runs() {
    for &single in &[true, false] {
        let (_, result) = replay(101, single);
        for outcome in &result.outcomes {
            if outcome.ossp_applied {
                assert!(
                    (outcome.ossp_scheme.audit_probability() - outcome.coverage_ossp).abs() < 1e-7,
                    "alert {} marginal {} vs coverage {}",
                    outcome.index,
                    outcome.ossp_scheme.audit_probability(),
                    outcome.coverage_ossp
                );
            }
        }
    }
}

/// Theorem 2: per alert, the OSSP auditor utility is never worse than the
/// online SSE utility.
#[test]
fn theorem2_holds_per_alert_on_engine_runs() {
    for &(seed, single) in &[(5u64, true), (7, false), (11, false)] {
        let (_, result) = replay(seed, single);
        assert!(!result.is_empty());
        assert!(
            (result.fraction_ossp_not_worse() - 1.0).abs() < 1e-12,
            "seed {seed}: OSSP worse than SSE on some alert"
        );
    }
}

/// Theorem 3: the optimal scheme never audits silently (p0 = 0) for the
/// paper's payoffs.
#[test]
fn theorem3_no_silent_audit_on_engine_runs() {
    for &single in &[true, false] {
        let (_, result) = replay(13, single);
        for outcome in &result.outcomes {
            if outcome.ossp_applied {
                assert!(
                    outcome.ossp_scheme.p0.abs() < 1e-9,
                    "alert {}: p0 = {}",
                    outcome.index,
                    outcome.ossp_scheme.p0
                );
            }
        }
    }
}

/// Theorem 4: the attacker's utility under the OSSP equals his utility under
/// the online SSE (taking deterrence into account) for every applied alert.
#[test]
fn theorem4_attacker_utility_unchanged_on_engine_runs() {
    for &single in &[true, false] {
        let (config, result) = replay(17, single);
        for outcome in &result.outcomes {
            if !outcome.ossp_applied {
                continue;
            }
            let payoffs = config.game.payoffs.get(outcome.type_id);
            let sse_attacker = payoffs.attacker_expected(outcome.coverage_ossp).max(0.0);
            assert!(
                (outcome.ossp_attacker_utility - sse_attacker).abs() < 1e-7,
                "alert {}: OSSP attacker {} vs SSE attacker {}",
                outcome.index,
                outcome.ossp_attacker_utility,
                sse_attacker
            );
        }
    }
}

/// The theorem checkers themselves agree with the engine-level observations.
#[test]
fn theorem_checkers_pass_on_paper_payoffs() {
    let table = PayoffTable::paper_table2();
    for payoffs in table.all() {
        assert_eq!(theorems::violations_over_theta_grid(payoffs, 200), 0);
    }
}
