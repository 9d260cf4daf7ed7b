//! # sag-core — the Signaling Audit Game
//!
//! This crate implements the paper's contribution: an *online* audit game in
//! which, for every incoming alert, the auditor decides in real time whether
//! to warn the requestor and with what probability the alert will be audited
//! at the end of the cycle, subject to a global audit budget.
//!
//! The solution pipeline per alert is:
//!
//! 1. [`sse`] — compute the online Strong Stackelberg Equilibrium without
//!    signaling (the paper's LP (2)), yielding marginal audit probabilities
//!    `θ^t` for every alert type given the remaining budget and the forecast
//!    of future alerts;
//! 2. [`signaling`] — compute the Online Stackelberg Signaling Policy (OSSP,
//!    the paper's LP (3)) for the triggered alert's type, using `θ^t` from
//!    step 1 (justified by Theorem 1: the marginal coverage probabilities of
//!    the SAG equal those of the online SSE);
//! 3. update the remaining budget with the signal-conditional audit
//!    probability and move to the next alert ([`engine`]).
//!
//! Baselines: the same machinery without signaling ([`sse`], reported as
//! *online SSE*) and a whole-day offline SSE ([`offline`]).
//!
//! Theorems 1–4 of the paper are restated as executable checks in
//! [`theorems`] and exercised by the test suite.

#![forbid(unsafe_code)]

pub mod attacker;
pub mod bayesian;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod model;
pub mod offline;
pub mod robust;
pub mod scheme;
pub mod signaling;
pub mod sse;
pub mod theorems;

pub use bayesian::{AttackerProfile, BayesianSseInput, BayesianSseSolver};
pub use engine::{
    recommended_shards, AlertOutcome, AuditCycleEngine, CycleResult, DaySession, EngineBuilder,
    EngineConfig, OwnedDaySession, ReplayJob, Session,
};
pub use error::{ConfigError, Result, SagError};
pub use model::{GameConfig, PayoffTable, Payoffs};
pub use offline::OfflineSse;
pub use robust::{evaluate_against_oblivious, robust_ossp, RobustOsspSolution};
pub use scheme::SignalingScheme;
pub use signaling::{evaluate_scheme_under_noise, ossp_closed_form, ossp_lp, OsspSolution};
pub use sse::{SseInput, SseSolution, SseSolver};
