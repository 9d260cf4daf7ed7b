//! # sag — Signaling Audit Games
//!
//! Facade crate re-exporting the public API of the SAG workspace. The front
//! door is the [`service`] layer: an [`AuditService`](service::AuditService)
//! owns an engine and a rolling alert history per tenant, hands out owned
//! [`SessionHandle`](service::SessionHandle)s, and answers a typed
//! [`Request`](service::Request)/[`Response`](service::Response) command
//! API, so one driver loop can multiplex any number of concurrent audit
//! cycles. Underneath it:
//!
//! * [`lp`] — the linear-programming substrate ([`sag_lp`]).
//! * [`sim`] — the synthetic EMR world model and alert streams ([`sag_sim`]).
//! * [`forecast`] — future-alert estimation and knowledge rollback
//!   ([`sag_forecast`]).
//! * [`core`] — the Signaling Audit Game itself: online SSE, OSSP signaling,
//!   baselines and the audit-cycle engine ([`sag_core`]).
//! * [`wal`] — crash safety: per-tenant write-ahead logs, snapshots, and a
//!   deterministic fault-injection harness ([`sag_wal`]).
//! * [`service`] — the multi-tenant front door ([`sag_service`]); built
//!   durable, it logs every mutation before acknowledging it and recovers
//!   bitwise-identical open sessions via
//!   [`ServiceBuilder::recover_from`](service::ServiceBuilder::recover_from).
//! * [`cluster`] — horizontal tenant sharding ([`sag_cluster`]): a
//!   consistent-hash [`ShardRouter`](cluster::ShardRouter) places every
//!   tenant on one of N independent `AuditService` shards (each with its
//!   own engines, pool, counters, and WAL directory) behind a
//!   [`ClusterService`](cluster::ClusterService) speaking the same typed
//!   command API — per-tenant results are bitwise-identical regardless of
//!   shard count, and recovery stays shard-local.
//! * [`scenarios`] — the named-workload registry and replay drivers
//!   ([`sag_scenarios`]).
//! * [`net`] — the network front door ([`sag_net`]): a threaded TCP server
//!   speaking a length-prefixed, CRC-checked binary codec for the service
//!   [`Request`](service::Request)/[`Response`](service::Response) types,
//!   with bounded per-tenant admission, load shedding, and a plaintext
//!   metrics endpoint on the same listener.
//!
//! Construction goes through validated builders —
//! [`EngineBuilder`](core::EngineBuilder) for one engine,
//! [`ServiceBuilder`](service::ServiceBuilder) for a tenant fleet — which
//! reject inconsistent configurations at build time with a structured
//! [`ConfigError`](core::ConfigError).
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! architecture and experiment index.

#![forbid(unsafe_code)]

pub use sag_cluster as cluster;
pub use sag_core as core;
pub use sag_forecast as forecast;
pub use sag_lp as lp;
pub use sag_net as net;
pub use sag_scenarios as scenarios;
pub use sag_service as service;
pub use sag_sim as sim;
pub use sag_wal as wal;

/// Unified facade-level error: everything a SAG workflow can fail with,
/// from the LP substrate to the service front door.
///
/// `#[non_exhaustive]`, like every public error enum in the workspace:
/// match with a wildcard arm. The conversions compose — an `sag_lp` error
/// deep inside a solve arrives here as
/// `Error::Core(SagError::Lp(..))` when it crossed the engine, or as
/// `Error::Lp(..)` when the LP layer was called directly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The LP substrate failed (direct [`lp`] usage).
    Lp(sag_lp::LpError),
    /// The game engine failed; configuration causes carry a structured
    /// [`sag_core::ConfigError`].
    Core(sag_core::SagError),
    /// The service front door failed (unknown tenant/session, duplicate
    /// registration, a wrapped engine error, or a durability failure).
    Service(sag_service::ServiceError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Lp(e) => write!(f, "{e}"),
            Error::Core(e) => write!(f, "{e}"),
            Error::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Lp(e) => Some(e),
            Error::Core(e) => Some(e),
            Error::Service(e) => Some(e),
        }
    }
}

impl From<sag_lp::LpError> for Error {
    fn from(e: sag_lp::LpError) -> Self {
        Error::Lp(e)
    }
}

impl From<sag_core::SagError> for Error {
    fn from(e: sag_core::SagError) -> Self {
        Error::Core(e)
    }
}

impl From<sag_core::ConfigError> for Error {
    fn from(e: sag_core::ConfigError) -> Self {
        Error::Core(e.into())
    }
}

impl From<sag_service::ServiceError> for Error {
    fn from(e: sag_service::ServiceError) -> Self {
        Error::Service(e)
    }
}

impl From<sag_wal::WalError> for Error {
    fn from(e: sag_wal::WalError) -> Self {
        Error::Service(e.into())
    }
}

/// Result alias over the facade-level [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Commonly used items, for `use sag::prelude::*`.
///
/// Cut around the service front door: the builders, the service types and
/// the owned session forms come first; the engine, game-model, forecast,
/// scenario and simulation layers ride along for callers that drop a level.
pub mod prelude {
    pub use crate::{Error, Result};
    pub use sag_cluster::{ClusterBuilder, ClusterService, ShardRouter};
    pub use sag_core::engine::{
        recommended_shards, AlertOutcome, AuditCycleEngine, BudgetAccounting, CycleResult,
        DaySession, EngineBuilder, EngineConfig, OwnedDaySession, ReplayJob, Session,
    };
    pub use sag_core::metrics::{ExperimentSummary, UtilitySeries};
    pub use sag_core::model::{GameConfig, PayoffTable, Payoffs};
    pub use sag_core::offline::OfflineSse;
    pub use sag_core::scheme::{Signal, SignalingScheme};
    pub use sag_core::signaling::{ossp_closed_form, ossp_lp, OsspSolution};
    pub use sag_core::sse::{SseInput, SseSolution, SseSolver};
    pub use sag_core::{ConfigError, SagError};
    pub use sag_forecast::{ArrivalModel, FutureAlertEstimator, RollbackPolicy};
    pub use sag_lp::{LpProblem, Objective as LpObjective, Relation};
    pub use sag_net::{Client, Server, ServerConfig};
    pub use sag_scenarios::{
        find_scenario, registry, run_scenario, run_scenario_service, stream_scenario,
        ReplayOptions, Scenario, ScenarioRun, ServiceRun, StreamingRun,
    };
    pub use sag_service::{
        AuditService, DurabilityOptions, Request, Response, ServiceBuilder, ServiceError,
        ServiceJob, SessionHandle, SessionId, TenantId,
    };
    pub use sag_sim::{
        Alert, AlertCatalog, AlertTypeId, AlertTypeInfo, ArrivalProcess, DayLog, DiurnalProfile,
        StreamConfig, StreamGenerator, TimeOfDay, VolumeTrend,
    };
    pub use sag_wal::{DirFs, FailpointFs, MemFs, Snapshot, WalError, WalFs, WalRecord};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_error_wraps_every_layer() {
        use std::error::Error as _;

        let lp: Error = sag_lp::LpError::Infeasible.into();
        assert!(lp.to_string().contains("infeasible"));
        assert!(lp.source().is_some());

        let core: Error = sag_core::ConfigError::EmptyPayoffTable.into();
        assert!(matches!(
            core,
            Error::Core(sag_core::SagError::InvalidConfig(_))
        ));

        let service: Error =
            sag_service::ServiceError::UnknownTenant(sag_service::TenantId::from("x")).into();
        assert!(service.to_string().contains("unknown tenant"));

        // The question-mark operator composes across layers.
        fn build() -> Result<sag_service::AuditService> {
            let service = sag_service::AuditService::builder()
                .workers(0)
                .tenant("t", sag_core::EngineBuilder::paper_single_type())
                .build()?;
            let _ = service.engine(&sag_service::TenantId::from("t"))?;
            Ok(service)
        }
        assert!(build().is_ok());
    }
}
