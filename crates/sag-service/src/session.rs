//! Owned per-day sessions: [`SessionId`] and [`SessionHandle`].

use crate::error::ServiceError;
use crate::service::TenantId;
use sag_core::engine::OwnedDaySession;
use sag_core::{AlertOutcome, CycleResult};
use sag_sim::{Alert, DayLog};
use std::fmt;

/// Identifier of one open audit-cycle session, unique within its
/// [`crate::AuditService`] for the service's lifetime (ids are never
/// reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) u64);

impl SessionId {
    /// Rebuild a session id from its raw wire representation. Ids are
    /// opaque tokens minted by [`crate::AuditService`]; this exists so a
    /// transport can carry them across a connection, not so callers can
    /// invent them — an id the service never handed out simply answers
    /// [`crate::ServiceError::UnknownSession`].
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw wire representation of this id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// One tenant's audit cycle in progress, **owned by whoever holds it**.
///
/// A handle wraps an [`OwnedDaySession`] — a session holding its engine
/// through an `Arc`, free of lifetimes — plus the tenant it belongs to and
/// its service-unique [`SessionId`]. It can therefore be stored in a
/// `HashMap`, queued, or moved onto another thread, and driving it produces
/// a [`CycleResult`] bitwise identical to the engine's batch
/// [`replay`](sag_core::AuditCycleEngine::replay) of the same alerts.
///
/// ```
/// use sag_core::EngineBuilder;
/// use sag_service::{AuditService, SessionHandle, TenantId};
/// use sag_sim::{StreamConfig, StreamGenerator};
/// use std::collections::HashMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(11));
/// let (history, mut test_days) = gen.generate_split(5, 1);
/// let service = AuditService::builder()
///     .tenant_with_history("icu", EngineBuilder::paper_multi_type(), history)
///     .build()?;
///
/// // Owned handles live happily in collections...
/// let icu = TenantId::from("icu");
/// let mut open: HashMap<TenantId, SessionHandle> = HashMap::new();
/// open.insert(icu.clone(), service.open_day(&icu, None)?);
///
/// // ...and move wholesale across threads.
/// let mut handle = open.remove(&icu).unwrap();
/// let day = test_days.remove(0);
/// let result = std::thread::spawn(move || -> Result<_, sag_service::ServiceError> {
///     for alert in day.alerts() {
///         let outcome = handle.push_alert(alert)?;
///         assert!(outcome.ossp_scheme.is_valid());
///     }
///     Ok(handle.finish())
/// })
/// .join()
/// .unwrap()?;
/// assert_eq!(result.len(), result.outcomes.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionHandle {
    id: SessionId,
    tenant: TenantId,
    session: OwnedDaySession,
}

impl SessionHandle {
    pub(crate) fn new(id: SessionId, tenant: TenantId, session: OwnedDaySession) -> Self {
        SessionHandle {
            id,
            tenant,
            session,
        }
    }

    /// This session's service-unique id.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The tenant this session audits for.
    #[must_use]
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Pin the day index reported on the final [`CycleResult`]. Without a
    /// pin the session uses the first pushed alert's day.
    pub fn set_day(&mut self, day: u32) {
        self.session.set_day(day);
    }

    /// Number of alerts processed so far.
    #[must_use]
    pub fn alerts_processed(&self) -> usize {
        self.session.alerts_processed()
    }

    /// The outcomes committed so far, in arrival order — the mid-day state
    /// crash recovery must rebuild bitwise (see
    /// [`sag_core::engine::Session::outcomes`]).
    #[must_use]
    pub fn outcomes(&self) -> &[AlertOutcome] {
        self.session.outcomes()
    }

    /// Remaining budget after the alerts pushed so far.
    #[must_use]
    pub fn remaining_budget_ossp(&self) -> f64 {
        self.session.remaining_budget_ossp()
    }

    /// Commit the warning decision for one arriving alert (see
    /// [`sag_core::engine::Session::push_alert`]).
    ///
    /// # Errors
    ///
    /// Wraps engine solver errors (which do not occur for valid
    /// configurations) as [`ServiceError::Engine`].
    pub fn push_alert(&mut self, alert: &Alert) -> Result<AlertOutcome, ServiceError> {
        self.session.push_alert(alert).map_err(ServiceError::from)
    }

    /// Check that `alert` names a type of this session's game.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidAlert`] for a type id past the game's type
    /// count.
    pub(crate) fn check_alert(&self, alert: &Alert) -> Result<(), ServiceError> {
        let types = self.session.engine().config().game.payoffs.len();
        if alert.type_id.index() < types {
            Ok(())
        } else {
            Err(ServiceError::InvalidAlert {
                type_id: alert.type_id.0,
                types,
            })
        }
    }

    /// Close the cycle and return its [`CycleResult`].
    #[must_use]
    pub fn finish(self) -> CycleResult {
        self.session.finish()
    }

    /// Stream a recorded [`DayLog`] through this session (see
    /// [`sag_core::engine::Session::drive`]): pin the day, push every alert
    /// in order, and finish.
    ///
    /// # Errors
    ///
    /// Wraps engine solver errors as [`ServiceError::Engine`].
    pub fn drive(self, day: &DayLog) -> Result<CycleResult, ServiceError> {
        Ok(self.session.drive(day)?)
    }
}
