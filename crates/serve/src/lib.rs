//! # parbounds-serve
//!
//! A hardened, multi-tenant *cost-oracle service* over the SPAA'98
//! simulators: long-lived clients submit [PhaseIR plans](parbounds_ir) —
//! inline or by §8 family name — over line-delimited JSON (TCP or stdio)
//! and receive static cost ledgers, lint reports, race certificates, or
//! measured-run comparisons.
//!
//! The robustness envelope, end to end:
//!
//! * **Deadlines** — every request carries (or inherits) a deadline; the
//!   simulators and the static analyzer check a shared
//!   [`CancelToken`](parbounds_models::CancelToken) at each phase
//!   boundary, so cancellation is cooperative, prompt, and leaves no
//!   partial state.
//! * **Budgets** — measured runs charge their tenant the statically
//!   predicted model time up front; overdraw is refused with the models'
//!   own `CostBudgetExceeded`.
//! * **Backpressure** — a bounded worker pool behind a bounded admission
//!   queue; overflow is shed immediately with a typed `overloaded` error
//!   and a `retry_after_ms` hint.
//! * **Caching** — answers are keyed exactly by `(kind, plan source,
//!   input)`, looked up before any plan is built, with single-flight
//!   deduplication: N identical concurrent requests perform exactly one
//!   analysis, and a repeat costs one hash-map lookup.
//! * **Degradation** — a measured run that exceeds its deadline falls
//!   back to the static-analysis ledger, flagged `degraded: true`.
//!
//! The crate is std-only and speaks a hand-rolled integer-only JSON
//! ([`json`]); the chaos/soak harness driving it lives in
//! `parbounds-bench` (`parbounds soak`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod json;
pub mod oracle;
pub mod server;
pub mod wire;

pub use cache::{approx_answer_bytes, CacheKey, CacheSnapshot, OracleCache};
pub use oracle::{CompiledCacheStats, Oracle, OracleConfig};
pub use server::{Server, ServerConfig};
pub use wire::{
    plan_from_json, plan_to_json, Answer, ErrorCode, PlanSource, QueryKind, Request, Response,
    WireError,
};
