//! The cost oracle: looks up, resolves, analyzes and executes one request.
//!
//! The oracle is the pure request→response core the server's worker pool
//! calls. It owns the single-flight cache and the tenant budgets, and
//! implements the degradation state machine. The cache is consulted
//! first, under an exact key built from the request alone, so a hit
//! builds, validates and predicts nothing:
//!
//! ```text
//! cache lookup (single-flight, exact key)
//!   │hit ─▶ measured kind? ──yes──▶ charge stored prediction ──over──▶ budget_exhausted
//!   │        │no                      │ok
//!   │        └──────────────────────▶ cached answer
//!   │lead (guard: any exit but fulfil abandons the slot)
//! resolve plan + validate ──bad──▶ bad_request
//!   │ok
//! predict ledger (static, fresh token)
//!   │
//! measured kind? ──yes──▶ charge tenant budget ──over──▶ budget_exhausted
//!   │no                       │ok
//! compute under deadline token│execute under deadline token
//!   │                         ├─ ok ───────▶ answer (cached for next time)
//!   │                         └─ deadline ─▶ static ledger, degraded: true
//! ```
//!
//! Errors are never cached; degraded answers are never cached (a later,
//! less-loaded request should get the chance to produce the full answer).

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use parbounds_analyze::{certify_writes, ir_family_plan, lint_plan, predict_ledger_with};
use parbounds_ir::{
    compile_plan, execute_compiled_cancellable, execute_plan_cancellable, CompileOutcome,
    CompiledPlan, PhasePlan,
};
use parbounds_models::{CancelToken, CostLedger, ModelError, Word};

use crate::budget::TenantBudgets;
use crate::cache::{CacheKey, CacheSnapshot, Lease, OracleCache, PlanKey};
use crate::wire::{Answer, ErrorCode, QueryKind, Request, Response, WireDiag, WireError};

/// Bounded FIFO cache of compiled plans, keyed by plan content alone (no
/// input, kind, seed or tenant): the answer cache dedups identical
/// questions, but the *schedule* is reusable across different inputs and
/// across `run`/`compare` kinds, so the one-shot `ir::compile` lowering is
/// paid once per distinct plan. A lookup hashes the plan and compares it
/// with `==` against the stored plan, so a hit is always the same plan.
/// Ineligible plans are cached as `None` so the eligibility scan is not
/// repeated per request either.
#[derive(Debug)]
struct CompiledCache {
    cap: usize,
    inner: Mutex<CompiledCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct CompiledCacheInner {
    map: HashMap<Arc<PhasePlan>, Option<Arc<CompiledPlan>>>,
    fifo: VecDeque<Arc<PhasePlan>>,
}

/// A point-in-time view of the compiled-plan cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledCacheStats {
    /// Lookups that found the plan's compilation (or ineligibility).
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
}

impl CompiledCache {
    fn new(cap: usize) -> Self {
        CompiledCache {
            cap: cap.max(1),
            inner: Mutex::new(CompiledCacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of distinct plans currently cached (compiled or ineligible).
    fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("compiled cache lock poisoned")
            .map
            .len()
    }

    fn stats(&self) -> CompiledCacheStats {
        CompiledCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Returns the cached compilation of `plan`, compiling on miss.
    /// `None` means the plan is compile-ineligible and callers should use
    /// the checked interpreter.
    fn get_or_compile(
        &self,
        plan: &Arc<PhasePlan>,
    ) -> Result<Option<Arc<CompiledPlan>>, ModelError> {
        if let Some(hit) = self
            .inner
            .lock()
            .expect("compiled cache lock poisoned")
            .map
            .get(&**plan)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compile outside the lock: lowering is pure and idempotent, so a
        // racing duplicate costs one redundant compile, never a stall.
        let compiled = match compile_plan(plan)? {
            CompileOutcome::Compiled(cp) => Some(Arc::new(cp)),
            CompileOutcome::Ineligible(_) => None,
        };
        let mut st = self.inner.lock().expect("compiled cache lock poisoned");
        // A racing duplicate may have landed the entry first; keep theirs
        // so the cached Arc identity is stable.
        if let Some(hit) = st.map.get(&**plan) {
            return Ok(hit.clone());
        }
        if st.fifo.len() >= self.cap {
            if let Some(old) = st.fifo.pop_front() {
                st.map.remove(&old);
            }
        }
        st.fifo.push_back(Arc::clone(plan));
        st.map.insert(Arc::clone(plan), compiled.clone());
        Ok(compiled)
    }
}

/// Oracle tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Ready answers the single-flight cache retains.
    pub cache_cap: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Predicted-model-time budget per tenant.
    pub tenant_budget: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cache_cap: 1024,
            default_deadline: Duration::from_millis(2_000),
            tenant_budget: u64::MAX,
        }
    }
}

/// The request→response core shared by every worker.
#[derive(Debug)]
pub struct Oracle {
    cache: OracleCache,
    compiled: CompiledCache,
    budgets: TenantBudgets,
    cfg: OracleConfig,
    analyses: AtomicU64,
    degraded: AtomicU64,
}

impl Oracle {
    /// Builds an oracle from its config.
    pub fn new(cfg: OracleConfig) -> Self {
        Oracle {
            cache: OracleCache::new(cfg.cache_cap),
            compiled: CompiledCache::new(cfg.cache_cap),
            budgets: TenantBudgets::new(cfg.tenant_budget),
            cfg,
            analyses: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Number of distinct plans whose compilation (or ineligibility) is
    /// currently cached.
    pub fn compiled_plans_cached(&self) -> usize {
        self.compiled.len()
    }

    /// Hit and miss counters of the compiled-plan cache.
    pub fn compiled_cache_stats(&self) -> CompiledCacheStats {
        self.compiled.stats()
    }

    /// Executes `plan` on `input` through the per-plan compiled cache:
    /// eligible plans replay their straight-line schedule (lowered once
    /// per distinct plan, reused across inputs and query kinds),
    /// ineligible ones take the checked interpreter. Both paths are
    /// bit-identical, so answers and the answer cache are unaffected.
    fn execute_cached(
        &self,
        plan: &Arc<PhasePlan>,
        input: &[Word],
        token: &CancelToken,
    ) -> Result<parbounds_ir::PlanRun, ModelError> {
        match self.compiled.get_or_compile(plan)? {
            Some(cp) => execute_compiled_cancellable(plan, &cp, input, token),
            None => execute_plan_cancellable(plan, input, token),
        }
    }

    /// Number of answers actually computed (cache leaders), the
    /// observable the single-flight tests assert on.
    pub fn analyses_performed(&self) -> u64 {
        self.analyses.load(Ordering::Relaxed)
    }

    /// Number of degraded (static-fallback) answers served.
    pub fn degraded_served(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheSnapshot {
        self.cache.stats()
    }

    /// Predicted cost charged to `tenant` so far.
    pub fn tenant_spent(&self, tenant: &str) -> u64 {
        self.budgets.spent(tenant)
    }

    /// True when `key` currently has a cached answer (used by the
    /// cancellation tests to prove cancelled runs leave no partial state
    /// behind).
    pub fn cache_contains(&self, key: &CacheKey) -> bool {
        self.cache.contains(key)
    }

    /// Handles one request end to end. Never panics on malformed input —
    /// every failure mode maps to a typed error or a degraded answer.
    pub fn handle(&self, req: &Request) -> Response {
        match self.try_handle(req) {
            Ok(resp) => resp,
            Err(err) => Response {
                id: req.id,
                result: Err(wire_error(&err)),
                cached: false,
                degraded: false,
            },
        }
    }

    fn try_handle(&self, req: &Request) -> Result<Response, ModelError> {
        // 1. Single-flight lookup under the exact request key. A hit is
        //    answered from the entry alone; measured kinds still pay the
        //    prediction stored with it.
        let leader = match self.cache.get_or_begin(req.cache_key()) {
            Lease::Hit {
                answer,
                predicted_total,
            } => {
                if req.kind.is_measured() {
                    self.budgets.try_charge(&req.tenant, predicted_total)?;
                }
                return Ok(Response {
                    id: req.id,
                    result: Ok((*answer).clone()),
                    cached: true,
                    degraded: false,
                });
            }
            Lease::Lead(leader) => leader,
        };
        // From here on every early return (and any panic) drops `leader`,
        // which abandons the slot and promotes a waiter.
        let key = leader.key();

        // 2. Resolve the plan and input.
        let (plan, input) = resolve(key)?;
        plan.validate()?;

        // 3. The static prediction, under a fresh token: it doubles as the
        //    budget gatekeeper and the degraded answer, so it must not be
        //    poisoned by an already-tripped request deadline. It is cheap
        //    (no execution), but a hostile million-phase plan is still
        //    bounded by the server default deadline.
        let predicted = predict_ledger_with(
            &plan,
            &CancelToken::with_deadline(self.cfg.default_deadline),
        )?;

        // 4. Measured kinds charge the tenant the predicted model time up
        //    front; refusal is the models' own CostBudgetExceeded.
        if req.kind.is_measured() {
            self.budgets
                .try_charge(&req.tenant, predicted.total_time())?;
        }

        // 5. Compute under the request's own token.
        let token = self.request_token(req);
        self.analyses.fetch_add(1, Ordering::Relaxed);
        match self.compute(key, &plan, &input, &predicted, &token) {
            Ok(answer) => {
                let answer = Arc::new(answer);
                leader.fulfill(Arc::clone(&answer), predicted.total_time());
                Ok(Response {
                    id: req.id,
                    result: Ok(Arc::unwrap_or_clone(answer)),
                    cached: false,
                    degraded: false,
                })
            }
            Err(ModelError::DeadlineExceeded { .. }) if req.kind.is_measured() => {
                // Graceful degradation: the measured run blew its
                // deadline, but the static ledger is already in hand. Not
                // cached — the next request should get a chance at the
                // full answer.
                leader.abandon();
                self.degraded.fetch_add(1, Ordering::Relaxed);
                Ok(Response {
                    id: req.id,
                    result: Ok(Answer::Ledger { ledger: predicted }),
                    cached: false,
                    degraded: true,
                })
            }
            Err(err) => Err(err),
        }
    }

    /// Builds the cancellation token governing the measured/analyzed part
    /// of a request: a deterministic phase trip when the request asks for
    /// one (tests, chaos), otherwise the wall-clock deadline.
    fn request_token(&self, req: &Request) -> CancelToken {
        if let Some(phase) = req.trip_at_phase {
            CancelToken::tripping_at_phase(phase)
        } else {
            let ms = req.deadline_ms.map(Duration::from_millis);
            CancelToken::with_deadline(ms.unwrap_or(self.cfg.default_deadline))
        }
    }

    fn compute(
        &self,
        key: &CacheKey,
        plan: &Arc<PhasePlan>,
        input: &[Word],
        predicted: &CostLedger,
        token: &CancelToken,
    ) -> Result<Answer, ModelError> {
        match key.kind {
            QueryKind::Static => Ok(Answer::Ledger {
                // Re-fold under the request token so an explicit phase
                // trip or tight deadline is honoured deterministically.
                ledger: predict_ledger_with(plan, token)?,
            }),
            QueryKind::Lint => Ok(Answer::Lint {
                diagnostics: lint_plan(plan)?
                    .into_iter()
                    .map(|d| WireDiag {
                        severity: format!("{:?}", d.severity).to_lowercase(),
                        rule: format!("{:?}", d.rule),
                        message: d.message,
                    })
                    .collect(),
            }),
            QueryKind::Certify => {
                let cert = certify_writes(plan)?;
                let witnesses = match &cert {
                    parbounds_analyze::WriteCertificate::Racy { witnesses } => witnesses.len(),
                    parbounds_analyze::WriteCertificate::RaceFree { .. } => 0,
                };
                Ok(Answer::Certificate {
                    race_free: cert.is_race_free(),
                    phases: plan.num_phases(),
                    witnesses,
                })
            }
            QueryKind::Run => {
                let run = self.execute_cached(plan, input, token)?;
                Ok(Answer::Run {
                    ledger: run.ledger,
                    output: run.output,
                })
            }
            QueryKind::Compare => {
                let run = self.execute_cached(plan, input, token)?;
                let matches = *predicted == run.ledger;
                Ok(Answer::Compare {
                    predicted: predicted.clone(),
                    measured: run.ledger,
                    matches,
                    output: run.output,
                })
            }
            QueryKind::Symbolic => {
                // Per-family derivation: only family plans name one. The
                // suite point mirrors what `resolve` instantiated, so the
                // evaluated symbolic ledger must equal `predicted` cell
                // for cell.
                let PlanKey::Family { name, n, .. } = &key.plan else {
                    return Err(ModelError::BadConfig(
                        "symbolic queries require a family plan source (the \
                         Θ-derivation is per family, not per inline schedule)"
                            .into(),
                    ));
                };
                let conf = parbounds_analyze::check_family(name)?;
                let pt = parbounds_analyze::symbolic::suite_point(name, *n);
                let ledger = parbounds_analyze::predict_ledger_symbolic(name)?;
                let evaluated = ledger
                    .eval_ledger(pt)
                    .map_err(|e| ModelError::BadConfig(format!("symbolic eval of {name}: {e}")))?;
                Ok(Answer::Symbolic {
                    family: conf.family.to_string(),
                    derived: conf.derived.to_string(),
                    fixture: conf.fixture.to_string(),
                    equivalent: conf.equivalent,
                    regression: conf.regression,
                    matches: evaluated == *predicted,
                    total: evaluated.total_time(),
                })
            }
            QueryKind::Audit => {
                // The adversary audit is per family and input-independent,
                // like the symbolic derivation; the resolved plan/input are
                // unused beyond admission costing.
                let PlanKey::Family { name, n, .. } = &key.plan else {
                    return Err(ModelError::BadConfig(
                        "audit queries require a family plan source (the \
                         lower-bound audit is per family, not per inline schedule)"
                            .into(),
                    ));
                };
                let o = parbounds_adversary::audit_family(name, *n)?;
                Ok(Answer::Audit {
                    family: o.family.to_string(),
                    size: o.size,
                    fan: o.fan,
                    steps: o.steps_checked,
                    clamped: o.budget_clamped,
                    all_good: o.all_good,
                    lower: o.lower_theta.to_string(),
                    upper: o.upper_theta.to_string(),
                    verdict: o.verdict.name().to_string(),
                })
            }
        }
    }
}

/// Builds the plan and input a leader's key names: the inline plan itself
/// or the family built at its (already floored) size and seed, with the
/// explicit input or the source's default.
fn resolve(key: &CacheKey) -> Result<(Arc<PhasePlan>, Cow<'_, [Word]>), ModelError> {
    let explicit = key.input.as_deref().map(Cow::Borrowed);
    match &key.plan {
        PlanKey::Inline(plan) => {
            let input = explicit.unwrap_or_else(|| Cow::Owned(vec![0; plan.input_cells]));
            Ok((Arc::clone(plan), input))
        }
        PlanKey::Family { name, n, seed } => {
            let (_, plan, canonical) = ir_family_plan(name, *n, *seed)?;
            Ok((Arc::new(plan), explicit.unwrap_or(Cow::Owned(canonical))))
        }
    }
}

/// Maps a [`ModelError`] to its typed wire error.
pub fn wire_error(err: &ModelError) -> WireError {
    let code = match err {
        ModelError::BadConfig(_) => ErrorCode::BadRequest,
        ModelError::CostBudgetExceeded { .. } => ErrorCode::BudgetExhausted,
        ModelError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
        ModelError::Io(_) => ErrorCode::Io,
        _ => ErrorCode::ModelRule,
    };
    WireError {
        code,
        message: err.to_string(),
        retry_after_ms: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_ir::{dart_round, execute_plan, prefix_sweep, CombineOp, ModelKind, ValueRule};

    fn sweep_plan(n: usize) -> Arc<PhasePlan> {
        Arc::new(prefix_sweep(n, 4, CombineOp::Sum, ModelKind::Qsm { g: 2 }))
    }

    #[test]
    fn compiled_cache_reuses_one_lowering_per_plan() {
        let oracle = Oracle::new(OracleConfig::default());
        let token = CancelToken::with_deadline(Duration::from_secs(10));
        for seed in 0..3 {
            // Each run builds its own copy: the cache matches by content.
            let plan = sweep_plan(64);
            let input: Vec<Word> = (0..64).map(|x: Word| x ^ seed).collect();
            let got = oracle.execute_cached(&plan, &input, &token).unwrap();
            assert_eq!(got, execute_plan(&plan, &input).unwrap());
        }
        assert_eq!(
            oracle.compiled_plans_cached(),
            1,
            "three runs of one plan must share one compilation"
        );
        assert_eq!(
            oracle.compiled_cache_stats(),
            CompiledCacheStats { hits: 2, misses: 1 }
        );
    }

    #[test]
    fn compiled_cache_caches_ineligibility_and_falls_back() {
        let oracle = Oracle::new(OracleConfig::default());
        let token = CancelToken::with_deadline(Duration::from_secs(10));
        let targets: Vec<(usize, ValueRule)> = (0..4)
            .map(|pid| (0usize, ValueRule::Const(pid as Word + 1)))
            .collect();
        let racy = Arc::new(dart_round(&targets, ModelKind::Qsm { g: 8 }));
        let input: Vec<Word> = Vec::new();
        let got = oracle.execute_cached(&racy, &input, &token).unwrap();
        assert_eq!(got, execute_plan(&racy, &input).unwrap());
        // The racy plan is compile-ineligible; its verdict is cached so the
        // eligibility scan runs once, and repeats stay on the interpreter.
        assert_eq!(oracle.compiled_plans_cached(), 1);
        oracle.execute_cached(&racy, &input, &token).unwrap();
        assert_eq!(oracle.compiled_plans_cached(), 1);
    }

    #[test]
    fn compiled_cache_is_bounded_fifo() {
        let cache = CompiledCache::new(2);
        for n in [8usize, 16, 32, 64] {
            cache.get_or_compile(&sweep_plan(n)).unwrap();
            assert!(cache.len() <= 2);
        }
        // Oldest entries were evicted; the newest survives, found by a
        // freshly built plan of equal content.
        let inner = cache.inner.lock().expect("compiled cache lock poisoned");
        assert!(inner.map.contains_key(&*sweep_plan(64)));
        assert!(!inner.map.contains_key(&*sweep_plan(8)));
    }
}
