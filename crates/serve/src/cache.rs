//! Exact-key response cache with single-flight deduplication.
//!
//! The cache maps a request's [`CacheKey`] — its query kind, its plan
//! source (a §8 family by name, size and seed, or the inline plan itself)
//! and its explicit input — to the answer and the answer's predicted model
//! time. The key is built from the request alone, so a lookup needs no
//! plan construction, analysis or rendering. Keys are compared by `Eq` on
//! every lookup: a hit is always an answer to the very same question,
//! never one that merely shares a hash.
//!
//! Concurrent requests for the same key coalesce: exactly one caller
//! becomes the *leader* and computes; the rest block on a condvar and
//! receive the leader's answer. The leader holds a [`Leader`] guard. A
//! leader that fails — by returning an error or by panicking — drops the
//! guard without fulfilling it, which *abandons* the slot: errors are
//! never cached, and one of the waiters is promoted to leader, so neither
//! a transient failure nor a panic can wedge the key.

use std::collections::{HashMap, VecDeque};
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use parbounds_ir::{CompStep, MsgStep, PhasePlan, PlanBody, ProcPhase, SharedPhase};
use parbounds_models::{CostLedger, Word};

use crate::wire::{Answer, QueryKind, WireDiag};

/// The exact identity of one question: everything the answer depends on,
/// and nothing else (tenant, id and deadline are deliberately absent —
/// two tenants asking the same question share the answer).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// What is asked.
    pub(crate) kind: QueryKind,
    /// Which plan it is asked of.
    pub(crate) plan: PlanKey,
    /// The explicit input words; `None` means the plan source's default
    /// (a family's canonical input, all-zeros for an inline plan), which
    /// the source determines.
    pub(crate) input: Option<Vec<Word>>,
}

/// The plan half of a [`CacheKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum PlanKey {
    /// A §8 family, with `n` already floored to 8 as the family builders
    /// floor it, so sizes that build the same plan share one key.
    Family {
        /// Family name.
        name: String,
        /// Problem size, floored to 8.
        n: usize,
        /// Input seed.
        seed: u64,
    },
    /// An inline plan, compared by content.
    Inline(Arc<PhasePlan>),
}

impl CacheKey {
    /// Approximate resident bytes of the key itself. An inline key keeps
    /// its whole plan alive, so a cache full of distinct large inline
    /// plans is charged for them.
    pub fn approx_bytes(&self) -> usize {
        let plan = match &self.plan {
            PlanKey::Family { name, .. } => name.len(),
            PlanKey::Inline(plan) => approx_plan_bytes(plan),
        };
        let input = self.input.as_deref().map_or(0, size_of_val);
        size_of::<CacheKey>() + plan + input
    }
}

/// Approximate heap bytes of a plan: its phases, per-processor entries,
/// request lists and labels. Like [`approx_answer_bytes`] it ignores
/// allocator rounding and spare capacity.
fn approx_plan_bytes(plan: &PhasePlan) -> usize {
    let body: usize = match &plan.body {
        PlanBody::Shared(phases) => phases
            .iter()
            .map(|ph| {
                size_of::<SharedPhase>()
                    + ph.label.len()
                    + size_of_val(&ph.finish[..])
                    + ph.procs
                        .iter()
                        .map(|p| {
                            size_of::<ProcPhase>()
                                + size_of_val(&p.reads[..])
                                + size_of_val(&p.writes[..])
                        })
                        .sum::<usize>()
            })
            .sum(),
        PlanBody::Msg { steps, .. } => steps
            .iter()
            .map(|st| {
                size_of::<MsgStep>()
                    + st.label.len()
                    + size_of_val(&st.finish[..])
                    + st.comps
                        .iter()
                        .map(|c| size_of::<CompStep>() + size_of_val(&c.sends[..]))
                        .sum::<usize>()
            })
            .sum(),
    };
    size_of::<PhasePlan>() + plan.family.len() + body
}

/// Approximate resident heap bytes of one cache entry: the key (see
/// [`CacheKey::approx_bytes`]), the answer enum's own footprint, and the
/// heap its owned collections carry. An estimate (it ignores allocator
/// rounding and `Vec` spare capacity), but it moves with the quantities
/// that actually grow — inline plans, ledger phases, output words,
/// diagnostic strings — which is what a capacity dashboard needs.
pub fn approx_answer_bytes(key: &CacheKey, answer: &Answer) -> usize {
    fn ledger(l: &CostLedger) -> usize {
        // A streaming ledger retains no per-phase vector; phases() is
        // then empty and the ledger contributes only its inline struct,
        // already counted in size_of::<Answer>().
        size_of_val(l.phases())
    }
    fn words(w: &[Word]) -> usize {
        size_of_val(w)
    }
    fn diag(d: &WireDiag) -> usize {
        size_of::<WireDiag>() + d.severity.len() + d.rule.len() + d.message.len()
    }
    let heap = match answer {
        Answer::Ledger { ledger: l } => ledger(l),
        Answer::Lint { diagnostics } => diagnostics.iter().map(diag).sum(),
        Answer::Certificate { .. } => 0,
        Answer::Run { ledger: l, output } => ledger(l) + words(output),
        Answer::Compare {
            predicted,
            measured,
            output,
            ..
        } => ledger(predicted) + ledger(measured) + words(output),
        Answer::Symbolic {
            family,
            derived,
            fixture,
            ..
        } => family.len() + derived.len() + fixture.len(),
        Answer::Audit {
            family,
            lower,
            upper,
            verdict,
            ..
        } => family.len() + lower.len() + upper.len() + verdict.len(),
    };
    key.approx_bytes() + size_of::<Answer>() + heap
}

/// What [`OracleCache::get_or_begin`] hands back.
#[derive(Debug)]
pub enum Lease<'a> {
    /// The answer was already cached (or a leader just produced it).
    Hit {
        /// The cached answer.
        answer: Arc<Answer>,
        /// Total predicted model time of the answered plan, which a
        /// measured-kind hit still charges its tenant.
        predicted_total: u64,
    },
    /// The caller is the leader for this key and must compute the answer.
    Lead(Leader<'a>),
}

/// The leader's hold on an in-flight slot. [`Leader::fulfill`] publishes
/// the answer; dropping the guard any other way — an early `?` return, an
/// explicit [`Leader::abandon`], or a panic unwinding through the holder —
/// abandons the slot and promotes a waiter.
#[derive(Debug)]
pub struct Leader<'a> {
    cache: &'a OracleCache,
    key: Arc<CacheKey>,
    done: bool,
}

impl Leader<'_> {
    /// The key this leader computes.
    pub fn key(&self) -> &CacheKey {
        &self.key
    }

    /// Publishes the answer with its predicted model time and wakes every
    /// waiter. Evicts the oldest ready entries beyond the capacity cap.
    pub fn fulfill(mut self, answer: Arc<Answer>, predicted_total: u64) {
        self.done = true;
        self.cache
            .publish(Arc::clone(&self.key), answer, predicted_total);
    }

    /// Releases the slot without publishing anything: failed or degraded
    /// computations are never cached. Same as dropping the guard.
    pub fn abandon(self) {}
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.cache.release(&self.key);
        }
    }
}

/// A published answer.
struct Ready {
    answer: Arc<Answer>,
    predicted_total: u64,
    /// Approximate byte size of key and answer, computed once at publish
    /// so eviction can subtract it exactly.
    bytes: usize,
}

enum Slot {
    /// A leader is computing the answer.
    InFlight,
    /// The answer, ready to clone out.
    Ready(Ready),
}

struct CacheState {
    slots: HashMap<Arc<CacheKey>, Slot>,
    /// Ready keys in insertion order, for FIFO eviction.
    order: VecDeque<Arc<CacheKey>>,
    /// Approximate bytes held by all ready entries.
    resident_bytes: usize,
    /// High-water mark of `resident_bytes`.
    peak_resident_bytes: usize,
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Answers served from the cache (including single-flight waiters).
    pub hits: u64,
    /// Requests that had to compute (leaders).
    pub misses: u64,
    /// Hits that waited for an in-flight leader rather than finding a
    /// ready entry.
    pub coalesced: u64,
    /// Ready entries evicted to stay under the capacity cap.
    pub evictions: u64,
    /// Ready entries currently resident.
    pub entries: usize,
    /// Approximate bytes held by resident entries (see
    /// [`approx_answer_bytes`]).
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes` over the cache's lifetime.
    pub peak_resident_bytes: usize,
}

impl CacheSnapshot {
    /// Hit rate over all lookups, in [0, 1]; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The single-flight exact-key cache.
pub struct OracleCache {
    state: Mutex<CacheState>,
    cv: Condvar,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for OracleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleCache")
            .field("cap", &self.cap)
            .field("stats", &self.stats())
            .finish()
    }
}

impl OracleCache {
    /// A cache holding at most `cap` ready answers (at least 1).
    pub fn new(cap: usize) -> Self {
        OracleCache {
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                order: VecDeque::new(),
                resident_bytes: 0,
                peak_resident_bytes: 0,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("cache lock poisoned")
    }

    /// Looks up `key`. Returns [`Lease::Hit`] with the answer, possibly
    /// after blocking behind an in-flight leader; returns [`Lease::Lead`]
    /// when the caller must compute.
    pub fn get_or_begin(&self, key: CacheKey) -> Lease<'_> {
        let mut waited = false;
        let mut state = self.lock();
        loop {
            match state.slots.get(&key) {
                Some(Slot::Ready(ready)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    return Lease::Hit {
                        answer: Arc::clone(&ready.answer),
                        predicted_total: ready.predicted_total,
                    };
                }
                Some(Slot::InFlight) => {
                    waited = true;
                    state = self.cv.wait(state).expect("cache lock poisoned");
                }
                None => {
                    let key = Arc::new(key);
                    state.slots.insert(Arc::clone(&key), Slot::InFlight);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Lease::Lead(Leader {
                        cache: self,
                        key,
                        done: false,
                    });
                }
            }
        }
    }

    fn publish(&self, key: Arc<CacheKey>, answer: Arc<Answer>, predicted_total: u64) {
        let bytes = approx_answer_bytes(&key, &answer);
        let mut state = self.lock();
        let ready = Ready {
            answer,
            predicted_total,
            bytes,
        };
        state.slots.insert(Arc::clone(&key), Slot::Ready(ready));
        state.resident_bytes += bytes;
        state.peak_resident_bytes = state.peak_resident_bytes.max(state.resident_bytes);
        state.order.push_back(key);
        while state.order.len() > self.cap {
            let Some(old) = state.order.pop_front() else {
                break;
            };
            // Only ready slots sit in `order`, and a ready slot leaves
            // `slots` only here, so the oldest key is still ready.
            if let Some(Slot::Ready(old)) = state.slots.remove(&old) {
                state.resident_bytes -= old.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Drops an in-flight slot; waiters wake and race to become the next
    /// leader. Runs from [`Leader`]'s `Drop`, possibly while unwinding, so
    /// it must not panic again: a poisoned lock is entered anyway, which
    /// is sound because removing an in-flight marker needs no invariant
    /// of the rest of the state.
    fn release(&self, key: &CacheKey) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(state.slots.get(key), Some(Slot::InFlight)) {
            state.slots.remove(key);
        }
        drop(state);
        self.cv.notify_all();
    }

    /// True when `key` has a ready (published) entry right now.
    pub fn contains(&self, key: &CacheKey) -> bool {
        matches!(self.lock().slots.get(key), Some(Slot::Ready(..)))
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheSnapshot {
        let (entries, resident_bytes, peak_resident_bytes) = {
            let state = self.lock();
            (
                state.order.len(),
                state.resident_bytes,
                state.peak_resident_bytes,
            )
        };
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            resident_bytes,
            peak_resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbounds_ir::{prefix_sweep, CombineOp, ModelKind};
    use parbounds_models::CostLedger;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::thread;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            kind: QueryKind::Static,
            plan: PlanKey::Family {
                name: "broadcast".to_string(),
                n: 8,
                seed,
            },
            input: None,
        }
    }

    fn dummy_answer() -> Arc<Answer> {
        Arc::new(Answer::Ledger {
            ledger: CostLedger::new(),
        })
    }

    fn lead(cache: &OracleCache, k: CacheKey) -> Leader<'_> {
        match cache.get_or_begin(k) {
            Lease::Lead(leader) => leader,
            Lease::Hit { .. } => panic!("expected to lead a fresh key"),
        }
    }

    #[test]
    fn leader_computes_once_waiters_coalesce() {
        let cache = Arc::new(OracleCache::new(8));
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(thread::spawn(move || match cache.get_or_begin(key(7)) {
                Lease::Hit { .. } => {}
                Lease::Lead(leader) => {
                    computed.fetch_add(1, Ordering::SeqCst);
                    thread::sleep(std::time::Duration::from_millis(20));
                    leader.fulfill(dummy_answer(), 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single flight");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn abandon_promotes_a_waiter() {
        let cache = Arc::new(OracleCache::new(8));
        let leader = lead(&cache, key(3));
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || matches!(cache.get_or_begin(key(3)), Lease::Lead(_)))
        };
        thread::sleep(std::time::Duration::from_millis(20));
        leader.abandon();
        // The waiter must be promoted to leader, not deadlock.
        assert!(waiter.join().unwrap());
        assert!(!cache.contains(&key(3)), "abandoned slot leaves no entry");
    }

    #[test]
    fn panicking_leader_hands_the_lead_to_its_waiter() {
        let cache = Arc::new(OracleCache::new(8));
        let (leading_tx, leading_rx) = mpsc::channel();
        let leader = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let _leader = lead(&cache, key(5));
                leading_tx.send(()).unwrap();
                // Give the waiter time to block on the in-flight slot. If
                // it arrives only after the panic it leads a free slot,
                // and every assertion below holds all the same.
                thread::sleep(std::time::Duration::from_millis(50));
                panic!("leader dies while holding the lease");
            })
        };
        leading_rx.recv().unwrap();
        let (promoted_tx, promoted_rx) = mpsc::channel();
        {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let promoted = match cache.get_or_begin(key(5)) {
                    Lease::Lead(leader) => {
                        leader.fulfill(dummy_answer(), 0);
                        true
                    }
                    Lease::Hit { .. } => false,
                };
                promoted_tx.send(promoted).unwrap();
            });
        }
        assert!(leader.join().is_err(), "the leader thread panicked");
        // A stranded waiter would block forever; fail instead of hanging.
        let promoted = promoted_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("waiter stranded on the in-flight slot");
        assert!(promoted, "the waiter was promoted to leader");
        assert!(cache.contains(&key(5)));
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = OracleCache::new(2);
        for seed in 0..5u64 {
            lead(&cache, key(seed)).fulfill(dummy_answer(), 0);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "capacity respected");
        assert_eq!(stats.evictions, 3);
        assert!(!cache.contains(&key(0)) && !cache.contains(&key(1)) && !cache.contains(&key(2)));
        assert!(cache.contains(&key(3)) && cache.contains(&key(4)));
    }

    #[test]
    fn hits_carry_the_published_prediction() {
        let cache = OracleCache::new(2);
        lead(&cache, key(1)).fulfill(dummy_answer(), 77);
        match cache.get_or_begin(key(1)) {
            Lease::Hit {
                predicted_total, ..
            } => assert_eq!(predicted_total, 77),
            Lease::Lead(_) => panic!("published key must hit"),
        }
        // Keys differing only in kind, input or plan source never collide.
        let mut other = key(1);
        other.kind = QueryKind::Run;
        assert!(!cache.contains(&other));
        other = key(1);
        other.input = Some(vec![0; 8]);
        assert!(!cache.contains(&other));
    }

    #[test]
    fn resident_bytes_track_insert_and_eviction() {
        let small = dummy_answer();
        let big = Arc::new(Answer::Run {
            ledger: CostLedger::new(),
            output: vec![0; 1024],
        });
        let small_bytes = approx_answer_bytes(&key(0), &small);
        let big_bytes = approx_answer_bytes(&key(0), &big);
        assert!(
            big_bytes >= small_bytes + 1024 * size_of::<Word>(),
            "output words must be charged"
        );

        let cache = OracleCache::new(2);
        lead(&cache, key(0)).fulfill(big, 0);
        lead(&cache, key(1)).fulfill(Arc::clone(&small), 0);
        assert_eq!(cache.stats().resident_bytes, big_bytes + small_bytes);

        // Evicting the big entry reclaims exactly its accounted bytes. The
        // peak remembers the publish-before-evict high-water mark (the new
        // entry lands before the oldest is pushed out).
        lead(&cache, key(2)).fulfill(small, 0);
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 2 * small_bytes);
        assert_eq!(stats.peak_resident_bytes, big_bytes + 2 * small_bytes);
    }

    #[test]
    fn inline_keys_charge_their_plans() {
        let inline = |n: usize| CacheKey {
            kind: QueryKind::Static,
            plan: PlanKey::Inline(Arc::new(prefix_sweep(
                n,
                4,
                CombineOp::Sum,
                ModelKind::Qsm { g: 2 },
            ))),
            input: None,
        };
        let small = inline(16);
        let large = inline(4096);
        assert!(
            large.approx_bytes() > small.approx_bytes() + 4096 * size_of::<ProcPhase>(),
            "a larger inline plan must weigh more"
        );
        assert!(small.approx_bytes() > key(0).approx_bytes());

        // A tenant flooding the cache with distinct large inline plans
        // shows up in the resident bytes.
        let cache = OracleCache::new(8);
        lead(&cache, key(0)).fulfill(dummy_answer(), 0);
        let family_only = cache.stats().resident_bytes;
        let mut expected = family_only;
        for n in [1024, 2048, 4096] {
            let k = inline(n);
            expected += approx_answer_bytes(&k, &dummy_answer());
            lead(&cache, k).fulfill(dummy_answer(), 0);
        }
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, expected);
        assert!(stats.resident_bytes > family_only + 3 * 1024 * size_of::<ProcPhase>());
    }
}
