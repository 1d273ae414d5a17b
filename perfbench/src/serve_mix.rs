//! `serve-mix`: a closed loop of two clients against an in-process
//! `Server` with two workers, mixing cache hits with compute-and-fill
//! misses.
//!
//! Every request and response crosses the wire codec (`to_json`, render,
//! `json::parse`, `from_json`). The seeded stream covers the 7
//! `IR_FAMILIES` at n ∈ {1024, 4096} × the 7 query kinds, in rounds of
//! identical composition: each seeded key is asked once fresh (a new input
//! seed) and once repeated, each seed-free key once, so 98 of a round's
//! 168 requests repeat an earlier key.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use parbounds_analyze::{
    certify_writes, check_family, ir_family_plan, lint_plan, predict_ledger,
    predict_ledger_symbolic, IR_FAMILIES,
};
use parbounds_ir::execute_plan;
use parbounds_models::ModelError;
use parbounds_serve::json;
use parbounds_serve::wire::WireDiag;
use parbounds_serve::{
    Answer, ErrorCode, PlanSource, QueryKind, Request, Response, Server, ServerConfig,
};

use crate::trace::{self, percentile, Tracer};
use crate::{SplitMix, Window, Workload};

const NS: [usize; 2] = [1024, 4096];
const KINDS: [QueryKind; 7] = [
    QueryKind::Static,
    QueryKind::Lint,
    QueryKind::Certify,
    QueryKind::Run,
    QueryKind::Compare,
    QueryKind::Symbolic,
    QueryKind::Audit,
];
/// Families whose plan and input do not depend on the seed: a fresh key
/// for them exists only once per (n, kind).
const SEED_FREE: [&str; 2] = ["or-write-tree", "broadcast"];
/// Client threads and server workers.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Client run time between two calibrations.
const CHUNK: Duration = Duration::from_millis(500);
/// Distinct keys per window whose answers are recomputed directly.
const DIRECT_CHECKS: usize = 42;

/// One cache key: what a request asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    family: usize,
    n: usize,
    kind: usize,
    seed: u64,
}

impl Key {
    fn request(&self, id: u64) -> Request {
        Request {
            id,
            tenant: "bench".into(),
            kind: KINDS[self.kind],
            deadline_ms: None,
            trip_at_phase: None,
            plan: PlanSource::Family {
                name: IR_FAMILIES[self.family].to_string(),
                n: NS[self.n],
                seed: self.seed,
            },
            input: None,
        }
    }
}

/// Requests per round: every seeded (family, n, kind) asked once fresh
/// and once repeated, every seed-free one asked once (a repeat).
const ROUND: usize = 5 * 2 * 7 * 2 + 2 * 2 * 7;
/// Rounds generated per set-up; far more than a window completes.
const ROUNDS: usize = 600;

/// The seeded request stream, in rounds of identical composition and
/// seeded order. A repeat re-asks a key issued for the same (family, n,
/// kind) in an earlier round, or this round's fresh key later on.
fn stream(seed: u64) -> Vec<Key> {
    let mut rng = SplitMix::new(seed, 0x5e7e_0000);
    let mut issued: HashMap<(usize, usize, usize), Vec<Key>> = HashMap::new();
    let mut fresh_seed = 1u64 << 40;
    let mut out = Vec::with_capacity(ROUND * ROUNDS);
    for _ in 0..ROUNDS {
        let mut round: Vec<Key> = Vec::with_capacity(ROUND);
        let mut repeats = Vec::new();
        for (family, name) in IR_FAMILIES.iter().enumerate() {
            for n in 0..NS.len() {
                for kind in 0..KINDS.len() {
                    if SEED_FREE.contains(name) {
                        round.push(Key {
                            family,
                            n,
                            kind,
                            seed: 0,
                        });
                        continue;
                    }
                    fresh_seed += 1;
                    let key = Key {
                        family,
                        n,
                        kind,
                        seed: fresh_seed,
                    };
                    round.push(key);
                    let earlier = issued.entry((family, n, kind)).or_default();
                    repeats.push(if earlier.is_empty() {
                        key
                    } else {
                        earlier[rng.below(earlier.len())]
                    });
                    earlier.push(key);
                }
            }
        }
        // Seeded order: shuffle, then put every repeat at a random place
        // after the fresh key it may repeat.
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        for key in repeats {
            let first = round.iter().position(|k| *k == key).map_or(0, |p| p + 1);
            let at = first + rng.below(round.len() + 1 - first);
            round.insert(at, key);
        }
        out.extend(round);
    }
    out
}

/// The answer the oracle must give, computed directly from the layers.
fn direct_answer(key: &Key) -> Result<Answer, ModelError> {
    let name = IR_FAMILIES[key.family];
    let n = NS[key.n];
    let (_, plan, input) = ir_family_plan(name, n, key.seed)?;
    plan.validate()?;
    Ok(match KINDS[key.kind] {
        QueryKind::Static => Answer::Ledger {
            ledger: predict_ledger(&plan)?,
        },
        QueryKind::Lint => Answer::Lint {
            diagnostics: lint_plan(&plan)?
                .into_iter()
                .map(|d| WireDiag {
                    severity: format!("{:?}", d.severity).to_lowercase(),
                    rule: format!("{:?}", d.rule),
                    message: d.message,
                })
                .collect(),
        },
        QueryKind::Certify => {
            let cert = certify_writes(&plan)?;
            Answer::Certificate {
                race_free: cert.is_race_free(),
                phases: plan.num_phases(),
                witnesses: match &cert {
                    parbounds_analyze::WriteCertificate::Racy { witnesses } => witnesses.len(),
                    parbounds_analyze::WriteCertificate::RaceFree { .. } => 0,
                },
            }
        }
        QueryKind::Run => {
            let run = execute_plan(&plan, &input)?;
            Answer::Run {
                ledger: run.ledger,
                output: run.output,
            }
        }
        QueryKind::Compare => {
            let predicted = predict_ledger(&plan)?;
            let run = execute_plan(&plan, &input)?;
            Answer::Compare {
                matches: predicted == run.ledger,
                predicted,
                measured: run.ledger,
                output: run.output,
            }
        }
        QueryKind::Symbolic => {
            let conf = check_family(name)?;
            let pt = parbounds_analyze::symbolic::suite_point(name, n);
            let evaluated = predict_ledger_symbolic(name)?
                .eval_ledger(pt)
                .map_err(|e| ModelError::BadConfig(format!("symbolic eval of {name}: {e}")))?;
            Answer::Symbolic {
                family: conf.family.to_string(),
                derived: conf.derived.to_string(),
                fixture: conf.fixture.to_string(),
                equivalent: conf.equivalent,
                regression: conf.regression,
                matches: evaluated == predict_ledger(&plan)?,
                total: evaluated.total_time(),
            }
        }
        QueryKind::Audit => {
            let o = parbounds_adversary::audit_family(name, n)?;
            Answer::Audit {
                family: o.family.to_string(),
                size: o.size,
                fan: o.fan,
                steps: o.steps_checked,
                clamped: o.budget_clamped,
                all_good: o.all_good,
                lower: o.lower_theta.to_string(),
                upper: o.upper_theta.to_string(),
                verdict: o.verdict.name().to_string(),
            }
        }
    })
}

/// One completed request.
struct Done {
    index: usize,
    ms: f64,
    response: Result<Response, String>,
}

/// The serve-mix workload state.
pub struct ServeMix {
    seed: u64,
    server: Server,
    keys: Vec<Key>,
    cursor: usize,
    /// First answer seen per key, across windows.
    answers: HashMap<Key, Answer>,
}

impl std::fmt::Debug for ServeMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMix")
            .field("cursor", &self.cursor)
            .finish()
    }
}

/// Sends one request through the wire codec and the server.
fn request(t: &mut Tracer, server: &Server, key: &Key, id: u64) -> Result<Response, String> {
    let req = key.request(id);
    let line = t.call("serve.wire", || req.to_json().render());
    let req = t.span("serve.wire", || {
        json::parse(&line).and_then(|v| Request::from_json(&v))
    })?;
    let resp = t.call("serve.submit", || server.submit(req));
    let line = t.call("serve.wire", || resp.to_json().render());
    t.span("serve.wire", || {
        json::parse(&line).and_then(|v| Response::from_json(&v))
    })
}

impl Workload for ServeMix {
    fn setup(seed: u64) -> Result<Self, String> {
        let keys = stream(seed);
        let server = Server::start(ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        });
        // Warm-up: every family and kind once at the small size, on a
        // seed the stream never uses; then every seed-free key, which the
        // stream only repeats, so their one cold miss is not timed.
        let mut warm = Vec::new();
        for (family, name) in IR_FAMILIES.iter().enumerate() {
            for kind in 0..KINDS.len() {
                warm.push(Key {
                    family,
                    n: 0,
                    kind,
                    seed: 7,
                });
                if SEED_FREE.contains(name) {
                    warm.extend((0..NS.len()).map(|n| Key {
                        family,
                        n,
                        kind,
                        seed: 0,
                    }));
                }
            }
        }
        for key in warm {
            if let Err(e) = server.submit(key.request(u64::MAX)).result {
                return Err(format!("warm-up request failed: {}", e.message));
            }
        }
        Ok(ServeMix {
            seed,
            server,
            keys,
            cursor: 0,
            answers: HashMap::new(),
        })
    }

    fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let oracle = self.server.oracle();
        let (cache0, analyses0, degraded0) = (
            oracle.cache_stats(),
            oracle.analyses_performed(),
            oracle.degraded_served(),
        );
        let start_index = self.cursor;
        let cursor = AtomicUsize::new(self.cursor);
        let done = Mutex::new(Vec::new());
        let spans = Mutex::new(Vec::new());
        let mut reference_ms = Vec::new();
        let mut paused = Duration::ZERO;
        let epoch = Instant::now();
        let deadline = epoch + Duration::from_secs_f64(seconds);
        let (server, keys) = (&self.server, &self.keys);
        // The clients run in chunks; between chunks, with no request in
        // flight, the reference kernel calibrates the host's speed.
        while Instant::now() < deadline && cursor.load(Ordering::Relaxed) < keys.len() {
            let until = (Instant::now() + CHUNK).min(deadline);
            std::thread::scope(|s| {
                for _ in 0..CLIENTS {
                    s.spawn(|| {
                        let mut tracer = Tracer::new(traced, epoch);
                        let mut mine = Vec::new();
                        while Instant::now() < until {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(key) = keys.get(index) else { break };
                            let t = Instant::now();
                            let response = tracer.job(index as u32, "job.request", |tr| {
                                request(tr, server, key, index as u64)
                            });
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            mine.push(Done {
                                index,
                                ms,
                                response,
                            });
                        }
                        done.lock()
                            .expect("no client panics holding the lock")
                            .extend(mine);
                        spans
                            .lock()
                            .expect("no client panics holding the lock")
                            .push(tracer.take());
                    });
                }
            });
            let t = Instant::now();
            crate::calibrate(&mut reference_ms);
            paused += t.elapsed();
        }
        let wall_s = (epoch.elapsed() - paused).as_secs_f64();
        let mut done = done.into_inner().expect("clients joined");
        done.sort_by_key(|d| d.index);
        self.cursor = done.last().map_or(self.cursor, |d| d.index + 1);

        let mut win = Window {
            wall_s,
            job_ms: done.iter().map(|d| d.ms).collect(),
            reference_ms,
            ..Window::default()
        };

        // Checks, after the window: typed, undegraded answers; every
        // repeat identical to the key's first answer; a seeded sample of
        // keys recomputed directly.
        let (mut shed, mut errors, mut degraded) = (0u64, 0u64, 0u64);
        let mut cached = vec![false; done.len()];
        for (k, d) in done.iter().enumerate() {
            let key = self.keys[d.index];
            let resp = match &d.response {
                Ok(r) => r,
                Err(e) => {
                    errors += 1;
                    win.fail(format!("request {}: wire codec: {e}", d.index));
                    continue;
                }
            };
            cached[k] = resp.cached;
            if resp.id != d.index as u64 {
                win.fail(format!("request {}: response id {}", d.index, resp.id));
                continue;
            }
            match &resp.result {
                Err(e) if e.code == ErrorCode::Overloaded => {
                    shed += 1;
                    win.fail(format!("request {}: shed", d.index));
                }
                Err(e) => {
                    errors += 1;
                    win.fail(format!(
                        "request {}: {}: {}",
                        d.index,
                        e.code.name(),
                        e.message
                    ));
                }
                Ok(_) if resp.degraded => {
                    degraded += 1;
                    win.fail(format!("request {}: degraded answer", d.index));
                }
                Ok(answer) => match self.answers.get(&key) {
                    Some(first) if first != answer => win.fail(format!(
                        "request {}: repeated key answered differently",
                        d.index
                    )),
                    Some(_) => {}
                    None => {
                        self.answers.insert(key, answer.clone());
                    }
                },
            }
        }
        win.shape = done
            .iter()
            .zip(&cached)
            .map(|(d, &c)| {
                let k = self.keys[d.index];
                (((k.family * NS.len() + k.n) * KINDS.len() + k.kind) * 2 + usize::from(c)) as u32
            })
            .collect();
        let mut distinct: Vec<Key> = done.iter().map(|d| self.keys[d.index]).collect();
        distinct.sort();
        distinct.dedup();
        let mut rng = SplitMix::new(self.seed, 0xc4ec_0000 + start_index as u64);
        for _ in 0..DIRECT_CHECKS.min(distinct.len()) {
            let key = distinct.swap_remove(rng.below(distinct.len()));
            let Some(served) = self.answers.get(&key) else {
                continue;
            };
            match direct_answer(&key) {
                Ok(direct) if direct == *served => {}
                Ok(_) => win.fail(format!(
                    "{key:?}: served answer differs from the direct computation"
                )),
                Err(e) => win.fail(format!("{key:?}: direct computation failed: {e}")),
            }
        }

        let seen: std::collections::HashSet<Key> =
            self.keys[..start_index].iter().copied().collect();
        let mut seen = seen;
        let repeats = done
            .iter()
            .filter(|d| !seen.insert(self.keys[d.index]))
            .count();
        let hit_share = cached.iter().filter(|&&c| c).count() as f64 / done.len().max(1) as f64;
        win.notes.push(format!(
            "serve-mix: {} requests, {} clients, {} workers, repeat share {:.3}, cached share {hit_share:.3}",
            done.len(),
            CLIENTS,
            WORKERS,
            repeats as f64 / done.len().max(1) as f64
        ));

        if traced {
            let recordings = spans.into_inner().expect("clients joined");
            for r in recordings {
                win.bounds.push(win.spans.len());
                win.spans.extend(r);
            }
            let agg = trace::aggregate(&win.spans, &win.bounds);
            trace::common_layer_metrics(&agg, &win.spans, &win.bounds, &mut win.layer);
            // Submit latency per request, split by cache outcome and kind.
            let position: HashMap<usize, usize> =
                done.iter().enumerate().map(|(k, d)| (d.index, k)).collect();
            let mut hit = Vec::new();
            let mut miss = Vec::new();
            let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for s in win.spans.iter().filter(|s| s.name == "serve.submit") {
                let Some(&k) = position.get(&(s.job as usize)) else {
                    continue;
                };
                let ms = s.nanos() as f64 / 1e6;
                if cached[k] {
                    hit.push(ms);
                } else {
                    miss.push(ms);
                    by_kind
                        .entry(self.keys[done[k].index].kind)
                        .or_default()
                        .push(ms);
                }
            }
            win.layer
                .insert("serve.hit.ms_p50", percentile(&mut hit, 0.5));
            win.layer
                .insert("serve.miss.ms_p50", percentile(&mut miss, 0.5));
            const KIND_METRICS: [&str; 7] = [
                "serve.static.miss_ms_p50",
                "serve.lint.miss_ms_p50",
                "serve.certify.miss_ms_p50",
                "serve.run.miss_ms_p50",
                "serve.compare.miss_ms_p50",
                "serve.symbolic.miss_ms_p50",
                "serve.audit.miss_ms_p50",
            ];
            for (kind, mut v) in by_kind {
                win.layer
                    .insert(KIND_METRICS[kind], percentile(&mut v, 0.5));
            }
            let oracle = self.server.oracle();
            let cache = oracle.cache_stats();
            let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
            win.layer.insert(
                "serve.cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            win.layer.insert(
                "serve.repeat_share",
                repeats as f64 / done.len().max(1) as f64,
            );
            win.layer.insert(
                "serve.cache.analyses",
                (oracle.analyses_performed() - analyses0) as f64,
            );
            win.layer.insert(
                "serve.compiled_plans",
                oracle.compiled_plans_cached() as f64,
            );
            win.layer.insert(
                "serve.degraded",
                (oracle.degraded_served() - degraded0).max(degraded) as f64,
            );
            win.layer.insert("serve.shed", shed as f64);
            win.layer.insert("serve.errors", errors as f64);
            win.notes.push(format!(
                "serve-mix traced: {} hits, {} misses (submit latency samples)",
                hit.len(),
                miss.len()
            ));
        }
        win
    }

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn threads(&self) -> String {
        format!("{CLIENTS} clients, {WORKERS} server workers")
    }
}
