//! `large-n`: one-shot pipeline jobs on large plans, where per-request
//! work dominates.
//!
//! A closed loop on one thread (two for the `Fixed(2)` engine jobs) over a
//! fixed rotation. Each IR family runs three jobs — `interp` (build,
//! validate, interpret), `compiled` (build, validate, compile, compiled
//! run) and `analyze` (build, validate, predict, certify, lint) — and the
//! closure-engine jobs `parbounds run` uses run beside them at
//! `Parallelism::Off` and `Fixed(2)`. Every rotation draws fresh seeds.

use std::collections::BTreeMap;
use std::time::Instant;

use parbounds_algo::{bsp_algos, ir_families, lac, or_tree, reduce, workloads};
use parbounds_analyze::{certify_writes, lint_plan, predict_ledger, Severity};
use parbounds_ir::{
    compile_plan, execute_compiled_cancellable, execute_plan, CompileOutcome, PhasePlan, PlanBody,
    PlanRun,
};
use parbounds_models::{BspMachine, CancelToken, CostLedger, Parallelism, QsmMachine, Word};

use crate::trace::{self, Tracer};
use crate::{SplitMix, Window, Workload};

/// log2 of the problem size of the large families.
const LOG_N: u32 = 16;
/// prefix-sweep runs at a quarter of that, so no single job dominates.
const PREFIX_LOG_N: u32 = LOG_N - 2;
/// log2 of the size of the set-up warm-up rotation.
const WARMUP_LOG_N: u32 = 13;
/// Gap of every shared-memory family.
const G: u64 = 8;
/// BSP components of `bsp-reduce` and `bsp_parity`.
const BSP_P: usize = 4096;
/// BSP latency.
const BSP_L: u64 = 8 * G;

/// The IR families and their sizes (as log2 offsets from `LOG_N`).
const FAMILIES: [(&str, u32); 6] = [
    ("or-write-tree", LOG_N),
    ("parity-read-tree", LOG_N),
    ("broadcast", LOG_N),
    ("scatter-gather", LOG_N),
    ("bsp-reduce", LOG_N),
    ("prefix-sweep", PREFIX_LOG_N),
];

/// The closure-engine jobs.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// `or_tree::or_write_tree` on the QSM (fan-in g).
    OrTree,
    /// `reduce::parity_read_tree` on the s-QSM (binary).
    ParityTree,
    /// `lac::lac_dart` on the QSM, h = n/8.
    Lac,
    /// `bsp_algos::bsp_parity` on the BSP, p = 4096.
    BspParity,
}

const ENGINES: [Engine; 4] = [
    Engine::OrTree,
    Engine::ParityTree,
    Engine::Lac,
    Engine::BspParity,
];

impl Engine {
    fn model(self) -> &'static str {
        match self {
            Engine::OrTree | Engine::Lac => "qsm",
            Engine::ParityTree => "sqsm",
            Engine::BspParity => "bsp",
        }
    }

    /// Span of a run at `Parallelism::Off`.
    fn span(self) -> &'static str {
        match self {
            Engine::OrTree | Engine::Lac => "models.qsm",
            Engine::ParityTree => "models.sqsm",
            Engine::BspParity => "models.bsp",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Engine::OrTree => "or_write_tree",
            Engine::ParityTree => "parity_read_tree",
            Engine::Lac => "lac_dart",
            Engine::BspParity => "bsp_parity",
        }
    }
}

/// Builds one family's plan and canonical input.
fn build(family: &str, n: usize, seed: u64) -> (PhasePlan, Vec<Word>) {
    match family {
        "or-write-tree" => ir_families::or_write_tree_plan(n, G),
        "parity-read-tree" => ir_families::parity_read_tree_plan(n, G, seed),
        "broadcast" => ir_families::broadcast_plan(n, G),
        "scatter-gather" => ir_families::scatter_gather_plan(n, G, seed),
        "bsp-reduce" => ir_families::bsp_reduce_plan(BSP_P.min(n), G, BSP_L, n, seed),
        "prefix-sweep" => ir_families::prefix_sweep_plan(n, G, seed),
        other => unreachable!("unknown large-n family {other}"),
    }
}

/// The answer the benchmark computes itself for a family's input.
fn expected_output(family: &str, input: &[Word], n: usize) -> Vec<Word> {
    let xor = input.iter().fold(0, |a, &b| a ^ (b & 1));
    match family {
        "or-write-tree" => vec![Word::from(input.iter().any(|&b| b != 0))],
        "parity-read-tree" => vec![xor],
        "broadcast" => vec![input[0]; n],
        "scatter-gather" => (0..n).map(|j| input[(n - j) % n]).collect(),
        "bsp-reduce" => vec![xor],
        "prefix-sweep" => input
            .iter()
            .scan(0, |acc, &v| {
                *acc += v;
                Some(*acc)
            })
            .collect(),
        other => unreachable!("unknown large-n family {other}"),
    }
}

/// Whether `output` carries the expected answer. BSP plans declare every
/// component's register 0; the reduction's answer is component 0's.
fn output_ok(family: &str, output: &[Word], expected: &[Word]) -> bool {
    if family == "bsp-reduce" {
        output.first() == expected.first()
    } else {
        output == expected
    }
}

/// Simulated requests a plan issues: reads and writes of every phase, or
/// sends of every superstep.
fn simulated_requests(plan: &PhasePlan) -> u64 {
    match &plan.body {
        PlanBody::Shared(phases) => phases
            .iter()
            .flat_map(|ph| &ph.procs)
            .map(|p| (p.reads.len() + p.writes.len()) as u64)
            .sum(),
        PlanBody::Msg { steps, .. } => steps
            .iter()
            .flat_map(|s| &s.comps)
            .map(|c| c.sends.len() as u64)
            .sum(),
    }
}

/// One job's result, kept for the checks that run after the timer.
enum Out {
    Interp(PlanRun, Vec<Word>),
    Compiled(Option<PlanRun>),
    Analyze(CostLedger, bool, usize),
    Engine(Word, u64, bool),
    Failed(String),
}

/// The large-n workload state.
#[derive(Debug)]
pub struct LargeN {
    seed: u64,
    rotation: u64,
    log_n: u32,
    /// Simulated requests per family plan (structure only; seed-free).
    simreqs: BTreeMap<&'static str, u64>,
}

impl LargeN {
    /// Runs one rotation and checks its answers; returns its timed seconds.
    fn rotation(&mut self, tracer: &mut Tracer, win: &mut Window, stats: &mut Stats) -> f64 {
        let mut rng = SplitMix::new(self.seed, 0x1a49_e000 + self.rotation);
        self.rotation += 1;
        let shift = LOG_N - self.log_n;
        let mut busy = 0.0;
        let mut next_id = stats.jobs;
        let mut job = |tracer: &mut Tracer,
                       win: &mut Window,
                       name: &'static str,
                       f: &mut dyn FnMut(&mut Tracer) -> Out|
         -> (Out, u32) {
            let id = next_id;
            next_id += 1;
            let t = Instant::now();
            let out = tracer.job(id, name, |t| f(t));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            win.job_ms.push(ms);
            busy += ms / 1e3;
            (out, id)
        };

        for &(family, log_n) in &FAMILIES {
            let n = 1usize << (log_n - shift);
            let fseed = rng.next_u64();
            let simreqs = &mut self.simreqs;
            let count =
                |tracer: &Tracer, plan: &PhasePlan, simreqs: &mut BTreeMap<&'static str, u64>| {
                    if tracer.is_on() {
                        *simreqs
                            .entry(family)
                            .or_insert_with(|| simulated_requests(plan))
                    } else {
                        0
                    }
                };

            let (interp, id) = job(tracer, win, "job.interp", &mut |t| {
                let (plan, input) = t.call("algo.plan_build", || build(family, n, fseed));
                if let Err(e) = t.span("ir.validate", || plan.validate()) {
                    return Out::Failed(format!("{family} validate: {e}"));
                }
                let reqs = count(t, &plan, simreqs);
                match t.span("ir.interp", || execute_plan(&plan, &input)) {
                    Ok(run) => {
                        stats.interp_reqs += reqs;
                        Out::Interp(run, input)
                    }
                    Err(e) => Out::Failed(format!("{family} execute_plan: {e}")),
                }
            });
            stats.family_of.push((id, family));

            let (compiled, id) = job(tracer, win, "job.compiled", &mut |t| {
                let (plan, input) = t.call("algo.plan_build", || build(family, n, fseed));
                if let Err(e) = t.span("ir.validate", || plan.validate()) {
                    return Out::Failed(format!("{family} validate: {e}"));
                }
                let reqs = count(t, &plan, simreqs);
                stats.compile_attempts += 1;
                let cp = match t.span("ir.compile", || compile_plan(&plan)) {
                    Ok(CompileOutcome::Compiled(cp)) => cp,
                    Ok(CompileOutcome::Ineligible(_)) => return Out::Compiled(None),
                    Err(e) => return Out::Failed(format!("{family} compile_plan: {e}")),
                };
                stats.compile_eligible += 1;
                let token = CancelToken::new();
                match t.span("ir.compiled", || {
                    execute_compiled_cancellable(&plan, &cp, &input, &token)
                }) {
                    Ok(run) => {
                        stats.compiled_reqs += reqs;
                        Out::Compiled(Some(run))
                    }
                    Err(e) => Out::Failed(format!("{family} compiled run: {e}")),
                }
            });
            stats.family_of.push((id, family));

            let (analyze, id) = job(tracer, win, "job.analyze", &mut |t| {
                let (plan, _input) = t.call("algo.plan_build", || build(family, n, fseed));
                if let Err(e) = t.span("ir.validate", || plan.validate()) {
                    return Out::Failed(format!("{family} validate: {e}"));
                }
                let predicted = match t.span("analyze.predict", || predict_ledger(&plan)) {
                    Ok(l) => l,
                    Err(e) => return Out::Failed(format!("{family} predict_ledger: {e}")),
                };
                let race_free = match t.span("analyze.certify", || certify_writes(&plan)) {
                    Ok(c) => c.is_race_free(),
                    Err(e) => return Out::Failed(format!("{family} certify_writes: {e}")),
                };
                match t.span("analyze.lint", || lint_plan(&plan)) {
                    Ok(d) => {
                        let errors = d.iter().filter(|d| d.severity == Severity::Error).count();
                        Out::Analyze(predicted, race_free, errors)
                    }
                    Err(e) => Out::Failed(format!("{family} lint_plan: {e}")),
                }
            });
            stats.family_of.push((id, family));

            check_family(family, n, interp, compiled, analyze, win);
        }

        // Closure-engine jobs on inputs generated outside the timer.
        let n = 1usize << (LOG_N - shift);
        for engine in ENGINES {
            let eseed = rng.next_u64();
            let input = match engine {
                Engine::Lac => workloads::sparse_items(n, (n / 8).max(1), eseed),
                _ => workloads::random_bits(n, eseed),
            };
            let mut outs = Vec::with_capacity(2);
            for par in [Parallelism::Off, Parallelism::Fixed(2)] {
                let span = if par == Parallelism::Off {
                    engine.span()
                } else {
                    "models.par2"
                };
                let (out, _) = job(tracer, win, "job.engine", &mut |t| {
                    run_engine(t, engine, span, par, &input, n, eseed)
                });
                outs.push(out);
            }
            check_engine(engine, &input, outs, win);
        }
        stats.jobs = next_id;
        busy
    }
}

/// Runs one closure-engine job.
fn run_engine(
    t: &mut Tracer,
    engine: Engine,
    span: &'static str,
    par: Parallelism,
    input: &[Word],
    n: usize,
    seed: u64,
) -> Out {
    let model = Some(engine.model());
    let res = match engine {
        Engine::OrTree => {
            let m = QsmMachine::qsm(G).with_parallelism(par);
            t.span_on(span, model, || {
                or_tree::or_write_tree(&m, input, G as usize)
            })
            .map(|o| (o.value, o.run.time(), true))
        }
        Engine::ParityTree => {
            let m = QsmMachine::sqsm(G).with_parallelism(par);
            t.span_on(span, model, || reduce::parity_read_tree(&m, input, 2))
                .map(|o| (o.value, o.run.time(), true))
        }
        Engine::Lac => {
            let m = QsmMachine::qsm(G).with_parallelism(par);
            t.span_on(span, model, || {
                lac::lac_dart(&m, input, (n / 8).max(1), seed)
            })
            .map(|o| {
                (
                    o.dest().iter().filter(|&&v| v != 0).count() as Word,
                    o.run.time(),
                    o.verify(input),
                )
            })
        }
        Engine::BspParity => match BspMachine::new(BSP_P.min(n), G, BSP_L) {
            Ok(m) => {
                let m = m.with_parallelism(par);
                t.span_on(span, model, || bsp_algos::bsp_parity(&m, input))
                    .map(|o| (o.value, o.time(), true))
            }
            Err(e) => Err(e),
        },
    };
    match res {
        Ok((value, time, verified)) => Out::Engine(value, time, verified),
        Err(e) => Out::Failed(format!("{} ({par:?}): {e}", engine.name())),
    }
}

/// Checks a family's three jobs against each other and against the
/// benchmark's own answer: output, predicted == measured ledger, compiled
/// == interpreted (output and ledger), race-freedom, no error lints.
fn check_family(
    family: &str,
    n: usize,
    interp: Out,
    compiled: Out,
    analyze: Out,
    win: &mut Window,
) {
    let bad = |w: &mut Window, what: String| w.fail(format!("{family}: {what}"));
    let (run, input) = match interp {
        Out::Interp(run, input) => (Some(run), input),
        Out::Failed(e) => {
            bad(win, e);
            (None, Vec::new())
        }
        _ => unreachable!("interp job returns Interp"),
    };
    if let Some(run) = &run {
        if !output_ok(family, &run.output, &expected_output(family, &input, n)) {
            bad(
                win,
                "interpreted output differs from the expected answer".into(),
            );
        }
    }
    match compiled {
        Out::Compiled(Some(c)) => {
            if run.as_ref().is_some_and(|r| *r != c) {
                bad(win, "compiled run differs from the interpreted run".into());
            }
        }
        Out::Compiled(None) => bad(win, "plan was not eligible for compilation".into()),
        Out::Failed(e) => bad(win, e),
        _ => unreachable!("compiled job returns Compiled"),
    }
    match analyze {
        Out::Analyze(predicted, race_free, errors) => {
            if run.as_ref().is_some_and(|r| r.ledger != predicted) {
                bad(win, "measured ledger differs from predict_ledger".into());
            }
            if !race_free {
                bad(win, "certify_writes refused a race-free family".into());
            }
            if errors > 0 {
                bad(win, format!("{errors} error-severity lint(s)"));
            }
        }
        Out::Failed(e) => bad(win, e),
        _ => unreachable!("analyze job returns Analyze"),
    }
}

/// Checks an engine's two runs: the benchmark's own answer, and
/// `Fixed(2)` bit-identical to `Off`.
fn check_engine(engine: Engine, input: &[Word], outs: Vec<Out>, win: &mut Window) {
    let xor = input.iter().fold(0, |a, &b| a ^ (b & 1));
    let expected = match engine {
        Engine::OrTree => Word::from(input.iter().any(|&b| b != 0)),
        Engine::ParityTree | Engine::BspParity => xor,
        Engine::Lac => input.iter().filter(|&&v| v != 0).count() as Word,
    };
    let mut first = None;
    for out in outs {
        match out {
            Out::Engine(value, time, verified) => {
                if value != expected || !verified {
                    win.fail(format!(
                        "{}: answer {value} != expected {expected}",
                        engine.name()
                    ));
                }
                match first {
                    None => first = Some((value, time)),
                    Some(f) if f != (value, time) => {
                        win.fail(format!("{}: Fixed(2) differs from Off", engine.name()))
                    }
                    Some(_) => {}
                }
            }
            Out::Failed(e) => win.fail(e),
            _ => unreachable!("engine job returns Engine"),
        }
    }
}

/// Counters of a window that are not spans.
#[derive(Debug, Default)]
struct Stats {
    jobs: u32,
    compile_attempts: u64,
    compile_eligible: u64,
    interp_reqs: u64,
    compiled_reqs: u64,
    family_of: Vec<(u32, &'static str)>,
}

impl Workload for LargeN {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = LargeN {
            seed,
            rotation: u64::MAX / 2,
            log_n: WARMUP_LOG_N,
            simreqs: BTreeMap::new(),
        };
        // Warm-up: one full rotation at a small size, untimed.
        let mut win = Window::default();
        let mut stats = Stats::default();
        w.rotation(
            &mut Tracer::new(false, Instant::now()),
            &mut win,
            &mut stats,
        );
        if win.failed > 0 {
            return Err(format!("warm-up rotation failed: {:?}", win.failures));
        }
        w.rotation = 0;
        w.log_n = LOG_N;
        Ok(w)
    }

    fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let mut tracer = Tracer::new(traced, Instant::now());
        let mut win = Window::default();
        let mut stats = Stats::default();
        let mut rotations = 0;
        while win.wall_s < seconds || rotations == 0 {
            let start = win.job_ms.len();
            let wall = self.rotation(&mut tracer, &mut win, &mut stats);
            win.end_block(start, wall);
            rotations += 1;
        }
        win.notes.push(format!(
            "large-n: {rotations} rotation(s) of 26 jobs, n = 2^{LOG_N} (prefix-sweep 2^{PREFIX_LOG_N}), bsp p = {BSP_P}"
        ));
        if traced {
            win.spans = tracer.take();
            win.bounds = vec![0];
            layer_metrics(&mut win, &stats);
        }
        win
    }

    fn threads(&self) -> String {
        "1 (2 for Fixed(2) engine jobs)".into()
    }
}

/// Derives the per-layer metrics of a traced window.
fn layer_metrics(win: &mut Window, stats: &Stats) {
    let agg = trace::aggregate(&win.spans, &win.bounds);
    trace::common_layer_metrics(&agg, &win.spans, &win.bounds, &mut win.layer);
    let ns = |name: &str| agg.get(name).map_or(0, |a| a.self_ns) as f64;
    win.layer
        .insert("ir.compile.calls", stats.compile_attempts as f64);
    win.layer.insert(
        "ir.compile.eligible_ratio",
        stats.compile_eligible as f64 / stats.compile_attempts.max(1) as f64,
    );
    win.layer.insert(
        "ir.compile.per_interp",
        ns("ir.compile") / ns("ir.interp").max(1.0),
    );
    win.layer.insert(
        "analyze.predict.per_interp",
        ns("analyze.predict") / ns("ir.interp").max(1.0),
    );
    win.layer.insert(
        "ir.interp.ns_per_simreq",
        ns("ir.interp") / stats.interp_reqs.max(1) as f64,
    );
    win.layer.insert(
        "ir.compiled.ns_per_simreq",
        ns("ir.compiled") / stats.compiled_reqs.max(1) as f64,
    );

    // The per-family sanity check: compile and predict against one
    // interpreted run of the same plan.
    let family: BTreeMap<u32, &str> = stats.family_of.iter().copied().collect();
    let mut per: BTreeMap<&str, [f64; 3]> = BTreeMap::new();
    let selfs = trace::self_times(&win.spans);
    for (s, self_ns) in win.spans.iter().zip(selfs) {
        let slot = match s.name {
            "ir.compile" => 0,
            "analyze.predict" => 1,
            "ir.interp" => 2,
            _ => continue,
        };
        if let Some(f) = family.get(&s.job) {
            per.entry(f).or_default()[slot] += self_ns as f64;
        }
    }
    for (f, [compile, predict, interp]) in per {
        win.notes.push(format!(
            "sanity {f:<17} compile/interp {:.2}x  predict/interp {:.2}x",
            compile / interp.max(1.0),
            predict / interp.max(1.0)
        ));
    }
}
