//! The parbounds benchmark: one command, three seeded workloads, every
//! answer checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload large-n|sweep-grid|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the same workload untraced for half the window and traced for the
//! other half, and reports the per-layer metrics derived from the spans
//! plus `trace.overhead`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A wrong answer
//! makes the run exit non-zero. See `perfbench/README.md` for the
//! workloads, the layers and which end-to-end metric each layer moves.

#![forbid(unsafe_code)]

mod large_n;
mod serve_mix;
mod sweep_grid;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use trace::{hd_quantile, percentile, Span};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("job_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload never reaches reads 0 there (see the README's map).
const PER_LAYER: &[(&str, &str)] = &[
    ("algo.plan_build.ms", "ms"),
    ("algo.errors", "count"),
    ("ir.validate.ms", "ms"),
    ("ir.interp.ms", "ms"),
    ("ir.interp.ns_per_simreq", "ns"),
    ("ir.compile.ms", "ms"),
    ("ir.compile.calls", "count"),
    ("ir.compile.eligible_ratio", "ratio"),
    ("ir.compile.per_interp", "ratio"),
    ("ir.compiled.ms", "ms"),
    ("ir.compiled.ns_per_simreq", "ns"),
    ("ir.errors", "count"),
    ("analyze.predict.ms", "ms"),
    ("analyze.predict.per_interp", "ratio"),
    ("analyze.certify.ms", "ms"),
    ("analyze.lint.ms", "ms"),
    ("analyze.errors", "count"),
    ("models.qsm.ms", "ms"),
    ("models.sqsm.ms", "ms"),
    ("models.gsm.ms", "ms"),
    ("models.bsp.ms", "ms"),
    ("models.par2.ms", "ms"),
    ("models.errors", "count"),
    ("core.sweep.ms", "ms"),
    ("core.shard.ms", "ms"),
    ("core.errors", "count"),
    ("serve.wire.ms", "ms"),
    ("serve.hit.ms_p50", "ms"),
    ("serve.miss.ms_p50", "ms"),
    ("serve.static.miss_ms_p50", "ms"),
    ("serve.lint.miss_ms_p50", "ms"),
    ("serve.certify.miss_ms_p50", "ms"),
    ("serve.run.miss_ms_p50", "ms"),
    ("serve.compare.miss_ms_p50", "ms"),
    ("serve.symbolic.miss_ms_p50", "ms"),
    ("serve.audit.miss_ms_p50", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("serve.cache.analyses", "count"),
    ("serve.compiled_plans", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("trace.overhead", "ratio"),
];

/// What one timed window of a workload produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of the timed window, seconds. Answer checks, input
    /// generation and reference-kernel runs between jobs are outside it.
    pub wall_s: f64,
    /// Wall time of every job, milliseconds.
    pub job_ms: Vec<f64>,
    /// Every job's shape: jobs of one shape do the same work on inputs of
    /// the same size. A job's position in its block unless the workload
    /// sets it.
    pub shape: Vec<u32>,
    /// Timed seconds of each block spent outside its jobs (a pass's shard
    /// stage), for workloads that close blocks with [`Window::end_block`].
    pub stage_s: Vec<f64>,
    /// Times of the reference kernel, run between blocks (between client
    /// chunks in `serve-mix`), milliseconds.
    pub reference_ms: Vec<f64>,
    /// Jobs that failed: a typed error, a shed or degraded answer, or a
    /// wrong answer.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// Spans of a traced window, one recording per thread.
    pub spans: Vec<Span>,
    /// Start index of each thread's recording in `spans`.
    pub bounds: Vec<usize>,
    /// Per-layer metrics the workload derives from the spans.
    pub layer: BTreeMap<&'static str, f64>,
    /// Extra report lines (sanity checks, sample counts).
    pub notes: Vec<String>,
}

impl Window {
    /// Closes a block (a rotation or a pass: the same jobs in the same
    /// order in every block) holding the jobs recorded since job index
    /// `start` and `wall_s` timed seconds, then calibrates.
    pub fn end_block(&mut self, start: usize, wall_s: f64) {
        self.shape
            .extend((0..self.job_ms.len() - start).map(|k| k as u32));
        let jobs_s: f64 = self.job_ms[start..].iter().sum::<f64>() / 1e3;
        self.stage_s.push((wall_s - jobs_s).max(0.0));
        self.wall_s += wall_s;
        calibrate(&mut self.reference_ms);
    }

    /// The fastest run of each job shape in the window, milliseconds.
    ///
    /// The host this benchmark is built for is a shared VM whose speed
    /// drifts by up to 1.5x over seconds to minutes while the vCPU stays
    /// busy (a fixed loop's CPU time tracks its wall time). A shape's
    /// fastest run is its least disturbed one, so these times measure the
    /// program at the best speed the host reached during the window.
    pub fn best_by_shape(&self) -> BTreeMap<u32, f64> {
        let mut best: BTreeMap<u32, f64> = BTreeMap::new();
        for (&s, &ms) in self.shape.iter().zip(&self.job_ms) {
            let b = best.entry(s).or_insert(ms);
            *b = b.min(ms);
        }
        best
    }

    /// The fastest block stage, seconds; 0 without blocks.
    pub fn best_stage_s(&self) -> f64 {
        let s = self.stage_s.iter().copied().fold(f64::INFINITY, f64::min);
        if s.is_finite() {
            s
        } else {
            0.0
        }
    }

    /// Jobs per second and every job's time in milliseconds, each job
    /// timed at its shape's fastest run (a pass's shard stage at its
    /// fastest block), with `clients` jobs in flight at once: a closed
    /// loop's rate is its client count over the mean job time.
    pub fn best(&self, clients: usize) -> (f64, Vec<f64>) {
        let best = self.best_by_shape();
        let ms: Vec<f64> = self.shape.iter().map(|s| best[s]).collect();
        let busy_s = ms.iter().sum::<f64>() / 1e3 + self.best_stage_s() * self.stage_s.len() as f64;
        (clients as f64 * ms.len() as f64 / busy_s.max(1e-9), ms)
    }

    /// Records one failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// A seeded workload: set up once (timed), then run timed windows.
pub trait Workload: Sized {
    /// Generates inputs, starts machines or servers and warms up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs the workload for at least `seconds`, traced or not.
    fn window(&mut self, seconds: f64, traced: bool) -> Window;
    /// Thread and worker counts, for the provenance stamp.
    fn threads(&self) -> String;
    /// Jobs in flight at once: the closed loop's client count.
    fn clients(&self) -> usize {
        1
    }
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Reference-kernel runs per calibration.
const CALIBRATION_REPS: usize = 3;

/// The reference kernel's time, milliseconds, on the host that the
/// end-to-end times are scaled to: job times (each shape's fastest run)
/// by the kernel's fastest run, `setup_s` (the median set-up) by its
/// median run, so each is scaled by the statistic of its own kind.
const REFERENCE_MS: f64 = 1.25;

/// Runs the reference kernel [`CALIBRATION_REPS`] times, recording each
/// time in milliseconds.
pub fn calibrate(times: &mut Vec<f64>) {
    for _ in 0..CALIBRATION_REPS {
        let t = Instant::now();
        std::hint::black_box(reference_kernel());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// A fixed mix of the work the program does most (allocation, sorting,
/// hashing and scattered access to a buffer larger than L2), written in
/// the benchmark's own code: its time follows the host's speed and never
/// the program's.
fn reference_kernel() -> u64 {
    let mut rng = SplitMix::new(0x5eed, 0xca1b);
    let mut v: Vec<u64> = (0..1 << 15).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut counts: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for x in &v {
        *counts.entry(x >> 52).or_default() += 1;
    }
    let mut table = vec![0u64; 1 << 18];
    let mask = table.len() - 1;
    for x in &v {
        let k = (*x as usize) & mask;
        table[k] = table[k].wrapping_add(*x);
    }
    v.iter()
        .zip(&table)
        .fold(counts.len() as u64, |a, (x, t)| a ^ x ^ t)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(int(&value)?),
            "--seconds" => seconds = Some(int(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload large-n|sweep-grid|serve-mix --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "large-n" => run::<large_n::LargeN>(&args, started),
        "sweep-grid" => run::<sweep_grid::SweepGrid>(&args, started),
        "serve-mix" => run::<serve_mix::ServeMix>(&args, started),
        other => Err(format!(
            "unknown workload '{other}' (expected large-n|sweep-grid|serve-mix)"
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs one workload and prints its report. `Ok(false)` when any answer
/// was wrong or any job failed.
fn run<W: Workload>(args: &Args, started: Instant) -> Result<bool, String> {
    let mut reference = Vec::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous instance first, so each set-up starts from
        // the same state.
        drop(workload.take());
        calibrate(&mut reference);
        let t = Instant::now();
        workload = Some(W::setup(args.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let setup_s = trace::median(&mut setups);
    let to_first_job = started.elapsed().as_secs_f64();

    let secs = args.seconds as f64;
    let (main, traced) = if args.trace {
        let untraced = workload.window(secs / 2.0, false);
        let traced = workload.window(secs / 2.0, true);
        (untraced, Some(traced))
    } else {
        (workload.window(secs, false), None)
    };
    reference.extend(&main.reference_ms);
    reference.extend(traced.iter().flat_map(|t| &t.reference_ms));
    let reference_min = reference.iter().copied().fold(f64::INFINITY, f64::min);
    let scale = REFERENCE_MS / reference_min;
    let reference_median = trace::median(&mut reference.clone());

    let attempted = main.job_ms.len() as u64 + traced.as_ref().map_or(0, |t| t.job_ms.len() as u64);
    let failed = main.failed + traced.as_ref().map_or(0, |t| t.failed);
    let correct = failed == 0 && attempted > 0;

    println!("{}", provenance(args, &workload.threads()));
    println!(
        "# setup: median {setup_s:.4} s over {SETUP_REPS} set-ups (unscaled); process start to first timed job {to_first_job:.4} s"
    );
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    match &traced {
        None => {
            let (rate, mut ms) = main.best(workload.clients());
            let p50 = hd_quantile(&mut ms, 0.50);
            let p90 = hd_quantile(&mut ms, 0.90);
            let p99 = hd_quantile(&mut ms, 0.99);
            let beyond = |v: f64| ms.iter().filter(|&&x| x > v).count();
            let mut runs: BTreeMap<u32, usize> = BTreeMap::new();
            for &s in &main.shape {
                *runs.entry(s).or_default() += 1;
            }
            println!(
                "# samples: {} jobs of {} shapes, each shape run {} to {} times; beyond p90: {}, beyond p99: {}",
                ms.len(),
                runs.len(),
                runs.values().min().unwrap_or(&0),
                runs.values().max().unwrap_or(&0),
                beyond(p90),
                beyond(p99)
            );
            println!(
                "# reference kernel: fastest {reference_min:.4} ms, median {reference_median:.4} ms over {} runs; scaled to a host where it takes {REFERENCE_MS} ms: job times by the fastest run ({scale:.4}), setup_s by the median run ({:.4})",
                reference.len(),
                REFERENCE_MS / reference_median
            );
            let mut all = main.job_ms.clone();
            println!(
                "# whole window (nearest rank): {} jobs in {:.3} s = {:.3} jobs/s, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
                all.len(),
                main.wall_s,
                all.len() as f64 / main.wall_s.max(1e-9),
                percentile(&mut all, 0.50),
                percentile(&mut all, 0.90),
                percentile(&mut all, 0.99)
            );
            println!(
                "# error_ratio: {} ({failed} failed / {attempted} attempted)",
                failed as f64 / attempted.max(1) as f64
            );
            let values = [
                setup_s * REFERENCE_MS / reference_median,
                rate / scale,
                p50 * scale,
                p90 * scale,
                p99 * scale,
                peak_rss_mb(),
            ];
            for (&(name, unit), v) in END_TO_END.iter().zip(values) {
                metrics.push((name, v, unit));
            }
        }
        Some(t) => {
            // Like against like: the shapes both windows ran (the serve
            // cache makes the first window's mix differ from the second's).
            let traced_best = t.best_by_shape();
            let (mut untraced, mut with, mut common) =
                (main.best_stage_s() * 1e3, t.best_stage_s() * 1e3, 0);
            for (s, ms) in main.best_by_shape() {
                if let Some(x) = traced_best.get(&s) {
                    untraced += ms;
                    with += x;
                    common += 1;
                }
            }
            // Each window scaled by its own reference kernel, so a change
            // of host speed between them does not read as overhead.
            let fastest = |w: &Window| w.reference_ms.iter().copied().fold(f64::INFINITY, f64::min);
            untraced *= REFERENCE_MS / fastest(&main);
            with *= REFERENCE_MS / fastest(t);
            let overhead = 1.0 - untraced / with.max(1e-9);
            println!(
                "# trace.overhead: fastest runs of the {common} shapes both windows ran sum to {untraced:.3} ms untraced, {with:.3} ms traced, each scaled by its window's reference kernel ({} spans)",
                t.spans.len()
            );
            for &(name, unit) in PER_LAYER {
                let v = if name == "trace.overhead" {
                    overhead
                } else {
                    t.layer.get(name).copied().unwrap_or(0.0)
                };
                metrics.push((name, v, unit));
            }
            let path = std::path::Path::new(".bench_build")
                .join("perfbench-traces")
                .join(format!("{}-seed{}.ndjson", args.workload, args.seed));
            match trace::write_spans(&path, &t.spans, &t.bounds) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => println!("# spans not written ({}): {e}", path.display()),
            }
        }
    }
    for w in std::iter::once(&main).chain(traced.as_ref()) {
        for note in &w.notes {
            println!("# {note}");
        }
        for f in &w.failures {
            println!("# FAILED: {f}");
        }
    }
    for (name, v, unit) in &metrics {
        println!("{name:<32} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// platform does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One output line of stdout from a helper program, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance stamp: host, toolchain, source revision, build and
/// run configuration.
fn provenance(args: &Args, threads: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]);
    // Only ask git about a checkout that is itself a repository, so the
    // benchmark never reads outside its own directory tree.
    let (rev, dirty) = if std::path::Path::new(".git").exists() {
        let rev = command_line("git", &["rev-parse", "HEAD"]);
        let status = command_line("git", &["status", "--porcelain", "--untracked-files=no"]);
        (rev, if status.is_empty() { "false" } else { "true" })
    } else {
        ("unknown".to_string(), "unknown")
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"git_rev\": \"{rev}\", \"git_dirty\": \"{dirty}\", \"profile\": \"{profile}\", \"threads\": \"{threads}\"}}",
        args.workload, args.seed, args.seconds, args.trace
    )
}

/// SplitMix64: the benchmark's own seeded stream (job seeds, samples).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed` mixed with `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut s = SplitMix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
