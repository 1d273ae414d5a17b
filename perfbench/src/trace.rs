//! In-memory spans around calls into the workspace's public functions,
//! and the summary statistics the metrics are derived from.
//!
//! A [`Tracer`] that is off records nothing: [`Tracer::span`] is then a
//! plain call. When on, every span keeps its name, start, end, parent and
//! job id; spans are written out as NDJSON when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent (a job's root span).
const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `ir.compile`.
    pub name: &'static str,
    /// Simulated machine the call ran on, when it names one.
    pub model: Option<&'static str>,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a job root.
    pub parent: u32,
    /// The job this span belongs to.
    pub job: u32,
    /// Whether the call returned an error.
    pub failed: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
}

impl Tracer {
    /// A tracer recording spans (`on`) or doing nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, model: Option<&'static str>) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            model,
            start,
            end: start,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            job: self.job,
            failed: false,
        });
        self.open.push(idx);
        Some(idx)
    }

    fn close(&mut self, idx: Option<u32>, failed: bool) {
        if let Some(idx) = idx {
            let end = self.now();
            let span = &mut self.spans[idx as usize];
            span.end = end;
            span.failed = failed;
            self.open.pop();
        }
    }

    /// Runs one job under a root span named `name`, with id `job`.
    pub fn job<T>(&mut self, job: u32, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.job = job;
        let idx = self.open(name, None);
        let out = f(self);
        self.close(idx, false);
        out
    }

    /// Times one fallible call into a layer.
    pub fn span<T, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        self.span_on(name, None, f)
    }

    /// [`Tracer::span`] for a call that runs a simulated machine.
    pub fn span_on<T, E>(
        &mut self,
        name: &'static str,
        model: Option<&'static str>,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let idx = self.open(name, model);
        let out = f();
        self.close(idx, out.is_err());
        out
    }

    /// Times one infallible call into a layer.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, None);
        let out = f();
        self.close(idx, false);
        out
    }

    /// Moves the recorded spans out.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Per-name aggregates over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    /// Number of spans.
    pub calls: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
    /// Spans whose call returned an error.
    pub errors: u64,
}

impl Agg {
    /// Mean self time per call in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one span never overlap (one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.nanos();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.nanos().saturating_sub(c))
        .collect()
}

/// Aggregates spans by name. `spans` may concatenate several threads'
/// recordings; `bounds` gives each recording's start index so parent
/// indices resolve within it.
pub fn aggregate(spans: &[Span], bounds: &[usize]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (k, &lo) in bounds.iter().enumerate() {
        let hi = bounds.get(k + 1).copied().unwrap_or(spans.len());
        let slice = &spans[lo..hi];
        for (s, self_ns) in slice.iter().zip(self_times(slice)) {
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.self_ns += self_ns;
            a.errors += u64::from(s.failed);
        }
    }
    out
}

/// Writes spans as NDJSON (one object per span).
pub fn write_spans(
    path: &std::path::Path,
    spans: &[Span],
    bounds: &[usize],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (k, &lo) in bounds.iter().enumerate() {
        let hi = bounds.get(k + 1).copied().unwrap_or(spans.len());
        for (i, s) in spans[lo..hi].iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                format!("{}", s.parent)
            };
            writeln!(
                out,
                "{{\"thread\":{k},\"span\":{i},\"name\":\"{}\",\"model\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{},\"failed\":{}}}",
                s.name,
                s.model.map_or("null".to_string(), |m| format!("\"{m}\"")),
                s.start,
                s.end,
                s.job,
                s.failed
            )?;
        }
    }
    out.flush()
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `samples` (sorted in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Harrell–Davis estimate of the `q` quantile of `samples` (sorted in
/// place); 0 when empty. A weighted mean of all order statistics with
/// Beta(q(n+1), (1-q)(n+1)) weights: where the jobs of a workload fall in
/// clusters by job type, it moves smoothly with the cluster times instead
/// of jumping between neighbouring clusters as the nearest rank does.
pub fn hd_quantile(samples: &mut [f64], q: f64) -> f64 {
    let n = samples.len();
    if n < 2 {
        return samples.first().copied().unwrap_or(0.0);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let (a, b) = (q * (n as f64 + 1.0), (1.0 - q) * (n as f64 + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in samples.iter().enumerate() {
        let cdf = inc_beta(a, b, (i + 1) as f64 / n as f64);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let s = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, c)| s + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// The regularized incomplete beta function I_x(a, b).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..100_000 {
        let m = m as f64;
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-12 {
            break;
        }
    }
    h
}

/// Span names timed as one layer call each, and the metric that reports
/// their mean self time.
const MEAN_MS: &[(&str, &str)] = &[
    ("algo.plan_build", "algo.plan_build.ms"),
    ("ir.validate", "ir.validate.ms"),
    ("ir.interp", "ir.interp.ms"),
    ("ir.compile", "ir.compile.ms"),
    ("ir.compiled", "ir.compiled.ms"),
    ("analyze.predict", "analyze.predict.ms"),
    ("analyze.certify", "analyze.certify.ms"),
    ("analyze.lint", "analyze.lint.ms"),
    ("models.par2", "models.par2.ms"),
    ("core.sweep", "core.sweep.ms"),
    ("core.shard", "core.shard.ms"),
    ("serve.wire", "serve.wire.ms"),
];

/// Engine metrics: spans tagged with a simulated machine at
/// `Parallelism::Off`, whichever layer made the call.
const MODELS: &[(&str, &str)] = &[
    ("qsm", "models.qsm.ms"),
    ("sqsm", "models.sqsm.ms"),
    ("gsm", "models.gsm.ms"),
    ("bsp", "models.bsp.ms"),
];

/// Layers whose failed calls are counted as `<layer>.errors`.
const LAYER_ERRORS: &[(&str, &str)] = &[
    ("algo.", "algo.errors"),
    ("ir.", "ir.errors"),
    ("analyze.", "analyze.errors"),
    ("models.", "models.errors"),
    ("core.", "core.errors"),
];

/// The per-layer metrics every workload derives the same way: mean self
/// ms per layer call, engine time by machine, and failed calls per layer.
pub fn common_layer_metrics(
    agg: &BTreeMap<&'static str, Agg>,
    spans: &[Span],
    bounds: &[usize],
    out: &mut BTreeMap<&'static str, f64>,
) {
    for &(span, metric) in MEAN_MS {
        if let Some(a) = agg.get(span) {
            out.insert(metric, a.mean_ms());
        }
    }
    let mut models: BTreeMap<&str, Agg> = BTreeMap::new();
    for (k, &lo) in bounds.iter().enumerate() {
        let hi = bounds.get(k + 1).copied().unwrap_or(spans.len());
        let slice = &spans[lo..hi];
        for (s, self_ns) in slice.iter().zip(self_times(slice)) {
            if let (Some(m), false) = (s.model, s.name == "models.par2") {
                let a = models.entry(m).or_default();
                a.calls += 1;
                a.self_ns += self_ns;
            }
        }
    }
    for &(model, metric) in MODELS {
        if let Some(a) = models.get(model) {
            out.insert(metric, a.mean_ms());
        }
    }
    for &(prefix, metric) in LAYER_ERRORS {
        let errors: u64 = agg
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, a)| a.errors)
            .sum();
        out.insert(metric, errors as f64);
    }
}
