//! `sweep-grid`: many small grid rows, where per-run and per-phase fixed
//! costs dominate.
//!
//! One thread. Each pass computes `sweep_point_row` over parity/or/lac ×
//! qsm/sqsm × n ∈ {256, 1024, 4096, 16384} × g ∈ {2, 8, 32}, plus GSM rows
//! (`gsm_parity`, `gsm_or`) and BSP rows (`bsp_parity`, `bsp_or`,
//! p = min(n, 64)) at the same points, then sends the pass's table rows
//! through the `core::shard` codec and merge. Plan build and compilation
//! do no work here.

use std::time::Instant;

use parbounds::experiment::{bsp_time_row_on_input, row_input, RowInput, TableRow};
use parbounds::shard::{decode_row, encode_row, merge_shards, sweep_point_row};
use parbounds::sweep::{grid, Point};
use parbounds_algo::{gsm_algos, workloads};
use parbounds_models::{BspMachine, GsmMachine, Word};
use parbounds_tables::{Model, Problem};

use crate::trace::{self, Tracer};
use crate::{SplitMix, Window, Workload};

const NS: [usize; 4] = [256, 1024, 4096, 16384];
const GS: [u64; 3] = [2, 8, 32];
const SHARED: [(Model, &str); 2] = [(Model::Qsm, "qsm"), (Model::SQsm, "sqsm")];
const PROBLEMS: [Problem; 3] = [Problem::Parity, Problem::Or, Problem::Lac];
const BIT_PROBLEMS: [Problem; 2] = [Problem::Parity, Problem::Or];
/// Largest BSP width of a row.
const BSP_MAX_P: usize = 64;
/// Table rows per pass re-run on the reference engines.
const REFERENCE_SAMPLES: usize = 4;

/// One row of a pass, with its input when it is generated outside the row
/// call.
enum Row {
    Shared(Model, &'static str, Problem, Point),
    Gsm(Problem, Point, Vec<Word>),
    Bsp(Point, RowInput),
}

/// What a row produced.
enum Out {
    Table(TableRow),
    Gsm(Word),
    Failed(String),
}

/// The sweep-grid workload state.
#[derive(Debug)]
pub struct SweepGrid {
    seed: u64,
    pass: u64,
    points: Vec<Point>,
    /// Rows per pass (for the report).
    rows: usize,
}

fn bsp_machine(pt: &Point) -> Result<BspMachine, parbounds_models::ModelError> {
    BspMachine::new(pt.n.min(BSP_MAX_P), pt.g, pt.l)
}

fn expected(problem: Problem, bits: &[Word]) -> Word {
    match problem {
        Problem::Or => Word::from(bits.iter().any(|&b| b != 0)),
        _ => bits.iter().fold(0, |a, &b| a ^ (b & 1)),
    }
}

impl SweepGrid {
    /// The rows of one pass; inputs that the row call does not generate
    /// itself are generated here, outside the timer.
    fn rows(&self, seed: u64) -> Vec<Row> {
        let mut rows = Vec::new();
        for &(model, tag) in &SHARED {
            for problem in PROBLEMS {
                for pt in &self.points {
                    rows.push(Row::Shared(model, tag, problem, *pt));
                }
            }
        }
        for problem in BIT_PROBLEMS {
            for pt in &self.points {
                rows.push(Row::Gsm(
                    problem,
                    *pt,
                    workloads::random_bits(pt.n, seed ^ pt.n as u64),
                ));
            }
        }
        for problem in BIT_PROBLEMS {
            for pt in &self.points {
                rows.push(Row::Bsp(*pt, row_input(problem, pt.n, seed ^ pt.g)));
            }
        }
        rows
    }

    /// Runs one pass and re-runs `references` of its table rows on the
    /// reference engines; returns the timed seconds (rows plus shard
    /// stage).
    fn run_pass(
        &mut self,
        tracer: &mut Tracer,
        win: &mut Window,
        next_id: &mut u32,
        references: usize,
    ) -> f64 {
        let mut rng = SplitMix::new(self.seed, 0x5eed_0000 + self.pass);
        self.pass += 1;
        let seed = rng.next_u64();
        let rows = self.rows(seed);
        let mut busy = 0.0;
        let mut outs = Vec::with_capacity(rows.len());
        for row in &rows {
            let id = *next_id;
            *next_id += 1;
            let t = Instant::now();
            let out = tracer.job(id, "job.row", |t| run_row(t, row, seed));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            win.job_ms.push(ms);
            busy += ms / 1e3;
            outs.push(out);
        }

        // The pass's table rows through the shard codec and merge.
        let table: Vec<(usize, TableRow)> = outs
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                Out::Table(r) => Some((i, r.clone())),
                _ => None,
            })
            .collect();
        let t = Instant::now();
        let id = *next_id;
        *next_id += 1;
        let merged = tracer.job(id, "job.shard", |t| {
            t.span("core.shard", || {
                let lines: Vec<String> = table
                    .iter()
                    .enumerate()
                    .map(|(k, (_, r))| encode_row(k, r))
                    .collect();
                let decoded = lines
                    .iter()
                    .map(|l| decode_row(l))
                    .collect::<Result<Vec<_>, _>>()?;
                merge_shards(decoded, lines.len())
            })
        });
        busy += t.elapsed().as_secs_f64();

        // Checks, outside the timer.
        match merged {
            Ok(m) if m.len() == table.len() && m.iter().zip(&table).all(|(a, (_, b))| a == b) => {}
            Ok(_) => win.fail("shard round trip changed the pass's rows".into()),
            Err(e) => win.fail(format!("shard merge: {e}")),
        }
        for (row, out) in rows.iter().zip(&outs) {
            match (row, out) {
                (Row::Gsm(problem, pt, bits), Out::Gsm(v)) if *v != expected(*problem, bits) => {
                    win.fail(format!(
                        "gsm {problem:?} n={} g={}: wrong answer {v}",
                        pt.n, pt.g
                    ));
                }
                (_, Out::Failed(e)) => win.fail(e.clone()),
                _ => {}
            }
        }
        for _ in 0..references.min(table.len()) {
            let (i, row) = &table[rng.below(table.len())];
            let reference = match &rows[*i] {
                Row::Shared(model, _, problem, pt) => {
                    sweep_point_row(*model, *problem, pt, seed, true)
                }
                Row::Bsp(pt, input) => bsp_machine(pt)
                    .and_then(|m| bsp_time_row_on_input(&m.with_reference_routing(), input)),
                Row::Gsm(..) => continue,
            };
            match reference {
                Ok(r) if r == *row => {}
                Ok(_) => win.fail(format!("row {i} differs from its reference-engine run")),
                Err(e) => win.fail(format!("row {i} reference run: {e}")),
            }
        }
        busy
    }
}

/// Computes one row.
fn run_row(t: &mut Tracer, row: &Row, seed: u64) -> Out {
    let res = match row {
        Row::Shared(model, tag, problem, pt) => t
            .span_on("core.sweep", Some(tag), || {
                sweep_point_row(*model, *problem, pt, seed, false)
            })
            .map(Out::Table),
        Row::Gsm(problem, pt, bits) => {
            let m = GsmMachine::new(1, pt.g, 1);
            t.span_on("models.gsm", Some("gsm"), || match problem {
                Problem::Or => gsm_algos::gsm_or(&m, bits),
                _ => gsm_algos::gsm_parity(&m, bits),
            })
            .map(|o| Out::Gsm(o.value))
        }
        Row::Bsp(pt, input) => match bsp_machine(pt) {
            Ok(m) => t
                .span_on("models.bsp", Some("bsp"), || {
                    bsp_time_row_on_input(&m, input)
                })
                .map(Out::Table),
            Err(e) => Err(e),
        },
    };
    res.unwrap_or_else(|e| Out::Failed(format!("sweep row: {e}")))
}

impl Workload for SweepGrid {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = SweepGrid {
            seed,
            pass: u64::MAX / 2,
            points: grid(&NS, &GS),
            rows: 0,
        };
        w.rows = w.rows(seed).len();
        // Warm-up: one untimed pass. Its rows are checked, but none is
        // re-run on the reference engines: which rows that would pick
        // depends on the seed, and a large one can cost as much as the
        // whole pass, so `setup_s` would vary with the seed.
        let mut win = Window::default();
        w.run_pass(&mut Tracer::new(false, Instant::now()), &mut win, &mut 0, 0);
        if win.failed > 0 {
            return Err(format!("warm-up pass failed: {:?}", win.failures));
        }
        w.pass = 0;
        Ok(w)
    }

    fn window(&mut self, seconds: f64, traced: bool) -> Window {
        let mut tracer = Tracer::new(traced, Instant::now());
        let mut win = Window::default();
        let mut next_id = 0;
        let mut passes = 0;
        while win.wall_s < seconds || passes == 0 {
            let start = win.job_ms.len();
            let wall = self.run_pass(&mut tracer, &mut win, &mut next_id, REFERENCE_SAMPLES);
            win.end_block(start, wall);
            passes += 1;
        }
        win.notes.push(format!(
            "sweep-grid: {passes} pass(es) of {} rows",
            self.rows
        ));
        if traced {
            win.spans = tracer.take();
            win.bounds = vec![0];
            let agg = trace::aggregate(&win.spans, &win.bounds);
            trace::common_layer_metrics(&agg, &win.spans, &win.bounds, &mut win.layer);
        }
        win
    }

    fn threads(&self) -> String {
        "1".into()
    }
}
