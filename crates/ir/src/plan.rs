//! The PhaseIR data model.
//!
//! A [`PhasePlan`] is a *declarative* description of a bulk-synchronous
//! schedule: for every phase (QSM/s-QSM/GSM) or superstep (BSP) it lists,
//! per participating processor, exactly which cells are read, which cells
//! are written (and with what value rule), how many local operations are
//! charged, and when the processor halts. Because the request pattern is
//! spelled out as data rather than hidden in arbitrary Rust closures, the
//! static analyzer in `parbounds-analyze` can derive the exact per-phase
//! `(m_op, m_rw, κ)` / BSP `h`-relation — and hence the model cost of
//! Section 2 of MacKenzie & Ramachandran — without running anything, while
//! the interpreter in [`crate::interp`] grounds the same plan on the real
//! simulators so the prediction can be cross-validated cell for cell.
//!
//! Value flow is deliberately restricted to a small register machine
//! (fold/accumulate over delivered values, constants) — enough to express
//! the Section 8 families (fan-in trees, broadcast, prefix sweeps,
//! scatter/gather, dart rounds) but simple enough that guards are the only
//! data dependence. Static analysis adopts the *saturating schedule*
//! convention: every guard is assumed to fire, so predictions are exact for
//! data-independent families and worst-case-exact for guarded ones (e.g.
//! the OR write-tree on an all-ones input).

use std::fmt;

use parbounds_models::{Addr, ModelError, Result, Word};

/// Associative combining operator usable in IR value rules.
///
/// Mirrors `parbounds_algo::ReduceOp` exactly (identity and application)
/// so IR-lifted families compute the same values as their hand-written
/// counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombineOp {
    /// Integer addition.
    Sum,
    /// Logical OR of nonzero-ness; result is 0 or 1.
    Or,
    /// Parity (XOR of the low bits); result is 0 or 1.
    Xor,
    /// Maximum.
    Max,
}

impl CombineOp {
    /// The identity element of the operator.
    pub fn identity(self) -> Word {
        match self {
            CombineOp::Sum | CombineOp::Or | CombineOp::Xor => 0,
            CombineOp::Max => Word::MIN,
        }
    }

    /// Combines two values.
    pub fn apply(self, a: Word, b: Word) -> Word {
        match self {
            CombineOp::Sum => a + b,
            CombineOp::Or => Word::from(a != 0 || b != 0),
            CombineOp::Xor => (a ^ b) & 1,
            CombineOp::Max => a.max(b),
        }
    }

    /// Folds a slice, starting from the identity.
    pub fn fold(self, values: &[Word]) -> Word {
        values
            .iter()
            .fold(self.identity(), |a, &b| self.apply(a, b))
    }
}

/// How a processor's register file reacts to the values delivered by the
/// previous phase's reads (QSM/GSM) or this superstep's inbox (BSP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Update {
    /// Leave the registers untouched; delivered values are discarded.
    Keep,
    /// Replace the register file with the delivered values, in delivery
    /// order (address order on the shared-memory models, `(src, tag)`
    /// order on the BSP).
    Load,
    /// Replace the register file with the single fold of the delivered
    /// values under the operator (the identity if nothing was delivered).
    Fold(CombineOp),
    /// Fold the delivered values into register 0 (`r0 = op(r0, fold(xs))`).
    /// A no-op when nothing was delivered; an empty register file is
    /// seeded with the operator's identity first.
    Accum(CombineOp),
}

/// A value expression over the processor's register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueRule {
    /// A literal constant.
    Const(Word),
    /// The contents of register `i` (0 if the register does not exist).
    Reg(usize),
    /// The fold of the whole register file under the operator.
    FoldRegs(CombineOp),
}

impl ValueRule {
    /// Evaluates the rule against a register file.
    pub fn eval(self, regs: &[Word]) -> Word {
        match self {
            ValueRule::Const(v) => v,
            ValueRule::Reg(i) => regs.get(i).copied().unwrap_or(0),
            ValueRule::FoldRegs(op) => op.fold(regs),
        }
    }

    /// True when the rule's value is fixed independent of execution state.
    pub fn is_const(self) -> bool {
        matches!(self, ValueRule::Const(_))
    }
}

impl fmt::Display for CombineOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CombineOp::Sum => "sum",
            CombineOp::Or => "or",
            CombineOp::Xor => "xor",
            CombineOp::Max => "max",
        })
    }
}

impl fmt::Display for ValueRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRule::Const(v) => write!(f, "{v}"),
            ValueRule::Reg(i) => write!(f, "r{i}"),
            ValueRule::FoldRegs(op) => write!(f, "{op}(regs)"),
        }
    }
}

/// Gate on a processor's requests for one phase.
///
/// The register update always happens; the guard only decides whether the
/// phase's reads, writes and local operations are issued. Guards are the
/// single source of data dependence in the IR, which is what makes the
/// saturating-schedule convention (assume every guard fires) a sound
/// worst case for static analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guard {
    /// Requests are always issued.
    Always,
    /// Requests are issued only while register 0 is nonzero.
    NonZero,
}

/// One shared-memory write: a destination cell and the value rule
/// producing the written word.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WriteSpec {
    /// Destination cell.
    pub addr: Addr,
    /// Value to commit.
    pub value: ValueRule,
}

/// What one processor does in one shared-memory phase.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcPhase {
    /// The processor this entry describes.
    pub pid: usize,
    /// Register-file reaction to the previous phase's delivered reads.
    pub update: Update,
    /// Gate on this phase's requests.
    pub guard: Guard,
    /// Cells to read (delivered before the *next* phase).
    pub reads: Vec<Addr>,
    /// Cells to write, with value rules.
    pub writes: Vec<WriteSpec>,
    /// Local operations charged beyond the per-request unit costs.
    pub local_ops: u64,
}

impl ProcPhase {
    /// An entry that issues nothing and keeps its registers.
    pub fn idle(pid: usize) -> Self {
        ProcPhase {
            pid,
            update: Update::Keep,
            guard: Guard::Always,
            reads: Vec::new(),
            writes: Vec::new(),
            local_ops: 0,
        }
    }

    /// Sets the register update rule.
    pub fn update(mut self, update: Update) -> Self {
        self.update = update;
        self
    }

    /// Sets the request guard.
    pub fn guard(mut self, guard: Guard) -> Self {
        self.guard = guard;
        self
    }

    /// Adds a read request.
    pub fn read(mut self, addr: Addr) -> Self {
        self.reads.push(addr);
        self
    }

    /// Adds a write request.
    pub fn write(mut self, addr: Addr, value: ValueRule) -> Self {
        self.writes.push(WriteSpec { addr, value });
        self
    }

    /// Charges extra local operations.
    pub fn local_ops(mut self, k: u64) -> Self {
        self.local_ops = k;
        self
    }
}

/// One phase of a shared-memory plan: the participating processors and the
/// set of processors that halt at the end of the phase.
///
/// Processors of the plan that have no entry in a phase are *idle but
/// active*: the simulators still call them and they contribute zero to
/// every maximum, exactly as an entry with no requests would.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SharedPhase {
    /// Human-readable label (used in diagnostics and rendered tables).
    pub label: String,
    /// Per-processor behavior for this phase.
    pub procs: Vec<ProcPhase>,
    /// Processors that return `Done` at the end of this phase.
    pub finish: Vec<usize>,
}

impl SharedPhase {
    /// Creates an empty phase with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        SharedPhase {
            label: label.into(),
            procs: Vec::new(),
            finish: Vec::new(),
        }
    }
}

/// One BSP message send: destination component, tag, and value rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SendSpec {
    /// Destination component.
    pub dest: usize,
    /// Message tag (inboxes are delivered sorted by `(src, tag)`).
    pub tag: Word,
    /// Value to send.
    pub value: ValueRule,
}

/// What one BSP component does in one superstep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompStep {
    /// The component this entry describes.
    pub pid: usize,
    /// Register-file reaction to this superstep's inbox values.
    pub update: Update,
    /// Messages to send (delivered at the start of the next superstep).
    pub sends: Vec<SendSpec>,
    /// Local operations charged beyond the per-message unit costs.
    pub local_ops: u64,
}

impl CompStep {
    /// An entry that sends nothing and keeps its registers.
    pub fn idle(pid: usize) -> Self {
        CompStep {
            pid,
            update: Update::Keep,
            sends: Vec::new(),
            local_ops: 0,
        }
    }

    /// Sets the register update rule.
    pub fn update(mut self, update: Update) -> Self {
        self.update = update;
        self
    }

    /// Adds a message send.
    pub fn send(mut self, dest: usize, tag: Word, value: ValueRule) -> Self {
        self.sends.push(SendSpec { dest, tag, value });
        self
    }

    /// Charges extra local operations.
    pub fn local_ops(mut self, k: u64) -> Self {
        self.local_ops = k;
        self
    }
}

/// One superstep of a BSP plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MsgStep {
    /// Human-readable label.
    pub label: String,
    /// Per-component behavior for this superstep.
    pub comps: Vec<CompStep>,
    /// Components that return `Done` at the end of this superstep.
    pub finish: Vec<usize>,
}

impl MsgStep {
    /// Creates an empty superstep with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        MsgStep {
            label: label.into(),
            comps: Vec::new(),
            finish: Vec::new(),
        }
    }
}

/// How a BSP component's register file is seeded from its partition of the
/// input (the shared-memory models instead read the input from cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InitRule {
    /// Seed register 0 with a constant.
    Const(Word),
    /// Seed register 0 with the fold of the component's local input slice.
    FoldLocal(CombineOp),
}

/// The phases of a plan, in the idiom of its model family.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanBody {
    /// Shared-memory phases (QSM, s-QSM, GSM).
    Shared(Vec<SharedPhase>),
    /// Message-passing supersteps (BSP).
    Msg {
        /// Register seeding from the component's local input.
        init: InitRule,
        /// The supersteps.
        steps: Vec<MsgStep>,
    },
}

/// The concrete machine a plan is scheduled for, with its cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// QSM with gap `g`: phase cost `max{m_op, g·m_rw, κ}`.
    Qsm {
        /// Bandwidth gap.
        g: u64,
    },
    /// s-QSM with gap `g`: phase cost `max{m_op, g·m_rw, g·κ}`.
    SQsm {
        /// Bandwidth gap.
        g: u64,
    },
    /// QSM variant charging only write contention (unit-cost concurrent
    /// reads): phase cost `max{m_op, g·m_rw, κ_w}`.
    QsmUnitCr {
        /// Bandwidth gap.
        g: u64,
    },
    /// BSP(p, g, L): superstep cost `max{w, g·h, L}`.
    Bsp {
        /// Number of components (must equal the plan's processor count).
        p: usize,
        /// Bandwidth gap.
        g: u64,
        /// Latency / synchronization parameter.
        l: u64,
    },
    /// GSM(α, β, γ): phase cost `max{α,β} · max{⌈m_rw/α⌉, ⌈κ/β⌉}`.
    Gsm {
        /// Bandwidth parameter α.
        alpha: u64,
        /// Contention parameter β.
        beta: u64,
        /// Input-packing parameter γ (cells `[0, input_cells)` are
        /// read-only γ-packed input).
        gamma: u64,
    },
}

impl ModelKind {
    /// The paper-facing model name, matching the labels used by the
    /// dynamic lints ("QSM", "s-QSM", "BSP", "GSM").
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Qsm { .. } | ModelKind::QsmUnitCr { .. } => "QSM",
            ModelKind::SQsm { .. } => "s-QSM",
            ModelKind::Bsp { .. } => "BSP",
            ModelKind::Gsm { .. } => "GSM",
        }
    }

    /// True for the shared-memory family (everything but the BSP).
    pub fn is_shared(self) -> bool {
        !matches!(self, ModelKind::Bsp { .. })
    }
}

/// Where a plan's result lives after the final phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputDecl {
    /// A shared-memory region `[base, base + len)`.
    Region {
        /// First output cell.
        base: Addr,
        /// Number of output cells.
        len: usize,
    },
    /// Register 0 of every BSP component, in pid order.
    ComponentState,
}

/// A complete declarative schedule: model, processor count, input/output
/// declarations, contention contract, and the phase descriptors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhasePlan {
    /// Family name (used in reports and diagnostics).
    pub family: String,
    /// Target machine and cost parameters.
    pub model: ModelKind,
    /// Number of processors / components.
    pub procs: usize,
    /// Cells `[0, input_cells)` hold the input. On the GSM this is the
    /// γ-packed read-only region; writes into it are flagged.
    pub input_cells: usize,
    /// Declared maximum contention (fan-in) the family promises; `None`
    /// for no contract. The static linter flags phases exceeding it.
    pub contention_bound: Option<u64>,
    /// Where the result lives.
    pub output: OutputDecl,
    /// The phases themselves.
    pub body: PlanBody,
}

impl PhasePlan {
    /// Number of phases (shared) or supersteps (BSP) in the plan.
    pub fn num_phases(&self) -> usize {
        match &self.body {
            PlanBody::Shared(phases) => phases.len(),
            PlanBody::Msg { steps, .. } => steps.len(),
        }
    }

    /// The phase labels, in order.
    pub fn labels(&self) -> Vec<&str> {
        match &self.body {
            PlanBody::Shared(phases) => phases.iter().map(|p| p.label.as_str()).collect(),
            PlanBody::Msg { steps, .. } => steps.iter().map(|s| s.label.as_str()).collect(),
        }
    }

    /// For each processor, the phase index in which it halts.
    ///
    /// Fails if a processor never halts or halts more than once; plan
    /// validation guarantees success for validated plans.
    pub fn finish_phases(&self) -> Result<Vec<usize>> {
        let mut finish = vec![None; self.procs];
        let record = |finish: &mut Vec<Option<usize>>, pid: usize, t: usize| -> Result<()> {
            if pid >= finish.len() {
                return Err(ModelError::BadConfig(format!(
                    "plan '{}': finish list of phase {t} names pid {pid} >= procs",
                    self.family
                )));
            }
            if let Some(prev) = finish[pid] {
                return Err(ModelError::BadConfig(format!(
                    "plan '{}': pid {pid} finishes twice (phases {prev} and {t})",
                    self.family
                )));
            }
            finish[pid] = Some(t);
            Ok(())
        };
        match &self.body {
            PlanBody::Shared(phases) => {
                for (t, phase) in phases.iter().enumerate() {
                    for &pid in &phase.finish {
                        record(&mut finish, pid, t)?;
                    }
                }
            }
            PlanBody::Msg { steps, .. } => {
                for (t, step) in steps.iter().enumerate() {
                    for &pid in &step.finish {
                        record(&mut finish, pid, t)?;
                    }
                }
            }
        }
        finish
            .into_iter()
            .enumerate()
            .map(|(pid, f)| {
                f.ok_or_else(|| {
                    ModelError::BadConfig(format!(
                        "plan '{}': pid {pid} never finishes",
                        self.family
                    ))
                })
            })
            .collect()
    }

    /// Structural validation: every pid in range and unique per phase, every
    /// processor halts exactly once and issues nothing afterwards, the model
    /// matches the body idiom, and the final phase retires at least one
    /// processor (so the simulator's phase count equals the plan's).
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| {
            Err(ModelError::BadConfig(format!(
                "plan '{}': {msg}",
                self.family
            )))
        };
        if self.procs == 0 {
            return bad("must have at least one processor".into());
        }
        if self.num_phases() == 0 {
            return bad("must have at least one phase".into());
        }
        match (&self.model, &self.body) {
            (ModelKind::Bsp { .. }, PlanBody::Shared(_)) => {
                return bad("BSP model requires message-passing supersteps".into());
            }
            (m, PlanBody::Msg { .. }) if m.is_shared() => {
                return bad(format!("{} model requires shared-memory phases", m.name()));
            }
            (ModelKind::Bsp { p, .. }, _) if *p != self.procs => {
                return bad(format!(
                    "BSP machine width {p} != plan processor count {}",
                    self.procs
                ));
            }
            _ => {}
        }
        match (&self.model, &self.output) {
            (ModelKind::Bsp { .. }, OutputDecl::Region { .. }) => {
                return bad("BSP plans declare OutputDecl::ComponentState".into());
            }
            (m, OutputDecl::ComponentState) if m.is_shared() => {
                return bad("shared-memory plans declare OutputDecl::Region".into());
            }
            _ => {}
        }
        let finish = self.finish_phases()?;
        let last = self.num_phases() - 1;
        if !finish.contains(&last) {
            return bad(format!("no processor finishes in the final phase {last}"));
        }
        match &self.body {
            PlanBody::Shared(phases) => {
                for (t, phase) in phases.iter().enumerate() {
                    let mut seen = vec![false; self.procs];
                    for entry in &phase.procs {
                        if entry.pid >= self.procs {
                            return bad(format!(
                                "phase {t} names pid {} >= procs {}",
                                entry.pid, self.procs
                            ));
                        }
                        if seen[entry.pid] {
                            return bad(format!("phase {t} lists pid {} twice", entry.pid));
                        }
                        seen[entry.pid] = true;
                        if t > finish[entry.pid] {
                            return bad(format!(
                                "pid {} appears in phase {t} after finishing in phase {}",
                                entry.pid, finish[entry.pid]
                            ));
                        }
                    }
                }
            }
            PlanBody::Msg { steps, .. } => {
                for (t, step) in steps.iter().enumerate() {
                    let mut seen = vec![false; self.procs];
                    for entry in &step.comps {
                        if entry.pid >= self.procs {
                            return bad(format!(
                                "superstep {t} names pid {} >= procs {}",
                                entry.pid, self.procs
                            ));
                        }
                        if seen[entry.pid] {
                            return bad(format!("superstep {t} lists pid {} twice", entry.pid));
                        }
                        seen[entry.pid] = true;
                        if t > finish[entry.pid] {
                            return bad(format!(
                                "pid {} appears in superstep {t} after finishing in superstep {}",
                                entry.pid, finish[entry.pid]
                            ));
                        }
                        for send in &entry.sends {
                            if send.dest >= self.procs {
                                return bad(format!(
                                    "superstep {t}: pid {} sends to dest {} >= procs {}",
                                    entry.pid, send.dest, self.procs
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Applies an [`Update`] to a register file given the delivered values.
/// Shared by both interpreters and exercised by the unit tests.
pub fn apply_update(update: Update, regs: &mut Vec<Word>, delivered: &[Word]) {
    match update {
        Update::Keep => {}
        Update::Load => {
            regs.clear();
            regs.extend_from_slice(delivered);
        }
        Update::Fold(op) => {
            let v = op.fold(delivered);
            regs.clear();
            regs.push(v);
        }
        Update::Accum(op) => {
            if delivered.is_empty() {
                return;
            }
            if regs.is_empty() {
                regs.push(op.identity());
            }
            regs[0] = op.apply(regs[0], op.fold(delivered));
        }
    }
}
