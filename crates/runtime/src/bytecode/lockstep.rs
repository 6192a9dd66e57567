//! Lockstep lanes: a kernel block's threads, or a run of consecutive
//! iterations of an OpenMP chunk, executed one instruction at a time over
//! all of them.
//!
//! The sequential schedule runs thread 0 of a block to its end, then thread
//! 1, and so on; each pays every dispatch of its own. The runner here
//! dispatches an instruction once for every *lane* waiting at its pc and
//! loops over those lanes inside the handler, each lane with its own
//! registers (lane-minor rows: register `r` of lane `l` is `regs[r * width +
//! l]`). Lanes run in ascending order at every instruction. The next pc is
//! always the lowest pc any lane waits at, so lanes that split at an `if`
//! meet again at its end, and lanes with different loop trip counts
//! (`bsearch`'s `while`) run the loop until the last one leaves it, with no
//! mask stack: the compiler's code is structured, so a join point always
//! lies above the paths that reach it.
//!
//! What an instruction computes is not written here: operators, `Neg`,
//! `Not`, `LoadDim`, `OmpInt`, `RmwVar` and `MathOp` call the functions in
//! [`super::instr`] that the VM's dispatch loop calls too, and an operator's
//! operands are its one [`super::instr::Form`]. This runner adds only the
//! lane loops, one per operator instruction, each compiled on its own.
//!
//! ## Eligibility
//!
//! The compiler marks a unit eligible (`analyse`) when it holds only
//! register and constant moves, typed stores, operators (fused
//! compare-branches, compound assignments to registers and scalar casts
//! included), jumps, `LoadDim`, `OmpInt`, `MathOp`/`CallPre`,
//! `IndexLoad`/`StoreIndex` and `Ret`/`EndUnit`: no calls, atomics,
//! `printf`, allocation, `omp_get_wtime` or barrier. A region body must
//! also not end early (no `break`, no `return`), have no reduction, and
//! write every register it writes before it reads it on every path, so no
//! register carries a value from one iteration to the next. The registers
//! some path reads before writing are the unit's inputs: each lane starts
//! with the frame's values of those, and a chunk's lanes with their own
//! loop variable.
//!
//! ## Fallback
//!
//! A group gives up and is run again on the sequential path when
//!
//! * a lane faults or reads a value the sequential path would fault on,
//!   or the group may have passed the step limit (`Fallback::Replay`);
//! * it loads from a buffer it stored to, stores to a buffer it loaded
//!   from, stores to a cell another lane of the group stored to, or its
//!   lanes' pointers for one access name different buffers
//!   (`Fallback::Sequential`: the rest of the launch or region then runs
//!   sequentially too). When an unwritten register the unit loads through
//!   and one it stores through hold the same buffer (an in-place update
//!   through a kernel argument), the group is not started at all.
//!
//! Before it returns, the group's stores are undone in reverse order from
//! its undo log and the cost counters are restored.
//!
//! ## Why the bytes do not change
//!
//! Under these rules no lane reads a buffer any lane of the group writes, so
//! every load sees what it would see in the sequential order and every lane
//! runs its sequential trace. Each cell is stored by at most one lane, in
//! that lane's program order, so memory ends as the sequential order leaves
//! it. Steps and cost counters are sums over lanes. A group that faults, or
//! might have been killed, is replayed sequentially from restored memory, so
//! stdout, cost, steps, memory and every error are the sequential ones.

use std::cell::Cell;

use lassi_lang::BinOp;

use super::instr::{
    dim_value, float_result, int_result, neg, not, omp_query, rmw_var, FlowKind, Form, Instr, Reg,
    Rhs, SpecialIdent,
};
use super::CompiledProgram;
use crate::cost::CostCounter;
use crate::eval::{apply_binop, EvalContext};
use crate::memory::{BufferId, Memory};
use crate::schedule;
use crate::value::{Dim3Val, Value};

/// Run `$body` for every current lane `$l` (a `usize`) of `$cur`: over
/// `0..$w` when every lane is current, which lets the compiler drop the
/// rows' bounds checks.
macro_rules! each {
    ($cur:expr, $w:expr, |$l:ident| $body:expr) => {
        if $cur.len() == $w {
            for $l in 0..$w {
                $body;
            }
        } else {
            for &lane in $cur.iter() {
                let $l = lane as usize;
                $body;
            }
        }
    };
}

/// Most lanes in one group: a block's threads (CUDA's per-block limit), or
/// that many consecutive iterations of a chunk.
pub(crate) const MAX_LANES: usize = 1024;

/// What the runner needs to know about an eligible unit.
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepUnit {
    /// Registers some path reads before writing them, ascending.
    pub inputs: Vec<Reg>,
    /// Pairs of registers the unit never writes, one the base of an
    /// `IndexLoad` and one of a `StoreIndex`. When both hold the same
    /// buffer, a group running both would give up at its first store, so
    /// none is started.
    pub shared_bases: Vec<(Reg, Reg)>,
}

/// Why a group stopped; the caller runs it again sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fallback {
    /// A fault or a possible step-limit kill: replay this group.
    Replay,
    /// Lanes touched memory in a way lockstep cannot order like the
    /// sequential path: replay this group and run the rest sequentially.
    Sequential,
}

/// One group of lanes to run.
pub(crate) struct Group<'a> {
    /// Entry pc of the unit.
    pub entry: u32,
    /// The unit's inputs.
    pub unit: &'a LockstepUnit,
    /// The frame every lane starts from.
    pub frame: &'a [Value],
    /// Number of lanes (at most [`MAX_LANES`]).
    pub width: usize,
    /// The context every lane shares; for device threads, the thread index
    /// comes from the lane (x fastest).
    pub ctx: EvalContext,
    /// For a chunk: the loop variable's slot and the loop `lo, lo + step,
    /// ...` whose iteration `k` lane 0 runs.
    pub loop_var: Option<(Reg, i64, i64, u64)>,
    /// Steps one lane may take, or `u64::MAX`.
    pub lane_limit: u64,
    /// Steps all lanes together may take, or `u64::MAX`.
    pub total_limit: u64,
}

/// One store of the group, to undo it.
struct Undo {
    /// The buffer's index in `Lanes::stored`.
    slot: usize,
    cell: usize,
    bits: u64,
}

/// Lanes waiting at each pc: the current pc's, and the others sorted by
/// descending pc, so the lowest is last.
#[derive(Default)]
struct Sched {
    pc: usize,
    cur: Vec<u16>,
    parked: Vec<(usize, Vec<u16>)>,
    spare: Vec<Vec<u16>>,
    merged: Vec<u16>,
}

impl Sched {
    fn start(&mut self, pc: usize, width: usize) {
        self.pc = pc;
        self.cur.clear();
        self.cur.extend(0..width as u16);
        while let Some((_, lanes)) = self.parked.pop() {
            self.spare.push(lanes);
        }
    }

    /// Merge the ascending `lanes` into the ascending `into`.
    fn merge(merged: &mut Vec<u16>, into: &mut Vec<u16>, lanes: &[u16]) {
        merged.clear();
        let (mut a, mut b) = (into.iter().peekable(), lanes.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            if x < y {
                merged.push(x);
                a.next();
            } else {
                merged.push(y);
                b.next();
            }
        }
        merged.extend(a);
        merged.extend(b);
        std::mem::swap(into, merged);
    }

    /// Let `lanes` wait at `pc`.
    fn park(&mut self, pc: usize, lanes: Vec<u16>) {
        match self.parked.iter().position(|&(p, _)| p <= pc) {
            Some(i) if self.parked[i].0 == pc => {
                Self::merge(&mut self.merged, &mut self.parked[i].1, &lanes);
                self.spare.push(lanes);
            }
            Some(i) => self.parked.insert(i, (pc, lanes)),
            None => self.parked.push((pc, lanes)),
        }
    }

    /// After the current lanes moved to `self.pc`: make the lowest pc any
    /// lane waits at current, with every lane waiting there. False when no
    /// lane is left.
    #[inline(always)]
    fn settle(&mut self) -> bool {
        self.parked.is_empty() && !self.cur.is_empty() || self.reschedule()
    }

    /// [`Sched::settle`] when some lanes wait elsewhere or none is current.
    #[inline(never)]
    fn reschedule(&mut self) -> bool {
        if self.cur.is_empty() {
            let Some((pc, lanes)) = self.parked.pop() else {
                return false;
            };
            let done = std::mem::replace(&mut self.cur, lanes);
            self.spare.push(done);
            self.pc = pc;
            return true;
        }
        if let Some(&(pc, _)) = self.parked.last() {
            if pc <= self.pc {
                let (pc, lanes) = self.parked.pop().expect("peeked");
                if pc == self.pc {
                    Self::merge(&mut self.merged, &mut self.cur, &lanes);
                    self.spare.push(lanes);
                } else {
                    let waiting = std::mem::replace(&mut self.cur, lanes);
                    self.park(self.pc, waiting);
                    self.pc = pc;
                }
            }
        }
        true
    }

    /// Send the current lanes whose `cond` register's truthiness is not
    /// `stay_if` to `target`, the rest to the next pc; [`Sched::settle`]
    /// then picks the pc to run.
    fn branch(&mut self, target: u32, cond: &[Cell<Value>], stay_if: bool) {
        let keep = |l: u16| cond[l as usize].get().is_truthy() == stay_if;
        let stay = if self.cur.len() == cond.len() {
            cond.iter()
                .filter(|c| c.get().is_truthy() == stay_if)
                .count()
        } else {
            self.cur.iter().filter(|&&l| keep(l)).count()
        };
        if stay == self.cur.len() {
            self.pc += 1;
            return;
        }
        if stay == 0 {
            self.pc = target as usize;
            return;
        }
        let mut taken = self.spare.pop().unwrap_or_default();
        taken.clear();
        self.cur.retain(|&l| {
            let stay = keep(l);
            if !stay {
                taken.push(l);
            }
            stay
        });
        self.park(target as usize, taken);
        self.pc += 1;
    }
}

/// The runner's scratch, reused from group to group.
#[derive(Default)]
pub(crate) struct Lanes {
    /// Lane registers: register `r` of lane `l` at `r * width + l`.
    regs: Vec<Cell<Value>>,
    sched: Sched,
    undo: Vec<Undo>,
    /// Buffers the group loaded from.
    loaded: Vec<BufferId>,
    /// Buffers the group stored to, in first-store order.
    stored: Vec<BufferId>,
    /// For the `k`-th stored buffer, the lane (plus one) that stored each
    /// cell, 0 for none; back to all zeros between groups.
    owners: Vec<Vec<u16>>,
}

impl Lanes {
    /// Run `group` to completion. Returns the steps of all its lanes, or
    /// why it stopped, with memory and `cost` restored.
    pub(crate) fn run(
        &mut self,
        prog: &CompiledProgram,
        mem: &Memory,
        group: &Group<'_>,
        cost: &mut CostCounter,
    ) -> Result<u64, Fallback> {
        let frame = group.frame;
        let same_buffer = |&(l, s): &(Reg, Reg)| {
            matches!((frame[l as usize], frame[s as usize]),
                (Value::Ptr(a), Value::Ptr(b)) if a.buffer == b.buffer)
        };
        if group.unit.shared_bases.iter().any(same_buffer) {
            return Err(Fallback::Sequential);
        }
        let saved = *cost;
        self.start(group);
        let outcome = self.exec(prog, mem, group, cost);
        for u in self.undo.iter().rev() {
            self.owners[u.slot][u.cell] = 0;
            if outcome.is_err() {
                mem.restore_cell(self.stored[u.slot], u.cell, u.bits);
            }
        }
        if outcome.is_err() {
            *cost = saved;
        }
        outcome
    }

    fn start(&mut self, g: &Group<'_>) {
        let w = g.width;
        if self.regs.len() < g.frame.len() * w {
            self.regs
                .resize_with(g.frame.len() * w, || Cell::new(Value::Int(0)));
        }
        for &r in &g.unit.inputs {
            let v = g.frame[r as usize];
            self.regs[r as usize * w..][..w]
                .iter()
                .for_each(|c| c.set(v));
        }
        if let Some((slot, lo, step, k)) = g.loop_var {
            let row = &self.regs[slot as usize * w..][..w];
            for (l, c) in row.iter().enumerate() {
                c.set(Value::Int(schedule::iteration_value(
                    lo,
                    step,
                    k + l as u64,
                )));
            }
        }
        self.sched.start(g.entry as usize, w);
        self.undo.clear();
        self.loaded.clear();
        self.stored.clear();
    }

    fn exec(
        &mut self,
        prog: &CompiledProgram,
        mem: &Memory,
        g: &Group<'_>,
        cost: &mut CostCounter,
    ) -> Result<u64, Fallback> {
        let Lanes {
            regs,
            sched: s,
            undo,
            loaded,
            stored,
            owners,
        } = self;
        let regs: &[Cell<Value>] = regs;
        let w = g.width;
        let row = |r: Reg| &regs[r as usize * w..][..w];
        let device = g.ctx.is_device_access();
        // `bound` is the most steps any one lane has taken, `total` the
        // steps of all lanes.
        let (mut bound, mut total) = (0u64, 0u64);
        macro_rules! charge {
            ($pre:expr) => {{
                let pre = $pre as u64;
                bound += pre;
                total += pre * s.cur.len() as u64;
                if bound > g.lane_limit || total > g.total_limit {
                    return Err(Fallback::Replay);
                }
            }};
        }
        // Move on once the current lanes left their pc; end the group when
        // no lane is left.
        macro_rules! settle {
            () => {{
                if !s.settle() {
                    return Ok(total);
                }
                continue;
            }};
        }
        // An operator with instructions of its own over every current lane,
        // in a lane loop of its own per operator instruction, then, for a
        // branch-fused form, the branch on its result.
        macro_rules! op {
            ($op:ident, $o:expr) => {{
                let f = Form::from(*$o);
                charge!(f.pre);
                let (d, a, op) = (row(f.dst), row(f.l), BinOp::$op);
                let int = |x, y| int_result(BinOp::$op, x, y);
                let float = |x, y| float_result(BinOp::$op, x, y);
                match f.r {
                    Rhs::Reg(r) => {
                        let b = row(r);
                        arith(&s.cur, w, d, a, |l| b[l].get(), cost, op, int, float)?
                    }
                    Rhs::Const(k) => {
                        let b = prog.consts[k as usize];
                        arith(&s.cur, w, d, a, |_| b, cost, op, int, float)?
                    }
                }
                if let Some(target) = f.target {
                    s.branch(target, d, true);
                    settle!();
                }
            }};
        }
        loop {
            match &prog.code[s.pc] {
                Instr::Branch { pre } => {
                    charge!(*pre);
                    cost.branches += s.cur.len() as u64;
                }
                Instr::Charge { n } => charge!(*n),
                Instr::Jump { target } => {
                    s.pc = *target as usize;
                    settle!();
                }
                Instr::JumpIfFalse { cond, target } => {
                    s.branch(*target, row(*cond), true);
                    settle!();
                }
                Instr::JumpIfTrue { cond, target } => {
                    s.branch(*target, row(*cond), false);
                    settle!();
                }
                Instr::Ret { pre, .. } => {
                    charge!(*pre);
                    s.cur.clear();
                    settle!();
                }
                Instr::EndUnit { .. } => {
                    s.cur.clear();
                    settle!();
                }
                Instr::Const { dst, id } => {
                    let (d, v) = (row(*dst), prog.consts[*id as usize]);
                    each!(s.cur, w, |l| d[l].set(v));
                }
                Instr::Move { dst, src } => {
                    let (d, a) = (row(*dst), row(*src));
                    each!(s.cur, w, |l| d[l].set(a[l].get()));
                }
                Instr::LoadDim {
                    dst,
                    which,
                    axis,
                    pre,
                } => {
                    charge!(*pre);
                    let d = row(*dst);
                    match g.ctx {
                        EvalContext::DeviceThread { block_dim, .. }
                            if *which == SpecialIdent::ThreadIdx =>
                        {
                            each!(s.cur, w, |l| d[l]
                                .set(dim_value(thread_of(l as u32, block_dim), *axis)))
                        }
                        ctx => {
                            let v = which.load(&ctx, *axis).ok_or(Fallback::Replay)?;
                            each!(s.cur, w, |l| d[l].set(v));
                        }
                    }
                }
                Instr::StoreInt { slot, src, pre } => {
                    charge!(*pre);
                    let (d, a) = (row(*slot), row(*src));
                    each!(s.cur, w, |l| d[l].set(Value::Int(a[l].get().as_int())));
                }
                Instr::StoreF32 { slot, src, pre } => {
                    charge!(*pre);
                    let (d, a) = (row(*slot), row(*src));
                    each!(s.cur, w, |l| d[l]
                        .set(Value::Float(a[l].get().as_float() as f32 as f64)));
                }
                Instr::StoreF64 { slot, src, pre } => {
                    charge!(*pre);
                    let (d, a) = (row(*slot), row(*src));
                    each!(s.cur, w, |l| d[l].set(Value::Float(a[l].get().as_float())));
                }
                Instr::StoreVar { slot, src, ty, pre }
                | Instr::CastScalar {
                    dst: slot,
                    src,
                    ty,
                    pre,
                } => {
                    charge!(*pre);
                    let (d, a, ty) = (row(*slot), row(*src), prog.ty(*ty));
                    each!(s.cur, w, |l| d[l].set(a[l].get().coerce_to(ty)));
                }
                Instr::RmwVar {
                    op,
                    slot,
                    src,
                    ty,
                    pre,
                } => {
                    charge!(*pre);
                    let (d, b, ty) = (row(*slot), row(*src), prog.ty(*ty));
                    each!(s.cur, w, |l| {
                        let v = rmw_var(*op, &d[l].get(), &b[l].get(), ty, cost, 0);
                        d[l].set(v.map_err(|_| Fallback::Replay)?);
                    });
                }
                Instr::Neg { dst, src, pre } => {
                    charge!(*pre);
                    let (d, a) = (row(*dst), row(*src));
                    each!(s.cur, w, |l| d[l].set(neg(a[l].get())));
                    cost.int_ops += s.cur.len() as u64;
                }
                Instr::Not { dst, src, pre } => {
                    charge!(*pre);
                    let (d, a) = (row(*dst), row(*src));
                    each!(s.cur, w, |l| d[l].set(not(a[l].get())));
                }
                Instr::IndexLoad {
                    dst,
                    base,
                    idx,
                    pre,
                } => {
                    charge!(*pre);
                    let (d, b, x) = (row(*dst), row(*base), row(*idx));
                    let buffer = first_buffer(b, &s.cur)?;
                    if stored.contains(&buffer) {
                        return Err(Fallback::Sequential);
                    }
                    if !loaded.contains(&buffer) {
                        loaded.push(buffer);
                    }
                    let elem = mem
                        .with_buffer(buffer, device, |buf| {
                            each!(s.cur, w, |l| {
                                let cell = buf.cell(index(b[l].get(), x[l].get(), buffer)?);
                                d[l].set(buf.load_raw(cell.ok_or(Fallback::Replay)?));
                            });
                            Ok(buf.elem.size_bytes())
                        })
                        .ok_or(Fallback::Replay)??;
                    cost.bytes_read += elem * s.cur.len() as u64;
                }
                Instr::StoreIndex {
                    base,
                    idx,
                    src,
                    pre,
                } => {
                    charge!(*pre);
                    let (b, x, v) = (row(*base), row(*idx), row(*src));
                    let buffer = first_buffer(b, &s.cur)?;
                    if loaded.contains(&buffer) {
                        return Err(Fallback::Sequential);
                    }
                    let slot = match stored.iter().position(|&b| b == buffer) {
                        Some(slot) => slot,
                        None => {
                            stored.push(buffer);
                            if owners.len() < stored.len() {
                                owners.push(Vec::new());
                            }
                            stored.len() - 1
                        }
                    };
                    let owner = &mut owners[slot];
                    undo.reserve(s.cur.len());
                    let elem = mem
                        .with_buffer(buffer, device, |buf| {
                            if owner.len() < buf.len() {
                                owner.resize(buf.len(), 0);
                            }
                            each!(s.cur, w, |l| {
                                let cell = buf.cell(index(b[l].get(), x[l].get(), buffer)?);
                                let cell = cell.ok_or(Fallback::Replay)?;
                                let lane = l as u16 + 1;
                                match owner[cell] {
                                    0 => owner[cell] = lane,
                                    o if o == lane => {}
                                    _ => return Err(Fallback::Sequential),
                                }
                                let bits = buf.replace_cell(cell, &v[l].get());
                                undo.push(Undo { slot, cell, bits });
                            });
                            Ok(buf.elem.size_bytes())
                        })
                        .ok_or(Fallback::Replay)??;
                    cost.bytes_written += elem * s.cur.len() as u64;
                }
                Instr::CallPre { pre } => {
                    charge!(*pre);
                    cost.calls += s.cur.len() as u64;
                }
                Instr::OmpInt { dst, which } => {
                    let (d, v) = (row(*dst), omp_query(*which, &g.ctx));
                    each!(s.cur, w, |l| d[l].set(v));
                }
                Instr::MathOp {
                    f,
                    args_base,
                    argc,
                    dst,
                    pre,
                } => {
                    charge!(*pre);
                    let d = row(*dst);
                    let arg = |i: u32, l: usize| (i < *argc).then(|| row(args_base + i)[l].get());
                    each!(s.cur, w, |l| d[l].set(f.apply(arg(0, l), arg(1, l))));
                    cost.special_ops += s.cur.len() as u64;
                }
                instr @ (Instr::Binary(..) | Instr::BinaryK(..)) => {
                    let (op, f) = instr.operator().expect("an operator instruction");
                    charge!(f.pre);
                    let (d, a) = (row(f.dst), row(f.l));
                    each!(s.cur, w, |l| {
                        let b = match f.r {
                            Rhs::Reg(r) => row(r)[l].get(),
                            Rhs::Const(k) => prog.consts[k as usize],
                        };
                        let v = apply_binop(op, &a[l].get(), &b, cost, 0);
                        d[l].set(v.map_err(|_| Fallback::Replay)?);
                    });
                }
                Instr::Add(o) => op!(Add, o),
                Instr::AddK(o) => op!(Add, o),
                Instr::Sub(o) => op!(Sub, o),
                Instr::SubK(o) => op!(Sub, o),
                Instr::Mul(o) => op!(Mul, o),
                Instr::MulK(o) => op!(Mul, o),
                Instr::Div(o) => op!(Div, o),
                Instr::DivK(o) => op!(Div, o),
                Instr::Rem(o) => op!(Rem, o),
                Instr::RemK(o) => op!(Rem, o),
                Instr::Lt(o) => op!(Lt, o),
                Instr::LtK(o) => op!(Lt, o),
                Instr::LtBr(o) => op!(Lt, o),
                Instr::LtKBr(o) => op!(Lt, o),
                Instr::Gt(o) => op!(Gt, o),
                Instr::GtK(o) => op!(Gt, o),
                Instr::GtBr(o) => op!(Gt, o),
                Instr::GtKBr(o) => op!(Gt, o),
                Instr::Le(o) => op!(Le, o),
                Instr::LeK(o) => op!(Le, o),
                Instr::LeBr(o) => op!(Le, o),
                Instr::LeKBr(o) => op!(Le, o),
                Instr::Ge(o) => op!(Ge, o),
                Instr::GeK(o) => op!(Ge, o),
                Instr::GeBr(o) => op!(Ge, o),
                Instr::GeKBr(o) => op!(Ge, o),
                Instr::Eq(o) => op!(Eq, o),
                Instr::EqK(o) => op!(Eq, o),
                Instr::EqBr(o) => op!(Eq, o),
                Instr::EqKBr(o) => op!(Eq, o),
                Instr::Ne(o) => op!(Ne, o),
                Instr::NeK(o) => op!(Ne, o),
                Instr::NeBr(o) => op!(Ne, o),
                Instr::NeKBr(o) => op!(Ne, o),
                Instr::And(o) => op!(And, o),
                Instr::AndBr(o) => op!(And, o),
                _ => unreachable!("analyse admits only the instructions above"),
            }
            s.pc += 1;
            settle!();
        }
    }
}

/// The thread index of lane `l` in a block of `block` threads, x fastest.
#[inline(always)]
fn thread_of(l: u32, block: Dim3Val) -> Dim3Val {
    if l < block.x {
        // Every lane of a one-dimensional block: no division.
        return Dim3Val { x: l, y: 0, z: 0 };
    }
    Dim3Val {
        x: l % block.x,
        y: l / block.x % block.y,
        z: l / (block.x * block.y),
    }
}

/// The buffer the first current lane's pointer in `base` names.
fn first_buffer(base: &[Cell<Value>], cur: &[u16]) -> Result<BufferId, Fallback> {
    match base[cur[0] as usize].get() {
        Value::Ptr(p) => Ok(p.buffer),
        _ => Err(Fallback::Replay),
    }
}

/// The element `base[idx]` names in `buffer`: a lane whose pointer names
/// another buffer ends lockstep for the rest of the construct.
#[inline(always)]
fn index(base: Value, idx: Value, buffer: BufferId) -> Result<i64, Fallback> {
    match base {
        Value::Ptr(p) if p.buffer == buffer => Ok(p.offset.wrapping_add(idx.as_int())),
        Value::Ptr(_) => Err(Fallback::Sequential),
        _ => Err(Fallback::Replay),
    }
}

/// An operator over every current lane, like the VM's operator handler:
/// two `Int`s through `int`, the operator's [`int_result`] (one `int_op`; a
/// zero divisor gives up), two `Float`s through `float`, its
/// [`float_result`] (one `flop`), and in a second pass, only when a lane
/// has some other pair, the rest through `apply_binop`, whose call would
/// otherwise slow the common loop down. Out of line, so each operator's
/// loop is compiled on its own.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn arith(
    cur: &[u16],
    w: usize,
    d: &[Cell<Value>],
    a: &[Cell<Value>],
    right: impl Fn(usize) -> Value,
    cost: &mut CostCounter,
    op: BinOp,
    int: impl Fn(i64, i64) -> Option<i64>,
    float: impl Fn(f64, f64) -> Value,
) -> Result<(), Fallback> {
    let (mut ints, mut flops, mut others) = (0u64, 0u64, false);
    each!(cur, w, |l| {
        let v = match (a[l].get(), right(l)) {
            (Value::Int(x), Value::Int(y)) => {
                ints += 1;
                Value::Int(int(x, y).ok_or(Fallback::Replay)?)
            }
            (Value::Float(x), Value::Float(y)) => {
                flops += 1;
                float(x, y)
            }
            _ => {
                others = true;
                continue;
            }
        };
        d[l].set(v);
    });
    if others {
        each!(cur, w, |l| match (a[l].get(), right(l)) {
            (Value::Int(_), Value::Int(_)) | (Value::Float(_), Value::Float(_)) => {}
            (x, y) => d[l].set(apply_binop(op, &x, &y, cost, 0).map_err(|_| Fallback::Replay)?),
        });
    }
    cost.int_ops += ints;
    cost.flops += flops;
    Ok(())
}

// ------------------------------------------------------------- analysis

/// Visit the registers `instr` reads, then the one it writes, if the runner
/// executes it; false otherwise.
fn operands(instr: &Instr, read: &mut impl FnMut(Reg), write: &mut impl FnMut(Reg)) -> bool {
    if let Some((_, f)) = instr.operator() {
        read(f.l);
        if let Rhs::Reg(r) = f.r {
            read(r);
        }
        write(f.dst);
        return true;
    }
    let dst = match instr {
        Instr::Branch { .. }
        | Instr::Charge { .. }
        | Instr::Jump { .. }
        | Instr::EndUnit { .. }
        | Instr::CallPre { .. } => return true,
        Instr::JumpIfFalse { cond, .. } | Instr::JumpIfTrue { cond, .. } => {
            read(*cond);
            return true;
        }
        Instr::Ret { src, .. } => {
            src.iter().for_each(|&r| read(r));
            return true;
        }
        Instr::StoreIndex { base, idx, src, .. } => {
            read(*base);
            read(*idx);
            read(*src);
            return true;
        }
        Instr::Const { dst, .. } | Instr::LoadDim { dst, .. } | Instr::OmpInt { dst, .. } => *dst,
        Instr::Move { dst, src }
        | Instr::StoreInt { slot: dst, src, .. }
        | Instr::StoreF32 { slot: dst, src, .. }
        | Instr::StoreF64 { slot: dst, src, .. }
        | Instr::StoreVar { slot: dst, src, .. }
        | Instr::Neg { dst, src, .. }
        | Instr::Not { dst, src, .. }
        | Instr::CastScalar { dst, src, .. } => {
            read(*src);
            *dst
        }
        Instr::IndexLoad { dst, base, idx, .. } => {
            read(*base);
            read(*idx);
            *dst
        }
        Instr::RmwVar { slot, src, .. } => {
            read(*slot);
            read(*src);
            *slot
        }
        Instr::MathOp {
            args_base,
            argc,
            dst,
            ..
        } => {
            (0..*argc).for_each(|i| read(args_base + i));
            *dst
        }
        _ => return false,
    };
    write(dst);
    true
}

/// The pcs control can reach right after `code[pc]`.
fn successors(instr: &Instr, pc: usize) -> [Option<usize>; 2] {
    match instr {
        Instr::Jump { target } => [None, Some(*target as usize)],
        Instr::JumpIfFalse { target, .. } | Instr::JumpIfTrue { target, .. } => {
            [Some(pc + 1), Some(*target as usize)]
        }
        Instr::Ret { .. } | Instr::EndUnit { .. } => [None, None],
        other => [
            Some(pc + 1),
            other
                .operator()
                .and_then(|(_, f)| f.target)
                .map(|t| t as usize),
        ],
    }
}

/// Whether the unit `code[entry..end]` can run in lockstep, and its inputs.
/// `loop_var` is a region body's loop variable: the body must then also
/// neither `break` nor `return`, and read no register it writes before
/// writing it on every path (the loop variable, set before each iteration,
/// counts as written).
pub(super) fn analyse(
    code: &[Instr],
    entry: u32,
    end: u32,
    loop_var: Option<Reg>,
) -> Option<LockstepUnit> {
    let (entry, end) = (entry as usize, end as usize);
    let unit = &code[entry..end];
    let mut nregs = loop_var.map_or(0, |r| r as usize + 1);
    for (pc, instr) in (entry..).zip(unit) {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        if !operands(instr, &mut |r| reads.push(r), &mut |r| writes.push(r)) {
            return None;
        }
        nregs = reads
            .iter()
            .chain(&writes)
            .fold(nregs, |n, &r| n.max(r as usize + 1));
        let early = matches!(
            instr,
            Instr::Ret { .. }
                | Instr::EndUnit {
                    flow: FlowKind::Break
                }
        );
        if loop_var.is_some() && early {
            return None;
        }
        let outside = |p: &Option<usize>| p.is_some_and(|p| p < entry || p >= end);
        if successors(instr, pc).iter().any(outside) {
            return None;
        }
    }

    // Registers written on every path into each pc: a must-analysis over
    // bit sets, every pc but the entry starting full.
    let words = nregs.div_ceil(64).max(1);
    let mut defined = vec![u64::MAX; unit.len() * words];
    defined[..words].fill(0);
    let set = |bits: &mut [u64], r: Reg| bits[r as usize / 64] |= 1 << (r % 64);
    if let Some(r) = loop_var {
        set(&mut defined[..words], r);
    }
    let mut written = vec![0u64; words];
    let mut out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for (i, instr) in unit.iter().enumerate() {
            out.copy_from_slice(&defined[i * words..(i + 1) * words]);
            operands(instr, &mut |_| {}, &mut |r| {
                set(&mut out, r);
                set(&mut written, r);
            });
            for s in successors(instr, entry + i).into_iter().flatten() {
                let row = &mut defined[(s - entry) * words..(s - entry + 1) * words];
                for (d, o) in row.iter_mut().zip(&out) {
                    if *d & o != *d {
                        *d &= o;
                        changed = true;
                    }
                }
            }
        }
    }

    let mut inputs = Vec::new();
    for (i, instr) in unit.iter().enumerate() {
        let row = &defined[i * words..(i + 1) * words];
        operands(
            instr,
            &mut |r| {
                if row[r as usize / 64] & (1 << (r % 64)) == 0 {
                    inputs.push(r);
                }
            },
            &mut |_| {},
        );
    }
    inputs.sort_unstable();
    inputs.dedup();
    let carried = |&r: &Reg| written[r as usize / 64] & (1 << (r % 64)) != 0;
    if loop_var.is_some() && inputs.iter().any(carried) {
        return None;
    }
    let bases = |load: bool| {
        let mut bases: Vec<Reg> = unit
            .iter()
            .filter_map(|i| match *i {
                Instr::IndexLoad { base, .. } if load => Some(base),
                Instr::StoreIndex { base, .. } if !load => Some(base),
                _ => None,
            })
            .filter(|r| !carried(r))
            .collect();
        bases.sort_unstable();
        bases.dedup();
        bases
    };
    let stores = bases(false);
    let shared_bases = bases(true)
        .into_iter()
        .flat_map(|l| stores.iter().map(move |&s| (l, s)))
        .collect();
    Some(LockstepUnit {
        inputs,
        shared_bases,
    })
}
