//! The register VM: a flat dispatch loop over [`Instr`] streams.
//!
//! One [`Vm`] serves the same three roles as [`crate::eval::Evaluator`] —
//! host code, CUDA device threads and OpenMP workers — selected by the
//! [`EvalContext`] it is constructed with. Registers live in one contiguous
//! `Vec<Value>`; user-function calls push a frame by bumping the base offset,
//! so the hot path never allocates, hashes a name or walks a scope chain.
//!
//! Every observable of the tree-walking interpreter is reproduced exactly:
//! stdout, cost counters, memory traffic, `extra_seconds`, the step counter
//! (see the charging table in [`super::instr`]) and every error message,
//! whose line comes from the program's pc→line table.
//!
//! A kernel thread or OpenMP worker VM runs a whole single-segment block or
//! a whole chunk in one [`Vm::run_unit`]: when the unit exits its entry
//! frame, the VM's `Resume` cursor starts the block's next thread or the
//! chunk's next iteration and jumps back to the unit's entry.

use lassi_lang::{BinOp, OmpDirective, ReductionOp, Type};

use super::instr::{FlowKind, Instr, MathFn, Reg, Rk, RkBr, Rr, RrBr, SpecialIdent};
use super::{CompiledKernel, CompiledProgram, CompiledRegion, SharedLen};
use crate::backend::ParallelBackend;
use crate::cost::CostCounter;
use crate::error::ExecError;
use crate::eval::{apply_binop, ControlFlow, EvalContext};
use crate::interp::{ExecutionReport, RunConfig};
use crate::memory::{BufferId, MemSpace, Memory};
use crate::printf;
use crate::schedule::{self, Costed, KernelLane, RegionLane, SHARED_LEN_STEP_LIMIT};
use crate::value::{Dim3Val, Value};

/// Where a unit goes when it exits its entry frame. Read only on that path.
enum Resume {
    /// Return its flow to the caller of [`Vm::run_unit`].
    Exit,
    /// Start thread `next` of the current block over `Vm::block_frame`.
    Block {
        /// The block's next thread index, x fastest.
        next: Dim3Val,
    },
    /// Run iteration `k` of `lo, lo + step, ...` with the loop variable in
    /// `slot`, until `last`.
    Chunk {
        k: u64,
        last: u64,
        lo: i64,
        step: i64,
        slot: Reg,
    },
}

/// One saved call frame of the register stack.
struct Frame {
    /// pc to resume at in the caller.
    ret_pc: usize,
    /// Caller's register base offset.
    caller_base: usize,
    /// Caller's register watermark (start of the callee frame).
    caller_top: usize,
    /// Absolute register index receiving the coerced return value.
    dst_abs: usize,
    /// Function-table index of the callee (for return-type coercion).
    func: u32,
}

/// The bytecode virtual machine.
///
/// The public fields mirror [`crate::eval::Evaluator`]'s so the host run
/// and the parallel schedule read the run's observables the same way for
/// either engine.
pub struct Vm<'p> {
    /// The compiled program being executed.
    pub prog: &'p CompiledProgram,
    /// Execution context.
    pub ctx: EvalContext,
    /// Operation counters for code executed directly by this VM.
    pub cost: CostCounter,
    /// Operation counters accumulated by delegated parallel constructs.
    pub parallel_cost: CostCounter,
    /// Captured standard output. A thread's or worker's is collected by the
    /// parallel schedule and appended to the host's.
    pub stdout: String,
    /// Simulated seconds accrued by parallel constructs and transfers.
    pub extra_seconds: f64,
    /// Steps executed so far.
    pub steps: u64,
    /// Maximum number of steps before aborting.
    pub step_limit: u64,
    backend: Option<&'p dyn ParallelBackend>,
    call_depth: u32,
    regs: Vec<Value>,
    frames: Vec<Frame>,
    /// Base offset of the current frame inside `regs`.
    base: usize,
    /// One past the last slot of the current frame.
    frame_top: usize,
    /// Buffers mapped by open `target data` / offload frames, in map order.
    mapped: Vec<BufferId>,
    /// `mapped` watermarks, one per open map frame.
    map_marks: Vec<usize>,
    /// What to do when the running unit exits its entry frame.
    resume: Resume,
    /// The starting frame of every thread of the current block, while the
    /// VM runs the block.
    block_frame: Vec<Value>,
}

impl<'p> Vm<'p> {
    /// VM for device / worker code (no backend).
    pub fn for_context(prog: &'p CompiledProgram, ctx: EvalContext, step_limit: u64) -> Self {
        Vm {
            prog,
            ctx,
            cost: CostCounter::new(),
            parallel_cost: CostCounter::new(),
            stdout: String::new(),
            extra_seconds: 0.0,
            steps: 0,
            step_limit,
            backend: None,
            call_depth: 0,
            regs: Vec::new(),
            frames: Vec::new(),
            base: 0,
            frame_top: 0,
            mapped: Vec::new(),
            map_marks: Vec::new(),
            resume: Resume::Exit,
            block_frame: Vec::new(),
        }
    }

    /// VM for host code with an attached parallel backend.
    pub fn for_host(
        prog: &'p CompiledProgram,
        backend: &'p dyn ParallelBackend,
        step_limit: u64,
    ) -> Self {
        let mut vm = Vm::for_context(prog, EvalContext::Host, step_limit);
        vm.backend = Some(backend);
        vm
    }

    /// Reset the register stack to a single zeroed frame of `nslots` slots.
    /// Call once before the first [`Vm::run_unit`] of a frame's lifetime;
    /// kernel threads keep their frame across barrier segments by *not*
    /// calling this again.
    pub fn prepare_frame(&mut self, nslots: u32) {
        self.regs.clear();
        self.regs.resize(nslots as usize, Value::Int(0));
        self.frames.clear();
        self.base = 0;
        self.frame_top = nslots as usize;
    }

    /// Make this VM a fresh thread of `ctx` whose single frame holds a copy
    /// of `frame` (a kernel thread's frame: the same coerced arguments and
    /// shared pointers for every thread of a block, zeros elsewhere), so one
    /// `Vm` can serve many threads in sequence. `cost` and `stdout` keep
    /// accumulating: merging once equals merging per thread, since
    /// [`CostCounter::merge`] is field-wise addition, and the threads print
    /// in the order they run.
    pub(crate) fn start_thread(&mut self, ctx: EvalContext, frame: &[Value]) {
        self.ctx = ctx;
        self.steps = 0;
        self.call_depth = 0;
        self.extra_seconds = 0.0;
        self.mapped.clear();
        self.map_marks.clear();
        self.regs.clear();
        self.regs.extend_from_slice(frame);
        self.frames.clear();
        self.base = 0;
        self.frame_top = frame.len();
    }

    /// Write a slot of the current frame (parameter / capture seeding).
    pub fn set_slot(&mut self, slot: Reg, v: Value) {
        self.regs[self.base + slot as usize] = v;
    }

    #[inline]
    fn charge(&mut self, n: u32) -> Result<(), ExecError> {
        self.steps += n as u64;
        if self.steps > self.step_limit {
            Err(ExecError::StepLimitExceeded {
                limit: self.step_limit,
            })
        } else {
            Ok(())
        }
    }

    /// The source line of the instruction at `pc`, for its errors.
    #[inline]
    fn line(&self, pc: usize) -> u32 {
        self.prog.lines[pc]
    }

    /// Apply `op` through `apply_binop` and write the result to `dst`: the
    /// operators without an instruction of their own, and every operand
    /// pair the per-operator fast paths do not cover.
    #[inline(never)]
    fn binop(
        &mut self,
        op: BinOp,
        dst: Reg,
        l: Value,
        r: Value,
        pc: usize,
    ) -> Result<(), ExecError> {
        let line = self.line(pc);
        let v = apply_binop(op, &l, &r, &mut self.cost, line)?;
        self.set_reg(dst, v);
        Ok(())
    }

    /// Charge an operator instruction's `pre` and run the generic operator.
    fn binop_instr(&mut self, op: BinOp, o: &impl Operands, pc: usize) -> Result<(), ExecError> {
        self.charge(o.pre())?;
        let (l, r) = o.operands(self);
        self.binop(op, o.dst(), l, r, pc)
    }

    #[inline]
    fn reg(&self, r: Reg) -> &Value {
        &self.regs[self.base + r as usize]
    }

    #[inline]
    fn set_reg(&mut self, r: Reg, v: Value) {
        self.regs[self.base + r as usize] = v;
    }

    #[inline]
    fn args(&self, args_base: Reg, argc: u32) -> &[Value] {
        let s = self.base + args_base as usize;
        &self.regs[s..s + argc as usize]
    }

    fn is_device_access(&self) -> bool {
        self.ctx.is_device_access()
    }

    fn err_line(&self, pc: usize, msg: &str) -> ExecError {
        ExecError::other(format!("line {}: {}", self.line(pc), msg))
    }

    /// Element size used for byte-traffic accounting, like the interpreter's
    /// `buffer_elem(..).map_or(8, ..)`.
    fn elem_size(&self, mem: &Memory, buf: BufferId) -> u64 {
        mem.buffer_elem(buf).map_or(8, |t| t.size_bytes())
    }

    fn pop_map_frame(&mut self, mem: &Memory) {
        let mark = self.map_marks.pop().unwrap_or(0);
        for id in self.mapped.drain(mark..) {
            mem.set_mapped(id, false);
        }
    }

    /// Finish a callee unit: write the coerced return value into the caller's
    /// destination register and restore the caller frame.
    fn pop_frame(&mut self, flow: ControlFlow) -> usize {
        let f = self.frames.pop().expect("return without a frame");
        let ret = &self.prog.funcs[f.func as usize].ret;
        let v = match flow {
            ControlFlow::Return(v) => v.coerce_to(ret),
            _ => Value::zero_of(ret),
        };
        self.regs[f.dst_abs] = v;
        self.base = f.caller_base;
        self.frame_top = f.caller_top;
        self.call_depth -= 1;
        f.ret_pc
    }

    /// `LaunchKernel`: run the launch through the schedule and account for
    /// it. Out of line, so the schedule's state stays out of the dispatch
    /// loop's frame.
    #[inline(never)]
    fn launch(
        &mut self,
        mem: &Memory,
        kernel: u32,
        grid: Reg,
        block: Reg,
        args_base: Reg,
        argc: u32,
    ) -> Result<(), ExecError> {
        let prog = self.prog;
        let backend = self
            .backend
            .expect("LaunchPre verified the backend is attached");
        let (Value::Dim3(g), Value::Dim3(b)) = (self.reg(grid), self.reg(block)) else {
            unreachable!("GeomConvert always precedes LaunchKernel");
        };
        let mut lane = KernelOnVm {
            prog,
            kernel: &prog.kernels[kernel as usize],
            frame: Vec::new(),
        };
        let args = self.args(args_base, argc);
        let stats = schedule::launch(&mut lane, *g, *b, args, backend, mem)?;
        self.extra_seconds += stats.simulated_seconds;
        self.parallel_cost.merge(&stats.cost);
        self.stdout.push_str(&stats.stdout);
        Ok(())
    }

    /// `ParallelFor` at `pc`: run the region through the schedule, account
    /// for it and store the combined reductions. Out of line like
    /// [`Vm::launch`].
    #[inline(never)]
    fn parallel_for(
        &mut self,
        mem: &Memory,
        pc: usize,
        region: u32,
        lo: Reg,
        hi: Reg,
        step: Reg,
    ) -> Result<(), ExecError> {
        let prog = self.prog;
        let backend = self
            .backend
            .expect("OmpPre verified the backend is attached");
        let r = &prog.regions[region as usize];
        let lane = RegionOnVm {
            prog,
            region: r,
            captures: r
                .captures
                .iter()
                .map(|&c| self.regs[self.base + c as usize])
                .collect(),
        };
        let (lo, hi) = (self.reg(lo).as_int(), self.reg(hi).as_int());
        let step = self.reg(step).as_int().max(1);
        let stats = schedule::work_share(&lane, lo, hi, step, self.line(pc), backend, mem)?;
        self.extra_seconds += stats.simulated_seconds;
        self.parallel_cost.merge(&stats.cost);
        self.stdout.push_str(&stats.stdout);
        for (red, value) in r.reductions.iter().zip(&stats.reductions) {
            if let Some((slot, ty)) = &red.update {
                self.regs[self.base + *slot as usize] = value.coerce_to(ty);
            }
        }
        Ok(())
    }

    /// At the running unit's exit from its entry frame with `flow`: set up
    /// the block's next thread or the chunk's next iteration and return
    /// true, or return false when the unit is done. A chunk ends at its last
    /// iteration, at a `break` and at a `return`.
    fn resume(&mut self, flow: &ControlFlow) -> bool {
        match &mut self.resume {
            Resume::Exit => false,
            Resume::Block { next } => {
                let EvalContext::DeviceThread {
                    block_idx,
                    block_dim,
                    grid_dim,
                    ..
                } = self.ctx
                else {
                    unreachable!("a block cursor runs device threads");
                };
                let tid = *next;
                match schedule::next_coord(tid, block_dim) {
                    Some(after) => *next = after,
                    None => self.resume = Resume::Exit,
                }
                let frame = std::mem::take(&mut self.block_frame);
                let ctx = schedule::device_thread(tid, block_idx, block_dim, grid_dim);
                self.start_thread(ctx, &frame);
                self.block_frame = frame;
                true
            }
            Resume::Chunk {
                k,
                last,
                lo,
                step,
                slot,
            } => {
                *k += 1;
                if *k >= *last || !matches!(flow, ControlFlow::Normal | ControlFlow::Continue) {
                    self.resume = Resume::Exit;
                    return false;
                }
                let (i, slot) = (schedule::iteration_value(*lo, *step, *k), *slot);
                self.set_slot(slot, Value::Int(i));
                true
            }
        }
    }

    /// Execute one compiled unit starting at `entry` until it terminates.
    ///
    /// The unit runs in the current frame; user calls made by it push and pop
    /// frames internally. Returns the unit's terminal control flow. Under a
    /// `Resume` cursor the unit runs again from `entry` for every further
    /// thread or iteration, and the last one's flow is returned.
    pub fn run_unit(&mut self, mem: &Memory, entry: u32) -> Result<ControlFlow, ExecError> {
        let prog = self.prog;
        let entry_frames = self.frames.len();
        let mut pc = entry as usize;
        // The tail of a branch-fused operator: jump when its result is falsy.
        macro_rules! jump_unless {
            ($truthy:expr, $target:expr) => {
                if !$truthy {
                    pc = $target as usize;
                    continue;
                }
            };
        }
        loop {
            match &prog.code[pc] {
                Instr::Branch { pre } => {
                    self.charge(*pre)?;
                    self.cost.branches += 1;
                }
                Instr::Charge { n } => self.charge(*n)?,

                Instr::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Instr::JumpIfFalse { cond, target } => {
                    if !self.reg(*cond).is_truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::JumpIfTrue { cond, target } => {
                    if self.reg(*cond).is_truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::Ret { pre, src } => {
                    self.charge(*pre)?;
                    let v = match src {
                        Some(r) => *self.reg(*r),
                        None => Value::Void,
                    };
                    if self.frames.len() == entry_frames {
                        let flow = ControlFlow::Return(v);
                        if self.resume(&flow) {
                            pc = entry as usize;
                            continue;
                        }
                        return Ok(flow);
                    }
                    pc = self.pop_frame(ControlFlow::Return(v));
                    continue;
                }
                Instr::EndUnit { flow } => {
                    let flow = match flow {
                        FlowKind::Normal => ControlFlow::Normal,
                        FlowKind::Break => ControlFlow::Break,
                        FlowKind::Continue => ControlFlow::Continue,
                    };
                    if self.frames.len() == entry_frames {
                        if self.resume(&flow) {
                            pc = entry as usize;
                            continue;
                        }
                        return Ok(flow);
                    }
                    pc = self.pop_frame(flow);
                    continue;
                }

                Instr::Const { dst, id } => {
                    self.set_reg(*dst, prog.consts[*id as usize]);
                }
                Instr::Move { dst, src } => {
                    let v = *self.reg(*src);
                    self.set_reg(*dst, v);
                }
                Instr::LoadDim {
                    dst,
                    which,
                    axis,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let EvalContext::DeviceThread {
                        thread_idx,
                        block_idx,
                        block_dim,
                        grid_dim,
                    } = self.ctx
                    else {
                        return Err(self.err_line(
                            pc,
                            &format!("use of unbound identifier '{}'", which.name()),
                        ));
                    };
                    let d = match which {
                        SpecialIdent::ThreadIdx => thread_idx,
                        SpecialIdent::BlockIdx => block_idx,
                        SpecialIdent::BlockDim => block_dim,
                        SpecialIdent::GridDim => grid_dim,
                    };
                    let v = match axis {
                        Some(a) => Value::Int(d.axis(*a) as i64),
                        None => Value::Dim3(d),
                    };
                    self.set_reg(*dst, v);
                }
                Instr::StoreInt { slot, src, pre } => {
                    self.charge(*pre)?;
                    let v = Value::Int(self.reg(*src).as_int());
                    self.set_reg(*slot, v);
                }
                Instr::StoreF32 { slot, src, pre } => {
                    self.charge(*pre)?;
                    let v = Value::Float(self.reg(*src).as_float() as f32 as f64);
                    self.set_reg(*slot, v);
                }
                Instr::StoreF64 { slot, src, pre } => {
                    self.charge(*pre)?;
                    let v = Value::Float(self.reg(*src).as_float());
                    self.set_reg(*slot, v);
                }
                Instr::StoreVar { slot, src, ty, pre } => {
                    self.charge(*pre)?;
                    let v = self.reg(*src).coerce_to(prog.ty(*ty));
                    self.set_reg(*slot, v);
                }
                Instr::DeclPtrInit {
                    slot,
                    src,
                    ty,
                    name,
                } => {
                    let v = *self.reg(*src);
                    if let Value::Ptr(p) = &v {
                        if let Some(elem) = prog.ty(*ty).pointee() {
                            mem.rename(p.buffer, prog.name(*name));
                            mem.retype(p.buffer, elem.clone());
                        }
                    }
                    let v = v.coerce_to(prog.ty(*ty));
                    self.set_reg(*slot, v);
                }
                Instr::DeclArray {
                    slot,
                    len,
                    elem,
                    name,
                } => {
                    let n = self.reg(*len).as_int().max(0) as usize;
                    let space = if self.is_device_access() {
                        MemSpace::Device
                    } else {
                        MemSpace::Host
                    };
                    let ptr = mem.alloc(prog.name(*name), prog.ty(*elem).clone(), n, space);
                    self.set_reg(*slot, Value::Ptr(ptr));
                }

                Instr::Binary(op, o) => self.binop_instr(*op, o, pc)?,
                Instr::BinaryK(op, o) => self.binop_instr(*op, o, pc)?,
                Instr::Add(o) => _ = self.op_add(o, pc)?,
                Instr::AddK(o) => _ = self.op_add(o, pc)?,
                Instr::Sub(o) => _ = self.op_sub(o, pc)?,
                Instr::SubK(o) => _ = self.op_sub(o, pc)?,
                Instr::Mul(o) => _ = self.op_mul(o, pc)?,
                Instr::MulK(o) => _ = self.op_mul(o, pc)?,
                Instr::Div(o) => _ = self.op_div(o, pc)?,
                Instr::DivK(o) => _ = self.op_div(o, pc)?,
                Instr::Rem(o) => _ = self.op_rem(o, pc)?,
                Instr::RemK(o) => _ = self.op_rem(o, pc)?,
                Instr::Lt(o) => _ = self.op_lt(o, pc)?,
                Instr::LtK(o) => _ = self.op_lt(o, pc)?,
                Instr::Gt(o) => _ = self.op_gt(o, pc)?,
                Instr::GtK(o) => _ = self.op_gt(o, pc)?,
                Instr::Le(o) => _ = self.op_le(o, pc)?,
                Instr::LeK(o) => _ = self.op_le(o, pc)?,
                Instr::Ge(o) => _ = self.op_ge(o, pc)?,
                Instr::GeK(o) => _ = self.op_ge(o, pc)?,
                Instr::Eq(o) => _ = self.op_eq(o, pc)?,
                Instr::EqK(o) => _ = self.op_eq(o, pc)?,
                Instr::Ne(o) => _ = self.op_ne(o, pc)?,
                Instr::NeK(o) => _ = self.op_ne(o, pc)?,
                Instr::And(o) => _ = self.op_and(o, pc)?,
                Instr::LtBr(o) => jump_unless!(self.op_lt(o, pc)?, o.target),
                Instr::LtKBr(o) => jump_unless!(self.op_lt(o, pc)?, o.target),
                Instr::GtBr(o) => jump_unless!(self.op_gt(o, pc)?, o.target),
                Instr::GtKBr(o) => jump_unless!(self.op_gt(o, pc)?, o.target),
                Instr::LeBr(o) => jump_unless!(self.op_le(o, pc)?, o.target),
                Instr::LeKBr(o) => jump_unless!(self.op_le(o, pc)?, o.target),
                Instr::GeBr(o) => jump_unless!(self.op_ge(o, pc)?, o.target),
                Instr::GeKBr(o) => jump_unless!(self.op_ge(o, pc)?, o.target),
                Instr::EqBr(o) => jump_unless!(self.op_eq(o, pc)?, o.target),
                Instr::EqKBr(o) => jump_unless!(self.op_eq(o, pc)?, o.target),
                Instr::NeBr(o) => jump_unless!(self.op_ne(o, pc)?, o.target),
                Instr::NeKBr(o) => jump_unless!(self.op_ne(o, pc)?, o.target),
                Instr::AndBr(o) => jump_unless!(self.op_and(o, pc)?, o.target),
                Instr::Neg { dst, src, pre } => {
                    self.charge(*pre)?;
                    let v = match self.reg(*src) {
                        Value::Int(i) => Value::Int(-i),
                        other => Value::Float(-other.as_float()),
                    };
                    self.cost.int_ops += 1;
                    self.set_reg(*dst, v);
                }
                Instr::Not { dst, src, pre } => {
                    self.charge(*pre)?;
                    let v = Value::Int(if self.reg(*src).is_truthy() { 0 } else { 1 });
                    self.set_reg(*dst, v);
                }
                Instr::DerefLoad { dst, ptr, pre } => {
                    self.charge(*pre)?;
                    let v = match self.reg(*ptr) {
                        Value::Ptr(p) => {
                            let p = *p;
                            let (v, elem) =
                                mem.load_counted(&p, 0, self.is_device_access(), self.line(pc))?;
                            self.cost.bytes_read += elem;
                            v
                        }
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                    };
                    self.set_reg(*dst, v);
                }
                Instr::IndexLoad {
                    dst,
                    base,
                    idx,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let i = self.reg(*idx).as_int();
                    let v = match self.reg(*base) {
                        Value::Ptr(p) => {
                            let p = *p;
                            let (v, elem) =
                                mem.load_counted(&p, i, self.is_device_access(), self.line(pc))?;
                            self.cost.bytes_read += elem;
                            v
                        }
                        Value::NullPtr => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                        _ => return Err(self.err_line(pc, "subscripted value is not a pointer")),
                    };
                    self.set_reg(*dst, v);
                }
                Instr::MemberGet {
                    dst,
                    src,
                    axis,
                    field,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let v = match self.reg(*src) {
                        Value::Dim3(d) => Value::Int(d.axis(*axis) as i64),
                        other => {
                            return Err(self.err_line(
                                pc,
                                &format!(
                                    "member access '.{}' on non-dim3 value {other}",
                                    prog.name(*field)
                                ),
                            ))
                        }
                    };
                    self.set_reg(*dst, v);
                }
                Instr::CastScalar { dst, src, ty, pre } => {
                    self.charge(*pre)?;
                    let v = self.reg(*src).coerce_to(prog.ty(*ty));
                    self.set_reg(*dst, v);
                }
                Instr::CastPtr {
                    dst,
                    src,
                    elem,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let v = *self.reg(*src);
                    if let Value::Ptr(p) = &v {
                        mem.retype(p.buffer, prog.ty(*elem).clone());
                    }
                    self.set_reg(*dst, v);
                }

                Instr::StoreIndex {
                    base,
                    idx,
                    src,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let i = self.reg(*idx).as_int();
                    let v = *self.reg(*src);
                    match self.reg(*base) {
                        Value::Ptr(p) => {
                            let p = *p;
                            let elem = mem.store_counted(
                                &p,
                                i,
                                &v,
                                self.is_device_access(),
                                self.line(pc),
                            )?;
                            self.cost.bytes_written += elem;
                        }
                        Value::NullPtr => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                        _ => return Err(self.err_line(pc, "subscripted value is not a pointer")),
                    }
                }
                Instr::RmwIndex {
                    op,
                    base,
                    idx,
                    src,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let i = self.reg(*idx).as_int();
                    let p = match self.reg(*base) {
                        Value::Ptr(p) => *p,
                        Value::NullPtr => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                        _ => return Err(self.err_line(pc, "subscripted value is not a pointer")),
                    };
                    let (old, elem) =
                        mem.load_counted(&p, i, self.is_device_access(), self.line(pc))?;
                    self.cost.bytes_read += elem;
                    let new = apply_binop(
                        *op,
                        &old,
                        &self.regs[self.base + *src as usize],
                        &mut self.cost,
                        prog.lines[pc],
                    )?;
                    self.cost.bytes_written += elem;
                    mem.store(&p, i, &new, self.is_device_access(), self.line(pc))?;
                }
                Instr::StoreDeref { ptr, src, pre } => {
                    self.charge(*pre)?;
                    let v = *self.reg(*src);
                    match self.reg(*ptr) {
                        Value::Ptr(p) => {
                            let p = *p;
                            let elem = mem.store_counted(
                                &p,
                                0,
                                &v,
                                self.is_device_access(),
                                self.line(pc),
                            )?;
                            self.cost.bytes_written += elem;
                        }
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                    }
                }
                Instr::RmwDeref { op, ptr, src, pre } => {
                    self.charge(*pre)?;
                    let p = match self.reg(*ptr) {
                        Value::Ptr(p) => *p,
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                    };
                    let (old, elem) =
                        mem.load_counted(&p, 0, self.is_device_access(), self.line(pc))?;
                    self.cost.bytes_read += elem;
                    let new = apply_binop(
                        *op,
                        &old,
                        &self.regs[self.base + *src as usize],
                        &mut self.cost,
                        prog.lines[pc],
                    )?;
                    self.cost.bytes_written += elem;
                    mem.store(&p, 0, &new, self.is_device_access(), self.line(pc))?;
                }
                Instr::RmwVar {
                    op,
                    slot,
                    src,
                    ty,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let (si, vi) = (self.base + *slot as usize, self.base + *src as usize);
                    let new = apply_binop(
                        *op,
                        &self.regs[si],
                        &self.regs[vi],
                        &mut self.cost,
                        prog.lines[pc],
                    )?;
                    self.regs[si] = new.coerce_to(prog.ty(*ty));
                }
                Instr::ErrPlain { msg } => {
                    return Err(ExecError::other(prog.name(*msg)));
                }
                Instr::ErrLine { msg } => {
                    return Err(self.err_line(pc, prog.name(*msg)));
                }

                Instr::CallPre { pre } => {
                    self.charge(*pre)?;
                    self.cost.calls += 1;
                }
                Instr::UserCallPre { pre } => {
                    self.charge(*pre)?;
                    self.cost.calls += 1;
                    if self.call_depth > 64 {
                        return Err(ExecError::other("call stack depth exceeded 64 frames"));
                    }
                }
                Instr::CallUser {
                    func,
                    args_base,
                    argc,
                    dst,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let f = &prog.funcs[*func as usize];
                    let callee_base = self.frame_top;
                    let nslots = f.nslots as usize;
                    if self.regs.len() < callee_base + nslots {
                        self.regs.resize(callee_base + nslots, Value::Int(0));
                    }
                    for (i, param) in f.params.iter().enumerate() {
                        let v = if (i as u32) < *argc {
                            self.regs[self.base + *args_base as usize + i].coerce_to(param)
                        } else {
                            Value::zero_of(param)
                        };
                        self.regs[callee_base + i] = v;
                    }
                    self.frames.push(Frame {
                        ret_pc: pc + 1,
                        caller_base: self.base,
                        caller_top: self.frame_top,
                        dst_abs: self.base + *dst as usize,
                        func: *func,
                    });
                    self.base = callee_base;
                    self.frame_top = callee_base + nslots;
                    self.call_depth += 1;
                    pc = f.entry as usize;
                    continue;
                }
                Instr::Printf {
                    args_base,
                    argc,
                    dst,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let text = {
                        let vals = self.args(*args_base, *argc);
                        let fmt = match vals.first() {
                            Some(Value::Str(id)) => prog.name(*id),
                            _ => "",
                        };
                        printf::format(fmt, vals.get(1..).unwrap_or(&[]), &prog.names)
                    };
                    self.stdout.push_str(&text);
                    self.set_reg(*dst, Value::Int(text.len() as i64));
                }
                Instr::Malloc { bytes, dst } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    let ptr = mem.alloc_bytes("<anon>", n, MemSpace::Host);
                    self.set_reg(*dst, Value::Ptr(ptr));
                }
                Instr::FreeVal { src, dst } => {
                    match self.reg(*src) {
                        Value::Ptr(p) => mem.free(p, self.line(pc))?,
                        Value::NullPtr => {}
                        _ => {
                            return Err(ExecError::InvalidFree {
                                line: self.line(pc),
                            })
                        }
                    }
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::CudaMalloc {
                    bytes,
                    slot,
                    elem,
                    slot_ty,
                    name,
                    dst,
                } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    let elem = prog.ty(*elem).clone();
                    let len = (n / elem.size_bytes().max(1)).max(1) as usize;
                    let ptr = mem.alloc(prog.name(*name), elem, len, MemSpace::Device);
                    let v = Value::Ptr(ptr).coerce_to(prog.ty(*slot_ty));
                    self.set_reg(*slot, v);
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::CudaMallocUnbound { bytes, name } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    let len = (n / Type::Double.size_bytes().max(1)).max(1) as usize;
                    mem.alloc(prog.name(*name), Type::Double, len, MemSpace::Device);
                    return Err(self.err_line(
                        pc,
                        &format!("cudaMalloc target '{}' is not declared", prog.name(*name)),
                    ));
                }
                Instr::Memcpy {
                    dptr,
                    sptr,
                    bytes,
                    dst,
                } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    let (Value::Ptr(d), Value::Ptr(s)) = (self.reg(*dptr), self.reg(*sptr)) else {
                        return Err(ExecError::NullPointer {
                            line: self.line(pc),
                        });
                    };
                    mem.copy(d, s, n, self.line(pc))?;
                    if let Some(backend) = self.backend {
                        self.extra_seconds += backend.memcpy_seconds(n);
                    }
                    self.cost.bytes_read += n;
                    self.cost.bytes_written += n;
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::Memset {
                    ptr,
                    fill,
                    bytes,
                    dst,
                } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    if let Value::Ptr(p) = self.reg(*ptr) {
                        let p = *p;
                        let fill = *self.reg(*fill);
                        let elem_size = self.elem_size(mem, p.buffer).max(1);
                        let count = (n / elem_size) as i64;
                        let v = if fill.as_int() == 0 {
                            Value::Int(0)
                        } else {
                            fill
                        };
                        let dev = self.is_device_access() || p.space != MemSpace::Host;
                        for i in 0..count {
                            mem.store(&p, i, &v, dev, self.line(pc))?;
                        }
                        self.cost.bytes_written += n;
                    }
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::HostMemcpy {
                    dptr,
                    sptr,
                    bytes,
                    dst,
                } => {
                    let n = self.reg(*bytes).as_int().max(0) as u64;
                    if let (Value::Ptr(d), Value::Ptr(s)) = (self.reg(*dptr), self.reg(*sptr)) {
                        mem.copy(d, s, n, self.line(pc))?;
                    }
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::Exit { code, dst } => {
                    let code = self.reg(*code).as_int();
                    if code != 0 {
                        return Err(ExecError::NonZeroExit { code });
                    }
                    self.set_reg(*dst, Value::Int(0));
                }
                Instr::SyncCallErr => {
                    return Err(ExecError::BarrierDivergence {
                        kernel: "<current kernel>".to_string(),
                    });
                }
                Instr::AtomicAdd {
                    target,
                    delta,
                    dst,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let delta = *self.reg(*delta);
                    self.cost.atomics += 1;
                    let v = match self.reg(*target) {
                        Value::Ptr(p) => {
                            mem.atomic_add(p, 0, &delta, self.is_device_access(), self.line(pc))?
                        }
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                    };
                    self.set_reg(*dst, v);
                }
                Instr::AtomicMinMax {
                    target,
                    delta,
                    dst,
                    is_max,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let operand = *self.reg(*delta);
                    self.cost.atomics += 1;
                    let v = match self.reg(*target) {
                        Value::Ptr(p) => mem.atomic_minmax(
                            p,
                            0,
                            &operand,
                            *is_max,
                            self.is_device_access(),
                            self.line(pc),
                        )?,
                        _ => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                    };
                    self.set_reg(*dst, v);
                }
                Instr::WTime { dst } => {
                    let v = Value::Float(self.extra_seconds + self.steps as f64 * 1e-9);
                    self.set_reg(*dst, v);
                }
                Instr::OmpInt { dst, which } => {
                    let v = match which {
                        0 => match self.ctx {
                            EvalContext::OmpWorker { thread_num, .. } => thread_num,
                            _ => 0,
                        },
                        1 => match self.ctx {
                            EvalContext::OmpWorker { num_threads, .. } => num_threads,
                            _ => 1,
                        },
                        _ => 64,
                    };
                    self.set_reg(*dst, Value::Int(v));
                }
                Instr::Dim3Ctor {
                    args_base,
                    argc,
                    dst,
                } => {
                    let mut dims = [1u32; 3];
                    for (i, v) in self.args(*args_base, *argc).iter().enumerate() {
                        dims[i] = v.as_int().max(1) as u32;
                    }
                    self.set_reg(*dst, Value::Dim3(Dim3Val::new(dims[0], dims[1], dims[2])));
                }
                Instr::MathOp {
                    f,
                    args_base,
                    argc,
                    dst,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let v = {
                        let vals = self.args(*args_base, *argc);
                        let f0 = vals.first().map_or(0.0, |v| v.as_float());
                        let f1 = vals.get(1).map_or(0.0, |v| v.as_float());
                        let n0 = vals.first().map_or(0, |v| v.as_int());
                        let n1 = vals.get(1).map_or(0, |v| v.as_int());
                        match f {
                            MathFn::Sqrt => Value::Float(f0.sqrt()),
                            MathFn::Fabs => Value::Float(f0.abs()),
                            MathFn::Exp => Value::Float(f0.exp()),
                            MathFn::Log => Value::Float(f0.ln()),
                            MathFn::Log2 => Value::Float(f0.log2()),
                            MathFn::Sin => Value::Float(f0.sin()),
                            MathFn::Cos => Value::Float(f0.cos()),
                            MathFn::Atan2 => Value::Float(f0.atan2(f1)),
                            MathFn::Pow => Value::Float(f0.powf(f1)),
                            MathFn::Floor => Value::Float(f0.floor()),
                            MathFn::Ceil => Value::Float(f0.ceil()),
                            MathFn::Fmin => Value::Float(f0.min(f1)),
                            MathFn::Fmax => Value::Float(f0.max(f1)),
                            MathFn::MinInt => Value::Int(n0.min(n1)),
                            MathFn::MaxInt => Value::Int(n0.max(n1)),
                            MathFn::AbsInt => Value::Int(n0.abs()),
                        }
                    };
                    self.cost.special_ops += 1;
                    self.set_reg(*dst, v);
                }
                Instr::ErrUnknownCall { msg } => {
                    self.cost.special_ops += 1;
                    return Err(self.err_line(pc, prog.name(*msg)));
                }

                Instr::LaunchPre { name, defined } => {
                    if self.backend.is_none() {
                        return Err(ExecError::other(
                            "kernel launch attempted without a device backend",
                        ));
                    }
                    if !defined {
                        return Err(self.err_line(
                            pc,
                            &format!("launch of undefined kernel '{}'", prog.name(*name)),
                        ));
                    }
                }
                Instr::GeomConvert { dst, src } => {
                    let d = match self.reg(*src) {
                        Value::Dim3(d) => *d,
                        other => Dim3Val::linear(other.as_int().max(0) as u32),
                    };
                    self.set_reg(*dst, Value::Dim3(d));
                }
                Instr::LaunchCheck { grid, block, name } => {
                    let (Value::Dim3(g), Value::Dim3(b)) = (self.reg(*grid), self.reg(*block))
                    else {
                        unreachable!("GeomConvert always precedes LaunchCheck");
                    };
                    if g.count() == 0 || b.count() == 0 {
                        return Err(ExecError::InvalidLaunchConfig {
                            kernel: prog.name(*name).to_string(),
                            reason: "grid and block dimensions must be non-zero".to_string(),
                        });
                    }
                    if b.count() > 1024 {
                        return Err(ExecError::InvalidLaunchConfig {
                            kernel: prog.name(*name).to_string(),
                            reason: format!(
                                "block size {} exceeds the 1024-thread limit",
                                b.count()
                            ),
                        });
                    }
                }
                Instr::LaunchKernel {
                    kernel,
                    grid,
                    block,
                    args_base,
                    argc,
                } => self.launch(mem, *kernel, *grid, *block, *args_base, *argc)?,

                Instr::AtomicRmw {
                    base,
                    idx,
                    src,
                    negate,
                    pre,
                } => {
                    self.charge(*pre)?;
                    let i = self.reg(*idx).as_int();
                    let p = match self.reg(*base) {
                        Value::Ptr(p) => *p,
                        Value::NullPtr => {
                            return Err(ExecError::NullPointer {
                                line: self.line(pc),
                            })
                        }
                        _ => return Err(self.err_line(pc, "subscripted value is not a pointer")),
                    };
                    self.cost.atomics += 1;
                    let delta = *self.reg(*src);
                    let signed = if *negate {
                        match delta {
                            Value::Int(v) => Value::Int(-v),
                            other => Value::Float(-other.as_float()),
                        }
                    } else {
                        delta
                    };
                    mem.atomic_add(&p, i, &signed, self.is_device_access(), self.line(pc))?;
                }
                Instr::MapFramePush => {
                    self.map_marks.push(self.mapped.len());
                }
                Instr::MapFramePop => {
                    self.pop_map_frame(mem);
                }
                Instr::UnmapFrames { n } => {
                    for _ in 0..*n {
                        self.pop_map_frame(mem);
                    }
                }
                Instr::MapSecWhole { slot } => {
                    if let Value::Ptr(p) = self.reg(*slot) {
                        let p = *p;
                        mem.set_mapped(p.buffer, true);
                        self.mapped.push(p.buffer);
                        let elem = self.elem_size(mem, p.buffer);
                        let bytes = mem.buffer_len(p.buffer) as u64 * elem;
                        if let Some(backend) = self.backend {
                            self.extra_seconds += backend.memcpy_seconds(bytes);
                        }
                        self.cost.bytes_read += bytes;
                    }
                }
                Instr::MapSecBegin { slot, tmp, skip } => {
                    if let Value::Ptr(p) = self.reg(*slot) {
                        let p = *p;
                        mem.set_mapped(p.buffer, true);
                        self.mapped.push(p.buffer);
                        self.set_reg(*tmp, Value::Ptr(p));
                    } else {
                        pc = *skip as usize;
                        continue;
                    }
                }
                Instr::MapSecCharge { tmp, len } => {
                    let Value::Ptr(p) = self.reg(*tmp) else {
                        unreachable!("MapSecBegin stored a pointer in the scratch register");
                    };
                    let elem = self.elem_size(mem, p.buffer);
                    let bytes = self.reg(*len).as_int().max(0) as u64 * elem;
                    if let Some(backend) = self.backend {
                        self.extra_seconds += backend.memcpy_seconds(bytes);
                    }
                    self.cost.bytes_read += bytes;
                }
                Instr::OmpPre => {
                    if self.backend.is_none() {
                        return Err(ExecError::other(
                            "OpenMP region attempted without a runtime backend",
                        ));
                    }
                }
                Instr::ParallelFor {
                    region,
                    lo,
                    hi,
                    step,
                } => self.parallel_for(mem, pc, *region, *lo, *hi, *step)?,
            }
            pc += 1;
        }
    }
}

// ------------------------------------------------------------------ lanes

impl Costed for Vm<'_> {
    fn cost(&self) -> &CostCounter {
        &self.cost
    }

    fn drain_stdout(&mut self, out: &mut String) {
        out.push_str(&self.stdout);
        self.stdout.clear();
    }
}

impl Vm<'_> {
    /// Run `entry` under `cursor`, then drop the cursor whatever the outcome.
    fn run_resumed(
        &mut self,
        cursor: Resume,
        mem: &Memory,
        entry: u32,
    ) -> Result<ControlFlow, ExecError> {
        self.resume = cursor;
        let flow = self.run_unit(mem, entry);
        self.resume = Resume::Exit;
        flow
    }
}

/// A kernel launch on the VM: each thread is a VM over a copy of the
/// block's frame.
struct KernelOnVm<'p> {
    prog: &'p CompiledProgram,
    kernel: &'p CompiledKernel,
    /// Every thread's starting frame: coerced arguments, the current block's
    /// `__shared__` pointers, zeros elsewhere.
    frame: Vec<Value>,
}

impl<'p> KernelLane for KernelOnVm<'p> {
    type Thread = Vm<'p>;

    fn name(&self) -> &str {
        &self.kernel.name
    }

    fn params(&self) -> usize {
        self.kernel.params.len()
    }

    fn segments(&self) -> usize {
        self.kernel.segments.len()
    }

    fn enter_block(&mut self, args: &[Value], mem: &Memory) -> Result<(), ExecError> {
        self.frame.clear();
        self.frame
            .resize(self.kernel.nslots as usize, Value::Int(0));
        for (i, (ty, arg)) in self.kernel.params.iter().zip(args).enumerate() {
            self.frame[i] = arg.coerce_to(ty);
        }
        for decl in &self.kernel.shared {
            let len = match &decl.len {
                SharedLen::Lit(v) => (*v).max(1) as usize,
                SharedLen::Dynamic { entry, nslots } => {
                    // Evaluated with only the kernel arguments in scope.
                    let mut vm =
                        Vm::for_context(self.prog, EvalContext::Host, SHARED_LEN_STEP_LIMIT);
                    vm.prepare_frame(*nslots);
                    for (i, (ty, arg)) in self.kernel.params.iter().zip(args).enumerate() {
                        vm.set_slot(i as u32, arg.coerce_to(ty));
                    }
                    match vm.run_unit(mem, *entry)? {
                        ControlFlow::Return(v) => v.as_int().max(1) as usize,
                        _ => 1,
                    }
                }
            };
            let ptr = mem.alloc(&decl.name, decl.elem.clone(), len, MemSpace::Shared);
            self.frame[decl.slot as usize] = Value::Ptr(ptr);
        }
        Ok(())
    }

    fn thread(&self, ctx: EvalContext, step_limit: u64) -> Vm<'p> {
        let mut vm = Vm::for_context(self.prog, ctx, step_limit);
        vm.start_thread(ctx, &self.frame);
        vm
    }

    fn restart(&self, vm: &mut Vm<'p>, ctx: EvalContext) {
        vm.start_thread(ctx, &self.frame);
    }

    fn run(&self, vm: &mut Vm<'p>, segment: usize, mem: &Memory) -> Result<ControlFlow, ExecError> {
        vm.run_unit(mem, self.kernel.segments[segment])
    }

    /// The whole block in one `run_unit`: the first thread starts here,
    /// each later one when the previous exits the kernel.
    fn run_block(
        &self,
        vm: &mut Vm<'p>,
        block_idx: Dim3Val,
        block: Dim3Val,
        grid: Dim3Val,
        mem: &Memory,
    ) -> Result<(), ExecError> {
        let first = schedule::ORIGIN;
        vm.start_thread(
            schedule::device_thread(first, block_idx, block, grid),
            &self.frame,
        );
        vm.block_frame.clone_from(&self.frame);
        let cursor = match schedule::next_coord(first, block) {
            Some(next) => Resume::Block { next },
            None => Resume::Exit,
        };
        vm.run_resumed(cursor, mem, self.kernel.segments[0])?;
        Ok(())
    }
}

/// A work-sharing loop on the VM: each chunk's worker is a VM whose frame
/// starts from the captured enclosing bindings.
struct RegionOnVm<'p> {
    prog: &'p CompiledProgram,
    region: &'p CompiledRegion,
    /// The enclosing bindings, in region-slot order.
    captures: Vec<Value>,
}

impl<'p> RegionLane for RegionOnVm<'p> {
    type Worker = Vm<'p>;

    fn directive(&self) -> &OmpDirective {
        &self.region.directive
    }

    fn reductions(&self) -> usize {
        self.region.reductions.len()
    }

    fn reduction(&self, r: usize) -> (ReductionOp, &Type, Option<Value>) {
        let red = &self.region.reductions[r];
        let original = red
            .init_coerce
            .then(|| self.captures[red.init_slot as usize]);
        (red.op, &red.ty, original)
    }

    fn worker(&self, ctx: EvalContext, step_limit: u64, identities: &[Value]) -> Vm<'p> {
        let mut vm = Vm::for_context(self.prog, ctx, step_limit);
        vm.prepare_frame(self.region.nslots);
        vm.regs[..self.captures.len()].copy_from_slice(&self.captures);
        for (red, ident) in self.region.reductions.iter().zip(identities) {
            let seed = if red.init_coerce {
                ident.coerce_to(&red.ty)
            } else {
                *ident
            };
            vm.set_slot(red.init_slot, seed);
        }
        vm
    }

    fn run(&self, vm: &mut Vm<'p>, i: i64, mem: &Memory) -> Result<ControlFlow, ExecError> {
        vm.set_slot(self.region.loop_var_slot, Value::Int(i));
        vm.run_unit(mem, self.region.body_entry)
    }

    /// The whole chunk in one `run_unit`: the first iteration starts here,
    /// each later one when the previous exits the body normally.
    fn run_chunk(
        &self,
        vm: &mut Vm<'p>,
        lo: i64,
        step: i64,
        first: u64,
        last: u64,
        mem: &Memory,
    ) -> Result<ControlFlow, ExecError> {
        if first >= last {
            return Ok(ControlFlow::Normal);
        }
        let slot = self.region.loop_var_slot;
        vm.set_slot(slot, Value::Int(schedule::iteration_value(lo, step, first)));
        let cursor = Resume::Chunk {
            k: first,
            last,
            lo,
            step,
            slot,
        };
        match vm.run_resumed(cursor, mem, self.region.body_entry)? {
            flow @ ControlFlow::Return(_) => Ok(flow),
            _ => Ok(ControlFlow::Normal),
        }
    }

    fn private(&self, vm: &Vm<'p>, r: usize) -> Value {
        *vm.reg(self.region.reductions[r].read_slot)
    }
}

/// The four operand forms of an operator instruction, as its handler sees
/// them: the steps to charge, the destination and the two operand values.
trait Operands {
    fn pre(&self) -> u32;
    fn dst(&self) -> Reg;
    fn operands(&self, vm: &Vm<'_>) -> (Value, Value);
}

macro_rules! operands {
    ($($form:ident: |$o:ident, $vm:ident| $right:expr;)*) => {
        $(impl Operands for $form {
            fn pre(&self) -> u32 {
                self.pre
            }
            fn dst(&self) -> Reg {
                self.dst
            }
            #[inline(always)]
            fn operands(&self, $vm: &Vm<'_>) -> (Value, Value) {
                let $o = self;
                (*$vm.reg($o.l), $right)
            }
        })*
    };
}

operands! {
    Rr: |o, vm| *vm.reg(o.r);
    RrBr: |o, vm| *vm.reg(o.r);
    Rk: |o, vm| vm.prog.consts[o.k as usize];
    RkBr: |o, vm| vm.prog.consts[o.k as usize];
}

/// The operators with instructions of their own. Each gets a `Vm` method
/// that computes two `Int`s inline like `int_binop` (one `int_op`, wrapping,
/// a zero divisor faults after the charge) and two `Float`s inline like
/// `mixed_binop` (one `flop`, compares yield `Int(0|1)`); every other operand
/// pair (pointers, mixed int/float, `NullPtr`) goes through `apply_binop`.
macro_rules! binary_ops {
    ($($name:ident($op:ident): |$a:ident, $b:ident $(, $line:ident)?| $int:expr, $float:expr;)*) => {
        impl Vm<'_> {
            $(
                /// Charge `pre`, apply the operator, write `dst` and return
                /// whether the result is truthy (for the branch-fused forms).
                /// `pc` locates the instruction for a fault's line.
                #[inline(always)]
                fn $name(&mut self, o: &impl Operands, pc: usize) -> Result<bool, ExecError> {
                    self.charge(o.pre())?;
                    let dst = o.dst();
                    match o.operands(self) {
                        (Value::Int($a), Value::Int($b)) => {
                            self.cost.int_ops += 1;
                            $(let $line = || self.line(pc);)?
                            let v = $int;
                            self.set_reg(dst, Value::Int(v));
                            Ok(v != 0)
                        }
                        (Value::Float($a), Value::Float($b)) => {
                            self.cost.flops += 1;
                            let v = $float;
                            self.set_reg(dst, v);
                            Ok(v.is_truthy())
                        }
                        (l, r) => {
                            self.binop(BinOp::$op, dst, l, r, pc)?;
                            Ok(self.reg(dst).is_truthy())
                        }
                    }
                }
            )*
        }
    };
}

binary_ops! {
    op_add(Add): |a, b| a.wrapping_add(b), Value::Float(a + b);
    op_sub(Sub): |a, b| a.wrapping_sub(b), Value::Float(a - b);
    op_mul(Mul): |a, b| a.wrapping_mul(b), Value::Float(a * b);
    op_div(Div): |a, b, line| match b {
        0 => return Err(ExecError::DivisionByZero { line: line() }),
        _ => a.wrapping_div(b),
    }, Value::Float(a / b);
    op_rem(Rem): |a, b, line| match b {
        0 => return Err(ExecError::DivisionByZero { line: line() }),
        _ => a.wrapping_rem(b),
    }, Value::Float(a % b);
    op_lt(Lt): |a, b| (a < b) as i64, Value::Int((a < b) as i64);
    op_gt(Gt): |a, b| (a > b) as i64, Value::Int((a > b) as i64);
    op_le(Le): |a, b| (a <= b) as i64, Value::Int((a <= b) as i64);
    op_ge(Ge): |a, b| (a >= b) as i64, Value::Int((a >= b) as i64);
    op_eq(Eq): |a, b| (a == b) as i64, Value::Int((a == b) as i64);
    op_ne(Ne): |a, b| (a != b) as i64, Value::Int((a != b) as i64);
    op_and(And): |a, b| (a != 0 && b != 0) as i64, Value::Int((a != 0.0 && b != 0.0) as i64);
}

/// Run a compiled program's host unit end to end, creating a fresh [`Memory`].
/// The compiled twin of [`crate::interp::HostInterpreter::run`].
pub fn run_compiled(
    program: &CompiledProgram,
    config: &RunConfig,
    backend: &dyn ParallelBackend,
    args: &[i64],
) -> Result<ExecutionReport, ExecError> {
    let memory = Memory::new();
    run_compiled_with_memory(program, config, backend, args, &memory)
}

/// Run a compiled program's host unit against a caller-provided [`Memory`]
/// (exposed so callers can inspect buffers after the run).
pub fn run_compiled_with_memory(
    program: &CompiledProgram,
    config: &RunConfig,
    backend: &dyn ParallelBackend,
    args: &[i64],
    memory: &Memory,
) -> Result<ExecutionReport, ExecError> {
    let host = program
        .host
        .as_ref()
        .ok_or_else(|| ExecError::other("program has no 'main' function"))?;
    let mut vm = Vm::for_host(program, backend, config.step_limit);
    vm.prepare_frame(host.nslots);
    for (i, v) in args.iter().take(host.argc).enumerate() {
        vm.set_slot(i as Reg, Value::Int(*v));
    }
    let flow = vm.run_unit(memory, host.entry)?;
    let exit_code = match flow {
        ControlFlow::Return(v) => v.as_int(),
        _ => 0,
    };
    if exit_code != 0 {
        return Err(ExecError::NonZeroExit { code: exit_code });
    }
    let host_seconds = vm.cost.total_ops() as f64 * config.host_op_seconds;
    let simulated_seconds = config.startup_seconds + host_seconds + vm.extra_seconds;
    Ok(ExecutionReport {
        stdout: vm.stdout,
        exit_code,
        simulated_seconds,
        parallel_seconds: vm.extra_seconds,
        cost: vm.cost + vm.parallel_cost,
        memory: memory.stats(),
        steps: vm.steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::eval::{EvalContext, Evaluator};
    use crate::interp::HostInterpreter;
    use lassi_lang::{parse, Dialect};

    struct HostOnly;
    impl ParallelBackend for HostOnly {}

    fn run_both(
        src: &str,
    ) -> (
        Result<ExecutionReport, ExecError>,
        Result<ExecutionReport, ExecError>,
    ) {
        let program = parse(src, Dialect::CudaLite).unwrap();
        let config = RunConfig::default();
        let mut interp = HostInterpreter::new(&program, config.clone());
        let reference = interp.run(&HostOnly, &[]);
        let compiled = super::super::compile(&program, 0);
        let vm = run_compiled(&compiled, &config, &HostOnly, &[]);
        (reference, vm)
    }

    fn assert_identical(src: &str) {
        let (reference, vm) = run_both(src);
        match (reference, vm) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.stdout, b.stdout, "stdout");
                assert_eq!(a.exit_code, b.exit_code, "exit_code");
                assert_eq!(a.steps, b.steps, "steps");
                assert_eq!(a.cost, b.cost, "cost");
                assert_eq!(a.memory, b.memory, "memory");
                assert!(
                    (a.simulated_seconds - b.simulated_seconds).abs() < 1e-15,
                    "simulated_seconds {} vs {}",
                    a.simulated_seconds,
                    b.simulated_seconds
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "errors must match"),
            (a, b) => panic!("engines disagree: interpreter={a:?} vm={b:?}"),
        }
    }

    #[test]
    fn arithmetic_loops_match() {
        assert_identical(
            "int main() { int s = 0; for (int i = 1; i <= 100; i++) { s += i * i; } printf(\"%d\\n\", s); return 0; }",
        );
    }

    #[test]
    fn while_break_continue_match() {
        assert_identical(
            "int main() { int i = 0; int s = 0; while (1) { i++; if (i > 10) { break; } if (i % 2 == 0) { continue; } s += i; } printf(\"%d\\n\", s); return 0; }",
        );
    }

    #[test]
    fn malloc_cast_index_free_match() {
        assert_identical(
            r#"
            int main() {
                int n = 8;
                float* a = (float*)malloc(n * sizeof(float));
                for (int i = 0; i < n; i++) { a[i] = i * 2.0; }
                float s = 0.0;
                for (int i = 0; i < n; i++) { s += a[i]; }
                free(a);
                printf("%f\n", s);
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn user_functions_match() {
        assert_identical(
            "int square(int x) { return x * x; } double fma2(double a, double b) { return a * b + 1.0; } int main() { printf(\"%d %f\\n\", square(7) + square(2), fma2(2.0, 3.0)); return 0; }",
        );
    }

    #[test]
    fn recursion_depth_limit_matches() {
        assert_identical("int rec(int n) { if (n <= 0) { return 0; } return rec(n - 1) + 1; } int main() { return rec(200); }");
    }

    #[test]
    fn ternary_shortcircuit_match() {
        assert_identical(
            "int main() { int a = 0; int b = (a != 0 && 10 / a > 1) ? 1 : 2; int c = (a == 0 || 10 / a > 1) ? 5 : 6; printf(\"%d %d\\n\", b, c); return 0; }",
        );
    }

    #[test]
    fn division_by_zero_matches() {
        assert_identical("int main() { int a = 0; return 10 / a; }");
    }

    #[test]
    fn out_of_bounds_matches() {
        assert_identical(
            "int main() { int a[4]; for (int i = 0; i <= 4; i++) { a[i] = i; } return 0; }",
        );
    }

    #[test]
    fn step_limit_matches() {
        let src = "int main() { while (1) { } return 0; }";
        let program = parse(src, Dialect::CudaLite).unwrap();
        let config = RunConfig {
            step_limit: 10_000,
            ..RunConfig::default()
        };
        let mut interp = HostInterpreter::new(&program, config.clone());
        let a = interp.run(&HostOnly, &[]).unwrap_err();
        let compiled = super::super::compile(&program, 0);
        let b = run_compiled(&compiled, &config, &HostOnly, &[]).unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn math_builtins_match() {
        assert_identical(
            "int main() { double a = sqrt(16.0) + fabs(-2.0) + pow(2.0, 3.0) + fmax(1.0, 5.0) + min(3, 9) + abs(-4); printf(\"%f\\n\", a); return 0; }",
        );
    }

    #[test]
    fn wtime_step_parity() {
        // omp_get_wtime derives its reading from the live step counter, so
        // any step drift between the engines shows up in stdout.
        assert_identical(
            "int main() { double t0 = omp_get_wtime(); double s = 0.0; for (int i = 0; i < 1000; i++) { s += i * 0.5; } double t1 = omp_get_wtime(); printf(\"%.12f %f\\n\", t1 - t0, s); return 0; }",
        );
    }

    #[test]
    fn runtime_args_match() {
        let src = "int main() { long n = arg0; printf(\"%ld\\n\", n * 2); return 0; }";
        let program = parse(src, Dialect::CudaLite).unwrap();
        let config = RunConfig::default();
        let mut interp = HostInterpreter::new(&program, config.clone());
        let a = interp.run(&HostOnly, &[21]).unwrap();
        let compiled = super::super::compile(&program, 1);
        let b = run_compiled(&compiled, &config, &HostOnly, &[21]).unwrap();
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn unbound_identifier_matches() {
        assert_identical("int main() { int x = nope; return 0; }");
    }

    #[test]
    fn unknown_function_matches() {
        assert_identical("int main() { int x = frobnicate(3); return 0; }");
    }

    #[test]
    fn string_literals_match() {
        // `%s` literal arguments, one text used as an argument, twice more
        // and as a format string, and literal-only format strings.
        let src = r#"int main() { printf("%s-%s|%5s|%-4s|\n", "ab", "cd", "ab", "x"); printf("ab"); int n = printf("%s\n", "ab"); printf("done %d\n", n); return 0; }"#;
        assert_identical(src);
        let (reference, _) = run_both(src);
        assert_eq!(
            reference.unwrap().stdout,
            "ab-cd|   ab|x   |\nabab\ndone 3\n"
        );
    }

    #[test]
    fn float_precision_matches() {
        assert_identical(
            "int main() { float a[2]; a[0] = 0.1; double d = a[0]; int ok = d != 0.1; printf(\"%d\\n\", ok); return 0; }",
        );
    }

    #[test]
    fn instructions_stay_within_28_bytes() {
        // The dispatch loop streams `Instr`s; folding steps into `pre`
        // fields must not widen them.
        assert!(
            std::mem::size_of::<Instr>() <= 28,
            "Instr is {} bytes",
            std::mem::size_of::<Instr>()
        );
    }

    #[test]
    fn device_thread_segments_execute() {
        // Drive the VM directly as a device thread over a kernel unit.
        let src = "__global__ void k(int* out) { out[threadIdx.x] = blockIdx.x * blockDim.x + threadIdx.x; } int main() { return 0; }";
        let program = parse(src, Dialect::CudaLite).unwrap();
        let compiled = super::super::compile(&program, 0);
        let kernel = &compiled.kernels[0];
        let mem = Memory::new();
        let out = mem.alloc("out", Type::Int, 8, MemSpace::Device);
        let ctx = EvalContext::DeviceThread {
            thread_idx: Dim3Val::linear(3),
            block_idx: Dim3Val::linear(2),
            block_dim: Dim3Val::linear(4),
            grid_dim: Dim3Val::linear(4),
        };
        let mut vm = Vm::for_context(&compiled, ctx, 100_000);
        vm.prepare_frame(kernel.nslots);
        vm.set_slot(0, Value::Ptr(out));
        for &seg in &kernel.segments {
            vm.run_unit(&mem, seg).unwrap();
        }
        assert_eq!(mem.load(&out, 3, true, 0).unwrap(), Value::Int(11));

        // And the tree-walking evaluator agrees on the step count.
        let mut eval = Evaluator::for_context(&program, ctx, 100_000);
        let mem2 = Memory::new();
        let out2 = mem2.alloc("out", Type::Int, 8, MemSpace::Device);
        let mut env = Env::new();
        env.declare("out", Type::Int.ptr(), Value::Ptr(out2));
        eval.exec_block(&program.function("k").unwrap().body, &mut env, &mem2)
            .unwrap();
        assert_eq!(vm.steps, eval.steps, "device-thread step parity");
        assert_eq!(vm.cost, eval.cost, "device-thread cost parity");
    }
}
