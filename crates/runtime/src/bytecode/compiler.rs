//! AST → bytecode lowering.
//!
//! The compiler performs a single walk over a (checked) [`Program`] and emits
//! one flat instruction stream. Name resolution happens here: every variable
//! becomes a frame-relative slot, with lexical scopes mirroring the
//! interpreter's dynamic scope stack (within a function the two agree — ParC
//! has no gotos, so the set of live bindings at a program point is static).
//!
//! Step parity with the interpreter is the one invariant everything else
//! leans on; see the charging table in [`super::instr`]. Node steps are not
//! instructions, and neither are statements: `Compiler::charge` makes a
//! step pending (a statement's own included), and `Compiler::emit` folds
//! the pending count into the `pre` of the next instruction that has one
//! (passing over free `Const`/`Move`), or into a directly preceding branch
//! head, or flushes it as one [`Instr::Charge`]. A pending count never
//! crosses a bound label: a jump landing on the label would charge steps of
//! the fall-through path. Every emitted instruction records the line of the
//! statement being compiled in the program's line table.
//!
//! Identifiers evaluate to their binding's slot without a copy, literals on
//! the right of a binary operator stay in the constant pool, every hot
//! operator lowers to its own instruction, a comparison or `&&` whose result
//! feeds a `JumpIfFalse` fuses with it, a branch condition's top-level `&&`
//! branches on each operand without materializing its value, and a store to
//! a scalar binding lowers to the store for its declared type.

use std::collections::{HashMap, HashSet};

use lassi_lang::{
    printer, AssignOp, BinOp, Block, Expr, FnQualifier, ForStmt, Function, KernelLaunch, OmpClause,
    OmpDirectiveKind, PragmaStmt, Program, Stmt, StmtKind, Type, UnOp,
};

use super::instr::{axis_of, FlowKind, Instr, MathFn, Reg, Rk, Rr, SpecialIdent};
use super::lockstep;
use super::{
    CompiledFunction, CompiledKernel, CompiledProgram, CompiledReduction, CompiledRegion,
    CompiledShared, HostUnit, SharedLen,
};
use crate::eval::{barrier_segments, shared_decls};
use crate::value::Value;

/// Compile a checked program into register bytecode.
///
/// `argc` is the number of `arg{i}` runtime-argument bindings the host entry
/// is compiled against (the interpreter declares one `long` per element of
/// the argument slice passed to `HostInterpreter::run`).
///
/// The input is expected to have passed semantic checking; malformed builtin
/// calls (wrong arity) may panic here, exactly as they would at run time in
/// the interpreter.
pub fn compile(program: &Program, argc: usize) -> CompiledProgram {
    let mut cc = Compiler::new(program);
    cc.register_functions();
    cc.compile_units(argc);
    CompiledProgram {
        code: cc.code,
        lines: cc.lines,
        consts: cc.consts,
        names: cc.names,
        types: cc.types,
        funcs: cc.funcs,
        kernels: cc.kernels,
        regions: cc.regions,
        host: cc.host,
    }
}

/// Hashable key for constant-pool deduplication.
#[derive(Hash, PartialEq, Eq)]
enum ConstKey {
    Int(i64),
    Float(u64),
    Str(u32),
    Dim3(u32, u32, u32),
    Void,
    NullPtr,
}

impl ConstKey {
    fn of(v: &Value) -> ConstKey {
        match v {
            Value::Int(i) => ConstKey::Int(*i),
            Value::Float(f) => ConstKey::Float(f.to_bits()),
            Value::Str(id) => ConstKey::Str(*id),
            Value::Dim3(d) => ConstKey::Dim3(d.x, d.y, d.z),
            Value::Void => ConstKey::Void,
            _ => ConstKey::NullPtr,
        }
    }
}

/// One lexical scope of a function context.
struct Scope {
    /// Bindings in declaration order (resolution scans in reverse, so a
    /// re-declaration shadows an earlier one exactly like `Env::declare`
    /// replacing the binding).
    vars: Vec<(String, Reg, Type)>,
    /// Slot watermark to restore on scope exit.
    base: Reg,
}

/// Break/continue patch lists of the innermost loop being compiled.
struct LoopCtx {
    break_jumps: Vec<usize>,
    continue_jumps: Vec<usize>,
    /// `target data` nesting depth at loop entry; break/continue unwind the
    /// difference.
    map_depth: u32,
}

/// Per-unit compilation state: scopes, the slot bump allocator and loop
/// patch lists.
struct FnCtx {
    scopes: Vec<Scope>,
    next_slot: Reg,
    high: Reg,
    loops: Vec<LoopCtx>,
    map_depth: u32,
}

impl FnCtx {
    fn new() -> FnCtx {
        FnCtx {
            scopes: Vec::new(),
            next_slot: 0,
            high: 0,
            loops: Vec::new(),
            map_depth: 0,
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(Scope {
            vars: Vec::new(),
            base: self.next_slot,
        });
    }

    fn pop_scope(&mut self) {
        let s = self.scopes.pop().expect("scope underflow");
        self.next_slot = s.base;
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_slot;
        self.next_slot += 1;
        self.high = self.high.max(self.next_slot);
        r
    }

    fn alloc_n(&mut self, n: u32) -> Reg {
        let r = self.next_slot;
        self.next_slot += n;
        self.high = self.high.max(self.next_slot);
        r
    }

    fn bind(&mut self, name: &str, slot: Reg, ty: Type) {
        self.scopes
            .last_mut()
            .expect("bind outside any scope")
            .vars
            .push((name.to_string(), slot, ty));
    }

    fn resolve(&self, name: &str) -> Option<(Reg, Type)> {
        for scope in self.scopes.iter().rev() {
            for (n, r, t) in scope.vars.iter().rev() {
                if n == name {
                    return Some((*r, t.clone()));
                }
            }
        }
        None
    }
}

struct Compiler<'p> {
    program: &'p Program,
    code: Vec<Instr>,
    /// The source line of each instruction in `code`.
    lines: Vec<u32>,
    /// The line of the innermost statement being compiled that has one (0
    /// outside every statement).
    line: u32,
    consts: Vec<Value>,
    const_ids: HashMap<ConstKey, u32>,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    types: Vec<Type>,
    funcs: Vec<CompiledFunction>,
    /// Function-table id per *first-match* function name (the interpreter's
    /// `Program::function` resolves first by declaration order).
    func_ids: HashMap<String, u32>,
    kernels: Vec<CompiledKernel>,
    kernel_ids: HashMap<String, u32>,
    regions: Vec<CompiledRegion>,
    host: Option<HostUnit>,
    /// `code.len()` at the most recent bound label; charges never merge
    /// across it.
    last_label: usize,
    /// Node steps not yet attached to an instruction.
    pending: u32,
    /// Variables a `cudaMalloc(&x, ...)` in the current unit assigns: reads
    /// of them are copied, since the call may overwrite the slot before the
    /// read's consumer runs.
    snapshot: HashSet<String>,
}

impl<'p> Compiler<'p> {
    fn new(program: &'p Program) -> Compiler<'p> {
        Compiler {
            program,
            code: Vec::new(),
            lines: Vec::new(),
            line: 0,
            consts: Vec::new(),
            const_ids: HashMap::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            types: Vec::new(),
            funcs: Vec::new(),
            func_ids: HashMap::new(),
            kernels: Vec::new(),
            kernel_ids: HashMap::new(),
            regions: Vec::new(),
            host: None,
            last_label: 0,
            pending: 0,
            snapshot: HashSet::new(),
        }
    }

    // ------------------------------------------------------------ pools

    fn const_id(&mut self, v: Value) -> u32 {
        let key = ConstKey::of(&v);
        if let Some(&id) = self.const_ids.get(&key) {
            return id;
        }
        let id = self.consts.len() as u32;
        self.consts.push(v);
        self.const_ids.insert(key, id);
        id
    }

    fn name_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.name_ids.insert(s.to_string(), id);
        id
    }

    fn type_id(&mut self, t: &Type) -> u32 {
        if let Some(pos) = self.types.iter().position(|x| x == t) {
            return pos as u32;
        }
        self.types.push(t.clone());
        (self.types.len() - 1) as u32
    }

    // ------------------------------------------------------- code emission

    /// Append an instruction. Pending steps fold into its `pre`, pass over
    /// a free `Const`/`Move`, or are flushed as a `Charge` before it.
    fn emit(&mut self, mut i: Instr) -> usize {
        if !matches!(i, Instr::Const { .. } | Instr::Move { .. }) {
            match i.pre_mut() {
                Some(pre) => *pre += std::mem::take(&mut self.pending),
                None => self.flush(),
            }
        }
        self.push(i)
    }

    /// Append an instruction at the current line.
    fn push(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.lines.push(self.line);
        self.code.len() - 1
    }

    /// Emit the pending steps as one `Charge`.
    fn flush(&mut self) {
        let n = std::mem::take(&mut self.pending);
        if n > 0 {
            self.push(Instr::Charge { n });
        }
    }

    /// Mark the current pc as a jump target: pending steps are charged
    /// before it, and later steps never fold back across it.
    fn bind_label(&mut self) -> u32 {
        self.flush();
        self.last_label = self.code.len();
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Instr::Jump { target }
            | Instr::JumpIfFalse { target, .. }
            | Instr::JumpIfTrue { target, .. } => *target = to,
            Instr::MapSecBegin { skip, .. } => *skip = to,
            other => match other.branch_target_mut() {
                Some(target) => *target = to,
                None => unreachable!("patching non-jump instruction {other:?}"),
            },
        }
    }

    /// Charge one node step: into a directly preceding branch head
    /// (nothing fallible runs in between), else pending.
    fn charge(&mut self) {
        if self.pending == 0 && self.code.len() > self.last_label {
            if let Some(Instr::Branch { pre }) = self.code.last_mut() {
                *pre += 1;
                return;
            }
        }
        self.pending += 1;
    }

    /// Emit a `JumpIfFalse` on `cond` (patched later), fused into the
    /// directly preceding comparison or `&&` when it produced `cond`.
    fn jump_if_false(&mut self, cond: Reg) -> usize {
        if self.pending == 0 && self.code.len() > self.last_label {
            let last = self.code.len() - 1;
            if let Some(fused) = self.code[last].fuse_branch(cond) {
                self.code[last] = fused;
                return last;
            }
        }
        self.emit(Instr::JumpIfFalse { cond, target: 0 })
    }

    /// Compile a branch condition; returns the jumps to patch to its false
    /// target. A top-level `&&` needs no value here: its left operand
    /// branches straight to the false target, and the `&&` itself (which
    /// still charges its operator cost) fuses with the final branch.
    fn branch_if_false(&mut self, cond: &Expr, ctx: &mut FnCtx) -> Vec<usize> {
        if let Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } = cond
        {
            self.charge();
            let l = self.expr(lhs, ctx);
            let short = self.jump_if_false(l);
            let r = self.expr(rhs, ctx);
            let dst = ctx.alloc();
            self.emit(Instr::And(Rr { dst, l, r, pre: 0 }));
            return vec![short, self.jump_if_false(dst)];
        }
        let c = self.expr(cond, ctx);
        vec![self.jump_if_false(c)]
    }

    fn patch_all(&mut self, jumps: Vec<usize>, to: u32) {
        for j in jumps {
            self.patch(j, to);
        }
    }

    // -------------------------------------------------------- expressions

    /// Compile an expression; returns the register holding its value, which
    /// for a variable read is the binding's own slot.
    fn expr(&mut self, e: &Expr, ctx: &mut FnCtx) -> Reg {
        if let Some(v) = self.literal(e, ctx) {
            self.charge();
            let id = self.const_id(v);
            let dst = ctx.alloc();
            self.emit(Instr::Const { dst, id });
            return dst;
        }
        match e {
            Expr::Ident(name) => self.ident(name, ctx),
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, ctx),
            Expr::Unary { op, operand } => {
                self.charge();
                if *op == UnOp::AddrOf {
                    // The interpreter fails without evaluating the operand.
                    let msg = self.name_id(
                        "the address-of operator is only supported as the first argument of cudaMalloc",
                    );
                    self.emit(Instr::ErrLine { msg });
                    return ctx.alloc();
                }
                let src = self.expr(operand, ctx);
                let dst = ctx.alloc();
                self.emit(match op {
                    UnOp::Neg => Instr::Neg { dst, src, pre: 0 },
                    UnOp::Not => Instr::Not { dst, src, pre: 0 },
                    _ => Instr::DerefLoad {
                        dst,
                        ptr: src,
                        pre: 0,
                    },
                });
                dst
            }
            Expr::Call { callee, args } => self.call(callee, args, ctx),
            Expr::Index { base, index } => {
                self.charge();
                let b = self.expr(base, ctx);
                let idx = self.expr(index, ctx);
                let dst = ctx.alloc();
                self.emit(Instr::IndexLoad {
                    dst,
                    base: b,
                    idx,
                    pre: 0,
                });
                dst
            }
            Expr::Member { base, field } => {
                self.charge();
                let axis = axis_of(field);
                if let Some(which) = self.special(base, ctx) {
                    // The builtin identifier's step and the member's, in one.
                    self.charge();
                    let dst = ctx.alloc();
                    self.emit(Instr::LoadDim {
                        dst,
                        which,
                        axis: Some(axis),
                        pre: 0,
                    });
                    return dst;
                }
                let src = self.expr(base, ctx);
                let field = self.name_id(field);
                let dst = ctx.alloc();
                self.emit(Instr::MemberGet {
                    dst,
                    src,
                    axis,
                    field,
                    pre: 0,
                });
                dst
            }
            Expr::Cast { ty, expr } => {
                self.charge();
                let src = self.expr(expr, ctx);
                let dst = ctx.alloc();
                match ty {
                    Type::Ptr(elem) => {
                        let elem = self.type_id(elem);
                        self.emit(Instr::CastPtr {
                            dst,
                            src,
                            elem,
                            pre: 0,
                        });
                    }
                    other => {
                        let ty = self.type_id(other);
                        self.emit(Instr::CastScalar {
                            dst,
                            src,
                            ty,
                            pre: 0,
                        });
                    }
                }
                dst
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let dst = ctx.alloc();
                self.emit(Instr::Branch { pre: 1 });
                let jf = self.branch_if_false(cond, ctx);
                let t = self.expr(then_expr, ctx);
                self.emit(Instr::Move { dst, src: t });
                let jend = self.emit(Instr::Jump { target: 0 });
                let else_l = self.bind_label();
                self.patch_all(jf, else_l);
                let e = self.expr(else_expr, ctx);
                self.emit(Instr::Move { dst, src: e });
                let end = self.bind_label();
                self.patch(jend, end);
                dst
            }
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::StrLit(_) | Expr::Sizeof(_) => {
                unreachable!("literals are handled above")
            }
        }
    }

    /// The value of a literal node: number, string and `sizeof` literals and
    /// the `cudaMemcpy` direction constants (unless a binding shadows them).
    fn literal(&mut self, e: &Expr, ctx: &FnCtx) -> Option<Value> {
        Some(match e {
            Expr::IntLit(v) => Value::Int(*v),
            Expr::FloatLit(v) => Value::Float(*v),
            Expr::StrLit(s) => Value::Str(self.name_id(s)),
            Expr::Sizeof(ty) => Value::Int(ty.size_bytes() as i64),
            Expr::Ident(name) => {
                let v = match name.as_str() {
                    "cudaMemcpyHostToDevice" => 1,
                    "cudaMemcpyDeviceToHost" => 2,
                    "cudaMemcpyDeviceToDevice" => 3,
                    _ => return None,
                };
                if ctx.resolve(name).is_some() {
                    return None;
                }
                Value::Int(v)
            }
            _ => return None,
        })
    }

    /// The launch-geometry builtin `e` names, unless a binding shadows it.
    fn special(&self, e: &Expr, ctx: &FnCtx) -> Option<SpecialIdent> {
        match e {
            Expr::Ident(name) => {
                SpecialIdent::from_name(name).filter(|_| ctx.resolve(name).is_none())
            }
            _ => None,
        }
    }

    fn ident(&mut self, name: &str, ctx: &mut FnCtx) -> Reg {
        self.charge();
        if let Some((slot, _)) = ctx.resolve(name) {
            if !self.snapshot.contains(name) {
                return slot;
            }
            let dst = ctx.alloc();
            self.emit(Instr::Move { dst, src: slot });
            return dst;
        }
        let dst = ctx.alloc();
        match SpecialIdent::from_name(name) {
            Some(which) => {
                self.emit(Instr::LoadDim {
                    dst,
                    which,
                    axis: None,
                    pre: 0,
                });
            }
            None => {
                let msg = self.name_id(&format!("use of unbound identifier '{name}'"));
                self.emit(Instr::ErrLine { msg });
            }
        }
        dst
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &mut FnCtx) -> Reg {
        self.charge();
        let l = self.expr(lhs, ctx);
        if op == BinOp::And || op == BinOp::Or {
            let dst = ctx.alloc();
            let jshort = if op == BinOp::And {
                self.jump_if_false(l)
            } else {
                self.emit(Instr::JumpIfTrue { cond: l, target: 0 })
            };
            let r = self.expr(rhs, ctx);
            self.emit(Instr::binary(op, Rr { dst, l, r, pre: 0 }));
            let jend = self.emit(Instr::Jump { target: 0 });
            let short_l = self.bind_label();
            self.patch(jshort, short_l);
            let id = self.const_id(Value::Int((op == BinOp::Or) as i64));
            self.emit(Instr::Const { dst, id });
            let end = self.bind_label();
            self.patch(jend, end);
            return dst;
        }
        if let Some(v) = self.literal(rhs, ctx) {
            self.charge();
            let k = self.const_id(v);
            let dst = ctx.alloc();
            self.emit(Instr::binary_k(op, Rk { dst, l, k, pre: 0 }));
            return dst;
        }
        let r = self.expr(rhs, ctx);
        let dst = ctx.alloc();
        self.emit(Instr::binary(op, Rr { dst, l, r, pre: 0 }));
        dst
    }

    /// Compile argument expressions and return a contiguous register block.
    fn gather<'e>(&mut self, args: impl Iterator<Item = &'e Expr>, ctx: &mut FnCtx) -> (Reg, u32) {
        let regs: Vec<Reg> = args.map(|a| self.expr(a, ctx)).collect();
        if regs.is_empty() {
            return (0, 0);
        }
        let contiguous = regs.windows(2).all(|w| w[1] == w[0] + 1);
        if contiguous {
            return (regs[0], regs.len() as u32);
        }
        let base = ctx.alloc_n(regs.len() as u32);
        for (i, &src) in regs.iter().enumerate() {
            self.emit(Instr::Move {
                dst: base + i as u32,
                src,
            });
        }
        (base, regs.len() as u32)
    }

    fn call(&mut self, callee: &str, args: &[Expr], ctx: &mut FnCtx) -> Reg {
        // User-defined functions first, matching `Evaluator::eval_call`.
        if let Some(func) = self.program.function(callee) {
            if func.qualifier == FnQualifier::Kernel {
                self.call_pre();
                let msg = self.name_id(&format!(
                    "kernel '{}' called directly without a launch configuration",
                    func.name
                ));
                self.emit(Instr::ErrLine { msg });
                return ctx.alloc();
            }
            self.charge();
            self.emit(Instr::UserCallPre { pre: 0 });
            let (args_base, argc) = self.gather(args.iter(), ctx);
            let func = self.func_ids[callee];
            let dst = ctx.alloc();
            self.emit(Instr::CallUser {
                func,
                args_base,
                argc,
                dst,
                pre: 0,
            });
            return dst;
        }

        match callee {
            "printf" => {
                self.call_pre();
                let (args_base, argc) = self.gather(args.iter(), ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Printf {
                    args_base,
                    argc,
                    dst,
                    pre: 0,
                });
                dst
            }
            "malloc" => {
                self.call_pre();
                let bytes = self.expr(&args[0], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Malloc { bytes, dst });
                dst
            }
            "free" | "cudaFree" => {
                self.call_pre();
                let src = self.expr(&args[0], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::FreeVal { src, dst });
                dst
            }
            "cudaMalloc" => self.cuda_malloc(args, ctx),
            "cudaMemcpy" => {
                self.call_pre();
                let dptr = self.expr(&args[0], ctx);
                let sptr = self.expr(&args[1], ctx);
                let bytes = self.expr(&args[2], ctx);
                // The 4th (direction) argument is never evaluated.
                let dst = ctx.alloc();
                self.emit(Instr::Memcpy {
                    dptr,
                    sptr,
                    bytes,
                    dst,
                });
                dst
            }
            "cudaMemset" | "memset" => {
                self.call_pre();
                let ptr = self.expr(&args[0], ctx);
                let fill = self.expr(&args[1], ctx);
                let bytes = self.expr(&args[2], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Memset {
                    ptr,
                    fill,
                    bytes,
                    dst,
                });
                dst
            }
            "cudaDeviceSynchronize" => {
                self.call_pre();
                let id = self.const_id(Value::Int(0));
                let dst = ctx.alloc();
                self.emit(Instr::Const { dst, id });
                dst
            }
            "memcpy" => {
                self.call_pre();
                let dptr = self.expr(&args[0], ctx);
                let sptr = self.expr(&args[1], ctx);
                let bytes = self.expr(&args[2], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::HostMemcpy {
                    dptr,
                    sptr,
                    bytes,
                    dst,
                });
                dst
            }
            "exit" => {
                self.call_pre();
                let code = self.expr(&args[0], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Exit { code, dst });
                dst
            }
            "__syncthreads" => {
                self.charge();
                self.emit(Instr::SyncCallErr);
                ctx.alloc()
            }
            "atomicAdd" => {
                self.call_pre();
                let target = self.expr(&args[0], ctx);
                let delta = self.expr(&args[1], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::AtomicAdd {
                    target,
                    delta,
                    dst,
                    pre: 0,
                });
                dst
            }
            "atomicMax" | "atomicMin" => {
                self.call_pre();
                let target = self.expr(&args[0], ctx);
                let delta = self.expr(&args[1], ctx);
                let dst = ctx.alloc();
                self.emit(Instr::AtomicMinMax {
                    target,
                    delta,
                    dst,
                    is_max: callee == "atomicMax",
                    pre: 0,
                });
                dst
            }
            "omp_get_wtime" => {
                self.call_pre();
                let dst = ctx.alloc();
                self.emit(Instr::WTime { dst });
                dst
            }
            "omp_get_thread_num" | "omp_get_num_threads" | "omp_get_max_threads" => {
                self.call_pre();
                let which = match callee {
                    "omp_get_thread_num" => 0,
                    "omp_get_num_threads" => 1,
                    _ => 2,
                };
                let dst = ctx.alloc();
                self.emit(Instr::OmpInt { dst, which });
                dst
            }
            "omp_set_num_threads" => {
                self.call_pre();
                self.expr(&args[0], ctx);
                let id = self.const_id(Value::Int(0));
                let dst = ctx.alloc();
                self.emit(Instr::Const { dst, id });
                dst
            }
            "dim3" => {
                self.call_pre();
                let (args_base, argc) = self.gather(args.iter().take(3), ctx);
                let dst = ctx.alloc();
                self.emit(Instr::Dim3Ctor {
                    args_base,
                    argc,
                    dst,
                });
                dst
            }
            other => {
                self.call_pre();
                let (args_base, argc) = self.gather(args.iter(), ctx);
                if let Some(f) = MathFn::from_name(other) {
                    let dst = ctx.alloc();
                    self.emit(Instr::MathOp {
                        f,
                        args_base,
                        argc,
                        dst,
                        pre: 0,
                    });
                    dst
                } else {
                    let msg = self.name_id(&format!("call to unknown function '{other}'"));
                    self.emit(Instr::ErrUnknownCall { msg });
                    ctx.alloc()
                }
            }
        }
    }

    /// A builtin call node: its step, then the `calls` cost.
    fn call_pre(&mut self) {
        self.charge();
        self.emit(Instr::CallPre { pre: 0 });
    }

    fn cuda_malloc(&mut self, args: &[Expr], ctx: &mut FnCtx) -> Reg {
        self.call_pre();
        let bytes = self.expr(&args[1], ctx);
        if let Expr::Unary {
            op: UnOp::AddrOf,
            operand,
        } = &args[0]
        {
            if let Expr::Ident(target) = operand.as_ref() {
                let name = self.name_id(target);
                return match ctx.resolve(target) {
                    Some((slot, ty)) => {
                        let elem = ty.pointee().cloned().unwrap_or(Type::Double);
                        let elem = self.type_id(&elem);
                        let slot_ty = self.type_id(&ty);
                        let dst = ctx.alloc();
                        self.emit(Instr::CudaMalloc {
                            bytes,
                            slot,
                            elem,
                            slot_ty,
                            name,
                            dst,
                        });
                        dst
                    }
                    None => {
                        self.emit(Instr::CudaMallocUnbound { bytes, name });
                        ctx.alloc()
                    }
                };
            }
        }
        let msg = self.name_id("cudaMalloc expects '&pointer_variable' as its first argument");
        self.emit(Instr::ErrLine { msg });
        ctx.alloc()
    }

    // --------------------------------------------------------- statements

    fn block(&mut self, b: &Block, ctx: &mut FnCtx) {
        ctx.push_scope();
        for s in &b.stmts {
            self.stmt(s, ctx);
        }
        ctx.pop_scope();
    }

    fn stmt(&mut self, s: &Stmt, ctx: &mut FnCtx) {
        let mark = ctx.next_slot;
        let outer = self.line;
        if s.line > 0 {
            self.line = s.line;
        }
        let kept = self.stmt_inner(s, ctx);
        self.line = outer;
        ctx.next_slot = mark + kept;
    }

    /// Compile one statement; returns how many slots allocated at the
    /// statement's watermark must stay live (1 for declarations).
    fn stmt_inner(&mut self, s: &Stmt, ctx: &mut FnCtx) -> u32 {
        // The statement's own step.
        self.charge();
        match &s.kind {
            StmtKind::VarDecl(d) => {
                // A `__shared__` re-declaration of a name the kernel prologue
                // (or any enclosing binding) already provides is a no-op,
                // like the interpreter's `env.contains` check.
                if d.is_shared && ctx.resolve(&d.name).is_some() {
                    return 0;
                }
                let slot = ctx.alloc();
                if let Some(len_expr) = &d.array_len {
                    let len = self.expr(len_expr, ctx);
                    let elem = self.type_id(&d.ty);
                    let name = self.name_id(&d.name);
                    self.emit(Instr::DeclArray {
                        slot,
                        len,
                        elem,
                        name,
                    });
                    ctx.bind(&d.name, slot, d.ty.clone().ptr());
                } else if let Some(init) = &d.init {
                    let src = self.expr(init, ctx);
                    if matches!(d.ty, Type::Ptr(_)) {
                        let ty = self.type_id(&d.ty);
                        let name = self.name_id(&d.name);
                        self.emit(Instr::DeclPtrInit {
                            slot,
                            src,
                            ty,
                            name,
                        });
                    } else {
                        let store = self.store_var(slot, src, &d.ty);
                        self.emit(store);
                    }
                    ctx.bind(&d.name, slot, d.ty.clone());
                } else {
                    let id = self.const_id(Value::zero_of(&d.ty));
                    self.emit(Instr::Const { dst: slot, id });
                    ctx.bind(&d.name, slot, d.ty.clone());
                }
                1
            }
            StmtKind::Assign { target, op, value } => {
                self.assign(target, *op, value, ctx);
                0
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.emit(Instr::Branch { pre: 0 });
                let jf = self.branch_if_false(cond, ctx);
                self.block(then_branch, ctx);
                match else_branch {
                    Some(eb) => {
                        let jend = self.emit(Instr::Jump { target: 0 });
                        let else_l = self.bind_label();
                        self.patch_all(jf, else_l);
                        self.block(eb, ctx);
                        let end = self.bind_label();
                        self.patch(jend, end);
                    }
                    None => {
                        let end = self.bind_label();
                        self.patch_all(jf, end);
                    }
                }
                0
            }
            StmtKind::While { cond, body } => {
                let head = self.bind_label();
                self.emit(Instr::Branch { pre: 1 });
                let jexit = self.branch_if_false(cond, ctx);
                ctx.loops.push(LoopCtx {
                    break_jumps: Vec::new(),
                    continue_jumps: Vec::new(),
                    map_depth: ctx.map_depth,
                });
                self.block(body, ctx);
                self.emit(Instr::Jump { target: head });
                let lp = ctx.loops.pop().expect("loop ctx");
                let end = self.bind_label();
                self.patch_all(jexit, end);
                self.patch_all(lp.break_jumps, end);
                self.patch_all(lp.continue_jumps, head);
                0
            }
            StmtKind::For(f) => {
                ctx.push_scope();
                if let Some(init) = &f.init {
                    self.stmt(init, ctx);
                }
                let head = self.bind_label();
                self.emit(Instr::Branch { pre: 1 });
                let jexit = match &f.cond {
                    Some(cond) => self.branch_if_false(cond, ctx),
                    None => Vec::new(),
                };
                ctx.loops.push(LoopCtx {
                    break_jumps: Vec::new(),
                    continue_jumps: Vec::new(),
                    map_depth: ctx.map_depth,
                });
                self.block(&f.body, ctx);
                let lp = ctx.loops.pop().expect("loop ctx");
                let step_l = self.bind_label();
                self.patch_all(lp.continue_jumps, step_l);
                if let Some(step) = &f.step {
                    self.stmt(step, ctx);
                }
                self.emit(Instr::Jump { target: head });
                let end = self.bind_label();
                self.patch_all(jexit, end);
                self.patch_all(lp.break_jumps, end);
                ctx.pop_scope();
                0
            }
            StmtKind::Return(value) => {
                let src = value.as_ref().map(|e| self.expr(e, ctx));
                if ctx.map_depth > 0 {
                    self.emit(Instr::UnmapFrames { n: ctx.map_depth });
                }
                self.emit(Instr::Ret { pre: 0, src });
                0
            }
            StmtKind::Break => {
                self.loop_exit(ctx, FlowKind::Break);
                0
            }
            StmtKind::Continue => {
                self.loop_exit(ctx, FlowKind::Continue);
                0
            }
            StmtKind::Expr(e) => {
                self.expr(e, ctx);
                0
            }
            StmtKind::Block(b) => {
                self.block(b, ctx);
                0
            }
            StmtKind::KernelLaunch(kl) => {
                self.launch(kl, ctx);
                0
            }
            StmtKind::Pragma(p) => {
                self.pragma(p, ctx);
                0
            }
        }
    }

    fn loop_exit(&mut self, ctx: &mut FnCtx, kind: FlowKind) {
        match ctx.loops.last() {
            Some(lp) => {
                let unwind = ctx.map_depth - lp.map_depth;
                if unwind > 0 {
                    self.emit(Instr::UnmapFrames { n: unwind });
                }
                let j = self.emit(Instr::Jump { target: 0 });
                let lp = ctx.loops.last_mut().expect("loop ctx");
                if kind == FlowKind::Break {
                    lp.break_jumps.push(j);
                } else {
                    lp.continue_jumps.push(j);
                }
            }
            None => {
                // No enclosing loop in this unit: the flow propagates out of
                // it (a region body's break, a kernel segment's stray
                // continue, ...), unwinding any open map frames on the way.
                if ctx.map_depth > 0 {
                    self.emit(Instr::UnmapFrames { n: ctx.map_depth });
                }
                self.emit(Instr::EndUnit { flow: kind });
            }
        }
    }

    /// The plain store of `src` to a binding of type `ty`: the typed store
    /// for a scalar type, else the generic coercing `StoreVar`.
    fn store_var(&mut self, slot: Reg, src: Reg, ty: &Type) -> Instr {
        match ty {
            Type::Int | Type::Long | Type::Bool => Instr::StoreInt { slot, src, pre: 0 },
            Type::Float => Instr::StoreF32 { slot, src, pre: 0 },
            Type::Double => Instr::StoreF64 { slot, src, pre: 0 },
            Type::Ptr(_) | Type::Dim3 | Type::Void => Instr::StoreVar {
                slot,
                src,
                ty: self.type_id(ty),
                pre: 0,
            },
        }
    }

    fn assign(&mut self, target: &Expr, op: AssignOp, value: &Expr, ctx: &mut FnCtx) {
        // The interpreter evaluates the right-hand side before the lvalue.
        let src = self.expr(value, ctx);
        match target {
            Expr::Ident(name) => match ctx.resolve(name) {
                Some((slot, ty)) => {
                    let store = match op.binop() {
                        Some(op) => Instr::RmwVar {
                            op,
                            slot,
                            src,
                            ty: self.type_id(&ty),
                            pre: 0,
                        },
                        None => self.store_var(slot, src, &ty),
                    };
                    self.emit(store);
                }
                None => {
                    // Compound assignments fail on the read, plain ones on
                    // the write; both messages are line-less.
                    let msg = if op.binop().is_some() {
                        format!("read of unbound variable '{name}'")
                    } else {
                        format!("assignment to unbound variable '{name}'")
                    };
                    let msg = self.name_id(&msg);
                    self.emit(Instr::ErrPlain { msg });
                }
            },
            Expr::Index { base, index } => {
                let b = self.expr(base, ctx);
                let idx = self.expr(index, ctx);
                self.emit(match op.binop() {
                    Some(op) => Instr::RmwIndex {
                        op,
                        base: b,
                        idx,
                        src,
                        pre: 0,
                    },
                    None => Instr::StoreIndex {
                        base: b,
                        idx,
                        src,
                        pre: 0,
                    },
                });
            }
            Expr::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let ptr = self.expr(operand, ctx);
                self.emit(match op.binop() {
                    Some(op) => Instr::RmwDeref {
                        op,
                        ptr,
                        src,
                        pre: 0,
                    },
                    None => Instr::StoreDeref { ptr, src, pre: 0 },
                });
            }
            other => {
                let msg = self.name_id(&format!(
                    "expression is not assignable: {}",
                    printer::print_expr(other)
                ));
                self.emit(Instr::ErrLine { msg });
            }
        }
    }

    fn launch(&mut self, kl: &KernelLaunch, ctx: &mut FnCtx) {
        let defined = self.program.function(&kl.kernel).is_some();
        let name = self.name_id(&kl.kernel);
        self.emit(Instr::LaunchPre { name, defined });
        if !defined {
            // LaunchPre unconditionally fails; nothing after it runs.
            return;
        }
        // Converted into fresh registers: the geometry expression may be a
        // variable's own slot.
        let src = self.expr(&kl.grid, ctx);
        let grid = ctx.alloc();
        self.emit(Instr::GeomConvert { dst: grid, src });
        let src = self.expr(&kl.block, ctx);
        let block = ctx.alloc();
        self.emit(Instr::GeomConvert { dst: block, src });
        self.emit(Instr::LaunchCheck { grid, block, name });
        let (args_base, argc) = self.gather(kl.args.iter(), ctx);
        let kernel = self.kernel_ids[&kl.kernel];
        self.emit(Instr::LaunchKernel {
            kernel,
            grid,
            block,
            args_base,
            argc,
        });
    }

    // ------------------------------------------------------------ pragmas

    fn pragma(&mut self, p: &PragmaStmt, ctx: &mut FnCtx) {
        match p.directive.kind {
            OmpDirectiveKind::Barrier => {}
            OmpDirectiveKind::Atomic => {
                if let Some(body) = &p.body {
                    if let StmtKind::Assign {
                        target: Expr::Index { base, index },
                        op,
                        value,
                    } = &body.kind
                    {
                        let src = self.expr(value, ctx);
                        let b = self.expr(base, ctx);
                        let idx = self.expr(index, ctx);
                        self.emit(Instr::AtomicRmw {
                            base: b,
                            idx,
                            src,
                            negate: *op == AssignOp::SubAssign,
                            pre: 0,
                        });
                        return;
                    }
                    self.stmt(body, ctx);
                }
            }
            OmpDirectiveKind::TargetData => {
                self.emit(Instr::MapFramePush);
                ctx.map_depth += 1;
                self.map_clauses(&p.directive.clauses, ctx);
                if let Some(body) = &p.body {
                    self.stmt(body, ctx);
                }
                ctx.map_depth -= 1;
                self.emit(Instr::MapFramePop);
            }
            OmpDirectiveKind::ParallelFor | OmpDirectiveKind::TargetTeamsDistributeParallelFor => {
                self.worksharing(p, ctx);
            }
        }
    }

    fn map_clauses(&mut self, clauses: &[OmpClause], ctx: &mut FnCtx) {
        for clause in clauses {
            if let OmpClause::Map { sections, .. } = clause {
                for s in sections {
                    let Some((slot, _)) = ctx.resolve(&s.var) else {
                        // Unbound map variables are silently skipped.
                        continue;
                    };
                    match (&s.lower, &s.len) {
                        (Some(_), Some(len_expr)) => {
                            let tmp = ctx.alloc();
                            let begin = self.emit(Instr::MapSecBegin { slot, tmp, skip: 0 });
                            let len = self.expr(len_expr, ctx);
                            self.emit(Instr::MapSecCharge { tmp, len });
                            let skip = self.bind_label();
                            self.patch(begin, skip);
                        }
                        _ => {
                            self.emit(Instr::MapSecWhole { slot });
                        }
                    }
                }
            }
        }
    }

    fn worksharing(&mut self, p: &PragmaStmt, ctx: &mut FnCtx) {
        self.emit(Instr::OmpPre);
        let Some(body) = p.body.as_deref() else {
            let msg = self.name_id("work-sharing pragma without an associated loop");
            self.emit(Instr::ErrPlain { msg });
            return;
        };
        let StmtKind::For(for_stmt) = &body.kind else {
            let msg = self.name_id(&format!(
                "'#pragma omp {}' must be followed by a for loop",
                p.directive.kind.spelling()
            ));
            self.emit(Instr::ErrLine { msg });
            return;
        };
        let Some((loop_var, lo_e, hi_e, step_e)) = for_stmt.canonical() else {
            let msg = self.name_id(&format!(
                "loop after '#pragma omp {}' is not in canonical form",
                p.directive.kind.spelling()
            ));
            self.emit(Instr::ErrLine { msg });
            return;
        };
        let lo = self.expr(&lo_e, ctx);
        let hi = self.expr(&hi_e, ctx);
        let step = self.expr(&step_e, ctx);
        let offload = p.directive.kind.is_offload();
        if offload {
            self.emit(Instr::MapFramePush);
            ctx.map_depth += 1;
            self.map_clauses(&p.directive.clauses, ctx);
        }
        let region = self.region(p, for_stmt, &loop_var, ctx);
        self.emit(Instr::ParallelFor {
            region,
            lo,
            hi,
            step,
        });
        if offload {
            ctx.map_depth -= 1;
            self.emit(Instr::MapFramePop);
        }
    }

    /// Compile a work-sharing region body as its own unit, jumped over in
    /// the enclosing code. `ctx` is the *enclosing* context: the region
    /// captures a snapshot of its live bindings, mirroring `env.flatten()`.
    fn region(&mut self, p: &PragmaStmt, f: &ForStmt, loop_var: &str, ctx: &FnCtx) -> u32 {
        let skip = self.emit(Instr::Jump { target: 0 });

        // Captures: every distinct visible name, innermost binding wins.
        let mut seen: HashSet<&str> = HashSet::new();
        let mut cap_info: Vec<(String, Reg, Type)> = Vec::new();
        for scope in ctx.scopes.iter().rev() {
            for (n, r, t) in scope.vars.iter().rev() {
                if seen.insert(n.as_str()) {
                    cap_info.push((n.clone(), *r, t.clone()));
                }
            }
        }

        let mut rctx = FnCtx::new();
        rctx.push_scope();
        for (name, _, ty) in &cap_info {
            let slot = rctx.alloc();
            rctx.bind(name, slot, ty.clone());
        }

        // Reduction identity slots resolve before the loop variable...
        let mut red_init: Vec<(String, Reg, Type, bool)> = Vec::new();
        if let Some((_, vars)) = p.directive.reduction() {
            for var in vars {
                match rctx.resolve(var) {
                    Some((slot, ty)) => red_init.push((var.clone(), slot, ty, true)),
                    None => {
                        let slot = rctx.alloc();
                        rctx.bind(var, slot, Type::Double);
                        red_init.push((var.clone(), slot, Type::Double, false));
                    }
                }
            }
        }

        // ... the loop variable shadows same-name bindings ...
        let loop_var_slot = rctx.alloc();
        rctx.bind(loop_var, loop_var_slot, Type::Long);

        // ... and the post-chunk reads resolve after it.
        let reductions: Vec<CompiledReduction> = match p.directive.reduction() {
            Some((op, _)) => red_init
                .iter()
                .map(|(var, init_slot, ty, init_coerce)| {
                    let (read_slot, _) = rctx.resolve(var).expect("reduction var bound");
                    CompiledReduction {
                        op,
                        ty: ty.clone(),
                        init_slot: *init_slot,
                        init_coerce: *init_coerce,
                        read_slot,
                        update: ctx.resolve(var),
                    }
                })
                .collect(),
            None => Vec::new(),
        };

        // The body is a unit of its own, outside the pragma's statement, as
        // each worker starts it outside any statement.
        let pragma_line = std::mem::take(&mut self.line);
        let body_entry = self.bind_label();
        self.block(&f.body, &mut rctx);
        self.emit(Instr::EndUnit {
            flow: FlowKind::Normal,
        });
        let body_end = self.code.len() as u32;
        self.line = pragma_line;
        let after = self.bind_label();
        self.patch(skip, after);

        // A reduction's private copy is read after the chunk, so its
        // region keeps the sequential path.
        let lockstep = if reductions.is_empty() {
            lockstep::analyse(&self.code, body_entry, body_end, Some(loop_var_slot))
        } else {
            None
        };
        let id = self.regions.len() as u32;
        self.regions.push(CompiledRegion {
            directive: p.directive.clone(),
            body_entry,
            nslots: rctx.high,
            captures: cap_info.iter().map(|(_, r, _)| *r).collect(),
            loop_var_slot,
            reductions,
            lockstep,
        });
        id
    }

    // --------------------------------------------------------------- units

    /// Pre-register function and kernel tables so call/launch sites can
    /// reference them before their bodies are compiled. `main` is the host
    /// unit, so it is registered as a callable function only when some call
    /// site names it.
    fn register_functions(&mut self) {
        let mut launched: HashSet<String> = HashSet::new();
        let mut main_called = false;
        for f in self.program.functions() {
            f.body.walk(&mut |s| {
                if let StmtKind::KernelLaunch(kl) = &s.kind {
                    launched.insert(kl.kernel.clone());
                }
                s.exprs(&mut |e| {
                    e.walk(&mut |e| {
                        main_called |= matches!(e, Expr::Call { callee, .. } if callee == "main");
                    })
                });
            });
        }
        for f in self.program.functions() {
            if self.func_ids.contains_key(&f.name) || self.kernel_ids.contains_key(&f.name) {
                // Only the first function of a name is reachable.
                continue;
            }
            if f.qualifier != FnQualifier::Kernel && (f.name != "main" || main_called) {
                let id = self.funcs.len() as u32;
                self.funcs.push(CompiledFunction {
                    name: f.name.clone(),
                    entry: 0,
                    nslots: 0,
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                    ret: f.ret.clone(),
                });
                self.func_ids.insert(f.name.clone(), id);
            }
            if f.qualifier == FnQualifier::Kernel || launched.contains(&f.name) {
                let id = self.kernels.len() as u32;
                self.kernels.push(CompiledKernel {
                    name: f.name.clone(),
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                    shared: Vec::new(),
                    segments: Vec::new(),
                    nslots: 0,
                    lockstep: None,
                });
                self.kernel_ids.insert(f.name.clone(), id);
            }
        }
    }

    fn compile_units(&mut self, argc: usize) {
        let mut done: HashSet<String> = HashSet::new();
        for f in self.program.functions() {
            if !done.insert(f.name.clone()) {
                continue;
            }
            if let Some(&id) = self.func_ids.get(&f.name) {
                let (entry, nslots) = self.function_unit(f);
                self.funcs[id as usize].entry = entry;
                self.funcs[id as usize].nslots = nslots;
            }
            if let Some(&id) = self.kernel_ids.get(&f.name) {
                let compiled = self.kernel_unit(f);
                self.kernels[id as usize] = compiled;
            }
        }
        self.host = self.program.main().map(|main| {
            self.snapshot = malloc_targets(&main.body);
            let mut ctx = FnCtx::new();
            ctx.push_scope();
            for i in 0..argc {
                let slot = ctx.alloc();
                ctx.bind(&format!("arg{i}"), slot, Type::Long);
            }
            let entry = self.bind_label();
            self.block(&main.body, &mut ctx);
            self.emit(Instr::EndUnit {
                flow: FlowKind::Normal,
            });
            HostUnit {
                entry,
                nslots: ctx.high,
                argc,
            }
        });
    }

    fn function_unit(&mut self, f: &Function) -> (u32, u32) {
        self.snapshot = malloc_targets(&f.body);
        let mut ctx = FnCtx::new();
        ctx.push_scope();
        for p in &f.params {
            let slot = ctx.alloc();
            ctx.bind(&p.name, slot, p.ty.clone());
        }
        let entry = self.bind_label();
        self.block(&f.body, &mut ctx);
        self.emit(Instr::EndUnit {
            flow: FlowKind::Normal,
        });
        (entry, ctx.high)
    }

    fn kernel_unit(&mut self, f: &Function) -> CompiledKernel {
        self.snapshot = malloc_targets(&f.body);
        let mut ctx = FnCtx::new();
        ctx.push_scope();
        for p in &f.params {
            let slot = ctx.alloc();
            ctx.bind(&p.name, slot, p.ty.clone());
        }

        // Top-level `__shared__` declarations become per-block allocations
        // performed by the kernel schedule; the thread frame sees only the
        // resulting pointers.
        let mut shared = Vec::new();
        for d in shared_decls(&f.body) {
            let slot = ctx.alloc();
            let len = match &d.array_len {
                Some(Expr::IntLit(v)) => SharedLen::Lit(*v),
                Some(other) => {
                    // A dynamic length is evaluated against the kernel
                    // parameters only, in a throwaway host-context frame.
                    let mut sctx = FnCtx::new();
                    sctx.push_scope();
                    for p in &f.params {
                        let s = sctx.alloc();
                        sctx.bind(&p.name, s, p.ty.clone());
                    }
                    let entry = self.bind_label();
                    let r = self.expr(other, &mut sctx);
                    self.emit(Instr::Ret {
                        pre: 0,
                        src: Some(r),
                    });
                    SharedLen::Dynamic {
                        entry,
                        nslots: sctx.high,
                    }
                }
                None => SharedLen::Lit(1),
            };
            ctx.bind(&d.name, slot, d.ty.clone().ptr());
            shared.push(CompiledShared {
                name: d.name.clone(),
                elem: d.ty.clone(),
                slot,
                len,
            });
        }

        // Barrier-delimited segments share the one frame: statements compile
        // directly in the params+shared scope (the interpreter's
        // `exec_stmts` on a flat env), so declarations persist across
        // segment boundaries.
        let mut segments = Vec::new();
        for segment in barrier_segments(&f.body) {
            let entry = self.bind_label();
            for stmt in segment {
                self.stmt(stmt, &mut ctx);
            }
            self.emit(Instr::EndUnit {
                flow: FlowKind::Normal,
            });
            segments.push(entry);
        }
        let lockstep = match segments[..] {
            [entry] => lockstep::analyse(&self.code, entry, self.code.len() as u32, None),
            _ => None,
        };

        CompiledKernel {
            name: f.name.clone(),
            params: f.params.iter().map(|p| p.ty.clone()).collect(),
            shared,
            segments,
            nslots: ctx.high,
            lockstep,
        }
    }
}

/// Every variable a `cudaMalloc(&x, ...)` anywhere in `b` assigns.
fn malloc_targets(b: &Block) -> HashSet<String> {
    let mut out = HashSet::new();
    b.walk(&mut |s| {
        s.exprs(&mut |e| {
            e.walk(&mut |e| {
                if let Expr::Call { callee, args } = e {
                    if let (
                        "cudaMalloc",
                        Some(Expr::Unary {
                            op: UnOp::AddrOf,
                            operand,
                        }),
                    ) = (callee.as_str(), args.first())
                    {
                        if let Expr::Ident(name) = operand.as_ref() {
                            out.insert(name.clone());
                        }
                    }
                }
            })
        })
    });
    out
}
