//! The flat instruction set executed by the bytecode VM.
//!
//! ## Step charging
//!
//! The tree-walking evaluator calls `step()` once per statement, per loop
//! iteration and per expression node. The VM must reach the same step count
//! at every point where a run can fail or observe the counter: the
//! step-limit kill, a faulting operator or memory access, `omp_get_wtime`,
//! and the end of the run. It does not need one instruction per charged
//! node, so the compiler counts node steps and attaches them to the
//! instruction that next does something fallible or observable:
//!
//! | instruction | charges |
//! |---|---|
//! | any instruction with a `pre` field | `pre` steps on entry, before anything else |
//! | [`Instr::Branch`] (an `if`, a loop iteration, a ternary) | `pre`, then one branch |
//! | [`Instr::Charge`] | `n` steps, nothing else |
//! | operator instructions ([`Rr`], [`Rk`], [`RrBr`], [`RkBr`] operands) | `pre`, then the operator's cost |
//! | every other instruction | nothing |
//!
//! A statement's own step is a node step like any other: no instruction
//! marks where a statement starts. A node's step is *pending* from the
//! moment the compiler reaches the node until it emits an instruction that
//! charges it:
//!
//! * **Folded forward.** The next emitted instruction with a `pre` field
//!   absorbs every pending step. Free instructions ([`Instr::Const`],
//!   [`Instr::Move`]) can neither fail nor observe anything, so a pending
//!   count passes over them.
//! * **Folded backward.** A step that becomes pending directly after a
//!   `Branch` joins that instruction's `pre`: nothing fallible runs between
//!   the two.
//! * **Flushed.** Before an instruction without a `pre` field, and before
//!   every bound label, the pending count is emitted as a `Charge`. A jump
//!   landing on the label must not charge steps of the fall-through path.
//!
//! ## Lines
//!
//! An error names the source line of the statement it happened in. The VM
//! keeps no current line: [`super::CompiledProgram::lines`] maps every pc
//! to the line of the innermost statement around the instruction (0 outside
//! any statement), and a failing instruction reads its own entry. A fault in
//! a loop condition reports the loop's line, and a fault after a call
//! returns reports the caller's statement, on both engines.
//!
//! ## Operands
//!
//! Expressions evaluate into registers, and an identifier that resolves to a
//! binding *is* the binding's slot: reading a variable emits no instruction,
//! only a pending step. Bindings change only at statement level, so the slot
//! still holds the value read when its consumer runs. The one exception is
//! `cudaMalloc(&x, ...)`, which assigns `x` in the middle of an expression,
//! so every read of a variable that a `cudaMalloc` in the same function
//! assigns is copied by a [`Instr::Move`] where it happens, and
//! `threadIdx.x`-style reads of the launch geometry are one
//! [`Instr::LoadDim`].
//!
//! ## Operators and stores
//!
//! Each hot binary operator has instructions of its own, so the VM runs it
//! with no second dispatch on the operator: `+ - * / %` in a
//! register–register form (`Add(Rr)`) and a form whose right operand is a
//! literal left in the constant pool (`AddK(Rk)`); `< > <= >= == !=` in
//! those two forms plus two fused with a `JumpIfFalse` on the result
//! (`LtBr(RrBr)`, `LtKBr(RkBr)`). `&&` short-circuits, so its right operand
//! is always compiled to a register: it has only `And(Rr)` and `AndBr(RrBr)`.
//! `Instr::binary` and `Instr::binary_k` pick the instruction, so every
//! operator has exactly one encoding; the rest (`||`, shifts, bitwise) share
//! [`Instr::Binary`] / [`Instr::BinaryK`].
//! Any other operator feeding a branch (`if (x % 2)`) is followed by a
//! separate `JumpIfFalse`, which charges nothing.
//!
//! What these operators compute over two `Int`s or two `Float`s is written
//! once, in `int_result` and `float_result`, and every form's operands
//! decode to one [`Form`] (`Instr::operator`). The VM's dispatch loop and
//! the lockstep lanes both call them, like the other shared handlers below
//! (`neg`, `not`, `SpecialIdent::load`, `omp_query`, `rmw_var`,
//! [`MathFn::apply`]).
//!
//! A plain store to an `int`/`long`/`bool`, `float` or `double` binding is
//! [`Instr::StoreInt`], [`Instr::StoreF32`] or [`Instr::StoreF64`], chosen
//! by the binding's declared type; pointer, `dim3` and `void` bindings keep
//! the coercing [`Instr::StoreVar`].

use lassi_lang::{BinOp, Type};

use crate::cost::CostCounter;
use crate::error::ExecError;
use crate::eval::{apply_binop, EvalContext};
use crate::value::{Dim3Val, Value};

/// A frame-relative register index.
pub type Reg = u32;

/// Special identifiers resolved at runtime against the evaluation context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialIdent {
    /// `threadIdx` inside a device thread.
    ThreadIdx,
    /// `blockIdx` inside a device thread.
    BlockIdx,
    /// `blockDim` inside a device thread.
    BlockDim,
    /// `gridDim` inside a device thread.
    GridDim,
}

impl SpecialIdent {
    /// Map an identifier to its launch-geometry builtin, if it is one.
    pub fn from_name(name: &str) -> Option<SpecialIdent> {
        Some(match name {
            "threadIdx" => SpecialIdent::ThreadIdx,
            "blockIdx" => SpecialIdent::BlockIdx,
            "blockDim" => SpecialIdent::BlockDim,
            "gridDim" => SpecialIdent::GridDim,
            _ => return None,
        })
    }

    /// The builtin's source spelling (for the unbound-identifier error).
    pub fn name(self) -> &'static str {
        match self {
            SpecialIdent::ThreadIdx => "threadIdx",
            SpecialIdent::BlockIdx => "blockIdx",
            SpecialIdent::BlockDim => "blockDim",
            SpecialIdent::GridDim => "gridDim",
        }
    }

    /// [`Instr::LoadDim`]'s read in `ctx`: the whole `dim3`, or component
    /// `axis` of it; `None` outside a device thread.
    #[inline(always)]
    pub(crate) fn load(self, ctx: &EvalContext, axis: Option<u8>) -> Option<Value> {
        let EvalContext::DeviceThread {
            thread_idx,
            block_idx,
            block_dim,
            grid_dim,
        } = *ctx
        else {
            return None;
        };
        let d = match self {
            SpecialIdent::ThreadIdx => thread_idx,
            SpecialIdent::BlockIdx => block_idx,
            SpecialIdent::BlockDim => block_dim,
            SpecialIdent::GridDim => grid_dim,
        };
        Some(dim_value(d, axis))
    }
}

/// A `dim3` read whole (`axis` `None`) or one component of it.
#[inline(always)]
pub(crate) fn dim_value(d: Dim3Val, axis: Option<u8>) -> Value {
    match axis {
        Some(a) => Value::Int(d.axis(a) as i64),
        None => Value::Dim3(d),
    }
}

/// The `dim3` component a member name selects: `x` is 0, `y` is 1 and any
/// other name is `z` (2), like the interpreter's member access.
pub fn axis_of(field: &str) -> u8 {
    match field {
        "x" => 0,
        "y" => 1,
        _ => 2,
    }
}

/// Recognized math builtins (anything else is an unknown-function error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn {
    /// `sqrt` / `sqrtf`.
    Sqrt,
    /// `fabs` / `fabsf`.
    Fabs,
    /// `exp` / `expf`.
    Exp,
    /// `log` / `logf`.
    Log,
    /// `log2`.
    Log2,
    /// `sin` / `sinf`.
    Sin,
    /// `cos` / `cosf`.
    Cos,
    /// `atan2`.
    Atan2,
    /// `pow`.
    Pow,
    /// `floor`.
    Floor,
    /// `ceil`.
    Ceil,
    /// `fmin`.
    Fmin,
    /// `fmax`.
    Fmax,
    /// Integer `min`.
    MinInt,
    /// Integer `max`.
    MaxInt,
    /// Integer `abs`.
    AbsInt,
}

impl MathFn {
    /// Map a callee name to its math builtin, if it is one.
    pub fn from_name(name: &str) -> Option<MathFn> {
        Some(match name {
            "sqrt" | "sqrtf" => MathFn::Sqrt,
            "fabs" | "fabsf" => MathFn::Fabs,
            "exp" | "expf" => MathFn::Exp,
            "log" | "logf" => MathFn::Log,
            "log2" => MathFn::Log2,
            "sin" | "sinf" => MathFn::Sin,
            "cos" | "cosf" => MathFn::Cos,
            "atan2" => MathFn::Atan2,
            "pow" => MathFn::Pow,
            "floor" => MathFn::Floor,
            "ceil" => MathFn::Ceil,
            "fmin" => MathFn::Fmin,
            "fmax" => MathFn::Fmax,
            "min" => MathFn::MinInt,
            "max" => MathFn::MaxInt,
            "abs" => MathFn::AbsInt,
            _ => return None,
        })
    }

    /// The builtin over its first two arguments, `None` where the call
    /// passed fewer (read as `0`). The VM and the lockstep lanes both
    /// compute it here.
    pub fn apply(self, a: Option<Value>, b: Option<Value>) -> Value {
        let f0 = a.map_or(0.0, |v| v.as_float());
        let f1 = b.map_or(0.0, |v| v.as_float());
        let n0 = a.map_or(0, |v| v.as_int());
        let n1 = b.map_or(0, |v| v.as_int());
        match self {
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
    }
}

/// Non-`Return` terminal flow of a compiled unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// The unit's block fell off its end.
    Normal,
    /// A `break` with no enclosing loop inside the unit.
    Break,
    /// A `continue` with no enclosing loop inside the unit.
    Continue,
}

// ------------------------------------------------------ shared semantics
//
// What an instruction computes, over plain values: the VM's dispatch loop
// and the lockstep lanes both call these, so the two cannot drift. The
// tree-walking evaluator keeps its own copy, because it is the oracle.

/// `a op b` over two `Int`s, for an operator with instructions of its own,
/// like `int_binop`: wrapping, and `None` for a zero divisor. Inlined with
/// `op` fixed at each call site, it folds to that one operator.
#[inline(always)]
pub(crate) fn int_result(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div | BinOp::Rem if b == 0 => return None,
        BinOp::Div => a.wrapping_div(b),
        BinOp::Rem => a.wrapping_rem(b),
        BinOp::Lt => (a < b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::And => (a != 0 && b != 0) as i64,
        _ => unreachable!("{op:?} has no instruction of its own"),
    })
}

/// `a op b` over two `Float`s, for an operator with instructions of its
/// own, like `mixed_binop`: comparisons and `&&` yield `Int(0|1)`.
#[inline(always)]
pub(crate) fn float_result(op: BinOp, a: f64, b: f64) -> Value {
    let flag = |c: bool| Value::Int(c as i64);
    match op {
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => Value::Float(a / b),
        BinOp::Rem => Value::Float(a % b),
        BinOp::Lt => flag(a < b),
        BinOp::Gt => flag(a > b),
        BinOp::Le => flag(a <= b),
        BinOp::Ge => flag(a >= b),
        BinOp::Eq => flag(a == b),
        BinOp::Ne => flag(a != b),
        BinOp::And => flag(a != 0.0 && b != 0.0),
        _ => unreachable!("{op:?} has no instruction of its own"),
    }
}

/// [`Instr::Neg`], and the delta of an atomic `-=`: wrapping on an `Int`,
/// like the binary operators.
#[inline(always)]
pub(crate) fn neg(v: Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.wrapping_neg()),
        other => Value::Float(-other.as_float()),
    }
}

/// [`Instr::Not`].
#[inline(always)]
pub(crate) fn not(v: Value) -> Value {
    Value::Int(!v.is_truthy() as i64)
}

/// [`Instr::RmwVar`]: `old op v`, coerced to the binding's type `ty`.
#[inline]
pub(crate) fn rmw_var(
    op: BinOp,
    old: &Value,
    v: &Value,
    ty: &Type,
    cost: &mut CostCounter,
    line: u32,
) -> Result<Value, ExecError> {
    Ok(apply_binop(op, old, v, cost, line)?.coerce_to(ty))
}

/// [`Instr::OmpInt`] in `ctx`.
#[inline(always)]
pub(crate) fn omp_query(which: u8, ctx: &EvalContext) -> Value {
    Value::Int(match (which, ctx) {
        (0, EvalContext::OmpWorker { thread_num, .. }) => *thread_num,
        (0, _) => 0,
        (1, EvalContext::OmpWorker { num_threads, .. }) => *num_threads,
        (1, _) => 1,
        _ => 64,
    })
}

/// Operands of a binary operator over two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rr {
    /// Destination register.
    pub dst: Reg,
    /// Left operand register.
    pub l: Reg,
    /// Right operand register.
    pub r: Reg,
    /// Steps charged on entry.
    pub pre: u32,
}

/// Operands of a binary operator whose right operand is a literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rk {
    /// Destination register.
    pub dst: Reg,
    /// Left operand register.
    pub l: Reg,
    /// Constant-pool index of the right operand.
    pub k: u32,
    /// Steps charged on entry.
    pub pre: u32,
}

/// [`Rr`] fused with a `JumpIfFalse` on the result. The result is still
/// written to `dst`: `&&`/`||` re-read their left operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrBr {
    /// Destination register.
    pub dst: Reg,
    /// Left operand register.
    pub l: Reg,
    /// Right operand register.
    pub r: Reg,
    /// Absolute pc to jump to when the result is falsy.
    pub target: u32,
    /// Steps charged on entry.
    pub pre: u32,
}

/// [`Rk`] fused with a `JumpIfFalse` on the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RkBr {
    /// Destination register.
    pub dst: Reg,
    /// Left operand register.
    pub l: Reg,
    /// Constant-pool index of the right operand.
    pub k: u32,
    /// Absolute pc to jump to when the result is falsy.
    pub target: u32,
    /// Steps charged on entry.
    pub pre: u32,
}

/// The right operand of an operator instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rhs {
    /// A register.
    Reg(Reg),
    /// A constant-pool index.
    Const(u32),
}

/// The operands of an operator instruction in any of the four forms. Where
/// the form is known, converting it folds away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Form {
    /// Destination register.
    pub dst: Reg,
    /// Left operand register.
    pub l: Reg,
    /// Right operand.
    pub r: Rhs,
    /// For a branch-fused form, the pc to jump to when the result is falsy.
    pub target: Option<u32>,
    /// Steps charged on entry.
    pub pre: u32,
}

macro_rules! forms {
    ($($form:ident: |$o:ident| $r:expr, $target:expr;)*) => {
        $(impl From<$form> for Form {
            #[inline(always)]
            fn from($o: $form) -> Form {
                Form { dst: $o.dst, l: $o.l, r: $r, target: $target, pre: $o.pre }
            }
        })*
    };
}

forms! {
    Rr: |o| Rhs::Reg(o.r), None;
    Rk: |o| Rhs::Const(o.k), None;
    RrBr: |o| Rhs::Reg(o.r), Some(o.target);
    RkBr: |o| Rhs::Const(o.k), Some(o.target);
}

/// One VM instruction. `u32` payloads index the compiled program's constant,
/// name and type pools; `Reg` payloads are frame-relative register indices.
/// A `pre` field is the step count charged on entry (see the module doc).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // ------------------------------------------------ step/cost bookkeeping
    /// Charge plus one branch: the head of an `if`, of a loop iteration and
    /// of a ternary, before the condition.
    Branch {
        /// Steps: the node's own plus folded node steps.
        pre: u32,
    },
    /// Charge `n` pending steps that no neighbouring instruction can absorb.
    Charge {
        /// Number of steps.
        n: u32,
    },

    // ------------------------------------------------------- control flow
    /// Unconditional jump.
    Jump {
        /// Absolute target pc.
        target: u32,
    },
    /// Jump when the register is falsy.
    JumpIfFalse {
        /// Condition register.
        cond: Reg,
        /// Absolute target pc.
        target: u32,
    },
    /// Jump when the register is truthy.
    JumpIfTrue {
        /// Condition register.
        cond: Reg,
        /// Absolute target pc.
        target: u32,
    },
    /// Return from the current function (or unit) with a value.
    Ret {
        /// Steps charged on entry.
        pre: u32,
        /// Value register; `None` returns `Value::Void`.
        src: Option<Reg>,
    },
    /// Terminate the current unit with a non-return flow.
    EndUnit {
        /// How the unit ended.
        flow: FlowKind,
    },

    // ------------------------------------------------------ data movement
    /// Constant load. Free: literal steps are charged by the consumer.
    Const {
        /// Destination register.
        dst: Reg,
        /// Constant-pool index.
        id: u32,
    },
    /// Free register copy: joins branch results, gathers call arguments
    /// into contiguous blocks and snapshots variables a `cudaMalloc` in the
    /// same unit assigns.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Read of a launch-geometry builtin (`threadIdx`, ...) that no local
    /// binding shadows; errors as an unbound identifier outside device code.
    LoadDim {
        /// Destination register.
        dst: Reg,
        /// Which builtin.
        which: SpecialIdent,
        /// `Some(axis)` for a member read (`threadIdx.x`, both node steps
        /// are in `pre`), `None` for the whole `dim3`.
        axis: Option<u8>,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Plain store to an `int`, `long` or `bool` slot: [`Instr::StoreVar`]
    /// with the integer coercion inline.
    StoreInt {
        /// Destination slot.
        slot: Reg,
        /// Value register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Plain store to a `float` slot (rounds through `f32`).
    StoreF32 {
        /// Destination slot.
        slot: Reg,
        /// Value register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Plain store to a `double` slot.
    StoreF64 {
        /// Destination slot.
        slot: Reg,
        /// Value register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Plain store to a pointer, `dim3` or `void` slot, coercing to the
    /// binding's declared type (the `env.set` path — assignments and
    /// declaration initializers).
    StoreVar {
        /// Destination slot.
        slot: Reg,
        /// Value register.
        src: Reg,
        /// Type-pool index of the binding type.
        ty: u32,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Pointer-typed declaration initializer: adopt the buffer (rename +
    /// retype) before the coercing store, like `Evaluator::eval_init`.
    DeclPtrInit {
        /// Destination slot.
        slot: Reg,
        /// Value register.
        src: Reg,
        /// Type-pool index of the declared pointer type.
        ty: u32,
        /// Name-pool index of the declared variable.
        name: u32,
    },
    /// Array declaration: allocate `len` elements and bind the pointer.
    DeclArray {
        /// Destination slot.
        slot: Reg,
        /// Length register (`as_int().max(0)` applied at runtime).
        len: Reg,
        /// Type-pool index of the element type.
        elem: u32,
        /// Name-pool index of the declared variable.
        name: u32,
    },

    // ---------------------------------------------------------- operators
    // One instruction per operator and operand form: the VM runs the
    // operator inline for two `Int`s or two `Float`s, with no second match
    // on the operator.
    /// Apply an operator that has no instruction of its own (`||`, shifts
    /// and bitwise operators).
    Binary(BinOp, Rr),
    /// [`Instr::Binary`] whose right operand is a literal.
    BinaryK(BinOp, Rk),
    /// `+`.
    Add(Rr),
    /// `+` with a literal right operand.
    AddK(Rk),
    /// `-`.
    Sub(Rr),
    /// `-` with a literal right operand.
    SubK(Rk),
    /// `*`.
    Mul(Rr),
    /// `*` with a literal right operand.
    MulK(Rk),
    /// `/`.
    Div(Rr),
    /// `/` with a literal right operand.
    DivK(Rk),
    /// `%`.
    Rem(Rr),
    /// `%` with a literal right operand.
    RemK(Rk),
    /// `<`.
    Lt(Rr),
    /// `<` with a literal right operand.
    LtK(Rk),
    /// `<` fused with a `JumpIfFalse` on its result.
    LtBr(RrBr),
    /// `<` with a literal right operand, fused with a `JumpIfFalse`.
    LtKBr(RkBr),
    /// `>`.
    Gt(Rr),
    /// `>` with a literal right operand.
    GtK(Rk),
    /// `>` fused with a `JumpIfFalse` on its result.
    GtBr(RrBr),
    /// `>` with a literal right operand, fused with a `JumpIfFalse`.
    GtKBr(RkBr),
    /// `<=`.
    Le(Rr),
    /// `<=` with a literal right operand.
    LeK(Rk),
    /// `<=` fused with a `JumpIfFalse` on its result.
    LeBr(RrBr),
    /// `<=` with a literal right operand, fused with a `JumpIfFalse`.
    LeKBr(RkBr),
    /// `>=`.
    Ge(Rr),
    /// `>=` with a literal right operand.
    GeK(Rk),
    /// `>=` fused with a `JumpIfFalse` on its result.
    GeBr(RrBr),
    /// `>=` with a literal right operand, fused with a `JumpIfFalse`.
    GeKBr(RkBr),
    /// `==`.
    Eq(Rr),
    /// `==` with a literal right operand.
    EqK(Rk),
    /// `==` fused with a `JumpIfFalse` on its result.
    EqBr(RrBr),
    /// `==` with a literal right operand, fused with a `JumpIfFalse`.
    EqKBr(RkBr),
    /// `!=`.
    Ne(Rr),
    /// `!=` with a literal right operand.
    NeK(Rk),
    /// `!=` fused with a `JumpIfFalse` on its result.
    NeBr(RrBr),
    /// `!=` with a literal right operand, fused with a `JumpIfFalse`.
    NeKBr(RkBr),
    /// `&&`.
    And(Rr),
    /// `&&` fused with a `JumpIfFalse` on its result.
    AndBr(RrBr),
    /// Unary minus (always charges one `int_op`, like the interpreter).
    Neg {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Logical not (no operator cost).
    Not {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Pointer dereference read.
    DerefLoad {
        /// Destination register.
        dst: Reg,
        /// Pointer register.
        ptr: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Indexed read `base[idx]`.
    IndexLoad {
        /// Destination register.
        dst: Reg,
        /// Base pointer register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// `dim3` member access.
    MemberGet {
        /// Destination register.
        dst: Reg,
        /// Base register.
        src: Reg,
        /// Component, from [`axis_of`].
        axis: u8,
        /// Name-pool index of the field (for the non-`dim3` error).
        field: u32,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Scalar cast (`coerce_to`).
    CastScalar {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
        /// Type-pool index of the target type.
        ty: u32,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Pointer cast: retype the buffer when the operand is a pointer.
    CastPtr {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
        /// Type-pool index of the pointee type.
        elem: u32,
        /// Steps charged on entry.
        pre: u32,
    },

    // ------------------------------------------------------ lvalue stores
    /// Simple store through `base[idx]`.
    StoreIndex {
        /// Base pointer register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// Value register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Compound assignment through `base[idx]` (read, op, write).
    RmwIndex {
        /// The arithmetic operator.
        op: BinOp,
        /// Base pointer register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// Right-hand-side register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Simple store through `*ptr`.
    StoreDeref {
        /// Pointer register.
        ptr: Reg,
        /// Value register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Compound assignment through `*ptr`.
    RmwDeref {
        /// The arithmetic operator.
        op: BinOp,
        /// Pointer register.
        ptr: Reg,
        /// Right-hand-side register.
        src: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Compound assignment to a slot (read, op, coercing write).
    RmwVar {
        /// The arithmetic operator.
        op: BinOp,
        /// Target slot.
        slot: Reg,
        /// Right-hand-side register.
        src: Reg,
        /// Type-pool index of the binding type.
        ty: u32,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Fail with `runtime error: {msg}` (no line prefix).
    ErrPlain {
        /// Name-pool index of the message.
        msg: u32,
    },
    /// Fail with `runtime error: line {line}: {msg}`, `line` being this
    /// instruction's entry in the line table.
    ErrLine {
        /// Name-pool index of the message.
        msg: u32,
    },

    // --------------------------------------------------------------- calls
    /// Builtin call entry: one `calls` cost.
    CallPre {
        /// Steps charged on entry (including the call node's own).
        pre: u32,
    },
    /// User call entry: `CallPre` plus the 64-frame depth check.
    UserCallPre {
        /// Steps charged on entry (including the call node's own).
        pre: u32,
    },
    /// Call a compiled user function.
    CallUser {
        /// Function-table index.
        func: u32,
        /// First argument register.
        args_base: Reg,
        /// Argument count.
        argc: u32,
        /// Destination register for the (coerced) return value.
        dst: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// `printf`.
    Printf {
        /// First argument register.
        args_base: Reg,
        /// Argument count.
        argc: u32,
        /// Destination register.
        dst: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// `malloc`.
    Malloc {
        /// Byte-count register.
        bytes: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// `free` / `cudaFree`.
    FreeVal {
        /// Pointer register.
        src: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// `cudaMalloc(&var, bytes)` with a statically resolved target slot.
    CudaMalloc {
        /// Byte-count register.
        bytes: Reg,
        /// Target slot.
        slot: Reg,
        /// Type-pool index of the element type (pointee of the binding type,
        /// `double` when the binding is not a pointer).
        elem: u32,
        /// Type-pool index of the binding type (for the `env.set` coercion).
        slot_ty: u32,
        /// Name-pool index of the target variable.
        name: u32,
        /// Destination register.
        dst: Reg,
    },
    /// `cudaMalloc(&var, bytes)` whose target is unbound: allocate (the
    /// interpreter allocates before the failed `env.set`), then fail.
    CudaMallocUnbound {
        /// Byte-count register.
        bytes: Reg,
        /// Name-pool index of the target variable.
        name: u32,
    },
    /// `cudaMemcpy` (charges transfer time and bytes).
    Memcpy {
        /// Destination-pointer register.
        dptr: Reg,
        /// Source-pointer register.
        sptr: Reg,
        /// Byte-count register.
        bytes: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// `cudaMemset` / `memset`.
    Memset {
        /// Pointer register.
        ptr: Reg,
        /// Fill-value register.
        fill: Reg,
        /// Byte-count register.
        bytes: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// Plain `memcpy` (no transfer cost, silently ignores non-pointers).
    HostMemcpy {
        /// Destination-pointer register.
        dptr: Reg,
        /// Source-pointer register.
        sptr: Reg,
        /// Byte-count register.
        bytes: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// `exit(code)`.
    Exit {
        /// Code register.
        code: Reg,
        /// Destination register (`Int(0)` when code is 0).
        dst: Reg,
    },
    /// `__syncthreads()` reached outside a kernel's top level: report
    /// barrier divergence.
    SyncCallErr,
    /// `atomicAdd`.
    AtomicAdd {
        /// Target-pointer register.
        target: Reg,
        /// Delta register.
        delta: Reg,
        /// Destination register (the old value).
        dst: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// `atomicMax` / `atomicMin`.
    AtomicMinMax {
        /// Target-pointer register.
        target: Reg,
        /// Operand register.
        delta: Reg,
        /// Destination register (the old value).
        dst: Reg,
        /// True for `atomicMax`.
        is_max: bool,
        /// Steps charged on entry.
        pre: u32,
    },
    /// `omp_get_wtime` (reads the live step counter).
    WTime {
        /// Destination register.
        dst: Reg,
    },
    /// `omp_get_thread_num` (0) / `omp_get_num_threads` (1) /
    /// `omp_get_max_threads` (2).
    OmpInt {
        /// Destination register.
        dst: Reg,
        /// Which query.
        which: u8,
    },
    /// `dim3(...)` constructor.
    Dim3Ctor {
        /// First argument register.
        args_base: Reg,
        /// Argument count (at most 3).
        argc: u32,
        /// Destination register.
        dst: Reg,
    },
    /// Math builtin (charges one `special_op`).
    MathOp {
        /// Which builtin.
        f: MathFn,
        /// First argument register.
        args_base: Reg,
        /// Argument count.
        argc: u32,
        /// Destination register.
        dst: Reg,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Unknown function: charge the `special_op` the interpreter charges
    /// before its match, then fail.
    ErrUnknownCall {
        /// Name-pool index of the message suffix.
        msg: u32,
    },

    // ----------------------------------------------------- kernel launches
    /// Kernel-launch entry: machine presence + kernel-defined checks.
    LaunchPre {
        /// Name-pool index of the kernel name.
        name: u32,
        /// Whether the kernel resolved at compile time.
        defined: bool,
    },
    /// Convert an evaluated geometry expression to launch geometry
    /// (`Dim3Val`) in a fresh register; the source may be a variable's slot.
    GeomConvert {
        /// Destination register.
        dst: Reg,
        /// Register holding the evaluated geometry expression.
        src: Reg,
    },
    /// Validate grid/block sizes before evaluating launch arguments.
    LaunchCheck {
        /// Grid register (holds a `Dim3` value).
        grid: Reg,
        /// Block register.
        block: Reg,
        /// Name-pool index of the kernel name.
        name: u32,
    },
    /// Run the launch through the kernel schedule and merge its stats.
    LaunchKernel {
        /// Kernel-table index.
        kernel: u32,
        /// Grid register.
        grid: Reg,
        /// Block register.
        block: Reg,
        /// First argument register.
        args_base: Reg,
        /// Argument count.
        argc: u32,
    },

    // -------------------------------------------------------------- OpenMP
    /// `#pragma omp atomic` over `base[idx] op= src`.
    AtomicRmw {
        /// Base pointer register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// Delta register.
        src: Reg,
        /// True when the pragma's operator is `-=`.
        negate: bool,
        /// Steps charged on entry.
        pre: u32,
    },
    /// Open a map-tracking frame (entering a `target data` region or the
    /// map clauses of an offload work-sharing loop).
    MapFramePush,
    /// Unmap and close the innermost map-tracking frame.
    MapFramePop,
    /// Unmap and close the `n` innermost map frames (break/continue/return
    /// crossing `target data` boundaries).
    UnmapFrames {
        /// Number of frames to close.
        n: u32,
    },
    /// Map a whole buffer section (no explicit length): mark mapped and
    /// charge the transfer from the buffer's length.
    MapSecWhole {
        /// Slot holding the mapped variable.
        slot: Reg,
    },
    /// Begin an explicit-length map section: when the slot holds a pointer,
    /// mark it mapped and stash it; otherwise skip the length evaluation.
    MapSecBegin {
        /// Slot holding the mapped variable.
        slot: Reg,
        /// Scratch register receiving the pointer.
        tmp: Reg,
        /// Absolute pc to skip to when the slot is not a pointer.
        skip: u32,
    },
    /// Charge the transfer for an explicit-length map section.
    MapSecCharge {
        /// Scratch register holding the pointer.
        tmp: Reg,
        /// Evaluated length register.
        len: Reg,
    },
    /// Work-sharing entry: machine presence check.
    OmpPre,
    /// Run a work-sharing loop through the work-sharing schedule, merge its
    /// stats and write the combined reductions back.
    ParallelFor {
        /// Region-table index.
        region: u32,
        /// Evaluated lower-bound register.
        lo: Reg,
        /// Evaluated upper-bound register.
        hi: Reg,
        /// Evaluated step register.
        step: Reg,
    },
}

impl Rr {
    fn branch(self) -> RrBr {
        let Rr { dst, l, r, pre } = self;
        RrBr {
            dst,
            l,
            r,
            target: 0,
            pre,
        }
    }
}

impl Rk {
    fn branch(self) -> RkBr {
        let Rk { dst, l, k, pre } = self;
        RkBr {
            dst,
            l,
            k,
            target: 0,
            pre,
        }
    }
}

impl Instr {
    /// The instruction for `dst = l op r`: the operator's own, or the
    /// generic [`Instr::Binary`] for an operator without one.
    pub(crate) fn binary(op: BinOp, o: Rr) -> Instr {
        match op {
            BinOp::Add => Instr::Add(o),
            BinOp::Sub => Instr::Sub(o),
            BinOp::Mul => Instr::Mul(o),
            BinOp::Div => Instr::Div(o),
            BinOp::Rem => Instr::Rem(o),
            BinOp::Lt => Instr::Lt(o),
            BinOp::Gt => Instr::Gt(o),
            BinOp::Le => Instr::Le(o),
            BinOp::Ge => Instr::Ge(o),
            BinOp::Eq => Instr::Eq(o),
            BinOp::Ne => Instr::Ne(o),
            BinOp::And => Instr::And(o),
            _ => Instr::Binary(op, o),
        }
    }

    /// [`Instr::binary`] with a literal right operand.
    pub(crate) fn binary_k(op: BinOp, o: Rk) -> Instr {
        match op {
            BinOp::Add => Instr::AddK(o),
            BinOp::Sub => Instr::SubK(o),
            BinOp::Mul => Instr::MulK(o),
            BinOp::Div => Instr::DivK(o),
            BinOp::Rem => Instr::RemK(o),
            BinOp::Lt => Instr::LtK(o),
            BinOp::Gt => Instr::GtK(o),
            BinOp::Le => Instr::LeK(o),
            BinOp::Ge => Instr::GeK(o),
            BinOp::Eq => Instr::EqK(o),
            BinOp::Ne => Instr::NeK(o),
            _ => Instr::BinaryK(op, o),
        }
    }

    /// This comparison or `&&` fused with a `JumpIfFalse` on `cond` (target
    /// 0, patched later), when it is one and its result is `cond`.
    pub(crate) fn fuse_branch(&self, cond: Reg) -> Option<Instr> {
        Some(match *self {
            Instr::Lt(o) if o.dst == cond => Instr::LtBr(o.branch()),
            Instr::LtK(o) if o.dst == cond => Instr::LtKBr(o.branch()),
            Instr::Gt(o) if o.dst == cond => Instr::GtBr(o.branch()),
            Instr::GtK(o) if o.dst == cond => Instr::GtKBr(o.branch()),
            Instr::Le(o) if o.dst == cond => Instr::LeBr(o.branch()),
            Instr::LeK(o) if o.dst == cond => Instr::LeKBr(o.branch()),
            Instr::Ge(o) if o.dst == cond => Instr::GeBr(o.branch()),
            Instr::GeK(o) if o.dst == cond => Instr::GeKBr(o.branch()),
            Instr::Eq(o) if o.dst == cond => Instr::EqBr(o.branch()),
            Instr::EqK(o) if o.dst == cond => Instr::EqKBr(o.branch()),
            Instr::Ne(o) if o.dst == cond => Instr::NeBr(o.branch()),
            Instr::NeK(o) if o.dst == cond => Instr::NeKBr(o.branch()),
            Instr::And(o) if o.dst == cond => Instr::AndBr(o.branch()),
            _ => return None,
        })
    }

    /// The operator and operands of an operator instruction.
    pub(crate) fn operator(&self) -> Option<(BinOp, Form)> {
        // Each operator with instructions of its own, then its variants.
        macro_rules! decode {
            ($($op:ident: $($variant:ident)*;)*) => {
                match *self {
                    Instr::Binary(op, o) => (op, o.into()),
                    Instr::BinaryK(op, o) => (op, o.into()),
                    $($(Instr::$variant(o) => (BinOp::$op, o.into()),)*)*
                    _ => return None,
                }
            };
        }
        Some(decode! {
            Add: Add AddK;
            Sub: Sub SubK;
            Mul: Mul MulK;
            Div: Div DivK;
            Rem: Rem RemK;
            Lt: Lt LtK LtBr LtKBr;
            Gt: Gt GtK GtBr GtKBr;
            Le: Le LeK LeBr LeKBr;
            Ge: Ge GeK GeBr GeKBr;
            Eq: Eq EqK EqBr EqKBr;
            Ne: Ne NeK NeBr NeKBr;
            And: And AndBr;
        })
    }

    /// The jump target of a branch-fused operator.
    pub(crate) fn branch_target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Instr::LtBr(o)
            | Instr::GtBr(o)
            | Instr::LeBr(o)
            | Instr::GeBr(o)
            | Instr::EqBr(o)
            | Instr::NeBr(o)
            | Instr::AndBr(o) => Some(&mut o.target),
            Instr::LtKBr(o)
            | Instr::GtKBr(o)
            | Instr::LeKBr(o)
            | Instr::GeKBr(o)
            | Instr::EqKBr(o)
            | Instr::NeKBr(o) => Some(&mut o.target),
            _ => None,
        }
    }

    /// The step count charged on entry, for instructions that have one.
    pub fn pre_mut(&mut self) -> Option<&mut u32> {
        match self {
            Instr::Binary(_, o)
            | Instr::Add(o)
            | Instr::Sub(o)
            | Instr::Mul(o)
            | Instr::Div(o)
            | Instr::Rem(o)
            | Instr::Lt(o)
            | Instr::Gt(o)
            | Instr::Le(o)
            | Instr::Ge(o)
            | Instr::Eq(o)
            | Instr::Ne(o)
            | Instr::And(o) => Some(&mut o.pre),
            Instr::BinaryK(_, o)
            | Instr::AddK(o)
            | Instr::SubK(o)
            | Instr::MulK(o)
            | Instr::DivK(o)
            | Instr::RemK(o)
            | Instr::LtK(o)
            | Instr::GtK(o)
            | Instr::LeK(o)
            | Instr::GeK(o)
            | Instr::EqK(o)
            | Instr::NeK(o) => Some(&mut o.pre),
            Instr::LtBr(o)
            | Instr::GtBr(o)
            | Instr::LeBr(o)
            | Instr::GeBr(o)
            | Instr::EqBr(o)
            | Instr::NeBr(o)
            | Instr::AndBr(o) => Some(&mut o.pre),
            Instr::LtKBr(o)
            | Instr::GtKBr(o)
            | Instr::LeKBr(o)
            | Instr::GeKBr(o)
            | Instr::EqKBr(o)
            | Instr::NeKBr(o) => Some(&mut o.pre),
            Instr::Branch { pre }
            | Instr::Ret { pre, .. }
            | Instr::LoadDim { pre, .. }
            | Instr::StoreInt { pre, .. }
            | Instr::StoreF32 { pre, .. }
            | Instr::StoreF64 { pre, .. }
            | Instr::StoreVar { pre, .. }
            | Instr::Neg { pre, .. }
            | Instr::Not { pre, .. }
            | Instr::DerefLoad { pre, .. }
            | Instr::IndexLoad { pre, .. }
            | Instr::MemberGet { pre, .. }
            | Instr::CastScalar { pre, .. }
            | Instr::CastPtr { pre, .. }
            | Instr::StoreIndex { pre, .. }
            | Instr::RmwIndex { pre, .. }
            | Instr::StoreDeref { pre, .. }
            | Instr::RmwDeref { pre, .. }
            | Instr::RmwVar { pre, .. }
            | Instr::CallPre { pre }
            | Instr::UserCallPre { pre }
            | Instr::CallUser { pre, .. }
            | Instr::Printf { pre, .. }
            | Instr::AtomicAdd { pre, .. }
            | Instr::AtomicMinMax { pre, .. }
            | Instr::MathOp { pre, .. }
            | Instr::AtomicRmw { pre, .. } => Some(pre),
            _ => None,
        }
    }
}
