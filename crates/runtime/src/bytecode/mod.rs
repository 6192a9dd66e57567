//! Register bytecode: the compiled execution engine.
//!
//! [`compile`] lowers a checked [`lassi_lang::Program`] into a
//! [`CompiledProgram`]: one flat instruction stream ([`instr::Instr`]) shared
//! by every function, kernel segment, OpenMP region body and dynamic
//! shared-length expression, plus pooled constants, names and types. Name
//! resolution happens entirely at compile time — every variable becomes a
//! frame-relative register slot, so the VM ([`vm::Vm`]) never touches a scope
//! chain or a hash map in the hot path. Operands are read from those slots
//! in place, and the steps of expression nodes ride on the instructions
//! that consume them (see [`instr`]).
//!
//! The engine is observationally identical to the tree-walking interpreter in
//! [`crate::eval`] / [`crate::interp::HostInterpreter`], the reference oracle:
//! same stdout, same cost counters, same memory stats, same simulated time
//! and — load-bearing, because `omp_get_wtime` derives its reading from the
//! step counter — the same step count at every observation point. The
//! differential suite in the workspace root pins this.
//!
//! Compilation is cheap (one AST walk): the pipeline lowers a program once
//! per run it cannot answer from its report memo. A `CompiledProgram` owns
//! all of its data (no borrow of the AST).
//!
//! A kernel body or region body made only of straight-line arithmetic,
//! branches and indexed loads and stores is also marked for [`lockstep`]
//! execution: the VM then runs a block's threads, or a chunk's iterations,
//! one instruction at a time over all of them.

pub mod compiler;
pub mod instr;
pub mod lockstep;
pub mod vm;

pub use compiler::compile;
pub use instr::{FlowKind, Instr, MathFn, Reg, SpecialIdent};
pub use vm::{run_compiled, run_compiled_with_memory, Vm};

use lassi_lang::{OmpDirective, ReductionOp, Type};

use crate::value::Value;
use lockstep::LockstepUnit;

/// A program lowered to register bytecode. Fully owned: it borrows nothing
/// from the AST it was lowered from.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The single flat instruction stream. Units (functions, kernel segments,
    /// region bodies, shared-length expressions) are pc ranges ending in
    /// `Ret`/`EndUnit`.
    pub code: Vec<Instr>,
    /// The source line of every instruction, indexed by pc: the line of the
    /// innermost enclosing statement that has one, 0 outside every
    /// statement. Errors read the failing instruction's entry.
    pub lines: Vec<u32>,
    /// Constant pool (`Const` and the literal operands of the `...K`
    /// operator forms).
    pub consts: Vec<Value>,
    /// Name pool: identifiers, precomputed diagnostic messages and string
    /// literal texts (the table [`Value::Str`] indexes).
    pub names: Vec<String>,
    /// Type pool (`StoreVar`/`RmwVar`/`CastScalar`/... operands).
    pub types: Vec<Type>,
    /// Callable (non-kernel) functions.
    pub funcs: Vec<CompiledFunction>,
    /// Launchable functions (`__global__` kernels plus anything named in a
    /// launch statement), compiled as barrier-delimited segments.
    pub kernels: Vec<CompiledKernel>,
    /// OpenMP work-sharing regions, one per pragma site.
    pub regions: Vec<CompiledRegion>,
    /// The host entry unit (`main` with `arg{i}` bindings), if `main` exists.
    pub host: Option<HostUnit>,
}

/// The host entry point: `main`'s body compiled with the runtime-argument
/// bindings of the interpreter convention in an enclosing scope.
#[derive(Debug, Clone)]
pub struct HostUnit {
    /// Entry pc.
    pub entry: u32,
    /// Frame size in slots.
    pub nslots: u32,
    /// Number of `arg{i}` bindings compiled in (slots `0..argc`).
    pub argc: usize,
}

/// A compiled callable function.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Function name (diagnostics).
    pub name: String,
    /// Entry pc.
    pub entry: u32,
    /// Frame size in slots; parameters occupy slots `0..params.len()`.
    pub nslots: u32,
    /// Parameter types, for call-site coercion.
    pub params: Vec<Type>,
    /// Return type: `Return(v)` coerces to it, falling off returns its zero.
    pub ret: Type,
}

/// How a `__shared__` array's per-block length is determined.
#[derive(Debug, Clone)]
pub enum SharedLen {
    /// Literal length (1 when no length is given).
    Lit(i64),
    /// Arbitrary expression, compiled as a mini-unit evaluated with only the
    /// kernel parameters in scope (host context, small step budget) — the
    /// same throwaway evaluation the interpreter performs.
    Dynamic {
        /// Entry pc of the expression unit (ends in `Ret`).
        entry: u32,
        /// Frame size of the expression unit.
        nslots: u32,
    },
}

/// One top-level `__shared__` declaration of a kernel.
#[derive(Debug, Clone)]
pub struct CompiledShared {
    /// Buffer name.
    pub name: String,
    /// Element type.
    pub elem: Type,
    /// Frame slot receiving the pointer in every thread.
    pub slot: Reg,
    /// Per-block length.
    pub len: SharedLen,
}

/// A compiled launchable kernel. Parameters occupy slots `0..params.len()`,
/// shared-memory pointers the slots recorded in `shared`; each thread keeps
/// one frame alive across all segments.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Kernel name (diagnostics).
    pub name: String,
    /// Parameter types, for argument coercion.
    pub params: Vec<Type>,
    /// Top-level `__shared__` declarations.
    pub shared: Vec<CompiledShared>,
    /// Entry pcs of the barrier-delimited segments, in execution order.
    /// Every thread of a block finishes segment `k` before any starts `k+1`.
    pub segments: Vec<u32>,
    /// Frame size in slots.
    pub nslots: u32,
    /// Set when the kernel has one segment that can run a block's threads
    /// in lockstep.
    pub lockstep: Option<LockstepUnit>,
}

/// One reduction variable of a work-sharing region.
#[derive(Debug, Clone)]
pub struct CompiledReduction {
    /// Reduction operator.
    pub op: ReductionOp,
    /// The variable's binding type in the enclosing scope (`double` when the
    /// variable was unbound there), which selects the identity element.
    pub ty: Type,
    /// Region slot seeded with the identity before the chunk runs. Equals the
    /// variable's capture slot when it was bound in the enclosing scope.
    pub init_slot: Reg,
    /// Whether the identity store goes through the binding-type coercion
    /// (`env.set` semantics); false when the interpreter would `declare` the
    /// variable fresh.
    pub init_coerce: bool,
    /// Region slot read back after the chunk (resolved after the loop
    /// variable, which may shadow the reduction variable by name).
    pub read_slot: Reg,
    /// Where the combined value lands in the caller's frame: the caller
    /// slot and its binding type, or `None` when the name was unbound at the
    /// pragma site (the value is then dropped, matching the interpreter's
    /// ignored `env.set` failure).
    pub update: Option<(Reg, Type)>,
}

/// A compiled work-sharing region (`parallel for` / offload variant).
///
/// Invariant: region slots `0..captures.len()` hold the captured enclosing
/// bindings, in `captures` order — the caller snapshots `captures[i]` from
/// its own frame into region slot `i`.
#[derive(Debug, Clone)]
pub struct CompiledRegion {
    /// The directive with its clauses (drives the cost model, exactly as in
    /// the interpreter path).
    pub directive: OmpDirective,
    /// Entry pc of the loop-body unit (one execution per iteration).
    pub body_entry: u32,
    /// Frame size in slots.
    pub nslots: u32,
    /// Caller-frame slots to snapshot, in region-slot order.
    pub captures: Vec<Reg>,
    /// Region slot of the loop variable, written before every iteration.
    pub loop_var_slot: Reg,
    /// Reduction bookkeeping.
    pub reductions: Vec<CompiledReduction>,
    /// Set when the body can run a chunk's iterations in lockstep.
    pub lockstep: Option<LockstepUnit>,
}

impl CompiledProgram {
    /// Name-pool lookup.
    #[inline]
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Type-pool lookup.
    #[inline]
    pub fn ty(&self, id: u32) -> &Type {
        &self.types[id as usize]
    }
}
