//! The AST-level CUDA ↔ OpenMP translation engine.
//!
//! This is the "competent core" of the simulated LLM: given a parsed ParC
//! program in one dialect it produces an equivalent program in the other
//! dialect, using the same strategies a careful human (or a good model) uses:
//!
//! * **CUDA → OpenMP**: each `kernel<<<grid, block>>>(...)` launch becomes a
//!   `#pragma omp target teams distribute parallel for` loop over the guarded
//!   index range, with `map` clauses derived from how each buffer is used;
//!   `cudaMalloc`/`cudaMemcpy`/`cudaFree` become `malloc`/`memcpy`/`free`;
//!   `atomicAdd` becomes `#pragma omp atomic`.
//! * **OpenMP → CUDA**: each work-sharing loop is outlined into a fresh
//!   `__global__` kernel; mapped buffers get `cudaMalloc`/`cudaMemcpy`
//!   staging, reductions are rewritten to `atomicAdd` on a staged scalar, and
//!   the launch uses the conventional `(N + 255) / 256 × 256` geometry.
//!
//! Programs that fall outside the supported patterns produce a
//! [`TranslationError`]; the simulated LLM turns those into the kinds of
//! unrecoverable failures the paper reports as N/A.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;

use lassi_lang::{
    AssignOp, BinOp, Block, Dialect, Expr, FnQualifier, ForStmt, Function, Item, KernelLaunch,
    MapKind, MapSection, OmpClause, OmpDirective, OmpDirectiveKind, Param, PragmaStmt, Program,
    ReductionOp, ScheduleKind, Stmt, StmtKind, Type, VarDecl,
};

/// Why a translation could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslationError {
    /// The construct is outside the supported translation patterns.
    Unsupported(String),
}

impl fmt::Display for TranslationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslationError::Unsupported(msg) => write!(f, "unsupported construct: {msg}"),
        }
    }
}

impl std::error::Error for TranslationError {}

/// Translate `program` into `target` dialect.
pub fn translate_program(program: &Program, target: Dialect) -> Result<Program, TranslationError> {
    if program.dialect == target {
        return Ok(program.clone());
    }
    match (program.dialect, target) {
        (Dialect::CudaLite, Dialect::OmpLite) => cuda_to_omp(program),
        (Dialect::OmpLite, Dialect::CudaLite) => omp_to_cuda(program),
        _ => unreachable!("dialects are a two-element set"),
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// `expr` with every identifier that `map` names replaced by its image.
fn subst_idents(expr: &Expr, map: &HashMap<String, Expr>) -> Expr {
    expr.rebuild(&mut |e| match e {
        Expr::Ident(name) => map.get(name).cloned(),
        _ => None,
    })
}

/// Extract `X` from a byte-size expression of the form `X * sizeof(T)` or
/// `sizeof(T) * X`; otherwise return `bytes / sizeof(elem)`.
fn element_count_from_bytes(bytes: &Expr, elem: &Type) -> Expr {
    match bytes {
        Expr::Binary {
            op: BinOp::Mul,
            lhs,
            rhs,
        } => {
            if matches!(rhs.as_ref(), Expr::Sizeof(_)) {
                return lhs.as_ref().clone();
            }
            if matches!(lhs.as_ref(), Expr::Sizeof(_)) {
                return rhs.as_ref().clone();
            }
            Expr::bin(BinOp::Div, bytes.clone(), Expr::Sizeof(elem.clone()))
        }
        Expr::Sizeof(_) => Expr::int(1),
        other => Expr::bin(BinOp::Div, other.clone(), Expr::Sizeof(elem.clone())),
    }
}

/// Names written through a subscript (`x[i] = ...`, `x[i] += ...`,
/// `atomicAdd(x ...)`) anywhere in a block.
fn written_pointers(block: &Block) -> Vec<String> {
    fn base_name(e: &Expr) -> Option<String> {
        match e {
            Expr::Ident(n) => Some(n.clone()),
            Expr::Index { base, .. } => base_name(base),
            Expr::Binary { lhs, .. } => base_name(lhs),
            Expr::Unary { operand, .. } => base_name(operand),
            _ => None,
        }
    }
    let mut out = Vec::new();
    block.walk(&mut |s| {
        let written = match &s.kind {
            StmtKind::Assign {
                target: Expr::Index { base, .. },
                ..
            } => Some(base.as_ref()),
            StmtKind::Expr(Expr::Call { callee, args }) if callee.starts_with("atomic") => {
                args.first()
            }
            _ => None,
        };
        out.extend(written.and_then(base_name));
    });
    out
}

/// Declared variable types of a function, parameters first and then every
/// declaration in source order, a later one of a name winning (flat view;
/// good enough for the benchmark programs, which declare everything in
/// `main`'s scope).
fn scan_types(func: &Function) -> HashMap<String, Type> {
    let mut out: HashMap<String, Type> = func
        .params
        .iter()
        .map(|p| (p.name.clone(), p.ty.clone()))
        .collect();
    func.body.walk(&mut |s| {
        if let StmtKind::VarDecl(d) = &s.kind {
            let ty = if d.array_len.is_some() {
                d.ty.clone().ptr()
            } else {
                d.ty.clone()
            };
            out.insert(d.name.clone(), ty);
        }
    });
    out
}

/// The element count of the first allocation bound to `name` inside a block
/// (from `T* name = (T*)malloc(X * sizeof(T))`, `name = (T*)malloc(...)`, or
/// `T name[X]` declarations).
fn find_allocation_count(block: &Block, name: &str, elem: &Type) -> Option<Expr> {
    fn from_init(init: &Expr, elem: &Type) -> Option<Expr> {
        match init {
            Expr::Cast { expr, .. } => from_init(expr, elem),
            Expr::Call { callee, args } if callee == "malloc" => {
                args.first().map(|b| element_count_from_bytes(b, elem))
            }
            _ => None,
        }
    }
    let mut found = None;
    block.walk(&mut |s| {
        if found.is_some() {
            return;
        }
        found = match &s.kind {
            StmtKind::VarDecl(d) if d.name == name => d
                .array_len
                .clone()
                .or_else(|| d.init.as_ref().and_then(|init| from_init(init, elem))),
            StmtKind::Assign {
                target: Expr::Ident(n),
                value,
                ..
            } if n == name => from_init(value, elem),
            _ => None,
        };
    });
    found
}

/// The pointer name and byte count of a `cudaMalloc(&name, bytes)` call.
fn cuda_malloc_target(call: &Expr) -> Option<(&String, &Expr)> {
    let Expr::Call { callee, args } = call else {
        return None;
    };
    match (callee.as_str(), args.first(), args.get(1)) {
        ("cudaMalloc", Some(Expr::Unary { operand, .. }), Some(bytes)) => match operand.as_ref() {
            Expr::Ident(name) => Some((name, bytes)),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// CUDA → OpenMP
// ---------------------------------------------------------------------------

struct CudaToOmp<'p> {
    program: &'p Program,
    /// Device pointer name → byte-size expression from its `cudaMalloc`.
    device_allocs: HashMap<String, Expr>,
    /// Declared types inside `main`.
    types: HashMap<String, Type>,
}

fn cuda_to_omp(program: &Program) -> Result<Program, TranslationError> {
    let main = program
        .main()
        .ok_or_else(|| TranslationError::Unsupported("program has no main function".into()))?;

    let ctx = CudaToOmp {
        program,
        device_allocs: scan_cuda_mallocs(&main.body),
        types: scan_types(main),
    };

    let mut out = Program::new(Dialect::OmpLite);
    for item in &program.items {
        let f = item.as_function();
        match f.qualifier {
            FnQualifier::Kernel => {} // kernels are inlined at their launch sites
            FnQualifier::Device => {
                // Device helpers become ordinary host functions.
                let mut host = f.clone();
                host.qualifier = FnQualifier::Host;
                out.items.push(Item::Function(host));
            }
            FnQualifier::Host => {
                let mut new_fn = f.clone();
                if f.name == "main" {
                    new_fn.body = ctx.rewrite_host_block(&f.body)?;
                }
                out.items.push(Item::Function(new_fn));
            }
        }
    }
    Ok(out)
}

/// Device pointer name → byte count of its last `cudaMalloc` in a block.
fn scan_cuda_mallocs(block: &Block) -> HashMap<String, Expr> {
    let mut out = HashMap::new();
    block.walk(&mut |s| {
        if let StmtKind::Expr(call) = &s.kind {
            if let Some((name, bytes)) = cuda_malloc_target(call) {
                out.insert(name.clone(), bytes.clone());
            }
        }
    });
    out
}

impl<'p> CudaToOmp<'p> {
    fn rewrite_host_block(&self, block: &Block) -> Result<Block, TranslationError> {
        let mut stmts = Vec::with_capacity(block.stmts.len());
        for stmt in &block.stmts {
            stmts.extend(self.rewrite_host_stmt(stmt)?);
        }
        Ok(Block { stmts })
    }

    /// The OpenMP host statement replacing `stmt`, if any.
    fn rewrite_host_stmt(&self, stmt: &Stmt) -> Result<Option<Stmt>, TranslationError> {
        let call = |callee: &str, args: Vec<Expr>| {
            Some(Stmt::new(
                StmtKind::Expr(Expr::call(callee, args)),
                stmt.line,
            ))
        };
        Ok(match &stmt.kind {
            // dim3 declarations have no OpenMP equivalent; launch geometry is
            // recomputed from the guard bound.
            StmtKind::VarDecl(d) if d.ty == Type::Dim3 => None,
            StmtKind::Expr(cuda @ Expr::Call { callee, args }) => match callee.as_str() {
                "cudaDeviceSynchronize" => None,
                // float* d_x; cudaMalloc(&d_x, B)  →  d_x = (float*)malloc(B);
                "cudaMalloc" => cuda_malloc_target(cuda).map(|(name, bytes)| {
                    let ptr_ty = self
                        .types
                        .get(name)
                        .cloned()
                        .unwrap_or_else(|| Type::Double.ptr());
                    Stmt::new(
                        StmtKind::Assign {
                            target: Expr::ident(name.clone()),
                            op: AssignOp::Assign,
                            value: Expr::Cast {
                                ty: ptr_ty,
                                expr: Box::new(Expr::call("malloc", vec![bytes.clone()])),
                            },
                        },
                        stmt.line,
                    )
                }),
                // Becomes a host memcpy (keeps functional equivalence).
                "cudaMemcpy" => call("memcpy", args.iter().take(3).cloned().collect()),
                "cudaMemset" => call("memset", args.clone()),
                "cudaFree" => call("free", args.clone()),
                _ => Some(stmt.clone()),
            },
            StmtKind::KernelLaunch(launch) => Some(self.launch_to_pragma(launch, stmt.line)?),
            _ => Some(stmt.rebuild(&mut Expr::clone, &mut |b| self.rewrite_host_block(b))?),
        })
    }

    /// Turn `kernel<<<grid, block>>>(args)` into a `target teams distribute
    /// parallel for` loop (or a nested pair with `collapse(2)`).
    fn launch_to_pragma(&self, launch: &KernelLaunch, line: u32) -> Result<Stmt, TranslationError> {
        let kernel = self.program.function(&launch.kernel).ok_or_else(|| {
            TranslationError::Unsupported(format!("launch of unknown kernel '{}'", launch.kernel))
        })?;
        if kernel.params.len() != launch.args.len() {
            return Err(TranslationError::Unsupported(format!(
                "kernel '{}' launch arity mismatch",
                launch.kernel
            )));
        }

        // Substitution: kernel parameter name → actual argument expression.
        let mut subst: HashMap<String, Expr> = HashMap::new();
        for (param, arg) in kernel.params.iter().zip(&launch.args) {
            subst.insert(param.name.clone(), arg.clone());
        }

        // Recognise the canonical kernel shape:
        //   int i = blockIdx.x * blockDim.x + threadIdx.x;
        //   [int j = blockIdx.y * blockDim.y + threadIdx.y;]
        //   if (i < n [&& j < m]) { body }
        let mut index_vars: Vec<(String, char)> = Vec::new();
        let mut rest: Vec<&Stmt> = Vec::new();
        for s in &kernel.body.stmts {
            if let StmtKind::VarDecl(d) = &s.kind {
                if let Some(init) = &d.init {
                    if let Some(dim) = global_index_dimension(init) {
                        index_vars.push((d.name.clone(), dim));
                        continue;
                    }
                }
            }
            rest.push(s);
        }
        if index_vars.is_empty() {
            return Err(TranslationError::Unsupported(format!(
                "kernel '{}' does not compute a global thread index",
                launch.kernel
            )));
        }

        // The guard provides the loop bounds.
        let (bounds, inner_body) = extract_guard(&rest, &index_vars).ok_or_else(|| {
            TranslationError::Unsupported(format!(
                "kernel '{}' does not guard its global index against the problem size",
                launch.kernel
            ))
        })?;

        // Rewrite the loop body: substitute arguments, convert atomics.
        let body = rewrite_atomics_to_omp(&inner_body, &subst);

        // Build the loop nest (innermost first).
        let mut loop_stmt: Option<Stmt> = None;
        for (k, (var, _dim)) in index_vars.iter().enumerate().rev() {
            let bound = subst_idents(&bounds[k], &subst);
            let inner_block = match loop_stmt.take() {
                Some(s) => Block::from_stmts(vec![s]),
                None => body.clone(),
            };
            let for_stmt = ForStmt {
                init: Some(Box::new(Stmt::synth(StmtKind::VarDecl(VarDecl::scalar(
                    var.clone(),
                    Type::Int,
                    Some(Expr::int(0)),
                ))))),
                cond: Some(Expr::bin(BinOp::Lt, Expr::ident(var.clone()), bound)),
                step: Some(Box::new(Stmt::synth(StmtKind::Assign {
                    target: Expr::ident(var.clone()),
                    op: AssignOp::AddAssign,
                    value: Expr::int(1),
                }))),
                body: inner_block,
            };
            loop_stmt = Some(Stmt::synth(StmtKind::For(for_stmt)));
        }
        let loop_stmt = loop_stmt.expect("at least one index var");

        // Map clauses from buffer usage.
        let written = written_pointers(&body);
        let mut clauses: Vec<OmpClause> = Vec::new();
        let mut mapped: Vec<String> = Vec::new();
        for (param, arg) in kernel.params.iter().zip(&launch.args) {
            if !matches!(param.ty, Type::Ptr(_)) {
                continue;
            }
            let Expr::Ident(arg_name) = arg else { continue };
            if mapped.contains(arg_name) {
                continue;
            }
            mapped.push(arg_name.clone());
            let elem = param.ty.pointee().cloned().unwrap_or(Type::Double);
            let len = self
                .device_allocs
                .get(arg_name)
                .map(|bytes| element_count_from_bytes(bytes, &elem))
                .unwrap_or_else(|| Expr::int(1));
            let is_written = written.contains(&param.name) || written.contains(arg_name);
            let kind = if is_written {
                MapKind::ToFrom
            } else {
                MapKind::To
            };
            clauses.push(OmpClause::Map {
                kind,
                sections: vec![MapSection {
                    var: arg_name.clone(),
                    lower: Some(Expr::int(0)),
                    len: Some(len),
                }],
            });
        }
        if index_vars.len() > 1 {
            clauses.push(OmpClause::Collapse(index_vars.len() as u32));
        }
        // Preserve the original block size as a thread_limit hint when it is a
        // literal; this is what the original HeCBench OpenMP codes do and it
        // is what the Codestral `bsearch` fault later drops.
        if let Expr::IntLit(threads) = &launch.block {
            clauses.push(OmpClause::ThreadLimit(Expr::int(*threads)));
        }
        clauses.push(OmpClause::Schedule {
            kind: ScheduleKind::Static,
            chunk: None,
        });

        Ok(Stmt::new(
            StmtKind::Pragma(PragmaStmt {
                directive: OmpDirective {
                    kind: OmpDirectiveKind::TargetTeamsDistributeParallelFor,
                    clauses,
                },
                body: Some(Box::new(loop_stmt)),
            }),
            line,
        ))
    }
}

/// Recognise `blockIdx.D * blockDim.D + threadIdx.D` (any operand order) and
/// return the dimension letter.
fn global_index_dimension(e: &Expr) -> Option<char> {
    fn member_dim(e: &Expr, base: &str) -> Option<char> {
        if let Expr::Member { base: b, field } = e {
            if let Expr::Ident(name) = b.as_ref() {
                if name == base {
                    return field.chars().next();
                }
            }
        }
        None
    }
    if let Expr::Binary {
        op: BinOp::Add,
        lhs,
        rhs,
    } = e
    {
        let (mul, tid) = if matches!(lhs.as_ref(), Expr::Binary { op: BinOp::Mul, .. }) {
            (lhs.as_ref(), rhs.as_ref())
        } else {
            (rhs.as_ref(), lhs.as_ref())
        };
        let tid_dim = member_dim(tid, "threadIdx")?;
        if let Expr::Binary {
            op: BinOp::Mul,
            lhs: a,
            rhs: b,
        } = mul
        {
            let has_block_idx =
                member_dim(a, "blockIdx").is_some() || member_dim(b, "blockIdx").is_some();
            let has_block_dim =
                member_dim(a, "blockDim").is_some() || member_dim(b, "blockDim").is_some();
            if has_block_idx && has_block_dim {
                return Some(tid_dim);
            }
        }
    }
    None
}

/// Extract guard bounds for the index variables from the remaining kernel
/// statements. Returns (bounds per index var, guarded body).
fn extract_guard(rest: &[&Stmt], index_vars: &[(String, char)]) -> Option<(Vec<Expr>, Block)> {
    // The guard must be the first remaining statement: if (i < n && j < m) { ... }
    let first = rest.first()?;
    let StmtKind::If {
        cond,
        then_branch,
        else_branch,
    } = &first.kind
    else {
        return None;
    };
    if else_branch.is_some() {
        return None;
    }
    let mut bounds: Vec<Option<Expr>> = vec![None; index_vars.len()];
    let mut conjuncts = Vec::new();
    flatten_and(cond, &mut conjuncts);
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Lt,
            lhs,
            rhs,
        } = c
        {
            if let Expr::Ident(name) = lhs.as_ref() {
                if let Some(pos) = index_vars.iter().position(|(v, _)| v == name) {
                    bounds[pos] = Some(rhs.as_ref().clone());
                }
            }
        }
    }
    let bounds: Option<Vec<Expr>> = bounds.into_iter().collect();
    let mut body = then_branch.clone();
    // Any trailing statements after the guard are appended to the body.
    for s in rest.iter().skip(1) {
        body.stmts.push((*s).clone());
    }
    Some((bounds?, body))
}

fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        lhs,
        rhs,
    } = e
    {
        flatten_and(lhs, out);
        flatten_and(rhs, out);
    } else {
        out.push(e);
    }
}

/// Substitute kernel arguments for parameters (`args_of`) and convert
/// `atomicAdd(p, v)` / `atomicAdd(p + i, v)` calls into `#pragma omp atomic`
/// updates.
fn rewrite_atomics_to_omp(block: &Block, args_of: &HashMap<String, Expr>) -> Block {
    let stmts = block
        .stmts
        .iter()
        .map(|stmt| match &stmt.kind {
            StmtKind::Expr(Expr::Call { callee, args })
                if callee == "atomicAdd" && args.len() == 2 =>
            {
                let (base, index) = match subst_idents(&args[0], args_of) {
                    Expr::Binary {
                        op: BinOp::Add,
                        lhs,
                        rhs,
                    } => (*lhs, *rhs),
                    other => (other, Expr::int(0)),
                };
                let update = Stmt::synth(StmtKind::Assign {
                    target: Expr::index(base, index),
                    op: AssignOp::AddAssign,
                    value: subst_idents(&args[1], args_of),
                });
                Stmt::new(
                    StmtKind::Pragma(PragmaStmt {
                        directive: OmpDirective::new(OmpDirectiveKind::Atomic),
                        body: Some(Box::new(update)),
                    }),
                    stmt.line,
                )
            }
            _ => {
                let Ok(s) = stmt.rebuild(&mut |e| subst_idents(e, args_of), &mut |b| {
                    Ok::<_, Infallible>(rewrite_atomics_to_omp(b, args_of))
                });
                s
            }
        })
        .collect();
    Block { stmts }
}

// ---------------------------------------------------------------------------
// OpenMP → CUDA
// ---------------------------------------------------------------------------

fn omp_to_cuda(program: &Program) -> Result<Program, TranslationError> {
    let main = program
        .main()
        .ok_or_else(|| TranslationError::Unsupported("program has no main function".into()))?;
    let types = scan_types(main);

    let mut kernels: Vec<Function> = Vec::new();
    let mut counter = 0usize;
    let new_main_body =
        rewrite_omp_block(&main.body, &types, &mut kernels, &mut counter, &main.body)?;

    let mut out = Program::new(Dialect::CudaLite);
    for k in kernels {
        out.items.push(Item::Function(k));
    }
    for item in &program.items {
        let f = item.as_function();
        if f.name == "main" {
            let mut new_main = f.clone();
            new_main.body = new_main_body.clone();
            out.items.push(Item::Function(new_main));
        } else {
            out.items.push(Item::Function(f.clone()));
        }
    }
    Ok(out)
}

fn rewrite_omp_block(
    block: &Block,
    types: &HashMap<String, Type>,
    kernels: &mut Vec<Function>,
    counter: &mut usize,
    main_body: &Block,
) -> Result<Block, TranslationError> {
    let mut stmts = Vec::with_capacity(block.stmts.len());
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Pragma(p) => match p.directive.kind {
                OmpDirectiveKind::TargetData => {
                    // Data residency is handled per-kernel in the CUDA version;
                    // simply translate the region body.
                    if let Some(body) = &p.body {
                        let inner = match &body.kind {
                            StmtKind::Block(b) => {
                                rewrite_omp_block(b, types, kernels, counter, main_body)?
                            }
                            _ => rewrite_omp_block(
                                &Block::from_stmts(vec![(**body).clone()]),
                                types,
                                kernels,
                                counter,
                                main_body,
                            )?,
                        };
                        stmts.push(Stmt::new(StmtKind::Block(inner), stmt.line));
                    }
                }
                OmpDirectiveKind::Barrier => {}
                OmpDirectiveKind::Atomic => {
                    // A bare atomic outside a parallel region is just the update.
                    if let Some(body) = &p.body {
                        stmts.push((**body).clone());
                    }
                }
                OmpDirectiveKind::ParallelFor
                | OmpDirectiveKind::TargetTeamsDistributeParallelFor => {
                    outline_loop_to_kernel(
                        p, stmt.line, types, kernels, counter, main_body, &mut stmts,
                    )?;
                }
            },
            _ => stmts.push(stmt.rebuild(&mut Expr::clone, &mut |b| {
                rewrite_omp_block(b, types, kernels, counter, main_body)
            })?),
        }
    }
    Ok(Block { stmts })
}

#[allow(clippy::too_many_arguments)]
fn outline_loop_to_kernel(
    pragma: &PragmaStmt,
    line: u32,
    types: &HashMap<String, Type>,
    kernels: &mut Vec<Function>,
    counter: &mut usize,
    main_body: &Block,
    out: &mut Vec<Stmt>,
) -> Result<(), TranslationError> {
    let Some(body_stmt) = pragma.body.as_deref() else {
        return Err(TranslationError::Unsupported(
            "work-sharing pragma without a loop".into(),
        ));
    };
    let StmtKind::For(for_stmt) = &body_stmt.kind else {
        return Err(TranslationError::Unsupported(
            "work-sharing pragma not followed by a for loop".into(),
        ));
    };
    let Some((loop_var, lo, hi, step)) = for_stmt.canonical() else {
        return Err(TranslationError::Unsupported(
            "loop is not in canonical form".into(),
        ));
    };
    if lo != Expr::int(0) || step != Expr::int(1) {
        return Err(TranslationError::Unsupported(
            "only loops starting at 0 with unit step are outlined".into(),
        ));
    }

    let kernel_index = *counter;
    *counter += 1;
    let kernel_name = format!("lassi_kernel_{kernel_index}");

    // Free variables of the loop body.
    let mut used = Vec::new();
    let mut ident = |e: &Expr| {
        if let Expr::Ident(name) = e {
            used.push(name.clone());
        }
    };
    for_stmt
        .body
        .walk(&mut |s| s.exprs(&mut |e| e.walk(&mut ident)));
    hi.walk(&mut ident);
    let mut declared = vec![loop_var.clone()];
    for_stmt.body.walk(&mut |s| {
        if let StmtKind::VarDecl(d) = &s.kind {
            declared.push(d.name.clone());
        }
    });
    let mut free: Vec<String> = Vec::new();
    for name in used {
        if declared.contains(&name) || free.contains(&name) {
            continue;
        }
        if types.contains_key(&name) {
            free.push(name);
        }
    }

    // Reduction variables.
    let reduction = pragma.directive.reduction();
    let reduction_vars: Vec<String> = reduction.map(|(_, v)| v.clone()).unwrap_or_default();
    if let Some((op, _)) = reduction {
        if op != ReductionOp::Add {
            return Err(TranslationError::Unsupported(format!(
                "reduction operator '{}' is not supported by the CUDA translation",
                op.spelling()
            )));
        }
    }

    // Map-section lengths, used to size the device buffers.
    let mut map_lens: HashMap<String, Expr> = HashMap::new();
    for (_, sections) in pragma.directive.map_clauses() {
        for s in sections {
            if let Some(len) = &s.len {
                map_lens.insert(s.var.clone(), len.clone());
            }
        }
    }

    // Partition the free variables.
    let mut pointer_vars: Vec<(String, Type)> = Vec::new();
    let mut scalar_vars: Vec<(String, Type)> = Vec::new();
    for name in &free {
        let ty = types.get(name).cloned().unwrap_or(Type::Long);
        if reduction_vars.contains(name) {
            continue;
        }
        match ty {
            Type::Ptr(_) => pointer_vars.push((name.clone(), ty)),
            _ => scalar_vars.push((name.clone(), ty)),
        }
    }

    // Which pointers are written (→ copy back after the kernel).
    let written = written_pointers(&for_stmt.body);

    // ---------------------------------------------------------------- kernel
    let mut kernel_params: Vec<Param> = Vec::new();
    let mut launch_args: Vec<Expr> = Vec::new();
    let mut staging: Vec<Stmt> = Vec::new();
    let mut teardown: Vec<Stmt> = Vec::new();

    for (name, ty) in &pointer_vars {
        let elem = ty.pointee().cloned().unwrap_or(Type::Double);
        let dev_name = format!("d{kernel_index}_{name}");
        let count = map_lens
            .get(name)
            .cloned()
            .or_else(|| find_allocation_count(main_body, name, &elem))
            .unwrap_or_else(|| hi.clone());
        let bytes = Expr::bin(BinOp::Mul, count, Expr::Sizeof(elem.clone()));
        staging.push(Stmt::synth(StmtKind::VarDecl(VarDecl::scalar(
            dev_name.clone(),
            ty.clone(),
            None,
        ))));
        staging.push(Stmt::synth(StmtKind::Expr(Expr::call(
            "cudaMalloc",
            vec![
                Expr::Unary {
                    op: lassi_lang::UnOp::AddrOf,
                    operand: Box::new(Expr::ident(dev_name.clone())),
                },
                bytes.clone(),
            ],
        ))));
        staging.push(Stmt::synth(StmtKind::Expr(Expr::call(
            "cudaMemcpy",
            vec![
                Expr::ident(dev_name.clone()),
                Expr::ident(name.clone()),
                bytes.clone(),
                Expr::ident("cudaMemcpyHostToDevice"),
            ],
        ))));
        if written.contains(name) {
            teardown.push(Stmt::synth(StmtKind::Expr(Expr::call(
                "cudaMemcpy",
                vec![
                    Expr::ident(name.clone()),
                    Expr::ident(dev_name.clone()),
                    bytes,
                    Expr::ident("cudaMemcpyDeviceToHost"),
                ],
            ))));
        }
        teardown.push(Stmt::synth(StmtKind::Expr(Expr::call(
            "cudaFree",
            vec![Expr::ident(dev_name.clone())],
        ))));
        kernel_params.push(Param::new(name.clone(), ty.clone()));
        launch_args.push(Expr::ident(dev_name));
    }

    for (name, ty) in &scalar_vars {
        kernel_params.push(Param::new(name.clone(), ty.clone()));
        launch_args.push(Expr::ident(name.clone()));
    }

    // Reduction scalars are staged through a one-element device buffer.
    let mut body_subst: HashMap<String, Expr> = HashMap::new();
    for var in &reduction_vars {
        let ty = types.get(var).cloned().unwrap_or(Type::Double);
        let red_param = format!("{var}_red");
        let host_stage = format!("h{kernel_index}_{var}");
        let dev_stage = format!("d{kernel_index}_{var}");
        let bytes = Expr::Sizeof(ty.clone());
        staging.push(Stmt::synth(StmtKind::VarDecl(VarDecl::scalar(
            host_stage.clone(),
            ty.clone().ptr(),
            Some(Expr::Cast {
                ty: ty.clone().ptr(),
                expr: Box::new(Expr::call("malloc", vec![bytes.clone()])),
            }),
        ))));
        staging.push(Stmt::synth(StmtKind::Assign {
            target: Expr::index(Expr::ident(host_stage.clone()), Expr::int(0)),
            op: AssignOp::Assign,
            value: Expr::ident(var.clone()),
        }));
        staging.push(Stmt::synth(StmtKind::VarDecl(VarDecl::scalar(
            dev_stage.clone(),
            ty.clone().ptr(),
            None,
        ))));
        staging.push(Stmt::synth(StmtKind::Expr(Expr::call(
            "cudaMalloc",
            vec![
                Expr::Unary {
                    op: lassi_lang::UnOp::AddrOf,
                    operand: Box::new(Expr::ident(dev_stage.clone())),
                },
                bytes.clone(),
            ],
        ))));
        staging.push(Stmt::synth(StmtKind::Expr(Expr::call(
            "cudaMemcpy",
            vec![
                Expr::ident(dev_stage.clone()),
                Expr::ident(host_stage.clone()),
                bytes.clone(),
                Expr::ident("cudaMemcpyHostToDevice"),
            ],
        ))));
        teardown.push(Stmt::synth(StmtKind::Expr(Expr::call(
            "cudaMemcpy",
            vec![
                Expr::ident(host_stage.clone()),
                Expr::ident(dev_stage.clone()),
                bytes,
                Expr::ident("cudaMemcpyDeviceToHost"),
            ],
        ))));
        teardown.push(Stmt::synth(StmtKind::Assign {
            target: Expr::ident(var.clone()),
            op: AssignOp::Assign,
            value: Expr::index(Expr::ident(host_stage.clone()), Expr::int(0)),
        }));
        teardown.push(Stmt::synth(StmtKind::Expr(Expr::call(
            "cudaFree",
            vec![Expr::ident(dev_stage.clone())],
        ))));
        teardown.push(Stmt::synth(StmtKind::Expr(Expr::call(
            "free",
            vec![Expr::ident(host_stage.clone())],
        ))));

        kernel_params.push(Param::new(red_param.clone(), ty.clone().ptr()));
        launch_args.push(Expr::ident(dev_stage));
        body_subst.insert(var.clone(), Expr::ident(red_param));
    }

    // Bound parameter: reuse an existing scalar when the bound is already a
    // free scalar variable; otherwise add a dedicated parameter.
    let bound_expr_in_kernel: Expr = match &hi {
        Expr::Ident(name) if scalar_vars.iter().any(|(n, _)| n == name) => {
            Expr::ident(name.clone())
        }
        Expr::IntLit(v) => Expr::int(*v),
        other => {
            kernel_params.push(Param::new("lassi_bound", Type::Int));
            launch_args.push(other.clone());
            Expr::ident("lassi_bound")
        }
    };

    // Kernel body: global index + guard + rewritten loop body.
    let rewritten_body = rewrite_omp_body_for_device(&for_stmt.body, &body_subst, &reduction_vars);
    let index_decl = Stmt::synth(StmtKind::VarDecl(VarDecl::scalar(
        loop_var.clone(),
        Type::Int,
        Some(Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Mul,
                Expr::member(Expr::ident("blockIdx"), "x"),
                Expr::member(Expr::ident("blockDim"), "x"),
            ),
            Expr::member(Expr::ident("threadIdx"), "x"),
        )),
    )));
    let guard = Stmt::synth(StmtKind::If {
        cond: Expr::bin(
            BinOp::Lt,
            Expr::ident(loop_var.clone()),
            bound_expr_in_kernel,
        ),
        then_branch: rewritten_body,
        else_branch: None,
    });
    kernels.push(Function {
        name: kernel_name.clone(),
        qualifier: FnQualifier::Kernel,
        ret: Type::Void,
        params: kernel_params,
        body: Block::from_stmts(vec![index_decl, guard]),
        line: 0,
    });

    // ------------------------------------------------------------ host side
    out.extend(staging);
    let threads = 256i64;
    let grid = Expr::bin(
        BinOp::Div,
        Expr::bin(BinOp::Add, hi.clone(), Expr::int(threads - 1)),
        Expr::int(threads),
    );
    out.push(Stmt::new(
        StmtKind::KernelLaunch(KernelLaunch {
            kernel: kernel_name,
            grid,
            block: Expr::int(threads),
            args: launch_args,
        }),
        line,
    ));
    out.push(Stmt::synth(StmtKind::Expr(Expr::call(
        "cudaDeviceSynchronize",
        vec![],
    ))));
    out.extend(teardown);
    Ok(())
}

/// Rewrite a work-sharing loop body for execution inside a CUDA kernel:
/// reduction updates become `atomicAdd` on the staged pointer and
/// `#pragma omp atomic` updates become `atomicAdd` on the addressed element.
fn rewrite_omp_body_for_device(
    block: &Block,
    subst: &HashMap<String, Expr>,
    reduction_vars: &[String],
) -> Block {
    let stmts = block
        .stmts
        .iter()
        .map(|s| rewrite_device_stmt(s, subst, reduction_vars))
        .collect();
    Block { stmts }
}

fn rewrite_device_stmt(
    stmt: &Stmt,
    subst: &HashMap<String, Expr>,
    reduction_vars: &[String],
) -> Stmt {
    match &stmt.kind {
        // sum += expr  (sum being a reduction variable)  →  atomicAdd(sum_red, expr)
        StmtKind::Assign {
            target: Expr::Ident(name),
            op,
            value,
        } if reduction_vars.contains(name) => {
            let delta = match op {
                AssignOp::AddAssign => subst_idents(value, subst),
                AssignOp::SubAssign => Expr::Unary {
                    op: lassi_lang::UnOp::Neg,
                    operand: Box::new(subst_idents(value, subst)),
                },
                AssignOp::Assign => {
                    // sum = sum + expr
                    match value {
                        Expr::Binary {
                            op: BinOp::Add,
                            lhs,
                            rhs,
                        } => {
                            if matches!(lhs.as_ref(), Expr::Ident(n) if n == name) {
                                subst_idents(rhs, subst)
                            } else if matches!(rhs.as_ref(), Expr::Ident(n) if n == name) {
                                subst_idents(lhs, subst)
                            } else {
                                subst_idents(value, subst)
                            }
                        }
                        _ => subst_idents(value, subst),
                    }
                }
                _ => subst_idents(value, subst),
            };
            let red_ptr = subst
                .get(name)
                .cloned()
                .unwrap_or_else(|| Expr::ident(format!("{name}_red")));
            Stmt::new(
                StmtKind::Expr(Expr::call("atomicAdd", vec![red_ptr, delta])),
                stmt.line,
            )
        }
        // #pragma omp atomic  x[i] += v   →   atomicAdd(x + i, v)
        StmtKind::Pragma(p) if p.directive.kind == OmpDirectiveKind::Atomic => {
            if let Some(body) = &p.body {
                if let StmtKind::Assign {
                    target: Expr::Index { base, index },
                    op,
                    value,
                } = &body.kind
                {
                    let ptr = match index.as_ref() {
                        Expr::IntLit(0) => subst_idents(base, subst),
                        idx => Expr::bin(
                            BinOp::Add,
                            subst_idents(base, subst),
                            subst_idents(idx, subst),
                        ),
                    };
                    let delta = match op {
                        AssignOp::SubAssign => Expr::Unary {
                            op: lassi_lang::UnOp::Neg,
                            operand: Box::new(subst_idents(value, subst)),
                        },
                        _ => subst_idents(value, subst),
                    };
                    return Stmt::new(
                        StmtKind::Expr(Expr::call("atomicAdd", vec![ptr, delta])),
                        stmt.line,
                    );
                }
            }
            stmt.clone()
        }
        _ => {
            let Ok(s) = stmt.rebuild(&mut |e| subst_idents(e, subst), &mut |b| {
                Ok::<_, Infallible>(rewrite_omp_body_for_device(b, subst, reduction_vars))
            });
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lassi_lang::{parse, print_program};

    const CUDA_VADD: &str = r#"
    __global__ void vadd(float* out, const float* a, const float* b, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { out[i] = a[i] + b[i]; }
    }
    int main() {
        int n = 128;
        float* h_a = (float*)malloc(n * sizeof(float));
        float* h_b = (float*)malloc(n * sizeof(float));
        float* h_out = (float*)malloc(n * sizeof(float));
        for (int i = 0; i < n; i++) { h_a[i] = i; h_b[i] = 1.0; }
        float* d_a;
        float* d_b;
        float* d_out;
        cudaMalloc(&d_a, n * sizeof(float));
        cudaMalloc(&d_b, n * sizeof(float));
        cudaMalloc(&d_out, n * sizeof(float));
        cudaMemcpy(d_a, h_a, n * sizeof(float), cudaMemcpyHostToDevice);
        cudaMemcpy(d_b, h_b, n * sizeof(float), cudaMemcpyHostToDevice);
        vadd<<<(n + 255) / 256, 256>>>(d_out, d_a, d_b, n);
        cudaDeviceSynchronize();
        cudaMemcpy(h_out, d_out, n * sizeof(float), cudaMemcpyDeviceToHost);
        double sum = 0.0;
        for (int i = 0; i < n; i++) { sum += h_out[i]; }
        printf("sum %.1f\n", sum);
        cudaFree(d_a);
        cudaFree(d_b);
        cudaFree(d_out);
        free(h_a);
        free(h_b);
        free(h_out);
        return 0;
    }
    "#;

    const OMP_SUM: &str = r#"
    int main() {
        int n = 256;
        double* a = (double*)malloc(n * sizeof(double));
        for (int i = 0; i < n; i++) { a[i] = i * 0.5; }
        double sum = 0.0;
        #pragma omp target teams distribute parallel for map(to: a[0:n]) map(tofrom: sum) reduction(+:sum) thread_limit(256)
        for (int i = 0; i < n; i++) {
            sum += a[i];
        }
        printf("total %.1f\n", sum);
        free(a);
        return 0;
    }
    "#;

    #[test]
    fn cuda_to_omp_produces_compilable_offload_code() {
        let program = parse(CUDA_VADD, Dialect::CudaLite).unwrap();
        let translated = translate_program(&program, Dialect::OmpLite).unwrap();
        let printed = print_program(&translated);
        assert!(printed.contains("#pragma omp target teams distribute parallel for"));
        assert!(printed.contains("map(to:"));
        assert!(printed.contains("map(tofrom: d_out[0:n])"));
        assert!(printed.contains("thread_limit(256)"));
        assert!(!printed.contains("<<<"));
        assert!(!printed.contains("cudaMemcpy"));
        lassi_sema::compile(&translated).unwrap_or_else(|e| panic!("{e:?}\n{printed}"));
    }

    #[test]
    fn omp_to_cuda_produces_compilable_kernel_code() {
        let program = parse(OMP_SUM, Dialect::OmpLite).unwrap();
        let translated = translate_program(&program, Dialect::CudaLite).unwrap();
        let printed = print_program(&translated);
        assert!(printed.contains("__global__ void lassi_kernel_0"));
        assert!(printed.contains("atomicAdd"));
        assert!(printed.contains("cudaMalloc"));
        assert!(printed.contains("cudaMemcpyDeviceToHost"));
        assert!(printed.contains("<<<"));
        assert!(!printed.contains("#pragma"));
        lassi_sema::compile(&translated).unwrap_or_else(|e| panic!("{e:?}\n{printed}"));
    }

    #[test]
    fn same_dialect_translation_is_identity() {
        let program = parse(CUDA_VADD, Dialect::CudaLite).unwrap();
        let same = translate_program(&program, Dialect::CudaLite).unwrap();
        assert_eq!(program, same);
    }

    #[test]
    fn two_dimensional_kernel_gets_collapse() {
        let src = r#"
        __global__ void rotate(float* out, const float* in, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            int j = blockIdx.y * blockDim.y + threadIdx.y;
            if (i < n && j < n) { out[j * n + (n - 1 - i)] = in[i * n + j]; }
        }
        int main() {
            int n = 32;
            float* h = (float*)malloc(n * n * sizeof(float));
            float* d_in;
            float* d_out;
            cudaMalloc(&d_in, n * n * sizeof(float));
            cudaMalloc(&d_out, n * n * sizeof(float));
            cudaMemcpy(d_in, h, n * n * sizeof(float), cudaMemcpyHostToDevice);
            dim3 block(16, 16);
            dim3 grid(2, 2);
            rotate<<<grid, block>>>(d_out, d_in, n);
            cudaMemcpy(h, d_out, n * n * sizeof(float), cudaMemcpyDeviceToHost);
            printf("%f\n", h[0]);
            free(h);
            return 0;
        }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let translated = translate_program(&program, Dialect::OmpLite).unwrap();
        let printed = print_program(&translated);
        assert!(printed.contains("collapse(2)"));
        lassi_sema::compile(&translated).unwrap_or_else(|e| panic!("{e:?}\n{printed}"));
    }

    #[test]
    fn atomic_cuda_kernel_becomes_omp_atomic() {
        let src = r#"
        __global__ void hist(double* bins, const int* data, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { atomicAdd(bins + data[i], 1.0); }
        }
        int main() {
            int n = 64;
            int* h_data = (int*)malloc(n * sizeof(int));
            double* h_bins = (double*)malloc(8 * sizeof(double));
            int* d_data;
            double* d_bins;
            cudaMalloc(&d_data, n * sizeof(int));
            cudaMalloc(&d_bins, 8 * sizeof(double));
            cudaMemcpy(d_data, h_data, n * sizeof(int), cudaMemcpyHostToDevice);
            hist<<<1, 64>>>(d_bins, d_data, n);
            cudaMemcpy(h_bins, d_bins, 8 * sizeof(double), cudaMemcpyDeviceToHost);
            printf("%f\n", h_bins[0]);
            return 0;
        }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let translated = translate_program(&program, Dialect::OmpLite).unwrap();
        let printed = print_program(&translated);
        assert!(printed.contains("#pragma omp atomic"));
        lassi_sema::compile(&translated).unwrap_or_else(|e| panic!("{e:?}\n{printed}"));
    }

    #[test]
    fn unsupported_kernel_shape_is_reported() {
        let src = r#"
        __global__ void weird(float* out) {
            out[0] = 1.0;
        }
        int main() {
            float* d;
            cudaMalloc(&d, 4 * sizeof(float));
            weird<<<1, 1>>>(d);
            return 0;
        }
        "#;
        let program = parse(src, Dialect::CudaLite).unwrap();
        let err = translate_program(&program, Dialect::OmpLite).unwrap_err();
        assert!(matches!(err, TranslationError::Unsupported(_)));
    }

    #[test]
    fn host_parallel_for_is_outlined_too() {
        let src = r#"
        int main() {
            int n = 100;
            double* out = (double*)malloc(n * sizeof(double));
            #pragma omp parallel for num_threads(8)
            for (int i = 0; i < n; i++) { out[i] = i * 2.0; }
            printf("%.1f\n", out[99]);
            free(out);
            return 0;
        }
        "#;
        let program = parse(src, Dialect::OmpLite).unwrap();
        let translated = translate_program(&program, Dialect::CudaLite).unwrap();
        let printed = print_program(&translated);
        assert!(printed.contains("__global__"));
        assert!(printed.contains("cudaMemcpy(out, d0_out"));
        lassi_sema::compile(&translated).unwrap_or_else(|e| panic!("{e:?}\n{printed}"));
    }

    #[test]
    fn nested_target_data_region_translates() {
        let src = r#"
        int main() {
            int n = 50;
            double* a = (double*)malloc(n * sizeof(double));
            #pragma omp target data map(tofrom: a[0:n])
            {
                #pragma omp target teams distribute parallel for
                for (int i = 0; i < n; i++) { a[i] = i; }
            }
            printf("%.1f\n", a[49]);
            free(a);
            return 0;
        }
        "#;
        let program = parse(src, Dialect::OmpLite).unwrap();
        let translated = translate_program(&program, Dialect::CudaLite).unwrap();
        let printed = print_program(&translated);
        assert!(printed.contains("lassi_kernel_0"));
        lassi_sema::compile(&translated).unwrap_or_else(|e| panic!("{e:?}\n{printed}"));
    }
}
