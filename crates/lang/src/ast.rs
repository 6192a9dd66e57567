//! Abstract syntax tree shared by the CudaLite and OmpLite dialects.
//!
//! The AST is deliberately dialect-agnostic: CUDA-only constructs
//! ([`StmtKind::KernelLaunch`], [`FnQualifier::Kernel`], `__shared__`
//! declarations) and OpenMP-only constructs ([`StmtKind::Pragma`]) coexist in
//! the same tree, and the semantic analyzer rejects constructs that do not
//! belong to the program's [`Dialect`]. This makes the CUDA ↔ OpenMP
//! translation engine in `lassi-llm` a tree-to-tree rewrite instead of a
//! string transformation.
//!
//! ## Traversal
//!
//! Code that only walks the tree uses five primitives instead of matching
//! every statement and expression kind itself:
//!
//! * [`Expr::walk`] visits an expression and all its subexpressions;
//! * [`Stmt::walk`] and [`Block::walk`] visit statements and every statement
//!   nested in them: `if` branches, a `for` loop's init, step and body, loop
//!   and block bodies, pragma bodies;
//! * [`Stmt::exprs`] visits a statement's own expressions, not those of its
//!   nested statements, so `s.walk(&mut |s| s.exprs(&mut |e| e.walk(f)))`
//!   reaches every expression once;
//! * [`Expr::rebuild`] and [`Stmt::rebuild`] copy a node with the same shape,
//!   with a closure's replacements for subexpressions (`Expr`) or for own
//!   expressions and nested blocks (`Stmt`). A rewrite that recurses passes
//!   itself as the block closure.
//!
//! All of them run in source order and in pre-order: a node comes before
//! what is nested in it, and siblings come in the order they are written.
//! Callers rely on this: a translation's kernel parameters follow the order
//! in which the loop body first names them, and "first match" or "last
//! declaration wins" lookups follow the text. The one place where pre-order
//! and text order differ is a `for` header: the loop's own expression (its
//! condition) comes before its init and step, which are nested statements.
//! A caller that needs a narrower descent (say, not into pragma bodies)
//! tests for it in its closure.

use std::fmt;

/// Which surface syntax a program was written in (or should be printed as).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// CUDA-flavoured ParC (`__global__`, `<<<...>>>`, `cudaMalloc`, ...).
    CudaLite,
    /// OpenMP-flavoured ParC (`#pragma omp ...`).
    OmpLite,
}

impl Dialect {
    /// The opposite dialect, i.e. the translation target.
    pub fn other(self) -> Dialect {
        match self {
            Dialect::CudaLite => Dialect::OmpLite,
            Dialect::OmpLite => Dialect::CudaLite,
        }
    }

    /// Human-readable name used in prompts and reports.
    pub fn display_name(self) -> &'static str {
        match self {
            Dialect::CudaLite => "CUDA",
            Dialect::OmpLite => "OpenMP",
        }
    }

    /// The compiler command the pipeline pretends to invoke for this dialect.
    /// Only used to build compiler-style messages and prompts.
    pub fn compiler_command(self) -> &'static str {
        match self {
            Dialect::CudaLite => "nvcc -O3 -arch=sm_80 -o app app.cu",
            Dialect::OmpLite => "clang++ -O3 -fopenmp -fopenmp-targets=nvptx64 -o app app.cpp",
        }
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

/// Scalar and pointer types of ParC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` (function returns only).
    Void,
    /// `bool`.
    Bool,
    /// `int` — 32-bit conceptually, evaluated as i64.
    Int,
    /// `long` / `size_t`.
    Long,
    /// `float`.
    Float,
    /// `double`.
    Double,
    /// `dim3` — CUDA launch-geometry triple.
    Dim3,
    /// Pointer to an element type, e.g. `float*`.
    Ptr(Box<Type>),
}

impl Type {
    /// Pointer to `self`.
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// True for `int`/`long`/`bool`.
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::Int | Type::Long | Type::Bool)
    }

    /// True for `float`/`double`.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float | Type::Double)
    }

    /// True for any scalar arithmetic type.
    pub fn is_arithmetic(&self) -> bool {
        self.is_integer() || self.is_float()
    }

    /// Element type if this is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// Size of one element in bytes (used by `sizeof` and the cost models).
    pub fn size_bytes(&self) -> u64 {
        match self {
            Type::Void => 0,
            Type::Bool => 1,
            Type::Int | Type::Float => 4,
            Type::Long | Type::Double | Type::Ptr(_) => 8,
            Type::Dim3 => 12,
        }
    }

    /// Source spelling of the type.
    pub fn spelling(&self) -> String {
        match self {
            Type::Void => "void".to_string(),
            Type::Bool => "bool".to_string(),
            Type::Int => "int".to_string(),
            Type::Long => "long".to_string(),
            Type::Float => "float".to_string(),
            Type::Double => "double".to_string(),
            Type::Dim3 => "dim3".to_string(),
            Type::Ptr(t) => format!("{}*", t.spelling()),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.spelling())
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// Source spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    Not,
    /// Address-of `&x`.
    AddrOf,
    /// Dereference `*p`.
    Deref,
}

/// Compound-assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Assign,
    AddAssign,
    SubAssign,
    MulAssign,
    DivAssign,
}

impl AssignOp {
    /// Source spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
            AssignOp::DivAssign => "/=",
        }
    }

    /// The arithmetic operator applied by a compound assignment, if any.
    pub fn binop(self) -> Option<BinOp> {
        match self {
            AssignOp::Assign => None,
            AssignOp::AddAssign => Some(BinOp::Add),
            AssignOp::SubAssign => Some(BinOp::Sub),
            AssignOp::MulAssign => Some(BinOp::Mul),
            AssignOp::DivAssign => Some(BinOp::Div),
        }
    }
}

/// Expressions. Expressions do not carry line information; diagnostics refer
/// to the enclosing statement's line.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// String literal (printf format strings).
    StrLit(String),
    /// Variable reference (including `threadIdx`, `blockIdx`, ...).
    Ident(String),
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary { op: UnOp, operand: Box<Expr> },
    /// Function call (`printf`, `malloc`, `cudaMalloc`, `sqrt`, user functions, ...).
    Call { callee: String, args: Vec<Expr> },
    /// Array/pointer subscript `base[index]`.
    Index { base: Box<Expr>, index: Box<Expr> },
    /// Member access `base.field` (dim3/threadIdx components).
    Member { base: Box<Expr>, field: String },
    /// C-style cast `(T)expr`.
    Cast { ty: Type, expr: Box<Expr> },
    /// Ternary conditional `cond ? then : else`.
    Ternary {
        cond: Box<Expr>,
        then_expr: Box<Expr>,
        else_expr: Box<Expr>,
    },
    /// `sizeof(T)`.
    Sizeof(Type),
}

impl Expr {
    /// Shorthand for an identifier expression.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    /// Shorthand for a binary expression.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Shorthand for a call expression.
    pub fn call(callee: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            callee: callee.into(),
            args,
        }
    }

    /// Shorthand for `base[index]`.
    pub fn index(base: Expr, index: Expr) -> Expr {
        Expr::Index {
            base: Box::new(base),
            index: Box::new(index),
        }
    }

    /// Shorthand for `base.field`.
    pub fn member(base: Expr, field: impl Into<String>) -> Expr {
        Expr::Member {
            base: Box::new(base),
            field: field.into(),
        }
    }

    /// Visit this expression and every subexpression, in pre-order (a node
    /// before its operands) and source order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { lhs: a, rhs: b, .. } | Expr::Index { base: a, index: b } => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Unary { operand: e, .. }
            | Expr::Member { base: e, .. }
            | Expr::Cast { expr: e, .. } => e.walk(f),
            Expr::Call { args, .. } => args.iter().for_each(|a| a.walk(f)),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => [cond, then_expr, else_expr]
                .into_iter()
                .for_each(|e| e.walk(f)),
            Expr::IntLit(_)
            | Expr::FloatLit(_)
            | Expr::StrLit(_)
            | Expr::Ident(_)
            | Expr::Sizeof(_) => {}
        }
    }

    /// Rebuild this expression with the same shape, in pre-order: where `f`
    /// returns a replacement for a node, the replacement is taken as is and
    /// the node's operands are not visited.
    pub fn rebuild(&self, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
        if let Some(e) = f(self) {
            return e;
        }
        let mut sub = |e: &Expr| Box::new(e.rebuild(f));
        match self {
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: sub(lhs),
                rhs: sub(rhs),
            },
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: sub(operand),
            },
            Expr::Call { callee, args } => Expr::Call {
                callee: callee.clone(),
                args: args.iter().map(|a| *sub(a)).collect(),
            },
            Expr::Index { base, index } => Expr::Index {
                base: sub(base),
                index: sub(index),
            },
            Expr::Member { base, field } => Expr::Member {
                base: sub(base),
                field: field.clone(),
            },
            Expr::Cast { ty, expr } => Expr::Cast {
                ty: ty.clone(),
                expr: sub(expr),
            },
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => Expr::Ternary {
                cond: sub(cond),
                then_expr: sub(then_expr),
                else_expr: sub(else_expr),
            },
            Expr::IntLit(_)
            | Expr::FloatLit(_)
            | Expr::StrLit(_)
            | Expr::Ident(_)
            | Expr::Sizeof(_) => self.clone(),
        }
    }
}

/// Variable declaration (local or parameter-like).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Declared name.
    pub name: String,
    /// Element type (for arrays, the element type).
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Expr>,
    /// `T name[len];` stack/shared array length, if an array declaration.
    pub array_len: Option<Expr>,
    /// Declared `const`.
    pub is_const: bool,
    /// Declared `__shared__` (CudaLite device code only).
    pub is_shared: bool,
}

impl VarDecl {
    /// Scalar declaration helper.
    pub fn scalar(name: impl Into<String>, ty: Type, init: Option<Expr>) -> VarDecl {
        VarDecl {
            name: name.into(),
            ty,
            init,
            array_len: None,
            is_const: false,
            is_shared: false,
        }
    }
}

/// `for` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ForStmt {
    /// Init clause (a declaration or an assignment), if present.
    pub init: Option<Box<Stmt>>,
    /// Loop condition, if present.
    pub cond: Option<Expr>,
    /// Step clause (assignment/increment), if present.
    pub step: Option<Box<Stmt>>,
    /// Loop body.
    pub body: Block,
}

impl ForStmt {
    /// If this is a canonical loop `for (int i = lo; i < hi; i++)` (or `+= s`),
    /// return `(var, lo, hi, step)`. Canonical loops are what OpenMP work-sharing
    /// and the CUDA↔OpenMP translator operate on.
    pub fn canonical(&self) -> Option<(String, Expr, Expr, Expr)> {
        let init = self.init.as_deref()?;
        let (var, lo) = match &init.kind {
            StmtKind::VarDecl(d) if d.ty.is_integer() => (d.name.clone(), d.init.clone()?),
            StmtKind::Assign {
                target: Expr::Ident(v),
                op: AssignOp::Assign,
                value,
            } => (v.clone(), value.clone()),
            _ => return None,
        };
        let hi = match self.cond.as_ref()? {
            Expr::Binary {
                op: BinOp::Lt,
                lhs,
                rhs,
            } => match lhs.as_ref() {
                Expr::Ident(v) if *v == var => rhs.as_ref().clone(),
                _ => return None,
            },
            Expr::Binary {
                op: BinOp::Le,
                lhs,
                rhs,
            } => match lhs.as_ref() {
                Expr::Ident(v) if *v == var => {
                    Expr::bin(BinOp::Add, rhs.as_ref().clone(), Expr::int(1))
                }
                _ => return None,
            },
            _ => return None,
        };
        let step = match &self.step.as_deref()?.kind {
            StmtKind::Assign {
                target: Expr::Ident(v),
                op: AssignOp::AddAssign,
                value,
            } if *v == var => value.clone(),
            StmtKind::Assign {
                target: Expr::Ident(v),
                op: AssignOp::Assign,
                value:
                    Expr::Binary {
                        op: BinOp::Add,
                        lhs,
                        rhs,
                    },
            } if *v == var => match lhs.as_ref() {
                Expr::Ident(v2) if *v2 == var => rhs.as_ref().clone(),
                _ => return None,
            },
            _ => return None,
        };
        Some((var, lo, hi, step))
    }
}

/// CUDA kernel launch `kernel<<<grid, block>>>(args);`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelLaunch {
    /// Kernel function name.
    pub kernel: String,
    /// Grid dimensions expression (`dim3` variable, constructor call or scalar).
    pub grid: Expr,
    /// Block dimensions expression.
    pub block: Expr,
    /// Kernel arguments.
    pub args: Vec<Expr>,
}

/// OpenMP map clause kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    To,
    From,
    ToFrom,
    Alloc,
}

impl MapKind {
    /// Source spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            MapKind::To => "to",
            MapKind::From => "from",
            MapKind::ToFrom => "tofrom",
            MapKind::Alloc => "alloc",
        }
    }
}

/// One array section inside a map clause: `var[lower:len]` or a scalar `var`.
#[derive(Debug, Clone, PartialEq)]
pub struct MapSection {
    /// Mapped variable.
    pub var: String,
    /// Lower bound of the section (None for whole scalars).
    pub lower: Option<Expr>,
    /// Section length (None for whole scalars).
    pub len: Option<Expr>,
}

/// Reduction operators accepted in `reduction(op: vars)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionOp {
    Add,
    Mul,
    Min,
    Max,
}

impl ReductionOp {
    /// Source spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            ReductionOp::Add => "+",
            ReductionOp::Mul => "*",
            ReductionOp::Min => "min",
            ReductionOp::Max => "max",
        }
    }
}

/// Loop schedule kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    Static,
    Dynamic,
    Guided,
}

impl ScheduleKind {
    /// Source spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            ScheduleKind::Static => "static",
            ScheduleKind::Dynamic => "dynamic",
            ScheduleKind::Guided => "guided",
        }
    }
}

/// Clauses attached to an OpenMP directive.
#[derive(Debug, Clone, PartialEq)]
pub enum OmpClause {
    /// `map(kind: sections)`
    Map {
        kind: MapKind,
        sections: Vec<MapSection>,
    },
    /// `reduction(op: vars)`
    Reduction { op: ReductionOp, vars: Vec<String> },
    /// `num_threads(n)`
    NumThreads(Expr),
    /// `num_teams(n)`
    NumTeams(Expr),
    /// `thread_limit(n)`
    ThreadLimit(Expr),
    /// `schedule(kind[, chunk])`
    Schedule {
        kind: ScheduleKind,
        chunk: Option<Expr>,
    },
    /// `collapse(n)`
    Collapse(u32),
    /// `private(vars)`
    Private(Vec<String>),
    /// `firstprivate(vars)`
    FirstPrivate(Vec<String>),
    /// `shared(vars)`
    Shared(Vec<String>),
}

/// Kinds of OpenMP directives understood by OmpLite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OmpDirectiveKind {
    /// `#pragma omp parallel for` (host threads).
    ParallelFor,
    /// `#pragma omp target teams distribute parallel for` (GPU offload).
    TargetTeamsDistributeParallelFor,
    /// `#pragma omp target data` (structured data region).
    TargetData,
    /// `#pragma omp atomic`.
    Atomic,
    /// `#pragma omp barrier`.
    Barrier,
}

impl OmpDirectiveKind {
    /// Source spelling after `#pragma omp `.
    pub fn spelling(self) -> &'static str {
        match self {
            OmpDirectiveKind::ParallelFor => "parallel for",
            OmpDirectiveKind::TargetTeamsDistributeParallelFor => {
                "target teams distribute parallel for"
            }
            OmpDirectiveKind::TargetData => "target data",
            OmpDirectiveKind::Atomic => "atomic",
            OmpDirectiveKind::Barrier => "barrier",
        }
    }

    /// Whether the directive expects an associated statement.
    pub fn takes_body(self) -> bool {
        !matches!(self, OmpDirectiveKind::Barrier)
    }

    /// Whether the directive offloads work to the device.
    pub fn is_offload(self) -> bool {
        matches!(
            self,
            OmpDirectiveKind::TargetTeamsDistributeParallelFor | OmpDirectiveKind::TargetData
        )
    }
}

/// A parsed OpenMP directive: kind plus clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpDirective {
    /// Directive kind.
    pub kind: OmpDirectiveKind,
    /// Clause list in source order.
    pub clauses: Vec<OmpClause>,
}

impl OmpDirective {
    /// Construct a directive without clauses.
    pub fn new(kind: OmpDirectiveKind) -> Self {
        OmpDirective {
            kind,
            clauses: Vec::new(),
        }
    }

    /// All map clauses.
    pub fn map_clauses(&self) -> impl Iterator<Item = (&MapKind, &Vec<MapSection>)> {
        self.clauses.iter().filter_map(|c| match c {
            OmpClause::Map { kind, sections } => Some((kind, sections)),
            _ => None,
        })
    }

    /// The reduction clause, if any.
    pub fn reduction(&self) -> Option<(ReductionOp, &Vec<String>)> {
        self.clauses.iter().find_map(|c| match c {
            OmpClause::Reduction { op, vars } => Some((*op, vars)),
            _ => None,
        })
    }

    /// The collapse factor (1 when absent).
    pub fn collapse(&self) -> u32 {
        self.clauses
            .iter()
            .find_map(|c| match c {
                OmpClause::Collapse(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(1)
    }
}

/// A pragma together with the statement it applies to.
#[derive(Debug, Clone, PartialEq)]
pub struct PragmaStmt {
    /// The parsed directive.
    pub directive: OmpDirective,
    /// The associated statement (`for` loop, block or assignment), or `None`
    /// for stand-alone directives such as `barrier`.
    pub body: Option<Box<Stmt>>,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local variable declaration.
    VarDecl(VarDecl),
    /// Assignment (including compound assignment and `x++`/`x--` desugar).
    Assign {
        target: Expr,
        op: AssignOp,
        value: Expr,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        cond: Expr,
        then_branch: Block,
        else_branch: Option<Block>,
    },
    /// `for (init; cond; step) { .. }`
    For(ForStmt),
    /// `while (cond) { .. }`
    While { cond: Expr, body: Block },
    /// `return expr;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Expression statement (function calls).
    Expr(Expr),
    /// Nested block.
    Block(Block),
    /// CUDA kernel launch.
    KernelLaunch(KernelLaunch),
    /// OpenMP pragma + associated statement.
    Pragma(PragmaStmt),
}

/// A statement with its source line (1-based; 0 for synthesized nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// 1-based source line, 0 when synthesized by the translator.
    pub line: u32,
}

impl Stmt {
    /// Construct a statement.
    pub fn new(kind: StmtKind, line: u32) -> Self {
        Stmt { kind, line }
    }

    /// Construct a synthesized statement with no source line.
    pub fn synth(kind: StmtKind) -> Self {
        Stmt { kind, line: 0 }
    }

    /// Visit this statement and every statement nested in it, in pre-order
    /// and source order: `if` branches, a `for` loop's init, step and body,
    /// loop and block bodies, and pragma bodies.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => std::iter::once(then_branch)
                .chain(else_branch)
                .for_each(|b| b.walk(f)),
            StmtKind::For(l) => {
                l.init.iter().chain(&l.step).for_each(|s| s.walk(f));
                l.body.walk(f);
            }
            StmtKind::While { body: b, .. } | StmtKind::Block(b) => b.walk(f),
            StmtKind::Pragma(p) => p.body.iter().for_each(|s| s.walk(f)),
            _ => {}
        }
    }

    /// Visit this statement's own expressions in source order: everything
    /// but the expressions of its nested statements. A `for` loop's own
    /// expression is its condition; a pragma's are its clause arguments.
    pub fn exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::VarDecl(d) => d.array_len.iter().chain(&d.init).for_each(f),
            StmtKind::Assign { target, value, .. } => [target, value].into_iter().for_each(f),
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } | StmtKind::Expr(cond) => {
                f(cond)
            }
            StmtKind::For(l) => l.cond.iter().for_each(f),
            StmtKind::Return(e) => e.iter().for_each(f),
            StmtKind::KernelLaunch(l) => [&l.grid, &l.block].into_iter().chain(&l.args).for_each(f),
            StmtKind::Pragma(p) => {
                for c in &p.directive.clauses {
                    match c {
                        OmpClause::Map { sections, .. } => sections
                            .iter()
                            .flat_map(|s| s.lower.iter().chain(&s.len))
                            .for_each(&mut *f),
                        OmpClause::NumThreads(e)
                        | OmpClause::NumTeams(e)
                        | OmpClause::ThreadLimit(e) => f(e),
                        OmpClause::Schedule { chunk, .. } => chunk.iter().for_each(&mut *f),
                        _ => {}
                    }
                }
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Block(_) => {}
        }
    }

    /// Rebuild this statement with the same shape and line: each of its own
    /// expressions (see [`Stmt::exprs`]) through `expr`, except a pragma's
    /// clauses, which are copied as they are; each nested block through
    /// `block`; and a `for` loop's init and step and a pragma's body by the
    /// same rebuild. Fields are rebuilt in source order.
    pub fn rebuild<E>(
        &self,
        expr: &mut impl FnMut(&Expr) -> Expr,
        block: &mut impl FnMut(&Block) -> Result<Block, E>,
    ) -> Result<Stmt, E> {
        let kind = match &self.kind {
            StmtKind::VarDecl(d) => StmtKind::VarDecl(VarDecl {
                name: d.name.clone(),
                ty: d.ty.clone(),
                array_len: d.array_len.as_ref().map(&mut *expr),
                init: d.init.as_ref().map(&mut *expr),
                is_const: d.is_const,
                is_shared: d.is_shared,
            }),
            StmtKind::Assign { target, op, value } => StmtKind::Assign {
                target: expr(target),
                op: *op,
                value: expr(value),
            },
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => StmtKind::If {
                cond: expr(cond),
                then_branch: block(then_branch)?,
                else_branch: else_branch.as_ref().map(&mut *block).transpose()?,
            },
            StmtKind::For(l) => StmtKind::For(ForStmt {
                init: rebuild_boxed(&l.init, expr, block)?,
                cond: l.cond.as_ref().map(&mut *expr),
                step: rebuild_boxed(&l.step, expr, block)?,
                body: block(&l.body)?,
            }),
            StmtKind::While { cond, body } => StmtKind::While {
                cond: expr(cond),
                body: block(body)?,
            },
            StmtKind::Return(e) => StmtKind::Return(e.as_ref().map(expr)),
            StmtKind::Break => StmtKind::Break,
            StmtKind::Continue => StmtKind::Continue,
            StmtKind::Expr(e) => StmtKind::Expr(expr(e)),
            StmtKind::Block(b) => StmtKind::Block(block(b)?),
            StmtKind::KernelLaunch(l) => StmtKind::KernelLaunch(KernelLaunch {
                kernel: l.kernel.clone(),
                grid: expr(&l.grid),
                block: expr(&l.block),
                args: l.args.iter().map(&mut *expr).collect(),
            }),
            StmtKind::Pragma(p) => StmtKind::Pragma(PragmaStmt {
                directive: p.directive.clone(),
                body: rebuild_boxed(&p.body, expr, block)?,
            }),
        };
        Ok(Stmt::new(kind, self.line))
    }
}

fn rebuild_boxed<E>(
    stmt: &Option<Box<Stmt>>,
    expr: &mut impl FnMut(&Expr) -> Expr,
    block: &mut impl FnMut(&Block) -> Result<Block, E>,
) -> Result<Option<Box<Stmt>>, E> {
    stmt.as_ref()
        .map(|s| s.rebuild(expr, block).map(Box::new))
        .transpose()
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Empty block.
    pub fn new() -> Self {
        Block { stmts: Vec::new() }
    }

    /// Block from statements.
    pub fn from_stmts(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }

    /// [`Stmt::walk`] over each statement of the block, in order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        self.stmts.iter().for_each(|s| s.walk(f));
    }
}

/// Function qualifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FnQualifier {
    /// Ordinary host function.
    Host,
    /// `__global__` CUDA kernel.
    Kernel,
    /// `__device__` function callable from kernels.
    Device,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Declared `const`.
    pub is_const: bool,
}

impl Param {
    /// Construct a parameter.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        Param {
            name: name.into(),
            ty,
            is_const: false,
        }
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Host / kernel / device qualifier.
    pub qualifier: FnQualifier,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// 1-based line of the definition.
    pub line: u32,
}

/// Top-level items.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition.
    Function(Function),
}

impl Item {
    /// The function if this item is one.
    pub fn as_function(&self) -> &Function {
        match self {
            Item::Function(f) => f,
        }
    }
}

/// A complete translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The dialect the program is written in.
    pub dialect: Dialect,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Create an empty program in `dialect`.
    pub fn new(dialect: Dialect) -> Self {
        Program {
            dialect,
            items: Vec::new(),
        }
    }

    /// Iterate over all functions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().map(|i| i.as_function())
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }

    /// The `main` function, if defined.
    pub fn main(&self) -> Option<&Function> {
        self.function("main")
    }

    /// All `__global__` kernels.
    pub fn kernels(&self) -> impl Iterator<Item = &Function> {
        self.functions()
            .filter(|f| f.qualifier == FnQualifier::Kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dialect_other_is_involution() {
        assert_eq!(Dialect::CudaLite.other().other(), Dialect::CudaLite);
        assert_eq!(Dialect::OmpLite.other(), Dialect::CudaLite);
    }

    #[test]
    fn type_sizes() {
        assert_eq!(Type::Int.size_bytes(), 4);
        assert_eq!(Type::Double.size_bytes(), 8);
        assert_eq!(Type::Float.ptr().size_bytes(), 8);
        assert_eq!(Type::Float.ptr().pointee(), Some(&Type::Float));
    }

    #[test]
    fn type_spelling() {
        assert_eq!(Type::Float.ptr().spelling(), "float*");
        assert_eq!(
            Type::Ptr(Box::new(Type::Ptr(Box::new(Type::Int)))).spelling(),
            "int**"
        );
    }

    #[test]
    fn canonical_for_loop_detection() {
        // for (int i = 0; i < n; i++)
        let f = ForStmt {
            init: Some(Box::new(Stmt::synth(StmtKind::VarDecl(VarDecl::scalar(
                "i",
                Type::Int,
                Some(Expr::int(0)),
            ))))),
            cond: Some(Expr::bin(BinOp::Lt, Expr::ident("i"), Expr::ident("n"))),
            step: Some(Box::new(Stmt::synth(StmtKind::Assign {
                target: Expr::ident("i"),
                op: AssignOp::AddAssign,
                value: Expr::int(1),
            }))),
            body: Block::new(),
        };
        let (var, lo, hi, step) = f.canonical().expect("canonical");
        assert_eq!(var, "i");
        assert_eq!(lo, Expr::int(0));
        assert_eq!(hi, Expr::ident("n"));
        assert_eq!(step, Expr::int(1));
    }

    #[test]
    fn non_canonical_loop_rejected() {
        let f = ForStmt {
            init: None,
            cond: None,
            step: None,
            body: Block::new(),
        };
        assert!(f.canonical().is_none());
    }

    #[test]
    fn expr_walk_is_preorder_in_source_order() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::index(Expr::ident("a"), Expr::ident("i")),
            Expr::call("f", vec![Expr::ident("x")]),
        );
        let mut seen = Vec::new();
        e.walk(&mut |e| {
            seen.push(match e {
                Expr::Ident(name) => name.as_str(),
                Expr::Binary { .. } => "+",
                Expr::Index { .. } => "[]",
                Expr::Call { callee, .. } => callee.as_str(),
                _ => "?",
            })
        });
        assert_eq!(seen, ["+", "[]", "a", "i", "f", "x"]);
    }

    #[test]
    fn expr_rebuild_takes_replacements_as_is() {
        // a + b with a -> a * a: the replacement is not visited again.
        let e = Expr::bin(BinOp::Add, Expr::ident("a"), Expr::ident("b"));
        let square = Expr::bin(BinOp::Mul, Expr::ident("a"), Expr::ident("a"));
        let rebuilt = e.rebuild(&mut |e| match e {
            Expr::Ident(name) if name == "a" => Some(square.clone()),
            _ => None,
        });
        assert_eq!(rebuilt, Expr::bin(BinOp::Add, square, Expr::ident("b")));
        assert_eq!(e.rebuild(&mut |_| None), e);
    }

    const WALKED: &str = "int main() {
        int n = 4;
        double a[n];
        for (int i = 0; i < n; i += 1) {
            if (i > 1) {
                a[i] = 1.0;
            } else {
                #pragma omp atomic
                a[0] += 2.0;
            }
        }
        while (n > 0) { n = n - 1; }
        return 0;
    }";

    fn walked_main() -> Block {
        crate::parse(WALKED, Dialect::OmpLite)
            .expect("parses")
            .main()
            .expect("has main")
            .body
            .clone()
    }

    #[test]
    fn stmt_walk_visits_every_nested_statement_in_source_order() {
        let body = walked_main();
        let mut lines = Vec::new();
        body.walk(&mut |s| lines.push(s.line));
        // for (line 4) before its init and step (line 4) and its body; the
        // atomic pragma (line 8) before its update (line 9).
        assert_eq!(lines, [2, 3, 4, 4, 4, 5, 6, 8, 9, 12, 12, 13]);
    }

    #[test]
    fn stmt_exprs_are_its_own_in_source_order() {
        let body = walked_main();
        let own = |s: &Stmt| {
            let mut idents = Vec::new();
            s.exprs(&mut |e| {
                e.walk(&mut |e| {
                    if let Expr::Ident(name) = e {
                        idents.push(name.clone());
                    }
                })
            });
            idents
        };
        // The array length; the loop's condition only; `a[0] += ...` is the
        // pragma's body, not its own expression.
        assert_eq!(own(&body.stmts[1]), ["n"]);
        assert_eq!(own(&body.stmts[2]), ["i", "n"]);
        let pragma = Stmt::synth(StmtKind::Pragma(PragmaStmt {
            directive: OmpDirective {
                kind: OmpDirectiveKind::ParallelFor,
                clauses: vec![
                    OmpClause::NumThreads(Expr::ident("t")),
                    OmpClause::Map {
                        kind: MapKind::To,
                        sections: vec![MapSection {
                            var: "a".into(),
                            lower: Some(Expr::ident("lo")),
                            len: Some(Expr::ident("len")),
                        }],
                    },
                ],
            },
            body: Some(Box::new(body.stmts[2].clone())),
        }));
        assert_eq!(own(&pragma), ["t", "lo", "len"]);
    }

    #[test]
    fn stmt_rebuild_preserves_shape_and_rewrites_nested_blocks() {
        let body = walked_main();
        for s in &body.stmts {
            let same: Result<Stmt, ()> = s.rebuild(&mut Expr::clone, &mut |b| Ok(b.clone()));
            assert_eq!(same.as_ref(), Ok(s));
        }
        // Emptying every nested block leaves the loop header intact.
        let emptied: Result<Stmt, ()> =
            body.stmts[2].rebuild(&mut Expr::clone, &mut |_| Ok(Block::new()));
        let StmtKind::For(l) = emptied.unwrap().kind else {
            panic!("still a for loop");
        };
        assert!(l.body.stmts.is_empty());
        assert!(l.canonical().is_some());
        // An error from a nested block is the rebuild's error.
        assert_eq!(
            body.stmts[2].rebuild(&mut Expr::clone, &mut |_| Err("no")),
            Err("no")
        );
    }

    #[test]
    fn directive_helpers() {
        let d = OmpDirective {
            kind: OmpDirectiveKind::TargetTeamsDistributeParallelFor,
            clauses: vec![
                OmpClause::Collapse(2),
                OmpClause::Reduction {
                    op: ReductionOp::Add,
                    vars: vec!["sum".into()],
                },
            ],
        };
        assert_eq!(d.collapse(), 2);
        assert_eq!(d.reduction().unwrap().0, ReductionOp::Add);
        assert!(d.kind.is_offload());
        assert!(d.kind.takes_body());
        assert!(!OmpDirectiveKind::Barrier.takes_body());
    }

    #[test]
    fn program_lookup() {
        let mut p = Program::new(Dialect::CudaLite);
        p.items.push(Item::Function(Function {
            name: "main".into(),
            qualifier: FnQualifier::Host,
            ret: Type::Int,
            params: vec![],
            body: Block::new(),
            line: 1,
        }));
        p.items.push(Item::Function(Function {
            name: "k".into(),
            qualifier: FnQualifier::Kernel,
            ret: Type::Void,
            params: vec![],
            body: Block::new(),
            line: 2,
        }));
        assert!(p.main().is_some());
        assert_eq!(p.kernels().count(), 1);
        assert!(p.function("missing").is_none());
    }
}
