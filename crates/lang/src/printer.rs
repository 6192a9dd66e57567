//! Source printer: turns an AST back into dialect source text.
//!
//! The printer is what the simulated LLM uses to materialise "generated code"
//! strings, so the output is deliberately formatted the way a careful human
//! would write it (four-space indents, one statement per line). The printer /
//! parser pair round-trips: `parse(print(p)) == normalize(p)` structurally.

use crate::ast::*;

/// Print a whole program as source text in its own dialect.
pub fn print_program(program: &Program) -> String {
    let mut p = Printer::new();
    for (i, item) in program.items.iter().enumerate() {
        if i > 0 {
            p.out.push('\n');
        }
        match item {
            Item::Function(f) => p.print_function(f),
        }
    }
    p.out
}

/// Print a single expression (used in error messages and prompts).
pub fn print_expr(expr: &Expr) -> String {
    let mut p = Printer::new();
    p.expr(expr)
}

/// Print a single statement at indent level 0.
pub fn print_stmt(stmt: &Stmt) -> String {
    let mut p = Printer::new();
    p.print_stmt(stmt, 0);
    p.out
}

struct Printer {
    out: String,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::with_capacity(1024),
        }
    }

    fn indent(&mut self, level: usize) {
        for _ in 0..level {
            self.out.push_str("    ");
        }
    }

    fn print_function(&mut self, f: &Function) {
        match f.qualifier {
            FnQualifier::Kernel => self.out.push_str("__global__ "),
            FnQualifier::Device => self.out.push_str("__device__ "),
            FnQualifier::Host => {}
        }
        self.out.push_str(&f.ret.spelling());
        self.out.push(' ');
        self.out.push_str(&f.name);
        self.out.push('(');
        for (i, param) in f.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            if param.is_const {
                self.out.push_str("const ");
            }
            self.out.push_str(&param.ty.spelling());
            self.out.push(' ');
            self.out.push_str(&param.name);
        }
        self.out.push_str(") ");
        self.print_block(&f.body, 0);
        self.out.push('\n');
    }

    fn print_block(&mut self, block: &Block, level: usize) {
        self.out.push_str("{\n");
        for stmt in &block.stmts {
            self.print_stmt(stmt, level + 1);
        }
        self.indent(level);
        self.out.push('}');
    }

    fn print_stmt(&mut self, stmt: &Stmt, level: usize) {
        match &stmt.kind {
            StmtKind::VarDecl(d) => {
                self.indent(level);
                self.print_var_decl(d);
                self.out.push_str(";\n");
            }
            StmtKind::Assign { target, op, value } => {
                self.indent(level);
                let t = self.expr(target);
                // Pretty-print `x += 1` as `x++` the way source code usually reads.
                if *op == AssignOp::AddAssign && *value == Expr::IntLit(1) {
                    self.out.push_str(&format!("{t}++;\n"));
                } else if *op == AssignOp::SubAssign && *value == Expr::IntLit(1) {
                    self.out.push_str(&format!("{t}--;\n"));
                } else {
                    let v = self.expr(value);
                    self.out.push_str(&format!("{t} {} {v};\n", op.spelling()));
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.indent(level);
                let c = self.expr(cond);
                self.out.push_str(&format!("if ({c}) "));
                self.print_block(then_branch, level);
                if let Some(els) = else_branch {
                    self.out.push_str(" else ");
                    self.print_block(els, level);
                }
                self.out.push('\n');
            }
            StmtKind::For(f) => {
                self.indent(level);
                self.out.push_str("for (");
                if let Some(init) = &f.init {
                    self.print_inline_simple(init);
                }
                self.out.push_str("; ");
                if let Some(cond) = &f.cond {
                    let c = self.expr(cond);
                    self.out.push_str(&c);
                }
                self.out.push_str("; ");
                if let Some(step) = &f.step {
                    self.print_inline_simple(step);
                }
                self.out.push_str(") ");
                self.print_block(&f.body, level);
                self.out.push('\n');
            }
            StmtKind::While { cond, body } => {
                self.indent(level);
                let c = self.expr(cond);
                self.out.push_str(&format!("while ({c}) "));
                self.print_block(body, level);
                self.out.push('\n');
            }
            StmtKind::Return(value) => {
                self.indent(level);
                match value {
                    Some(v) => {
                        let v = self.expr(v);
                        self.out.push_str(&format!("return {v};\n"));
                    }
                    None => self.out.push_str("return;\n"),
                }
            }
            StmtKind::Break => {
                self.indent(level);
                self.out.push_str("break;\n");
            }
            StmtKind::Continue => {
                self.indent(level);
                self.out.push_str("continue;\n");
            }
            StmtKind::Expr(e) => {
                self.indent(level);
                let e = self.expr(e);
                self.out.push_str(&format!("{e};\n"));
            }
            StmtKind::Block(b) => {
                self.indent(level);
                self.print_block(b, level);
                self.out.push('\n');
            }
            StmtKind::KernelLaunch(l) => {
                self.indent(level);
                let grid = self.expr(&l.grid);
                let block = self.expr(&l.block);
                let args: Vec<String> = l.args.iter().map(|a| self.expr(a)).collect();
                self.out.push_str(&format!(
                    "{}<<<{grid}, {block}>>>({});\n",
                    l.kernel,
                    args.join(", ")
                ));
            }
            StmtKind::Pragma(p) => {
                self.indent(level);
                self.out
                    .push_str(&format!("#pragma {}\n", self.pragma_text(&p.directive)));
                if let Some(body) = &p.body {
                    self.print_stmt(body, level);
                }
            }
        }
    }

    fn print_inline_simple(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::VarDecl(d) => self.print_var_decl(d),
            StmtKind::Assign { target, op, value } => {
                let t = self.expr(target);
                if *op == AssignOp::AddAssign && *value == Expr::IntLit(1) {
                    self.out.push_str(&format!("{t}++"));
                } else if *op == AssignOp::SubAssign && *value == Expr::IntLit(1) {
                    self.out.push_str(&format!("{t}--"));
                } else {
                    let v = self.expr(value);
                    self.out.push_str(&format!("{t} {} {v}", op.spelling()));
                }
            }
            StmtKind::Expr(e) => {
                let e = self.expr(e);
                self.out.push_str(&e);
            }
            other => {
                // Should not happen for well-formed for-clauses; print a block fallback.
                self.out
                    .push_str(&format!("/* unsupported for-clause {other:?} */"));
            }
        }
    }

    fn print_var_decl(&mut self, d: &VarDecl) {
        if d.is_shared {
            self.out.push_str("__shared__ ");
        }
        if d.is_const {
            self.out.push_str("const ");
        }
        self.out.push_str(&d.ty.spelling());
        self.out.push(' ');
        self.out.push_str(&d.name);
        // dim3 constructor form
        if d.ty == Type::Dim3 {
            if let Some(Expr::Call { callee, args }) = &d.init {
                if callee == "dim3" {
                    let args: Vec<String> = args.iter().map(|a| self.expr(a)).collect();
                    self.out.push_str(&format!("({})", args.join(", ")));
                    return;
                }
            }
        }
        if let Some(len) = &d.array_len {
            let l = self.expr(len);
            self.out.push_str(&format!("[{l}]"));
        }
        if let Some(init) = &d.init {
            let i = self.expr(init);
            self.out.push_str(&format!(" = {i}"));
        }
    }

    fn pragma_text(&self, d: &OmpDirective) -> String {
        let mut s = format!("omp {}", d.kind.spelling());
        for clause in &d.clauses {
            s.push(' ');
            s.push_str(&self.clause_text(clause));
        }
        s
    }

    fn clause_text(&self, clause: &OmpClause) -> String {
        let pe = |e: &Expr| {
            let mut p = Printer::new();
            p.expr(e)
        };
        match clause {
            OmpClause::Map { kind, sections } => {
                let secs: Vec<String> = sections
                    .iter()
                    .map(|s| match (&s.lower, &s.len) {
                        (Some(lo), Some(len)) => format!("{}[{}:{}]", s.var, pe(lo), pe(len)),
                        _ => s.var.clone(),
                    })
                    .collect();
                format!("map({}: {})", kind.spelling(), secs.join(", "))
            }
            OmpClause::Reduction { op, vars } => {
                format!("reduction({}:{})", op.spelling(), vars.join(", "))
            }
            OmpClause::NumThreads(e) => format!("num_threads({})", pe(e)),
            OmpClause::NumTeams(e) => format!("num_teams({})", pe(e)),
            OmpClause::ThreadLimit(e) => format!("thread_limit({})", pe(e)),
            OmpClause::Schedule { kind, chunk } => match chunk {
                Some(c) => format!("schedule({}, {})", kind.spelling(), pe(c)),
                None => format!("schedule({})", kind.spelling()),
            },
            OmpClause::Collapse(n) => format!("collapse({n})"),
            OmpClause::Private(vars) => format!("private({})", vars.join(", ")),
            OmpClause::FirstPrivate(vars) => format!("firstprivate({})", vars.join(", ")),
            OmpClause::Shared(vars) => format!("shared({})", vars.join(", ")),
        }
    }

    fn expr(&mut self, e: &Expr) -> String {
        match e {
            Expr::IntLit(v) => v.to_string(),
            Expr::FloatLit(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Expr::StrLit(s) => format!("\"{}\"", escape_string(s)),
            Expr::Ident(name) => name.clone(),
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr_paren(lhs);
                let r = self.expr_paren(rhs);
                format!("{l} {} {r}", op.spelling())
            }
            Expr::Unary { op, operand } => {
                let o = self.expr_paren(operand);
                match op {
                    UnOp::Neg => format!("-{o}"),
                    UnOp::Not => format!("!{o}"),
                    UnOp::AddrOf => format!("&{o}"),
                    UnOp::Deref => format!("*{o}"),
                }
            }
            Expr::Call { callee, args } => {
                let args: Vec<String> = args.iter().map(|a| self.expr(a)).collect();
                format!("{callee}({})", args.join(", "))
            }
            Expr::Index { base, index } => {
                let b = self.expr_paren(base);
                let i = self.expr(index);
                format!("{b}[{i}]")
            }
            Expr::Member { base, field } => {
                let b = self.expr_paren(base);
                format!("{b}.{field}")
            }
            Expr::Cast { ty, expr } => {
                let e = self.expr_paren(expr);
                format!("({}){e}", ty.spelling())
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.expr_paren(cond);
                let t = self.expr_paren(then_expr);
                let f = self.expr_paren(else_expr);
                format!("{c} ? {t} : {f}")
            }
            Expr::Sizeof(ty) => format!("sizeof({})", ty.spelling()),
        }
    }

    /// Print a sub-expression, parenthesising compound expressions so the
    /// emitted text re-parses with identical structure regardless of operator
    /// precedence.
    fn expr_paren(&mut self, e: &Expr) -> String {
        match e {
            Expr::Binary { .. } | Expr::Ternary { .. } | Expr::Cast { .. } => {
                format!("({})", self.expr(e))
            }
            _ => self.expr(e),
        }
    }
}

fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str, dialect: Dialect) {
        let p1 = parse(src, dialect).expect("first parse");
        let printed = print_program(&p1);
        let p2 = parse(&printed, dialect)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{printed}"));
        let printed2 = print_program(&p2);
        assert_eq!(
            printed, printed2,
            "printer must be a fixed point after one round"
        );
    }

    #[test]
    fn roundtrip_keeps_non_ascii_text() {
        let src = "int main() {\n    double s = 0.0;\n    #pragma omp atomic // somme partielle, déjà réduite\n    s += 1.0;\n    printf(\"café %d ✓\\n\", 1);\n    return 0;\n}\n";
        roundtrip(src, Dialect::OmpLite);
        let printed = print_program(&parse(src, Dialect::OmpLite).unwrap());
        assert!(printed.contains("\"café %d ✓\\n\""), "{printed}");
    }

    #[test]
    fn roundtrip_cuda_kernel() {
        roundtrip(
            r#"
            __global__ void add(float* out, const float* a, const float* b, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { out[i] = a[i] + b[i]; }
            }
            int main() {
                int n = 256;
                float* d_a;
                cudaMalloc(&d_a, n * sizeof(float));
                add<<<(n + 255) / 256, 256>>>(d_a, d_a, d_a, n);
                cudaDeviceSynchronize();
                printf("done %d\n", n);
                return 0;
            }
            "#,
            Dialect::CudaLite,
        );
    }

    #[test]
    fn roundtrip_omp_offload() {
        roundtrip(
            r#"
            int main() {
                int n = 128;
                double sum = 0.0;
                double* a = (double*)malloc(n * sizeof(double));
                for (int i = 0; i < n; i++) { a[i] = i * 0.5; }
                #pragma omp target teams distribute parallel for map(to: a[0:n]) map(tofrom: sum) reduction(+:sum) num_threads(256) schedule(static)
                for (int i = 0; i < n; i++) {
                    sum += a[i];
                }
                printf("sum %f\n", sum);
                free(a);
                return 0;
            }
            "#,
            Dialect::OmpLite,
        );
    }

    #[test]
    fn roundtrip_control_flow() {
        roundtrip(
            r#"
            int fib(int n) {
                if (n < 2) { return n; }
                int a = 0;
                int b = 1;
                for (int i = 2; i <= n; i++) {
                    int t = a + b;
                    a = b;
                    b = t;
                }
                return b;
            }
            int main() {
                int i = 0;
                while (i < 10) {
                    i++;
                    if (i == 3) { continue; }
                    if (i == 9) { break; }
                }
                printf("%d %d\n", fib(10), i);
                return 0;
            }
            "#,
            Dialect::CudaLite,
        );
    }

    #[test]
    fn print_expr_precedence_preserved() {
        let src = "int main() { int x = (1 + 2) * 3; int y = 1 + 2 * 3; return x + y; }";
        let p = parse(src, Dialect::CudaLite).unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("(1 + 2) * 3"));
        assert!(printed.contains("1 + (2 * 3)"));
        let p2 = parse(&printed, Dialect::CudaLite).unwrap();
        // Structure (ignoring line numbers) is preserved: printing again is a fixed point.
        assert_eq!(printed, print_program(&p2));
    }

    #[test]
    fn print_shared_and_sync() {
        roundtrip(
            r#"
            __global__ void reduce(float* out, const float* in, int n) {
                __shared__ float tile[256];
                int tid = threadIdx.x;
                tile[tid] = in[tid];
                __syncthreads();
                if (tid == 0) { out[0] = tile[0]; }
            }
            int main() { return 0; }
            "#,
            Dialect::CudaLite,
        );
    }

    #[test]
    fn print_stmt_and_expr_helpers() {
        let s = Stmt::synth(StmtKind::Return(Some(Expr::int(3))));
        assert_eq!(print_stmt(&s), "return 3;\n");
        assert_eq!(
            print_expr(&Expr::bin(crate::BinOp::Add, Expr::int(1), Expr::int(2))),
            "1 + 2"
        );
    }

    #[test]
    fn string_escapes_survive_roundtrip() {
        roundtrip(
            r#"int main() { printf("a\tb\n"); printf("%d %f\n", 1, 2.5); return 0; }"#,
            Dialect::CudaLite,
        );
    }

    #[test]
    fn increment_pretty_printed() {
        let src = "int main() { int i = 0; i++; i += 2; return i; }";
        let p = parse(src, Dialect::CudaLite).unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("i++;"));
        assert!(printed.contains("i += 2;"));
    }
}
