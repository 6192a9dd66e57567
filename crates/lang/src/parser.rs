//! Recursive-descent parser for ParC (both dialects).
//!
//! The parser accepts the syntactic superset of CudaLite and OmpLite; dialect
//! legality (e.g. a kernel launch appearing in an OpenMP program) is checked
//! by `lassi-sema` so that such mistakes surface as *compile errors* that the
//! LASSI self-correction loop can feed back to the LLM.
//!
//! The parser reads the lexer's borrowed tokens by reference and copies
//! text only into the AST nodes it builds. Statements and expressions nest
//! at most [`MAX_NESTING`] levels deep: a deeper input is refused with a
//! coded `parse/nesting-too-deep` diagnostic instead of exhausting the
//! stack of the thread that parses it.

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// Parse a complete translation unit.
///
/// Every error carries a stable machine code: lexer errors keep their
/// `lex/*` codes, and any parser emission that was not classified at its
/// site defaults to `parse/syntax-error`.
pub fn parse(src: &str, dialect: Dialect) -> Result<Program, Diagnostic> {
    let tokens = Lexer::tokenize(src).map_err(|d| d.with_default_code("lex/error"))?;
    let mut parser = Parser::new(tokens, dialect);
    parser
        .parse_program()
        .map_err(|d| d.with_default_code("parse/syntax-error"))
}

/// How many statements and expressions may enclose one another: blocks,
/// `if`/`for`/`while` and pragma bodies, parenthesised, unary and cast
/// operands, ternary branches, subscripts and call arguments each count
/// one level. Far beyond any real program, and shallow enough to parse on
/// a 2 MiB thread stack.
pub const MAX_NESTING: usize = 256;

/// The ParC parser. Construct via [`Parser::new`] or use the [`parse`]
/// convenience function.
pub struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    dialect: Dialect,
    depth: usize,
}

const TYPE_KEYWORDS: &[&str] = &[
    "void", "bool", "int", "long", "float", "double", "dim3", "size_t", "unsigned",
];

impl<'a> Parser<'a> {
    /// Create a parser over pre-lexed tokens.
    pub fn new(tokens: Vec<Token<'a>>, dialect: Dialect) -> Self {
        Parser {
            tokens,
            pos: 0,
            dialect,
            depth: 0,
        }
    }

    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind<'a> {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind<'a> {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.peek().line
    }

    /// Step past the current token; the trailing `Eof` is never passed.
    fn bump(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    /// Enter one more nesting level, or refuse past [`MAX_NESTING`]. The
    /// caller leaves it with `self.depth -= 1` once its construct parsed; an
    /// error ends the whole parse, so the error paths need not.
    ///
    /// Each level costs the stack frames of the functions between two
    /// `descend` calls, so those functions keep their frames small: cold
    /// error formatting and the arms of a statement or primary expression
    /// live in functions of their own.
    fn descend(&mut self) -> Result<(), Diagnostic> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        Ok(())
    }

    #[cold]
    fn too_deep(&self) -> Diagnostic {
        Diagnostic::error(
            self.line(),
            format!("nesting deeper than {MAX_NESTING} levels"),
        )
        .with_code("parse/nesting-too-deep")
    }

    /// An unclassified "unexpected token" error at the current token.
    #[cold]
    fn unexpected(&self, context: &str) -> Diagnostic {
        Diagnostic::error(
            self.line(),
            format!("unexpected token '{}' {context}", self.peek_kind()),
        )
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(*self.peek_kind(), TokenKind::Ident(s) if s == word)
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if self.at_ident(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), Diagnostic> {
        if self.peek_kind() == kind {
            self.bump();
            Ok(())
        } else {
            Err(Diagnostic::error(
                self.line(),
                format!("expected {what} ('{kind}'), found '{}'", self.peek_kind()),
            )
            .with_code("parse/expected-token"))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'a str, Diagnostic> {
        if let TokenKind::Ident(s) = *self.peek_kind() {
            self.bump();
            return Ok(s);
        }
        Err(Diagnostic::error(
            self.line(),
            format!("expected {what}, found '{}'", self.peek_kind()),
        )
        .with_code("parse/expected-ident"))
    }

    fn at_type_keyword(&self) -> bool {
        match *self.peek_kind() {
            TokenKind::Ident(s) => TYPE_KEYWORDS.contains(&s) || s == "const",
            _ => false,
        }
    }

    // ----------------------------------------------------------------- types

    fn parse_base_type(&mut self) -> Result<Type, Diagnostic> {
        let line = self.line();
        let base = match self.expect_ident("a type name")? {
            "void" => Type::Void,
            "bool" => Type::Bool,
            "int" => Type::Int,
            "long" | "size_t" => {
                // accept `long long`
                self.eat_ident("long");
                Type::Long
            }
            "unsigned" => {
                // accept `unsigned int` / `unsigned long`
                if self.at_ident("long") {
                    self.bump();
                    Type::Long
                } else {
                    self.eat_ident("int");
                    Type::Int
                }
            }
            "float" => Type::Float,
            "double" => Type::Double,
            "dim3" => Type::Dim3,
            other => {
                return Err(Diagnostic::error(
                    line,
                    format!("unknown type name '{other}'"),
                ));
            }
        };
        Ok(base)
    }

    fn parse_type(&mut self) -> Result<Type, Diagnostic> {
        let mut ty = self.parse_base_type()?;
        while self.eat(&TokenKind::Star) {
            ty = ty.ptr();
        }
        Ok(ty)
    }

    // ------------------------------------------------------------- top level

    /// Parse the whole program.
    pub fn parse_program(&mut self) -> Result<Program, Diagnostic> {
        let mut program = Program::new(self.dialect);
        while self.peek_kind() != &TokenKind::Eof {
            let func = self.parse_function()?;
            program.items.push(Item::Function(func));
        }
        if program.items.is_empty() {
            return Err(Diagnostic::error(
                0,
                "empty translation unit: no functions defined",
            ));
        }
        Ok(program)
    }

    fn parse_function(&mut self) -> Result<Function, Diagnostic> {
        let line = self.line();
        let mut qualifier = FnQualifier::Host;
        loop {
            if self.eat_ident("__global__") {
                qualifier = FnQualifier::Kernel;
            } else if self.eat_ident("__device__") {
                qualifier = FnQualifier::Device;
            } else if self.eat_ident("static") || self.eat_ident("inline") {
                // accepted and ignored
            } else {
                break;
            }
        }
        let ret = self.parse_type()?;
        let name = self.expect_ident("a function name")?.to_string();
        self.expect(&TokenKind::LParen, "'(' after function name")?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let is_const = self.eat_ident("const");
                let ty = self.parse_type()?;
                let pname = self.expect_ident("a parameter name")?.to_string();
                params.push(Param {
                    name: pname,
                    ty,
                    is_const,
                });
                if self.eat(&TokenKind::Comma) {
                    continue;
                }
                self.expect(&TokenKind::RParen, "')' after parameters")?;
                break;
            }
        }
        let body = self.parse_block()?;
        Ok(Function {
            name,
            qualifier,
            ret,
            params,
            body,
            line,
        })
    }

    // ------------------------------------------------------------ statements

    fn parse_block(&mut self) -> Result<Block, Diagnostic> {
        self.expect(&TokenKind::LBrace, "'{' to open a block")?;
        let mut stmts = Vec::new();
        while self.peek_kind() != &TokenKind::RBrace {
            if self.peek_kind() == &TokenKind::Eof {
                return Err(Diagnostic::error(
                    self.line(),
                    "unexpected end of file inside block",
                ));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&TokenKind::RBrace, "'}' to close a block")?;
        Ok(Block { stmts })
    }

    /// Parse a single statement (the body of a pragma, a loop, etc.).
    pub fn parse_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        self.descend()?;
        let stmt = match *self.peek_kind() {
            TokenKind::PragmaLine(text) => self.parse_pragma_stmt(text),
            TokenKind::LBrace => self.parse_block_stmt(),
            TokenKind::Ident("if") => self.parse_if(),
            TokenKind::Ident("for") => self.parse_for(),
            TokenKind::Ident("while") => self.parse_while(),
            TokenKind::Ident("return") => self.parse_return(),
            TokenKind::Ident("break") => self.parse_jump(StmtKind::Break, "';' after break"),
            TokenKind::Ident("continue") => {
                self.parse_jump(StmtKind::Continue, "';' after continue")
            }
            TokenKind::Ident(_) | TokenKind::PlusPlus | TokenKind::MinusMinus => {
                self.parse_simple_stmt_semi()
            }
            _ => Err(self.unexpected("at start of statement")),
        }?;
        self.depth -= 1;
        Ok(stmt)
    }

    fn parse_pragma_stmt(&mut self, text: &str) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        self.bump();
        let directive = parse_pragma(text, line)?;
        let body = if directive.kind.takes_body() {
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::new(
            StmtKind::Pragma(PragmaStmt { directive, body }),
            line,
        ))
    }

    fn parse_block_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        let block = self.parse_block()?;
        Ok(Stmt::new(StmtKind::Block(block), line))
    }

    fn parse_return(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        self.bump();
        let value = if self.peek_kind() == &TokenKind::Semi {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::Semi, "';' after return")?;
        Ok(Stmt::new(StmtKind::Return(value), line))
    }

    /// `break;` or `continue;`.
    fn parse_jump(&mut self, kind: StmtKind, semi: &str) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        self.bump();
        self.expect(&TokenKind::Semi, semi)?;
        Ok(Stmt::new(kind, line))
    }

    fn parse_simple_stmt_semi(&mut self) -> Result<Stmt, Diagnostic> {
        let stmt = self.parse_simple_stmt()?;
        self.expect(&TokenKind::Semi, "';' after statement")?;
        Ok(stmt)
    }

    fn parse_if(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        self.bump(); // if
        self.expect(&TokenKind::LParen, "'(' after if")?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen, "')' after if condition")?;
        let then_branch = self.parse_stmt_as_block()?;
        let else_branch = if self.at_ident("else") {
            self.bump();
            Some(self.parse_stmt_as_block()?)
        } else {
            None
        };
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            line,
        ))
    }

    fn parse_stmt_as_block(&mut self) -> Result<Block, Diagnostic> {
        if self.peek_kind() == &TokenKind::LBrace {
            self.parse_block()
        } else {
            let s = self.parse_stmt()?;
            Ok(Block::from_stmts(vec![s]))
        }
    }

    fn parse_for(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        let mut for_stmt = self.parse_for_clauses()?;
        for_stmt.body = self.parse_stmt_as_block()?;
        Ok(Stmt::new(StmtKind::For(for_stmt), line))
    }

    /// `for (init; cond; step)`, each clause optional, with an empty body.
    fn parse_for_clauses(&mut self) -> Result<ForStmt, Diagnostic> {
        self.bump(); // for
        self.expect(&TokenKind::LParen, "'(' after for")?;
        let init = if self.peek_kind() == &TokenKind::Semi {
            None
        } else {
            Some(Box::new(self.parse_simple_stmt()?))
        };
        self.expect(&TokenKind::Semi, "';' after for-init")?;
        let cond = if self.peek_kind() == &TokenKind::Semi {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::Semi, "';' after for-condition")?;
        let step = if self.peek_kind() == &TokenKind::RParen {
            None
        } else {
            Some(Box::new(self.parse_simple_stmt()?))
        };
        self.expect(&TokenKind::RParen, "')' after for clauses")?;
        Ok(ForStmt {
            init,
            cond,
            step,
            body: Block::default(),
        })
    }

    fn parse_while(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        self.bump(); // while
        self.expect(&TokenKind::LParen, "'(' after while")?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen, "')' after while condition")?;
        let body = self.parse_stmt_as_block()?;
        Ok(Stmt::new(StmtKind::While { cond, body }, line))
    }

    /// Parse a declaration, assignment, increment, kernel launch or call,
    /// without consuming the trailing ';'. Shared by statements and for-clauses.
    fn parse_simple_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();

        // Prefix increment/decrement.
        if matches!(
            self.peek_kind(),
            TokenKind::PlusPlus | TokenKind::MinusMinus
        ) {
            let op = if self.peek_kind() == &TokenKind::PlusPlus {
                AssignOp::AddAssign
            } else {
                AssignOp::SubAssign
            };
            self.bump();
            let target = self.parse_postfix_expr()?;
            return Ok(Stmt::new(
                StmtKind::Assign {
                    target,
                    op,
                    value: Expr::int(1),
                },
                line,
            ));
        }

        // __shared__ declarations (device code).
        if self.at_ident("__shared__") {
            self.bump();
            let mut decl = self.parse_var_decl()?;
            decl.is_shared = true;
            return Ok(Stmt::new(StmtKind::VarDecl(decl), line));
        }

        // Declarations start with a type keyword or `const`.
        if self.at_type_keyword() {
            let decl = self.parse_var_decl()?;
            return Ok(Stmt::new(StmtKind::VarDecl(decl), line));
        }

        // Kernel launch: ident <<< ... >>> ( ... )
        if matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.peek_ahead(1) == &TokenKind::TripleLt
        {
            let kernel = self.expect_ident("kernel name")?.to_string();
            self.expect(&TokenKind::TripleLt, "'<<<' in kernel launch")?;
            let grid = self.parse_expr()?;
            self.expect(&TokenKind::Comma, "',' between grid and block dims")?;
            let block = self.parse_expr()?;
            self.expect(&TokenKind::TripleGt, "'>>>' in kernel launch")?;
            self.expect(&TokenKind::LParen, "'(' before kernel arguments")?;
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if self.eat(&TokenKind::Comma) {
                        continue;
                    }
                    self.expect(&TokenKind::RParen, "')' after kernel arguments")?;
                    break;
                }
            }
            return Ok(Stmt::new(
                StmtKind::KernelLaunch(KernelLaunch {
                    kernel,
                    grid,
                    block,
                    args,
                }),
                line,
            ));
        }

        // Otherwise: expression, possibly followed by an assignment operator
        // or a postfix increment.
        let expr = self.parse_expr()?;
        let op = match self.peek_kind() {
            TokenKind::Assign => Some(AssignOp::Assign),
            TokenKind::PlusAssign => Some(AssignOp::AddAssign),
            TokenKind::MinusAssign => Some(AssignOp::SubAssign),
            TokenKind::StarAssign => Some(AssignOp::MulAssign),
            TokenKind::SlashAssign => Some(AssignOp::DivAssign),
            TokenKind::PlusPlus => {
                self.bump();
                return Ok(Stmt::new(
                    StmtKind::Assign {
                        target: expr,
                        op: AssignOp::AddAssign,
                        value: Expr::int(1),
                    },
                    line,
                ));
            }
            TokenKind::MinusMinus => {
                self.bump();
                return Ok(Stmt::new(
                    StmtKind::Assign {
                        target: expr,
                        op: AssignOp::SubAssign,
                        value: Expr::int(1),
                    },
                    line,
                ));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let value = self.parse_expr()?;
            Ok(Stmt::new(
                StmtKind::Assign {
                    target: expr,
                    op,
                    value,
                },
                line,
            ))
        } else {
            Ok(Stmt::new(StmtKind::Expr(expr), line))
        }
    }

    fn parse_var_decl(&mut self) -> Result<VarDecl, Diagnostic> {
        let is_const = self.eat_ident("const");
        let ty = self.parse_type()?;
        let name = self.expect_ident("a variable name")?.to_string();

        // dim3 constructor form: dim3 block(x, y, z);
        if ty == Type::Dim3 && self.peek_kind() == &TokenKind::LParen {
            self.bump();
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if self.eat(&TokenKind::Comma) {
                        continue;
                    }
                    self.expect(&TokenKind::RParen, "')' after dim3 arguments")?;
                    break;
                }
            }
            return Ok(VarDecl {
                name,
                ty,
                init: Some(Expr::call("dim3", args)),
                array_len: None,
                is_const,
                is_shared: false,
            });
        }

        // Array declaration: T name[len]
        let array_len = if self.eat(&TokenKind::LBracket) {
            let len = self.parse_expr()?;
            self.expect(&TokenKind::RBracket, "']' after array length")?;
            Some(len)
        } else {
            None
        };

        let init = if self.eat(&TokenKind::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(VarDecl {
            name,
            ty,
            init,
            array_len,
            is_const,
            is_shared: false,
        })
    }

    // ----------------------------------------------------------- expressions

    /// Parse an expression.
    pub fn parse_expr(&mut self) -> Result<Expr, Diagnostic> {
        self.descend()?;
        let cond = self.parse_binary(0)?;
        let expr = if self.peek_kind() == &TokenKind::Question {
            self.parse_ternary(cond)?
        } else {
            cond
        };
        self.depth -= 1;
        Ok(expr)
    }

    /// `? then : else` after the condition `cond`.
    fn parse_ternary(&mut self, cond: Expr) -> Result<Expr, Diagnostic> {
        self.bump(); // ?
        let then_expr = self.parse_expr()?;
        self.expect(&TokenKind::Colon, "':' in ternary expression")?;
        let else_expr = self.parse_expr()?;
        Ok(Expr::Ternary {
            cond: Box::new(cond),
            then_expr: Box::new(then_expr),
            else_expr: Box::new(else_expr),
        })
    }

    fn binop_for(&self, kind: &TokenKind) -> Option<(BinOp, u8)> {
        // Higher binding power binds tighter.
        Some(match kind {
            TokenKind::OrOr => (BinOp::Or, 1),
            TokenKind::AndAnd => (BinOp::And, 2),
            TokenKind::Pipe => (BinOp::BitOr, 3),
            TokenKind::Caret => (BinOp::BitXor, 4),
            TokenKind::Amp => (BinOp::BitAnd, 5),
            TokenKind::EqEq => (BinOp::Eq, 6),
            TokenKind::NotEq => (BinOp::Ne, 6),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_bp: u8) -> Result<Expr, Diagnostic> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, bp)) = self.binop_for(self.peek_kind()) {
            if bp < min_bp {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(bp + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, Diagnostic> {
        let op = match self.peek_kind() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            TokenKind::Amp => UnOp::AddrOf,
            TokenKind::Star => UnOp::Deref,
            _ => return self.parse_postfix_expr(),
        };
        self.bump();
        let operand = self.parse_operand()?;
        Ok(Expr::Unary {
            op,
            operand: Box::new(operand),
        })
    }

    /// The operand of a unary operator or a cast, one level deeper.
    fn parse_operand(&mut self) -> Result<Expr, Diagnostic> {
        self.descend()?;
        let operand = self.parse_unary()?;
        self.depth -= 1;
        Ok(operand)
    }

    fn parse_postfix_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut expr = self.parse_primary()?;
        while matches!(self.peek_kind(), TokenKind::LBracket | TokenKind::Dot) {
            expr = self.parse_suffix(expr)?;
        }
        Ok(expr)
    }

    /// A subscript `[index]` or member `.field` applied to `base`.
    fn parse_suffix(&mut self, base: Expr) -> Result<Expr, Diagnostic> {
        if self.eat(&TokenKind::Dot) {
            let field = self.expect_ident("a member name")?;
            return Ok(Expr::member(base, field));
        }
        self.bump(); // [
        let index = self.parse_expr()?;
        self.expect(&TokenKind::RBracket, "']' after subscript")?;
        Ok(Expr::index(base, index))
    }

    fn parse_primary(&mut self) -> Result<Expr, Diagnostic> {
        match *self.peek_kind() {
            TokenKind::IntLit(v) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Ok(Expr::FloatLit(v))
            }
            TokenKind::StrLit(ref s) => {
                let s = s.to_string();
                self.bump();
                Ok(Expr::StrLit(s))
            }
            TokenKind::Ident("sizeof") => self.parse_sizeof(),
            TokenKind::Ident(name) if self.peek_ahead(1) == &TokenKind::LParen => {
                self.parse_call(name)
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::Ident(name.to_string()))
            }
            TokenKind::LParen => match *self.peek_ahead(1) {
                // A cast `(T*) expr` / `(T) expr`.
                TokenKind::Ident(word) if TYPE_KEYWORDS.contains(&word) => self.parse_cast(),
                _ => self.parse_parenthesized(),
            },
            _ => Err(self.unexpected("in expression")),
        }
    }

    fn parse_sizeof(&mut self) -> Result<Expr, Diagnostic> {
        self.bump();
        self.expect(&TokenKind::LParen, "'(' after sizeof")?;
        let ty = self.parse_type()?;
        self.expect(&TokenKind::RParen, "')' after sizeof type")?;
        Ok(Expr::Sizeof(ty))
    }

    /// `name(args...)`, at `name`.
    fn parse_call(&mut self, name: &str) -> Result<Expr, Diagnostic> {
        self.bump();
        self.bump();
        let mut args = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                args.push(self.parse_expr()?);
                if self.eat(&TokenKind::Comma) {
                    continue;
                }
                self.expect(&TokenKind::RParen, "')' after call arguments")?;
                break;
            }
        }
        Ok(Expr::call(name, args))
    }

    fn parse_cast(&mut self) -> Result<Expr, Diagnostic> {
        self.bump(); // (
        let ty = self.parse_type()?;
        self.expect(&TokenKind::RParen, "')' after cast type")?;
        let expr = self.parse_operand()?;
        Ok(Expr::Cast {
            ty,
            expr: Box::new(expr),
        })
    }

    fn parse_parenthesized(&mut self) -> Result<Expr, Diagnostic> {
        self.bump();
        let expr = self.parse_expr()?;
        self.expect(&TokenKind::RParen, "')' after parenthesized expression")?;
        Ok(expr)
    }
}

// -------------------------------------------------------------------- pragma

/// Parse the text after `#pragma` into an [`OmpDirective`].
pub fn parse_pragma(text: &str, line: u32) -> Result<OmpDirective, Diagnostic> {
    let tokens = Lexer::tokenize(text).map_err(|d| Diagnostic::error(line, d.message))?;
    let mut p = PragmaParser {
        p: Parser::new(tokens, Dialect::OmpLite),
        line,
    };
    p.parse()
}

/// Directive words and clauses over the pragma's own tokens; clause
/// expressions go to the wrapped expression parser.
struct PragmaParser<'a> {
    p: Parser<'a>,
    line: u32,
}

const CLAUSE_NAMES: &[&str] = &[
    "map",
    "reduction",
    "num_threads",
    "num_teams",
    "thread_limit",
    "schedule",
    "collapse",
    "private",
    "firstprivate",
    "shared",
    "simd",
];

impl<'a> PragmaParser<'a> {
    fn peek(&self) -> &TokenKind<'a> {
        self.p.peek_kind()
    }

    fn bump(&mut self) {
        self.p.bump();
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::error(self.line, msg.into())
    }

    fn expect_kind(&mut self, kind: &TokenKind, what: &str) -> Result<(), Diagnostic> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "in '#pragma omp': expected {what}, found '{}'",
                self.peek()
            )))
        }
    }

    /// The current token as an identifier, stepped past, or `None` with
    /// the position left on it.
    fn ident(&mut self) -> Option<&'a str> {
        let TokenKind::Ident(s) = *self.peek() else {
            return None;
        };
        self.bump();
        Some(s)
    }

    fn parse(&mut self) -> Result<OmpDirective, Diagnostic> {
        if self.peek() != &TokenKind::Ident("omp") {
            return Err(self.err(format!(
                "unsupported pragma '{}' (expected 'omp')",
                self.peek()
            )));
        }
        self.bump();

        // Collect directive words until a clause name or a non-word.
        let mut words: Vec<&str> = Vec::new();
        while let TokenKind::Ident(w) = *self.peek() {
            if CLAUSE_NAMES.contains(&w) {
                break;
            }
            words.push(w);
            self.bump();
        }
        let kind = match words.as_slice() {
            ["parallel", "for"] => OmpDirectiveKind::ParallelFor,
            ["target", "teams", "distribute", "parallel", "for"] => {
                OmpDirectiveKind::TargetTeamsDistributeParallelFor
            }
            ["target", "data"] => OmpDirectiveKind::TargetData,
            ["atomic"] | ["atomic", "update"] => OmpDirectiveKind::Atomic,
            ["barrier"] => OmpDirectiveKind::Barrier,
            _ => {
                return Err(self.err(format!(
                    "unknown or unsupported OpenMP directive 'omp {}'",
                    words.join(" ")
                )))
            }
        };

        let mut clauses = Vec::new();
        loop {
            match *self.peek() {
                TokenKind::Eof => break,
                TokenKind::Comma => self.bump(),
                TokenKind::Ident(name) => {
                    self.bump();
                    clauses.push(self.parse_clause(name)?);
                }
                _ => {
                    return Err(self.err(format!(
                        "unexpected token '{}' in pragma clauses",
                        self.peek()
                    )))
                }
            }
        }

        Ok(OmpDirective { kind, clauses })
    }

    /// A clause expression. Its diagnostic keeps its code and column; only
    /// the line moves from the pragma's own text to the pragma's line.
    fn parse_expr(&mut self) -> Result<Expr, Diagnostic> {
        let line = self.line;
        self.p.parse_expr().map_err(|d| Diagnostic { line, ..d })
    }

    fn parse_var_list(&mut self) -> Result<Vec<String>, Diagnostic> {
        let mut vars = Vec::new();
        loop {
            let Some(v) = self.ident() else {
                return Err(self.err(format!("expected a variable name, found '{}'", self.peek())));
            };
            vars.push(v.to_string());
            if self.peek() == &TokenKind::Comma {
                self.bump();
                continue;
            }
            break;
        }
        Ok(vars)
    }

    fn parse_clause(&mut self, name: &str) -> Result<OmpClause, Diagnostic> {
        match name {
            "simd" => {
                // Accept and normalize `simd` as a no-argument schedule hint.
                Ok(OmpClause::Schedule {
                    kind: ScheduleKind::Static,
                    chunk: None,
                })
            }
            "map" => {
                self.expect_kind(&TokenKind::LParen, "'(' after map")?;
                // map kind is optional; defaults to tofrom
                let kind = match *self.peek() {
                    TokenKind::Ident(k)
                        if matches!(k, "to" | "from" | "tofrom" | "alloc")
                            && self.p.peek_ahead(1) == &TokenKind::Colon =>
                    {
                        self.bump();
                        self.bump(); // ':'
                        match k {
                            "to" => MapKind::To,
                            "from" => MapKind::From,
                            "alloc" => MapKind::Alloc,
                            _ => MapKind::ToFrom,
                        }
                    }
                    _ => MapKind::ToFrom,
                };
                let mut sections = Vec::new();
                loop {
                    let Some(var) = self.ident() else {
                        return Err(self.err(format!(
                            "expected a mapped variable, found '{}'",
                            self.peek()
                        )));
                    };
                    let var = var.to_string();
                    let (lower, len) = if self.peek() == &TokenKind::LBracket {
                        self.bump();
                        let lower = self.parse_expr()?;
                        self.expect_kind(&TokenKind::Colon, "':' in array section")?;
                        let len = self.parse_expr()?;
                        self.expect_kind(&TokenKind::RBracket, "']' after array section")?;
                        (Some(lower), Some(len))
                    } else {
                        (None, None)
                    };
                    sections.push(MapSection { var, lower, len });
                    if self.peek() == &TokenKind::Comma {
                        self.bump();
                        continue;
                    }
                    break;
                }
                self.expect_kind(&TokenKind::RParen, "')' after map clause")?;
                Ok(OmpClause::Map { kind, sections })
            }
            "reduction" => {
                self.expect_kind(&TokenKind::LParen, "'(' after reduction")?;
                let op = match *self.peek() {
                    TokenKind::Plus => ReductionOp::Add,
                    TokenKind::Star => ReductionOp::Mul,
                    TokenKind::Ident("min") => ReductionOp::Min,
                    TokenKind::Ident("max") => ReductionOp::Max,
                    ref other => {
                        return Err(self.err(format!("unsupported reduction operator '{other}'")))
                    }
                };
                self.bump();
                self.expect_kind(&TokenKind::Colon, "':' in reduction clause")?;
                let vars = self.parse_var_list()?;
                self.expect_kind(&TokenKind::RParen, "')' after reduction clause")?;
                Ok(OmpClause::Reduction { op, vars })
            }
            "num_threads" | "num_teams" | "thread_limit" => {
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let e = self.parse_expr()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                Ok(match name {
                    "num_threads" => OmpClause::NumThreads(e),
                    "num_teams" => OmpClause::NumTeams(e),
                    _ => OmpClause::ThreadLimit(e),
                })
            }
            "schedule" => {
                self.expect_kind(&TokenKind::LParen, "'(' after schedule")?;
                let kind = match *self.peek() {
                    TokenKind::Ident("static") => ScheduleKind::Static,
                    TokenKind::Ident("dynamic") => ScheduleKind::Dynamic,
                    TokenKind::Ident("guided") => ScheduleKind::Guided,
                    ref other => return Err(self.err(format!("unknown schedule kind '{other}'"))),
                };
                self.bump();
                let chunk = if self.peek() == &TokenKind::Comma {
                    self.bump();
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect_kind(&TokenKind::RParen, "')' after schedule clause")?;
                Ok(OmpClause::Schedule { kind, chunk })
            }
            "collapse" => {
                self.expect_kind(&TokenKind::LParen, "'(' after collapse")?;
                let n = match *self.peek() {
                    TokenKind::IntLit(v) if v >= 1 => v as u32,
                    ref other => {
                        return Err(self.err(format!(
                            "collapse expects a positive integer, found '{other}'"
                        )))
                    }
                };
                self.bump();
                self.expect_kind(&TokenKind::RParen, "')' after collapse clause")?;
                Ok(OmpClause::Collapse(n))
            }
            "private" | "firstprivate" | "shared" => {
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let vars = self.parse_var_list()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                Ok(match name {
                    "private" => OmpClause::Private(vars),
                    "firstprivate" => OmpClause::FirstPrivate(vars),
                    _ => OmpClause::Shared(vars),
                })
            }
            other => Err(self.err(format!("unknown OpenMP clause '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_cuda(src: &str) -> Program {
        parse(src, Dialect::CudaLite).expect("parse cuda")
    }

    fn parse_omp(src: &str) -> Program {
        parse(src, Dialect::OmpLite).expect("parse omp")
    }

    #[test]
    fn parse_kernel_and_main() {
        let p = parse_cuda(
            r#"
            __global__ void add(float* out, const float* a, const float* b, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { out[i] = a[i] + b[i]; }
            }
            int main() {
                int n = 1024;
                return 0;
            }
            "#,
        );
        assert_eq!(p.items.len(), 2);
        let k = p.function("add").unwrap();
        assert_eq!(k.qualifier, FnQualifier::Kernel);
        assert_eq!(k.params.len(), 4);
        assert!(k.params[1].is_const);
        assert!(p.main().is_some());
    }

    #[test]
    fn parse_kernel_launch() {
        let p = parse_cuda(
            r#"
            __global__ void k(float* x) { x[0] = 1.0; }
            int main() {
                float* d;
                cudaMalloc(&d, 16 * sizeof(float));
                dim3 grid(4);
                dim3 block(256);
                k<<<grid, block>>>(d);
                cudaDeviceSynchronize();
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        let has_launch = main
            .body
            .stmts
            .iter()
            .any(|s| matches!(s.kind, StmtKind::KernelLaunch(_)));
        assert!(has_launch);
    }

    #[test]
    fn parse_launch_with_expressions() {
        let p = parse_cuda(
            r#"
            __global__ void k(float* x, int n) { }
            int main() {
                float* d;
                int n = 100;
                k<<<(n + 255) / 256, 256>>>(d, n);
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        let launch = main.body.stmts.iter().find_map(|s| match &s.kind {
            StmtKind::KernelLaunch(l) => Some(l),
            _ => None,
        });
        let launch = launch.expect("launch");
        assert_eq!(launch.args.len(), 2);
    }

    #[test]
    fn parse_pragma_target_teams() {
        let p = parse_omp(
            r#"
            int main() {
                int n = 64;
                double sum = 0.0;
                #pragma omp target teams distribute parallel for reduction(+:sum) map(tofrom: sum)
                for (int i = 0; i < n; i++) {
                    sum += 1.0;
                }
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        let pragma = main.body.stmts.iter().find_map(|s| match &s.kind {
            StmtKind::Pragma(pr) => Some(pr),
            _ => None,
        });
        let pragma = pragma.expect("pragma");
        assert_eq!(
            pragma.directive.kind,
            OmpDirectiveKind::TargetTeamsDistributeParallelFor
        );
        assert!(pragma.directive.reduction().is_some());
        assert!(matches!(
            pragma.body.as_ref().unwrap().kind,
            StmtKind::For(_)
        ));
    }

    #[test]
    fn parse_pragma_map_sections() {
        let d = parse_pragma(
            "omp target teams distribute parallel for map(to: a[0:n*n], b[0:n]) map(from: c[0:n]) num_threads(256) schedule(static) collapse(2)",
            1,
        )
        .unwrap();
        assert_eq!(d.map_clauses().count(), 2);
        assert_eq!(d.collapse(), 2);
        let (kind, sections) = d.map_clauses().next().unwrap();
        assert_eq!(*kind, MapKind::To);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].var, "a");
    }

    #[test]
    fn parse_pragma_atomic() {
        let p = parse_omp(
            r#"
            int main() {
                double s = 0.0;
                #pragma omp atomic
                s += 1.0;
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        let pragma = main.body.stmts.iter().find_map(|s| match &s.kind {
            StmtKind::Pragma(pr) => Some(pr),
            _ => None,
        });
        assert_eq!(pragma.unwrap().directive.kind, OmpDirectiveKind::Atomic);
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(parse_pragma("omp teams loop", 5).is_err());
        assert!(parse_pragma("acc parallel", 5).is_err());
    }

    #[test]
    fn parse_casts_sizeof_malloc() {
        let p = parse_cuda(
            r#"
            int main() {
                int n = 10;
                float* a = (float*)malloc(n * sizeof(float));
                long bytes = (long)n * 4;
                free(a);
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        match &main.body.stmts[1].kind {
            StmtKind::VarDecl(d) => {
                assert_eq!(d.ty, Type::Float.ptr());
                assert!(matches!(d.init, Some(Expr::Cast { .. })));
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn parse_ternary_and_precedence() {
        let p = parse_cuda("int main() { int x = 1 + 2 * 3 < 7 ? 4 : 5; return x; }");
        let main = p.main().unwrap();
        match &main.body.stmts[0].kind {
            StmtKind::VarDecl(d) => match d.init.as_ref().unwrap() {
                Expr::Ternary { cond, .. } => match cond.as_ref() {
                    Expr::Binary {
                        op: BinOp::Lt, lhs, ..
                    } => match lhs.as_ref() {
                        Expr::Binary {
                            op: BinOp::Add,
                            rhs,
                            ..
                        } => {
                            assert!(matches!(rhs.as_ref(), Expr::Binary { op: BinOp::Mul, .. }));
                        }
                        other => panic!("bad lhs {other:?}"),
                    },
                    other => panic!("bad cond {other:?}"),
                },
                other => panic!("expected ternary, got {other:?}"),
            },
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn parse_for_variants() {
        let p = parse_cuda(
            r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { s += i; }
                for (int j = 0; j < 10; j += 2) s += j;
                int k;
                for (k = 0; k < 5; k = k + 1) { s += k; }
                return s;
            }
            "#,
        );
        let main = p.main().unwrap();
        let fors: Vec<&ForStmt> = main
            .body
            .stmts
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::For(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(fors.len(), 3);
        assert!(fors[0].canonical().is_some());
        assert!(fors[1].canonical().is_some());
        assert!(fors[2].canonical().is_some());
    }

    #[test]
    fn parse_while_break_continue() {
        let p = parse_cuda(
            "int main() { int i = 0; while (i < 10) { i++; if (i == 5) { continue; } if (i == 8) { break; } } return i; }",
        );
        assert!(p.main().is_some());
    }

    #[test]
    fn parse_shared_decl_and_syncthreads() {
        let p = parse_cuda(
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
        );
        let k = p.function("reduce").unwrap();
        match &k.body.stmts[0].kind {
            StmtKind::VarDecl(d) => {
                assert!(d.is_shared);
                assert!(d.array_len.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_messages_cite_lines() {
        let err = parse("int main() {\n  int x = ;\n}", Dialect::CudaLite).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unexpected token"));
    }

    #[test]
    fn missing_semicolon_is_error() {
        let err = parse("int main() { int x = 3 return x; }", Dialect::CudaLite).unwrap_err();
        assert!(err.message.contains("';'"), "{}", err.message);
    }

    #[test]
    fn unbalanced_brace_is_error() {
        assert!(parse("int main() { int x = 3;", Dialect::CudaLite).is_err());
    }

    #[test]
    fn empty_program_is_error() {
        assert!(parse("", Dialect::CudaLite).is_err());
    }

    #[test]
    fn parse_member_chains_and_calls() {
        let p = parse_cuda(
            "__global__ void k(float* a) { int i = blockIdx.x * blockDim.x + threadIdx.x; a[i] = sqrt(fabs(a[i])); } int main() { return 0; }",
        );
        assert_eq!(p.kernels().count(), 1);
    }

    /// Each form that nests, `depth` levels deep.
    fn nested_forms(depth: usize) -> Vec<(&'static str, String)> {
        let main = |body: String| format!("int main() {{ int x = 0; int a[4]; {body} return 0; }}");
        let nest = |open: &str, inner: &str, close: &str| {
            format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
        };
        let expr = |open: &str, close: &str| main(format!("x = {};", nest(open, "0", close)));
        vec![
            ("parentheses", expr("(", ")")),
            ("negation", expr("- ", "")),
            ("not", expr("!", "")),
            ("casts", expr("(int)", "")),
            ("ternaries", expr("1 ? 1 : ", "")),
            ("subscripts", expr("a[", "]")),
            ("calls", expr("abs(", ")")),
            ("blocks", main(nest("{", "", "}"))),
            ("ifs", main(nest("if (x) ", "x = 1;", ""))),
            ("fors", main(nest("for (;;) ", "break;", ""))),
            ("whiles", main(nest("while (x) ", "break;", ""))),
            ("pragmas", main(nest("#pragma omp atomic\n", "x += 1;", ""))),
        ]
    }

    #[test]
    fn deep_nesting_is_refused_without_exhausting_the_stack() {
        for (form, src) in nested_forms(100_000) {
            let err = parse(&src, Dialect::OmpLite).unwrap_err();
            assert_eq!(err.code, "parse/nesting-too-deep", "{form}: {err:?}");
            assert_eq!(
                err.message,
                format!("nesting deeper than {MAX_NESTING} levels"),
                "{form}"
            );
        }
    }

    #[test]
    fn a_too_deep_clause_expression_keeps_its_code_and_line() {
        let depth = 300;
        let src = format!(
            "int main() {{\n#pragma omp parallel for num_threads({}1{})\n\
             for (int i = 0; i < 4; i++) {{ }}\nreturn 0; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let err = parse(&src, Dialect::OmpLite).unwrap_err();
        assert_eq!(err.code, "parse/nesting-too-deep", "{err:?}");
        assert_eq!(err.line, 2, "{err:?}");
    }

    #[test]
    fn nesting_below_the_cap_parses() {
        for (form, src) in nested_forms(MAX_NESTING - 4) {
            if let Err(err) = parse(&src, Dialect::OmpLite) {
                panic!("{form}: {err:?}");
            }
        }
    }

    #[test]
    fn parse_unsigned_and_long_long() {
        let p = parse_cuda(
            "int main() { unsigned int a = 1; long long b = 2; unsigned long c = 3; return 0; }",
        );
        let main = p.main().unwrap();
        assert_eq!(main.body.stmts.len(), 4);
    }
}
