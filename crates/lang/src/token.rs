//! Token definitions for the ParC lexer.
//!
//! Tokens borrow their text from the source they were lexed from: an
//! identifier, a pragma line and a string literal without escapes are
//! slices of it, so lexing allocates nothing per token.

use std::borrow::Cow;
use std::fmt;

/// The kind of a lexed token, borrowing its payload from the source `'a`.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    // Literals and identifiers
    /// Integer literal, e.g. `42`.
    IntLit(i64),
    /// Floating-point literal, e.g. `3.5`, `1e-6`, `2.0f`.
    FloatLit(f64),
    /// String literal with escapes already resolved, e.g. `"a\n"`: a slice
    /// of the source unless the literal has an escape.
    StrLit(Cow<'a, str>),
    /// Identifier or keyword-like word (`int`, `__global__`, `foo`).
    Ident(&'a str),
    /// A `#pragma ...` line: the raw text after `#pragma`, without the newline.
    PragmaLine(&'a str),

    // Punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `?`
    Question,
    /// `:`
    Colon,

    // Operators
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `*=`
    StarAssign,
    /// `/=`
    SlashAssign,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<<<` — CUDA kernel-launch opener.
    TripleLt,
    /// `>>>` — CUDA kernel-launch closer.
    TripleGt,

    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::IntLit(v) => write!(f, "{v}"),
            TokenKind::FloatLit(v) => write!(f, "{v}"),
            TokenKind::StrLit(s) => write!(f, "{s:?}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::PragmaLine(s) => write!(f, "#pragma {s}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Semi => write!(f, ";"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Question => write!(f, "?"),
            TokenKind::Colon => write!(f, ":"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::Assign => write!(f, "="),
            TokenKind::PlusAssign => write!(f, "+="),
            TokenKind::MinusAssign => write!(f, "-="),
            TokenKind::StarAssign => write!(f, "*="),
            TokenKind::SlashAssign => write!(f, "/="),
            TokenKind::PlusPlus => write!(f, "++"),
            TokenKind::MinusMinus => write!(f, "--"),
            TokenKind::EqEq => write!(f, "=="),
            TokenKind::NotEq => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::AndAnd => write!(f, "&&"),
            TokenKind::OrOr => write!(f, "||"),
            TokenKind::Not => write!(f, "!"),
            TokenKind::Amp => write!(f, "&"),
            TokenKind::Pipe => write!(f, "|"),
            TokenKind::Caret => write!(f, "^"),
            TokenKind::Shl => write!(f, "<<"),
            TokenKind::Shr => write!(f, ">>"),
            TokenKind::TripleLt => write!(f, "<<<"),
            TokenKind::TripleGt => write!(f, ">>>"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl<'a> Token<'a> {
    /// Construct a token.
    pub fn new(kind: TokenKind<'a>, line: u32) -> Self {
        Token { kind, line }
    }

    /// Returns the identifier text if this token is an identifier.
    pub fn as_ident(&self) -> Option<&'a str> {
        match self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_accessor() {
        let t = Token::new(TokenKind::Ident("foo"), 3);
        assert_eq!(t.as_ident(), Some("foo"));
        let t = Token::new(TokenKind::IntLit(1), 3);
        assert_eq!(t.as_ident(), None);
    }

    #[test]
    fn display_punct() {
        assert_eq!(TokenKind::TripleLt.to_string(), "<<<");
        assert_eq!(TokenKind::PlusAssign.to_string(), "+=");
        assert_eq!(TokenKind::StrLit("a\n".into()).to_string(), "\"a\\n\"");
    }
}
