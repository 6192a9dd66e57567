//! Hand-written lexer for ParC source text.
//!
//! The lexer is shared between the CudaLite and OmpLite dialects. Dialect
//! differences are purely syntactic constructs handled by the parser; the
//! lexer recognises the superset. `#pragma` lines are lexed as a single
//! [`TokenKind::PragmaLine`] token whose payload is re-lexed by the pragma
//! sub-parser so that pragma text stays line-delimited as in C.
//!
//! Tokens borrow from the source: identifiers, pragma lines and string
//! literals without escapes are slices of it, so a lex allocates the token
//! vector and nothing per token (an escaped string literal is the one
//! owned payload). Text inside string literals, comments and pragma lines
//! may be any UTF-8 and passes through unchanged.

use std::borrow::Cow;

use crate::diag::Diagnostic;
use crate::token::{Token, TokenKind};

/// Streaming lexer over ParC source text.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    /// Lex the whole input, returning the tokens (terminated by `Eof`) or the
    /// first lexical error.
    pub fn tokenize(src: &'a str) -> Result<Vec<Token<'a>>, Diagnostic> {
        let mut lx = Lexer::new(src);
        // The benchmark programs and their translations lex to about 0.27
        // tokens per byte: room for one per three bytes avoids regrowing.
        let mut out = Vec::with_capacity(src.len() / 3);
        loop {
            let tok = lx.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                break;
            }
        }
        Ok(out)
    }

    /// Whether the whole input has been consumed. The `peek` functions
    /// read 0 there, so a 0 byte alone does not tell the end.
    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.src.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    /// Consume the bytes that satisfy `keep`, up to the end of input, and
    /// return them as a slice of the source. `keep` must reject `\n` (lines
    /// are not counted here) and stop only at ASCII bytes so the slice ends
    /// on a character boundary.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while !self.at_end() && keep(self.peek()) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// The character starting at byte `pos`, or `'\0'` at the end of input.
    fn char_at(&self, pos: usize) -> char {
        self.text
            .get(pos..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or('\0')
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    self.take_while(|c| c != b'\n');
                }
                b'/' if self.peek2() == b'*' => {
                    let start_line = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        if self.at_end() {
                            return Err(Diagnostic::error(
                                start_line,
                                "unterminated block comment",
                            )
                            .with_code("lex/unterminated-comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lex the next token.
    pub fn next_token(&mut self) -> Result<Token<'a>, Diagnostic> {
        self.skip_trivia()?;
        let line = self.line;
        if self.at_end() {
            return Ok(Token::new(TokenKind::Eof, line));
        }
        let c = self.peek();
        // Preprocessor-style pragma line.
        if c == b'#' {
            return self.lex_hash_line();
        }
        if c.is_ascii_digit() || (c == b'.' && self.peek2().is_ascii_digit()) {
            return self.lex_number();
        }
        if c == b'"' {
            return self.lex_string();
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let word = self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
            return Ok(Token::new(TokenKind::Ident(word), line));
        }
        self.lex_punct()
    }

    fn lex_hash_line(&mut self) -> Result<Token<'a>, Diagnostic> {
        let line = self.line;
        // consume '#'
        self.bump();
        let word = self.take_while(|c| c.is_ascii_alphabetic());
        if word != "pragma" {
            return Err(Diagnostic::error(
                line,
                format!("unsupported preprocessor directive '#{word}'"),
            )
            .with_code("lex/unknown-directive"));
        }
        let rest = self.take_while(|c| c != b'\n');
        Ok(Token::new(TokenKind::PragmaLine(rest.trim()), line))
    }

    fn lex_number(&mut self) -> Result<Token<'a>, Diagnostic> {
        let line = self.line;
        let start = self.pos;
        let mut is_float = false;
        self.take_while(|c| c.is_ascii_digit());
        if self.peek() == b'.' && self.peek2() != b'.' {
            is_float = true;
            self.bump();
            self.take_while(|c| c.is_ascii_digit());
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            let save = self.pos;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            if self.peek().is_ascii_digit() {
                is_float = true;
                self.take_while(|c| c.is_ascii_digit());
            } else {
                self.pos = save;
            }
        }
        let text = &self.text[start..self.pos];
        // Optional C suffixes.
        let suffix = self.take_while(|c| matches!(c, b'f' | b'F' | b'l' | b'L' | b'u' | b'U'));
        if is_float || suffix.contains(['f', 'F']) {
            let v: f64 = text.parse().map_err(|_| {
                Diagnostic::error(line, format!("invalid float literal '{text}'"))
                    .with_code("lex/invalid-float")
            })?;
            Ok(Token::new(TokenKind::FloatLit(v), line))
        } else {
            let v: i64 = text.parse().map_err(|_| {
                Diagnostic::error(line, format!("invalid integer literal '{text}'"))
                    .with_code("lex/invalid-integer")
            })?;
            Ok(Token::new(TokenKind::IntLit(v), line))
        }
    }

    /// A string literal borrows its text from the source; only one with an
    /// escape is copied, run by run, into an owned string.
    fn lex_string(&mut self) -> Result<Token<'a>, Diagnostic> {
        let line = self.line;
        self.bump(); // opening quote
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            if self.at_end() || self.peek() == b'\n' {
                return Err(Diagnostic::error(line, "unterminated string literal")
                    .with_code("lex/unterminated-string"));
            }
            match self.peek() {
                b'"' => break,
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.bump();
                    let esc = self.char_at(self.pos);
                    match self.bump() {
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'0' => s.push('\0'),
                        b'\\' => s.push('\\'),
                        b'"' => s.push('"'),
                        b'%' => s.push_str("\\%"),
                        _ => {
                            return Err(Diagnostic::error(
                                line,
                                format!("unknown escape sequence '\\{esc}'"),
                            )
                            .with_code("lex/bad-escape"))
                        }
                    }
                    run = self.pos;
                }
                _ => self.pos += 1,
            }
        }
        let tail = &self.text[run..self.pos];
        self.bump(); // closing quote
        let text = match owned {
            None => Cow::Borrowed(tail),
            Some(mut s) => {
                s.push_str(tail);
                Cow::Owned(s)
            }
        };
        Ok(Token::new(TokenKind::StrLit(text), line))
    }

    fn lex_punct(&mut self) -> Result<Token<'a>, Diagnostic> {
        let line = self.line;
        let start = self.pos;
        let c = self.bump();
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b'?' => TokenKind::Question,
            b':' => TokenKind::Colon,
            b'+' => match self.peek() {
                b'+' => {
                    self.bump();
                    TokenKind::PlusPlus
                }
                b'=' => {
                    self.bump();
                    TokenKind::PlusAssign
                }
                _ => TokenKind::Plus,
            },
            b'-' => match self.peek() {
                b'-' => {
                    self.bump();
                    TokenKind::MinusMinus
                }
                b'=' => {
                    self.bump();
                    TokenKind::MinusAssign
                }
                _ => TokenKind::Minus,
            },
            b'*' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::StarAssign
                } else {
                    TokenKind::Star
                }
            }
            b'/' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::SlashAssign
                } else {
                    TokenKind::Slash
                }
            }
            b'%' => TokenKind::Percent,
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::EqEq
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    TokenKind::Not
                }
            }
            b'<' => {
                if self.peek() == b'<' && self.peek2() == b'<' {
                    self.bump();
                    self.bump();
                    TokenKind::TripleLt
                } else if self.peek() == b'<' {
                    self.bump();
                    TokenKind::Shl
                } else if self.peek() == b'=' {
                    self.bump();
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                if self.peek() == b'>' && self.peek2() == b'>' && self.peek3() != b'>' {
                    self.bump();
                    self.bump();
                    TokenKind::TripleGt
                } else if self.peek() == b'>' {
                    self.bump();
                    TokenKind::Shr
                } else if self.peek() == b'=' {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    TokenKind::AndAnd
                } else {
                    TokenKind::Amp
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    TokenKind::Pipe
                }
            }
            b'^' => TokenKind::Caret,
            _ => {
                return Err(Diagnostic::error(
                    line,
                    format!("unexpected character '{}'", self.char_at(start)),
                )
                .with_code("lex/unexpected-char"))
            }
        };
        Ok(Token::new(kind, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lex_simple_expression() {
        let ks = kinds("x = a + 42;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("x"),
                TokenKind::Assign,
                TokenKind::Ident("a"),
                TokenKind::Plus,
                TokenKind::IntLit(42),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_float_forms() {
        let ks = kinds("1.5 2.0f 1e-3 7");
        assert_eq!(
            ks,
            vec![
                TokenKind::FloatLit(1.5),
                TokenKind::FloatLit(2.0),
                TokenKind::FloatLit(1e-3),
                TokenKind::IntLit(7),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lex_triple_angle_brackets() {
        let ks = kinds("k<<<grid, block>>>(a);");
        assert!(ks.contains(&TokenKind::TripleLt));
        assert!(ks.contains(&TokenKind::TripleGt));
    }

    #[test]
    fn shift_vs_triple() {
        let ks = kinds("a << 2; b >> 3;");
        assert!(ks.contains(&TokenKind::Shl));
        assert!(ks.contains(&TokenKind::Shr));
        assert!(!ks.contains(&TokenKind::TripleLt));
    }

    #[test]
    fn lex_pragma_line() {
        let ks = kinds("#pragma omp parallel for reduction(+:sum)\nfor (int i = 0; i < n; i++) {}");
        assert_eq!(
            ks[0],
            TokenKind::PragmaLine("omp parallel for reduction(+:sum)")
        );
    }

    #[test]
    fn lex_string_escapes() {
        let ks = kinds(r#""value: %d\n""#);
        assert_eq!(ks[0], TokenKind::StrLit("value: %d\n".into()));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("// line comment\n/* block\ncomment */ x");
        assert_eq!(ks, vec![TokenKind::Ident("x"), TokenKind::Eof]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = Lexer::tokenize("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(Lexer::tokenize("\"abc").is_err());
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(Lexer::tokenize("/* abc").is_err());
    }

    #[test]
    fn unknown_directive_is_error() {
        assert!(Lexer::tokenize("#include <stdio.h>").is_err());
    }

    #[test]
    fn payloads_borrow_the_source_unless_escaped() {
        let toks = Lexer::tokenize("\"plain\" \"esc\\n\"").unwrap();
        assert!(matches!(
            &toks[0].kind,
            TokenKind::StrLit(Cow::Borrowed("plain"))
        ));
        assert!(matches!(&toks[1].kind, TokenKind::StrLit(Cow::Owned(s)) if s == "esc\n"));
    }

    #[test]
    fn non_ascii_text_is_kept_verbatim() {
        let ks = kinds("#pragma omp atomic // déjà vu\nprintf(\"café %d\\n\", 1);");
        assert_eq!(ks[0], TokenKind::PragmaLine("omp atomic // déjà vu"));
        assert_eq!(ks[3], TokenKind::StrLit("café %d\n".into()));
        let err = Lexer::tokenize("int x = 1 € 2;").unwrap_err();
        assert_eq!(err.code, "lex/unexpected-char");
        assert_eq!(err.message, "unexpected character '€'");
        let err = Lexer::tokenize("\"\\é\"").unwrap_err();
        assert_eq!(err.message, "unknown escape sequence '\\é'");
    }

    #[test]
    fn a_nul_byte_in_code_is_an_unexpected_character() {
        let err = Lexer::tokenize("int main() { return 0; }\0 @@@").unwrap_err();
        assert_eq!(err.code, "lex/unexpected-char");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn a_nul_byte_in_a_string_or_comment_is_kept() {
        let ks = kinds("printf(\"a\0b\"); // c\0d\n/* e\0f */ x");
        assert_eq!(ks[2], TokenKind::StrLit("a\0b".into()));
        assert_eq!(ks[5], TokenKind::Ident("x"));
        let err = Lexer::tokenize("\"a\0b").unwrap_err();
        assert_eq!(err.code, "lex/unterminated-string");
    }

    #[test]
    fn increment_and_compound_assign() {
        let ks = kinds("i++; j--; k += 2; m -= 1; p *= 3; q /= 4;");
        assert!(ks.contains(&TokenKind::PlusPlus));
        assert!(ks.contains(&TokenKind::MinusMinus));
        assert!(ks.contains(&TokenKind::PlusAssign));
        assert!(ks.contains(&TokenKind::MinusAssign));
        assert!(ks.contains(&TokenKind::StarAssign));
        assert!(ks.contains(&TokenKind::SlashAssign));
    }
}
