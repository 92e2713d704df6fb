//! The MiniC lexer.
//!
//! Zero-copy: the lexer walks the source as raw bytes and emits `Copy`
//! tokens into a caller-owned buffer. Identifiers are interned — the
//! keyword check and the interner probe both work on the byte slice, so
//! a token never owns a `String` and a warm lex of an already-seen
//! program allocates nothing beyond buffer growth.

use crate::error::{FrontError, Phase};
use crate::intern::Interner;
use crate::token::{Pos, Tok, Token};

/// Tokenizes MiniC source into `out` (cleared first), interning
/// identifiers into `interner`.
///
/// # Errors
///
/// Returns a [`FrontError`] on an unknown character, a malformed number,
/// or an unterminated block comment.
pub fn lex_into(
    src: &str,
    interner: &mut Interner,
    out: &mut Vec<Token>,
) -> Result<(), FrontError> {
    out.clear();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    macro_rules! pos {
        () => {
            Pos { line, col }
        };
    }
    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }
    while i < bytes.len() {
        let c = bytes[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            bump!();
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                let start = pos!();
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(FrontError::new(
                            Phase::Lex,
                            start,
                            "unterminated block comment",
                        ));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
                continue;
            }
        }
        let p = pos!();
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                bump!();
            }
            let mut is_float = false;
            if i < bytes.len()
                && bytes[i] == b'.'
                && i + 1 < bytes.len()
                && bytes[i + 1].is_ascii_digit()
            {
                is_float = true;
                bump!();
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    bump!();
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                is_float = true;
                bump!();
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    bump!();
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    bump!();
                }
            }
            let text = &src[start..i];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| {
                    FrontError::new(Phase::Lex, p, format!("malformed float literal {text}"))
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| {
                    FrontError::new(
                        Phase::Lex,
                        p,
                        format!("integer literal {text} out of range"),
                    )
                })?)
            };
            out.push(Token { tok, pos: p });
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                bump!();
            }
            let word = &bytes[start..i];
            let tok =
                Tok::keyword(word).unwrap_or_else(|| Tok::Ident(interner.intern(&src[start..i])));
            out.push(Token { tok, pos: p });
            continue;
        }
        // Operators; longest match first.
        let two: &[u8] = if i + 1 < bytes.len() {
            &bytes[i..i + 2]
        } else {
            b""
        };
        let tok2 = match two {
            b"+=" => Some(Tok::PlusAssign),
            b"-=" => Some(Tok::MinusAssign),
            b"*=" => Some(Tok::StarAssign),
            b"/=" => Some(Tok::SlashAssign),
            b"%=" => Some(Tok::PercentAssign),
            b"==" => Some(Tok::EqEq),
            b"!=" => Some(Tok::NotEq),
            b"<=" => Some(Tok::Le),
            b">=" => Some(Tok::Ge),
            b"<<" => Some(Tok::Shl),
            b">>" => Some(Tok::Shr),
            b"&&" => Some(Tok::AndAnd),
            b"||" => Some(Tok::OrOr),
            b"++" => Some(Tok::PlusPlus),
            b"--" => Some(Tok::MinusMinus),
            _ => None,
        };
        if let Some(t) = tok2 {
            bump!();
            bump!();
            out.push(Token { tok: t, pos: p });
            continue;
        }
        let tok1 = match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b';' => Tok::Semi,
            b',' => Tok::Comma,
            b'=' => Tok::Assign,
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'*' => Tok::Star,
            b'/' => Tok::Slash,
            b'%' => Tok::Percent,
            b'&' => Tok::Amp,
            b'|' => Tok::Pipe,
            b'^' => Tok::Caret,
            b'!' => Tok::Bang,
            b'<' => Tok::Lt,
            b'>' => Tok::Gt,
            other => {
                return Err(FrontError::new(
                    Phase::Lex,
                    p,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        };
        bump!();
        out.push(Token { tok: tok1, pos: p });
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: pos!(),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Result<(Interner, Vec<Token>), FrontError> {
        let mut interner = Interner::new();
        let mut out = Vec::new();
        lex_into(src, &mut interner, &mut out)?;
        Ok((interner, out))
    }

    /// Token kinds with identifiers resolved back to names, for easy
    /// comparison.
    fn spellings(src: &str) -> Vec<String> {
        let (interner, toks) = lex(src).unwrap();
        toks.iter()
            .map(|t| t.tok.display(&interner).to_string())
            .collect()
    }

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().1.into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let (interner, ts) = lex("int x while whilex").unwrap();
        assert_eq!(ts[0].tok, Tok::KwInt);
        assert_eq!(ts[2].tok, Tok::KwWhile);
        let (Tok::Ident(x), Tok::Ident(wx)) = (ts[1].tok, ts[3].tok) else {
            panic!("expected identifiers");
        };
        assert_eq!(interner.name(x), "x");
        assert_eq!(interner.name(wx), "whilex");
        assert_eq!(ts[4].tok, Tok::Eof);
    }

    #[test]
    fn repeated_idents_share_a_symbol() {
        let (_, ts) = lex("abc abc abc").unwrap();
        let Tok::Ident(first) = ts[0].tok else {
            panic!()
        };
        assert!(ts[..3].iter().all(|t| t.tok == Tok::Ident(first)));
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 3.5 1e3 2.5e-2"),
            vec![
                Tok::Int(42),
                Tok::Float(3.5),
                Tok::Float(1000.0),
                Tok::Float(0.025),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn integer_boundaries() {
        // i64::MAX lexes; one past it overflows with a position.
        assert_eq!(
            toks("9223372036854775807"),
            vec![Tok::Int(i64::MAX), Tok::Eof]
        );
        let e = lex("x 9223372036854775808").unwrap_err();
        assert!(e.message.contains("out of range"));
        assert_eq!(e.pos, Pos { line: 1, col: 3 });
        // `i64::MIN` is minus applied to an out-of-range literal, so the
        // magnitude itself must be rejected at lex time.
        assert!(lex("-9223372036854775808").is_err());
        assert_eq!(
            toks("-9223372036854775807"),
            vec![Tok::Minus, Tok::Int(i64::MAX), Tok::Eof]
        );
    }

    #[test]
    fn malformed_float_errors() {
        // An exponent with no digits parses as a float literal and fails.
        let e = lex("1e").unwrap_err();
        assert!(e.message.contains("malformed float"));
        assert_eq!(e.pos, Pos { line: 1, col: 1 });
        let e = lex("  2.5e+").unwrap_err();
        assert!(e.message.contains("malformed float"));
        assert_eq!(e.pos, Pos { line: 1, col: 3 });
        // A bare trailing dot is *not* part of the number.
        assert!(lex("1.").is_err()); // `.` itself is an unknown character
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            spellings("a<=b == c = d += e++"),
            vec!["a", "<=", "b", "==", "c", "=", "d", "+=", "e", "++", "<eof>"]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            spellings("a // line\n b /* block\n over lines */ c"),
            vec!["a", "b", "c", "<eof>"]
        );
    }

    #[test]
    fn line_comment_at_eof() {
        // A `//` comment closed by end-of-input (no trailing newline) is
        // fine; the block form in the same position is an error.
        assert_eq!(spellings("a // trailing"), vec!["a", "<eof>"]);
        assert_eq!(spellings("//only"), vec!["<eof>"]);
    }

    #[test]
    fn positions_tracked() {
        let (_, ts) = lex("x\n  y").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn unterminated_comment_errors() {
        let e = lex("/* oops").unwrap_err();
        assert!(e.message.contains("unterminated"));
        assert_eq!(e.pos, Pos { line: 1, col: 1 });
        // Even a lone `/*` right at EOF reports the comment's own start.
        let e = lex("x\n/*").unwrap_err();
        assert_eq!(e.pos, Pos { line: 2, col: 1 });
    }

    #[test]
    fn unknown_character_errors() {
        let e = lex("a $ b").unwrap_err();
        assert!(e.message.contains("unexpected character"));
        assert_eq!(e.pos, Pos { line: 1, col: 3 });
        // Position reporting survives newlines and tabs.
        let e = lex("ok\n\tbad @here").unwrap_err();
        assert_eq!(e.pos, Pos { line: 2, col: 6 });
    }

    #[test]
    fn keyword_identifier_boundary_sweep() {
        // Every keyword with a one-character suffix (and prefix) must lex
        // as a plain identifier, not as keyword + residue.
        let keywords = [
            "int", "double", "void", "func", "if", "else", "while", "for", "do", "return", "break",
            "continue",
        ];
        for kw in keywords {
            assert!(Tok::keyword(kw.as_bytes()).is_some());
            for decorated in [format!("{kw}x"), format!("{kw}_"), format!("x{kw}")] {
                let (interner, ts) = lex(&decorated).unwrap();
                let Tok::Ident(sym) = ts[0].tok else {
                    panic!("`{decorated}` lexed as a keyword");
                };
                assert_eq!(interner.name(sym), decorated);
                assert_eq!(ts.len(), 2, "`{decorated}` split into several tokens");
            }
        }
        // An underscore-led name containing a keyword is one identifier.
        let (interner, ts) = lex("_if").unwrap();
        let Tok::Ident(sym) = ts[0].tok else { panic!() };
        assert_eq!(interner.name(sym), "_if");
    }
}
