//! A textual DSL for writing keys the way the paper draws them (Fig. 1,
//! Fig. 7).
//!
//! ```text
//! // Q1: an album is identified by its name and its primary artist.
//! key "Q1" album(x) {
//!     x -name_of-> n*;
//!     x -recorded_by-> a:artist;    // entity variable (recursive)
//! }
//!
//! // Q4: a company merged from a same-named parent.
//! key "Q4" company(x) {
//!     x -name_of-> n*;
//!     ~p:company -name_of-> n*;     // wildcard: any company entity
//!     ~p:company -parent_of-> x;
//!     q:company -parent_of-> x;     // entity variable
//! }
//!
//! // Q6: a UK street is identified by its zip code.
//! key "Q6" street(x) {
//!     x -zip_code-> z*;
//!     x -nation_of-> "UK";          // constant condition
//! }
//! ```
//!
//! Terms: `x` (designated variable), `name*` (value variable),
//! `name:Type` (entity variable), `~name:Type` (wildcard), `"literal"`
//! (constant). Comments: `//` or `#` to end of line.

use crate::pattern::{Key, KeyError, KeyTriple, Term};

/// Error from parsing the key DSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for DslError {}

impl From<KeyError> for DslError {
    fn from(e: KeyError) -> Self {
        DslError {
            line: 0,
            msg: e.to_string(),
        }
    }
}

/// Parses a DSL document into keys (validated).
pub fn parse_keys(text: &str) -> Result<Vec<Key>, DslError> {
    let toks = tokenize(text)?;
    let mut p = Parser { toks, pos: 0 };
    let mut keys = Vec::new();
    let mut anon = 0usize;
    while !p.at_end() {
        keys.push(p.key(&mut anon)?);
    }
    for k in &keys {
        k.validate().map_err(DslError::from)?;
    }
    Ok(keys)
}

/// Renders keys back to DSL text (inverse of [`parse_keys`]).
pub fn write_keys(keys: &[Key]) -> String {
    let mut out = String::new();
    for k in keys {
        out.push_str(&k.to_string());
        out.push_str("\n\n");
    }
    out
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Str(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Colon,
    Semi,
    Star,
    Tilde,
    Dash,
    Arrow,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::LBrace => write!(f, "'{{'"),
            Tok::RBrace => write!(f, "'}}'"),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::Colon => write!(f, "':'"),
            Tok::Semi => write!(f, "';'"),
            Tok::Star => write!(f, "'*'"),
            Tok::Tilde => write!(f, "'~'"),
            Tok::Dash => write!(f, "'-'"),
            Tok::Arrow => write!(f, "'->'"),
        }
    }
}

fn tokenize(text: &str) -> Result<Vec<(Tok, usize)>, DslError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                while chars.peek().is_some_and(|&c| c != '\n') {
                    chars.next();
                }
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    while chars.peek().is_some_and(|&c| c != '\n') {
                        chars.next();
                    }
                } else {
                    return Err(DslError {
                        line,
                        msg: "unexpected '/'".into(),
                    });
                }
            }
            '{' => {
                toks.push((Tok::LBrace, line));
                chars.next();
            }
            '}' => {
                toks.push((Tok::RBrace, line));
                chars.next();
            }
            '(' => {
                toks.push((Tok::LParen, line));
                chars.next();
            }
            ')' => {
                toks.push((Tok::RParen, line));
                chars.next();
            }
            ':' => {
                toks.push((Tok::Colon, line));
                chars.next();
            }
            ';' => {
                toks.push((Tok::Semi, line));
                chars.next();
            }
            '*' => {
                toks.push((Tok::Star, line));
                chars.next();
            }
            '~' => {
                toks.push((Tok::Tilde, line));
                chars.next();
            }
            '-' => {
                chars.next();
                if chars.peek() == Some(&'>') {
                    chars.next();
                    toks.push((Tok::Arrow, line));
                } else {
                    toks.push((Tok::Dash, line));
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        // The escapes `write_keys` emits (Rust's string
                        // `Debug`), so rendered Σ text always re-parses.
                        '\\' => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            Some('0') => s.push('\0'),
                            Some('u') => match unicode_escape(&mut chars) {
                                Some(c) => s.push(c),
                                None => {
                                    return Err(DslError {
                                        line,
                                        msg: "bad escape \\u: expected \\u{hex}".into(),
                                    })
                                }
                            },
                            other => {
                                return Err(DslError {
                                    line,
                                    msg: format!("bad escape \\{other:?}"),
                                })
                            }
                        },
                        '\n' => {
                            return Err(DslError {
                                line,
                                msg: "unterminated string".into(),
                            })
                        }
                        _ => s.push(c),
                    }
                }
                if !closed {
                    return Err(DslError {
                        line,
                        msg: "unterminated string".into(),
                    });
                }
                toks.push((Tok::Str(s), line));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut w = String::new();
                while let Some(c) = chars.next_if(|&c| c.is_alphanumeric() || c == '_') {
                    w.push(c);
                }
                toks.push((Tok::Ident(w), line));
            }
            other => {
                return Err(DslError {
                    line,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

/// The `{hex}` tail of a `\u{hex}` escape: one to six hex digits naming a
/// char.
fn unicode_escape(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<char> {
    chars.next_if_eq(&'{')?;
    let mut hex = String::new();
    while let Some(c) = chars.next_if(|c| c.is_ascii_hexdigit() && hex.len() < 6) {
        hex.push(c);
    }
    chars.next_if_eq(&'}')?;
    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |&(_, l)| l)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Result<Tok, DslError> {
        let t = self.toks.get(self.pos).cloned().ok_or_else(|| DslError {
            line: self.line(),
            msg: "unexpected end of input".into(),
        })?;
        self.pos += 1;
        Ok(t.0)
    }

    fn eat(&mut self, want: Tok) -> Result<(), DslError> {
        let line = self.line();
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(DslError {
                line,
                msg: format!("expected {want}, found {got}"),
            })
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, DslError> {
        let line = self.line();
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(DslError {
                line,
                msg: format!("expected {what}, found {other}"),
            }),
        }
    }

    fn key(&mut self, anon: &mut usize) -> Result<Key, DslError> {
        let line = self.line();
        let kw = self.ident("keyword 'key'")?;
        if kw != "key" {
            return Err(DslError {
                line,
                msg: format!("expected 'key', found {kw:?}"),
            });
        }
        let name = match self.peek() {
            Some(Tok::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                s
            }
            _ => {
                *anon += 1;
                format!("key#{anon}")
            }
        };
        let target = self.ident("target type")?;
        self.eat(Tok::LParen)?;
        let xline = self.line();
        let x = self.ident("'x'")?;
        if x != "x" {
            return Err(DslError {
                line: xline,
                msg: format!("the designated variable must be named 'x', found {x:?}"),
            });
        }
        self.eat(Tok::RParen)?;
        self.eat(Tok::LBrace)?;
        let mut triples = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            let s = self.term()?;
            self.eat(Tok::Dash)?;
            let p = self.ident("predicate")?;
            self.eat(Tok::Arrow)?;
            let o = self.term()?;
            self.eat(Tok::Semi)?;
            triples.push(KeyTriple { s, p, o });
        }
        self.eat(Tok::RBrace)?;
        Ok(Key {
            name,
            target_type: target,
            triples,
        })
    }

    fn term(&mut self) -> Result<Term, DslError> {
        let line = self.line();
        match self.next()? {
            Tok::Str(v) => Ok(Term::Const { value: v }),
            Tok::Tilde => {
                let name = self.ident("wildcard name")?;
                self.eat(Tok::Colon)?;
                let ty = self.ident("wildcard type")?;
                Ok(Term::Wildcard { name, ty })
            }
            Tok::Ident(name) => match self.peek() {
                Some(Tok::Star) => {
                    self.next()?;
                    Ok(Term::ValueVar { name })
                }
                Some(Tok::Colon) => {
                    self.next()?;
                    let ty = self.ident("entity-variable type")?;
                    Ok(Term::EntityVar { name, ty })
                }
                _ if name == "x" => Ok(Term::X),
                _ => Err(DslError {
                    line,
                    msg: format!(
                        "bare identifier {name:?}: use 'x', '{name}*', '{name}:Type' or '~{name}:Type'"
                    ),
                }),
            },
            other => Err(DslError { line, msg: format!("expected a term, found {other}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_KEYS: &str = r#"
        // Q1: album identified by name and primary artist.
        key "Q1" album(x) {
            x -name_of-> n*;
            x -recorded_by-> a:artist;
        }

        # Q2: album identified by name and release year.
        key "Q2" album(x) {
            x -name_of-> n*;
            x -release_year-> y*;
        }

        key "Q3" artist(x) {
            x -name_of-> n*;
            a:album -recorded_by-> x;
        }

        key "Q4" company(x) {
            x -name_of-> n*;
            ~p:company -name_of-> n*;
            ~p:company -parent_of-> x;
            q:company -parent_of-> x;
        }

        key "Q5" company(x) {
            x -name_of-> n*;
            ~p:company -name_of-> n*;
            ~p:company -parent_of-> x;
            ~p:company -parent_of-> d:company;
        }

        key "Q6" street(x) {
            x -zip_code-> z*;
            x -nation_of-> "UK";
        }
    "#;

    #[test]
    fn parses_all_six_paper_keys() {
        let keys = parse_keys(PAPER_KEYS).unwrap();
        assert_eq!(keys.len(), 6);
        let names: Vec<_> = keys.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]);
        // Example 6: Q1, Q3, Q4, Q5 recursive; Q2, Q6 value-based.
        let recursive: Vec<bool> = keys.iter().map(|k| k.is_recursive()).collect();
        assert_eq!(recursive, vec![true, false, true, true, true, false]);
    }

    #[test]
    fn radii_match_paper_shapes() {
        let keys = parse_keys(PAPER_KEYS).unwrap();
        assert_eq!(keys[0].radius(), 1); // Q1: star
        assert_eq!(keys[1].radius(), 1); // Q2: star
        assert_eq!(keys[3].radius(), 1); // Q4: all nodes adjacent to x
    }

    #[test]
    fn anonymous_keys_get_names() {
        let keys = parse_keys("key t(x) { x -p-> v*; } key t(x) { x -q-> w*; }").unwrap();
        assert_eq!(keys[0].name, "key#1");
        assert_eq!(keys[1].name, "key#2");
    }

    #[test]
    fn roundtrip_write_parse() {
        let keys = parse_keys(PAPER_KEYS).unwrap();
        let text = write_keys(&keys);
        let again = parse_keys(&text).unwrap();
        assert_eq!(keys, again);
    }

    #[test]
    fn error_reports_line() {
        let err = parse_keys("key t(x) {\n  x -p-> ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_wrong_designated_name() {
        let err = parse_keys("key t(y) { y -p-> v*; }").unwrap_err();
        assert!(err.msg.contains("designated"));
    }

    #[test]
    fn rejects_bare_identifier_term() {
        let err = parse_keys("key t(x) { x -p-> foo; }").unwrap_err();
        assert!(err.msg.contains("bare identifier"));
    }

    #[test]
    fn rejects_unterminated_string() {
        let err = parse_keys("key \"Q t(x) { }").unwrap_err();
        assert!(err.msg.contains("unterminated"));
    }

    #[test]
    fn rejects_invalid_pattern_semantics() {
        // Disconnected pattern -> KeyError surfaced as DslError.
        let err = parse_keys("key t(x) { x -p-> v*; ~w:u -q-> z*; }").unwrap_err();
        assert!(err.msg.contains("not connected"));
    }

    #[test]
    fn comments_both_styles() {
        let keys = parse_keys("// line one\n# line two\nkey t(x) { x -p-> v*; } // tail").unwrap();
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn constants_with_escapes() {
        let keys = parse_keys(r#"key t(x) { x -p-> "a\"b\\c\n"; }"#).unwrap();
        match &keys[0].triples[0].o {
            Term::Const { value } => assert_eq!(value, "a\"b\\c\n"),
            other => panic!("expected const, got {other:?}"),
        }
    }
}
