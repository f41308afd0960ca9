//! Offline stand-in for `serde_json`, reduced to its reader: [`parse`]
//! turns JSON text into the shim `serde`'s [`Value`] tree with a small
//! recursive-descent parser, and [`Error`] says where it failed. Floats
//! parse with Rust's own `f64` parser, so shortest-round-trip text comes
//! back bit-exact.

use serde::Value;
use std::fmt;

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Parse JSON text into a [`Value`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            // Surrogate pairs: not produced by the writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error("bad escape".into())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input was validated).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| Error(format!("invalid utf-8: {e}")))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("bad number '{text}'")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error(format!("bad number '{text}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, Value)]) -> Value {
        Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Value::Int(u64::MAX as i128)
        );
        assert_eq!(
            parse("3.141592653589793").unwrap(),
            Value::Float(std::f64::consts::PI)
        );
        assert_eq!(parse("1.0").unwrap(), Value::Float(1.0));
        assert_eq!(
            parse(r#""with \"quotes\" and \n newline \u00e9 😀""#).unwrap(),
            Value::Str("with \"quotes\" and \n newline é 😀".into())
        );
    }

    #[test]
    fn containers_roundtrip() {
        assert_eq!(
            parse(r#"[1,"x",[]]"#).unwrap(),
            Value::Array(vec![
                Value::Int(1),
                Value::Str("x".into()),
                Value::Array(vec![]),
            ])
        );
        let v = parse(r#"{"a":1,"nested":{}}"#).unwrap();
        assert_eq!(
            v,
            obj(&[("a", Value::Int(1)), ("nested", Value::Object(vec![]))])
        );
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn float_precision_survives() {
        let x: f64 = 0.1 + 0.2;
        match parse(&format!("{x:?}")).unwrap() {
            Value::Float(back) => assert_eq!(back.to_bits(), x.to_bits()),
            other => panic!("{other:?}"),
        }
        assert_eq!(parse("1e-3").unwrap(), Value::Float(0.001));
    }

    #[test]
    fn typed_api_roundtrip() {
        // The shape a metrics export writes: an array of [id, value] rows.
        let row = |id, x| Value::Array(vec![Value::Int(id), Value::Float(x)]);
        assert_eq!(
            parse("[[1,2.5],[3,4.5]]").unwrap(),
            Value::Array(vec![row(1, 2.5), row(3, 4.5)])
        );
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "nul",
            "1.2.3",
            "{\"a\" 1}",
            "\"\\u12\"",
            "[1] 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(
            parse(" [ 1 , 2 , 3 ] ").unwrap(),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            parse("\t{ \"k\" :\n true }\r\n").unwrap(),
            obj(&[("k", Value::Bool(true))])
        );
    }
}
