//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], and [`from_str`], implemented over
//! the `serde` shim's [`Value`] tree.

use serde::{Deserialize, Error, Serialize, Value};

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

// --- writer ----------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(*n, out),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => write_seq('[', ']', items.len(), out, indent, depth, |k, out| {
            write_value(&items[k], out, indent, depth + 1)
        }),
        Value::Map(pairs) => write_seq('{', '}', pairs.len(), out, indent, depth, |k, out| {
            write_string(&pairs[k].0, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(&pairs[k].1, out, indent, depth + 1)
        }),
    }
}

fn write_seq(
    open: char,
    close: char,
    len: usize,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    mut item: impl FnMut(usize, &mut String),
) {
    out.push(open);
    for k in 0..len {
        if k > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(k, out);
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn write_number(n: f64, out: &mut String) {
    if n.is_finite() {
        // `{}` on f64 prints the shortest representation that parses back to
        // the same value, which is exactly what a JSON round-trip needs.
        out.push_str(&format!("{n}"));
    } else {
        // JSON has no NaN/Infinity; serde_json emits null here too.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| Error(e.to_string()))?;
        // An integer literal is kept exact; `-0` stays the float it was
        // written from, and a literal beyond `i128` falls through to `f64`.
        if !text.contains(['.', 'e', 'E']) {
            match text.parse::<i128>() {
                Ok(0) if text.starts_with('-') => return Ok(Value::Num(-0.0)),
                Ok(n) => return Ok(Value::Int(n)),
                Err(_) => {}
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error(format!("invalid number `{text}` at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| Error(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| Error(e.to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid \\u escape".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| Error(e.to_string()))?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `]`, got {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(pairs));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `}}`, got {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = vec![1.5f64, -2.0, 0.25];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1.5,-2,0.25]");
        let back: Vec<f64> = from_str(&s).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<f64> = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "line\n\"quoted\"\tταβ".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn f32_values_survive_the_f64_detour() {
        for x in [0.8523f32, 1.17e12, -3.25e-7, f32::MIN_POSITIVE] {
            let json = to_string(&x).unwrap();
            let back: f32 = from_str(&json).unwrap();
            assert_eq!(back, x);
        }
    }

    #[test]
    fn integers_roundtrip_exactly() {
        for x in [u64::MAX, (1 << 53) + 1, 1 << 53, 0] {
            let json = to_string(&x).unwrap();
            assert_eq!(json, x.to_string());
            assert_eq!(from_str::<u64>(&json).unwrap(), x);
        }
        assert_eq!(
            from_str::<i64>("-9007199254740993").unwrap(),
            -(1 << 53) - 1
        );
        // A float keeps its text: integral values print without a fraction,
        // and `-0` parses back to `-0.0`.
        assert_eq!(to_string(&vec![2.0f32, -0.0]).unwrap(), "[2,-0]");
        let back: Vec<f32> = from_str("[2,-0]").unwrap();
        assert_eq!(back[0], 2.0);
        assert!(back[1] == 0.0 && back[1].is_sign_negative());
    }

    #[test]
    fn integers_refuse_what_does_not_fit() {
        let err = from_str::<u64>("-1").unwrap_err();
        assert!(err.0.contains("Int(-1) is not a u64"), "{err}");
        let err = from_str::<usize>("3.5").unwrap_err();
        assert!(err.0.contains("Num(3.5) is not a usize"), "{err}");
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("1e400").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("nope").is_err());
        assert!(from_str::<f64>("1.0 trailing").is_err());
        assert!(from_str::<Vec<f64>>("[1,").is_err());
    }
}
