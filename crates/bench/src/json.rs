//! A minimal JSON reader and writer for the `BENCH_*.json` baselines.
//!
//! The ablation harnesses build a [`Value`] with [`obj!`](crate::obj)
//! and [`fixed`], and [`crate::write_baseline`] renders it with
//! [`write`]; `benchdiff` reads it back with [`parse`], which accepts the
//! full JSON grammar with byte positions in errors. No serde needed.
//!
//! Numbers keep the token they were printed as (`0.5000` stays
//! `0.5000`), so reading and rewriting a baseline gives back its bytes.

use std::fmt;

/// A JSON value, parsed or built for writing. Object keys keep their
/// order (the writers emit deterministically, and diff output follows).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number, as its printed token (see [`Value::as_f64`]).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in key order of appearance.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The number, when this is a [`Value::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(token) => token.parse().ok(),
            _ => None,
        }
    }
}

macro_rules! value_from {
    ($($t:ty: $x:ident => $make:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $make
            }
        }
    )*};
}

// An `f64` prints shortest-round-trip (`0.6`, `10`); use [`fixed`] for a
// set number of decimals.
value_from! {
    i32: n => Value::Num(n.to_string());
    u64: n => Value::Num(n.to_string());
    usize: n => Value::Num(n.to_string());
    f64: n => Value::Num(n.to_string());
    bool: b => Value::Bool(b);
    &str: s => Value::Str(s.to_owned());
}

/// `x` printed with `decimals` digits after the point, as `{:.N}` would.
pub fn fixed(x: f64, decimals: usize) -> Value {
    Value::Num(format!("{x:.decimals$}"))
}

/// Builds a [`Value::Obj`] in the order written; each value goes through
/// `Value::from`, so integers, `bool`s, strings, [`fixed`] numbers and
/// nested values all fit:
///
/// ```
/// use prebake_bench::{json, obj};
/// let v = obj! { "arm": "eager", "shed": 0u64, "p50_ms": json::fixed(0.5, 4) };
/// assert_eq!(json::write(&v), "{\n  \"arm\": \"eager\",\n  \"shed\": 0,\n  \"p50_ms\": 0.5000\n}\n");
/// ```
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![
            $((String::from($key), $crate::json::Value::from($value))),*
        ])
    };
}

/// Renders `v` in the committed-baseline layout, newline-terminated:
/// top-level object members go one per line at two-space indent, a
/// top-level member that is an array of objects or arrays puts one
/// element per line at four-space indent, and everything deeper is
/// inline with `", "` and `": "` separators. [`parse`] reads the result
/// back to an equal [`Value`].
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_at(&mut out, v, 0);
    out.push('\n');
    out
}

/// Writes `v` at layout `level`: 0 for the document, 1 for the members
/// of a top-level object, 2 for everything inline below them.
fn write_at(out: &mut String, v: &Value, level: usize) {
    let (open, close, items): (char, char, Vec<(Option<&String>, &Value)>) = match v {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Num(token) => return out.push_str(token),
        Value::Str(s) => return write_str(out, s),
        Value::Arr(items) => ('[', ']', items.iter().map(|x| (None, x)).collect()),
        Value::Obj(m) => ('{', '}', m.iter().map(|(k, x)| (Some(k), x)).collect()),
    };
    let one_per_line = !items.is_empty()
        && match (level, v) {
            (0, Value::Obj(_)) => true,
            (1, Value::Arr(rows)) => rows
                .iter()
                .all(|r| matches!(r, Value::Arr(_) | Value::Obj(_))),
            _ => false,
        };
    let pad = if one_per_line {
        format!("\n{}", "  ".repeat(level + 1))
    } else {
        String::new()
    };
    out.push(open);
    for (i, (key, item)) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if one_per_line { "," } else { ", " });
        }
        out.push_str(&pad);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_at(out, item, if level == 0 && one_per_line { 1 } else { 2 });
    }
    if one_per_line {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
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

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates don't appear in bench output;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("valid utf-8 slice"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(_) => Ok(Value::Num(text.to_owned())),
            Err(_) => Err(ParseError {
                at: start,
                msg: format!("invalid number '{text}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// A random value nested at most `depth` deep, with numbers printed
    /// every way the harnesses print them and strings that need escapes.
    fn arbitrary(rng: &mut TestRng, depth: u32) -> Value {
        let string = |rng: &mut TestRng| -> String {
            let chars: Vec<char> = "aZ /\"\\\n\r\t\u{1}é☃".chars().collect();
            (0..rng.below(6))
                .map(|_| chars[rng.below(12) as usize])
                .collect()
        };
        let x = (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(10) as i32);
        let n = rng.below(4);
        match rng.below(if depth == 0 { 7 } else { 9 }) {
            0 => Value::Null,
            1 => Value::from(rng.below(2) == 0),
            2 => Value::from(rng.next_u64()),
            3 => Value::from(-(rng.below(1 << 30) as i32)),
            4 => fixed(x, rng.below(7) as usize),
            5 => Value::from(x),
            6 => Value::Str(string(rng)),
            7 => Value::Arr((0..n).map(|_| arbitrary(rng, depth - 1)).collect()),
            _ => Value::Obj(
                (0..n)
                    .map(|_| (string(rng), arbitrary(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `parse(write(v)) == v`, at the top level (the one-per-line
        /// layout) and one level down (inline).
        #[test]
        fn write_then_parse_is_identity(seed in any::<u64>()) {
            let v = arbitrary(&mut TestRng::from_seed(seed), 3);
            let nested = Value::Obj(vec![("doc".to_owned(), v.clone())]);
            for doc in [v, nested] {
                let text = write(&doc);
                prop_assert_eq!(parse(&text).expect("writer output parses"), doc);
            }
        }
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(
            parse(r#""a\"b\nA""#).unwrap(),
            Value::Str("a\"b\nA".to_owned())
        );
        let v = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        let a = Value::Arr(vec![1.into(), 2.into(), crate::obj! { "b": false }]);
        assert_eq!(v, crate::obj! { "a": a, "c": "x" });
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err(), "trailing garbage");
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn writes_the_committed_baseline_layout() {
        let doc = r#"{
  "seed": 1,
  "parallel": [
    {"threads": 1, "p50_ms": 89.3950, "shards": 1},
    {"threads": 8, "p50_ms": 68.2383, "tags": [], "x": {}}
  ],
  "layout": {"fault_order": {"p50_ms": 78.25, "ok": true, "note": "a\"b"}},
  "empty": [],
  "flat": [1, 2.50]
}
"#;
        assert_eq!(write(&parse(doc).unwrap()), doc);
    }
}
