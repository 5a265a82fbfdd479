//! Offline stand-in for the subset of the `serde_json` API the star-serve
//! wire protocol uses.
//!
//! The workspace builds in environments without access to crates.io, so the
//! real `serde_json` cannot be vendored.  The serving layer
//! (`crates/serve`) speaks line-delimited JSON over TCP, which needs exactly
//! one runtime surface: a [`Value`] tree, [`from_str`] to decode a line and
//! [`to_string`] / [`Value`]'s `Display` to encode one.  This crate
//! implements that surface — and nothing more — API-compatible with the
//! real `serde_json` for the calls the workspace makes.
//!
//! Two deliberate deviations from the real crate, both in the direction the
//! wire protocol needs:
//!
//! * **Objects preserve insertion order** (the real crate sorts keys unless
//!   its `preserve_order` feature is on).  The serving protocol's
//!   byte-identity contract — the same query must produce the same response
//!   bytes — needs field order to be a pure function of the encoder, not of
//!   key collation.
//! * **Numbers are `f64`** (the real crate has a lossless `Number`).  Every
//!   numeric field on the wire — rates, latencies, counters — fits: `u64`
//!   counters stay exact below 2^53 and f64 round-trips are bit-exact
//!   (encoding uses Rust's shortest-round-trip formatting, decoding is
//!   `str::parse::<f64>`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error as StdError;
use std::fmt;

/// A parsed JSON value.  Objects preserve insertion order (see the crate
/// docs for why).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (exact for integers below 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value of an object field, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, if it is one (integral,
    /// non-negative, below 2^53 so the `f64` carries it losslessly).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in insertion order, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    /// Non-finite values encode as `null` (JSON has no spelling for them),
    /// matching the real crate's lossy f64 serialization.
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Value::Number(v)
        } else {
            Value::Null
        }
    }
}

impl From<u64> for Value {
    #[allow(clippy::cast_precision_loss)]
    fn from(v: u64) -> Self {
        Value::Number(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::from(v as u64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

/// Appends the JSON escaping of `s` (quotes included) to `out`.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends the canonical number spelling to `out`: integers without a
/// fractional part (exact below 2^53), everything else in Rust's shortest
/// round-trip form, so encode → decode reproduces the exact bits.
fn write_number(out: &mut String, n: f64) {
    #[allow(clippy::cast_possible_truncation)]
    if n == 0.0 {
        out.push('0');
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) if !n.is_finite() => out.push_str("null"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Value {
    /// Compact (no-whitespace) JSON, object fields in insertion order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self);
        f.write_str(&out)
    }
}

/// Encodes a value as compact JSON (the `Display` form).
#[must_use]
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// Why a JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What was wrong.
    message: String,
    /// Byte offset into the input where the problem was noticed.
    offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl StdError for Error {}

/// Parses one JSON document (surrounding whitespace tolerated, trailing
/// garbage rejected).
///
/// # Errors
/// Returns an [`Error`] naming the first offending byte offset.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting depth cap: a wire line nests two or three levels; 128 keeps any
/// hostile input from exhausting the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", char::from(byte))))
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {literal:?}")))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("expected a JSON value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        match token.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => {
                self.pos = start;
                Err(self.error("malformed number"))
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.parse_hex4()?;
                            let scalar = if (0xD800..0xDC00).contains(&first) {
                                // surrogate pair: the low half must follow
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let second = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        return Err(self.error("unpaired surrogate"));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                            } else {
                                first
                            };
                            match char::from_u32(scalar) {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            // parse_hex4 advanced past the digits already
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // multi-byte UTF-8 passes through verbatim: the input is
                    // a &str, so byte boundaries are sound
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .expect("input started as valid UTF-8");
                    let c = rest.chars().next().expect("peeked a byte");
                    if (c as u32) < 0x20 {
                        return Err(self.error("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let scalar = u32::from_str_radix(digits, 16)
            .map_err(|_| self.error("non-hex digits in \\u escape"))?;
        self.pos += 4;
        Ok(scalar)
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(json: &str) -> String {
        to_string(&from_str(json).unwrap())
    }

    #[test]
    fn parses_the_wire_shapes() {
        let line = r#"{"op":"query","id":1,"topology":"star","size":5,"rate":0.004}"#;
        let v = from_str(line).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("query"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("rate").and_then(Value::as_f64), Some(0.004));
        assert_eq!(v.get("missing"), None);
        // encode preserves field insertion order → the exact input bytes
        assert_eq!(to_string(&v), line);
        assert_eq!(format!("{v}"), line);
    }

    #[test]
    fn scalars_and_containers_round_trip() {
        for json in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "0.004",
            "\"hi\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            r#"{"b":1,"a":[true,null]}"#,
        ] {
            assert_eq!(roundtrip(json), json, "{json}");
        }
        // whitespace is tolerated on decode, dropped on encode
        assert_eq!(roundtrip(" { \"a\" : [ 1 , 2 ] } "), r#"{"a":[1,2]}"#);
        // exponent spellings parse; encoding is positional (Rust's `{}`),
        // which still reproduces the exact bits on re-parse
        assert_eq!(from_str("1e3").unwrap(), Value::Number(1000.0));
        assert_eq!(roundtrip("1e3"), "1000");
    }

    #[test]
    fn f64_bits_survive_the_wire() {
        for bits in [0.004f64, 1.0 / 3.0, 74.330_213_477_6, f64::MIN_POSITIVE, 9e15 + 1.0, 1e-300] {
            let encoded = to_string(&Value::from(bits));
            let back = from_str(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), bits.to_bits(), "{bits} -> {encoded}");
        }
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(to_string(&Value::from(42u64)), "42");
        assert_eq!(to_string(&Value::Number(2.0)), "2");
        assert_eq!(to_string(&Value::Number(-0.0)), "0");
        assert_eq!(from_str("42").unwrap().as_u64(), Some(42));
        assert_eq!(from_str("2.5").unwrap().as_u64(), None);
        assert_eq!(from_str("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(to_string(&Value::from(f64::INFINITY)), "null");
        assert_eq!(to_string(&Value::Number(f64::NAN)), "null");
        assert!(Value::from(f64::NAN).is_null());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::from("a\"b\\c\nd\te\u{08}\u{0C}\u{1}é😀");
        let encoded = to_string(&v);
        assert_eq!(from_str(&encoded).unwrap(), v);
        // the \u escape and surrogate-pair decode path
        assert_eq!(from_str(r#""\u00e9\ud83d\ude00\/""#).unwrap(), Value::from("é😀/"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "1 2",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "\"bad\\qescape\"",
            "\"\\ud800alone\"",
            "01a",
            "--3",
            "[1]]",
            "{\"a\":1,}",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} must not parse");
        }
        let err = from_str("[true, oops]").unwrap_err();
        assert!(err.to_string().contains("byte 7"), "{err}");
    }

    #[test]
    fn accessors_answer_only_their_own_shape() {
        let v = from_str(r#"{"a":[1],"s":"x","b":true}"#).unwrap();
        assert!(v.as_array().is_none());
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.as_object().unwrap().len(), 3);
        assert!(v.get("a").unwrap().get("nested").is_none());
        assert!(!v.is_null());
        assert!(from_str("null").unwrap().is_null());
    }
}
