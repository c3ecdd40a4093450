//! The workspace's one JSON implementation: a [`Value`] tree, a strict
//! RFC 8259 parser safe to run on outside input (cluster specs, JSONL
//! streams), a compact and a pretty writer, and the
//! [`ToJson`] / [`FromJson`] conversions typed files go through.
//!
//! Output matches the committed `results/*.json` files: the same string
//! escapes, shortest round-trip floats laid out as `1.0`, `0.001`,
//! `1e-7`, `1.5e300`, non-finite floats as `null`, and two-space pretty
//! indentation. Numbers keep their literal text, so `u64` values survive
//! a round trip exactly.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Maximum array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parse or conversion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON document. Objects keep insertion order, so a struct writes its
/// fields in declaration order; a [`BTreeMap`] writes sorted keys.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    /// A number, as its literal JSON text.
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The value under `key` of an object (the last one if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// Converts the field `key` of an object. A missing field reads as
    /// `null`, so it is an error unless `T` accepts `null` (`Option`).
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, Error> {
        if !matches!(self, Value::Object(_)) {
            return Err(Error::new(format!("expected an object with field `{key}`")));
        }
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| Error::new(format!("field `{key}`: {e}"))),
            None => T::from_json(&NULL).map_err(|_| Error::new(format!("missing field `{key}`"))),
        }
    }

    /// Like [`Value::field`], but a missing field yields `default`.
    pub fn field_or<T: FromJson>(&self, key: &str, default: T) -> Result<T, Error> {
        match self.get(key) {
            Some(_) => self.field(key),
            None => self.field::<Option<T>>(key).map(|_| default),
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// The field `key`, or `null` when absent or not an object.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// Element `i`, or `null` when out of range or not an array.
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

macro_rules! eq_via {
    ($($t:ty => $as:ident),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.$as().is_some_and(|v| v == (*other).into())
            }
        }
    )*};
}

eq_via!(bool => as_bool, i32 => as_i64, i64 => as_i64, u64 => as_u64, f64 => as_f64);

impl fmt::Display for Value {
    /// Compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        f.write_str(&out)
    }
}

/// An object from `(key, value)` pairs, in the given order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `s` as a quoted JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// `v` as a JSON number: the shortest decimal that reads back as `v`, laid
/// out as the committed result files have it (`1.0`, `0.001`, `1e-7`);
/// `null` when `v` is not finite.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let sign = if v.is_sign_negative() { "-" } else { "" };
    if v == 0.0 {
        return format!("{sign}0.0");
    }
    // `{:e}` yields the shortest round-trip digits: `d[.ddd]e<exp>`.
    let sci = format!("{:e}", v.abs());
    let (mantissa, exp) = sci.split_once('e').expect("`{:e}` has an exponent");
    let digits: String = mantissa.chars().filter(|c| *c != '.').collect();
    let len = digits.len() as i32;
    // value = 0.<digits> * 10^point
    let point = exp.parse::<i32>().expect("`{:e}` exponent is an integer") + 1;
    let body = if (len..=16).contains(&point) {
        format!("{digits}{}.0", "0".repeat((point - len) as usize))
    } else if (1..=16).contains(&point) {
        format!(
            "{}.{}",
            &digits[..point as usize],
            &digits[point as usize..]
        )
    } else if (-4..=0).contains(&point) {
        format!("0.{}{digits}", "0".repeat((-point) as usize))
    } else if len == 1 {
        format!("{digits}e{}", point - 1)
    } else {
        format!("{}.{}e{}", &digits[..1], &digits[1..], point - 1)
    };
    format!("{sign}{body}")
}

fn indent(out: &mut String, pretty: Option<usize>, level: usize) {
    if let Some(width) = pretty {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_value(out: &mut String, v: &Value, pretty: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(n),
        Value::String(s) => write_str(out, s),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Object(fields) if fields.is_empty() => out.push_str("{}"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                indent(out, pretty, level + 1);
                write_value(out, item, pretty, level + 1);
            }
            indent(out, pretty, level);
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                indent(out, pretty, level + 1);
                write_str(out, k);
                out.push_str(if pretty.is_some() { ": " } else { ":" });
                write_value(out, item, pretty, level + 1);
            }
            indent(out, pretty, level);
            out.push('}');
        }
    }
}

/// Compact JSON for `value`.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Two-space indented JSON for `value`.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), Some(2), 0);
    out
}

/// Parses `text` and converts it to `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses one JSON document. Strict: no trailing bytes, no `NaN` or
/// `Infinity`, no leading zeros, no bad escapes or lone surrogates, no raw
/// control characters in strings, and at most [`MAX_DEPTH`] levels of
/// nesting, so hostile input yields `Err` instead of a stack overflow.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// [`parse`] on raw bytes, which must be UTF-8.
pub fn parse_bytes(bytes: &[u8]) -> Result<Value, Error> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    parse(text)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        let before = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
        let column = before.len()
            - before
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
        Error::new(format!("{what} at line {line} column {column}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("expected value"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("EOF while parsing a value")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let depth = self.enter(depth)?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                let depth = self.enter(depth)?;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(self.err("expected `:`"));
                    }
                    self.pos += 1;
                    fields.push((key, self.value(depth)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => Err(self.err("expected value")),
        }
    }

    fn enter(&mut self, depth: usize) -> Result<usize, Error> {
        if depth >= MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.pos += 1;
        Ok(depth + 1)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(self.err("invalid number")),
            n if n > 1 && self.bytes[int_start] == b'0' => {
                return Err(self.err("invalid number: leading zero"))
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !text.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(self.err("number out of range"));
        }
        Ok(Value::Number(text.to_string()))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("checked hex digits"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // Input is a `&str` and runs stop only at ASCII bytes, so each
            // run is whole UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[run..self.pos]).expect("UTF-8 input"));
            match self.peek() {
                None => return Err(self.err("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("EOF in escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.err("lone leading surrogate"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("invalid trailing surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone trailing surrogate")),
            c => c,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }
}

// ---------------------------------------------------------------------------
// Typed conversions
// ---------------------------------------------------------------------------

/// Types written as JSON.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Types read back from JSON.
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, Error>;
}

/// Implements [`ToJson`] and [`FromJson`] for a struct as an object of its
/// named fields, written in the order listed. Fields listed under `skip`
/// are not written and read back as `Default::default()` (caches, scratch
/// state). Invoke it in the struct's own module so private fields are in
/// scope.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),* $(,)? } $(skip { $($skip:ident),* $(,)? })?) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::obj([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field)),)*
                ])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                Ok($ty {
                    $($field: v.field(stringify!($field))?,)*
                    $($($skip: Default::default(),)*)?
                })
            }
        }
    };
}

fn expected(what: &str, v: &Value) -> Error {
    let got = match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    };
    Error::new(format!("expected {what}, found {got}"))
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| expected("a boolean", v))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        if self.is_finite() {
            Value::Number(num(*self))
        } else {
            Value::Null
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| expected("a number", v))
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(self.to_string())
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => n
                        .parse()
                        .map_err(|_| Error::new(format!(
                            "expected {}, found {n}", stringify!($t)
                        ))),
                    _ => Err(expected(stringify!($t), v)),
                }
            }
        }
    )*};
}

int_json!(u32, u64, usize, i64);

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| expected("a string", v))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| expected("an array", v))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| expected("an object", v))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_json(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_match_committed_layout() {
        let cases = [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (-2.5, "-2.5"),
            (0.1, "0.1"),
            (1234.5, "1234.5"),
            (0.001, "0.001"),
            (0.0001, "0.0001"),
            (0.00001, "0.00001"),
            (0.000001, "1e-6"),
            (1.5e-7, "1.5e-7"),
            (1e16, "1e16"),
            (1.2e16, "1.2e16"),
            (123456789012345680.0, "1.2345678901234568e17"),
            (9007199254740992.0, "9007199254740992.0"),
            (2.999999996849998, "2.999999996849998"),
            (f64::MAX, "1.7976931348623157e308"),
            (5e-324, "5e-324"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ];
        for (v, want) in cases {
            assert_eq!(num(v), want, "{v:e}");
            if v.is_finite() {
                assert_eq!(
                    parse(want).unwrap().as_f64().unwrap().to_bits(),
                    v.to_bits()
                );
            }
        }
    }

    #[test]
    fn writes_compact_and_pretty() {
        let v = obj([
            ("a", 1u64.to_json()),
            ("b", vec![1.5, 2.0].to_json()),
            ("c", Value::Array(vec![])),
            ("d", obj([])),
            ("e", "x\"\\\n\u{1}é".to_json()),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a":1,"b":[1.5,2.0],"c":[],"d":{},"e":"x\"\\\n\u0001é"}"#
        );
        assert_eq!(
            to_string_pretty(&v),
            "{\n  \"a\": 1,\n  \"b\": [\n    1.5,\n    2.0\n  ],\n  \"c\": [],\n  \"d\": {},\n  \"e\": \"x\\\"\\\\\\n\\u0001é\"\n}"
        );
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn parses_valid_documents() {
        let v = parse(r#" {"k": [true, false, null, -0, 1.5e+3, "a\u00e9\ud83d\ude00\/"], "n": 18446744073709551615} "#).unwrap();
        assert_eq!(v["k"][0], Value::Bool(true));
        assert!(v["k"][2].is_null());
        assert_eq!(v["k"][4].as_f64(), Some(1500.0));
        assert_eq!(v["k"][5], "aé😀/");
        assert_eq!(v["n"].as_u64(), Some(u64::MAX));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            " ",
            "nul",
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "01",
            "-",
            "1.",
            "1e",
            "+1",
            ".5",
            "NaN",
            "Infinity",
            "-Infinity",
            "1e999",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\u12\"",
            "\"a\nb\"",
            "\"abc",
            "{1:2}",
            "{\"a\" 1}",
            "[1] x",
            "{} {}",
            "'a'",
            "[",
            "{\"a\":",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_without_overflowing() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn missing_fields_and_defaults() {
        let v = parse(r#"{"x": 3, "s": null}"#).unwrap();
        assert_eq!(v.field::<u64>("x"), Ok(3));
        assert_eq!(v.field::<Option<String>>("s"), Ok(None));
        assert_eq!(v.field::<Option<String>>("absent"), Ok(None));
        assert!(v
            .field::<u64>("absent")
            .unwrap_err()
            .to_string()
            .contains("missing field"));
        assert_eq!(v.field_or("absent", 7u64), Ok(7));
        assert_eq!(v.field_or("x", 7u64), Ok(3));
        assert!(v.field::<u32>("s").is_err());
        assert!(Value::Null.field::<u64>("x").is_err());
    }
}
