//! Vendored stand-in for `serde` (+ the JSON half of `serde_json`).
//!
//! The build environment is offline, so the workspace vendors a minimal
//! serialization framework: a JSON [`Value`] data model, [`Serialize`] /
//! [`Deserialize`] traits implemented by hand (no derive macros — proc
//! macros would need their own vendored stack), and a complete JSON
//! writer/parser in [`json`].
//!
//! The trait names and module layout mirror serde so call sites read
//! `impl serde::Serialize for …` / `serde::json::to_string(&x)`; swapping
//! to crates.io serde+serde_json later is a manifest change plus
//! replacing the hand impls with `#[derive(...)]`.
//!
//! Numbers are `f64`. Integers below 2⁵³ in magnitude are written and
//! read exactly without the float formatter: the writer prints them
//! through a small integer formatter, and the parser reads a plain digit
//! run of at most 15 bytes as a `u64`. Both produce the same bytes and
//! bits as `f64` `Display` and `str::parse::<f64>`, which every other
//! number still goes through.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

/// The JSON data model every serializable type maps through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, stored as `f64`. Integers below 2⁵³ in magnitude
    /// round-trip, and are written and read exactly without the float
    /// formatter.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Number(n) if n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }

    /// Convenience for a missing object field.
    pub fn missing_field(name: &str) -> Self {
        Self(format!("missing field `{name}`"))
    }

    /// Convenience for a type mismatch.
    pub fn expected(what: &str, got: &Value) -> Self {
        Self(format!("expected {what}, got {got:?}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can map themselves into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    fn from_value(value: &Value) -> Result<Self, Error>;
}

macro_rules! serialize_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                value.as_f64().map(|n| n as $t).ok_or_else(|| Error::expected(stringify!($t), value))
            }
        }
    )*};
}

serialize_float!(f64, f32);

macro_rules! serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            /// Rejects fractional, out-of-range and non-numeric input
            /// instead of truncating/saturating — wire data is untrusted.
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_f64().ok_or_else(|| Error::expected(stringify!($t), value))?;
                // `MAX as f64` rounds up to 2^BITS for 64-bit types, so the
                // upper bound is the exact exclusive power of two instead:
                // 2^BITS unsigned, 2^(BITS-1) signed. `MIN as f64` is exact.
                let signed = u32::from(<$t>::MIN != 0);
                let end = (1u128 << (<$t>::BITS - signed)) as f64;
                if n.fract() != 0.0 || n < <$t>::MIN as f64 || n >= end {
                    return Err(Error::expected(
                        concat!("an in-range integer for ", stringify!($t)),
                        value,
                    ));
                }
                Ok(n as $t)
            }
        }
    )*};
}

serialize_int!(usize, u64, u32, u16, u8, i64, i32);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| Error::expected("bool", value))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_str().map(str::to_string).ok_or_else(|| Error::expected("string", value))
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::String((*self).to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::expected("array", value))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

/// JSON text encoding/decoding of the [`Value`] model.
pub mod json {
    use super::{Deserialize, Error, Serialize, Value};
    use std::fmt::Write as _;

    /// Serializes to compact JSON.
    pub fn to_string<T: Serialize>(value: &T) -> String {
        value_to_string(&value.to_value())
    }

    /// Writes a [`Value`] as compact JSON. Unlike [`to_string`], which
    /// goes through [`Serialize::to_value`], this does not copy the tree.
    pub fn value_to_string(value: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, value, None, 0);
        out
    }

    /// Serializes to human-readable indented JSON.
    pub fn to_string_pretty<T: Serialize>(value: &T) -> String {
        let mut out = String::new();
        write_value(&mut out, &value.to_value(), Some(2), 0);
        out.push('\n');
        out
    }

    /// Parses JSON text into a `T`.
    pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
        T::from_value(&parse(text)?)
    }

    /// Nesting limit for arrays and objects, matching serde_json's
    /// default recursion limit. The parser recurses once per level, so
    /// without a cap a body of `[[[…` overflows the thread's stack —
    /// which aborts the process rather than unwinding.
    pub const MAX_DEPTH: usize = 128;

    /// Parses JSON text into the [`Value`] model in one pass over
    /// `text`. Documents nested deeper than [`MAX_DEPTH`] are rejected.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::custom(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => {
                if let Some(int) = small_int(*n) {
                    write_int(out, int);
                } else if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no Inf/NaN; mirror serde_json's lossy `null`.
                    out.push_str("null");
                }
            }
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                write_seq(out, items.iter(), indent, depth, ('[', ']'), |out, item, d| {
                    write_value(out, item, indent, d);
                });
            }
            Value::Object(fields) => {
                write_seq(out, fields.iter(), indent, depth, ('{', '}'), |out, (k, val), d| {
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, val, indent, d);
                });
            }
        }
    }

    /// 2⁵³: every integer below it in magnitude is an exact `f64`.
    const EXACT_INT: f64 = 9_007_199_254_740_992.0;

    /// `n` as an `i64` when it is integral, below 2⁵³ in magnitude and not
    /// `-0.0`; `Display` prints such a number as the integer's digits.
    /// Larger integers can display rounded (2⁶⁰ as `1152921504606847000`)
    /// and `-0.0` displays as `-0`, so both keep the float formatter.
    fn small_int(n: f64) -> Option<i64> {
        let int = n as i64;
        (int as f64 == n && n.abs() < EXACT_INT && (int != 0 || n.is_sign_positive()))
            .then_some(int)
    }

    fn write_int(out: &mut String, int: i64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = int.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if int < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    fn write_seq<I: ExactSizeIterator>(
        out: &mut String,
        items: I,
        indent: Option<usize>,
        depth: usize,
        (open, close): (char, char),
        mut write_item: impl FnMut(&mut String, I::Item, usize),
    ) {
        if items.len() == 0 {
            out.push(open);
            out.push(close);
            return;
        }
        out.push(open);
        let len = items.len();
        for (i, item) in items.enumerate() {
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * (depth + 1)));
            }
            write_item(out, item, depth + 1);
            if i + 1 < len {
                out.push(',');
            }
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
        out.push(close);
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, token: &str) -> Result<(), Error> {
            if self.bytes[self.pos..].starts_with(token.as_bytes()) {
                self.pos += token.len();
                Ok(())
            } else {
                Err(Error::custom(format!("expected `{token}` at byte {}", self.pos)))
            }
        }

        fn value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                Some(b'n') => self.eat("null").map(|()| Value::Null),
                Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
                Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
                Some(b'"') => self.string().map(Value::String),
                Some(b'[') => self.nested(Self::array),
                Some(b'{') => self.nested(Self::object),
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(Error::custom(format!("unexpected {other:?} at byte {}", self.pos))),
            }
        }

        /// Parses one array or object one level deeper, refusing to go
        /// past [`MAX_DEPTH`].
        fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
            if self.depth == MAX_DEPTH {
                return Err(Error::custom(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                )));
            }
            self.depth += 1;
            let value = parse(self);
            self.depth -= 1;
            value
        }

        fn array(&mut self) -> Result<Value, Error> {
            self.pos += 1; // '['
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
                    _ => return Err(Error::custom(format!("bad array at byte {}", self.pos))),
                }
            }
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.pos += 1; // '{'
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
                self.eat(":")?;
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
                    _ => return Err(Error::custom(format!("bad object at byte {}", self.pos))),
                }
            }
        }

        fn string(&mut self) -> Result<String, Error> {
            if self.peek() != Some(b'"') {
                return Err(Error::custom(format!("expected string at byte {}", self.pos)));
            }
            self.pos += 1;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error::custom("unterminated string")),
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
                                    .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                                // Exactly four hex digits: `from_str_radix`
                                // alone would also take a leading `+`.
                                if !hex.iter().all(u8::is_ascii_hexdigit) {
                                    return Err(Error::custom("bad \\u escape"));
                                }
                                let code = hex.iter().fold(0, |code, &b| {
                                    code << 4 | char::from(b).to_digit(16).expect("hex digit")
                                });
                                // Surrogate pairs are not needed by the
                                // workspace's ASCII payloads.
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error::custom("bad \\u code point"))?,
                                );
                                self.pos += 4;
                            }
                            other => return Err(Error::custom(format!("bad escape {other:?}"))),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Copy the whole run up to the next `"` or `\`.
                        // Both are ASCII, which never occurs inside a
                        // multi-byte UTF-8 sequence, so the run ends on a
                        // char boundary of the already-valid `text`.
                        let run = self.bytes[self.pos..]
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\')
                            .unwrap_or(self.bytes.len() - self.pos);
                        out.push_str(&self.text[self.pos..self.pos + run]);
                        self.pos += run;
                    }
                }
            }
        }

        /// The longest plain digit run read as a `u64`: every such run is
        /// below 10¹⁵ < 2⁵³, so it converts to `f64` exactly, to the bits
        /// `str::parse::<f64>` gives.
        const MAX_INT_DIGITS: usize = 15;

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            let mut int = 0u64;
            while let Some(b @ b'0'..=b'9') = self.peek() {
                int = int.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                self.pos += 1;
            }
            let digits = self.pos - start;
            while let Some(b) = self.peek() {
                if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos - start == digits && digits <= Self::MAX_INT_DIGITS {
                return Ok(Value::Number(int as f64));
            }
            let text = &self.text[start..self.pos];
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| Error::custom(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compound_values() {
        let v = Value::object([
            ("name", Value::String("jury".into())),
            ("sizes", Value::Array(vec![Value::Number(1.0), Value::Number(3.0)])),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            ("nested", Value::object([("jer", Value::Number(0.07036))])),
        ]);
        let text = json::to_string(&v);
        assert_eq!(json::parse(&text).unwrap(), v);
        let pretty = json::to_string_pretty(&v);
        assert_eq!(json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for n in [0.0, -1.5, 0.07036, 1e-300, 123456789.0, f64::MAX] {
            let text = json::to_string(&n);
            let back: f64 = json::from_str(&text).unwrap();
            assert_eq!(back, n, "{text}");
        }
    }

    #[test]
    fn strings_escape() {
        let s = "say \"hi\"\nnew\tline \\".to_string();
        let text = json::to_string(&s);
        let back: String = json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<f64> = vec![1.0, 2.5, 3.0];
        let back: Vec<f64> = json::from_str(&json::to_string(&v)).unwrap();
        assert_eq!(back, v);
        let some: Option<bool> = Some(true);
        assert_eq!(json::to_string(&some), "true");
        let none: Option<bool> = None;
        assert_eq!(json::to_string(&none), "null");
        let opt: Option<bool> = json::from_str("null").unwrap();
        assert_eq!(opt, None);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("12 34").is_err());
        assert!(json::parse("\"unterminated").is_err());
        assert!(json::from_str::<bool>("1.5").is_err());
    }

    #[test]
    fn integers_reject_fractions_and_out_of_range() {
        assert!(json::from_str::<usize>("1.7").is_err());
        assert!(json::from_str::<usize>("-3").is_err());
        assert!(json::from_str::<u8>("256").is_err());
        assert!(json::from_str::<i32>("2147483648").is_err());
        assert_eq!(json::from_str::<usize>("42").unwrap(), 42);
        assert_eq!(json::from_str::<i32>("-7").unwrap(), -7);
        // The top of the 64-bit ranges is exclusive, not saturating:
        // 2^64 and 2^63 are refused, -2^63 is i64::MIN.
        assert!(json::from_str::<u64>("18446744073709551616").is_err());
        assert!(json::from_str::<usize>("18446744073709551616").is_err());
        assert!(json::from_str::<i64>("9223372036854775808").is_err());
        assert_eq!(json::from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert!(json::from_str::<i64>("-9223372036854777856").is_err());
        assert_eq!(json::from_str::<u64>("18446744073709549568").unwrap(), u64::MAX - 2047);
        assert_eq!(json::from_str::<u32>("4294967295").unwrap(), u32::MAX);
        assert!(json::from_str::<u32>("4294967296").is_err());
        // Floats stay lossless/lossy as floats.
        assert_eq!(json::from_str::<f64>("1.7").unwrap(), 1.7);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(json::from_str::<String>(r#""\u0041\u00e9\u00C9""#).unwrap(), "AéÉ");
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04G1""#, r#""\u12""#] {
            assert!(json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    /// Strings drawn from the characters the string parser treats
    /// specially — the delimiters, every escaped class, and scalars of
    /// each UTF-8 width — survive a write/parse round trip.
    mod string_round_trip {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn parse_inverts_to_string(s in "[\"\\/\n\t\u{1}é日😀a-z ]{0,48}") {
                let back: String = json::from_str(&json::to_string(&s)).unwrap();
                prop_assert_eq!(back, s);
            }
        }

        #[test]
        fn multi_byte_scalars_next_to_escapes() {
            for s in ["", "é\n", "\n日", "😀\"😀", "\\é\\", "日\u{1}é"] {
                let back: String = json::from_str(&json::to_string(&s)).unwrap();
                assert_eq!(back, s);
            }
            assert_eq!(json::from_str::<String>(r#""é\u0041日""#).unwrap(), "éA日");
        }
    }

    /// The integer writer and the digit-run parser are shortcuts, not new
    /// formats: they pin to `f64` `Display` bytes and `str::parse::<f64>`
    /// bits on and around their boundaries.
    mod number_fast_paths {
        use super::*;
        use proptest::prelude::*;

        const EXACT: f64 = 9_007_199_254_740_992.0; // 2⁵³

        fn written(n: f64) -> String {
            json::value_to_string(&Value::Number(n))
        }

        fn assert_written_as_display(n: f64) {
            let expected = if n.is_finite() { format!("{n}") } else { "null".to_string() };
            assert_eq!(written(n), expected, "bits {:#x}", n.to_bits());
        }

        fn assert_parsed_as_str_parse(text: &str) {
            let parsed = json::parse(text).unwrap().as_f64().unwrap();
            let expected = text.parse::<f64>().unwrap();
            assert_eq!(parsed.to_bits(), expected.to_bits(), "{text}");
        }

        proptest! {
            #[test]
            fn integral_floats_write_as_display(
                int in -9_007_199_254_740_991i64..=9_007_199_254_740_991,
                shift in 0u32..=53,
            ) {
                // The shift spreads draws over every magnitude.
                let n = (int >> shift) as f64;
                prop_assert_eq!(written(n), format!("{n}"));
            }

            #[test]
            fn other_floats_write_as_display(n in -1e6f64..1e6, scale in 0i32..=40) {
                let n = n * 10f64.powi(scale - 20);
                prop_assert_eq!(written(n), format!("{n}"));
            }

            #[test]
            fn digit_runs_parse_as_str_parse(text in "[0-9]{1,20}") {
                let parsed = json::parse(&text).unwrap().as_f64().unwrap();
                prop_assert_eq!(parsed.to_bits(), text.parse::<f64>().unwrap().to_bits());
            }
        }

        #[test]
        fn writer_boundaries_match_display() {
            for n in [
                0.0,
                -0.0,
                1.0,
                -1.0,
                EXACT - 1.0,
                -(EXACT - 1.0),
                EXACT,
                -EXACT,
                EXACT - 2.0,
                EXACT + 2.0,
                -(EXACT + 2.0),
                // Integral and inside i64, but `Display` pads the shortest
                // round-trip digits with zeros: 1152921504606847000.
                2f64.powi(60),
                -(2f64.powi(62)),
                f64::from_bits(1),
                -f64::from_bits(1),
                f64::MIN_POSITIVE / 2.0,
                0.5,
                -1.5,
                0.1 + 0.2,
                1e300,
                f64::MAX,
                f64::MIN,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                assert_written_as_display(n);
            }
            assert_eq!(written(-0.0), "-0");
            assert_eq!(written(f64::NAN), "null");
        }

        #[test]
        fn parser_boundaries_match_str_parse() {
            for text in [
                "0",
                "-0",
                "000",
                "007",
                "1e5",
                "0.5",
                "-12",
                "999999999999999",
                "9999999999999999",
                "9007199254740993",
                "18446744073709551615",
                "18446744073709551616",
                "99999999999999999999",
            ] {
                assert_parsed_as_str_parse(text);
            }
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested =
            |depth: usize, open: &str, close: &str| open.repeat(depth) + &close.repeat(depth);
        assert!(json::parse(&nested(json::MAX_DEPTH, "[", "]")).is_ok());
        assert!(json::parse(&nested(json::MAX_DEPTH + 1, "[", "]")).is_err());
        assert!(json::parse(&nested(json::MAX_DEPTH, r#"{"k":"#, "}").replace(":}", ":0}")).is_ok());
        assert!(json::parse(&nested(json::MAX_DEPTH + 1, r#"{"k":"#, "}").replace(":}", ":0}"))
            .is_err());
        // Siblings do not add depth: the cap is on nesting, not size.
        assert!(json::parse(&format!("[{}[]]", "[],".repeat(10_000))).is_ok());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_a_small_stack() {
        let body = "[".repeat(100_000);
        let outcome = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || json::parse(&body).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(outcome, "10^5 unclosed arrays must be an error");
    }

    /// Parsing is linear in the input: the old per-character
    /// re-validation took over a second on the first document and
    /// minutes on the second. The bounds leave ample room for debug
    /// builds and slow hosts.
    #[test]
    fn large_documents_parse_in_linear_time() {
        use std::time::{Duration, Instant};

        // One string filling a whole HTTP body (256 KiB).
        let body = format!("\"{}\"", "x".repeat(256 * 1024 - 2));
        let started = Instant::now();
        assert_eq!(json::parse(&body).unwrap().as_str().map(str::len), Some(256 * 1024 - 2));
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(250), "256 KiB string took {elapsed:?}");

        // A snapshot-manifest-shaped document with 10^4 entries.
        let hex = |n: u64| Value::String(format!("{n:016x}"));
        let entries = (0..10_000u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                Value::object([
                    ("lanes", Value::Array(vec![hex(h), hex(h.rotate_left(17))])),
                    ("len", hex(100)),
                    ("layout", Value::String("flat".into())),
                    ("file", Value::String(format!("art-{h:016x}-g{i}-e1.snap"))),
                    ("config", hex(h >> 7)),
                    ("bytes", hex(4096 + i)),
                    ("checksum", hex(h ^ 0x5555)),
                ])
            })
            .collect();
        let manifest = json::to_string_pretty(&Value::object([
            ("format", Value::String("jury-snapshot".into())),
            ("entries", Value::Array(entries)),
        ]));
        assert!(manifest.len() > 2_500_000, "manifest is {} bytes", manifest.len());
        let started = Instant::now();
        let parsed = json::parse(&manifest).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            parsed.get("entries").and_then(Value::as_array).map(<[Value]>::len),
            Some(10_000)
        );
        assert!(elapsed < Duration::from_secs(2), "10^4-entry manifest took {elapsed:?}");
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = json::parse(r#"{"a": 3, "b": [1, 2], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_array).map(<[Value]>::len), Some(2));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }
}
