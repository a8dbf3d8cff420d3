//! Hand-written JSON wire format.
//!
//! Synapse write messages are JSON (Fig. 6(b) in the paper). The encoder and
//! parser here are written from scratch so the reproduction controls every
//! byte that crosses the broker: encoding is canonical (map keys sorted,
//! minimal escapes) which lets tests compare messages textually.
//!
//! The grammar is standard JSON with one extension on the *decode* side
//! only: integers that fit `i64` parse to [`Value::Int`], everything else
//! numeric to [`Value::Float`].

use crate::error::ModelError;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Encodes a [`Value`] to canonical JSON.
///
/// # Examples
///
/// ```
/// use synapse_model::{vmap, wire};
///
/// let v = vmap! { "id" => 100, "name" => "alice" };
/// assert_eq!(wire::encode(&v), r#"{"id":100,"name":"alice"}"#);
/// ```
pub fn encode(value: &Value) -> String {
    let mut out = String::with_capacity(64);
    encode_into(value, &mut out);
    out
}

/// Encodes a [`Value`] into an existing buffer, avoiding reallocation on the
/// publisher hot path.
pub fn encode_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => encode_i64(*i, out),
        Value::Float(x) => encode_float(*x, out),
        Value::Str(s) => encode_str(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_into(item, out);
            }
            out.push(']');
        }
        Value::Map(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_str(k, out);
                out.push(':');
                encode_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Appends the decimal digits of `i` — same bytes as `i64`'s `Display`,
/// but written through a stack buffer instead of an intermediate `String`.
pub fn encode_i64(i: i64, out: &mut String) {
    if i < 0 {
        out.push('-');
    }
    encode_u64(i.unsigned_abs(), out);
}

/// Appends the decimal digits of `u` with no heap allocation.
pub fn encode_u64(u: u64, out: &mut String) {
    // u64::MAX is 20 digits.
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    let mut rest = u;
    loop {
        pos -= 1;
        buf[pos] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    // ASCII digits are one-byte characters: pushed as such, they need no
    // UTF-8 check.
    out.extend(buf[pos..].iter().map(|&d| char::from(d)));
}

fn encode_float(x: f64, out: &mut String) {
    if x.is_finite() {
        // `{}` on f64 never uses scientific notation, so subnormals print
        // hundreds of digits (5e-324 is ~326 chars): format onto the stack
        // and fall back to the heap only past that.
        let mut buf = FloatBuf::default();
        let s = match std::fmt::Write::write_fmt(&mut buf, format_args!("{x}")) {
            Ok(()) => buf.as_str(),
            Err(_) => {
                let s = x.to_string();
                out.push_str(&s);
                finish_float(&s, out);
                return;
            }
        };
        out.push_str(s);
        finish_float(s, out);
    } else {
        // JSON has no NaN/Infinity; Synapse never publishes them, but the
        // encoder must stay total.
        out.push_str("null");
    }
}

/// Keeps floats round-trippable as floats: `2.0` must not encode as `2`,
/// which would decode to an Int.
fn finish_float(formatted: &str, out: &mut String) {
    if !formatted.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Fixed-capacity `fmt::Write` sink for float formatting; errors on
/// overflow so the caller can fall back.
struct FloatBuf {
    buf: [u8; 512],
    len: usize,
}

impl Default for FloatBuf {
    fn default() -> Self {
        FloatBuf {
            buf: [0; 512],
            len: 0,
        }
    }
}

impl FloatBuf {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("float digits are ascii")
    }
}

impl std::fmt::Write for FloatBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let bytes = s.as_bytes();
        if self.len + bytes.len() > self.buf.len() {
            return Err(std::fmt::Error);
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(())
    }
}

/// Appends `s` as a JSON string literal (quoted, minimally escaped) — the
/// canonical escaping used everywhere a key or string crosses the wire.
/// Each run of characters that needs no escape is copied whole.
pub fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // An escaped byte is ASCII, so `i` is a character boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            // b < 0x20, so the escape is always "\u00" + 2 hex digits.
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses JSON text into a [`Value`].
///
/// # Examples
///
/// ```
/// use synapse_model::wire;
///
/// let v = wire::decode(r#"{"interests":["cats","dogs"]}"#).unwrap();
/// assert_eq!(v.get("interests").as_array().unwrap().len(), 2);
/// ```
pub fn decode(text: &str) -> Result<Value, ModelError> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Where a [`Reader`] stopped and why: an offset and a static message, so
/// every read's `Result` stays small and nothing is allocated until the
/// error leaves the caller's read as a [`ModelError::Parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadError {
    offset: usize,
    what: &'static str,
}

impl From<ReadError> for ModelError {
    fn from(e: ReadError) -> Self {
        ModelError::Parse {
            offset: e.offset,
            message: e.what.to_owned(),
        }
    }
}

/// The one JSON reader: a pull reader over one text, behind [`decode`]
/// and open to a caller that knows its message's shape and wants the
/// fields in its own types instead of a [`Value`] tree (a write message,
/// read once per delivery). [`Reader::array`] and [`Reader::object`] walk
/// a container and hand each element's position to the caller, who
/// consumes exactly one value there with any of the reads: a string comes
/// borrowed from the text unless it holds an escape, an integer as an
/// `i64`, a tree only when asked for, and [`Reader::skip`] checks a value
/// without building anything. A typed read that finds some other type
/// checks it as [`Reader::skip`] would and answers `None` (a container
/// read, `false`) — what `Value::as_str`/`as_int`/`as_array`/`as_map`
/// answer on a parsed tree, so the grammar accepted is [`decode`]'s, byte
/// for byte.
///
/// # Examples
///
/// ```
/// use synapse_model::wire::Reader;
///
/// let mut r = Reader::new(r#"{"id":7,"name":"x","tags":["a","b"],"n":1.5}"#);
/// let (mut id, mut name, mut tags) = (None, None, 0);
/// r.object(|r, key| {
///     match &*key {
///         "id" => id = r.int()?,
///         "name" => name = r.string()?,
///         "tags" => {
///             r.array(|r| r.skip().map(|_| tags += 1))?;
///         }
///         _ => r.skip()?,
///     }
///     Ok(())
/// })
/// .unwrap();
/// r.finish().unwrap();
/// assert_eq!((id, name.as_deref(), tags), (Some(7), Some("x"), 2));
/// ```
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

/// A literal or a number, as read: nothing of either lives on the heap.
#[derive(Clone, Copy)]
enum Scalar {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
}

/// Where the run of string bytes from `at` that need no look ends: at the
/// first `"`, `\` or control byte, or the end of `bytes`. Eight bytes are
/// looked at a time, as one word: `hits` marks a byte's high bit where it
/// is one of the three. A subtraction's borrow can also mark bytes after
/// the first hit, never before it, so the lowest mark is the first hit.
fn plain_run(bytes: &[u8], mut at: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |w: u64, n: u64| w.wrapping_sub(ONES * n) & !w & HIGH;
    while let Some(chunk) = bytes.get(at..at + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let hits = below(w ^ (ONES * u64::from(b'"')), 1)
            | below(w ^ (ONES * u64::from(b'\\')), 1)
            | below(w, 0x20);
        if hits != 0 {
            return at + hits.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    at + bytes[at..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len() - at)
}

impl<'a> Reader<'a> {
    /// Opens `text`, positioned at its first value.
    pub fn new(text: &'a str) -> Self {
        let mut r = Reader { text, pos: 0 };
        r.skip_ws();
        r
    }

    /// The byte offset the reader stands at: where the value handed to a
    /// container walk's caller starts, and just past a value once read.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Closes the text: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), ReadError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    /// Reads the next value, whatever it is, into a tree.
    pub fn value(&mut self) -> Result<Value, ReadError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| r.value().map(|v| items.push(v)))?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|r, key| {
                    let value = r.value()?;
                    map.insert(key.into_owned(), value);
                    Ok(())
                })?;
                Ok(Value::Map(map))
            }
            _ => Ok(match self.scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::Int(i) => Value::Int(i),
                Scalar::Float(x) => Value::Float(x),
            }),
        }
    }

    /// Checks the next value, whatever it is, and builds nothing of it.
    pub fn skip(&mut self) -> Result<(), ReadError> {
        match self.peek() {
            Some(b'"') => self.scan_string().map(drop),
            Some(b'[') => self.walk(b']', "expected ',' or ']' in array", Self::skip),
            Some(b'{') => self.walk(b'}', "expected ',' or '}' in object", |r| {
                r.scan_string()?;
                r.colon()?;
                r.skip()
            }),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads the next value as a string: borrowed from the text unless it
    /// holds an escape; `None` (the value checked) if it is no string.
    #[inline]
    pub fn string(&mut self) -> Result<Option<Cow<'a, str>>, ReadError> {
        if self.peek() == Some(b'"') {
            self.parse_string().map(Some)
        } else {
            self.skip().map(|_| None)
        }
    }

    /// Reads the next value as an integer; `None` (the value checked) if
    /// it is no integer that fits `i64`.
    #[inline]
    pub fn int(&mut self) -> Result<Option<i64>, ReadError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Scalar::Int(i) => Ok(Some(i)),
                _ => Ok(None),
            },
            _ => self.skip().map(|_| None),
        }
    }

    /// Reads the next value as an array, calling `item` at each element;
    /// `false` (the value checked) if it is no array.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), ReadError>,
    ) -> Result<bool, ReadError> {
        if self.peek() != Some(b'[') {
            return self.skip().map(|_| false);
        }
        self.walk(b']', "expected ',' or ']' in array", item)?;
        Ok(true)
    }

    /// Reads the next value as an object, calling `entry` with each key at
    /// that key's value; `false` (the value checked) if it is no object.
    /// Keys come in text order, repeats included — a tree keeps the last.
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ReadError>,
    ) -> Result<bool, ReadError> {
        if self.peek() != Some(b'{') {
            return self.skip().map(|_| false);
        }
        self.walk(b'}', "expected ',' or '}' in object", |r| {
            let key = r.parse_string()?;
            r.colon()?;
            entry(r, key)
        })?;
        Ok(true)
    }

    /// Walks the container whose opening byte the reader stands at,
    /// calling `item` at each element until `close`.
    fn walk(
        &mut self,
        close: u8,
        expected: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<(), ReadError>,
    ) -> Result<(), ReadError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b) if b == close => return Ok(()),
                _ => return Err(self.err(expected)),
            }
        }
    }

    /// A literal or a number.
    fn scalar(&mut self) -> Result<Scalar, ReadError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn err(&self, what: &'static str) -> ReadError {
        ReadError {
            offset: self.pos,
            what,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The `:` after an object key, with the whitespace around it.
    #[inline]
    fn colon(&mut self) -> Result<(), ReadError> {
        self.skip_ws();
        if self.bump() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.skip_ws();
        Ok(())
    }

    fn literal(&mut self, lit: &'static str, value: Scalar) -> Result<Scalar, ReadError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Checks a string literal and steps past it; whether it holds an
    /// escape.
    #[inline]
    fn scan_string(&mut self) -> Result<bool, ReadError> {
        if self.bump() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut escaped = false;
        loop {
            self.pos = plain_run(self.text.as_bytes(), self.pos);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(escaped),
                Some(b'\\') => {
                    self.parse_escape()?;
                    escaped = true;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Reads a string literal: borrowed from the text when it holds no
    /// escape (every key and most values), built only past the first one.
    #[inline]
    fn parse_string(&mut self) -> Result<Cow<'a, str>, ReadError> {
        let start = self.pos + 1;
        let escaped = self.scan_string()?;
        let (text, end) = (self.text, self.pos - 1);
        if !escaped {
            return Ok(Cow::Borrowed(&text[start..end]));
        }
        // The literal checked out: unescape it. `\` is ASCII, so each run
        // between escapes ends on a character boundary.
        let mut out = String::with_capacity(end - start);
        let mut inner = Reader { text, pos: start };
        let mut run = start;
        while inner.pos < end {
            if inner.bump() == Some(b'\\') {
                out.push_str(&text[run..inner.pos - 1]);
                out.push(inner.parse_escape()?);
                run = inner.pos;
            }
        }
        out.push_str(&text[run..end]);
        Ok(Cow::Owned(out))
    }

    /// The character a backslash escape stands for (the backslash is
    /// already consumed).
    fn parse_escape(&mut self) -> Result<char, ReadError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                let cp = self.parse_hex4()?;
                let cp = if (0xd800..0xdc00).contains(&cp) {
                    // Surrogate pair: require a low surrogate next.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("expected low surrogate"));
                    }
                    let low = self.parse_hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    cp
                };
                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
            }
            _ => return Err(self.err("invalid escape sequence")),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, ReadError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// An integer that fits `i64` reads as an `Int`, any other number as
    /// a `Float`. An integer's digits are added up as they are passed.
    fn number(&mut self) -> Result<Scalar, ReadError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let first_digit = self.pos;
        // Minus the magnitude: `i64::MIN` has no positive twin.
        let mut sum = Some(0i64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            sum = sum.and_then(|s| s.checked_mul(10)?.checked_sub(i64::from(d - b'0')));
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        if !is_float {
            if self.pos == first_digit {
                return Err(self.err("invalid number"));
            }
            let int = if negative {
                sum
            } else {
                sum.and_then(i64::checked_neg)
            };
            if let Some(i) = int {
                return Ok(Scalar::Int(i));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Scalar::Float)
            .map_err(|_| self.err("invalid number"))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{varray, vmap};

    fn roundtrip(v: &Value) -> Value {
        decode(&encode(v)).expect("roundtrip decode")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Float(-1e-9),
            Value::Str(String::new()),
            Value::from("héllo \"wörld\"\n\t\\"),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn whole_floats_stay_floats() {
        let v = Value::Float(2.0);
        assert_eq!(encode(&v), "2.0");
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn containers_roundtrip() {
        let v = vmap! {
            "app" => "pub3",
            "operations" => varray![vmap! {
                "operation" => "update",
                "type" => varray!["User"],
                "id" => 100,
                "attributes" => vmap! { "interests" => varray!["cats", "dogs"] }
            }],
            "generation" => 1,
        };
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn encoding_is_canonical_and_sorted() {
        let v = vmap! { "b" => 2, "a" => 1 };
        assert_eq!(encode(&v), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn decode_accepts_whitespace() {
        let v = decode(" {\n\t\"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v, vmap! { "a" => varray![1, 2], "b" => Value::Null });
    }

    #[test]
    fn decode_rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "nul",
            "tru",
            "01x",
            "-",
            "\"abc",
            "\"\\q\"",
            "{\"a\":1,}",
            "[1 2]",
            "1 2",
            "\"\\u12\"",
            "{1:2}",
        ] {
            assert!(decode(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn decode_handles_unicode_escapes() {
        assert_eq!(decode(r#""é""#).unwrap(), Value::from("é"));
        // Surrogate pair for U+1F600.
        assert_eq!(decode(r#""😀""#).unwrap(), Value::from("😀"));
        assert!(decode(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn control_characters_escape_and_roundtrip() {
        let v = Value::from("\u{0001}\u{001f}");
        assert_eq!(encode(&v), "\"\\u0001\\u001f\"");
        assert_eq!(roundtrip(&v), v);
    }

    /// Copying the runs that need no escape whole writes what escaping
    /// each character in turn wrote.
    #[test]
    fn run_copying_matches_per_character_escaping() {
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
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
            out
        }
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "é❤😀",
            "\"a\\b\"",
            "x\r\ny\t",
            &controls,
            "ä\u{1}ö\u{1f}",
        ] {
            let mut out = String::new();
            encode_str(s, &mut out);
            assert_eq!(out, reference(s), "{s:?}");
        }
    }

    #[test]
    fn nonfinite_floats_encode_as_null() {
        assert_eq!(encode(&Value::from(f64::NAN)), "null");
        assert_eq!(encode(&Value::from(f64::INFINITY)), "null");
    }

    /// The stack-buffer integer formatter must emit exactly `Display`'s
    /// bytes — the wire format is pinned byte-for-byte.
    #[test]
    fn int_formatting_matches_display() {
        for i in [0i64, 1, -1, 7, -42, 1000, i64::MAX, i64::MIN] {
            let mut out = String::new();
            encode_i64(i, &mut out);
            assert_eq!(out, i.to_string());
        }
        let mut out = String::new();
        encode_u64(u64::MAX, &mut out);
        assert_eq!(out, u64::MAX.to_string());
    }

    /// The stack-buffer float formatter must emit exactly what the old
    /// `format!`-based encoder produced, including the widest finite
    /// values (f64 `Display` never uses scientific notation, so
    /// subnormals print hundreds of digits).
    #[test]
    fn float_formatting_matches_display() {
        for x in [
            0.0f64,
            -0.0,
            2.0,
            3.25,
            -1e-9,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
        ] {
            let mut out = String::new();
            encode_float(x, &mut out);
            let s = format!("{x}");
            let expected = if s.contains(['.', 'e', 'E']) {
                s
            } else {
                format!("{s}.0")
            };
            assert_eq!(out, expected, "float {x:e}");
        }
    }

    #[test]
    fn huge_integers_fall_back_to_float() {
        let v = decode("92233720368547758080").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    /// The word-at-a-time scan stops where a byte-at-a-time one does, for a
    /// stop byte at every place of a word and past its end, among bytes on
    /// either side of each stop value (multi-byte UTF-8 included).
    #[test]
    fn plain_run_stops_where_a_bytewise_scan_does() {
        let bytewise = |bytes: &[u8], at: usize| {
            (at..bytes.len())
                .find(|&i| matches!(bytes[i], b'"' | b'\\' | 0..=0x1f))
                .unwrap_or(bytes.len())
        };
        let fillers = [b'a', b' ', b'!', b'#', b'[', b']', 0x7f, 0x80, 0xc3, 0xff];
        let stops = [b'"', b'\\', 0x00, 0x01, 0x1f];
        for len in 0..20 {
            for &fill in &fillers {
                let plain = vec![fill; len];
                for at in 0..=len {
                    assert_eq!(plain_run(&plain, at), bytewise(&plain, at));
                }
                for place in 0..len {
                    for &stop in &stops {
                        let mut bytes = plain.clone();
                        bytes[place] = stop;
                        for at in 0..=len {
                            assert_eq!(
                                plain_run(&bytes, at),
                                bytewise(&bytes, at),
                                "{bytes:?} from {at}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `skip`, `string` and `int` give `decode`'s verdict on every text,
    /// and the typed reads answer what `as_str`/`as_int` answer on the
    /// parsed value — a string borrowed unless it holds an escape.
    #[test]
    fn typed_reads_and_skip_agree_with_the_tree() {
        let texts = [
            "null",
            "true",
            " false ",
            "0",
            "-7",
            "007",
            "1.5",
            "-2e3",
            "1E+2",
            "1.",
            "-0",
            "-.5",
            "0.0e0",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999999",
            r#""plain""#,
            r#""esc\"aped\u00e9""#,
            r#""😀""#,
            "[]",
            "[1,[2,[3,{}]],\"x\"]",
            r#"{"a":{"b":[null,{"c":"d"}]},"a":1}"#,
            " { \"k\" : [ 1 , 2 ] } ",
            // Malformed, each somewhere else.
            "",
            "nul",
            "-",
            "-.",
            "1e",
            "1e+",
            "--1",
            "-x",
            "[1,",
            "[1 2]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"a\u{1}b\"",
            "[{\"a\":[1,{\"b\":tru}]}]",
            "1 2",
        ];
        for text in texts {
            let tree = decode(text);
            let mut r = Reader::new(text);
            let skipped = r.skip().and_then(|()| r.finish());
            assert_eq!(skipped.is_ok(), tree.is_ok(), "skip of {text:?}");

            let mut r = Reader::new(text);
            let string = r.string();
            let string = string.and_then(|s| r.finish().map(|()| s));
            match (&tree, string) {
                (Ok(v), Ok(s)) => {
                    assert_eq!(s.as_deref(), v.as_str(), "string of {text:?}");
                    let escaped = text.contains('\\');
                    assert_eq!(matches!(s, Some(Cow::Borrowed(_))), !escaped && s.is_some());
                }
                (Err(_), Err(_)) => {}
                (tree, s) => panic!("string of {text:?}: {s:?} against {tree:?}"),
            }

            let mut r = Reader::new(text);
            let int = r.int().and_then(|i| r.finish().map(|()| i));
            match (&tree, int) {
                (Ok(v), Ok(i)) => assert_eq!(i, v.as_int(), "int of {text:?}"),
                (Err(_), Err(_)) => {}
                (tree, i) => panic!("int of {text:?}: {i:?} against {tree:?}"),
            }
        }
        // A read error becomes a parse error where it leaves the reader.
        assert!(matches!(
            decode("[1,"),
            Err(ModelError::Parse { offset: 3, .. })
        ));
    }

    /// The reader's container walks see what `decode` sees: every key in
    /// text order (repeats included), borrowed unless it holds an escape,
    /// and a value of another type is consumed and reported as such.
    #[test]
    fn reader_walks_containers_in_text_order() {
        let text = r#" {"b":1,"a\n":[true,"x\u00e9y"],"b":{"c":null}} "#;
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        let is_object = r
            .object(|r, key| {
                let borrowed = matches!(key, Cow::Borrowed(_));
                let mut items = 0;
                let is_array = r.array(|r| r.value().map(|_| items += 1))?;
                seen.push((key.into_owned(), borrowed, is_array, items));
                Ok(())
            })
            .unwrap();
        r.finish().unwrap();
        assert!(is_object);
        assert_eq!(
            seen,
            vec![
                ("b".to_owned(), true, false, 0),
                ("a\n".to_owned(), false, true, 2),
                ("b".to_owned(), true, false, 0),
            ]
        );

        let mut r = Reader::new("[1,2] x");
        assert!(!r.object(|_, _| unreachable!("not an object")).unwrap());
        assert!(r.finish().is_err(), "trailing characters");
        assert!(Reader::new(r#"{"a":1,}"#)
            .object(|r, _| r.value().map(drop))
            .is_err());
    }

    /// A string is the same whether it is borrowed from the text or built
    /// around its escapes, wherever the first escape falls.
    #[test]
    fn strings_with_and_without_escapes_agree() {
        for s in [
            "",
            "plain",
            "héllo ❤ wörld",
            "\"lead",
            "trail\\",
            "mid\ndle ❤\ttab",
            "\u{1}",
        ] {
            let v = Value::from(s);
            assert_eq!(roundtrip(&v), v);
        }
        assert_eq!(
            decode(r#""a\/b\u0041❤\b\f""#).unwrap(),
            Value::from("a/bA❤\u{8}\u{c}")
        );
        assert!(decode("\"a\u{1}b\"").is_err(), "raw control character");
    }
}
