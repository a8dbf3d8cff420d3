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
        Value::Str(s) => encode_string(s, out),
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
                encode_string(k, out);
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
    out.push_str(std::str::from_utf8(&buf[pos..]).expect("ascii digits"));
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
pub fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // c < 0x20, so the escape is always "\u00" + 2 hex digits.
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let b = c as u32;
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn encode_string(s: &str, out: &mut String) {
    encode_str(s, out);
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

/// A pull reader over one JSON text: the parser behind [`decode`], open to
/// a caller that knows its message's shape and wants the fields in its own
/// types instead of a [`Value`] tree (`WriteMessage::decode`, once per
/// delivery). [`Reader::array`] and [`Reader::object`] walk a container
/// and hand each element's position to the caller, who consumes exactly
/// one value there with any of the three reads. A container read that
/// finds some other type parses it as [`Reader::value`] would, drops it
/// and returns `false` — what `Value::as_array`/`as_map` answer on a
/// parsed tree, so the grammar accepted is [`decode`]'s, byte for byte.
///
/// # Examples
///
/// ```
/// use synapse_model::wire::Reader;
///
/// let mut r = Reader::new(r#"{"id":7,"tags":["a","b"]}"#);
/// let (mut id, mut tags) = (None, 0);
/// r.object(|r, key| {
///     match &*key {
///         "id" => id = r.value()?.as_int(),
///         _ => {
///             r.array(|r| r.value().map(|_| tags += 1))?;
///         }
///     }
///     Ok(())
/// })
/// .unwrap();
/// r.finish().unwrap();
/// assert_eq!((id, tags), (Some(7), 2));
/// ```
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens `text`, positioned at its first value.
    pub fn new(text: &'a str) -> Self {
        let mut r = Reader { text, pos: 0 };
        r.skip_ws();
        r
    }

    /// Closes the text: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), ModelError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    /// Reads the next value, whatever it is.
    pub fn value(&mut self) -> Result<Value, ModelError> {
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
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
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads the next value as an array, calling `item` at each element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ModelError>,
    ) -> Result<bool, ModelError> {
        if self.peek() != Some(b'[') {
            return self.value().map(|_| false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(true),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Reads the next value as an object, calling `entry` with each key at
    /// that key's value. Keys come in text order, repeats included — a
    /// tree keeps the last.
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ModelError>,
    ) -> Result<bool, ModelError> {
        if self.peek() != Some(b'{') {
            return self.value().map(|_| false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entry(self, key)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(true),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn err(&self, message: &str) -> ModelError {
        ModelError::Parse {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ModelError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, ModelError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected {lit}")))
        }
    }

    /// Reads a string literal: borrowed from the text when it holds no
    /// escape (every key and most values), built only past the first one.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, ModelError> {
        self.expect(b'"')?;
        let text = self.text;
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            // `"`, `\` and control bytes are ASCII, so a run of anything
            // else always ends on a character boundary.
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = &text[run..self.pos - 1];
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&text[run..self.pos - 1]);
                    s.push(self.parse_escape()?);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {}
            }
        }
    }

    /// The character a backslash escape stands for (the backslash is
    /// already consumed).
    fn parse_escape(&mut self) -> Result<char, ModelError> {
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

    fn parse_hex4(&mut self) -> Result<u32, ModelError> {
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

    fn parse_number(&mut self) -> Result<Value, ModelError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
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
