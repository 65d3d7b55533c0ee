//! A minimal JSON reader/writer for campaign specs and trial records.
//!
//! The workspace has no external dependencies, so the wire format of
//! the campaign service is handled by this ~200-line recursive-descent
//! parser instead of serde. It covers exactly the JSON the lab emits:
//! objects, arrays, strings with the standard escapes, integers and
//! floats, booleans and null. Numbers keep their source text so that
//! 64-bit seeds round-trip without `f64` truncation. Arrays and objects
//! nest at most [`MAX_DEPTH`] deep, so no document — a request body, a
//! record line — can overflow the parsing thread's stack.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// How deep arrays and objects may nest. The lab's own documents nest
/// three levels.
pub const MAX_DEPTH: usize = 64;

/// Why a document did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed text: what is wrong, and where.
    Syntax(String),
    /// An array or object opens at byte `at`, [`MAX_DEPTH`] levels deep.
    TooDeep {
        /// Byte offset of the bracket past the bound.
        at: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

fn syntax(msg: impl Into<String>) -> JsonError {
    JsonError::Syntax(msg.into())
}

/// A parsed JSON value. Object keys keep insertion order irrelevant —
/// lookups go through [`Json::get`]; a `BTreeMap` keeps comparisons and
/// test failure output deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text (integer exactness matters:
    /// seeds are full u64s).
    Num(String),
    /// A string, already unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64` (integer tokens only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(syntax(format!("trailing data at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(syntax(format!("expected `{}` at byte {pos}", c as char)))
    }
}

/// The value at `pos`, inside `depth` open arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(syntax("unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::TooDeep { at: *pos }),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(syntax(format!("bad literal at byte {pos}")))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if matches!(b.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let tok = std::str::from_utf8(&b[start..*pos]).unwrap();
    if tok.is_empty() || tok.parse::<f64>().is_err() {
        return Err(syntax(format!("bad number `{tok}` at byte {start}")));
    }
    Ok(Json::Num(tok.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(syntax("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(syntax)?;
                        let n = u32::from_str_radix(hex, 16)
                            .map_err(|_| syntax(format!("bad \\u escape `{hex}`")))?;
                        out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(syntax(format!("bad escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let s = &b[*pos..];
                let ch_len = match s[0] {
                    c if c < 0x80 => 1,
                    c if c >= 0xF0 => 4,
                    c if c >= 0xE0 => 3,
                    _ => 2,
                };
                out.push_str(
                    std::str::from_utf8(&s[..ch_len.min(s.len())]).map_err(|e| {
                        syntax(format!("invalid UTF-8 in string at byte {pos}: {e}"))
                    })?,
                );
                *pos += ch_len;
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(syntax(format!("expected `,` or `}}` at byte {pos}"))),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(b, pos, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(v));
    }
    loop {
        v.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(v));
            }
            _ => return Err(syntax(format!("expected `,` or `]` at byte {pos}"))),
        }
    }
}

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes). Fault details are plain ASCII today, but the writer must
/// never emit an unparsable line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let big = u64::MAX;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"x"}],"c":{"d":null},"e":true}"#).unwrap();
        assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{8}";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse("\"héllo → 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → 世界"));
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("tru").is_err());
    }

    #[test]
    fn deep_arrays_are_refused_not_recursed_into() {
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let at = MAX_DEPTH;
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { at })
        );
        // Far past what a thread's stack holds in recursion, unclosed.
        assert_eq!(parse(&"[".repeat(200_000)), Err(JsonError::TooDeep { at }));
    }

    #[test]
    fn deep_objects_are_refused_not_recursed_into() {
        let nested = |n| format!("{}0{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).unwrap().get("a").is_some());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, JsonError::TooDeep { at: 5 * MAX_DEPTH });
        assert!(String::from(err).contains("nesting deeper than 64 levels"));
        let err = parse(&"{\"a\":[".repeat(100_000)).unwrap_err();
        assert!(matches!(err, JsonError::TooDeep { .. }), "{err}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(parse("[ ]").unwrap(), Json::Arr(vec![]));
    }
}
