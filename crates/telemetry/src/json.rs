//! The workspace's one JSON module: value and parser, string escaping,
//! an ordered writer, a typed field reader, and the artifact file writer.
//!
//! The offline workspace has no serde, so every `smst-*-v1` artifact is
//! described by **one Rust type living with its producer** that carries
//! its writer and its reader side by side, both built from the pieces
//! here:
//!
//! * writing — [`ToJson`] values composed with [`Obj`] (fields in call
//!   order, compact, `None` and non-finite floats as `null`, [`Fixed`]
//!   for fixed-precision floats) and wrapped by [`document`], which adds
//!   the `schema` tag and the trailing newline;
//! * reading — [`Json::parse`] into a [`Json`] tree (byte offsets in
//!   errors, so a truncated artifact points at its own corruption), then
//!   [`Json::field`] + [`FromJson`], whose [`ShapeError`] names the dotted
//!   path of the offending field (`runs[0].steps_run`);
//! * both at once — [`json_record!`](crate::json_record) for a struct
//!   whose object has one key per field: the field list is stated once
//!   and generates writer and reader, so the two cannot drift;
//! * files — [`write_artifact`] into [`artifact_dir`].
//!
//! Integer lexemes are kept exact ([`Json::Int`]) up to `u64::MAX`;
//! everything else numeric is an `f64`. A reader gets the integer the
//! document spells or nothing.

use smst_sim::RoundStats;
use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer lexeme that fits a `u64`, exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (the writers emit deterministic field
    /// orders, and the golden tests pin them).
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing garbage after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The typed value of object field `key`; the error carries the
    /// field's dotted path.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, ShapeError> {
        self.get(key)
            .ok_or_else(ShapeError::here)
            .and_then(T::from_json)
            .map_err(|e| e.under(key))
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(x) => Some(*x as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer lexeme that fits one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(x) => Some(*x),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's keys in source order (empty for non-objects) — what
    /// the golden schema tests compare against the pinned field sets.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Deepest array / object nesting [`Json::parse`] follows. The parser
/// recurses per level, so without a cap a hostile `[[[[…` overflows the
/// stack instead of returning an error; the deepest document the
/// workspace writes has 5 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.sequence(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected byte `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// `open item (, item)* close` — the skeleton arrays and objects
    /// share, one nesting level deeper (the opening byte is the caller's
    /// `peek`).
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.error(format!("expected `,` or `{}`", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            // exactly four hex digits: `from_str_radix`
                            // alone would also take a sign
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("\\u needs four hex digits"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // the writers only emit \u for control bytes,
                            // so surrogate pairs never occur; reject them
                            // rather than silently mangling
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // consume one UTF-8 scalar (the input is &str, so
                    // byte-level continuation handling is safe)
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // a lexeme of digits only that fits a u64 stays exact; anything
        // else (sign, fraction, exponent, overflow) is a float
        if let Ok(exact) = text.parse::<u64>() {
            return Ok(Json::Int(exact));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

/// `s` as a JSON string literal — see [`ToJson for str`](ToJson), the
/// workspace's one escaping rule.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    s.write_json(&mut out);
    out
}

/// A value that appends itself to a compact JSON document.
pub trait ToJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// A value that lifts itself out of a parsed [`Json`] tree.
pub trait FromJson: Sized {
    /// The typed value, or the path of the first field that is missing,
    /// mistyped or inconsistent.
    fn from_json(value: &Json) -> Result<Self, ShapeError>;
}

/// An object-valued type: it can append its fields to an object someone
/// else opened — [`document`] puts them after the `schema` tag, a
/// `TRACE_*.jsonl` line puts a round record's next to `run`.
pub trait Fields {
    /// Appends the value's fields to `obj`.
    fn write_fields<'a>(&self, obj: Obj<'a>) -> Obj<'a>;
}

/// Implements [`Fields`], [`ToJson`] and [`FromJson`] for a struct whose
/// JSON object has exactly one key per field, under the field's name and
/// in the listed order — writer and reader from one field list. A field
/// listed as `name: Wrapper(args)` is written as `Wrapper(self.name,
/// args)` (`mean_ns: Fixed(1)`) and read as itself.
#[macro_export]
macro_rules! json_record {
    ($ty:ty { $($field:ident $(: $wrap:ident($($arg:expr),*))?),+ $(,)? }) => {
        impl $crate::json::Fields for $ty {
            fn write_fields<'a>(&self, obj: $crate::json::Obj<'a>) -> $crate::json::Obj<'a> {
                obj$(.field(
                    stringify!($field),
                    &$crate::json_record!(@value self.$field $(, $wrap($($arg),*))?),
                ))+
            }
        }

        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                $crate::json::Fields::write_fields(self, $crate::json::Obj::new(out)).end();
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Json) -> Result<Self, $crate::json::ShapeError> {
                Ok(Self {
                    $($field: value.field(stringify!($field))?),+
                })
            }
        }
    };
    (@value $value:expr) => { $value };
    (@value $value:expr, $wrap:ident($($arg:expr),*)) => { $wrap($value $(, $arg)*) };
}

/// A document carries the right tag but a field the schema requires is
/// missing, mistyped, or disagrees with the data it summarizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Dotted path of the bad field (e.g. `runs[0].steps_run`).
    pub field: String,
}

impl ShapeError {
    /// The value at hand is the offender; every enclosing reader prepends
    /// its own segment with [`under`](Self::under) on the way out, so the
    /// path costs nothing while a document is well-formed.
    pub fn here() -> Self {
        ShapeError {
            field: String::new(),
        }
    }

    /// Prepends one path segment: an object key, or `[i]` for an array
    /// element.
    pub fn under(mut self, segment: &str) -> Self {
        if !(self.field.is_empty() || self.field.starts_with('[')) {
            self.field.insert(0, '.');
        }
        self.field.insert_str(0, segment);
        self
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "missing or mistyped field `{}`", self.field)
    }
}

impl std::error::Error for ShapeError {}

macro_rules! scalar_json {
    ($($t:ty: $read:expr),* $(,)?) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, ShapeError> {
                let read: fn(&Json) -> Option<$t> = $read;
                read(value).ok_or_else(ShapeError::here)
            }
        }
    )*};
}
scalar_json! {
    u32: |v| v.as_u64().and_then(|x| x.try_into().ok()),
    u64: Json::as_u64,
    usize: |v| v.as_u64().and_then(|x| x.try_into().ok()),
    bool: Json::as_bool,
}

impl ToJson for i64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

/// Shortest round-trip decimal (`Display`); non-finite values have no
/// JSON spelling and are written as `null`, so the writer never emits
/// what [`Json::parse`] rejects.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

/// A number, or NaN for the `null` a non-finite value was written as.
impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, ShapeError> {
        match value {
            Json::Null => Ok(f64::NAN),
            other => other.as_f64().ok_or_else(ShapeError::here),
        }
    }
}

/// An `f64` written with a fixed number of decimals (`Fixed(x, 3)` is
/// `{x:.3}`); non-finite values are `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// The one escaping rule: quote, backslash, `\n` `\r` `\t`, `\u00XX` for
/// the other control bytes; everything else, non-BMP included, verbatim.
impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, ShapeError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(ShapeError::here)
    }
}

/// `None` is an explicit `null` (censored values are never omitted).
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// `null` → `None`; a missing key is still an error (see
/// [`Json::field`]).
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, ShapeError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, ShapeError> {
        value
            .as_array()
            .ok_or_else(ShapeError::here)?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.under(&format!("[{i}]"))))
            .collect()
    }
}

/// Writes one compact JSON object, fields in call order.
#[derive(Debug)]
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Appends `"key":value`.
    pub fn field(mut self, key: &str, value: &(impl ToJson + ?Sized)) -> Self {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        key.write_json(self.out);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// One schema-tagged artifact document: `{"schema":<tag>,<fields>}` plus
/// the trailing newline every artifact file ends with.
pub fn document(schema: &str, fields: impl FnOnce(Obj<'_>) -> Obj<'_>) -> String {
    let mut out = String::new();
    fields(Obj::new(&mut out).field("schema", schema)).end();
    out.push('\n');
    out
}

// The per-round record shared by `FLIGHT_*.json` entries and (flattened
// next to `run`) `TRACE_*.jsonl` lines: `round`,
// `alarms`, `activations`, `halo_bytes` are the deterministic projection,
// the four `*_ns` fields the wall-clock phase split.
json_record!(RoundStats {
    round,
    alarms,
    activations,
    halo_bytes,
    dispatch_ns,
    compute_ns,
    barrier_ns,
    exchange_ns,
});

/// Where artifacts are written and looked for by default:
/// `$SMST_BENCH_DIR` when set, otherwise the current directory — one
/// rule for every producer and for `smst-analyze`.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("SMST_BENCH_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// Writes `body` as `dir/file_name` (created or truncated) and returns
/// the path. Tests pass a directory of their own instead of mutating the
/// process-global `SMST_BENCH_DIR`.
pub fn write_artifact(dir: &Path, file_name: &str, body: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(file_name);
    std::fs::File::create(&path)?.write_all(body.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_writers_grammar() {
        let doc = Json::parse(
            "{\"schema\":\"smst-flight-v1\",\"group\":\"g\",\
             \"runs\":[{\"label\":\"a\",\"x\":null,\"ok\":true,\
             \"mean\":1.5,\"rounds\":[{\"round\":0}]}]}",
        )
        .unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("smst-flight-v1"));
        let run = &doc.get("runs").unwrap().as_array().unwrap()[0];
        assert_eq!(run.get("x"), Some(&Json::Null));
        assert_eq!(run.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(run.get("mean").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            run.get("rounds").unwrap().as_array().unwrap()[0]
                .get("round")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert_eq!(doc.keys(), vec!["schema", "group", "runs"]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let doc = Json::parse("\"a\\\"b\\\\c\\n\\t\\u0007é\"").unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\n\t\u{7}é"));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        // `u32::from_str_radix` alone reads "+041" as 0x41
        assert!(Json::parse("\"\\u+041\"").is_err());
        assert!(Json::parse("\"\\u-041\"").is_err());
        assert!(Json::parse("\"\\u04\"").is_err());
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone surrogate");
    }

    #[test]
    fn large_integers_stay_exact() {
        // nanosecond sums: 2^53 - 1 is the largest value an f64 holds
        // exactly, and integer lexemes do not go through one at all
        let doc = Json::parse("9007199254740991").unwrap();
        assert_eq!(doc.as_u64(), Some(9007199254740991));
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_u64(),
            Some(9007199254740993),
            "2^53 + 1 is not rounded to 2^53"
        );
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        let over = Json::parse("18446744073709551616").unwrap();
        assert_eq!(over.as_u64(), None, "2^64 does not saturate to u64::MAX");
        assert_eq!(over.as_f64(), Some(18446744073709551616.0));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("{\"a\":1,}").unwrap_err();
        assert_eq!(err.offset, 7, "the offending `}}`: {err}");
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "the first `[` past the cap: {err}");
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    #[test]
    fn negative_and_float_numbers_parse() {
        assert_eq!(Json::parse("-3.25e2").unwrap().as_f64(), Some(-325.0));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("42").unwrap().as_f64(), Some(42.0));
    }

    #[test]
    fn escaping_matches_the_harness_rule() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}\u{1f}😀"), "\"\\u0001\\u001f😀\"");
    }

    #[test]
    fn every_control_byte_and_plane_round_trips() {
        let nasty: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/\u{7f}é\u{2028}😀".chars())
            .collect();
        let literal = json_string(&nasty);
        assert!(literal.bytes().all(|b| b >= 0x20), "no raw control byte");
        assert_eq!(Json::parse(&literal).unwrap().as_str(), Some(&*nasty));
    }

    #[test]
    fn round_fields_carry_all_eight_columns() {
        let stats = RoundStats {
            round: 3,
            alarms: 1,
            activations: 10,
            halo_bytes: 64,
            dispatch_ns: 5,
            compute_ns: 6,
            barrier_ns: 7,
            exchange_ns: 8,
        };
        let mut body = String::new();
        stats.write_json(&mut body);
        assert_eq!(
            body,
            "{\"round\":3,\"alarms\":1,\"activations\":10,\"halo_bytes\":64,\
             \"dispatch_ns\":5,\"compute_ns\":6,\"barrier_ns\":7,\"exchange_ns\":8}"
        );
        assert_eq!(
            RoundStats::from_json(&Json::parse(&body).unwrap()).unwrap(),
            stats
        );
    }

    #[test]
    fn the_writer_spells_none_and_non_finite_floats_as_null() {
        let mut out = String::new();
        Obj::new(&mut out)
            .field("some", &Some(3usize))
            .field("none", &None::<usize>)
            .field("nan", &f64::NAN)
            .field("inf", &Fixed(f64::INFINITY, 3))
            .field("fixed", &Fixed(16.70651, 3))
            .field("float", &1e-7)
            .field("list", &vec![true, false])
            .end();
        assert_eq!(
            out,
            "{\"some\":3,\"none\":null,\"nan\":null,\"inf\":null,\
             \"fixed\":16.707,\"float\":0.0000001,\"list\":[true,false]}"
        );
        Json::parse(&out).expect("whatever the writer emits, the parser reads");
    }

    #[test]
    fn shape_errors_accumulate_the_path_on_the_way_out() {
        let doc = Json::parse(
            "{\"runs\":[{\"rounds\":[{\"round\":0,\"alarms\":0,\"activations\":1,\
             \"halo_bytes\":0,\"dispatch_ns\":0,\"compute_ns\":0,\"barrier_ns\":0,\
             \"exchange_ns\":\"x\"}]}]}",
        )
        .unwrap();
        struct Run;
        impl FromJson for Run {
            fn from_json(value: &Json) -> Result<Self, ShapeError> {
                value.field::<Vec<RoundStats>>("rounds").map(|_| Run)
            }
        }
        let err = doc.field::<Vec<Run>>("runs").err().unwrap();
        assert_eq!(err.field, "runs[0].rounds[0].exchange_ns");
        assert_eq!(doc.field::<usize>("gone").unwrap_err().field, "gone");
        assert_eq!(
            doc.field::<Option<usize>>("gone").unwrap_err().field,
            "gone",
            "a missing key is not a null"
        );
    }
}
