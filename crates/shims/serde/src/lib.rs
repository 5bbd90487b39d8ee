//! Offline shim for the `serde` crate.
//!
//! The build environment has no network access to a cargo registry, so
//! the workspace patches `serde` with this minimal re-implementation.
//! It keeps serde's split between a type's shape and the format
//! (<https://serde.rs/data-model.html>), with JSON as the one format:
//! [`Serialize`] streams a value into a [`Writer`] and [`Deserialize`]
//! pulls one out of a [`Reader`], so no value passes through an
//! intermediate tree. `#[derive(Serialize, Deserialize)]` with the
//! `skip_serializing_if` and `default` field attributes is
//! source-compatible with the subset of serde this workspace uses.
//! [`Content`] is a parsed JSON document (`serde_json::Value`) for the
//! few callers that want a tree.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A parsed JSON document.
///
/// This doubles as `serde_json::Value` (the `serde_json` shim re-exports
/// it), so it carries the inspection helpers (`as_f64`, indexing, …)
/// that crate's users expect. It is written by the same [`Writer`] as
/// every other value.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed (negative) integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Content>),
    /// An ordered map with string keys.
    Map(Vec<(String, Content)>),
}

impl PartialEq<str> for Content {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Content::Str(s) if s == other)
    }
}

impl PartialEq<&str> for Content {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

impl PartialEq<String> for Content {
    fn eq(&self, other: &String) -> bool {
        self == other.as_str()
    }
}

macro_rules! impl_content_eq_int {
    ($($ty:ty),*) => {$(
        impl PartialEq<$ty> for Content {
            #[allow(clippy::cast_lossless)]
            fn eq(&self, other: &$ty) -> bool {
                self.as_i64() == i64::try_from(*other).ok()
            }
        }
    )*};
}

impl_content_eq_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl PartialEq<f64> for Content {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<bool> for Content {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Content::Bool(b) if b == other)
    }
}

impl Content {
    /// The sequence elements, if this is a sequence.
    pub fn as_array(&self) -> Option<&Vec<Content>> {
        match self {
            Content::Seq(v) => Some(v),
            _ => None,
        }
    }

    /// The map entries, if this is a map.
    pub fn as_object(&self) -> Option<&Vec<(String, Content)>> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Numeric value widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Content::U64(v) => Some(*v as f64),
            Content::I64(v) => Some(*v as f64),
            Content::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned integer value, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Content::U64(v) => Some(*v),
            Content::I64(v) => u64::try_from(*v).ok(),
            Content::F64(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Signed integer value, if losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Content::U64(v) => i64::try_from(*v).ok(),
            Content::I64(v) => Some(*v),
            Content::F64(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Content::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Content::Null)
    }

    /// Map lookup by key (`None` for non-maps or missing keys).
    pub fn get(&self, key: &str) -> Option<&Content> {
        self.as_object()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

impl fmt::Display for Content {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::compact();
        self.write_json(&mut w);
        f.write_str(&w.into_string())
    }
}

static NULL_CONTENT: Content = Content::Null;

impl std::ops::Index<&str> for Content {
    type Output = Content;
    fn index(&self, key: &str) -> &Content {
        self.get(key).unwrap_or(&NULL_CONTENT)
    }
}

impl std::ops::Index<usize> for Content {
    type Output = Content;
    fn index(&self, i: usize) -> &Content {
        self.as_array()
            .and_then(|v| v.get(i))
            .unwrap_or(&NULL_CONTENT)
    }
}

/// A JSON syntax or shape error (re-exported as `serde_json::Error`).
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A value that can be written as JSON.
pub trait Serialize {
    /// Write `self` as one JSON value.
    fn write_json(&self, w: &mut Writer);
}

/// A value that can be read from JSON.
pub trait Deserialize<'de>: Sized {
    /// Read one JSON value.
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streams JSON text into a `String`, compact or pretty (two-space
/// indent).
///
/// An object is `begin_map`, then `key` before each value, then
/// `end_map` (arrays work the same way inside this crate). An object or
/// array with no items is written `{}` or `[]`.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Arrays/objects currently open.
    depth: usize,
    /// Whether the innermost open array/object has no item yet.
    empty: bool,
}

impl Writer {
    /// A writer of compact JSON.
    pub fn compact() -> Self {
        Self {
            out: String::new(),
            pretty: false,
            depth: 0,
            empty: true,
        }
    }

    /// A writer of pretty JSON.
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::compact()
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Write a boolean.
    fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Write an integer.
    fn int(&mut self, v: impl fmt::Display) {
        write!(self.out, "{v}").expect("writing to a String cannot fail");
    }

    /// Write a float: `{:?}` formatting (integral floats keep their
    /// `.0`), and `null` for a non-finite value.
    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            write!(self.out, "{v:?}").expect("writing to a String cannot fail");
        } else {
            self.null();
        }
    }

    /// Write a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        // Every byte that needs an escape is ASCII, so `run..i` always
        // falls on char boundaries.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            if escaped.is_empty() {
                write!(self.out, "\\u{b:04x}").expect("writing to a String cannot fail");
            } else {
                self.out.push_str(escaped);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Open an array.
    fn begin_seq(&mut self) {
        self.open('[');
    }

    /// Start the next array item.
    fn element(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// Close an array.
    fn end_seq(&mut self) {
        self.close(']');
    }

    /// Open an object.
    pub fn begin_map(&mut self) {
        self.open('{');
    }

    /// Start the next object entry: write its key.
    pub fn key(&mut self, key: &str) {
        self.element();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Close an object.
    pub fn end_map(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        // Closing is the end of an item of the enclosing array/object.
        self.empty = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Deepest array/object nesting the reader accepts (upstream
/// serde_json's default recursion limit). Deeper input is an error, not
/// a stack overflow.
const MAX_DEPTH: usize = 128;

/// Pulls JSON values out of a string, one token at a time.
///
/// An object is `begin_map` (the first key, if any), then one value and
/// `next_key` (the next key, if any) per entry; a value nobody wants is
/// `skip_value`. Errors end in `at byte N`, the input offset where they
/// were found.
#[derive(Debug)]
pub struct Reader<'de> {
    src: &'de str,
    bytes: &'de [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'de> Reader<'de> {
    /// A reader at the start of `src`.
    pub fn new(src: &'de str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Check that only whitespace follows the last value read.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    /// An error at the current position.
    pub fn error(&self, msg: impl fmt::Display) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    /// Whether the next value is a string.
    pub fn peek_str(&mut self) -> bool {
        self.skip_ws();
        self.peek() == Some(b'"')
    }

    /// Read a string value (borrowed from the input unless it has
    /// escapes).
    pub fn read_str(&mut self) -> Result<Cow<'de, str>, Error> {
        if self.peek_str() {
            self.string(true)
        } else {
            Err(self.unexpected("string"))
        }
    }

    /// Open an array; whether it has a first item.
    fn begin_seq(&mut self) -> Result<bool, Error> {
        self.open(b'[', "array")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an array item: whether another follows (else the array is
    /// closed).
    fn next_element(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.error("expected `,` or `]`")),
        }
    }

    /// Open an object; its first key, if any.
    pub fn begin_map(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        self.open_map(true)
    }

    /// After an object value: the next key (else the object is closed).
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        self.next_map_key(true)
    }

    /// Before item `index` of a `len`-item array: open the array (item
    /// 0) or pass the `,` (later items); an early `]` is an error.
    fn tuple_element(&mut self, index: usize, len: usize) -> Result<(), Error> {
        let more = if index == 0 {
            self.begin_seq()?
        } else {
            self.next_element()?
        };
        if more {
            Ok(())
        } else {
            Err(self.error(format_args!("expected {len} elements, got {index}")))
        }
    }

    /// Close a `len`-item array after its last item.
    fn tuple_end(&mut self, len: usize) -> Result<(), Error> {
        if self.next_element()? {
            Err(self.error(format_args!("expected {len} elements, got more")))
        } else {
            Ok(())
        }
    }

    /// Skip one value of any shape. Allocates nothing and keeps the
    /// nesting limit.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                let mut more = self.begin_seq()?;
                while more {
                    self.skip_value()?;
                    more = self.next_element()?;
                }
            }
            Some(b'{') => {
                let mut key = self.open_map(false)?;
                while key.is_some() {
                    self.skip_value()?;
                    key = self.next_map_key(false)?;
                }
            }
            Some(b'"') => {
                self.string(false)?;
            }
            Some(b't' | b'f') => {
                self.read_bool()?;
            }
            Some(b'n') => self.keyword("null")?,
            _ => {
                self.number("value")?;
            }
        }
        Ok(())
    }

    /// Consume `null` if it is the next value.
    fn take_null(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if self.peek() == Some(b'n') {
            self.keyword("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    fn read_bool(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.unexpected("bool")),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
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
            Err(self.error(format_args!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{kw}`")))
        }
    }

    /// The error for a value of the wrong shape, naming what was found
    /// instead (or a syntax error when no value starts here).
    fn unexpected(&self, expected: &str) -> Error {
        let found = match self.peek() {
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "number",
            _ => return self.error("unexpected character"),
        };
        self.error(format_args!("expected {expected}, got {found}"))
    }

    /// Enter an array or object at `[`/`{`, one level deeper.
    fn open(&mut self, bracket: u8, expected: &str) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() != Some(bracket) {
            return Err(self.unexpected(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    fn open_map(&mut self, decode: bool) -> Result<Option<Cow<'de, str>>, Error> {
        self.open(b'{', "object")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(None);
        }
        self.key(decode).map(Some)
    }

    fn next_map_key(&mut self, decode: bool) -> Result<Option<Cow<'de, str>>, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.key(decode).map(Some)
            }
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(None)
            }
            _ => Err(self.error("expected `,` or `}`")),
        }
    }

    /// An object key and the `:` after it.
    fn key(&mut self, decode: bool) -> Result<Cow<'de, str>, Error> {
        self.skip_ws();
        let key = self.string(decode)?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(key)
    }

    /// A string token. Without `decode` (skipping), escapes are checked
    /// but not decoded, so nothing is allocated and the text returned
    /// is only the string's last unescaped run.
    fn string(&mut self, decode: bool) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            // `"` and `\` are ASCII, so every slice below falls on char
            // boundaries of the (already valid UTF-8) input.
            match self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            {
                Some(offset) => self.pos += offset,
                None => {
                    self.pos = self.bytes.len();
                    return Err(self.error("unterminated string"));
                }
            }
            let text = &self.src[run..self.pos];
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match owned {
                    Some(mut s) => {
                        s.push_str(text);
                        Cow::Owned(s)
                    }
                    None => Cow::Borrowed(text),
                });
            }
            let c = self.escape()?;
            if decode {
                let s = owned.get_or_insert_with(String::new);
                s.push_str(text);
                s.push(c);
            }
            run = self.pos;
        }
    }

    /// One escape sequence, starting at its `\`.
    fn escape(&mut self) -> Result<char, Error> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pairs.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        let combined =
                            0x10000 + ((cp - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(cp)
                };
                return c.ok_or_else(|| self.error("invalid unicode escape"));
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let v = self
            .src
            .get(self.pos..end)
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    /// A number token: a float if it has `.`, `e`, `E`, `+` or an inner
    /// `-`; otherwise `u64`, then `i64`, then `f64`.
    fn number(&mut self, expected: &str) -> Result<Content, Error> {
        self.skip_ws();
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.unexpected(expected));
        }
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Content::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Content::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| self.error("invalid number"))
    }
}

// ---------------------------------------------------------------------
// Implementations for std types.
// ---------------------------------------------------------------------

macro_rules! impl_serde_int {
    ($($t:ty => $as:ident, $what:literal);* $(;)?) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut Writer) {
                w.int(*self);
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
                let n = r.number($what)?;
                let v = n
                    .$as()
                    .ok_or_else(|| r.error(format_args!("expected {}, got {n}", $what)))?;
                <$t>::try_from(v).map_err(|_| {
                    r.error(format_args!("integer {v} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_int!(
    u8 => as_u64, "unsigned integer";
    u16 => as_u64, "unsigned integer";
    u32 => as_u64, "unsigned integer";
    u64 => as_u64, "unsigned integer";
    usize => as_u64, "unsigned integer";
    i8 => as_i64, "integer";
    i16 => as_i64, "integer";
    i32 => as_i64, "integer";
    i64 => as_i64, "integer";
    isize => as_i64, "integer";
);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut Writer) {
                w.f64(f64::from(*self));
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
                let n = r.number("number")?;
                n.as_f64()
                    .map(|v| v as $t)
                    .ok_or_else(|| r.error(format_args!("expected number, got {n}")))
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl<'de> Deserialize<'de> for bool {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        r.read_bool()
    }
}

impl Serialize for str {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for String {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<'de> Deserialize<'de> for String {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        r.read_str().map(Cow::into_owned)
    }
}

impl<'de> Deserialize<'de> for &'static str {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        // Static string slices (`&'static str` struct fields) cannot
        // borrow from the input; the shim leaks the handful of small
        // strings this workspace ever deserializes this way (SoC spec
        // tables), which is bounded and test-only.
        r.read_str()
            .map(|s| &*Box::leak(s.into_owned().into_boxed_str()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        if r.take_null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

/// Write the items as an array.
fn write_seq<T: Serialize>(w: &mut Writer, items: impl IntoIterator<Item = T>) {
    w.begin_seq();
    for item in items {
        w.element();
        item.write_json(w);
    }
    w.end_seq();
}

/// Read an array into any collection.
fn read_seq<'de, T: Deserialize<'de>, C: Default + Extend<T>>(
    r: &mut Reader<'de>,
) -> Result<C, Error> {
    let mut out = C::default();
    let mut more = r.begin_seq()?;
    while more {
        out.extend(Some(T::read_json(r)?));
        more = r.next_element()?;
    }
    Ok(out)
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        read_seq(r)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        let items: Vec<T> = read_seq(r)?;
        items
            .try_into()
            .map_err(|_| r.error(format_args!("expected array of length {N}")))
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn write_json(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        read_seq(r)
    }
}

// Maps are an array of `[key, value]` pairs: keys in this workspace are
// not always strings, and pair lists round-trip uniformly.
impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        read_seq::<(K, V), _>(r)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident . $idx:tt),+) ; $len:expr),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, w: &mut Writer) {
                w.begin_seq();
                $(
                    w.element();
                    self.$idx.write_json(w);
                )+
                w.end_seq();
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
                let value = ($(
                    {
                        r.tuple_element($idx, $len)?;
                        $name::read_json(r)?
                    },
                )+);
                r.tuple_end($len)?;
                Ok(value)
            }
        }
    )+};
}

impl_serde_tuple!(
    (A.0); 1,
    (A.0, B.1); 2,
    (A.0, B.1, C.2); 3,
);

impl Serialize for Content {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Content::Null => w.null(),
            Content::Bool(b) => w.bool(*b),
            Content::U64(v) => w.int(*v),
            Content::I64(v) => w.int(*v),
            Content::F64(v) => w.f64(*v),
            Content::Str(s) => w.str(s),
            Content::Seq(items) => write_seq(w, items),
            Content::Map(entries) => {
                w.begin_map();
                for (k, v) in entries {
                    w.key(k);
                    v.write_json(w);
                }
                w.end_map();
            }
        }
    }
}

impl<'de> Deserialize<'de> for Content {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, Error> {
        r.skip_ws();
        Ok(match r.peek() {
            Some(b'[') => Content::Seq(read_seq(r)?),
            Some(b'{') => {
                let mut entries = Vec::new();
                let mut key = r.begin_map()?;
                while let Some(k) = key {
                    entries.push((k.into_owned(), Content::read_json(r)?));
                    key = r.next_key()?;
                }
                Content::Map(entries)
            }
            Some(b'"') => Content::Str(r.read_str()?.into_owned()),
            Some(b't' | b'f') => Content::Bool(r.read_bool()?),
            Some(b'n') => {
                r.keyword("null")?;
                Content::Null
            }
            _ => r.number("value")?,
        })
    }
}
