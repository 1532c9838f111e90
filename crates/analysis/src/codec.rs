//! The one record codec: the line-delimited format that snapshots, traces
//! and wire records share.
//!
//! A record is one JSON object on one line, and it leads with its `"kind"`
//! field. One exactness contract holds for every record: integers are exact
//! (a fraction or exponent form, a sign where none is allowed, or a value
//! out of range is an error, never a rounding), `f64` state travels as its
//! IEEE-754 bit pattern (the `f64` [`Encode`] and [`Decode`] do exactly
//! that), an array entry has exactly its arity, and a field the record does
//! not define, or a repeated one, is an error.
//!
//! * [`Scan`] reads a record in a single pass, straight into typed values
//!   ([`read_fields!`](crate::read_fields)) or a caller's buffers. Opaque
//!   payloads (a scenario, a driver document) go through the [`Json`]
//!   grammar from the same cursor ([`Scan::value`]), so one string routine
//!   and one exact-integer routine serve every reader. Errors are messages
//!   located by byte.
//! * [`RecordWriter`] streams records into any [`Write`], emitting exactly
//!   the bytes [`Json::render`] emits for the same object; its methods
//!   return the underlying I/O error.

use crate::artifact::{u64_exact, usize_exact};
use crate::json::Json;
use std::borrow::Cow;
use std::io::{self, Write};

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A byte cursor over one record line (or any JSON text).
pub struct Scan<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Scan<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Scan {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Opens a record line, `{"kind":"…"`: the cursor after the kind, and
    /// the kind.
    pub fn record(line: &'a str) -> Result<(Self, Cow<'a, str>), String> {
        let mut scan = Scan::new(line);
        scan.require(b'{')?;
        if scan.key()? != "kind" {
            return Err("record must lead with its \"kind\" field".into());
        }
        let kind = scan.string()?;
        Ok((scan, kind))
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The byte under the cursor, whitespace included.
    pub(crate) fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    pub(crate) fn require(&mut self, token: u8) -> Result<(), String> {
        if self.consume_if(token) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", token as char, self.pos))
        }
    }

    pub(crate) fn consume_if(&mut self, token: u8) -> bool {
        self.skip_ws();
        let found = self.byte() == Some(token);
        if found {
            self.pos += 1;
        }
        found
    }

    /// Consumes `text` if it comes next, after whitespace.
    pub(crate) fn consume_literal(&mut self, text: &str) -> bool {
        self.skip_ws();
        let found = self.bytes[self.pos..].starts_with(text.as_bytes());
        if found {
            self.pos += text.len();
        }
        found
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.byte() {
            None => Ok(()),
            Some(_) => Err(format!("unexpected trailing content at byte {}", self.pos)),
        }
    }

    /// A string with its escapes decoded; it borrows the input unless it
    /// holds an escape.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.require(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // Take the whole run up to the next quote or backslash in one
            // step, so a string parses in linear time. Both delimiters are
            // ASCII, so the run ends on a character boundary.
            let rest = &self.bytes[self.pos..];
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let run = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
            self.pos += len + 1;
            if rest[len] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(text) => Cow::Owned(text + run),
                });
            }
            let text = owned.get_or_insert_with(String::new);
            text.push_str(run);
            text.push(self.escape()?);
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let code = self.byte().ok_or("unterminated string")?;
        self.pos += 1;
        Ok(match code {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let mut code = self.hex4()?;
                // Combine UTF-16 surrogate pairs (how external writers
                // escape non-BMP characters).
                if (0xD800..0xDC00).contains(&code) {
                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return Err("high surrogate without \\u low surrogate".to_string());
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(format!("expected low surrogate, got \\u{low:04x}"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or("invalid \\u escape code point")?
            }
            other => return Err(format!("invalid escape {:?}", other as char)),
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(code)
    }

    /// A `"key":` member opener.
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let name = self.string()?;
        self.require(b':')?;
        Ok(name)
    }

    /// The digits of an exact integer's magnitude.
    fn digits(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(digit) = self.byte().filter(u8::is_ascii_digit) {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit - b'0')))
                .ok_or("integer out of range")?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected an integer at byte {}", self.pos));
        }
        if matches!(self.byte(), Some(b'.' | b'e' | b'E')) {
            return Err("non-exact integer (fraction/exponent forms are rejected)".into());
        }
        Ok(value)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        if self.byte() == Some(b'-') {
            return Err(format!(
                "expected a non-negative exact integer at byte {}",
                self.pos
            ));
        }
        self.digits()
    }

    fn i64(&mut self) -> Result<i64, String> {
        let value = if self.consume_if(b'-') {
            0i64.checked_sub_unsigned(self.digits()?)
        } else {
            i64::try_from(self.digits()?).ok()
        };
        value.ok_or_else(|| "integer out of range".into())
    }

    fn bool(&mut self) -> Result<bool, String> {
        for (text, value) in [("true", true), ("false", false)] {
            if self.consume_literal(text) {
                return Ok(value);
            }
        }
        Err(format!("expected a boolean at byte {}", self.pos))
    }

    /// Reads one value of type `T`.
    pub fn read<T: Decode>(&mut self) -> Result<T, String> {
        T::decode(self)
    }

    /// Reads a field's value into `slot` (a second occurrence is an error)
    /// and answers `Ok(true)`, as a [`fields`](Scan::fields) callback does
    /// for a known key.
    pub fn set<T: Decode>(&mut self, slot: &mut Option<T>, key: &str) -> Result<bool, String> {
        if slot.is_some() {
            return Err(format!("duplicate field {key:?}"));
        }
        *slot = Some(self.read()?);
        Ok(true)
    }

    /// Calls `item` once per element of an array, so a reader can fill its
    /// own buffers without collecting.
    pub fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.require(b'[')?;
        if self.consume_if(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.consume_if(b',') {
                return self.require(b']');
            }
        }
    }

    /// Reads the rest of a record after [`record`](Scan::record): each
    /// `,"key":value` member through `field`, which consumes the value of a
    /// key it knows and answers `Ok(false)` for any other (an error naming
    /// `what`), then the closing brace and the end of the line.
    pub fn fields(
        &mut self,
        what: &str,
        mut field: impl FnMut(&mut Self, &str) -> Result<bool, String>,
    ) -> Result<(), String> {
        self.members(what, &mut field, true)?;
        self.end()
    }

    /// Reads a whole nested object `{…}` through `field`, as
    /// [`fields`](Scan::fields) reads a record.
    pub fn object(
        &mut self,
        what: &str,
        mut field: impl FnMut(&mut Self, &str) -> Result<bool, String>,
    ) -> Result<(), String> {
        self.require(b'{')?;
        if self.consume_if(b'}') {
            return Ok(());
        }
        self.members(what, &mut field, false)
    }

    fn members(
        &mut self,
        what: &str,
        field: &mut impl FnMut(&mut Self, &str) -> Result<bool, String>,
        mut comma: bool,
    ) -> Result<(), String> {
        while !comma || self.consume_if(b',') {
            comma = true;
            let key = self.key()?;
            if !field(self, &key)? {
                return Err(format!("unknown {what} field {key:?}"));
            }
        }
        self.require(b'}')
    }

    /// The opaque-field hook: any JSON value, parsed from the cursor by the
    /// [`Json`] grammar.
    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        self.json_value()
    }
}

/// The value of a required field.
pub fn need<T>(slot: Option<T>, key: &str) -> Result<T, String> {
    slot.ok_or_else(|| format!("missing field {key:?}"))
}

/// Reads a record's (or a nested object's) fields and binds each to a
/// variable of its name and type, or, after `=>`, builds the named struct
/// from them. Every field is required and appears once; any other field is
/// an error named after the object. Errors (`String`s) return early
/// through `?`.
///
/// ```
/// use lb_analysis::codec::Scan;
/// use lb_analysis::read_fields;
///
/// fn end(line: &str) -> Result<(u64, u64), String> {
///     let (mut scan, _kind) = Scan::record(line)?;
///     read_fields!(scan.fields("end") { rounds: u64, events: u64 });
///     Ok((rounds, events))
/// }
/// assert_eq!(end(r#"{"kind":"end","rounds":2,"events":17}"#), Ok((2, 17)));
/// ```
#[macro_export]
macro_rules! read_fields {
    ($scan:ident . $method:ident ($what:expr) { $($name:ident : $ty:ty),+ $(,)? }) => {
        $(let mut $name: ::std::option::Option<$ty> = None;)+
        $scan.$method($what, |scan, key| match key {
            $(stringify!($name) => scan.set(&mut $name, key),)+
            _ => Ok(false),
        })?;
        $(let $name = $crate::codec::need($name, stringify!($name))?;)+
    };
    ($scan:ident . $method:ident ($what:expr) => $($path:ident)::+ {
        $($name:ident : $ty:ty),+ $(,)?
    }) => {{
        $crate::read_fields!($scan.$method($what) { $($name: $ty),+ });
        $($path)::+ { $($name),+ }
    }};
}

/// Writes each named variable (or, after `source =>`, each named field of
/// `source`) as the member of its name: `"name":value`.
#[macro_export]
macro_rules! write_fields {
    ($out:ident : $source:ident => $($name:ident),+ $(,)?) => {{
        $($out.field(stringify!($name), &$source.$name)?;)+
    }};
    ($out:ident : $($name:ident),+ $(,)?) => {{
        $($out.field(stringify!($name), &$name)?;)+
    }};
}

/// A value the codec reads.
pub trait Decode: Sized {
    /// Reads one value from the cursor.
    fn decode(scan: &mut Scan<'_>) -> Result<Self, String>;
}

/// A value the codec writes.
pub trait Encode {
    /// Writes `self` as the next value.
    fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()>;
}

/// [`Decode`] and [`Encode`] for a type read by `$read` and written by
/// `$write`.
macro_rules! scalar_codec {
    ($ty:ty: |$scan:ident| $read:expr; |$value:ident, $out:ident| $write:expr) => {
        impl Decode for $ty {
            fn decode($scan: &mut Scan<'_>) -> Result<Self, String> {
                $read
            }
        }

        impl Encode for $ty {
            fn encode<W: Write>(&self, $out: &mut RecordWriter<W>) -> io::Result<()> {
                let $value = self;
                $write
            }
        }
    };
}

scalar_codec!(u64: |scan| scan.u64(); |v, out| out.integer(false, *v));
scalar_codec!(i64: |scan| scan.i64(); |v, out| out.integer(*v < 0, v.unsigned_abs()));
scalar_codec!(bool: |scan| scan.bool(); |v, out| out.raw(if *v { b"true" } else { b"false" }));
scalar_codec!(String: |scan| Ok(scan.string()?.into_owned()); |v, out| v.as_str().encode(out));
scalar_codec!(Json: |scan| scan.value(); |v, out| out.raw(v.render().as_bytes()));
scalar_codec!(usize: |scan| usize_exact(scan.u64()?).ok_or_else(|| "integer out of range".into());
    |v, out| out.integer(false, u64_exact(*v)));
// An `f64` travels as its IEEE-754 bit pattern.
scalar_codec!(f64: |scan| Ok(f64::from_bits(scan.u64()?));
    |v, out| out.integer(false, v.to_bits()));

/// `null` is `None`.
impl<T: Decode> Decode for Option<T> {
    fn decode(scan: &mut Scan<'_>) -> Result<Self, String> {
        if scan.consume_literal("null") {
            return Ok(None);
        }
        T::decode(scan).map(Some)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()> {
        match self {
            Some(value) => value.encode(out),
            None => out.raw(b"null"),
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(scan: &mut Scan<'_>) -> Result<Self, String> {
        let mut items = Vec::new();
        scan.items(|scan| {
            items.push(scan.read()?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()> {
        out.array(self)
    }
}

/// Tuples are arrays of exactly their arity.
macro_rules! tuple_codec {
    ($name:literal; $first:ident: $first_ty:ident $(, $rest:ident: $rest_ty:ident)*) => {
        impl<$first_ty: Decode $(, $rest_ty: Decode)*> Decode for ($first_ty, $($rest_ty,)*) {
            fn decode(scan: &mut Scan<'_>) -> Result<Self, String> {
                let shape = |e: String| format!("{e} (each entry must be a {})", $name);
                scan.require(b'[').map_err(shape)?;
                let $first = scan.read()?;
                $(
                    scan.require(b',').map_err(shape)?;
                    let $rest = scan.read()?;
                )*
                scan.require(b']').map_err(shape)?;
                Ok(($first, $($rest,)*))
            }
        }

        impl<$first_ty: Encode $(, $rest_ty: Encode)*> Encode for ($first_ty, $($rest_ty,)*) {
            fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()> {
                let ($first, $($rest,)*) = self;
                out.begin(b'[')?;
                $first.encode(out)?;
                $($rest.encode(out)?;)*
                out.end(b']')
            }
        }
    };
}

tuple_codec!("pair"; a: A, b: B);
tuple_codec!("triple"; a: A, b: B, c: C);
tuple_codec!("quadruple"; a: A, b: B, c: C, d: D);
tuple_codec!("quintuple"; a: A, b: B, c: C, d: D, e: E);

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Streams records into a [`Write`], in the compact form [`Json::render`]
/// gives the same object: no whitespace, keys in the order written.
pub struct RecordWriter<W> {
    out: W,
    /// Whether the next member or element needs a separating comma.
    comma: bool,
}

impl<W: Write> RecordWriter<W> {
    /// A writer over `out`.
    pub fn new(out: W) -> Self {
        RecordWriter { out, comma: false }
    }

    /// The underlying writer, to flush it.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    /// Opens a record: `{"kind":"<kind>"`.
    pub fn open(&mut self, kind: &str) -> io::Result<()> {
        self.begin(b'{')?;
        self.field("kind", kind)
    }

    /// Writes one `"key":value` member.
    pub fn field<T: Encode + ?Sized>(&mut self, key: &str, value: &T) -> io::Result<()> {
        self.key(key)?;
        value.encode(self)
    }

    /// Writes one `"key":[…]` member from the values `items` yields.
    pub fn list<T: Encode>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> io::Result<()> {
        self.key(key)?;
        self.array(items)
    }

    /// Closes a record and its line: `}` and a newline.
    pub fn close_line(&mut self) -> io::Result<()> {
        self.end(b'}')?;
        self.comma = false;
        self.out.write_all(b"\n")
    }

    /// Writes a member's `"key":`.
    pub fn key(&mut self, key: &str) -> io::Result<()> {
        key.encode(self)?;
        self.comma = false;
        self.out.write_all(b":")
    }

    /// Opens an object (`b'{'`) or an array (`b'['`) as the next value.
    pub fn begin(&mut self, open: u8) -> io::Result<()> {
        self.raw(&[open])?;
        self.comma = false;
        Ok(())
    }

    /// Closes the innermost object (`b'}'`) or array (`b']'`).
    pub fn end(&mut self, close: u8) -> io::Result<()> {
        self.comma = true;
        self.out.write_all(&[close])
    }

    fn array<T: Encode>(&mut self, items: impl IntoIterator<Item = T>) -> io::Result<()> {
        self.begin(b'[')?;
        for item in items {
            item.encode(self)?;
        }
        self.end(b']')
    }

    /// Writes `bytes` as the next value, verbatim.
    fn raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.comma {
            self.out.write_all(b",")?;
        }
        self.comma = true;
        self.out.write_all(bytes)
    }

    /// Writes an integer without the formatting machinery.
    fn integer(&mut self, negative: bool, mut magnitude: u64) -> io::Result<()> {
        let mut buf = [b'-'; 21];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (magnitude % 10) as u8; // lint: allow(R02, a digit is below 10)
            magnitude /= 10;
            if magnitude == 0 {
                break;
            }
        }
        self.raw(&buf[at - usize::from(negative)..])
    }
}

/// Renders records into a `String`, for callers that need one in memory.
pub fn render_with(write: impl FnOnce(&mut RecordWriter<Vec<u8>>) -> io::Result<()>) -> String {
    let mut out = RecordWriter::new(Vec::new());
    // lint: allow(R03, writing into a Vec cannot fail)
    write(&mut out).expect("writing into memory");
    // lint: allow(R03, the writer emits only escaped &str contents and ASCII)
    String::from_utf8(out.out).expect("records are UTF-8")
}

/// Emits `text` as a JSON string literal, in runs: quoted, with `"`, `\`
/// and control characters escaped. The one escaping routine ([`Json`]'s
/// renderer uses it too).
pub(crate) fn escape(text: &str, mut emit: impl FnMut(&str)) {
    emit("\"");
    let mut start = 0;
    for (at, byte) in text.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        emit(&text[start..at]);
        start = at + 1;
        match escaped {
            "" => emit(&format!("\\u{byte:04x}")),
            escaped => emit(escaped),
        }
    }
    emit(&text[start..]);
    emit("\"");
}

impl Encode for str {
    fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()> {
        out.raw(b"")?; // the separator, if one is due
        let mut result = Ok(());
        escape(self, |run| {
            if result.is_ok() {
                result = out.out.write_all(run.as_bytes());
            }
        });
        result
    }
}

impl<T: Encode> Encode for [T] {
    fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()> {
        out.array(self)
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()> {
        (**self).encode(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_what_json_renders() {
        let text = render_with(|out| {
            out.open("probe")?;
            out.field("n", &u64::MAX)?;
            out.field("neg", &[i64::MIN, -1, 0, 7][..])?;
            out.field("flag", &true)?;
            out.field("none", &None::<u64>)?;
            out.field("text", "q\"\\\n\t\u{1}é")?;
            out.list("pairs", [(1u64, false), (2, true)])?;
            out.field("doc", &Json::obj([("a", Json::from(1u64))]))?;
            out.field("empty", &Vec::<u64>::new())?;
            out.close_line()
        });
        let tree = Json::obj([
            ("kind", Json::from("probe")),
            ("n", Json::from(u64::MAX)),
            ("neg", Json::from(vec![i64::MIN, -1, 0, 7])),
            ("flag", Json::from(true)),
            ("none", Json::Null),
            ("text", Json::from("q\"\\\n\t\u{1}é")),
            (
                "pairs",
                Json::Arr(vec![
                    Json::Arr(vec![Json::from(1u64), Json::from(false)]),
                    Json::Arr(vec![Json::from(2u64), Json::from(true)]),
                ]),
            ),
            ("doc", Json::obj([("a", Json::from(1u64))])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(text, format!("{}\n", tree.render()));
    }

    struct Probe {
        bits: Vec<f64>,
        signed: (i64, i64),
        text: String,
        maybe: Option<u64>,
        doc: Json,
    }

    fn probe(line: &str) -> Result<Probe, String> {
        let (mut scan, _) = Scan::record(line)?;
        Ok(read_fields!(scan.fields("probe") => Probe {
            bits: Vec<f64>, signed: (i64, i64), text: String, maybe: Option<u64>, doc: Json
        }))
    }

    #[test]
    fn reads_what_it_writes() {
        let line = render_with(|out| {
            out.open("probe")?;
            out.field("bits", &[-0.0f64, 0.1 + 0.2][..])?;
            out.field("signed", &(i64::MIN, i64::MAX))?;
            out.field("text", "a\"b\\c\nd\u{1F600}")?;
            out.field("maybe", &Some(3u64))?;
            out.field("doc", &Json::obj([("x", Json::from("y"))]))?;
            out.close_line()
        });
        let Probe {
            bits,
            signed,
            text,
            maybe,
            doc,
        } = probe(&line).unwrap();
        assert_eq!(bits[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(bits[1].to_bits(), (0.1 + 0.2f64).to_bits());
        assert_eq!(signed, (i64::MIN, i64::MAX));
        assert_eq!(text, "a\"b\\c\nd\u{1F600}");
        assert_eq!(maybe, Some(3));
        assert_eq!(doc, Json::obj([("x", Json::from("y"))]));
    }

    #[test]
    fn the_exactness_contract_is_strict() {
        let read = |line: &str| -> Result<u64, String> {
            let (mut scan, _) = Scan::record(line)?;
            read_fields!(scan.fields("probe") { n: u64 });
            Ok(n)
        };
        assert_eq!(read(r#"{"kind":"p","n":5}"#), Ok(5));
        for (line, fragment) in [
            (r#"{"kind":"p","n":5.0}"#, "non-exact integer"),
            (r#"{"kind":"p","n":5e0}"#, "non-exact integer"),
            (r#"{"kind":"p","n":-5}"#, "non-negative exact integer"),
            (r#"{"kind":"p","n":18446744073709551616}"#, "out of range"),
            (
                r#"{"kind":"p","n":5,"bogus":7}"#,
                "unknown probe field \"bogus\"",
            ),
            (r#"{"kind":"p","n":5,"n":6}"#, "duplicate field \"n\""),
            (r#"{"kind":"p"}"#, "missing field \"n\""),
            (r#"{"n":5,"kind":"p"}"#, "must lead with its \"kind\""),
            (r#"{"kind":"p","n":5} x"#, "trailing content"),
        ] {
            let err = read(line).expect_err(line);
            assert!(err.contains(fragment), "{line}: {err}");
        }
        let mut scan = Scan::new("[[1,2,3]]");
        let err = scan.read::<Vec<(u64, u64)>>().unwrap_err();
        assert!(err.contains("pair"), "{err}");
        let mut scan = Scan::new("-9223372036854775808 9223372036854775808");
        assert_eq!(scan.read::<i64>(), Ok(i64::MIN));
        assert!(scan.read::<i64>().is_err());
    }
}
