//! A minimal JSON value type with a pretty printer and a recursive-descent
//! parser.
//!
//! The workspace builds offline (no `serde`/`serde_json`), so the experiment
//! records and the `BENCH_hotpath.json` perf artefact are produced and read
//! through this module instead. It supports the full JSON grammar except for
//! exotic number forms (`NaN`/`Infinity` are rejected on write).
//!
//! Numbers written without a fraction or exponent are kept **exact** in a
//! dedicated [`Json::Int`] variant ([`i128`], covering all of `i64` and
//! `u64`), so 64-bit scenario seeds round-trip bit for bit instead of being
//! rounded through `f64`. Fractional and exponent forms, and integers beyond
//! `i128`, stay in [`Json::Num`].

use crate::codec::Scan;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number with a fraction or exponent part (stored as `f64`), or
    /// an integer too large for [`Json::Int`].
    Num(f64),
    /// An integer literal, stored exactly. `i128` covers the full `i64` and
    /// `u64` ranges, so 64-bit seeds survive a round trip unchanged.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number (exact integers convert, with
    /// the usual `f64` rounding beyond 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer representable
    /// exactly.
    ///
    /// [`Json::Num`] values qualify only below 2⁵³ (where `f64` is exact);
    /// larger float-typed integers are rejected rather than silently rounded
    /// or saturated — exact 64-bit values arrive as [`Json::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        const F64_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53, itself exact
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            // lint: allow(R02, cast proven exact by the range/fract guard)
            Json::Num(x) if *x >= 0.0 && *x <= F64_EXACT && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(crate::artifact::usize_exact)
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value as pretty-printed JSON (two-space indent).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(width) => (
                "\n",
                " ".repeat(width * level),
                " ".repeat(width * (level + 1)),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message describing the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut scan = Scan::new(text);
        let value = scan.value()?;
        scan.skip_ws();
        if scan.pos != scan.bytes.len() {
            return Err(format!("trailing data at byte {}", scan.pos));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Int(i128::from(x))
    }
}

impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Int(i128::from(x))
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Int(i128::from(crate::artifact::u64_exact(x)))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl From<BTreeMap<String, Json>> for Json {
    fn from(map: BTreeMap<String, Json>) -> Json {
        Json::Obj(map.into_iter().collect())
    }
}

fn write_number(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 {
        // lint: allow(R02, cast proven exact by the fract/magnitude guard)
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
    crate::codec::escape(s, |run| out.push_str(run));
}

/// The [`Json`] grammar, read from a [`Scan`] cursor (see [`Scan::value`]).
impl Scan<'_> {
    pub(crate) fn json_value(&mut self) -> Result<Json, String> {
        match self.byte() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(|scan| {
                    items.push(scan.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object("object", |scan, key| {
                    pairs.push((key.to_string(), scan.value()?));
                    Ok(true)
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.consume_literal(text) {
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.byte(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // lint: allow(R03, the scanner loop above admits only ASCII bytes)
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        // Integer literals (no fraction, no exponent) are stored exactly so
        // values like 64-bit seeds survive parsing; only if the literal
        // overflows `i128` does it fall back to the rounding `f64` path.
        if !text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            if let Ok(v) = text.parse::<i128>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Json::obj([
            ("name", Json::from("hot\npath \"x\"")),
            ("count", Json::from(42u64)),
            ("ratio", Json::from(2.5)),
            ("flag", Json::from(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::from(1u64), Json::from("two"), Json::Null]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            let parsed = Json::parse(&text).expect("parses");
            assert_eq!(parsed, doc);
        }
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": -1.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("a").and_then(Json::as_usize), Some(3));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("c").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(doc.get("d").and_then(Json::as_f64), Some(-1.5));
        assert_eq!(doc.get("d").and_then(Json::as_u64), None);
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let parsed = Json::parse(r#""café \n \"q\"""#).unwrap();
        assert_eq!(parsed.as_str(), Some("café \n \"q\""));
        let rendered = Json::from("café \n \"q\"").render();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str(),
            Some("café \n \"q\"")
        );
        // Multi-byte characters directly next to escapes, on both sides.
        let parsed = Json::parse(r#""é\n€\"日本\\\u00e9ü\t""#).unwrap();
        assert_eq!(parsed.as_str(), Some("é\n€\"日本\\éü\t"));
    }

    #[test]
    fn multi_megabyte_strings_parse_whole() {
        // A federated snapshot travels as one long JSON string; the parser
        // copies each run between escapes in one step.
        let line = "{\"kind\":\"queue\",\"node\":12345,\"tasks\":[[1,2],[3,4]]} é\n";
        let text = line.repeat(80_000);
        assert!(text.len() > 4 << 20, "a multi-MB string");
        let rendered = Json::from(text.as_str()).render();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str(),
            Some(text.as_str())
        );
    }

    #[test]
    fn surrogate_pair_escapes() {
        // External writers (serde_json, python json) escape non-BMP
        // characters as UTF-16 surrogate pairs.
        let parsed = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1F600}"));
        // Raw (unescaped) non-BMP characters also pass straight through.
        let raw = Json::parse("\"\u{1F600}\"").unwrap();
        assert_eq!(raw.as_str(), Some("\u{1F600}"));
        // A lone high surrogate, a high surrogate followed by a non-escape,
        // and a bad low half are all rejected.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dx""#).is_err());
        assert!(Json::parse(r#""\ud83d\u0041""#).is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(5u64).render(), "5");
        assert_eq!(Json::from(2.5).render(), "2.5");
    }

    #[test]
    fn integers_above_2_pow_53_are_exact() {
        // The motivating bug: a 64-bit seed above 2^53 used to be parsed as
        // f64 and silently rounded to the nearest representable integer.
        for &seed in &[
            (1u64 << 53) + 1,
            u64::MAX,
            u64::MAX - 1,
            i64::MAX as u64 + 1,
        ] {
            let text = Json::from(seed).render();
            assert_eq!(text, seed.to_string());
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed, Json::Int(seed as i128));
            assert_eq!(parsed.as_u64(), Some(seed), "u64 round trip for {seed}");
        }
        // Negative integers parse exactly too, and refuse the u64 view.
        let neg = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(neg, Json::Int(i64::MIN as i128));
        assert_eq!(neg.as_u64(), None);
        assert_eq!(neg.as_f64(), Some(i64::MIN as f64));
    }

    #[test]
    fn float_typed_integers_above_2_pow_53_are_rejected_not_rounded() {
        // Exponent forms stay f64-typed; beyond 2^53 they are no longer
        // exact, so `as_u64` refuses them instead of saturating.
        let small = Json::parse("1e10").unwrap();
        assert_eq!(small.as_u64(), Some(10_000_000_000));
        // The boundary 2^53 itself is exactly representable and accepted;
        // the next float-typed integer above it is not.
        let boundary = Json::parse("9.007199254740992e15").unwrap();
        assert_eq!(boundary.as_u64(), Some(1u64 << 53));
        let above = Json::parse("9.007199254740994e15").unwrap();
        assert_eq!(above.as_u64(), None);
        let big = Json::parse("1e300").unwrap();
        assert_eq!(big.as_u64(), None);
        assert!(big.as_f64().is_some());
        // An integer literal too large even for i128 falls back to f64.
        let huge = Json::parse(&"9".repeat(60)).unwrap();
        assert!(matches!(huge, Json::Num(_)));
        assert_eq!(huge.as_u64(), None);
    }
}
