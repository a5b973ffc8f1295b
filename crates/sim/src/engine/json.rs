//! A minimal self-contained JSON value, parser and writer.
//!
//! The build environment is offline (no `serde`), so the engine's
//! checkpoint files and `bench_report.json` artifacts are read and written
//! through this hand-rolled implementation.  It supports the full JSON
//! grammar the engine emits: objects, arrays, strings (with escapes),
//! finite numbers, booleans and `null`.  Object key order is preserved, so
//! writing is deterministic.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also written for non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document.  Trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed
    /// input.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number in
    /// the exactly-representable range.
    ///
    /// Only values below `2^53` qualify: above that, `f64` cannot represent
    /// every integer, so a parsed number no longer identifies one unique
    /// integer (and `u64::MAX as f64` rounds *up* to `2^64`, which a bare
    /// `<= u64::MAX as f64` bound would wrongly accept before the `as usize`
    /// cast saturated it).  The value must also fit `usize`, which is
    /// checked precisely via `try_from` so 32-bit targets reject rather
    /// than truncate.
    pub fn as_usize(&self) -> Option<usize> {
        const TWO_POW_53: f64 = 9_007_199_254_740_992.0;
        match self {
            JsonValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x < TWO_POW_53 => {
                // x < 2^53 with zero fraction is exactly representable, so
                // the u64 cast is lossless; the usize conversion is the
                // precise platform-width check.
                usize::try_from(*x as u64).ok()
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Checks the `schema_version` field of a JSON artifact: it must be
/// present and equal to `expected`.  Every engine artifact (reports, shard
/// plans — which are also the sweep checkpoints — and tally deltas)
/// carries this field so a parser from a different major refuses the
/// document with a clear error instead of silently misreading it; `what`
/// names the artifact in that error.  Checkpoints written before they
/// became shard plans (`schema_version` 2, per-point `shots`/`failures`)
/// are refused this way as an unsupported shard-plan version.
///
/// # Errors
///
/// Returns a message naming the artifact, the found version (or its
/// absence) and the supported one.
pub fn check_schema_version(value: &JsonValue, expected: u64, what: &str) -> Result<(), String> {
    match value.get("schema_version").and_then(JsonValue::as_usize) {
        Some(found) if found as u64 == expected => Ok(()),
        Some(found) => Err(format!(
            "unsupported {what} schema version {found} (this build reads version {expected})"
        )),
        None => Err(format!(
            "{what} carries no schema version (this build reads version {expected})"
        )),
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(x) => write_number(f, *x),
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a number: integral values without a decimal point, non-finite
/// values as `null` (JSON has no NaN/∞).
fn write_number(f: &mut fmt::Formatter<'_>, x: f64) -> fmt::Result {
    if !x.is_finite() {
        return f.write_str("null");
    }
    if x.fract() == 0.0 && x.abs() < 9.0e15 {
        write!(f, "{:.0}", x)
    } else {
        // `{:e}` round-trips through `f64::from_str` and keeps tiny rates
        // compact.
        write!(f, "{x:e}")
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Lone surrogates degrade to the replacement
                            // character; the engine never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        // self.pos is just past the 'u'
        let start = self.pos;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &JsonValue) -> JsonValue {
        JsonValue::parse(&v.to_string()).expect("writer output must parse")
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::Number(0.0),
            JsonValue::Number(400.0),
            JsonValue::Number(-17.0),
            JsonValue::Number(1.25e-6),
            JsonValue::Number(0.1),
            JsonValue::String("a \"quoted\"\nline\t\\".into()),
            JsonValue::String("unicode: é λ ✓".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "{v}");
        }
    }

    #[test]
    fn integral_numbers_are_written_without_a_decimal_point() {
        assert_eq!(JsonValue::Number(400.0).to_string(), "400");
        assert_eq!(JsonValue::Number(-3.0).to_string(), "-3");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::Number(f64::INFINITY).to_string(), "null");
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = JsonValue::Object(vec![
            ("version".into(), JsonValue::Number(1.0)),
            (
                "points".into(),
                JsonValue::Array(vec![
                    JsonValue::Object(vec![
                        ("id".into(), JsonValue::String("fig3/d=5".into())),
                        ("shots".into(), JsonValue::Number(400.0)),
                        ("rate".into(), JsonValue::Number(0.0075)),
                        ("converged".into(), JsonValue::Bool(false)),
                    ]),
                    JsonValue::Null,
                ]),
            ),
            ("empty".into(), JsonValue::Array(vec![])),
            ("nothing".into(), JsonValue::Object(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = JsonValue::parse(r#"{"a": {"b": [1, 2.5, "x", true]}, "n": null}"#).unwrap();
        let arr = v.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr.as_array().unwrap()[0].as_usize(), Some(1));
        assert_eq!(arr.as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(arr.as_array().unwrap()[1].as_usize(), None);
        assert_eq!(arr.as_array().unwrap()[2].as_str(), Some("x"));
        assert_eq!(arr.as_array().unwrap()[3].as_bool(), Some(true));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn as_usize_is_bounded_to_the_exact_integer_range() {
        const TWO_POW_53: f64 = 9_007_199_254_740_992.0;
        // In range: exact integers round-trip through text and back.
        for n in [0u64, 1, 400, (1 << 53) - 1] {
            let v = JsonValue::Number(n as f64);
            assert_eq!(v.as_usize(), Some(n as usize), "{n}");
            assert_eq!(roundtrip(&v).as_usize(), Some(n as usize), "{n}");
        }
        // Out of range or non-integral: every ambiguous value is rejected
        // instead of silently saturated/truncated.  `u64::MAX as f64` is
        // the historical bug: it rounds up to 2^64, which the old
        // `<= u64::MAX as f64` bound accepted.
        for x in [
            TWO_POW_53,
            TWO_POW_53 * 2.0,
            u64::MAX as f64,
            1e300,
            -1.0,
            0.5,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(JsonValue::Number(x).as_usize(), None, "{x}");
        }
        assert_eq!(JsonValue::String("3".into()).as_usize(), None);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"k\" : \"\\u0041\\n\" , \"l\" : [ ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("A\n"));
        assert_eq!(v.get("l").unwrap().as_array(), Some(&[][..]));
    }

    #[test]
    fn schema_version_checks_name_the_artifact_and_versions() {
        let good = JsonValue::parse(r#"{"schema_version": 2}"#).unwrap();
        assert_eq!(check_schema_version(&good, 2, "report"), Ok(()));
        let newer = JsonValue::parse(r#"{"schema_version": 3}"#).unwrap();
        let err = check_schema_version(&newer, 2, "report").unwrap_err();
        assert!(
            err.contains("report") && err.contains('3') && err.contains('2'),
            "{err}"
        );
        let missing = JsonValue::parse(r#"{"version": 2}"#).unwrap();
        let err = check_schema_version(&missing, 2, "checkpoint").unwrap_err();
        assert!(err.contains("no schema version"), "{err}");
        let non_integer = JsonValue::parse(r#"{"schema_version": "2"}"#).unwrap();
        assert!(check_schema_version(&non_integer, 2, "plan").is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "\"open",
            "1 2",
            "{\"a\":}",
            "--3",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
