//! A minimal JSON value type with a writer and a recursive-descent parser.
//!
//! Kept deliberately tiny (no third-party deps is a repo invariant): objects
//! preserve insertion order via `Vec<(String, Json)>`, numbers are `f64`,
//! and the writer emits no whitespace beyond what callers add — so output
//! is byte-deterministic. Shared by the telemetry export sinks, the bench
//! baseline-comparison tooling, and the `meda serve` request/response and
//! cache-entry trust boundaries.
//!
//! **Linear-time contract**: both directions run in time linear in the
//! document size. The parser copies each unescaped string run with one
//! slice of the input `&str` (the delimiters `"` and `\` are ASCII, so a
//! run always ends on a char boundary and never needs re-validating), and
//! the writer emits each unescaped run with one `write_str`, formatting
//! only the escapes one by one. Nesting deeper than [`MAX_DEPTH`] is
//! rejected, so untrusted input cannot overflow the parser's stack.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive, so this bounds its stack use on untrusted input; every
/// document the workspace writes nests a handful of levels at most.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64` losslessly
    /// enough for metrics (`u64` counts above 2^53 lose precision; fine for
    /// observability).
    #[must_use]
    pub fn num(n: impl Into<f64>) -> Self {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` (via `f64`; counts above 2^53 round).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn u64(n: u64) -> Self {
        Json::Num(n as f64)
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object's fields, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Every byte that needs escaping is ASCII, so `run` and `i` always sit
    // on char boundaries and each unescaped run is one slice of `s`.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match escape {
            Some(e) => f.write_str(e)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    // JSON has no NaN/Infinity; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let open = bytes.get(*pos);
    if matches!(open, Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match open {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Parses the string starting at `text[*pos]`. Each run up to the next `"`
/// or `\` is copied in one step; only escapes are decoded one by one.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run_end = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |n| *pos + n);
        out.push_str(&text[*pos..run_end]);
        *pos = run_end;
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a `\`: decode one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-utf8 \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Surrogate pairs are not needed for metric names;
                        // map unpaired surrogates to the replacement char.
                        // A hex that parsed is four ASCII bytes, so the next
                        // run starts on a char boundary.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("bad number at byte {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stopwatch;

    /// Frozen reference: the original per-character writer, kept to pin the
    /// linear writer's output byte for byte.
    fn reference_write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

    /// Frozen reference: the original per-character string parser (it
    /// re-validates the rest of the document at every character, so it is
    /// quadratic), kept to pin the linear parser's results.
    fn reference_parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-utf8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| "invalid utf8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    struct Reference<'a>(&'a str);

    impl fmt::Display for Reference<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            reference_write_escaped(f, self.0)
        }
    }

    /// SplitMix64: a seeded generator for the property loops.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// Pieces of a decoded string: ASCII runs, multibyte UTF-8, every
    /// character the writer escapes by name, and raw control characters
    /// (written as `\u00XX`). Concatenating random pieces puts runs right
    /// next to escapes.
    const PLAIN: &[&str] = &[
        "a",
        "Z",
        "0",
        "3fe0000000000000",
        " ",
        "/",
        "\u{7f}",
        "é",
        "ß",
        "€",
        "日本",
        "😀",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1}",
        "\u{8}",
        "\u{b}",
        "\u{c}",
        "\u{1f}",
    ];

    /// Pieces of an encoded string body (after the opening quote): plain
    /// runs, every valid escape, and malformed escapes.
    const ENCODED: &[&str] = &[
        "abc", "é", "€uro", "😀", " ", "\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f",
        "\\u0041", "\\u00e9", "\\u001f", "\\u20ac", "\\ud800", "\\uFFFF", "\\u+041", "\\x", "\\é",
        "\\u12G4", "\\u1é", "\\u12", "\\",
    ];

    fn random_string(g: &mut Gen) -> String {
        let len = g.below(12);
        (0..len).map(|_| g.pick(PLAIN)).collect()
    }

    #[test]
    fn writer_matches_the_reference_byte_for_byte() {
        let mut g = Gen(0x5eed);
        assert_eq!(Json::str("").to_string(), Reference("").to_string());
        for _ in 0..20_000 {
            let s = random_string(&mut g);
            let written = Json::Str(s.clone()).to_string();
            assert_eq!(
                written,
                Reference(&s).to_string(),
                "writer diverged on {s:?}"
            );
            assert_eq!(
                Json::parse(&written),
                Ok(Json::Str(s)),
                "round trip of {written:?}"
            );
        }
        for c in (0u32..0x80).filter_map(char::from_u32) {
            let s = format!("x{c}{c}y");
            assert_eq!(Json::str(s.as_str()).to_string(), Reference(&s).to_string());
        }
    }

    #[test]
    fn parser_matches_the_reference_on_valid_and_malformed_strings() {
        let mut g = Gen(0xfeed);
        let mut errors = 0;
        for _ in 0..20_000 {
            let mut text = String::from("\"");
            for _ in 0..g.below(10) {
                text.push_str(g.pick(ENCODED));
            }
            match g.below(4) {
                0 => {}
                1 => text.push_str("\",1]"),
                _ => text.push('"'),
            }
            let (mut new_pos, mut ref_pos) = (0, 0);
            let new = parse_string(&text, &mut new_pos);
            let reference = reference_parse_string(text.as_bytes(), &mut ref_pos);
            match (&new, &reference) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "decoded value diverged on {text:?}");
                    assert_eq!(new_pos, ref_pos, "end offset diverged on {text:?}");
                }
                (Err(_), Err(_)) => errors += 1,
                _ => panic!("parsers disagree on {text:?}: {new:?} vs {reference:?}"),
            }
            assert_eq!(
                Json::parse(&text).is_ok(),
                reference.is_ok() && ref_pos == text.len()
            );
        }
        assert!(
            errors > 1_000,
            "the generator must exercise malformed input"
        );
        for bad in [
            "\"", "\"abc", "\"\\", "\"\\u", "\"\\u12", "\"\\u123", "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn codec_is_linear_in_document_size() {
        let unit = "3fe0000000000000 é€😀\"\\\n\u{1}/";
        let big = unit.repeat((4 << 20) / unit.len());
        let sw = Stopwatch::start();
        let text = Json::Str(big.clone()).to_string();
        assert_eq!(Json::parse(&text), Ok(Json::Str(big)));
        let string_ns = sw.elapsed_ns();

        let hexes = Json::Arr(
            (0..200_000u64)
                .map(|i| Json::str(format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
                .collect(),
        );
        let sw = Stopwatch::start();
        let text = hexes.to_string();
        assert_eq!(Json::parse(&text), Ok(hexes));
        let array_ns = sw.elapsed_ns();

        assert!(
            string_ns < 1_000_000_000,
            "4 MiB string round trip took {string_ns} ns"
        );
        assert!(
            array_ns < 1_000_000_000,
            "200k hex strings round trip took {array_ns} ns"
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&deep).is_err());
        assert!(Json::parse(&"[{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn round_trips_nested_values() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("meda-telemetry/1")),
            (
                "items".into(),
                Json::Arr(vec![Json::u64(3), Json::Bool(true), Json::Null]),
            ),
            ("pi".into(), Json::Num(3.5)),
            ("name".into(), Json::str("a \"quoted\"\nline")),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_whitespace_and_empty_containers() {
        let v = Json::parse(" { \"a\" : [ ] , \"b\" : { } } ").expect("parse");
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![])));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_docs() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::u64(42).to_string(), "42");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
