//! JSON rendering and parsing for the local serde shim's [`serde::Value`] model.
//!
//! Decoding takes time and memory linear in the input size. Strings are copied
//! a run at a time: the parser scans to the next `"` or `\`, checks the run
//! once and appends it in one step, so a 4 MB string costs one pass, not one
//! pass per character.
//!
//! Arrays and objects may nest at most 128 levels, the limit
//! the published `serde_json` uses. A deeper document is an
//! `Err("recursion limit exceeded")`, not a stack overflow.
//!
//! Strings follow the JSON grammar strictly. A raw control byte below 0x20 is
//! an error, as is a `\u` escape whose four digits are not all hex. A UTF-16
//! surrogate pair such as `"\ud83d\ude00"` decodes to the one character it
//! encodes (😀), and a lone surrogate is an error.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Error raised by JSON parsing or by the value-to-type conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses a JSON string into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let value = parse_value(input)?;
    Ok(T::from_value(&value)?)
}

/// Parses a JSON string into the raw [`Value`] tree.
pub fn parse_value(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing characters at offset {pos}")));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                let rendered = f.to_string();
                out.push_str(&rendered);
                // Keep floats recognizable as floats where cheap (serde_json prints
                // `2.0`, not `2`).
                if !rendered.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), Error> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(Error(format!(
            "expected `{}` at offset {pos:?}",
            byte as char
        )))
    }
}

/// Deepest nesting of arrays and objects the parser accepts.
const MAX_DEPTH: usize = 128;

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(Error("recursion limit exceeded".into()));
    }
    match bytes.get(*pos) {
        None => Err(Error("unexpected end of input".into())),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => return Err(Error(format!("expected `,` or `]`, got {other:?}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(entries));
                    }
                    other => return Err(Error(format!("expected `,` or `}}`, got {other:?}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(Error(format!("invalid literal at offset {pos:?}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy everything up to the next `"` or `\` in one step. Both are ASCII,
        // so the run ends on a character boundary and validates on its own.
        let start = *pos;
        while let Some(&byte) = bytes.get(*pos) {
            match byte {
                b'"' | b'\\' => break,
                0..=0x1f => {
                    return Err(Error(format!(
                        "control character {byte:#04x} in string at offset {pos:?}"
                    )))
                }
                _ => *pos += 1,
            }
        }
        let run =
            std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error("invalid UTF-8".into()))?;
        out.push_str(run);
        match bytes.get(*pos) {
            None => return Err(Error("unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1;
                parse_escape(bytes, pos, &mut out)?;
            }
        }
    }
}

/// Decodes the escape after a `\` at `*pos` onto `out`.
fn parse_escape(bytes: &[u8], pos: &mut usize, out: &mut String) -> Result<(), Error> {
    let escape = bytes.get(*pos).copied();
    *pos += 1;
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
            let unit = parse_hex4(bytes, pos)?;
            let code = match unit {
                0xd800..=0xdbff => {
                    if bytes.get(*pos..*pos + 2) != Some(b"\\u") {
                        return Err(Error(format!("lone surrogate \\u{unit:04x}")));
                    }
                    *pos += 2;
                    let low = parse_hex4(bytes, pos)?;
                    if !(0xdc00..=0xdfff).contains(&low) {
                        return Err(Error(format!("lone surrogate \\u{unit:04x}")));
                    }
                    0x10000 + ((u32::from(unit) - 0xd800) << 10) + (u32::from(low) - 0xdc00)
                }
                0xdc00..=0xdfff => return Err(Error(format!("lone surrogate \\u{unit:04x}"))),
                _ => u32::from(unit),
            };
            out.push(char::from_u32(code).expect("surrogates are handled above"));
        }
        other => return Err(Error(format!("bad escape {other:?}"))),
    }
    Ok(())
}

/// Reads the four hex digits of a `\u` escape at `*pos`.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u16, Error> {
    let digits = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| Error("truncated \\u escape".into()))?;
    let mut unit = 0u16;
    for &digit in digits {
        let value = char::from(digit)
            .to_digit(16)
            .ok_or_else(|| Error("bad \\u escape".into()))?;
        unit = unit << 4 | value as u16;
    }
    *pos += 4;
    Ok(unit)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error("invalid number".into()))?;
    if text.is_empty() {
        return Err(Error(format!("unexpected character at offset {start}")));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Some(stripped) = text.strip_prefix('-') {
            if stripped.parse::<u64>().is_ok() {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            }
        } else if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| Error(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for json in [
            "null",
            "true",
            "false",
            "3",
            "-4",
            "2.5",
            "\"hi\\n\"",
            "[]",
            "{}",
        ] {
            let value = parse_value(json).unwrap();
            let mut out = String::new();
            write_value(&value, &mut out, None, 0);
            assert_eq!(out, json, "round-trip of {json}");
        }
    }

    #[test]
    fn nested_structures() {
        let json = r#"{"a":[1,2,{"b":"x"}],"c":null}"#;
        let value = parse_value(json).unwrap();
        assert_eq!(value.get("c"), Some(&Value::Null));
        let mut out = String::new();
        write_value(&value, &mut out, None, 0);
        assert_eq!(out, json);
    }

    #[test]
    fn typed_round_trip() {
        let v = vec![1u64, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        let back: Vec<u64> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        let back: f64 = from_str("2.0").unwrap();
        assert_eq!(back, 2.0);
    }

    #[test]
    fn pretty_output_is_reparsable() {
        let value = parse_value(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        let mut out = String::new();
        write_value(&value, &mut out, Some(2), 0);
        assert_eq!(parse_value(&out).unwrap(), value);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("nope").is_err());
        assert!(parse_value("1 2").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_value(&nested(MAX_DEPTH + 1)).is_err());
        for deep in ["[".repeat(200_000), r#"{"a":"#.repeat(200_000)] {
            let err = parse_value(&deep).unwrap_err();
            assert_eq!(err, Error("recursion limit exceeded".into()));
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        // Escapes are spelled as `\` + `u` + four hex digits.
        let u = |hex: &str| format!("\\u{hex}");
        let json = format!(r#""{}{}""#, u("d83d"), u("de00"));
        assert_eq!(parse_value(&json).unwrap(), Value::Str("😀".into()));
        let json = format!(r#""a{}{}b""#, u("D834"), u("DD1E"));
        assert_eq!(parse_value(&json).unwrap(), Value::Str("a𝄞b".into()));
        let high_then_bmp = format!(r#""{}{}""#, u("d83d"), u("0041"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            high_then_bmp.as_str(),
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(parse_value(lone).is_err(), "{lone} must be rejected");
        }
    }

    #[test]
    fn string_grammar_is_strict() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g0""#,
            r#""\u00""#,
            r#""\x""#,
            "\"tab\there\"",
            "\"line\nbreak\"",
            "\"nul\u{0}\"",
            "\"unterminated",
        ] {
            assert!(parse_value(bad).is_err(), "{bad:?} must be rejected");
        }
        let json = ["0041", "00e9", "20AC"]
            .map(|hex| format!("\\u{hex}"))
            .concat();
        assert_eq!(
            parse_value(&format!(r#""{json}""#)).unwrap(),
            Value::Str("A\u{e9}\u{20ac}".into())
        );
    }

    #[test]
    fn strings_round_trip_through_write_and_parse() {
        let samples = [
            String::new(),
            "plain ascii".to_owned(),
            "2-byte é ß, 3-byte € 中文, 4-byte 😀 𝄞".to_owned(),
            "\" \\ / \n \r \t \u{8} \u{c} \u{0} \u{1f}".to_owned(),
            "mixed: a\u{0}é\"€\\😀\n".repeat(3),
            (0u32..0x300).filter_map(char::from_u32).collect(),
        ];
        for s in samples {
            let mut json = String::new();
            write_string(&s, &mut json);
            assert_eq!(parse_value(&json).unwrap(), Value::Str(s.clone()), "{json}");
        }
        // Every short escape the grammar allows, including the ones the writer
        // never emits.
        assert_eq!(
            parse_value(r#""\"\\\/\b\f\n\r\t\u0000""#).unwrap(),
            Value::Str("\"\\/\u{8}\u{c}\n\r\t\u{0}".into())
        );
    }

    #[test]
    fn decoding_is_linear_in_the_input() {
        // One 4 MB string (mostly ASCII with multi-byte characters and escapes
        // mixed in) and an object with 200 000 keys. Per-character work that
        // rescans the rest of the input takes hours here; a linear parser takes
        // well under a second even in a debug build.
        let chunk = "abcdefghijklmnopqrstuvwxyz0123456789 é€😀 \\n\\\"\\u00e9 ";
        let long = chunk.repeat(4_000_000 / chunk.len());
        let mut json = format!(r#"{{"long":"{long}","keys":{{"#);
        for i in 0..200_000 {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(r#""k{i}":{i}"#));
        }
        json.push_str("}}");

        let started = std::time::Instant::now();
        let value = parse_value(&json).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "parsing {} bytes took {elapsed:?}",
            json.len()
        );
        let decoded = value.get("long").and_then(Value::as_str).unwrap();
        assert_eq!(decoded.matches('😀').count(), long.matches('😀').count());
        assert!(decoded.ends_with("\n\"é "));
        let keys = value.get("keys").and_then(Value::as_object).unwrap();
        assert_eq!(keys.len(), 200_000);
        assert_eq!(keys[199_999], ("k199999".into(), Value::UInt(199_999)));
    }
}
