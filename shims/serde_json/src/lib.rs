//! Offline drop-in subset of `serde_json`: compact and pretty printing of
//! values that implement the shim `serde::Serialize`, and [`from_str`],
//! which parses a JSON document into a [`Value`] (there is no
//! `Deserialize`, so a [`Value`] is the only thing it reads into).

pub use serde::json::Value;
use serde::Serialize;
use std::fmt;

/// Serialization or parse error (mirror of `serde_json::Error`).
///
/// Writing cannot fail; a parse error names what was expected and where,
/// as `... at line L column C`.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as pretty JSON with two-space indentation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json_value(), 0, &mut out);
    Ok(out)
}

/// Renders `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.to_json_value(), &mut out);
    Ok(out)
}

fn write_scalar(v: &Value, out: &mut String) -> bool {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            // Match serde_json: non-finite numbers become null, and finite
            // ones always carry a decimal point or exponent.
            if f.is_finite() {
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(_) | Value::Object(_) => return false,
    }
    true
}

fn write_escaped(s: &str, out: &mut String) {
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

fn write_value(v: &Value, indent: usize, out: &mut String) {
    if write_scalar(v, out) {
        return;
    }
    let pad = "  ".repeat(indent);
    let inner_pad = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner_pad);
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, item)) in entries.iter().enumerate() {
                out.push_str(&inner_pad);
                write_escaped(key, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
        _ => unreachable!("scalars handled above"),
    }
}

fn write_compact(v: &Value, out: &mut String) {
    if write_scalar(v, out) {
        return;
    }
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(key, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
        _ => unreachable!("scalars handled above"),
    }
}

/// Parses one JSON document into a [`Value`] (serde_json's `from_str`
/// into `Value`). Whitespace may surround the document; anything else
/// after it is an error. An integer literal becomes `UInt`, or `Int` when
/// negative, and one that overflows 64 bits becomes a `Float`, as in
/// serde_json; every literal with a fraction or exponent is a `Float`. A
/// number that overflows `f64` and nesting deeper than 128 are errors, as
/// in serde_json.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser { src: s, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < s.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

/// serde_json's default recursion limit.
const MAX_DEPTH: usize = 128;

/// A recursive-descent reader over `src`; `pos` is a byte offset, always
/// on a char boundary.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn error(&self, what: &str) -> Error {
        let before = &self.src[..self.pos];
        let line = before.matches('\n').count() + 1;
        let column = before.len() - before.rfind('\n').map_or(0, |i| i + 1) + 1;
        Error(format!("{what} at line {line} column {column}"))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("EOF while parsing a value")),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.eat(b']') {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                if self.eat(b'}') {
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("key must be a string"));
                    }
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(self.error("expected `:`"));
                    }
                    entries.push((key, self.value(depth + 1)?));
                    if self.eat(b'}') {
                        return Ok(Value::Object(entries));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected `,` or `}`"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected value"))
        }
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(self.error("invalid number")),
            n if n > 1 && self.src.as_bytes()[int_start] == b'0' => {
                return Err(self.error("invalid number"))
            }
            _ => {}
        }
        let mut integer = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integer = false;
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integer = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = &self.src[start..self.pos];
        if integer {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(self.error("number out of range")),
        }
    }

    /// Reads the string whose opening quote is at `pos`.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte:
            // all three are ASCII, so the run ends on a char boundary.
            let run = self.src[self.pos..]
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .map_or(self.src.len(), |i| self.pos + i);
            out.push_str(&self.src[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    self.pos += 1;
                    out.push(c);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    /// Four hex digits after `\u`, then a low surrogate's `\uXXXX` when
    /// the first names a high one.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.src[self.pos..].starts_with("\\u") {
                    return Err(self.error("lone leading surrogate in hex escape"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.error("invalid low surrogate in hex escape"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error("lone trailing surrogate in hex escape")),
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.src.get(self.pos..self.pos + 4).unwrap_or("");
        if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("invalid escape"));
        }
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid escape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: String,
        auc: f64,
        counts: Option<[usize; 3]>,
    }

    impl Serialize for Row {
        fn to_json_value(&self) -> Value {
            Value::Object(vec![
                ("name".into(), self.name.to_json_value()),
                ("auc".into(), self.auc.to_json_value()),
                ("counts".into(), self.counts.to_json_value()),
            ])
        }
    }

    #[test]
    fn pretty_prints_nested_structs() {
        let rows = vec![
            Row {
                name: "fm".into(),
                auc: 0.75,
                counts: None,
            },
            Row {
                name: "optinter".into(),
                auc: 0.8125,
                counts: Some([3, 2, 1]),
            },
        ];
        let json = to_string_pretty(&rows).unwrap();
        assert!(json.contains("\"name\": \"fm\""));
        assert!(json.contains("\"auc\": 0.75"));
        assert!(json.contains("\"counts\": null"));
        assert!(json.contains("3,\n"));
        assert!(json.starts_with("[\n"));
    }

    #[test]
    fn parse_reads_back_what_both_writers_wrote() {
        let v = Value::Object(vec![
            ("label".into(), Value::Str("pr9 \"q\"\n\t\\ é \u{1}".into())),
            ("quick".into(), Value::Bool(false)),
            ("none".into(), Value::Null),
            ("threads".into(), Value::UInt(4)),
            ("delta".into(), Value::Int(-3)),
            ("rows_per_sec".into(), Value::Float(614290.3148355396)),
            ("big".into(), Value::Float(1.5e300)),
            ("tiny".into(), Value::Float(-2.5e-12)),
            ("whole".into(), Value::Float(2.0)),
            (
                "rows".into(),
                Value::Array(vec![
                    Value::Object(vec![("op".into(), Value::Str("x".into()))]),
                    Value::Array(vec![]),
                    Value::Object(vec![]),
                ]),
            ),
        ]);
        assert_eq!(from_str(&to_string_pretty(&Doc(&v)).unwrap()).unwrap(), v);
        assert_eq!(from_str(&to_string(&Doc(&v)).unwrap()).unwrap(), v);
    }

    struct Doc<'a>(&'a Value);

    impl Serialize for Doc<'_> {
        fn to_json_value(&self) -> Value {
            self.0.clone()
        }
    }

    #[test]
    fn parse_reads_numbers_as_serde_json_does() {
        assert_eq!(from_str("0").unwrap(), Value::UInt(0));
        assert_eq!(from_str("-0").unwrap(), Value::Int(0));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(
            from_str("18446744073709551616").unwrap(),
            Value::Float(18446744073709551616.0)
        );
        assert_eq!(from_str("1E2").unwrap(), Value::Float(100.0));
        assert_eq!(from_str("1e-2").unwrap(), Value::Float(0.01));
        assert_eq!(from_str(" 2.5e+1 ").unwrap(), Value::Float(25.0));
        assert_eq!(
            from_str("[1,-1]").unwrap().as_array().map(Vec::len),
            Some(2)
        );
    }

    #[test]
    fn parse_reads_escapes_and_surrogate_pairs() {
        assert_eq!(
            from_str(r#""\u00e9\/\b\f\ud83d\ude00""#).unwrap(),
            Value::Str("é/\u{8}\u{c}😀".into())
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            " ",
            "[",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{a: 1}",
            "{\"a\": }",
            "\"open",
            "\"tab\there\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "1e999",
            "NaN",
            "nul",
            "truth",
            "[] []",
            "{} x",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
        let err = from_str("[\n  1,\n  x\n]").unwrap_err().to_string();
        assert_eq!(err, "expected value at line 3 column 3");
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(from_str(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_str(&ok).is_ok());
    }

    #[test]
    fn floats_keep_a_decimal_point_and_escapes_work() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string("a\"b\n").unwrap(), "\"a\\\"b\\n\"");
    }
}
