//! Offline JSON rendering/parsing over the workspace `serde` subset.
//!
//! Provides the entry points this repository uses. [`to_string`] and
//! [`to_writer`] emit compact JSON straight from
//! [`Serialize::write_json`]; [`to_string_pretty`] renders the owned
//! [`serde::Value`] tree, and [`from_str`] parses into one.

#![forbid(unsafe_code)]

pub use serde::Error;
pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Render a serializable value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    value.write_json(&mut out);
    String::from_utf8(out).map_err(Error::msg)
}

/// Write a serializable value as compact JSON to `writer`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let mut out = Vec::new();
    value.write_json(&mut out);
    writer.write_all(&out).map_err(Error::msg)
}

/// Render a serializable value as indented JSON (2 spaces, like upstream).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parse JSON text and rebuild a deserializable value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

// ----------------------------------------------------------------------
// Rendering the value tree: the pretty printer, and with `indent: None`
// the test oracle for the compact bytes of `write_json`.
// ----------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                let s = format!("{f}");
                out.push_str(&s);
                // `{}` renders 1.0 as "1"; keep it a float so round-trips
                // preserve the numeric class where it matters.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(s, out),
        Value::Seq(xs) => {
            if xs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(x, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, x)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_json_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(x, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
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

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
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
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected input {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("short \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // crate's writer; reject them on input.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid \\u code point".into()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(xs));
        }
        loop {
            xs.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(xs));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_vec_of_tuples() {
        let v = vec![(1u64, "a".to_string(), true), (2, "b\"x".to_string(), false)];
        let text = to_string(&v).unwrap();
        let back: Vec<(u64, String, bool)> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = vec![1u8, 2];
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n  1"));
    }

    #[test]
    fn parses_escapes_and_nesting() {
        let v: Vec<Option<String>> = from_str(r#"[null, "a\nb", "A"]"#).unwrap();
        assert_eq!(
            v,
            vec![None, Some("a\nb".to_string()), Some("A".to_string())]
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<bool>("true x").is_err());
    }

    #[test]
    fn float_keeps_decimal_point() {
        let text = to_string(&1.0f64).unwrap();
        assert_eq!(text, "1.0");
    }
}

/// `write_json` bytes pinned against the value-tree renderer: for every
/// type, the compact stream equals the rendered tree of `to_value`, and
/// so does `Value`'s own `write_json` over that tree.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::{BTreeMap, HashMap, VecDeque};
    use std::time::Duration;

    fn tree(v: &Value) -> String {
        let mut out = String::new();
        write_value(v, &mut out, None, 0);
        out
    }

    fn check<T: Serialize + ?Sized>(v: &T) -> String {
        let value = v.to_value();
        let expected = tree(&value);
        assert_eq!(to_string(v).unwrap(), expected, "derived/native stream");
        assert_eq!(to_string(&value).unwrap(), expected, "Value stream");
        let mut sink = Vec::new();
        to_writer(&mut sink, v).unwrap();
        assert_eq!(sink, expected.as_bytes(), "to_writer");
        expected
    }

    #[test]
    fn string_escapes() {
        assert_eq!(check("say \"hi\""), r#""say \"hi\"""#);
        assert_eq!(check("back\\slash"), r#""back\\slash""#);
        assert_eq!(check("a\nb\rc\td"), r#""a\nb\rc\td""#);
        assert_eq!(
            check("\u{1}\u{1f}\u{8}\u{c}"),
            r#""\u0001\u001f\u0008\u000c""#
        );
        assert_eq!(
            check("h\u{e9}llo \u{2713} \u{1d11e}"),
            "\"h\u{e9}llo \u{2713} \u{1d11e}\""
        );
        check("");
        check("\u{7f}/<>");
        check(&"\"\\\n".to_string());
        check("\u{e9}\"\u{1d11e}\u{0}tail");
        let every_ascii: String = (0u8..0x80).map(char::from).collect();
        check(every_ascii.as_str());
        for c in (0u32..0x80).chain([0xe9, 0x2028, 0xfeff, 0x1f600]) {
            check(&char::from_u32(c).unwrap());
        }
    }

    /// The escaping `Display` writer: its bytes equal the string path's
    /// over the same text, however the value splits its writes — whole,
    /// one `write_str` per char, or split in two at every char boundary
    /// (which cuts `\r\n` pairs, quote runs and multi-char sequences
    /// such as a letter plus a combining accent).
    #[test]
    fn display_writer_matches_the_string_path() {
        use std::fmt;

        /// Writes its pieces with one `write_str` call each.
        struct Pieces(Vec<String>);
        impl fmt::Display for Pieces {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.iter().try_for_each(|p| f.write_str(p))
            }
        }

        fn same<D: fmt::Display + ?Sized>(d: &D) {
            let mut streamed = Vec::new();
            serde::write_json_display(d, &mut streamed);
            let via_string = to_string(&d.to_string()).unwrap();
            assert_eq!(String::from_utf8(streamed).unwrap(), via_string);
        }

        let every_ascii: String = (0u8..0x80).map(char::from).collect();
        let corpus = [
            "say \"hi\"",
            "back\\slash",
            "a\nb\rc\td\r\n",
            "\u{1}\u{1f}\u{8}\u{c}\u{0}",
            "h\u{e9}llo \u{2713} \u{1d11e}",
            "",
            "\u{7f}/<>",
            "\"\\\n",
            "\u{e9}\"\u{1d11e}\u{0}tail",
            "e\u{301}\u{2028}\u{feff}\u{1f600}",
            every_ascii.as_str(),
        ];
        for text in corpus {
            same(text);
            same(&Pieces(text.chars().map(String::from).collect()));
            for (i, _) in text.char_indices() {
                let (a, b) = text.split_at(i);
                same(&Pieces(vec![a.into(), b.into()]));
            }
        }
        // Formatting machinery: `Debug` output carries its own quotes and
        // backslash escapes, which the writer escapes again.
        struct Formatted<'a>(&'a str, u32);
        impl fmt::Display for Formatted<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:?} x{} {:>5}|", self.0, self.1, self.0)
            }
        }
        for text in corpus {
            same(&Formatted(text, 42));
        }
    }

    #[test]
    fn floats() {
        assert_eq!(check(&1.0f64), "1.0");
        assert_eq!(check(&-3.0f64), "-3.0");
        assert_eq!(check(&-0.0f64), "-0.0");
        assert_eq!(check(&f64::NAN), "null");
        assert_eq!(check(&f64::INFINITY), "null");
        assert_eq!(check(&f64::NEG_INFINITY), "null");
        assert_eq!(check(&0.1f64), "0.1");
        for f in [
            1e300,
            1.5e-7,
            1e21,
            123.456,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
        ] {
            check(&f);
            check(&-f);
        }
        check(&1.1f32);
        check(&f32::MAX);
        check(&vec![0.5f64, f64::NAN, 2.0]);
    }

    #[test]
    fn integers_options_and_collections() {
        assert_eq!(check(&-1i64), "-1");
        assert_eq!(check(&i64::MIN), "-9223372036854775808");
        check(&i64::MAX);
        check(&-128i8);
        check(&0i32);
        assert_eq!(check(&u64::MAX), "18446744073709551615");
        check(&0u8);
        check(&usize::MAX);
        assert_eq!(check(&Option::<u8>::None), "null");
        check(&Some("x"));
        assert_eq!(check(&Vec::<u8>::new()), "[]");
        check(&vec![vec![1u8], vec![]]);
        check(&[1u16, 2, 3][..]);
        check(&[true, false]);
        check(&VecDeque::from(vec![-1i32, 2]));
        check(&(7u8, "a", true, -2.5f64));
        check(&true);
    }

    #[test]
    fn maps_and_durations_fall_back_to_the_tree() {
        let mut m = HashMap::new();
        for k in ["zeta", "alpha", "mid", "beta"] {
            m.insert(k.to_string(), k.len());
        }
        assert_eq!(check(&m), r#"{"alpha":5,"beta":4,"mid":3,"zeta":4}"#);
        assert_eq!(check(&HashMap::<String, u8>::new()), "{}");
        let b: BTreeMap<String, Vec<u8>> = [("k\"".to_string(), vec![1])].into();
        check(&b);
        assert_eq!(check(&Duration::new(5, 7)), r#"{"secs":5,"nanos":7}"#);
        check(&Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::Null, Value::I64(-4)])),
            ("b".into(), Value::Map(vec![])),
        ]));
    }

    #[derive(Serialize)]
    struct Unit;

    #[derive(Serialize)]
    struct Newtype(String);

    #[derive(Serialize)]
    struct Pair(u8, i32);

    #[derive(Serialize)]
    struct EmptyTuple();

    #[derive(Serialize)]
    struct Named {
        a: u8,
        b: Option<String>,
        c: Vec<f64>,
        d: Pair,
    }

    #[derive(Serialize)]
    struct EmptyNamed {}

    #[derive(Serialize)]
    enum Shape {
        Unit,
        Newtype(String),
        Tuple(u8, bool),
        EmptyTuple(),
        Named { x: i64, inner: Named },
        EmptyNamed {},
    }

    #[test]
    fn derived_shapes() {
        let named = || Named {
            a: 1,
            b: Some("q\"".into()),
            c: vec![1.0, 0.25],
            d: Pair(2, -3),
        };
        assert_eq!(check(&Unit), "null");
        assert_eq!(check(&Newtype("n".into())), r#""n""#);
        assert_eq!(check(&Pair(4, -5)), "[4,-5]");
        assert_eq!(check(&EmptyTuple()), "[]");
        assert_eq!(
            check(&named()),
            r#"{"a":1,"b":"q\"","c":[1.0,0.25],"d":[2,-3]}"#
        );
        assert_eq!(check(&EmptyNamed {}), "{}");
        assert_eq!(check(&Shape::Unit), r#""Unit""#);
        assert_eq!(check(&Shape::Newtype("v".into())), r#"{"Newtype":"v"}"#);
        assert_eq!(check(&Shape::Tuple(9, false)), r#"{"Tuple":[9,false]}"#);
        assert_eq!(check(&Shape::EmptyTuple()), r#"{"EmptyTuple":[]}"#);
        assert_eq!(
            check(&Shape::Named {
                x: -7,
                inner: named()
            }),
            r#"{"Named":{"x":-7,"inner":{"a":1,"b":"q\"","c":[1.0,0.25],"d":[2,-3]}}}"#
        );
        assert_eq!(check(&Shape::EmptyNamed {}), r#"{"EmptyNamed":{}}"#);
        check(&vec![Shape::Unit, Shape::EmptyNamed {}]);
    }
}
