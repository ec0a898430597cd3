//! A minimal JSON reader, the two writers every report uses, and a
//! declarative schema checker.
//!
//! The offline build has no JSON dependency. All sampsim JSON is produced
//! by hand-assembled writers, which render floats with [`number`] and
//! strings with [`string`]. The reader parses the full JSON grammar into
//! a [`Value`] tree: `sampsim serve` parses requests arriving over TCP
//! with it, and [`validate`] checks every report the CLI emits against a
//! [`Schema`] declared beside the report's writer. It is not a serde
//! replacement: numbers are `f64` and objects keep insertion order.
//!
//! Because the server feeds it *untrusted network input*, the parser is
//! hardened beyond what the trusted report-validation path needs:
//!
//! * nesting is capped at [`MAX_DEPTH`] levels (a recursive-descent parser
//!   must bound recursion or a hostile `[[[[…` overflows the stack),
//! * anything after the top-level value except whitespace is rejected,
//! * `\uD800`–`\uDFFF` escapes must form a valid surrogate pair, which is
//!   decoded to the real code point; lone surrogates are an error rather
//!   than a silent U+FFFD.

use std::fmt;

/// Maximum container nesting the parser accepts. Documents deeper than
/// this fail with a [`JsonError`] instead of recursing unboundedly.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (one value plus trailing whitespace).
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Bounds container recursion. Errors abort the whole parse, so the
    /// matching decrement only happens on success paths.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so slicing on
                    // the next boundary is safe).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\u` escape (the `\u` itself already
    /// consumed).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Decodes one `\u` escape, pairing UTF-16 surrogates into the real
    /// code point. Lone or inverted surrogates are rejected — untrusted
    /// input must not smuggle replacement characters past a schema check.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        match code {
            0xD800..=0xDBFF => {
                if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(self.err("high surrogate not followed by a low surrogate"));
                    }
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    Ok(char::from_u32(combined).expect("paired surrogates form a valid scalar"))
                } else {
                    Err(self.err("unpaired high surrogate"))
                }
            }
            0xDC00..=0xDFFF => Err(self.err("unpaired low surrogate")),
            _ => Ok(char::from_u32(code).expect("non-surrogate BMP code point")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

/// Renders a float the way every sampsim writer does: Rust's shortest
/// round-trip `{:?}` form, so the text is the exact bit pattern, and
/// `null` for NaN and the infinities (JSON has no spelling for them).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Renders `s` as a JSON string literal, quotes included (RFC 8259
/// escaping: `"`, `\`, and control characters, with the short forms for
/// newline, carriage return and tab).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A declarative document schema: a `const` tree of fields, types and
/// bounds, checked by [`validate`]. It has exactly the variants the
/// sampsim reports need. Every number must be finite.
#[derive(Debug)]
pub enum Schema {
    /// Any string.
    Str,
    /// A string other than `""`.
    NonEmptyStr,
    /// Exactly this string: a schema tag or a `kind` discriminant.
    Tag(&'static str),
    /// One string out of a fixed set.
    OneOf(&'static [&'static str]),
    /// `true` or `false`.
    Bool,
    /// Any number.
    Num,
    /// A number at or above the bound.
    AtLeast(f64),
    /// A number strictly above the bound.
    Above(f64),
    /// `null`, or a value matching the inner schema.
    OrNull(&'static Schema),
    /// `Array(item, min_len)`: at least `min_len` elements, each an `item`.
    Array(&'static Schema, usize),
    /// An object with exactly these fields, in this document order.
    Object(&'static [(&'static str, Schema)]),
    /// An object mapping any names to numbers.
    NumMap,
    /// An object whose `"kind"` picks one of these [`Schema::Object`]
    /// variants, each declaring `("kind", Tag(..))` as its first field.
    Tagged(&'static [Schema]),
    /// `Keyed(key, names, item)`: an array of `item` objects whose string
    /// field `key` takes every value in `names` exactly once, and no other.
    Keyed(&'static str, &'static [&'static str], &'static Schema),
}

/// Parses `text` and checks the document against `schema`.
///
/// # Errors
///
/// Returns the parse error, or every schema violation joined by `"; "`.
/// Each violation names its path, as in
/// `strategies[2].cpi.mean: missing or not a number`.
pub fn validate(text: &str, schema: &Schema) -> Result<(), String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let mut errors = Vec::new();
    schema.check(Some(&doc), "", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

fn child(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn fail(errors: &mut Vec<String>, path: &str, what: impl fmt::Display) {
    let at = if path.is_empty() { "document" } else { path };
    errors.push(format!("{at}: {what}"));
}

impl Schema {
    /// The `kind` tag of a [`Schema::Tagged`] variant.
    fn kind_tag(&self) -> Option<&'static str> {
        match self {
            Schema::Object([("kind", Schema::Tag(tag)), ..]) => Some(tag),
            _ => None,
        }
    }

    /// Checks `value` (`None` when the field is absent) at `path`,
    /// appending every violation to `errors`.
    fn check(&self, value: Option<&Value>, path: &str, errors: &mut Vec<String>) {
        use Schema::*;
        match (self, value) {
            (Str | NonEmptyStr | Tag(_) | OneOf(_), Some(Value::String(s))) => match self {
                NonEmptyStr if s.is_empty() => fail(errors, path, "must not be empty"),
                Tag(tag) if s != tag => fail(errors, path, format!("expected {tag:?}, got {s:?}")),
                OneOf(set) if !set.contains(&s.as_str()) => {
                    fail(errors, path, format!("{s:?} is not one of {set:?}"));
                }
                _ => {}
            },
            (Str | NonEmptyStr | Tag(_) | OneOf(_), _) => {
                fail(errors, path, "missing or not a string");
            }
            (Bool, Some(Value::Bool(_))) | (OrNull(_), Some(Value::Null)) => {}
            (Bool, _) => fail(errors, path, "missing or not a boolean"),
            (Num | AtLeast(_) | Above(_), Some(&Value::Number(n))) if n.is_finite() => match self {
                AtLeast(min) if n < *min => {
                    fail(errors, path, format!("must be >= {min}, got {n}"))
                }
                Above(min) if n <= *min => fail(errors, path, format!("must be > {min}, got {n}")),
                _ => {}
            },
            (Num | AtLeast(_) | Above(_), _) => fail(errors, path, "missing or not a number"),
            (OrNull(inner), _) => inner.check(value, path, errors),
            (Array(item, min_len), Some(Value::Array(items))) => {
                if items.len() < *min_len {
                    fail(errors, path, format!("needs at least {min_len} element(s)"));
                }
                for (i, v) in items.iter().enumerate() {
                    item.check(Some(v), &format!("{path}[{i}]"), errors);
                }
            }
            (Object(fields), Some(Value::Object(present))) => {
                for (key, schema) in *fields {
                    schema.check(value.and_then(|v| v.get(key)), &child(path, key), errors);
                }
                let keys: Vec<&str> = present.iter().map(|(k, _)| k.as_str()).collect();
                let declared: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
                if keys != declared {
                    let what = format!("has fields {keys:?}, expected {declared:?}");
                    fail(errors, path, what);
                }
            }
            (NumMap, Some(Value::Object(present))) => {
                for (key, v) in present {
                    Num.check(Some(v), &child(path, key), errors);
                }
            }
            (Tagged(variants), _) => {
                let kind = value.and_then(|v| v.get("kind")).and_then(Value::as_str);
                match variants
                    .iter()
                    .find(|v| v.kind_tag().is_some_and(|t| Some(t) == kind))
                {
                    Some(variant) => variant.check(value, path, errors),
                    None => {
                        let tags: Vec<_> = variants.iter().filter_map(Schema::kind_tag).collect();
                        let got = kind.map_or("missing".to_string(), |k| format!("{k:?}"));
                        let what = format!("{got} is not one of {tags:?}");
                        fail(errors, &child(path, "kind"), what);
                    }
                }
            }
            (Keyed(key, names, item), Some(Value::Array(items))) => {
                let mut seen = Vec::with_capacity(names.len());
                for (i, v) in items.iter().enumerate() {
                    let at = format!("{path}[{i}]");
                    item.check(Some(v), &at, errors);
                    match v.get(key).and_then(Value::as_str) {
                        Some(name) if !names.contains(&name) => {
                            let what = format!("{name:?} is not one of {names:?}");
                            fail(errors, &child(&at, key), what);
                        }
                        Some(name) if seen.contains(&name) => {
                            fail(errors, &child(&at, key), format!("{name:?} appears twice"));
                        }
                        Some(name) => seen.push(name),
                        None => {}
                    }
                }
                for name in names.iter().filter(|n| !seen.contains(n)) {
                    fail(errors, path, format!("{name:?} is missing"));
                }
            }
            (Array(..) | Keyed(..), _) => fail(errors, path, "missing or not an array"),
            (Object(_) | NumMap, _) => fail(errors, path, "missing or not an object"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}, "x"], "c": {"d": 2.5}}"#).unwrap();
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(2.5));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b"), Some(&Value::Null));
        assert_eq!(arr[2].as_str(), Some("x"));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\n\t\"\\Aü""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aü"));
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pairs_decode_to_the_real_code_point() {
        // U+1D11E MUSICAL SYMBOL G CLEF as a UTF-16 surrogate pair.
        assert_eq!(parse(r#""𝄞""#).unwrap().as_str(), Some("𝄞"));
        // Lowercase hex digits are fine too.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn lone_surrogates_are_rejected_not_replaced() {
        for bad in [
            r#""\uD834""#,       // high surrogate at end of string
            r#""\uD834x""#,      // high surrogate followed by a literal
            r#""\uD834\n""#,     // high surrogate followed by another escape
            r#""\uDD1E""#,       // low surrogate first
            r#""\uD834\uD834""#, // two high surrogates
            r#""\uD834A""#,      // high surrogate + trailing hex-looking literal
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn depth_limit_bounds_recursion() {
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count against the same budget, and a hostile prefix with
        // no closers at all must fail too (the overflow happens on the way
        // down, before any closer is reached).
        let bomb = "[{\"k\":".repeat(MAX_DEPTH);
        assert!(parse(&bomb).unwrap_err().message.contains("nesting"));
        // Sibling containers do not accumulate depth.
        let wide = format!("[{}0]", "[1],".repeat(1_000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for bad in ["{} {}", "1 1", "null,", "[1] x", "\"a\"\"b\"", "{}\u{0}"] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("trailing"), "{bad:?}: {err}");
        }
        // Trailing whitespace (including newlines) is fine.
        assert!(parse("{}  \n\t\r\n").is_ok());
    }

    #[test]
    fn object_preserves_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match v {
            Value::Object(fields) => {
                assert_eq!(fields[0].0, "z");
                assert_eq!(fields[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"unterminated",
            "{'a': 1}",
            "[1,]nope",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        let err = parse("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn roundtrips_cli_style_floats() {
        // The CLI prints floats with Rust's shortest-round-trip `{:?}`.
        let v = parse("[0.028541666666666667, 1e-12, 100.0]").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(0.028541666666666667));
        assert_eq!(arr[1].as_f64(), Some(1e-12));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn writers_render_numbers_and_escape_strings() {
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(100.0), "100.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
        assert_eq!(
            string("a\"b\\c\nd\te\r\u{1}"),
            "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\""
        );
        assert_eq!(string("505.mcf_r"), "\"505.mcf_r\"");
        let tricky = "q\"\\\u{0}\u{1f}é𝄞";
        assert_eq!(parse(&string(tricky)).unwrap().as_str(), Some(tricky));
    }

    const ROW: Schema = {
        use Schema::*;
        Object(&[
            ("name", Str),
            ("n", AtLeast(1.0)),
            ("w", OrNull(&Above(0.0))),
        ])
    };
    const DOC: Schema = {
        use Schema::*;
        Object(&[
            ("schema", Tag("t/v1")),
            ("mode", OneOf(&["a", "b"])),
            ("ok", Bool),
            ("rows", Keyed("name", &["x", "y"], &ROW)),
            ("grid", Array(&Num, 1)),
            ("details", NumMap),
            (
                "at",
                Tagged(&[
                    Object(&[("kind", Tag("file")), ("path", NonEmptyStr)]),
                    Object(&[("kind", Tag("none"))]),
                ]),
            ),
        ])
    };
    const GOOD: &str = r#"{"schema":"t/v1","mode":"a","ok":true,
        "rows":[{"name":"y","n":1,"w":null},{"name":"x","n":2.5,"w":0.5}],
        "grid":[1,-2.0],"details":{"k":3},"at":{"kind":"file","path":"p"}}"#;

    fn violation(doc: &str) -> String {
        validate(doc, &DOC).unwrap_err()
    }

    #[test]
    fn schema_accepts_a_conforming_document() {
        validate(GOOD, &DOC).unwrap();
        let other_kind = GOOD.replace(r#"{"kind":"file","path":"p"}"#, r#"{"kind":"none"}"#);
        validate(&other_kind, &DOC).unwrap();
    }

    #[test]
    fn schema_violations_name_their_path() {
        for (from, to, expect) in [
            ("t/v1", "t/v0", r#"schema: expected "t/v1", got "t/v0""#),
            (r#""a""#, r#""c""#, r#"mode: "c" is not one of ["a", "b"]"#),
            ("true", "1", "ok: missing or not a boolean"),
            (r#""n":2.5"#, r#""n":0"#, "rows[1].n: must be >= 1, got 0"),
            (
                r#""n":2.5"#,
                r#""n":"2""#,
                "rows[1].n: missing or not a number",
            ),
            (r#""w":0.5"#, r#""w":0"#, "rows[1].w: must be > 0, got 0"),
            ("[1,-2.0]", "[1,\"x\"]", "grid[1]: missing or not a number"),
            ("[1,-2.0]", "[]", "grid: needs at least 1 element(s)"),
            (
                r#""k":3"#,
                r#""k":null"#,
                "details.k: missing or not a number",
            ),
            (
                r#""path":"p""#,
                r#""path":"""#,
                "at.path: must not be empty",
            ),
            (
                r#""kind":"file""#,
                r#""kind":"dir""#,
                r#"at.kind: "dir" is not one of ["file", "none"]"#,
            ),
            (
                r#""name":"x""#,
                r#""name":"y""#,
                r#"rows[1].name: "y" appears twice"#,
            ),
            (
                r#""name":"x""#,
                r#""name":"z""#,
                r#"rows[1].name: "z" is not one of ["x", "y"]"#,
            ),
            (r#","w":0.5"#, "", "rows[1].w: missing or not a number"),
            (
                r#""ok":true,"#,
                r#""ok":true,"x":1,"#,
                r#""ok", "x", "rows""#,
            ),
        ] {
            assert!(GOOD.contains(from), "{from}");
            let err = violation(&GOOD.replacen(from, to, 1));
            assert!(err.contains(expect), "{from} -> {to}: {err}");
        }
        assert!(violation(r#"[]"#).contains("document: missing or not an object"));
        assert!(violation("{").starts_with("not valid JSON"));
    }

    #[test]
    fn schema_objects_are_closed_and_ordered() {
        let swapped = GOOD.replace(r#""mode":"a","ok":true"#, r#""ok":true,"mode":"a""#);
        assert!(violation(&swapped).contains(r#"document: has fields ["schema", "ok", "mode","#));
        let repeated = GOOD.replace(r#""path":"p""#, r#""path":"p","path":"p""#);
        let err = violation(&repeated);
        assert!(
            err.contains(r#"at: has fields ["kind", "path", "path"]"#),
            "{err}"
        );
        // A dropped keyed row is named, and every violation is reported.
        let dropped = GOOD.replace(r#",{"name":"x","n":2.5,"w":0.5}"#, "");
        let err = violation(&dropped.replace("\"a\"", "\"c\""));
        assert!(err.contains(r#"rows: "x" is missing"#), "{err}");
        assert!(err.contains("mode:"), "{err}");
    }
}

/// Seeded property tests on the untrusted-input hardening, driven by the
/// in-repo [`crate::prop`] harness.
#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::prop::{run_cases, Gen};
    use std::fmt::Write;

    /// Renders a [`Value`] back to JSON text (floats via `{:?}`, the
    /// shortest round-trip form all sampsim writers use).
    fn render(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Number(n) => {
                let _ = write!(out, "{n:?}");
            }
            Value::String(s) => out.push_str(&string(s)),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(item, out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&string(k));
                    out.push(':');
                    render(val, out);
                }
                out.push('}');
            }
        }
    }

    /// A random scalar-or-container tree of bounded depth.
    fn arb_value(g: &mut Gen, depth: usize) -> Value {
        let pick = g.usize_in(0..if depth == 0 { 4 } else { 6 });
        match pick {
            0 => Value::Null,
            1 => Value::Bool(g.chance(0.5)),
            // Integral and fractional numbers; `{:?}` round-trips both.
            2 => Value::Number(g.f64_in(-1e9..1e9)),
            3 => Value::String(arb_string(g)),
            4 => Value::Array(g.vec_of(0..4, |g| arb_value(g, depth - 1))),
            _ => Value::Object(g.vec_of(0..4, |g| (arb_string(g), arb_value(g, depth - 1)))),
        }
    }

    fn arb_string(g: &mut Gen) -> String {
        let v = g.vec_of(0..8, |g| match g.usize_in(0..5) {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => char::from_u32(g.u64_in(0x20..0x7F) as u32).unwrap(),
            // Astral-plane characters exercise the surrogate-pair path
            // when escaped and the raw UTF-8 path when not.
            _ => char::from_u32(g.u64_in(0x1_0000..0x1_1000) as u32).unwrap(),
        });
        v.into_iter().collect()
    }

    #[test]
    fn arbitrary_documents_roundtrip() {
        run_cases("json-roundtrip", 128, |g| {
            let v = arb_value(g, 3);
            let mut text = String::new();
            render(&v, &mut text);
            let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, v, "{text}");
        });
    }

    #[test]
    fn escaped_astral_code_points_roundtrip_via_surrogate_pairs() {
        run_cases("json-surrogate-pairs", 128, |g| {
            let code = g.u64_in(0x1_0000..0x11_0000) as u32;
            let c = char::from_u32(code).expect("astral scalar");
            let units: Vec<u16> = c.encode_utf16(&mut [0u16; 2]).to_vec();
            let text = format!("\"\\u{:04x}\\u{:04x}\"", units[0], units[1]);
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed.as_str(), Some(c.to_string().as_str()), "{text}");
            // The same pair in the wrong order must be rejected.
            let swapped = format!("\"\\u{:04x}\\u{:04x}\"", units[1], units[0]);
            assert!(parse(&swapped).is_err(), "{swapped}");
        });
    }

    #[test]
    fn random_depths_respect_the_limit() {
        run_cases("json-depth-limit", 32, |g| {
            let n = g.usize_in(1..2 * MAX_DEPTH);
            let doc = format!("{}1{}", "[".repeat(n), "]".repeat(n));
            assert_eq!(parse(&doc).is_ok(), n <= MAX_DEPTH, "depth {n}");
        });
    }

    #[test]
    fn random_trailing_garbage_is_rejected() {
        run_cases("json-trailing-garbage", 64, |g| {
            let v = arb_value(g, 2);
            let mut text = String::new();
            render(&v, &mut text);
            let garbage = match g.usize_in(0..4) {
                0 => "x",
                1 => "{}",
                2 => "]",
                _ => "\u{1}",
            };
            let doc = format!("{text} {garbage}");
            assert!(parse(&doc).is_err(), "{doc:?}");
        });
    }
}
