//! A minimal JSON document model with a deterministic pretty-printer.
//!
//! The workspace is `std`-only (no serde), so machine-readable output is
//! built from this small value type. Objects preserve **insertion order**,
//! which makes the rendered text a pure function of construction order —
//! the property the `--format json` byte-identity contract rests on.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (rendered without exponent).
    Int(i64),
    /// An unsigned integer (rendered without exponent).
    UInt(u64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a member to an object; on any other variant this is a
    /// logic error and panics.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Obj(members) => members.push((key.into(), value.into())),
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Looks up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string member `key` of an object, or `""` when it is missing or
    /// not a string: the lenient read a report renderer wants.
    pub fn str_member(&self, key: &str) -> &str {
        self.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    /// The elements of the array member `key` of an object, or none when
    /// it is missing or not an array.
    pub fn arr_member(&self, key: &str) -> &[Json] {
        match self.get(key) {
            Some(Json::Arr(items)) => items,
            _ => &[],
        }
    }

    /// Removes a member of an object, returning it if present.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(members) => {
                let i = members.iter().position(|(k, _)| k == key)?;
                Some(members.remove(i).1)
            }
            _ => None,
        }
    }

    /// Parses a JSON text into a [`Json`] value.
    ///
    /// Accepts the subset the renderer emits (null, booleans, integers,
    /// strings, arrays, objects) plus arbitrary inter-token whitespace, so
    /// `Json::parse(&v.render())` round-trips for every value without a
    /// float member. Numbers with a fraction or exponent, trailing input,
    /// and malformed escapes are rejected — this parser feeds the
    /// persistent-store replay path, which must fail closed on anything it
    /// does not fully understand.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] (byte offset + reason) on malformed
    /// input.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }

    /// Renders the value as pretty-printed JSON (2-space indent, `\n`
    /// separators, no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Error from [`Json::parse`]: the byte offset where parsing stopped and
/// what was wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting cap: deeper documents are rejected rather than risking stack
/// exhaustion on adversarial store files.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonParseError {
        JsonParseError { offset: self.pos, reason: reason.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `lit` (used for `null`/`true`/`false`).
    fn literal(&mut self, lit: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("value nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.pos += 1; // '['
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.pos += 1; // '{'
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits in number"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("fractional/exponent numbers are not supported"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if negative {
            let n = text.parse::<i64>().map_err(|_| self.err("integer out of i64 range"))?;
            Ok(Json::Int(n))
        } else {
            let n = text.parse::<u64>().map_err(|_| self.err("integer out of u64 range"))?;
            Ok(Json::UInt(n))
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.pos += 1; // opening quote
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue; // unicode_escape consumed its digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control byte in one slice. Those are
                    // ASCII, so the run ends on a character boundary.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Parses the four hex digits after `\u` (combining surrogate pairs),
    /// leaving `pos` just past the escape.
    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following `\uXXXX` low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
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

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::from(7u64).render(), "7");
        assert_eq!(Json::from("a\"b\\c\nd\u{1}").render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut o = Json::obj();
        o.set("z", 1u64);
        o.set("a", 2u64);
        assert_eq!(o.render(), "{\n  \"z\": 1,\n  \"a\": 2\n}");
        assert_eq!(o.get("a"), Some(&Json::UInt(2)));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn lenient_member_reads() {
        let mut o = Json::obj();
        o.set("s", "text");
        o.set("n", 2u64);
        o.set("list", vec![Json::from("x"), Json::from(1u64)]);
        assert_eq!(o.str_member("s"), "text");
        assert_eq!(o.str_member("n"), "", "a number is not a string");
        assert_eq!(o.arr_member("list").iter().filter_map(Json::as_str).collect::<Vec<_>>(), ["x"]);
        assert!(o.arr_member("s").is_empty() && o.arr_member("missing").is_empty());
    }

    #[test]
    fn nested_pretty_printing() {
        let mut inner = Json::obj();
        inner.set("k", "v");
        let mut o = Json::obj();
        o.set("list", vec![Json::from(1u64), Json::from(2u64)]);
        o.set("empty", Vec::<Json>::new());
        o.set("obj", inner);
        assert_eq!(
            o.render(),
            "{\n  \"list\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"obj\": {\n    \"k\": \"v\"\n  }\n}"
        );
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let mut inner = Json::obj();
        inner.set("k", "v\"with\\escapes\n\u{1}");
        inner.set("n", Json::Int(-42));
        let mut o = Json::obj();
        o.set("list", vec![Json::from(1u64), Json::Null, Json::Bool(false)]);
        o.set("empty_arr", Vec::<Json>::new());
        o.set("empty_obj", Json::obj());
        o.set("big", Json::UInt(u64::MAX));
        o.set("obj", inner);
        let text = o.render();
        assert_eq!(Json::parse(&text).unwrap(), o);
    }

    #[test]
    fn parse_accepts_compact_and_spaced_forms() {
        let v = Json::parse("{\"a\":[1,2],\"b\":null}").unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![Json::UInt(1), Json::UInt(2)])));
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(Json::parse("  [ true , false ]  ").unwrap().render(), "[\n  true,\n  false\n]");
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".to_string()));
        // Surrogate pair for U+1F600.
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".to_string()));
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.5",
            "1e3",
            "[1] extra",
            "\"unending",
            "{1: 2}",
            "\"\\q\"",
            "[01]x",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
        // Integer range edges.
        assert!(Json::parse("18446744073709551616").is_err()); // u64::MAX + 1
        assert!(Json::parse("-9223372036854775809").is_err()); // i64::MIN - 1
        assert_eq!(Json::parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
    }

    #[test]
    fn parse_copies_long_and_multi_byte_strings_whole() {
        let text = "ü€😀 \"quoted\" and \\ back\tslash ".repeat(8);
        let long = "x".repeat(200 * 1024) + &text;
        let mut doc = Json::obj();
        doc.set("text", text.as_str());
        doc.set("long", long.as_str());
        doc.set("keys", vec![Json::from("é"), Json::from("")]);
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.str_member("long").len(), long.len());
    }

    #[test]
    fn parse_depth_cap_rejects_pathological_nesting() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn remove_drops_member() {
        let mut o = Json::obj();
        o.set("keep", 1u64);
        o.set("drop", 2u64);
        assert_eq!(o.remove("drop"), Some(Json::UInt(2)));
        assert_eq!(o.remove("drop"), None);
        assert_eq!(o.render(), "{\n  \"keep\": 1\n}");
    }
}
