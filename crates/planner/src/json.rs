//! A minimal JSON value, parser, and renderer.
//!
//! The workspace is offline-only (vendored deps, no `serde`), so the wire
//! protocol of the serving layer ([`crate::wire`]) hand-rolls its JSON. The
//! implementation is deliberately small: it supports exactly the JSON the
//! wire format emits — objects, arrays, strings, numbers, booleans, and
//! null — with integers kept exact ([`Json::Int`]) so `i64` literals and
//! rids survive a round trip without going through `f64`.
//!
//! Rid lists make most of the bytes on the wire, so plain integers take a
//! fast path both ways. The parser reads an optional `-` and at most 18
//! digits straight into an `i64` (18 digits cannot overflow), and its array
//! loop tries that before any whitespace skipping or value dispatch; every
//! other number — fractions, exponents, 19 or more digits — goes through the
//! general number path. The renderer writes an `i64` with a digit loop, not
//! through `fmt`. Both paths give the same values and bytes as the general
//! ones.
//!
//! A wide reply's rids never become [`Json`] nodes at all. [`parse_reply`]
//! is [`parse`] with one lifted slot: the first `"rids"` key directly inside
//! the top-level `"result"` object is read by a compact loop straight into a
//! `Vec<u32>`, and the slot in the tree is left an empty array. The loop
//! takes only `[` digits `,` digits … `]` with no whitespace, at most 10
//! digits and at most `u32::MAX` per element; on anything else it rewinds
//! to the `[` and the general path parses the array as [`parse`] would. The
//! rest of the body is parsed in full either way, so the lifted parse
//! accepts and rejects exactly what [`parse`] does. On the writing side,
//! [`render_u32_array`] writes the same text as rendering the array of
//! [`Json::Int`]s.
//!
//! Containers nest at most [`MAX_DEPTH`] deep. The parser recurses once per
//! level, and a deeper document is a typed parse error instead of a stack
//! overflow, which would abort the whole process.

use std::fmt::Write as _;

use smoke_core::EngineError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that lexes as an integer (no `.`/`e`), kept exact.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved (insertion order), which keeps
    /// rendering deterministic — the cache keys of [`crate::wire`] depend on
    /// that.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the value of a key out of an object, leaving `null` in its
    /// place; `None` for missing keys or non-objects. Like [`Json::get`], it
    /// reads the first matching key.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if it is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders the value as compact JSON text. Non-finite floats render as
    /// `null` (JSON has no representation for them).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends [`Json::render`]'s text to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => render_int(*i, out),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `n` in decimal at the end of `digits` and returns where the
/// digits start.
fn decimal(mut n: u64, digits: &mut [u8; 20]) -> usize {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return at;
        }
    }
}

/// Writes `i` in decimal: the bytes `format!("{i}")` produces, without the
/// formatting machinery.
fn render_int(i: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let at = decimal(i.unsigned_abs(), &mut digits);
    if i < 0 {
        out.push('-');
    }
    if let Ok(text) = std::str::from_utf8(&digits[at..]) {
        out.push_str(text);
    }
}

/// Appends the text of an array of `items` as [`Json::Int`]s — what
/// rendering that [`Json::Arr`] gives — without building it. The digits go
/// into the string's bytes directly, and the one UTF-8 check at the end
/// costs less than a `str` per element.
pub fn render_u32_array(items: &[u32], out: &mut String) {
    let mut bytes = std::mem::take(out).into_bytes();
    bytes.reserve(2 + 11 * items.len());
    bytes.push(b'[');
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            bytes.push(b',');
        }
        let mut digits = [0u8; 20];
        let at = decimal(u64::from(item), &mut digits);
        bytes.extend_from_slice(&digits[at..]);
    }
    bytes.push(b']');
    // Only ASCII was appended to a `String`'s bytes, so the check passes.
    *out = String::from_utf8(bytes)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deep arrays and objects may nest. A 200-term conjunction nests about
/// 400 levels (an object and an array per `and`). The decoders downstream of
/// the parser recurse once per level too, and must fit a server session's
/// stack at this depth.
pub const MAX_DEPTH: usize = 512;

/// Digits a plain integer may have to take the fast path: any 18-digit
/// number is below `i64::MAX`, so accumulating it cannot overflow.
const FAST_INT_DIGITS: usize = 18;

/// Parses JSON text into a [`Json`] value. Trailing non-whitespace is an
/// error, as is any malformed construct or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, EngineError> {
    Parser::new(text, Lift::Off).document()
}

/// Parses a reply body like [`parse`], but reads the rid list of a result
/// straight into a `Vec<u32>`, with no [`Json`] node per rid.
///
/// The lifted slot is the first `"rids"` key directly inside the first
/// `"result"` key of the top-level object — the array
/// `v.get("result")?.get("rids")` finds. When its array is compact
/// (`[` digits `,` digits … `]`, no whitespace, at most 10 digits and at
/// most `u32::MAX` per element), the vector comes back as `Some` and the slot
/// in the tree holds an empty array. Any other spelling — whitespace,
/// signs, fractions, exponents, longer or larger numbers, a non-array — is
/// parsed into the tree as [`parse`] does, and the vector is `None`. The
/// rest of the document is parsed in full either way, so a body is
/// accepted exactly when [`parse`] accepts it.
pub fn parse_reply(text: &str) -> Result<(Json, Option<Vec<u32>>), EngineError> {
    let mut p = Parser::new(text, Lift::Result);
    let value = p.document()?;
    Ok((value, p.lifted))
}

/// Where the parser is in its search for the one slot [`parse_reply`]
/// lifts out of the tree.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lift {
    /// Not searching: plain [`parse`], or the slot was found or passed.
    Off,
    /// Looking for the top-level object's first `"result"` key.
    Result,
    /// Inside that key's object, looking for its first `"rids"` key.
    Rids,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    lift: Lift,
    lifted: Option<Vec<u32>>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, lift: Lift) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            lift,
            lifted: None,
        }
    }

    /// Parses the whole input as one value with nothing after it.
    fn document(&mut self) -> Result<Json, EngineError> {
        self.skip_ws();
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn err(&self, msg: &str) -> EngineError {
        EngineError::InvalidPlan(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), EngineError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, EngineError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Parses one value with `depth` containers open around it.
    fn value(&mut self, depth: usize) -> Result<Json, EngineError> {
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => match self.int() {
                Some(i) => Ok(Json::Int(i)),
                None => self.number(),
            },
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn open(&mut self, bracket: u8, depth: usize) -> Result<(), EngineError> {
        if depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.eat(bracket)
    }

    fn object(&mut self, depth: usize) -> Result<Json, EngineError> {
        self.open(b'{', depth)?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = if self.lift == Lift::Off {
                self.value(depth)?
            } else {
                self.member(&key, depth)?
            };
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// Parses the value of `key` in an object at `depth` while
    /// [`parse_reply`] still searches for its slot. The top-level object is
    /// at depth 1 and the result object at depth 2; only the first matching
    /// key at each level moves the search on, as [`Json::get`] reads only
    /// the first.
    fn member(&mut self, key: &str, depth: usize) -> Result<Json, EngineError> {
        match (self.lift, depth, key) {
            (Lift::Result, 1, "result") => {
                // Only an object here puts a key at depth 2 before the
                // search is switched off again.
                self.lift = Lift::Rids;
                let value = self.value(depth);
                self.lift = Lift::Off;
                value
            }
            (Lift::Rids, 2, "rids") => {
                self.lift = Lift::Off;
                match self.u32_array() {
                    Some(rids) => {
                        self.lifted = Some(rids);
                        Ok(Json::Arr(Vec::new()))
                    }
                    None => self.value(depth),
                }
            }
            _ => self.value(depth),
        }
    }

    /// Reads a compact array of `u32`s — `[`, then digits separated by `,`
    /// with no whitespace, then `]` — where each element has at most 10
    /// digits and is at most `u32::MAX`. Anything else leaves the position
    /// untouched and returns `None` for the general path to parse.
    fn u32_array(&mut self) -> Option<Vec<u32>> {
        let rest = self.bytes.get(self.pos..)?;
        let [b'[', body @ ..] = rest else {
            return None;
        };
        if body.first() == Some(&b']') {
            self.pos += 2;
            return Some(Vec::new());
        }
        let mut out = Vec::new();
        let mut at = 0;
        loop {
            let mut value = 0u64;
            let mut len = 0;
            while let Some(&b) = body.get(at + len) {
                if !b.is_ascii_digit() {
                    break;
                }
                if len == 10 {
                    return None;
                }
                value = value * 10 + u64::from(b - b'0');
                len += 1;
            }
            if len == 0 {
                return None;
            }
            out.push(u32::try_from(value).ok()?);
            at += len;
            match body.get(at) {
                Some(b',') => at += 1,
                Some(b']') => {
                    self.pos += at + 2;
                    return Some(out);
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, EngineError> {
        self.open(b'[', depth)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            // Rid lists are compact runs of `int,int,…`: read the integer
            // and the separator before paying for whitespace skipping.
            let item = match self.int() {
                Some(i) => Json::Int(i),
                None => {
                    self.skip_ws();
                    self.value(depth)?
                }
            };
            items.push(item);
            if !matches!(self.peek(), Some(b',' | b']')) {
                self.skip_ws();
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, EngineError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the wire
                            // format; lone surrogates map to the replacement
                            // character rather than failing the frame.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    /// Reads a plain integer in place: an optional `-`, then at most
    /// [`FAST_INT_DIGITS`] ASCII digits, not followed by `.`, `e`, `E`, `+`,
    /// `-` or another digit. Anything else leaves the position untouched and
    /// returns `None` for [`Parser::number`] to read.
    fn int(&mut self) -> Option<i64> {
        let rest = self.bytes.get(self.pos..)?;
        let (negative, digits) = match rest {
            [b'-', tail @ ..] => (true, tail),
            _ => (false, rest),
        };
        let mut value = 0i64;
        let mut len = 0;
        for &b in digits.iter().take(FAST_INT_DIGITS) {
            if !b.is_ascii_digit() {
                break;
            }
            value = value * 10 + i64::from(b - b'0');
            len += 1;
        }
        let ends_number = !matches!(
            digits.get(len),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        );
        if len == 0 || !ends_number {
            return None;
        }
        self.pos += usize::from(negative) + len;
        Some(if negative { -value } else { value })
    }

    fn number(&mut self) -> Result<Json, EngineError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-ascii number"))?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a":[1,-2.5,"x\"y",true,null],"b":{"c":9007199254740993}}"#;
        let parsed = parse(text).unwrap();
        // i64 beyond 2^53 survives exactly because integers never pass
        // through f64.
        assert_eq!(
            parsed.get("b").unwrap().get("c").unwrap().as_i64(),
            Some(9007199254740993)
        );
        let rendered = parsed.render();
        assert_eq!(parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "12 34", "tru", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escapes_and_unescapes_control_characters() {
        let v = Json::Str("a\n\t\"\\\u{1}b".to_string());
        let rendered = v.render();
        assert_eq!(rendered, "\"a\\n\\t\\\"\\\\\\u0001b\"");
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Json::Str("héllo ∀x π".to_string());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn accessors_distinguish_types() {
        let v = parse(r#"{"n":3,"f":1.5,"s":"x","b":false,"a":[],"z":null}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("f").unwrap().as_i64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_arr(), Some(&[][..]));
        assert!(v.get("z").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
