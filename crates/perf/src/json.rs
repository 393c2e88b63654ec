//! The benchmark's own JSON: a writer for what it emits and a small
//! reader for reading that back (`compare`, `BENCHMARK.json`). No
//! external crate — the workspace builds offline.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite number is written as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array (empty otherwise).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The members, if this is an object (empty otherwise).
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(v) => v,
            _ => &[],
        }
    }

    /// Compact one-line encoding. Numbers print with every digit Rust's
    /// shortest round-trip formatting gives them.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document (what [`Json::encode`] writes, plus
/// whitespace; `\u` escapes outside the BMP are not needed and not
/// handled).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing input at byte {}", p.at))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        self.at += if hit { lit.len() } else { 0 };
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at).copied() {
            Some(b'{') => self
                .seq(b'}', |p| {
                    let Json::Str(k) = p.value()? else {
                        return Err("object key must be a string".into());
                    };
                    p.ws();
                    if !p.eat(":") {
                        return Err(format!("expected ':' at byte {}", p.at));
                    }
                    Ok((k, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let end = self.s[self.at..]
                    .iter()
                    .position(|c| !b"+-.eE0123456789".contains(c));
                let end = self.at + end.unwrap_or(self.s.len() - self.at);
                let tok = std::str::from_utf8(&self.s[self.at..end]).map_err(|e| e.to_string())?;
                self.at = end;
                tok.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad token {tok:?} at byte {}", end - tok.len()))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// `[` or `{` up to `close`, comma-separated `item`s.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            self.ws();
            if self.s.get(self.at) == Some(&close) {
                self.at += 1;
                return Ok(out);
            }
            if !out.is_empty() && !self.eat(",") {
                return Err(format!("expected ',' at byte {}", self.at));
            }
            out.push(item(self)?);
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(&String::from_utf8_lossy(hex), 16)
                                .map_err(|e| e.to_string())?;
                            let ch = char::from_u32(code).ok_or("bad \\u escape")?;
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                            self.at += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_it_writes() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(480.0)),
            ("note", Json::Str("a \"quoted\"\\ line\nnext\u{1}".into())),
            ("empty", Json::Arr(vec![])),
            (
                "metrics",
                Json::obj([(
                    "op_latency_p50_s",
                    Json::obj([
                        ("value", Json::Num(0.012_345_678_9)),
                        ("unit", Json::Str("s".into())),
                    ]),
                )]),
            ),
            ("none", Json::Null),
            ("tiny", Json::Num(1.5e-9)),
        ]);
        let text = doc.encode();
        assert!(!text.contains('\n'), "one line");
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("op_latency_p50_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::num),
            Some(0.012_345_678_9)
        );
    }

    #[test]
    fn non_finite_numbers_become_null_and_garbage_is_refused() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\": tru}").is_err());
        assert!(parse("1 1").is_err());
        assert_eq!(parse(" [1, -2.5e3, \"x\"] ").unwrap().items().len(), 3);
    }
}
