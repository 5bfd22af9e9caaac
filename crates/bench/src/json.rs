//! Minimal recursive-descent JSON parser for the outputs that cannot be
//! gated byte for byte.
//!
//! The virtual-time ledgers (`BENCH_perf/scale/fabric/fault.json`) need
//! no reader: they are deterministic, so `crates/bench/tests/ledgers.rs`
//! regenerates them and compares bytes. This parser serves the two outputs that vary per
//! run or per host: `trace_report`'s structural check of its Perfetto
//! traces, and the crypto bench's `--check` of the wall-clock
//! `BENCH_crypto.json`. Deliberately small: no escapes in strings (the
//! emitters never produce them), no maps — an object keeps its fields
//! in emission order as a `Vec`.

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the reports only emit integers and
    /// short decimals, well inside exact range).
    Num(f64),
    /// A string without escapes.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in emission order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first match, emission order).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }
    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }
    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }
    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'"' {
            if self.b[self.i] == b'\\' {
                return Err("escapes unsupported in report strings".into());
            }
            self.i += 1;
        }
        let s = String::from_utf8(self.b[start..self.i].to_vec())
            .map_err(|_| "non-utf8 string".to_string())?;
        self.eat(b'"')?;
        Ok(s)
    }
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("bad array at byte {}", self.i)),
            }
        }
    }
    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            out.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("bad object at byte {}", self.i)),
            }
        }
    }
}

/// Parses a complete JSON document (trailing garbage is an error).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_report_shapes() {
        let j = parse_json(r#"{"bench": "x", "cells": [{"a": 1, "b": -2.5}, null, true]}"#)
            .expect("valid");
        assert_eq!(j.get("bench").and_then(Json::as_str), Some("x"));
        let cells = j.get("cells").and_then(Json::as_arr).expect("array");
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].get("a").and_then(Json::as_num), Some(1.0));
        assert_eq!(cells[0].get("b").and_then(Json::as_num), Some(-2.5));
        assert_eq!(cells[1], Json::Null);
        assert_eq!(cells[2], Json::Bool(true));
    }

    #[test]
    fn objects_preserve_emission_order() {
        let Json::Obj(fields) = parse_json(r#"{"z": 1, "a": 2}"#).expect("valid") else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"], "key order is evidence, not noise");
    }

    #[test]
    fn rejects_trailing_garbage_and_escapes() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json(r#""a\nb""#).is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("").is_err());
    }
}
