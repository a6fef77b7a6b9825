//! Minimal JSON helpers for the telemetry documents.
//!
//! The workspace carries no serde. [`Writer`] is the one place JSON text is
//! assembled — every stats, trace and profile document goes through
//! it, so they all share one compact style, one escaping rule and one
//! `null` policy. The `find_*` helpers read numeric fields back with naive
//! key scans; they are deliberately not a JSON parser — just enough for
//! examples and tests to pull fields out of documents this workspace itself
//! produced.

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Incremental writer for one compact JSON document.
///
/// Values are appended in document order; the writer inserts the commas.
/// Inside an object, call [`key`](Writer::key) before each value:
///
/// ```
/// let doc = widx_obs::json::Writer::document(|w| {
///     w.object(|w| {
///         w.key("keys").u64(7);
///         w.key("mlp").f64(None, 4);
///         w.key("shards").array(|w| _ = w.u64(0).u64(2));
///     });
/// });
/// assert_eq!(doc, r#"{"keys":7,"mlp":null,"shards":[0,2]}"#);
/// ```
#[derive(Debug)]
pub struct Writer {
    out: String,
    /// Whether the next value at this nesting level follows a sibling.
    comma: bool,
}

impl Writer {
    /// Renders one document: `body` writes its single top-level value.
    #[must_use]
    pub fn document(body: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer {
            out: String::new(),
            comma: false,
        };
        body(&mut w);
        w.out
    }

    fn value(&mut self, text: &str) -> &mut Writer {
        if self.comma {
            self.out.push(',');
        }
        self.out.push_str(text);
        self.comma = true;
        self
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.value("");
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Write an object member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.str(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Write `{…}`; `body` writes the members as `key` / value pairs.
    pub fn object(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nested('{', '}', body)
    }

    /// Write `[…]`; `body` writes the elements.
    pub fn array(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nested('[', ']', body)
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.value(&v.to_string())
    }

    /// Write `null`.
    pub fn null(&mut self) -> &mut Writer {
        self.value("null")
    }

    /// Write `true` / `false`.
    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.value(if v { "true" } else { "false" })
    }

    /// Write a string, escaped.
    pub fn str(&mut self, v: &str) -> &mut Writer {
        self.value(&format!("\"{}\"", escape(v)))
    }

    /// Write a float with exactly `decimals` fractional digits. `None`
    /// and non-finite values (which JSON cannot carry) become `null`.
    pub fn f64(&mut self, v: impl Into<Option<f64>>, decimals: usize) -> &mut Writer {
        match v.into().filter(|v| v.is_finite()) {
            Some(v) => self.value(&format!("{v:.decimals$}")),
            None => self.null(),
        }
    }
}

/// Find the first numeric value of `"key"` in `json`.
pub fn find_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = json[at + needle.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Find the first numeric value of `"key"` in `json`, as a `u64`.
///
/// Returns `None` if the value is negative, fractional, or absent.
pub fn find_u64(json: &str, key: &str) -> Option<u64> {
    let v = find_f64(json, key)?;
    if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
        Some(v as u64)
    } else {
        None
    }
}

/// Find the first string value of `"key"` in `json`.
///
/// Returns the raw contents between the quotes — escapes are not
/// decoded, which is fine for the identifier-shaped strings (request
/// kinds, stage names) the telemetry documents carry.
pub fn find_str(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = json[at + needle.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut end = 0;
    let bytes = rest.as_bytes();
    while end < bytes.len() && bytes[end] != b'"' {
        end += if bytes[end] == b'\\' { 2 } else { 1 };
    }
    (end < bytes.len()).then(|| rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn writer_nests_and_places_commas() {
        let text = Writer::document(|w| {
            w.object(|w| {
                w.key("a").u64(1);
                w.key("b").object(|w| {
                    w.key("c").array(|w| {
                        w.u64(2).object(|w| {
                            w.key("d").bool(true);
                        });
                        w.array(|_| {});
                    });
                    w.key("e").null();
                });
                w.key("f").bool(false);
            });
        });
        assert_eq!(
            text,
            r#"{"a":1,"b":{"c":[2,{"d":true},[]],"e":null},"f":false}"#
        );
        assert_eq!(Writer::document(|w| _ = w.object(|_| {})), "{}");
        assert_eq!(Writer::document(|w| _ = w.array(|_| {})), "[]");
    }

    #[test]
    fn writer_escapes_keys_and_strings() {
        let text = Writer::document(|w| {
            w.object(|w| {
                w.key("q\"k").str("a\"b\\c\nd\u{1}");
                w.key("utf8").str("µs → żółć");
            });
        });
        assert_eq!(
            text,
            "{\"q\\\"k\":\"a\\\"b\\\\c\\nd\\u0001\",\"utf8\":\"µs → żółć\"}"
        );
    }

    #[test]
    fn writer_floats_are_fixed_precision_or_null() {
        let text = Writer::document(|w| {
            w.array(|w| {
                w.f64(2.0, 3).f64(1.0 / 3.0, 4).f64(0.96, 1).f64(7.5, 0);
                w.f64(None, 4)
                    .f64(f64::NAN, 1)
                    .f64(f64::INFINITY, 1)
                    .f64(Some(f64::NEG_INFINITY), 1);
            });
        });
        assert_eq!(text, "[2.000,0.3333,1.0,8,null,null,null,null]");
    }

    #[test]
    fn find_helpers_scan_flat_documents() {
        let doc = r#"{"keys": 120, "rate": 3.5, "nested": {"keys": 7}, "neg": -2}"#;
        assert_eq!(find_u64(doc, "keys"), Some(120));
        assert_eq!(find_f64(doc, "rate"), Some(3.5));
        assert_eq!(find_u64(doc, "rate"), None);
        assert_eq!(find_u64(doc, "neg"), None);
        assert_eq!(find_f64(doc, "missing"), None);
    }

    #[test]
    fn find_str_scans_string_fields() {
        let doc = r#"{"kind": "range_scan", "label": "a\"b", "n": 3}"#;
        assert_eq!(find_str(doc, "kind"), Some("range_scan".to_string()));
        assert_eq!(find_str(doc, "label"), Some("a\\\"b".to_string()));
        assert_eq!(find_str(doc, "n"), None);
        assert_eq!(find_str(doc, "missing"), None);
        // An unterminated string has no value, with or without a
        // trailing escape.
        assert_eq!(find_str(r#"{"k": "abc"#, "k"), None);
        assert_eq!(find_str(r#"{"k": "ab\"#, "k"), None);
    }

    #[test]
    fn find_tolerates_whitespace_and_exponents() {
        let doc = "{ \"wall_ms\" :\n 12e2 }";
        assert_eq!(find_f64(doc, "wall_ms"), Some(1200.0));
    }
}
