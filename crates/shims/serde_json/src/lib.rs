//! Offline shim for `serde_json`.
//!
//! Drives the shim `serde` crate's streaming [`Writer`] and [`Reader`]:
//! `to_string`/`to_string_pretty` write a value's JSON directly and
//! `from_str` reads it directly, with no intermediate tree. [`Value`] is
//! a parsed document for callers that want one, with `as_*` accessors
//! and indexing; [`Error`] and [`Result`] complete the API surface this
//! workspace uses.

use serde::{Deserialize, Reader, Serialize, Writer};

pub use serde::Error;

/// A parsed JSON document (the serde shim's [`serde::Content`]).
pub type Value = serde::Content;

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::compact();
    value.write_json(&mut w);
    Ok(w.into_string())
}

/// Serialize a value to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::pretty();
    value.write_json(&mut w);
    Ok(w.into_string())
}

/// Deserialize a value from JSON text. Errors end in `at byte N`.
pub fn from_str<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T> {
    let mut r = Reader::new(s);
    let value = T::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reader's nesting limit (upstream serde_json's default).
    const MAX_DEPTH: usize = 128;

    #[test]
    fn nesting_is_limited_to_128_levels() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
        // Far past the limit: a typed error, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
    }

    #[test]
    fn roundtrip_document() {
        let text = r#"{"a": [1, -2, 3.5], "b": {"c": "x\ny"}, "d": null, "e": true}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_i64(), Some(-2));
        assert_eq!(v["a"][2].as_f64(), Some(3.5));
        assert_eq!(v["b"]["c"].as_str(), Some("x\ny"));
        assert!(v["d"].is_null());
        assert_eq!(v["e"].as_bool(), Some(true));
        let rendered = to_string(&v).unwrap();
        let v2: Value = from_str(&rendered).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn skip_serializing_if_omits_key_and_default_restores_it() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Opt {
            a: u64,
            #[serde(skip_serializing_if = "Option::is_none", default)]
            b: Option<u64>,
        }

        let none = Opt { a: 1, b: None };
        let json = to_string(&none).unwrap();
        assert_eq!(json, r#"{"a":1}"#);
        let back: Opt = from_str(&json).unwrap();
        assert_eq!(back, none);

        let some = Opt { a: 1, b: Some(2) };
        let json = to_string(&some).unwrap();
        assert_eq!(json, r#"{"a":1,"b":2}"#);
        let back: Opt = from_str(&json).unwrap();
        assert_eq!(back, some);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v: Value = from_str(r#"{"k": [1, 2], "s": "q\"uote"}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }
}
