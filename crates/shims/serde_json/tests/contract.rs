//! The JSON writer and reader contract the derived types rely on: exact
//! bytes, compact and pretty; escapes and number edges; how the reader
//! treats field order, duplicate and unknown keys; and its errors.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, to_string_pretty, Value};

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Inner {
    x: u32,
    tags: Vec<String>,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Shape {
    Unit,
    Newtype(u8),
    Pair(u8, i8),
    Named { a: f64, inner: Inner },
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Sparse {
    #[serde(skip_serializing_if = "Option::is_none", default)]
    a: Option<u8>,
    #[serde(skip_serializing_if = "Option::is_none", default)]
    b: Option<u8>,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Doc {
    id: u64,
    shapes: Vec<Shape>,
    sparse: Sparse,
    map: BTreeMap<u8, String>,
}

fn doc() -> Doc {
    Doc {
        id: 7,
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(3),
            Shape::Pair(1, -1),
            Shape::Named {
                a: 2.0,
                inner: Inner { x: 1, tags: vec![] },
            },
        ],
        sparse: Sparse { a: None, b: None },
        map: BTreeMap::from([(2, "b".to_string()), (1, "a".to_string())]),
    }
}

#[test]
fn compact_bytes_are_pinned() {
    let json = to_string(&doc()).unwrap();
    assert_eq!(
        json,
        r#"{"id":7,"shapes":["Unit",{"Newtype":3},{"Pair":[1,-1]},{"Named":{"a":2.0,"inner":{"x":1,"tags":[]}}}],"sparse":{},"map":[[1,"a"],[2,"b"]]}"#
    );
    assert_eq!(from_str::<Doc>(&json).unwrap(), doc());
}

#[test]
fn pretty_bytes_are_pinned() {
    let json = to_string_pretty(&doc()).unwrap();
    let expected = r#"{
  "id": 7,
  "shapes": [
    "Unit",
    {
      "Newtype": 3
    },
    {
      "Pair": [
        1,
        -1
      ]
    },
    {
      "Named": {
        "a": 2.0,
        "inner": {
          "x": 1,
          "tags": []
        }
      }
    }
  ],
  "sparse": {},
  "map": [
    [
      1,
      "a"
    ],
    [
      2,
      "b"
    ]
  ]
}"#;
    assert_eq!(json, expected);
    assert_eq!(from_str::<Doc>(&json).unwrap(), doc());
    assert_eq!(to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
    assert_eq!(
        to_string_pretty(&Sparse { a: None, b: None }).unwrap(),
        "{}"
    );
}

#[test]
fn values_render_with_the_same_writer() {
    let text = r#"{"k":[1,{"e":{}},[]],"s":"x"}"#;
    let v: Value = from_str(text).unwrap();
    assert_eq!(to_string(&v).unwrap(), text);
    assert_eq!(v.to_string(), text);
    assert_eq!(
        to_string_pretty(&v).unwrap(),
        "{\n  \"k\": [\n    1,\n    {\n      \"e\": {}\n    },\n    []\n  ],\n  \"s\": \"x\"\n}"
    );
}

#[test]
fn floats_keep_debug_formatting_and_non_finite_is_null() {
    let floats = [1.0, 0.1, -2.5, 1e-7, 1e21, f64::NAN, f64::INFINITY];
    assert_eq!(
        to_string(&floats).unwrap(),
        "[1.0,0.1,-2.5,1e-7,1e21,null,null]"
    );
    assert_eq!(to_string(&0.1f32).unwrap(), "0.10000000149011612");
}

#[test]
fn string_escapes_round_trip() {
    let s = "q\"b\\n\nr\rt\t\u{1f}\u{8}\u{0}é😀";
    let json = to_string(&s).unwrap();
    assert_eq!(json, "\"q\\\"b\\\\n\\nr\\rt\\t\\u001f\\u0008\\u0000é😀\"");
    assert_eq!(from_str::<String>(&json).unwrap(), s);
    // Escapes the writer never emits: `\/`, `\b`, `\f`, `\u` and a
    // surrogate pair.
    assert_eq!(
        from_str::<String>(r#""\/\b\f\u00e9\ud83d\ude00""#).unwrap(),
        "/\u{8}\u{c}é😀"
    );
    assert!(from_str::<String>(r#""\ud83d""#)
        .unwrap_err()
        .to_string()
        .contains("invalid unicode escape"));
    assert!(from_str::<String>(r#""\x""#)
        .unwrap_err()
        .to_string()
        .contains("invalid escape"));
}

#[test]
fn integer_edges() {
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(from_str::<i8>("-5").unwrap(), -5);
    // An integral float is accepted for an integer field.
    assert_eq!(from_str::<u32>("5.0").unwrap(), 5);
    assert_eq!(from_str::<Value>("5.0").unwrap(), Value::F64(5.0));
    assert_eq!(from_str::<Value>("-0").unwrap(), Value::I64(0));
    let err = |text: &str| from_str::<u8>(text).unwrap_err().to_string();
    assert!(
        err("-1").contains("expected unsigned integer, got -1"),
        "{}",
        err("-1")
    );
    assert!(err("256").contains("out of range for u8"), "{}", err("256"));
    assert!(
        err("1.5").contains("expected unsigned integer"),
        "{}",
        err("1.5")
    );
}

#[test]
fn fields_read_in_any_order_first_duplicate_wins_unknown_skipped() {
    let text = r#"{
        "tags": ["t"],
        "extra": {"deep": [1, {"x": "A"}], "s": "\"}"},
        "x": 1,
        "x": 2,
        "more": null
    }"#;
    let inner: Inner = from_str(text).unwrap();
    assert_eq!(
        inner,
        Inner {
            x: 1,
            tags: vec!["t".to_string()]
        }
    );
    let err = from_str::<Inner>(r#"{"x": 1}"#).unwrap_err().to_string();
    assert!(err.contains("missing field `tags`"), "{err}");
}

#[test]
fn missing_default_field_is_default() {
    #[derive(Deserialize, Debug, PartialEq)]
    struct Versioned {
        id: u8,
        #[serde(default)]
        window: u64,
        #[serde(default)]
        seen: Vec<u8>,
    }
    assert_eq!(
        from_str::<Versioned>(r#"{"id": 1}"#).unwrap(),
        Versioned {
            id: 1,
            window: 0,
            seen: vec![]
        }
    );
}

#[test]
fn unknown_value_past_the_nesting_limit_is_an_error() {
    let text = format!(r#"{{"x": 1, "tags": [], "junk": {}}}"#, "[".repeat(100_000));
    let err = from_str::<Inner>(&text).unwrap_err().to_string();
    assert!(err.contains("recursion limit exceeded"), "{err}");
    // Within the limit, deep unknown values are skipped.
    let ok = format!(
        r#"{{"x": 1, "tags": [], "junk": {}{}}}"#,
        "[".repeat(127),
        "]".repeat(127)
    );
    assert!(from_str::<Inner>(&ok).is_ok());
}

#[test]
fn syntax_errors_name_their_byte() {
    let err = |text: &str| from_str::<Value>(text).unwrap_err().to_string();
    assert_eq!(err("[1] x"), "trailing characters at byte 4");
    assert_eq!(err(r#"{"a": "#), "unexpected character at byte 6");
    assert_eq!(err(r#"{"a" 1}"#), "expected `:` at byte 5");
    assert_eq!(err("[1 2]"), "expected `,` or `]` at byte 3");
    assert_eq!(err(r#""abc"#), "unterminated string at byte 4");
    assert_eq!(err("tru"), "expected `true` at byte 0");
    assert_eq!(err(""), "unexpected character at byte 0");
    // Typed reads stop at the first error just the same.
    let typed = from_str::<Inner>(r#"{"x": 1, "tags": ["a""#)
        .unwrap_err()
        .to_string();
    assert_eq!(typed, "expected `,` or `]` at byte 21");
    let shape = from_str::<Inner>(r#"{"x": "1"}"#).unwrap_err().to_string();
    assert_eq!(shape, "expected unsigned integer, got string at byte 6");
}

#[test]
fn enum_shapes_are_checked() {
    let err = |text: &str| from_str::<Shape>(text).unwrap_err().to_string();
    assert!(err(r#""Nope""#).contains("unknown variant `Nope` of Shape"));
    assert!(err(r#"{"Nope": 1}"#).contains("unknown variant `Nope` of Shape"));
    assert!(err(r#"{"Newtype": 1, "Unit": null}"#).contains("expected one variant of Shape"));
    assert!(err("{}").contains("expected a variant of Shape"));
    assert!(err(r#"{"Pair": [1]}"#).contains("expected 2 elements, got 1"));
    assert!(err(r#"{"Pair": [1, 2, 3]}"#).contains("expected 2 elements, got more"));
}
