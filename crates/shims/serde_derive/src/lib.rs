//! Offline shim for `serde_derive`.
//!
//! Generates `Serialize`/`Deserialize` impls against the shim serde's
//! streaming JSON `Writer` and `Reader`: one `write_json` and one
//! `read_json` method per type. The registry is unreachable in this
//! build environment, so `syn`/`quote` are unavailable; the derive input
//! is parsed directly from the token stream. Supported shapes cover what
//! this workspace derives: structs with named fields, tuple/newtype
//! structs, unit structs, and enums with unit/tuple/struct variants,
//! plus the `#[serde(skip_serializing_if = "path")]` and
//! `#[serde(default)]` field attributes.
//!
//! The JSON shapes are serde's defaults: a struct is an object, a
//! newtype is its field, a tuple struct is an array, a unit struct is
//! `null`; a unit variant is `"Variant"`, other variants are
//! `{"Variant": …}`. The reader takes an object's fields in any order,
//! keeps the first of duplicate keys and skips unknown keys. Tuple
//! structs and variants with several fields go through serde's tuple
//! impls, which cover up to three fields.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Clone, Default)]
struct Field {
    name: String,
    /// `skip_serializing_if = "path"`: omit the field from the map
    /// when `path(&value)` is true.
    skip_if: Option<String>,
    /// `default`: on deserialize, a missing field becomes
    /// `Default::default()` instead of an error.
    default: bool,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Item {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

/// Derive `serde::Serialize` (streaming JSON shim).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derive `serde::Deserialize` (streaming JSON shim).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

fn expand(input: TokenStream, ser: bool) -> TokenStream {
    let (name, item) = match parse_item(input) {
        Ok(v) => v,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = if ser {
        gen_serialize(&name, &item)
    } else {
        gen_deserialize(&name, &item)
    };
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde shim derive generated invalid code: {e:?}\");")
            .parse()
            .unwrap()
    })
}

// -------------------------------------------------------------------
// Parsing
// -------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<(String, Item), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs_and_vis(&tokens, &mut i);

    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic type `{name}`"
        ));
    }

    match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Item::NamedStruct(parse_named_fields(g.stream())?)))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok((name, Item::TupleStruct(count_tuple_fields(g.stream()))))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok((name, Item::UnitStruct)),
            other => Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Item::Enum(parse_variants(g.stream())?)))
            }
            other => Err(format!("expected enum body, got {other:?}")),
        },
        other => Err(format!("expected struct or enum, got `{other}`")),
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1; // [...]
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(
                    tokens.get(*i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

/// Apply the arguments of a `#[serde(...)]` attribute group to `field`,
/// if the attribute at `tokens[i]` (pointing at `#`) is one. Recognizes
/// `skip_serializing_if = "path"` and `default`; unknown arguments are
/// ignored.
fn apply_serde_attr(tokens: &[TokenTree], i: usize, field: &mut Field) {
    let Some(TokenTree::Group(g)) = tokens.get(i + 1) else {
        return;
    };
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    match inner.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return,
    }
    let Some(TokenTree::Group(args)) = inner.get(1) else {
        return;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut j = 0;
    while j < args.len() {
        let Some(TokenTree::Ident(kw)) = args.get(j) else {
            j += 1;
            continue;
        };
        let kw = kw.to_string();
        let value = match (args.get(j + 1), args.get(j + 2)) {
            (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) if eq.as_char() == '=' => {
                j += 3;
                Some(lit.to_string().trim_matches('"').to_string())
            }
            _ => {
                j += 1;
                None
            }
        };
        match (kw.as_str(), value) {
            ("skip_serializing_if", Some(v)) => field.skip_if = Some(v),
            ("default", None) => field.default = true,
            _ => {}
        }
        // Skip to just past the next top-level comma.
        while j < args.len() && !matches!(&args[j], TokenTree::Punct(p) if p.as_char() == ',') {
            j += 1;
        }
        j += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Attributes (possibly `#[serde(...)]`).
        let mut field = Field::default();
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    apply_serde_attr(&tokens, i, &mut field);
                    i += 2;
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if matches!(
                        tokens.get(i),
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                    ) {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        field.name = name.to_string();
        let name = field.name.clone();
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, got {other:?}")),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        i += 1; // consume the comma (or run past the end)
        fields.push(field);
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut trailing_comma = false;
    for tok in &tokens {
        trailing_comma = false;
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip attributes/doc comments.
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        let name = name.to_string();
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the comma.
        while i < tokens.len() && !matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
            i += 1;
        }
        i += 1; // the comma
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// -------------------------------------------------------------------
// Code generation
// -------------------------------------------------------------------

const OK: &str = "::std::result::Result::Ok";
const ERR: &str = "::std::result::Result::Err";
const SOME: &str = "::std::option::Option::Some";
const NONE: &str = "::std::option::Option::None";
const WRITE: &str = "::serde::Serialize::write_json";
const READ: &str = "::serde::Deserialize::read_json";

/// `__x0, __x1, …`: binders for `n` positional fields.
fn binders(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("__x{i}")).collect()
}

/// Statements writing `fields` as an object; `access(name)` is the
/// expression for a field's value.
fn write_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("__w.begin_map();\n");
    for f in fields {
        let value = access(&f.name);
        let entry = format!("__w.key({:?}); {WRITE}(&{value}, __w);", f.name);
        match &f.skip_if {
            Some(pred) => code.push_str(&format!("if !{pred}(&{value}) {{ {entry} }}\n")),
            None => {
                code.push_str(&entry);
                code.push('\n');
            }
        }
    }
    code.push_str("__w.end_map();");
    code
}

/// A block reading an object into `ctor { fields }`: fields in any
/// order, the first of duplicate keys kept, unknown keys skipped, a
/// missing `default` field `Default::default()`.
fn read_fields(ctor: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        let name = &f.name;
        slots.push_str(&format!("let mut __f{i} = {NONE};\n"));
        arms.push_str(&format!(
            "{name:?} if __f{i}.is_none() => __f{i} = {SOME}({READ}(__r)?),\n"
        ));
        let value = if f.default {
            format!("__f{i}.unwrap_or_default()")
        } else {
            format!(
                "match __f{i} {{ {SOME}(__v) => __v, \
                 {NONE} => return {ERR}(__r.error(\"missing field `{name}`\")) }}"
            )
        };
        inits.push_str(&format!("{name}: {value},\n"));
    }
    format!(
        "{{\n{slots}\
         let mut __key = __r.begin_map()?;\n\
         while let {SOME}(__k) = __key {{\n\
             match &*__k {{\n{arms}_ => __r.skip_value()?,\n}}\n\
             __key = __r.next_key()?;\n\
         }}\n\
         {ctor} {{\n{inits}}}\n\
         }}"
    )
}

/// A block reading an `n`-element array (2 ≤ `n` ≤ 3) into `ctor(…)`
/// through serde's tuple impl.
fn read_tuple(ctor: &str, n: usize) -> String {
    let b = binders(n).join(", ");
    let holes = vec!["_"; n].join(", ");
    format!("{{ let ({b}) = <({holes}) as ::serde::Deserialize>::read_json(__r)?; {ctor}({b}) }}")
}

fn gen_serialize(name: &str, item: &Item) -> String {
    let body = match item {
        Item::NamedStruct(fields) => write_fields(fields, |f| format!("self.{f}")),
        Item::TupleStruct(1) => format!("{WRITE}(&self.0, __w);"),
        Item::TupleStruct(n) => {
            let refs: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            format!("{WRITE}(&({}), __w);", refs.join(", "))
        }
        Item::UnitStruct => "__w.null();".to_string(),
        Item::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, value) = match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!("{name}::{vn} => __w.str({vn:?}),\n"));
                        continue;
                    }
                    VariantKind::Tuple(1) => ("(__x0)".to_string(), format!("{WRITE}(__x0, __w);")),
                    VariantKind::Tuple(n) => {
                        let b = binders(*n).join(", ");
                        (format!("({b})"), format!("{WRITE}(&({b}), __w);"))
                    }
                    VariantKind::Struct(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        (
                            format!(" {{ {} }}", names.join(", ")),
                            write_fields(fields, str::to_string),
                        )
                    }
                };
                arms.push_str(&format!(
                    "{name}::{vn}{pattern} => {{ __w.begin_map(); __w.key({vn:?}); \
                     {value} __w.end_map(); }}\n"
                ));
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, __w: &mut ::serde::Writer) {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_deserialize(name: &str, item: &Item) -> String {
    let body = match item {
        Item::NamedStruct(fields) => format!("{OK}({})", read_fields(name, fields)),
        Item::TupleStruct(1) => format!("{OK}({name}({READ}(__r)?))"),
        Item::TupleStruct(n) => format!("{OK}({})", read_tuple(name, *n)),
        Item::UnitStruct => format!("__r.skip_value()?;\n{OK}({name})"),
        Item::Enum(variants) => {
            let unknown = format!(
                "__other => {ERR}(__r.error(::std::format_args!(\
                 \"unknown variant `{{}}` of {name}\", __other))),\n"
            );
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("{vn:?} => {OK}({ctor}),\n"));
                    }
                    VariantKind::Tuple(1) => {
                        data_arms.push_str(&format!("{vn:?} => {OK}({ctor}({READ}(__r)?)),\n"));
                    }
                    VariantKind::Tuple(n) => {
                        data_arms
                            .push_str(&format!("{vn:?} => {OK}({}),\n", read_tuple(&ctor, *n)));
                    }
                    VariantKind::Struct(fields) => {
                        data_arms.push_str(&format!(
                            "{vn:?} => {OK}({}),\n",
                            read_fields(&ctor, fields)
                        ));
                    }
                }
            }
            format!(
                "if __r.peek_str() {{\n\
                     let __tag = __r.read_str()?;\n\
                     match &*__tag {{\n{unit_arms}{unknown}}}\n\
                 }} else {{\n\
                     let __tag = match __r.begin_map()? {{\n\
                         {SOME}(__tag) => __tag,\n\
                         {NONE} => return {ERR}(__r.error(\"expected a variant of {name}\")),\n\
                     }};\n\
                     let __value = match &*__tag {{\n{data_arms}{unknown}}}?;\n\
                     if __r.next_key()?.is_some() {{\n\
                         return {ERR}(__r.error(\"expected one variant of {name}\"));\n\
                     }}\n\
                     {OK}(__value)\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn read_json(__r: &mut ::serde::Reader<'de>) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}
