//! Derive macros for the workspace's offline `serde` subset.
//!
//! Upstream `serde_derive` depends on `syn`/`quote`, which are unavailable
//! offline, so the item grammar is parsed directly from the raw
//! `proc_macro::TokenStream`. Supported shapes — which cover every derived
//! type in this repository — are structs (named, tuple, unit) and enums
//! whose variants are unit, tuple, or struct-like, with no
//! `#[serde(...)]` attributes. The only generics accepted are lifetime
//! parameters on a `Serialize` struct (a borrowed wire view of another
//! type). Enums use serde's default externally-tagged
//! representation; newtype structs serialize as their inner value.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

enum Item {
    /// `generics` is empty or a lifetime list such as `<'a>`.
    Struct { name: String, generics: String, fields: Fields },
    Enum { name: String, variants: Vec<(String, Fields)> },
}

/// Derive `serde::Serialize`: `to_value` plus a direct compact-JSON
/// `write_json` whose bytes equal the rendered tree.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(e) => error_ts(&e),
    }
}

/// Derive `serde::Deserialize` (value-tree flavour).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item).parse().unwrap(),
        Err(e) => error_ts(&e),
    }
}

fn error_ts(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;
    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => "struct",
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => "enum",
        other => return Err(format!("expected struct or enum, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    i += 1;

    let mut generics = String::new();
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        generics.push('<');
        loop {
            i += 1;
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if matches!(p.as_char(), '\'' | ',' | '>') => {
                    generics.push(p.as_char());
                    if p.as_char() == '>' {
                        i += 1;
                        break;
                    }
                }
                Some(TokenTree::Ident(id)) if generics.ends_with('\'') => {
                    generics.push_str(&id.to_string());
                }
                _ => {
                    return Err(format!(
                        "generic type `{name}` is not supported by the offline serde derive \
                         (lifetime parameters only)"
                    ))
                }
            }
        }
        if kind == "enum" {
            return Err(format!("generic enum `{name}` is not supported by the offline serde derive"));
        }
    }

    if kind == "struct" {
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(count_top_level_elems(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
            other => return Err(format!("unsupported struct body: {other:?}")),
        };
        Ok(Item::Struct { name, generics, fields })
    } else {
        let body = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => return Err(format!("expected enum body, got {other:?}")),
        };
        Ok(Item::Enum {
            name,
            variants: parse_variants(body)?,
        })
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '!') {
                    *i += 1;
                }
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => break,
        }
    }
}

/// Count comma-separated elements at angle-bracket depth 0 (commas inside
/// `<...>` belong to generic argument lists, not the element list).
fn count_top_level_elems(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut elems = 0usize;
    let mut saw_token = false;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if saw_token {
                    elems += 1;
                }
                saw_token = false;
                continue;
            }
            _ => {}
        }
        saw_token = true;
    }
    if saw_token {
        elems += 1;
    }
    elems
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0usize;
    let mut fields = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, got {other:?}")),
        }
        // Consume the type up to the next comma at angle depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(name);
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, Fields)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0usize;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_top_level_elems(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream())?)
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        variants.push((name, fields));
    }
    Ok(variants)
}

// ----------------------------------------------------------------------
// Code generation
// ----------------------------------------------------------------------

/// A compact-JSON emission plan for `write_json`: literal JSON text runs,
/// merged and precomputed at expansion time, between field values.
#[derive(Default)]
struct JsonPlan {
    stmts: Vec<String>,
    lit: String,
}

impl JsonPlan {
    fn lit(&mut self, text: &str) {
        self.lit.push_str(text);
    }

    fn value(&mut self, expr: &str) {
        self.flush();
        self.stmts
            .push(format!("::serde::Serialize::write_json({expr}, __out);"));
    }

    /// `{"k1":v1,"k2":v2}` over `(key, expr)` pairs. Keys are Rust
    /// identifiers, which never need JSON escaping.
    fn object<'a>(&mut self, entries: impl Iterator<Item = (&'a str, String)>) {
        self.lit("{");
        for (i, (key, expr)) in entries.enumerate() {
            if i > 0 {
                self.lit(",");
            }
            self.lit(&format!("\"{key}\":"));
            self.value(&expr);
        }
        self.lit("}");
    }

    /// `[v1,v2]` over element expressions.
    fn array(&mut self, exprs: impl Iterator<Item = String>) {
        self.lit("[");
        for (i, expr) in exprs.enumerate() {
            if i > 0 {
                self.lit(",");
            }
            self.value(&expr);
        }
        self.lit("]");
    }

    fn flush(&mut self) {
        if !self.lit.is_empty() {
            self.stmts.push(format!(
                "__out.extend_from_slice({:?}.as_bytes());",
                self.lit
            ));
            self.lit.clear();
        }
    }

    fn finish(mut self) -> String {
        self.flush();
        self.stmts.join(" ")
    }
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, generics, fields } => {
            let mut plan = JsonPlan::default();
            let body = match fields {
                Fields::Unit => {
                    plan.lit("null");
                    "::serde::Value::Null".to_string()
                }
                Fields::Tuple(1) => {
                    plan.value("&self.0");
                    "::serde::Serialize::to_value(&self.0)".to_string()
                }
                Fields::Tuple(n) => {
                    plan.array((0..*n).map(|i| format!("&self.{i}")));
                    let elems: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Seq(::std::vec![{}])", elems.join(", "))
                }
                Fields::Named(fs) => {
                    plan.object(fs.iter().map(|f| (f.as_str(), format!("&self.{f}"))));
                    let entries: Vec<String> = fs
                        .iter()
                        .map(|f| {
                            format!(
                                "(::std::string::String::from({f:?}), \
                                 ::serde::Serialize::to_value(&self.{f}))"
                            )
                        })
                        .collect();
                    format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
                }
            };
            format!(
                "impl{generics} ::serde::Serialize for {name}{generics} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                     fn write_json(&self, __out: &mut ::std::vec::Vec<u8>) {{ {} }}\n\
                 }}",
                plan.finish()
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = Vec::new();
            let mut json_arms = Vec::new();
            for (v, fields) in variants {
                let mut plan = JsonPlan::default();
                let (pattern, value) = match fields {
                    Fields::Unit => {
                        plan.lit(&format!("\"{v}\""));
                        (
                            format!("{name}::{v}"),
                            format!("::serde::Value::Str(::std::string::String::from({v:?}))"),
                        )
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        plan.lit(&format!("{{\"{v}\":"));
                        let payload = if *n == 1 {
                            plan.value("__f0");
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            plan.array(binds.iter().cloned());
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Seq(::std::vec![{}])", elems.join(", "))
                        };
                        plan.lit("}");
                        (
                            format!("{name}::{v}({})", binds.join(", ")),
                            format!(
                                "::serde::Value::Map(::std::vec![\
                                 (::std::string::String::from({v:?}), {payload})])"
                            ),
                        )
                    }
                    Fields::Named(fs) => {
                        plan.lit(&format!("{{\"{v}\":"));
                        plan.object(fs.iter().map(|f| (f.as_str(), f.clone())));
                        plan.lit("}");
                        let entries: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from({f:?}), \
                                     ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        (
                            format!("{name}::{v} {{ {} }}", fs.join(", ")),
                            format!(
                                "::serde::Value::Map(::std::vec![\
                                 (::std::string::String::from({v:?}), \
                                 ::serde::Value::Map(::std::vec![{}]))])",
                                entries.join(", ")
                            ),
                        )
                    }
                };
                arms.push(format!("{pattern} => {value},"));
                json_arms.push(format!("{pattern} => {{ {} }}", plan.finish()));
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                     fn write_json(&self, __out: &mut ::std::vec::Vec<u8>) {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n"),
                json_arms.join("\n")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, generics, .. } if !generics.is_empty() => {
            error_ts(&format!("borrowed type `{name}` cannot derive Deserialize")).to_string()
        }
        Item::Struct { name, fields, .. } => {
            let body = match fields {
                Fields::Unit => format!(
                    "match __v {{ ::serde::Value::Null => \
                     ::std::result::Result::Ok({name}), _ => \
                     ::std::result::Result::Err(::serde::Error::msg(\
                     \"expected null for unit struct {name}\")) }}"
                ),
                Fields::Tuple(1) => format!(
                    "::std::result::Result::Ok({name}(\
                     ::serde::Deserialize::from_value(__v)?))"
                ),
                Fields::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Deserialize::from_value(&__xs[{i}])?"))
                        .collect();
                    format!(
                        "match __v {{ ::serde::Value::Seq(__xs) if __xs.len() == {n} => \
                         ::std::result::Result::Ok({name}({})), _ => \
                         ::std::result::Result::Err(::serde::Error::msg(\
                         \"expected {n}-element array for {name}\")) }}",
                        elems.join(", ")
                    )
                }
                Fields::Named(fs) => {
                    let inits: Vec<String> = fs
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::from_value(\
                                 ::serde::get_field(__m, {f:?})?)?"
                            )
                        })
                        .collect();
                    format!(
                        "match __v {{ ::serde::Value::Map(__m) => \
                         ::std::result::Result::Ok({name} {{ {} }}), _ => \
                         ::std::result::Result::Err(::serde::Error::msg(\
                         \"expected object for struct {name}\")) }}",
                        inits.join(", ")
                    )
                }
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> \
                     ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| matches!(f, Fields::Unit))
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, fields)| match fields {
                    Fields::Unit => None,
                    Fields::Tuple(1) => Some(format!(
                        "{v:?} => ::std::result::Result::Ok({name}::{v}(\
                         ::serde::Deserialize::from_value(__val)?)),"
                    )),
                    Fields::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&__xs[{i}])?"))
                            .collect();
                        Some(format!(
                            "{v:?} => match __val {{ \
                             ::serde::Value::Seq(__xs) if __xs.len() == {n} => \
                             ::std::result::Result::Ok({name}::{v}({})), _ => \
                             ::std::result::Result::Err(::serde::Error::msg(\
                             \"expected {n}-element array for variant {v}\")) }},",
                            elems.join(", ")
                        ))
                    }
                    Fields::Named(fs) => {
                        let inits: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(\
                                     ::serde::get_field(__fm, {f:?})?)?"
                                )
                            })
                            .collect();
                        Some(format!(
                            "{v:?} => match __val {{ ::serde::Value::Map(__fm) => \
                             ::std::result::Result::Ok({name}::{v} {{ {} }}), _ => \
                             ::std::result::Result::Err(::serde::Error::msg(\
                             \"expected object for variant {v}\")) }},",
                            inits.join(", ")
                        ))
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) -> \
                     ::std::result::Result<Self, ::serde::Error> {{\n\
                         match __v {{\n\
                             ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                                 {}\n\
                                 __other => ::std::result::Result::Err(\
                                 ::serde::Error(::std::format!(\
                                 \"unknown unit variant `{{__other}}` for {name}\"))),\n\
                             }},\n\
                             ::serde::Value::Map(__m) if __m.len() == 1 => {{\n\
                                 let (__k, __val) = &__m[0];\n\
                                 match __k.as_str() {{\n\
                                     {}\n\
                                     __other => ::std::result::Result::Err(\
                                     ::serde::Error(::std::format!(\
                                     \"unknown variant `{{__other}}` for {name}\"))),\n\
                                 }}\n\
                             }}\n\
                             _ => ::std::result::Result::Err(::serde::Error::msg(\
                             \"expected string or single-key object for enum {name}\")),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                data_arms.join("\n")
            )
        }
    }
}
