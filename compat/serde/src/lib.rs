//! Offline drop-in subset of the `serde` API.
//!
//! The build environment has no crates.io access, so this crate provides the
//! slice of serde this workspace uses: the `Serialize` / `Deserialize`
//! traits (and their derive macros, re-exported from the local
//! `serde_derive`), implemented over an owned JSON-like [`Value`] tree
//! rather than upstream's streaming serializer/deserializer pair. The local
//! `serde_json` parses that tree and renders it pretty-printed.
//!
//! Compact JSON skips the tree: [`Serialize::write_json`] appends bytes
//! straight into a caller-owned buffer. Primitives, strings, `Option`,
//! references, sequences and derived types emit natively; the remaining
//! hand-written impls fall back to rendering their [`Value`].
//! [`write_json_display`] streams a `Display` value's text into the
//! buffer as an escaped string, for impls whose text is rendered on read.
//!
//! The derive macros emit the same externally-tagged enum representation as
//! upstream serde's default, so JSON produced by this stack is shaped like
//! what real serde would produce for the types in this repository (plain
//! structs and enums, no `#[serde(...)]` attributes).

#![forbid(unsafe_code)]

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like data tree: the interchange format between
/// [`Serialize`]/[`Deserialize`] impls and the `serde_json` facade.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object, in insertion order.
    Map(Vec<(String, Value)>),
}

/// Serialization/deserialization error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Build an error from anything displayable.
    pub fn msg(m: impl std::fmt::Display) -> Self {
        Error(m.to_string())
    }
}

/// Types that can be rendered into a [`Value`] tree or as compact JSON.
pub trait Serialize {
    /// Convert `self` into a value tree.
    fn to_value(&self) -> Value;

    /// Append `self` as compact JSON to `out`. The bytes equal the compact
    /// rendering of [`Self::to_value`]; the default goes through that tree.
    fn write_json(&self, out: &mut Vec<u8>) {
        self.to_value().write_json(out);
    }
}

// The primitive emitters are `#[inline]` so derived impls in other crates
// inline them: without it every field costs a cross-crate call, which
// nearly doubled the emit time of a trace entry.

/// Append `s` as a JSON string literal.
#[inline]
fn write_json_str(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    escape_json_str(s, out);
    out.push(b'"');
}

/// Append the `Display` text of `d` as a JSON string literal, escaping it
/// as it is written: no intermediate `String` is built. The bytes equal
/// those of `d.to_string()` serialized as a string.
pub fn write_json_display<D: std::fmt::Display + ?Sized>(d: &D, out: &mut Vec<u8>) {
    use std::fmt::Write;
    out.push(b'"');
    write!(Escaping(out), "{d}").expect("a Display implementation returned an error");
    out.push(b'"');
}

/// The body of a JSON string: everything written through it is escaped
/// into the buffer. Escapes are decided byte by byte, so where the writes
/// split the text does not change the bytes.
struct Escaping<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        escape_json_str(s, self.0);
        Ok(())
    }
}

/// Append `s` escaped for the inside of a JSON string literal. Runs of
/// bytes that need no escape are copied in bulk; multi-byte UTF-8 passes
/// through unchanged.
#[inline]
fn escape_json_str(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
        }
    }
    out.extend_from_slice(&bytes[run..]);
}

/// Append the decimal digits of `n`.
#[inline]
fn write_json_u64(mut n: u64, out: &mut Vec<u8>) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Append the decimal digits of `n`, with a leading `-` when negative.
#[inline]
fn write_json_i64(n: i64, out: &mut Vec<u8>) {
    if n < 0 {
        out.push(b'-');
    }
    write_json_u64(n.unsigned_abs(), out);
}

/// Append `f` as a JSON number: Rust's shortest round-trip text, with
/// `.0` added to integral values so they stay floats; NaN and the
/// infinities, which JSON cannot express, become `null`.
fn write_json_f64(f: f64, out: &mut Vec<u8>) {
    use std::io::Write;
    if !f.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let start = out.len();
    write!(out, "{f}").expect("writing to a Vec cannot fail");
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

/// Append the elements of a sequence as a JSON array.
fn write_json_seq<'a, T: Serialize + 'a>(xs: impl IntoIterator<Item = &'a T>, out: &mut Vec<u8>) {
    out.push(b'[');
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        x.write_json(out);
    }
    out.push(b']');
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Fetch a field from an object value; used by derived impls.
pub fn get_field<'a>(map: &'a [(String, Value)], key: &str) -> Result<&'a Value, Error> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| Error(format!("missing field `{key}`")))
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => b.write_json(out),
            Value::U64(n) => write_json_u64(*n, out),
            Value::I64(n) => write_json_i64(*n, out),
            Value::F64(f) => write_json_f64(*f, out),
            Value::Str(s) => write_json_str(s, out),
            Value::Seq(xs) => write_json_seq(xs, out),
            Value::Map(entries) => {
                out.push(b'{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_json_str(k, out);
                    out.push(b':');
                    v.write_json(out);
                }
                out.push(b'}');
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ----------------------------------------------------------------------
// Primitive impls
// ----------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
            #[inline]
            fn write_json(&self, out: &mut Vec<u8>) { write_json_u64(*self as u64, out) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    Value::F64(f) if f >= 0.0 && f.fract() == 0.0 => f as u64,
                    _ => return Err(Error(format!("expected unsigned integer, got {v:?}"))),
                };
                <$t>::try_from(n).map_err(|_| Error(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
            #[inline]
            fn write_json(&self, out: &mut Vec<u8>) { write_json_i64(*self as i64, out) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::I64(n) => n,
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| Error(format!("integer {n} out of range")))?,
                    Value::F64(f) if f.fract() == 0.0 => f as i64,
                    _ => return Err(Error(format!("expected integer, got {v:?}"))),
                };
                <$t>::try_from(n).map_err(|_| Error(format!("integer {n} out of range")))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
            fn write_json(&self, out: &mut Vec<u8>) { write_json_f64(*self as f64, out) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::F64(f) => Ok(f as $t),
                    Value::U64(n) => Ok(n as $t),
                    Value::I64(n) => Ok(n as $t),
                    _ => Err(Error(format!("expected number, got {v:?}"))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    #[inline]
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error(format!("expected bool, got {v:?}"))),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        write_json_str(self.encode_utf8(&mut [0; 4]), out);
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error(format!("expected single-char string, got {v:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    #[inline]
    fn write_json(&self, out: &mut Vec<u8>) {
        write_json_str(self, out);
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error(format!("expected string, got {v:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    #[inline]
    fn write_json(&self, out: &mut Vec<u8>) {
        write_json_str(self, out);
    }
}

/// Exists so `#[derive(Deserialize)]` compiles on catalog structs holding
/// `&'static str` fields. Deserializing one **leaks** the string; the
/// workspace only ever serializes such types at runtime.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(&*Box::leak(s.clone().into_boxed_str())),
            _ => Err(Error(format!("expected string, got {v:?}"))),
        }
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("secs".to_string(), Value::U64(self.as_secs())),
            ("nanos".to_string(), Value::U64(self.subsec_nanos() as u64)),
        ])
    }
}
impl Deserialize for std::time::Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => {
                let secs = u64::from_value(get_field(m, "secs")?)?;
                let nanos = u32::from_value(get_field(m, "nanos")?)?;
                Ok(std::time::Duration::new(secs, nanos))
            }
            _ => Err(Error(format!("expected duration object, got {v:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            Some(x) => x.write_json(out),
            None => out.extend_from_slice(b"null"),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        write_json_seq(self, out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(xs) => xs.iter().map(T::from_value).collect(),
            _ => Err(Error(format!("expected array, got {v:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        write_json_seq(self, out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        write_json_seq(self, out);
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        write_json_seq(self, out);
    }
}
impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Into::into)
    }
}

impl<V: Serialize, S> Serialize for std::collections::HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}
impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(Error(format!("expected object, got {v:?}"))),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}
impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(Error(format!("expected object, got {v:?}"))),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(xs) => Ok(($($t::from_value(
                        xs.get($n).ok_or_else(|| Error("tuple too short".into()))?
                    )?,)+)),
                    _ => Err(Error(format!("expected tuple array, got {v:?}"))),
                }
            }
        }
    )*};
}
impl_tuple! {
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        assert_eq!(u32::from_value(&7u32.to_value()).unwrap(), 7);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(
            Option::<u8>::from_value(&Option::<u8>::None.to_value()).unwrap(),
            None
        );
        assert_eq!(
            Vec::<u8>::from_value(&vec![1u8, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn missing_field_reports_name() {
        let err = get_field(&[], "x").unwrap_err();
        assert!(err.0.contains("`x`"));
    }
}
