//! A JSON writer (no parser): the one way the harness binaries emit
//! machine-readable results.
//!
//! Objects keep their keys in insertion order, so a result file's layout
//! is a pure function of the code that built it. Output is one line with
//! `", "` and `": "` separators, the form line tools (`grep -o '"events":
//! [0-9]*'`) and `scripts/scalebench.sh`'s line joining rely on.

use std::fmt::Write;

/// A JSON value under construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A number in Rust's shortest round-trip form; non-finite is `null`.
    Num(f64),
    /// A number with a fixed count of decimals; non-finite is `null`.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key` to an object; keys print in the order they were set.
    /// Panics on a non-object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(fields) = self else {
            panic!("set({key}) on a non-object");
        };
        fields.push((key.to_string(), value.into()));
        self
    }

    /// The compact one-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            Json::Num(x) | Json::Fixed(x, _) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").unwrap(),
            Json::Fixed(x, decimals) => write!(out, "{x:.decimals$}").unwrap(),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
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
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `From` impls for the scalar types, each a pattern and its value.
macro_rules! from {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}

from!(
    bool => |b| Json::Bool(b),
    f64 => |x| Json::Num(x),
    u64 => |i| Json::Int(i),
    usize => |i| Json::Int(i as u64),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a \"q\" \\ b\nc\td\u{1}é");
        assert_eq!(s.render(), r#""a \"q\" \\ b\nc\td\u0001é""#);
    }

    #[test]
    fn non_finite_numbers_are_null() {
        let v = Json::from(vec![
            Json::Num(f64::NAN),
            Json::Fixed(f64::INFINITY, 3),
            Json::Num(f64::NEG_INFINITY),
            Json::Fixed(1.23456, 3),
            Json::Num(0.1),
            Json::Fixed(2.5e6, 0),
        ]);
        assert_eq!(v.render(), "[null, null, null, 1.235, 0.1, 2500000]");
    }

    #[test]
    fn keys_keep_insertion_order() {
        let mut o = Json::obj();
        o.set("zeta", "z").set("alpha", true).set("mid", Json::Null);
        let mut inner = Json::obj();
        inner.set("b", 2u64).set("a", None::<u64>);
        o.set("inner", inner);
        assert_eq!(
            o.render(),
            r#"{"zeta": "z", "alpha": true, "mid": null, "inner": {"b": 2, "a": null}}"#
        );
    }
}
