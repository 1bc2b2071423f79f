//! Offline drop-in subset of the `serde` serialization API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of serde it uses: `#[derive(Serialize)]` on plain
//! structs with named fields, plus `serde_json::to_string_pretty`. Instead
//! of upstream's visitor-based `Serializer` machinery, [`Serialize`] here
//! converts directly to an in-memory JSON [`json::Value`] that the
//! `serde_json` shim renders. There is no `Deserialize`: JSON is read back
//! only as a [`json::Value`] (`serde_json::from_str`), walked with the
//! accessors serde_json's `Value` has (`get`, `as_f64`, `as_str`,
//! `as_array`).

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// A value that can be converted to JSON (mirror of `serde::Serialize`).
pub trait Serialize {
    /// Converts `self` to a JSON value tree.
    fn to_json_value(&self) -> json::Value;
}

pub mod json {
    //! Minimal JSON document model shared with the `serde_json` shim.

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Signed integer.
        Int(i64),
        /// Unsigned integer.
        UInt(u64),
        /// Floating-point number (non-finite values render as `null`).
        Float(f64),
        /// String.
        Str(String),
        /// Array.
        Array(Vec<Value>),
        /// Object with insertion-ordered keys.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The value under `key` if `self` is an object that has it
        /// (serde_json's `Value::get` with a string index). A repeated key
        /// reads its last value, as serde_json's map keeps.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(entries) => {
                    entries.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                _ => None,
            }
        }

        /// The number as an `f64`, if `self` is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match *self {
                Value::Int(i) => Some(i as f64),
                Value::UInt(u) => Some(u as f64),
                Value::Float(f) => Some(f),
                _ => None,
            }
        }

        /// The string, if `self` is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The elements, if `self` is an array.
        pub fn as_array(&self) -> Option<&Vec<Value>> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }
    }
}

use json::Value;

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}

impl_serialize_uint!(u8, u16, u32, u64, usize);
impl_serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

#[cfg(test)]
mod tests {
    use super::json::Value;
    use super::Serialize;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(3usize.to_json_value(), Value::UInt(3));
        assert_eq!((-2i64).to_json_value(), Value::Int(-2));
        assert_eq!(1.5f64.to_json_value(), Value::Float(1.5));
        assert_eq!("hi".to_string().to_json_value(), Value::Str("hi".into()));
        assert_eq!(None::<f64>.to_json_value(), Value::Null);
        assert_eq!(Some(2u32).to_json_value(), Value::UInt(2));
    }

    #[test]
    fn accessors_read_what_they_match() {
        let v = Value::Object(vec![
            ("n".into(), Value::UInt(3)),
            ("x".into(), Value::Float(-1.5)),
            ("s".into(), Value::Str("hi".into())),
            ("a".into(), Value::Array(vec![Value::Int(-2)])),
            ("n".into(), Value::Int(-4)),
        ]);
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(-4.0));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(-1.5));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(-2.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("s").and_then(Value::as_f64), None);
        assert_eq!(v.get("n").and_then(Value::as_str), None);
        assert_eq!(v.get("x").and_then(Value::as_array), None);
        assert_eq!(Value::Null.get("n"), None);
        assert_eq!(a[0].get("n"), None);
    }

    #[test]
    fn collections_nest() {
        let v = vec![[1usize, 2, 3]];
        assert_eq!(
            v.to_json_value(),
            Value::Array(vec![Value::Array(vec![
                Value::UInt(1),
                Value::UInt(2),
                Value::UInt(3)
            ])])
        );
    }
}
