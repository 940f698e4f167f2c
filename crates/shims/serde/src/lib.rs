//! Offline shim for the subset of `serde` this workspace uses.
//!
//! Instead of serde's visitor architecture, this shim converts values to and
//! from a small JSON-shaped [`Value`] tree:
//!
//! - [`Serialize`] — `fn to_value(&self) -> Value`
//! - [`Deserialize`] — `fn from_value(&Value) -> Result<Self, Error>`
//!
//! The companion `serde_derive` proc-macro crate generates both impls for
//! structs with named fields and for enums with unit, tuple, and struct
//! variants, matching serde's externally-tagged default representation. The
//! `serde_json` shim renders [`Value`] to JSON text and parses it back.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with a fraction or an exponent, or beyond `i128` (stored as
    /// `f64`).
    Num(f64),
    /// An integer, exact: every `u64` and `i64` fits.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object; insertion order is preserved.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a mandatory object field, with a descriptive error.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error(format!("missing field `{key}`")))
    }

    /// The value as an `f64` if it is a number.
    pub fn as_num(&self) -> Result<f64, Error> {
        match self {
            Value::Num(n) => Ok(*n),
            Value::Int(n) => Ok(*n as f64),
            other => Err(Error(format!("expected number, got {other:?}"))),
        }
    }
}

/// Serialization / deserialization error.
#[derive(Clone, Debug, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Converts a value into a [`Value`] tree.
pub trait Serialize {
    /// Builds the value tree.
    fn to_value(&self) -> Value;
}

/// Reconstructs a value from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses the value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// --- primitives -----------------------------------------------------------

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                Ok(v.as_num()? as $t)
            }
        }
    )*};
}

impl_float!(f32, f64);

// Integers travel as `Value::Int`, so none loses bits to an `f64`, and a
// number that does not fit the target type is refused, never cast.
macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::Int(n) => Some(n),
                    Value::Num(f) if f.fract() == 0.0 => Some(f as i128),
                    Value::Num(_) => None,
                    ref other => return Err(Error(format!("expected integer, got {other:?}"))),
                };
                n.and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error(format!("{v:?} is not a {}", stringify!($t))))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// --- containers -----------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error(format!("expected array of length {N}, got {len}")))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(items) => {
                        let mut it = items.iter();
                        Ok(($(
                            $name::from_value(
                                it.next().ok_or_else(|| Error("tuple too short".into()))?
                            )?,
                        )+))
                    }
                    other => Err(Error(format!("expected tuple array, got {other:?}"))),
                }
            }
        }
    )+};
}

impl_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(f32::from_value(&0.25f32.to_value()).unwrap(), 0.25);
        assert_eq!(usize::from_value(&7usize.to_value()).unwrap(), 7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1.0f32, -2.5, 3.25];
        assert_eq!(Vec::<f32>::from_value(&v.to_value()).unwrap(), v);
        let opt: Option<u64> = None;
        assert_eq!(Option::<u64>::from_value(&opt.to_value()).unwrap(), None);
        let arr = [1usize, 2, 3];
        assert_eq!(<[usize; 3]>::from_value(&arr.to_value()).unwrap(), arr);
        let tup = (1usize, "x".to_string());
        assert_eq!(<(usize, String)>::from_value(&tup.to_value()).unwrap(), tup);
    }

    #[test]
    fn integers_are_exact_and_refuse_what_does_not_fit() {
        let big = (1u64 << 53) + 1;
        assert_eq!(big.to_value(), Value::Int(big as i128));
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(i64::from_value(&i64::MIN.to_value()).unwrap(), i64::MIN);
        assert_eq!(usize::from_value(&Value::Num(3.0)).unwrap(), 3);
        assert!(u64::from_value(&Value::Int(-1)).is_err());
        assert!(u8::from_value(&Value::Int(256)).is_err());
        assert!(usize::from_value(&Value::Num(3.5)).is_err());
        assert!(u32::from_value(&Value::Num(f64::NAN)).is_err());
        assert_eq!(f32::from_value(&Value::Int(7)).unwrap(), 7.0);
    }

    #[test]
    fn missing_field_reports_name() {
        let obj = Value::Map(vec![("a".into(), Value::Num(1.0))]);
        let err = obj.field("b").unwrap_err();
        assert!(err.0.contains("`b`"));
    }
}
