//! `Serialize`/`Deserialize` implementations for primitives and containers.

use crate::{json, DeError, Deserialize, Number, Serialize, Value};

/// `[a,b,...]`, each item written directly.
fn write_items<T: Serialize>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
            fn write_json(&self, out: &mut String) {
                json::write_u64(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => n
                        .as_u64()
                        .and_then(|x| <$t>::try_from(x).ok())
                        .ok_or_else(|| DeError::type_mismatch(stringify!($t), v)),
                    _ => Err(DeError::type_mismatch(stringify!($t), v)),
                }
            }
        }
    )*};
}
ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let x = *self as i64;
                if x >= 0 {
                    Value::Number(Number::U64(x as u64))
                } else {
                    Value::Number(Number::I64(x))
                }
            }
            fn write_json(&self, out: &mut String) {
                json::write_i64(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => n
                        .as_i64()
                        .and_then(|x| <$t>::try_from(x).ok())
                        .ok_or_else(|| DeError::type_mismatch(stringify!($t), v)),
                    _ => Err(DeError::type_mismatch(stringify!($t), v)),
                }
            }
        }
    )*};
}
ser_de_int!(i8, i16, i32, i64, isize);

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let x = *self as f64;
                if x.is_finite() {
                    Value::Number(Number::F64(x))
                } else {
                    // JSON has no NaN/inf; mirror serde_json and emit null.
                    Value::Null
                }
            }
            fn write_json(&self, out: &mut String) {
                json::write_f64(out, *self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(DeError::type_mismatch(stringify!($t), v)),
                }
            }
        }
    )*};
}
ser_de_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::type_mismatch("bool", v)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(DeError::type_mismatch("string", v)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

/// A [`Value`] is its own representation, so `serde_json::from_str::<Value>`
/// parses arbitrary JSON for schema-agnostic inspection (the observability
/// tests validate trace files this way).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, out: &mut String) {
        json::write_value(out, self, None);
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_items(out, self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_items(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::type_mismatch("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_items(out, self);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v.as_array().ok_or_else(|| DeError::type_mismatch("array", v))?;
        if items.len() != N {
            return Err(DeError::new(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| DeError::new(format!("array of length {N} failed to convert")))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v.as_array().ok_or_else(|| DeError::type_mismatch("array", v))?;
        if items.len() != 2 {
            return Err(DeError::new(format!("expected a pair, got {} elements", items.len())));
        }
        Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
                .collect(),
            _ => Err(DeError::type_mismatch("object", v)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_exactly() {
        let big: u64 = u64::MAX - 1;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::INFINITY.to_value(), Value::Null);
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
    }

    #[test]
    fn arrays_enforce_length() {
        let v = [1.0f64, 2.0].to_value();
        assert!(<[f64; 3]>::from_value(&v).is_err());
        assert_eq!(<[f64; 2]>::from_value(&v).unwrap(), [1.0, 2.0]);
    }
}
