//! Self-contained JSON support for the NIID-Bench workspace.
//!
//! The build environment is fully offline, so the workspace cannot pull
//! `serde`/`serde_json` from a registry. This crate provides the small
//! slice of JSON the benchmark actually needs — a value model ([`Json`]),
//! a writer (compact and pretty, matching `serde_json`'s formatting so
//! previously recorded artifacts stay diffable), a strict parser, and two
//! conversion traits ([`ToJson`] / [`FromJson`]) that the other crates
//! implement by hand where they previously derived `Serialize` /
//! `Deserialize`.
//!
//! Conventions (mirroring serde's default enum representation):
//!
//! * unit enum variants serialize as a bare string: `"FedAvg"`,
//! * struct variants as a single-key object: `{"FedProx":{"mu":0.01}}`,
//! * `Option<T>` as `null` or the value itself.

#![forbid(unsafe_code)]

mod parse;
mod value;
mod write;

pub use parse::{parse, parse_jsonl, read_jsonl_file, JsonError};
pub use value::Json;

/// Convert a value into a [`Json`] tree.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;

    /// Compact one-line JSON text (serde_json `to_string` formatting).
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Pretty JSON text with two-space indent (serde_json
    /// `to_string_pretty` formatting).
    fn to_json_pretty(&self) -> String {
        self.to_json().pretty()
    }
}

/// Reconstruct a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Parse the value, reporting the offending path in the error.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Parse from JSON text.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&parse(s)?)
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, got {}", v.kind())))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new(format!("expected string, got {}", v.kind())))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
num_to_json!(f32, f64, i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! int_from_json {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_f64().ok_or_else(|| {
                    JsonError::new(format!("expected number, got {}", v.kind()))
                })?;
                if n.fract() != 0.0 || n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(JsonError::new(format!(
                        "number {n} is not a valid {}",
                        stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}
int_from_json!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected number, got {}", v.kind())))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|n| n as f32)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T
where
    T: ?Sized,
{
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::new(format!("expected array, got {}", v.kind())))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.contextualize(&format!("[{i}]"))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(usize::from_json_str("42").unwrap(), 42usize);
        assert_eq!(f64::from_json_str("-1.5e3").unwrap(), -1500.0);
        assert!(bool::from_json_str("true").unwrap());
        assert_eq!(String::from_json_str("\"hi\\n\"").unwrap(), "hi\n");
        assert_eq!(Vec::<u32>::from_json_str("[1,2,3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(Option::<u32>::from_json_str("null").unwrap(), None);
        assert_eq!(Option::<u32>::from_json_str("7").unwrap(), Some(7));
    }

    #[test]
    fn integer_from_json_rejects_fractions_and_overflow() {
        assert!(usize::from_json_str("1.5").is_err());
        assert!(u8::from_json_str("300").is_err());
        assert!(usize::from_json_str("-1").is_err());
    }

    #[test]
    fn vec_errors_name_the_index() {
        let err = Vec::<u32>::from_json_str("[1,\"x\"]").unwrap_err();
        assert!(err.to_string().contains("[1]"), "{err}");
    }

    #[test]
    fn f32_survives_the_f64_detour() {
        // 0.01f32 widens to an f64 that prints with full precision; the
        // narrowing on the way back must restore the exact f32.
        for v in [0.01f32, 0.1, 1.0 / 3.0, f32::MIN_POSITIVE, -2.5e7] {
            let text = v.to_json_string();
            assert_eq!(f32::from_json_str(&text).unwrap(), v, "via {text}");
        }
    }
}
