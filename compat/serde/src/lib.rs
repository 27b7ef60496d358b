//! Offline stand-in for `serde`.
//!
//! The build container cannot reach crates.io, so the workspace ships a
//! minimal serialization framework with the same surface its code uses:
//! `#[derive(Serialize, Deserialize)]` plus `serde_json::{to_string,
//! to_string_pretty, from_str}`. Instead of upstream serde's visitor
//! architecture, types convert to and from a small JSON-shaped [`Value`]
//! tree.
//!
//! Types also write compact JSON directly ([`Serialize::write_json`]):
//! the primitives, strings, `Option`, `Vec`, arrays and derived structs
//! append their text with no tree in between, which is what
//! `serde_json::to_string` calls. The tree stays for parsing
//! (`serde_json::from_str` builds one, then [`Deserialize::from_value`])
//! and for pretty output. Both writers share one formatter for numbers
//! and strings ([`json`]), so the two render the same bytes.
//!
//! The `derive` feature exists for manifest compatibility; the derive
//! macros are always available.

pub use serde_derive::{Deserialize, Serialize};

mod error;
mod impls;
pub mod json;
pub mod value;

pub use error::DeError;
pub use value::{Number, Value};

/// Conversion into the [`Value`] tree, and compact JSON written directly.
pub trait Serialize {
    /// Represent `self` as a value tree.
    fn to_value(&self) -> Value;

    /// Append `self` as compact JSON: the same bytes as rendering
    /// [`to_value`](Self::to_value), which is what this default does.
    fn write_json(&self, out: &mut String) {
        json::write_value(out, &self.to_value(), None);
    }
}

/// Reconstruction from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the tree's shape does not match `Self`.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}
