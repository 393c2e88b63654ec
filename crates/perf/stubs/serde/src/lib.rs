//! Offline stand-in for `serde`: the derive names only (see `serde_derive`).
#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
