//! In-tree shim for the `serde` crate (the build environment is offline).
//!
//! The workspace derives `Serialize`/`Deserialize` on its public data types
//! to declare them serialization-ready, but every actual encoder in the tree
//! is hand-rolled (checkpoint bytes, CSV tables, JSON bench reports), so the
//! traits only need to exist, not to describe a data model. The derive macros
//! re-exported here emit empty marker impls.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Marker trait standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker trait standing in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

pub use serde_derive::{Deserialize, Serialize};
