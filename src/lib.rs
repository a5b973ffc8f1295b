//! Workspace root crate: re-exports for integration tests/examples.

#![forbid(unsafe_code)]

pub use q3de::*;
