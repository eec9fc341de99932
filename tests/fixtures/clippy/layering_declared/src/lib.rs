//! The `layering` fixture with the dependency declared in Cargo.toml:
//! it compiles, and the manifest edge is what `tests/crate_dag.rs`
//! checks against the crate DAG.

pub use aimq_catalog::Schema;
