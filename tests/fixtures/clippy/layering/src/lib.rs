//! An import of an aimq crate the manifest never declared: Cargo must
//! reject it with E0432 (unresolved import).

pub use aimq_catalog::Schema;
