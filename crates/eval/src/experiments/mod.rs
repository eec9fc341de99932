//! One runner per table/figure of the paper's evaluation section.
//!
//! Runners are deterministic functions of `(Scale, seed)`. They build the
//! synthetic corpora, train the systems under test and return typed
//! results with a `render()` producing the same rows/series the paper
//! reports. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record.

pub mod ablation;
pub mod cache;
pub mod common;
pub mod faults;
pub mod federation;
pub mod feedback;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig67;
pub mod fig8;
pub mod fig9;
pub mod postings;
pub mod table2;
pub mod table3;
