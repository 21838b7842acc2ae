//! # softcache-bench: the paper's experiment harness
//!
//! One function per table/figure of the ICPP 2002 evaluation ([`experiments`]),
//! plus plain-text rendering ([`render`]). The `experiments` binary drives
//! everything:
//!
//! ```sh
//! cargo run --release -p softcache-bench --bin experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod render;
