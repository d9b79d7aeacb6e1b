//! The `graphkeys` commands as a library: the binary is a thin `main`
//! over [`run`], and tests drive the same code paths in-process through
//! [`run_to`].

mod cmd;

pub use cmd::{is_runtime_error, run, run_to, USAGE};
