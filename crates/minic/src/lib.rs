//! MiniC: the C-subset front end of the register-promotion compiler.
//!
//! MiniC covers the C features the paper's evaluation exercises: `int` and
//! `double` scalars, pointers with arithmetic, 1-D and 2-D arrays, globals
//! with initializers, address-of, `malloc`, recursion, and function
//! pointers (spelled `func`). The front end lowers to the tagged IL of the
//! [`ir`] crate, making the storage decisions the paper describes: values
//! that may be aliased (globals, address-taken locals, arrays) live in
//! memory behind *tags*; everything else lives in virtual registers.
//!
//! The front end is built for throughput: identifiers are interned to
//! `u32` [`Symbol`]s, tokens are `Copy`, and the AST lives in per-module
//! id pools rather than `Box`es. A [`Frontend`] owns all of those buffers
//! and recycles them across compiles; the free [`compile`] function is a
//! one-shot convenience on top of it. The original allocating front end is
//! preserved verbatim under [`classic`] as the measurement baseline.
//!
//! ```
//! use vm::{Vm, VmOptions};
//!
//! let module = minic::compile(r#"
//!     int counter;
//!     int main() {
//!         int i;
//!         for (i = 0; i < 10; i++) { counter += i; }
//!         print_int(counter);
//!         return counter;
//!     }
//! "#)?;
//! let out = Vm::run_main(&module, VmOptions::default())?;
//! assert_eq!(out.output, vec!["45"]);
//! // `counter` is a global: unpromoted code loads and stores it in the loop.
//! assert!(out.counts.loads >= 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod classic;
mod error;
mod frontend;
mod intern;
mod lexer;
mod lower;
mod parser;
mod token;

pub use error::{FrontError, Phase};
pub use frontend::{compile, Frontend};
pub use intern::{Interner, Symbol};
pub use token::{Pos, Tok, Token};
