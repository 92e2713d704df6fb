//! The pre-interning MiniC front end, preserved as a baseline.
//!
//! This is the front end as it stood before symbols, spans, and arena
//! pools: tokens own `String` identifiers, the AST is `Box`-based, and
//! every compile allocates its world from scratch. It exists as the
//! differential-testing reference: the interned front end must produce
//! byte-identical printed IL to this one for every program. The
//! `frontend_differential` test enforces that across the benchmark
//! suite, and the fuzzer's `classic` oracle arm on every generated
//! program.
//!
//! The module shares [`crate::error::FrontError`] and [`crate::token::Pos`]
//! with the live front end so results compare directly. It receives no new
//! features — it is a fixed reference point.

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod token;

pub use lexer::lex;
pub use lower::compile;
pub use parser::parse;
