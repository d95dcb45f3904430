#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Regular expressions over element-label alphabets.
//!
//! This crate is the bottom layer of the `schemacast` workspace. It provides:
//!
//! * [`Alphabet`] — an interner mapping element labels (strings) to dense
//!   [`Sym`] indices shared by every automaton and schema in a revalidation
//!   session,
//! * [`Regex`] — an abstract syntax tree for the content-model regular
//!   expressions of DTDs and XML Schemas (Definition 1 of the paper uses
//!   `regexp_τ` over Σ),
//! * a [`parser`] module for a DTD-style textual syntax,
//! * the [Glushkov position automaton](crate::glushkov) and the
//!   *one-unambiguity* test of Brüggemann-Klein and Wood, which XML requires
//!   of every content model and which the paper's optimality results rely on
//!   (deterministic content models ⇒ deterministic automata).
//!
//! The AST also implements a Brzozowski-derivative matcher
//! ([`Regex::matches`]) used as a test oracle for the automata crate.

pub mod alphabet;
pub mod ast;
pub mod display;
pub mod glushkov;
pub mod parser;

pub use alphabet::{Alphabet, Sym};
pub use ast::Regex;
pub use glushkov::{GlushkovNfa, GlushkovSets};
pub use parser::{parse_regex, ParseError};
