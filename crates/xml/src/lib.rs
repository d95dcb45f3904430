#![warn(missing_docs)]
#![deny(unsafe_code)]

//! A from-scratch XML 1.0 parser and serializer.
//!
//! Built as a substrate for the schema-cast revalidation system (the paper's
//! experiments parse purchase-order documents and XSD schema files): no
//! external XML crates are used anywhere in the workspace.
//!
//! * [`parse_document`] — elements, attributes, text, CDATA, comments, PIs,
//!   entity/character references, `DOCTYPE` internal-subset capture.
//! * [`serialize`] — compact and pretty serialization with escaping.
//! * [`pull`] — the streaming parser: it lexes each event on demand from
//!   one byte cursor with the SWAR kernels in [`scan`], and skips a
//!   subtree with one depth-counting scan; [`scalar`] keeps the per-byte
//!   reference lexer it is held to.
//! * [`index`] — the stage-1 structural tape: the markup classification
//!   every lexer here shares, and a standalone classifier that the skip is
//!   tested and benchmarked against. No validation path builds it.

pub mod error;
pub mod index;
pub mod parser;
pub mod pull;
pub mod scalar;
pub mod scan;
pub mod serialize;

pub use error::XmlError;
pub use index::StructuralIndex;
pub use parser::{parse_document, XmlDocument, XmlElement, XmlNode};
pub use pull::{NameId, PullEvent, PullParser, SubtreeSkip};
pub use scalar::ScalarParser;
pub use serialize::{escape_attr, escape_text, to_pretty_string, to_string};
