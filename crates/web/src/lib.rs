//! # webiq-web — the Surface-Web simulator
//!
//! WebIQ discovers and validates attribute instances by querying a search
//! engine (Google's Web API in the paper). This crate stands in for that
//! dependency with a deterministic, in-process engine exposing the same
//! two operations WebIQ uses:
//!
//! - [`engine::SearchEngine::search`] — top-k result snippets for an
//!   extraction query;
//! - [`engine::SearchEngine::num_hits`] — hit counts for validation
//!   queries (the `NumHits` oracle feeding PMI).
//!
//! Queries use Google's 2006 conjunctive syntax (`"quoted phrase"
//! +keyword`). Documents come either from caller-supplied text or from the
//! [`gen`] corpus generator, which reproduces the statistical structure the
//! paper relied on: Hearst-pattern sentences, proximity co-occurrences,
//! Zipf popularity skew, false completions, and noise.
#![forbid(unsafe_code)]

pub mod cache;
pub mod corpus;
pub mod engine;
pub mod error;
pub mod gen;
pub mod index;
pub mod query;

pub use corpus::{Corpus, Document};
pub use engine::{QueryBatch, QueryEngine, SearchEngine, Snippet};
pub use error::WebError;
pub use gen::{generate, ConceptSpec, GenConfig};
pub use query::Query;
