//! Batch runner and memoizing report server over declarative
//! [`ScenarioSpec`]s.
//!
//! The [`dht_experiments::spec`] module defines the spec language and can
//! run one spec at a time; this crate adds the two serving shapes on top:
//!
//! * [`runner`] — execute a directory of spec files (or one spec file)
//!   reproducibly: sorted input order, schema-versioned report per spec,
//!   manifest of content hashes. Byte-identical across runs and thread
//!   budgets.
//! * [`server`] — a persistent line-delimited-JSON service (stdin or TCP)
//!   answering repeated "N, geometry, q → resilience + scalability report"
//!   queries. Responses are memoized keyed by the spec's canonical content
//!   hash, and the expensive intermediates are cached across *different*
//!   queries too: compiled [`dht_overlay::RoutingKernel`]s are reused
//!   through an [`OverlayCache`] and Markov-chain solves through a
//!   [`dht_markov::ChainCache`]. [`ServerStats`] exposes hit counters so
//!   callers (and the integration tests) can observe that a repeated query
//!   ran zero new trials, kernel compiles or chain solves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod runner;
pub mod server;

pub use cache::{OverlayCache, ServerStats};
pub use dht_experiments::spec::{ScenarioReport, ScenarioSpec};
pub use runner::{run_batch, run_directory, BatchEntry, BatchOptions};
pub use server::{Query, ReportServer, Request, RequestEnvelope};
