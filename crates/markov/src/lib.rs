//! Absorbing Markov chain models of DHT routing under random failure.
//!
//! Section 4 of the RCM paper derives every per-phase failure probability
//! `Q(m)` by inspecting a routing Markov chain (Fig. 4(a), 4(b), 5(b), 8(a)
//! and 8(b)). This crate makes those chains executable:
//!
//! * [`chain`] — a generic absorbing discrete-time Markov chain with sparse
//!   transitions and validation.
//! * [`solver`] — absorption probabilities and expected absorption time for
//!   acyclic (feed-forward) chains, which all five routing chains are.
//! * [`chains`] — builders that construct the exact chain of each figure, so
//!   the closed-form expressions of the core crate can be validated against a
//!   direct numerical evaluation of the model they were derived from.
//!
//! # Example
//!
//! ```rust
//! use dht_markov::chains::hypercube_chain;
//!
//! // Probability of successfully routing h = 3 hops in a hypercube with
//! // node-failure probability q = 0.5. Equation 2 of the paper gives
//! // (1 - q)(1 - q^2)(1 - q^3) = 0.328125.
//! let chain = hypercube_chain(3, 0.5)?;
//! let p = chain.success_probability()?;
//! assert!((p - 0.328125).abs() < 1e-12);
//! # Ok::<(), dht_markov::ChainError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod chain;
pub mod chains;
pub mod solver;

pub use cache::{ChainCache, ChainFamily};
pub use chain::{ChainBuilder, ChainError, MarkovChain, StateId};
pub use chains::{
    hypercube_chain, ring_chain, symphony_chain, tree_chain, xor_chain, RoutingChain,
};
pub use solver::{absorption_probabilities, absorption_probability, expected_steps};
