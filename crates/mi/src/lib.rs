#![forbid(unsafe_code)]
//! Information-theoretic machinery for the approximate miner A-HTPGM
//! (paper Section V).
//!
//! * [`entropy`], [`conditional_entropy`], [`mutual_information`],
//!   [`normalized_mutual_information`] — Defs 5.1–5.3;
//! * [`CorrelationGraph`] — Def 5.5: an undirected graph over symbolic
//!   series with an edge iff NMI meets the threshold `μ` in **both**
//!   directions, plus the density-based μ selection of Def 5.6. Its NMI
//!   matrix counts each unordered pair's joint symbol table once — by
//!   `and_count` over per-symbol [`ftpm_bitmap::Bitmap`]s when both
//!   alphabets have at most 8 symbols, by one pass over the symbols
//!   otherwise — computes each series' marginal and entropy once, and
//!   reads both directions from the one table. Every cell has the bits
//!   the scalar functions above return;
//! * [`confidence_lower_bound`] — Theorem 1: the minimum confidence any
//!   frequent event pair from μ-correlated series can have in `D_SEQ`.
//!
//! All entropies use the natural logarithm; normalized mutual information
//! is scale-invariant, so the choice does not affect A-HTPGM.

mod bound;
mod graph;
mod info;

pub use bound::confidence_lower_bound;
pub use graph::{mu_for_density, CorrelationGraph};
pub use info::{
    conditional_entropy, entropy, joint_distribution, mutual_information,
    normalized_mutual_information,
};
