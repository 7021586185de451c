//! Frequent itemset mining — the workloads that motivate the paper (§1.1).
//!
//! The paper's introduction frames itemset frequency sketches as the
//! substrate for classical mining tasks: market-basket analysis (Agrawal et
//! al.), rule identification (Mannila–Toivonen), and the hardness discussion
//! of §1.1.1 (maximal frequent itemsets ↔ balanced bicliques). This crate
//! implements those consumers so the examples and experiments can run real
//! mining pipelines both on raw databases and on sketches:
//!
//! * [`apriori`] — level-wise mining with prefix-join candidate generation.
//! * [`fpgrowth`] — FP-tree based mining without candidate generation.
//!   Both return identical result sets (cross-checked in tests).
//!   FP-growth is kept as the row-counting oracle: it counts from rows
//!   (`Database::support` and an FP-tree), not through the tid-set
//!   kernels, so it checks apriori independently.
//! * [`summary`] — maximal- and closed-itemset condensation (§1.1.1's
//!   "condensed representations").
//! * [`rules`] — association rules with support/confidence/lift.
//! * [`biclique`] — the §1.1.1 reduction between frequent itemsets and
//!   balanced complete bipartite subgraphs, with exact and greedy finders.
//! * [`oracle`] — Apriori against *any* frequency estimator, the
//!   ε-adequate-representation workflow of [MT96]: mine from a sketch
//!   instead of the database.
//!
//! [MT96]: https://www.aaai.org/Papers/KDD/1996/KDD96-031.pdf

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod biclique;
pub mod fpgrowth;
pub mod oracle;
pub mod rules;
pub mod summary;

use ifs_database::Itemset;

/// A mined itemset with its (exact or estimated) frequency.
#[derive(Clone, Debug, PartialEq)]
pub struct MinedItemset {
    /// The itemset.
    pub itemset: Itemset,
    /// Its frequency in the mined source.
    pub frequency: f64,
}

/// Canonical ordering for result comparison across algorithms.
pub fn sort_results(results: &mut [MinedItemset]) {
    results.sort_by(|a, b| a.itemset.cmp(&b.itemset));
}
