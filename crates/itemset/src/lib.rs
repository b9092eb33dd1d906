//! Frequent itemset mining substrate for structural correlation pattern
//! mining.
//!
//! In the attributed-graph setting, *items* are attributes, *transactions*
//! are vertices, and the tidset of an itemset `S` is the induced vertex set
//! `V(S)` — so support here is exactly the paper's `σ(S) = |V(S)|`. The
//! [`eclat`](fn@eclat) miner (Zaki, TKDE 2000) is used by the naive baseline,
//! [`closed_itemsets`] backs `scpm closed`, and the [`Tidset`] machinery is
//! shared with the SCPM attribute-set search.

#![deny(missing_docs)]

pub mod closed;
pub mod eclat;
pub mod tidset;

pub use closed::{closed_itemsets, ClosedItemset};
pub use eclat::{bruteforce, eclat, eclat_visit, EclatConfig, FrequentItemset};
pub use tidset::Tidset;
