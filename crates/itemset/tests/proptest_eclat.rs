//! Property tests: Eclat (capped and unbounded) and the closed-itemset
//! miner must agree with their brute-force references on random
//! attributed graphs.

use proptest::prelude::*;
use scpm_graph::attributed::{AttributedGraph, AttributedGraphBuilder};
use scpm_itemset::closed::closed_bruteforce;
use scpm_itemset::{bruteforce, closed_itemsets, eclat, EclatConfig, Tidset};

/// Random attributed graph: `n` vertices, `k` attributes, random
/// assignments (topology irrelevant to itemset mining).
fn attributed() -> impl Strategy<Value = AttributedGraph> {
    (2usize..=12, 1usize..=6).prop_flat_map(|(n, k)| {
        proptest::collection::vec(proptest::collection::vec(0u32..k as u32, 0..=k), n).prop_map(
            move |assignments| {
                let mut b = AttributedGraphBuilder::new(n);
                for a in 0..k as u32 {
                    b.intern_attr(&format!("attr{a}"));
                }
                for (v, attrs) in assignments.iter().enumerate() {
                    for &a in attrs {
                        b.add_attr(v as u32, a);
                    }
                }
                b.build()
            },
        )
    })
}

fn normalize(v: Vec<scpm_itemset::FrequentItemset>) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut out: Vec<(Vec<u32>, Vec<u32>)> = v
        .into_iter()
        .map(|fi| (fi.items, fi.tids.as_slice().to_vec()))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The size cap is checked against the oracle too: `max_size` is drawn
    /// from `1..=4` and unbounded.
    #[test]
    fn eclat_matches_bruteforce(
        g in attributed(),
        min_support in 1usize..=5,
        max_size in prop_oneof![1usize..=4, Just(usize::MAX)],
    ) {
        let cfg = EclatConfig { min_support, max_size };
        prop_assert_eq!(normalize(eclat(&g, &cfg)), normalize(bruteforce(&g, &cfg)));
    }

    #[test]
    fn closed_matches_bruteforce(g in attributed(), min_support in 1usize..=4) {
        let cfg = EclatConfig { min_support, max_size: usize::MAX };
        let norm = |v: Vec<scpm_itemset::ClosedItemset>| {
            let mut out: Vec<(Vec<u32>, Vec<u32>)> = v
                .into_iter()
                .map(|c| (c.items, c.tids.as_slice().to_vec()))
                .collect();
            out.sort();
            out
        };
        prop_assert_eq!(
            norm(closed_itemsets(&g, &cfg)),
            norm(closed_bruteforce(&g, &cfg))
        );
    }

    #[test]
    fn closure_preserves_all_supports(g in attributed(), min_support in 1usize..=3) {
        // Lossless-summary property: every frequent itemset's support is
        // recoverable as the max support of a closed superset.
        let cfg = EclatConfig { min_support, max_size: usize::MAX };
        let closed = closed_itemsets(&g, &cfg);
        for fi in eclat(&g, &cfg) {
            let sup = closed
                .iter()
                .filter(|c| fi.items.iter().all(|x| c.items.contains(x)))
                .map(|c| c.support())
                .max();
            prop_assert_eq!(sup, Some(fi.support()), "itemset {:?}", fi.items);
        }
    }

    #[test]
    fn supports_are_antimonotone(g in attributed()) {
        let cfg = EclatConfig { min_support: 1, max_size: usize::MAX };
        let all = eclat(&g, &cfg);
        // Every itemset's support is at most the support of each subset
        // obtained by dropping one item.
        let lookup: std::collections::HashMap<Vec<u32>, usize> =
            all.iter().map(|fi| (fi.items.clone(), fi.support())).collect();
        for fi in &all {
            if fi.items.len() < 2 { continue; }
            for drop in 0..fi.items.len() {
                let mut sub = fi.items.clone();
                sub.remove(drop);
                let sup = lookup.get(&sub).copied().unwrap_or(0);
                prop_assert!(fi.support() <= sup,
                    "{:?} support {} > subset {:?} support {}", fi.items, fi.support(), sub, sup);
            }
        }
    }

    #[test]
    fn max_size_truncates(g in attributed(), max_size in 1usize..=3) {
        let cfg = EclatConfig { min_support: 1, max_size };
        let all = eclat(&g, &cfg);
        prop_assert!(all.iter().all(|fi| fi.items.len() <= max_size));
        // The truncated run is exactly the full run filtered by size.
        let full = eclat(&g, &EclatConfig { min_support: 1, max_size: usize::MAX });
        let filtered: Vec<_> = full.into_iter().filter(|fi| fi.items.len() <= max_size).collect();
        prop_assert_eq!(normalize(all), normalize(filtered));
    }

    #[test]
    fn tidset_ops_model_sets(
        a in proptest::collection::vec(0u32..60, 0..30),
        b in proptest::collection::vec(0u32..60, 0..30),
    ) {
        use std::collections::BTreeSet;
        let ta = Tidset::from_unsorted(a.clone());
        let tb = Tidset::from_unsorted(b.clone());
        let sa: BTreeSet<u32> = a.into_iter().collect();
        let sb: BTreeSet<u32> = b.into_iter().collect();
        let inter: Vec<u32> = sa.intersection(&sb).copied().collect();
        let ti = ta.intersect(&tb);
        prop_assert_eq!(ti.as_slice(), inter.as_slice());
        prop_assert_eq!(ta.intersect_count(&tb), inter.len());
        prop_assert_eq!(ta.is_subset_of(&tb), sa.is_subset(&sb));
    }
}
