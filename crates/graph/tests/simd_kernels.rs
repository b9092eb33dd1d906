//! Kernel edge-case suite: the packed-word kernels the search runs
//! (`difference_is_empty`, `gather_intersect_popcount`) against a
//! word-at-a-time reference on adversarial word patterns — tail masks,
//! all-zero words, single-bit rows, unequal slice lengths, and ≥ 8192-bit
//! sets (past the 4-word blocking).
//!
//! The reference reads a missing word as zero, so over unequal lengths
//! the words of `a` past the end of `b` belong to the difference.

use proptest::prelude::*;
use scpm_graph::bitadj::{difference_is_empty, gather_intersect_popcount};

/// Word `i` of `s`, zero past its end.
fn at(s: &[u64], i: usize) -> u64 {
    s.get(i).copied().unwrap_or(0)
}

/// Reference `|a \ b|`, one word at a time.
fn ref_and_not(a: &[u64], b: &[u64]) -> usize {
    (0..a.len().max(b.len()))
        .map(|i| (at(a, i) & !at(b, i)).count_ones() as usize)
        .sum()
}

/// One word drawn from the adversarial corners, not just uniform bits:
/// all-zero, all-one, single-bit, low/high tail masks,
/// and uniform random.
fn word() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        (0u32..64).prop_map(|b| 1u64 << b),
        (1u32..=64).prop_map(|b| u64::MAX >> (64 - b)),
        (1u32..64).prop_map(|b| u64::MAX << b),
        (1u32..=63).prop_map(|b| (1u64 << b) - 1),
        any::<u64>(),
        any::<u64>(),
    ]
}

/// Word slices long enough to leave the 4-word blocks far behind: up to
/// 160 words = 10240 bits.
fn words(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(word(), 0..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `a ⊆ b` — the early-exit kernel; equivalence with the counting
    /// reference pins the short-circuit against the full scan. Words of
    /// `a` beyond `b`'s length belong to the difference, so the tail
    /// handling differs from plain truncation.
    #[test]
    fn difference_is_empty_backends_agree(a in words(160), b in words(160)) {
        prop_assert_eq!(difference_is_empty(&a, &b), ref_and_not(&a, &b) == 0);
    }

    /// Subset inputs hit the no-early-exit path of `difference_is_empty`
    /// — force them explicitly since random pairs are almost never ⊆.
    #[test]
    fn difference_is_empty_on_forced_subsets(b in words(160), mask in words(160)) {
        let a: Vec<u64> = b.iter().zip(&mask).map(|(&x, &m)| x & m).collect();
        prop_assert_eq!(ref_and_not(&a, &b), 0);
        prop_assert!(difference_is_empty(&a, &b));
    }

    /// Gathered `|a ∩ b|` over an arbitrary in-range word-index list
    /// (duplicates included — the kernel is a plain sum over `idx`).
    #[test]
    fn gather_backends_agree(
        ab in (8usize..=160).prop_flat_map(|n| (
            proptest::collection::vec(word(), n),
            proptest::collection::vec(word(), n),
            proptest::collection::vec(0u32..n as u32, 0..=2 * n),
        )),
    ) {
        let (a, b, idx) = ab;
        let expect: usize = idx
            .iter()
            .map(|&i| (a[i as usize] & b[i as usize]).count_ones() as usize)
            .sum();
        prop_assert_eq!(gather_intersect_popcount(&a, &b, &idx), expect);
    }
}

/// Directed corners the generators only hit probabilistically: empty
/// slices, the exact 4-word block boundary, the exact 8192-bit universe,
/// and all-zero operands.
#[test]
fn kernel_corner_cases() {
    let zero128 = vec![0u64; 128];
    let ones128 = vec![u64::MAX; 128];
    let mut single = vec![0u64; 128];
    single[127] = 1 << 63; // bit 8191: the very last bit of 8192
    let all: Vec<u32> = (0..128).collect();
    assert_eq!(gather_intersect_popcount(&zero128, &ones128, &all), 0);
    assert_eq!(gather_intersect_popcount(&ones128, &ones128, &all), 8192);
    assert_eq!(gather_intersect_popcount(&single, &ones128, &all), 1);
    assert!(!difference_is_empty(&ones128, &zero128));
    assert!(!difference_is_empty(&ones128, &[]));
    assert!(difference_is_empty(&[], &[]));
    assert!(difference_is_empty(&zero128, &zero128));
    assert!(difference_is_empty(&single, &ones128));
    assert!(!difference_is_empty(&single, &zero128));
    assert!(!difference_is_empty(&single, &[]));
    // Exactly one 4-word block, then a 3-word tail.
    assert!(difference_is_empty(&ones128[..7], &ones128[..7]));
    assert!(!difference_is_empty(&ones128[..7], &zero128[..3]));
    assert!(difference_is_empty(&zero128[..7], &ones128[..3]));
    assert_eq!(gather_intersect_popcount(&single, &ones128, &[127, 127]), 2);
    assert_eq!(gather_intersect_popcount(&ones128, &ones128, &[]), 0);
}
