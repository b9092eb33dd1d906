//! Search-tree nodes and the degree-feasibility bounds that prune them.
//!
//! A node is a pair `(X, cands)` from the set-enumeration tree of
//! Algorithm 1 in the paper: `X` is the current vertex set and `cands` the
//! candidate extensions, all with ids greater than `max(X)` so that every
//! subset is visited exactly once.

use crate::config::QcConfig;
use scpm_graph::csr::VertexId;

/// A candidate quasi-clique `(X, candExts(X))` with per-vertex bookkeeping.
#[derive(Clone, Debug)]
pub struct SearchNode {
    /// Members, ascending.
    pub x: Vec<VertexId>,
    /// `indeg[i] = |N(x[i]) ∩ X|`.
    pub x_indeg: Vec<u32>,
    /// Candidate extensions, ascending, all greater than `max(x)`.
    pub cands: Vec<VertexId>,
    /// `indeg[j] = |N(cands[j]) ∩ X|`.
    pub cands_indeg: Vec<u32>,
}

impl SearchNode {
    /// Total size of the subtree's largest possible set.
    #[inline]
    pub fn upper_size(&self) -> usize {
        self.x.len() + self.cands.len()
    }
}

/// Feasibility of a *member* `u ∈ X`: is there a size
/// `s ∈ [max(min_size, |X|), |X| + |cands|]` at which `u` could satisfy the
/// degree requirement, assuming every one of its candidate neighbors joins?
///
/// `indeg` is `|N(u) ∩ X|`, `exdeg` is `|N(u) ∩ cands|`. The margin
/// function `f(t) = indeg + min(exdeg, t) − ⌈γ(|X|+t−1)⌉` (with
/// `t = s − |X|`) is non-decreasing while `t ≤ exdeg` (each step adds one
/// potential neighbor and the requirement grows by at most one since
/// `γ ≤ 1`) and non-increasing afterwards, so its maximum over the valid
/// range is attained at `t = clamp(exdeg, t_min, t_max)`.
pub fn member_feasible(
    cfg: &QcConfig,
    indeg: usize,
    exdeg: usize,
    x_len: usize,
    cands_len: usize,
) -> bool {
    let t_min = cfg.min_size.saturating_sub(x_len);
    let t_max = cands_len;
    if t_min > t_max {
        return false;
    }
    let t = exdeg.clamp(t_min, t_max);
    indeg + exdeg.min(t) >= cfg.required_degree(x_len + t)
}

/// Feasibility of a *candidate* `v ∈ cands`: is there a size
/// `s ∈ [max(min_size, |X|+1), |X| + |cands|]` at which `v` could satisfy
/// the requirement? Besides `v` itself, only `t − 1` other candidates can
/// join, so the margin is `f(t) = indeg + min(exdeg, t−1) − ⌈γ(|X|+t−1)⌉`,
/// maximized at `t = clamp(exdeg + 1, t_min, t_max)` by the same
/// piecewise-monotonicity argument.
pub fn candidate_feasible(
    cfg: &QcConfig,
    indeg: usize,
    exdeg: usize,
    x_len: usize,
    cands_len: usize,
) -> bool {
    let t_min = cfg.min_size.saturating_sub(x_len).max(1);
    let t_max = cands_len;
    if t_min > t_max {
        return false;
    }
    let t = (exdeg + 1).clamp(t_min, t_max);
    indeg + exdeg.min(t - 1) >= cfg.required_degree(x_len + t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: scan every size in the valid range.
    fn member_feasible_naive(
        cfg: &QcConfig,
        indeg: usize,
        exdeg: usize,
        x_len: usize,
        cands_len: usize,
    ) -> bool {
        let lo = cfg.min_size.max(x_len);
        let hi = x_len + cands_len;
        (lo..=hi).any(|s| {
            let t = s - x_len;
            indeg + exdeg.min(t) >= cfg.required_degree(s)
        })
    }

    fn candidate_feasible_naive(
        cfg: &QcConfig,
        indeg: usize,
        exdeg: usize,
        x_len: usize,
        cands_len: usize,
    ) -> bool {
        let lo = cfg.min_size.max(x_len + 1);
        let hi = x_len + cands_len;
        (lo..=hi).any(|s| {
            let t = s - x_len;
            indeg + exdeg.min(t - 1) >= cfg.required_degree(s)
        })
    }

    #[test]
    fn closed_form_matches_naive_scan() {
        for &gamma in &[0.3, 0.5, 0.6, 0.75, 1.0] {
            for min_size in 1..=6 {
                let cfg = QcConfig::new(gamma, min_size);
                for x_len in 0..6 {
                    for cands_len in 0..8 {
                        for indeg in 0..=x_len {
                            for exdeg in 0..=cands_len {
                                assert_eq!(
                                    member_feasible(&cfg, indeg, exdeg, x_len, cands_len),
                                    member_feasible_naive(&cfg, indeg, exdeg, x_len, cands_len),
                                    "member γ={gamma} ms={min_size} x={x_len} c={cands_len} in={indeg} ex={exdeg}"
                                );
                                assert_eq!(
                                    candidate_feasible(&cfg, indeg, exdeg, x_len, cands_len),
                                    candidate_feasible_naive(&cfg, indeg, exdeg, x_len, cands_len),
                                    "cand γ={gamma} ms={min_size} x={x_len} c={cands_len} in={indeg} ex={exdeg}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn member_infeasible_when_range_empty() {
        let cfg = QcConfig::new(0.5, 10);
        // |X| + |cands| = 5 < min_size.
        assert!(!member_feasible(&cfg, 3, 2, 3, 2));
        assert!(!candidate_feasible(&cfg, 3, 2, 3, 2));
    }

    #[test]
    fn isolated_candidate_infeasible_for_clique() {
        let cfg = QcConfig::new(1.0, 3);
        // indeg 0, exdeg 0 in a node with |X| = 2: would need degree 2.
        assert!(!candidate_feasible(&cfg, 0, 0, 2, 3));
        // A candidate adjacent to both members and one other candidate is
        // feasible for size 3 (needs degree 2).
        assert!(candidate_feasible(&cfg, 2, 1, 2, 3));
    }
}
