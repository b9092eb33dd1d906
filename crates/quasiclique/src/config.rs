//! Quasi-clique parameters and the degree-threshold arithmetic shared by
//! every component (Definition 1 of the paper).

use scpm_graph::csr::{CsrGraph, VertexId};

/// How the search engine represents adjacency and candidate sets in its
/// hot loops. Results are identical either way; only the kernel costs
/// differ.
///
/// The discriminants are stable (`Slice = 0`, `Bitset = 1`): the memo
/// fingerprint hashes `repr as u64`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Representation {
    /// Sorted-slice scans, stamp-array marking and binary searches over
    /// the CSR neighbor lists — the pre-bitset baseline, kept for
    /// ablations and as the fallback for graphs too large to pack.
    Slice,
    /// Packed `u64`-word bitsets: a dense
    /// [`BitAdjacency`](scpm_graph::bitadj::BitAdjacency) matrix per
    /// reduced subgraph (`O(1)` edge tests),
    /// [`VertexBitset`](scpm_graph::bitadj::VertexBitset) popcount kernels
    /// for external degrees, and batched row-AND promotion sweeps in the
    /// child-generation / forcing hot paths — all through the blocked
    /// scalar kernels. Falls back to [`Representation::Slice`] when the
    /// reduced subgraph exceeds
    /// [`BITADJ_MAX_VERTICES`](crate::engine::BITADJ_MAX_VERTICES).
    #[default]
    Bitset,
}

/// Parameters of the quasi-clique definition: a vertex set `Q` is a
/// `γ`-quasi-clique iff `|Q| ≥ min_size` and every `v ∈ Q` has
/// `deg_Q(v) ≥ ⌈γ·(|Q|−1)⌉`.
///
/// ```
/// use scpm_quasiclique::QcConfig;
/// use scpm_graph::builder::graph_from_edges;
///
/// // A 4-cycle: every vertex has degree 2 = ⌈0.6·3⌉, so the cycle is a
/// // 0.6-quasi-clique of size 4 — but not a 0.7-quasi-clique.
/// let g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let cfg = QcConfig::new(0.6, 4);
/// assert_eq!(cfg.min_required_degree(), 2);
/// assert!(cfg.is_quasi_clique(&g, &[0, 1, 2, 3]));
/// assert!(!QcConfig::new(0.7, 4).is_quasi_clique(&g, &[0, 1, 2, 3]));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QcConfig {
    /// Minimum density `γ ∈ (0, 1]`.
    pub gamma: f64,
    /// Minimum quasi-clique size.
    pub min_size: usize,
}

/// `⌈γ·k⌉` computed robustly against floating-point drift (e.g.
/// `0.6 * 5 = 3.0000000000000004` must yield 3, not 4).
pub fn ceil_gamma(gamma: f64, k: usize) -> usize {
    let x = gamma * k as f64;
    ((x - 1e-9).ceil().max(0.0)) as usize
}

impl QcConfig {
    /// Creates a validated configuration.
    ///
    /// # Panics
    /// Panics if `gamma ∉ (0, 1]` or `min_size == 0`.
    pub fn new(gamma: f64, min_size: usize) -> Self {
        assert!(
            gamma > 0.0 && gamma <= 1.0,
            "gamma must be in (0, 1], got {gamma}"
        );
        assert!(min_size >= 1, "min_size must be at least 1");
        QcConfig { gamma, min_size }
    }

    /// The degree every member of a size-`size` quasi-clique must reach:
    /// `⌈γ·(size−1)⌉`.
    #[inline]
    pub fn required_degree(&self, size: usize) -> usize {
        if size == 0 {
            return 0;
        }
        ceil_gamma(self.gamma, size - 1)
    }

    /// The global lower bound `z = ⌈γ·(min_size−1)⌉`: a vertex with fewer
    /// neighbors can never belong to any qualifying quasi-clique, because
    /// `required_degree` is non-decreasing in the size.
    #[inline]
    pub fn min_required_degree(&self) -> usize {
        self.required_degree(self.min_size)
    }

    /// Whether the sorted vertex set `set` satisfies the quasi-clique
    /// predicate in `g` (degree property plus minimum size; maximality is
    /// a separate, global property).
    pub fn is_quasi_clique(&self, g: &CsrGraph, set: &[VertexId]) -> bool {
        if set.len() < self.min_size {
            return false;
        }
        let req = self.required_degree(set.len());
        set.iter().all(|&v| g.degree_within(v, set) >= req)
    }

    /// `min_v deg_Q(v) / (|Q|−1)`: the density figure the paper reports in
    /// its pattern tables (`γ` column).
    pub fn min_degree_ratio(g: &CsrGraph, set: &[VertexId]) -> f64 {
        if set.len() < 2 {
            return 1.0;
        }
        let min_deg = set
            .iter()
            .map(|&v| g.degree_within(v, set))
            .min()
            .unwrap_or(0);
        min_deg as f64 / (set.len() - 1) as f64
    }

    /// Edge density `|E(Q)| / C(|Q|, 2)`.
    pub fn edge_density(g: &CsrGraph, set: &[VertexId]) -> f64 {
        if set.len() < 2 {
            return 1.0;
        }
        let pairs = set.len() * (set.len() - 1) / 2;
        g.edges_within(set) as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::builder::graph_from_edges;

    #[test]
    fn representation_discriminants_are_stable() {
        // Memo fingerprints hash `repr as u64`; renumbering would orphan
        // every stored memo.
        assert_eq!(Representation::Slice as u64, 0);
        assert_eq!(Representation::Bitset as u64, 1);
    }

    #[test]
    fn ceil_gamma_robust_to_fp_drift() {
        // 0.6 * 5 = 3.0000000000000004 in f64.
        assert_eq!(ceil_gamma(0.6, 5), 3);
        assert_eq!(ceil_gamma(0.5, 3), 2);
        assert_eq!(ceil_gamma(1.0, 4), 4);
        assert_eq!(ceil_gamma(0.7, 0), 0);
        assert_eq!(ceil_gamma(0.34, 3), 2); // 1.02 -> 2
    }

    #[test]
    fn required_degree_monotone_in_size() {
        let cfg = QcConfig::new(0.6, 4);
        let degs: Vec<usize> = (1..20).map(|s| cfg.required_degree(s)).collect();
        assert!(degs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cfg.required_degree(4), 2); // ceil(0.6*3) = 2
        assert_eq!(cfg.required_degree(6), 3); // ceil(0.6*5) = 3
        assert_eq!(cfg.min_required_degree(), 2);
    }

    #[test]
    fn clique_is_quasi_clique_at_gamma_1() {
        let g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let cfg = QcConfig::new(1.0, 4);
        assert!(cfg.is_quasi_clique(&g, &[0, 1, 2, 3]));
        assert!(!cfg.is_quasi_clique(&g, &[0, 1, 2])); // below min_size
    }

    #[test]
    fn cycle_is_half_dense_quasi_clique() {
        // 4-cycle: every vertex has degree 2 = ceil(0.6 * 3).
        let g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(QcConfig::new(0.6, 4).is_quasi_clique(&g, &[0, 1, 2, 3]));
        assert!(!QcConfig::new(0.7, 4).is_quasi_clique(&g, &[0, 1, 2, 3]));
    }

    #[test]
    fn ratios_and_density() {
        let g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let all = [0, 1, 2, 3];
        // Degrees: 0:3, 1:2, 2:3, 3:2 → min ratio 2/3.
        assert!((QcConfig::min_degree_ratio(&g, &all) - 2.0 / 3.0).abs() < 1e-12);
        assert!((QcConfig::edge_density(&g, &all) - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(QcConfig::min_degree_ratio(&g, &[0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1]")]
    fn rejects_bad_gamma() {
        QcConfig::new(0.0, 3);
    }
}
