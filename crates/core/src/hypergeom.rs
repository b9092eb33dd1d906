//! Exact (hypergeometric) null model — an extension beyond the paper.
//!
//! Theorem 1 approximates the degree a vertex keeps inside a random
//! size-`σ` subgraph with a *binomial*: each of its `α` neighbors is
//! included independently with probability `ρ = (σ−1)/(|V|−1)`. The exact
//! law of that degree is **hypergeometric** — the `σ−1` companions are
//! drawn *without replacement* from the other `|V|−1` vertices, of which
//! `α` are neighbors:
//!
//! ```text
//! P[deg = β] = C(α, β) · C(|V|−1−α, σ−1−β) / C(|V|−1, σ−1)
//! ```
//!
//! [`ExactModel`] mirrors [`AnalyticalModel`](crate::AnalyticalModel) with
//! the exact law. For `σ ≪ |V|` the two agree closely (the binomial is the
//! large-population limit of the hypergeometric); near `σ ≈ |V|` the
//! binomial smears mass onto degrees the sample cannot actually produce,
//! and the exact model is visibly sharper. This is a deliberate extension
//! (one of the three interchangeable null models in
//! `docs/ARCHITECTURE.md`): the paper's pruning only needs a *monotone*
//! `exp` function, which both laws provide.

use std::sync::Arc;

use scpm_graph::csr::CsrGraph;
use scpm_graph::degree::DegreeDistribution;
use scpm_quasiclique::QcConfig;

use crate::nullmodel::{ExpectedCorrelation, LnFactorial, ModelKind, NullModelCache};

/// `P[Hypergeometric(population, successes, draws) = k]` via a
/// log-factorial table. Zero when the configuration is impossible.
pub fn hypergeometric_pmf(
    population: usize,
    successes: usize,
    draws: usize,
    k: usize,
    lnf: &LnFactorial,
) -> f64 {
    if successes > population || draws > population {
        return 0.0;
    }
    if k > successes || k > draws {
        return 0.0;
    }
    // The remaining draws must fit among the non-successes.
    if draws - k > population - successes {
        return 0.0;
    }
    let ln_p = lnf.ln_choose(successes, k) + lnf.ln_choose(population - successes, draws - k)
        - lnf.ln_choose(population, draws);
    ln_p.exp()
}

/// `P[Hypergeometric(population, successes, draws) ≥ z]` by pmf summation.
pub fn hypergeometric_tail(
    population: usize,
    successes: usize,
    draws: usize,
    z: usize,
    lnf: &LnFactorial,
) -> f64 {
    let hi = successes.min(draws);
    if z > hi {
        return 0.0;
    }
    (z..=hi)
        .map(|k| hypergeometric_pmf(population, successes, draws, k, lnf))
        .sum::<f64>()
        .min(1.0)
}

/// The exact expected-structural-correlation upper bound: Theorem 2 with
/// the hypergeometric law in place of the binomial approximation. Memoized
/// per support in a (shareable) [`NullModelCache`], under its own
/// [`ModelKind`] so it never collides with the analytical values.
#[derive(Debug)]
pub struct ExactModel {
    dist: DegreeDistribution,
    n: usize,
    z: usize,
    lnf: LnFactorial,
    cache: Arc<NullModelCache>,
}

impl ExactModel {
    /// Builds the model from a graph's topology and the quasi-clique
    /// parameters.
    pub fn new(g: &CsrGraph, cfg: &QcConfig) -> Self {
        Self::from_distribution(DegreeDistribution::from_graph(g), g.num_vertices(), cfg)
    }

    /// Builds the model from a precomputed degree distribution over a
    /// graph with `n` vertices.
    pub fn from_distribution(dist: DegreeDistribution, n: usize, cfg: &QcConfig) -> Self {
        let z = cfg.min_required_degree();
        // ln_choose needs arguments up to the population size n − 1.
        let lnf = LnFactorial::new(n.max(2) - 1);
        ExactModel {
            dist,
            n,
            z,
            lnf,
            cache: Arc::new(NullModelCache::new()),
        }
    }

    /// Replaces the memo with a shared [`NullModelCache`], builder style.
    /// The cache must come from a model over the same graph.
    pub fn with_cache(mut self, cache: Arc<NullModelCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The cache backing [`ExactModel::expected`].
    pub fn cache(&self) -> &Arc<NullModelCache> {
        &self.cache
    }

    /// The degree threshold `z = ⌈γ·(min_size−1)⌉`.
    pub fn z(&self) -> usize {
        self.z
    }

    /// `exact-exp(σ)`, memoized.
    pub fn expected(&self, sigma: usize) -> f64 {
        self.cache
            .get_or_compute(ModelKind::Exact, self.z, sigma, || {
                self.expected_uncached(sigma)
            })
    }

    /// `exact-exp(σ) = Σ_α p(α) · P[Hyp(|V|−1, α, σ−1) ≥ z]`.
    pub fn expected_uncached(&self, sigma: usize) -> f64 {
        if self.n <= 1 || sigma == 0 {
            return 0.0;
        }
        if self.z == 0 {
            return 1.0;
        }
        let sigma = sigma.min(self.n);
        let draws = sigma - 1;
        let population = self.n - 1;
        let m = self.dist.max_degree();
        let mut acc = 0.0;
        for alpha in self.z..=m {
            let p = self.dist.p(alpha);
            if p > 0.0 {
                acc += p * hypergeometric_tail(population, alpha, draws, self.z, &self.lnf);
            }
        }
        acc.min(1.0)
    }

    /// Normalized structural correlation `δ_exact = ε / exact-exp(σ)`,
    /// under the convention of [`ExpectedCorrelation::normalized`].
    pub fn normalize(&self, epsilon: f64, sigma: usize) -> f64 {
        self.normalized(epsilon, sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullmodel::{binomial_tail, AnalyticalModel};
    use scpm_graph::builder::graph_from_edges;
    use scpm_graph::generators::erdos_renyi::gnm;

    #[test]
    fn pmf_matches_hand_computed_values() {
        let lnf = LnFactorial::new(10);
        // Hyp(N=10, K=4, n=3): P[X=2] = C(4,2)·C(6,1)/C(10,3) = 36/120.
        let p = hypergeometric_pmf(10, 4, 3, 2, &lnf);
        assert!((p - 36.0 / 120.0).abs() < 1e-12);
        // Impossible: more successes drawn than exist.
        assert_eq!(hypergeometric_pmf(10, 2, 3, 3, &lnf), 0.0);
        // Forced: drawing everything.
        assert!((hypergeometric_pmf(10, 4, 10, 4, &lnf) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one() {
        let lnf = LnFactorial::new(30);
        for &(pop, succ, draws) in &[(30usize, 10usize, 7usize), (20, 5, 15), (12, 12, 6)] {
            let total: f64 = (0..=succ.min(draws))
                .map(|k| hypergeometric_pmf(pop, succ, draws, k, &lnf))
                .sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "pop={pop} succ={succ} draws={draws}: {total}"
            );
        }
    }

    #[test]
    fn tail_edge_cases() {
        let lnf = LnFactorial::new(20);
        assert!((hypergeometric_tail(20, 5, 10, 0, &lnf) - 1.0).abs() < 1e-12);
        assert_eq!(hypergeometric_tail(20, 5, 10, 6, &lnf), 0.0);
        // Drawing the whole population keeps every neighbor.
        assert!((hypergeometric_tail(20, 5, 20, 5, &lnf) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn converges_to_binomial_for_large_population() {
        // Fixed draws fraction, growing population: hypergeometric tail →
        // binomial tail.
        let lnf = LnFactorial::new(100_000);
        let alpha = 12usize;
        let z = 4usize;
        let mut last_gap = f64::MAX;
        for &n in &[100usize, 1_000, 100_000] {
            let draws = n / 5;
            let rho = draws as f64 / n as f64;
            let hyper = hypergeometric_tail(n, alpha, draws, z, &lnf);
            let binom = binomial_tail(alpha, z, rho, &lnf);
            let gap = (hyper - binom).abs();
            assert!(
                gap <= last_gap + 1e-12,
                "gap must shrink: {gap} vs {last_gap}"
            );
            last_gap = gap;
        }
        assert!(last_gap < 1e-3, "large-population gap: {last_gap}");
    }

    #[test]
    fn exact_model_monotone_in_sigma() {
        let g = gnm(150, 600, 5);
        let model = ExactModel::new(&g, &QcConfig::new(0.6, 4));
        let mut prev = -1.0;
        for sigma in (0..=150).step_by(10) {
            let e = model.expected(sigma);
            assert!(e >= prev - 1e-12, "σ={sigma}: {e} < {prev}");
            assert!((0.0..=1.0).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn exact_model_full_sample_is_degree_tail() {
        // σ = n draws everything: P[deg ≥ z] is exactly the fraction of
        // vertices with degree ≥ z — no binomial smearing.
        let g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]);
        // Degrees: 3, 3, 2, 2, 0; z = 3 for γ=1, min_size=4.
        let model = ExactModel::new(&g, &QcConfig::new(1.0, 4));
        assert!((model.expected(5) - 0.4).abs() < 1e-12);
        // The binomial model agrees at σ = n only in the limit; the exact
        // model is exact.
        let binom = AnalyticalModel::new(&g, &QcConfig::new(1.0, 4));
        assert!((binom.expected(5) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn exact_close_to_binomial_when_sigma_small() {
        let g = gnm(400, 1600, 9);
        let cfg = QcConfig::new(0.5, 5);
        let exact = ExactModel::new(&g, &cfg);
        let binom = AnalyticalModel::new(&g, &cfg);
        for sigma in [10usize, 40, 80] {
            let e = exact.expected(sigma);
            let b = binom.expected(sigma);
            assert!((e - b).abs() < 0.02, "σ={sigma}: exact {e} vs binomial {b}");
        }
    }

    #[test]
    fn normalize_conventions() {
        let g = graph_from_edges(3, [(0, 1)]);
        let model = ExactModel::new(&g, &QcConfig::new(1.0, 3));
        assert_eq!(model.normalize(0.0, 1), 0.0);
        assert_eq!(model.normalize(0.5, 1), f64::INFINITY);
    }

    #[test]
    fn z_zero_gives_one() {
        let g = gnm(30, 60, 3);
        let model = ExactModel::new(&g, &QcConfig::new(0.5, 1));
        assert_eq!(model.expected(10), 1.0);
    }
}
