//! Null models for the expected structural correlation (§2.1.3).
//!
//! The normalized structural correlation `δ(S) = ε(S) / exp(σ(S))` needs the
//! expected correlation `exp` of a random vertex subset of size `σ(S)`. Two
//! models are provided:
//!
//! * [`AnalyticalModel`] — the closed-form upper bound `max-exp` of
//!   Theorem 2: the probability that a random vertex keeps degree at least
//!   `z = ⌈γ·(min_size−1)⌉` inside a random size-`σ` subgraph, computed from
//!   the empirical degree distribution and the binomial of Theorem 1.
//!   `δ_lb = ε / max-exp` lower-bounds the simulation-based `δ_sim`.
//! * [`simulate_expected`] — the `sim-exp` estimator: draw `r` random vertex
//!   samples of size `σ`, mine quasi-cliques in each induced subgraph, and
//!   average the covered fraction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rand::prelude::*;
use rand::rngs::StdRng;

use scpm_graph::csr::{CsrGraph, VertexId};
use scpm_graph::degree::DegreeDistribution;
use scpm_graph::induced::InducedSubgraph;
use scpm_quasiclique::{Miner, QcConfig};

/// Common interface of the null models: an expected structural correlation
/// per support value and the induced normalization `δ = ε / exp(σ)`.
///
/// Implemented by [`AnalyticalModel`] (binomial upper bound `max-exp`,
/// Theorem 2), [`crate::ExactModel`] (hypergeometric variant) and
/// [`SimulationModel`] (`sim-exp`). The pruning rule of Theorem 5 is sound
/// for any implementation whose `expected_epsilon` is monotonically
/// non-decreasing in `sigma`.
pub trait ExpectedCorrelation {
    /// The model's expected structural correlation for support `sigma`.
    fn expected_epsilon(&self, sigma: usize) -> f64;

    /// `δ = ε / exp(σ)` (0 for `ε = 0`, `+∞` when the expectation is zero
    /// but `ε > 0`).
    fn normalized(&self, epsilon: f64, sigma: usize) -> f64 {
        let e = self.expected_epsilon(sigma);
        if e <= 0.0 {
            if epsilon > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            epsilon / e
        }
    }
}

impl ExpectedCorrelation for AnalyticalModel {
    fn expected_epsilon(&self, sigma: usize) -> f64 {
        self.expected(sigma)
    }
}

impl ExpectedCorrelation for crate::hypergeom::ExactModel {
    fn expected_epsilon(&self, sigma: usize) -> f64 {
        self.expected(sigma)
    }
}

impl<'g> ExpectedCorrelation for SimulationModel<'g> {
    fn expected_epsilon(&self, sigma: usize) -> f64 {
        self.expected(sigma).mean
    }
}

/// Which closed-form null model produced a cached value.
///
/// Part of the [`NullModelCache`] key so one cache can serve both model
/// families without their (different) values colliding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The binomial `max-exp` bound of Theorem 2 ([`AnalyticalModel`]).
    Analytical,
    /// The hypergeometric variant ([`crate::ExactModel`]).
    Exact,
}

/// A concurrent, shareable memo of expected-correlation values `exp(σ)`.
///
/// Evaluating `exp(σ)` costs `O(max_degree)` per support value and the
/// same supports recur constantly — across sibling branches of the lattice
/// search, across the workers of [`crate::run_parallel`], and across
/// repeated runs on the same graph (parameter sweeps). One `NullModelCache`
/// behind an [`Arc`] deduplicates all of that work: entries are keyed by
/// `(model kind, degree threshold z, σ)`, so models with different
/// quasi-clique parameters coexist in the same cache.
///
/// The map is guarded by a `parking_lot` reader–writer lock — lookups (the
/// overwhelmingly common case after warm-up) take the read lock only.
/// Hit/miss counters expose cache effectiveness to benches and tests.
///
/// **Sharing rule:** a cache must only be shared between models built from
/// the *same graph* (more precisely: the same degree distribution); the key
/// does not encode the topology.
///
/// ```
/// use std::sync::Arc;
/// use scpm_core::{AnalyticalModel, NullModelCache};
/// use scpm_graph::figure1::figure1;
/// use scpm_quasiclique::QcConfig;
///
/// let g = figure1();
/// let cache = Arc::new(NullModelCache::new());
/// let a = AnalyticalModel::new(g.graph(), &QcConfig::new(0.6, 4)).with_cache(cache.clone());
/// let b = AnalyticalModel::new(g.graph(), &QcConfig::new(0.6, 4)).with_cache(cache.clone());
///
/// let first = a.expected(6);  // computed once…
/// let second = b.expected(6); // …then served from the shared cache
/// assert_eq!(first, second);
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Default)]
pub struct NullModelCache {
    map: RwLock<HashMap<(ModelKind, usize, usize), f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl NullModelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memoized value for `(kind, z, sigma)`, computing and
    /// inserting it via `compute` on a miss.
    ///
    /// Concurrent first requests for the same key may both run `compute`
    /// (the lock is not held across the computation); both arrive at the
    /// same deterministic value, so the last insert is harmless.
    pub fn get_or_compute(
        &self,
        kind: ModelKind,
        z: usize,
        sigma: usize,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let key = (kind, z, sigma);
        if let Some(&v) = self.map.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        let v = compute();
        self.map.write().insert(key, v);
        self.misses.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// Number of distinct `(kind, z, σ)` entries currently memoized.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Lookups served from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute a fresh value.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Table of `ln(k!)` values for numerically stable binomial coefficients.
#[derive(Clone, Debug)]
pub struct LnFactorial {
    table: Vec<f64>,
}

impl LnFactorial {
    /// Builds the table for arguments up to `max_n` inclusive.
    pub fn new(max_n: usize) -> Self {
        let mut table = Vec::with_capacity(max_n + 1);
        table.push(0.0); // ln(0!) = 0
        let mut acc = 0.0;
        for k in 1..=max_n {
            acc += (k as f64).ln();
            table.push(acc);
        }
        LnFactorial { table }
    }

    /// `ln(n!)`.
    #[inline]
    pub fn ln_factorial(&self, n: usize) -> f64 {
        self.table[n]
    }

    /// `ln C(n, k)`; `-inf` when `k > n`.
    pub fn ln_choose(&self, n: usize, k: usize) -> f64 {
        if k > n {
            return f64::NEG_INFINITY;
        }
        self.table[n] - self.table[k] - self.table[n - k]
    }
}

/// `P[Binomial(alpha, rho) = beta]` via the log-factorial table
/// (Theorem 1's `F(α, β, ρ)`).
pub fn binomial_pmf(alpha: usize, beta: usize, rho: f64, lnf: &LnFactorial) -> f64 {
    if beta > alpha {
        return 0.0;
    }
    if rho <= 0.0 {
        return if beta == 0 { 1.0 } else { 0.0 };
    }
    if rho >= 1.0 {
        return if beta == alpha { 1.0 } else { 0.0 };
    }
    let ln_p = lnf.ln_choose(alpha, beta)
        + beta as f64 * rho.ln()
        + (alpha - beta) as f64 * (1.0 - rho).ln();
    ln_p.exp()
}

/// `P[Binomial(alpha, rho) ≥ z]` by direct pmf summation.
pub fn binomial_tail(alpha: usize, z: usize, rho: f64, lnf: &LnFactorial) -> f64 {
    (z..=alpha)
        .map(|beta| binomial_pmf(alpha, beta, rho, lnf))
        .sum::<f64>()
        .min(1.0)
}

/// The analytical `max-exp` upper bound of Theorem 2, memoized per support
/// in a (shareable) [`NullModelCache`].
///
/// ```
/// use scpm_core::AnalyticalModel;
/// use scpm_graph::figure1::figure1;
/// use scpm_quasiclique::QcConfig;
///
/// let g = figure1();
/// let model = AnalyticalModel::new(g.graph(), &QcConfig::new(0.6, 4));
///
/// // exp(σ) is a probability, monotone in σ (the Theorem 5 prerequisite).
/// let (small, large) = (model.expected(4), model.expected(11));
/// assert!((0.0..=1.0).contains(&small));
/// assert!(small <= large);
///
/// // δ_lb = ε / exp(σ): with ε({A}) = 9/11 at support 11,
/// assert!(model.normalize(9.0 / 11.0, 11) >= 9.0 / 11.0 / large - 1e-12);
/// ```
#[derive(Debug)]
pub struct AnalyticalModel {
    dist: DegreeDistribution,
    n: usize,
    z: usize,
    lnf: LnFactorial,
    cache: Arc<NullModelCache>,
}

impl AnalyticalModel {
    /// Builds the model from a graph's topology and the quasi-clique
    /// parameters, with a private cache (see [`AnalyticalModel::with_cache`]
    /// for sharing).
    pub fn new(g: &CsrGraph, cfg: &QcConfig) -> Self {
        Self::from_distribution(DegreeDistribution::from_graph(g), g.num_vertices(), cfg)
    }

    /// Builds the model from a precomputed degree distribution.
    pub fn from_distribution(dist: DegreeDistribution, n: usize, cfg: &QcConfig) -> Self {
        let z = cfg.min_required_degree();
        let lnf = LnFactorial::new(dist.max_degree().max(1));
        AnalyticalModel {
            dist,
            n,
            z,
            lnf,
            cache: Arc::new(NullModelCache::new()),
        }
    }

    /// Replaces the memo with a shared [`NullModelCache`], builder style.
    /// The cache must come from a model over the same graph (the cache key
    /// covers `z` and `σ` but not the topology).
    pub fn with_cache(mut self, cache: Arc<NullModelCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The cache backing [`AnalyticalModel::expected`] — clone the `Arc` to
    /// share memoized values with another model or a parallel run.
    pub fn cache(&self) -> &Arc<NullModelCache> {
        &self.cache
    }

    /// The degree threshold `z = ⌈γ·(min_size−1)⌉`.
    pub fn z(&self) -> usize {
        self.z
    }

    /// `max-exp(σ)`, memoized.
    pub fn expected(&self, sigma: usize) -> f64 {
        self.cache
            .get_or_compute(ModelKind::Analytical, self.z, sigma, || {
                self.expected_uncached(sigma)
            })
    }

    /// `max-exp(σ)` via an `O(max_degree)` recurrence over the binomial
    /// tail:
    /// `P[B_{α+1} ≥ z] = P[B_α ≥ z] + ρ·P[B_α = z−1]` and
    /// `P[B_{α+1} = z−1] = P[B_α = z−1] · (α+1)/(α+2−z) · (1−ρ)`.
    pub fn expected_uncached(&self, sigma: usize) -> f64 {
        if self.n <= 1 || sigma == 0 {
            return 0.0;
        }
        let rho = ((sigma - 1) as f64 / (self.n - 1) as f64).clamp(0.0, 1.0);
        let z = self.z;
        let m = self.dist.max_degree();
        if z == 0 {
            // Every vertex trivially satisfies a zero-degree requirement.
            return 1.0;
        }
        if m < z || rho <= 0.0 {
            return 0.0;
        }
        // Initialize at α = z.
        let mut tail = rho.powi(z as i32); // P[B_z ≥ z] = ρ^z
        let mut pmf_zm1 = if z >= 1 {
            // P[B_z = z−1] = z·ρ^{z−1}·(1−ρ)
            z as f64 * rho.powi(z as i32 - 1) * (1.0 - rho)
        } else {
            0.0
        };
        let mut acc = self.dist.p(z) * tail;
        for alpha in z..m {
            // Advance α → α+1.
            tail += rho * pmf_zm1;
            let next = alpha + 1;
            pmf_zm1 *= (next as f64 / (next + 1 - z) as f64) * (1.0 - rho);
            acc += self.dist.p(next) * tail.min(1.0);
        }
        acc.min(1.0)
    }

    /// Reference implementation: the double sum of Equation 5, term by
    /// term. Used to validate the recurrence.
    pub fn expected_naive(&self, sigma: usize) -> f64 {
        if self.n <= 1 || sigma == 0 {
            return 0.0;
        }
        let rho = ((sigma - 1) as f64 / (self.n - 1) as f64).clamp(0.0, 1.0);
        let z = self.z;
        if z == 0 {
            return 1.0;
        }
        let m = self.dist.max_degree();
        let mut acc = 0.0;
        for alpha in z..=m {
            let p = self.dist.p(alpha);
            if p > 0.0 {
                acc += p * binomial_tail(alpha, z, rho, &self.lnf);
            }
        }
        acc.min(1.0)
    }

    /// Normalized structural correlation `δ_lb = ε / max-exp(σ)`, under
    /// the convention of [`ExpectedCorrelation::normalized`].
    pub fn normalize(&self, epsilon: f64, sigma: usize) -> f64 {
        self.normalized(epsilon, sigma)
    }
}

/// Result of the simulation estimator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimExpected {
    /// Mean covered fraction over the runs.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Number of runs.
    pub runs: usize,
}

/// Raw simulation draws: the covered fraction of `runs` uniform vertex
/// samples of size `sigma` (the statistic underlying both `sim-exp` and
/// the empirical p-value).
pub fn simulate_coverage_samples(
    g: &CsrGraph,
    cfg: &QcConfig,
    sigma: usize,
    runs: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(runs > 0, "need at least one simulation run");
    let n = g.num_vertices();
    let sigma = sigma.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<VertexId> = (0..n as VertexId).collect();
    let mut values = Vec::with_capacity(runs);
    for _ in 0..runs {
        // Partial Fisher-Yates: the first `sigma` entries become the sample.
        for i in 0..sigma {
            let j = rng.random_range(i..n);
            pool.swap(i, j);
        }
        let mut sample: Vec<VertexId> = pool[..sigma].to_vec();
        sample.sort_unstable();
        let sub = InducedSubgraph::extract(g, &sample);
        let covered = Miner::new(&sub.graph, *cfg).coverage().covered.len();
        values.push(if sigma == 0 {
            0.0
        } else {
            covered as f64 / sigma as f64
        });
    }
    values
}

/// `sim-exp(σ)`: draws `runs` uniform vertex samples of size `sigma`,
/// computes the quasi-clique coverage of each induced subgraph, and
/// averages the covered fraction.
pub fn simulate_expected(
    g: &CsrGraph,
    cfg: &QcConfig,
    sigma: usize,
    runs: usize,
    seed: u64,
) -> SimExpected {
    let values = simulate_coverage_samples(g, cfg, sigma, runs, seed);
    let mean = values.iter().sum::<f64>() / runs as f64;
    let var = if runs > 1 {
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (runs - 1) as f64
    } else {
        0.0
    };
    SimExpected {
        mean,
        std_dev: var.sqrt(),
        runs,
    }
}

/// Parallel `sim-exp(σ)`: distributes the simulation runs over
/// `num_threads` crossbeam workers. The paper uses up to `r = 1000` runs
/// per support value (Figure 4); the draws are embarrassingly parallel.
///
/// Results are *deterministic for a given `(seed, runs)`* and independent
/// of `num_threads`: each run derives its own seed, so the multiset of
/// draws never changes, only who executes them.
pub fn simulate_expected_parallel(
    g: &CsrGraph,
    cfg: &QcConfig,
    sigma: usize,
    runs: usize,
    seed: u64,
    num_threads: usize,
) -> SimExpected {
    assert!(runs > 0, "need at least one simulation run");
    if num_threads <= 1 {
        return simulate_expected(g, cfg, sigma, runs, seed);
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut values = vec![0.0f64; runs];
    crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(num_threads);
        for _ in 0..num_threads {
            let next_ref = &next;
            handles.push(scope.spawn(move |_| {
                let mut local: Vec<(usize, f64)> = Vec::new();
                loop {
                    let i = next_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= runs {
                        break;
                    }
                    // One-draw simulation with a per-run seed: the same
                    // sample regardless of which worker claims run i.
                    let run_seed = seed ^ (i as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
                    let v = simulate_coverage_samples(g, cfg, sigma, 1, run_seed)[0];
                    local.push((i, v));
                }
                local
            }));
        }
        let mut all: Vec<(usize, f64)> = Vec::with_capacity(runs);
        for handle in handles {
            all.extend(handle.join().expect("simulation worker panicked"));
        }
        for (i, v) in all {
            values[i] = v;
        }
    })
    .expect("crossbeam scope failed");
    let mean = values.iter().sum::<f64>() / runs as f64;
    let var = if runs > 1 {
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (runs - 1) as f64
    } else {
        0.0
    };
    SimExpected {
        mean,
        std_dev: var.sqrt(),
        runs,
    }
}

/// Empirical (permutation-test) p-value of an observed structural
/// correlation: the chance that a *random* vertex set of the same support
/// reaches coverage at least `epsilon`, estimated with the standard
/// add-one estimator `(1 + #{draws ≥ ε}) / (runs + 1)` so the p-value is
/// never exactly zero.
pub fn empirical_p_value(
    g: &CsrGraph,
    cfg: &QcConfig,
    sigma: usize,
    epsilon: f64,
    runs: usize,
    seed: u64,
) -> f64 {
    let values = simulate_coverage_samples(g, cfg, sigma, runs, seed);
    let hits = values.iter().filter(|&&v| v >= epsilon - 1e-12).count();
    (1 + hits) as f64 / (runs + 1) as f64
}

/// Memoized simulation-based null model, the `sim-exp` counterpart of
/// [`AnalyticalModel`]. `δ_sim = ε / sim-exp(σ)` is what the paper's
/// Figures 4/7/9 compare `δ_lb` against.
#[derive(Debug)]
pub struct SimulationModel<'g> {
    g: &'g CsrGraph,
    cfg: QcConfig,
    runs: usize,
    seed: u64,
    cache: Mutex<HashMap<usize, SimExpected>>,
}

impl<'g> SimulationModel<'g> {
    /// Creates a model running `runs` simulations per support value.
    pub fn new(g: &'g CsrGraph, cfg: QcConfig, runs: usize, seed: u64) -> Self {
        SimulationModel {
            g,
            cfg,
            runs,
            seed,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// `sim-exp(σ)`, memoized per support.
    pub fn expected(&self, sigma: usize) -> SimExpected {
        if let Some(&v) = self.cache.lock().get(&sigma) {
            return v;
        }
        // Derive a per-σ seed so supports are independent but repeatable.
        let v = simulate_expected(
            self.g,
            &self.cfg,
            sigma,
            self.runs,
            self.seed ^ (sigma as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        self.cache.lock().insert(sigma, v);
        v
    }

    /// `δ_sim = ε / sim-exp(σ)`, under the convention of
    /// [`ExpectedCorrelation::normalized`] (`+∞` when the simulation saw no
    /// covered vertices but ε is positive).
    pub fn normalize(&self, epsilon: f64, sigma: usize) -> f64 {
        self.normalized(epsilon, sigma)
    }

    /// Empirical p-value of an observed `ε` at support `sigma` under this
    /// model's run budget and seed (see [`empirical_p_value`]).
    pub fn p_value(&self, epsilon: f64, sigma: usize) -> f64 {
        empirical_p_value(
            self.g,
            &self.cfg,
            sigma,
            epsilon,
            self.runs,
            self.seed ^ (sigma as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::builder::graph_from_edges;
    use scpm_graph::generators::erdos_renyi::gnm;

    #[test]
    fn ln_factorial_values() {
        let lnf = LnFactorial::new(10);
        assert!((lnf.ln_factorial(0) - 0.0).abs() < 1e-12);
        assert!((lnf.ln_factorial(5) - 120f64.ln()).abs() < 1e-9);
        assert!((lnf.ln_choose(5, 2) - 10f64.ln()).abs() < 1e-9);
        assert_eq!(lnf.ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let lnf = LnFactorial::new(40);
        for &rho in &[0.1, 0.5, 0.9] {
            let total: f64 = (0..=30).map(|b| binomial_pmf(30, b, rho, &lnf)).sum();
            assert!((total - 1.0).abs() < 1e-9, "rho {rho}: {total}");
        }
    }

    #[test]
    fn binomial_tail_edge_cases() {
        let lnf = LnFactorial::new(20);
        assert!((binomial_tail(10, 0, 0.3, &lnf) - 1.0).abs() < 1e-12);
        assert_eq!(binomial_tail(10, 11, 0.3, &lnf), 0.0);
        assert!((binomial_tail(10, 10, 1.0, &lnf) - 1.0).abs() < 1e-12);
        assert_eq!(binomial_tail(10, 1, 0.0, &lnf), 0.0);
    }

    fn model_for(g: &CsrGraph, gamma: f64, min_size: usize) -> AnalyticalModel {
        AnalyticalModel::new(g, &QcConfig::new(gamma, min_size))
    }

    #[test]
    fn recurrence_matches_naive_sum() {
        let g = gnm(300, 1500, 11);
        let model = model_for(&g, 0.5, 5);
        for sigma in [0, 1, 2, 10, 50, 120, 299, 300] {
            let fast = model.expected_uncached(sigma);
            let naive = model.expected_naive(sigma);
            assert!(
                (fast - naive).abs() < 1e-9,
                "sigma {sigma}: fast {fast} vs naive {naive}"
            );
        }
    }

    #[test]
    fn expected_is_monotone_in_sigma() {
        let g = gnm(200, 800, 3);
        let model = model_for(&g, 0.6, 4);
        let mut prev = -1.0;
        for sigma in (0..=200).step_by(10) {
            let e = model.expected(sigma);
            assert!(
                e >= prev - 1e-12,
                "max-exp not monotone at sigma {sigma}: {e} < {prev}"
            );
            assert!((0.0..=1.0).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn expected_full_sample_bounds_degree_tail() {
        // With σ = n, ρ = 1: every vertex keeps its degree, so max-exp is
        // the fraction of vertices with degree ≥ z.
        let g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]);
        // Degrees: 0:3, 1:3, 2:2, 3:2, 4:0.
        let model = model_for(&g, 1.0, 4); // z = 3
        let e = model.expected(5);
        assert!((e - 0.4).abs() < 1e-9, "expected 2/5, got {e}");
    }

    #[test]
    fn z_zero_gives_one() {
        let g = gnm(50, 100, 5);
        let model = model_for(&g, 0.5, 1); // z = 0
        assert_eq!(model.expected(10), 1.0);
    }

    #[test]
    fn normalize_handles_zero_expectation() {
        let g = graph_from_edges(3, [(0, 1)]);
        let model = model_for(&g, 1.0, 3);
        // σ = 1 → ρ = 0 → expectation 0.
        assert_eq!(model.normalize(0.0, 1), 0.0);
        assert_eq!(model.normalize(0.5, 1), f64::INFINITY);
    }

    #[test]
    fn memoization_is_transparent() {
        let g = gnm(100, 400, 9);
        let model = model_for(&g, 0.5, 4);
        let a = model.expected(40);
        let b = model.expected(40);
        assert_eq!(a, b);
        assert!((a - model.expected_uncached(40)).abs() < 1e-15);
    }

    #[test]
    fn simulation_mean_in_unit_interval() {
        let g = gnm(80, 240, 2);
        let cfg = QcConfig::new(0.5, 4);
        let sim = simulate_expected(&g, &cfg, 20, 20, 7);
        assert!(sim.mean >= 0.0 && sim.mean <= 1.0);
        assert!(sim.std_dev >= 0.0);
        assert_eq!(sim.runs, 20);
    }

    #[test]
    fn simulation_deterministic_per_seed() {
        let g = gnm(60, 180, 4);
        let cfg = QcConfig::new(0.5, 4);
        let a = simulate_expected(&g, &cfg, 15, 10, 42);
        let b = simulate_expected(&g, &cfg, 15, 10, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn analytical_upper_bounds_simulation() {
        // The analytical model bounds the probability of *degree*
        // feasibility, which is only a necessary condition for quasi-clique
        // membership, so on sparse graphs it dominates the simulated
        // coverage comfortably (the paper's Figures 4/7/9 show the same
        // gap). Note the model uses a binomial in place of the exact
        // hypergeometric (Theorem 1), so the comparison is made away from
        // the dense σ ≈ n regime.
        let g = gnm(200, 600, 8);
        let cfg = QcConfig::new(0.5, 4);
        let model = AnalyticalModel::new(&g, &cfg);
        for sigma in [20, 60, 100] {
            let sim = simulate_expected(&g, &cfg, sigma, 25, 17);
            let bound = model.expected(sigma);
            assert!(
                sim.mean <= bound + 3.0 * sim.std_dev / (sim.runs as f64).sqrt() + 1e-9,
                "sigma {sigma}: sim {} exceeds bound {bound}",
                sim.mean
            );
        }
    }

    #[test]
    fn simulation_model_memoizes_and_normalizes() {
        let g = gnm(60, 180, 4);
        let cfg = QcConfig::new(0.5, 4);
        let model = SimulationModel::new(&g, cfg, 5, 11);
        let a = model.expected(20);
        let b = model.expected(20);
        assert_eq!(a, b);
        let delta = model.normalize(0.5, 20);
        if a.mean > 0.0 {
            assert!((delta - 0.5 / a.mean).abs() < 1e-12);
        } else {
            assert_eq!(delta, f64::INFINITY);
        }
        assert_eq!(model.normalize(0.0, 20).min(0.0), 0.0);
    }

    #[test]
    fn delta_lb_lower_bounds_delta_sim_on_random_graph() {
        // δ_lb = ε/max-exp ≤ δ_sim = ε/sim-exp whenever max-exp ≥ sim-exp.
        let g = gnm(150, 450, 6);
        let cfg = QcConfig::new(0.5, 5);
        let analytical = AnalyticalModel::new(&g, &cfg);
        let sim = SimulationModel::new(&g, cfg, 20, 3);
        for sigma in [20usize, 40, 60] {
            let eps = 0.3;
            let lb = analytical.normalize(eps, sigma);
            let ds = sim.normalize(eps, sigma);
            assert!(lb <= ds + 1e-9, "σ {sigma}: δ_lb {lb} > δ_sim {ds}");
        }
    }

    #[test]
    fn parallel_simulation_independent_of_thread_count() {
        let g = gnm(80, 240, 2);
        let cfg = QcConfig::new(0.5, 4);
        let two = simulate_expected_parallel(&g, &cfg, 25, 12, 9, 2);
        let four = simulate_expected_parallel(&g, &cfg, 25, 12, 9, 4);
        assert_eq!(two, four);
        assert!((0.0..=1.0).contains(&two.mean));
        assert_eq!(two.runs, 12);
    }

    #[test]
    fn parallel_single_thread_falls_back_to_serial() {
        let g = gnm(60, 180, 4);
        let cfg = QcConfig::new(0.5, 4);
        let serial = simulate_expected(&g, &cfg, 20, 8, 3);
        let one = simulate_expected_parallel(&g, &cfg, 20, 8, 3, 1);
        assert_eq!(serial, one);
    }

    #[test]
    fn p_value_bounds_and_extremes() {
        let g = gnm(60, 180, 4);
        let cfg = QcConfig::new(0.5, 4);
        // ε = 0 is reached by every draw: p-value = 1.
        assert!((empirical_p_value(&g, &cfg, 20, 0.0, 19, 7) - 1.0).abs() < 1e-12);
        // ε above any attainable coverage: p-value = 1/(runs+1).
        let p = empirical_p_value(&g, &cfg, 20, 1.1, 19, 7);
        assert!((p - 1.0 / 20.0).abs() < 1e-12);
        // Monotone: higher ε cannot have higher p-value.
        let p_low = empirical_p_value(&g, &cfg, 20, 0.1, 19, 7);
        let p_high = empirical_p_value(&g, &cfg, 20, 0.9, 19, 7);
        assert!(p_high <= p_low);
    }

    #[test]
    fn p_value_via_model_is_deterministic() {
        let g = gnm(60, 180, 4);
        let cfg = QcConfig::new(0.5, 4);
        let model = SimulationModel::new(&g, cfg, 9, 3);
        assert_eq!(model.p_value(0.4, 15), model.p_value(0.4, 15));
        assert!((0.0..=1.0).contains(&model.p_value(0.4, 15)));
    }

    #[test]
    fn trait_object_normalization_matches_inherent() {
        let g = gnm(80, 240, 6);
        let cfg = QcConfig::new(0.5, 4);
        let analytical = AnalyticalModel::new(&g, &cfg);
        let dyn_model: &dyn ExpectedCorrelation = &analytical;
        for sigma in [10usize, 30, 60] {
            assert_eq!(
                dyn_model.normalized(0.4, sigma),
                analytical.normalize(0.4, sigma)
            );
        }
    }

    #[test]
    fn simulation_of_whole_graph_matches_direct_coverage() {
        let g = gnm(40, 120, 13);
        let cfg = QcConfig::new(0.5, 4);
        let direct = Miner::new(&g, cfg).coverage().covered.len() as f64 / 40.0;
        let sim = simulate_expected(&g, &cfg, 40, 3, 0);
        assert!((sim.mean - direct).abs() < 1e-12);
        // All three runs see the identical (full) sample.
        assert!(sim.std_dev < 1e-9);
    }
}
