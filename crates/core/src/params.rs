//! Parameters of the structural correlation pattern mining problem
//! (Definition 4 plus the algorithmic knobs of §3.2).

use scpm_quasiclique::{PruneFlags, QcConfig, Representation, SearchOrder};

/// Switches for SCPM's attribute-level pruning rules (Theorems 3–5). Used
/// by ablation benches; disabling a rule never changes results.
#[derive(Clone, Copy, Debug)]
pub struct ScpmPruneFlags {
    /// Theorem 3: restrict each induced graph to the parents' covered sets.
    pub vertex_pruning: bool,
    /// Theorem 4: stop extending `S` when `|K_S| < εmin·σmin`.
    pub eps_pruning: bool,
    /// Theorem 5: stop extending `S` when `|K_S| < δmin·exp(σmin)·σmin`.
    pub delta_pruning: bool,
}

impl Default for ScpmPruneFlags {
    fn default() -> Self {
        ScpmPruneFlags {
            vertex_pruning: true,
            eps_pruning: true,
            delta_pruning: true,
        }
    }
}

/// Full parameter set of an SCPM run.
#[derive(Clone, Debug)]
pub struct ScpmParams {
    /// Minimum attribute-set support `σmin`.
    pub sigma_min: usize,
    /// Quasi-clique density `γmin` and size `min_size`.
    pub quasi_clique: QcConfig,
    /// Minimum structural correlation `εmin`.
    pub eps_min: f64,
    /// Minimum normalized structural correlation `δmin` (applied to the
    /// analytical lower bound `δ_lb`).
    pub delta_min: f64,
    /// Number of top patterns reported per qualifying attribute set.
    pub k: usize,
    /// Traversal order of the quasi-clique search (SCPM-BFS / SCPM-DFS).
    pub search_order: SearchOrder,
    /// Upper bound on attribute-set size (`usize::MAX` = unbounded).
    pub max_attrs: usize,
    /// Minimum attribute-set size for *reporting* (the paper's case
    /// studies use 2 for DBLP); sets of any size are still traversed.
    pub min_attrs: usize,
    /// Attribute-level pruning switches.
    pub prune: ScpmPruneFlags,
    /// Quasi-clique-level pruning switches.
    pub qc_prune: PruneFlags,
    /// Engine hot-loop representation (packed bitsets by default; the
    /// sorted-slice baseline is selectable for A/B runs — results are
    /// identical either way, see `docs/PERFORMANCE.md`).
    pub repr: Representation,
}

impl ScpmParams {
    /// Baseline parameters: everything permissive except the required
    /// thresholds.
    pub fn new(sigma_min: usize, gamma_min: f64, min_size: usize) -> Self {
        ScpmParams {
            sigma_min: sigma_min.max(1),
            quasi_clique: QcConfig::new(gamma_min, min_size),
            eps_min: 0.0,
            delta_min: 0.0,
            k: usize::MAX,
            search_order: SearchOrder::Dfs,
            max_attrs: usize::MAX,
            min_attrs: 1,
            prune: ScpmPruneFlags::default(),
            qc_prune: PruneFlags::default(),
            repr: Representation::default(),
        }
    }

    /// Sets `εmin`, builder style.
    pub fn with_eps_min(mut self, eps_min: f64) -> Self {
        self.eps_min = eps_min;
        self
    }

    /// Sets `δmin`, builder style.
    pub fn with_delta_min(mut self, delta_min: f64) -> Self {
        self.delta_min = delta_min;
        self
    }

    /// Sets the per-attribute-set top-`k`, builder style.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the search order, builder style.
    pub fn with_order(mut self, order: SearchOrder) -> Self {
        self.search_order = order;
        self
    }

    /// Sets the reporting size floor, builder style.
    pub fn with_min_attrs(mut self, min_attrs: usize) -> Self {
        self.min_attrs = min_attrs.max(1);
        self
    }

    /// Sets the traversal size cap, builder style.
    pub fn with_max_attrs(mut self, max_attrs: usize) -> Self {
        self.max_attrs = max_attrs.max(1);
        self
    }

    /// Sets the engine hot-loop representation, builder style.
    pub fn with_repr(mut self, repr: Representation) -> Self {
        self.repr = repr;
        self
    }

    /// Checks every threshold against its domain: `σmin`, `min_size`,
    /// `k`, `min_attrs` and `max_attrs` at least 1, `γmin ∈ (0, 1]`,
    /// `εmin ∈ [0, 1]`, `δmin ≥ 0` (NaN is outside every range), and
    /// `max_attrs ≥ min_attrs`. The error names the parameter by its
    /// `POST /mine` key. A mine under parameters that fail this either
    /// panics (`QcConfig` asserts `γ` and `min_size`) or qualifies nothing
    /// without saying why, so the server and the CLI call it before
    /// mining.
    pub fn validate(&self) -> Result<(), String> {
        for (key, value) in [
            ("sigma_min", self.sigma_min),
            ("min_size", self.quasi_clique.min_size),
            ("top_k", self.k),
            ("min_attrs", self.min_attrs),
            ("max_attrs", self.max_attrs),
        ] {
            if value < 1 {
                return Err(format!("`{key}` must be at least 1"));
            }
        }
        let gamma = self.quasi_clique.gamma;
        if !(gamma > 0.0 && gamma <= 1.0) {
            return Err(format!("`gamma` must be in (0, 1], got {gamma}"));
        }
        if !(0.0..=1.0).contains(&self.eps_min) {
            return Err(format!("`eps_min` must be in [0, 1], got {}", self.eps_min));
        }
        if self.delta_min.is_nan() || self.delta_min < 0.0 {
            return Err(format!(
                "`delta_min` must be non-negative, got {}",
                self.delta_min
            ));
        }
        if self.max_attrs < self.min_attrs {
            return Err(format!(
                "`max_attrs` ({}) must be at least `min_attrs` ({})",
                self.max_attrs, self.min_attrs
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let p = ScpmParams::new(10, 0.5, 4)
            .with_eps_min(0.1)
            .with_delta_min(2.0)
            .with_top_k(5)
            .with_order(SearchOrder::Bfs)
            .with_min_attrs(2)
            .with_max_attrs(3);
        assert_eq!(p.sigma_min, 10);
        assert_eq!(p.quasi_clique.min_size, 4);
        assert_eq!(p.eps_min, 0.1);
        assert_eq!(p.delta_min, 2.0);
        assert_eq!(p.k, 5);
        assert_eq!(p.search_order, SearchOrder::Bfs);
        assert_eq!(p.min_attrs, 2);
        assert_eq!(p.max_attrs, 3);
    }

    #[test]
    fn validate_accepts_the_defaults_and_names_each_bad_threshold() {
        let ok = ScpmParams::new(3, 0.6, 4);
        assert_eq!(ok.validate(), Ok(()));
        let spoiled = |spoil: fn(&mut ScpmParams)| {
            let mut p = ok.clone();
            spoil(&mut p);
            p
        };
        let cases = [
            (
                spoiled(|p| p.sigma_min = 0),
                "`sigma_min` must be at least 1",
            ),
            (
                spoiled(|p| p.quasi_clique.min_size = 0),
                "`min_size` must be at least 1",
            ),
            (spoiled(|p| p.k = 0), "`top_k` must be at least 1"),
            (
                spoiled(|p| p.min_attrs = 0),
                "`min_attrs` must be at least 1",
            ),
            (
                spoiled(|p| p.quasi_clique.gamma = 0.0),
                "`gamma` must be in (0, 1], got 0",
            ),
            (
                spoiled(|p| p.quasi_clique.gamma = f64::NAN),
                "`gamma` must be in (0, 1], got NaN",
            ),
            (
                spoiled(|p| p.eps_min = 2.0),
                "`eps_min` must be in [0, 1], got 2",
            ),
            (
                spoiled(|p| p.eps_min = f64::NAN),
                "`eps_min` must be in [0, 1], got NaN",
            ),
            (
                spoiled(|p| p.delta_min = f64::NAN),
                "`delta_min` must be non-negative, got NaN",
            ),
            (
                spoiled(|p| {
                    p.min_attrs = 3;
                    p.max_attrs = 1;
                }),
                "`max_attrs` (1) must be at least `min_attrs` (3)",
            ),
        ];
        for (p, message) in cases {
            assert_eq!(p.validate(), Err(message.to_string()));
        }
    }

    #[test]
    fn sigma_min_floors_at_one() {
        let p = ScpmParams::new(0, 0.5, 4);
        assert_eq!(p.sigma_min, 1);
    }
}
