//! Seeded synthetic attributed graphs calibrated to the three networks of
//! the paper's evaluation (§4.1). The real crawls are not redistributable,
//! so each generator reproduces the *shape* that drives the paper's
//! findings:
//!
//! * vertex/edge/attribute counts matching the published statistics (times
//!   a `scale` factor),
//! * heavy-tailed degree and attribute-popularity distributions,
//! * planted communities whose members share small "topic" attribute sets
//!   — the structural correlation signal SCPM is designed to find.

use scpm_graph::attributed::AttributedGraph;
use scpm_graph::csr::VertexId;
use scpm_graph::generators::attributes::AttributeModel;
use scpm_graph::generators::coauthorship::CliqueOverlay;
use scpm_graph::generators::planted::{BackgroundModel, PlantedCommunityConfig, PlantedGraph};

use crate::vocab;

/// Calibration constants of one synthetic dataset (values at `scale = 1`).
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name used in reports.
    pub name: &'static str,
    /// Vertex count of the real dataset.
    pub vertices: usize,
    /// Background topology model.
    pub background: BackgroundModel,
    /// Planted communities per vertex (e.g. 1/150 = one community per 150
    /// vertices).
    pub communities_per_vertex: f64,
    /// Community size range.
    pub community_size: (usize, usize),
    /// Intra-community edge probability.
    pub p_in: f64,
    /// Background vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent of attribute popularity.
    pub zipf_exponent: f64,
    /// Mean background attributes per vertex.
    pub mean_attrs: f64,
    /// Topic attributes per community.
    pub topic_attrs: usize,
    /// Probability a member carries each topic attribute.
    pub p_topic: f64,
    /// Probability a non-member carries a topic attribute.
    pub p_topic_noise: f64,
    /// Background-term name pool.
    pub term_vocab: &'static [&'static str],
    /// Topic name pool (planted community attributes).
    pub topic_vocab: &'static [&'static str],
    /// Optional per-paper clique overlay (collaboration networks are
    /// unions of author cliques; see `DatasetSpec::dblp_coauth`).
    pub overlay: Option<CliqueOverlay>,
}

impl DatasetSpec {
    /// The DBLP co-authorship network: 108,030 vertices, 276,658 edges,
    /// 23,285 title-term attributes.
    pub fn dblp() -> Self {
        DatasetSpec {
            name: "dblp",
            vertices: 108_030,
            background: BackgroundModel::PreferentialAttachment { m: 2 },
            communities_per_vertex: 1.0 / 150.0,
            community_size: (10, 25),
            p_in: 0.62,
            vocab_size: 23_285,
            zipf_exponent: 1.15,
            mean_attrs: 6.0,
            topic_attrs: 2,
            p_topic: 0.85,
            // Topic supports must land just above the paper's σmin = 400
            // (a 0.37% support fraction on the full dataset).
            p_topic_noise: 0.004,
            term_vocab: vocab::DBLP_TERMS,
            topic_vocab: vocab::DBLP_TOPICS,
            overlay: None,
        }
    }

    /// The LastFm friendship network: 272,412 vertices, 350,239 edges,
    /// ~3.9M listened-artist attributes (vocabulary capped for synthesis).
    pub fn lastfm() -> Self {
        DatasetSpec {
            name: "lastfm",
            vertices: 272_412,
            background: BackgroundModel::PreferentialAttachment { m: 1 },
            communities_per_vertex: 1.0 / 300.0,
            community_size: (5, 20),
            p_in: 0.60,
            vocab_size: 50_000,
            zipf_exponent: 1.05,
            mean_attrs: 12.0,
            topic_attrs: 2,
            p_topic: 0.90,
            // The paper's σmin = 27,000 is ~10% of the users; its top-δ
            // taste sets sit just above that bar, so niche-taste topics get
            // a ~10.5% background adoption.
            p_topic_noise: 0.105,
            term_vocab: vocab::LASTFM_ARTISTS,
            topic_vocab: vocab::LASTFM_ARTISTS,
            overlay: None,
        }
    }

    /// The CiteSeer citation network: 294,104 vertices, 782,147 edges,
    /// 206,430 abstract-term attributes.
    pub fn citeseer() -> Self {
        DatasetSpec {
            name: "citeseer",
            vertices: 294_104,
            background: BackgroundModel::PreferentialAttachment { m: 2 },
            communities_per_vertex: 1.0 / 200.0,
            community_size: (5, 15),
            p_in: 0.70,
            vocab_size: 206_430,
            zipf_exponent: 1.10,
            mean_attrs: 8.0,
            topic_attrs: 2,
            p_topic: 0.85,
            // σmin = 2000 is a 0.68% fraction; topics adopt at 0.75%.
            p_topic_noise: 0.0075,
            term_vocab: vocab::CITESEER_TERMS,
            topic_vocab: vocab::CITESEER_TOPICS,
            overlay: None,
        }
    }

    /// SmallDBLP — the performance-evaluation dataset of §4.2:
    /// 32,908 vertices, 82,376 edges, 11,192 attributes.
    pub fn small_dblp() -> Self {
        DatasetSpec {
            vertices: 32_908,
            vocab_size: 11_192,
            ..Self::dblp()
        }
    }

    /// Dense-clique stress scenario: large overlapping near-cliques
    /// (`p_in = 0.9`) on a thin uniform background — the dense extreme of
    /// the `exp_perf` scenario matrix, where candidate sets stay wide and
    /// packed rows are nearly full (block skipping buys nothing; the
    /// fused popcount kernels must carry the win).
    pub fn dense_clique() -> Self {
        DatasetSpec {
            name: "dense-clique",
            vertices: 60_000,
            background: BackgroundModel::Uniform { mean_degree: 2.0 },
            communities_per_vertex: 1.0 / 60.0,
            community_size: (12, 20),
            p_in: 0.9,
            vocab_size: 4_000,
            zipf_exponent: 1.1,
            mean_attrs: 4.0,
            topic_attrs: 2,
            p_topic: 0.9,
            p_topic_noise: 0.01,
            term_vocab: vocab::DBLP_TERMS,
            topic_vocab: vocab::DBLP_TOPICS,
            overlay: None,
        }
    }

    /// Sparse-star scenario: preferential attachment with `m = 1` grows a
    /// hub-and-spoke forest (star-like neighborhoods, tree-ish overall)
    /// with a few small planted pockets — the sparse extreme of the
    /// scenario matrix, where vertex reduction guts the graph and sparse
    /// rows / empty-block skipping dominate.
    pub fn sparse_star() -> Self {
        DatasetSpec {
            name: "sparse-star",
            vertices: 120_000,
            background: BackgroundModel::PreferentialAttachment { m: 1 },
            communities_per_vertex: 1.0 / 400.0,
            community_size: (5, 9),
            p_in: 0.75,
            vocab_size: 20_000,
            zipf_exponent: 1.05,
            mean_attrs: 5.0,
            topic_attrs: 2,
            p_topic: 0.85,
            p_topic_noise: 0.02,
            term_vocab: vocab::LASTFM_ARTISTS,
            topic_vocab: vocab::LASTFM_ARTISTS,
            overlay: None,
        }
    }

    /// Skewed-attribute scenario: a steep Zipf exponent (1.6) makes a few
    /// head attributes near-universal and the tail vanishingly rare — the
    /// attribute-distribution shape the significance-testing workloads of
    /// Lee et al. (arXiv:1609.08266) emphasize. Head attributes induce
    /// wide mining subgraphs, tail attributes tiny ones, stressing both
    /// ends of the kernel size spectrum in one run.
    pub fn skewed_attr() -> Self {
        DatasetSpec {
            name: "skewed-attr",
            vertices: 80_000,
            background: BackgroundModel::PreferentialAttachment { m: 2 },
            communities_per_vertex: 1.0 / 150.0,
            community_size: (8, 14),
            p_in: 0.7,
            vocab_size: 30_000,
            zipf_exponent: 1.6,
            mean_attrs: 10.0,
            topic_attrs: 2,
            p_topic: 0.85,
            p_topic_noise: 0.01,
            term_vocab: vocab::CITESEER_TERMS,
            topic_vocab: vocab::CITESEER_TOPICS,
            overlay: None,
        }
    }

    /// DBLP with a per-paper clique overlay.
    ///
    /// Co-authorship graphs are unions of one clique per paper, including
    /// occasional very large collaborations; that clique spectrum is what
    /// makes *random* vertex samples of the real graph still contain
    /// quasi-cliques (the non-zero `sim-exp` of the paper's Figure 4).
    /// The plain [`DatasetSpec::dblp`] background reproduces degrees and
    /// planted communities but not that spectrum, so its `sim-exp` at
    /// Figure-4 sample sizes is numerically zero. Use this variant for
    /// null-model experiments; the pattern-mining tables are insensitive
    /// to the difference.
    pub fn dblp_coauth() -> Self {
        DatasetSpec {
            name: "dblp-coauth",
            overlay: Some(CliqueOverlay::dblp_flavor()),
            ..Self::dblp()
        }
    }
}

/// A generated dataset: the attributed graph plus ground truth.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// The attributed graph.
    pub graph: AttributedGraph,
    /// Planted community memberships (ground truth).
    pub communities: Vec<Vec<VertexId>>,
    /// Name of the originating spec.
    pub name: &'static str,
    /// Scale factor that was applied.
    pub scale: f64,
}

/// Generates a dataset from a spec at the given scale (`scale = 1` matches
/// the real dataset's vertex count; examples and benches typically use
/// 0.02–0.25, while out-of-core stress runs extrapolate past 1 to reach
/// million-edge graphs).
pub fn generate(spec: &DatasetSpec, scale: f64, seed: u64) -> SyntheticDataset {
    assert!(scale > 0.0, "scale must be positive");
    let n = ((spec.vertices as f64 * scale).round() as usize).max(300);
    let num_communities = ((n as f64 * spec.communities_per_vertex).round() as usize).max(3);
    // Community sizes stay constant under scaling (a research group does
    // not shrink when the corpus is subsampled).
    let planted_cfg = PlantedCommunityConfig {
        n,
        background: spec.background,
        num_communities,
        community_size: spec.community_size,
        p_in: spec.p_in,
    };
    let mut planted = PlantedGraph::generate(&planted_cfg, seed);
    if let Some(overlay) = &spec.overlay {
        planted.graph = overlay.apply(&planted.graph, seed ^ 0x5eed_c0de);
    }

    let vocab_size = ((spec.vocab_size as f64 * scale).round() as usize).max(spec.term_vocab.len());
    let model = AttributeModel {
        vocab_size,
        zipf_exponent: spec.zipf_exponent,
        mean_attrs_per_vertex: spec.mean_attrs,
        topic_attrs_per_community: spec.topic_attrs,
        p_topic: spec.p_topic,
        p_topic_noise: spec.p_topic_noise,
    };
    let term_vocab: Vec<String> = spec.term_vocab.iter().map(|s| s.to_string()).collect();
    // Topic names cycle through the topic vocabulary with numeric suffixes
    // once exhausted, so every community gets a distinct topic set.
    let topics_needed = num_communities * spec.topic_attrs;
    let topic_vocab: Vec<String> = (0..topics_needed)
        .map(|i| {
            let base = spec.topic_vocab[i % spec.topic_vocab.len()];
            if i < spec.topic_vocab.len() {
                format!("{base}*")
            } else {
                format!("{base}*{}", i / spec.topic_vocab.len())
            }
        })
        .collect();
    let graph = model.assign(
        &planted,
        Some(&term_vocab),
        Some(&topic_vocab),
        seed ^ 0x9e37_79b9,
    );
    SyntheticDataset {
        graph,
        communities: planted.communities,
        name: spec.name,
        scale,
    }
}

/// DBLP-like collaboration network at the given scale.
pub fn dblp_like(scale: f64, seed: u64) -> SyntheticDataset {
    generate(&DatasetSpec::dblp(), scale, seed)
}

/// LastFm-like social music network at the given scale.
pub fn lastfm_like(scale: f64, seed: u64) -> SyntheticDataset {
    generate(&DatasetSpec::lastfm(), scale, seed)
}

/// CiteSeer-like citation network at the given scale.
pub fn citeseer_like(scale: f64, seed: u64) -> SyntheticDataset {
    generate(&DatasetSpec::citeseer(), scale, seed)
}

/// SmallDBLP-like performance-evaluation network at the given scale.
pub fn small_dblp_like(scale: f64, seed: u64) -> SyntheticDataset {
    generate(&DatasetSpec::small_dblp(), scale, seed)
}

/// Dense-clique stress workload at the given scale (see
/// [`DatasetSpec::dense_clique`]).
pub fn dense_clique_like(scale: f64, seed: u64) -> SyntheticDataset {
    generate(&DatasetSpec::dense_clique(), scale, seed)
}

/// Sparse hub-and-spoke workload at the given scale (see
/// [`DatasetSpec::sparse_star`]).
pub fn sparse_star_like(scale: f64, seed: u64) -> SyntheticDataset {
    generate(&DatasetSpec::sparse_star(), scale, seed)
}

/// Skewed attribute-popularity workload at the given scale (see
/// [`DatasetSpec::skewed_attr`]).
pub fn skewed_attr_like(scale: f64, seed: u64) -> SyntheticDataset {
    generate(&DatasetSpec::skewed_attr(), scale, seed)
}

impl SyntheticDataset {
    /// The topic attribute ids of community `c` (ground truth for
    /// correlation checks).
    pub fn topic_attrs_of(&self, c: usize) -> Vec<scpm_graph::attributed::AttrId> {
        // Topic attributes are named "<base>*"-style; recover them by
        // majority presence among members.
        let members = &self.communities[c];
        let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for &v in members {
            for &a in self.graph.attributes_of(v) {
                if self.graph.attr_name(a).contains('*') {
                    *counts.entry(a).or_insert(0) += 1;
                }
            }
        }
        let threshold = members.len() / 2;
        let mut out: Vec<u32> = counts
            .into_iter()
            .filter(|&(_, c)| c > threshold)
            .map(|(a, _)| a)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::degree::DegreeDistribution;

    #[test]
    fn dblp_like_counts_scale() {
        let d = dblp_like(0.02, 7);
        let n = d.graph.num_vertices();
        assert!((1900..=2400).contains(&n), "n = {n}");
        // Mean degree in the ballpark of DBLP's 5.1 (background + planted).
        let mean = 2.0 * d.graph.num_edges() as f64 / n as f64;
        assert!((2.0..10.0).contains(&mean), "mean degree {mean}");
        assert!(d.graph.num_attributes() >= vocab::DBLP_TERMS.len());
    }

    #[test]
    fn degree_distribution_heavy_tailed() {
        let d = dblp_like(0.02, 3);
        let dist = DegreeDistribution::from_graph(d.graph.graph());
        assert!(dist.max_degree() as f64 > 4.0 * dist.mean());
    }

    #[test]
    fn attribute_popularity_skewed() {
        let d = dblp_like(0.02, 5);
        let g = &d.graph;
        let base = g.attr_id("base").expect("top term present");
        // "base" (rank 0) must dominate a mid-rank term.
        let mid = g.attr_id("stream").unwrap();
        assert!(g.support(base) > g.support(mid));
    }

    #[test]
    fn planted_communities_are_dense_and_topical() {
        let d = dblp_like(0.02, 11);
        let mut topical = 0;
        for (c, members) in d.communities.iter().enumerate() {
            let pairs = members.len() * (members.len() - 1) / 2;
            let edges = d.graph.graph().edges_within(members);
            assert!(
                edges as f64 >= 0.4 * pairs as f64,
                "community {c} too sparse"
            );
            if !d.topic_attrs_of(c).is_empty() {
                topical += 1;
            }
        }
        assert!(topical as f64 >= 0.9 * d.communities.len() as f64);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = lastfm_like(0.005, 9);
        let b = lastfm_like(0.005, 9);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.communities, b.communities);
    }

    #[test]
    fn all_specs_generate() {
        for spec in [
            DatasetSpec::dblp(),
            DatasetSpec::lastfm(),
            DatasetSpec::citeseer(),
            DatasetSpec::small_dblp(),
            DatasetSpec::dense_clique(),
            DatasetSpec::sparse_star(),
            DatasetSpec::skewed_attr(),
        ] {
            let d = generate(&spec, 0.005, 1);
            assert!(d.graph.num_vertices() >= 300);
            assert!(d.graph.num_edges() > 0);
            assert!(d.graph.num_attributes() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn rejects_zero_scale() {
        dblp_like(0.0, 0);
    }

    #[test]
    fn accepts_scale_above_one() {
        // Out-of-core stress runs extrapolate past the reference size.
        let d = citeseer_like(1.1, 7);
        let base = citeseer_like(1.0, 7);
        assert!(d.graph.num_vertices() > base.graph.num_vertices());
    }

    #[test]
    fn scenario_specs_have_their_shapes() {
        // Dense-clique: planted pockets are near-cliques.
        let dense = dense_clique_like(0.02, 3);
        let mut dense_frac = 0.0;
        for members in &dense.communities {
            let pairs = members.len() * (members.len() - 1) / 2;
            dense_frac += dense.graph.graph().edges_within(members) as f64 / pairs as f64;
        }
        dense_frac /= dense.communities.len() as f64;
        assert!(dense_frac > 0.8, "mean community density {dense_frac}");

        // Sparse-star: tree-ish background, mean degree ≈ 2.
        let sparse = sparse_star_like(0.01, 3);
        let mean = 2.0 * sparse.graph.num_edges() as f64 / sparse.graph.num_vertices() as f64;
        assert!(mean < 3.5, "sparse-star mean degree {mean}");

        // Skewed-attr: the head attribute dwarfs a mid-rank one by far
        // more than under the milder dblp exponent.
        let skewed = skewed_attr_like(0.02, 3);
        let g = &skewed.graph;
        let head = g.attr_id("system").expect("head term present");
        let mid = g.attr_id("wireless").expect("mid term present");
        assert!(
            g.support(head) > 8 * g.support(mid).max(1),
            "head {} vs mid {}",
            g.support(head),
            g.support(mid)
        );
    }

    #[test]
    fn coauth_overlay_adds_cliques_over_plain_dblp() {
        let plain = generate(&DatasetSpec::dblp(), 0.01, 5);
        let coauth = generate(&DatasetSpec::dblp_coauth(), 0.01, 5);
        assert_eq!(plain.graph.num_vertices(), coauth.graph.num_vertices());
        assert!(coauth.graph.num_edges() > plain.graph.num_edges());
        // The overlay's clique spectrum shows up as triangles.
        let t_plain = scpm_graph::cluster::clustering(plain.graph.graph()).total_triangles;
        let t_coauth = scpm_graph::cluster::clustering(coauth.graph.graph()).total_triangles;
        assert!(
            t_coauth > t_plain,
            "overlay triangles {t_coauth} vs plain {t_plain}"
        );
    }
}
