//! Iterative vertex reduction ("vertex pruning" in the paper's §3.2.2).
//!
//! A vertex with degree below `z = ⌈γ·(min_size−1)⌉` cannot belong to any
//! qualifying quasi-clique; removing it may push neighbors below the
//! threshold, so removal is iterated to a fixpoint (a `z`-core peeling).

use crate::config::QcConfig;
use scpm_graph::csr::{CsrGraph, VertexId};

/// Returns the sorted vertex list surviving iterated degree-threshold
/// peeling.
pub fn reduce_vertices(g: &CsrGraph, cfg: &QcConfig) -> Vec<VertexId> {
    let z = cfg.min_required_degree();
    let n = g.num_vertices();
    if z == 0 {
        return (0..n as VertexId).collect();
    }
    let mut degree: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let mut alive = vec![true; n];
    let mut queue: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| degree[v as usize] < z)
        .collect();
    for &v in &queue {
        alive[v as usize] = false;
    }
    while let Some(v) = queue.pop() {
        for &u in g.neighbors(v) {
            if alive[u as usize] {
                degree[u as usize] -= 1;
                if degree[u as usize] < z {
                    alive[u as usize] = false;
                    queue.push(u);
                }
            }
        }
    }
    (0..n as VertexId).filter(|&v| alive[v as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpm_graph::builder::graph_from_edges;

    #[test]
    fn peeling_removes_low_degree_chains() {
        // Triangle 0-1-2 with a pendant path 2-3-4.
        let g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let cfg = QcConfig::new(1.0, 3); // z = 2
        assert_eq!(reduce_vertices(&g, &cfg), vec![0, 1, 2]);
    }

    #[test]
    fn peeling_cascades() {
        // Path 0-1-2-3: z=2 kills endpoints, then everything.
        let g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let cfg = QcConfig::new(1.0, 3);
        assert!(reduce_vertices(&g, &cfg).is_empty());
    }

    #[test]
    fn z_zero_keeps_everything() {
        let g = graph_from_edges(3, [(0, 1)]);
        let cfg = QcConfig::new(0.5, 1); // z = 0
        assert_eq!(reduce_vertices(&g, &cfg), vec![0, 1, 2]);
    }
}
