//! The binary hypercube family.

use crate::error::GraphError;
use crate::graph::Graph;

/// Builds the `dim`-dimensional binary hypercube on `2^dim` nodes.
///
/// Node `u` is adjacent to `u ^ (1 << k)` for every bit position `k < dim`,
/// so the graph is `dim`-regular with diameter `dim`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `dim == 0` or if `2^dim`
/// would overflow `usize` (i.e. `dim >= 48` is rejected as unreasonable for
/// simulation).
///
/// # Examples
///
/// ```
/// let g = lb_graph::generators::hypercube(3)?;
/// assert_eq!(g.node_count(), 8);
/// assert_eq!(g.max_degree(), 3);
/// assert_eq!(g.diameter(), Some(3));
/// # Ok::<(), lb_graph::GraphError>(())
/// ```
pub fn hypercube(dim: u32) -> Result<Graph, GraphError> {
    if dim == 0 {
        return Err(GraphError::invalid_parameter(
            "hypercube dimension must be at least 1",
        ));
    }
    if dim >= 48 {
        return Err(GraphError::invalid_parameter(
            "hypercube dimension must be below 48",
        ));
    }
    let n = 1usize << dim;
    // Ascending `u`, then ascending `k`: each `v = u | 1 << k` exceeds the
    // last, so the list is already sorted and canonical.
    let mut edges = Vec::with_capacity((dim as usize) << (dim - 1));
    for u in 0..n {
        for k in 0..dim {
            let v = u ^ (1usize << k);
            if u < v {
                edges.push((u, v));
            }
        }
    }
    Ok(Graph::from_canonical_edges(n, edges).with_name(format!("hypercube({dim})")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_one_is_a_single_edge() {
        let g = hypercube(1).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn regular_with_degree_dim() {
        for dim in 1..=6u32 {
            let g = hypercube(dim).unwrap();
            assert_eq!(g.node_count(), 1 << dim);
            assert_eq!(g.edge_count(), (dim as usize) << (dim - 1));
            assert!(g.is_regular());
            assert_eq!(g.max_degree(), dim as usize);
        }
    }

    #[test]
    fn diameter_equals_dimension() {
        for dim in 1..=5u32 {
            assert_eq!(hypercube(dim).unwrap().diameter(), Some(dim as usize));
        }
    }

    #[test]
    fn hypercube_is_bipartite() {
        assert!(hypercube(4).unwrap().is_bipartite());
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(hypercube(0).is_err());
        assert!(hypercube(48).is_err());
    }

    #[test]
    fn adjacency_differs_in_exactly_one_bit() {
        let g = hypercube(4).unwrap();
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                assert_eq!((u ^ v).count_ones(), 1);
            }
        }
    }
}
