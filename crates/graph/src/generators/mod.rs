//! Graph family generators used throughout the experiments.
//!
//! Each generator returns a named [`Graph`](crate::Graph) and validates its
//! parameters, returning [`GraphError::InvalidParameter`](crate::GraphError)
//! for impossible requests instead of panicking.
//!
//! The families cover the four graph classes of the paper's comparison
//! tables (arbitrary graphs, constant-degree expanders, hypercubes, r-dim
//! tori) plus low-expansion families used to stress the discrepancy bounds.

mod hypercube;
mod low_expansion;
mod random;
mod structured;
mod torus;

pub use hypercube::hypercube;
pub use low_expansion::{barbell, lollipop, ring_of_cliques};
pub use random::{erdos_renyi_connected, random_regular};
pub use structured::{binary_tree, complete, cycle, path, star};
pub use torus::{grid, torus, torus_multidim};

#[cfg(test)]
mod tests {
    //! Cross-family sanity checks shared by all generators.

    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_generators_produce_connected_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        let graphs = vec![
            hypercube(4).unwrap(),
            torus(4, 4).unwrap(),
            torus_multidim(&[3, 3, 3]).unwrap(),
            grid(3, 5).unwrap(),
            cycle(8).unwrap(),
            path(8).unwrap(),
            complete(6).unwrap(),
            star(7).unwrap(),
            binary_tree(4).unwrap(),
            random_regular(32, 4, &mut rng).unwrap(),
            erdos_renyi_connected(32, 0.2, &mut rng).unwrap(),
            barbell(8, 4).unwrap(),
            lollipop(8, 8).unwrap(),
            ring_of_cliques(4, 5).unwrap(),
        ];
        for g in graphs {
            assert!(g.is_connected(), "{g} must be connected");
            assert!(!g.name().is_empty(), "generators must name their graphs");
        }
    }

    /// The adjacency a graph must have, derived from its canonical edge
    /// list with an explicit sort of every neighbour list.
    fn reference_adjacency(g: &crate::Graph) -> Vec<Vec<(usize, usize)>> {
        let mut lists = vec![Vec::new(); g.node_count()];
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            lists[u].push((v, e));
            lists[v].push((u, e));
        }
        for list in &mut lists {
            list.sort_unstable();
        }
        lists
    }

    fn assert_reference_csr(g: &crate::Graph) {
        assert!(g.edges().windows(2).all(|w| w[0] < w[1]), "{g}: edge order");
        for (u, expected) in reference_adjacency(g).into_iter().enumerate() {
            let actual: Vec<_> = g.neighbors_with_edges(u).collect();
            assert_eq!(actual, expected, "{g}: node {u}");
        }
    }

    #[test]
    fn every_generator_matches_a_sorted_reference_csr() {
        let mut rng = StdRng::seed_from_u64(11);
        for size in [2usize, 3, 5, 8] {
            let mut graphs = vec![
                torus(size.max(2), size + 1).unwrap(),
                torus_multidim(&[2, size.max(2), 3]).unwrap(),
                grid(size, 3).unwrap(),
                path(size.max(2)).unwrap(),
                complete(size.max(2)).unwrap(),
                star(size.max(2)).unwrap(),
                binary_tree(size as u32).unwrap(),
                barbell(size.max(2), size).unwrap(),
                lollipop(size.max(2), size).unwrap(),
                ring_of_cliques(size.max(3), size.max(2)).unwrap(),
                random_regular(4 * size + 2, 3, &mut rng).unwrap(),
                erdos_renyi_connected(6 * size, 0.4, &mut rng).unwrap(),
            ];
            graphs.push(hypercube(size as u32).unwrap());
            graphs.push(cycle(size.max(3)).unwrap());
            for g in &graphs {
                assert_reference_csr(g);
            }
        }
        // A patched graph goes through the same CSR fill.
        let base = hypercube(5).unwrap();
        let delta = crate::GraphDelta::new(32, [(0, 3), (5, 30), (7, 8)], [(0, 1), (4, 5)])
            .expect("well-formed delta");
        let patched = base.apply_delta(&delta).expect("delta applies");
        assert_reference_csr(&patched);
        assert_eq!(patched.edge_count(), base.edge_count() + 1);
    }
}
