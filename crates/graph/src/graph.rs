//! The core undirected [`Graph`] type used by every load-balancing process.
//!
//! The representation is a compressed-sparse-row (CSR) adjacency structure
//! augmented with a canonical undirected edge list, so that per-edge state
//! (e.g. cumulative flow in a balancing process) can be stored in a flat
//! `Vec` indexed by [`EdgeId`].

use crate::error::GraphError;
use std::collections::VecDeque;
use std::fmt;

/// Index of a node in a [`Graph`]. Nodes are numbered `0..n`.
pub type NodeId = usize;

/// Index of an undirected edge in a [`Graph`]. Edges are numbered `0..m` in
/// the canonical order returned by [`Graph::edges`].
pub type EdgeId = usize;

/// An immutable, simple, undirected graph in CSR form.
///
/// Invariants upheld by construction:
/// * no self-loops,
/// * no duplicate undirected edges,
/// * neighbour lists are sorted by node index,
/// * the canonical edge list stores each edge once as `(u, v)` with `u < v`.
///
/// # Examples
///
/// ```
/// use lb_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.degree(0), 2);
/// assert!(g.is_connected());
/// # Ok::<(), lb_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened neighbour lists, length `2m`.
    adjacency: Vec<NodeId>,
    /// For each adjacency slot, the id of the undirected edge it belongs to.
    adjacency_edge: Vec<EdgeId>,
    /// Canonical edge list: `edges[e] = (u, v)` with `u < v`.
    edges: Vec<(NodeId, NodeId)>,
    /// Optional human-readable name (e.g. `"hypercube(10)"`).
    name: String,
}

impl Graph {
    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    ///
    /// Edges may be given in either orientation; they are canonicalised to
    /// `(min, max)` order and sorted.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`,
    /// [`GraphError::SelfLoop`] for an edge `(u, u)`, and
    /// [`GraphError::DuplicateEdge`] if the same undirected edge appears twice.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let mut canonical: Vec<(NodeId, NodeId)> = Vec::new();
        for (a, b) in edges {
            if a >= n {
                return Err(GraphError::NodeOutOfRange { node: a, n });
            }
            if b >= n {
                return Err(GraphError::NodeOutOfRange { node: b, n });
            }
            if a == b {
                return Err(GraphError::SelfLoop { node: a });
            }
            let (u, v) = if a < b { (a, b) } else { (b, a) };
            canonical.push((u, v));
        }
        canonical.sort_unstable();
        for w in canonical.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge {
                    u: w[0].0,
                    v: w[0].1,
                });
            }
        }
        Ok(Self::from_canonical_edges(n, canonical))
    }

    /// Builds a graph from a pre-validated, sorted, canonical edge list.
    ///
    /// Used internally by generators that construct edges in canonical form.
    /// Sortedness makes the neighbour lists come out sorted with no per-node
    /// sort: node `x` first receives its smaller neighbours `u` from the
    /// edges `(u, x)`, in ascending `u`, and then its larger neighbours from
    /// its own run of edges `(x, v)`, in ascending `v`.
    pub(crate) fn from_canonical_edges(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(edges.iter().all(|&(u, v)| u < v && v < n));
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &degree {
            // lint: allow(R03, offsets starts with one element pushed above)
            let last = *offsets.last().expect("offsets is never empty");
            offsets.push(last + d);
        }
        let total = offsets[n];
        let mut adjacency = vec![0usize; total];
        let mut adjacency_edge = vec![0usize; total];
        let mut cursor = offsets[..n].to_vec();
        for (eid, &(u, v)) in edges.iter().enumerate() {
            adjacency[cursor[u]] = v;
            adjacency_edge[cursor[u]] = eid;
            cursor[u] += 1;
            adjacency[cursor[v]] = u;
            adjacency_edge[cursor[v]] = eid;
            cursor[v] += 1;
        }
        debug_assert!((0..n).all(|u| adjacency[offsets[u]..offsets[u + 1]]
            .windows(2)
            .all(|w| w[0] < w[1])));
        Graph {
            n,
            offsets,
            adjacency,
            adjacency_edge,
            edges,
            name: String::new(),
        }
    }

    /// Sets a human-readable name for the graph (used in experiment reports).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Computes the edge-set difference from `self` to `target`: the delta
    /// `d` with `self.apply_delta(&d) == target` (up to the name). Both
    /// graphs must have the same node count — deltas describe edge churn
    /// (rewiring), not node churn.
    ///
    /// Runs in `O(m + m')` (one merge walk over the two sorted canonical
    /// edge lists); the delta itself has `O(Δ)` entries.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if the node counts differ.
    pub fn delta_to(&self, target: &Graph) -> Result<GraphDelta, GraphError> {
        if self.n != target.n {
            return Err(GraphError::invalid_parameter(format!(
                "delta requires equal node counts, got {} and {}",
                self.n, target.n
            )));
        }
        let mut removed = Vec::new();
        let mut added = Vec::new();
        let (old, new) = (&self.edges, &target.edges);
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.len() || j < new.len() {
            match (old.get(i), new.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(&a), Some(&b)) if a < b => {
                    removed.push(a);
                    i += 1;
                }
                (Some(_), Some(&b)) => {
                    added.push(b);
                    j += 1;
                }
                (Some(&a), None) => {
                    removed.push(a);
                    i += 1;
                }
                (None, Some(&b)) => {
                    added.push(b);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        Ok(GraphDelta { removed, added })
    }

    /// Applies an edge delta, producing a new graph: `delta.removed` edges
    /// are dropped, `delta.added` edges inserted, and the CSR structure is
    /// rebuilt from the spliced canonical list. The node count and the
    /// graph name carry over unchanged.
    ///
    /// The splice is a single merge walk (`O(m + Δ)`, no per-edge
    /// validation re-sort) followed by the CSR fill, so the cost is linear
    /// in the edge count, with no family generator or RNG in the loop.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`] for
    /// malformed added edges, [`GraphError::DuplicateEdge`] if an added edge
    /// already exists (or appears twice), and
    /// [`GraphError::InvalidParameter`] if a removed edge is absent or the
    /// delta lists are not canonically sorted.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Self, GraphError> {
        delta.check_canonical(self.n)?;
        // Every removed edge must exist in the base graph.
        for &(u, v) in &delta.removed {
            if self.edges.binary_search(&(u, v)).is_err() {
                return Err(GraphError::invalid_parameter(format!(
                    "delta removes edge ({u}, {v}), which is not in the graph"
                )));
            }
        }
        let target_m = (self.edges.len() + delta.added.len())
            .checked_sub(delta.removed.len())
            .ok_or_else(|| {
                GraphError::invalid_parameter("delta removes more edges than the graph has")
            })?;
        let mut spliced = Vec::with_capacity(target_m);
        let mut removed = delta.removed.iter().copied().peekable();
        let mut added = delta.added.iter().copied().peekable();
        for &edge in &self.edges {
            // Insert pending additions that sort before this edge.
            while added.peek().is_some_and(|&a| a < edge) {
                // lint: allow(R03, the peek in the loop condition proves Some)
                spliced.push(added.next().expect("peeked entry"));
            }
            if added.peek() == Some(&edge) {
                return Err(GraphError::DuplicateEdge {
                    u: edge.0,
                    v: edge.1,
                });
            }
            if removed.peek() == Some(&edge) {
                removed.next();
            } else {
                spliced.push(edge);
            }
        }
        spliced.extend(added);
        debug_assert_eq!(spliced.len(), target_m);
        debug_assert!(spliced.windows(2).all(|w| w[0] < w[1]));
        Ok(Self::from_canonical_edges(self.n, spliced).with_name(self.name.clone()))
    }

    /// Returns the graph's human-readable name, or `""` if none was set.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges `m`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterator over all node indices `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n
    }

    /// The canonical undirected edge list; `edges()[e]` are the endpoints of
    /// edge `e` with the smaller endpoint first.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Endpoints of edge `e` (smaller endpoint first).
    ///
    /// # Panics
    ///
    /// Panics if `e >= self.edge_count()`.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e]
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.node_count()`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Maximum degree `d` over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).min().unwrap_or(0)
    }

    /// Returns `true` if every node has the same degree.
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// Sorted slice of the neighbours of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.node_count()`.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adjacency[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Iterator over `(neighbour, edge_id)` pairs for node `u`, sorted by
    /// neighbour index.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.node_count()`.
    pub fn neighbors_with_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let range = self.offsets[u]..self.offsets[u + 1];
        self.adjacency[range.clone()]
            .iter()
            .copied()
            .zip(self.adjacency_edge[range].iter().copied())
    }

    /// Returns the edge id of the undirected edge between `u` and `v`, or
    /// `None` if they are not adjacent.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u >= self.n || v >= self.n {
            return None;
        }
        let range = self.offsets[u]..self.offsets[u + 1];
        let nbrs = &self.adjacency[range.clone()];
        let pos = nbrs.binary_search(&v).ok()?;
        Some(self.adjacency_edge[range.start + pos])
    }

    /// Returns `true` if `u` and `v` are adjacent.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Returns `true` if the graph is connected (the empty graph and the
    /// single-node graph count as connected).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let visited = self.bfs_distances(0);
        visited.iter().all(|d| d.is_some())
    }

    /// BFS distances from `source`; `None` marks unreachable nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source >= self.node_count()`.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        assert!(source < self.n, "source {source} out of range");
        let mut dist = vec![None; self.n];
        dist[source] = Some(0);
        let mut queue = VecDeque::new();
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            // lint: allow(R03, BFS sets dist before enqueueing every node)
            let du = dist[u].expect("queued nodes always have a distance");
            for &v in self.neighbors(u) {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Exact diameter via repeated BFS.
    ///
    /// Runs in `O(n · (n + m))`; intended for the moderate graph sizes used in
    /// experiments. Returns `None` for disconnected or empty graphs.
    pub fn diameter(&self) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        let mut best = 0usize;
        for u in self.nodes() {
            let dist = self.bfs_distances(u);
            for d in &dist {
                match d {
                    Some(d) => best = best.max(*d),
                    None => return None,
                }
            }
        }
        Some(best)
    }

    /// Returns `true` if the graph is bipartite (2-colourable).
    ///
    /// Useful because the standard diffusion matrix on bipartite regular
    /// graphs can have eigenvalue `-1`, which stalls convergence.
    pub fn is_bipartite(&self) -> bool {
        let mut colour: Vec<Option<bool>> = vec![None; self.n];
        for start in self.nodes() {
            if colour[start].is_some() {
                continue;
            }
            colour[start] = Some(false);
            let mut queue = VecDeque::new();
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                // lint: allow(R03, BFS colours before enqueueing every node)
                let cu = colour[u].expect("queued nodes are coloured");
                for &v in self.neighbors(u) {
                    match colour[v] {
                        None => {
                            colour[v] = Some(!cu);
                            queue.push_back(v);
                        }
                        Some(cv) if cv == cu => return false,
                        Some(_) => {}
                    }
                }
            }
        }
        true
    }

    /// Sum of all node degrees (equals `2m`).
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Average degree `2m / n`, or 0.0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.degree_sum() as f64 / self.n as f64
        }
    }
}

/// An edge-set difference between two graphs on the same node set.
///
/// Both lists hold canonical `(u, v)` pairs with `u < v`, sorted ascending
/// and duplicate-free, and the two lists are disjoint. Produced by
/// [`Graph::delta_to`] or built directly via [`GraphDelta::new`]; consumed by
/// [`Graph::apply_delta`]. A delta is only meaningful relative to the graph
/// it was computed against — applying it elsewhere fails validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Edges present in the base graph and absent from the target.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Edges absent from the base graph and present in the target.
    pub added: Vec<(NodeId, NodeId)>,
}

impl GraphDelta {
    /// Builds a delta from raw add/remove lists, canonicalising each pair to
    /// `u < v` and sorting. Endpoints are validated against `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] for
    /// malformed pairs, [`GraphError::DuplicateEdge`] for a repeated pair
    /// within a list, and [`GraphError::InvalidParameter`] if an edge appears
    /// in both lists (a contradictory delta).
    pub fn new(
        n: usize,
        added: impl IntoIterator<Item = (NodeId, NodeId)>,
        removed: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let canonicalise = |pairs: Vec<(NodeId, NodeId)>| -> Result<Vec<_>, GraphError> {
            let mut out = Vec::with_capacity(pairs.len());
            for (a, b) in pairs {
                if a >= n {
                    return Err(GraphError::NodeOutOfRange { node: a, n });
                }
                if b >= n {
                    return Err(GraphError::NodeOutOfRange { node: b, n });
                }
                if a == b {
                    return Err(GraphError::SelfLoop { node: a });
                }
                out.push((a.min(b), a.max(b)));
            }
            out.sort_unstable();
            if let Some(w) = out.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge {
                    u: w[0].0,
                    v: w[0].1,
                });
            }
            Ok(out)
        };
        let added = canonicalise(added.into_iter().collect())?;
        let removed = canonicalise(removed.into_iter().collect())?;
        if let Some(&(u, v)) = added.iter().find(|e| removed.binary_search(e).is_ok()) {
            return Err(GraphError::invalid_parameter(format!(
                "edge ({u}, {v}) appears in both the add and remove lists"
            )));
        }
        Ok(Self { removed, added })
    }

    /// True when the delta changes nothing — the patched graph equals the
    /// base graph. Callers use this to skip re-derivation work entirely
    /// (e.g. spectral re-estimation for SOS momentum).
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }

    /// Validates the canonical-form invariants against an `n`-node base
    /// graph: every pair `u < v < n`, each list strictly sorted.
    fn check_canonical(&self, n: usize) -> Result<(), GraphError> {
        for list in [&self.removed, &self.added] {
            for &(u, v) in list {
                if u >= v {
                    return Err(GraphError::invalid_parameter(format!(
                        "delta edge ({u}, {v}) is not in canonical u < v form"
                    )));
                }
                if v >= n {
                    return Err(GraphError::NodeOutOfRange { node: v, n });
                }
            }
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(GraphError::invalid_parameter(
                    "delta edge list is not sorted and duplicate-free",
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("name", &self.name)
            .field("n", &self.n)
            .field("m", &self.edges.len())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.is_empty() {
            write!(f, "graph(n={}, m={})", self.n, self.edges.len())
        } else {
            write!(f, "{}(n={}, m={})", self.name, self.n, self.edges.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).expect("valid cycle")
    }

    #[test]
    fn from_edges_basic_counts() {
        let g = cycle4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree_sum(), 8);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(0, 4), (0, 2), (0, 1), (0, 3)]).expect("star");
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn edge_between_and_endpoints_agree() {
        let g = cycle4();
        for e in 0..g.edge_count() {
            let (u, v) = g.edge_endpoints(e);
            assert!(u < v);
            assert_eq!(g.edge_between(u, v), Some(e));
            assert_eq!(g.edge_between(v, u), Some(e));
        }
        assert_eq!(g.edge_between(0, 2), None);
        assert_eq!(g.edge_between(0, 99), None);
    }

    #[test]
    fn neighbors_with_edges_matches_edge_between() {
        let g = cycle4();
        for u in g.nodes() {
            for (v, e) in g.neighbors_with_edges(u) {
                assert_eq!(g.edge_between(u, v), Some(e));
            }
        }
    }

    #[test]
    fn rejects_out_of_range_nodes() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 3, n: 3 });
    }

    #[test]
    fn rejects_self_loops() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_duplicate_edges_in_either_orientation() {
        let err = Graph::from_edges(3, [(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn connectivity_and_diameter() {
        let g = cycle4();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(2));

        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).expect("two components");
        assert!(!disconnected.is_connected());
        assert_eq!(disconnected.diameter(), None);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).expect("path");
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bipartite_detection() {
        assert!(cycle4().is_bipartite());
        let triangle = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).expect("triangle");
        assert!(!triangle.is_bipartite());
    }

    #[test]
    fn regularity() {
        assert!(cycle4().is_regular());
        let star = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).expect("star");
        assert!(!star.is_regular());
        assert_eq!(star.max_degree(), 3);
        assert_eq!(star.min_degree(), 1);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = Graph::from_edges(0, []).expect("empty");
        assert!(empty.is_empty());
        assert!(empty.is_connected());
        assert_eq!(empty.max_degree(), 0);
        assert_eq!(empty.diameter(), None);

        let singleton = Graph::from_edges(1, []).expect("singleton");
        assert!(singleton.is_connected());
        assert_eq!(singleton.diameter(), Some(0));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let g = cycle4().with_name("cycle");
        assert_eq!(g.name(), "cycle");
        assert!(format!("{g}").contains("cycle"));
        assert!(format!("{g:?}").contains("Graph"));
    }

    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
    }

    #[test]
    fn delta_to_and_apply_round_trip() {
        let old = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
            .expect("valid cycle")
            .with_name("c5");
        let new = Graph::from_edges(5, [(0, 1), (0, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
            .expect("valid rewire");
        let delta = old.delta_to(&new).expect("same node count");
        assert_eq!(delta.removed, vec![(1, 2)]);
        assert_eq!(delta.added, vec![(0, 2), (1, 4)]);

        let patched = old.apply_delta(&delta).expect("delta applies");
        assert_eq!(patched.name(), "c5");
        assert_eq!(patched.edges(), new.edges());
        assert_eq!(patched.node_count(), new.node_count());
        for u in patched.nodes() {
            assert_eq!(patched.neighbors(u), new.neighbors(u));
        }
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = cycle4();
        let delta = g.delta_to(&g).expect("same graph");
        assert!(delta.is_empty());
        let patched = g.apply_delta(&delta).expect("no-op");
        assert_eq!(patched.edges(), g.edges());
    }

    #[test]
    fn delta_to_rejects_node_count_mismatch() {
        let a = cycle4();
        let b = Graph::from_edges(5, [(0, 1)]).expect("valid");
        assert!(matches!(
            a.delta_to(&b),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn apply_delta_validates_edges() {
        let g = cycle4();
        // Removing an absent edge is rejected.
        let bad_remove = GraphDelta::new(4, [], [(0, 2)]).expect("well-formed");
        assert!(matches!(
            g.apply_delta(&bad_remove),
            Err(GraphError::InvalidParameter { .. })
        ));
        // Adding an existing edge is rejected as a duplicate.
        let bad_add = GraphDelta::new(4, [(1, 0)], []).expect("well-formed");
        assert!(matches!(
            g.apply_delta(&bad_add),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        ));
        // Out-of-range endpoints are caught at delta construction.
        assert!(matches!(
            GraphDelta::new(4, [(0, 9)], []),
            Err(GraphError::NodeOutOfRange { node: 9, n: 4 })
        ));
        assert!(matches!(
            GraphDelta::new(4, [(2, 2)], []),
            Err(GraphError::SelfLoop { node: 2 })
        ));
        // Contradictory add+remove of the same edge is rejected.
        assert!(matches!(
            GraphDelta::new(4, [(0, 2)], [(2, 0)]),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn delta_new_canonicalises_pairs() {
        let delta = GraphDelta::new(6, [(5, 0), (3, 1)], [(4, 2)]).expect("valid");
        assert_eq!(delta.added, vec![(0, 5), (1, 3)]);
        assert_eq!(delta.removed, vec![(2, 4)]);
    }
}
