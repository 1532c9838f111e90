//! Initial load distributions and load-vector helpers.

use crate::task::{Speeds, Task, TaskId, Weight};
use std::borrow::Cow;

/// An assignment of indivisible tasks to nodes — the input of every discrete
/// balancing process.
///
/// # Examples
///
/// ```
/// use lb_core::InitialLoad;
///
/// // 10 unit tokens on node 0 of a 4-node network.
/// let load = InitialLoad::single_source(4, 0, 10);
/// assert_eq!(load.total_weight(), 10);
/// assert_eq!(load.load_vector(), vec![10, 0, 0, 0]);
///
/// // Explicit token counts.
/// let load = InitialLoad::from_token_counts(vec![3, 1, 0, 2]);
/// assert_eq!(load.total_weight(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialLoad {
    tasks: Vec<Vec<Task>>,
}

impl InitialLoad {
    /// Creates an initial load from explicit per-node task lists.
    pub fn from_tasks(tasks: Vec<Vec<Task>>) -> Self {
        InitialLoad { tasks }
    }

    /// Creates an initial load of unit-weight tokens with the given per-node
    /// counts.
    pub fn from_token_counts(counts: Vec<u64>) -> Self {
        let mut next_id = 0u64;
        let tasks = counts
            .iter()
            .map(|&c| {
                (0..c)
                    .map(|_| {
                        let t = Task::new(TaskId(next_id), 1);
                        next_id += 1;
                        t
                    })
                    .collect()
            })
            .collect();
        InitialLoad { tasks }
    }

    /// All `total` unit tokens placed on a single `source` node of an
    /// `n`-node network — the worst-case "point" distribution used in most
    /// experiments.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    pub fn single_source(n: usize, source: usize, total: u64) -> Self {
        assert!(source < n, "source node {source} out of range for n = {n}");
        let mut counts = vec![0; n];
        counts[source] = total;
        Self::from_token_counts(counts)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.tasks.len()
    }

    /// The tasks initially assigned to node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tasks_of(&self, i: usize) -> &[Task] {
        &self.tasks[i]
    }

    /// Consumes the distribution and returns the per-node task lists.
    pub fn into_tasks(self) -> Vec<Vec<Task>> {
        self.tasks
    }

    /// Total number of tasks `m`.
    pub fn task_count(&self) -> usize {
        self.tasks.iter().map(|t| t.len()).sum()
    }

    /// Total weight `W` of all tasks.
    pub fn total_weight(&self) -> u64 {
        self.tasks
            .iter()
            .flat_map(|tasks| tasks.iter().map(|t| t.weight()))
            .sum()
    }

    /// Maximum task weight `w_max` (1 if there are no tasks, so that bounds
    /// like `2·d·w_max` remain meaningful).
    pub fn max_weight(&self) -> Weight {
        self.tasks
            .iter()
            .flat_map(|tasks| tasks.iter().map(|t| t.weight()))
            .max()
            .unwrap_or(1)
    }

    /// Returns `true` if every task has unit weight.
    pub fn is_unit_weight(&self) -> bool {
        self.tasks
            .iter()
            .all(|tasks| tasks.iter().all(|t| t.weight() == 1))
    }

    /// The per-node total weights `x(0)`.
    pub fn load_vector(&self) -> Vec<u64> {
        self.tasks
            .iter()
            .map(|tasks| tasks.iter().map(|t| t.weight()).sum())
            .collect()
    }

    /// The per-node total weights as `f64`, i.e. the continuous twin's
    /// initial load vector.
    pub fn load_vector_f64(&self) -> Vec<f64> {
        self.load_vector().into_iter().map(|w| w as f64).collect()
    }

    /// Initial max-min makespan discrepancy `K` under the given speeds.
    ///
    /// # Panics
    ///
    /// Panics if `speeds.len()` differs from the node count.
    pub fn initial_discrepancy(&self, speeds: &Speeds) -> f64 {
        assert_eq!(speeds.len(), self.node_count());
        crate::metrics::max_min_discrepancy(&self.load_vector_f64(), speeds)
    }
}

/// An owned placement moves into a consumer taking
/// `impl Into<Cow<'_, InitialLoad>>` (an engine constructor, the padding),
/// which then makes no copy of it.
impl From<InitialLoad> for Cow<'_, InitialLoad> {
    fn from(load: InitialLoad) -> Self {
        Cow::Owned(load)
    }
}

/// A borrowed placement stays the caller's; a consumer that needs its
/// tasks clones it once.
impl<'a> From<&'a InitialLoad> for Cow<'a, InitialLoad> {
    fn from(load: &'a InitialLoad) -> Self {
        Cow::Borrowed(load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_source_places_everything_on_one_node() {
        let load = InitialLoad::single_source(5, 2, 7);
        assert_eq!(load.load_vector(), vec![0, 0, 7, 0, 0]);
        assert_eq!(load.task_count(), 7);
        assert_eq!(load.total_weight(), 7);
        assert!(load.is_unit_weight());
        assert_eq!(load.max_weight(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_source_rejects_bad_node() {
        let _ = InitialLoad::single_source(3, 3, 1);
    }

    #[test]
    fn from_tasks_with_weights() {
        let tasks = vec![
            vec![Task::new(TaskId(0), 3), Task::new(TaskId(1), 5)],
            vec![],
            vec![Task::new(TaskId(2), 1)],
        ];
        let load = InitialLoad::from_tasks(tasks);
        assert_eq!(load.node_count(), 3);
        assert_eq!(load.total_weight(), 9);
        assert_eq!(load.max_weight(), 5);
        assert!(!load.is_unit_weight());
        assert_eq!(load.load_vector(), vec![8, 0, 1]);
        assert_eq!(load.load_vector_f64(), vec![8.0, 0.0, 1.0]);
        assert_eq!(load.tasks_of(0).len(), 2);
        assert_eq!(load.into_tasks().len(), 3);
    }

    #[test]
    fn token_ids_are_unique() {
        let load = InitialLoad::from_token_counts(vec![2, 3]);
        let mut ids: Vec<u64> = load.tasks.iter().flatten().map(|t| t.id().0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn empty_distribution_has_wmax_one() {
        let load = InitialLoad::from_token_counts(vec![0, 0]);
        assert_eq!(load.max_weight(), 1);
        assert_eq!(load.total_weight(), 0);
    }

    #[test]
    fn initial_discrepancy_single_source() {
        let load = InitialLoad::single_source(4, 0, 8);
        let speeds = Speeds::uniform(4);
        assert!((load.initial_discrepancy(&speeds) - 8.0).abs() < 1e-12);
    }
}
