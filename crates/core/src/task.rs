//! Tasks, weights, node speeds and per-node task queues — the paper's load
//! model (Section 3) plus the storage the discretizers draw tasks from.
//!
//! Tasks are indivisible and carry a positive integer weight; identical unit
//! weight tasks are called *tokens*. Every node has a positive integer speed
//! `s_i ≥ 1`; the *makespan* of a node is its total task weight divided by
//! its speed.
//!
//! [`TaskQueue`] is the hot-path container: a ring buffer for FIFO picking
//! (O(1) pop) and binary heaps for largest/smallest-first (O(log k) pop),
//! replacing the seed implementation's `Vec` + O(k) scan + O(k) `remove`.
//! Its pop order is **bit-identical** to the reference semantics of
//! [`TaskPicker::pick_reference`], including tie-breaking.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// The weight of a task (a positive integer in the paper's model).
pub type Weight = u64;

/// Unique identifier of a task within a simulation.
///
/// Real tasks created from the initial distribution get sequential ids;
/// dummy tasks drawn from the infinite source are tagged separately (see
/// [`TaskOrigin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Whether a task belongs to the original workload or was generated on demand
/// by a node's infinite source of dummy tokens (Algorithm 1 / Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskOrigin {
    /// A task present in the initial load distribution.
    Workload,
    /// A unit-weight dummy token generated by the infinite source.
    DummySource,
}

/// An indivisible task with a positive weight.
///
/// # Examples
///
/// ```
/// use lb_core::{Task, TaskId, TaskOrigin};
///
/// let t = Task::new(TaskId(3), 5);
/// assert_eq!(t.weight(), 5);
/// assert_eq!(t.origin(), TaskOrigin::Workload);
/// assert!(!t.is_dummy());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    id: TaskId,
    weight: Weight,
    origin: TaskOrigin,
}

impl Task {
    /// Creates a workload task with the given id and weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`; the model requires positive integer weights.
    pub fn new(id: TaskId, weight: Weight) -> Self {
        assert!(weight > 0, "task weight must be positive");
        Task {
            id,
            weight,
            origin: TaskOrigin::Workload,
        }
    }

    /// Creates a unit-weight dummy token drawn from the infinite source.
    pub fn dummy(id: TaskId) -> Self {
        Task {
            id,
            weight: 1,
            origin: TaskOrigin::DummySource,
        }
    }

    /// The task's identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's weight.
    pub fn weight(&self) -> Weight {
        self.weight
    }

    /// Where the task came from.
    pub fn origin(&self) -> TaskOrigin {
        self.origin
    }

    /// Returns `true` for dummy tokens from the infinite source.
    pub fn is_dummy(&self) -> bool {
        self.origin == TaskOrigin::DummySource
    }
}

/// Node speeds `s_i ≥ 1` (integers, per the paper's normalisation).
///
/// Speeds are stored both as integers (exact bookkeeping) and exposed as
/// `f64` for the continuous reference process.
///
/// # Examples
///
/// ```
/// use lb_core::Speeds;
///
/// let s = Speeds::uniform(4);
/// assert_eq!(s.total(), 4);
/// let s = Speeds::new(vec![1, 2, 4]).unwrap();
/// assert_eq!(s.get(2), 4);
/// assert_eq!(s.max(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Speeds {
    values: Vec<u64>,
}

impl Speeds {
    /// Creates speeds from explicit per-node values.
    ///
    /// # Errors
    ///
    /// Returns an error message if any speed is zero (the paper assumes the
    /// minimum speed is scaled to 1, so every speed must be at least 1).
    pub fn new(values: Vec<u64>) -> Result<Self, String> {
        if let Some(i) = values.iter().position(|&s| s == 0) {
            return Err(format!("speed of node {i} must be at least 1"));
        }
        Ok(Speeds { values })
    }

    /// Uniform unit speeds for `n` nodes.
    pub fn uniform(n: usize) -> Self {
        Speeds { values: vec![1; n] }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Speed of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> u64 {
        self.values[i]
    }

    /// Total capacity `S = s_1 + … + s_n`.
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }

    /// Maximum speed `s_max`.
    pub fn max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// Returns `true` if every node has speed 1.
    pub fn is_uniform(&self) -> bool {
        self.values.iter().all(|&s| s == 1)
    }

    /// The raw speed values.
    pub fn as_slice(&self) -> &[u64] {
        &self.values
    }

    /// The speeds carried over to `n` nodes after churn: entries carry over
    /// index by index, removed nodes drop theirs and new nodes get the unit
    /// speed.
    ///
    /// # Errors
    ///
    /// Returns an error message if `n` entries cannot be allocated: a node
    /// count read from a scenario may be absurd, and that must be an error,
    /// not an abort.
    pub fn resized(&self, n: usize) -> Result<Speeds, String> {
        let mut values = Vec::new();
        values
            .try_reserve_exact(n)
            .map_err(|err| format!("carrying speeds to {n} nodes: {err}"))?;
        values.extend_from_slice(&self.values[..n.min(self.values.len())]);
        values.resize(n, 1);
        Ok(Speeds { values })
    }

    /// Speeds as `f64` values (for the continuous process and the diffusion
    /// matrix).
    pub fn to_f64(&self) -> Vec<f64> {
        self.values.iter().map(|&s| s as f64).collect()
    }

    /// The speeds that [`Speeds::to_f64`] gave `values` (integer speeds
    /// round-trip exactly).
    ///
    /// # Errors
    ///
    /// Returns an error message if a value is not a whole number of at
    /// least 1.
    pub(crate) fn from_f64(values: &[f64]) -> Result<Speeds, String> {
        if let Some(i) = values.iter().position(|&s| s.fract() != 0.0) {
            return Err(format!("speed of node {i} must be a whole number"));
        }
        Speeds::new(values.iter().map(|&s| s as u64).collect())
    }
}

impl AsRef<[u64]> for Speeds {
    fn as_ref(&self) -> &[u64] {
        &self.values
    }
}

/// Which task a sender picks when Algorithm 1 says "an arbitrary task".
///
/// The paper's bound holds for any choice; the experiments default to
/// [`TaskPicker::Fifo`] and the ablation benchmark compares the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum TaskPicker {
    /// Oldest task first (insertion order).
    #[default]
    Fifo,
    /// Heaviest task first (ties broken towards the most recently added).
    LargestFirst,
    /// Lightest task first (ties broken towards the least recently added).
    SmallestFirst,
}

impl TaskPicker {
    /// Reference semantics: picks the index of the next task to send from a
    /// plain slice, or `None` if it is empty. This is the (O(k) per pick)
    /// specification [`TaskQueue`] reproduces; it is kept for documentation
    /// and for the equivalence property tests.
    ///
    /// Tie-breaking is inherited from the iterator combinators:
    /// `LargestFirst` resolves equal weights to the **largest** index (the
    /// most recently appended task), `SmallestFirst` to the **smallest**.
    pub fn pick_reference(self, tasks: &[Task]) -> Option<usize> {
        if tasks.is_empty() {
            return None;
        }
        match self {
            TaskPicker::Fifo => Some(0),
            TaskPicker::LargestFirst => tasks
                .iter()
                .enumerate()
                .max_by_key(|(_, t)| t.weight())
                .map(|(i, _)| i),
            TaskPicker::SmallestFirst => tasks
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.weight())
                .map(|(i, _)| i),
        }
    }
}

/// A heap entry ordered by `(weight, seq)`; `task` does not participate in
/// the ordering.
#[derive(Debug, Clone)]
struct HeapEntry {
    weight: Weight,
    seq: u64,
    task: Task,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.weight == other.weight && self.seq == other.seq
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.weight, self.seq).cmp(&(other.weight, other.seq))
    }
}

/// Policy-specific storage backing a [`TaskQueue`].
#[derive(Debug, Clone)]
enum Store {
    /// FIFO ring buffer: O(1) push and pop.
    Fifo(VecDeque<Task>),
    /// Max-heap on `(weight, seq)`: pops the heaviest task, ties towards the
    /// largest sequence number (most recently pushed) — exactly the
    /// last-maximum rule of `max_by_key` over a slice.
    Largest(BinaryHeap<HeapEntry>),
    /// Min-heap on `(weight, seq)`: pops the lightest task, ties towards the
    /// smallest sequence number — the first-minimum rule of `min_by_key`.
    Smallest(BinaryHeap<Reverse<HeapEntry>>),
}

/// Per-node task storage with policy-aware O(1)/O(log k) pops.
///
/// The queue maintains its total weight incrementally, so per-node load
/// metrics are O(1) instead of an O(k) re-summation, and assigns every
/// pushed task a monotone sequence number so heap tie-breaking reproduces
/// the reference slice semantics bit for bit (see
/// [`TaskPicker::pick_reference`]).
///
/// # Examples
///
/// ```
/// use lb_core::{Task, TaskId, TaskPicker, TaskQueue};
///
/// let mut q = TaskQueue::new(TaskPicker::LargestFirst);
/// q.push(Task::new(TaskId(0), 2));
/// q.push(Task::new(TaskId(1), 5));
/// q.push(Task::new(TaskId(2), 5));
/// assert_eq!(q.total_weight(), 12);
/// // Heaviest first; the tie between tasks 1 and 2 resolves to the most
/// // recently pushed one.
/// assert_eq!(q.pop().unwrap().id(), TaskId(2));
/// assert_eq!(q.pop().unwrap().id(), TaskId(1));
/// assert_eq!(q.total_weight(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TaskQueue {
    policy: TaskPicker,
    store: Store,
    /// Next sequence number; monotone over the queue's lifetime.
    seq: u64,
    /// Sum of the weights of all stored tasks, maintained incrementally.
    total_weight: u64,
}

impl TaskQueue {
    /// Creates an empty queue with the given pick policy.
    pub fn new(policy: TaskPicker) -> Self {
        let store = match policy {
            TaskPicker::Fifo => Store::Fifo(VecDeque::new()),
            TaskPicker::LargestFirst => Store::Largest(BinaryHeap::new()),
            TaskPicker::SmallestFirst => Store::Smallest(BinaryHeap::new()),
        };
        TaskQueue {
            policy,
            store,
            seq: 0,
            total_weight: 0,
        }
    }

    /// Creates a queue holding `tasks` in order (the first element is the
    /// oldest), taking the vector whole: FIFO storage reuses its buffer
    /// without copying, and the heaps heapify it in O(k). Pops, total weight
    /// and [`snapshot`](TaskQueue::snapshot) equal those of a
    /// [`new`](TaskQueue::new) queue that [`push`](TaskQueue::push)es the
    /// same tasks one by one, because every heap key `(weight, seq)` is
    /// unique.
    pub fn with_tasks(policy: TaskPicker, tasks: Vec<Task>) -> Self {
        let total_weight = tasks.iter().map(Task::weight).sum();
        let seq = tasks.len() as u64;
        let entries = || {
            (0u64..).zip(tasks.iter()).map(|(seq, &task)| HeapEntry {
                weight: task.weight(),
                seq,
                task,
            })
        };
        let store = match policy {
            TaskPicker::Fifo => Store::Fifo(VecDeque::from(tasks)),
            TaskPicker::LargestFirst => Store::Largest(entries().collect()),
            TaskPicker::SmallestFirst => Store::Smallest(entries().map(Reverse).collect()),
        };
        TaskQueue {
            policy,
            store,
            seq,
            total_weight,
        }
    }

    /// The queue's pick policy.
    pub fn policy(&self) -> TaskPicker {
        self.policy
    }

    /// Number of stored tasks.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Fifo(q) => q.len(),
            Store::Largest(h) => h.len(),
            Store::Smallest(h) => h.len(),
        }
    }

    /// Returns `true` if no task is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of all stored tasks — O(1), maintained incrementally on
    /// every push and pop.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Adds a task. O(1) for FIFO, O(log k) for the heap policies
    /// (amortised; steady-state pushes into warmed-up capacity do not
    /// allocate).
    #[inline]
    pub fn push(&mut self, task: Task) {
        self.total_weight += task.weight();
        let seq = self.seq;
        self.seq += 1;
        match &mut self.store {
            Store::Fifo(q) => q.push_back(task),
            Store::Largest(h) => h.push(HeapEntry {
                weight: task.weight(),
                seq,
                task,
            }),
            Store::Smallest(h) => h.push(Reverse(HeapEntry {
                weight: task.weight(),
                seq,
                task,
            })),
        }
    }

    /// The task the next [`pop`](TaskQueue::pop) would return, without
    /// removing it. O(1) for every policy.
    ///
    /// The dynamic-workload engine uses this to complete whole tasks against
    /// a weight budget without disturbing the pick order.
    #[inline]
    pub fn peek(&self) -> Option<&Task> {
        match &self.store {
            Store::Fifo(q) => q.front(),
            Store::Largest(h) => h.peek().map(|entry| &entry.task),
            Store::Smallest(h) => h.peek().map(|Reverse(entry)| &entry.task),
        }
    }

    /// Removes and returns the next task according to the policy, or `None`
    /// if the queue is empty. O(1) for FIFO, O(log k) for the heap policies.
    #[inline]
    pub fn pop(&mut self) -> Option<Task> {
        let task = match &mut self.store {
            Store::Fifo(q) => q.pop_front(),
            Store::Largest(h) => h.pop().map(|entry| entry.task),
            Store::Smallest(h) => h.pop().map(|Reverse(entry)| entry.task),
        }?;
        self.total_weight -= task.weight();
        Some(task)
    }

    /// Captures the queue for serialization: the next-seq counter plus every
    /// stored `(seq, task)` entry **in pop order**.
    ///
    /// Heap policies report each task's original insertion sequence number —
    /// the tie-breaking key — so a queue rebuilt by
    /// [`restore`](TaskQueue::restore) pops bit-identically to this one,
    /// including ties against tasks pushed after the restore. FIFO storage
    /// does not retain per-task sequence numbers (insertion order alone
    /// determines pops), so FIFO entries carry their queue position instead.
    ///
    /// Snapshot-time only: allocates, and is O(k log k) for heap policies.
    pub fn snapshot(&self) -> (u64, Vec<(u64, Task)>) {
        let entries = match &self.store {
            Store::Fifo(q) => q
                .iter()
                .enumerate()
                .map(|(i, &task)| (i as u64, task))
                .collect(),
            Store::Largest(h) => {
                let mut heap = h.clone();
                let mut out = Vec::with_capacity(heap.len());
                while let Some(entry) = heap.pop() {
                    out.push((entry.seq, entry.task));
                }
                out
            }
            Store::Smallest(h) => {
                let mut heap = h.clone();
                let mut out = Vec::with_capacity(heap.len());
                while let Some(Reverse(entry)) = heap.pop() {
                    out.push((entry.seq, entry.task));
                }
                out
            }
        };
        (self.seq, entries)
    }

    /// Rebuilds a queue captured by [`snapshot`](TaskQueue::snapshot) from
    /// its next-seq counter and its `(seq, task)` entries in pop order.
    ///
    /// # Errors
    ///
    /// Rejects duplicate sequence numbers and seqs not below `next_seq`;
    /// either would corrupt heap tie-breaking against future pushes.
    pub fn restore(
        policy: TaskPicker,
        next_seq: u64,
        entries: &[(u64, Task)],
    ) -> Result<Self, String> {
        let mut seqs: Vec<u64> = entries.iter().map(|&(seq, _)| seq).collect();
        seqs.sort_unstable();
        if let Some(pair) = seqs.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("duplicate task seq {}", pair[0]));
        }
        if let Some(&seq) = seqs.last() {
            if seq >= next_seq {
                return Err(format!(
                    "task seq {seq} is not below the queue's next-seq counter {next_seq}"
                ));
            }
        }
        let total_weight = entries.iter().map(|&(_, task)| task.weight()).sum();
        let store = match policy {
            TaskPicker::Fifo => Store::Fifo(entries.iter().map(|&(_, task)| task).collect()),
            TaskPicker::LargestFirst => Store::Largest(
                entries
                    .iter()
                    .map(|&(seq, task)| HeapEntry {
                        weight: task.weight(),
                        seq,
                        task,
                    })
                    .collect(),
            ),
            TaskPicker::SmallestFirst => Store::Smallest(
                entries
                    .iter()
                    .map(|&(seq, task)| {
                        Reverse(HeapEntry {
                            weight: task.weight(),
                            seq,
                            task,
                        })
                    })
                    .collect(),
            ),
        };
        Ok(TaskQueue {
            policy,
            store,
            seq: next_seq,
            total_weight,
        })
    }

    /// Iterates over the stored tasks in **unspecified** order (heap
    /// policies do not keep a sorted layout). Intended for inspection and
    /// tests, not the hot path.
    pub fn iter(&self) -> impl Iterator<Item = &Task> + '_ {
        // Three storage layouts, one iterator type: chain empty iterators.
        let (fifo, largest, smallest) = match &self.store {
            Store::Fifo(q) => (Some(q.iter()), None, None),
            Store::Largest(h) => (None, Some(h.iter()), None),
            Store::Smallest(h) => (None, None, Some(h.iter())),
        };
        fifo.into_iter()
            .flatten()
            .chain(largest.into_iter().flatten().map(|entry| &entry.task))
            .chain(
                smallest
                    .into_iter()
                    .flatten()
                    .map(|Reverse(entry)| &entry.task),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_accessors() {
        let t = Task::new(TaskId(7), 3);
        assert_eq!(t.id(), TaskId(7));
        assert_eq!(t.weight(), 3);
        assert!(!t.is_dummy());
        assert_eq!(format!("{}", t.id()), "task#7");
    }

    #[test]
    fn dummy_tasks_have_unit_weight() {
        let t = Task::dummy(TaskId(9));
        assert_eq!(t.weight(), 1);
        assert!(t.is_dummy());
        assert_eq!(t.origin(), TaskOrigin::DummySource);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_task_panics() {
        let _ = Task::new(TaskId(0), 0);
    }

    #[test]
    fn speeds_basic() {
        let s = Speeds::new(vec![1, 2, 3]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.total(), 6);
        assert_eq!(s.max(), 3);
        assert!(!s.is_uniform());
        assert_eq!(s.to_f64(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn uniform_speeds() {
        let s = Speeds::uniform(5);
        assert!(s.is_uniform());
        assert_eq!(s.total(), 5);
        assert_eq!(s.max(), 1);
        assert!(!s.is_empty());
        assert!(Speeds::uniform(0).is_empty());
    }

    #[test]
    fn zero_speed_rejected() {
        let err = Speeds::new(vec![1, 0, 2]).unwrap_err();
        assert!(err.contains("node 1"));
    }

    fn task(id: u64, weight: Weight) -> Task {
        Task::new(TaskId(id), weight)
    }

    #[test]
    fn fifo_queue_pops_in_insertion_order() {
        let mut q =
            TaskQueue::with_tasks(TaskPicker::Fifo, vec![task(0, 3), task(1, 1), task(2, 2)]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.total_weight(), 6);
        assert_eq!(q.pop().unwrap().id(), TaskId(0));
        q.push(task(3, 5));
        assert_eq!(q.pop().unwrap().id(), TaskId(1));
        assert_eq!(q.pop().unwrap().id(), TaskId(2));
        assert_eq!(q.pop().unwrap().id(), TaskId(3));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.total_weight(), 0);
    }

    #[test]
    fn largest_first_breaks_ties_towards_newest() {
        // Reference: max_by_key returns the LAST maximal element.
        let mut q = TaskQueue::with_tasks(
            TaskPicker::LargestFirst,
            vec![task(0, 4), task(1, 4), task(2, 1)],
        );
        assert_eq!(q.pop().unwrap().id(), TaskId(1));
        assert_eq!(q.pop().unwrap().id(), TaskId(0));
        assert_eq!(q.pop().unwrap().id(), TaskId(2));
    }

    #[test]
    fn smallest_first_breaks_ties_towards_oldest() {
        // Reference: min_by_key returns the FIRST minimal element.
        let mut q = TaskQueue::with_tasks(
            TaskPicker::SmallestFirst,
            vec![task(0, 2), task(1, 2), task(2, 7)],
        );
        assert_eq!(q.pop().unwrap().id(), TaskId(0));
        assert_eq!(q.pop().unwrap().id(), TaskId(1));
        assert_eq!(q.pop().unwrap().id(), TaskId(2));
    }

    #[test]
    fn queue_matches_reference_pick_under_interleaving() {
        // Drive a TaskQueue and the reference Vec semantics side by side
        // through a deterministic push/pop interleaving and demand identical
        // pop sequences, for all three policies.
        for policy in [
            TaskPicker::Fifo,
            TaskPicker::LargestFirst,
            TaskPicker::SmallestFirst,
        ] {
            let mut queue = TaskQueue::new(policy);
            let mut reference: Vec<Task> = Vec::new();
            let mut next_id = 0u64;
            for step in 0u64..400 {
                // A fixed, seed-free mix of pushes and pops.
                let action = (step * 2_654_435_761) % 5;
                if action < 3 {
                    let t = task(next_id, (step * 7 % 4) + 1);
                    next_id += 1;
                    queue.push(t);
                    reference.push(t);
                } else {
                    let expected = policy
                        .pick_reference(&reference)
                        .map(|idx| reference.remove(idx));
                    assert_eq!(queue.pop(), expected, "policy {policy:?} step {step}");
                }
                assert_eq!(
                    queue.total_weight(),
                    reference.iter().map(|t| t.weight()).sum::<u64>(),
                    "incremental total must match re-summation"
                );
                assert_eq!(queue.len(), reference.len());
            }
        }
    }

    #[test]
    fn a_queue_from_a_vec_equals_one_pushed_task_by_task() {
        for policy in [
            TaskPicker::Fifo,
            TaskPicker::LargestFirst,
            TaskPicker::SmallestFirst,
        ] {
            for len in [0u64, 1, 40] {
                // Three weights over 40 tasks: every weight is tied.
                let tasks: Vec<Task> = (0..len).map(|i| task(i, i * 7 % 3 + 1)).collect();
                let mut pushed = TaskQueue::new(policy);
                for &task in &tasks {
                    pushed.push(task);
                }
                let mut whole = TaskQueue::with_tasks(policy, tasks);
                assert_eq!(whole.snapshot(), pushed.snapshot(), "{policy:?} len {len}");
                assert_eq!(whole.total_weight(), pushed.total_weight());
                // A later push ties against the vector's tasks the same way.
                whole.push(task(99, 2));
                pushed.push(task(99, 2));
                loop {
                    let popped = whole.pop();
                    assert_eq!(popped, pushed.pop(), "{policy:?} len {len}");
                    assert_eq!(whole.total_weight(), pushed.total_weight());
                    if popped.is_none() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn peek_agrees_with_pop_for_every_policy() {
        for policy in [
            TaskPicker::Fifo,
            TaskPicker::LargestFirst,
            TaskPicker::SmallestFirst,
        ] {
            let mut q =
                TaskQueue::with_tasks(policy, (0..12).map(|i| task(i, i % 4 + 1)).collect());
            while !q.is_empty() {
                let peeked = *q.peek().expect("non-empty queue peeks");
                assert_eq!(q.pop(), Some(peeked), "policy {policy:?}");
            }
            assert!(q.peek().is_none());
        }
    }

    #[test]
    fn snapshot_restore_round_trips_for_every_policy() {
        for policy in [
            TaskPicker::Fifo,
            TaskPicker::LargestFirst,
            TaskPicker::SmallestFirst,
        ] {
            // Build a queue with tie weights and a popped prefix so restored
            // seqs differ from freshly assigned ones.
            let mut original = TaskQueue::with_tasks(
                policy,
                vec![task(0, 4), task(1, 4), task(2, 1), task(3, 4), task(4, 2)],
            );
            original.pop();
            let (next_seq, entries) = original.snapshot();
            assert_eq!(next_seq, 5, "counter survives pops");
            let mut restored = TaskQueue::restore(policy, next_seq, &entries).expect("restores");
            assert_eq!(restored.len(), original.len());
            assert_eq!(restored.total_weight(), original.total_weight());
            // Future pushes must tie-break identically in both queues: the
            // restored counter continues where the original left off.
            original.push(task(9, 4));
            restored.push(task(9, 4));
            while let Some(expect) = original.pop() {
                assert_eq!(restored.pop(), Some(expect), "policy {policy:?}");
            }
            assert!(restored.pop().is_none());
        }
    }

    #[test]
    fn restore_rejects_corrupt_seqs() {
        let entries = [(0, task(0, 1)), (0, task(1, 1))];
        let err = TaskQueue::restore(TaskPicker::LargestFirst, 5, &entries).unwrap_err();
        assert!(err.contains("duplicate task seq 0"), "{err}");

        let entries = [(7, task(0, 1))];
        let err = TaskQueue::restore(TaskPicker::SmallestFirst, 5, &entries).unwrap_err();
        assert!(err.contains("not below"), "{err}");
    }

    #[test]
    fn queue_iter_visits_every_task() {
        for policy in [
            TaskPicker::Fifo,
            TaskPicker::LargestFirst,
            TaskPicker::SmallestFirst,
        ] {
            let q = TaskQueue::with_tasks(policy, (0..10).map(|i| task(i, i % 3 + 1)).collect());
            let mut ids: Vec<u64> = q.iter().map(|t| t.id().0).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..10).collect::<Vec<_>>());
            assert_eq!(q.policy(), policy);
        }
    }
}
