//! Counting-allocator proof of the zero-allocation hot loop.
//!
//! Installs a global allocator that counts every `alloc`/`realloc`, warms an
//! engine up (so lazily grown buffers — heaps, ring buffers, delivery
//! scratch — reach their steady-state capacity), then demands that further
//! rounds perform **no heap allocations at all**: the acceptance criterion
//! of the buffer-reuse refactor.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! pollute the counter.

use lb_analysis::artifact::unique_name;
use lb_analysis::Json;
use lb_core::continuous::{ContinuousRunner, DimensionExchange, Fos};
use lb_core::discrete::{
    DiscreteBalancer, DynamicBalancer, EventReport, FlowImitation, RandomizedImitation,
    RoundEvents, TaskPicker,
};
use lb_core::ingest::merge::MergeSession;
use lb_core::ingest::{self, IngestSession};
use lb_core::snapshot::{self, Snapshot};
use lb_core::{InitialLoad, ShardedExecutor, Speeds, Task, TaskId};
use lb_graph::{generators, AlphaScheme, Graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter update has
// no safety impact.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `warmup` rounds, then asserts the next `measure` rounds allocate
/// nothing.
fn assert_zero_alloc_steady_state(
    label: &str,
    warmup: usize,
    measure: usize,
    step: &mut dyn FnMut(),
) {
    for _ in 0..warmup {
        step();
    }
    let before = allocations();
    for _ in 0..measure {
        step();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{label}: {} allocation(s) in {measure} steady-state rounds",
        after - before
    );
}

fn workload(n: usize, d: u64) -> (Speeds, InitialLoad) {
    let speeds = Speeds::uniform(n);
    let mut counts = vec![d; n];
    counts[0] += 8 * n as u64;
    (speeds, InitialLoad::from_token_counts(counts))
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let graph: Arc<Graph> = Arc::new(generators::hypercube(8).expect("hypercube builds"));
    let n = graph.node_count();
    let d = graph.max_degree() as u64;
    let (speeds, initial) = workload(n, d);

    // Continuous runner with the FOS kernel.
    let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
        .expect("FOS constructs");
    let mut runner = ContinuousRunner::new(fos, initial.load_vector_f64());
    assert_zero_alloc_steady_state("continuous FOS runner", 50, 50, &mut || {
        runner.step();
    });

    // Continuous runner with the dimension-exchange kernel (matching-based).
    let de = DimensionExchange::with_greedy_coloring(Arc::clone(&graph), &speeds)
        .expect("DE constructs");
    let mut runner = ContinuousRunner::new(de, initial.load_vector_f64());
    assert_zero_alloc_steady_state("continuous DE runner", 50, 50, &mut || {
        runner.step();
    });

    // Algorithm 1 across all three task pickers (ring buffer + both heaps).
    for picker in [
        TaskPicker::Fifo,
        TaskPicker::LargestFirst,
        TaskPicker::SmallestFirst,
    ] {
        let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
            .expect("FOS constructs");
        let mut alg1 =
            FlowImitation::new(fos, &initial, speeds.clone(), picker).expect("dimensions agree");
        assert_zero_alloc_steady_state(
            &format!("FlowImitation({picker:?})"),
            400,
            100,
            &mut || alg1.step(),
        );
    }

    // Algorithm 2 (randomized rounding).
    let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
        .expect("FOS constructs");
    let mut alg2 =
        RandomizedImitation::new(fos, &initial, speeds.clone(), 42).expect("dimensions agree");
    assert_zero_alloc_steady_state("RandomizedImitation", 400, 100, &mut || alg2.step());

    // Dynamic workloads: with arrivals and completions applied between
    // rounds, the *step itself* must still allocate nothing. Only event
    // application (queue growth, delivery of new tasks) may touch the heap —
    // the contract of `DynamicBalancer::apply_events`.
    let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
        .expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    let mut events = RoundEvents::default();
    let mut next_id = initial.task_count() as u64;
    let mut dynamic_round = |alg1: &mut FlowImitation<Fos>, round: usize, measured: bool| {
        // A deterministic arrival/completion mix: 4 unit tasks arrive on
        // rotating nodes, 4 units complete elsewhere — sustained load with a
        // steady total, no RNG needed.
        events.clear();
        for k in 0..4u64 {
            events
                .completions
                .push(((round * 13 + 7 * k as usize) % n, 1));
        }
        for k in 0..4u64 {
            let task = Task::new(TaskId(next_id), 1);
            next_id += 1;
            events.arrivals.push(((round * 31 + k as usize) % n, task));
        }
        alg1.apply_events(&events).expect("events apply");
        if measured {
            let before = allocations();
            alg1.step();
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "FlowImitation step allocated under dynamic arrivals (round {round})"
            );
        } else {
            alg1.step();
        }
    };
    for round in 0..400 {
        dynamic_round(&mut alg1, round, false);
    }
    for round in 400..500 {
        dynamic_round(&mut alg1, round, true);
    }
    assert!(alg1.arrived_weight() >= 4 * 500);
    assert!(alg1.completed_weight() > 0);

    // Checkpointed runs: capturing and atomically publishing a full snapshot
    // at the cadence round allocates (it builds the document and stages a
    // temp file), but every round BETWEEN checkpoints must stay heap-free.
    // This pins the driver's `--checkpoint-every` contract: `capture` is a
    // read-only walk that must not steal, shrink, or lazily re-grow any
    // warmed engine buffer, and the atomic write must leave no allocation
    // debt behind for later rounds to pay.
    let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
        .expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    let ckpt = std::env::temp_dir().join(format!("{}.jsonl", unique_name("lb_zero_alloc_ckpt")));
    let header = Json::obj([("name", Json::Str("zero_alloc".into()))]);
    let publish = |alg1: &FlowImitation<Fos>, round: u64| {
        let snap = Snapshot {
            scenario: header.clone(),
            driver: Json::Null,
            round,
            engine: alg1.capture(),
        };
        snapshot::write_atomic(&ckpt, &snap).expect("checkpoint publishes");
    };
    for round in 0..400u64 {
        alg1.step();
        if round % 10 == 9 {
            publish(&alg1, round + 1);
        }
    }
    for round in 400..500u64 {
        let before = allocations();
        alg1.step();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "checkpointed run: round {round} allocated between checkpoints"
        );
        if round % 10 == 9 {
            // The cadence round itself: the snapshot capture + write is the
            // one sanctioned allocator, and it runs outside the measurement.
            publish(&alg1, round + 1);
        }
    }
    std::fs::remove_file(&ckpt).ok();

    // Sharded rounds (shards > 1): the persistent worker pool, pre-sized
    // shard plan and warmed outboxes must keep `step_sharded` heap-free too.
    // Workers also count against the global allocator, so this covers the
    // whole two-phase round, not just the coordinating thread.
    let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
        .expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    let mut exec = ShardedExecutor::new(3);
    assert_zero_alloc_steady_state("FlowImitation sharded(3)", 400, 100, &mut || {
        alg1.step_sharded(&mut exec)
    });

    let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
        .expect("FOS constructs");
    let mut alg2 =
        RandomizedImitation::new(fos, &initial, speeds.clone(), 42).expect("dimensions agree");
    let mut exec = ShardedExecutor::new(3);
    assert_zero_alloc_steady_state("RandomizedImitation sharded(3)", 400, 100, &mut || {
        alg2.step_sharded(&mut exec)
    });

    // Channel ingestion: a producer thread streams deterministic batches
    // through the bounded SPSC channel while the engine takes one batch
    // between rounds the way `Session::run` does: `fill_round` into one
    // reused batch, then `apply_events`. The allocator counter is global,
    // so the measured window covers BOTH threads: once buffers circulate
    // (the producer draws recycled ones via `buffer()`), a steady-state
    // round — produce, send, receive, fill, recycle, apply, step — must
    // allocate nothing anywhere. The
    // producer sends more batches than the measured run consumes, so it is
    // parked on the bounded queue (not exiting) when measurement ends.
    let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
        .expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    let (mut tx, rx) = ingest::bounded(8);
    let nodes = n;
    let mut next_id = initial.task_count() as u64;
    let producer = std::thread::spawn(move || {
        for round in 0..700u64 {
            let mut batch = tx.buffer();
            for k in 0..4u64 {
                batch
                    .completions
                    .push(((round as usize * 13 + 7 * k as usize) % nodes, 1));
            }
            for k in 0..4u64 {
                let task = Task::new(TaskId(next_id), 1);
                next_id += 1;
                batch
                    .arrivals
                    .push(((round as usize * 31 + k as usize) % nodes, task));
            }
            if tx.send(round, batch).is_err() {
                return; // consumer done; the test is over
            }
        }
    });
    let mut session = IngestSession::new(rx);
    let mut events = RoundEvents::default();
    let mut total = EventReport::default();
    let mut round = 0u64;
    assert_zero_alloc_steady_state("FlowImitation channel ingestion", 400, 100, &mut || {
        session.fill_round(round, &mut events).expect("batch fills");
        let report = alg1.apply_events(&events).expect("batch applies");
        total.arrived_tasks += report.arrived_tasks;
        round += 1;
        alg1.step();
    });
    assert_eq!(total.arrived_tasks, 4 * 500);
    assert!(alg1.completed_weight() > 0);
    drop(session); // hang up; the blocked producer's next send fails
    producer.join().expect("producer exits cleanly");

    // Merged ingestion (2 feeds): two producer threads each stream their own
    // half of the round's events over their own bounded channel, and the
    // MergeSession coalesces the halves into the driver's reused batch
    // between rounds (`fill_round`, then `apply_events`). The counter is
    // global, so the measured window covers all three threads: once that
    // batch and every circulating buffer are warm, a steady-state round —
    // two produces, two sends, k-way coalesce, recycle, apply, step — must
    // allocate nothing anywhere. Feed 0 carries the completions and the
    // even arrivals, feed 1 the odd arrivals (disjoint task ids), keeping the
    // total load steady.
    let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
        .expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    let mut consumers = Vec::new();
    let mut merge_producers = Vec::new();
    let base_id = initial.task_count() as u64;
    for feed in 0..2u64 {
        let (mut tx, rx) = ingest::bounded(8);
        consumers.push(rx);
        let nodes = n;
        merge_producers.push(std::thread::spawn(move || {
            for round in 0..700u64 {
                let mut batch = tx.buffer();
                if feed == 0 {
                    for k in 0..4u64 {
                        batch
                            .completions
                            .push(((round as usize * 13 + 7 * k as usize) % nodes, 1));
                    }
                }
                for k in 0..2u64 {
                    let id = base_id + round * 4 + 2 * k + feed;
                    let task = Task::new(TaskId(id), 1);
                    batch.arrivals.push((
                        (round as usize * 31 + (2 * k + feed) as usize) % nodes,
                        task,
                    ));
                }
                if tx.send(round, batch).is_err() {
                    return; // consumer done; the test is over
                }
            }
        }));
    }
    let mut session = MergeSession::new(consumers);
    let mut events = RoundEvents::default();
    let mut total = EventReport::default();
    let mut round = 0u64;
    assert_zero_alloc_steady_state(
        "FlowImitation merged ingestion (2 feeds)",
        400,
        100,
        &mut || {
            session
                .fill_round(round, &mut events)
                .expect("merged batch fills");
            let report = alg1.apply_events(&events).expect("merged batch applies");
            total.arrived_tasks += report.arrived_tasks;
            total.completed_weight += report.completed_weight;
            round += 1;
            alg1.step();
        },
    );
    assert_eq!(total.arrived_tasks, 4 * 500);
    assert!(total.completed_weight > 0);
    let reports = session.feed_reports();
    assert_eq!(reports.len(), 2);
    assert!(
        reports.iter().all(|r| r.batches == 500),
        "both feeds fed every measured round"
    );
    drop(session); // hang up; both blocked producers' next sends fail
    for producer in merge_producers {
        producer.join().expect("merge producer exits cleanly");
    }
}
