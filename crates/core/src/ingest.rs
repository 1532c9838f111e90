//! Async event ingestion: a bounded SPSC channel carrying [`RoundEvents`]
//! batches from an external producer thread to the engine's thread.
//!
//! The synchronous scenario path materialises each round's events in the
//! driver loop itself. This module decouples the two halves so a producer —
//! a trace replayer, a live traffic front-end, a scenario generator running
//! ahead — can fill batches on its own thread while the engine consumes them
//! between rounds:
//!
//! ```text
//! producer thread                         engine (consumer) thread
//! ───────────────                         ────────────────────────
//! buffer()  ── recycled RoundEvents ◄──┐
//! fill batch for round r               │
//! send(r, batch)  ──► bounded queue ──►│ IngestSession::fill_round(r, out)
//! (blocks when full)                   │   · copies the batch into the
//!                                      │     driver's reused `out`, then
//!                                      │     recycles the channel buffer
//!                                      │ engine.apply_events(&out)
//!                                      └── engine.step() stays zero-alloc
//! ```
//!
//! A batch reaches an engine one way: the driver fills its one reused
//! [`RoundEvents`] for round `r` (from this channel, a
//! [`merge::MergeSession`] or inline generation), then hands it to
//! [`DynamicBalancer::apply_events`](crate::discrete::DynamicBalancer::apply_events)
//! before round `r` executes. The driver sees every batch before the
//! engine does, so it can record it to a trace on the way.
//!
//! # Protocol
//!
//! Batches are tagged with the round they belong to. The producer sends them
//! in **strictly increasing round order** and may skip rounds with no events
//! (empty batches are legal but pointless). The consumer asks for one round
//! at a time, in order; a batch tagged with an earlier round than the one
//! being asked for is a protocol violation and reported as an error. When
//! the producer hangs up, every remaining round simply has no events — a
//! trace shorter than the run is not an error.
//!
//! [`IngestSession`] is the one consumer-side sequencer of this protocol:
//! it holds the pending batch, notices the hang-up, rejects stale and
//! repeated rounds and counts batches and events. The multi-producer
//! [`merge::MergeSession`] runs one per feed and only coalesces their
//! batches, so a single channel and a one-feed merge deliver the same
//! stream.
//!
//! # Contract with the zero-allocation hot loop
//!
//! The channel recycles batch buffers: the consumer returns drained
//! [`RoundEvents`] to a spare pool the producer draws from via
//! [`EventProducer::buffer`]. The pool starts with one buffer per batch
//! that can be in flight (`capacity + 2`) and hands them out first-in
//! first-out, so warm-up rounds grow every one of them. Once every buffer
//! in circulation, and the driver's own batch, has grown to the working
//! batch size, a steady-state round — receive, fill, recycle, apply, step
//! — performs **no heap allocations on either thread**: the queue and
//! spare pool are pre-sized rings, and blocking uses condvars, not
//! allocation. Only the event application itself may touch the heap (queues
//! growing under net load), exactly as on the synchronous path;
//! `tests/zero_alloc.rs` pins both sides with a counting global allocator.
//!
//! # Determinism
//!
//! The channel changes *where* batches are produced, never *what* they
//! contain or *when* they are applied: [`IngestSession::fill_round`] hands
//! over the batch for round `r` before round `r` executes, and the driver
//! applies it there, exactly as it applies an inline batch. For the same
//! event stream the sync path and the channel path are therefore
//! bit-identical (`tests/ingest_equivalence.rs`).

use crate::discrete::RoundEvents;
use crate::error::CoreError;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

pub mod merge;

/// The producer half of the channel hung up mid-`send` because the consumer
/// was dropped; the batch was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ingest channel disconnected: the consumer was dropped")
    }
}

impl std::error::Error for Disconnected {}

/// Backpressure counters of one channel, accumulated since [`bounded`]
/// created it. Counts and the high-water mark are deterministic only in the
/// aggregate sense — they depend on thread scheduling — so drivers report
/// them out of band (stderr, side files), never inside the deterministic
/// result document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelMetrics {
    /// Number of `send` calls that found the queue full and had to block.
    pub blocked_sends: u64,
    /// Total time sends spent blocked on a full queue, in nanoseconds.
    pub blocked_nanos: u64,
    /// Highest in-flight batch count observed (at most the capacity).
    pub high_water: usize,
}

/// Shared channel state behind one mutex: the bounded batch queue, the spare
/// (recycled) buffer pool, the hang-up flags and the backpressure counters.
struct State {
    /// In-flight batches, oldest first, tagged with their round.
    queue: VecDeque<(u64, RoundEvents)>,
    /// Buffers waiting to be (re)used by the producer, oldest first.
    spare: VecDeque<RoundEvents>,
    /// The producer was dropped; no further batches will arrive.
    producer_gone: bool,
    /// The consumer was dropped; sends can never be observed.
    consumer_gone: bool,
    /// Backpressure counters (see [`ChannelMetrics`]).
    metrics: ChannelMetrics,
}

struct Shared {
    capacity: usize,
    state: Mutex<State>,
    /// Signalled when the queue shrinks or the consumer hangs up.
    not_full: Condvar,
    /// Signalled when the queue grows or the producer hangs up.
    not_empty: Condvar,
}

/// Creates a bounded single-producer single-consumer channel of round-tagged
/// [`RoundEvents`] batches holding at most `capacity` in-flight batches
/// (clamped to at least 1). See the [module docs](self) for the protocol.
pub fn bounded(capacity: usize) -> (EventProducer, EventConsumer) {
    let capacity = capacity.max(1);
    // The in-flight bound: one buffer per queue slot plus one in each
    // party's hands. The pool starts full and cycles first-in first-out, so
    // warm-up rounds grow every buffer the channel will ever hand out.
    let spare = std::iter::repeat_with(RoundEvents::default)
        .take(spare_bound(capacity))
        .collect();
    let shared = Arc::new(Shared {
        capacity,
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            spare,
            producer_gone: false,
            consumer_gone: false,
            metrics: ChannelMetrics::default(),
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        EventProducer {
            shared: Arc::clone(&shared),
            last_round: None,
        },
        EventConsumer { shared },
    )
}

/// How many batch buffers a channel of `capacity` keeps in circulation.
fn spare_bound(capacity: usize) -> usize {
    capacity + 2
}

/// The sending half: owned by the producer thread.
///
/// Dropping the producer closes the channel; the consumer then sees the end
/// of the stream once the queue drains.
pub struct EventProducer {
    shared: Arc<Shared>,
    last_round: Option<u64>,
}

impl EventProducer {
    /// Returns a cleared batch buffer, reusing a recycled one when available
    /// so steady-state production allocates nothing.
    pub fn buffer(&mut self) -> RoundEvents {
        let mut events = {
            let mut state = self.shared.state.lock().expect("ingest lock");
            state.spare.pop_front().unwrap_or_default()
        };
        events.clear();
        events
    }

    /// Sends the batch for `round`, blocking while the queue is full.
    ///
    /// Rounds must be strictly increasing across calls; rounds with no events
    /// may simply be skipped.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] (discarding the batch) if the consumer was
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `round` does not exceed the previously sent round — that is
    /// a producer bug, not a runtime condition.
    pub fn send(&mut self, round: u64, events: RoundEvents) -> Result<(), Disconnected> {
        if let Some(last) = self.last_round {
            assert!(
                round > last,
                "ingest protocol violation: batch for round {round} sent after round {last}"
            );
        }
        let mut state = self.shared.state.lock().expect("ingest lock");
        // Blocked-time accounting starts on the first full-queue observation;
        // `Instant::now` is only touched on that slow path.
        let mut blocked_at: Option<Instant> = None;
        loop {
            if state.consumer_gone {
                if let Some(at) = blocked_at {
                    state.metrics.blocked_nanos += at.elapsed().as_nanos() as u64;
                }
                return Err(Disconnected);
            }
            if state.queue.len() < self.shared.capacity {
                if let Some(at) = blocked_at {
                    state.metrics.blocked_nanos += at.elapsed().as_nanos() as u64;
                }
                state.queue.push_back((round, events));
                state.metrics.high_water = state.metrics.high_water.max(state.queue.len());
                self.last_round = Some(round);
                drop(state);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            if blocked_at.is_none() {
                // lint: allow(R01, backpressure telemetry kept out of result documents)
                blocked_at = Some(Instant::now());
                state.metrics.blocked_sends += 1;
            }
            state = self.shared.not_full.wait(state).expect("ingest lock");
        }
    }

    /// A snapshot of the channel's backpressure counters.
    pub fn metrics(&self) -> ChannelMetrics {
        self.shared.state.lock().expect("ingest lock").metrics
    }
}

impl Drop for EventProducer {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("ingest lock");
        state.producer_gone = true;
        drop(state);
        self.shared.not_empty.notify_all();
    }
}

/// The receiving half: owned by the engine thread, usually wrapped in an
/// [`IngestSession`].
pub struct EventConsumer {
    shared: Arc<Shared>,
}

impl EventConsumer {
    /// Receives the next batch, blocking while the queue is empty and the
    /// producer is alive. Returns `None` once the producer hung up and the
    /// queue drained — the end of the stream.
    pub fn recv(&mut self) -> Option<(u64, RoundEvents)> {
        let mut state = self.shared.state.lock().expect("ingest lock");
        loop {
            if let Some(batch) = state.queue.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Some(batch);
            }
            if state.producer_gone {
                return None;
            }
            state = self.shared.not_empty.wait(state).expect("ingest lock");
        }
    }

    /// A snapshot of the channel's backpressure counters.
    pub fn metrics(&self) -> ChannelMetrics {
        self.shared.state.lock().expect("ingest lock").metrics
    }

    /// Returns a drained buffer to the back of the spare pool for the
    /// producer to reuse. Buffers beyond the in-flight bound are simply
    /// dropped.
    pub fn recycle(&mut self, mut events: RoundEvents) {
        events.clear();
        let mut state = self.shared.state.lock().expect("ingest lock");
        if state.spare.len() < spare_bound(self.shared.capacity) {
            state.spare.push_back(events);
        }
    }
}

impl Drop for EventConsumer {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("ingest lock");
        state.consumer_gone = true;
        drop(state);
        self.shared.not_full.notify_all();
    }
}

/// An ordering-protocol error; `feed` names the merge feed that delivered
/// the batch.
fn violation(feed: Option<usize>, what: std::fmt::Arguments<'_>) -> CoreError {
    CoreError::invalid_parameter(match feed {
        Some(index) => format!("merge protocol violation: feed {index}: {what}"),
        None => format!("ingest protocol violation: {what}"),
    })
}

/// Consumer-side round sequencer: pulls round-tagged batches off an
/// [`EventConsumer`] and hands each one to the driver **between** rounds,
/// holding batches for future rounds until their round comes up. It is the
/// only per-feed sequencer: a [`merge::MergeSession`] runs one per feed.
pub struct IngestSession {
    consumer: EventConsumer,
    /// A received batch whose round has not come up yet.
    pending: Option<(u64, RoundEvents)>,
    /// The stream ended (producer gone, queue drained).
    ended: bool,
    /// The round of the last batch taken (receipt-side monotonicity check).
    last_round: Option<u64>,
    batches: u64,
    events: u64,
}

impl IngestSession {
    /// Wraps the consumer half of a [`bounded`] channel.
    pub fn new(consumer: EventConsumer) -> Self {
        IngestSession {
            consumer,
            pending: None,
            ended: false,
            last_round: None,
            batches: 0,
            events: 0,
        }
    }

    /// Takes the batch tagged `round` off the channel, if there is one:
    /// `Some` with the batch, `None` when this round has no events (the next
    /// batch is tagged later, or the stream ended). Blocks only while the
    /// next batch is unknown; `feed` names this session inside a merge.
    // lint: zero-alloc
    fn take_round(
        &mut self,
        round: u64,
        feed: Option<usize>,
    ) -> Result<Option<RoundEvents>, CoreError> {
        if self.pending.is_none() && !self.ended {
            match self.consumer.recv() {
                Some(batch) => self.pending = Some(batch),
                None => self.ended = true,
            }
        }
        match &self.pending {
            Some((tag, _)) if *tag < round => Err(violation(
                feed,
                format_args!("batch for round {tag} arrived while applying round {round}"),
            )),
            Some((tag, _)) if *tag == round => {
                if self.last_round.is_some_and(|last| round <= last) {
                    return Err(violation(feed, format_args!("batch repeats round {round}")));
                }
                // lint: allow(R03, the match arm proves pending is Some)
                let (_, events) = self.pending.take().expect("pending batch");
                self.last_round = Some(round);
                self.batches += 1;
                self.events += (events.arrivals.len() + events.completions.len()) as u64;
                Ok(Some(events))
            }
            _ => Ok(None),
        }
    }

    /// Appends the events for `round` (if any) to `out` and recycles the
    /// batch; `feed` names this session inside a merge.
    // lint: zero-alloc
    fn append_round(
        &mut self,
        round: u64,
        out: &mut RoundEvents,
        feed: Option<usize>,
    ) -> Result<(), CoreError> {
        if let Some(events) = self.take_round(round, feed)? {
            out.completions.extend_from_slice(&events.completions);
            out.arrivals.extend_from_slice(&events.arrivals);
            self.consumer.recycle(events);
        }
        Ok(())
    }

    /// Copies the events for `round` into `out` (cleared first) and
    /// recycles the channel buffer; `out` stays empty when the round has no
    /// batch. Call between rounds, before `round` executes, and apply `out`
    /// there — the point the synchronous driver applies its inline batch.
    /// Allocation-free once `out` has grown to the working batch size.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on an out-of-order batch.
    // lint: zero-alloc
    pub fn fill_round(&mut self, round: u64, out: &mut RoundEvents) -> Result<(), CoreError> {
        out.clear();
        self.append_round(round, out, None)
    }

    /// Whether the producer hung up and every sent batch has been consumed.
    pub fn ended(&self) -> bool {
        self.ended && self.pending.is_none()
    }

    /// A snapshot of the underlying channel's backpressure counters.
    pub fn metrics(&self) -> ChannelMetrics {
        self.consumer.metrics()
    }

    /// Batches consumed off the channel so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Events (arrivals + completions) consumed off the channel so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::Fos;
    use crate::discrete::{DiscreteBalancer, DynamicBalancer, FlowImitation, TaskPicker};
    use crate::load::InitialLoad;
    use crate::task::{Speeds, Task, TaskId};
    use lb_graph::{generators, AlphaScheme};
    use std::thread;

    fn engine() -> FlowImitation<Fos> {
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 64);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap()
    }

    #[test]
    fn batches_cross_the_channel_in_order() {
        let (mut tx, mut rx) = bounded(2);
        let handle = thread::spawn(move || {
            for round in [0u64, 2, 5] {
                let mut batch = tx.buffer();
                batch.arrivals.push((0, Task::new(TaskId(round), 1)));
                tx.send(round, batch).unwrap();
            }
        });
        for expect in [0u64, 2, 5] {
            let (round, events) = rx.recv().expect("batch arrives");
            assert_eq!(round, expect);
            assert_eq!(events.arrivals.len(), 1);
            rx.recycle(events);
        }
        assert!(rx.recv().is_none(), "stream ends after the producer drops");
        handle.join().unwrap();
    }

    #[test]
    fn recycled_buffers_flow_back_to_the_producer() {
        let (mut tx, mut rx) = bounded(1);
        let mut batch = tx.buffer();
        batch.arrivals.push((0, Task::new(TaskId(0), 1)));
        batch.arrivals.push((1, Task::new(TaskId(1), 1)));
        tx.send(0, batch).unwrap();
        let (_, events) = rx.recv().unwrap();
        let ptr = events.arrivals.as_ptr();
        let capacity = events.arrivals.capacity();
        rx.recycle(events);
        // The pool hands buffers out first-in first-out: the two pre-filled
        // spares that were never used come first, then the recycled one.
        for _ in 0..2 {
            assert_eq!(tx.buffer().arrivals.capacity(), 0, "an untouched spare");
        }
        let reused = tx.buffer();
        assert!(reused.is_empty(), "recycled buffers come back cleared");
        assert_eq!(reused.arrivals.capacity(), capacity);
        assert_eq!(reused.arrivals.as_ptr(), ptr, "same heap buffer reused");
    }

    #[test]
    fn metrics_track_depth_and_blocking() {
        let (mut tx, mut rx) = bounded(2);
        tx.send(0, RoundEvents::default()).unwrap();
        assert_eq!(tx.metrics().high_water, 1);
        assert_eq!(tx.metrics().blocked_sends, 0);
        tx.send(1, RoundEvents::default()).unwrap();
        assert_eq!(rx.metrics().high_water, 2, "both snapshots see one state");
        // The queue is full: the next send must block until the consumer
        // drains a slot, and the wait is accounted.
        let handle = thread::spawn(move || {
            tx.send(2, RoundEvents::default()).unwrap();
            tx.metrics()
        });
        // Wait until the producer registers as blocked, then free a slot.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while rx.metrics().blocked_sends == 0 {
            assert!(Instant::now() < deadline, "producer never blocked");
            thread::yield_now();
        }
        let (_, events) = rx.recv().unwrap();
        rx.recycle(events);
        let metrics = handle.join().unwrap();
        assert_eq!(metrics.blocked_sends, 1);
        assert!(metrics.blocked_nanos > 0, "blocked time was measured");
        assert_eq!(metrics.high_water, 2);
        assert!(rx.recv().is_some(), "two batches still in flight");
    }

    #[test]
    fn send_fails_once_the_consumer_hangs_up() {
        let (mut tx, rx) = bounded(1);
        drop(rx);
        let batch = tx.buffer();
        assert_eq!(tx.send(0, batch), Err(Disconnected));
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn non_increasing_rounds_panic_in_the_producer() {
        let (mut tx, _rx) = bounded(4);
        let batch = tx.buffer();
        tx.send(3, batch).unwrap();
        let batch = tx.buffer();
        let _ = tx.send(3, batch);
    }

    #[test]
    fn session_applies_batches_between_rounds() {
        let (mut tx, rx) = bounded(4);
        let handle = thread::spawn(move || {
            // Rounds 1 and 3 carry events; rounds 0 and 2 are skipped.
            for round in [1u64, 3] {
                let mut batch = tx.buffer();
                batch
                    .arrivals
                    .push((3, Task::new(TaskId(1_000 + round), 1)));
                tx.send(round, batch).unwrap();
            }
        });
        let mut session = IngestSession::new(rx);
        let mut alg1 = engine();
        let mut events = RoundEvents::default();
        let (mut arrived_tasks, mut arrived_weight) = (0, 0);
        for round in 0..6u64 {
            session.fill_round(round, &mut events).unwrap();
            let report = alg1.apply_events(&events).unwrap();
            let expect = u64::from(round == 1 || round == 3);
            assert_eq!(report.arrived_tasks, expect, "round {round}");
            arrived_tasks += report.arrived_tasks;
            arrived_weight += report.arrived_weight;
            alg1.step();
        }
        assert_eq!(arrived_tasks, 2);
        assert_eq!(arrived_weight, 2);
        assert!(session.ended(), "stream fully drained");
        assert_eq!(alg1.arrived_weight(), 2);
        handle.join().unwrap();
    }

    #[test]
    fn session_reports_out_of_order_batches() {
        let (mut tx, rx) = bounded(4);
        let batch = tx.buffer();
        tx.send(0, batch).unwrap();
        drop(tx);
        let mut session = IngestSession::new(rx);
        // Asking for round 2 while the batch for round 0 is pending is a
        // protocol violation on the consumer side.
        let err = session
            .fill_round(2, &mut RoundEvents::default())
            .unwrap_err();
        assert!(err.to_string().contains("protocol violation"), "{err}");
    }

    #[test]
    fn fill_round_copies_and_recycles() {
        let (mut tx, rx) = bounded(4);
        let mut batch = tx.buffer();
        batch.arrivals.push((2, Task::new(TaskId(9), 1)));
        batch.completions.push((0, 3));
        tx.send(4, batch).unwrap();
        drop(tx);
        let mut session = IngestSession::new(rx);
        let mut out = RoundEvents::default();
        out.arrivals.push((0, Task::new(TaskId(0), 1))); // stale content
        session.fill_round(3, &mut out).unwrap();
        assert!(out.is_empty(), "round 3 has no batch; out is cleared");
        session.fill_round(4, &mut out).unwrap();
        assert_eq!(out.arrivals.len(), 1);
        assert_eq!(out.completions, vec![(0, 3)]);
        session.fill_round(5, &mut out).unwrap();
        assert!(out.is_empty());
        assert!(session.ended());
    }

    #[test]
    fn bounded_queue_blocks_the_producer() {
        // With capacity 1 the producer cannot run ahead: after the consumer
        // takes the first batch, at most two more fit through before the
        // producer finishes. The join proves the producer unblocks.
        let (mut tx, mut rx) = bounded(1);
        let handle = thread::spawn(move || {
            for round in 0..32u64 {
                let batch = tx.buffer();
                if tx.send(round, batch).is_err() {
                    return round;
                }
            }
            32
        });
        let mut seen = 0;
        while let Some((round, events)) = rx.recv() {
            assert_eq!(round, seen, "rounds arrive in order");
            seen += 1;
            rx.recycle(events);
        }
        assert_eq!(seen, 32);
        assert_eq!(handle.join().unwrap(), 32);
    }
}
