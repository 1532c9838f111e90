//! Multi-producer merge stage: N independently round-tagged event feeds,
//! k-way merged into one strictly round-ordered stream on the consumer side.
//!
//! Each feed is the consumer half of its own bounded SPSC channel
//! ([`super::bounded`]), so producers never contend with each other — the
//! merge happens where the batches are consumed. Every feed is sequenced by
//! its own [`IngestSession`], the one per-feed sequencer of this crate
//! (pending batch, hang-up, ordering checks, batch and event counts); the
//! merge adds only the coalescing. A one-feed merge is therefore the plain
//! single-channel path:
//!
//! ```text
//! producer 0 ──► channel 0 ──┐
//! producer 1 ──► channel 1 ──┤  MergeSession::fill_round(r, out)
//!      ⋮             ⋮       ├──► coalesce every feed's batch for round r
//! producer N ──► channel N ──┘    into `out` (feed index order), recycle
//! ```
//!
//! The driver then applies `out` with
//! [`DynamicBalancer::apply_events`](crate::discrete::DynamicBalancer::apply_events)
//! before round `r` executes, as it applies every batch.
//!
//! # Merge contract
//!
//! * **Per-feed monotonicity** — every feed sends batches in strictly
//!   increasing round order (enforced by [`super::EventProducer::send`]; the
//!   feed's [`IngestSession`] re-checks on receipt so a protocol violation
//!   surfaces as a typed error naming the feed, never as corrupted state).
//! * **Additive coalescing** — when several feeds carry a batch for the same
//!   round, the merged batch is their concatenation in **feed index order**
//!   (completions then arrivals within each feed's batch, as always).
//!   Event application is additive, so a partition of one stream across
//!   feeds merges back to the original trajectory; a partition into
//!   contiguous per-round slices merges back to the *identical batch*.
//! * **Hang-up degradation** — a feed whose producer hangs up simply stops
//!   contributing; the merge continues over the remaining feeds. All feeds
//!   closed means every remaining round is event-free (same as the
//!   single-channel contract).
//! * **Ordering errors** — a batch tagged earlier than the round being
//!   applied, or one repeating a round its feed already delivered, is a
//!   protocol error ([`crate::CoreError::InvalidParameter`]): the session
//!   reports it with the feed index before anything reaches the engine.
//!
//! # Zero-allocation steady state
//!
//! Coalescing copies feed batches into the driver's reused batch and
//! recycles them to their own channel's spare pool. Once that batch and
//! every circulating buffer have grown to the working batch size, a
//! steady-state round — receive from each feed, coalesce, recycle, apply,
//! step — allocates nothing on any thread (`tests/zero_alloc.rs` pins the
//! two-feed case with a counting global allocator).

use crate::discrete::RoundEvents;
use crate::error::CoreError;
use std::sync::{Arc, Mutex};

use super::{ChannelMetrics, EventConsumer, IngestSession};

/// What one feed contributed to a merged run — batch/event totals plus the
/// backpressure counters of its channel. Timing-dependent (see
/// [`ChannelMetrics`]); report out of band, never in deterministic results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedReport {
    /// Batches coalesced from this feed.
    pub batches: u64,
    /// Events (arrivals + completions) coalesced from this feed.
    pub events: u64,
    /// Whether the feed's producer had hung up (and its queue drained) when
    /// the snapshot was taken.
    pub drained: bool,
    /// The feed channel's backpressure counters.
    pub channel: ChannelMetrics,
}

/// A clone-able, `Send` handle that registers new feeds on a live
/// [`MergeSession`] (created by [`MergeSession::with_registrar`]).
///
/// Registered consumers are queued and admitted into the merge at the start
/// of the session's next [`fill_round`](MergeSession::fill_round) call, in
/// registration order — a feed admitted while round `r` is being filled
/// contributes from round
/// `r` on, and its first batch must be tagged `>= r` (earlier tags are the
/// usual ordering protocol violation).
///
/// Same-round batches coalesce in feed *admission* order, so byte-identity
/// across nondeterministic registration orders (e.g. a socket accept loop)
/// requires that no two dynamically registered feeds carry the same round —
/// a whole-round partition of one stream satisfies this; an element-wise
/// split does not.
#[derive(Clone)]
pub struct FeedRegistrar {
    queue: Arc<Mutex<Vec<EventConsumer>>>,
}

impl FeedRegistrar {
    /// Queues `consumer` for admission into the session. If the session has
    /// already been dropped the consumer is simply discarded when the last
    /// registrar goes away, and the feed's producer observes the hang-up
    /// through [`super::EventProducer::send`].
    pub fn register(&self, consumer: EventConsumer) {
        self.queue
            .lock()
            .expect("merge registry lock")
            .push(consumer);
    }

    /// Number of registered feeds not yet admitted into the session.
    pub fn pending(&self) -> usize {
        self.queue.lock().expect("merge registry lock").len()
    }
}

/// Consumer-side k-way merge over N event feeds: pulls each feed's
/// round-tagged batches and hands the driver one coalesced, strictly
/// round-ordered batch per round. Each feed is sequenced by its own
/// [`IngestSession`]; the merge only coalesces what they hand over.
pub struct MergeSession {
    feeds: Vec<IngestSession>,
    /// Feeds registered through a [`FeedRegistrar`], awaiting admission.
    registry: Arc<Mutex<Vec<EventConsumer>>>,
}

impl MergeSession {
    /// Wraps the consumer halves of N [`super::bounded`] channels; feed
    /// index order is the coalescing order.
    pub fn new(consumers: Vec<EventConsumer>) -> Self {
        MergeSession {
            feeds: consumers.into_iter().map(IngestSession::new).collect(),
            registry: Arc::default(),
        }
    }

    /// Creates a session with **no** initial feeds plus a [`FeedRegistrar`]
    /// through which feeds are registered while the session is live — the
    /// substrate for socket front-ends whose producers connect (and
    /// reconnect) after the engine has started.
    ///
    /// Until the first feed is admitted the session reports
    /// [`ended`](MergeSession::ended) only while no registration is pending,
    /// so drivers that gate on feed presence should admit at least one feed
    /// before running rounds.
    pub fn with_registrar() -> (Self, FeedRegistrar) {
        let session = MergeSession::new(Vec::new());
        let registrar = FeedRegistrar {
            queue: Arc::clone(&session.registry),
        };
        (session, registrar)
    }

    /// Admits feeds registered through the [`FeedRegistrar`] (if any) into
    /// the merge, in registration order.
    fn admit_registered(&mut self) {
        let mut queue = self.registry.lock().expect("merge registry lock");
        self.feeds.extend(queue.drain(..).map(IngestSession::new));
    }

    /// Coalesces every feed's batch for `round` into `out` (cleared first),
    /// in feed index order; `out` stays empty when no feed carries the
    /// round. Blocks only on feeds whose next batch is unknown.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`], naming the feed, when a feed
    /// delivers a batch tagged earlier than `round` or repeating a round it
    /// already delivered — the producer violated the ordering protocol.
    /// Nothing reaches the engine on the error path.
    // lint: zero-alloc
    pub fn fill_round(&mut self, round: u64, out: &mut RoundEvents) -> Result<(), CoreError> {
        out.clear();
        self.admit_registered();
        for (index, feed) in self.feeds.iter_mut().enumerate() {
            feed.append_round(round, out, Some(index))?;
        }
        Ok(())
    }

    /// Whether every feed hung up and every sent batch has been consumed —
    /// the event-free remainder of the run. A registered feed not yet
    /// admitted counts as open.
    pub fn ended(&self) -> bool {
        self.registry
            .lock()
            .expect("merge registry lock")
            .is_empty()
            && self.feeds.iter().all(IngestSession::ended)
    }

    /// Per-feed contribution and backpressure snapshots, in feed index
    /// order. Timing-dependent; report out of band.
    pub fn feed_reports(&self) -> Vec<FeedReport> {
        self.feeds
            .iter()
            .map(|feed| FeedReport {
                batches: feed.batches(),
                events: feed.events(),
                drained: feed.ended(),
                channel: feed.metrics(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::bounded;
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

    fn unit_arrival(node: usize, id: u64) -> (usize, Task) {
        (node, Task::new(TaskId(id), 1))
    }

    #[test]
    fn same_round_batches_coalesce_in_feed_order() {
        let (mut tx0, rx0) = bounded(4);
        let (mut tx1, rx1) = bounded(4);
        let mut batch = tx0.buffer();
        batch.arrivals.push(unit_arrival(0, 100));
        batch.completions.push((3, 2));
        tx0.send(5, batch).unwrap();
        let mut batch = tx1.buffer();
        batch.arrivals.push(unit_arrival(1, 200));
        batch.completions.push((4, 1));
        tx1.send(5, batch).unwrap();

        let mut session = MergeSession::new(vec![rx0, rx1]);
        let mut out = RoundEvents::default();
        for round in 0..5 {
            session.fill_round(round, &mut out).unwrap();
            assert!(out.is_empty(), "round {round} carries no events");
        }
        session.fill_round(5, &mut out).unwrap();
        assert_eq!(out.completions, vec![(3, 2), (4, 1)], "feed 0 first");
        assert_eq!(
            out.arrivals,
            vec![unit_arrival(0, 100), unit_arrival(1, 200)]
        );
        drop(tx0);
        drop(tx1);
        session.fill_round(6, &mut out).unwrap();
        assert!(out.is_empty());
        assert!(session.ended(), "all feeds closed = event-free remainder");
    }

    #[test]
    fn feeds_at_different_rounds_interleave() {
        let (mut tx0, rx0) = bounded(4);
        let (mut tx1, rx1) = bounded(4);
        let handle = thread::spawn(move || {
            for round in [0u64, 2] {
                let mut batch = tx0.buffer();
                batch.arrivals.push(unit_arrival(0, round));
                tx0.send(round, batch).unwrap();
            }
        });
        for round in [1u64, 2] {
            let mut batch = tx1.buffer();
            batch.arrivals.push(unit_arrival(1, 100 + round));
            tx1.send(round, batch).unwrap();
        }
        drop(tx1);
        let mut session = MergeSession::new(vec![rx0, rx1]);
        let mut out = RoundEvents::default();
        session.fill_round(0, &mut out).unwrap();
        assert_eq!(out.arrivals, vec![unit_arrival(0, 0)]);
        session.fill_round(1, &mut out).unwrap();
        assert_eq!(out.arrivals, vec![unit_arrival(1, 101)]);
        session.fill_round(2, &mut out).unwrap();
        assert_eq!(
            out.arrivals,
            vec![unit_arrival(0, 2), unit_arrival(1, 102)],
            "same round from both feeds coalesces additively"
        );
        handle.join().unwrap();
    }

    #[test]
    fn hung_up_feed_degrades_to_the_rest() {
        let (mut tx0, rx0) = bounded(8);
        let (mut tx1, rx1) = bounded(8);
        for round in 0..6u64 {
            let mut batch = tx0.buffer();
            batch.arrivals.push(unit_arrival(0, round));
            tx0.send(round, batch).unwrap();
        }
        drop(tx0);
        // Feed 1 dies after round 1.
        for round in 0..2u64 {
            let mut batch = tx1.buffer();
            batch.arrivals.push(unit_arrival(1, 100 + round));
            tx1.send(round, batch).unwrap();
        }
        drop(tx1);

        let mut session = MergeSession::new(vec![rx0, rx1]);
        let mut alg1 = engine();
        let mut events = RoundEvents::default();
        let mut arrived_tasks = 0;
        for round in 0..8u64 {
            session.fill_round(round, &mut events).unwrap();
            let report = alg1.apply_events(&events).unwrap();
            let expect = match round {
                0 | 1 => 2,
                2..=5 => 1,
                _ => 0,
            };
            assert_eq!(report.arrived_tasks, expect, "round {round}");
            arrived_tasks += report.arrived_tasks;
            alg1.step();
        }
        assert!(session.ended());
        assert_eq!(arrived_tasks, 8);
        let reports = session.feed_reports();
        assert_eq!(reports[0].batches, 6);
        assert_eq!(reports[1].batches, 2);
        assert!(reports.iter().all(|r| r.drained));
    }

    #[test]
    fn registered_feeds_join_a_live_merge() {
        let (mut session, registrar) = MergeSession::with_registrar();
        assert!(session.ended(), "no feeds, nothing registered");

        let (mut tx0, rx0) = bounded(4);
        registrar.register(rx0);
        assert_eq!(registrar.pending(), 1);
        assert!(!session.ended(), "a registered feed counts as open");

        let mut batch = tx0.buffer();
        batch.arrivals.push(unit_arrival(0, 1));
        tx0.send(0, batch).unwrap();
        let mut out = RoundEvents::default();
        session.fill_round(0, &mut out).unwrap();
        assert_eq!(registrar.pending(), 0, "fill_round admits the feed");
        assert_eq!(out.arrivals, vec![unit_arrival(0, 1)]);

        // A second feed joins mid-run (registrar handles are clone-able);
        // its first batch is tagged with a current round, never an earlier
        // one.
        let (mut tx1, rx1) = bounded(4);
        registrar.clone().register(rx1);
        let mut batch = tx1.buffer();
        batch.arrivals.push(unit_arrival(1, 2));
        tx1.send(3, batch).unwrap();
        let mut batch = tx0.buffer();
        batch.arrivals.push(unit_arrival(2, 3));
        tx0.send(3, batch).unwrap();
        for round in 1..3 {
            session.fill_round(round, &mut out).unwrap();
            assert!(out.is_empty(), "round {round}");
        }
        session.fill_round(3, &mut out).unwrap();
        assert_eq!(
            out.arrivals,
            vec![unit_arrival(2, 3), unit_arrival(1, 2)],
            "admission order is coalescing order"
        );

        drop(tx0);
        drop(tx1);
        session.fill_round(4, &mut out).unwrap();
        assert!(session.ended());
        let reports = session.feed_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].batches, 2);
        assert_eq!(reports[1].batches, 1);
    }

    #[test]
    fn stale_batches_are_protocol_errors_and_do_not_corrupt() {
        let (mut tx, rx) = bounded(4);
        let mut batch = tx.buffer();
        batch.arrivals.push(unit_arrival(2, 7));
        tx.send(3, batch).unwrap();
        let mut session = MergeSession::new(vec![rx]);
        let mut events = RoundEvents::default();
        events.arrivals.push(unit_arrival(0, 1)); // stale content
        let err = session.fill_round(9, &mut events).unwrap_err();
        assert!(err.to_string().contains("protocol violation"), "{err}");
        assert!(err.to_string().contains("feed 0"), "names the feed: {err}");
        assert!(events.is_empty(), "nothing coalesced on the error path");
    }
}
