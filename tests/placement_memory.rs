//! Byte-counting proof that an engine built from an owned placement holds
//! one copy of its load.
//!
//! Installs a global allocator that tracks live heap bytes and their
//! high-water mark. Building an Algorithm 1 engine from an owned placement
//! of `T` tasks must raise the high-water mark by less than
//! `T · size_of::<Task>()`: the FIFO queues take each node's vector as
//! their buffer, so any second copy of the tasks fails the test. A borrowed
//! placement is cloned once, and the same counter must see that copy.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! pollute the counters.

use lb_core::continuous::Fos;
use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
use lb_core::{InitialLoad, Speeds, Task};
use lb_graph::{generators, AlphaScheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct ByteCounter;

impl ByteCounter {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: delegates directly to the system allocator; the counter updates
// have no safety impact.
unsafe impl GlobalAlloc for ByteCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both buffers while it copies: count the
        // new one before the old one goes.
        Self::grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCounter = ByteCounter;

/// How far building an engine from `initial` raises the high-water mark of
/// live heap bytes above what was live before.
fn build_rise(initial: impl FnOnce(Fos, Speeds) -> FlowImitation<Fos>) -> usize {
    let graph = generators::hypercube(4).expect("hypercube builds");
    let speeds = Speeds::uniform(16);
    let fos = Fos::new(graph, &speeds, AlphaScheme::MaxDegreePlusOne).expect("FOS builds");
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let engine = initial(fos, speeds);
    let rise = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(engine.round(), 0);
    rise
}

#[test]
fn an_engine_built_from_an_owned_placement_holds_one_copy_of_it() {
    // 200,000 unit tasks over 16 nodes: 4.8 MB of tasks against an engine
    // whose own buffers (twin, ledger, outbox) are a few hundred bytes.
    let tasks = 200_000u64;
    let copy = tasks as usize * std::mem::size_of::<Task>();
    let placement = || InitialLoad::from_token_counts(vec![tasks / 16; 16]);

    let owned = placement();
    let rise = build_rise(|fos, speeds| {
        FlowImitation::new(fos, owned, speeds, TaskPicker::Fifo).expect("engine builds")
    });
    assert!(
        rise < copy,
        "an owned placement of {tasks} tasks raised the peak by {rise} bytes, \
         at least one copy ({copy} bytes)"
    );

    // The counter sees a copy when there is one: a borrowed placement is
    // cloned once.
    let borrowed = placement();
    let rise = build_rise(|fos, speeds| {
        FlowImitation::new(fos, &borrowed, speeds, TaskPicker::Fifo).expect("engine builds")
    });
    assert!(
        rise >= copy,
        "a borrowed placement of {tasks} tasks raised the peak by only {rise} bytes, \
         less than its one clone ({copy} bytes)"
    );
}
