//! End-to-end allocation budget of the slot pipeline's steady state.
//!
//! An n=16 pipeline stream over jittered links runs under a counting
//! global allocator. After a warm-up of two windows of slots, when every
//! node holds its spare engines, each committed slot may cost little
//! more than the heap blocks its traffic is made of: the `Arc` around
//! every routed message and around each submitted value. Every table a
//! slot's engine grows is recycled into the next slot; what else remains
//! is the timer registry, the wheel and the engines' tables still
//! growing toward the stream's working set, and the observation log.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ssbyz_core::{PipeEvent, PipelineConfig};
use ssbyz_harness::pipeline::PipelineMsg;
use ssbyz_harness::scenario::Val;
use ssbyz_harness::{PipelineScenario, ScenarioConfig, Workload};
use ssbyz_simnet::WaveMode;
use ssbyz_types::{Duration, NodeId, RealTime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations of an `Arc<PipelineMsg>` or `Arc<Val>` block.
    static ARCS: Cell<u64> = const { Cell::new(0) };
}

/// The block size of an `Arc<T>`: two counters, then the value.
const fn arc_block<T>() -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>()
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the thread-local
// counter is a const-initialized `Cell<u64>` (no lazy allocation, no
// destructor), so bumping it from inside the allocator cannot recurse.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // By size alone: an unrelated block of the same size counts too,
        // which only makes the non-`Arc` bound below easier to meet.
        if layout.size() == arc_block::<PipelineMsg>() || layout.size() == arc_block::<Val>() {
            ARCS.with(|c| c.set(c.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `(allocations, of them Arc blocks)` so far on this thread.
fn allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), ARCS.with(Cell::get))
}

const N: usize = 16;
const F: usize = 5;
const WINDOW: u64 = 8;
/// Slots measured after the warm-up.
const MEASURED: usize = 96;

/// Allocations and reallocations per slot committed at every node. A
/// slot costs about 80 message `Arc`s and one value `Arc` at n = 16; the
/// stream measured 639 per slot (82 of them `Arc` blocks) when every slot
/// built a new engine, and 89 (82) with engine recycling (`docs/PERF.md`
/// § Slot turnover).
const BUDGET_PER_SLOT: u64 = 100;

/// Of those, the ones that are no `Arc` block: 7 per slot, measured.
const NON_ARC_BUDGET_PER_SLOT: u64 = 12;

/// Runs the stream, stepping simulated time, and returns the
/// allocations and, of them, `Arc` blocks counted while the cluster
/// committed `MEASURED` slots after the warm-up, per slot.
fn allocations_per_slot(seed: u64) -> (u64, u64) {
    let cfg = ScenarioConfig::new(N, F).with_seed(seed);
    let params = cfg.params().expect("n > 3f");
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(WINDOW);
    let warm_up = 2 * WINDOW as usize;
    let total = warm_up + MEASURED;
    // One value every 4 ms: below the cluster's capacity, as in the
    // `sim-n16-pipe-jitter` benchmark workload.
    let workload = Workload::steady(total + 2 * WINDOW as usize, 1, Duration::from_millis(4));
    let mut s = PipelineScenario::new(&cfg, &pipe_cfg, workload, WaveMode::default());

    let step = Duration::from_millis(20);
    let mut now = RealTime::ZERO;
    let mut committed = [0usize; N];
    let (mut counted, mut arcs) = (0u64, 0u64);
    let mut from: Option<usize> = None;
    let everywhere = |c: &[usize; N]| c.iter().copied().min().unwrap_or(0);
    while everywhere(&committed) < total {
        now += step;
        assert!(
            now < RealTime::ZERO + Duration::from_secs(30),
            "stream stalled: commits per node {committed:?}"
        );
        let before = allocs();
        s.run_until(now);
        if from.is_some() {
            let after = allocs();
            counted += after.0 - before.0;
            arcs += after.1 - before.1;
        }
        for o in &s.sim_mut().take_observations() {
            if let PipeEvent::Committed { .. } = o.event {
                committed[o.node.index()] += 1;
            }
        }
        if from.is_none() && everywhere(&committed) >= warm_up {
            from = Some(everywhere(&committed));
        }
    }
    let slots = (everywhere(&committed) - from.expect("warm-up ended")) as u64;
    (counted / slots, arcs / slots)
}

#[test]
fn committed_slots_allocate_little_more_than_their_traffic() {
    let (per_slot, arcs) = allocations_per_slot(7);
    let others = per_slot - arcs;
    eprintln!("{per_slot} allocations per committed slot, {arcs} of them Arc blocks");
    assert!(
        per_slot <= BUDGET_PER_SLOT && others <= NON_ARC_BUDGET_PER_SLOT,
        "{per_slot} allocations per committed slot ({arcs} Arc blocks, {others} others), \
         budget {BUDGET_PER_SLOT} ({NON_ARC_BUDGET_PER_SLOT} others)"
    );
}
