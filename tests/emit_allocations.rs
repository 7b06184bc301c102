//! Heap allocations of a still-blocked re-step, counted exactly.
//!
//! A case blocked on reserved-away capacity is stepped every tick and
//! announces one `case.blocked` record per step; on a contended fleet
//! those re-steps are most of the trace.  The record's names (the
//! case, its service, the scoped source) are resolved once and shared,
//! so a re-step allocates nothing of its own.  This binary installs a
//! counting global allocator, drives a traced fleet until one case
//! blocks, and counts what N further re-steps allocate: at most the
//! log's own chunk growth, one fresh chunk per 512 records.

use gridflow_harness::workload::{dinner_case, dinner_graph, dinner_world};
use gridflow_services::{CaseFiber, EnactmentConfig, FiberStatus};
use gridflow_telemetry::{TraceHandle, TraceLog};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Records per chunk of a `TraceLog`.
const CHUNK: usize = 512;

thread_local! {
    /// `[fresh blocks, reallocated blocks]` requested by this thread
    /// (per thread, so the harness's other threads do not count).
    static COUNTS: Cell<[usize; 2]> = const { Cell::new([0, 0]) };
}

fn bump(kind: usize) {
    let _ = COUNTS.try_with(|counts| {
        let mut now = counts.get();
        now[kind] += 1;
        counts.set(now);
    });
}

fn counts() -> [usize; 2] {
    COUNTS.with(Cell::get)
}

/// The system allocator, counting every request.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn still_blocked_resteps_allocate_only_log_chunks() {
    let log = TraceLog::new();
    let fleet = TraceHandle::from(log.clone());
    let mut world = dinner_world();
    world.enable_reservations(true);
    let (graph, case) = (dinner_graph(), Arc::new(dinner_case()));
    // Scoped and labelled as the engine does it for its cases.
    let mut fibers: Vec<CaseFiber> = (0..3)
        .map(|i| {
            let trace = fleet.scoped(format_args!("case:dinner-{i}"));
            let label = format!("dinner-{i}");
            CaseFiber::new(
                EnactmentConfig::default(),
                trace,
                &graph,
                case.clone(),
                label,
            )
        })
        .collect();
    let mut step = |i: usize| {
        let status = fibers[i].step(&mut world);
        matches!(status, FiberStatus::Blocked { ref service } if *service == "prep")
    };
    // Two cases take both `prep` hosts; the third blocks on them, and
    // (with the holds never released) stays blocked.  The warm-up fills
    // the log's first chunk, which grows as a short log needs.
    assert!(!step(0) && !step(1) && step(2), "the third case blocks");
    assert!((0..CHUNK).all(|_| step(2)));

    let n = 8 * CHUNK;
    let len = log.len();
    let before = counts();
    let blocked = (0..n).filter(|_| step(2)).count();
    let [fresh, grown] = [0, 1].map(|kind| counts()[kind] - before[kind]);
    assert_eq!(blocked, n, "every re-step reports the block");
    assert_eq!(log.len(), len + n, "one case.blocked record per re-step");
    let chunks = n.div_ceil(CHUNK);
    assert!(fresh <= chunks, "{n} re-steps allocated {fresh} blocks");
    // Growing the log's list of chunks is the only reallocation.
    assert!(grown <= chunks, "{n} re-steps reallocated {grown} blocks");
}
