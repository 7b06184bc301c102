//! Heap allocations of `FileStore` appends, counted exactly.
//!
//! A fresh run journals every record once and never re-reads one, so
//! the store keeps no copy of what it appends: each record is framed
//! into a batch buffer the store reuses from call to call, and written.
//! This binary installs a counting global allocator, traces a contended
//! dinner fleet, and appends its first 4,096 records to a fresh
//! `FileStore` one engine tick per call, as the journal flush does.  The
//! appends must make fewer heap allocations than calls, let alone
//! records: only the segment's open and the buffers' growth allocate.
//! A store that cloned each record into a resident log and built its
//! buffers per call made 3,269 here.

use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use gridflow_store::{FileStore, Store};
use gridflow_telemetry::TraceEvent;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records appended.
const RECORDS: usize = 4096;

thread_local! {
    /// Blocks requested by this thread, fresh and reallocated (per
    /// thread, so the harness's other threads do not count).
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = COUNT.try_with(|count| count.set(count.get() + 1));
}

/// The system allocator, counting every request.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn appends_allocate_less_than_once_per_call() {
    let plan = FaultPlan::seeded(7);
    let workload = dinner_workload();
    let outcome = MultiCaseScenario::new(&plan, &workload, 512)
        .max_in_flight(64)
        .traced()
        .run();
    let records = outcome.trace.expect("traced").records();
    assert!(records.len() >= RECORDS, "{} records", records.len());
    let records = &records[..RECORDS];
    // One batch per engine tick: each opens with its `tick.started`.
    let ticks: Vec<&[_]> = records
        .chunk_by(|_, next| !matches!(next.event, TraceEvent::TickStarted { .. }))
        .collect();

    let dir = std::env::temp_dir().join(format!("gridflow-store-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = FileStore::create(&dir, 4096).expect("fresh store");
    let before = COUNT.with(Cell::get);
    for batch in &ticks {
        store.append(batch).expect("append");
    }
    let allocations = COUNT.with(Cell::get) - before;
    assert_eq!(store.next_seq(), RECORDS as u64);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        allocations < ticks.len(),
        "{RECORDS} records in {} per-tick appends made {allocations} heap allocations",
        ticks.len()
    );
}
