//! What a Fig. 1 fleet instance weighs once it has run: a `FleetPool`
//! instance (GPS → Parser → Interpreter → application sink) that no
//! location provider reads must not grow its heap with the rounds it
//! steps. The sink keeps its delivery history only while a reader of
//! it lives; without one it keeps at most the last-known item and
//! position, so the instance's heap after 2,000 rounds stays within 2×
//! its built size.
//!
//! The built size itself is bounded too: live bytes are exact and
//! noise-free, so a change that makes an instance heavier to build (one
//! more per-node table, one more cached set) fails here deterministically.
//! The bound is the measured 9,300 B plus under 1 % headroom; raise it
//! only in a change whose diff says why an instance needs the bytes.
//!
//! So is the number of allocations the build makes, counted exactly the
//! same way: a structural call that copies declarations it could borrow
//! (a whole node record per node, a port spec per connect) multiplies
//! the count and fails here. The bound is the measured count plus at
//! most 1 % headroom: 108 allocations, the same in debug and release.
//!
//! This file holds exactly one test: the counting allocator is
//! process-global, so it gets an integration-test binary of its own and
//! no parallel test threads that would pollute the counter.

#![allow(clippy::unwrap_used)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use perpos::prelude::*;

struct LiveBytes;

/// Bytes currently allocated by the process.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// Allocation calls the process has made (reallocations not counted).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Upper bound on a built Fig. 1 instance's live bytes, pool included.
const MAX_BUILT_BYTES: i64 = 9_390;

/// Upper bound on the allocation calls building that instance makes,
/// pool included.
const MAX_BUILD_ALLOCS: u64 = 109;

#[test]
fn unread_fleet_instance_heap_stays_within_twice_its_built_size() {
    let frame = LocalFrame::new(Wgs84::new(56.17, 10.19, 0.0).unwrap());
    let walk = Trajectory::new(
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(120.0, 0.0),
            Point2::new(120.0, 80.0),
        ],
        1.4,
    )
    .looping();
    let config = FleetConfig {
        shards: 1,
        instances: 1,
        ..FleetConfig::default()
    };

    let before = LIVE.load(Ordering::Relaxed);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let mut pool = FleetPool::new(config, move |_| {
        let mut mw = Middleware::new();
        let gps = mw.add_component(GpsSimulator::new("GPS", frame, walk.clone()).with_seed(7));
        let parser = mw.add_component(Parser::new());
        let interpreter = mw.add_component(Interpreter::new());
        let app = mw.application_sink();
        mw.connect(gps, parser, 0).unwrap();
        mw.connect(parser, interpreter, 0).unwrap();
        mw.connect_to_sink(interpreter, app).unwrap();
        mw
    });
    let built = LIVE.load(Ordering::Relaxed) - before;
    let build_allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    eprintln!("fleet instance build: {build_allocs} allocations");
    assert!(
        build_allocs <= MAX_BUILD_ALLOCS,
        "building an instance made {build_allocs} allocations, above the \
         {MAX_BUILD_ALLOCS} bound"
    );
    assert!(
        built <= MAX_BUILT_BYTES,
        "a built instance weighs {built} B, above the {MAX_BUILT_BYTES} B bound"
    );

    pool.run(2_000, SimDuration::from_secs(1));
    let after = LIVE.load(Ordering::Relaxed) - before;

    eprintln!("fleet instance heap: built {built} B, after 2,000 rounds {after} B");
    assert_eq!(
        pool.totals().live_steps,
        2_000,
        "every round stepped the instance"
    );
    assert!(
        after <= 2 * built,
        "an unread instance grew from {built} B to {after} B over 2,000 rounds"
    );
}
