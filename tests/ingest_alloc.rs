//! Steady-state allocation discipline of the block-ingest hot path:
//! once the arena's slot queue, the level rings and the engine scratch
//! have warmed up, ingesting a block must not allocate per line — slot
//! `String`s are recycled with their capacity, the routing queue never
//! touches the heap in a linear pipeline, and the `Parser` validates a
//! line without decoding it into a `Sentence`.
//!
//! This file holds exactly one test: the counting allocator is
//! process-global, so it gets an integration-test binary of its own and
//! no parallel test threads that would pollute the counters.

#![allow(clippy::unwrap_used)]
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use perpos::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_ingest_allocates_independent_of_batch_size() {
    let mut mw = Middleware::new();
    let src = mw.add_component(FnSource::new("trace", kinds::RAW_STRING, |_| None));
    let mut prev = src;
    for d in 0..4 {
        let node = mw.add_component(FnRelay::new(
            format!("stage{d}"),
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
        ));
        mw.connect(prev, node, 0).unwrap();
        prev = node;
    }
    let app = mw.application_sink();
    mw.connect(prev, app, 0).unwrap();

    let line = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,0042";
    let tick = SimDuration::from_micros(1);
    let batch = |n: usize| vec![line; n];

    // Warm-up: fill the arena's slot queue, grow the level rings to their
    // steady depth, and settle every engine-side buffer.
    let warm = batch(20_000);
    mw.ingest_batch(src, kinds::RAW_STRING, &warm, tick)
        .unwrap();

    // Two measured batches whose sizes differ by 30k lines. Absolute
    // zero is not the claim — a handful of setup allocations per
    // `ingest_batch` call is fine — the claim is that the *per-line*
    // path is allocation-free, so the counts must not scale with the
    // batch size.
    let small = batch(10_000);
    let big = batch(40_000);

    let before_small = ALLOCS.load(Ordering::Relaxed);
    mw.ingest_batch(src, kinds::RAW_STRING, &small, tick)
        .unwrap();
    let small_allocs = ALLOCS.load(Ordering::Relaxed) - before_small;

    let before_big = ALLOCS.load(Ordering::Relaxed);
    mw.ingest_batch(src, kinds::RAW_STRING, &big, tick).unwrap();
    let big_allocs = ALLOCS.load(Ordering::Relaxed) - before_big;

    assert!(
        big_allocs <= small_allocs.saturating_add(8),
        "ingest allocates per line: {small_allocs} allocs for 10k lines, \
         {big_allocs} for 40k"
    );
    eprintln!("ingest allocs: small(10k)={small_allocs} big(40k)={big_allocs}");

    // The same claim through the Parser over one receiver epoch, whose
    // GSA, GSV and RMC lines would each allocate if decoded.
    let mut mw = Middleware::new();
    let src = mw.add_component(FnSource::new("serial", kinds::RAW_STRING, |_| None));
    let parser = mw.add_component(Parser::new());
    mw.connect(src, parser, 0).unwrap();
    let app = mw.application_sink();
    mw.connect(parser, app, 0).unwrap();

    let framed = |body: &str| format!("${body}*{:02X}", perpos::nmea::checksum(body));
    let epoch: Vec<String> = [
        "GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,",
        "GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,1.3,2.1",
        "GPGSV,3,1,11,01,40,083,46,02,17,308,41,12,07,344,39,14,22,228,45",
        "GPGSV,3,2,11,15,62,106,44,17,28,060,38,19,11,165,,22,73,264,47",
        "GPGSV,3,3,11,24,45,038,43,25,05,312,,31,20,231,40",
        "GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W",
        "GPVTG,054.7,T,034.4,M,005.5,N,010.2,K",
    ]
    .map(framed)
    .into();
    let epochs = |n: usize| -> Vec<&str> {
        epoch
            .iter()
            .map(String::as_str)
            .cycle()
            .take(7 * n)
            .collect()
    };
    let (warm, small, big) = (epochs(3_000), epochs(1_500), epochs(6_000));
    mw.ingest_batch(src, kinds::RAW_STRING, &warm, tick)
        .unwrap();

    let before_small = ALLOCS.load(Ordering::Relaxed);
    mw.ingest_batch(src, kinds::RAW_STRING, &small, tick)
        .unwrap();
    let small_allocs = ALLOCS.load(Ordering::Relaxed) - before_small;

    let before_big = ALLOCS.load(Ordering::Relaxed);
    mw.ingest_batch(src, kinds::RAW_STRING, &big, tick).unwrap();
    let big_allocs = ALLOCS.load(Ordering::Relaxed) - before_big;

    assert_eq!(
        mw.invoke(parser, "parsedCount", &[]).unwrap(),
        Value::Int(7 * 10_500)
    );
    assert!(
        big_allocs <= small_allocs.saturating_add(8),
        "the Parser allocates per line: {small_allocs} allocs for 1.5k epochs, \
         {big_allocs} for 6k"
    );
    eprintln!("parser allocs: small(1.5k epochs)={small_allocs} big(6k)={big_allocs}");
}
