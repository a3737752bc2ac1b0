//! `nmea_ingest`: a seeded NMEA capture, read from a serial port in
//! 512-byte reads, goes block by block through `codec::scan_block` →
//! `Middleware::ingest_batch` into `Parser` (with `HdopFeature`, Fig. 5)
//! → `Interpreter` → application sink, and a `LocationProvider`
//! subscription is drained after every block. One request is one block.

use std::time::{Duration, Instant};

use perpos_core::prelude::*;
use perpos_sensors::codec::{scan_block, BlockReport};
use perpos_sensors::{HdopFeature, Interpreter, Parser};

use crate::gen::{self, BlockExpect, Capture};
use crate::stats::{self, Requests};
use crate::trace::{self, Name};
use crate::{add, attach, reconcile, Config, Outcome, Size};

/// Simulated time per ingested line.
fn tick() -> SimDuration {
    SimDuration::from_millis(100)
}

/// Half the resolution of NMEA's four decimal minutes, in degrees, plus
/// float slack: a delivered coordinate must sit this close to the
/// generated one.
const COORD_TOLERANCE_DEG: f64 = 0.000_05 / 60.0 + 1e-9;

/// Span slots kept free so a traced request is never cut short.
const SPAN_MARGIN: usize = 4_096;

struct Shape {
    epochs: usize,
    /// Graph builds timed at the start of every window of the measured
    /// loop.
    setups_per_window: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            epochs: 3_600,
            setups_per_window: 11,
        },
        Size::Small => Shape {
            epochs: 120,
            setups_per_window: 2,
        },
    }
}

/// The built graph and the handles the loop drives it through.
struct Rig {
    mw: Middleware,
    source: NodeId,
    parser: NodeId,
    channel: ChannelId,
    rx: crossbeam_channel::Receiver<DataItem>,
}

fn build(traced: bool) -> Rig {
    let span = |name| traced.then_some(name);
    let mut mw = Middleware::new();
    let source = mw.add_component(FnSource::new("nmea-serial", kinds::RAW_STRING, |_| None));
    let parser = add(&mut mw, Parser::new(), span(Name::Parser));
    let interpreter = add(&mut mw, Interpreter::new(), span(Name::Interpreter));
    let app = mw.application_sink();
    mw.connect(source, parser, 0).expect("serial -> parser");
    mw.connect(parser, interpreter, 0)
        .expect("parser -> interpreter");
    let port = mw
        .connect_to_sink(interpreter, app)
        .expect("interpreter -> app");
    attach(&mut mw, parser, HdopFeature::new(), span(Name::Hdop)).expect("HDOP on the parser");
    let provider = mw
        .location_provider(Criteria::new().kind(kinds::POSITION_WGS84))
        .expect("the interpreter provides positions");
    let rx = provider.subscribe();
    let channel = mw
        .channel_into(app, port)
        .expect("a channel feeds the sink");
    Rig {
        mw,
        source,
        parser,
        channel,
        rx,
    }
}

/// One request: scan the block, ingest its lines, drain the positions.
fn request<'a>(
    rig: &mut Rig,
    block: &'a str,
    lines: &mut Vec<&'a str>,
    delivered: &mut Vec<DataItem>,
) -> Result<BlockReport, CoreError> {
    let report = {
        let _span = trace::span(Name::ScanBlock);
        scan_block(block, lines)
    };
    {
        let _span = trace::span(Name::IngestBatch);
        rig.mw
            .ingest_batch(rig.source, kinds::RAW_STRING, lines, tick())?;
    }
    let _span = trace::span(Name::Drain);
    delivered.clear();
    delivered.extend(rig.rx.try_iter());
    Ok(report)
}

/// Compares a request's outputs with what the generator says the block
/// holds.
fn verify(
    expect: &BlockExpect,
    fixes: &[(f64, f64)],
    report: &BlockReport,
    delivered: &[DataItem],
) -> Result<(), String> {
    if report.skipped != expect.skipped || report.parsed + report.skipped != expect.lines {
        return Err(format!(
            "block at byte {}: scanned {} ok + {} skipped, expected {} lines with {} corrupted",
            expect.bytes.start, report.parsed, report.skipped, expect.lines, expect.skipped
        ));
    }
    let want = &fixes[expect.fixes.clone()];
    if delivered.len() != want.len() {
        return Err(format!(
            "block at byte {}: {} positions delivered, expected {}",
            expect.bytes.start,
            delivered.len(),
            want.len()
        ));
    }
    for (item, &(lat, lon)) in delivered.iter().zip(want) {
        let Some(pos) = item.payload.as_position() else {
            return Err("a delivered item carries no position".into());
        };
        let (dlat, dlon) = (pos.coord().lat_deg() - lat, pos.coord().lon_deg() - lon);
        if dlat.abs() > COORD_TOLERANCE_DEG || dlon.abs() > COORD_TOLERANCE_DEG {
            return Err(format!(
                "delivered ({}, {}) differs from generated ({lat}, {lon})",
                pos.coord().lat_deg(),
                pos.coord().lon_deg()
            ));
        }
    }
    Ok(())
}

/// Totals of a stretch of requests.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    requests: u64,
    lines: u64,
    skipped: u64,
    delivered: u64,
    expected: u64,
}

/// Runs block `b` of the capture as one checked request; returns its
/// latency and the lines it consumed.
fn checked_request<'a>(
    rig: &mut Rig,
    capture: &'a Capture,
    b: usize,
    lines: &mut Vec<&'a str>,
    delivered: &mut Vec<DataItem>,
    out: &mut Outcome,
    tally: &mut Tally,
) -> (Duration, u64) {
    let expect = &capture.blocks[b];
    let t0 = Instant::now();
    let result = request(rig, &capture.text[expect.bytes.clone()], lines, delivered);
    let took = t0.elapsed();
    let _span = trace::span(Name::Check);
    tally.requests += 1;
    tally.expected += expect.fixes.len() as u64;
    let Some(report) = out.op("ingest_batch", result) else {
        return (took, 0);
    };
    let consumed = (report.parsed + report.skipped) as u64;
    tally.lines += consumed;
    tally.skipped += report.skipped as u64;
    let verdict = verify(expect, &capture.fixes, &report, delivered);
    if verdict.is_ok() {
        tally.delivered += delivered.len() as u64;
    }
    out.check(verdict.is_ok(), || verdict.unwrap_err());
    (took, consumed)
}

/// One checked pass over the whole capture, untimed.
fn warm_up(rig: &mut Rig, capture: &Capture, out: &mut Outcome) {
    let (mut lines, mut delivered) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    for b in 0..capture.blocks.len() {
        checked_request(rig, capture, b, &mut lines, &mut delivered, out, &mut tally);
    }
}

/// Parser errors would mean the capture held a line the generator did
/// not intend.
fn check_parser(rig: &mut Rig, out: &mut Outcome) {
    let errors = rig.mw.invoke(rig.parser, "errorCount", &[]);
    let errors = errors.ok().and_then(|v| v.as_i64());
    out.check(errors == Some(0), || {
        format!("parser errorCount = {errors:?}")
    });
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let shape = shape(cfg.size);
    let capture = gen::capture(cfg.seed, shape.epochs);
    let mut out = Outcome::default();
    out.note(format!(
        "capture: {} epochs, {} lines ({} corrupted), {} valid fixes, {} blocks of <= {} B reads",
        shape.epochs,
        capture.lines(),
        capture.corrupted(),
        capture.fixes.len(),
        capture.blocks.len(),
        gen::SERIAL_READ_BYTES
    ));
    if cfg.trace {
        run_traced(cfg, &capture, &mut out);
    } else {
        run_untraced(cfg, &shape, &capture, &mut out);
    }
    out
}

fn run_untraced(cfg: &Config, shape: &Shape, capture: &Capture, out: &mut Outcome) {
    let mut rig = build(false);
    warm_up(&mut rig, capture, out);
    let peak_rss = stats::peak_rss_mb();

    let (mut lines, mut delivered) = (Vec::new(), Vec::new());
    let mut reqs = Requests::with_capacity(1 << 21);
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut b = 0;
    while Instant::now() < deadline {
        reqs.time_setups(stats::WINDOW, shape.setups_per_window, || build(false));
        let (took, consumed) = checked_request(
            &mut rig,
            capture,
            b,
            &mut lines,
            &mut delivered,
            out,
            &mut tally,
        );
        reqs.push(took, consumed);
        b = (b + 1) % capture.blocks.len();
    }
    check_parser(&mut rig, out);

    let s = reqs.fastest(stats::WINDOW, stats::FAST_SHARE);
    out.metric("items_per_s", s.items_per_s, "1/s");
    out.metric("latency_p50_us", s.p50_us, "us");
    out.metric("latency_p99_us", s.p99_us, "us");
    out.metric(
        "availability",
        trace::per(tally.delivered as f64, tally.expected),
        "ratio",
    );
    out.metric("setup_s", s.setup_s, "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.note(format!(
        "{} requests ({} lines, {} skipped, {} positions delivered); figures from the \
         fastest {} of {} windows, with {} graph builds timed per window",
        tally.requests,
        tally.lines,
        tally.skipped,
        tally.delivered,
        s.windows,
        s.of_windows,
        shape.setups_per_window
    ));
}

fn run_traced(cfg: &Config, capture: &Capture, out: &mut Outcome) {
    let mut rig = build(true);
    warm_up(&mut rig, capture, out);
    let arena0 = rig.mw.arena_stats();
    let chan0 = rig
        .mw
        .channel_stats(rig.channel)
        .expect("the sink channel exists");

    let (mut lines, mut delivered) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0);
    trace::start();
    let t0 = Instant::now();
    let mut b = 0;
    while Instant::now() < deadline && trace::remaining() > SPAN_MARGIN {
        trace::set_request(tally.requests);
        let _root = trace::root(Name::Request);
        checked_request(
            &mut rig,
            capture,
            b,
            &mut lines,
            &mut delivered,
            out,
            &mut tally,
        );
        b = (b + 1) % capture.blocks.len();
    }
    let traced_wall = t0.elapsed();
    let spans = trace::finish();
    out.check(spans.is_ok(), || "span slots overflowed".into());
    let profile = trace::profile(&spans.unwrap_or_else(|s| s));
    check_parser(&mut rig, out);

    let arena = rig.mw.arena_stats();
    let chan = rig
        .mw
        .channel_stats(rig.channel)
        .expect("the sink channel exists");
    let dropped: u64 = rig
        .mw
        .channels()
        .iter()
        .filter_map(|c| rig.mw.channel_stats(c.id).ok())
        .map(|s| s.dropped)
        .sum();

    // The same requests without spans or wrappers, for the overhead.
    let mut plain = build(false);
    warm_up(&mut plain, capture, out);
    let mut plain_tally = Tally::default();
    let t0 = Instant::now();
    for i in 0..tally.requests as usize {
        let b = i % capture.blocks.len();
        checked_request(
            &mut plain,
            capture,
            b,
            &mut lines,
            &mut delivered,
            out,
            &mut plain_tally,
        );
    }
    let plain_wall = t0.elapsed();

    let lines_n = tally.lines;
    let p = &profile;
    out.metric(
        "codec.scan_ns_per_line",
        trace::per(p.self_ns(Name::ScanBlock) as f64, lines_n),
        "ns/line",
    );
    out.metric("codec.skipped_lines", tally.skipped as f64, "count");
    out.metric(
        "pipeline.parser_ns_per_item",
        p.mean_self_ns(Name::Parser),
        "ns/item",
    );
    out.metric(
        "pipeline.interpreter_ns_per_item",
        p.mean_self_ns(Name::Interpreter),
        "ns/item",
    );
    out.metric(
        "feature.hdop_ns_per_item",
        p.mean_self_ns(Name::Hdop),
        "ns/item",
    );
    out.metric(
        "engine.ingest_self_ns_per_line",
        trace::per(p.self_ns(Name::IngestBatch) as f64, lines_n - tally.skipped),
        "ns/line",
    );
    out.metric(
        "channel.materialized_ratio",
        trace::per(
            (chan.materialized - chan0.materialized) as f64,
            chan.outputs - chan0.outputs,
        ),
        "ratio",
    );
    out.metric("channel.dropped", dropped as f64, "count");
    out.metric(
        "arena.recycle_ratio",
        trace::per(
            (arena.recycled - arena0.recycled) as f64,
            arena.interned - arena0.interned,
        ),
        "ratio",
    );
    out.metric(
        "arena.escaped",
        (arena.escaped - arena0.escaped) as f64,
        "count",
    );
    out.metric("positioning.delivered", tally.delivered as f64, "count");
    out.metric(
        "positioning.drain_ns_per_item",
        trace::per(p.self_ns(Name::Drain) as f64, tally.delivered),
        "ns/item",
    );
    out.metric(
        "trace.overhead_ratio",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        "ratio",
    );
    reconcile(out, p, traced_wall.as_nanos() as u64);
    out.note(format!(
        "traced {} requests ({} lines) in {:.3} s; untraced replay {:.3} s",
        tally.requests,
        lines_n,
        traced_wall.as_secs_f64(),
        plain_wall.as_secs_f64()
    ));
}
