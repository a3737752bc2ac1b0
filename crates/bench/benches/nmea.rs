//! Criterion bench: NMEA parsing/encoding throughput.

#![allow(clippy::unwrap_used)]
use criterion::{criterion_group, criterion_main, Criterion};
use perpos_nmea::{parse_sentence, Sentence};

const GGA: &str = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47";
const RMC: &str = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A";
const GSV: &str = "$GPGSV,2,1,08,01,40,083,46,02,17,308,41,12,07,344,39,14,22,228,45*75";

fn bench_parse(c: &mut Criterion) {
    c.bench_function("parse_gga", |b| b.iter(|| parse_sentence(GGA).unwrap()));
    c.bench_function("parse_rmc", |b| b.iter(|| parse_sentence(RMC).unwrap()));
    c.bench_function("parse_gsv", |b| b.iter(|| parse_sentence(GSV).unwrap()));
}

fn bench_encode(c: &mut Criterion) {
    let gga = parse_sentence(GGA).unwrap();
    assert!(matches!(gga, Sentence::Gga(_)));
    let rmc = parse_sentence(RMC).unwrap();
    assert!(matches!(rmc, Sentence::Rmc(_)));
    c.bench_function("encode_gga", |b| b.iter(|| gga.to_nmea_string()));
    c.bench_function("encode_rmc", |b| b.iter(|| rmc.to_nmea_string()));
    // The allocation-free path: both sentences appended into one buffer
    // that is cleared, not reallocated, between iterations.
    let mut buf = String::with_capacity(256);
    c.bench_function("write_nmea_reused_buffer", |b| {
        b.iter(|| {
            buf.clear();
            gga.write_nmea(&mut buf);
            rmc.write_nmea(&mut buf);
            buf.len()
        })
    });
}

criterion_group!(benches, bench_parse, bench_encode);
criterion_main!(benches);
