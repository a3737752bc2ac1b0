//! The `nmea.sentence` payload contract: a sentence travels the graph as
//! its validated NMEA-0183 wire text, the Parser forwards that text
//! without copying it, and every decode on the way (the GGA peek of the
//! HDOP feature and the Interpreter, the full [`codec::sentence_of`])
//! sees exactly what parsing the line directly gives.

#![allow(clippy::unwrap_used)]

use std::sync::{Arc, Mutex};

use perpos_core::prelude::*;
use perpos_nmea::{
    checksum, parse_sentence, FixQuality, Gga, Gsa, GsaFixType, Gsv, NmeaTime, Rmc, SatelliteInfo,
    Sentence, Vtg,
};
use perpos_sensors::codec::{
    gga_of, ingest_nmea_block, sentence_of, sentence_to_value, sentence_type_of, value_to_sentence,
};
use perpos_sensors::{HdopFeature, Interpreter, Parser};
use proptest::prelude::*;
use proptest::SampleRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates sentences of every modelled type plus unknown ones.
#[derive(Debug, Clone, Copy)]
struct AnySentence;

fn time(rng: &mut SampleRng) -> NmeaTime {
    let millis = if rng.below(2) == 0 {
        0
    } else {
        (1u16..1000).sample(rng)
    };
    NmeaTime::new(
        (0u8..24).sample(rng),
        (0u8..60).sample(rng),
        (0u8..60).sample(rng),
        millis,
    )
}

fn coord(rng: &mut SampleRng, max: f64) -> Option<f64> {
    (rng.below(8) != 0).then(|| (-max..max).sample(rng))
}

impl Strategy for AnySentence {
    type Value = Sentence;

    fn sample(&self, rng: &mut SampleRng) -> Sentence {
        match rng.below(6) {
            0 => Sentence::Gga(Gga {
                time: time(rng),
                lat_deg: coord(rng, 89.9),
                lon_deg: coord(rng, 179.9),
                quality: FixQuality::from_u8((0u8..9).sample(rng)),
                num_satellites: (0u8..25).sample(rng),
                hdop: (0.5..99.9).sample(rng),
                altitude_m: (-100.0..9000.0).sample(rng),
                geoid_separation_m: (-100.0..100.0).sample(rng),
            }),
            1 => Sentence::Rmc(Rmc {
                time: time(rng),
                valid: rng.below(2) == 0,
                lat_deg: coord(rng, 89.9),
                lon_deg: coord(rng, 179.9),
                speed_knots: (0.0..200.0).sample(rng),
                course_deg: (0.0..360.0).sample(rng),
                date: "[0-9]{6}".sample(rng),
            }),
            2 => Sentence::Gsa(Gsa {
                auto_selection: rng.below(2) == 0,
                fix_type: [GsaFixType::NoFix, GsaFixType::Fix2d, GsaFixType::Fix3d][rng.below(3)],
                prns: proptest::collection::vec(1u8..=32, 0..13).sample(rng),
                pdop: (0.5..99.9).sample(rng),
                hdop: (0.5..99.9).sample(rng),
                vdop: (0.5..99.9).sample(rng),
            }),
            3 => {
                let total = (1u8..=4).sample(rng);
                Sentence::Gsv(Gsv {
                    total_messages: total,
                    message_number: (1..=total).sample(rng),
                    satellites_in_view: (0u8..=16).sample(rng),
                    satellites: (0..rng.below(5))
                        .map(|_| SatelliteInfo {
                            prn: (1u8..=32).sample(rng),
                            elevation_deg: (0u8..=90).sample(rng),
                            azimuth_deg: (0u16..360).sample(rng),
                            snr_db: (rng.below(4) != 0).then(|| (0u8..=99).sample(rng)),
                        })
                        .collect(),
                })
            }
            4 => Sentence::Vtg(Vtg {
                course_true_deg: (0.0..360.0).sample(rng),
                speed_knots: (0.0..200.0).sample(rng),
                speed_kmh: (0.0..370.0).sample(rng),
            }),
            _ => Sentence::Unknown {
                talker_and_type: "G[PLN][A-Z]{3}".sample(rng),
                fields: proptest::collection::vec("[0-9A-Z.]{0,6}", 0..8).sample(rng),
            },
        }
    }
}

fn sentence_item(text: &str) -> DataItem {
    DataItem::new(kinds::NMEA_SENTENCE, SimTime::ZERO, Value::from(text))
}

fn framed(body: &str) -> String {
    format!("${body}*{:02X}", checksum(body))
}

/// The decode-everything reference the GGA peek must agree with.
fn gga_by_full_decode(item: &DataItem) -> Option<Gga> {
    match sentence_of(item) {
        Some(Sentence::Gga(g)) => Some(g),
        _ => None,
    }
}

/// Wire-text variants of one sentence: as sent, `\r`/`\r\n`-terminated,
/// `$`-less, non-ASCII with a stale checksum, and non-ASCII re-framed
/// with a valid one.
fn variants(wire: &str) -> Vec<String> {
    let body = &wire[1..wire.rfind('*').unwrap()];
    let cut = body.len() / 2;
    let hostile = format!("{}é{}", &body[..cut], &body[cut..]);
    vec![
        wire.to_string(),
        format!("{wire}\r"),
        format!("{wire}\r\n"),
        wire[1..].to_string(),
        format!("${hostile}*{}", &wire[wire.len() - 2..]),
        framed(&hostile),
    ]
}

proptest! {
    /// The payload codec is the wire format: encoding then decoding is
    /// exactly printing then parsing.
    #[test]
    fn payload_round_trip_is_print_then_parse(s in AnySentence) {
        let line = s.to_nmea_string();
        prop_assert_eq!(sentence_to_value(&s), Value::Text(line.clone()));
        prop_assert_eq!(value_to_sentence(&sentence_to_value(&s)), parse_sentence(&line).ok());
    }

    /// The no-parse GGA peek agrees with decoding the whole sentence, on
    /// every variant of the line a hostile or sloppy source can produce.
    #[test]
    fn gga_peek_agrees_with_full_decode(s in AnySentence) {
        for text in variants(&s.to_nmea_string()) {
            let item = sentence_item(&text);
            prop_assert_eq!(gga_of(&item), gga_by_full_decode(&item), "{:?}", text);
            if let Some(decoded) = sentence_of(&item) {
                if !matches!(decoded, Sentence::Unknown { .. }) {
                    prop_assert_eq!(sentence_type_of(&item), Some(decoded.type_code()));
                }
            }
        }
    }

    /// The Parser forwards its input's payload: the same interned
    /// allocation (pointer-equal), no attributes.
    #[test]
    fn parser_forwards_the_input_payload(s in AnySentence) {
        let line = s.to_nmea_string();
        let mut arena = PayloadArena::new();
        let input = arena.intern(Value::from(line.as_str()));
        let raw = DataItem::new(kinds::RAW_STRING, SimTime::ZERO, input.clone());
        let out = ComponentCtxProbe::run_input(&mut Parser::new(), raw).unwrap();
        if parse_sentence(&line).is_ok() {
            prop_assert_eq!(out.len(), 1);
            prop_assert_eq!(out[0].kind, kinds::NMEA_SENTENCE);
            prop_assert!(out[0].payload.shares_with(&input));
            prop_assert!(out[0].attrs.is_empty());
        } else {
            prop_assert!(out.is_empty());
        }
    }
}

#[test]
fn peek_rejects_empty_non_text_and_foreign_items() {
    for item in [
        sentence_item(""),
        sentence_item("$"),
        DataItem::new(kinds::NMEA_SENTENCE, SimTime::ZERO, Value::Int(7)),
        DataItem::new(
            kinds::RAW_STRING,
            SimTime::ZERO,
            Value::from("$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47"),
        ),
    ] {
        assert_eq!(gga_of(&item), None);
        assert_eq!(gga_by_full_decode(&item), None);
    }
}

/// One seeded capture line: GGA (5 % without a fix), GSA, GSV, RMC, VTG
/// or ZDA, with fields written at receiver precision (not the encoder's),
/// and 1 % of lines carrying a corrupted checksum.
fn capture(seed: u64, epochs: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::new();
    for epoch in 0..epochs {
        let hms = format!(
            "{:02}{:02}{:02}.{:02}",
            epoch / 3600 % 24,
            epoch / 60 % 60,
            epoch % 60,
            rng.gen_range(0..100)
        );
        let lat = format!(
            "{:02}{:07.4}",
            rng.gen_range(0..90),
            rng.gen_range(0.0..59.9999)
        );
        let lon = format!(
            "{:03}{:07.4}",
            rng.gen_range(0..180),
            rng.gen_range(0.0..59.9999)
        );
        let ns = if rng.gen_bool(0.5) { "N" } else { "S" };
        let ew = if rng.gen_bool(0.5) { "E" } else { "W" };
        let hdop = format!("{:.2}", rng.gen_range(0.6..25.0));
        let gga = if rng.gen_bool(0.05) {
            format!("GPGGA,{hms},,,,,0,00,,,M,,M,,")
        } else {
            format!(
                "GPGGA,{hms},{lat},{ns},{lon},{ew},{},{:02},{hdop},{:.3},M,{:.1},M,,",
                rng.gen_range(1..3),
                rng.gen_range(3..13),
                rng.gen_range(-50.0..3000.0),
                rng.gen_range(-50.0..60.0),
            )
        };
        let bodies = [
            gga,
            format!("GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,{hdop},2.1"),
            format!(
                "GPGSV,3,1,11,01,40,083,{},02,17,308,41,,,,",
                rng.gen_range(10..50)
            ),
            format!(
                "GPRMC,{hms},A,{lat},{ns},{lon},{ew},{:.2},{:.1},230394,003.1,W",
                rng.gen_range(0.0..90.0),
                rng.gen_range(0.0..360.0)
            ),
            format!(
                "GPVTG,054.7,T,034.4,M,{:.1},N,010.2,K",
                rng.gen_range(0.0..90.0)
            ),
            format!("GPZDA,{hms},11,03,2004,-1,00"),
        ];
        for body in bodies {
            let sum = checksum(&body) ^ u8::from(rng.gen_bool(0.01));
            lines.push(format!("${body}*{sum:02X}"));
        }
    }
    lines
}

/// Dropping the JSON document changed no value: the hdop attribute and
/// every delivered position are bit-identical to the ones computed by
/// parsing each captured line directly.
#[test]
fn lossless_path_from_raw_lines_to_positions() {
    // The Interpreter's HDOP-to-1-sigma-metres factor.
    const UERE_M: f64 = 5.0;
    let lines = capture(0x5EED, 400);

    let mut mw = Middleware::new();
    let src = mw.add_component(FnSource::new("capture", kinds::RAW_STRING, |_| None));
    let parser = mw.add_component(Parser::new());
    mw.attach_feature(parser, HdopFeature::new()).unwrap();
    let interpreter = mw.add_component(Interpreter::new());
    let hdops: Arc<Mutex<Vec<Option<f64>>>> = Arc::default();
    let positions: Arc<Mutex<Vec<Position>>> = Arc::default();
    let (hdop_log, position_log) = (Arc::clone(&hdops), Arc::clone(&positions));
    let sentence_tap = mw.add_component(FnProcessor::new(
        "sentence tap",
        vec![kinds::NMEA_SENTENCE],
        kinds::NMEA_SENTENCE,
        move |item: &DataItem| {
            hdop_log
                .lock()
                .unwrap()
                .push(item.attr("hdop").and_then(Value::as_f64));
            None
        },
    ));
    let position_tap = mw.add_component(FnProcessor::new(
        "position tap",
        vec![kinds::POSITION_WGS84],
        kinds::POSITION_WGS84,
        move |item: &DataItem| {
            position_log.lock().unwrap().push(*item.position().unwrap());
            None
        },
    ));
    mw.connect(src, parser, 0).unwrap();
    mw.connect(parser, sentence_tap, 0).unwrap();
    mw.connect(parser, interpreter, 0).unwrap();
    mw.connect(interpreter, position_tap, 0).unwrap();

    for block in lines.chunks(37) {
        let block = block.join("\r\n");
        ingest_nmea_block(
            &mut mw,
            src,
            kinds::RAW_STRING,
            &block,
            SimDuration::from_millis(10),
        )
        .unwrap();
    }

    let mut want_hdops = Vec::new();
    let mut want_positions = Vec::new();
    for line in &lines {
        let Ok(sentence) = parse_sentence(line) else {
            continue;
        };
        let Sentence::Gga(gga) = sentence else {
            want_hdops.push(None);
            continue;
        };
        want_hdops.push(gga.quality.has_fix().then_some(gga.hdop));
        if let (Some(lat), Some(lon), true) = (gga.lat_deg, gga.lon_deg, gga.quality.has_fix()) {
            let coord = perpos_geo::Wgs84::new(lat, lon, gga.altitude_m).unwrap();
            want_positions.push(Position::new(coord, Some(gga.hdop * UERE_M)));
        }
    }

    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let hdops = hdops.lock().unwrap();
    assert!(
        lines.len() - hdops.len() > 0,
        "the capture must carry corrupted lines"
    );
    assert_eq!(hdops.len(), want_hdops.len());
    for (got, want) in hdops.iter().zip(&want_hdops) {
        assert_eq!(bits(*got), bits(*want));
    }
    let positions = positions.lock().unwrap();
    assert!(positions.len() > 300, "{} positions", positions.len());
    assert_eq!(positions.len(), want_positions.len());
    for (got, want) in positions.iter().zip(&want_positions) {
        let (g, w) = (got.coord(), want.coord());
        assert_eq!(g.lat_deg().to_bits(), w.lat_deg().to_bits());
        assert_eq!(g.lon_deg().to_bits(), w.lon_deg().to_bits());
        assert_eq!(g.alt_m().to_bits(), w.alt_m().to_bits());
        assert_eq!(bits(got.accuracy_m()), bits(want.accuracy_m()));
    }
}
