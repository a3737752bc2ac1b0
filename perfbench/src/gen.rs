//! Seeded input generators. Everything a workload feeds the middleware —
//! capture bytes, trajectories, fault seeds — is made here from `--seed`,
//! before any timed region, together with the answers the output checks
//! compare against.

use std::ops::Range;

use perpos_geo::Point2;
use perpos_nmea::{
    FixQuality, Gga, Gsa, GsaFixType, Gsv, NmeaTime, Rmc, SatelliteInfo, Sentence, Vtg,
};
use perpos_sensors::Trajectory;

use crate::rng::Rng;

/// Bytes one serial read returns; the capture is delivered in reads of
/// this size, each cut back to its last complete line.
pub const SERIAL_READ_BYTES: usize = 512;

/// Share of epochs whose receiver has no fix.
pub const NO_FIX_SHARE: f64 = 0.05;

/// Share of lines whose checksum is corrupted in transit.
pub const CORRUPT_SHARE: f64 = 0.01;

/// What one block of the capture must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockExpect {
    /// Byte range of the block within [`Capture::text`].
    pub bytes: Range<usize>,
    /// Lines in the block (valid plus corrupted).
    pub lines: usize,
    /// Lines whose checksum was corrupted: `scan_block` must skip them.
    pub skipped: usize,
    /// Range into [`Capture::fixes`]: the positions the block delivers.
    pub fixes: Range<usize>,
}

/// A seeded NMEA capture: 1 Hz epochs of GGA, GSA, 3×GSV, RMC and VTG.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The capture, `\r\n`-terminated lines.
    pub text: String,
    /// The capture cut into serial reads.
    pub blocks: Vec<BlockExpect>,
    /// `(lat, lon)` in degrees of every valid-fix GGA line that survives
    /// corruption, in capture order.
    pub fixes: Vec<(f64, f64)>,
}

impl Capture {
    /// Total lines in the capture.
    pub fn lines(&self) -> usize {
        self.blocks.iter().map(|b| b.lines).sum()
    }

    /// Total corrupted lines in the capture.
    pub fn corrupted(&self) -> usize {
        self.blocks.iter().map(|b| b.skipped).sum()
    }
}

struct Line {
    end: usize,
    corrupted: bool,
    fix: Option<(f64, f64)>,
}

/// Generates `epochs` seconds of a receiver moving around Aarhus.
pub fn capture(seed: u64, epochs: usize) -> Capture {
    let mut rng = Rng::derived(seed, 0x4E4D_4541, 0);
    let mut text = String::with_capacity(epochs * 7 * 72);
    let mut lines: Vec<Line> = Vec::with_capacity(epochs * 7);
    let (mut lat, mut lon) = (56.15 + rng.range(0.0, 0.05), 10.18 + rng.range(0.0, 0.05));
    let mut heading = rng.range(0.0, 360.0);
    let start_s = 36_000.0 + rng.range(0.0, 3_600.0).floor();
    for e in 0..epochs {
        let speed_mps = rng.range(0.5, 15.0);
        heading = (heading + rng.range(-20.0, 20.0)).rem_euclid(360.0);
        let (s, c) = heading.to_radians().sin_cos();
        lat += c * speed_mps / 111_320.0;
        lon += s * speed_mps / (111_320.0 * lat.to_radians().cos());
        let time = NmeaTime::from_seconds_of_day(start_s + e as f64);
        let fix = !rng.chance(NO_FIX_SHARE);
        let sats = if fix { rng.int(4, 12) as u8 } else { 0 };
        let hdop = if fix { rng.range(0.7, 3.5) } else { 0.0 };
        let gga = if fix {
            Gga {
                time,
                lat_deg: Some(lat),
                lon_deg: Some(lon),
                quality: if rng.chance(0.1) {
                    FixQuality::Dgps
                } else {
                    FixQuality::Gps
                },
                num_satellites: sats,
                hdop,
                altitude_m: rng.range(20.0, 80.0),
                geoid_separation_m: 40.0,
            }
        } else {
            Gga {
                time,
                ..Gga::default()
            }
        };
        let prns: Vec<u8> = (1..=sats).map(|p| p * 2).collect();
        let gsa = Gsa {
            auto_selection: true,
            fix_type: if fix {
                GsaFixType::Fix3d
            } else {
                GsaFixType::NoFix
            },
            prns,
            pdop: hdop * 1.4,
            hdop,
            vdop: hdop * 1.1,
        };
        let in_view = 12u8;
        let gsv: Vec<Gsv> = (0..3u8)
            .map(|m| Gsv {
                total_messages: 3,
                message_number: m + 1,
                satellites_in_view: in_view,
                satellites: (0..4u8)
                    .map(|i| SatelliteInfo {
                        prn: (m * 4 + i + 1) * 2,
                        elevation_deg: rng.int(5, 90) as u8,
                        azimuth_deg: rng.int(0, 359) as u16,
                        snr_db: rng.chance(0.85).then(|| rng.int(20, 50) as u8),
                    })
                    .collect(),
            })
            .collect();
        let knots = speed_mps / 0.514_444;
        let rmc = Rmc {
            time,
            valid: fix,
            lat_deg: fix.then_some(lat),
            lon_deg: fix.then_some(lon),
            speed_knots: knots,
            course_deg: heading,
            date: "161026".to_string(),
        };
        let vtg = Vtg {
            course_true_deg: heading,
            speed_knots: knots,
            speed_kmh: speed_mps * 3.6,
        };
        let mut sentences = vec![Sentence::Gga(gga), Sentence::Gsa(gsa)];
        sentences.extend(gsv.into_iter().map(Sentence::Gsv));
        sentences.push(Sentence::Rmc(rmc));
        sentences.push(Sentence::Vtg(vtg));
        for (i, sentence) in sentences.iter().enumerate() {
            let mut line = sentence.to_nmea_string();
            let corrupted = rng.chance(CORRUPT_SHARE);
            if corrupted {
                corrupt_checksum(&mut line);
            }
            text.push_str(&line);
            text.push_str("\r\n");
            let fix = (i == 0 && fix && !corrupted).then_some((lat, lon));
            lines.push(Line {
                end: text.len(),
                corrupted,
                fix,
            });
        }
    }
    let (blocks, fixes) = cut_serial_reads(&text, &lines);
    Capture {
        text,
        blocks,
        fixes,
    }
}

/// Replaces the `*HH` checksum with a different, well-formed one.
fn corrupt_checksum(line: &mut String) {
    let hex = &line[line.len() - 2..];
    let found = u8::from_str_radix(hex, 16).expect("encoder writes two hex digits");
    line.truncate(line.len() - 2);
    line.push_str(&format!("{:02X}", found ^ 0x5A));
}

/// Cuts the capture where successive serial reads of
/// [`SERIAL_READ_BYTES`] end, each read cut back to its last complete
/// line (the remainder waits for the next read).
fn cut_serial_reads(text: &str, lines: &[Line]) -> (Vec<BlockExpect>, Vec<(f64, f64)>) {
    let mut blocks = Vec::new();
    let mut fixes = Vec::new();
    let mut start = 0usize;
    let mut next_line = 0usize;
    let mut read_end = 0usize;
    while next_line < lines.len() {
        read_end = (read_end + SERIAL_READ_BYTES).min(text.len());
        let first = next_line;
        let fix_start = fixes.len();
        let mut skipped = 0;
        while next_line < lines.len() && lines[next_line].end <= read_end {
            let line = &lines[next_line];
            skipped += usize::from(line.corrupted);
            fixes.extend(line.fix);
            next_line += 1;
        }
        if next_line == first {
            continue;
        }
        let end = lines[next_line - 1].end;
        blocks.push(BlockExpect {
            bytes: start..end,
            lines: next_line - first,
            skipped,
            fixes: fix_start..fixes.len(),
        });
        start = end;
    }
    (blocks, fixes)
}

/// Centre line of the demo building's corridor (y, metres).
const CORRIDOR_Y: f64 = 5.25;

/// A closed walk through the demo office: along the corridor, through
/// the door into `rooms` randomly chosen offices and back out, returning
/// to its start so the trajectory loops without a jump.
pub fn office_walk(seed: u64, rooms: usize) -> Trajectory {
    let mut rng = Rng::derived(seed, 0x5741_4C4B, 0);
    let doors = [2.5, 7.5, 12.5, 17.5];
    let start = Point2::new(rng.range(1.0, 19.0), CORRIDOR_Y);
    let mut points = vec![start];
    for _ in 0..rooms {
        let x = doors[rng.int(0, 3) as usize];
        // South offices span y 0..4, north offices y 6.5..10.5.
        let inside = if rng.chance(0.5) {
            rng.range(1.0, 3.0)
        } else {
            rng.range(7.5, 9.5)
        };
        points.push(Point2::new(x, CORRIDOR_Y));
        points.push(Point2::new(x, inside));
        points.push(Point2::new(x, CORRIDOR_Y));
    }
    points.push(start);
    points.dedup();
    Trajectory::new(points, rng.range(0.9, 1.4)).looping()
}

/// The generated inputs of one fleet instance.
#[derive(Debug, Clone)]
pub struct FleetInstance {
    /// The tracked walk.
    pub trajectory: Trajectory,
    /// Seed of the instance's GPS receiver noise.
    pub gps_seed: u64,
    /// Whether the instance carries the environmental fault source.
    pub faulty: bool,
}

/// Inputs for `instances` outdoor trackers, `faulty_share` of them in
/// bad weather. The fault schedule of instance `i`'s `n`-th incarnation
/// is `Rng::derived(fault_seed, i, n)`.
pub fn fleet(seed: u64, instances: usize, faulty_share: f64) -> (Vec<FleetInstance>, u64) {
    let mut rng = Rng::derived(seed, 0x464C_4545, 0);
    let stripe = (faulty_share * 100.0).round() as usize;
    let inputs = (0..instances)
        .map(|i| {
            let from = Point2::new(rng.range(-500.0, 500.0), rng.range(-500.0, 500.0));
            let heading = rng.range(0.0, std::f64::consts::TAU);
            let to = Point2::new(
                from.x + 2_000.0 * heading.cos(),
                from.y + 2_000.0 * heading.sin(),
            );
            FleetInstance {
                trajectory: Trajectory::new(vec![from, to], rng.range(0.8, 2.0)),
                gps_seed: rng.next_u64(),
                faulty: i % 100 < stripe,
            }
        })
        .collect();
    (inputs, rng.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_sensors::codec::scan_block;

    #[test]
    fn capture_is_seeded_and_blocks_cover_it() {
        let a = capture(5, 200);
        let b = capture(5, 200);
        assert_eq!(a.text, b.text);
        assert_ne!(a.text, capture(6, 200).text);
        assert_eq!(a.lines(), 200 * 7);
        assert_eq!(a.blocks.first().map(|b| b.bytes.start), Some(0));
        assert_eq!(a.blocks.last().map(|b| b.bytes.end), Some(a.text.len()));
        for w in a.blocks.windows(2) {
            assert_eq!(w[0].bytes.end, w[1].bytes.start);
        }
        // A block is one read plus the partial line carried over from
        // the previous read.
        assert!(a
            .blocks
            .iter()
            .all(|b| b.bytes.len() < SERIAL_READ_BYTES + 100));
    }

    #[test]
    fn scan_block_agrees_with_the_expected_counts() {
        let cap = capture(11, 400);
        let mut lines = Vec::new();
        for b in &cap.blocks {
            let report = scan_block(&cap.text[b.bytes.clone()], &mut lines);
            assert_eq!(report.skipped, b.skipped);
            assert_eq!(report.parsed + report.skipped, b.lines);
        }
        assert!(
            cap.corrupted() > 0,
            "the share should corrupt some of 2,800 lines"
        );
        let fix_epochs = cap.fixes.len() as f64 / 400.0;
        assert!((0.85..1.0).contains(&fix_epochs), "{fix_epochs}");
    }

    #[test]
    fn office_walk_loops_inside_the_building() {
        let building = perpos_model::demo_building();
        let walk = office_walk(9, 6);
        let first = walk.waypoints()[0];
        assert_eq!(walk.waypoints().last(), Some(&first));
        for t in 0..600 {
            let p = walk.position_at(perpos_core::SimTime::from_secs_f64(f64::from(t)));
            assert!(building.room_at(p, 0).is_some(), "{p:?} outside at {t}s");
        }
    }

    #[test]
    fn fleet_marks_the_faulty_share() {
        let (inputs, _) = fleet(1, 1000, 0.1);
        assert_eq!(inputs.iter().filter(|i| i.faulty).count(), 100);
    }
}
