//! Encoding of [`Sentence`] values back to NMEA-0183 text.
//!
//! The encoder is the inverse of the parser for every modelled sentence
//! type; the GPS simulator in `perpos-sensors` uses it to emit the raw
//! strings that flow through the PerPos processing graph.
//!
//! Every field is appended straight into one output buffer. Float fields
//! go through an exact fixed-point writer that produces the same bytes as
//! std's `{:.1}` / `{:07.4}` without running the general float formatter.

use std::fmt::Write as _;

use crate::parser::checksum;
use crate::sentence::{FixQuality, GsaFixType, NmeaTime, Sentence};

/// Magnitudes from here on (and non-finite values) are written by std's
/// formatter; below it `|v|·10^4` fits a `u64` and the exact product
/// `mantissa·10^4` stays under 2^67.
const FIXED_LIMIT: f64 = 1e15;

/// `|v|·10^prec` rounded half-to-even on the exact binary value of `v`,
/// or `None` when `v` is non-finite or `|v| >= FIXED_LIMIT`.
///
/// `|v| = mant·2^-shift` exactly, so `mant·10^prec >> shift` is the
/// truncated scaled value and the shifted-out bits are the exact
/// remainder — the same tie rule std applies (`0.25 → "0.2"`,
/// `0.03125 → "0.0312"`).
fn scaled_abs(v: f64, prec: u32) -> Option<u64> {
    let abs = v.abs();
    if abs.is_nan() || abs >= FIXED_LIMIT {
        return None;
    }
    let bits = abs.to_bits();
    let biased = (bits >> 52) as u32;
    let frac = bits & ((1 << 52) - 1);
    let mant = if biased == 0 { frac } else { frac | (1 << 52) };
    // abs < 2^50, so the binary exponent is negative: shift >= 3.
    let shift = 1075 - biased.max(1);
    let scaled = u128::from(mant) * u128::from(10u64.pow(prec));
    if shift >= 128 {
        // Subnormal range: scaled < 2^67 is below half a unit.
        return Some(0);
    }
    let q = scaled >> shift;
    let rem = scaled & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    let round_up = rem > half || (rem == half && q & 1 == 1);
    Some((q + u128::from(round_up)) as u64)
}

/// Appends ASCII digits from a scratch buffer.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.extend(bytes.iter().map(|&b| char::from(b)));
}

/// Appends `n` as `{:0width$}`.
fn push_uint(out: &mut String, mut n: u64, width: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for _ in buf.len() - i..width {
        out.push('0');
    }
    push_ascii(out, &buf[i..]);
}

/// Appends a scaled magnitude (see [`scaled_abs`]) as `{:0width$.prec$}`.
/// Zero padding goes after the sign, so it pads the integer part.
fn push_scaled(out: &mut String, negative: bool, scaled: u64, prec: u32, width: usize) {
    if negative {
        out.push('-');
    }
    let unit = 10u64.pow(prec);
    let int_width = width.saturating_sub(usize::from(negative) + 1 + prec as usize);
    push_uint(out, scaled / unit, int_width);
    out.push('.');
    push_uint(out, scaled % unit, prec as usize);
}

/// Appends `v` exactly as `format!("{v:0width$.prec$}")` would.
fn push_fixed(out: &mut String, v: f64, prec: u32, width: usize) {
    match scaled_abs(v, prec) {
        Some(scaled) => push_scaled(out, v.is_sign_negative(), scaled, prec, width),
        None => {
            let prec = prec as usize;
            let _ = write!(out, "{v:0width$.prec$}");
        }
    }
}

/// Appends `hhmmss[.sss]`. A time the parser accepts (the leap second
/// 60 included) is written as it is; any other is carried into range
/// by integer arithmetic and wrapped into one day, as
/// [`NmeaTime::from_seconds_of_day`] wraps, so the field re-parses to
/// the time it stands for.
fn push_time(out: &mut String, t: &NmeaTime) {
    let (mut h, mut m, mut s, mut ms) = (
        u64::from(t.hour),
        u64::from(t.minute),
        u64::from(t.second),
        u64::from(t.millis),
    );
    if !(h < 24 && m < 60 && s <= 60 && ms < 1000) {
        let total = (((h * 60 + m) * 60 + s) * 1000 + ms) % 86_400_000;
        (h, m, s, ms) = (
            total / 3_600_000,
            total / 60_000 % 60,
            total / 1000 % 60,
            total % 1000,
        );
    }
    push_uint(out, h, 2);
    push_uint(out, m, 2);
    push_uint(out, s, 2);
    if ms != 0 {
        out.push('.');
        push_uint(out, ms, 3);
    }
}

/// Appends `,dd(d)mm.mmmm,H` — or `,,` for `None` — with `deg_width`
/// degree digits and `pos`/`neg` as the hemisphere letters.
///
/// Minutes that round to `60.0000` carry into the degrees, so the field
/// always re-parses (`56°59.99996′` is written `5700.0000`).
fn push_coord(out: &mut String, deg: Option<f64>, deg_width: usize, pos: char, neg: char) {
    out.push(',');
    let Some(v) = deg else {
        out.push(',');
        return;
    };
    let abs = v.abs();
    let d = abs.floor();
    let minutes = (abs - d) * 60.0;
    let mut degrees = u64::from(d as u32);
    let mut scaled = scaled_abs(minutes, 4);
    if scaled == Some(600_000) {
        degrees += 1;
        scaled = Some(0);
    }
    push_uint(out, degrees, deg_width);
    match scaled {
        Some(scaled) => push_scaled(out, minutes.is_sign_negative(), scaled, 4, 7),
        None => push_fixed(out, minutes, 4, 7),
    }
    out.push(',');
    out.push(if v >= 0.0 { pos } else { neg });
}

/// `,` followed by `v` as `{:.1}`.
fn push_tenths(out: &mut String, v: f64) {
    out.push(',');
    push_fixed(out, v, 1, 0);
}

impl Sentence {
    /// Appends the sentence's NMEA-0183 wire format — leading `$`, body
    /// and `*hh` checksum, no trailing newline — to `out`. The checksum
    /// covers only the appended body; whatever `out` held before is left
    /// untouched.
    ///
    /// ```
    /// use perpos_nmea::{frame, Sentence, Vtg};
    /// let mut buf = String::from("prefix:");
    /// Sentence::Vtg(Vtg::default()).write_nmea(&mut buf);
    /// let line = buf.strip_prefix("prefix:").unwrap();
    /// assert_eq!(line, "$GPVTG,0.0,T,,M,0.0,N,0.0,K*60");
    /// assert_eq!(frame(line), Ok("GPVTG,0.0,T,,M,0.0,N,0.0,K"));
    /// ```
    pub fn write_nmea(&self, out: &mut String) {
        out.push('$');
        let body = out.len();
        match self {
            Sentence::Gga(g) => {
                out.push_str("GPGGA,");
                push_time(out, &g.time);
                push_coord(out, g.lat_deg, 2, 'N', 'S');
                push_coord(out, g.lon_deg, 3, 'E', 'W');
                out.push(',');
                push_uint(out, g.quality.as_u8().into(), 0);
                out.push(',');
                push_uint(out, g.num_satellites.into(), 2);
                push_tenths(out, g.hdop);
                push_tenths(out, g.altitude_m);
                out.push_str(",M");
                push_tenths(out, g.geoid_separation_m);
                out.push_str(",M,,");
            }
            Sentence::Rmc(r) => {
                out.push_str("GPRMC,");
                push_time(out, &r.time);
                out.push_str(if r.valid { ",A" } else { ",V" });
                push_coord(out, r.lat_deg, 2, 'N', 'S');
                push_coord(out, r.lon_deg, 3, 'E', 'W');
                push_tenths(out, r.speed_knots);
                push_tenths(out, r.course_deg);
                out.push(',');
                out.push_str(&r.date);
                out.push_str(",,");
            }
            Sentence::Gsa(g) => {
                out.push_str(if g.auto_selection {
                    "GPGSA,A,"
                } else {
                    "GPGSA,M,"
                });
                out.push(match g.fix_type {
                    GsaFixType::NoFix => '1',
                    GsaFixType::Fix2d => '2',
                    GsaFixType::Fix3d => '3',
                });
                for i in 0..12 {
                    out.push(',');
                    if let Some(&prn) = g.prns.get(i) {
                        push_uint(out, prn.into(), 2);
                    }
                }
                push_tenths(out, g.pdop);
                push_tenths(out, g.hdop);
                push_tenths(out, g.vdop);
            }
            Sentence::Gsv(g) => {
                out.push_str("GPGSV,");
                push_uint(out, g.total_messages.into(), 0);
                out.push(',');
                push_uint(out, g.message_number.into(), 0);
                out.push(',');
                push_uint(out, g.satellites_in_view.into(), 2);
                for s in g.satellites.iter().take(4) {
                    out.push(',');
                    push_uint(out, s.prn.into(), 2);
                    out.push(',');
                    push_uint(out, s.elevation_deg.into(), 2);
                    out.push(',');
                    push_uint(out, s.azimuth_deg.into(), 3);
                    out.push(',');
                    if let Some(snr) = s.snr_db {
                        push_uint(out, snr.into(), 2);
                    }
                }
            }
            Sentence::Vtg(v) => {
                out.push_str("GPVTG");
                push_tenths(out, v.course_true_deg);
                out.push_str(",T,,M");
                push_tenths(out, v.speed_knots);
                out.push_str(",N");
                push_tenths(out, v.speed_kmh);
                out.push_str(",K");
            }
            Sentence::Unknown {
                talker_and_type,
                fields,
            } => {
                out.push_str(talker_and_type);
                for f in fields {
                    out.push(',');
                    out.push_str(f);
                }
            }
        }
        let sum = checksum(&out[body..]);
        const HEX: &[u8; 16] = b"0123456789ABCDEF";
        out.push('*');
        push_ascii(
            out,
            &[HEX[usize::from(sum >> 4)], HEX[usize::from(sum & 0xF)]],
        );
    }

    /// Serializes the sentence to its NMEA-0183 wire format, including the
    /// leading `$` and the `*hh` checksum (without a trailing newline);
    /// [`Sentence::write_nmea`] into a fresh `String`.
    ///
    /// ```
    /// use perpos_nmea::{parse_sentence, Sentence, Gga, FixQuality, NmeaTime};
    /// let gga = Gga {
    ///     time: NmeaTime::new(12, 35, 19, 0),
    ///     lat_deg: Some(48.1173),
    ///     lon_deg: Some(11.5167),
    ///     quality: FixQuality::Gps,
    ///     num_satellites: 8,
    ///     hdop: 0.9,
    ///     altitude_m: 545.4,
    ///     geoid_separation_m: 46.9,
    /// };
    /// let line = Sentence::Gga(gga.clone()).to_nmea_string();
    /// let reparsed = parse_sentence(&line)?;
    /// assert_eq!(reparsed.type_code(), "GGA");
    /// # Ok::<(), perpos_nmea::NmeaError>(())
    /// ```
    pub fn to_nmea_string(&self) -> String {
        let mut out = String::with_capacity(80);
        self.write_nmea(&mut out);
        out
    }
}

/// Re-encode of `FixQuality` used by the simulator when it degrades fixes.
impl From<FixQuality> for u8 {
    fn from(q: FixQuality) -> u8 {
        q.as_u8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{frame, parse_sentence};
    use crate::sentence::{Gga, Gsa, Gsv, NmeaTime, Rmc, SatelliteInfo, Vtg};
    use proptest::prelude::*;

    /// The `format!`-based encoder the fixed-point writer replaced, kept
    /// verbatim as the byte-level reference.
    mod reference {
        use crate::parser::checksum;
        use crate::sentence::{GsaFixType, Sentence};

        fn encode_time(t: &crate::NmeaTime) -> String {
            if t.millis == 0 {
                format!("{:02}{:02}{:02}", t.hour, t.minute, t.second)
            } else {
                format!(
                    "{:02}{:02}{:02}.{:03}",
                    t.hour, t.minute, t.second, t.millis
                )
            }
        }

        fn encode_lat(deg: Option<f64>) -> (String, String) {
            match deg {
                None => (String::new(), String::new()),
                Some(v) => {
                    let hemi = if v >= 0.0 { "N" } else { "S" };
                    let abs = v.abs();
                    let d = abs.floor();
                    let m = (abs - d) * 60.0;
                    (format!("{:02}{:07.4}", d as u32, m), hemi.to_string())
                }
            }
        }

        fn encode_lon(deg: Option<f64>) -> (String, String) {
            match deg {
                None => (String::new(), String::new()),
                Some(v) => {
                    let hemi = if v >= 0.0 { "E" } else { "W" };
                    let abs = v.abs();
                    let d = abs.floor();
                    let m = (abs - d) * 60.0;
                    (format!("{:03}{:07.4}", d as u32, m), hemi.to_string())
                }
            }
        }

        fn frame(body: String) -> String {
            format!("${body}*{:02X}", checksum(&body))
        }

        pub(super) fn to_nmea_string(s: &Sentence) -> String {
            match s {
                Sentence::Gga(g) => {
                    let (lat, ns) = encode_lat(g.lat_deg);
                    let (lon, ew) = encode_lon(g.lon_deg);
                    frame(format!(
                        "GPGGA,{},{},{},{},{},{},{:02},{:.1},{:.1},M,{:.1},M,,",
                        encode_time(&g.time),
                        lat,
                        ns,
                        lon,
                        ew,
                        g.quality.as_u8(),
                        g.num_satellites,
                        g.hdop,
                        g.altitude_m,
                        g.geoid_separation_m,
                    ))
                }
                Sentence::Rmc(r) => {
                    let (lat, ns) = encode_lat(r.lat_deg);
                    let (lon, ew) = encode_lon(r.lon_deg);
                    frame(format!(
                        "GPRMC,{},{},{},{},{},{},{:.1},{:.1},{},,",
                        encode_time(&r.time),
                        if r.valid { "A" } else { "V" },
                        lat,
                        ns,
                        lon,
                        ew,
                        r.speed_knots,
                        r.course_deg,
                        r.date,
                    ))
                }
                Sentence::Gsa(g) => {
                    let mut prn_fields = vec![String::new(); 12];
                    for (i, prn) in g.prns.iter().take(12).enumerate() {
                        prn_fields[i] = format!("{prn:02}");
                    }
                    let fix = match g.fix_type {
                        GsaFixType::NoFix => 1,
                        GsaFixType::Fix2d => 2,
                        GsaFixType::Fix3d => 3,
                    };
                    frame(format!(
                        "GPGSA,{},{},{},{:.1},{:.1},{:.1}",
                        if g.auto_selection { "A" } else { "M" },
                        fix,
                        prn_fields.join(","),
                        g.pdop,
                        g.hdop,
                        g.vdop,
                    ))
                }
                Sentence::Gsv(g) => {
                    let mut body = format!(
                        "GPGSV,{},{},{:02}",
                        g.total_messages, g.message_number, g.satellites_in_view
                    );
                    for s in g.satellites.iter().take(4) {
                        body.push_str(&format!(
                            ",{:02},{:02},{:03},{}",
                            s.prn,
                            s.elevation_deg,
                            s.azimuth_deg,
                            s.snr_db.map(|v| format!("{v:02}")).unwrap_or_default(),
                        ));
                    }
                    frame(body)
                }
                Sentence::Vtg(v) => frame(format!(
                    "GPVTG,{:.1},T,,M,{:.1},N,{:.1},K",
                    v.course_true_deg, v.speed_knots, v.speed_kmh,
                )),
                Sentence::Unknown {
                    talker_and_type,
                    fields,
                } => {
                    let mut body = talker_and_type.clone();
                    for f in fields {
                        body.push(',');
                        body.push_str(f);
                    }
                    frame(body)
                }
            }
        }
    }

    /// The reference line with the one intended deviation applied: a
    /// coordinate field whose minutes read `60.0000` carries into its
    /// degrees. Only coordinate fields can end in `60.0000` (every other
    /// float field has one decimal), so any other line is unchanged.
    fn with_minute_carry(line: &str) -> String {
        let body = &line[1..line.len() - 3];
        let fields: Vec<String> = body
            .split(',')
            .map(|f| match f.strip_suffix("60.0000") {
                Some(deg) if !deg.is_empty() && deg.bytes().all(|b| b.is_ascii_digit()) => {
                    let carried = deg.parse::<u64>().unwrap() + 1;
                    format!("{carried:0w$}00.0000", w = deg.len())
                }
                _ => f.to_string(),
            })
            .collect();
        let body = fields.join(",");
        format!("${body}*{:02X}", checksum(&body))
    }

    /// A splitmix64 stream that draws sentences from the input families
    /// the fixed-point writer must reproduce std on.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn signed(&mut self, v: f64) -> f64 {
            if self.next() & 1 == 1 {
                -v
            } else {
                v
            }
        }

        fn float(&mut self) -> f64 {
            const SPECIAL: [f64; 14] = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e15,
                -1e15,
                999_999_999_999_999.9,
                f64::MAX,
                1e300,
                f64::MIN_POSITIVE,
                0.05,
                0.15,
                0.25,
                0.03125,
                -0.04,
            ];
            match self.below(10) {
                // Random bit patterns: every exponent, NaN payloads, ±inf.
                0 => f64::from_bits(self.next()),
                // k/4: exact ties at one decimal (0.25, 0.75, …).
                1 => {
                    let k = self.below(40_000) as f64;
                    self.signed(k / 4.0)
                }
                // k/20000: the 5th-decimal ties, as near as binary gets.
                2 => {
                    let k = self.below(2_000_000) as f64;
                    self.signed(k / 20_000.0)
                }
                // j/32: exact ties at four decimals (0.03125, …).
                3 => {
                    let j = self.below(6_400) as f64;
                    self.signed(j / 32.0)
                }
                // -0.0 and negatives that round to zero.
                4 => -(self.below(500) as f64) * 1e-4,
                // Subnormals.
                5 => {
                    let frac = self.below(1 << 52);
                    self.signed(f64::from_bits(frac))
                }
                6 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
                // At or past the fixed-point limit: std's formatter.
                7 => {
                    let x = 1e15 * (1.0 + self.below(1 << 40) as f64);
                    self.signed(x)
                }
                // Ordinary magnitudes with arbitrary binary fractions.
                _ => {
                    let mant = self.below(1 << 53) as f64;
                    let scale = (1u64 << self.below(60)) as f64;
                    self.signed(mant / scale)
                }
            }
        }

        fn coord(&mut self, max_deg: u64) -> Option<f64> {
            let d = self.below(max_deg) as f64;
            match self.below(6) {
                0 => None,
                1 => Some(self.float()),
                // Minutes on (near-)ties at the 4th decimal.
                2 => {
                    let k = self.below(1_200_000) as f64;
                    Some(self.signed(d + k / 20_000.0 / 60.0))
                }
                // Just below an integer degree: the minute-carry region.
                3 => {
                    let eps = self.below(2_000) as f64 * 1e-10;
                    Some(self.signed(d + 1.0 - eps))
                }
                _ => {
                    let f = self.below(1 << 53) as f64 / (1u64 << 53) as f64;
                    Some(self.signed(d + f))
                }
            }
        }

        fn time(&mut self) -> NmeaTime {
            let millis = if self.next() & 1 == 1 {
                0
            } else {
                self.next() as u16
            };
            NmeaTime::new(
                self.next() as u8,
                self.next() as u8,
                self.next() as u8,
                millis,
            )
        }

        fn text(&mut self, max_len: u64) -> String {
            const ALPHABET: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ.-";
            (0..self.below(max_len + 1))
                .map(|_| char::from(ALPHABET[self.below(ALPHABET.len() as u64) as usize]))
                .collect()
        }

        fn sentence(&mut self, kind: u8) -> Sentence {
            match kind {
                0 => Sentence::Gga(Gga {
                    time: self.time(),
                    lat_deg: self.coord(90),
                    lon_deg: self.coord(180),
                    quality: FixQuality::from_u8(self.next() as u8),
                    num_satellites: self.next() as u8,
                    hdop: self.float(),
                    altitude_m: self.float(),
                    geoid_separation_m: self.float(),
                }),
                1 => Sentence::Rmc(Rmc {
                    time: self.time(),
                    valid: self.next() & 1 == 1,
                    lat_deg: self.coord(90),
                    lon_deg: self.coord(180),
                    speed_knots: self.float(),
                    course_deg: self.float(),
                    date: self.text(6),
                }),
                2 => Sentence::Gsa(Gsa {
                    auto_selection: self.next() & 1 == 1,
                    fix_type: [GsaFixType::NoFix, GsaFixType::Fix2d, GsaFixType::Fix3d]
                        [self.below(3) as usize],
                    prns: (0..self.below(15)).map(|_| self.next() as u8).collect(),
                    pdop: self.float(),
                    hdop: self.float(),
                    vdop: self.float(),
                }),
                3 => Sentence::Gsv(Gsv {
                    total_messages: self.next() as u8,
                    message_number: self.next() as u8,
                    satellites_in_view: self.next() as u8,
                    satellites: (0..self.below(7))
                        .map(|_| SatelliteInfo {
                            prn: self.next() as u8,
                            elevation_deg: self.next() as u8,
                            azimuth_deg: self.next() as u16,
                            snr_db: (self.next() & 1 == 1).then(|| self.next() as u8),
                        })
                        .collect(),
                }),
                4 => Sentence::Vtg(Vtg {
                    course_true_deg: self.float(),
                    speed_knots: self.float(),
                    speed_kmh: self.float(),
                }),
                _ => Sentence::Unknown {
                    talker_and_type: format!("GP{}", self.text(3)),
                    fields: (0..self.below(9)).map(|_| self.text(4)).collect(),
                },
            }
        }
    }

    /// Cases of the reference property; the release-mode run (CI's
    /// "NMEA encoder equivalence" step) uses the full count.
    const REFERENCE_CASES: u32 = if cfg!(debug_assertions) {
        20_000
    } else {
        400_000
    };

    /// The time the encoder writes: as given when the parser accepts
    /// it, otherwise the same instant wrapped into one day.
    fn canonical(t: NmeaTime) -> NmeaTime {
        if t.hour < 24 && t.minute < 60 && t.second <= 60 && t.millis < 1000 {
            t
        } else {
            NmeaTime::from_seconds_of_day(t.seconds_of_day())
        }
    }

    /// `sentence` with its time, if it has one, made [`canonical`]: the
    /// second intended deviation from the reference, which writes any
    /// field values as they are.
    fn with_canonical_time(mut sentence: Sentence) -> Sentence {
        if let Sentence::Gga(Gga { time, .. }) | Sentence::Rmc(Rmc { time, .. }) = &mut sentence {
            *time = canonical(*time);
        }
        sentence
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(REFERENCE_CASES))]
        fn encoder_matches_format_reference(seed in any::<u64>(), kind in 0u8..6) {
            let sentence = Gen(seed).sentence(kind);
            let ours = sentence.to_nmea_string();
            let reference = reference::to_nmea_string(&with_canonical_time(sentence.clone()));
            prop_assert_eq!(&ours, &with_minute_carry(&reference), "{:?}", sentence);
            prop_assert_eq!(&sentence.to_string(), &ours);
        }

        fn any_time_reparses_as_its_canonical_form(
            hour in any::<u8>(),
            minute in any::<u8>(),
            second in any::<u8>(),
            millis in any::<u16>(),
        ) {
            let time = NmeaTime::new(hour, minute, second, millis);
            let line = Sentence::Gga(Gga { time, ..Gga::default() }).to_nmea_string();
            let Ok(Sentence::Gga(back)) = parse_sentence(&line) else {
                return Err(TestCaseError::fail(format!("{line} does not re-parse as GGA")));
            };
            prop_assert_eq!(back.time, canonical(time), "{}", line);
        }
    }

    #[test]
    fn generator_reaches_every_family() {
        let mut g = Gen(7);
        let (mut carries, mut fallbacks, mut subnormals) = (0, 0, 0);
        for i in 0..50_000u32 {
            let s = g.sentence((i % 2) as u8);
            let reference = reference::to_nmea_string(&s);
            carries += usize::from(with_minute_carry(&reference) != reference);
            let v = g.float();
            fallbacks += usize::from(scaled_abs(v, 1).is_none());
            subnormals += usize::from(v.is_subnormal());
        }
        assert!(carries > 10, "{carries} minute carries");
        assert!(fallbacks > 100, "{fallbacks} fallback floats");
        assert!(subnormals > 100, "{subnormals} subnormals");
    }

    #[test]
    fn fixed_point_rounds_like_std() {
        let cases: [(f64, u32, usize, &str); 10] = [
            (0.03125, 4, 0, "0.0312"),
            (0.09375, 4, 0, "0.0938"),
            (0.25, 1, 0, "0.2"),
            (0.75, 1, 0, "0.8"),
            (-0.04, 1, 0, "-0.0"),
            (-0.0, 1, 0, "-0.0"),
            (5.0, 4, 7, "05.0000"),
            (-1.5, 4, 7, "-1.5000"),
            (59.99995, 4, 7, "59.9999"),
            (123_456.78, 1, 0, "123456.8"),
        ];
        for (v, prec, width, want) in cases {
            let mut out = String::new();
            push_fixed(&mut out, v, prec, width);
            assert_eq!(out, want, "{v}");
            let prec = prec as usize;
            assert_eq!(out, format!("{v:0width$.prec$}"), "{v}");
        }
    }

    #[test]
    fn out_of_range_times_are_written_carried_and_wrapped() {
        for ((h, m, s, ms), want) in [
            ((23, 59, 60, 0), "235960"),
            ((23, 59, 60, 999), "235960.999"),
            ((12, 35, 19, 1000), "123520"),
            ((0, 0, 0, 65_535), "000105.535"),
            ((25, 61, 0, 0), "020100"),
            ((23, 59, 59, 1000), "000000"),
            ((255, 255, 255, 0), "191915"),
        ] {
            let mut out = String::new();
            push_time(&mut out, &NmeaTime::new(h, m, s, ms));
            assert_eq!(out, want, "{h}:{m}:{s}.{ms}");
        }
    }

    #[test]
    fn write_nmea_appends_and_checksums_only_its_line() {
        let sentence = Sentence::Gga(Gga {
            time: NmeaTime::new(12, 35, 19, 250),
            lat_deg: Some(48.1173),
            lon_deg: Some(-11.5167),
            quality: FixQuality::Gps,
            num_satellites: 8,
            hdop: 0.9,
            altitude_m: 545.4,
            geoid_separation_m: 46.9,
        });
        let mut buf = String::from("$GPXXX,stale*00\r\n");
        let prefix = buf.clone();
        sentence.write_nmea(&mut buf);
        let line = buf.strip_prefix(&prefix).unwrap().to_string();
        assert_eq!(line, sentence.to_nmea_string());
        assert!(frame(&line).is_ok(), "{line}");
        // A second append into the same buffer is framed independently.
        let start = buf.len();
        sentence.write_nmea(&mut buf);
        assert_eq!(&buf[start..], line);
    }

    #[test]
    fn minutes_rounding_to_sixty_carry_into_degrees() {
        // (lat, lon) just below an integer degree in every hemisphere;
        // 0.9999999° is 59.999994′, which rounds to 60.0000.
        let below = 1e-7;
        let cases = [
            (57.0 - below, 11.0 - below, "5700.0000,N", "01100.0000,E"),
            (-(57.0 - below), 11.0 - below, "5700.0000,S", "01100.0000,E"),
            (57.0 - below, -(11.0 - below), "5700.0000,N", "01100.0000,W"),
            (
                -(57.0 - below),
                -(11.0 - below),
                "5700.0000,S",
                "01100.0000,W",
            ),
            (1.0 - below, 100.0 - below, "0100.0000,N", "10000.0000,E"),
        ];
        for (lat, lon, lat_field, lon_field) in cases {
            let gga = Sentence::Gga(Gga {
                lat_deg: Some(lat),
                lon_deg: Some(lon),
                quality: FixQuality::Gps,
                ..Gga::default()
            });
            let rmc = Sentence::Rmc(Rmc {
                valid: true,
                lat_deg: Some(lat),
                lon_deg: Some(lon),
                date: "010170".into(),
                ..Rmc::default()
            });
            for sentence in [gga, rmc] {
                let line = sentence.to_nmea_string();
                assert!(
                    line.contains(lat_field) && line.contains(lon_field),
                    "{line}"
                );
                let back = parse_sentence(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                let (back_lat, back_lon) = match back {
                    Sentence::Gga(g) => (g.lat_deg, g.lon_deg),
                    Sentence::Rmc(r) => (r.lat_deg, r.lon_deg),
                    other => panic!("unexpected {other:?}"),
                };
                // Within 1e-4 minutes of the input.
                let tol = 1e-4 / 60.0;
                assert!((back_lat.unwrap() - lat).abs() < tol, "{line}");
                assert!((back_lon.unwrap() - lon).abs() < tol, "{line}");
            }
        }
    }

    #[test]
    fn gga_round_trip() {
        let gga = Gga {
            time: NmeaTime::new(1, 2, 3, 0),
            lat_deg: Some(56.172),
            lon_deg: Some(-10.187),
            quality: FixQuality::Dgps,
            num_satellites: 7,
            hdop: 1.2,
            altitude_m: 31.0,
            geoid_separation_m: 40.1,
        };
        let line = Sentence::Gga(gga.clone()).to_nmea_string();
        let Sentence::Gga(back) = parse_sentence(&line).unwrap() else {
            panic!("not GGA: {line}");
        };
        assert_eq!(back.num_satellites, gga.num_satellites);
        assert_eq!(back.quality, gga.quality);
        assert!((back.lat_deg.unwrap() - 56.172).abs() < 1e-5);
        assert!((back.lon_deg.unwrap() - (-10.187)).abs() < 1e-5);
    }

    #[test]
    fn invalid_gga_round_trip_keeps_empty_position() {
        let gga = Gga::default();
        let line = Sentence::Gga(gga).to_nmea_string();
        let Sentence::Gga(back) = parse_sentence(&line).unwrap() else {
            panic!("not GGA");
        };
        assert_eq!(back.lat_deg, None);
        assert!(!back.quality.has_fix());
    }

    #[test]
    fn rmc_round_trip() {
        let rmc = Rmc {
            time: NmeaTime::new(23, 59, 59, 0),
            valid: true,
            lat_deg: Some(-33.9),
            lon_deg: Some(151.2),
            speed_knots: 4.5,
            course_deg: 270.0,
            date: "010170".into(),
        };
        let line = Sentence::Rmc(rmc.clone()).to_nmea_string();
        let Sentence::Rmc(back) = parse_sentence(&line).unwrap() else {
            panic!("not RMC: {line}");
        };
        assert!(back.valid);
        assert!((back.lat_deg.unwrap() + 33.9).abs() < 1e-5);
        assert!((back.speed_knots - 4.5).abs() < 1e-9);
    }

    #[test]
    fn gsa_round_trip() {
        let gsa = Gsa {
            auto_selection: true,
            fix_type: GsaFixType::Fix3d,
            prns: vec![1, 2, 3],
            pdop: 2.0,
            hdop: 1.0,
            vdop: 1.7,
        };
        let line = Sentence::Gsa(gsa.clone()).to_nmea_string();
        let Sentence::Gsa(back) = parse_sentence(&line).unwrap() else {
            panic!("not GSA: {line}");
        };
        assert_eq!(back.prns, gsa.prns);
        assert_eq!(back.fix_type, GsaFixType::Fix3d);
    }

    #[test]
    fn gsv_round_trip() {
        let gsv = Gsv {
            total_messages: 1,
            message_number: 1,
            satellites_in_view: 2,
            satellites: vec![
                SatelliteInfo {
                    prn: 4,
                    elevation_deg: 60,
                    azimuth_deg: 120,
                    snr_db: Some(42),
                },
                SatelliteInfo {
                    prn: 9,
                    elevation_deg: 15,
                    azimuth_deg: 310,
                    snr_db: None,
                },
            ],
        };
        let line = Sentence::Gsv(gsv.clone()).to_nmea_string();
        let Sentence::Gsv(back) = parse_sentence(&line).unwrap() else {
            panic!("not GSV: {line}");
        };
        assert_eq!(back.satellites.len(), 2);
        assert_eq!(back.satellites[0].snr_db, Some(42));
        assert_eq!(back.satellites[1].snr_db, None);
    }

    #[test]
    fn vtg_round_trip() {
        let vtg = Vtg {
            course_true_deg: 12.5,
            speed_knots: 3.2,
            speed_kmh: 5.9,
        };
        let line = Sentence::Vtg(vtg).to_nmea_string();
        let Sentence::Vtg(back) = parse_sentence(&line).unwrap() else {
            panic!("not VTG: {line}");
        };
        assert!((back.speed_kmh - 5.9).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn gga_position_round_trips(
            lat in -89.0f64..89.0,
            lon in -179.0f64..179.0,
            sats in 0u8..13,
            hdop in 0.5f64..20.0,
        ) {
            let gga = Gga {
                time: NmeaTime::new(10, 20, 30, 0),
                lat_deg: Some(lat),
                lon_deg: Some(lon),
                quality: FixQuality::Gps,
                num_satellites: sats,
                hdop,
                altitude_m: 10.0,
                geoid_separation_m: 0.0,
            };
            let line = Sentence::Gga(gga).to_nmea_string();
            let Sentence::Gga(back) = parse_sentence(&line).unwrap() else {
                panic!("not GGA");
            };
            // 4 decimal minute digits give ~0.2 m resolution -> 1e-5 deg slack.
            prop_assert!((back.lat_deg.unwrap() - lat).abs() < 2e-5);
            prop_assert!((back.lon_deg.unwrap() - lon).abs() < 2e-5);
            prop_assert_eq!(back.num_satellites, sats);
            prop_assert!((back.hdop - hdop).abs() < 0.05 + 1e-9);
        }
    }
}
