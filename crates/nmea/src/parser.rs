use std::num::ParseFloatError;
use std::str::FromStr;

use crate::sentence::{
    FixQuality, Gga, Gsa, GsaFixType, Gsv, NmeaTime, Rmc, SatelliteInfo, Sentence, Vtg,
};
use crate::{FrameError, NmeaError};

/// Maximum sentence length (including `$` and checksum) per NMEA-0183.
pub(crate) const MAX_SENTENCE_LEN: usize = 82;

/// Computes the NMEA checksum (XOR of all bytes) over a sentence body,
/// i.e. the characters between `$` and `*`.
///
/// ```
/// assert_eq!(perpos_nmea::checksum("GPGGA,,,,,,0,00,,,M,,M,,"), 0x66);
/// ```
pub fn checksum(body: &str) -> u8 {
    body.bytes().fold(0, |acc, b| acc ^ b)
}

/// The body (between `$` and the final `*`) of a well-framed line: the
/// one framing rule of the workspace.
///
/// A line is well framed when, with any trailing `\r`/`\n` terminator
/// stripped, it
///
/// 1. is at most 82 bytes long (the NMEA-0183 maximum),
/// 2. starts with `$`,
/// 3. holds printable ASCII (0x20–0x7E) only, and
/// 4. ends in `*hh`: exactly two hex digits, either case and no sign,
///    equal to the [`checksum`] of the body.
///
/// The first rule a line breaks is its [`FrameError`]. A `*` inside the
/// body is a body byte. [`parse_sentence`] and [`is_valid_sentence`]
/// frame every line with it, and so does `perpos-sensors`' `scan_block`,
/// so a block scan and the Parser component cannot disagree on what a
/// sentence is.
///
/// ```
/// use perpos_nmea::{frame, FrameError};
///
/// assert_eq!(frame("$GPZDA,1,|*05\r\n"), Ok("GPZDA,1,|"));
/// assert_eq!(frame("$GPZDA,1,|*+5"), Err(FrameError::MalformedChecksum));
/// assert_eq!(frame("$GPZDA,1,|"), Err(FrameError::MissingChecksum));
/// ```
pub fn frame(line: &str) -> Result<&str, FrameError> {
    let s = line.trim_end_matches(['\r', '\n']);
    let bytes = s.as_bytes();
    if bytes.len() > MAX_SENTENCE_LEN {
        return Err(FrameError::TooLong { len: bytes.len() });
    }
    if bytes.first() != Some(&b'$') {
        return Err(FrameError::MissingStart);
    }
    let printable = |b: &u8| (0x20..0x7f).contains(b);
    // An OR-reduction vectorizes where a short-circuiting search goes
    // byte by byte; the offset is only looked for on the error path.
    if bytes.iter().fold(false, |bad, b| bad | !printable(b)) {
        let offset = bytes.iter().position(|b| !printable(b)).unwrap_or(0);
        return Err(FrameError::NotPrintable { offset });
    }
    let hex = |b: u8| char::from(b).to_digit(16);
    let transmitted = match bytes {
        [.., b'*', hi, lo] => hex(*hi).zip(hex(*lo)).map(|(h, l)| (h << 4 | l) as u8),
        _ => None,
    };
    let Some(transmitted) = transmitted else {
        return Err(if bytes.contains(&b'*') {
            FrameError::MalformedChecksum
        } else {
            FrameError::MissingChecksum
        });
    };
    let body = &s[1..s.len() - 3];
    let computed = checksum(body);
    if computed != transmitted {
        return Err(FrameError::ChecksumMismatch {
            computed,
            transmitted,
        });
    }
    Ok(body)
}

/// The three-letter type of an NMEA line or bare address field, read
/// without parsing or validating anything else: `"GGA"` for both
/// `"$GPGGA,123519,…*47"` and `"GPGGA"`.
///
/// The leading `$` is optional and the address ends at the first `,` or
/// `*`. The type is the three characters after the two-character talker
/// ID; an address shorter than five bytes is its own type. Returns
/// `None` when those characters do not fall on `char` boundaries
/// (non-ASCII input, which [`frame`] rejects).
///
/// This is the one place a type is read from text: [`parse_sentence`]
/// dispatches on it, [`Sentence::type_code`] reports it for unknown
/// types, and consumers peek with it before paying for a full parse. On
/// any line that passes [`frame`] the peek and the parser read
/// the same address, so they cannot disagree.
///
/// ```
/// assert_eq!(perpos_nmea::sentence_type("$GPGGA,123519*00"), Some("GGA"));
/// assert_eq!(perpos_nmea::sentence_type("GPZDA"), Some("ZDA"));
/// assert_eq!(perpos_nmea::sentence_type("$GPXYé,1"), None);
/// ```
pub fn sentence_type(line: &str) -> Option<&str> {
    let s = line.strip_prefix('$').unwrap_or(line);
    let end = s.bytes().position(|b| b == b',' || b == b'*');
    let address = &s[..end.unwrap_or(s.len())];
    if address.len() >= 5 {
        address.get(2..5)
    } else {
        Some(address)
    }
}

/// The comma-separated fields of a framed sentence body, located in one
/// pass over its bytes.
///
/// `ends[0]` is the offset of the comma that closes the address and
/// `ends[i + 1]` the offset of the comma (or the body end) that closes
/// data field `i`. A framed body is at most 78 bytes, so every offset
/// fits a `u8` and the array has a slot for every comma.
struct Fields<'a> {
    body: &'a str,
    ends: [u8; MAX_SENTENCE_LEN],
    /// Data fields after the address.
    len: usize,
}

impl<'a> Fields<'a> {
    fn scan(body: &'a str) -> Self {
        debug_assert!(body.len() < MAX_SENTENCE_LEN, "scan a framed body only");
        let mut ends = [0; MAX_SENTENCE_LEN];
        let mut len = 0;
        // Eight bytes at a time: a word's commas become the high bits of
        // its lanes (exact per byte, no carries across lanes), and each
        // set bit is one comma. The last word is zero-padded.
        const LOW7: u64 = u64::from_ne_bytes([0x7f; 8]);
        const COMMAS: u64 = u64::from_ne_bytes([b','; 8]);
        let bytes = body.as_bytes();
        for at in (0..bytes.len()).step_by(8) {
            let mut lanes = [0; 8];
            match bytes.get(at..at + 8) {
                Some(word) => lanes.copy_from_slice(word),
                None => lanes[..bytes.len() - at].copy_from_slice(&bytes[at..]),
            }
            let x = u64::from_le_bytes(lanes) ^ COMMAS;
            let mut mask = !(((x & LOW7) + LOW7) | x | LOW7);
            while mask != 0 {
                ends[len] = (at + mask.trailing_zeros() as usize / 8) as u8;
                len += 1;
                mask &= mask - 1;
            }
        }
        ends[len] = body.len() as u8;
        Fields { body, ends, len }
    }

    fn address(&self) -> &'a str {
        &self.body[..usize::from(self.ends[0])]
    }

    /// Data field `i`, 0-based after the address; `i < self.len`.
    fn at(&self, i: usize) -> &'a str {
        &self.body[usize::from(self.ends[i]) + 1..usize::from(self.ends[i + 1])]
    }
}

/// A field in the plain decimal grammar `-?d*(.d*)?` with at least one
/// digit. Every such field is a valid `f64` literal.
struct Decimal {
    negative: bool,
    /// The digits as an integer; exact while `digits` is at most 19.
    mantissa: u64,
    digits: u32,
    /// Digits after the point.
    scale: u32,
}

fn lex_decimal(text: &str) -> Option<Decimal> {
    let (negative, bytes) = match text.as_bytes() {
        [b'-', rest @ ..] => (true, rest),
        bytes => (false, bytes),
    };
    let (mut mantissa, mut digits, mut point) = (0u64, 0u32, None);
    for &b in bytes {
        match b {
            b'0'..=b'9' => {
                mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                digits += 1;
            }
            b'.' if point.is_none() => point = Some(digits),
            _ => return None,
        }
    }
    (digits > 0).then(|| Decimal {
        negative,
        mantissa,
        digits,
        scale: point.map_or(0, |p| digits - p),
    })
}

/// Most digits the exact path decodes: their integer stays below 2^53,
/// so it and every power of ten it is divided by are exact `f64`s.
const EXACT_DIGITS: u32 = 15;

const POW10: [f64; EXACT_DIGITS as usize + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Decodes a float field exactly as `str::parse::<f64>` does, bit for bit.
///
/// A plain decimal of at most 15 digits is one correctly rounded
/// division of two exact `f64`s, integer ÷ 10^scale (Clinger's fast
/// path), which is the correctly rounded value `str::parse` returns.
/// Every other text goes to `str::parse`.
fn parse_decimal(text: &str) -> Result<f64, ParseFloatError> {
    match lex_decimal(text) {
        Some(d) if d.digits <= EXACT_DIGITS => {
            let magnitude = d.mantissa as f64 / POW10[d.scale as usize];
            Ok(if d.negative { -magnitude } else { magnitude })
        }
        _ => text.parse(),
    }
}

/// Parses one complete NMEA sentence (with `$` framing and checksum).
///
/// Unrecognized sentence types parse to [`Sentence::Unknown`] so a PerPos
/// Parser component can still forward them.
///
/// # Errors
///
/// Returns [`NmeaError::Frame`] when [`frame`] rejects the line, and
/// another [`NmeaError`] when a required field is missing or invalid.
pub fn parse_sentence(sentence: &str) -> Result<Sentence, NmeaError> {
    let body = frame(sentence)?;
    let f = Fields::scan(body);
    match sentence_type(body) {
        Some("GGA") => parse_gga(&f).map(Sentence::Gga),
        Some("RMC") => parse_rmc(&f).map(Sentence::Rmc),
        Some("GSA") => parse_gsa(&f).map(Sentence::Gsa),
        Some("GSV") => parse_gsv(&f).map(Sentence::Gsv),
        Some("VTG") => parse_vtg(&f).map(Sentence::Vtg),
        _ => Ok(Sentence::Unknown {
            talker_and_type: f.address().to_string(),
            fields: (0..f.len).map(|i| f.at(i).to_string()).collect(),
        }),
    }
}

/// Whether [`parse_sentence`] accepts `line`, decided without decoding a
/// float or allocating.
///
/// The accept set is exactly `parse_sentence(line).is_ok()`: [`frame`],
/// each modelled type's field count, and every field the parser decodes,
/// checked against its grammar. Sentence types the crate does not model
/// are valid once the line is framed. The rare field
/// outside the plain grammar (a float written `1e3` or `+5`, a
/// coordinate with a sign or more than 15 digits) is left to
/// [`parse_sentence`].
///
/// ```
/// use perpos_nmea::is_valid_sentence;
///
/// assert!(is_valid_sentence("$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47"));
/// // 61 minutes is not a latitude.
/// assert!(!is_valid_sentence("$GPGGA,123519,4861.000,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*4C"));
/// ```
pub fn is_valid_sentence(line: &str) -> bool {
    let Ok(body) = frame(line) else {
        return false;
    };
    let f = Fields::scan(body);
    let verdict = match sentence_type(body) {
        Some("GGA") => check_gga(&f),
        Some("RMC") => check_rmc(&f),
        Some("GSA") => check_gsa(&f),
        Some("GSV") => check_gsv(&f),
        Some("VTG") => check_vtg(&f),
        _ => Ok(()),
    };
    match verdict {
        Ok(()) => true,
        Err(Stop::Invalid) => false,
        Err(Stop::Undecided) => parse_sentence(line).is_ok(),
    }
}

fn need(f: &Fields<'_>, n: usize, sentence: &'static str) -> Result<(), NmeaError> {
    if f.len < n {
        Err(NmeaError::TooFewFields {
            sentence,
            got: f.len,
            need: n,
        })
    } else {
        Ok(())
    }
}

/// Hour, minute and second of a non-empty time field, in range. The
/// grammar is strict: six ASCII digits `hhmmss`, optionally followed by
/// `.` and one or more digits (the fraction, from byte 6), and nothing
/// else.
fn clock(text: &str) -> Option<(u8, u8, u8)> {
    let (hms, fraction) = text.as_bytes().split_at_checked(6)?;
    let digits = |d: &[u8]| d.iter().all(u8::is_ascii_digit);
    let fraction_ok = match fraction {
        [] => true,
        [b'.', frac @ ..] => !frac.is_empty() && digits(frac),
        _ => false,
    };
    if !(fraction_ok && digits(hms)) {
        return None;
    }
    let two = |at: usize| (hms[at] - b'0') * 10 + (hms[at + 1] - b'0');
    let (hour, minute, second) = (two(0), two(2), two(4));
    (hour <= 23 && minute <= 59 && second <= 60).then_some((hour, minute, second))
}

fn parse_time(text: &str) -> Result<NmeaTime, NmeaError> {
    if text.is_empty() {
        return Ok(NmeaTime::default());
    }
    let bad = || NmeaError::InvalidField {
        field: "time",
        value: text.to_string(),
    };
    let (hour, minute, second) = clock(text).ok_or_else(bad)?;
    let millis = match &text[6..] {
        "" => 0,
        // Capped as `NmeaTime::from_seconds_of_day` caps: `.9996` is 999
        // ms, not a 1000 the encoder would write as `.1000`.
        fraction => {
            let frac_val = parse_decimal(fraction).map_err(|_| bad())?;
            ((frac_val * 1000.0).round() as u16).min(999)
        }
    };
    Ok(NmeaTime::new(hour, minute, second, millis))
}

/// Parses `ddmm.mmmm` / `dddmm.mmmm` plus hemisphere into decimal degrees.
fn parse_coord(value: &str, hemi: &str, field: &'static str) -> Result<Option<f64>, NmeaError> {
    if value.is_empty() || hemi.is_empty() {
        return Ok(None);
    }
    let bad = || NmeaError::InvalidField {
        field,
        value: format!("{value},{hemi}"),
    };
    let dot = value.find('.').unwrap_or(value.len());
    if dot < 3 {
        return Err(bad());
    }
    let (deg_text, min_text) = value.split_at_checked(dot - 2).ok_or_else(bad)?;
    let degrees = parse_decimal(deg_text).map_err(|_| bad())?;
    let minutes = parse_decimal(min_text).map_err(|_| bad())?;
    if minutes >= 60.0 {
        return Err(bad());
    }
    let magnitude = degrees + minutes / 60.0;
    let signed = match hemi {
        "N" | "E" => magnitude,
        "S" | "W" => -magnitude,
        _ => return Err(bad()),
    };
    Ok(Some(signed))
}

fn parse_f64_or(text: &str, default: f64, field: &'static str) -> Result<f64, NmeaError> {
    if text.is_empty() {
        return Ok(default);
    }
    parse_decimal(text).map_err(|_| NmeaError::InvalidField {
        field,
        value: text.to_string(),
    })
}

fn parse_int_or<T: FromStr>(text: &str, default: T, field: &'static str) -> Result<T, NmeaError> {
    if text.is_empty() {
        return Ok(default);
    }
    text.parse().map_err(|_| NmeaError::InvalidField {
        field,
        value: text.to_string(),
    })
}

fn parse_gga(f: &Fields<'_>) -> Result<Gga, NmeaError> {
    need(f, 14, "GGA")?;
    Ok(Gga {
        time: parse_time(f.at(0))?,
        lat_deg: parse_coord(f.at(1), f.at(2), "latitude")?,
        lon_deg: parse_coord(f.at(3), f.at(4), "longitude")?,
        quality: FixQuality::from_u8(parse_int_or(f.at(5), 0, "quality")?),
        num_satellites: parse_int_or(f.at(6), 0, "satellites")?,
        hdop: parse_f64_or(f.at(7), 99.9, "hdop")?,
        altitude_m: parse_f64_or(f.at(8), 0.0, "altitude")?,
        geoid_separation_m: parse_f64_or(f.at(10), 0.0, "geoid separation")?,
    })
}

fn parse_rmc(f: &Fields<'_>) -> Result<Rmc, NmeaError> {
    need(f, 9, "RMC")?;
    Ok(Rmc {
        time: parse_time(f.at(0))?,
        valid: f.at(1) == "A",
        lat_deg: parse_coord(f.at(2), f.at(3), "latitude")?,
        lon_deg: parse_coord(f.at(4), f.at(5), "longitude")?,
        speed_knots: parse_f64_or(f.at(6), 0.0, "speed")?,
        course_deg: parse_f64_or(f.at(7), 0.0, "course")?,
        date: f.at(8).to_string(),
    })
}

fn parse_gsa(f: &Fields<'_>) -> Result<Gsa, NmeaError> {
    need(f, 17, "GSA")?;
    let fix_type = match f.at(1) {
        "2" => GsaFixType::Fix2d,
        "3" => GsaFixType::Fix3d,
        _ => GsaFixType::NoFix,
    };
    let prns = (2..14)
        .map(|i| f.at(i))
        .filter(|p| !p.is_empty())
        .map(|p| parse_int_or(p, 0, "prn"))
        .collect::<Result<_, NmeaError>>()?;
    Ok(Gsa {
        auto_selection: f.at(0) == "A",
        fix_type,
        prns,
        pdop: parse_f64_or(f.at(14), 99.9, "pdop")?,
        hdop: parse_f64_or(f.at(15), 99.9, "hdop")?,
        vdop: parse_f64_or(f.at(16), 99.9, "vdop")?,
    })
}

/// The satellite groups of a GSV sentence: four fields each from field
/// 3, up to the first group with an empty PRN. A last group cut to three
/// fields has no SNR.
fn gsv_groups<'a>(f: &'a Fields<'a>) -> impl Iterator<Item = [&'a str; 4]> + 'a {
    (3..)
        .step_by(4)
        .take_while(|&i| i + 3 <= f.len && !f.at(i).is_empty())
        .map(|i| {
            let snr = if i + 3 < f.len { f.at(i + 3) } else { "" };
            [f.at(i), f.at(i + 1), f.at(i + 2), snr]
        })
}

fn parse_gsv(f: &Fields<'_>) -> Result<Gsv, NmeaError> {
    need(f, 3, "GSV")?;
    let satellites = gsv_groups(f)
        .map(|[prn, elevation, azimuth, snr]| {
            Ok(SatelliteInfo {
                prn: parse_int_or(prn, 0, "prn")?,
                elevation_deg: parse_int_or(elevation, 0, "elevation")?,
                azimuth_deg: parse_int_or(azimuth, 0, "azimuth")?,
                snr_db: if snr.is_empty() {
                    None
                } else {
                    Some(parse_int_or(snr, 0, "snr")?)
                },
            })
        })
        .collect::<Result<_, NmeaError>>()?;
    Ok(Gsv {
        total_messages: parse_int_or(f.at(0), 1, "total messages")?,
        message_number: parse_int_or(f.at(1), 1, "message number")?,
        satellites_in_view: parse_int_or(f.at(2), 0, "satellites in view")?,
        satellites,
    })
}

fn parse_vtg(f: &Fields<'_>) -> Result<Vtg, NmeaError> {
    need(f, 7, "VTG")?;
    Ok(Vtg {
        course_true_deg: parse_f64_or(f.at(0), 0.0, "course")?,
        speed_knots: parse_f64_or(f.at(4), 0.0, "speed knots")?,
        speed_kmh: parse_f64_or(f.at(6), 0.0, "speed kmh")?,
    })
}

/// Why a field check stopped short of accepting.
enum Stop {
    /// [`parse_sentence`] rejects the field.
    Invalid,
    /// The field is outside the plain grammar; only a full parse can tell.
    Undecided,
}

type Check = Result<(), Stop>;

fn valid_if(ok: bool) -> Check {
    if ok {
        Ok(())
    } else {
        Err(Stop::Invalid)
    }
}

/// A time in the strict grammar always decodes: its fraction is plain
/// digits.
fn check_time(text: &str) -> Check {
    valid_if(text.is_empty() || clock(text).is_some())
}

/// A plain unsigned coordinate of at most 15 digits has parseable degrees
/// and minutes, and its minutes are below 60 exactly when their first
/// digit is below 6: 15 digits cannot round up to 60.
fn check_coord(value: &str, hemi: &str) -> Check {
    if value.is_empty() || hemi.is_empty() {
        return Ok(());
    }
    let dot = match lex_decimal(value) {
        Some(d) if !d.negative && d.digits <= EXACT_DIGITS => (d.digits - d.scale) as usize,
        _ => return Err(Stop::Undecided),
    };
    let minutes_below_60 = dot >= 3 && value.as_bytes()[dot - 2] <= b'5';
    valid_if(minutes_below_60 && matches!(hemi, "N" | "E" | "S" | "W"))
}

fn check_float(text: &str) -> Check {
    if text.is_empty() || lex_decimal(text).is_some() {
        Ok(())
    } else {
        Err(Stop::Undecided)
    }
}

fn check_int<T: FromStr>(text: &str) -> Check {
    valid_if(text.is_empty() || text.parse::<T>().is_ok())
}

fn check_gga(f: &Fields<'_>) -> Check {
    valid_if(f.len >= 14)?;
    check_time(f.at(0))?;
    check_coord(f.at(1), f.at(2))?;
    check_coord(f.at(3), f.at(4))?;
    check_int::<u8>(f.at(5))?;
    check_int::<u8>(f.at(6))?;
    check_float(f.at(7))?;
    check_float(f.at(8))?;
    check_float(f.at(10))
}

fn check_rmc(f: &Fields<'_>) -> Check {
    valid_if(f.len >= 9)?;
    check_time(f.at(0))?;
    check_coord(f.at(2), f.at(3))?;
    check_coord(f.at(4), f.at(5))?;
    check_float(f.at(6))?;
    check_float(f.at(7))
}

fn check_gsa(f: &Fields<'_>) -> Check {
    valid_if(f.len >= 17)?;
    for i in 2..14 {
        check_int::<u8>(f.at(i))?;
    }
    check_float(f.at(14))?;
    check_float(f.at(15))?;
    check_float(f.at(16))
}

fn check_gsv(f: &Fields<'_>) -> Check {
    valid_if(f.len >= 3)?;
    for [prn, elevation, azimuth, snr] in gsv_groups(f) {
        check_int::<u8>(prn)?;
        check_int::<u8>(elevation)?;
        check_int::<u16>(azimuth)?;
        check_int::<u8>(snr)?;
    }
    (0..3).try_for_each(|i| check_int::<u8>(f.at(i)))
}

fn check_vtg(f: &Fields<'_>) -> Check {
    valid_if(f.len >= 7)?;
    check_float(f.at(0))?;
    check_float(f.at(4))?;
    check_float(f.at(6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GGA: &str = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47";
    const RMC: &str = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A";
    const GSA: &str = "$GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,1.3,2.1*39";
    const GSV: &str = "$GPGSV,2,1,08,01,40,083,46,02,17,308,41,12,07,344,39,14,22,228,45*75";
    const VTG: &str = "$GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*48";

    #[test]
    fn parses_gga() {
        let Sentence::Gga(g) = parse_sentence(GGA).unwrap() else {
            panic!("not GGA");
        };
        assert_eq!(g.time, NmeaTime::new(12, 35, 19, 0));
        assert!((g.lat_deg.unwrap() - (48.0 + 7.038 / 60.0)).abs() < 1e-9);
        assert!((g.lon_deg.unwrap() - (11.0 + 31.0 / 60.0)).abs() < 1e-9);
        assert_eq!(g.quality, FixQuality::Gps);
        assert_eq!(g.num_satellites, 8);
        assert!((g.hdop - 0.9).abs() < 1e-12);
        assert!((g.altitude_m - 545.4).abs() < 1e-12);
    }

    #[test]
    fn parses_rmc() {
        let Sentence::Rmc(r) = parse_sentence(RMC).unwrap() else {
            panic!("not RMC");
        };
        assert!(r.valid);
        assert!((r.speed_knots - 22.4).abs() < 1e-12);
        assert!((r.course_deg - 84.4).abs() < 1e-12);
        assert_eq!(r.date, "230394");
    }

    #[test]
    fn parses_gsa() {
        let Sentence::Gsa(g) = parse_sentence(GSA).unwrap() else {
            panic!("not GSA");
        };
        assert_eq!(g.fix_type, GsaFixType::Fix3d);
        assert_eq!(g.prns, vec![4, 5, 9, 12, 24]);
        assert!((g.hdop - 1.3).abs() < 1e-12);
    }

    #[test]
    fn parses_gsv() {
        let Sentence::Gsv(g) = parse_sentence(GSV).unwrap() else {
            panic!("not GSV");
        };
        assert_eq!(g.total_messages, 2);
        assert_eq!(g.satellites.len(), 4);
        assert_eq!(g.satellites[0].prn, 1);
        assert_eq!(g.satellites[0].snr_db, Some(46));
    }

    #[test]
    fn parses_vtg() {
        let Sentence::Vtg(v) = parse_sentence(VTG).unwrap() else {
            panic!("not VTG");
        };
        assert!((v.course_true_deg - 54.7).abs() < 1e-12);
        assert!((v.speed_knots - 5.5).abs() < 1e-12);
        assert!((v.speed_kmh - 10.2).abs() < 1e-12);
    }

    #[test]
    fn unknown_sentence_is_preserved() {
        let body = "GPZDA,160012.71,11,03,2004,-1,00";
        let line = format!("${body}*{:02X}", checksum(body));
        let Sentence::Unknown {
            talker_and_type,
            fields,
        } = parse_sentence(&line).unwrap()
        else {
            panic!("not unknown");
        };
        assert_eq!(talker_and_type, "GPZDA");
        assert_eq!(fields.len(), 6);
    }

    #[test]
    fn rejects_bad_checksum() {
        let line = GGA.replace("*47", "*48");
        assert_eq!(
            parse_sentence(&line),
            Err(NmeaError::Frame(FrameError::ChecksumMismatch {
                computed: 0x47,
                transmitted: 0x48
            }))
        );
    }

    #[test]
    fn rejects_missing_framing() {
        let frame_error = |line| match parse_sentence(line) {
            Err(NmeaError::Frame(e)) => e,
            other => panic!("{line:?} framed: {other:?}"),
        };
        assert_eq!(frame_error("GPGGA,foo*00"), FrameError::MissingStart);
        assert_eq!(frame_error("$GPGGA,foo"), FrameError::MissingChecksum);
        assert_eq!(frame_error("$GPGGA,foo*4"), FrameError::MalformedChecksum);
        assert_eq!(frame_error("$GPGGA,fo*o12"), FrameError::MalformedChecksum);
    }

    #[test]
    fn rejects_overlong_sentence() {
        let body = format!("GPGGA,{}", "x".repeat(100));
        let line = format!("${body}*{:02X}", checksum(&body));
        assert_eq!(
            parse_sentence(&line),
            Err(NmeaError::Frame(FrameError::TooLong { len: 110 }))
        );
        // 82 bytes is the limit, terminator excluded.
        let body = format!("GPZDA,{}", "x".repeat(72));
        let line = framed(&body);
        assert_eq!(line.len(), 82);
        assert!(parse_sentence(&format!("{line}\r\n")).is_ok());
        assert_eq!(
            frame(&framed(&format!("{body}x"))),
            Err(FrameError::TooLong { len: 83 })
        );
    }

    #[test]
    fn checksum_digits_are_two_unsigned_hex_of_either_case() {
        // `$GPZDA,1,|` sums to 0x05; a sign is not a digit.
        assert_eq!(checksum("GPZDA,1,|"), 0x05);
        assert_eq!(frame("$GPZDA,1,|*05"), Ok("GPZDA,1,|"));
        for line in [
            "$GPZDA,1,|*+5",
            "$GPZDA,1,|*-5",
            "$GPZDA,1,|* 5",
            "$GPZDA,1,|*5",
        ] {
            assert_eq!(frame(line), Err(FrameError::MalformedChecksum), "{line}");
            assert!(parse_sentence(line).is_err(), "{line}");
            assert!(!is_valid_sentence(line), "{line}");
        }
        let lower = format!("$GPZDA,:*{:02x}", checksum("GPZDA,:"));
        assert!(lower.ends_with("*5e"), "{lower}");
        assert_eq!(frame(&lower), Ok("GPZDA,:"));
        // A `*` inside the body is a body byte.
        assert_eq!(frame(&framed("GPZDA,*,1")), Ok("GPZDA,*,1"));
    }

    #[test]
    fn framing_rules_apply_in_order() {
        let long_and_bare = "x".repeat(90);
        assert_eq!(frame(&long_and_bare), Err(FrameError::TooLong { len: 90 }));
        assert_eq!(frame("GPZDA,é*00"), Err(FrameError::MissingStart));
        assert_eq!(
            frame("$GPZDA,é"),
            Err(FrameError::NotPrintable { offset: 7 })
        );
        assert_eq!(
            frame("$GPZDA,\t1*00"),
            Err(FrameError::NotPrintable { offset: 7 })
        );
        // Only a trailing run of terminators is stripped.
        assert_eq!(
            frame("$GPZDA\r,1*00"),
            Err(FrameError::NotPrintable { offset: 6 })
        );
        assert_eq!(frame(&format!("{}\r\r\n", framed("GPZDA"))), Ok("GPZDA"));
        assert_eq!(frame(""), Err(FrameError::MissingStart));
        assert_eq!(frame("$"), Err(FrameError::MissingChecksum));
        assert_eq!(frame("$*"), Err(FrameError::MalformedChecksum));
        assert_eq!(frame("$*00"), Ok(""));
    }

    #[test]
    fn empty_fix_gga_has_no_position() {
        let body = "GPGGA,123519,,,,,0,00,,,M,,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        let Sentence::Gga(g) = parse_sentence(&line).unwrap() else {
            panic!("not GGA");
        };
        assert_eq!(g.lat_deg, None);
        assert_eq!(g.quality, FixQuality::Invalid);
        assert!(!Sentence::Gga(g).has_fix());
    }

    #[test]
    fn rejects_invalid_minutes() {
        // 61 minutes is not a valid coordinate.
        let body = "GPGGA,123519,4861.000,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        assert!(matches!(
            parse_sentence(&line),
            Err(NmeaError::InvalidField {
                field: "latitude",
                ..
            })
        ));
    }

    #[test]
    fn rejects_invalid_hemisphere() {
        let body = "GPGGA,123519,4807.038,X,01131.000,E,1,08,0.9,545.4,M,46.9,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        assert!(parse_sentence(&line).is_err());
    }

    #[test]
    fn southern_western_hemispheres_are_negative() {
        let body = "GPGGA,123519,4807.038,S,01131.000,W,1,08,0.9,545.4,M,46.9,M,,";
        let line = format!("${body}*{:02X}", checksum(body));
        let Sentence::Gga(g) = parse_sentence(&line).unwrap() else {
            panic!("not GGA");
        };
        assert!(g.lat_deg.unwrap() < 0.0);
        assert!(g.lon_deg.unwrap() < 0.0);
    }

    #[test]
    fn trailing_newline_is_tolerated() {
        let line = format!("{GGA}\r\n");
        assert!(parse_sentence(&line).is_ok());
    }

    #[test]
    fn fractional_seconds_parse() {
        let t = parse_time("123519.75").unwrap();
        assert_eq!(t.millis, 750);
    }

    fn framed(body: &str) -> String {
        format!("${body}*{:02X}", checksum(body))
    }

    #[test]
    fn non_ascii_lines_are_framing_errors() {
        // Bytes 2..5 of the address "GPXYé" split the two-byte 'é'; the
        // peek does not panic, and framing rejects the line.
        assert_eq!(sentence_type("$GPXYé,1"), None);
        for (body, offset) in [
            ("GPXYé,1", 5),
            (
                "GPGGA,1é2345,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,",
                8,
            ),
            (
                "GPGGA,123519,4é.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,",
                15,
            ),
        ] {
            let line = framed(body);
            assert_eq!(
                parse_sentence(&line),
                Err(NmeaError::Frame(FrameError::NotPrintable { offset })),
                "{line}"
            );
            assert!(!is_valid_sentence(&line), "{line}");
        }
    }

    fn gga_at(time: &str) -> String {
        framed(&format!(
            "GPGGA,{time},4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,"
        ))
    }

    #[test]
    fn time_field_is_strictly_hhmmss_and_a_fraction() {
        for time in [
            "+1+2+3",
            "123519xyz",
            "123519.5e1",
            "123519.",
            "123519.-5",
            "12351",
            "1235190",
            " 123519",
            "12:35:19",
            "243519",
            "126019",
            "123561",
        ] {
            let line = gga_at(time);
            assert_eq!(
                parse_sentence(&line),
                Err(NmeaError::InvalidField {
                    field: "time",
                    value: time.to_string()
                }),
                "{time}"
            );
            assert!(!is_valid_sentence(&line), "{time}");
        }
        for (time, want) in [
            ("", NmeaTime::default()),
            ("000000", NmeaTime::new(0, 0, 0, 0)),
            ("235960", NmeaTime::new(23, 59, 60, 0)),
            ("123519.5", NmeaTime::new(12, 35, 19, 500)),
            ("123519.0004", NmeaTime::new(12, 35, 19, 0)),
            ("123519.1234567890123456", NmeaTime::new(12, 35, 19, 123)),
        ] {
            let line = gga_at(time);
            assert!(is_valid_sentence(&line), "{time}");
            let Ok(Sentence::Gga(g)) = parse_sentence(&line) else {
                panic!("{time} rejected");
            };
            assert_eq!(g.time, want, "{time}");
        }
    }

    #[test]
    fn millis_rounding_up_to_a_second_is_capped_and_round_trips() {
        let Ok(Sentence::Gga(g)) = parse_sentence(&gga_at("123519.9996")) else {
            panic!("rejected");
        };
        assert_eq!(g.time, NmeaTime::new(12, 35, 19, 999));
        let line = Sentence::Gga(g.clone()).to_nmea_string();
        assert!(line.starts_with("$GPGGA,123519.999,"), "{line}");
        assert_eq!(parse_sentence(&line), Ok(Sentence::Gga(g)));
    }

    #[test]
    fn sentence_type_reads_lines_and_addresses_alike() {
        assert_eq!(sentence_type(GGA), Some("GGA"));
        assert_eq!(sentence_type("GPGGA"), Some("GGA"));
        assert_eq!(sentence_type("$GPGSV,2,1"), Some("GSV"));
        // A comma-less body ends at the checksum's '*'.
        assert_eq!(sentence_type("$GGA*4F"), Some("GGA"));
        assert_eq!(sentence_type(""), Some(""));
        assert_eq!(sentence_type("$"), Some(""));
    }

    #[test]
    fn field_shortage_errors_are_unchanged() {
        assert_eq!(
            parse_sentence(&framed("GPGGA,1,2")),
            Err(NmeaError::TooFewFields {
                sentence: "GGA",
                got: 2,
                need: 14
            })
        );
        assert_eq!(
            parse_sentence(&framed("GPGSV,1")),
            Err(NmeaError::TooFewFields {
                sentence: "GSV",
                got: 1,
                need: 3
            })
        );
    }

    #[test]
    fn gsv_group_cut_to_three_fields_has_no_snr() {
        let line = "$GPGSV,1,1,04,01,40,083*6F";
        assert_eq!(line, framed("GPGSV,1,1,04,01,40,083"));
        assert_eq!(
            parse_sentence(line),
            Ok(Sentence::Gsv(Gsv {
                total_messages: 1,
                message_number: 1,
                satellites_in_view: 4,
                satellites: vec![SatelliteInfo {
                    prn: 1,
                    elevation_deg: 40,
                    azimuth_deg: 83,
                    snr_db: None,
                }],
            }))
        );
        assert!(is_valid_sentence(line));
        // The cut group's fields are still decoded.
        assert!(!is_valid_sentence(&framed("GPGSV,1,1,04,01,40,360000")));
    }

    #[test]
    fn validator_accepts_what_the_parser_accepts() {
        for line in [GGA, RMC, GSA, GSV, VTG] {
            assert!(is_valid_sentence(line), "{line}");
            assert!(is_valid_sentence(&format!("{line}\r\n")), "{line}");
        }
        // An unknown type needs only a good checksum.
        assert!(is_valid_sentence(&framed("GPZDA,x,,y")));
        assert!(!is_valid_sentence("$GPZDA,x,,y*00"));
        assert!(!is_valid_sentence("GPZDA,x,,y"));
        // Field counts, ranges and hemispheres of plain fields.
        assert!(!is_valid_sentence(&framed("GPVTG,054.7,T,034.4,M,005.5")));
        assert!(!is_valid_sentence(&framed(
            "GPRMC,123519,A,4860.000,N,01131.000,E,,,"
        )));
        assert!(!is_valid_sentence(&framed(
            "GPRMC,243519,A,4807.038,N,01131.000,E,,,"
        )));
        assert!(!is_valid_sentence(&framed(
            "GPRMC,123519,A,4807.038,Q,01131.000,E,,,"
        )));
        assert!(!is_valid_sentence(&framed(
            "GPGSA,A,3,256,,,,,,,,,,,,2.5,1.3,2.1"
        )));
        // Fields outside the plain grammar go to the full parser, which
        // accepts what `str::parse` accepts and rejects the rest.
        assert!(is_valid_sentence(&framed("GPVTG,5e1,T,,M,+5.5,N,inf,K")));
        assert!(!is_valid_sentence(&framed("GPVTG,5e,T,,M,5.5,N,1,K")));
        assert!(is_valid_sentence(&framed(
            "GPRMC,123519,A,-4807.038,N,01131.000,E,,,"
        )));
    }

    #[test]
    fn decimal_decoder_is_str_parse_on_edge_cases() {
        for text in [
            "0",
            "-0",
            "-0.0",
            "0.1",
            ".5",
            "5.",
            "-.5",
            "545.4",
            "0.000000000000001",
            "999999999999999",
            "99999999999999.9",
            "9007199254740993",
            "0.30000000000000004",
            "59.9999999999999",
            "59.99999999999999",
            "1e3",
            "+5",
            "inf",
            "NaN",
            "-",
            ".",
            "",
            "1.2.3",
            "--1",
        ] {
            assert_eq!(
                parse_decimal(text).map(f64::to_bits),
                text.parse::<f64>().map(f64::to_bits),
                "{text:?}"
            );
        }
    }

    /// The parser before the field scanner and the exact decimal
    /// decoder, kept as the reference. Its framing errors are mapped
    /// onto [`FrameError`]; otherwise it is verbatim but for these
    /// deviations, each a fix the parser made to its accept set:
    ///
    /// 1. GSV: a last satellite group cut to three fields has no SNR
    ///    (the parent sliced past the end and panicked).
    /// 2. Framing: a byte outside printable ASCII is a framing error
    ///    (the parent framed `é` and failed or accepted the fields).
    /// 3. Framing: the checksum is two hex digits, no sign (the parent's
    ///    `u8::from_str_radix` took `*+5`).
    /// 4. Time: exactly `hhmmss` in ASCII digits, optionally `.` and one
    ///    or more digits (the parent read three `u8::from_str` pairs and
    ///    ignored a tail without `.`, so `+1+2+3` was 01:02:03).
    /// 5. Time: millis are capped at 999 (the parent decoded `.9996` as
    ///    1000, which the encoder writes as `.1000`).
    mod reference {
        use crate::parser::{checksum, sentence_type, MAX_SENTENCE_LEN};
        use crate::sentence::{
            FixQuality, Gga, Gsa, GsaFixType, Gsv, NmeaTime, Rmc, SatelliteInfo, Sentence, Vtg,
        };
        use crate::{FrameError, NmeaError};

        /// Verifies the `*hh` checksum of a complete sentence.
        ///
        /// # Errors
        ///
        /// Returns an error when the framing or checksum is invalid. On success the
        /// sentence body (between `$` and `*`) is returned.
        fn verify_checksum(sentence: &str) -> Result<&str, NmeaError> {
            let s = sentence.trim_end_matches(['\r', '\n']);
            if s.len() > MAX_SENTENCE_LEN {
                return Err(FrameError::TooLong { len: s.len() }.into());
            }
            let body_and_sum = s.strip_prefix('$').ok_or(FrameError::MissingStart)?;
            // Deviation 2.
            if let Some(offset) = s.bytes().position(|b| !(b' '..=b'~').contains(&b)) {
                return Err(FrameError::NotPrintable { offset }.into());
            }
            let star = body_and_sum.rfind('*').ok_or(FrameError::MissingChecksum)?;
            let (body, sum_text) = body_and_sum.split_at(star);
            let sum_text = &sum_text[1..];
            if sum_text.len() != 2 {
                return Err(FrameError::MalformedChecksum.into());
            }
            // Deviation 3.
            if !sum_text.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(FrameError::MalformedChecksum.into());
            }
            let transmitted =
                u8::from_str_radix(sum_text, 16).map_err(|_| FrameError::MalformedChecksum)?;
            let computed = checksum(body);
            if computed != transmitted {
                return Err(FrameError::ChecksumMismatch {
                    computed,
                    transmitted,
                }
                .into());
            }
            Ok(body)
        }

        /// Parses one complete NMEA sentence (with `$` framing and checksum).
        ///
        /// Unrecognized sentence types parse to [`Sentence::Unknown`] so a PerPos
        /// Parser component can still forward them.
        ///
        /// # Errors
        ///
        /// Returns [`NmeaError`] when framing, checksum, or a required field is
        /// invalid.
        pub(super) fn parse_sentence(sentence: &str) -> Result<Sentence, NmeaError> {
            let body = verify_checksum(sentence)?;
            let mut fields = body.split(',');
            let address = fields.next().unwrap_or_default();
            // The checked length bounds the field count, so the fields are
            // sliced on the stack instead of collected into a growing `Vec`.
            let mut slots = [""; MAX_SENTENCE_LEN];
            let mut n = 0;
            for (slot, field) in slots.iter_mut().zip(fields) {
                *slot = field;
                n += 1;
            }
            let rest = &slots[..n];
            match sentence_type(body) {
                Some("GGA") => parse_gga(rest).map(Sentence::Gga),
                Some("RMC") => parse_rmc(rest).map(Sentence::Rmc),
                Some("GSA") => parse_gsa(rest).map(Sentence::Gsa),
                Some("GSV") => parse_gsv(rest).map(Sentence::Gsv),
                Some("VTG") => parse_vtg(rest).map(Sentence::Vtg),
                _ => Ok(Sentence::Unknown {
                    talker_and_type: address.to_string(),
                    fields: rest.iter().map(|s| s.to_string()).collect(),
                }),
            }
        }

        fn need(fields: &[&str], n: usize, sentence: &'static str) -> Result<(), NmeaError> {
            if fields.len() < n {
                Err(NmeaError::TooFewFields {
                    sentence,
                    got: fields.len(),
                    need: n,
                })
            } else {
                Ok(())
            }
        }

        fn parse_time(text: &str) -> Result<NmeaTime, NmeaError> {
            if text.is_empty() {
                return Ok(NmeaTime::default());
            }
            let bad = || NmeaError::InvalidField {
                field: "time",
                value: text.to_string(),
            };
            if text.len() < 6 {
                return Err(bad());
            }
            // Deviation 4.
            let strict = text.bytes().enumerate().all(|(i, b)| match i {
                0..=5 => b.is_ascii_digit(),
                6 => b == b'.' && text.len() > 7,
                _ => b.is_ascii_digit(),
            });
            if !strict {
                return Err(bad());
            }
            // `get` rather than indexing: a non-ASCII byte must be a field
            // error, not a slice on a non-`char` boundary.
            let two = |at: usize| -> Result<u8, NmeaError> {
                text.get(at..at + 2)
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(bad)
            };
            let (hour, minute, second) = (two(0)?, two(2)?, two(4)?);
            if hour > 23 || minute > 59 || second > 60 {
                return Err(bad());
            }
            let millis = if let Some(frac) = text.get(6..).filter(|f| f.starts_with('.')) {
                let frac_val: f64 = frac.parse().map_err(|_| bad())?;
                // Deviation 5.
                ((frac_val * 1000.0).round() as u16).min(999)
            } else {
                0
            };
            Ok(NmeaTime::new(hour, minute, second, millis))
        }

        /// Parses `ddmm.mmmm` / `dddmm.mmmm` plus hemisphere into decimal degrees.
        fn parse_coord(
            value: &str,
            hemi: &str,
            field: &'static str,
        ) -> Result<Option<f64>, NmeaError> {
            if value.is_empty() || hemi.is_empty() {
                return Ok(None);
            }
            let bad = || NmeaError::InvalidField {
                field,
                value: format!("{value},{hemi}"),
            };
            let dot = value.find('.').unwrap_or(value.len());
            if dot < 3 {
                return Err(bad());
            }
            let (deg_text, min_text) = value.split_at_checked(dot - 2).ok_or_else(bad)?;
            let degrees: f64 = deg_text.parse().map_err(|_| bad())?;
            let minutes: f64 = min_text.parse().map_err(|_| bad())?;
            if minutes >= 60.0 {
                return Err(bad());
            }
            let magnitude = degrees + minutes / 60.0;
            let signed = match hemi {
                "N" | "E" => magnitude,
                "S" | "W" => -magnitude,
                _ => return Err(bad()),
            };
            Ok(Some(signed))
        }

        fn parse_f64_or(text: &str, default: f64, field: &'static str) -> Result<f64, NmeaError> {
            if text.is_empty() {
                return Ok(default);
            }
            text.parse().map_err(|_| NmeaError::InvalidField {
                field,
                value: text.to_string(),
            })
        }

        fn parse_u8_or(text: &str, default: u8, field: &'static str) -> Result<u8, NmeaError> {
            if text.is_empty() {
                return Ok(default);
            }
            text.parse().map_err(|_| NmeaError::InvalidField {
                field,
                value: text.to_string(),
            })
        }

        fn parse_gga(f: &[&str]) -> Result<Gga, NmeaError> {
            need(f, 14, "GGA")?;
            Ok(Gga {
                time: parse_time(f[0])?,
                lat_deg: parse_coord(f[1], f[2], "latitude")?,
                lon_deg: parse_coord(f[3], f[4], "longitude")?,
                quality: FixQuality::from_u8(parse_u8_or(f[5], 0, "quality")?),
                num_satellites: parse_u8_or(f[6], 0, "satellites")?,
                hdop: parse_f64_or(f[7], 99.9, "hdop")?,
                altitude_m: parse_f64_or(f[8], 0.0, "altitude")?,
                geoid_separation_m: parse_f64_or(f[10], 0.0, "geoid separation")?,
            })
        }

        fn parse_rmc(f: &[&str]) -> Result<Rmc, NmeaError> {
            need(f, 9, "RMC")?;
            Ok(Rmc {
                time: parse_time(f[0])?,
                valid: f[1] == "A",
                lat_deg: parse_coord(f[2], f[3], "latitude")?,
                lon_deg: parse_coord(f[4], f[5], "longitude")?,
                speed_knots: parse_f64_or(f[6], 0.0, "speed")?,
                course_deg: parse_f64_or(f[7], 0.0, "course")?,
                date: f[8].to_string(),
            })
        }

        fn parse_gsa(f: &[&str]) -> Result<Gsa, NmeaError> {
            need(f, 17, "GSA")?;
            let fix_type = match f[1] {
                "2" => GsaFixType::Fix2d,
                "3" => GsaFixType::Fix3d,
                _ => GsaFixType::NoFix,
            };
            let prn_fields = &f[2..14];
            let mut prns = Vec::with_capacity(prn_fields.iter().filter(|p| !p.is_empty()).count());
            for field in prn_fields {
                if !field.is_empty() {
                    prns.push(parse_u8_or(field, 0, "prn")?);
                }
            }
            Ok(Gsa {
                auto_selection: f[0] == "A",
                fix_type,
                prns,
                pdop: parse_f64_or(f[14], 99.9, "pdop")?,
                hdop: parse_f64_or(f[15], 99.9, "hdop")?,
                vdop: parse_f64_or(f[16], 99.9, "vdop")?,
            })
        }

        fn parse_gsv(f: &[&str]) -> Result<Gsv, NmeaError> {
            need(f, 3, "GSV")?;
            let mut satellites = Vec::new();
            let mut i = 3;
            while i + 3 < f.len() + 1 && i + 3 <= f.len() {
                // Deviation 1: a last group cut to three fields has no SNR.
                let chunk = &f[i..(i + 4).min(f.len())];
                if chunk[0].is_empty() {
                    break;
                }
                satellites.push(SatelliteInfo {
                    prn: parse_u8_or(chunk[0], 0, "prn")?,
                    elevation_deg: parse_u8_or(chunk[1], 0, "elevation")?,
                    azimuth_deg: if chunk[2].is_empty() {
                        0
                    } else {
                        chunk[2].parse().map_err(|_| NmeaError::InvalidField {
                            field: "azimuth",
                            value: chunk[2].to_string(),
                        })?
                    },
                    snr_db: match chunk.get(3) {
                        None | Some(&"") => None,
                        Some(snr) => Some(parse_u8_or(snr, 0, "snr")?),
                    },
                });
                i += 4;
            }
            Ok(Gsv {
                total_messages: parse_u8_or(f[0], 1, "total messages")?,
                message_number: parse_u8_or(f[1], 1, "message number")?,
                satellites_in_view: parse_u8_or(f[2], 0, "satellites in view")?,
                satellites,
            })
        }

        fn parse_vtg(f: &[&str]) -> Result<Vtg, NmeaError> {
            need(f, 7, "VTG")?;
            Ok(Vtg {
                course_true_deg: parse_f64_or(f[0], 0.0, "course")?,
                speed_knots: parse_f64_or(f[4], 0.0, "speed knots")?,
                speed_kmh: parse_f64_or(f[6], 0.0, "speed kmh")?,
            })
        }
    }

    /// A splitmix64 stream of NMEA lines for the reference properties:
    /// real lines of every modelled type and an unknown one, their fields
    /// at receiver precision or in odd but legal float forms, then
    /// mutated char-wise (ASCII and non-ASCII) and mostly re-framed, so
    /// that the mutation reaches the field decoders.
    struct Lines(u64);

    impl Lines {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }

        fn digits(&mut self, n: usize) -> String {
            (0..n)
                .map(|_| char::from(b'0' + self.below(10) as u8))
                .collect()
        }

        /// `min` up to `min + spread - 1` digits.
        fn digits_below(&mut self, spread: usize, min: usize) -> String {
            let n = min + self.below(spread);
            self.digits(n)
        }

        /// A float field.
        fn number(&mut self) -> String {
            const ODD: [&str; 16] = [
                ".5", "5.", "-.5", "+5", "1e3", "2E-2", "inf", "NaN", "-", ".", "1.2.3", "0x1",
                "-0", "1_0", " 1", "--1",
            ];
            match self.below(10) {
                0 => String::new(),
                1 => self.pick(&ODD).to_string(),
                // Around the exact path's 15-digit limit.
                2 => {
                    let n = 13 + self.below(6);
                    let point = self.below(n + 1);
                    let d = self.digits(n);
                    format!("{}.{}", &d[..point], &d[point..])
                }
                3 => format!("-{}.{}", self.digits_below(3, 1), self.digits_below(4, 0)),
                _ => {
                    let int = self.digits_below(4, 1);
                    match self.below(4) {
                        0 => int,
                        _ => format!("{int}.{}", self.digits_below(5, 0)),
                    }
                }
            }
        }

        /// An integer field, usually a legal `u8`.
        fn int(&mut self) -> String {
            match self.below(8) {
                0 => String::new(),
                1 => self
                    .pick(&["+5", "256", "-1", "007", "65536", "1.0", "x"])
                    .to_string(),
                _ => format!("{:0w$}", self.below(100), w = self.below(3)),
            }
        }

        fn time(&mut self) -> String {
            if self.below(8) == 0 {
                return self
                    .pick(&[
                        "",
                        "12351",
                        "+1+2+3",
                        "1é2345",
                        "123519xyz",
                        "1235190",
                        " 12351",
                    ])
                    .to_string();
            }
            let frac = self.pick(&[
                "", "", ".5", ".25", ".999", ".", ".1.2", "x", ".-5", ".9996", ".5e1", ".0005",
            ]);
            format!(
                "{:02}{:02}{:02}{frac}",
                self.below(26),
                self.below(62),
                self.below(62)
            )
        }

        /// A coordinate and its hemisphere.
        fn coord(&mut self, degree_digits: usize) -> (String, String) {
            let value = match self.below(8) {
                0 => String::new(),
                1 => self.number(),
                // Minutes a hair below 60, at and past 15 digits.
                2 => format!(
                    "{}59.{}",
                    self.digits(degree_digits),
                    "9".repeat(8 + self.below(8))
                ),
                _ => format!(
                    "{}{}{:02}.{}",
                    self.pick(&["", "", "", "", "", "", "-", "+"]),
                    self.digits(degree_digits),
                    self.below(62),
                    self.digits_below(6, 0)
                ),
            };
            let hemi = self
                .pick(&["N", "S", "E", "W", "N", "S", "", "X"])
                .to_string();
            (value, hemi)
        }

        fn body(&mut self) -> String {
            let talker = self.pick(&["GP", "GL", "GN"]);
            match self.below(6) {
                0 => {
                    let (lat, ns) = self.coord(2);
                    let (lon, ew) = self.coord(3);
                    format!(
                        "{talker}GGA,{},{lat},{ns},{lon},{ew},{},{},{},{},M,{},M,,",
                        self.time(),
                        self.int(),
                        self.int(),
                        self.number(),
                        self.number(),
                        self.number()
                    )
                }
                1 => {
                    let (lat, ns) = self.coord(2);
                    let (lon, ew) = self.coord(3);
                    format!(
                        "{talker}RMC,{},{},{lat},{ns},{lon},{ew},{},{},{},003.1,W",
                        self.time(),
                        self.pick(&["A", "V"]),
                        self.number(),
                        self.number(),
                        self.digits(6)
                    )
                }
                2 => {
                    let prns: Vec<String> = (0..12).map(|_| self.int()).collect();
                    format!(
                        "{talker}GSA,A,{},{},{},{},{}",
                        self.pick(&["1", "2", "3"]),
                        prns.join(","),
                        self.number(),
                        self.number(),
                        self.number()
                    )
                }
                3 => {
                    let mut body =
                        format!("{talker}GSV,{},{},{}", self.int(), self.int(), self.int());
                    for _ in 0..self.below(5) {
                        let azimuth = self.pick(&["083", "308", "", "359", "65536", "7"]);
                        body += &format!(",{},{},{azimuth},{}", self.int(), self.int(), self.int());
                    }
                    // Cut the last group short.
                    for _ in 0..self.below(4) {
                        if let Some(comma) = body.rfind(',') {
                            body.truncate(comma);
                        }
                    }
                    body
                }
                4 => format!(
                    "{talker}VTG,{},T,{},M,{},N,{},K",
                    self.number(),
                    self.number(),
                    self.number(),
                    self.number()
                ),
                _ => format!("{talker}ZDA,{},11,03,2004,-1,00", self.time()),
            }
        }

        fn mutate(&mut self, body: &str) -> String {
            const ALPHABET: [char; 16] = [
                '0',
                '5',
                '9',
                '.',
                ',',
                '-',
                '+',
                'e',
                'N',
                'S',
                'A',
                '*',
                ' ',
                'é',
                '\u{1F6F0}',
                '$',
            ];
            let mut chars: Vec<char> = body.chars().collect();
            for _ in 0..1 + self.below(3) {
                let at = self.below(chars.len() + 1);
                let c = ALPHABET[self.below(ALPHABET.len())];
                match self.below(4) {
                    0 if at < chars.len() => chars[at] = c,
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    2 => chars.truncate(at),
                    _ => chars.insert(at, c),
                }
            }
            chars.into_iter().collect()
        }

        fn line(&mut self) -> String {
            let body = self.body();
            let sent = if self.below(2) == 0 {
                body.clone()
            } else {
                self.mutate(&body)
            };
            match self.below(14) {
                // The checksum of the unmutated body.
                0 => format!("${sent}*{:02X}", checksum(&body)),
                1 => format!("${sent}*{:02X}\r\n", checksum(&sent)),
                2 => format!("${sent}*{:02x}", checksum(&sent)),
                // A signed digit, or no checksum at all.
                3 => format!("${sent}*+{:X}", checksum(&sent) & 0xF),
                4 => format!("${sent}"),
                _ => format!("${sent}*{:02X}", checksum(&sent)),
            }
        }

        /// A float field, or any text `str::parse::<f64>` may see.
        fn decimal_text(&mut self) -> String {
            match self.below(6) {
                0 => {
                    const ALPHABET: &[u8] = b"0123456789.-+eE";
                    (0..self.below(24))
                        .map(|_| char::from(ALPHABET[self.below(ALPHABET.len())]))
                        .collect()
                }
                1 => format!("{}", f64::from_bits(self.next())),
                2 => {
                    let v = (self.next() >> 11) as f64 / (1u64 << self.below(53)) as f64;
                    format!("{v:.p$}", p = self.below(18))
                }
                _ => self.number(),
            }
        }
    }

    #[test]
    fn line_generator_reaches_every_decoder() {
        let mut lines = Lines(11);
        let mut seen = std::collections::BTreeMap::<(String, bool), usize>::new();
        let mut undecided = 0;
        for _ in 0..20_000 {
            let line = lines.line();
            let key = sentence_type(&line).unwrap_or("?").to_string();
            *seen.entry((key, is_valid_sentence(&line))).or_default() += 1;
            let decided = frame(&line).ok().map(|body| {
                let f = Fields::scan(body);
                match sentence_type(body) {
                    Some("GGA") => check_gga(&f),
                    Some("RMC") => check_rmc(&f),
                    Some("GSA") => check_gsa(&f),
                    Some("GSV") => check_gsv(&f),
                    Some("VTG") => check_vtg(&f),
                    _ => Ok(()),
                }
            });
            undecided += usize::from(matches!(decided, Some(Err(Stop::Undecided))));
        }
        for kind in ["GGA", "RMC", "GSA", "GSV", "VTG", "ZDA"] {
            for valid in [true, false] {
                let n = seen.get(&(kind.to_string(), valid)).copied().unwrap_or(0);
                assert!(n > 50, "{n} lines of {kind} with valid = {valid}");
            }
        }
        assert!(undecided > 500, "{undecided} undecided lines");
    }

    /// Cases of the reference properties; the release-mode run (CI's
    /// "NMEA parser/encoder equivalence" step) uses the full count.
    const REFERENCE_CASES: u32 = if cfg!(debug_assertions) {
        20_000
    } else {
        400_000
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(REFERENCE_CASES))]
        #[test]
        fn parser_and_validator_match_the_reference(seed in any::<u64>()) {
            let line = Lines(seed).line();
            let want = reference::parse_sentence(&line);
            prop_assert_eq!(
                format!("{:?}", parse_sentence(&line)),
                format!("{want:?}"),
                "{:?}",
                line
            );
            prop_assert_eq!(is_valid_sentence(&line), want.is_ok(), "{:?}", line);
        }

        #[test]
        fn decimal_decoder_is_str_parse_bit_for_bit(seed in any::<u64>()) {
            let text = Lines(seed).decimal_text();
            let want = text.parse::<f64>().map(f64::to_bits);
            prop_assert_eq!(parse_decimal(&text).map(f64::to_bits), want.clone(), "{:?}", text);
            // The validator's premise: the plain grammar always parses.
            prop_assert!(lex_decimal(&text).is_none() || want.is_ok(), "{:?}", text);
        }
    }

    mod fuzz {
        use super::super::*;
        use super::reference;
        use proptest::prelude::*;

        proptest! {
            /// The parser must never panic, whatever bytes arrive off the
            /// wire — it returns a structured error instead.
            #[test]
            fn parse_never_panics(input in ".{0,120}") {
                let _ = parse_sentence(&input);
            }

            /// Valid framing with arbitrary field garbage parses to
            /// Ok(...) or a field error, never a panic. Half the
            /// addresses name a modelled type, so the garbage reaches
            /// every field decoder; the validator agrees with the
            /// reference parser.
            #[test]
            fn framed_garbage_never_panics(
                kind in 0usize..10,
                talker in "G[PLN]",
                address in "[A-Z]{5}",
                fields in "(,[-0-9A-Za-z.]{0,12}){0,20}",
            ) {
                const MODELLED: [&str; 5] = ["GGA", "RMC", "GSA", "GSV", "VTG"];
                let address = MODELLED.get(kind).map_or(address, |t| format!("{talker}{t}"));
                let body = format!("{address}{fields}");
                let line = format!("${body}*{:02X}", checksum(&body));
                let _ = parse_sentence(&line);
                prop_assert_eq!(
                    is_valid_sentence(&line),
                    reference::parse_sentence(&line).is_ok(),
                    "{:?}",
                    line
                );
            }

            /// Non-ASCII bytes anywhere in an otherwise framed sentence
            /// give a typed error, never a panic, and the type peek
            /// agrees with what the parser dispatched on.
            #[test]
            fn framed_non_ascii_never_panics(body in "[A-Zé]{2,6}(,[0-9.NSEWé]{0,4}){0,16}") {
                let line = format!("${body}*{:02X}", checksum(&body));
                prop_assert!(body.is_ascii() || parse_sentence(&line).is_err(), "{:?}", line);
                prop_assert_eq!(
                    is_valid_sentence(&line),
                    reference::parse_sentence(&line).is_ok(),
                    "{:?}",
                    line
                );
                if let Ok(sentence) = parse_sentence(&line) {
                    if !matches!(sentence, Sentence::Unknown { .. }) {
                        prop_assert_eq!(sentence_type(&line), Some(sentence.type_code()));
                    }
                }
            }

            /// Checksum verification agrees with manual recomputation.
            #[test]
            fn checksum_round_trip(body in "[ -)+-~]{0,60}") {
                // (excludes '*' so the body has no checksum delimiter)
                let line = format!("${body}*{:02X}", checksum(&body));
                prop_assert_eq!(frame(&line), Ok(body.as_str()));
            }
        }
    }
}
