use crate::sentence::{
    FixQuality, Gga, Gsa, GsaFixType, Gsv, NmeaTime, Rmc, SatelliteInfo, Sentence, Vtg,
};
use crate::NmeaError;

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

/// Verifies the `*hh` checksum of a complete sentence.
///
/// # Errors
///
/// Returns an error when the framing or checksum is invalid. On success the
/// sentence body (between `$` and `*`) is returned.
pub fn verify_checksum(sentence: &str) -> Result<&str, NmeaError> {
    let s = sentence.trim_end_matches(['\r', '\n']);
    if s.len() > MAX_SENTENCE_LEN {
        return Err(NmeaError::SentenceTooLong(s.len()));
    }
    let body_and_sum = s
        .strip_prefix('$')
        .ok_or(NmeaError::MissingStartDelimiter)?;
    let star = body_and_sum.rfind('*').ok_or(NmeaError::MissingChecksum)?;
    let (body, sum_text) = body_and_sum.split_at(star);
    let sum_text = &sum_text[1..];
    if sum_text.len() != 2 {
        return Err(NmeaError::MalformedChecksum(sum_text.to_string()));
    }
    let transmitted = u8::from_str_radix(sum_text, 16)
        .map_err(|_| NmeaError::MalformedChecksum(sum_text.to_string()))?;
    let computed = checksum(body);
    if computed != transmitted {
        return Err(NmeaError::ChecksumMismatch {
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
/// (non-ASCII input), which [`parse_sentence`] turns into
/// [`Sentence::Unknown`].
///
/// This is the one place a type is read from text: [`parse_sentence`]
/// dispatches on it, [`Sentence::type_code`] reports it for unknown
/// types, and consumers peek with it before paying for a full parse. On
/// any line that passes [`verify_checksum`] the peek and the parser read
/// the same address, so they cannot disagree.
///
/// ```
/// assert_eq!(perpos_nmea::sentence_type("$GPGGA,123519*00"), Some("GGA"));
/// assert_eq!(perpos_nmea::sentence_type("GPZDA"), Some("ZDA"));
/// assert_eq!(perpos_nmea::sentence_type("$GPXYé,1"), None);
/// ```
pub fn sentence_type(line: &str) -> Option<&str> {
    let s = line.strip_prefix('$').unwrap_or(line);
    let address = &s[..s.find([',', '*']).unwrap_or(s.len())];
    if address.len() >= 5 {
        address.get(2..5)
    } else {
        Some(address)
    }
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
pub fn parse_sentence(sentence: &str) -> Result<Sentence, NmeaError> {
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
        (frac_val * 1000.0).round() as u16
    } else {
        0
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
        let chunk = &f[i..i + 4];
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
            snr_db: if chunk[3].is_empty() {
                None
            } else {
                Some(parse_u8_or(chunk[3], 0, "snr")?)
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(matches!(
            parse_sentence(&line),
            Err(NmeaError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_missing_framing() {
        assert!(matches!(
            parse_sentence("GPGGA,foo*00"),
            Err(NmeaError::MissingStartDelimiter)
        ));
        assert!(matches!(
            parse_sentence("$GPGGA,foo"),
            Err(NmeaError::MissingChecksum)
        ));
        assert!(matches!(
            parse_sentence("$GPGGA,foo*4"),
            Err(NmeaError::MalformedChecksum(_))
        ));
    }

    #[test]
    fn rejects_overlong_sentence() {
        let body = format!("GPGGA,{}", "x".repeat(100));
        let line = format!("${body}*{:02X}", checksum(&body));
        assert!(matches!(
            parse_sentence(&line),
            Err(NmeaError::SentenceTooLong(_))
        ));
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
    fn non_ascii_address_is_unknown_not_a_panic() {
        // Bytes 2..5 of the address "GPXYé" split the two-byte 'é'.
        let Sentence::Unknown {
            talker_and_type,
            fields,
        } = parse_sentence(&framed("GPXYé,1")).unwrap()
        else {
            panic!("not unknown");
        };
        assert_eq!(talker_and_type, "GPXYé");
        assert_eq!(fields, vec!["1".to_string()]);
        assert_eq!(sentence_type("$GPXYé,1"), None);
    }

    #[test]
    fn non_ascii_time_and_coordinate_are_field_errors() {
        // "1é2345" has six bytes but byte 2 is inside 'é'.
        let time = framed("GPGGA,1é2345,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,");
        assert!(matches!(
            parse_sentence(&time),
            Err(NmeaError::InvalidField { field: "time", .. })
        ));
        // The degrees/minutes split lands inside 'é'.
        let lat = framed("GPGGA,123519,4é.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,");
        assert!(matches!(
            parse_sentence(&lat),
            Err(NmeaError::InvalidField {
                field: "latitude",
                ..
            })
        ));
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

    mod fuzz {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser must never panic, whatever bytes arrive off the
            /// wire — it returns a structured error instead.
            #[test]
            fn parse_never_panics(input in ".{0,120}") {
                let _ = parse_sentence(&input);
            }

            /// Valid framing with arbitrary field garbage parses to
            /// Ok(...) or a field error, never a panic.
            #[test]
            fn framed_garbage_never_panics(body in "[A-Z]{5}(,[-0-9A-Za-z.]{0,12}){0,20}") {
                let line = format!("${body}*{:02X}", checksum(&body));
                let _ = parse_sentence(&line);
            }

            /// Non-ASCII bytes anywhere in a correctly framed sentence
            /// give a typed error or `Unknown`, never a panic, and the
            /// type peek agrees with what the parser dispatched on.
            #[test]
            fn framed_non_ascii_never_panics(body in "[A-Zé]{2,6}(,[0-9.NSEWé]{0,4}){0,16}") {
                let line = format!("${body}*{:02X}", checksum(&body));
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
                prop_assert_eq!(verify_checksum(&line).unwrap(), body.as_str());
            }
        }
    }
}
