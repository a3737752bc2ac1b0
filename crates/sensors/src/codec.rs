//! Codecs between domain types and the middleware's dynamic [`Value`]
//! representation.
//!
//! NMEA sentences travel the processing graph as `nmea.sentence` items
//! whose payload is the sentence's validated NMEA-0183 wire text: the
//! Parser forwards the very line it accepted, so no per-hop encoding
//! happens and the middleware core stays independent of the NMEA model.
//! Consumers peek at the type without parsing ([`sentence_type_of`]) and
//! decode only what they use ([`gga_of`], [`sentence_of`]). The Parser
//! validates with `perpos_nmea::is_valid_sentence`, whose accept set is
//! exactly [`parse_sentence`]'s, so every decode of a line the Parser
//! accepted succeeds.

use perpos_core::prelude::*;
use perpos_nmea::{parse_sentence, sentence_type, Gga, Sentence};
use std::fmt;

/// Encodes a parsed NMEA sentence as an item payload: its NMEA-0183 wire
/// text.
pub fn sentence_to_value(s: &Sentence) -> Value {
    Value::Text(s.to_nmea_string())
}

/// A per-line defect found while scanning a trace block. Carries the
/// 1-based line number within the block so a corrupt capture can be
/// diagnosed without re-scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The line does not start with `$`.
    MissingStart {
        /// 1-based line number within the block.
        line: usize,
    },
    /// The line contains a byte outside printable ASCII.
    NonAscii {
        /// 1-based line number within the block.
        line: usize,
        /// Byte offset of the first offending byte within the line.
        byte: usize,
    },
    /// A `*` suffix is present but not followed by exactly two hex digits.
    TruncatedChecksum {
        /// 1-based line number within the block.
        line: usize,
    },
    /// The `*XX` checksum does not match the XOR of the sentence body.
    BadChecksum {
        /// 1-based line number within the block.
        line: usize,
        /// Checksum computed from the sentence body.
        expected: u8,
        /// Checksum carried on the line.
        found: u8,
    },
}

impl TraceError {
    /// 1-based line number within the scanned block.
    pub fn line(&self) -> usize {
        match *self {
            TraceError::MissingStart { line }
            | TraceError::NonAscii { line, .. }
            | TraceError::TruncatedChecksum { line }
            | TraceError::BadChecksum { line, .. } => line,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceError::MissingStart { line } => {
                write!(f, "line {line}: sentence does not start with '$'")
            }
            TraceError::NonAscii { line, byte } => {
                write!(f, "line {line}: non-ASCII byte at offset {byte}")
            }
            TraceError::TruncatedChecksum { line } => {
                write!(f, "line {line}: '*' not followed by two hex digits")
            }
            TraceError::BadChecksum {
                line,
                expected,
                found,
            } => {
                write!(
                    f,
                    "line {line}: checksum {found:02X} != computed {expected:02X}"
                )
            }
        }
    }
}

/// Outcome of scanning one trace block: how many lines were accepted,
/// how many were skipped, and a typed error per skipped line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockReport {
    /// Lines that passed validation and were appended to the output.
    pub parsed: usize,
    /// Malformed lines that were counted and skipped (never fatal).
    pub skipped: usize,
    /// One typed error per skipped line, in block order.
    pub errors: Vec<TraceError>,
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'A'..=b'F' => Some(b - b'A' + 10),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

/// Scans a newline-delimited block of NMEA sentences in a single
/// bounds-checked pass, appending each valid line to `out`.
///
/// Validation per line: leading `$`, printable ASCII throughout, and —
/// when the line ends in `*HH` — a two-hex-digit checksum equal to the
/// XOR of the bytes between `$` and the final `*`. Lines without a
/// trailing checksum are accepted (checksums are optional in captures);
/// a `*` in the last three bytes that is not a well-formed `*HH` is
/// reported as truncated. Blank lines and a trailing `\r` are tolerated
/// silently. Malformed lines are counted and reported, never fatal.
///
/// `out` is cleared first and then holds exactly this block's valid
/// lines, so one buffer can be reused across blocks (the allocation is
/// kept); the scan itself allocates nothing besides error records.
pub fn scan_block<'a>(block: &'a str, out: &mut Vec<&'a str>) -> BlockReport {
    out.clear();
    let mut report = BlockReport::default();
    let mut lineno = 0usize;
    for raw in block.split('\n') {
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        if line.is_empty() {
            continue;
        }
        lineno += 1;
        let bytes = line.as_bytes();
        // Wide vectorizable passes instead of one branchy byte loop:
        // an all-printable check, a reverse `*` find, and an XOR fold
        // paid only by lines that actually carry a checksum.
        // Branchless violation fold: a short-circuiting `all()` compiles
        // to a byte-at-a-time loop, while an OR reduction vectorizes —
        // clean lines (the common case) pay a few lanes, not a cycle per
        // byte. The exact offset is only recovered on the error path.
        let viol = bytes
            .iter()
            .fold(0u8, |a, &b| a | u8::from(!(0x20..0x7f).contains(&b)));
        let err = if viol != 0 {
            let byte = bytes
                .iter()
                .position(|&b| !(0x20..0x7f).contains(&b))
                .unwrap_or(0);
            Some(TraceError::NonAscii { line: lineno, byte })
        } else if bytes[0] != b'$' {
            Some(TraceError::MissingStart { line: lineno })
        } else {
            // A checksum is a trailing `*HH`; `*` anywhere else is a
            // body byte (the spec XORs every byte between `$` and the
            // final `*`, so a stray `*` simply contributes to the sum).
            // Probing only the 3-byte tail keeps checksum-less lines
            // from paying a whole-line reverse scan.
            let tail = bytes.get(bytes.len().saturating_sub(3)..).unwrap_or(b"");
            match tail {
                [b'*', hi, lo] => match (hex_val(*hi), hex_val(*lo)) {
                    (Some(h), Some(l)) => {
                        let s = bytes.len() - 3;
                        let xor = bytes[1..s].iter().fold(0u8, |a, &b| a ^ b);
                        let found = (h << 4) | l;
                        (found != xor).then_some(TraceError::BadChecksum {
                            line: lineno,
                            expected: xor,
                            found,
                        })
                    }
                    _ => Some(TraceError::TruncatedChecksum { line: lineno }),
                },
                // A `*` in the tail window that is not a well-formed
                // `*HH` is a checksum cut off mid-write.
                t if t.contains(&b'*') => Some(TraceError::TruncatedChecksum { line: lineno }),
                _ => None,
            }
        };
        match err {
            Some(e) => {
                report.skipped += 1;
                report.errors.push(e);
            }
            None => {
                report.parsed += 1;
                out.push(line);
            }
        }
    }
    report
}

/// Scans `block` and feeds every valid line through the middleware's
/// batch-ingest path as `kind` items emitted by `source`, one logical
/// step per line. Returns the number of items ingested alongside the
/// scan report. Convenience wrapper over [`scan_block`] +
/// [`Middleware::ingest_batch`]; hot loops that want zero steady-state
/// allocation should call those directly with a reused line buffer.
pub fn ingest_nmea_block(
    mw: &mut Middleware,
    source: NodeId,
    kind: DataKind,
    block: &str,
    tick: SimDuration,
) -> Result<(u64, BlockReport), CoreError> {
    let mut lines = Vec::new();
    let report = scan_block(block, &mut lines);
    let ingested = mw.ingest_batch(source, kind, &lines, tick)?;
    Ok((ingested, report))
}

/// Decodes a sentence payload: the wire text parsed and validated.
/// Anything that is not text holding a valid sentence is `None`.
pub fn value_to_sentence(v: &Value) -> Option<Sentence> {
    parse_sentence(v.as_text()?).ok()
}

/// The wire text of an `nmea.sentence` item, or `None` for any other
/// kind or a non-text payload.
fn sentence_text(item: &DataItem) -> Option<&str> {
    if item.kind != kinds::NMEA_SENTENCE {
        return None;
    }
    item.payload.as_text()
}

/// Convenience: decodes the sentence carried by an `nmea.sentence` item.
pub fn sentence_of(item: &DataItem) -> Option<Sentence> {
    parse_sentence(sentence_text(item)?).ok()
}

/// The sentence type (`"GGA"`, `"GSV"`, …) of an `nmea.sentence` item,
/// read from the wire text without parsing it.
pub fn sentence_type_of(item: &DataItem) -> Option<&str> {
    sentence_type(sentence_text(item)?)
}

/// The GGA fix carried by an `nmea.sentence` item, parsing only lines
/// whose type is GGA. Equal to matching [`sentence_of`] on
/// [`Sentence::Gga`], without decoding the other sentence types.
pub fn gga_of(item: &DataItem) -> Option<Gga> {
    if sentence_type_of(item)? != "GGA" {
        return None;
    }
    match sentence_of(item)? {
        Sentence::Gga(gga) => Some(gga),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpos_core::SimTime;

    #[test]
    fn sentence_round_trip() {
        let line = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47";
        let sentence = parse_sentence(line).unwrap();
        let v = sentence_to_value(&sentence);
        assert_eq!(value_to_sentence(&v), Some(sentence));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let v = sentence_to_value(&Sentence::Gga(Gga::default()));
        let item = DataItem::new(kinds::RAW_STRING, SimTime::ZERO, v);
        assert_eq!(sentence_of(&item), None);
    }

    #[test]
    fn all_sentence_types_round_trip() {
        for line in [
            "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47",
            "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A",
            "$GPGSA,A,3,04,05,,09,12,,,24,,,,,2.5,1.3,2.1*39",
            "$GPGSV,2,1,08,01,40,083,46,02,17,308,41,12,07,344,39,14,22,228,45*75",
            "$GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*48",
        ] {
            let s = parse_sentence(line).unwrap();
            assert_eq!(value_to_sentence(&sentence_to_value(&s)), Some(s), "{line}");
        }
    }

    #[test]
    fn malformed_payload_is_none() {
        assert_eq!(value_to_sentence(&Value::Text("not nmea".into())), None);
        assert_eq!(value_to_sentence(&Value::Int(1)), None);
    }

    #[test]
    fn clean_block_parses_every_line() {
        let block = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47\r\n\
                     $GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*48\n\
                     $GPXXX,no,checksum,is,fine\n";
        let mut out = Vec::new();
        let report = scan_block(block, &mut out);
        assert_eq!(report.parsed, 3);
        assert_eq!(report.skipped, 0);
        assert!(report.errors.is_empty());
        assert_eq!(out.len(), 3);
        // `\r` is stripped, the checksum suffix is kept.
        assert!(out[0].ends_with("*47"));
    }

    #[test]
    fn corrupt_block_counts_and_skips_each_defect() {
        // A realistic corrupt capture: good line, bad checksum, binary
        // garbage mid-stream, a line missing '$', a '*' cut off by a
        // write tear, blank separators, then a good tail line.
        let block = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47\n\
                     $GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*FF\n\
                     \u{fffd}\u{fffd}binary tear\n\
                     GPRMC,123519,A,4807.038,N\n\
                     $GPGSA,A,3,04,05*4\n\
                     \n\
                     $GPXXX,tail\n";
        let mut out = Vec::new();
        let report = scan_block(block, &mut out);
        assert_eq!(report.parsed, 2);
        assert_eq!(report.skipped, 4);
        assert_eq!(
            out,
            vec![
                "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47",
                "$GPXXX,tail",
            ]
        );
        assert_eq!(report.errors.len(), 4);
        assert!(
            matches!(
                report.errors[0],
                TraceError::BadChecksum {
                    line: 2,
                    found: 0xFF,
                    ..
                }
            ),
            "{:?}",
            report.errors[0]
        );
        assert!(matches!(
            report.errors[1],
            TraceError::NonAscii { line: 3, byte: 0 }
        ));
        assert!(matches!(
            report.errors[2],
            TraceError::MissingStart { line: 4 }
        ));
        assert!(matches!(
            report.errors[3],
            TraceError::TruncatedChecksum { line: 5 }
        ));
        // Errors render with their line numbers for diagnostics.
        assert!(report.errors[0].to_string().contains("line 2"));
        assert_eq!(report.errors[3].line(), 5);
    }

    #[test]
    fn checksum_is_xor_of_body() {
        // "$GPGGA,1*XX": body XOR of "GPGGA,1".
        let xor = "GPGGA,1".bytes().fold(0u8, |a, b| a ^ b);
        let good = format!("$GPGGA,1*{xor:02X}\n");
        let bad = format!("$GPGGA,1*{:02X}\n", xor ^ 1);
        let mut out = Vec::new();
        assert_eq!(scan_block(&good, &mut out).parsed, 1);
        let report = scan_block(&bad, &mut out);
        assert_eq!(report.skipped, 1);
        assert!(
            matches!(report.errors[0], TraceError::BadChecksum { expected, found, .. }
                if expected == xor && found == xor ^ 1)
        );
    }

    #[test]
    fn block_ingest_feeds_valid_lines_through_the_graph() {
        use std::sync::{Arc, Mutex};

        let mut mw = Middleware::new();
        let src = mw.add_component(FnSource::new("trace", kinds::RAW_STRING, |_| None));
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let tap_seen = Arc::clone(&seen);
        let tap = mw.add_component(FnProcessor::new(
            "tap",
            vec![kinds::RAW_STRING],
            kinds::RAW_STRING,
            move |item: &DataItem| {
                if let Some(text) = item.payload.as_text() {
                    tap_seen.lock().unwrap().push(text.to_string());
                }
                None
            },
        ));
        mw.connect(src, tap, 0).unwrap();

        let block = "$GPXXX,one\nnope\n$GPXXX,two\n";
        let (ingested, report) = ingest_nmea_block(
            &mut mw,
            src,
            kinds::RAW_STRING,
            block,
            SimDuration::from_micros(1),
        )
        .unwrap();
        assert_eq!(ingested, 2);
        assert_eq!(report.parsed, 2);
        assert_eq!(report.skipped, 1);
        assert_eq!(*seen.lock().unwrap(), vec!["$GPXXX,one", "$GPXXX,two"]);
    }
}
