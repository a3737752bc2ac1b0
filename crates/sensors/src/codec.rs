//! Codecs between domain types and the middleware's dynamic [`Value`]
//! representation, and the block scanner that splits raw trace bytes
//! into lines.
//!
//! [`scan_block`] only splits a block into lines and reports the lines
//! it skips: what a well-framed sentence is, is `perpos_nmea`'s one
//! framing rule, [`frame`], which the Parser's check also applies. So a
//! line the scan accepts is a line the Parser frames, and vice versa.
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
use perpos_nmea::{frame, parse_sentence, sentence_type, FrameError, Gga, Sentence};
use std::fmt;

/// Encodes a parsed NMEA sentence as an item payload: its NMEA-0183 wire
/// text.
pub fn sentence_to_value(s: &Sentence) -> Value {
    Value::Text(s.to_nmea_string())
}

/// A line [`scan_block`] skipped: where it is in the block and why
/// [`frame`] rejected it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineDefect {
    /// 1-based line number within the block, blank lines not counted, so
    /// a corrupt capture can be diagnosed without re-scanning.
    pub line: usize,
    /// The framing rule the line breaks.
    pub defect: FrameError,
}

impl fmt::Display for LineDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.defect)
    }
}

/// Outcome of scanning one trace block: how many lines were accepted,
/// how many were skipped, and why each skipped line was.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockReport {
    /// Lines that [`frame`] accepted and were appended to the output.
    pub parsed: usize,
    /// Malformed lines that were counted and skipped (never fatal).
    pub skipped: usize,
    /// One defect per skipped line, in block order.
    pub errors: Vec<LineDefect>,
}

/// Splits a newline-delimited block of NMEA sentences into lines and
/// appends each line that [`frame`] accepts to `out`.
///
/// A line is what lies between two `\n`, less its trailing `\r`s.
/// Blank lines are skipped silently. Whether a line is a sentence is
/// `perpos_nmea`'s one framing rule, [`frame`]; a line it rejects is
/// counted, reported with its [`FrameError`], and skipped, never fatal.
///
/// `out` is cleared first and then holds exactly this block's accepted
/// lines, so one buffer can be reused across blocks (the allocation is
/// kept); the scan itself allocates nothing besides defect records.
pub fn scan_block<'a>(block: &'a str, out: &mut Vec<&'a str>) -> BlockReport {
    out.clear();
    let mut report = BlockReport::default();
    let lines = block
        .split('\n')
        .map(|raw| raw.trim_end_matches('\r'))
        .filter(|line| !line.is_empty());
    for (i, line) in lines.enumerate() {
        match frame(line) {
            Ok(_) => {
                report.parsed += 1;
                out.push(line);
            }
            Err(defect) => {
                report.skipped += 1;
                report.errors.push(LineDefect {
                    line: i + 1,
                    defect,
                });
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
                     $GPZDA,201530.00,04,07,2002,00,00*60\n";
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
        // write tear, a line with no checksum, two lines run together,
        // blank separators, then a good tail line.
        let block = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47\n\
                     $GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*FF\n\
                     $GP\u{fffd}\u{fffd}binary tear\n\
                     GPRMC,123519,A,4807.038,N\n\
                     $GPGSA,A,3,04,05*4\n\
                     $GPXXX,no,checksum\n\
                     $GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47$GPVTG,054.7,T,034.4,M,005.5,N,010.2,K*48\n\
                     \r\n\
                     \n\
                     $GPXXX,tail*73\n";
        let mut out = Vec::new();
        let report = scan_block(block, &mut out);
        assert_eq!(report.parsed, 2);
        assert_eq!(report.skipped, 6);
        assert_eq!(
            out,
            vec![
                "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47",
                "$GPXXX,tail*73",
            ]
        );
        let defects: Vec<(usize, FrameError)> =
            report.errors.iter().map(|e| (e.line, e.defect)).collect();
        assert_eq!(
            defects,
            vec![
                (
                    2,
                    FrameError::ChecksumMismatch {
                        computed: 0x48,
                        transmitted: 0xFF
                    }
                ),
                (3, FrameError::NotPrintable { offset: 3 }),
                (4, FrameError::MissingStart),
                (5, FrameError::MalformedChecksum),
                (6, FrameError::MissingChecksum),
                (7, FrameError::TooLong { len: 106 }),
            ]
        );
        // Defects render with their line numbers for diagnostics.
        assert!(report.errors[0].to_string().starts_with("line 2: "));
    }

    #[test]
    fn scan_verdict_is_the_framing_rule() {
        // The sign `u8::from_str_radix` would accept is not a hex digit,
        // for the scan as for the parser.
        let mut out = Vec::new();
        let report = scan_block("$GPZDA,1,|*+5\n$GPZDA,1,|*05\n", &mut out);
        assert_eq!(out, vec!["$GPZDA,1,|*05"]);
        assert_eq!(report.errors[0].defect, FrameError::MalformedChecksum);
        assert!(parse_sentence("$GPZDA,1,|*+5").is_err());
        assert!(!perpos_nmea::is_valid_sentence("$GPZDA,1,|*+5"));
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
        assert_eq!(
            report.errors[0].defect,
            FrameError::ChecksumMismatch {
                computed: xor,
                transmitted: xor ^ 1
            }
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

        let block = "$GPXXX,one*07\nnope\n$GPXXX,two*0F\n";
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
        assert_eq!(
            *seen.lock().unwrap(),
            vec!["$GPXXX,one*07", "$GPXXX,two*0F"]
        );
    }
}
