//! NMEA-0183 substrate for the PerPos positioning middleware.
//!
//! GPS receivers deliver their measurements as a byte stream of NMEA-0183
//! sentences. In the PerPos processing graph (paper Fig. 1/4) a *Parser*
//! component turns raw strings into structured sentences, from which an
//! *Interpreter* derives WGS-84 positions, and Component Features extract
//! seam information such as HDOP and satellite counts (paper §3.1, Fig. 5).
//!
//! This crate provides:
//!
//! * the one framing rule ([`frame`]): what a well-framed line is, and
//!   why a line is not one ([`FrameError`]),
//! * the sentence data model ([`Sentence`], [`Gga`], [`Rmc`], …),
//! * a validating parser ([`parse_sentence`]) and encoder
//!   ([`Sentence::to_nmea_string`]) that round-trip,
//! * a validate-only check ([`is_valid_sentence`]) whose accept set is
//!   exactly the parser's, for consumers that forward a line without
//!   using its fields, and
//! * a no-parse type peek ([`sentence_type`]) the parser itself
//!   dispatches on.
//!
//! The parser and the check share one field scanner, which finds a
//! sentence's commas eight bytes at a time. The parser decodes a plain
//! decimal field of at most 15 digits as one exact division, integer ÷
//! 10^k, which gives the same bits as `str::parse::<f64>`; other float
//! text goes to `str::parse`. The check reads each field's grammar
//! instead of decoding it and allocates nothing. It hands the rare
//! field outside the plain grammar (`1e3`, `+5`) to the parser.
//!
//! Framing is this crate's: [`frame`] is the only code in the workspace
//! that decides whether a line is a sentence (`$`, at most 82 bytes,
//! printable ASCII, a `*hh` checksum that matches). The parser, the
//! check and the sensor layer's block scanner (`perpos-sensors`'
//! `scan_block`, which only splits a block into lines and reports each
//! line's [`FrameError`]) all call it.
//!
//! # Examples
//!
//! ```
//! use perpos_nmea::{parse_sentence, Sentence};
//!
//! let line = "$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,46.9,M,,*47";
//! match parse_sentence(line)? {
//!     Sentence::Gga(gga) => {
//!         assert_eq!(gga.num_satellites, 8);
//!         assert!((gga.hdop - 0.9).abs() < 1e-9);
//!     }
//!     other => panic!("expected GGA, got {other:?}"),
//! }
//! # Ok::<(), perpos_nmea::NmeaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod error;
mod parser;
mod sentence;

pub use error::{FrameError, NmeaError};
pub use parser::{checksum, frame, is_valid_sentence, parse_sentence, sentence_type};
pub use sentence::{
    FixQuality, Gga, Gsa, GsaFixType, Gsv, NmeaTime, Rmc, SatelliteInfo, Sentence, Vtg,
};
