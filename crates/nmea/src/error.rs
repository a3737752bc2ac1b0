use std::error::Error;
use std::fmt;

/// Why [`frame`](crate::frame) rejected a line: the one set of framing
/// defects, shared by the parser, the validator and the sensor layer's
/// block scanner. Borrows nothing and never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The line, less its terminator, is longer than the NMEA maximum of
    /// 82 bytes.
    TooLong {
        /// Length in bytes, terminator excluded.
        len: usize,
    },
    /// The line does not start with `$`.
    MissingStart,
    /// The line holds a byte outside printable ASCII (0x20–0x7E).
    NotPrintable {
        /// Byte offset of the first such byte within the line.
        offset: usize,
    },
    /// The line has no `*` at all, so no checksum.
    MissingChecksum,
    /// The line has a `*` but does not end in `*` and two hex digits.
    MalformedChecksum,
    /// The `*hh` checksum differs from the XOR of the body.
    ChecksumMismatch {
        /// Checksum computed over the body.
        computed: u8,
        /// Checksum carried on the line.
        transmitted: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FrameError::TooLong { len } => {
                write!(f, "sentence length {len} exceeds the NMEA maximum of 82")
            }
            FrameError::MissingStart => write!(f, "sentence does not start with '$'"),
            FrameError::NotPrintable { offset } => {
                write!(f, "byte outside printable ASCII at offset {offset}")
            }
            FrameError::MissingChecksum => write!(f, "sentence has no '*hh' checksum"),
            FrameError::MalformedChecksum => {
                write!(f, "sentence does not end in '*' and two hex digits")
            }
            FrameError::ChecksumMismatch {
                computed,
                transmitted,
            } => write!(
                f,
                "checksum mismatch: computed {computed:02X}, transmitted {transmitted:02X}"
            ),
        }
    }
}

impl Error for FrameError {}

/// Error produced while parsing NMEA-0183 data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NmeaError {
    /// The line is not a well-framed sentence.
    Frame(FrameError),
    /// The sentence has fewer fields than the sentence type requires.
    TooFewFields {
        /// Sentence type, e.g. `"GGA"`.
        sentence: &'static str,
        /// Number of fields found.
        got: usize,
        /// Number of fields required.
        need: usize,
    },
    /// A field could not be parsed.
    InvalidField {
        /// Name of the offending field.
        field: &'static str,
        /// The raw field text.
        value: String,
    },
}

impl From<FrameError> for NmeaError {
    fn from(e: FrameError) -> Self {
        NmeaError::Frame(e)
    }
}

impl fmt::Display for NmeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NmeaError::Frame(e) => e.fmt(f),
            NmeaError::TooFewFields {
                sentence,
                got,
                need,
            } => write!(f, "{sentence} sentence has {got} fields, needs {need}"),
            NmeaError::InvalidField { field, value } => {
                write!(f, "invalid {field} field {value:?}")
            }
        }
    }
}

impl Error for NmeaError {}
