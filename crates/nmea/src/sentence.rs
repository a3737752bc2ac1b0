use serde::{Deserialize, Serialize};
use std::fmt;

/// A UTC time-of-day as carried in NMEA sentences (`hhmmss.sss`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NmeaTime {
    /// Hours `0..24`.
    pub hour: u8,
    /// Minutes `0..60`.
    pub minute: u8,
    /// Seconds `0..60`.
    pub second: u8,
    /// Milliseconds `0..1000`.
    pub millis: u16,
}

impl NmeaTime {
    /// Creates a time of day; values are taken as-is (the parser validates).
    pub fn new(hour: u8, minute: u8, second: u8, millis: u16) -> Self {
        NmeaTime {
            hour,
            minute,
            second,
            millis,
        }
    }

    /// Seconds since midnight, fractional.
    pub fn seconds_of_day(&self) -> f64 {
        f64::from(self.hour) * 3600.0
            + f64::from(self.minute) * 60.0
            + f64::from(self.second)
            + f64::from(self.millis) / 1000.0
    }

    /// Builds a time of day from fractional seconds since midnight.
    ///
    /// Values are wrapped into one day.
    pub fn from_seconds_of_day(secs: f64) -> Self {
        let s = secs.rem_euclid(86_400.0);
        let hour = (s / 3600.0) as u8;
        let minute = ((s % 3600.0) / 60.0) as u8;
        let second = (s % 60.0) as u8;
        let millis = ((s - s.floor()) * 1000.0).round() as u16;
        NmeaTime {
            hour,
            minute,
            second,
            millis: millis.min(999),
        }
    }
}

impl fmt::Display for NmeaTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02}:{:02}:{:02}.{:03}",
            self.hour, self.minute, self.second, self.millis
        )
    }
}

/// GPS fix quality as reported in GGA field 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FixQuality {
    /// No fix available.
    #[default]
    Invalid,
    /// Standard GPS fix.
    Gps,
    /// Differential GPS fix.
    Dgps,
    /// Other / proprietary fix kinds (PPS, RTK, estimated, …).
    Other(u8),
}

impl FixQuality {
    /// The numeric NMEA encoding of this quality.
    pub fn as_u8(&self) -> u8 {
        match self {
            FixQuality::Invalid => 0,
            FixQuality::Gps => 1,
            FixQuality::Dgps => 2,
            FixQuality::Other(v) => *v,
        }
    }

    /// Decodes the numeric NMEA value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => FixQuality::Invalid,
            1 => FixQuality::Gps,
            2 => FixQuality::Dgps,
            other => FixQuality::Other(other),
        }
    }

    /// Whether the receiver claims any kind of position fix.
    pub fn has_fix(&self) -> bool {
        !matches!(self, FixQuality::Invalid)
    }
}

/// `GGA` — global positioning system fix data.
///
/// This is the sentence the PerPos Interpreter consumes for positions and
/// the one whose HDOP / satellite-count fields the paper's Component
/// Features expose (§3.1, Fig. 5).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Gga {
    /// UTC time of the fix.
    pub time: NmeaTime,
    /// Latitude in decimal degrees, positive north; `None` when no fix.
    pub lat_deg: Option<f64>,
    /// Longitude in decimal degrees, positive east; `None` when no fix.
    pub lon_deg: Option<f64>,
    /// Fix quality indicator.
    pub quality: FixQuality,
    /// Number of satellites used in the fix.
    pub num_satellites: u8,
    /// Horizontal dilution of precision.
    pub hdop: f64,
    /// Antenna altitude above mean sea level in metres.
    pub altitude_m: f64,
    /// Geoidal separation in metres.
    pub geoid_separation_m: f64,
}

/// `RMC` — recommended minimum navigation information.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Rmc {
    /// UTC time of the fix.
    pub time: NmeaTime,
    /// Whether the receiver considers the data valid (`A`) or void (`V`).
    pub valid: bool,
    /// Latitude in decimal degrees, positive north; `None` when void.
    pub lat_deg: Option<f64>,
    /// Longitude in decimal degrees, positive east; `None` when void.
    pub lon_deg: Option<f64>,
    /// Speed over ground in knots.
    pub speed_knots: f64,
    /// Course over ground in degrees true.
    pub course_deg: f64,
    /// Date as `ddmmyy`.
    pub date: String,
}

impl Rmc {
    /// Speed over ground in metres per second.
    pub fn speed_mps(&self) -> f64 {
        self.speed_knots * 0.514_444
    }
}

/// Fix type reported in GSA field 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum GsaFixType {
    /// No fix.
    #[default]
    NoFix,
    /// 2-D fix.
    Fix2d,
    /// 3-D fix.
    Fix3d,
}

/// `GSA` — DOP and active satellites.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Gsa {
    /// `true` when satellite selection is automatic.
    pub auto_selection: bool,
    /// Fix type.
    pub fix_type: GsaFixType,
    /// PRNs of satellites used in the fix (up to 12).
    pub prns: Vec<u8>,
    /// Position dilution of precision.
    pub pdop: f64,
    /// Horizontal dilution of precision.
    pub hdop: f64,
    /// Vertical dilution of precision.
    pub vdop: f64,
}

/// Per-satellite data inside a GSV sentence.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SatelliteInfo {
    /// Satellite PRN number.
    pub prn: u8,
    /// Elevation in degrees, `0..=90`.
    pub elevation_deg: u8,
    /// Azimuth in degrees, `0..360`.
    pub azimuth_deg: u16,
    /// Signal-to-noise ratio in dB; `None` when not tracked.
    pub snr_db: Option<u8>,
}

/// `GSV` — satellites in view.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Gsv {
    /// Total number of GSV messages in this cycle.
    pub total_messages: u8,
    /// Index of this message, 1-based.
    pub message_number: u8,
    /// Total satellites in view.
    pub satellites_in_view: u8,
    /// Up to four satellite records.
    pub satellites: Vec<SatelliteInfo>,
}

/// `VTG` — track made good and ground speed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vtg {
    /// Course over ground, degrees true.
    pub course_true_deg: f64,
    /// Speed over ground in knots.
    pub speed_knots: f64,
    /// Speed over ground in km/h.
    pub speed_kmh: f64,
}

/// A parsed NMEA-0183 sentence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Sentence {
    /// GGA fix data.
    Gga(Gga),
    /// RMC recommended minimum data.
    Rmc(Rmc),
    /// GSA DOP and active satellites.
    Gsa(Gsa),
    /// GSV satellites in view.
    Gsv(Gsv),
    /// VTG course and speed.
    Vtg(Vtg),
    /// A syntactically valid sentence of a type this crate does not model.
    Unknown {
        /// Five-character address field, e.g. `"GPZDA"`.
        talker_and_type: String,
        /// Raw data fields.
        fields: Vec<String>,
    },
}

impl Sentence {
    /// The three-letter sentence type, e.g. `"GGA"`.
    pub fn type_code(&self) -> &str {
        match self {
            Sentence::Gga(_) => "GGA",
            Sentence::Rmc(_) => "RMC",
            Sentence::Gsa(_) => "GSA",
            Sentence::Gsv(_) => "GSV",
            Sentence::Vtg(_) => "VTG",
            Sentence::Unknown {
                talker_and_type, ..
            } => crate::sentence_type(talker_and_type).unwrap_or(talker_and_type),
        }
    }

    /// Whether the sentence carries a usable position fix.
    pub fn has_fix(&self) -> bool {
        match self {
            Sentence::Gga(g) => g.quality.has_fix() && g.lat_deg.is_some(),
            Sentence::Rmc(r) => r.valid && r.lat_deg.is_some(),
            _ => false,
        }
    }
}

impl fmt::Display for Sentence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_nmea_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_seconds_round_trip() {
        let t = NmeaTime::new(12, 35, 19, 250);
        let back = NmeaTime::from_seconds_of_day(t.seconds_of_day());
        assert_eq!(t, back);
    }

    #[test]
    fn time_wraps_past_midnight() {
        let t = NmeaTime::from_seconds_of_day(86_400.0 + 61.5);
        assert_eq!((t.hour, t.minute, t.second, t.millis), (0, 1, 1, 500));
    }

    #[test]
    fn fix_quality_round_trip() {
        for v in 0..10u8 {
            assert_eq!(FixQuality::from_u8(v).as_u8(), v);
        }
        assert!(!FixQuality::Invalid.has_fix());
        assert!(FixQuality::Gps.has_fix());
        assert!(FixQuality::Other(5).has_fix());
    }

    #[test]
    fn rmc_speed_conversion() {
        let rmc = Rmc {
            speed_knots: 10.0,
            ..Rmc::default()
        };
        assert!((rmc.speed_mps() - 5.14444).abs() < 1e-9);
    }

    #[test]
    fn sentence_type_codes() {
        assert_eq!(Sentence::Gga(Gga::default()).type_code(), "GGA");
        assert_eq!(
            Sentence::Unknown {
                talker_and_type: "GPZDA".into(),
                fields: vec![]
            }
            .type_code(),
            "ZDA"
        );
    }

    #[test]
    fn non_ascii_unknown_type_code_does_not_panic() {
        // Bytes 2..5 of "GPXYé" split the two-byte 'é'.
        let unknown = Sentence::Unknown {
            talker_and_type: "GPXYé".into(),
            fields: vec![],
        };
        assert_eq!(unknown.type_code(), "GPXYé");
    }

    #[test]
    fn has_fix_requires_coordinates() {
        let mut gga = Gga {
            quality: FixQuality::Gps,
            ..Gga::default()
        };
        assert!(!Sentence::Gga(gga.clone()).has_fix());
        gga.lat_deg = Some(56.0);
        gga.lon_deg = Some(10.0);
        assert!(Sentence::Gga(gga).has_fix());
    }
}
