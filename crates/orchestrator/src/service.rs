//! Service request APIs (paper §3.2).
//!
//! These are environment-wide abstractions: a request names *what* is
//! wanted (a link, a room, a device, a quality target), never *which*
//! surface provides it. Each accepted request becomes a [`crate::task::Task`].

/// The classes of low-level capability surfaces provide (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// Per-link connectivity enhancement.
    Connectivity,
    /// Area coverage extension.
    Coverage,
    /// Localization / tracking / motion sensing.
    Sensing,
    /// Wireless power delivery.
    Powering,
    /// Physical-layer security protection (beam nulling towards
    /// eavesdropping regions).
    Security,
}

/// The quantitative goal of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceGoal {
    /// Reach at least this SNR (dB) on a link, with a latency budget (ms).
    LinkQuality {
        /// Minimum SNR in dB.
        min_snr_db: f64,
        /// Maximum tolerable latency in milliseconds.
        max_latency_ms: f64,
    },
    /// Reach at least this median SNR (dB) over a room.
    AreaCoverage {
        /// Target median SNR in dB.
        median_snr_db: f64,
    },
    /// Keep localization error below this bound (metres).
    LocalizationAccuracy {
        /// Maximum localization error in metres.
        max_error_m: f64,
    },
    /// Deliver at least this RF power (dBm) at the device.
    DeliveredPower {
        /// Minimum delivered power in dBm.
        min_power_dbm: f64,
    },
    /// Suppress signal below this level (dBm) in a protected region.
    Suppression {
        /// Maximum leaked power in dBm.
        max_leak_dbm: f64,
    },
}

/// A service request — the argument of one service API call.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRequest {
    /// Service class.
    pub kind: ServiceKind,
    /// The subject: an endpoint id (`"VR_headset"`) or room name
    /// (`"bedroom"`), depending on the service.
    pub subject: String,
    /// Quantitative goal.
    pub goal: ServiceGoal,
    /// Requested duration in seconds (`None` = until cancelled).
    pub duration_s: Option<f64>,
    /// Priority: higher wins contention. 0 is background.
    pub priority: u8,
}

/// ```
/// use surfos_orchestrator::service::ServiceRequest;
///
/// let r = ServiceRequest::enhance_link("VR_headset", 30.0, 10.0);
/// assert_eq!(r.to_string(), r#"enhance_link("VR_headset", snr=30, latency=10)"#);
/// ```
impl ServiceRequest {
    /// `enhance_link(subject, snr, latency)` — the paper's Figure 6 call.
    pub fn enhance_link(subject: impl Into<String>, snr_db: f64, latency_ms: f64) -> Self {
        ServiceRequest {
            kind: ServiceKind::Connectivity,
            subject: subject.into(),
            goal: ServiceGoal::LinkQuality {
                min_snr_db: snr_db,
                max_latency_ms: latency_ms,
            },
            duration_s: None,
            priority: 5,
        }
    }

    /// `optimize_coverage(room, median_snr)`.
    pub fn optimize_coverage(room: impl Into<String>, median_snr_db: f64) -> Self {
        ServiceRequest {
            kind: ServiceKind::Coverage,
            subject: room.into(),
            goal: ServiceGoal::AreaCoverage { median_snr_db },
            duration_s: None,
            priority: 3,
        }
    }

    /// `enable_sensing(room, duration)` — tracking-grade localization.
    pub fn enable_sensing(room: impl Into<String>, duration_s: f64) -> Self {
        ServiceRequest {
            kind: ServiceKind::Sensing,
            subject: room.into(),
            goal: ServiceGoal::LocalizationAccuracy { max_error_m: 0.5 },
            duration_s: Some(duration_s),
            priority: 4,
        }
    }

    /// `init_powering(device, duration)`.
    pub fn init_powering(device: impl Into<String>, duration_s: f64) -> Self {
        ServiceRequest {
            kind: ServiceKind::Powering,
            subject: device.into(),
            goal: ServiceGoal::DeliveredPower {
                min_power_dbm: -10.0,
            },
            duration_s: Some(duration_s),
            priority: 2,
        }
    }

    /// `protect_link(region, max_leak)` — security suppression.
    pub fn protect_link(region: impl Into<String>, max_leak_dbm: f64) -> Self {
        ServiceRequest {
            kind: ServiceKind::Security,
            subject: region.into(),
            goal: ServiceGoal::Suppression { max_leak_dbm },
            duration_s: None,
            priority: 6,
        }
    }

    /// Sets the priority (builder style).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Parses the `<kind> <subject> <value>` vocabulary shared by the
    /// shell's `request` command and the `surfosd` wire protocol: `value`
    /// is the SNR goal for `coverage`/`link`, the duration in seconds for
    /// `sensing`/`powering`, and the leak ceiling for `protect`. Rejects
    /// unknown kinds, non-finite values and non-positive durations. The
    /// subject is not resolved here (see
    /// [`crate::Orchestrator::check_subject`]).
    pub fn parse(kind: &str, subject: &str, value: f64) -> Result<Self, String> {
        let request = match kind {
            "coverage" => Self::optimize_coverage(subject, value),
            "link" => Self::enhance_link(subject, value, 50.0),
            "sensing" => Self::enable_sensing(subject, value),
            "powering" => Self::init_powering(subject, value),
            "protect" => Self::protect_link(subject, value),
            _ => {
                return Err(format!(
                    "unknown service kind {kind:?} ({})",
                    SERVICE_KINDS.join("|")
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("{kind} value must be finite, got {value}"));
        }
        if request.duration_s.is_some() && value <= 0.0 {
            return Err(format!("{kind} duration must be positive, got {value} s"));
        }
        Ok(request)
    }
}

/// The kind names [`ServiceRequest::parse`] accepts.
pub const SERVICE_KINDS: [&str; 5] = ["coverage", "link", "sensing", "powering", "protect"];

impl std::fmt::Display for ServiceRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.kind, &self.goal) {
            (
                ServiceKind::Connectivity,
                ServiceGoal::LinkQuality {
                    min_snr_db,
                    max_latency_ms,
                },
            ) => {
                write!(
                    f,
                    "enhance_link({:?}, snr={min_snr_db}, latency={max_latency_ms})",
                    self.subject
                )
            }
            (ServiceKind::Coverage, ServiceGoal::AreaCoverage { median_snr_db }) => {
                write!(
                    f,
                    "optimize_coverage({:?}, median_snr={median_snr_db})",
                    self.subject
                )
            }
            (ServiceKind::Sensing, _) => {
                let d = self.duration_s.unwrap_or(f64::INFINITY);
                write!(
                    f,
                    "enable_sensing({:?}, type=\"tracking\", duration={d})",
                    self.subject
                )
            }
            (ServiceKind::Powering, _) => {
                let d = self.duration_s.unwrap_or(f64::INFINITY);
                write!(f, "init_powering({:?}, duration={d})", self.subject)
            }
            (ServiceKind::Security, ServiceGoal::Suppression { max_leak_dbm }) => {
                write!(
                    f,
                    "protect_link({:?}, max_leak={max_leak_dbm})",
                    self.subject
                )
            }
            _ => write!(f, "{:?}({:?})", self.kind, self.subject),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_match_paper_calls() {
        let r = ServiceRequest::enhance_link("VR_headset", 30.0, 10.0);
        assert_eq!(r.kind, ServiceKind::Connectivity);
        assert_eq!(
            r.to_string(),
            "enhance_link(\"VR_headset\", snr=30, latency=10)"
        );

        let r = ServiceRequest::optimize_coverage("room_id", 25.0);
        assert_eq!(
            r.to_string(),
            "optimize_coverage(\"room_id\", median_snr=25)"
        );

        let r = ServiceRequest::enable_sensing("meeting_room", 3600.0);
        assert_eq!(
            r.to_string(),
            "enable_sensing(\"meeting_room\", type=\"tracking\", duration=3600)"
        );

        let r = ServiceRequest::init_powering("phone", 3600.0);
        assert_eq!(r.to_string(), "init_powering(\"phone\", duration=3600)");
    }

    #[test]
    fn parse_maps_kinds_and_rejects_bad_values() {
        let r = ServiceRequest::parse("link", "laptop", 20.0).unwrap();
        assert_eq!(r, ServiceRequest::enhance_link("laptop", 20.0, 50.0));
        let r = ServiceRequest::parse("sensing", "bedroom", 60.0).unwrap();
        assert_eq!(r, ServiceRequest::enable_sensing("bedroom", 60.0));
        assert!(ServiceRequest::parse("protect", "vault", -90.0).is_ok());
        let err = ServiceRequest::parse("teleport", "x", 1.0).unwrap_err();
        assert!(
            err.contains("teleport") && err.contains("coverage|link"),
            "{err}"
        );
        assert!(ServiceRequest::parse("coverage", "x", f64::NAN).is_err());
        assert!(ServiceRequest::parse("link", "x", f64::NEG_INFINITY).is_err());
        assert!(ServiceRequest::parse("powering", "x", 0.0).is_err());
        assert!(ServiceRequest::parse("sensing", "x", -1.0).is_err());
    }

    #[test]
    fn priority_builder() {
        let r = ServiceRequest::optimize_coverage("x", 20.0).with_priority(9);
        assert_eq!(r.priority, 9);
    }

    #[test]
    fn security_outranks_default_connectivity() {
        let sec = ServiceRequest::protect_link("vault", -90.0);
        let link = ServiceRequest::enhance_link("laptop", 20.0, 50.0);
        assert!(sec.priority > link.priority);
    }
}
