//! Non-surface hardware SurfOS manages or interacts with (paper §3.1):
//! APs, base stations, and external sensors that report measurements.

/// What a non-surface device can contribute to SurfOS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensingCapability {
    /// Per-client channel/RSS feedback via MAC-layer reports (802.11ad
    /// beam sweeps, cellular CSI).
    ChannelFeedback,
    /// Raw received-power measurements (LAVA-style power detectors).
    PowerDetector,
    /// 3-D geometry capture (AutoMS-style Lidar).
    Lidar,
    /// Doppler/range measurements (mmWave radar).
    Radar,
    /// Visual observation (cameras).
    Camera,
}

/// A registered non-surface device.
#[derive(Debug, Clone, PartialEq)]
pub struct NonSurfaceDevice {
    /// Unique device id, e.g. `"ap0"`.
    pub id: String,
    /// Device class.
    pub kind: NonSurfaceKind,
    /// What it can sense/report.
    pub capabilities: Vec<SensingCapability>,
}

/// Classes of non-surface hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NonSurfaceKind {
    /// Wi-Fi / WiGig access point.
    AccessPoint,
    /// Cellular base station.
    BaseStation,
    /// A standalone sensor.
    Sensor,
}

impl NonSurfaceDevice {
    /// An 802.11ad-class AP with MAC-layer channel feedback.
    pub fn ap(id: impl Into<String>) -> Self {
        NonSurfaceDevice {
            id: id.into(),
            kind: NonSurfaceKind::AccessPoint,
            capabilities: vec![SensingCapability::ChannelFeedback],
        }
    }

    /// A cellular base station with CSI feedback.
    pub fn base_station(id: impl Into<String>) -> Self {
        NonSurfaceDevice {
            id: id.into(),
            kind: NonSurfaceKind::BaseStation,
            capabilities: vec![SensingCapability::ChannelFeedback],
        }
    }

    /// A standalone sensor with the given capability.
    pub fn sensor(id: impl Into<String>, capability: SensingCapability) -> Self {
        NonSurfaceDevice {
            id: id.into(),
            kind: NonSurfaceKind::Sensor,
            capabilities: vec![capability],
        }
    }

    /// Whether the device offers a capability.
    pub fn has(&self, capability: SensingCapability) -> bool {
        self.capabilities.contains(&capability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let ap = NonSurfaceDevice::ap("ap0");
        assert_eq!(ap.kind, NonSurfaceKind::AccessPoint);
        assert!(ap.has(SensingCapability::ChannelFeedback));
        assert!(!ap.has(SensingCapability::Lidar));

        let lidar = NonSurfaceDevice::sensor("l0", SensingCapability::Lidar);
        assert_eq!(lidar.kind, NonSurfaceKind::Sensor);
        assert!(lidar.has(SensingCapability::Lidar));

        let bs = NonSurfaceDevice::base_station("gnb0");
        assert_eq!(bs.kind, NonSurfaceKind::BaseStation);
    }
}
