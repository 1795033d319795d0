//! Hardware specifications: what a surface design can do.
//!
//! The paper (§3.1) requires drivers to "explicitly capture and expose key
//! hardware parameters to the upper layer": wideband frequency response,
//! operation mode, control delay, and the control primitives supported.
//! [`HardwareSpec`] is that datasheet-as-data.

use crate::granularity::Reconfigurability;
use surfos_em::band::Band;

/// Which fundamental signal property a design can alter, and how finely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlCapability {
    /// Phase shifting with `bits` quantization (1-bit = {0, π}).
    Phase {
        /// Quantization depth in bits (≥ 1).
        bits: u8,
    },
    /// On/off or multi-level amplitude control.
    Amplitude {
        /// Number of distinct amplitude levels (≥ 2; 2 = on/off).
        levels: u8,
    },
    /// Frequency-selective response tuning (Scrolls-style).
    Frequency {
        /// Tunable range of the resonance centre, hertz.
        tunable_range_hz: f64,
    },
    /// Polarization rotation (LLAMA-style).
    Polarization,
}

impl ControlCapability {
    /// A short stable name for display and matching.
    pub fn name(&self) -> &'static str {
        match self {
            ControlCapability::Phase { .. } => "phase",
            ControlCapability::Amplitude { .. } => "amplitude",
            ControlCapability::Frequency { .. } => "frequency",
            ControlCapability::Polarization => "polarization",
        }
    }
}

/// Transmissive / reflective / both — mirrors
/// `surfos_channel::OperationMode` without depending on the channel crate
/// (hw is physics-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SurfaceMode {
    /// Reflects incident signals.
    Reflective,
    /// Passes signals through.
    Transmissive,
    /// Both.
    Transflective,
}

/// The full specification of a surface hardware design.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSpec {
    /// Design/model name, e.g. `"mmWall"`.
    pub model: String,
    /// The band the design is engineered for.
    pub band: Band,
    /// Operation mode.
    pub mode: SurfaceMode,
    /// Supported control primitives.
    pub capabilities: Vec<ControlCapability>,
    /// Spatial control granularity.
    pub reconfigurability: Reconfigurability,
    /// Element rows.
    pub rows: usize,
    /// Element columns.
    pub cols: usize,
    /// Element pitch in metres (square lattice assumed).
    pub pitch_m: f64,
    /// Element amplitude efficiency in `[0, 1]`.
    pub efficiency: f64,
    /// Control delay for a configuration update, in microseconds.
    /// `None` for passive designs ("infinite control delay" — ROM).
    pub control_delay_us: Option<u64>,
    /// Number of locally-stored configuration slots (codebook size).
    /// Passive designs have exactly 1 (the fabricated pattern).
    pub config_slots: usize,
    /// Hardware cost in USD per element.
    pub cost_per_element_usd: f64,
    /// Fixed cost in USD (controller, substrate, assembly).
    pub base_cost_usd: f64,
    /// Standby + switching power in milliwatts. Zero for passive.
    pub power_mw: f64,
}

impl HardwareSpec {
    /// Total element count.
    pub fn element_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Total hardware cost in USD.
    pub fn total_cost_usd(&self) -> f64 {
        self.base_cost_usd + self.cost_per_element_usd * self.element_count() as f64
    }

    /// Physical aperture area in m².
    pub fn area_m2(&self) -> f64 {
        (self.rows as f64 * self.pitch_m) * (self.cols as f64 * self.pitch_m)
    }

    /// Whether the design supports a control primitive by name
    /// (`"phase"`, `"amplitude"`, `"frequency"`, `"polarization"`).
    pub fn supports(&self, primitive: &str) -> bool {
        self.capabilities.iter().any(|c| c.name() == primitive)
    }

    /// Phase quantization depth in bits, if phase control is supported.
    pub fn phase_bits(&self) -> Option<u8> {
        self.capabilities.iter().find_map(|c| match c {
            ControlCapability::Phase { bits } => Some(*bits),
            _ => None,
        })
    }

    /// Whether this is a passive (fabrication-time configured) design.
    pub fn is_passive(&self) -> bool {
        self.control_delay_us.is_none()
    }

    /// The wideband amplitude frequency response at `freq_hz`: how much of
    /// an incident signal the surface passes *unaltered* (transmission
    /// efficiency off-band). This captures the paper's §2.1 warning that a
    /// 2.4 GHz surface may block 3 GHz cellular and 5 GHz Wi-Fi.
    ///
    /// Model: within its design band the surface interacts strongly (the
    /// programmed behaviour applies). Off-band the structure behaves as a
    /// partially blocking sheet with a Lorentzian-shaped interaction that
    /// falls off with fractional detuning.
    pub fn offband_transmission(&self, freq_hz: f64) -> f64 {
        assert!(freq_hz > 0.0, "frequency must be positive");
        let f0 = self.band.center_hz;
        // Fractional detuning against the *structural* resonance width of
        // the meta-atoms, which is much broader than the communication
        // channel (typically tens of percent fractional bandwidth) — the
        // reason a 2.4 GHz surface still bothers 3.5 GHz cellular.
        let detune = (freq_hz - f0).abs() / f0;
        let rel_bw = (self.band.bandwidth_hz / f0).max(0.25);
        let x = detune / rel_bw;
        // Interaction strength ~ Lorentzian; blocked fraction up to 60 %.
        let interaction = 1.0 / (1.0 + x * x);
        let blocked = 0.6 * interaction;
        (1.0 - blocked).sqrt() // amplitude, not power
    }

    /// Validates internal consistency. Call after constructing specs by
    /// hand or from parsed datasheets.
    pub fn validate(&self) -> Result<(), String> {
        if self.model.is_empty() {
            return Err("model name empty".into());
        }
        if self.rows == 0 || self.cols == 0 {
            return Err("element grid empty".into());
        }
        if self.pitch_m <= 0.0 {
            return Err("pitch must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.efficiency) {
            return Err("efficiency outside [0,1]".into());
        }
        if self.capabilities.is_empty() {
            return Err("no control capabilities".into());
        }
        if self.config_slots == 0 {
            return Err("must store at least one configuration".into());
        }
        if self.is_passive() && self.config_slots != 1 {
            return Err("passive designs store exactly one configuration".into());
        }
        if self.is_passive() && self.power_mw != 0.0 {
            return Err("passive designs draw no power".into());
        }
        if self.cost_per_element_usd < 0.0 || self.base_cost_usd < 0.0 {
            return Err("costs must be non-negative".into());
        }
        if let Some(bits) = self.phase_bits() {
            if bits == 0 || bits > 16 {
                return Err("phase bits must be in 1..=16".into());
            }
        }
        if matches!(self.reconfigurability, Reconfigurability::Passive) != self.is_passive() {
            return Err("reconfigurability and control delay disagree about passivity".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_em::band::NamedBand;

    pub(crate) fn demo_spec() -> HardwareSpec {
        HardwareSpec {
            model: "demo".into(),
            band: NamedBand::MmWave28GHz.band(),
            mode: SurfaceMode::Reflective,
            capabilities: vec![ControlCapability::Phase { bits: 2 }],
            reconfigurability: Reconfigurability::ElementWise,
            rows: 16,
            cols: 16,
            pitch_m: 0.0053,
            efficiency: 0.8,
            control_delay_us: Some(100),
            config_slots: 8,
            cost_per_element_usd: 2.0,
            base_cost_usd: 150.0,
            power_mw: 500.0,
        }
    }

    #[test]
    fn derived_quantities() {
        let s = demo_spec();
        assert_eq!(s.element_count(), 256);
        assert!((s.total_cost_usd() - (150.0 + 512.0)).abs() < 1e-9);
        assert!((s.area_m2() - (16.0 * 0.0053f64).powi(2)).abs() < 1e-12);
        assert_eq!(s.phase_bits(), Some(2));
        assert!(s.supports("phase"));
        assert!(!s.supports("amplitude"));
        assert!(!s.is_passive());
    }

    #[test]
    fn validation_passes_demo() {
        assert_eq!(demo_spec().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut s = demo_spec();
        s.rows = 0;
        assert!(s.validate().is_err());

        let mut s = demo_spec();
        s.control_delay_us = None; // passive but 8 slots, element-wise, 500 mW
        assert!(s.validate().is_err());

        let mut s = demo_spec();
        s.efficiency = 1.5;
        assert!(s.validate().is_err());

        let mut s = demo_spec();
        s.capabilities.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn passive_consistency_enforced() {
        let mut s = demo_spec();
        s.control_delay_us = None;
        s.config_slots = 1;
        s.power_mw = 0.0;
        s.reconfigurability = Reconfigurability::Passive;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn offband_response_blocks_near_band() {
        let s = demo_spec(); // 28 GHz design
        let in_band = s.offband_transmission(28.0e9);
        let near = s.offband_transmission(29.0e9);
        let far = s.offband_transmission(60.0e9);
        assert!(in_band < near, "strongest interaction in band");
        assert!(near < far, "interaction falls off with detuning");
        assert!(far > 0.95, "far off-band nearly transparent");
        assert!(in_band >= (0.4f64).sqrt() - 1e-9, "never blocks fully");
    }

    #[test]
    fn capability_names() {
        assert_eq!(ControlCapability::Phase { bits: 1 }.name(), "phase");
        assert_eq!(ControlCapability::Polarization.name(), "polarization");
        assert_eq!(
            ControlCapability::Frequency {
                tunable_range_hz: 1e9
            }
            .name(),
            "frequency"
        );
    }
}
