//! Building materials with frequency-dependent RF behaviour.
//!
//! Two numbers matter per material per band: how much power survives
//! *through* it (penetration) and how much survives a specular *bounce*
//! (reflection). Both rise steeply with frequency for lossy dielectrics —
//! the reason mmWave needs surfaces at all. Values follow the usual indoor
//! measurement literature (ITU-R P.2040-class numbers), rounded; the
//! qualitative ordering is what the experiments rely on.

use surfos_em::band::Band;

/// A building material, exposing penetration and reflection losses by band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Material {
    /// Gypsum board on studs — interior partition walls.
    Drywall,
    /// Poured or block concrete — structural walls.
    Concrete,
    /// Single-pane glass — windows.
    Glass,
    /// Sheet metal / metallized surfaces — effectively opaque, mirror-like.
    Metal,
    /// Solid wood — doors, furniture.
    Wood,
    /// A human body (used by the dynamics model for walking blockers).
    HumanBody,
}

impl Material {
    /// Every variant, in discriminant order: `ALL[m.index()] == m`.
    /// Band-sweep hot loops use this to tabulate per-band losses once per
    /// probe instead of re-evaluating the match per crossed wall.
    pub const ALL: [Material; 6] = [
        Material::Drywall,
        Material::Concrete,
        Material::Glass,
        Material::Metal,
        Material::Wood,
        Material::HumanBody,
    ];

    /// Dense index of this variant within [`Material::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// One-way penetration loss in dB (positive) for a ray crossing the
    /// material at the given band.
    ///
    /// Sub-6 GHz values are modest; mmWave values are large enough that a
    /// single interior wall kills a 60 GHz link — the premise of the
    /// paper's coverage-extension scenarios.
    pub fn penetration_loss_db(self, band: &Band) -> f64 {
        let f_ghz = band.center_hz / 1e9;
        match self {
            Material::Drywall => {
                if f_ghz < 6.0 {
                    3.0
                } else if f_ghz < 40.0 {
                    12.0
                } else {
                    20.0
                }
            }
            Material::Concrete => {
                if f_ghz < 6.0 {
                    12.0
                } else if f_ghz < 40.0 {
                    45.0
                } else {
                    80.0
                }
            }
            Material::Glass => {
                if f_ghz < 6.0 {
                    2.0
                } else if f_ghz < 40.0 {
                    6.0
                } else {
                    10.0
                }
            }
            Material::Metal => 90.0,
            Material::Wood => {
                if f_ghz < 6.0 {
                    4.0
                } else if f_ghz < 40.0 {
                    9.0
                } else {
                    15.0
                }
            }
            Material::HumanBody => {
                if f_ghz < 6.0 {
                    5.0
                } else {
                    25.0
                }
            }
        }
    }

    /// Power loss in dB (positive) for a specular reflection off the
    /// material at the given band. Metal mirrors almost perfectly;
    /// dielectrics lose several dB per bounce.
    pub fn reflection_loss_db(self, band: &Band) -> f64 {
        let f_ghz = band.center_hz / 1e9;
        match self {
            Material::Drywall => {
                if f_ghz < 6.0 {
                    7.0
                } else {
                    10.0
                }
            }
            Material::Concrete => {
                if f_ghz < 6.0 {
                    4.0
                } else {
                    10.0
                }
            }
            Material::Glass => {
                if f_ghz < 6.0 {
                    6.0
                } else {
                    8.0
                }
            }
            Material::Metal => 0.5,
            Material::Wood => {
                if f_ghz < 6.0 {
                    8.0
                } else {
                    11.0
                }
            }
            Material::HumanBody => 15.0,
        }
    }

    /// Linear *amplitude* transmission factor through the material
    /// (`10^(-loss/20)`).
    pub fn transmission_amplitude(self, band: &Band) -> f64 {
        surfos_em::units::db_to_amplitude(-self.penetration_loss_db(band))
    }

    /// Linear *amplitude* reflection factor off the material.
    pub fn reflection_amplitude(self, band: &Band) -> f64 {
        surfos_em::units::db_to_amplitude(-self.reflection_loss_db(band))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_em::band::NamedBand;

    #[test]
    fn mmwave_walls_are_much_more_opaque() {
        let lo = NamedBand::Ism2_4GHz.band();
        let hi = NamedBand::MmWave60GHz.band();
        for m in [Material::Drywall, Material::Concrete, Material::Wood] {
            assert!(
                m.penetration_loss_db(&hi) > 2.0 * m.penetration_loss_db(&lo),
                "{m:?}"
            );
        }
    }

    #[test]
    fn concrete_blocks_mmwave_dead() {
        // > 60 dB one-way: a 60 GHz link through concrete is unusable.
        let band = NamedBand::MmWave60GHz.band();
        assert!(Material::Concrete.penetration_loss_db(&band) > 60.0);
    }

    #[test]
    fn metal_reflects_nearly_perfectly() {
        let band = NamedBand::MmWave28GHz.band();
        assert!(Material::Metal.reflection_loss_db(&band) < 1.0);
        assert!(Material::Metal.penetration_loss_db(&band) > 80.0);
    }

    #[test]
    fn amplitude_factors_in_unit_range() {
        for m in [
            Material::Drywall,
            Material::Concrete,
            Material::Glass,
            Material::Metal,
            Material::Wood,
            Material::HumanBody,
        ] {
            for nb in NamedBand::ALL {
                let b = nb.band();
                let t = m.transmission_amplitude(&b);
                let r = m.reflection_amplitude(&b);
                assert!((0.0..=1.0).contains(&t), "{m:?} {nb:?} t={t}");
                assert!((0.0..=1.0).contains(&r), "{m:?} {nb:?} r={r}");
            }
        }
    }

    #[test]
    fn reflection_beats_penetration_for_metal_and_concrete_mmwave() {
        let band = NamedBand::MmWave24GHz.band();
        for m in [Material::Metal, Material::Concrete] {
            assert!(m.reflection_amplitude(&band) > m.transmission_amplitude(&band));
        }
    }

    #[test]
    fn human_body_blocks_mmwave() {
        let band = NamedBand::MmWave60GHz.band();
        assert!(Material::HumanBody.penetration_loss_db(&band) >= 20.0);
    }
}
