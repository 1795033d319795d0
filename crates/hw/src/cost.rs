//! Deployment cost and size accounting — the currency of the paper's
//! Figure 4 trade-off study.

use crate::spec::HardwareSpec;

/// Aggregate cost/size/power of a deployment (one or more surfaces).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeploymentCost {
    /// Total hardware cost in USD.
    pub hardware_usd: f64,
    /// Total aperture area in m².
    pub area_m2: f64,
    /// Total power draw in mW.
    pub power_mw: f64,
    /// Total independently controllable degrees of freedom.
    pub degrees_of_freedom: usize,
}

impl DeploymentCost {
    /// Sums the cost of a set of surface specs.
    pub fn of(specs: &[HardwareSpec]) -> Self {
        let mut total = DeploymentCost::default();
        for s in specs {
            total.hardware_usd += s.total_cost_usd();
            total.area_m2 += s.area_m2();
            total.power_mw += s.power_mw;
            total.degrees_of_freedom += s.reconfigurability.degrees_of_freedom(s.rows, s.cols);
        }
        total
    }
}

/// Rescales a design to a different element grid, keeping per-element
/// economics: cost scales with the element count, fixed cost with the
/// controller. This is how the Figure 4 sweep explores "how big must the
/// surface be to reach a target SNR".
pub fn scaled(template: &HardwareSpec, rows: usize, cols: usize) -> HardwareSpec {
    assert!(rows > 0 && cols > 0, "scaled design must have elements");
    let mut s = template.clone();
    s.rows = rows;
    s.cols = cols;
    // Power scales with controllable groups (drivers per row/column or per
    // element); passive stays zero.
    if !s.is_passive() {
        let template_dof = template
            .reconfigurability
            .degrees_of_freedom(template.rows, template.cols)
            .max(1);
        let new_dof = s.reconfigurability.degrees_of_freedom(rows, cols);
        s.power_mw = template.power_mw * new_dof as f64 / template_dof as f64;
    }
    debug_assert_eq!(s.validate(), Ok(()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs;

    #[test]
    fn aggregate_of_two_surfaces() {
        let a = designs::autos_ms();
        let b = designs::nr_surface();
        let total = DeploymentCost::of(&[a.clone(), b.clone()]);
        assert!((total.hardware_usd - (a.total_cost_usd() + b.total_cost_usd())).abs() < 1e-9);
        assert!((total.area_m2 - (a.area_m2() + b.area_m2())).abs() < 1e-12);
        assert_eq!(total.power_mw, b.power_mw); // passive contributes zero
                                                // NR-Surface is column-wise: 16 columns; AutoMS passive: all.
        assert_eq!(total.degrees_of_freedom, a.element_count() + 16);
    }

    #[test]
    fn empty_deployment_is_zero() {
        let t = DeploymentCost::of(&[]);
        assert_eq!(t.hardware_usd, 0.0);
        assert_eq!(t.degrees_of_freedom, 0);
    }

    #[test]
    fn scaling_preserves_economics() {
        let template = designs::nr_surface(); // 16×16
        let big = scaled(&template, 32, 32);
        assert_eq!(big.element_count(), 1024);
        // Per-element cost identical; total scales.
        assert_eq!(big.cost_per_element_usd, template.cost_per_element_usd);
        assert!(big.total_cost_usd() > 3.0 * template.total_cost_usd());
        // Column-wise power scales with columns (16 → 32).
        assert!((big.power_mw - 2.0 * template.power_mw).abs() < 1e-9);
    }

    #[test]
    fn scaling_passive_keeps_zero_power() {
        let template = designs::autos_ms();
        let big = scaled(&template, 500, 500);
        assert_eq!(big.power_mw, 0.0);
        assert!(big.total_cost_usd() > template.total_cost_usd());
    }

    #[test]
    #[should_panic(expected = "must have elements")]
    fn zero_scale_rejected() {
        let _ = scaled(&designs::autos_ms(), 0, 10);
    }
}
