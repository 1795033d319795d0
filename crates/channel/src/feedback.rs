//! Endpoint feedback: the data plane's report channel.
//!
//! The paper decouples surface *management* (slow, central) from real-time
//! *actuation* (local): surfaces store several configurations and pick the
//! best one from endpoint feedback, the way 802.11ad APs sweep beam
//! codebooks. This module carries those reports.

use std::collections::VecDeque;

/// One measurement report from an endpoint while a given local
/// configuration slot was active.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackReport {
    /// Reporting endpoint id.
    pub endpoint_id: String,
    /// Surface id the report is about.
    pub surface_id: String,
    /// Which locally-stored configuration slot was active.
    pub config_slot: usize,
    /// Measured RSS in dBm.
    pub rss_dbm: f64,
    /// Simulation timestamp in milliseconds.
    pub timestamp_ms: u64,
}

/// A bounded FIFO of feedback reports with per-slot aggregation.
///
/// Bounded so a chatty endpoint cannot grow kernel memory without limit;
/// when full, the oldest report is dropped (the newest data is what
/// configuration selection wants anyway).
#[derive(Debug, Clone)]
pub struct FeedbackBus {
    capacity: usize,
    reports: VecDeque<FeedbackReport>,
}

impl FeedbackBus {
    /// Creates a bus holding at most `capacity` reports.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "feedback bus capacity must be positive");
        FeedbackBus {
            capacity,
            reports: VecDeque::new(),
        }
    }

    /// Publishes a report, evicting the oldest when full.
    pub fn publish(&mut self, report: FeedbackReport) {
        if self.reports.len() == self.capacity {
            self.reports.pop_front();
        }
        self.reports.push_back(report);
    }

    /// Number of buffered reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True if no reports are buffered.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Iterates over buffered reports, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FeedbackReport> {
        self.reports.iter()
    }

    /// Drains all buffered reports, oldest first.
    pub fn drain(&mut self) -> Vec<FeedbackReport> {
        self.reports.drain(..).collect()
    }

    /// The best configuration slot for `surface_id` according to mean RSS
    /// over buffered reports, or `None` when no reports mention it.
    /// This is the endpoint-feedback selection rule of NR-Surface/mmWall
    /// the paper cites.
    pub fn best_slot(&self, surface_id: &str) -> Option<usize> {
        use std::collections::HashMap;
        let mut sums: HashMap<usize, (f64, usize)> = HashMap::new();
        for r in &self.reports {
            if r.surface_id == surface_id {
                let e = sums.entry(r.config_slot).or_insert((0.0, 0));
                e.0 += r.rss_dbm;
                e.1 += 1;
            }
        }
        sums.into_iter()
            .map(|(slot, (sum, n))| (slot, sum / n as f64))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(slot, _)| slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(slot: usize, rss: f64, t: u64) -> FeedbackReport {
        FeedbackReport {
            endpoint_id: "c0".into(),
            surface_id: "s0".into(),
            config_slot: slot,
            rss_dbm: rss,
            timestamp_ms: t,
        }
    }

    #[test]
    fn best_slot_by_mean_rss() {
        let mut bus = FeedbackBus::new(16);
        bus.publish(report(0, -70.0, 1));
        bus.publish(report(0, -72.0, 2));
        bus.publish(report(1, -55.0, 3));
        bus.publish(report(1, -60.0, 4));
        bus.publish(report(2, -80.0, 5));
        assert_eq!(bus.best_slot("s0"), Some(1));
    }

    #[test]
    fn unknown_surface_none() {
        let mut bus = FeedbackBus::new(4);
        bus.publish(report(0, -70.0, 1));
        assert_eq!(bus.best_slot("other"), None);
    }

    #[test]
    fn bounded_eviction_oldest_first() {
        let mut bus = FeedbackBus::new(2);
        bus.publish(report(0, -50.0, 1));
        bus.publish(report(1, -60.0, 2));
        bus.publish(report(2, -70.0, 3));
        assert_eq!(bus.len(), 2);
        let drained = bus.drain();
        assert_eq!(drained[0].config_slot, 1);
        assert_eq!(drained[1].config_slot, 2);
        assert!(bus.is_empty());
    }

    #[test]
    fn eviction_changes_best_slot() {
        let mut bus = FeedbackBus::new(1);
        bus.publish(report(0, -50.0, 1)); // best... until evicted
        bus.publish(report(1, -90.0, 2));
        assert_eq!(bus.best_slot("s0"), Some(1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = FeedbackBus::new(0);
    }
}
