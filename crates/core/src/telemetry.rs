//! Kernel telemetry: the counters an operator dashboards.
//!
//! The struct, its registry-view constructor and its shard merge are all
//! generated from one field list by the private `telemetry_counters!`
//! macro, so a new counter cannot be missed by either.
//!
//! The kernel also mirrors every increment into the `surfos-obs` registry
//! under `kernel.<field>`; [`Telemetry::from_snapshot`] reconstructs the
//! struct from a snapshot, making these counters a *view* over the
//! registry whenever observability is enabled.

/// Defines the telemetry struct plus its registry-view and merge impls
/// from a single field list.
macro_rules! telemetry_counters {
    (
        $(#[$struct_meta:meta])*
        pub struct $name:ident {
            $( $(#[$field_meta:meta])* pub $field:ident: u64, )+
        }
    ) => {
        $(#[$struct_meta])*
        pub struct $name {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $name {
            /// Reconstructs the counters from an obs snapshot. Matches the
            /// struct the kernel accumulated exactly when observability was
            /// enabled for the whole run (the kernel mirrors every
            /// increment); absent counters read as zero.
            pub fn from_snapshot(snapshot: &surfos_obs::Snapshot) -> Self {
                $name {
                    $( $field: snapshot
                        .counters
                        .get(concat!("kernel.", stringify!($field)))
                        .copied()
                        .unwrap_or(0), )+
                }
            }

            /// Field-wise saturating sum — how the sharded kernel folds
            /// per-shard counters into one campus view. Generated from the
            /// same field list, so a new counter can't be missed here.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field = self.$field.saturating_add(other.$field); )+
            }
        }
    };
}

telemetry_counters! {
    /// Monotonic counters accumulated by the kernel loop.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Telemetry {
        /// Kernel steps executed.
        pub steps: u64,
        /// Schedule frames computed.
        pub frames_scheduled: u64,
        /// Joint optimizations run.
        pub optimizations: u64,
        /// Configurations pushed to drivers.
        pub configs_pushed: u64,
        /// Configuration pushes skipped because the encoded frame was
        /// identical to the last one pushed to that surface/slot.
        pub configs_skipped: u64,
        /// Bytes of configuration traffic on the control channel.
        pub wire_bytes: u64,
        /// Driver writes committed after their control delay.
        pub writes_committed: u64,
        /// Tasks completed by expiry.
        pub tasks_reaped: u64,
        /// Scene-index full rebuilds (structure mutations: walls,
        /// surfaces, band).
        pub index_rebuilds: u64,
        /// Scene-index blocker refits (walk ticks; the incremental path).
        pub index_refits: u64,
    }
}

impl std::fmt::Display for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "steps={} frames={} opts={} pushes={} skips={} wire={}B commits={} reaped={} rebuilds={} refits={}",
            self.steps,
            self.frames_scheduled,
            self.optimizations,
            self.configs_pushed,
            self.configs_skipped,
            self.wire_bytes,
            self.writes_committed,
            self.tasks_reaped,
            self.index_rebuilds,
            self.index_refits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero_and_displays() {
        let t = Telemetry::default();
        assert_eq!(t.steps, 0);
        let s = t.to_string();
        assert!(s.contains("steps=0"));
        assert!(s.contains("wire=0B"));
        assert!(s.contains("skips=0"));
    }
}
