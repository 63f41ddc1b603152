//! The static baseline: the global budget is divided equally between all
//! nodes at job launch and never changed (paper §VII, "the baseline equally
//! divides the global power budget between simulation and analysis nodes").

use crate::controller::Controller;
use crate::types::{Allocation, SyncObservation};

/// A controller that never reallocates. The initial caps (set at job
/// launch by the runtime) remain in force for the whole job.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StaticAlloc;

impl StaticAlloc {
    /// Build the baseline controller.
    pub(crate) fn new() -> Self {
        StaticAlloc
    }
}

impl Controller for StaticAlloc {
    fn name(&self) -> &'static str {
        "static"
    }

    fn on_sync(&mut self, _obs: &SyncObservation) -> Option<Allocation> {
        None
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{NodeSample, Role};

    #[test]
    fn never_reallocates() {
        let mut c = StaticAlloc::new();
        let obs = SyncObservation {
            step: 1,
            nodes: vec![NodeSample {
                node: 0,
                role: Role::Simulation,
                time_s: 100.0,
                power_w: 50.0,
                cap_w: 110.0,
            }],
        };
        for _ in 0..10 {
            assert!(c.on_sync(&obs).is_none());
        }
        assert_eq!(c.name(), "static");
    }
}
