//! Bootstrap-phase fault hook.
//!
//! The fault plan pins events to *ticks* of the driver's logical clock,
//! which works for steady-state soaks but cannot aim a fault at a moment
//! inside a recovery protocol ("kill a shard while the copier is on its
//! second chunk"). A [`PhaseHook`] closes that gap: tests register faults
//! against named protocol phases (the labels are chosen by the test — for
//! bootstrap they are typically `"snapshot"`, `"copying"` and
//! `"reconciling"`), and the system under test reports each phase entry through
//! [`PhaseHook::enter`], which fires every registration due at that entry
//! through the [`Injector`].
//!
//! Registrations are `(phase, nth-entry, fault)` triples, so a test can
//! let the first chunk copy cleanly and strike the second — deterministic
//! by construction: phase entries are a property of the protocol, not of
//! thread timing.

use crate::injector::Injector;
use crate::plan::FaultKind;
use std::collections::HashMap;

/// One registered phase fault.
#[derive(Debug, Clone)]
struct PhaseFault {
    /// 1-based entry count of the phase at which to fire.
    at_entry: u64,
    fault: FaultKind,
    fired: bool,
}

/// Registry of faults keyed to protocol-phase entries.
#[derive(Debug, Default)]
pub struct PhaseHook {
    /// Phase label → entry counter (how many times the phase was entered).
    entries: HashMap<String, u64>,
    /// Phase label → registered faults.
    faults: HashMap<String, Vec<PhaseFault>>,
}

impl PhaseHook {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `fault` to fire the `at_entry`-th time (1-based) the named
    /// phase is entered. Multiple faults may be armed on the same entry;
    /// they fire in registration order.
    pub fn on_entry(&mut self, phase: &str, at_entry: u64, fault: FaultKind) {
        self.faults
            .entry(phase.to_owned())
            .or_default()
            .push(PhaseFault {
                at_entry: at_entry.max(1),
                fault,
                fired: false,
            });
    }

    /// Reports that the system under test entered `phase`; fires every
    /// registration due at this entry through `injector`. Returns how many
    /// faults fired. Each registration fires at most once.
    pub fn enter(&mut self, phase: &str, injector: &mut Injector) -> usize {
        let count = self.entries.entry(phase.to_owned()).or_insert(0);
        *count += 1;
        let entry = *count;
        let mut fired = 0;
        if let Some(faults) = self.faults.get_mut(phase) {
            for f in faults.iter_mut() {
                if !f.fired && f.at_entry == entry {
                    f.fired = true;
                    injector.apply(&f.fault);
                    fired += 1;
                }
            }
        }
        fired
    }

    /// How many times `phase` has been entered so far.
    pub fn entries(&self, phase: &str) -> u64 {
        self.entries.get(phase).copied().unwrap_or(0)
    }

    /// Whether every registered fault has fired.
    pub fn exhausted(&self) -> bool {
        self.faults.values().all(|fs| fs.iter().all(|f| f.fired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;
    use synapse_broker::Broker;

    fn harness() -> (Broker, Injector) {
        let broker = Broker::new();
        broker.declare_queue("q", Default::default());
        let injector = Injector::new(broker.clone(), "q");
        (broker, injector)
    }

    #[test]
    fn fires_only_on_the_registered_entry_and_only_once() {
        let (_broker, mut injector) = harness();
        let mut hook = PhaseHook::new();
        hook.on_entry("copying", 2, FaultKind::DropMessages { n: 3 });

        assert_eq!(hook.enter("copying", &mut injector), 0, "first entry clean");
        assert_eq!(
            hook.enter("copying", &mut injector),
            1,
            "second entry fires"
        );
        assert_eq!(hook.enter("copying", &mut injector), 0, "no re-fire");
        assert_eq!(injector.stats().drops_scheduled, 3);
        assert_eq!(hook.entries("copying"), 3);
        assert!(hook.exhausted());
    }

    #[test]
    fn phases_are_independent_and_stack_on_one_entry() {
        let (_broker, mut injector) = harness();
        let mut hook = PhaseHook::new();
        hook.on_entry("snapshot", 1, FaultKind::PublishFailures { n: 2 });
        hook.on_entry("copying", 1, FaultKind::DropMessages { n: 1 });
        hook.on_entry("copying", 1, FaultKind::BrokerRestart);

        assert_eq!(
            hook.enter("reconciling", &mut injector),
            0,
            "unregistered phase"
        );
        assert_eq!(hook.enter("snapshot", &mut injector), 1);
        assert_eq!(
            hook.enter("copying", &mut injector),
            2,
            "both fire in order"
        );
        assert_eq!(injector.stats().publish_failures_scheduled, 2);
        assert_eq!(injector.stats().drops_scheduled, 1);
        assert_eq!(injector.stats().broker_restarts, 1);
        assert!(hook.exhausted());
    }
}
