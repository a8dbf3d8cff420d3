//! Delivery semantics (§3.2).

/// Update delivery semantics, selectable per publisher and per subscriber
/// with the `delivery_mode` directive (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeliveryMode {
    /// Per-object latest-version delivery: updates to the same object are
    /// ordered, intermediate versions may be skipped, lost messages are
    /// tolerated. Best scaling and availability.
    Weak,
    /// The paper's recommended default: updates to the same object, within
    /// the same controller, and within the same user session are serialized,
    /// and read-dependency snapshots hold across services.
    Causal,
    /// Every update totally ordered. "Limits horizontal scaling and is
    /// rarely if ever used in production."
    Global,
}

impl DeliveryMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DeliveryMode::Weak => "weak",
            DeliveryMode::Causal => "causal",
            DeliveryMode::Global => "global",
        }
    }

    /// A subscriber "can only select delivery semantics that are at most as
    /// strong as the publisher supports" (§3.2): the effective subscriber
    /// mode is the weaker of the two.
    pub(crate) fn effective(publisher: DeliveryMode, subscriber: DeliveryMode) -> DeliveryMode {
        publisher.min(subscriber)
    }

    /// The telemetry slice this mode's latencies are recorded under.
    pub(crate) fn slice(self) -> synapse_telemetry::ModeSlice {
        match self {
            DeliveryMode::Weak => synapse_telemetry::ModeSlice::Weak,
            DeliveryMode::Causal => synapse_telemetry::ModeSlice::Causal,
            DeliveryMode::Global => synapse_telemetry::ModeSlice::Global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_order_by_strength() {
        assert!(DeliveryMode::Weak < DeliveryMode::Causal);
        assert!(DeliveryMode::Causal < DeliveryMode::Global);
    }

    #[test]
    fn slices_mirror_mode_names() {
        for mode in [
            DeliveryMode::Weak,
            DeliveryMode::Causal,
            DeliveryMode::Global,
        ] {
            assert_eq!(mode.slice().name(), mode.name());
        }
    }

    #[test]
    fn effective_mode_is_the_weaker_side() {
        use DeliveryMode::*;
        assert_eq!(DeliveryMode::effective(Causal, Weak), Weak);
        assert_eq!(DeliveryMode::effective(Causal, Global), Causal);
        assert_eq!(DeliveryMode::effective(Global, Global), Global);
        assert_eq!(DeliveryMode::effective(Weak, Causal), Weak);
    }
}
