//! The marker wire format and the two reserved exchange names under
//! which the copier's own traffic rides a subscriber's queue. Markers
//! and copies are ordinary deliveries, published direct-to-queue
//! ([`synapse_broker::Broker::publish_to_queue`]) and recognised on the
//! way out by the exchange name on the envelope; the broker knows
//! neither.

/// Reserved exchange name carried by watermark markers. Not a real
/// exchange: nothing binds to it, and a subscriber recognizes a marker
/// by this name on the delivery envelope.
pub const WATERMARK_EXCHANGE: &str = "__synapse.watermark__";

/// Reserved exchange name carried by chunk-copy deliveries.
/// Distinguishes copies (strict version-admission, no dependency wait)
/// from live traffic.
pub const BOOTSTRAP_EXCHANGE: &str = "__synapse.bootstrap__";

/// Encodes a watermark marker payload: `wm:<lo|hi>:<session>:<chunk>`.
/// Human-readable on purpose — markers show up in WAL dumps and
/// dead-letter inspections during debugging — and self-describing, so
/// one that outlives its session (crash redelivery) is told apart.
pub fn watermark_payload(session: u64, chunk: u64, high: bool) -> String {
    format!("wm:{}:{session}:{chunk}", if high { "hi" } else { "lo" })
}

/// Decodes a watermark marker payload into `(session, chunk, high)`;
/// `None` for anything that is not a well-formed marker.
pub(crate) fn parse_watermark(payload: &str) -> Option<(u64, u64, bool)> {
    let rest = payload.strip_prefix("wm:")?;
    let (bound, rest) = rest.split_once(':')?;
    let high = match bound {
        "hi" => true,
        "lo" => false,
        _ => return None,
    };
    let (session, chunk) = rest.split_once(':')?;
    Some((session.parse().ok()?, chunk.parse().ok()?, high))
}
