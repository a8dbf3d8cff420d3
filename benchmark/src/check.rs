//! The correctness verdict of a run.
//!
//! After the last operation has drained, every replica must equal the
//! publisher's projection of the fields it subscribes to — same ids, same
//! values — no replica may have reported a row's stamps out of order, and
//! nothing may sit in a dead-letter store, a publisher journal or a queue.
//! (The other half — a wedge fails the run instead of hanging it — is the
//! watchdog in `phases.rs`.)

use crate::workloads::Sys;
use std::collections::BTreeMap;
use synapse_model::Record;

/// How long a replica's queue may take to settle after the last
/// operation became visible.
const SETTLE: std::time::Duration = std::time::Duration::from_secs(5);

#[derive(Debug, Default)]
pub struct Verdict {
    pub rows_compared: u64,
    pub mismatches: u64,
    pub order_violations: u64,
    pub dead_lettered: u64,
    pub undelivered: u64,
    pub journaled: u64,
    /// First few problems, for the report.
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.mismatches == 0
            && self.order_violations == 0
            && self.dead_lettered == 0
            && self.undelivered == 0
            && self.journaled == 0
    }

    /// Adds another round's verdict to this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.rows_compared += other.rows_compared;
        self.mismatches += other.mismatches;
        self.order_violations += other.order_violations;
        self.dead_lettered += other.dead_lettered;
        self.undelivered += other.undelivered;
        self.journaled += other.journaled;
        for note in other.notes {
            self.note(note);
        }
    }

    fn note(&mut self, text: String) {
        if self.notes.len() < 8 {
            self.notes.push(text);
        }
    }
}

pub fn verify(sys: &Sys) -> Verdict {
    let mut verdict = Verdict {
        order_violations: sys.probe.order_violations(),
        journaled: sys.publisher.stats().journaled as u64,
        ..Verdict::default()
    };
    let broker = sys.eco.broker();
    for replica in &sys.replicas {
        let app = replica.app();
        // Visible is not yet acked: acks land at the worker's next batch
        // flush. Let the queue settle before calling anything undelivered.
        replica.subscriber().drain(SETTLE);
        verdict.dead_lettered += broker.dead_letter_len(app).unwrap_or(0) as u64;
        verdict.undelivered += broker.queue_len(app).unwrap_or(0) as u64
            + broker.queue_unacked_len(app).unwrap_or(0) as u64;
        for sub in replica.subscriptions() {
            let Some(source) = sys.eco.node(&sub.from) else {
                verdict.mismatches += 1;
                verdict.note(format!("{app}: no node {}", sub.from));
                continue;
            };
            let (Ok(theirs), Ok(ours)) =
                (source.orm().all(&sub.model), replica.orm().all(&sub.model))
            else {
                verdict.mismatches += 1;
                verdict.note(format!("{app}: cannot read {}", sub.model));
                continue;
            };
            let ours: BTreeMap<u64, &Record> = ours.iter().map(|r| (r.id.raw(), r)).collect();
            if ours.len() != theirs.len() {
                verdict.mismatches += 1;
                verdict.note(format!(
                    "{app}/{}: {} rows, publisher has {}",
                    sub.model,
                    ours.len(),
                    theirs.len()
                ));
            }
            for record in &theirs {
                verdict.rows_compared += 1;
                let Some(mine) = ours.get(&record.id.raw()) else {
                    verdict.mismatches += 1;
                    verdict.note(format!("{app}/{}#{}: missing", sub.model, record.id));
                    continue;
                };
                for field in &sub.fields {
                    let (want, got) = (record.get(field), mine.get(sub.local_field(field)));
                    if want != got {
                        verdict.mismatches += 1;
                        verdict.note(format!(
                            "{app}/{}#{}.{field}: {got:?}, publisher has {want:?}",
                            sub.model, record.id
                        ));
                    }
                }
            }
        }
    }
    verdict
}
