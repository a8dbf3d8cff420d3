//! Deterministic fault-injection plane for the Synapse reproduction.
//!
//! Test infrastructure: tests and examples take this crate as a
//! dev-dependency, and the production crates never depend on it. Selecting
//! it turns on the `testing` feature of `synapse-broker`,
//! `synapse-versionstore` and `synapse-core`, which compiles the crash
//! points and fault countdowns no public call can reach (a dropped
//! delivery, a refused publish, a torn WAL append, a dropped fsync, a
//! power failure, a killed version-store shard, an interrupted snapshot);
//! a build without it compiles none of them. Database faults need no
//! feature: [`DbFaults::wrap`] gates the adapter a node is built with.
//!
//! The paper's §6.5 postmortem describes a production incident where a
//! dead dependency wedged the whole replication pipeline. Reproducing
//! that class of failure — and proving the hardening that prevents it —
//! requires injecting faults *deterministically*: the same seed must
//! produce the same schedule of broker drops, publish failures, restarts,
//! shard kills, and database errors on every run, so that counter totals
//! can be asserted exactly.
//!
//! The plane has four pieces:
//!
//! * [`SeededRng`] — a splitmix64 stream; the only source of randomness.
//! * [`FaultClock`] — a logical tick counter advanced by the test driver
//!   once per unit of work, replacing wall-clock time.
//! * [`FaultPlan`] — a seeded schedule of [`FaultEvent`]s pinned to
//!   ticks; generated plans pair every shard kill with a later revive so
//!   the system always has a path out of the §6.5 wedge.
//! * [`Injector`] — dispatches due events onto live broker /
//!   version-store / db handles and keeps deterministic
//!   [`InjectorStats`]; its db handles are [`DbFaults`] panels.
//!
//! Everything here is countdown-based ("fail the next n writes"), never
//! probabilistic at the substrate: probability lives only in plan
//! generation, where it is pinned by the seed.

pub mod clock;
pub mod crash;
pub mod db;
pub mod hook;
pub mod injector;
pub mod plan;
pub mod rng;

pub use clock::FaultClock;
pub use crash::{CrashEvent, CrashPlan, CrashPoint};
pub use db::{DbFaultStats, DbFaults};
pub use hook::PhaseHook;
pub use injector::{Injector, InjectorStats};
pub use plan::{FaultEvent, FaultKind, FaultPlan, FaultSpec, Side};
pub use rng::SeededRng;
