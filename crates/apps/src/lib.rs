//! Demo applications and workload generators for the Synapse reproduction.
//!
//! Two ecosystems from the paper are modelled end to end:
//!
//! * [`social`] — the open-source social product recommender of §5.2 /
//!   Fig. 11: Diaspora (PostgreSQL) and Discourse (PostgreSQL) publish
//!   posts; a mailer (MongoDB) observes them; a semantic analyzer (MySQL)
//!   decorates users with interests; Spree (MySQL) serves interest-targeted
//!   product recommendations.
//! * [`crowdtap`] — the production topology of §5.1 / Fig. 10: a main app
//!   (MongoDB) publishing to eight microservices over mixed causal/weak
//!   edges, with the five controllers of Fig. 12(a).
//!
//! Plus:
//!
//! * [`analyzer`] — the keyword extractor standing in for the Textalytics
//!   service (documented substitution in DESIGN.md);
//! * [`stress`] — the §6.3 social-network stress workload (25 % posts,
//!   75 % comments, cross-user dependencies) behind the Fig. 13 tests.

pub mod analyzer;
pub mod crowdtap;
pub mod social;
pub mod stress;
