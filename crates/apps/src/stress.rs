//! The §6.3 stress-test microbenchmark workload.
//!
//! "Users continuously create posts and comments, similar to the code on
//! Fig. 8. Comments are related to posts and create cross-user
//! dependencies. We issue traffic as fast as possible to saturate Synapse,
//! with a uniform distribution of 25% posts and 75% comments."
//!
//! [`build_pair`] wires a minimal publisher/subscriber pair over arbitrary
//! vendor engines; [`run_load`] hammers the publisher from many threads
//! with the post/comment mix inside per-user causal scopes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synapse_core::{
    DeliveryMode, DepName, DepSpace, Ecosystem, Publication, Subscription, SynapseConfig,
    SynapseNode,
};
use synapse_db::LatencyModel;
use synapse_model::{vmap, Id, ModelSchema};
use synapse_orm::adapters;
use synapse_orm::CallbackPoint;

/// Parameters of a stress run.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Simulated user population.
    pub users: u64,
    /// Percentage of operations that create posts (the paper uses 25).
    pub post_percent: u32,
    /// Publisher "application server" threads.
    pub publisher_threads: usize,
    /// Wall-clock duration of the load phase.
    pub duration: Duration,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            users: 100,
            post_percent: 25,
            publisher_threads: 2,
            duration: Duration::from_millis(500),
        }
    }
}

/// A wired publisher/subscriber pair for the stress workload.
pub struct StressPair {
    /// The publishing service.
    pub publisher: Arc<SynapseNode>,
    /// The subscribing service.
    pub subscriber: Arc<SynapseNode>,
}

/// Wires a stress pair onto `eco`: `pub_vendor` publishes `User`, `Post`,
/// and `Comment`; `sub_vendor` subscribes to all three. Both sides run in
/// `mode` with `workers` subscriber workers and the same latency model;
/// [`build_pair_with_latencies`] takes per-side models.
pub fn build_pair(
    eco: &Ecosystem,
    pub_vendor: &str,
    sub_vendor: &str,
    mode: DeliveryMode,
    workers: usize,
    latency: LatencyModel,
) -> StressPair {
    build_pair_with_latencies(eco, pub_vendor, sub_vendor, mode, workers, latency, latency)
}

/// [`build_pair`] with distinct publisher/subscriber latency models (the
/// Fig. 13(b) pairs saturate at the *slower* engine, so each side must run
/// its own calibration).
#[allow(clippy::too_many_arguments)]
pub fn build_pair_with_latencies(
    eco: &Ecosystem,
    pub_vendor: &str,
    sub_vendor: &str,
    mode: DeliveryMode,
    workers: usize,
    pub_latency: LatencyModel,
    sub_latency: LatencyModel,
) -> StressPair {
    let latency = pub_latency;
    let publisher = eco.add_node(
        SynapseConfig::new(format!("stress_pub_{pub_vendor}"))
            .mode(mode)
            .dep_space(DepSpace::new(1 << 20)),
        adapters::for_vendor(pub_vendor, latency),
    );
    for model in ["User", "Post", "Comment"] {
        publisher
            .orm()
            .define_model(stress_schema(model, pub_vendor))
            .unwrap();
    }
    publisher
        .publish(Publication::model("User").fields(&["name"]))
        .unwrap();
    publisher
        .publish(Publication::model("Post").fields(&["author_id", "body"]))
        .unwrap();
    publisher
        .publish(Publication::model("Comment").fields(&["post_id", "author_id", "body"]))
        .unwrap();

    let subscriber = eco.add_node(
        SynapseConfig::new(format!("stress_sub_{sub_vendor}"))
            .mode(mode)
            .workers(workers)
            .dep_space(DepSpace::new(1 << 20)),
        adapters::for_vendor(sub_vendor, sub_latency),
    );
    let pub_app = publisher.app().to_owned();
    for model in ["User", "Post", "Comment"] {
        subscriber
            .orm()
            .define_model(stress_schema(model, sub_vendor))
            .unwrap();
    }
    subscriber
        .subscribe(Subscription::model("User", &pub_app).fields(&["name"]))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("Post", &pub_app).fields(&["author_id", "body"]))
        .unwrap();
    subscriber
        .subscribe(Subscription::model("Comment", &pub_app).fields(&[
            "post_id",
            "author_id",
            "body",
        ]))
        .unwrap();

    StressPair {
        publisher,
        subscriber,
    }
}

fn stress_schema(model: &str, vendor: &str) -> ModelSchema {
    // SQL vendors need strict column lists; schemaless vendors don't care.
    let strict = matches!(vendor, "postgresql" | "mysql" | "oracle");
    if !strict {
        return ModelSchema::open(model);
    }
    match model {
        "User" => ModelSchema::new("User").field("name"),
        "Post" => ModelSchema::new("Post").field("author_id").field("body"),
        _ => ModelSchema::new("Comment")
            .field("post_id")
            .field("author_id")
            .field("body"),
    }
}

/// Installs a fixed processing delay on the subscriber's `Post` and
/// `Comment` creations — Fig. 13(c)'s "100-ms callback delay to simulate
/// heavy processing", scaled down for a single machine.
pub fn install_callback_delay(node: &SynapseNode, delay: Duration) {
    for model in ["Post", "Comment"] {
        node.orm()
            .on(model, CallbackPoint::AfterCreate, move |_, _| {
                std::thread::sleep(delay);
                Ok(())
            });
    }
}

/// Results of a load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Write operations issued at the publisher.
    pub operations: u64,
    /// Posts created.
    pub posts: u64,
    /// Comments created.
    pub comments: u64,
    /// Wall-clock duration of the load phase.
    pub elapsed: Duration,
}

/// Seeds the user population and drives the post/comment mix from
/// `config.publisher_threads` threads until `config.duration` elapses.
pub fn run_load(pair: &StressPair, config: &StressConfig) -> LoadReport {
    let publisher = &pair.publisher;
    for u in 0..config.users {
        // Idempotent seeding: repeated load phases reuse the population.
        let _ = publisher.orm().create_with_id(
            "User",
            Id(u + 1),
            vmap! { "name" => format!("user-{u}") },
        );
    }
    let posts_created = Arc::new(AtomicU64::new(0));
    let comments_created = Arc::new(AtomicU64::new(0));
    let latest_post = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..config.publisher_threads {
            let publisher = Arc::clone(publisher);
            let posts_created = posts_created.clone();
            let comments_created = comments_created.clone();
            let latest_post = latest_post.clone();
            let config = config.clone();
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x5eed ^ t as u64);
                while start.elapsed() < config.duration {
                    let user = rng.gen_range(1..=config.users);
                    let user_dep = DepName::object(publisher.app(), "User", Id(user));
                    synapse_core::with_user_scope(user_dep, || {
                        let make_post = rng.gen_range(0u32..100) < config.post_percent
                            || latest_post.load(Ordering::Relaxed) == 0;
                        if make_post {
                            if let Ok(post) = publisher
                                .orm()
                                .create("Post", vmap! { "author_id" => user, "body" => "helo" })
                            {
                                latest_post.fetch_max(post.id.raw(), Ordering::Relaxed);
                                posts_created.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            // Comment on a random existing post: the
                            // cross-user dependency of §6.3.
                            let max = latest_post.load(Ordering::Relaxed).max(1);
                            let target = Id(rng.gen_range(1..=max));
                            if let Ok(Some(post)) = publisher.orm().find("Post", target) {
                                if publisher
                                    .orm()
                                    .create(
                                        "Comment",
                                        vmap! {
                                            "post_id" => post.id.raw(),
                                            "author_id" => user,
                                            "body" => "you have a typo",
                                        },
                                    )
                                    .is_ok()
                                {
                                    comments_created.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
            });
        }
    });
    let posts = posts_created.load(Ordering::Relaxed);
    let comments = comments_created.load(Ordering::Relaxed);
    LoadReport {
        operations: posts + comments,
        posts,
        comments,
        elapsed: start.elapsed(),
    }
}

/// Waits until the subscriber has processed everything the publisher
/// published (or `timeout` passes); returns end-to-end message throughput
/// (messages/second including the drain).
pub fn drain_and_throughput(pair: &StressPair, load: &LoadReport, timeout: Duration) -> f64 {
    let start = Instant::now();
    let target = pair.publisher.publisher_stats().messages_published;
    while pair.subscriber.subscriber_stats().messages_processed < target {
        if start.elapsed() > timeout {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let processed = pair.subscriber.subscriber_stats().messages_processed;
    let total = load.elapsed + start.elapsed();
    processed as f64 / total.as_secs_f64()
}
