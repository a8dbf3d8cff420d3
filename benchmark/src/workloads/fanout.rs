//! `fanout_weak_hetero`: one mysql publisher fanned out to mongodb,
//! cassandra and elasticsearch subscribers (one worker each) in weak mode.
//!
//! The mix is 70 % update, 15 % destroy, 15 % create over a bounded hot
//! set of 1 000 rows: every destroy is followed by a create before the
//! next destroy, so the live set stays at 1 000 and the O(n) by-id `find`
//! of the document and search engines costs the same at the end of a run
//! as at its start. Fan-out routing, shared payloads, message decode
//! (three times per write) and the three engines dominate; nothing waits
//! on a dependency.

use super::{
    attach_stamp_probe, dep_space, ms_since, watch_windows, window_ms, OpOut, SetupParts, Spec,
    Sys, Workload,
};
use crate::probe::{row_key, Probe, GONE};
use crate::stats::{now_ns, Rng};
use crate::trace::Tracer;
use std::time::Instant;
use synapse_core::{with_scope, DeliveryMode, Ecosystem, Publication, Subscription, SynapseConfig};
use synapse_db::LatencyModel;
use synapse_model::{vmap, Id, ModelSchema};
use synapse_orm::adapters;

pub const HOT_ROWS: u64 = 1_000;
pub const SUBSCRIBER_VENDORS: [&str; 3] = ["mongodb", "cassandra", "elasticsearch"];
pub const PUBLISHER_VENDOR: &str = "mysql";

const PUB: &str = "fanout_pub";
const ITEM: u8 = 0;
const FIELDS: [&str; 3] = ["name", "qty", "stamp"];

pub const SPEC: Spec = Spec {
    name: "fanout_weak_hetero",
    why: "fan-out routing, shared payloads, stale discard, decode x3 and three heterogeneous engines dominate; dependency waits do nothing",
    topology: "mysql -> mongodb + cassandra + elasticsearch, weak, memory broker, 1 worker each",
    open_rate: 3_000.0,
    warmup_ops: 15_000,
    backlog_ops: 20_000,
    probe_op: "Item update",
    seed_rows: HOT_ROWS,
};

#[derive(Clone, Copy)]
enum Act {
    Update(u64),
    Destroy(u64),
    Create(u64),
}

pub struct Fanout {
    telemetry: bool,
    rng: Rng,
    sys: Option<Sys>,
    live: Vec<u64>,
    next_id: u64,
    stamp: u64,
}

impl Fanout {
    pub fn new(seed: u64, telemetry: bool) -> Fanout {
        Fanout {
            telemetry,
            rng: Rng::new(seed),
            sys: None,
            live: Vec::new(),
            next_id: 1,
            stamp: 0,
        }
    }

    fn config(&self, app: &str) -> SynapseConfig {
        SynapseConfig::new(app)
            .mode(DeliveryMode::Weak)
            .workers(1)
            .dep_space(dep_space())
            .telemetry(self.telemetry)
    }
}

impl Workload for Fanout {
    fn spec(&self) -> &Spec {
        &SPEC
    }

    fn setup(&mut self) -> SetupParts {
        self.teardown();
        self.live.clear();
        self.next_id = 1;
        self.stamp = 0;
        let mut parts = SetupParts::default();

        let t0 = Instant::now();
        let eco = Ecosystem::new();
        let probe = Probe::new(SUBSCRIBER_VENDORS.len(), false);
        let publisher = eco.add_node(
            self.config(PUB),
            adapters::for_vendor(PUBLISHER_VENDOR, LatencyModel::off()),
        );
        let strict = ModelSchema::new("Item")
            .field("name")
            .field("qty")
            .field("stamp");
        publisher.orm().define_model(strict).expect("define");
        publisher
            .publish(Publication::model("Item").fields(&FIELDS))
            .expect("publish");
        parts.wire_ms = ms_since(t0);

        let t0 = Instant::now();
        for _ in 0..HOT_ROWS {
            let id = self.next_id;
            self.next_id += 1;
            publisher
                .orm()
                .create_with_id(
                    "Item",
                    Id(id),
                    vmap! { "name" => format!("item-{id}"), "qty" => 0u64, "stamp" => 0u64 },
                )
                .expect("seed item");
            self.live.push(id);
        }
        parts.seed_ms = ms_since(t0);

        let t0 = Instant::now();
        let mut replicas = Vec::new();
        for (i, vendor) in SUBSCRIBER_VENDORS.iter().enumerate() {
            let node = eco.add_node(
                self.config(&format!("fanout_sub_{vendor}")),
                adapters::for_vendor(vendor, LatencyModel::off()),
            );
            node.orm()
                .define_model(ModelSchema::open("Item"))
                .expect("define");
            node.subscribe(Subscription::model("Item", PUB).fields(&FIELDS))
                .expect("subscribe");
            attach_stamp_probe(&node, i, &[(ITEM, "Item")], &probe);
            replicas.push(node);
        }
        assert!(eco.connect().is_empty(), "static pub/sub checks");
        parts.wire_ms += ms_since(t0);

        let t0 = Instant::now();
        let watches: Vec<_> = replicas.iter().map(|node| watch_windows(node)).collect();
        for node in &replicas {
            node.start_and_bootstrap_from(&publisher)
                .expect("bootstrap a subscriber");
            node.clear_bootstrap_probe();
        }
        parts.bootstrap_ms = ms_since(t0);
        parts.window_ms = window_ms(&watches);

        self.sys = Some(Sys {
            eco,
            publisher,
            replicas,
            probe,
        });
        parts
    }

    fn sys(&self) -> &Sys {
        self.sys.as_ref().expect("set up")
    }

    fn op(&mut self, op: u64, parent: u32, tr: &mut Tracer) -> OpOut {
        let kind = self.rng.below(100);
        let pick = self.rng.below(self.live.len() as u64) as usize;
        let qty = self.rng.below(1_000);
        self.stamp += 1;
        let stamp = self.stamp;
        let sys = self.sys.as_ref().expect("set up");
        let orm = sys.publisher.orm();
        let replicas = sys.replicas.len();
        let expect = |id: u64, stamp: u64| {
            for replica in 0..replicas {
                sys.probe.expect(op, replica, row_key(ITEM, id), stamp);
            }
        };
        let act = if kind < 70 {
            Act::Update(self.live[pick])
        } else if self.live.len() as u64 >= HOT_ROWS {
            Act::Destroy(self.live.swap_remove(pick))
        } else {
            let id = self.next_id;
            self.next_id += 1;
            self.live.push(id);
            Act::Create(id)
        };
        match act {
            Act::Update(id) | Act::Create(id) => expect(id, stamp),
            Act::Destroy(id) => expect(id, GONE),
        }
        let t0 = now_ns();
        let (res, _) = with_scope(|| match act {
            Act::Update(id) => orm.update("Item", Id(id), vmap! { "qty" => qty, "stamp" => stamp }),
            Act::Destroy(id) => orm.destroy("Item", Id(id)),
            Act::Create(id) => orm.create_with_id(
                "Item",
                Id(id),
                vmap! { "name" => format!("item-{id}"), "qty" => qty, "stamp" => stamp },
            ),
        });
        let t1 = now_ns();
        tr.span("orm.write", t0, t1, parent, op);
        OpOut {
            write_ns: matches!(act, Act::Update(_)).then_some(t1 - t0),
            failed: res.is_err(),
        }
    }

    fn probe_model(&self) -> &'static str {
        "Item"
    }

    fn vendors(&self) -> &'static [&'static str] {
        &["mysql", "mongodb", "cassandra", "elasticsearch"]
    }

    fn tap_vendor(&self) -> &'static str {
        SUBSCRIBER_VENDORS[0]
    }

    fn teardown(&mut self) {
        if let Some(sys) = self.sys.take() {
            sys.eco.stop_all();
        }
    }
}
