//! `crowdtap_controllers`: the production topology of §5.1 as
//! `synapse_apps::crowdtap::build` wires it — a mongodb main app publishing
//! to eight services over mixed causal/weak edges — driven through
//! `App::dispatch` with the Fig. 12(a) call mix and no simulated business
//! logic (`app_work_us` = 0).
//!
//! Reads sit beside writes here: about 70 % of calls publish nothing, an
//! `actions/index` touch carries the user's whole action list as read
//! dependencies, `actions/update` emits three or four messages, and every
//! message is routed to all eight queues whether or not the service
//! subscribes to its model.
//!
//! The application's schema is fixed, so there is no stamp attribute to
//! publish. The stamp of a row is instead its version: an after-commit
//! callback on the main app's own ORM reads it from the publisher version
//! store right after each write (before the controller's next write, which
//! bumps the session user's key again), and a replica's callback reads what
//! its subscriber version store has admitted for the row (one more than the
//! stored value, because a write's message carries `ops - 1`). Expectations
//! are therefore registered *after* the write; the probe meets them at once
//! if the replica got there first.

use super::{
    ms_since, watch_windows, window_ms, DrillParts, OpOut, SetupParts, Spec, Sys, Workload,
};
use crate::probe::{row_key, Probe};
use crate::stats::{now_ns, Rng};
use crate::trace::Tracer;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use synapse_apps::crowdtap;
use synapse_core::{DepName, Ecosystem, SynapseNode};
use synapse_db::LatencyModel;
use synapse_model::{vmap, Id};
use synapse_mvc::{App, Request};
use synapse_orm::CallbackPoint;

pub const USERS: usize = 100;
pub const BRANDS: usize = 8;
pub const ACTIONS_PER_USER: usize = 15;

const MAIN: &str = "main_app";
/// Longest a restarting service is given before the next one starts.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(10);
const MODELS: [&str; 5] = ["User", "Brand", "Award", "Action", "ActivityLog"];

/// Fig. 12(a): controller, weight in 1/1000 of calls (the five cover 71.5 %
/// of the paper's traffic; the mix is renormalised over them).
const MIX: [(&str, u64); 5] = [
    ("awards/index", 170),
    ("brands/show", 160),
    ("actions/index", 150),
    ("me/show", 120),
    ("actions/update", 115),
];

pub const SPEC: Spec = Spec {
    name: "crowdtap_controllers",
    why: "reads beside writes: mvc scopes, read-dependency tracking, multi-key bumps, wide wire encode and 8-way fan-out that the stress workloads barely touch",
    topology: "crowdtap::build: mongodb main app -> 8 services (5 causal, 3 weak), memory broker, app defaults",
    open_rate: 1_500.0,
    warmup_ops: 5_000,
    backlog_ops: 5_000,
    probe_op: "actions/index touch=true",
    seed_rows: (USERS * (1 + ACTIONS_PER_USER) + 2 * BRANDS) as u64,
};

pub struct Crowdtap {
    rng: Rng,
    sys: Option<Sys>,
    main: Option<Arc<App>>,
    users: Vec<Id>,
    /// `subscribers[model]` = replicas that subscribe to the model.
    subscribers: Vec<Vec<usize>>,
    /// `(model, id, version)` of the rows the main app wrote during the
    /// current dispatch, noted by after-commit callbacks on its own ORM
    /// (they run on this thread).
    written: Arc<Mutex<Vec<(u8, u64, u64)>>>,
}

impl Crowdtap {
    pub fn new(seed: u64) -> Crowdtap {
        Crowdtap {
            rng: Rng::new(seed),
            sys: None,
            main: None,
            users: Vec::new(),
            subscribers: Vec::new(),
            written: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

/// Reports a replica's applied writes with the row's admitted version.
fn attach_version_probe(node: &Arc<SynapseNode>, replica: usize, model: u8, probe: &Arc<Probe>) {
    let name = MODELS[model as usize];
    for point in [CallbackPoint::AfterCreate, CallbackPoint::AfterUpdate] {
        let probe = probe.clone();
        let store = node.sub_store().clone();
        let space = node.config().dep_space;
        node.orm().on(name, point, move |_, record| {
            let key = space.key(&DepName::object(MAIN, &record.model, record.id));
            let stamp = store.latest_version(key).unwrap_or(0) + 1;
            probe.observe(replica, row_key(model, record.id.raw()), stamp);
            Ok(())
        });
    }
}

impl Workload for Crowdtap {
    fn spec(&self) -> &Spec {
        &SPEC
    }

    fn setup(&mut self) -> SetupParts {
        self.teardown();
        let mut parts = SetupParts::default();

        let t0 = Instant::now();
        let eco = Ecosystem::new();
        let apps = crowdtap::build(&eco, LatencyModel::off());
        assert!(eco.connect().is_empty(), "static pub/sub checks");
        let replicas: Vec<Arc<SynapseNode>> = crowdtap::SERVICES
            .iter()
            .map(|(name, _)| apps.services[*name].clone())
            .collect();
        let probe = Probe::new(replicas.len(), false);
        self.subscribers = vec![Vec::new(); MODELS.len()];
        for (replica, node) in replicas.iter().enumerate() {
            for sub in node.subscriptions().iter().filter(|s| s.from == MAIN) {
                let model = MODELS
                    .iter()
                    .position(|m| *m == sub.model)
                    .expect("known model");
                self.subscribers[model].push(replica);
                attach_version_probe(node, replica, model as u8, &probe);
            }
        }
        for (model, name) in MODELS.iter().enumerate() {
            for point in [CallbackPoint::AfterCreate, CallbackPoint::AfterUpdate] {
                let written = self.written.clone();
                let store = apps.main.node().pub_store().clone();
                let space = apps.main.node().config().dep_space;
                apps.main.orm().on(name, point, move |_, record| {
                    let key = space.key(&DepName::object(MAIN, &record.model, record.id));
                    let stamp = store.latest_version(key).unwrap_or(0);
                    written
                        .lock()
                        .expect("written")
                        .push((model as u8, record.id.raw(), stamp));
                    Ok(())
                });
            }
        }
        parts.wire_ms = ms_since(t0);

        // `build` has already bound the eight queues, so the seed writes
        // also wait in them: each service works that backlog off in
        // bootstrap mode while the copy runs (Fig. 2's contract).
        let t0 = Instant::now();
        self.users = crowdtap::seed(&apps.main, USERS, BRANDS);
        for round in 1..ACTIONS_PER_USER {
            for (i, user) in self.users.iter().enumerate() {
                apps.main
                    .orm()
                    .create(
                        "Action",
                        vmap! {
                            "user_id" => user.raw(),
                            "brand_id" => ((i + round) % BRANDS + 1) as u64,
                            "kind" => "poll",
                            "status" => "pending",
                        },
                    )
                    .expect("seed action");
            }
        }
        self.written.lock().expect("written").clear();
        parts.seed_ms = ms_since(t0);

        let t0 = Instant::now();
        let watches: Vec<_> = replicas.iter().map(|node| watch_windows(node)).collect();
        for node in &replicas {
            node.start_and_bootstrap_from(apps.main.node())
                .expect("bootstrap a service");
            node.clear_bootstrap_probe();
        }
        parts.bootstrap_ms = ms_since(t0);
        parts.window_ms = window_ms(&watches);

        self.sys = Some(Sys {
            eco,
            publisher: apps.main.node().clone(),
            replicas,
            probe,
        });
        self.main = Some(apps.main);
        parts
    }

    fn sys(&self) -> &Sys {
        self.sys.as_ref().expect("set up")
    }

    fn op(&mut self, op: u64, parent: u32, tr: &mut Tracer) -> OpOut {
        let mut pick = self.rng.below(MIX.iter().map(|(_, w)| w).sum());
        let controller = MIX
            .iter()
            .find(|(_, w)| {
                if pick < *w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("weights cover the draw")
            .0;
        let user = self.users[self.rng.below(USERS as u64) as usize];
        let chance = self.rng.below(100);
        let target = self.rng.below((USERS * ACTIONS_PER_USER) as u64) + 1;
        let base = Request::as_user(user).param("app_work_us", 0i64);
        let (request, is_probe) = match controller {
            "brands/show" => (
                base.param("brand_id", self.rng.below(BRANDS as u64) + 1)
                    .param("bump_views", chance < 3),
                false,
            ),
            "actions/index" => (base.param("touch", chance < 67), chance < 67),
            "actions/update" => (
                base.param("action_id", target)
                    .param("bump_brand", chance < 46),
                false,
            ),
            _ => (base, false),
        };
        let sys = self.sys.as_ref().expect("set up");
        let main = self.main.as_ref().expect("set up");
        let t0 = now_ns();
        let res = main.dispatch(controller, &request);
        let t1 = now_ns();
        tr.span("mvc.dispatch", t0, t1, parent, op);

        for (model, id, stamp) in self.written.lock().expect("written").drain(..) {
            for &replica in &self.subscribers[model as usize] {
                sys.probe.expect(op, replica, row_key(model, id), stamp);
            }
        }
        OpOut {
            write_ns: is_probe.then_some(t1 - t0),
            failed: res.is_err(),
        }
    }

    /// A rolling restart: the services come back one after another, each
    /// caught up before the next starts. All sixteen workers at once on one
    /// core took 1.3-3.7 s for the same backlog, depending on how the
    /// scheduler interleaved the causal services' dependency waits.
    fn restart_subscribers(&mut self, _parts: &mut DrillParts) {
        for node in &self.sys().replicas {
            node.start();
            // A service that cannot catch up is the watchdog's to report,
            // once the caller waits for the whole backlog.
            node.subscriber().drain(CATCH_UP_LIMIT);
        }
    }

    fn probe_model(&self) -> &'static str {
        "Action"
    }

    fn vendors(&self) -> &'static [&'static str] {
        &["mongodb", "elasticsearch", "postgresql"]
    }

    fn tap_vendor(&self) -> &'static str {
        "mongodb"
    }

    fn app(&self) -> Option<&Arc<App>> {
        self.main.as_ref()
    }

    fn teardown(&mut self) {
        if let Some(sys) = self.sys.take() {
            sys.eco.stop_all();
        }
        self.main = None;
    }
}
