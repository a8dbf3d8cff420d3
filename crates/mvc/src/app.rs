//! Applications, controllers, and request dispatch.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use synapse_core::{ControllerStats, DepName, SynapseNode};
use synapse_model::{Id, Value};
use synapse_orm::{Orm, OrmError};

/// An incoming request: the session's user and string params.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// The authenticated user's id, if any (binds the causal scope to the
    /// user session, §4.2).
    pub current_user: Option<Id>,
    /// Request parameters.
    pub params: BTreeMap<String, Value>,
}

impl Request {
    /// An anonymous request.
    pub fn anonymous() -> Self {
        Request::default()
    }

    /// A request authenticated as `user`.
    pub fn as_user(user: Id) -> Self {
        Request {
            current_user: Some(user),
            ..Request::default()
        }
    }

    /// Adds a parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Reads a parameter ([`Value::Null`] when absent).
    pub fn get(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.params.get(key).unwrap_or(&NULL)
    }
}

/// A controller's response body.
pub type Response = Value;

/// A controller body: business logic acting on the models through the
/// app's ORM.
pub type Controller = Arc<dyn Fn(&App, &Request) -> Result<Response, OrmError> + Send + Sync>;

/// One MVC application: a Synapse node plus a controller registry.
pub struct App {
    node: Arc<SynapseNode>,
    controllers: RwLock<BTreeMap<String, Controller>>,
    stats: Arc<ControllerStats>,
}

impl App {
    /// Wraps a Synapse node as an MVC application.
    pub fn new(node: Arc<SynapseNode>) -> Arc<Self> {
        Arc::new(App {
            node,
            controllers: RwLock::new(BTreeMap::new()),
            stats: Arc::new(ControllerStats::new()),
        })
    }

    /// The application name.
    pub fn name(&self) -> &str {
        self.node.app()
    }

    /// The underlying Synapse node.
    pub fn node(&self) -> &Arc<SynapseNode> {
        &self.node
    }

    /// The app's ORM.
    pub fn orm(&self) -> &Arc<Orm> {
        self.node.orm()
    }

    /// The per-controller statistics collector (Fig. 12).
    pub fn stats(&self) -> &Arc<ControllerStats> {
        &self.stats
    }

    /// Registers a controller under `name` (e.g. `posts/create`).
    pub fn controller<F>(&self, name: &str, f: F)
    where
        F: Fn(&App, &Request) -> Result<Response, OrmError> + Send + Sync + 'static,
    {
        self.controllers
            .write()
            .insert(name.to_owned(), Arc::new(f));
    }

    /// Dispatches a request to a controller, inside a causal scope bound to
    /// the request's user session, recording Fig. 12 timing.
    pub fn dispatch(&self, controller: &str, request: &Request) -> Result<Response, OrmError> {
        let body = self
            .controllers
            .read()
            .get(controller)
            .cloned()
            .ok_or_else(|| OrmError::Restriction(format!("no controller {controller}")))?;
        let start = Instant::now();
        let (result, scope_stats) = match request.current_user {
            Some(user) => {
                let user_dep = DepName::object(self.name(), "User", user);
                synapse_core::with_user_scope(user_dep, || body(self, request))
            }
            None => synapse_core::with_scope(|| body(self, request)),
        };
        self.stats.record(controller, start.elapsed(), scope_stats);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synapse_broker::Broker;
    use synapse_core::{Publication, SynapseConfig};
    use synapse_db::LatencyModel;
    use synapse_model::{vmap, ModelSchema};
    use synapse_orm::adapters::MongoidAdapter;

    fn test_app() -> Arc<App> {
        let node = SynapseNode::new(
            SynapseConfig::new("blog"),
            Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
            Broker::new(),
        );
        node.orm().define_model(ModelSchema::open("Post")).unwrap();
        node.publish(Publication::model("Post").field("body"))
            .unwrap();
        App::new(node)
    }

    #[test]
    fn dispatch_runs_registered_controllers() {
        let app = test_app();
        app.controller("posts/create", |app, req| {
            let post = app
                .orm()
                .create("Post", vmap! { "body" => req.get("body").clone() })?;
            Ok(Value::from(post.id.raw()))
        });
        let res = app
            .dispatch(
                "posts/create",
                &Request::as_user(Id(1)).param("body", "hello"),
            )
            .unwrap();
        assert_eq!(res.as_int(), Some(1));
        assert_eq!(app.orm().count("Post").unwrap(), 1);
    }

    #[test]
    fn missing_controller_is_an_error() {
        let app = test_app();
        assert!(app.dispatch("nope", &Request::anonymous()).is_err());
    }

    #[test]
    fn dispatch_records_stats_per_controller() {
        let app = test_app();
        app.controller("posts/create", |app, _| {
            app.orm().create("Post", vmap! { "body" => "x" })?;
            Ok(Value::Null)
        });
        app.controller("posts/index", |app, _| {
            app.orm().all("Post")?;
            Ok(Value::Null)
        });
        for _ in 0..5 {
            app.dispatch("posts/create", &Request::as_user(Id(1)))
                .unwrap();
            app.dispatch("posts/index", &Request::anonymous()).unwrap();
        }
        let create = app.stats().row("posts/create").unwrap();
        assert_eq!(create.calls, 5);
        assert!(create.mean_messages >= 1.0, "writes publish messages");
        assert!(create.mean_synapse.as_nanos() > 0);
        let index = app.stats().row("posts/index").unwrap();
        assert_eq!(index.mean_messages, 0.0, "read-only controller");
        assert_eq!(app.stats().total_calls(), 10);
    }
}
