//! The open-source social product recommender (§5.2, Fig. 11).
//!
//! Five services, wired exactly as the paper's figure:
//!
//! * **Diaspora** (PostgreSQL) — the social network: users, posts,
//!   comments, friendships; publishes all of them.
//! * **Discourse** (PostgreSQL) — the discussion board: topics and replies;
//!   publishes them.
//! * **Mailer** (MongoDB) — observes Diaspora posts and notifies the
//!   author's friends; persists users/friendships, observes posts;
//!   suppresses emails during bootstrap (Fig. 2).
//! * **Semantic analyzer** (MySQL) — subscribes to posts and replies,
//!   extracts topics ([`crate::analyzer`]), decorates `User` with
//!   `interests`, and publishes the decoration.
//! * **Spree** (MySQL) — the e-commerce app: products; subscribes to users'
//!   names (from Diaspora) and interests (from the analyzer) and serves
//!   interest-matched product recommendations.

use crate::analyzer::{extract_topics, merge_interests};
use parking_lot::Mutex;
use std::sync::Arc;
use synapse_core::{Ecosystem, Publication, Subscription, SynapseConfig};
use synapse_db::LatencyModel;
use synapse_model::{vmap, Id, ModelSchema, Value};
use synapse_mvc::{App, Request};
use synapse_orm::adapters::{ActiveRecordAdapter, MongoidAdapter};
use synapse_orm::CallbackPoint;

/// The wired five-service ecosystem.
pub struct SocialApps {
    /// Diaspora, the social network and owner of `User`.
    pub diaspora: Arc<App>,
    /// Discourse, the discussion board.
    pub discourse: Arc<App>,
    /// The mailer service.
    pub mailer: Arc<App>,
    /// Emails "sent" by the mailer (recipient descriptions).
    pub outbox: Arc<Mutex<Vec<String>>>,
    /// The semantic analyzer (decorator).
    pub analyzer: Arc<App>,
    /// Spree, the e-commerce app.
    pub spree: Arc<App>,
}

/// Builds and wires the ecosystem onto `eco` (call `eco.connect()` and
/// `eco.start_all()` afterwards). `latency` applies to every engine.
pub fn build(eco: &Ecosystem, latency: LatencyModel) -> SocialApps {
    let diaspora = build_diaspora(eco, latency);
    let discourse = build_discourse(eco, latency);
    let (mailer, outbox) = build_mailer(eco, latency);
    let analyzer = build_analyzer(eco, latency);
    let spree = build_spree(eco, latency);
    SocialApps {
        diaspora,
        discourse,
        mailer,
        outbox,
        analyzer,
        spree,
    }
}

/// Simulated business-logic time, driven by the Fig. 12 trace's
/// `app_work_us` parameter (see [`crate::crowdtap`] for rationale).
fn app_work(req: &Request) {
    if let Some(us) = req.get("app_work_us").as_int() {
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us as u64));
        }
    }
}

fn build_diaspora(eco: &Ecosystem, latency: LatencyModel) -> Arc<App> {
    let node = eco.add_node(
        SynapseConfig::new("diaspora"),
        Arc::new(ActiveRecordAdapter::new("postgresql", latency)),
    );
    let orm = node.orm();
    orm.define_model(
        ModelSchema::new("User")
            .field("name")
            .field("email")
            .has_many("posts", "Post"),
    )
    .unwrap();
    orm.define_model(
        ModelSchema::new("Post")
            .field("body")
            .field("public")
            .belongs_to("author", "User"),
    )
    .unwrap();
    orm.define_model(
        ModelSchema::new("Comment")
            .field("body")
            .belongs_to("post", "Post")
            .belongs_to("author", "User"),
    )
    .unwrap();
    orm.define_model(
        ModelSchema::new("Friendship")
            .belongs_to("user1", "User")
            .belongs_to("user2", "User"),
    )
    .unwrap();
    node.publish(Publication::model("User").fields(&["name", "email"]))
        .unwrap();
    node.publish(Publication::model("Post").fields(&["body", "public", "author_id"]))
        .unwrap();
    node.publish(Publication::model("Comment").fields(&["body", "post_id", "author_id"]))
        .unwrap();
    node.publish(Publication::model("Friendship").fields(&["user1_id", "user2_id"]))
        .unwrap();

    let app = App::new(node);
    app.controller("users/create", |app, req| {
        app_work(req);
        let u = app.orm().create(
            "User",
            vmap! { "name" => req.get("name").clone(), "email" => req.get("email").clone() },
        )?;
        Ok(Value::from(u.id.raw()))
    });
    app.controller("posts/create", |app, req| {
        app_work(req);
        let author = req.current_user.expect("posting requires a session");
        // Reading the author first is what creates the read dependency the
        // paper's Fig. 8 walk-through shows.
        let author_rec = app.orm().find("User", author)?.ok_or_else(|| {
            synapse_orm::OrmError::RecordNotFound {
                model: "User".into(),
                id: author.to_string(),
            }
        })?;
        let p = app.orm().create(
            "Post",
            vmap! {
                "body" => req.get("body").clone(),
                "public" => true,
                "author_id" => author_rec.id.raw(),
            },
        )?;
        Ok(Value::from(p.id.raw()))
    });
    app.controller("comments/create", |app, req| {
        app_work(req);
        let author = req.current_user.expect("commenting requires a session");
        let post_id = Id(req.get("post_id").as_int().unwrap_or(0) as u64);
        let post = app.orm().find("Post", post_id)?.ok_or_else(|| {
            synapse_orm::OrmError::RecordNotFound {
                model: "Post".into(),
                id: post_id.to_string(),
            }
        })?;
        let c = app.orm().create(
            "Comment",
            vmap! {
                "body" => req.get("body").clone(),
                "post_id" => post.id.raw(),
                "author_id" => author.raw(),
            },
        )?;
        Ok(Value::from(c.id.raw()))
    });
    app.controller("friends/create", |app, req| {
        app_work(req);
        let me = req.current_user.expect("befriending requires a session");
        let other = Id(req.get("user_id").as_int().unwrap_or(0) as u64);
        let f = app.orm().create(
            "Friendship",
            vmap! { "user1_id" => me.raw(), "user2_id" => other.raw() },
        )?;
        Ok(Value::from(f.id.raw()))
    });
    app.controller("stream/index", |app, req| {
        app_work(req);
        let posts = app.orm().all("Post")?;
        Ok(Value::from(posts.len()))
    });
    app
}

fn build_discourse(eco: &Ecosystem, latency: LatencyModel) -> Arc<App> {
    let node = eco.add_node(
        SynapseConfig::new("discourse"),
        Arc::new(ActiveRecordAdapter::new("postgresql", latency)),
    );
    let orm = node.orm();
    orm.define_model(ModelSchema::new("Topic").field("title").field("user_id"))
        .unwrap();
    orm.define_model(
        ModelSchema::new("Reply")
            .field("body")
            .field("user_id")
            .belongs_to("topic", "Topic"),
    )
    .unwrap();
    node.publish(Publication::model("Topic").fields(&["title", "user_id"]))
        .unwrap();
    node.publish(Publication::model("Reply").fields(&["body", "user_id", "topic_id"]))
        .unwrap();

    let app = App::new(node);
    app.controller("topics/create", |app, req| {
        app_work(req);
        let user = req.current_user.expect("topics require a session");
        let t = app.orm().create(
            "Topic",
            vmap! { "title" => req.get("title").clone(), "user_id" => user.raw() },
        )?;
        Ok(Value::from(t.id.raw()))
    });
    app.controller("topics/index", |app, req| {
        app_work(req);
        Ok(Value::from(app.orm().all("Topic")?.len()))
    });
    app.controller("posts/create", |app, req| {
        app_work(req);
        let user = req.current_user.expect("replies require a session");
        let topic_id = Id(req.get("topic_id").as_int().unwrap_or(0) as u64);
        let topic = app.orm().find("Topic", topic_id)?;
        let r = app.orm().create(
            "Reply",
            vmap! {
                "body" => req.get("body").clone(),
                "user_id" => user.raw(),
                "topic_id" => topic.map(|t| t.id.raw()).unwrap_or(0),
            },
        )?;
        Ok(Value::from(r.id.raw()))
    });
    app
}

fn build_mailer(eco: &Ecosystem, latency: LatencyModel) -> (Arc<App>, Arc<Mutex<Vec<String>>>) {
    let node = eco.add_node(
        SynapseConfig::new("mailer"),
        Arc::new(MongoidAdapter::new("mongodb", latency)),
    );
    let orm = node.orm();
    orm.define_model(ModelSchema::open("User")).unwrap();
    orm.define_model(ModelSchema::open("Friendship")).unwrap();
    node.subscribe(Subscription::model("User", "diaspora").fields(&["name", "email"]))
        .unwrap();
    node.subscribe(Subscription::model("Friendship", "diaspora").fields(&["user1_id", "user2_id"]))
        .unwrap();
    // Posts are observed, never stored.
    node.subscribe(
        Subscription::model("Post", "diaspora")
            .fields(&["body", "author_id"])
            .observer(),
    )
    .unwrap();

    let outbox: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sent = outbox.clone();
    orm.on("Post", CallbackPoint::AfterCreate, move |ctx, post| {
        // Fig. 2: no notifications while bootstrapping.
        if ctx.bootstrap {
            return Ok(());
        }
        let author = post.get("author_id").as_int().unwrap_or(0);
        // Notify every friend of the author whose email replicated here.
        let mut recipients = Vec::new();
        for f in ctx.orm.where_eq("Friendship", "user1_id", author)? {
            recipients.push(f.get("user2_id").as_int().unwrap_or(0));
        }
        for f in ctx.orm.where_eq("Friendship", "user2_id", author)? {
            recipients.push(f.get("user1_id").as_int().unwrap_or(0));
        }
        let mut sent = sent.lock();
        for r in recipients {
            if let Some(friend) = ctx.orm.find("User", Id(r as u64))? {
                sent.push(format!(
                    "to:{} subject:new post by user {}",
                    friend.get("email").as_str().unwrap_or("?"),
                    author
                ));
            }
        }
        Ok(())
    });
    (App::new(node), outbox)
}

fn build_analyzer(eco: &Ecosystem, latency: LatencyModel) -> Arc<App> {
    let adapter = Arc::new(ActiveRecordAdapter::new("mysql", latency));
    // `serialize :interests`, as on Spree: the analyzer reads its own
    // interests back as the array it wrote, and publishes that array.
    adapter.serialize_field("User", "interests");
    let node = eco.add_node(SynapseConfig::new("analyzer"), adapter);
    let orm = node.orm();
    orm.define_model(ModelSchema::new("User").field("name").field("interests"))
        .unwrap();
    node.subscribe(Subscription::model("User", "diaspora").field("name"))
        .unwrap();
    node.subscribe(
        Subscription::model("Post", "diaspora")
            .fields(&["body", "author_id"])
            .observer(),
    )
    .unwrap();
    node.subscribe(
        Subscription::model("Reply", "discourse")
            .fields(&["body", "user_id"])
            .observer(),
    )
    .unwrap();
    // The decoration: analyzer publishes User.interests.
    node.publish(Publication::model("User").field("interests"))
        .unwrap();

    let analyze = move |ctx: &mut synapse_orm::CallbackCtx<'_>,
                        user_field: &str,
                        record: &synapse_model::Record|
          -> Result<(), synapse_orm::OrmError> {
        let author = record.get(user_field).as_int().unwrap_or(0);
        let body = record.get("body").as_str().unwrap_or("").to_owned();
        let topics = extract_topics(&body, 3);
        if topics.is_empty() {
            return Ok(());
        }
        if let Some(user) = ctx.orm.find("User", Id(author as u64))? {
            let existing: Vec<String> = user
                .get("interests")
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(|v| v.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default();
            let merged = merge_interests(&existing, &topics, 10);
            let interests = Value::Array(merged.into_iter().map(Value::from).collect());
            ctx.orm
                .update("User", user.id, vmap! { "interests" => interests })?;
        }
        Ok(())
    };
    orm.on("Post", CallbackPoint::AfterCreate, move |ctx, r| {
        analyze(ctx, "author_id", r)
    });
    orm.on("Reply", CallbackPoint::AfterCreate, move |ctx, r| {
        analyze(ctx, "user_id", r)
    });
    App::new(node)
}

fn build_spree(eco: &Ecosystem, latency: LatencyModel) -> Arc<App> {
    let adapter = Arc::new(ActiveRecordAdapter::new("mysql", latency));
    // Rails's `serialize :interests` — restore the structured array from
    // its flattened SQL text on read (Example 3).
    adapter.serialize_field("User", "interests");
    let node = eco.add_node(SynapseConfig::new("spree"), adapter);
    let orm = node.orm();
    orm.define_model(
        ModelSchema::new("Product")
            .field("name")
            .field("description")
            .field("price"),
    )
    .unwrap();
    orm.define_model(ModelSchema::new("User").field("name").field("interests"))
        .unwrap();
    node.subscribe(Subscription::model("User", "diaspora").field("name"))
        .unwrap();
    node.subscribe(Subscription::model("User", "analyzer").field("interests"))
        .unwrap();

    let app = App::new(node);
    app.controller("products/create", |app, req| {
        let p = app.orm().create(
            "Product",
            vmap! {
                "name" => req.get("name").clone(),
                "description" => req.get("description").clone(),
                "price" => req.get("price").clone(),
            },
        )?;
        Ok(Value::from(p.id.raw()))
    });
    // The generic targeted search of §5.2: keyword-match the user's
    // replicated interests against product descriptions.
    app.controller("products/recommended", |app, req| {
        let user_id = Id(req.get("user_id").as_int().unwrap_or(0) as u64);
        let interests: Vec<String> = app
            .orm()
            .find("User", user_id)?
            .map(|u| {
                u.get("interests")
                    .as_array()
                    .map(|a| {
                        a.iter()
                            .filter_map(|v| v.as_str().map(str::to_lowercase))
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .unwrap_or_default();
        let mut hits = Vec::new();
        for product in app.orm().all("Product")? {
            let description = product
                .get("description")
                .as_str()
                .unwrap_or("")
                .to_lowercase();
            if interests.iter().any(|i| description.contains(i)) {
                hits.push(Value::from(product.id.raw()));
            }
        }
        Ok(Value::Array(hits))
    });
    app
}

/// Convenience: seed users and friendships into Diaspora.
pub fn seed_users(diaspora: &App, names: &[(&str, &str)]) -> Vec<Id> {
    let mut ids = Vec::new();
    for (name, email) in names {
        let res = diaspora
            .dispatch(
                "users/create",
                &Request::anonymous()
                    .param("name", *name)
                    .param("email", *email),
            )
            .expect("seed user");
        ids.push(Id(res.as_int().unwrap() as u64));
    }
    ids
}
