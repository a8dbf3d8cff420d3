//! The programming model: publications and subscriptions (Table 2).
//!
//! A service *publishes* attributes of models it owns and *subscribes* to
//! attributes of models other services own. A *decorator* does both on the
//! same model (with disjoint attribute sets); an *ephemeral* is a published
//! model that is never persisted locally; an *observer* is a subscribed
//! model that is never persisted locally (§3.1).

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Declares which attributes of a model this service publishes.
///
/// # Examples
///
/// ```
/// use synapse_core::Publication;
///
/// // class User; publish do field :name; end; end
/// let publication = Publication::model("User").field("name");
/// assert_eq!(publication.fields, vec!["name"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Publication {
    /// Model name.
    pub model: String,
    /// Published attribute names (persisted or virtual).
    pub fields: Vec<String>,
    /// `true` for DB-less published models (§3.1 ephemerals).
    pub ephemeral: bool,
    /// `true` when other services may concurrently write this model too
    /// (multi-writer replication): outgoing messages carry a last-writer-wins
    /// stamp per object, and concurrent remote writes settle by it instead
    /// of being rejected by the §3.1 single-writer ownership rule.
    pub bidirectional: bool,
}

impl Publication {
    /// Starts a publication for `model`.
    pub fn model(model: impl Into<String>) -> Self {
        Publication {
            model: model.into(),
            fields: Vec::new(),
            ephemeral: false,
            bidirectional: false,
        }
    }

    /// Publishes an attribute (the `field :name` annotation).
    pub fn field(mut self, name: impl Into<String>) -> Self {
        self.fields.push(name.into());
        self
    }

    /// Publishes several attributes at once.
    pub fn fields(mut self, names: &[&str]) -> Self {
        self.fields.extend(names.iter().map(|n| (*n).to_owned()));
        self
    }

    /// Marks the model as an ephemeral (published, never persisted).
    pub fn ephemeral(mut self) -> Self {
        self.ephemeral = true;
        self
    }

    /// Marks the publication bidirectional (multi-writer replication).
    pub fn bidirectional(mut self) -> Self {
        self.bidirectional = true;
        self
    }
}

/// Declares which attributes of a remote model this service subscribes to.
///
/// # Examples
///
/// ```
/// use synapse_core::Subscription;
///
/// // class User; subscribe from: :Pub1 do field :name; end; end
/// let subscription = Subscription::model("User", "pub1").field("name");
/// assert_eq!(subscription.from, "pub1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    /// Model name as published.
    pub model: String,
    /// Publishing application.
    pub from: String,
    /// Subscribed attribute names (as published).
    pub fields: Vec<String>,
    /// Attribute renames: published name → local (often virtual) name,
    /// the paper's `field :interests, as: :interests_virt` (Example 3).
    pub renames: BTreeMap<String, String>,
    /// `true` for observer models (subscribed, never persisted).
    pub observer: bool,
    /// `true` when this service also *publishes* the same model
    /// (multi-writer replication): the subscription's attributes stay
    /// locally writable, and an incoming write applies only when its
    /// last-writer-wins stamp is not below the stored one.
    pub bidirectional: bool,
}

impl Subscription {
    /// Starts a subscription for `model` published by app `from`.
    pub fn model(model: impl Into<String>, from: impl Into<String>) -> Self {
        Subscription {
            model: model.into(),
            from: from.into(),
            fields: Vec::new(),
            renames: BTreeMap::new(),
            observer: false,
            bidirectional: false,
        }
    }

    /// Subscribes to an attribute.
    pub fn field(mut self, name: impl Into<String>) -> Self {
        self.fields.push(name.into());
        self
    }

    /// Subscribes to several attributes at once.
    pub fn fields(mut self, names: &[&str]) -> Self {
        self.fields.extend(names.iter().map(|n| (*n).to_owned()));
        self
    }

    /// Subscribes to `name`, storing it through local attribute `local`
    /// (typically a virtual attribute setter).
    pub fn field_as(mut self, name: impl Into<String>, local: impl Into<String>) -> Self {
        let name = name.into();
        self.fields.push(name.clone());
        self.renames.insert(name, local.into());
        self
    }

    /// Marks the model as an observer (subscribed, never persisted).
    pub fn observer(mut self) -> Self {
        self.observer = true;
        self
    }

    /// Marks the subscription bidirectional (multi-writer replication).
    pub fn bidirectional(mut self) -> Self {
        self.bidirectional = true;
        self
    }

    /// The local attribute name an incoming field maps to.
    pub fn local_field<'a>(&'a self, incoming: &'a str) -> &'a str {
        self.renames
            .get(incoming)
            .map(String::as_str)
            .unwrap_or(incoming)
    }

    /// The set of local attribute names this subscription writes — the
    /// attributes a subscriber may *not* update itself (§3.1).
    pub(crate) fn local_fields(&self) -> Vec<&str> {
        self.fields.iter().map(|f| self.local_field(f)).collect()
    }
}

/// A node's publications by model, shared by the node and its publisher.
/// Entries are `Arc`s: the write path copies a pointer out and drops the
/// lock before any ORM callback runs, instead of deep-cloning the entry.
pub(crate) type PublicationRegistry = Arc<RwLock<BTreeMap<String, Arc<Publication>>>>;

/// A node's subscriptions in declaration order, shared by the node, its
/// publisher and its subscriber; `Arc` entries as in
/// [`PublicationRegistry`].
pub(crate) type SubscriptionRegistry = Arc<RwLock<Vec<Arc<Subscription>>>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publication_builder_collects_fields() {
        let p = Publication::model("User")
            .field("name")
            .fields(&["likes", "email"]);
        assert_eq!(p.fields, vec!["name", "likes", "email"]);
        assert!(!p.ephemeral);
        assert!(Publication::model("Click").ephemeral().ephemeral);
    }

    #[test]
    fn subscription_renames_map_to_local_fields() {
        let s = Subscription::model("User", "pub3")
            .field("name")
            .field_as("interests", "interests_virt");
        assert_eq!(s.local_field("interests"), "interests_virt");
        assert_eq!(s.local_field("name"), "name");
        assert_eq!(s.local_fields(), vec!["name", "interests_virt"]);
    }
}
