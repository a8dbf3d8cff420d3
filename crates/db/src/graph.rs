//! Graph engine: labelled property nodes, adjacency lists, and traversals,
//! in the style of Neo4j.
//!
//! Nodes live in per-label tables and carry dynamic properties; edges are
//! held in adjacency lists per edge label. The paper's Example 2 (§3.3)
//! replicates a SQL `friendships` join table into Neo4j edges through an
//! observer; [`Query::Traverse`] then serves the recommendation engine's
//! "friends of friends" queries in breadth-first order.

use crate::engine::{Capabilities, Engine, EngineStats};
use crate::error::DbError;
use crate::latency::LatencyModel;
use crate::query::{Query, QueryResult};
use crate::table::{namespace, OpMeter, RowTable};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, VecDeque};
use synapse_model::Id;

#[derive(Debug, Default)]
struct GraphStore {
    /// Node properties by label: label → id → props.
    nodes: HashMap<String, RowTable>,
    /// Undirected adjacency by edge label: label → node → neighbours.
    /// (Neo4j's `has_many :both` — friendship graphs are symmetric.)
    edges: HashMap<String, HashMap<Id, BTreeSet<Id>>>,
}

impl GraphStore {
    fn neighbors(&self, label: &str, from: Id) -> BTreeSet<Id> {
        self.edges
            .get(label)
            .and_then(|adj| adj.get(&from))
            .cloned()
            .unwrap_or_default()
    }

    /// Breadth-first traversal up to `depth` hops, start excluded.
    fn traverse(&self, label: &str, from: Id, depth: usize) -> Vec<Id> {
        let mut seen: BTreeSet<Id> = BTreeSet::new();
        let mut order: Vec<Id> = Vec::new();
        let mut queue: VecDeque<(Id, usize)> = VecDeque::new();
        seen.insert(from);
        queue.push_back((from, 0));
        while let Some((node, d)) = queue.pop_front() {
            if d == depth {
                continue;
            }
            for next in self.neighbors(label, node) {
                if seen.insert(next) {
                    order.push(next);
                    queue.push_back((next, d + 1));
                }
            }
        }
        order
    }
}

/// The graph engine. See the module docs.
pub struct GraphDb {
    caps: Capabilities,
    meter: OpMeter,
    store: Mutex<GraphStore>,
}

impl GraphDb {
    /// Creates an engine with the given vendor capabilities and latency.
    pub fn new(caps: Capabilities, latency: LatencyModel) -> Self {
        GraphDb {
            caps,
            meter: OpMeter::new(latency),
            store: Mutex::new(GraphStore::default()),
        }
    }
}

impl Engine for GraphDb {
    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute(&self, q: Query) -> Result<QueryResult, DbError> {
        self.meter.charge(&q);
        let mut store = self.store.lock();
        match q {
            Query::CreateTable { table } => {
                namespace(&mut store.nodes, &table);
                Ok(QueryResult::Unit)
            }
            Query::DropTable { table } => {
                store.nodes.remove(&table);
                Ok(QueryResult::Unit)
            }
            Query::Insert { table, id, row } => {
                let label = namespace(&mut store.nodes, &table);
                let stored = label.insert(&table, id, row)?;
                Ok(QueryResult::Rows(vec![(id, stored.clone())]))
            }
            Query::Update {
                table,
                filter,
                set,
                unset,
            } => {
                let label = namespace(&mut store.nodes, &table);
                let mut written = Vec::new();
                label.update(&label.ids(&filter), set, &unset, false, |id, _, new| {
                    written.push((id, new.clone()))
                });
                Ok(QueryResult::Rows(written))
            }
            Query::Delete { table, filter } => {
                let label = namespace(&mut store.nodes, &table);
                let removed = label.delete(&label.ids(&filter));
                // Deleting a node detaches all its edges (Neo4j's
                // DETACH DELETE).
                for (id, _) in &removed {
                    for adj in store.edges.values_mut() {
                        if let Some(peers) = adj.remove(id) {
                            for peer in peers {
                                if let Some(back) = adj.get_mut(&peer) {
                                    back.remove(id);
                                }
                            }
                        }
                    }
                }
                Ok(QueryResult::Rows(removed))
            }
            Query::Select {
                table,
                filter,
                order,
                limit,
            } => Ok(QueryResult::Rows(
                store
                    .nodes
                    .get(&table)
                    .map_or_else(Vec::new, |label| label.select(&filter, &order, limit)),
            )),
            Query::Count { table, filter } => Ok(QueryResult::Count(
                store
                    .nodes
                    .get(&table)
                    .map_or(0, |label| label.count(&filter)),
            )),
            Query::AddEdge { label, from, to } => {
                let adj = store.edges.entry(label).or_default();
                adj.entry(from).or_default().insert(to);
                adj.entry(to).or_default().insert(from);
                Ok(QueryResult::Unit)
            }
            Query::RemoveEdge { label, from, to } => {
                if let Some(adj) = store.edges.get_mut(&label) {
                    if let Some(peers) = adj.get_mut(&from) {
                        peers.remove(&to);
                    }
                    if let Some(peers) = adj.get_mut(&to) {
                        peers.remove(&from);
                    }
                }
                Ok(QueryResult::Unit)
            }
            Query::Traverse { label, from, depth } => {
                Ok(QueryResult::Ids(store.traverse(&label, from, depth)))
            }
            Query::Search { .. } | Query::Aggregate { .. } => {
                Err(DbError::Unsupported("full-text search on graph engine"))
            }
        }
    }

    fn stats(&self) -> EngineStats {
        let store = self.store.lock();
        self.meter
            .stats(store.nodes.values().flat_map(RowTable::rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::query::{Filter, Row};
    use synapse_model::Value;

    fn db() -> GraphDb {
        profiles::neo4j(LatencyModel::off())
    }

    fn add_user(db: &GraphDb, id: u64, name: &str) {
        let mut row = Row::new();
        row.insert("name".to_owned(), Value::from(name));
        db.execute(Query::Insert {
            table: "User".into(),
            id: Id(id),
            row,
        })
        .unwrap();
    }

    fn friend(db: &GraphDb, a: u64, b: u64) {
        db.execute(Query::AddEdge {
            label: "friends".into(),
            from: Id(a),
            to: Id(b),
        })
        .unwrap();
    }

    /// Total number of (undirected) edges.
    fn edge_count(db: &GraphDb) -> usize {
        let store = db.store.lock();
        let double: usize = store
            .edges
            .values()
            .flat_map(|adj| adj.values())
            .map(BTreeSet::len)
            .sum();
        double / 2
    }

    fn traverse(db: &GraphDb, from: u64, depth: usize) -> Vec<Id> {
        match db
            .execute(Query::Traverse {
                label: "friends".into(),
                from: Id(from),
                depth,
            })
            .unwrap()
        {
            QueryResult::Ids(ids) => ids,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn edges_are_undirected() {
        let db = db();
        add_user(&db, 1, "a");
        add_user(&db, 2, "b");
        friend(&db, 1, 2);
        assert_eq!(traverse(&db, 1, 1), vec![Id(2)]);
        assert_eq!(traverse(&db, 2, 1), vec![Id(1)]);
        assert_eq!(edge_count(&db), 1);
    }

    #[test]
    fn traversal_respects_depth() {
        let db = db();
        for i in 1..=4 {
            add_user(&db, i, "u");
        }
        // Chain 1 - 2 - 3 - 4.
        friend(&db, 1, 2);
        friend(&db, 2, 3);
        friend(&db, 3, 4);
        assert_eq!(traverse(&db, 1, 1), vec![Id(2)]);
        assert_eq!(traverse(&db, 1, 2), vec![Id(2), Id(3)]);
        assert_eq!(traverse(&db, 1, 3), vec![Id(2), Id(3), Id(4)]);
    }

    #[test]
    fn traversal_handles_cycles() {
        let db = db();
        for i in 1..=3 {
            add_user(&db, i, "u");
        }
        friend(&db, 1, 2);
        friend(&db, 2, 3);
        friend(&db, 3, 1);
        assert_eq!(traverse(&db, 1, 10), vec![Id(2), Id(3)]);
    }

    #[test]
    fn remove_edge_breaks_traversal() {
        let db = db();
        add_user(&db, 1, "a");
        add_user(&db, 2, "b");
        friend(&db, 1, 2);
        db.execute(Query::RemoveEdge {
            label: "friends".into(),
            from: Id(2),
            to: Id(1),
        })
        .unwrap();
        assert!(traverse(&db, 1, 3).is_empty());
        assert_eq!(edge_count(&db), 0);
    }

    #[test]
    fn deleting_node_detaches_edges() {
        let db = db();
        for i in 1..=3 {
            add_user(&db, i, "u");
        }
        friend(&db, 1, 2);
        friend(&db, 2, 3);
        db.execute(Query::Delete {
            table: "User".into(),
            filter: Filter::ById(Id(2)),
        })
        .unwrap();
        assert!(traverse(&db, 1, 5).is_empty());
        assert_eq!(edge_count(&db), 0);
    }

    #[test]
    fn node_properties_update() {
        let db = db();
        add_user(&db, 1, "a");
        let mut set = Row::new();
        set.insert("likes".to_owned(), Value::Int(5));
        let res = db
            .execute(Query::Update {
                table: "User".into(),
                filter: Filter::ById(Id(1)),
                set,
                unset: vec![],
            })
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(res[0].1["likes"], Value::Int(5));
    }

    #[test]
    fn different_edge_labels_are_independent() {
        let db = db();
        add_user(&db, 1, "a");
        add_user(&db, 2, "b");
        friend(&db, 1, 2);
        db.execute(Query::AddEdge {
            label: "blocked".into(),
            from: Id(1),
            to: Id(2),
        })
        .unwrap();
        db.execute(Query::RemoveEdge {
            label: "blocked".into(),
            from: Id(1),
            to: Id(2),
        })
        .unwrap();
        assert_eq!(traverse(&db, 1, 1), vec![Id(2)], "friends edge survives");
    }
}
