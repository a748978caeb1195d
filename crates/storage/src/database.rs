//! A named catalog of relations, optionally operating under a memory budget.

use std::collections::BTreeMap;
use std::sync::Arc;

use smoke_pager::{BufferPool, ReplacementPolicy, SegmentStore, PAGE_SIZE};

use crate::{PagedRelation, Relation, Result, StorageError};

/// A simple in-memory catalog mapping relation names to [`Relation`]s.
///
/// Base queries read base relations from a `Database`; derived outputs (views)
/// can be registered back so that lineage-consuming queries can treat them as
/// base queries in turn (paper §2.1).
///
/// By default every relation is fully resident. Setting a **memory budget**
/// ([`Database::set_memory_budget`]) attaches a [`BufferPool`] to the
/// catalog and transparently spills relations: every column of every
/// registered relation (numeric and `Str`) moves to the pool's segment
/// store, and at most `budget / PAGE_SIZE` pages of them are resident at any
/// instant.
/// Spilled relations are served via [`Database::paged_relation`]; looking
/// one up through [`Database::relation`] yields the typed
/// [`StorageError::RelationSpilled`] so in-RAM code paths cannot silently
/// read a relation that no longer lives in RAM.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
    paged: BTreeMap<String, PagedRelation>,
    pool: Option<Arc<BufferPool>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Attaches a memory budget: a buffer pool of `budget_bytes / PAGE_SIZE`
    /// frames (at least one) over a fresh temp-file segment store, with
    /// SIEVE replacement (`policy` has that one variant). Relations already
    /// registered — and every relation registered afterwards — are
    /// transparently spilled.
    pub fn set_memory_budget(
        &mut self,
        budget_bytes: usize,
        policy: ReplacementPolicy,
    ) -> Result<()> {
        let store = SegmentStore::temp("db")?;
        self.attach_pool(store, budget_bytes, policy)
    }

    /// Like [`Database::set_memory_budget`] but backed by an in-memory
    /// segment (tests, Miri runs).
    pub fn set_memory_budget_in_memory(
        &mut self,
        budget_bytes: usize,
        policy: ReplacementPolicy,
    ) -> Result<()> {
        self.attach_pool(SegmentStore::in_memory(), budget_bytes, policy)
    }

    fn attach_pool(
        &mut self,
        store: SegmentStore,
        budget_bytes: usize,
        policy: ReplacementPolicy,
    ) -> Result<()> {
        if self.pool.is_some() {
            return Err(StorageError::Pager(
                "memory budget already configured for this database".to_string(),
            ));
        }
        let budget_pages = (budget_bytes / PAGE_SIZE).max(1);
        // Database pools carry the background prefetcher: paged operators
        // hint their upcoming page runs and cold scans overlap I/O.
        let pool = Arc::new(BufferPool::with_prefetch(
            store,
            budget_pages,
            policy,
            smoke_pager::DEFAULT_PREFETCH_THREADS,
        ));
        // Spill everything already registered.
        let resident = std::mem::take(&mut self.relations);
        for (name, relation) in resident {
            let paged = PagedRelation::spill(&relation, &pool)?;
            self.paged.insert(name, paged);
        }
        self.pool = Some(pool);
        Ok(())
    }

    /// The buffer pool serving spilled relations, if a budget is set.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }

    /// Registers a relation under its own name. Fails on duplicates. With a
    /// memory budget configured the relation is spilled on the way in.
    pub fn register(&mut self, relation: Relation) -> Result<()> {
        let name = relation.name().to_string();
        if self.relations.contains_key(&name) || self.paged.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name));
        }
        match &self.pool {
            Some(pool) => {
                let paged = PagedRelation::spill(&relation, pool)?;
                self.paged.insert(name, paged);
            }
            None => {
                self.relations.insert(name, relation);
            }
        }
        Ok(())
    }

    /// Looks up a resident relation by name. Spilled relations yield
    /// [`StorageError::RelationSpilled`] (use [`Database::paged_relation`]).
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        match self.relations.get(name) {
            Some(rel) => Ok(rel),
            None if self.paged.contains_key(name) => {
                Err(StorageError::RelationSpilled(name.to_string()))
            }
            None => Err(StorageError::UnknownRelation(name.to_string())),
        }
    }

    /// Looks up a spilled relation by name.
    pub fn paged_relation(&self, name: &str) -> Result<&PagedRelation> {
        self.paged
            .get(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Whether `name` is registered and spilled to paged storage.
    pub fn is_paged(&self, name: &str) -> bool {
        self.paged.contains_key(name)
    }

    /// Whether a relation with this name exists (resident or spilled).
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name) || self.paged.contains_key(name)
    }

    /// Names of all registered relations (resident and spilled), sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .relations
            .keys()
            .chain(self.paged.keys())
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of registered relations (resident and spilled).
    pub fn len(&self) -> usize {
        self.relations.len() + self.paged.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty() && self.paged.is_empty()
    }

    /// Removes a resident relation from the catalog, returning it if
    /// present. Spilled relations are removed with
    /// [`Database::remove_paged`].
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Removes a spilled relation from the catalog.
    pub fn remove_paged(&mut self, name: &str) -> Option<PagedRelation> {
        self.paged.remove(name)
    }

    /// Total approximate heap footprint: resident relations in full, plus
    /// the slot metadata of spilled ones.
    /// Frame memory is bounded by the pool budget and accounted separately.
    pub fn heap_bytes(&self) -> usize {
        self.relations
            .values()
            .map(Relation::heap_bytes)
            .sum::<usize>()
            + self
                .paged
                .values()
                .map(PagedRelation::heap_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Value};

    fn rel(name: &str) -> Relation {
        Relation::builder(name)
            .column("x", DataType::Int)
            .row(vec![Value::Int(1)])
            .build()
            .unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut db = Database::new();
        db.register(rel("a")).unwrap();
        db.register(rel("b")).unwrap();
        assert!(db.contains("a"));
        assert_eq!(db.relation("b").unwrap().len(), 1);
        assert_eq!(db.relation_names(), vec!["a", "b"]);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut db = Database::new();
        db.register(rel("a")).unwrap();
        assert!(matches!(
            db.register(rel("a")),
            Err(StorageError::DuplicateRelation(_))
        ));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn missing_relation_errors() {
        let db = Database::new();
        assert!(matches!(
            db.relation("nope"),
            Err(StorageError::UnknownRelation(_))
        ));
        assert!(db.is_empty());
    }

    #[test]
    fn remove_returns_relation() {
        let mut db = Database::new();
        db.register(rel("a")).unwrap();
        let removed = db.remove("a").unwrap();
        assert_eq!(removed.name(), "a");
        assert!(db.remove("a").is_none());
    }

    #[test]
    fn budget_spills_existing_and_future_registrations() {
        let mut db = Database::new();
        db.register(rel("a")).unwrap();
        db.set_memory_budget_in_memory(PAGE_SIZE, ReplacementPolicy::Sieve)
            .unwrap();
        // Pre-existing relation was spilled.
        assert!(db.is_paged("a"));
        assert!(matches!(
            db.relation("a"),
            Err(StorageError::RelationSpilled(_))
        ));
        assert_eq!(db.paged_relation("a").unwrap().len(), 1);
        // Future registrations spill on the way in.
        db.register(rel("b")).unwrap();
        assert!(db.is_paged("b"));
        assert_eq!(db.relation_names(), vec!["a", "b"]);
        assert_eq!(db.len(), 2);
        assert!(db.contains("b"));
        // Duplicate detection spans both maps.
        assert!(matches!(
            db.register(rel("a")),
            Err(StorageError::DuplicateRelation(_))
        ));
        // Spilled relations round-trip through materialize.
        let back = db.paged_relation("a").unwrap().materialize().unwrap();
        assert_eq!(back.len(), 1);
        // A second budget is rejected.
        assert!(db
            .set_memory_budget_in_memory(PAGE_SIZE, ReplacementPolicy::Sieve)
            .is_err());
        // Spilled relations leave the catalog through `remove_paged`.
        assert!(db.remove_paged("a").is_some());
        assert!(db.remove_paged("b").is_some());
        assert!(db.is_empty());
    }
}
