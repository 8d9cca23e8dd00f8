//! Group-commit bookkeeping (§3.3.3): transactions that entangle —
//! directly or transitively — must commit or abort together. The paper's
//! pairwise requirement "induces a requirement on groups of transactions
//! that have entangled with each other directly or transitively".
//!
//! Only linked transactions are tracked: each maps straight to its
//! group's root, and the root owns the member list and the WAL group id.
//! Lookups never insert, so a transaction that never entangled costs
//! nothing and answers from an absent key. A group lives from its first
//! [`GroupManager::link`] until [`GroupManager::forget`] drops it once
//! every member has settled; the scheduler does that at the end of each
//! run, which keeps the tracked set bounded by the in-flight runs.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use youtopia_lock::{TxId, VictimPolicy};

/// Union-find over engine transaction ids, tracking entanglement groups
/// formed during a run.
///
/// `is_grouped` and `group_id` are O(1), `members` O(group size). `link`
/// keeps the largest group it touches and relabels the others' members
/// into it, so an id is relabelled O(log n) times over its group's life.
#[derive(Debug, Default)]
pub struct GroupManager {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Linked transaction → its group's root. Never-linked ids are absent.
    root: HashMap<u64, u64>,
    /// Root → the group it names.
    groups: HashMap<u64, Group>,
    next_group: u64,
}

#[derive(Debug)]
struct Group {
    members: Vec<u64>,
    /// Persistent group id for WAL records.
    id: u64,
}

impl Inner {
    fn group_of(&self, tx: u64) -> Option<&Group> {
        self.root.get(&tx).map(|r| &self.groups[r])
    }
}

impl GroupManager {
    pub fn new() -> GroupManager {
        GroupManager::default()
    }

    /// Record that `txs` (non-empty) entangled together (one entanglement
    /// operation). Returns the stable group id for WAL logging: when `txs`
    /// touch existing groups, the merged group keeps the largest one's id,
    /// so re-linking members of one group returns that group's id.
    pub fn link(&self, txs: &[u64]) -> u64 {
        let mut guard = self.inner.lock();
        let g = &mut *guard;
        let survivor = txs
            .iter()
            .filter_map(|tx| g.root.get(tx).copied())
            .max_by_key(|r| g.groups[r].members.len());
        let root = survivor.unwrap_or_else(|| {
            g.next_group += 1;
            let group = Group {
                members: Vec::with_capacity(txs.len()),
                id: g.next_group,
            };
            g.groups.insert(txs[0], group);
            txs[0]
        });
        for &tx in txs {
            match g.root.get(&tx).copied() {
                Some(r) if r == root => {}
                Some(r) => {
                    let absorbed = g.groups.remove(&r).expect("every root owns a group");
                    for &m in &absorbed.members {
                        g.root.insert(m, root);
                    }
                    let group = g.groups.get_mut(&root).expect("root owns a group");
                    group.members.extend(absorbed.members);
                }
                None => {
                    g.root.insert(tx, root);
                    let group = g.groups.get_mut(&root).expect("root owns a group");
                    group.members.push(tx);
                }
            }
        }
        g.groups[&root].id
    }

    /// Every transaction in the same group as `tx` (including itself),
    /// or just `{tx}` if it never entangled.
    pub fn members(&self, tx: u64) -> HashSet<u64> {
        match self.inner.lock().group_of(tx) {
            Some(group) => group.members.iter().copied().collect(),
            None => HashSet::from([tx]),
        }
    }

    /// Did `tx` entangle with anyone else?
    pub fn is_grouped(&self, tx: u64) -> bool {
        self.inner
            .lock()
            .group_of(tx)
            .is_some_and(|group| group.members.len() > 1)
    }

    /// The WAL group id of `tx`'s group, or `None` if `tx` is not linked.
    pub fn group_id(&self, tx: u64) -> Option<u64> {
        self.inner.lock().group_of(tx).map(|group| group.id)
    }

    /// Drop the whole group of each of `txs` — every member, not only the
    /// ids named. Call it once every member has committed, aborted or
    /// been retried under a new id; a later lookup of a dropped id answers
    /// as if it never entangled.
    pub fn forget(&self, txs: &[u64]) {
        let mut g = self.inner.lock();
        for tx in txs {
            let Some(r) = g.root.get(tx).copied() else {
                continue;
            };
            if let Some(group) = g.groups.remove(&r) {
                for m in group.members {
                    g.root.remove(&m);
                }
            }
        }
    }

    /// Forget every group (crash recovery: no transaction survives).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.root.clear();
        g.groups.clear();
    }

    /// How many transaction ids are tracked.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().root.len()
    }
}

/// The engine's deadlock victim policy, backed by its entanglement
/// groups: a candidate's **abort unit** is its whole group (the paper's
/// commit-together requirement is also an abort-together requirement),
/// and a unit is **immune** while any member sits inside the commit
/// pipeline (the engine's `preparing` set) — a group with a prepared
/// partner must not be half-aborted by victim conviction, so the
/// detector skips it and, if every cycle member is immune, leaves the
/// cycle to the timeout backstop.
pub struct GroupVictimPolicy {
    groups: Arc<GroupManager>,
    preparing: Arc<Mutex<HashSet<u64>>>,
}

impl GroupVictimPolicy {
    pub fn new(
        groups: Arc<GroupManager>,
        preparing: Arc<Mutex<HashSet<u64>>>,
    ) -> GroupVictimPolicy {
        GroupVictimPolicy { groups, preparing }
    }
}

impl VictimPolicy for GroupVictimPolicy {
    fn immune(&self, tx: TxId) -> bool {
        // Snapshot the group first, so the `preparing` lock is never held
        // across the group manager's.
        let members = self.groups.members(tx.0);
        let prep = self.preparing.lock();
        members.iter().any(|m| prep.contains(m))
    }

    fn abort_unit(&self, tx: TxId) -> Vec<TxId> {
        let mut unit: Vec<u64> = self.groups.members(tx.0).into_iter().collect();
        unit.sort_unstable();
        unit.into_iter().map(TxId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn link_and_members() {
        let gm = GroupManager::new();
        gm.link(&[1, 2]);
        assert_eq!(gm.members(1), HashSet::from([1, 2]));
        assert_eq!(gm.members(2), HashSet::from([1, 2]));
        assert_eq!(gm.members(3), HashSet::from([3]));
        assert!(gm.is_grouped(1));
        assert!(!gm.is_grouped(3));
    }

    #[test]
    fn transitive_groups_merge() {
        // The paper: groups chain through shared members.
        let gm = GroupManager::new();
        let id1 = gm.link(&[1, 2]);
        let id2 = gm.link(&[2, 3]);
        assert_eq!(gm.members(1), HashSet::from([1, 2, 3]));
        // The merged group keeps a single stable id.
        assert_eq!(gm.group_id(1), gm.group_id(3));
        let _ = (id1, id2);
    }

    #[test]
    fn multiway_link() {
        let gm = GroupManager::new();
        gm.link(&[5, 6, 7]);
        assert_eq!(gm.members(6).len(), 3);
    }

    #[test]
    fn group_ids_stable_per_group() {
        let gm = GroupManager::new();
        let a = gm.link(&[1, 2]);
        let b = gm.link(&[1, 2]);
        assert_eq!(a, b, "re-linking the same group keeps its id");
        let c = gm.link(&[8, 9]);
        assert_ne!(a, c);
    }

    #[test]
    fn clear_forgets() {
        let gm = GroupManager::new();
        gm.link(&[1, 2]);
        gm.clear();
        assert!(!gm.is_grouped(1));
        assert_eq!(gm.len(), 0);
    }

    #[test]
    fn forget_drops_whole_groups() {
        let gm = GroupManager::new();
        gm.link(&[1, 2]);
        gm.link(&[2, 3]);
        gm.link(&[7, 8]);
        gm.forget(&[3]);
        assert_eq!(gm.members(1), HashSet::from([1]));
        assert_eq!(gm.group_id(2), None);
        assert!(gm.is_grouped(7));
        assert_eq!(gm.len(), 2);
    }

    #[test]
    fn lookups_never_insert() {
        let gm = GroupManager::new();
        for tx in 0..100_000 {
            assert!(!gm.is_grouped(tx));
            assert_eq!(gm.members(tx).len(), 1);
            assert_eq!(gm.group_id(tx), None);
        }
        assert_eq!(gm.len(), 0);
    }

    #[test]
    fn victim_policy_units_and_immunity() {
        let gm = Arc::new(GroupManager::new());
        let preparing: Arc<Mutex<HashSet<u64>>> = Arc::default();
        let policy = GroupVictimPolicy::new(gm.clone(), preparing.clone());
        gm.link(&[4, 5]);
        assert_eq!(policy.abort_unit(TxId(4)), vec![TxId(4), TxId(5)]);
        assert_eq!(policy.abort_unit(TxId(9)), vec![TxId(9)]);
        assert!(!policy.immune(TxId(4)));
        // A partner enters the commit pipeline: the whole group is
        // immune, strangers are not.
        preparing.lock().insert(5);
        assert!(policy.immune(TxId(4)));
        assert!(policy.immune(TxId(5)));
        assert!(!policy.immune(TxId(9)));
        preparing.lock().remove(&5);
        assert!(!policy.immune(TxId(4)));
    }

    /// One step of a model-check sequence over a small id space, so links
    /// chain and groups merge often. Every id is looked up after every
    /// step.
    #[derive(Debug, Clone)]
    enum Op {
        Link(Vec<u64>),
        Forget(Vec<u64>),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            prop::collection::vec(0u64..24, 1..4).prop_map(Op::Link),
            prop::collection::vec(0u64..24, 1..3).prop_map(Op::Forget),
        ]
    }

    /// The reference: the live link operations, with groups recomputed by
    /// breadth-first search on every question.
    #[derive(Default)]
    struct Naive {
        links: Vec<Vec<u64>>,
    }

    impl Naive {
        fn component(&self, tx: u64) -> HashSet<u64> {
            let mut seen = HashSet::from([tx]);
            let mut frontier = vec![tx];
            while let Some(x) = frontier.pop() {
                for link in self.links.iter().filter(|l| l.contains(&x)) {
                    for &y in link {
                        if seen.insert(y) {
                            frontier.push(y);
                        }
                    }
                }
            }
            seen
        }

        fn forget(&mut self, txs: &[u64]) {
            for &tx in txs {
                let gone = self.component(tx);
                self.links.retain(|l| !l.iter().any(|x| gone.contains(x)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn matches_a_naive_reference(ops in prop::collection::vec(op(), 1..40)) {
            let gm = GroupManager::new();
            let mut naive = Naive::default();
            for op in &ops {
                match op {
                    Op::Link(txs) => {
                        let before: Vec<u64> = txs.iter().filter_map(|&t| gm.group_id(t)).collect();
                        let tracked = naive.links.iter().any(|l| l.contains(&txs[0]));
                        let group = naive.component(txs[0]);
                        let id = gm.link(txs);
                        naive.links.push(txs.clone());
                        if tracked && txs.iter().all(|t| group.contains(t)) {
                            prop_assert_eq!(before[0], id, "re-link of {:?}", txs);
                        }
                        if !before.is_empty() {
                            prop_assert!(before.contains(&id), "merge of {:?} minted {}", txs, id);
                        }
                    }
                    Op::Forget(txs) => {
                        gm.forget(txs);
                        naive.forget(txs);
                    }
                }
                let ids: Vec<Option<u64>> = (0u64..24).map(|t| gm.group_id(t)).collect();
                for a in 0u64..24 {
                    let group = naive.component(a);
                    prop_assert_eq!(gm.members(a), group.clone(), "members of {}", a);
                    prop_assert_eq!(gm.is_grouped(a), group.len() > 1, "is_grouped {}", a);
                    let ga = ids[a as usize];
                    for b in 0u64..24 {
                        let gb = ids[b as usize];
                        if ga.is_some() || gb.is_some() {
                            prop_assert_eq!(
                                ga == gb,
                                group.contains(&b),
                                "group ids of {} and {}: {:?} {:?}", a, b, ga, gb
                            );
                        }
                    }
                }
                // Only linked ids are tracked: the lookups above added none.
                let linked: HashSet<&u64> = naive.links.iter().flatten().collect();
                prop_assert_eq!(gm.len(), linked.len());
            }
        }
    }
}
