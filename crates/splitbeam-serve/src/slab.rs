//! Generational slab session store with an intrusive idle-LRU list.
//!
//! The serving core used to keep sessions in an ordered map, which made
//! idle eviction a full `O(sessions)` scan every round and scattered
//! sessions across the heap. At fleet scale (100k+ concurrent sessions per
//! AP) both costs dominate the round close. This store replaces the map
//! with:
//!
//! * a **dense slot vector**: sessions live contiguously; freed slots go on
//!   a free list and are reused, and each reuse bumps a generation counter
//!   so stale [`SessionHandle`]s can never resolve to a new tenant;
//! * an **ordered id index** (`BTreeMap<StationId, u32>`): every
//!   deterministic-order path — batch id collection, fresh-station listing,
//!   the public `sessions()` iterator — walks [`SessionSlab::values`] in
//!   ascending station-id order, bit-identical to the old map iteration;
//! * an **intrusive idle-LRU list** threaded through the slots, ordered by
//!   each session's last-activity round. Serving a station moves it to the
//!   hot end ([`SessionSlab::touch`]); [`SessionSlab::evict_idle`] walks
//!   from the cold end and stops at the first survivor, so eviction costs
//!   `O(evicted)`, not `O(sessions)`.
//!
//! Order-independent per-session passes (health bookkeeping, pending-expiry,
//! min/count folds) use [`SessionSlab::values_unordered_mut`], which walks
//! slots densely for cache locality; every path whose iteration order can
//! reach an output uses the id-ordered view (pinned repo-wide by the
//! `serve-unordered-map` lint rule).

use crate::session::{StationId, StationSession};
use std::collections::BTreeMap;

/// Sentinel link value for "no slot".
const NIL: u32 = u32::MAX;

/// A generation-checked reference to a slot. Stays valid until the station
/// it names is removed; resolving it after the slot was reused returns
/// `None` instead of the new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionHandle {
    index: u32,
    generation: u32,
}

#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    /// LRU neighbours when occupied (`prev` = colder); free-list link via
    /// `next` when free.
    prev: u32,
    next: u32,
    session: Option<StationSession>,
}

/// Dense generational session store. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct SessionSlab {
    slots: Vec<Slot>,
    by_id: BTreeMap<StationId, u32>,
    free_head: u32,
    /// Coldest (least recently active) end of the LRU list.
    lru_head: u32,
    /// Hottest end of the LRU list.
    lru_tail: u32,
}

impl Default for SessionSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionSlab {
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            by_id: BTreeMap::new(),
            free_head: NIL,
            lru_head: NIL,
            lru_tail: NIL,
        }
    }

    /// A slab whose slot vector is pre-sized for `sessions` stations.
    pub fn with_capacity(sessions: usize) -> Self {
        let mut slab = Self::new();
        slab.slots.reserve(sessions);
        slab
    }

    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    pub fn contains(&self, id: StationId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// The round the LRU list orders by: the station's last served round,
    /// or its join round while it has never been served — exactly the
    /// quantity [`StationSession::idle_rounds`] measures from.
    fn activity_round(session: &StationSession) -> u64 {
        session
            .last_round()
            .unwrap_or_else(|| session.joined_round())
    }

    fn session_at(&self, index: u32) -> Option<&StationSession> {
        self.slots[index as usize].session.as_ref()
    }

    /// Inserts `session` under its own station id, placing it in the LRU
    /// list by its activity round. Returns `Err` with the session when the
    /// id is already present (the caller validates first, so this is a
    /// defensive contract rather than an expected path).
    // The fat Err is the point: the rejected session must ride back to the
    // caller for restore, and boxing a cold failure path buys nothing.
    #[allow(clippy::result_large_err)]
    pub fn insert(&mut self, session: StationSession) -> Result<SessionHandle, StationSession> {
        let id = session.id();
        if self.by_id.contains_key(&id) {
            return Err(session);
        }
        let index = if self.free_head != NIL {
            let index = self.free_head;
            self.free_head = self.slots[index as usize].next;
            self.slots[index as usize].session = Some(session);
            index
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                prev: NIL,
                next: NIL,
                session: Some(session),
            });
            index
        };
        self.by_id.insert(id, index);
        self.lru_insert_sorted(index);
        Ok(SessionHandle {
            index,
            generation: self.slots[index as usize].generation,
        })
    }

    /// Removes and returns the session for `id`, freeing its slot.
    pub fn remove(&mut self, id: StationId) -> Option<StationSession> {
        let index = self.by_id.remove(&id)?;
        self.lru_unlink(index);
        let slot = &mut self.slots[index as usize];
        let session = slot.session.take();
        slot.generation = slot.generation.wrapping_add(1);
        slot.prev = NIL;
        slot.next = self.free_head;
        self.free_head = index;
        session
    }

    pub fn get(&self, id: StationId) -> Option<&StationSession> {
        self.by_id.get(&id).and_then(|&i| self.session_at(i))
    }

    pub fn get_mut(&mut self, id: StationId) -> Option<&mut StationSession> {
        let index = *self.by_id.get(&id)?;
        self.slots[index as usize].session.as_mut()
    }

    /// The current handle for `id`.
    pub fn handle(&self, id: StationId) -> Option<SessionHandle> {
        let index = *self.by_id.get(&id)?;
        Some(SessionHandle {
            index,
            generation: self.slots[index as usize].generation,
        })
    }

    /// Resolves a handle, rejecting it once the slot has been reused.
    pub fn get_by_handle(&self, handle: SessionHandle) -> Option<&StationSession> {
        let slot = self.slots.get(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.session.as_ref()
    }

    /// Sessions in ascending station-id order — the deterministic view every
    /// order-sensitive path iterates.
    pub fn values(&self) -> impl Iterator<Item = &StationSession> {
        self.by_id.values().filter_map(move |&i| self.session_at(i))
    }

    /// `(slot, session)` pairs in ascending station-id order: the
    /// [`Self::values`] walk carrying each session's slot index, so a round
    /// close can reach the sessions it collected again through
    /// [`Self::at`], [`Self::at_mut`] and [`Self::touch_slot`] without an
    /// id lookup per row. A slot names its session until the next
    /// [`Self::insert`], [`Self::remove`] or [`Self::evict_idle`].
    pub(crate) fn values_with_slot(&self) -> impl Iterator<Item = (u32, &StationSession)> {
        self.by_id
            .values()
            .filter_map(move |&i| self.session_at(i).map(|s| (i, s)))
    }

    /// The session in `slot`.
    ///
    /// Panics when the slot is free — the same contract as indexing by id:
    /// callers only pass slots they just collected from this slab.
    pub(crate) fn at(&self, slot: u32) -> &StationSession {
        match self.session_at(slot) {
            Some(session) => session,
            None => panic!("session slot {slot} is free"),
        }
    }

    /// Mutable [`Self::at`].
    pub(crate) fn at_mut(&mut self, slot: u32) -> &mut StationSession {
        match self.slots[slot as usize].session.as_mut() {
            Some(session) => session,
            None => panic!("session slot {slot} is free"),
        }
    }

    /// [`Self::touch`] by slot: moves the session in `slot` to the hot end
    /// of the LRU list.
    pub(crate) fn touch_slot(&mut self, slot: u32) {
        if self.session_at(slot).is_some() {
            self.lru_unlink(slot);
            self.lru_push_tail(slot);
        }
    }

    /// `(id, session)` pairs in ascending station-id order.
    pub fn iter(&self) -> impl Iterator<Item = (StationId, &StationSession)> {
        self.by_id
            .iter()
            .filter_map(move |(&id, &i)| self.session_at(i).map(|s| (id, s)))
    }

    /// Mutable walk in dense slot order — **not** station-id order. Only for
    /// per-session passes whose effect is independent of visit order
    /// (commutative counter folds, min/count reductions); every path whose
    /// iteration order can reach an output must use [`Self::values`].
    pub fn values_unordered_mut(&mut self) -> impl Iterator<Item = &mut StationSession> {
        self.slots.iter_mut().filter_map(|s| s.session.as_mut())
    }

    /// Immutable dense walk; same order caveat as
    /// [`Self::values_unordered_mut`].
    pub fn values_unordered(&self) -> impl Iterator<Item = &StationSession> {
        self.slots.iter().filter_map(|s| s.session.as_ref())
    }

    /// Moves `id` to the hot end of the LRU list. Call after serving a
    /// station (its activity round just became the current round, which is
    /// maximal, so a plain tail append keeps the list sorted).
    pub fn touch(&mut self, id: StationId) {
        if let Some(&index) = self.by_id.get(&id) {
            self.lru_unlink(index);
            self.lru_push_tail(index);
        }
    }

    /// Evicts every session idle for more than `max_idle_rounds` as of
    /// `closed_round`, returning how many were evicted. The LRU list is
    /// sorted by activity round, so the evictable sessions form a prefix at
    /// the cold end and the walk stops at the first survivor: `O(evicted)`,
    /// independent of the session count.
    pub fn evict_idle(&mut self, closed_round: u64, max_idle_rounds: u64) -> usize {
        let mut evicted = 0;
        while self.lru_head != NIL {
            let index = self.lru_head;
            let Some(session) = self.session_at(index) else {
                break;
            };
            if session.idle_rounds(closed_round) <= max_idle_rounds {
                break;
            }
            let id = session.id();
            self.remove(id);
            evicted += 1;
        }
        evicted
    }

    fn lru_unlink(&mut self, index: u32) {
        let (prev, next) = {
            let slot = &self.slots[index as usize];
            (slot.prev, slot.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.lru_head == index {
            self.lru_head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.lru_tail == index {
            self.lru_tail = prev;
        }
        let slot = &mut self.slots[index as usize];
        slot.prev = NIL;
        slot.next = NIL;
    }

    fn lru_push_tail(&mut self, index: u32) {
        let tail = self.lru_tail;
        self.slots[index as usize].prev = tail;
        self.slots[index as usize].next = NIL;
        if tail != NIL {
            self.slots[tail as usize].next = index;
        } else {
            self.lru_head = index;
        }
        self.lru_tail = index;
    }

    /// Inserts `index` into the LRU list keeping it sorted by activity
    /// round. Fresh registrations join at the current round (maximal key) so
    /// the walk from the tail is `O(1)`; only an adopted roaming session
    /// with older activity walks further.
    fn lru_insert_sorted(&mut self, index: u32) {
        let key = match self.session_at(index) {
            Some(session) => Self::activity_round(session),
            None => return,
        };
        let mut after = self.lru_tail;
        while after != NIL {
            let after_key = match self.session_at(after) {
                Some(session) => Self::activity_round(session),
                None => break,
            };
            if after_key <= key {
                break;
            }
            after = self.slots[after as usize].prev;
        }
        if after == NIL {
            // Coldest: push at the head.
            let head = self.lru_head;
            self.slots[index as usize].prev = NIL;
            self.slots[index as usize].next = head;
            if head != NIL {
                self.slots[head as usize].prev = index;
            } else {
                self.lru_tail = index;
            }
            self.lru_head = index;
        } else if after == self.lru_tail {
            self.lru_push_tail(index);
        } else {
            let next = self.slots[after as usize].next;
            self.slots[index as usize].prev = after;
            self.slots[index as usize].next = next;
            self.slots[after as usize].next = index;
            self.slots[next as usize].prev = index;
        }
    }
}

impl std::ops::Index<&StationId> for SessionSlab {
    type Output = StationSession;

    /// Panics when `id` is not registered — the same contract map indexing
    /// had. Round-close paths only index ids they just collected from the
    /// slab itself.
    fn index(&self, id: &StationId) -> &StationSession {
        match self.get(*id) {
            Some(session) => session,
            None => panic!("station {id} is not registered in the session slab"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(id: StationId, joined_round: u64) -> StationSession {
        StationSession::new(id, 0, 4, joined_round)
    }

    fn ids(slab: &SessionSlab) -> Vec<StationId> {
        slab.values().map(|s| s.id()).collect()
    }

    #[test]
    fn insert_get_remove_and_duplicate_rejection() {
        let mut slab = SessionSlab::with_capacity(4);
        assert!(slab.is_empty());
        let h = slab.insert(session(7, 0)).unwrap();
        assert!(slab.insert(session(7, 1)).is_err(), "duplicate id");
        assert_eq!(slab.len(), 1);
        assert!(slab.contains(7));
        assert_eq!(slab.get(7).map(|s| s.id()), Some(7));
        assert_eq!(slab.get_by_handle(h).map(|s| s.id()), Some(7));
        assert_eq!(slab[&7].id(), 7);
        let removed = slab.remove(7).unwrap();
        assert_eq!(removed.id(), 7);
        assert_eq!(slab.remove(7).map(|s| s.id()), None);
        assert!(slab.get(7).is_none());
        // Generation check: the handle dies with the tenant even though the
        // slot is immediately reused.
        slab.insert(session(9, 0)).unwrap();
        assert!(slab.get_by_handle(h).is_none());
        assert_eq!(
            slab.handle(9)
                .and_then(|h| slab.get_by_handle(h))
                .map(|s| s.id()),
            Some(9)
        );
    }

    #[test]
    fn values_iterate_in_ascending_id_order_despite_slot_churn() {
        let mut slab = SessionSlab::new();
        for id in [42, 3, 17, 99, 8] {
            slab.insert(session(id, 0)).unwrap();
        }
        assert_eq!(ids(&slab), vec![3, 8, 17, 42, 99]);
        // Free slot 0 (id 42) and reuse it for a small id: id order holds.
        slab.remove(42);
        slab.insert(session(1, 0)).unwrap();
        assert_eq!(ids(&slab), vec![1, 3, 8, 17, 99]);
        assert_eq!(
            slab.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![1, 3, 8, 17, 99]
        );
        // The dense walk visits everyone exactly once, order unspecified.
        let mut dense: Vec<StationId> = slab.values_unordered().map(|s| s.id()).collect();
        dense.sort_unstable();
        assert_eq!(dense, vec![1, 3, 8, 17, 99]);
    }

    #[test]
    fn slot_accessors_follow_the_id_ordered_walk() {
        let mut slab = SessionSlab::new();
        for id in [42, 3, 17, 99, 8] {
            slab.insert(session(id, 0)).unwrap();
        }
        slab.remove(42);
        slab.insert(session(1, 0)).unwrap();
        let slots: Vec<(u32, StationId)> = slab
            .values_with_slot()
            .map(|(slot, s)| (slot, s.id()))
            .collect();
        assert_eq!(
            slots.iter().map(|&(_, id)| id).collect::<Vec<_>>(),
            ids(&slab)
        );
        for &(slot, id) in &slots {
            assert_eq!(slab.at(slot).id(), id);
            assert_eq!(slab.at_mut(slot).id(), id);
            assert_eq!(slab.handle(id).map(|h| h.index), Some(slot));
        }
        // Touching by slot orders the LRU exactly like touching by id.
        let mut by_id = slab.clone();
        for &(slot, id) in slots.iter().rev().step_by(2) {
            slab.at_mut(slot).store_feedback(&[0.0], 4);
            slab.touch_slot(slot);
            by_id.get_mut(id).unwrap().store_feedback(&[0.0], 4);
            by_id.touch(id);
        }
        assert_eq!(slab.evict_idle(6, 3), by_id.evict_idle(6, 3));
        assert_eq!(ids(&slab), ids(&by_id));
    }

    #[test]
    fn eviction_walks_only_the_cold_prefix() {
        let mut slab = SessionSlab::new();
        for id in 0..6u64 {
            slab.insert(session(id, 0)).unwrap();
        }
        // Serve 4 and 1 at round 5: they move to the hot end.
        for id in [4u64, 1] {
            slab.get_mut(id).unwrap().store_feedback(&[0.0], 5);
            slab.touch(id);
        }
        // As of round 8 with a 5-round budget, only the never-served four
        // (idle 8 > 5) go; 4 and 1 (idle 3) stay.
        assert_eq!(slab.evict_idle(8, 5), 4);
        assert_eq!(ids(&slab), vec![1, 4]);
        // Nothing left to evict; the walk stops at the first survivor.
        assert_eq!(slab.evict_idle(8, 5), 0);
        // Re-registration after eviction works and lands hot.
        slab.insert(session(0, 8)).unwrap();
        assert_eq!(slab.evict_idle(8, 5), 0);
        assert_eq!(ids(&slab), vec![0, 1, 4]);
    }

    #[test]
    fn sorted_insert_places_stale_adoptions_by_activity() {
        let mut slab = SessionSlab::new();
        let mut fresh = session(10, 6);
        fresh.store_feedback(&[0.0], 6);
        slab.insert(fresh).unwrap();
        // An adopted session whose last activity is far older must sort
        // colder than the resident, so eviction sees it first.
        let stale = session(20, 1);
        slab.insert(stale).unwrap();
        assert_eq!(slab.evict_idle(7, 3), 1, "stale adoptee evicts");
        assert_eq!(ids(&slab), vec![10]);
    }
}
