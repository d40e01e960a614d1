//! The software-managed GPU buffer emulator.
//!
//! This is the structure RecMG co-manages with its two models (paper §VI-B):
//! each resident embedding vector carries small priority metadata; the
//! caching model raises/lowers priorities of demand-fetched vectors
//! (Algorithm 1 lines 4–7), the prefetch model inserts vectors at a
//! protected priority (lines 9–14), and `gpu_buffer_populate`
//! (Algorithm 2) decays priorities and evicts the minimum.
//!
//! The buffer is a slab of at most `capacity` entries, found through one
//! `key → slot` map. An entry's index in the slab — its **slot** — is
//! also where the vector's row lives in the storage a caller keeps
//! beside the metadata (`recmg-core` addresses its tier backends by it),
//! so inserts and lookups hand the slot back. Free slots are chained
//! through the slab, most recently vacated first: a victim's slot is the
//! next insert's slot. Entries of one stamp form a FIFO threaded through
//! the slab (`prev`/`next`) and `by_stamp` keeps only each live stamp's
//! head and tail, so unlinking is O(1) and the victim is the head of the
//! first stamp; oldest placement first means vectors the caching model
//! demoted earlier leave before freshly prefetched ones at the same
//! priority.
//!
//! Algorithm 2 decrements every scanned entry's priority by one per
//! eviction *pass* over the trunk. We implement the decay *lazily*: the
//! buffer keeps a global `decay` counter, stores each entry's priority as
//! an absolute stamp `decay_at_set + priority`, and orders entries by
//! stamp; the victim is always the minimum-stamp entry, exactly the one
//! the paper's linear scan would select (subtracting the same decay from
//! every entry preserves order, and saturation at zero only merges
//! already-minimal entries).
//!
//! One decay unit is charged per *pass*, i.e. per `capacity / 8`
//! evictions (a full scan of the trunk serves many insertions), not per
//! individual eviction. Charging a decay per eviction would cap the
//! protection horizon of a priority-`p` entry at `p / miss_rate` accesses
//! — far below what an LRU of the same capacity protects — which both
//! contradicts the paper's measured wins over LRU and would make
//! `eviction_speed` meaningless at production miss volumes (100K+
//! evictions per batch against 3-bit priorities). Tiny buffers
//! (`capacity < 16`) keep per-eviction decay, preserving the exact
//! textbook behaviour in unit tests.

use std::collections::{BTreeMap, HashMap};

use recmg_trace::VectorKey;

/// Outcome of a demand lookup in the GPU buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferAccess {
    /// Resident because of a previous demand access (caching-policy hit).
    CacheHit,
    /// Resident because the prefetcher inserted it and this is the first
    /// demand touch (prefetch hit).
    PrefetchHit,
    /// Not resident: an on-demand fetch from host memory is required.
    Miss,
}

/// "No slot": the end of a stamp's FIFO or of the free chain.
const NIL: usize = usize::MAX;

/// One slab record; a free slot uses only `next` (the free chain).
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: VectorKey,
    stamp: u64,
    prefetched: bool,
    prev: usize,
    next: usize,
}

/// Capacity-bounded buffer of embedding vectors with priority metadata.
///
/// # Examples
///
/// ```
/// use recmg_cache::{BufferAccess, GpuBuffer};
/// use recmg_trace::{RowId, TableId, VectorKey};
///
/// let k = |r| VectorKey::new(TableId(0), RowId(r));
/// let mut buf = GpuBuffer::new(2);
/// buf.insert(k(1), 4, false);
/// buf.insert_prefetch(k(2), 4);
/// assert_eq!(buf.lookup(k(1)), BufferAccess::CacheHit);
/// assert_eq!(buf.lookup(k(2)), BufferAccess::PrefetchHit);
/// assert_eq!(buf.lookup(k(2)), BufferAccess::CacheHit); // now demand-owned
/// assert_eq!(buf.lookup(k(9)), BufferAccess::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct GpuBuffer {
    capacity: usize,
    decay: u64,
    /// Evictions per decay unit (one "pass" of Algorithm 2).
    decay_period: u64,
    populate_calls: u64,
    /// The slab: grows by one record per insert while no slot is free.
    entries: Vec<Entry>,
    /// Head of the free chain (through `Entry::next`), or [`NIL`].
    free: usize,
    /// The one key-indexed structure: resident key → slot.
    slots: HashMap<VectorKey, usize>,
    /// stamp → `(head, tail)` of that stamp's FIFO; only live stamps.
    by_stamp: BTreeMap<u64, (usize, usize)>,
    /// Sorted table ids whose resident vectors are skipped by victim
    /// selection (RecShard-style pinned tables: a pinned table's whole
    /// footprint stays resident regardless of priority churn). Empty for
    /// every buffer that never installed pins, keeping the historical
    /// eviction path untouched.
    pinned_tables: Vec<u32>,
}

impl GpuBuffer {
    /// Creates a buffer holding up to `capacity` vectors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        GpuBuffer {
            capacity,
            decay: 0,
            decay_period: ((capacity / 8) as u64).max(1),
            populate_calls: 0,
            entries: Vec::new(),
            free: NIL,
            slots: HashMap::with_capacity(capacity),
            by_stamp: BTreeMap::new(),
            pinned_tables: Vec::new(),
        }
    }

    /// Declares which tables' resident vectors are exempt from victim
    /// selection (replacing any previous pin set; an empty slice clears
    /// it). Pinned vectors still insert, hit, and reprioritize normally —
    /// they are only never *chosen* for eviction, so a pinned table's
    /// footprint stays resident under arbitrary miss churn. If every
    /// resident vector is pinned, victim selection falls back to the raw
    /// minimum so capacity invariants (and `insert`'s free-slot
    /// precondition) always hold.
    pub fn set_pinned_tables(&mut self, tables: &[u32]) {
        self.pinned_tables = tables.to_vec();
        self.pinned_tables.sort_unstable();
        self.pinned_tables.dedup();
    }

    /// Sorted table ids currently pinned in this buffer.
    pub fn pinned_tables(&self) -> &[u32] {
        &self.pinned_tables
    }

    fn is_pinned(&self, key: VectorKey) -> bool {
        self.pinned_tables.binary_search(&key.table().0).is_ok()
    }

    /// Walks one stamp's FIFO from the live slot `from`, towards the tail
    /// (`forward`) or towards the head.
    fn walk(&self, from: usize, forward: bool) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(from), move |&s| {
            let e = &self.entries[s];
            Some(if forward { e.next } else { e.prev }).filter(|&n| n != NIL)
        })
    }

    /// Slots in eviction order: ascending stamp, oldest placement first
    /// within a stamp.
    fn coldest_first(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_stamp
            .values()
            .flat_map(move |&(head, _)| self.walk(head, true))
    }

    /// Evicts the minimum-stamp *non-pinned* resident — when everything
    /// resident is pinned, the raw minimum — **without** charging a decay
    /// pass: speculative (prefetch) fills and resizes use this directly,
    /// reusing the most recent demand pass's scan rather than triggering
    /// one. Returns the evicted key, or `None` if the buffer is empty.
    pub fn evict_min(&mut self) -> Option<VectorKey> {
        let raw_min = self.by_stamp.values().next()?.0;
        let slot = if self.pinned_tables.is_empty() {
            raw_min
        } else {
            self.coldest_first()
                .find(|&s| !self.is_pinned(self.entries[s].key))
                .unwrap_or(raw_min)
        };
        Some(self.vacate(slot))
    }

    /// Evictions per decay unit currently in effect.
    pub fn decay_period(&self) -> u64 {
        self.decay_period
    }

    /// Maximum residency.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current residency.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: VectorKey) -> bool {
        self.slots.contains_key(&key)
    }

    /// The slot of a resident key (always `< capacity()`), or `None` if
    /// absent. Unlike [`GpuBuffer::lookup_slot`] this is not a demand
    /// touch: a prefetched mark stays.
    pub fn slot_of(&self, key: VectorKey) -> Option<usize> {
        self.slots.get(&key).copied()
    }

    /// Effective priority of a resident key (saturating at zero), or `None`
    /// if absent.
    pub fn priority(&self, key: VectorKey) -> Option<u64> {
        self.slot_of(key)
            .map(|s| self.entries[s].stamp.saturating_sub(self.decay))
    }

    /// Effective priority of the current eviction victim (the minimum
    /// across residents), or `None` if empty.
    pub fn min_priority(&self) -> Option<u64> {
        self.by_stamp
            .keys()
            .next()
            .map(|&s| s.saturating_sub(self.decay))
    }

    /// Demand lookup: distinguishes cache hits from first-touch prefetch
    /// hits (clearing the prefetched mark) and misses. Does **not** insert.
    pub fn lookup(&mut self, key: VectorKey) -> BufferAccess {
        self.lookup_slot(key)
            .map_or(BufferAccess::Miss, |(_, hit)| hit)
    }

    /// [`GpuBuffer::lookup`] that also says where the vector lives:
    /// `(slot, CacheHit | PrefetchHit)` for a resident key, `None` for a
    /// miss.
    pub fn lookup_slot(&mut self, key: VectorKey) -> Option<(usize, BufferAccess)> {
        let slot = self.slot_of(key)?;
        let entry = &mut self.entries[slot];
        if entry.prefetched {
            entry.prefetched = false;
            return Some((slot, BufferAccess::PrefetchHit));
        }
        Some((slot, BufferAccess::CacheHit))
    }

    /// Appends `slot` to the back of its stamp's FIFO.
    fn link(&mut self, slot: usize) {
        let stamp = self.entries[slot].stamp;
        let ends = self.by_stamp.entry(stamp).or_insert((slot, NIL));
        let prev = std::mem::replace(&mut ends.1, slot);
        self.entries[slot].prev = prev;
        self.entries[slot].next = NIL;
        if prev != NIL {
            self.entries[prev].next = slot;
        }
    }

    /// Takes `slot` out of its stamp's FIFO; a stamp whose last entry
    /// left is dropped.
    fn unlink(&mut self, slot: usize) {
        let Entry {
            stamp, prev, next, ..
        } = self.entries[slot];
        if prev == NIL && next == NIL {
            self.by_stamp.remove(&stamp);
            return;
        }
        // An end of the FIFO moves the stamp's head or tail; the middle
        // touches only the neighbours.
        match prev {
            NIL => self.by_stamp.get_mut(&stamp).expect("stamp is live").0 = next,
            _ => self.entries[prev].next = next,
        }
        match next {
            NIL => self.by_stamp.get_mut(&stamp).expect("stamp is live").1 = prev,
            _ => self.entries[next].prev = prev,
        }
    }

    /// Ends the residency of the entry at `slot`, which becomes the head
    /// of the free chain. Returns the entry's key.
    fn vacate(&mut self, slot: usize) -> VectorKey {
        let key = self.entries[slot].key;
        self.slots.remove(&key);
        self.unlink(slot);
        self.entries[slot].next = self.free;
        self.free = slot;
        key
    }

    /// Sets the priority of a resident key, re-queueing it at the back of
    /// the new stamp's FIFO (also when the stamp did not change). Returns
    /// false if absent.
    pub fn set_priority(&mut self, key: VectorKey, priority: u64) -> bool {
        let Some(slot) = self.slot_of(key) else {
            return false;
        };
        self.unlink(slot);
        self.entries[slot].stamp = self.decay + priority;
        self.link(slot);
        true
    }

    /// Inserts a demand-fetched vector with the given priority and
    /// returns the slot it took — the most recently vacated one, if any.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (callers must run
    /// [`GpuBuffer::populate`] first, as Algorithm 1 does) or the key is
    /// already resident.
    pub fn insert(&mut self, key: VectorKey, priority: u64, prefetched: bool) -> usize {
        assert!(!self.is_full(), "insert into full buffer; call populate()");
        let entry = Entry {
            key,
            stamp: self.decay + priority,
            prefetched,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let slot = self.free;
            self.free = self.entries[slot].next;
            self.entries[slot] = entry;
            slot
        };
        let displaced = self.slots.insert(key, slot);
        assert!(displaced.is_none(), "key already resident");
        self.link(slot);
        slot
    }

    /// Inserts a prefetched vector (Algorithm 1 lines 13–14) and returns
    /// its slot. No-op — `None` — if the key is already resident.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full.
    pub fn insert_prefetch(&mut self, key: VectorKey, priority: u64) -> Option<usize> {
        (!self.contains(key)).then(|| self.insert(key, priority, true))
    }

    /// Algorithm 2 (`gpu_buffer_populate`): decays every resident entry's
    /// priority by one (lazily) and evicts the minimum-priority entry
    /// (skipping pinned tables — see [`GpuBuffer::set_pinned_tables`]).
    /// Returns the evicted key, or `None` if the buffer is empty.
    pub fn populate(&mut self) -> Option<VectorKey> {
        self.populate_calls += 1;
        if self.populate_calls.is_multiple_of(self.decay_period) {
            self.decay += 1;
        }
        self.evict_min()
    }

    /// Changes the buffer's capacity in place, evicting minimum-priority
    /// entries (without charging decay passes — this is a management
    /// operation, not a demand fill) until the residency fits. The decay
    /// period is re-derived from the new capacity exactly as
    /// [`GpuBuffer::new`] would, so a resized buffer decays like a fresh
    /// buffer of the same size. Used by tier rebalancing, which re-sizes
    /// per-shard buffer shares from observed working sets.
    ///
    /// A shrink below the slab's high-water mark **renumbers** the
    /// survivors into `0..len()` so every slot stays below the capacity;
    /// storage addressed by slot must be rebuilt from
    /// [`GpuBuffer::slots`] afterwards. Growing moves nothing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "capacity must be positive");
        while self.slots.len() > capacity {
            self.evict_min();
        }
        if self.entries.len() > capacity {
            // Re-placing the survivors in eviction order rebuilds every
            // stamp's FIFO as it was.
            let survivors: Vec<Entry> = self.coldest_first().map(|s| self.entries[s]).collect();
            self.by_stamp.clear();
            for (slot, &entry) in survivors.iter().enumerate() {
                self.slots.insert(entry.key, slot);
                self.entries[slot] = entry;
                self.link(slot);
            }
            self.entries.truncate(survivors.len());
            self.free = NIL;
        }
        self.capacity = capacity;
        self.decay_period = ((capacity / 8) as u64).max(1);
    }

    /// Removes a specific key (used by tests and ablations). Returns true
    /// if it was resident.
    pub fn evict(&mut self, key: VectorKey) -> bool {
        self.slot_of(key).map(|slot| self.vacate(slot)).is_some()
    }

    /// Iterates over resident entries as `(key, effective_priority,
    /// prefetched)`, hottest (highest-stamp) first; within a stamp,
    /// newest placement first — the exact reverse of eviction order. Its
    /// user is the reference-model property test (`buffer_model` in
    /// `tests/integration_properties.rs`), which compares the whole
    /// listing, priorities and `prefetched` flags included, against its
    /// model after every operation.
    pub fn iter_hot_first(&self) -> impl Iterator<Item = (VectorKey, u64, bool)> + '_ {
        self.by_stamp
            .values()
            .rev()
            .flat_map(move |&(_, tail)| self.walk(tail, false))
            .map(move |s| {
                let e = &self.entries[s];
                (e.key, e.stamp.saturating_sub(self.decay), e.prefetched)
            })
    }

    /// Iterates over resident keys (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = VectorKey> + '_ {
        self.slots.keys().copied()
    }

    /// Iterates over residents as `(slot, key)` (arbitrary order): what
    /// slot-addressed storage is rebuilt from.
    pub fn slots(&self) -> impl Iterator<Item = (usize, VectorKey)> + '_ {
        self.slots.iter().map(|(&key, &slot)| (slot, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmg_trace::{RowId, TableId};

    fn key(r: u64) -> VectorKey {
        VectorKey::new(TableId(0), RowId(r))
    }

    #[test]
    fn lookup_classification() {
        let mut b = GpuBuffer::new(4);
        b.insert(key(1), 4, false);
        b.insert_prefetch(key(2), 4);
        assert_eq!(b.lookup(key(1)), BufferAccess::CacheHit);
        assert_eq!(b.lookup(key(2)), BufferAccess::PrefetchHit);
        assert_eq!(b.lookup(key(2)), BufferAccess::CacheHit);
        assert_eq!(b.lookup(key(3)), BufferAccess::Miss);
    }

    #[test]
    fn populate_evicts_min_priority() {
        let mut b = GpuBuffer::new(4);
        b.insert(key(1), 5, false);
        b.insert(key(2), 1, false);
        b.insert(key(3), 9, false);
        assert_eq!(b.populate(), Some(key(2)));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn decay_is_equivalent_to_decrement_all() {
        // After two populate calls, an entry inserted earlier with priority
        // p has effective priority p - 2 (saturated), so a newly inserted
        // priority-1 entry can outrank an old priority-2 entry.
        let mut b = GpuBuffer::new(8);
        b.insert(key(1), 2, false);
        b.insert(key(2), 9, false);
        b.insert(key(3), 9, false);
        assert_eq!(b.populate(), Some(key(1))); // min was key(1) @2
        b.insert(key(4), 1, false); // effective 1 vs key(2,3) effective 8
        assert_eq!(b.priority(key(4)), Some(1));
        assert_eq!(b.priority(key(2)), Some(8));
        assert_eq!(b.populate(), Some(key(4)));
    }

    #[test]
    fn priority_saturates_at_zero() {
        let mut b = GpuBuffer::new(4);
        b.insert(key(1), 1, false);
        b.insert(key(2), 50, false);
        b.populate(); // evicts key(1), decay = 1
        b.populate(); // evicts key(2)? no wait — only key(2) left, evicts it
        assert!(b.is_empty());
        b.insert(key(3), 0, false);
        assert_eq!(b.priority(key(3)), Some(0));
    }

    #[test]
    fn set_priority_moves_entry() {
        let mut b = GpuBuffer::new(4);
        b.insert(key(1), 1, false);
        b.insert(key(2), 5, false);
        assert!(b.set_priority(key(1), 10));
        assert_eq!(b.populate(), Some(key(2)));
        assert!(!b.set_priority(key(9), 1));
    }

    #[test]
    #[should_panic(expected = "full buffer")]
    fn insert_into_full_panics() {
        let mut b = GpuBuffer::new(1);
        b.insert(key(1), 1, false);
        b.insert(key(2), 1, false);
    }

    #[test]
    fn insert_prefetch_idempotent() {
        let mut b = GpuBuffer::new(2);
        b.insert_prefetch(key(1), 4);
        b.insert_prefetch(key(1), 4);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn evict_specific_key() {
        let mut b = GpuBuffer::new(2);
        b.insert(key(1), 3, false);
        assert!(b.evict(key(1)));
        assert!(!b.evict(key(1)));
        assert!(b.is_empty());
        // stamp structure stays consistent afterwards
        b.insert(key(2), 1, false);
        assert_eq!(b.populate(), Some(key(2)));
    }

    #[test]
    fn set_capacity_shrinks_by_evicting_min() {
        let mut b = GpuBuffer::new(4);
        b.insert(key(1), 9, false);
        b.insert(key(2), 1, false);
        b.insert(key(3), 5, false);
        b.set_capacity(2);
        assert_eq!(b.capacity(), 2);
        assert_eq!(b.len(), 2);
        assert!(!b.contains(key(2)), "minimum-priority entry leaves first");
        assert!(b.contains(key(1)));
        // Growing never evicts.
        b.set_capacity(8);
        assert_eq!(b.capacity(), 8);
        assert_eq!(b.len(), 2);
        assert!(!b.is_full());
    }

    #[test]
    fn set_capacity_rederives_the_decay_period() {
        let mut b = GpuBuffer::new(64);
        assert_eq!(b.decay_period(), 8);
        b.set_capacity(256);
        assert_eq!(b.decay_period(), 32);
        b.set_capacity(4);
        assert_eq!(b.decay_period(), 1);
    }

    #[test]
    fn a_victims_slot_is_the_next_inserts_slot() {
        let mut b = GpuBuffer::new(3);
        assert_eq!(b.insert(key(1), 5, false), 0);
        assert_eq!(b.insert(key(2), 1, false), 1);
        assert_eq!(b.insert_prefetch(key(3), 9), Some(2));
        assert_eq!(b.insert_prefetch(key(3), 9), None);
        assert_eq!(b.populate(), Some(key(2)));
        assert_eq!(b.slot_of(key(2)), None);
        assert_eq!(b.insert(key(4), 7, false), 1);
        assert_eq!(b.lookup_slot(key(3)), Some((2, BufferAccess::PrefetchHit)));
        assert_eq!(b.lookup_slot(key(3)), Some((2, BufferAccess::CacheHit)));
        assert_eq!(b.lookup_slot(key(2)), None);
        let mut pairs: Vec<(usize, u64)> = b.slots().map(|(s, k)| (s, k.row().0)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 4), (2, 3)]);
    }

    #[test]
    fn shrinking_renumbers_survivors_below_the_new_capacity() {
        let mut b = GpuBuffer::new(4);
        for r in 1..=4 {
            b.insert(key(r), r, false);
        }
        b.set_capacity(2);
        let mut pairs: Vec<(usize, u64)> = b.slots().map(|(s, k)| (s, k.row().0)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 3), (1, 4)]);
        // Order and free chain survive the renumbering.
        assert_eq!(b.evict_min(), Some(key(3)));
        assert_eq!(b.insert(key(5), 9, false), 0);
        assert_eq!(b.populate(), Some(key(4)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn set_capacity_zero_panics() {
        let mut b = GpuBuffer::new(2);
        b.set_capacity(0);
    }

    #[test]
    fn iter_hot_first_orders_by_effective_priority() {
        let mut b = GpuBuffer::new(4);
        b.insert(key(1), 2, false);
        b.insert(key(2), 9, false);
        b.insert_prefetch(key(3), 5);
        let got: Vec<(u64, u64, bool)> = b
            .iter_hot_first()
            .map(|(k, p, f)| (k.row().0, p, f))
            .collect();
        assert_eq!(got, vec![(2, 9, false), (3, 5, true), (1, 2, false)]);
        // Decay lowers every reported priority identically.
        b.insert(key(4), 0, false);
        b.populate(); // evicts key(4) @0, decay = 1
        let got: Vec<u64> = b.iter_hot_first().map(|(_, p, _)| p).collect();
        assert_eq!(got, vec![8, 4, 1]);
    }

    #[test]
    fn pinned_tables_survive_eviction_churn() {
        let tkey = |t: u32, r: u64| VectorKey::new(TableId(t), RowId(r));
        let mut b = GpuBuffer::new(4);
        b.set_pinned_tables(&[7]);
        b.insert(tkey(7, 1), 0, false);
        b.insert(tkey(7, 2), 0, false);
        b.insert(tkey(0, 1), 9, false);
        b.insert(tkey(0, 2), 9, false);
        // The pinned entries sit at the minimum stamp, yet victim
        // selection walks past them to table 0.
        assert_eq!(b.populate(), Some(tkey(0, 1)));
        assert_eq!(b.populate(), Some(tkey(0, 2)));
        assert!(b.contains(tkey(7, 1)) && b.contains(tkey(7, 2)));
        // All-pinned fallback: the raw minimum leaves so capacity
        // invariants (and insert's free-slot precondition) still hold.
        assert_eq!(b.populate(), Some(tkey(7, 1)));
        // Clearing the pin set restores the historical path.
        b.set_pinned_tables(&[]);
        b.insert(tkey(7, 3), 50, false);
        assert_eq!(b.evict_min(), Some(tkey(7, 2)));
    }

    #[test]
    fn set_capacity_shrink_prefers_unpinned_victims() {
        let tkey = |t: u32, r: u64| VectorKey::new(TableId(t), RowId(r));
        let mut b = GpuBuffer::new(4);
        b.set_pinned_tables(&[3]);
        b.insert(tkey(3, 1), 0, false);
        b.insert(tkey(0, 1), 9, false);
        b.insert(tkey(0, 2), 9, false);
        b.set_capacity(1);
        assert!(b.contains(tkey(3, 1)), "shrink must not displace a pin");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn keys_iteration() {
        let mut b = GpuBuffer::new(3);
        b.insert(key(1), 1, false);
        b.insert(key(2), 2, false);
        let mut ks: Vec<u64> = b.keys().map(|k| k.row().0).collect();
        ks.sort_unstable();
        assert_eq!(ks, vec![1, 2]);
    }
}
