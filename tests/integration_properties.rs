//! Property-based tests on cross-crate invariants (proptest).

use proptest::prelude::*;

use recmg_repro::cache::{
    belady, optgen, simulate, BufferAccess, CachePolicy, FullyAssocLru, GpuBuffer, SetAssocLru,
    Srrip,
};
use recmg_repro::core::{FrequencyRankCodec, GlobalIdCodec, IndexCodec};
use recmg_repro::dlrm::TimingConfig;
use recmg_repro::tensor::{chamfer_backward, chamfer_forward};
use recmg_repro::trace::{reuse_distances, ReuseDistance, RowId, TableId, VectorKey};

fn key_strategy() -> impl Strategy<Value = VectorKey> {
    (0u32..8, 0u64..64).prop_map(|(t, r)| VectorKey::new(TableId(t), RowId(r)))
}

fn trace_strategy(max_len: usize) -> impl Strategy<Value = Vec<VectorKey>> {
    prop::collection::vec(key_strategy(), 1..max_len)
}

/// The naive reference `GpuBuffer` is checked against: one row per
/// resident `(key, stamp, seq, prefetched)`, where `seq` is the placement
/// order (a `set_priority` counts as a new placement).
struct ModelBuffer {
    capacity: usize,
    decay: u64,
    populates: u64,
    seq: u64,
    pinned: Vec<u32>,
    rows: Vec<(VectorKey, u64, u64, bool)>,
}

impl ModelBuffer {
    fn position(&self, key: VectorKey) -> Option<usize> {
        self.rows.iter().position(|r| r.0 == key)
    }

    fn place(&mut self, key: VectorKey, priority: u64, prefetched: bool) {
        self.seq += 1;
        let row = (key, self.decay + priority, self.seq, prefetched);
        self.rows.push(row);
    }

    fn set_priority(&mut self, key: VectorKey, priority: u64) -> bool {
        let found = self.position(key).map(|at| self.rows.remove(at));
        found.is_some_and(|row| {
            self.place(key, priority, row.3);
            true
        })
    }

    fn lookup(&mut self, key: VectorKey) -> BufferAccess {
        let Some(at) = self.position(key) else {
            return BufferAccess::Miss;
        };
        if std::mem::take(&mut self.rows[at].3) {
            return BufferAccess::PrefetchHit;
        }
        BufferAccess::CacheHit
    }

    /// Minimum `(stamp, seq)` over unpinned rows; the raw minimum when
    /// every row is pinned.
    fn evict_min(&mut self) -> Option<VectorKey> {
        let order = |&i: &usize| (self.rows[i].1, self.rows[i].2);
        let pinned = |&i: &usize| self.pinned.contains(&self.rows[i].0.table().0);
        let all = 0..self.rows.len();
        let unpinned = all.clone().filter(|i| !pinned(i)).min_by_key(order);
        let at = unpinned.or(all.min_by_key(order))?;
        Some(self.rows.remove(at).0)
    }

    fn populate(&mut self) -> Option<VectorKey> {
        self.populates += 1;
        let period = (self.capacity as u64 / 8).max(1);
        self.decay += u64::from(self.populates.is_multiple_of(period));
        self.evict_min()
    }

    fn hot_first(&self) -> Vec<(VectorKey, u64, bool)> {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| std::cmp::Reverse((r.1, r.2)));
        let decayed = |r: (VectorKey, u64, u64, bool)| (r.0, r.1.saturating_sub(self.decay), r.3);
        rows.into_iter().map(decayed).collect()
    }
}

proptest! {
    // The differential oracle for the buffer metadata: every public
    // operation in lockstep with the model above, everything observable
    // compared after each one.
    #[test]
    fn buffer_model(
        capacity in 1usize..24,
        ops in prop::collection::vec((0u8..11, 0u32..4, 0u64..12, 0u64..8), 1..250),
    ) {
        let mut buf = GpuBuffer::new(capacity);
        let mut model = ModelBuffer {
            capacity,
            decay: 0,
            populates: 0,
            seq: 0,
            pinned: Vec::new(),
            rows: Vec::new(),
        };
        for (op, table, row, arg) in ops {
            let key = VectorKey::new(TableId(table), RowId(row));
            let resident = model.position(key).is_some();
            prop_assert_eq!(buf.contains(key), resident);
            let full = model.rows.len() == model.capacity;
            prop_assert_eq!(buf.is_full(), full);
            match op {
                // A demand fill: Algorithm 2 makes room, then the insert.
                0..=2 if !resident => {
                    if full {
                        prop_assert_eq!(buf.populate(), model.populate());
                    }
                    buf.insert(key, arg, false);
                    model.place(key, arg, false);
                }
                // A speculative fill: room comes without a decay pass.
                3 | 4 => {
                    if full && !resident {
                        prop_assert_eq!(buf.evict_min(), model.evict_min());
                    }
                    buf.insert_prefetch(key, arg);
                    if !resident {
                        model.place(key, arg, true);
                    }
                }
                0..=2 | 5 => prop_assert_eq!(buf.lookup(key), model.lookup(key)),
                6 => prop_assert_eq!(
                    buf.set_priority(key, arg),
                    model.set_priority(key, arg)
                ),
                7 => prop_assert_eq!(buf.populate(), model.populate()),
                8 => prop_assert_eq!(buf.evict_min(), model.evict_min()),
                9 => {
                    let capacity = (row * 2 + arg % 2) as usize + 1;
                    buf.set_capacity(capacity);
                    while model.rows.len() > capacity {
                        model.evict_min();
                    }
                    model.capacity = capacity;
                }
                _ => {
                    model.pinned = (0..4).filter(|t| arg >> t & 1 == 1).collect();
                    buf.set_pinned_tables(&model.pinned);
                }
            }
            prop_assert_eq!(buf.len(), model.rows.len());
            prop_assert_eq!(buf.capacity(), model.capacity);
            let hot = model.hot_first();
            prop_assert_eq!(buf.min_priority(), hot.last().map(|r| r.1));
            prop_assert_eq!(
                buf.priority(key),
                hot.iter().find(|r| r.0 == key).map(|r| r.1)
            );
            prop_assert_eq!(buf.iter_hot_first().collect::<Vec<_>>(), hot);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optgen_hits_match_belady_on_random_traces(
        acc in trace_strategy(300),
        capacity in 1usize..64,
    ) {
        let a = optgen(&acc, capacity).stats.hits;
        let b = belady::belady_hit_stats(&acc, capacity).hits;
        prop_assert_eq!(a, b);
    }

    #[test]
    fn belady_dominates_lru_everywhere(
        acc in trace_strategy(300),
        capacity in 1usize..64,
    ) {
        let opt = belady::belady_hit_stats(&acc, capacity).hit_rate();
        let mut lru = FullyAssocLru::new(capacity);
        let lru_rate = simulate(&mut lru, &acc).hit_rate();
        prop_assert!(opt >= lru_rate - 1e-12);
    }

    #[test]
    fn policies_respect_capacity(
        acc in trace_strategy(400),
        capacity in 1usize..96,
    ) {
        let mut lru = SetAssocLru::new(capacity, 32);
        simulate(&mut lru, &acc);
        prop_assert!(lru.len() <= lru.capacity());
        let mut srrip = Srrip::new(capacity, 32);
        simulate(&mut srrip, &acc);
        prop_assert!(srrip.len() <= srrip.capacity());
    }

    #[test]
    fn reuse_distance_counts_are_consistent(acc in trace_strategy(200)) {
        let d = reuse_distances(&acc);
        prop_assert_eq!(d.len(), acc.len());
        // Cold count equals unique count.
        let unique: std::collections::HashSet<_> = acc.iter().collect();
        let cold = d.iter().filter(|x| matches!(x, ReuseDistance::Cold)).count();
        prop_assert_eq!(cold, unique.len());
        // Every finite distance is below the unique count.
        for x in &d {
            if let ReuseDistance::Finite(v) = x {
                prop_assert!((*v as usize) < unique.len());
            }
        }
    }

    #[test]
    fn gpu_buffer_never_overfills_and_populate_shrinks(
        acc in trace_strategy(200),
        capacity in 1usize..32,
        priority in 0u64..16,
    ) {
        let mut buf = GpuBuffer::new(capacity);
        for &k in &acc {
            if !buf.contains(k) {
                if buf.is_full() {
                    let before = buf.len();
                    prop_assert!(buf.populate().is_some());
                    prop_assert_eq!(buf.len(), before - 1);
                }
                buf.insert(k, priority, false);
            }
            prop_assert!(buf.len() <= capacity);
        }
    }

    #[test]
    fn codecs_roundtrip_their_vocabulary(acc in trace_strategy(200)) {
        let freq = FrequencyRankCodec::from_accesses(&acc);
        let gid = GlobalIdCodec::from_accesses(&acc);
        for &k in &acc {
            let c1 = freq.encode(k).expect("in vocab");
            prop_assert_eq!(freq.decode(c1), Some(k));
            let c2 = gid.encode(k).expect("in vocab");
            prop_assert_eq!(gid.decode(c2), Some(k));
            prop_assert!((0.0..=1.0).contains(&c1));
            prop_assert!((0.0..=1.0).contains(&c2));
        }
    }

    #[test]
    fn chamfer_is_nonnegative_symmetric_zero_and_grad_matches_fd(
        pred in prop::collection::vec(-5.0f32..5.0, 1..6),
        target in prop::collection::vec(-5.0f32..5.0, 1..8),
    ) {
        let loss = chamfer_forward(&pred, &target, 0.7);
        prop_assert!(loss >= 0.0);
        // Identical sets => zero loss.
        let self_loss = chamfer_forward(&pred, &pred, 0.7);
        prop_assert!(self_loss.abs() < 1e-6);
        // Gradient roughly matches central differences (away from the
        // non-differentiable ties, tolerate outliers via a loose bound).
        let grad = chamfer_backward(&pred, &target, 0.7, 1.0);
        let eps = 1e-3f32;
        let mut bad = 0;
        for i in 0..pred.len() {
            let mut p = pred.clone();
            p[i] += eps;
            let up = chamfer_forward(&p, &target, 0.7);
            p[i] -= 2.0 * eps;
            let dn = chamfer_forward(&p, &target, 0.7);
            let fd = (up - dn) / (2.0 * eps);
            if (grad[i] - fd).abs() > 0.15 {
                bad += 1;
            }
        }
        prop_assert!(bad <= pred.len() / 2, "{bad} of {} coords off", pred.len());
    }

    #[test]
    fn timing_model_is_monotone_in_misses(
        hits in 0u64..10_000,
        misses in 0u64..10_000,
    ) {
        let cfg = TimingConfig::default_scaled();
        let base = cfg.batch_breakdown(hits, misses).total_ms();
        let worse = cfg.batch_breakdown(hits, misses + 100).total_ms();
        prop_assert!(worse > base);
        prop_assert!(base > 0.0);
    }
}
