//! SIMD-probed open-addressing flow table for the keyed paths.
//!
//! BENCH_windows.json puts the LRFU caches at 3–6 MIPS while the core
//! q-MAX structures run at 237–428 MIPS: the per-packet keyed lookup
//! (`std::collections::HashMap` + SipHash) dominates exactly the paths
//! the paper's caching and priority-sampling applications live on. This
//! module replaces it with a swiss-table-style index tuned for those
//! paths:
//!
//! * **Cache-line-bucketed groups.** One control byte per slot, 16
//!   bytes per group (a quarter cache line), so one
//!   [`ProbeKernel::match_byte`] compare — `pcmpeqb`/`cmeq.16b` where
//!   available, a portable loop otherwise — filters 16 candidate slots
//!   at once. `QMAX_FORCE_SCALAR=1` pins the portable probe.
//! * **Fixed-seed multiplicative hashing.** [`FixedState`] is an
//!   FxHash-style 1-multiply hasher: deterministic across runs (replay
//!   oracles stay exact) and an order of magnitude cheaper than SipHash
//!   on 8-byte flow keys. Group index and 7-bit tag come from disjoint
//!   hash bits.
//! * **Tombstone-free deletion.** Removal backward-shifts eligible
//!   entries group-by-group to re-close the probe chain, so a table
//!   that sees heavy eviction churn (every cache miss evicts) never
//!   accumulates tombstones and never needs a cleanup rehash.
//! * **Incremental resize.** Growth swaps in a double-size live core
//!   and migrates a fixed span ([`MIGRATE_GROUPS_PER_STEP`] groups) of
//!   the old core per subsequent insert/remove, so the q-MAX worst-case
//!   per-update bounds survive: no operation ever pays an `O(n)`
//!   rehash.
//!
//! The [`KeyIndex`] trait + [`IndexFamily`] GAT let every keyed
//! consumer (`QMaxLrfu`, `DeamortizedLrfu`, `DedupQMax`,
//! `IndexedHeapQMax`, the keyed apps) stay generic over the index:
//! [`FlowIndex`] is the default, [`StdIndex`] keeps the HashMap-era
//! behaviour available as a baseline and as the oracle for the
//! differential battery in `tests/proptest_flow_table.rs`.
//!
//! # Control bytes and probing
//!
//! Each slot's control byte is either a 7-bit tag (`0x00..=0x7F`, the
//! low hash bits of the resident key), [`EMPTY`] (`0x80`), or
//! [`DRAINED`] (`0x81`). A probe for hash `h` starts at home group
//! `(h >> 7) & mask` and walks groups linearly: in each group it
//! matches the tag mask (candidate slots, verified by key compare) and
//! the `EMPTY` mask (any empty byte ⇒ the key cannot live further
//! along the chain ⇒ stop). `DRAINED` bytes match neither mask, so
//! probes flow *through* groups the resize migration has already
//! emptied without terminating early — that single property is what
//! lets migration drain whole groups without threading cursor checks
//! into the hot probe loop.
//!
//! # Deletion invariant
//!
//! The probe's early stop is sound because insertion always places a
//! key at the first empty slot on its chain, establishing: *for every
//! resident entry `e`, no group strictly between `home(e)` and
//! `group(e)` (in probe order) contains an `EMPTY` byte.* Deletion
//! must re-establish it: clearing a slot in group `d` is only safe
//! outright if `d` already contained another `EMPTY` (then no chain
//! passes through `d`). Otherwise the new hole is the chain's only
//! break, and the scan in `Core::backward_shift` walks groups past
//! `d` looking for an entry whose home makes the hole a legal
//! position (`dist(home, hole) < dist(home, current)`); moving it
//! relocates the hole forward, and the scan repeats until the hole
//! lands in a group that already had an `EMPTY` or every later group
//! has been ruled out.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

use qmax_select::{prefetch_read, ProbeKernel, GROUP_WIDTH};

/// Control byte for a never-used (or deleted-and-reclosed) slot.
/// Probes stop at the first group containing one.
pub const EMPTY: u8 = 0x80;

/// Control byte for a slot the incremental resize has migrated out of
/// the old core (or evicted from it mid-migration). Matches no tag and
/// is not `EMPTY`, so probes pass through without stopping; only the
/// old core ever contains it.
pub const DRAINED: u8 = 0x81;

/// Old-core groups migrated per insert/remove while a resize is in
/// flight. The live core doubles the old one, and growth triggers at
/// 7/8 load, so draining ≥1 group per mutation finishes migration long
/// before the live core can fill; 2 keeps the tail comfortably short
/// while staying O(1) per update.
pub const MIGRATE_GROUPS_PER_STEP: usize = 2;

const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// Keys processed per stage of the batched-probe software pipeline:
/// each stage hashes this many keys and issues a prefetch for every
/// home group *before* resolving any of the probes, so up to this many
/// cache-miss chains are in flight at once. 32 comfortably exceeds the
/// line-fill-buffer depth of current cores (10–16) without pushing the
/// oldest prefetched line out of L1 before its resolve runs.
pub const PROBE_PIPELINE: usize = 32;

// ---------------------------------------------------------------------------
// Fixed-seed multiplicative hasher
// ---------------------------------------------------------------------------

/// FxHash multiplier (the Firefox/rustc constant): one odd 64-bit
/// factor, so the map `x → x·K mod 2⁶⁴` is a bijection and its inverse
/// can be used to craft adversarial same-group keys in tests.
pub const FX_K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fixed-seed [`BuildHasher`] producing [`FxHasher`]s. Deterministic
/// across runs and processes by construction — required so replay
/// oracles and the differential battery stay exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = FxHasher;
    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: 0 }
    }
}

/// FxHash: `hash = (hash.rotate_left(5) ^ word) · K` per 8-byte word.
/// One multiply per word makes it ~10× cheaper than SipHash on the
/// 8-byte flow keys the measurement apps use.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }
    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.add(u64::from(x));
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }
    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.add(x as u64);
        self.add((x >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

// ---------------------------------------------------------------------------
// One open-addressing core (ctrl bytes + slots)
// ---------------------------------------------------------------------------

/// Split a hash into (home group, 7-bit tag) for a core with
/// `group_mask = groups - 1`. Disjoint bit ranges: the tag is the low
/// 7 bits, the group index the bits above them.
#[inline]
fn split_hash(h: u64, group_mask: usize) -> (usize, u8) {
    (((h >> 7) as usize) & group_mask, (h & 0x7F) as u8)
}

#[inline]
fn group_ctrl(ctrl: &[u8], g: usize) -> &[u8; GROUP_WIDTH] {
    ctrl[g * GROUP_WIDTH..(g + 1) * GROUP_WIDTH]
        .try_into()
        .expect("ctrl is a whole number of groups")
}

/// One flat open-addressing array: `groups * 16` control bytes plus
/// the matching slots. Two of these exist while a resize is migrating.
#[derive(Clone)]
struct Core<K, V> {
    ctrl: Vec<u8>,
    slots: Vec<Option<(K, V)>>,
    /// `groups - 1`; groups is always a power of two.
    group_mask: usize,
    len: usize,
}

impl<K, V> Core<K, V> {
    fn new(groups: usize) -> Self {
        debug_assert!(groups.is_power_of_two());
        let n = groups * GROUP_WIDTH;
        Core {
            ctrl: vec![EMPTY; n],
            slots: (0..n).map(|_| None).collect(),
            group_mask: groups - 1,
            len: 0,
        }
    }

    #[inline]
    fn groups(&self) -> usize {
        self.group_mask + 1
    }

    #[inline]
    fn capacity_slots(&self) -> usize {
        self.ctrl.len()
    }
}

impl<K: Hash + Eq, V> Core<K, V> {
    /// Probe for `key`; returns its slot index. Stops at the first
    /// group containing an `EMPTY` byte; bounded by the group count so
    /// it terminates even on a core with no empty bytes left (all
    /// drained, during the tail of a migration).
    #[inline]
    fn find(&self, h: u64, key: &K, probe: &ProbeKernel) -> Option<usize> {
        let (mut g, tag) = split_hash(h, self.group_mask);
        for _ in 0..self.groups() {
            let ctrl = group_ctrl(&self.ctrl, g);
            let mut m = probe.match_byte(ctrl, tag);
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let s = g * GROUP_WIDTH + i;
                if let Some((k, _)) = &self.slots[s] {
                    if k == key {
                        return Some(s);
                    }
                }
            }
            if probe.match_byte(ctrl, EMPTY) != 0 {
                return None;
            }
            g = (g + 1) & self.group_mask;
        }
        None
    }

    /// Place a key known to be absent at the first empty slot on its
    /// chain. The caller guarantees at least one `EMPTY` byte exists.
    #[inline]
    fn insert_fresh(&mut self, h: u64, key: K, val: V, probe: &ProbeKernel) -> usize {
        let (mut g, tag) = split_hash(h, self.group_mask);
        loop {
            let ctrl = group_ctrl(&self.ctrl, g);
            let e = probe.match_byte(ctrl, EMPTY);
            if e != 0 {
                let s = g * GROUP_WIDTH + e.trailing_zeros() as usize;
                self.ctrl[s] = tag;
                self.slots[s] = Some((key, val));
                self.len += 1;
                return s;
            }
            g = (g + 1) & self.group_mask;
        }
    }

    /// Probe-order distance from group `a` to group `b`.
    #[inline]
    fn dist(&self, a: usize, b: usize) -> usize {
        (b.wrapping_sub(a)) & self.group_mask
    }

    /// Re-close the probe chain after clearing `hole` (its ctrl byte is
    /// already `EMPTY`, its slot `None`). See the module docs for the
    /// invariant this restores.
    fn backward_shift(&mut self, mut hole: usize, probe: &ProbeKernel, state: &FixedState) {
        'relocate: loop {
            let hd = hole / GROUP_WIDTH;
            // A second EMPTY in the hole's group means no chain passes
            // through it; the hole may stay.
            if probe
                .match_byte(group_ctrl(&self.ctrl, hd), EMPTY)
                .count_ones()
                >= 2
            {
                return;
            }
            let mut g = (hd + 1) & self.group_mask;
            for _ in 1..self.groups() {
                let ctrl = group_ctrl(&self.ctrl, g);
                for (i, &c) in ctrl.iter().enumerate() {
                    if c >= EMPTY {
                        continue;
                    }
                    let s = g * GROUP_WIDTH + i;
                    let home = {
                        let (k, _) = self.slots[s].as_ref().expect("tagged slot is occupied");
                        split_hash(state.hash_one(k), self.group_mask).0
                    };
                    // Eligible iff the hole's group lies strictly
                    // earlier on this entry's chain than its current
                    // group — moving it keeps it reachable.
                    if self.dist(home, hd) < self.dist(home, g) {
                        self.ctrl[hole] = self.ctrl[s];
                        self.slots[hole] = self.slots[s].take();
                        self.ctrl[s] = EMPTY;
                        hole = s;
                        continue 'relocate;
                    }
                }
                if probe.match_byte(ctrl, EMPTY) != 0 {
                    // Pre-existing EMPTY in g: no chain continues past
                    // g, so no later entry can be eligible either.
                    return;
                }
                g = (g + 1) & self.group_mask;
            }
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// FlowTable
// ---------------------------------------------------------------------------

/// The SIMD-probed open-addressing map. See the module docs for the
/// design; the API mirrors the `HashMap` subset the keyed paths use.
#[derive(Clone)]
pub struct FlowTable<K, V> {
    live: Core<K, V>,
    /// Source core of an in-flight incremental resize, if any.
    old: Option<Core<K, V>>,
    /// Next old-core group the migration will drain.
    cursor: usize,
    probe: ProbeKernel,
    state: FixedState,
    resizes: u64,
}

impl<K: Hash + Eq, V> fmt::Debug for FlowTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowTable")
            .field("len", &self.len())
            .field("groups", &self.live.groups())
            .field("migrating", &self.old.is_some())
            .field("resizes", &self.resizes)
            .field("probe", &self.probe.kind())
            .finish()
    }
}

impl<K: Hash + Eq, V> Default for FlowTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V> FlowTable<K, V> {
    /// An empty table with the runtime-detected probe kernel
    /// (`QMAX_FORCE_SCALAR=1` pins the portable probe).
    pub fn new() -> Self {
        Self::with_capacity_and_probe(0, ProbeKernel::detect())
    }

    /// An empty table sized so `cap` entries fit without resizing.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_probe(cap, ProbeKernel::detect())
    }

    /// An empty table with an explicit probe kernel — the hook the
    /// differential battery uses to compare a forced-scalar table
    /// against a dispatched one in the same process.
    pub fn with_capacity_and_probe(cap: usize, probe: ProbeKernel) -> Self {
        let mut groups = 1usize;
        while groups * GROUP_WIDTH * LOAD_NUM < cap * LOAD_DEN {
            groups *= 2;
        }
        FlowTable {
            live: Core::new(groups),
            old: None,
            cursor: 0,
            probe,
            state: FixedState,
            resizes: 0,
        }
    }

    /// Number of resident entries (both cores during a migration).
    #[inline]
    pub fn len(&self) -> usize {
        self.live.len + self.old.as_ref().map_or(0, |o| o.len)
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many incremental resizes the table has started — exposed so
    /// tests can assert a key stream actually crossed resize
    /// boundaries mid-stream.
    #[inline]
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Whether a resize migration is currently in flight.
    #[inline]
    pub fn is_migrating(&self) -> bool {
        self.old.is_some()
    }

    /// The probe kernel this table dispatches group compares to.
    #[inline]
    pub fn probe_kernel(&self) -> ProbeKernel {
        self.probe
    }

    /// Total slot capacity of the live core.
    #[inline]
    pub fn capacity_slots(&self) -> usize {
        self.live.capacity_slots()
    }

    #[inline]
    fn hash(&self, key: &K) -> u64 {
        self.state.hash_one(key)
    }

    /// Drain up to [`MIGRATE_GROUPS_PER_STEP`] old-core groups into the
    /// live core. Called from every mutation; O(1) amortized and
    /// O(group span) worst case.
    #[inline]
    fn step_migration(&mut self) {
        if self.old.is_none() {
            return;
        }
        for _ in 0..MIGRATE_GROUPS_PER_STEP {
            let Some(old) = &mut self.old else { return };
            if self.cursor >= old.groups() {
                self.old = None;
                return;
            }
            let g = self.cursor;
            self.cursor += 1;
            let base = g * GROUP_WIDTH;
            for i in 0..GROUP_WIDTH {
                if old.ctrl[base + i] < EMPTY {
                    let (k, v) = old.slots[base + i].take().expect("tagged slot is occupied");
                    old.len -= 1;
                    let h = self.state.hash_one(&k);
                    self.live.insert_fresh(h, k, v, &self.probe);
                }
                old.ctrl[base + i] = DRAINED;
            }
            if self.cursor >= old.groups() {
                debug_assert_eq!(old.len, 0);
                self.old = None;
                return;
            }
        }
    }

    /// Finish any in-flight migration completely (used before starting
    /// a new resize; a no-op in steady state because draining outpaces
    /// refill by construction).
    fn finish_migration(&mut self) {
        while self.old.is_some() {
            self.step_migration();
        }
    }

    /// Grow if one more insert would push the live core past 7/8 load.
    #[inline]
    fn maybe_grow(&mut self) {
        if (self.live.len + 1) * LOAD_DEN > self.live.capacity_slots() * LOAD_NUM {
            self.finish_migration();
            let groups = self.live.groups() * 2;
            let retired = std::mem::replace(&mut self.live, Core::new(groups));
            self.old = Some(retired);
            self.cursor = 0;
            self.resizes += 1;
        }
    }

    /// A shared reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let h = self.hash(key);
        self.get_prehashed(h, key)
    }

    #[inline]
    fn get_prehashed(&self, h: u64, key: &K) -> Option<&V> {
        if let Some(s) = self.live.find(h, key, &self.probe) {
            return self.live.slots[s].as_ref().map(|(_, v)| v);
        }
        let old = self.old.as_ref()?;
        let s = old.find(h, key, &self.probe)?;
        old.slots[s].as_ref().map(|(_, v)| v)
    }

    /// A mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let h = self.hash(key);
        self.get_mut_prehashed(h, key)
    }

    #[inline]
    fn get_mut_prehashed(&mut self, h: u64, key: &K) -> Option<&mut V> {
        if let Some(s) = self.live.find(h, key, &self.probe) {
            return self.live.slots[s].as_mut().map(|(_, v)| v);
        }
        let old = self.old.as_mut()?;
        let s = old.find(h, key, &self.probe)?;
        old.slots[s].as_mut().map(|(_, v)| v)
    }

    /// Borrow-free residence check: which core holds `key`, and at
    /// which slot. Lets the batch upsert branch on presence and then
    /// take the mutable borrow it needs without re-probing.
    #[inline]
    fn locate(&self, h: u64, key: &K) -> Option<(bool, usize)> {
        if let Some(s) = self.live.find(h, key, &self.probe) {
            return Some((true, s));
        }
        let old = self.old.as_ref()?;
        old.find(h, key, &self.probe).map(|s| (false, s))
    }

    /// Whether `key` is resident.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Best-effort prefetch of the home control group (and candidate
    /// slot span) for hash `h` in both cores. Purely a hint: issued for
    /// the *home* group only, which resolves the overwhelming majority
    /// of probes at 7/8 load; chain walks past it pay their misses as
    /// before.
    #[inline]
    fn prefetch_groups(&self, h: u64) {
        let g = split_hash(h, self.live.group_mask).0;
        prefetch_read(&self.live.ctrl, g * GROUP_WIDTH);
        prefetch_read(&self.live.slots, g * GROUP_WIDTH);
        if let Some(old) = &self.old {
            let og = split_hash(h, old.group_mask).0;
            prefetch_read(&old.ctrl, og * GROUP_WIDTH);
            prefetch_read(&old.slots, og * GROUP_WIDTH);
        }
    }

    /// Issue prefetch hints for every key's home group without
    /// resolving any probe — the warm-up half of the batch pipeline,
    /// for callers whose per-key work is too stateful to batch (e.g. a
    /// cache hit path that mutates as it goes) but who still know the
    /// next span of keys in advance.
    pub fn prefetch_keys(&self, keys: &[K]) {
        for k in keys {
            self.prefetch_groups(self.hash(k));
        }
    }

    /// Batched lookup: calls `f(i, value)` once per key, in order.
    ///
    /// Observationally identical to `keys.iter().map(|k| self.get(k))`
    /// — the differential battery replays exactly that equivalence —
    /// but executed as a software pipeline: each [`PROBE_PIPELINE`]-key
    /// stage hashes every key and prefetches every home group before
    /// resolving any probe, so the N dependent cache-miss chains of a
    /// singleton loop overlap into (at most) ⌈N/32⌉ memory round-trips.
    pub fn probe_batch(&self, keys: &[K], mut f: impl FnMut(usize, Option<&V>)) {
        let mut hashes = [0u64; PROBE_PIPELINE];
        for (stage, chunk) in keys.chunks(PROBE_PIPELINE).enumerate() {
            for (j, k) in chunk.iter().enumerate() {
                let h = self.hash(k);
                hashes[j] = h;
                self.prefetch_groups(h);
            }
            let base = stage * PROBE_PIPELINE;
            for (j, k) in chunk.iter().enumerate() {
                f(base + j, self.get_prehashed(hashes[j], k));
            }
        }
    }

    /// Batched mutable lookup: `f(i, value)` once per key, in order.
    /// The pipelined twin of a `get_mut` loop; see [`Self::probe_batch`].
    pub fn get_mut_batch(&mut self, keys: &[K], mut f: impl FnMut(usize, Option<&mut V>)) {
        let mut hashes = [0u64; PROBE_PIPELINE];
        for (stage, chunk) in keys.chunks(PROBE_PIPELINE).enumerate() {
            for (j, k) in chunk.iter().enumerate() {
                let h = self.hash(k);
                hashes[j] = h;
                self.prefetch_groups(h);
            }
            let base = stage * PROBE_PIPELINE;
            for (j, k) in chunk.iter().enumerate() {
                f(base + j, self.get_mut_prehashed(hashes[j], k));
            }
        }
    }

    /// Batched upsert: for each key in order, visit the resident value
    /// (`present = true`) or insert `or_insert(i)` and visit the fresh
    /// value (`present = false`).
    ///
    /// Equivalent, op for op, to the singleton sequence `if let Some(v)
    /// = get_mut(k) { visit } else { insert(k, or_insert(i)); visit }`
    /// — inserts step the incremental migration exactly as
    /// [`Self::insert`] does, so the resize schedule is unchanged. The
    /// hash for each stage is computed once and its home group
    /// prefetched up front; keys are re-probed per op, so a resize
    /// triggered mid-stage only wastes hints, never correctness.
    pub fn entry_batch(
        &mut self,
        keys: &[K],
        mut or_insert: impl FnMut(usize) -> V,
        mut visit: impl FnMut(usize, &mut V, bool),
    ) where
        K: Clone,
    {
        let mut hashes = [0u64; PROBE_PIPELINE];
        for (stage, chunk) in keys.chunks(PROBE_PIPELINE).enumerate() {
            for (j, k) in chunk.iter().enumerate() {
                let h = self.hash(k);
                hashes[j] = h;
                self.prefetch_groups(h);
            }
            let base = stage * PROBE_PIPELINE;
            for (j, k) in chunk.iter().enumerate() {
                let i = base + j;
                let h = hashes[j];
                match self.locate(h, k) {
                    Some((true, s)) => {
                        let (_, v) = self.live.slots[s].as_mut().expect("located slot");
                        visit(i, v, true);
                    }
                    Some((false, s)) => {
                        let old = self.old.as_mut().expect("old core located");
                        let (_, v) = old.slots[s].as_mut().expect("located slot");
                        visit(i, v, true);
                    }
                    None => {
                        // `locate` proved the key absent from both
                        // cores; stepping the migration or growing
                        // cannot make it appear, so skip the re-find
                        // that singleton `insert` pays and write the
                        // fresh slot directly.
                        self.step_migration();
                        self.maybe_grow();
                        let s = self
                            .live
                            .insert_fresh(h, k.clone(), or_insert(i), &self.probe);
                        let (_, v) = self.live.slots[s].as_mut().expect("just inserted");
                        visit(i, v, false);
                    }
                }
            }
        }
    }

    /// Insert or update; returns the previous value if any.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let h = self.hash(&key);
        self.insert_prehashed(h, key, val)
    }

    fn insert_prehashed(&mut self, h: u64, key: K, val: V) -> Option<V> {
        self.step_migration();
        if let Some(s) = self.live.find(h, &key, &self.probe) {
            let (_, v) = self.live.slots[s].as_mut().expect("found slot is occupied");
            return Some(std::mem::replace(v, val));
        }
        let mut prev = None;
        if let Some(old) = &mut self.old {
            if let Some(s) = old.find(h, &key, &self.probe) {
                // Pull the stale residence out of the old core: the
                // slot byte becomes DRAINED (pass-through, never
                // EMPTY) so old-core chains stay probe-correct.
                let (_, v) = old.slots[s].take().expect("found slot is occupied");
                old.ctrl[s] = DRAINED;
                old.len -= 1;
                prev = Some(v);
            }
        }
        self.maybe_grow();
        self.live.insert_fresh(h, key, val, &self.probe);
        prev
    }

    /// Remove `key`, returning its value. Live-core removals re-close
    /// the probe chain with a backward shift; old-core removals mark
    /// the slot `DRAINED` (the migration reclaims it wholesale).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.step_migration();
        let h = self.hash(key);
        if let Some(s) = self.live.find(h, key, &self.probe) {
            let (_, v) = self.live.slots[s].take().expect("found slot is occupied");
            self.live.ctrl[s] = EMPTY;
            self.live.len -= 1;
            self.live.backward_shift(s, &self.probe, &self.state);
            return Some(v);
        }
        let old = self.old.as_mut()?;
        let s = old.find(h, key, &self.probe)?;
        let (_, v) = old.slots[s].take().expect("found slot is occupied");
        old.ctrl[s] = DRAINED;
        old.len -= 1;
        Some(v)
    }

    /// Drop every entry, keeping the live core's capacity.
    pub fn clear(&mut self) {
        self.live.ctrl.fill(EMPTY);
        self.live.slots.iter_mut().for_each(|s| *s = None);
        self.live.len = 0;
        self.old = None;
        self.cursor = 0;
    }

    /// Visit every entry (arbitrary order).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for core in std::iter::once(&self.live).chain(self.old.iter()) {
            for s in core.slots.iter().flatten() {
                f(&s.0, &s.1);
            }
        }
    }

    /// Drain every entry into `f` (arbitrary order), leaving the table
    /// empty with its capacity retained.
    pub fn drain_each(&mut self, mut f: impl FnMut(K, V)) {
        let mut drain_core = |core: &mut Core<K, V>| {
            for s in core.slots.iter_mut() {
                if let Some((k, v)) = s.take() {
                    f(k, v);
                }
            }
        };
        if let Some(mut old) = self.old.take() {
            drain_core(&mut old);
        }
        drain_core(&mut self.live);
        self.live.ctrl.fill(EMPTY);
        self.live.len = 0;
        self.cursor = 0;
    }

    /// Keep only the entries `f` approves. Implemented as a drain +
    /// rebuild into the same capacity: purges are rare (the apps call
    /// this once per measurement epoch) and a rebuild sidesteps
    /// iterate-while-shifting hazards.
    pub fn retain_with(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        let mut kept: Vec<(K, V)> = Vec::with_capacity(self.len());
        self.drain_each(|k, mut v| {
            if f(&k, &mut v) {
                kept.push((k, v));
            }
        });
        for (k, v) in kept {
            self.insert(k, v);
        }
    }
}

// ---------------------------------------------------------------------------
// KeyIndex abstraction
// ---------------------------------------------------------------------------

/// The `HashMap` subset the keyed q-MAX paths need, so each consumer
/// can be generic over its index implementation.
pub trait KeyIndex<K, V> {
    /// An empty index sized for `cap` entries.
    fn with_capacity(cap: usize) -> Self;
    /// Number of resident entries.
    fn len(&self) -> usize;
    /// Whether the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// A shared reference to the value for `key`.
    fn get(&self, key: &K) -> Option<&V>;
    /// A mutable reference to the value for `key`.
    fn get_mut(&mut self, key: &K) -> Option<&mut V>;
    /// Insert or update; returns the previous value if any.
    fn insert(&mut self, key: K, val: V) -> Option<V>;
    /// Remove `key`, returning its value.
    fn remove(&mut self, key: &K) -> Option<V>;
    /// Whether `key` is resident.
    fn contains_key(&self, key: &K) -> bool;
    /// Drop every entry, keeping capacity.
    fn clear(&mut self);
    /// Visit every entry (arbitrary order).
    fn for_each(&self, f: impl FnMut(&K, &V));
    /// Drain every entry into `f`, leaving the index empty.
    fn drain_each(&mut self, f: impl FnMut(K, V));
    /// Keep only the entries `f` approves.
    fn retain_with(&mut self, f: impl FnMut(&K, &mut V) -> bool);

    /// Hint that `keys` are about to be probed. Purely advisory — the
    /// default is a no-op, which is also the correct oracle semantics;
    /// [`FlowTable`] overrides it with home-group prefetches.
    fn prefetch_keys(&self, keys: &[K]) {
        let _ = keys;
    }

    /// Batched lookup: `f(i, value)` once per key, in order. The
    /// default is the plain singleton loop — exactly the semantics an
    /// oracle index must have — so [`StdKeyIndex`] stays a valid
    /// differential baseline; [`FlowTable`] overrides it with the
    /// prefetch-pipelined probe.
    fn probe_batch(&self, keys: &[K], mut f: impl FnMut(usize, Option<&V>)) {
        for (i, k) in keys.iter().enumerate() {
            f(i, self.get(k));
        }
    }

    /// Batched mutable lookup: `f(i, value)` once per key, in order.
    /// Default is the singleton `get_mut` loop (see
    /// [`probe_batch`](KeyIndex::probe_batch)).
    fn get_mut_batch(&mut self, keys: &[K], mut f: impl FnMut(usize, Option<&mut V>)) {
        for (i, k) in keys.iter().enumerate() {
            f(i, self.get_mut(k));
        }
    }

    /// Batched upsert: per key in order, visit the resident value
    /// (`present = true`) or insert `or_insert(i)` and visit the fresh
    /// value (`present = false`). Default is the equivalent singleton
    /// sequence (see [`probe_batch`](KeyIndex::probe_batch)).
    fn entry_batch(
        &mut self,
        keys: &[K],
        mut or_insert: impl FnMut(usize) -> V,
        mut visit: impl FnMut(usize, &mut V, bool),
    ) where
        K: Clone,
    {
        for (i, k) in keys.iter().enumerate() {
            if self.contains_key(k) {
                let v = self.get_mut(k).expect("probed above");
                visit(i, v, true);
            } else {
                self.insert(k.clone(), or_insert(i));
                let v = self.get_mut(k).expect("just inserted");
                visit(i, v, false);
            }
        }
    }
}

impl<K: Hash + Eq, V> KeyIndex<K, V> for FlowTable<K, V> {
    fn with_capacity(cap: usize) -> Self {
        FlowTable::with_capacity(cap)
    }
    fn len(&self) -> usize {
        FlowTable::len(self)
    }
    fn get(&self, key: &K) -> Option<&V> {
        FlowTable::get(self, key)
    }
    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        FlowTable::get_mut(self, key)
    }
    fn insert(&mut self, key: K, val: V) -> Option<V> {
        FlowTable::insert(self, key, val)
    }
    fn remove(&mut self, key: &K) -> Option<V> {
        FlowTable::remove(self, key)
    }
    fn contains_key(&self, key: &K) -> bool {
        FlowTable::contains_key(self, key)
    }
    fn clear(&mut self) {
        FlowTable::clear(self)
    }
    fn for_each(&self, f: impl FnMut(&K, &V)) {
        FlowTable::for_each(self, f)
    }
    fn drain_each(&mut self, f: impl FnMut(K, V)) {
        FlowTable::drain_each(self, f)
    }
    fn retain_with(&mut self, f: impl FnMut(&K, &mut V) -> bool) {
        FlowTable::retain_with(self, f)
    }
    fn prefetch_keys(&self, keys: &[K]) {
        FlowTable::prefetch_keys(self, keys)
    }
    fn probe_batch(&self, keys: &[K], f: impl FnMut(usize, Option<&V>)) {
        FlowTable::probe_batch(self, keys, f)
    }
    fn get_mut_batch(&mut self, keys: &[K], f: impl FnMut(usize, Option<&mut V>)) {
        FlowTable::get_mut_batch(self, keys, f)
    }
    fn entry_batch(
        &mut self,
        keys: &[K],
        or_insert: impl FnMut(usize) -> V,
        visit: impl FnMut(usize, &mut V, bool),
    ) where
        K: Clone,
    {
        FlowTable::entry_batch(self, keys, or_insert, visit)
    }
}

/// [`KeyIndex`] over `std::collections::HashMap` — the HashMap-era
/// baseline, kept for benchmarks and as the differential oracle.
#[derive(Clone)]
pub struct StdKeyIndex<K, V> {
    map: HashMap<K, V>,
}

impl<K, V> fmt::Debug for StdKeyIndex<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StdKeyIndex")
            .field("len", &self.map.len())
            .finish()
    }
}

impl<K: Hash + Eq, V> KeyIndex<K, V> for StdKeyIndex<K, V> {
    fn with_capacity(cap: usize) -> Self {
        StdKeyIndex {
            map: HashMap::with_capacity(cap),
        }
    }
    fn len(&self) -> usize {
        self.map.len()
    }
    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }
    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }
    fn insert(&mut self, key: K, val: V) -> Option<V> {
        self.map.insert(key, val)
    }
    fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key)
    }
    fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }
    fn clear(&mut self) {
        self.map.clear()
    }
    fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for (k, v) in &self.map {
            f(k, v);
        }
    }
    fn drain_each(&mut self, mut f: impl FnMut(K, V)) {
        for (k, v) in self.map.drain() {
            f(k, v);
        }
    }
    fn retain_with(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.map.retain(|k, v| f(k, v));
    }
}

/// Family of index implementations: a zero-sized marker selecting
/// which [`KeyIndex`] a generic keyed structure instantiates, without
/// fixing the key/value types at the consumer's type level.
pub trait IndexFamily {
    /// The index type this family provides for `(K, V)`.
    type Index<K: Hash + Eq + Clone, V: Clone>: KeyIndex<K, V> + Clone + fmt::Debug;
}

/// Selects [`FlowTable`] — the default for every keyed path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowIndex;

impl IndexFamily for FlowIndex {
    type Index<K: Hash + Eq + Clone, V: Clone> = FlowTable<K, V>;
}

/// Selects [`StdKeyIndex`] (`std::collections::HashMap`) — the
/// pre-flow-table behaviour, kept as baseline and oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StdIndex;

impl IndexFamily for StdIndex {
    type Index<K: Hash + Eq + Clone, V: Clone> = StdKeyIndex<K, V>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key whose hash puts it in group `g & mask` with tag `t`: invert
    /// the Fx multiply so `hash(key) = (g << 7) | t` exactly.
    fn crafted_key(g: u64, t: u64) -> u64 {
        // Inverse of FX_K mod 2^64 (K odd ⇒ invertible).
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(FX_K.wrapping_mul(inv)));
        }
        debug_assert_eq!(FX_K.wrapping_mul(inv), 1);
        ((g << 7) | (t & 0x7F)).wrapping_mul(inv)
    }

    #[test]
    fn crafted_keys_hash_where_told() {
        let state = FixedState;
        for (g, t) in [(0u64, 0u64), (3, 0x7F), (1000, 42)] {
            let h = state.hash_one(crafted_key(g, t));
            assert_eq!(h, (g << 7) | t);
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: FlowTable<u64, u64> = FlowTable::new();
        for i in 0..1000u64 {
            assert_eq!(t.insert(i, i * 10), None);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.resizes() >= 2, "1000 inserts from 16 slots must resize");
        for i in 0..1000u64 {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.insert(7, 99), Some(70));
        for i in (0..1000u64).step_by(3) {
            assert_eq!(t.remove(&i), Some(i * 10));
            assert_eq!(t.get(&i), None);
        }
        for i in 0..1000u64 {
            let want = match i {
                7 => Some(99),
                i if i % 3 == 0 => None,
                i => Some(i * 10),
            };
            assert_eq!(t.get(&i).copied(), want, "key {i}");
        }
    }

    #[test]
    fn same_group_pileup_probes_and_deletes_correctly() {
        // 40 keys all homed to one group: spills across ≥3 groups, then
        // interleaved deletes force backward shifts through them.
        let mut t: FlowTable<u64, u32> =
            FlowTable::with_capacity_and_probe(64, ProbeKernel::detect());
        let keys: Vec<u64> = (0..40).map(|i| crafted_key(2, i & 0x7F)).collect();
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(&k), Some(&(i as u32)), "pileup key {i}");
        }
        for (i, &k) in keys.iter().enumerate().step_by(2) {
            assert_eq!(t.remove(&k), Some(i as u32));
        }
        for (i, &k) in keys.iter().enumerate() {
            let want = if i % 2 == 0 { None } else { Some(i as u32) };
            assert_eq!(t.get(&k).copied(), want, "pileup key {i} after deletes");
        }
    }

    #[test]
    fn removals_during_migration_hit_both_cores() {
        let mut t: FlowTable<u64, u64> = FlowTable::new();
        // Fill to just past a resize trigger so a migration is in
        // flight, then remove keys that still live in the old core.
        let mut n = 0u64;
        while !t.is_migrating() {
            t.insert(n, n);
            n += 1;
        }
        assert!(t.is_migrating());
        let total = n;
        for i in 0..total {
            assert_eq!(t.remove(&i), Some(i), "key {i} (migrating table)");
        }
        assert!(t.is_empty());
    }

    #[test]
    fn scalar_and_detected_probes_agree_on_a_workload() {
        let mut a: FlowTable<u64, u64> =
            FlowTable::with_capacity_and_probe(0, ProbeKernel::scalar());
        let mut b: FlowTable<u64, u64> =
            FlowTable::with_capacity_and_probe(0, ProbeKernel::detect());
        let mut s = 42u64;
        for _ in 0..20_000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (s >> 33) % 2048;
            match s % 3 {
                0 => assert_eq!(a.insert(k, s), b.insert(k, s)),
                1 => assert_eq!(a.get(&k), b.get(&k)),
                _ => assert_eq!(a.remove(&k), b.remove(&k)),
            }
            assert_eq!(a.len(), b.len());
        }
    }

    /// `probe_batch` must be the singleton `get` loop, observationally
    /// — over spans longer than the pipeline, shorter than it, empty,
    /// and with duplicate keys inside one stage.
    #[test]
    fn probe_batch_matches_singleton_gets() {
        let mut t: FlowTable<u64, u64> = FlowTable::new();
        for i in 0..300u64 {
            t.insert(i * 3, i);
        }
        for span in [0usize, 1, 7, PROBE_PIPELINE, PROBE_PIPELINE + 1, 257] {
            let keys: Vec<u64> = (0..span as u64).map(|i| (i % 180) * 2).collect();
            let mut got: Vec<Option<u64>> = Vec::new();
            t.probe_batch(&keys, |i, v| {
                assert_eq!(i, got.len(), "indices must arrive in order");
                got.push(v.copied());
            });
            let want: Vec<Option<u64>> = keys.iter().map(|k| t.get(k).copied()).collect();
            assert_eq!(got, want, "span {span}");
        }
    }

    #[test]
    fn get_mut_batch_mutates_like_singletons() {
        let mut a: FlowTable<u64, u64> = FlowTable::new();
        for i in 0..200u64 {
            a.insert(i, i);
        }
        let mut b = a.clone();
        let keys: Vec<u64> = (0..300u64).map(|i| i * 7 % 250).collect();
        a.get_mut_batch(&keys, |_, v| {
            if let Some(v) = v {
                *v += 1000;
            }
        });
        for k in &keys {
            if let Some(v) = b.get_mut(k) {
                *v += 1000;
            }
        }
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        a.for_each(|&k, &v| sa.push((k, v)));
        b.for_each(|&k, &v| sb.push((k, v)));
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
    }

    /// `entry_batch` ≡ the singleton contains/get_mut/insert sequence,
    /// including while the inserts it performs trigger and then drive
    /// an incremental resize mid-batch.
    #[test]
    fn entry_batch_upserts_like_singletons_through_a_resize() {
        let mut a: FlowTable<u64, u64> = FlowTable::new();
        let mut b: FlowTable<u64, u64> = FlowTable::new();
        // Enough fresh keys to force resizes inside one entry_batch
        // call, with repeats interleaved so hits and misses mix.
        let keys: Vec<u64> = (0..600u64).map(|i| i % 400).collect();
        let mut seen_a: Vec<(usize, bool)> = Vec::new();
        a.entry_batch(
            &keys,
            |i| i as u64,
            |i, v, present| {
                *v += 1;
                seen_a.push((i, present));
            },
        );
        let mut seen_b: Vec<(usize, bool)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            if b.contains_key(k) {
                let v = b.get_mut(k).unwrap();
                *v += 1;
                seen_b.push((i, true));
            } else {
                b.insert(*k, i as u64);
                let v = b.get_mut(k).unwrap();
                *v += 1;
                seen_b.push((i, false));
            }
        }
        assert_eq!(seen_a, seen_b, "hit/miss pattern diverged");
        assert_eq!(a.len(), b.len());
        assert_eq!(a.resizes(), b.resizes(), "resize schedule diverged");
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        a.for_each(|&k, &v| sa.push((k, v)));
        b.for_each(|&k, &v| sb.push((k, v)));
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
    }

    /// Batch probes during an in-flight migration must hit both cores.
    #[test]
    fn probe_batch_spans_both_cores_mid_migration() {
        let mut t: FlowTable<u64, u64> = FlowTable::new();
        let mut n = 0u64;
        while !t.is_migrating() {
            t.insert(n, n * 2);
            n += 1;
        }
        let keys: Vec<u64> = (0..n + 10).collect();
        let mut hits = 0usize;
        t.probe_batch(&keys, |i, v| {
            let want = if (i as u64) < n {
                Some(2 * i as u64)
            } else {
                None
            };
            assert_eq!(v.copied(), want, "key {i} while migrating");
            hits += usize::from(v.is_some());
        });
        assert_eq!(hits, n as usize);
    }

    /// The `KeyIndex` defaults and the `FlowTable` overrides agree —
    /// the property that keeps `StdIndex` a valid oracle for batches.
    #[test]
    fn keyindex_batch_defaults_agree_with_flow_overrides() {
        let mut flow: FlowTable<u64, u64> = KeyIndex::with_capacity(0);
        let mut std: StdKeyIndex<u64, u64> = KeyIndex::with_capacity(0);
        let keys: Vec<u64> = (0..300u64).map(|i| i * i % 157).collect();
        let mut out_f: Vec<(usize, bool)> = Vec::new();
        let mut out_s: Vec<(usize, bool)> = Vec::new();
        KeyIndex::entry_batch(
            &mut flow,
            &keys,
            |i| i as u64,
            |i, v, p| {
                *v ^= 1;
                out_f.push((i, p));
            },
        );
        KeyIndex::entry_batch(
            &mut std,
            &keys,
            |i| i as u64,
            |i, v, p| {
                *v ^= 1;
                out_s.push((i, p));
            },
        );
        assert_eq!(out_f, out_s);
        let mut probe_f: Vec<Option<u64>> = Vec::new();
        let mut probe_s: Vec<Option<u64>> = Vec::new();
        KeyIndex::probe_batch(&flow, &keys, |_, v| probe_f.push(v.copied()));
        KeyIndex::probe_batch(&std, &keys, |_, v| probe_s.push(v.copied()));
        assert_eq!(probe_f, probe_s);
    }

    #[test]
    fn drain_for_each_retain() {
        let mut t: FlowTable<u64, u64> = FlowTable::new();
        for i in 0..500u64 {
            t.insert(i, i);
        }
        let mut seen = 0u64;
        t.for_each(|k, v| {
            assert_eq!(k, v);
            seen += 1;
        });
        assert_eq!(seen, 500);
        t.retain_with(|k, _| k % 2 == 0);
        assert_eq!(t.len(), 250);
        let mut drained: Vec<u64> = Vec::new();
        t.drain_each(|k, _| drained.push(k));
        assert!(t.is_empty());
        drained.sort_unstable();
        assert_eq!(drained, (0..500).filter(|k| k % 2 == 0).collect::<Vec<_>>());
    }
}
