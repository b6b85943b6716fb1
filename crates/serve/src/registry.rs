//! The prepared-matrix registry: a concurrent, size-bounded LRU of
//! [`Tenant`]s keyed by matrix fingerprint + configuration digest.
//!
//! Preprocessing (reordering + BCSR conversion) is the expensive one-time
//! `T_init` of the paper's cost model; the registry computes it once per
//! distinct (matrix, config) and shares the [`Arc`]-backed handles across
//! every request that names the same matrix. Each line is one tenant: its
//! row partition plus one prepared [`Smat`] per shard, an unsharded matrix
//! being the one-shard case — so sharded tenants count against the same
//! capacity and evict like any other. Get-or-prepare is duplicate-free
//! under contention: racing callers agree on one slot and exactly one runs
//! the prepare closure while the rest block on it.
//!
//! [`PreparedMatrixRegistry::warm_prepare`] moves the preparation onto a
//! background thread entirely: the key becomes *resident-but-preparing*
//! immediately, and callers that need the handle either observe the typed
//! [`AdmissionState::Preparing`] and park a completion closure
//! ([`PreparedMatrixRegistry::get_or_park`]) or block until ready
//! ([`PreparedMatrixRegistry::wait_ready`]). Parking is race-free through
//! the publish-then-drain protocol of [`ParkSlot`] (see
//! [`crate::parkslot`]); that protocol is verified under exhaustive
//! interleaving by the model tests in `tests/model_check.rs`.
//!
//! Every lock here is a checked `smat-sanitize` primitive, so lock-order
//! analysis covers the registry when enabled. The registry lock
//! (`registry.entries`) is a leaf: it is never held across a prepare, a
//! waiter drain, or any slot lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use serde::Serialize;
use smat::{Smat, SmatConfig};
use smat_formats::{Csr, Element, Fnv1a, MatrixFingerprint};
use smat_sanitize::sync::Mutex;
use smat_shard::{partition, ShardPlan, ShardPolicy};

use crate::parkslot::ParkSlot;
use smat::LruMap;

/// Registry key: content fingerprint of the matrix plus a digest of the
/// preparation configuration (different block shapes or reorderings must
/// not share a prepared handle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct MatrixKey {
    /// Content identity of the input matrix.
    pub fingerprint: MatrixFingerprint,
    /// Digest of the [`SmatConfig`] used to prepare it.
    pub config_digest: u64,
}

impl MatrixKey {
    /// Key for `fingerprint` prepared under `config`.
    pub fn new(fingerprint: MatrixFingerprint, config: &SmatConfig) -> Self {
        MatrixKey {
            fingerprint,
            config_digest: config_digest(config),
        }
    }
}

/// Deterministic 64-bit digest of a preparation configuration.
///
/// Hashes the `Debug` rendering, which spells out every field (block shape,
/// reorder algorithm + parameters, opt flags, accumulation, schedule,
/// device constants, preflight mode) as plain numbers and enum names — no
/// addresses, no map iteration order — so the digest is stable across runs.
pub fn config_digest(config: &SmatConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write(format!("{config:?}").as_bytes());
    h.finish()
}

/// A registered matrix: its row partition plus one prepared handle per
/// shard, in row order. An unsharded matrix is the one-shard tenant whose
/// only shard key is the tenant key itself. Cloning is three `Arc` bumps.
pub struct Tenant<T> {
    plan: Arc<ShardPlan>,
    keys: Arc<[MatrixKey]>,
    smats: Arc<[Smat<T>]>,
}

impl<T> Clone for Tenant<T> {
    fn clone(&self) -> Self {
        Tenant {
            plan: Arc::clone(&self.plan),
            keys: Arc::clone(&self.keys),
            smats: Arc::clone(&self.smats),
        }
    }
}

impl<T: Element> Tenant<T> {
    /// Partitions `a` under `policy` and prepares every shard with
    /// `prepare`. A one-shard tenant's shard key is `key` itself, and the
    /// matrix is neither sliced nor fingerprinted again. A sharded tenant's
    /// shard key is its row slice's fingerprint with the structure hash
    /// salted by the tenant fingerprint and the shard index: every shard
    /// handle mutates on its own, so two handles must never share a key
    /// (batches group sub-requests by key and epoch, and the plan cache
    /// shares plans by key), not even for identical row slices.
    pub(crate) fn prepare(
        a: &Csr<T>,
        key: MatrixKey,
        policy: &ShardPolicy,
        mut prepare: impl FnMut(&Csr<T>) -> Smat<T>,
    ) -> Self {
        let plan = partition(a, policy);
        if !plan.is_sharded() {
            return Tenant::unsharded(key, prepare(a));
        }
        let (keys, smats): (Vec<_>, Vec<_>) = plan
            .shards
            .iter()
            .enumerate()
            .map(|(index, d)| {
                let shard = a.slice_rows(d.row_start, d.row_end);
                let mut fingerprint = MatrixFingerprint::of_csr(&shard);
                let mut h = Fnv1a::new();
                h.write_u64(fingerprint.structure_hash);
                h.write_u64(key.fingerprint.structure_hash);
                h.write_u64(key.fingerprint.value_hash);
                h.write_u64(index as u64);
                fingerprint.structure_hash = h.finish();
                (MatrixKey { fingerprint, ..key }, prepare(&shard))
            })
            .unzip();
        Tenant {
            plan: Arc::new(plan),
            keys: keys.into(),
            smats: smats.into(),
        }
    }

    /// The one-shard tenant `key` around its prepared handle.
    pub fn unsharded(key: MatrixKey, smat: Smat<T>) -> Self {
        let fp = smat.fingerprint();
        Tenant {
            plan: Arc::new(ShardPlan::single::<T>(fp.nrows, fp.ncols, fp.nnz)),
            keys: Arc::new([key]),
            smats: Arc::new([smat]),
        }
    }

    /// The row partition.
    pub(crate) fn plan(&self) -> &Arc<ShardPlan> {
        &self.plan
    }

    /// Per-shard keys (plan-cache lines and batch keys), in shard order.
    pub(crate) fn keys(&self) -> &[MatrixKey] {
        &self.keys
    }

    /// Per-shard prepared handles, in shard order.
    pub fn shards(&self) -> &[Smat<T>] {
        &self.smats
    }

    /// The shard owning original row `row`.
    pub(crate) fn shard_of(&self, row: usize) -> usize {
        self.plan.shards.partition_point(|d| d.row_end <= row)
    }

    /// Whether `other` is this very registration (same shard handles).
    fn ptr_eq(&self, other: &Tenant<T>) -> bool {
        Arc::ptr_eq(&self.smats, &other.smats)
    }
}

/// Readiness of a registry key, as seen by admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum AdmissionState {
    /// The prepared handle is available now.
    Ready,
    /// The key is resident but its preparation (warm or foreground) has not
    /// finished; requests should park rather than re-prepare or block.
    Preparing,
    /// The key is unknown to the registry.
    Absent,
}

/// Outcome of [`PreparedMatrixRegistry::get_or_park`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParkResult {
    /// The handle was ready; the waiter ran inline on the calling thread
    /// before this returned.
    Ready,
    /// Preparation is in flight; the waiter will run with the handle when
    /// it completes (possibly on the preparing thread).
    Parked,
    /// The key is unknown; the waiter was dropped unused.
    Absent,
}

/// Counter snapshot of registry activity.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RegistryStats {
    /// Lookups that found the key resident. Counted per tenant, not per
    /// shard: a submission to a sharded tenant is one lookup.
    pub hits: u64,
    /// Lookups that did not (each get-or-prepare miss admits a new entry).
    /// A sharded registration is one miss however many shards it prepares.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Shard handles prepared by executed prepare closures (one per shard;
    /// at most one closure per miss under contention).
    pub prepares: u64,
    /// Background preparations launched by `warm_prepare`.
    pub warm_prepares: u64,
    /// Waiters parked on an in-flight preparation.
    pub parked: u64,
    /// Shard handles re-prepared by background compactions that published
    /// (a `compact_prepare` whose prepares succeeded *and* found its tenant
    /// still resident at publish time).
    pub compactions: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Configured bound.
    pub capacity: usize,
}

impl RegistryStats {
    /// `hits / (hits + misses)`, 1.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One registry slot: a publish-then-drain cell for the prepared tenant.
type Slot<T> = Arc<ParkSlot<Tenant<T>>>;

/// Concurrent, size-bounded LRU of prepared tenants.
pub struct PreparedMatrixRegistry<T> {
    /// `Arc` so compaction threads can publish into the map without owning
    /// the registry (which would deadlock the joining `Drop`).
    entries: Arc<Mutex<LruMap<MatrixKey, Slot<T>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Shared with warm-prepare threads (which must not own the registry,
    /// or joining them in `Drop` could deadlock).
    prepares: Arc<AtomicU64>,
    warm_prepares: AtomicU64,
    parked: AtomicU64,
    /// Fresh handles published by background compactions.
    compactions: Arc<AtomicU64>,
    /// Keys with a compaction in flight — the single-flight guard of
    /// [`PreparedMatrixRegistry::compact_prepare`].
    compacting: Arc<Mutex<Vec<MatrixKey>>>,
    warm_threads: Mutex<Vec<JoinHandle<()>>>,
    compact_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Fulfills the slot (running `prepare` only if this caller wins the
/// producer race) and drains parked waiters. A *completed* prepare is
/// counted, one per shard, before the tenant is published, so any caller
/// woken by the publication already observes it in the stats; a panicked
/// prepare is never counted.
fn fulfill<T: Element>(
    slot: &ParkSlot<Tenant<T>>,
    prepares: &AtomicU64,
    prepare: impl FnOnce() -> Tenant<T>,
) {
    slot.fulfill(|| {
        let tenant = prepare();
        prepares.fetch_add(tenant.smats.len() as u64, Ordering::Relaxed);
        tenant
    });
}

/// Joins every thread in `threads` (idempotent); a panicked thread's panic
/// is discarded.
fn join_all(threads: &Mutex<Vec<JoinHandle<()>>>) {
    // POLICY (poisoning): recover. The handle list is push/drain only.
    let handles = std::mem::take(&mut *threads.lock_or_recover());
    for h in handles {
        let _ = h.join();
    }
}

impl<T: Element> PreparedMatrixRegistry<T> {
    /// An empty registry bounded to `capacity` prepared matrices.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        PreparedMatrixRegistry {
            entries: Arc::new(Mutex::labeled("registry.entries", LruMap::new(capacity))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prepares: Arc::new(AtomicU64::new(0)),
            warm_prepares: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            compactions: Arc::new(AtomicU64::new(0)),
            compacting: Arc::new(Mutex::labeled("registry.compacting", Vec::new())),
            warm_threads: Mutex::labeled("registry.warm_threads", Vec::new()),
            compact_threads: Mutex::labeled("registry.compact_threads", Vec::new()),
        }
    }

    /// Looks up or inserts the slot for `key`, under the registry lock.
    fn slot_of(&self, key: MatrixKey) -> (Slot<T>, bool) {
        // POLICY (poisoning): recover. The LRU map is only mutated through
        // panic-free operations (lookups, insertions of already-built
        // values); a poisoning panic can only have come from a *caller*
        // unwinding through a counter update, never mid-mutation.
        let mut entries = self.entries.lock_or_recover();
        if let Some(slot) = entries.get(&key) {
            (Arc::clone(slot), true)
        } else {
            let slot: Slot<T> = Arc::new(ParkSlot::new());
            if entries.insert(key, Arc::clone(&slot)).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            (slot, false)
        }
    }

    /// Returns the prepared tenant for `key`, running `prepare` only if the
    /// key is absent. Under contention exactly one caller executes
    /// `prepare`; the others block until the handle is ready and share it.
    ///
    /// The boolean is `true` on a hit (the key was already resident —
    /// including "resident but still being prepared by another caller or a
    /// warm-prepare thread"). The prepare itself runs outside the registry
    /// lock, so a slow prepare never blocks lookups of other keys.
    ///
    /// If `prepare` panics the panic propagates, but the slot stays
    /// admissible: the key remains [`AdmissionState::Preparing`] and the
    /// next `get_or_prepare` (or warm fulfiller) retries the preparation
    /// and serves any waiters parked in the meantime.
    pub fn get_or_prepare(
        &self,
        key: MatrixKey,
        prepare: impl FnOnce() -> Tenant<T>,
    ) -> (Tenant<T>, bool) {
        let (slot, hit) = self.slot_of(key);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        fulfill(&slot, &self.prepares, prepare);
        (slot.get().expect("fulfilled above"), hit)
    }

    /// Starts preparing `key` on a background thread and returns
    /// immediately. The key becomes resident at once (in the
    /// [`AdmissionState::Preparing`] state), so later `get_or_prepare` /
    /// `get_or_park` calls attach to the in-flight preparation instead of
    /// duplicating it.
    ///
    /// Returns `false` without spawning if the key is already resident
    /// (ready or preparing). Background threads are joined when the
    /// registry drops.
    pub fn warm_prepare(
        &self,
        key: MatrixKey,
        prepare: impl FnOnce() -> Tenant<T> + Send + 'static,
    ) -> bool {
        let (slot, existed) = self.slot_of(key);
        if existed {
            return false;
        }
        self.warm_prepares.fetch_add(1, Ordering::Relaxed);
        let prepares = Arc::clone(&self.prepares);
        let handle = std::thread::spawn(move || fulfill(&slot, &prepares, prepare));
        // POLICY (poisoning): recover. The handle list is push/drain only;
        // a panic cannot leave it torn.
        self.warm_threads.lock_or_recover().push(handle);
        true
    }

    /// Readiness of `key` without preparing, bumping LRU recency, or
    /// touching the hit/miss counters.
    pub fn admission_state(&self, key: &MatrixKey) -> AdmissionState {
        // POLICY (poisoning): recover (see `slot_of`).
        let entries = self.entries.lock_or_recover();
        match entries.peek(key) {
            None => AdmissionState::Absent,
            Some(slot) if slot.is_ready() => AdmissionState::Ready,
            Some(_) => AdmissionState::Preparing,
        }
    }

    /// Non-blocking admission: runs `waiter` with the tenant — inline if
    /// the key is ready, or when the in-flight preparation completes
    /// (possibly on the preparing thread) if it is still preparing. If the
    /// key is absent the waiter is dropped unused. The caller never blocks
    /// on a preparation.
    pub fn get_or_park(
        &self,
        key: &MatrixKey,
        waiter: impl FnOnce(Tenant<T>) + Send + 'static,
    ) -> ParkResult {
        let slot = {
            // POLICY (poisoning): recover (see `slot_of`).
            let mut entries = self.entries.lock_or_recover();
            entries.get(key).map(Arc::clone)
        };
        let Some(slot) = slot else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return ParkResult::Absent;
        };
        // Race-free by the slot's publish-then-drain protocol: the waiter
        // either runs inline or is guaranteed to be drained — never lost.
        if slot.park(Box::new(waiter)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ParkResult::Ready
        } else {
            self.parked.fetch_add(1, Ordering::Relaxed);
            ParkResult::Parked
        }
    }

    /// Blocks until `key` is ready and returns its tenant, or `None` if the
    /// key is not resident. Intended for warm-up barriers (tests, CLI
    /// `--warm-prepare`) — serving paths should use
    /// [`PreparedMatrixRegistry::get_or_park`] instead.
    pub fn wait_ready(&self, key: &MatrixKey) -> Option<Tenant<T>> {
        let (tx, rx) = crate::oneshot::channel();
        match self.get_or_park(key, move |tenant| tx.send(tenant)) {
            ParkResult::Absent => None,
            ParkResult::Ready | ParkResult::Parked => rx.wait(),
        }
    }

    /// Looks up `key` without preparing. A `Some` result counts as a hit, a
    /// `None` as a miss. Returns `None` also while the entry is still being
    /// prepared by a concurrent `get_or_prepare` or a warm-prepare thread
    /// (use [`PreparedMatrixRegistry::get_or_park`] to attach to one).
    pub fn get(&self, key: &MatrixKey) -> Option<Tenant<T>> {
        let slot = {
            // POLICY (poisoning): recover (see `slot_of`).
            let mut entries = self.entries.lock_or_recover();
            entries.get(key).map(Arc::clone)
        };
        match slot.as_ref().and_then(|s| s.get()) {
            Some(tenant) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(tenant)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up `key` without preparing, bumping LRU recency, or touching
    /// the hit/miss counters — the lookup the mutation path uses, where a
    /// retry loop re-reading the current handles must not distort cache
    /// statistics or recency. Returns `None` while the entry is still
    /// preparing.
    pub fn peek_tenant(&self, key: &MatrixKey) -> Option<Tenant<T>> {
        // POLICY (poisoning): recover (see `slot_of`).
        self.entries
            .lock_or_recover()
            .peek(key)
            .and_then(|s| s.get())
    }

    /// [`PreparedMatrixRegistry::peek_tenant`] for an unsharded tenant:
    /// its one prepared handle. `None` for tenants with several shards.
    pub fn peek(&self, key: &MatrixKey) -> Option<Smat<T>> {
        match self.peek_tenant(key)?.shards() {
            [smat] => Some(smat.clone()),
            _ => None,
        }
    }

    /// Re-prepares, on a background thread, every shard of `key` whose
    /// overlay carries corrections from its *current* handle
    /// (base ⊕ overlay) and atomically swaps the fresh handles in — the
    /// compaction path of dynamic matrices. Clean shards keep their handle.
    /// Returns `false` without spawning if the key is not resident-and-ready,
    /// no shard has a correction to fold, or a compaction for it is already
    /// in flight (single-flight per key).
    ///
    /// Protocol guarantees, verified by `tests/model_check.rs` and the
    /// chaos suite:
    ///
    /// * **Serving never blocks**: the old handles keep serving until the
    ///   swap; in-flight requests pinned to them finish on the overlay
    ///   epoch they admitted under.
    /// * **No lost update**: after publishing, the compactor reads the old
    ///   handle's *final* overlay snapshot and rebases it onto the fresh
    ///   handle, per re-prepared shard ([`Smat::rebase_overlay`],
    ///   insert-if-absent — an override a racing mutator already retried
    ///   onto the fresh handle is strictly newer and wins). A mutation that
    ///   raced the swap either landed in that final snapshot or was retried
    ///   by its mutator's own current-handle check; it cannot vanish. A
    ///   clean shard's handle is carried into the fresh tenant unchanged,
    ///   so a write racing the swap there lands on the resident handle.
    /// * **No resurrection**: the fresh tenant is published only if the
    ///   tenant is still resident *with the same handles* at publish time —
    ///   an eviction or re-registration mid-compaction discards the fresh
    ///   handle instead of resurrecting a forgotten tenant.
    /// * **Eviction-safe**: the compactor owns a clone of the old tenant,
    ///   so LRU eviction mid-compaction can never free a matrix under the
    ///   running `prepare`.
    /// * **Fault-isolated**: a panicking `prepare` leaves the old handle
    ///   serving, clears the single-flight guard, and counts nothing.
    pub fn compact_prepare(
        &self,
        key: MatrixKey,
        prepare: impl Fn(&Smat<T>) -> Smat<T> + Send + 'static,
    ) -> bool {
        let Some(old) = self.peek_tenant(&key) else {
            return false;
        };
        let dirty: Vec<usize> = (0..old.smats.len())
            .filter(|&i| old.smats[i].overlay_snapshot().correction_terms() > 0)
            .collect();
        if dirty.is_empty() {
            return false;
        }
        {
            // POLICY (poisoning): recover. Push/retain-only key list.
            let mut compacting = self.compacting.lock_or_recover();
            if compacting.contains(&key) {
                return false;
            }
            compacting.push(key);
        }
        let entries = Arc::clone(&self.entries);
        let compacting = Arc::clone(&self.compacting);
        let compactions = Arc::clone(&self.compactions);
        let handle = std::thread::Builder::new()
            .name("smat-serve-compact".into())
            .spawn(move || {
                /// Clears the single-flight guard on every exit path,
                /// panicking `prepare` included.
                struct Unflag(Arc<Mutex<Vec<MatrixKey>>>, MatrixKey);
                impl Drop for Unflag {
                    fn drop(&mut self) {
                        self.0.lock_or_recover().retain(|k| *k != self.1);
                    }
                }
                let _unflag = Unflag(compacting, key);
                let fresh: Vec<(usize, Smat<T>)> = dirty
                    .into_iter()
                    .map(|i| (i, prepare(&old.smats[i])))
                    .collect();
                let published = {
                    // POLICY (poisoning): recover (see `slot_of`).
                    let mut map = entries.lock_or_recover();
                    match map.peek(&key).and_then(|s| s.get()) {
                        Some(current) if current.ptr_eq(&old) => {
                            let mut smats = old.smats.to_vec();
                            for (i, smat) in &fresh {
                                smats[*i] = smat.clone();
                            }
                            let tenant = Tenant {
                                smats: smats.into(),
                                ..old.clone()
                            };
                            let slot: Slot<T> = Arc::new(ParkSlot::new());
                            slot.fulfill(move || tenant);
                            // Same-key insert replaces the slot without an
                            // LRU eviction; parked waiters on the old slot
                            // still drain with the old handles — correct,
                            // they admitted under their epochs.
                            map.insert(key, slot);
                            true
                        }
                        _ => false,
                    }
                };
                if published {
                    // Read each old handle's overlay only *after* the swap
                    // is visible: any mutation ordered before a mutator's
                    // current-handle re-check is in this snapshot, and any
                    // ordered after was retried onto the fresh handle.
                    for (i, smat) in &fresh {
                        let last = old.smats[*i].overlay_snapshot();
                        smat.rebase_overlay(last.cells(), last.epoch());
                    }
                    compactions.fetch_add(fresh.len() as u64, Ordering::Relaxed);
                }
            })
            .expect("spawn compaction thread");
        // POLICY (poisoning): recover. Push/drain only.
        self.compact_threads.lock_or_recover().push(handle);
        true
    }

    /// Blocks until every in-flight background compaction has finished
    /// (published or abandoned). The replay driver calls this at window
    /// boundaries so compaction timing never leaks into batch composition.
    /// A compaction that panicked is joined here too; its panic is
    /// discarded (the old handle simply kept serving).
    pub fn wait_compactions(&self) {
        join_all(&self.compact_threads);
    }

    /// Blocks until every background warm prepare has finished, and with
    /// it the admissions parked on it.
    pub fn wait_warm_prepares(&self) {
        join_all(&self.warm_threads);
    }

    /// Evicts `key` explicitly. In-flight requests holding the handle keep
    /// it alive; the registry just forgets it. An in-flight warm prepare of
    /// the key still completes and serves its parked waiters (they hold the
    /// slot, not the registry entry).
    pub fn invalidate(&self, key: &MatrixKey) -> bool {
        // POLICY (poisoning): recover (see `slot_of`).
        let removed = self.entries.lock_or_recover().remove(key).is_some();
        if removed {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.lock_or_recover().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RegistryStats {
        let entries = self.entries.lock_or_recover();
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            warm_prepares: self.warm_prepares.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            entries: entries.len(),
            capacity: entries.capacity(),
        }
    }
}

impl<T> Drop for PreparedMatrixRegistry<T> {
    fn drop(&mut self) {
        // A warm thread whose prepare panicked is joined here too; its
        // panic was already delivered (the join error is discarded) and the
        // slot it abandoned was left re-fulfillable.
        join_all(&self.warm_threads);
        join_all(&self.compact_threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_formats::{Coo, F16};

    fn matrix(shift: usize) -> Csr<F16> {
        let mut coo = Coo::new(64, 64);
        for i in 0..64 {
            coo.push(i, (i * 5 + shift) % 64, F16::from_f64(1.0));
        }
        coo.to_csr()
    }

    fn key_of(a: &Csr<F16>, cfg: &SmatConfig) -> MatrixKey {
        MatrixKey::new(MatrixFingerprint::of_csr(a), cfg)
    }

    /// Get-or-prepares `a` as the unsharded tenant `key`; returns its
    /// handle and whether it was a hit.
    fn prepare_in(
        reg: &PreparedMatrixRegistry<F16>,
        key: MatrixKey,
        a: &Csr<F16>,
        cfg: &SmatConfig,
    ) -> (Smat<F16>, bool) {
        let (tenant, hit) = reg.get_or_prepare(key, || {
            Tenant::unsharded(key, Smat::prepare(a, cfg.clone()))
        });
        (tenant.shards()[0].clone(), hit)
    }

    /// Gives `h` an overlay correction for a compaction to fold, unless
    /// its base already holds `value` at (0, 1).
    fn dirty(h: &Smat<F16>, value: f64) {
        h.apply_updates(&[smat::MatrixUpdate::Update {
            row: 0,
            col: 1,
            value: F16::from_f64(value),
        }]);
    }

    #[test]
    fn prepare_runs_once_and_is_shared() {
        let cfg = SmatConfig::default();
        let a = matrix(0);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        let (first, hit1) = prepare_in(&reg, key, &a, &cfg);
        assert!(!hit1);
        let (second, hit2) = reg.get_or_prepare(key, || panic!("must not re-prepare"));
        assert!(hit2);
        assert!(first.ptr_eq(&second.shards()[0]), "shared handle");
        let s = reg.stats();
        assert_eq!((s.hits, s.misses, s.prepares), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_configs_get_distinct_entries() {
        let a = matrix(0);
        let cfg16 = SmatConfig::default();
        let cfg8 = SmatConfig {
            block_w: 8,
            ..SmatConfig::default()
        };
        assert_ne!(key_of(&a, &cfg16), key_of(&a, &cfg8));
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        prepare_in(&reg, key_of(&a, &cfg16), &a, &cfg16);
        prepare_in(&reg, key_of(&a, &cfg8), &a, &cfg8);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.stats().prepares, 2);
    }

    #[test]
    fn lru_bound_evicts_stalest_matrix() {
        let cfg = SmatConfig::default();
        let (a0, a1, a2) = (matrix(0), matrix(1), matrix(2));
        let (k0, k1, k2) = (key_of(&a0, &cfg), key_of(&a1, &cfg), key_of(&a2, &cfg));
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(2);
        prepare_in(&reg, k0, &a0, &cfg);
        prepare_in(&reg, k1, &a1, &cfg);
        // Touch k0 so k1 is the LRU victim.
        assert!(reg.get(&k0).is_some());
        prepare_in(&reg, k2, &a2, &cfg);
        assert_eq!(reg.stats().evictions, 1);
        assert!(reg.get(&k0).is_some(), "recently used entry survives");
        assert!(reg.get(&k1).is_none(), "stalest entry was evicted");
        assert!(reg.get(&k2).is_some());
    }

    #[test]
    fn invalidate_forgets_but_inflight_handles_survive() {
        let cfg = SmatConfig::default();
        let a = matrix(0);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(2);
        let (handle, _) = prepare_in(&reg, key, &a, &cfg);
        assert!(reg.invalidate(&key));
        assert!(!reg.invalidate(&key), "second invalidate is a no-op");
        assert!(reg.get(&key).is_none());
        // The evicted handle still works.
        let b = smat_formats::Dense::from_fn(64, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
        assert_eq!(handle.spmm(&b).c, a.spmm_reference(&b));
    }

    #[test]
    fn config_digest_is_sensitive_to_fields() {
        let base = SmatConfig::default();
        assert_eq!(config_digest(&base), config_digest(&SmatConfig::default()));
        let other = SmatConfig {
            block_h: 8,
            block_w: 8,
            ..SmatConfig::default()
        };
        assert_ne!(config_digest(&base), config_digest(&other));
    }

    #[test]
    fn warm_prepare_transitions_absent_preparing_ready() {
        let cfg = SmatConfig::default();
        let a = matrix(0);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        assert_eq!(reg.admission_state(&key), AdmissionState::Absent);

        // Hold the prepare in a barrier so the Preparing state is
        // observable deterministically.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        let a2 = a.clone();
        let cfg2 = cfg.clone();
        assert!(reg.warm_prepare(key, move || {
            g.wait();
            Tenant::unsharded(key, Smat::prepare(&a2, cfg2))
        }));
        assert_eq!(reg.admission_state(&key), AdmissionState::Preparing);
        assert!(
            !reg.warm_prepare(key, || panic!("duplicate warm prepare")),
            "second warm_prepare must be a no-op"
        );
        gate.wait();
        let handle = reg.wait_ready(&key).expect("resident").shards()[0].clone();
        assert_eq!(reg.admission_state(&key), AdmissionState::Ready);
        let s = reg.stats();
        assert_eq!((s.warm_prepares, s.prepares), (1, 1));
        let b = smat_formats::Dense::from_fn(64, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
        assert_eq!(handle.spmm(&b).c, a.spmm_reference(&b));
    }

    #[test]
    fn parked_waiters_receive_the_shared_handle() {
        let cfg = SmatConfig::default();
        let a = matrix(1);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        let (a2, cfg2) = (a.clone(), cfg.clone());
        reg.warm_prepare(key, move || {
            g.wait();
            Tenant::unsharded(key, Smat::prepare(&a2, cfg2))
        });

        // Park two waiters mid-prepare; both must observe the same Arc.
        let seen: Arc<Mutex<Vec<Smat<F16>>>> = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..2 {
            let sink = Arc::clone(&seen);
            let r = reg.get_or_park(&key, move |t| {
                sink.lock().unwrap().push(t.shards()[0].clone());
            });
            assert!(matches!(r, ParkResult::Parked));
        }
        assert_eq!(reg.stats().parked, 2);
        gate.wait();
        let direct = reg.wait_ready(&key).unwrap().shards()[0].clone();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        for s in seen.iter() {
            assert!(
                std::ptr::eq(s.bcsr(), direct.bcsr()),
                "waiters share one prepared handle"
            );
        }
        // After readiness, get_or_park runs the waiter inline.
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        assert_eq!(
            reg.get_or_park(&key, move |_| r2.store(true, Ordering::SeqCst)),
            ParkResult::Ready
        );
        assert!(ran.load(Ordering::SeqCst), "waiter must run inline");
    }

    #[test]
    fn get_or_prepare_attaches_to_inflight_warm_prepare() {
        let cfg = SmatConfig::default();
        let a = matrix(2);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        let (a2, cfg2) = (a.clone(), cfg.clone());
        reg.warm_prepare(key, move || {
            g.wait();
            Tenant::unsharded(key, Smat::prepare(&a2, cfg2))
        });
        gate.wait();
        // This may race the warm thread's fulfillment, but must never run
        // its own closure.
        let (handle, hit) = reg.get_or_prepare(key, || panic!("duplicate prepare"));
        let handle = &handle.shards()[0];
        assert!(hit, "warm-prepared key counts as resident");
        assert_eq!(reg.stats().prepares, 1);
        let b = smat_formats::Dense::from_fn(64, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
        assert_eq!(handle.spmm(&b).c, a.spmm_reference(&b));
    }

    #[test]
    fn panicked_prepare_leaves_the_key_admissible() {
        let cfg = SmatConfig::default();
        let a = matrix(3);
        let key = key_of(&a, &cfg);
        let reg: Arc<PreparedMatrixRegistry<F16>> = Arc::new(PreparedMatrixRegistry::new(4));
        let r2 = Arc::clone(&reg);
        let res = std::thread::spawn(move || {
            r2.get_or_prepare(key, || panic!("prepare blew up"));
        })
        .join();
        assert!(res.is_err(), "the prepare panic must propagate");
        // The key is resident-but-preparing, not wedged or corrupt: waiters
        // can still park on it, and nothing was published.
        assert_eq!(reg.admission_state(&key), AdmissionState::Preparing);
        let seen: Arc<Mutex<Vec<Smat<F16>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        assert_eq!(
            reg.get_or_park(&key, move |t| sink
                .lock_or_recover()
                .push(t.shards()[0].clone())),
            ParkResult::Parked
        );
        // The retry prepares, publishes, and drains the surviving waiter.
        let (handle, hit) = prepare_in(&reg, key, &a, &cfg);
        assert!(hit, "the slot survived the panic");
        assert_eq!(reg.admission_state(&key), AdmissionState::Ready);
        assert_eq!(
            reg.stats().prepares,
            1,
            "only the successful prepare counts"
        );
        let seen = seen.lock_or_recover();
        assert_eq!(seen.len(), 1);
        assert!(std::ptr::eq(seen[0].bcsr(), handle.bcsr()));
    }

    #[test]
    fn panicked_warm_prepare_is_recovered_by_the_next_caller() {
        let cfg = SmatConfig::default();
        let a = matrix(4);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        assert!(reg.warm_prepare(key, move || {
            g.wait();
            panic!("warm prepare blew up");
        }));
        gate.wait();
        // Possibly racing the warm thread's unwind: if its producer flag is
        // still set we wait for the unwind guard's reset, then retry.
        let (handle, hit) = prepare_in(&reg, key, &a, &cfg);
        assert!(hit);
        assert_eq!(reg.admission_state(&key), AdmissionState::Ready);
        let s = reg.stats();
        assert_eq!(
            (s.warm_prepares, s.prepares),
            (1, 1),
            "the panicked warm prepare is not counted as executed"
        );
        let b = smat_formats::Dense::from_fn(64, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
        assert_eq!(handle.spmm(&b).c, a.spmm_reference(&b));
        // Drop joins the panicked warm thread, discarding its panic.
    }

    #[test]
    fn compact_prepare_swaps_the_handle_and_counts() {
        let cfg = SmatConfig::default();
        let a = matrix(0);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        let (old, _) = prepare_in(&reg, key, &a, &cfg);
        // Mutate, then compact: the fresh handle must serve base ⊕ overlay
        // with an empty (folded-in) overlay.
        old.apply_updates(&[smat::MatrixUpdate::Update {
            row: 0,
            col: 1,
            value: F16::from_f64(7.0),
        }]);
        let merged = old.merged_csr();
        assert!(reg.compact_prepare(key, |h| {
            Smat::prepare(&h.merged_csr(), h.config().clone())
        }));
        reg.wait_compactions();
        let fresh = reg.peek(&key).expect("tenant still resident");
        assert!(!fresh.ptr_eq(&old), "the handle was swapped");
        assert_eq!(
            fresh.overlay_snapshot().correction_terms(),
            0,
            "the override is folded into the fresh base"
        );
        assert_eq!(
            fresh.overlay_epoch(),
            old.overlay_epoch(),
            "the rebase carries the epoch forward"
        );
        let b = smat_formats::Dense::from_fn(64, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
        assert_eq!(fresh.spmm(&b).c, merged.spmm_reference(&b));
        let s = reg.stats();
        assert_eq!(s.compactions, 1);
        assert_eq!(s.evictions, 0, "a swap is not an eviction");
    }

    #[test]
    fn compact_prepare_is_single_flight_and_needs_residency() {
        let cfg = SmatConfig::default();
        let a = matrix(1);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        assert!(
            !reg.compact_prepare(key, |_| panic!("nothing to compact")),
            "absent tenants cannot compact"
        );
        let (handle, _) = prepare_in(&reg, key, &a, &cfg);
        assert!(
            !reg.compact_prepare(key, |_| panic!("nothing to fold")),
            "a tenant without corrections has nothing to compact"
        );
        dirty(&handle, 7.0);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        assert!(reg.compact_prepare(key, move |h| {
            g.wait();
            Smat::prepare(&h.merged_csr(), h.config().clone())
        }));
        assert!(
            !reg.compact_prepare(key, |_| panic!("duplicate compaction")),
            "second compaction of the same key must be refused"
        );
        gate.wait();
        reg.wait_compactions();
        assert_eq!(reg.stats().compactions, 1);
        // The guard cleared: a new compaction is admissible again.
        dirty(&reg.peek(&key).expect("resident"), 5.0);
        assert!(reg.compact_prepare(key, |h| Smat::prepare(&h.merged_csr(), h.config().clone())));
        reg.wait_compactions();
        assert_eq!(reg.stats().compactions, 2);
    }

    #[test]
    fn eviction_during_compaction_pins_the_handle_and_skips_publish() {
        // Satellite regression: evicting a tenant mid-compaction must
        // neither free the handle under the compactor nor resurrect the
        // tenant when the compactor finishes.
        let cfg = SmatConfig::default();
        let a = matrix(2);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        let (old, _) = prepare_in(&reg, key, &a, &cfg);
        let b = smat_formats::Dense::from_fn(64, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
        let want = old.spmm(&b).c;
        dirty(&old, 7.0);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        assert!(reg.compact_prepare(key, move |h| {
            g.wait(); // hold the prepare until the eviction lands
                      // The pinned handle is fully usable mid-eviction.
            Smat::prepare(&h.merged_csr(), h.config().clone())
        }));
        assert!(reg.invalidate(&key), "tenant evicted mid-compaction");
        gate.wait();
        reg.wait_compactions();
        assert!(
            reg.get(&key).is_none(),
            "a finished compaction must not resurrect an evicted tenant"
        );
        assert_eq!(
            reg.stats().compactions,
            0,
            "abandoned publishes don't count"
        );
        // The old handle survived the whole episode (the compactor's pin).
        assert_eq!(old.spmm(&b).c, old.merged_csr().spmm_reference(&b));
        assert_ne!(old.spmm(&b).c, want, "and still serves its overlay");
    }

    #[test]
    fn panicked_compaction_leaves_the_old_handle_serving() {
        let cfg = SmatConfig::default();
        let a = matrix(3);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        let (old, _) = prepare_in(&reg, key, &a, &cfg);
        dirty(&old, 7.0);
        assert!(reg.compact_prepare(key, |_| panic!("compaction blew up")));
        reg.wait_compactions();
        let current = reg.peek(&key).expect("tenant still resident");
        assert!(current.ptr_eq(&old), "the old handle still serves");
        assert_eq!(reg.stats().compactions, 0);
        // The single-flight guard was cleared by the unwind: retry works.
        assert!(reg.compact_prepare(key, |h| Smat::prepare(&h.merged_csr(), h.config().clone())));
        reg.wait_compactions();
        assert_eq!(reg.stats().compactions, 1);
    }

    #[test]
    fn peek_is_counter_and_recency_neutral() {
        let cfg = SmatConfig::default();
        let a = matrix(4);
        let key = key_of(&a, &cfg);
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(4);
        assert!(reg.peek(&key).is_none());
        prepare_in(&reg, key, &a, &cfg);
        let before = reg.stats();
        assert!(reg.peek(&key).is_some());
        let after = reg.stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
    }

    #[test]
    fn wait_ready_on_absent_key_is_none() {
        let reg: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(2);
        let key = key_of(&matrix(0), &SmatConfig::default());
        assert!(reg.wait_ready(&key).is_none());
        assert_eq!(
            reg.get_or_park(&key, |_| panic!("no slot to park on")),
            ParkResult::Absent
        );
    }
}
