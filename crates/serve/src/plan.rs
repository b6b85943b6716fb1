//! The plan cache: memoized launch plans per (prepared matrix, RHS width).
//!
//! For a fixed prepared matrix, everything the executor derives from the
//! right-hand-side width `n` — the launch geometry of
//! [`smat::build_launch_config`] and the static pre-flight verdict — is a
//! pure function of `(matrix, config, n)`. The cache computes it once per
//! pair, so repeat requests (the dominant serving case) skip both the
//! schedule analysis and the admission decision work, and inadmissible
//! plans are refused before they occupy queue slots.
//!
//! Dynamic matrices make "matrix" a moving target: every overlay mutation
//! changes the effective content. The cache therefore keys on the tenant's
//! [`MatrixKey`] with its fingerprint stamped by the *overlay epoch* the
//! request admitted under ([`smat_formats::MatrixFingerprint::with_epoch`])
//! — a plan
//! built against epoch `e` can never be applied at any other epoch, so a
//! mutated matrix structurally cannot launch under a stale plan. The epoch
//! is pinned at admission (not re-read), matching the execution path's
//! snapshot pinning.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smat_sanitize::sync::Mutex;

use serde::Serialize;
use smat::{OverlaySnapshot, Smat};
use smat_diag::{Diagnostic, DiagnosticsExt};
use smat_formats::Element;
use smat_gpusim::Gpu;

use crate::registry::MatrixKey;
use smat::LruMap;

/// A memoized launch plan for one (matrix, n) pair.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Right-hand-side width this plan covers.
    pub n: usize,
    /// Kernel label of the launch ("T+B+C" etc.).
    pub label: String,
    /// Resident device bytes the launch needs.
    pub footprint_bytes: usize,
    /// Shared memory per thread block.
    pub shared_bytes_per_block: usize,
    /// Pre-flight findings for this width (shared with the prepared
    /// handle's own memo, see [`Smat::preflight_cached`]).
    pub diagnostics: Arc<Vec<Diagnostic>>,
    /// Whether the plan is launchable (no error-severity findings).
    pub admissible: bool,
}

/// Counter snapshot of plan-cache activity.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PlanStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Plans built.
    pub misses: u64,
    /// Resident plans.
    pub entries: usize,
}

impl PlanStats {
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

/// Size-bounded LRU of launch plans keyed by (matrix key, n).
pub struct PlanCache {
    plans: Mutex<LruMap<(MatrixKey, usize), Arc<Plan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache bounded to `capacity` plans.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            plans: Mutex::labeled("plans.cache", LruMap::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the plan for (`key`, `n`) at the handle's *current* overlay
    /// epoch, building it on first use. Serving paths that pinned a
    /// snapshot at admission use [`PlanCache::get_or_build_pinned`] so the
    /// plan matches the epoch the request executes on.
    pub fn get_or_build<T: Element>(&self, key: MatrixKey, n: usize, smat: &Smat<T>) -> Arc<Plan> {
        self.get_or_build_pinned(key, n, smat, &smat.overlay_snapshot())
    }

    /// Returns the plan for (`key`, `n`) under a pinned overlay snapshot.
    /// The cache key carries `overlay.epoch()` inside the fingerprint, so
    /// entries built before a mutation are unreachable after it.
    pub fn get_or_build_pinned<T: Element>(
        &self,
        key: MatrixKey,
        n: usize,
        smat: &Smat<T>,
        overlay: &OverlaySnapshot,
    ) -> Arc<Plan> {
        let key = MatrixKey {
            fingerprint: key.fingerprint.with_epoch(overlay.epoch()),
            ..key
        };
        // POLICY (poisoning): recover. The LRU map only sees panic-free
        // get/insert calls under the lock (plans are built outside it), so
        // a poisoned flag cannot indicate a torn map.
        if let Some(plan) = self.plans.lock_or_recover().get(&(key, n)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Built outside the lock: racing builders compute identical plans
        // and the last insert wins.
        let plan = Arc::new(build_plan(n, smat, overlay));
        self.plans
            .lock_or_recover()
            .insert((key, n), Arc::clone(&plan));
        plan
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.plans.lock_or_recover().len(),
        }
    }
}

fn build_plan<T: Element>(n: usize, smat: &Smat<T>, overlay: &OverlaySnapshot) -> Plan {
    let cfg = smat.config();
    let gpu = Gpu::new(cfg.device.clone());
    // Same index/pipeline path the executor will launch with, so the plan's
    // footprint reflects the compressed index of packed-format tenants.
    let launch = smat::build_launch_config_for(
        &gpu,
        smat.bcsr(),
        smat::KernelPath {
            packed: smat.packed_index(),
            panel_depth: cfg.panel_depth,
        },
        n,
        cfg.opts,
        cfg.schedule,
    );
    let diagnostics = smat.preflight_cached_at(n, overlay);
    let admissible = !diagnostics.has_errors();
    Plan {
        n,
        label: launch.label,
        footprint_bytes: launch.footprint_bytes,
        shared_bytes_per_block: launch.shared_bytes_per_block,
        diagnostics,
        admissible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat::{PreflightMode, SmatConfig};
    use smat_formats::{Coo, Csr, MatrixFingerprint, F16};

    fn matrix() -> Csr<F16> {
        let mut coo = Coo::new(64, 64);
        for i in 0..64 {
            coo.push(i, (i * 7) % 64, F16::from_f64(1.0));
        }
        coo.to_csr()
    }

    #[test]
    fn plans_are_memoized_per_width() {
        let a = matrix();
        let cfg = SmatConfig::default();
        let key = MatrixKey::new(MatrixFingerprint::of_csr(&a), &cfg);
        let smat = Smat::prepare(&a, cfg);
        let cache = PlanCache::new(8);
        let p8 = cache.get_or_build(key, 8, &smat);
        let p8_again = cache.get_or_build(key, 8, &smat);
        assert!(Arc::ptr_eq(&p8, &p8_again));
        let p16 = cache.get_or_build(key, 16, &smat);
        assert!(!Arc::ptr_eq(&p8, &p16));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        assert!(p8.admissible, "{:?}", p8.diagnostics);
        assert_eq!(p8.label, "smat[T+B+C]");
        assert!(p8.footprint_bytes > 0);
        assert!(p16.footprint_bytes > p8.footprint_bytes, "wider B, C");
    }

    #[test]
    fn plan_shares_the_handles_preflight_memo() {
        let a = matrix();
        let cfg = SmatConfig::default();
        let key = MatrixKey::new(MatrixFingerprint::of_csr(&a), &cfg);
        let smat = Smat::prepare(&a, cfg);
        let cache = PlanCache::new(8);
        let plan = cache.get_or_build(key, 8, &smat);
        assert!(Arc::ptr_eq(&plan.diagnostics, &smat.preflight_cached(8)));
    }

    #[test]
    fn oversubscribed_plan_is_inadmissible() {
        let a = matrix();
        let cfg = SmatConfig {
            block_h: 96,
            block_w: 96,
            device: smat_gpusim::DeviceConfig::tiny_test_device(),
            preflight: PreflightMode::Force,
            ..SmatConfig::default()
        };
        let key = MatrixKey::new(MatrixFingerprint::of_csr(&a), &cfg);
        let smat = Smat::prepare(&a, cfg);
        let plan = PlanCache::new(4).get_or_build(key, 8, &smat);
        assert!(!plan.admissible);
        assert!(plan.diagnostics.has_errors());
    }

    #[test]
    fn mutated_matrix_never_reuses_a_stale_plan() {
        // Satellite regression: the cache key carries the overlay epoch, so
        // a mutation makes every pre-mutation entry unreachable — a stale
        // plan (and its stale pre-flight verdict) can never gate a launch
        // against the mutated matrix.
        let a = matrix();
        let cfg = SmatConfig::default();
        let key = MatrixKey::new(MatrixFingerprint::of_csr(&a), &cfg);
        let smat = Smat::prepare(&a, cfg);
        let cache = PlanCache::new(8);
        let before = cache.get_or_build(key, 8, &smat);
        let pinned = smat.overlay_snapshot();
        smat.apply_updates(&[smat::MatrixUpdate::Update {
            row: 0,
            col: 0,
            value: F16::from_f64(5.0),
        }]);
        // Same (key, n) after the mutation: a fresh entry, not the stale
        // one.
        let after = cache.get_or_build(key, 8, &smat);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "epoch 1 must not see the epoch-0 plan"
        );
        assert_eq!(cache.stats().misses, 2);
        // A request that pinned the epoch-0 snapshot at admission still
        // resolves its own (cached) plan.
        let replay = cache.get_or_build_pinned(key, 8, &smat, &pinned);
        assert!(Arc::ptr_eq(&before, &replay));
        assert_eq!(cache.stats().hits, 1);
        // The plan's diagnostics come from the epoch-pinned preflight memo.
        assert!(Arc::ptr_eq(
            &after.diagnostics,
            &smat.preflight_cached_at(8, &smat.overlay_snapshot())
        ));
    }

    #[test]
    fn lru_bound_applies_to_plans() {
        let a = matrix();
        let cfg = SmatConfig::default();
        let key = MatrixKey::new(MatrixFingerprint::of_csr(&a), &cfg);
        let smat = Smat::prepare(&a, cfg);
        let cache = PlanCache::new(2);
        cache.get_or_build(key, 1, &smat);
        cache.get_or_build(key, 2, &smat);
        cache.get_or_build(key, 3, &smat);
        assert_eq!(cache.stats().entries, 2);
        // n=1 was the LRU victim: rebuilding it is a miss.
        cache.get_or_build(key, 1, &smat);
        assert_eq!(cache.stats().misses, 4);
    }
}
