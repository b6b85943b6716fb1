//! Synthetic serving traces: deterministic request streams for the
//! `smat-serve` engine.
//!
//! A trace is a sequence of [`TraceRequest`]s, each naming one of `M`
//! registered matrices and a right-hand-side width `n`. Matrix popularity
//! follows a truncated Zipf law (`P(matrix k) ∝ 1/(k+1)^s`), the shape real
//! inference traffic takes: a few hot models absorb most requests, which is
//! exactly what makes a prepared-matrix registry pay off. Widths are drawn
//! from a small caller-supplied set, mimicking fixed batch-size tiers.
//!
//! Everything is a pure function of the seed: replaying the same trace
//! twice produces identical requests, which the serving example relies on
//! to assert a deterministic end state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One request of a synthetic serving trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TraceRequest {
    /// Position in the trace (0-based).
    pub seq: usize,
    /// Index of the target matrix in the trace's matrix set (`0..n_matrices`).
    pub matrix: usize,
    /// Right-hand-side column count for this request.
    pub n_cols: usize,
    /// Whether the target is one of the trace's *large* matrices (see
    /// [`TraceSpec::large_matrices`]) — tenants whose operands a sharding
    /// server would partition across devices. The driver decides what
    /// "large" means dimensionally; the trace only marks which tenants mix
    /// sharded and unsharded traffic.
    pub large: bool,
}

/// Parameters of the synthetic trace generator.
#[derive(Clone, Debug, Serialize)]
pub struct TraceSpec {
    /// Number of requests to generate.
    pub requests: usize,
    /// Number of distinct matrices (`matrix` is drawn from `0..n_matrices`).
    pub n_matrices: usize,
    /// Candidate right-hand-side widths (uniformly drawn).
    pub widths: Vec<usize>,
    /// Zipf skew exponent `s` (0 = uniform popularity; ~1 = web-like skew).
    pub zipf_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// How many of the `n_matrices` tenants are *large* (clamped to
    /// `n_matrices`). Large tenants are spread evenly across the
    /// popularity ranks (`k % ceil(n/large) == 0`), not bunched at the hot
    /// or cold end, so sharded and unsharded requests interleave
    /// throughout the trace rather than phase-separating.
    pub large_matrices: usize,
    /// Expected mutations per request (see [`mutation_trace`]). `0.0` (the
    /// default) generates a static trace; `0.1` interleaves roughly one
    /// cell mutation per ten requests, over small and large tenants alike.
    pub mutate_rate: f64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            requests: 256,
            n_matrices: 4,
            widths: vec![8, 16, 32],
            zipf_s: 1.0,
            seed: 42,
            large_matrices: 0,
            mutate_rate: 0.0,
        }
    }
}

/// One cell mutation of a dynamic serving trace, scheduled *before* the
/// request with the same `seq` is submitted.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct TraceMutation {
    /// The request position this mutation lands in front of.
    pub seq: usize,
    /// Index of the target matrix.
    pub matrix: usize,
    /// Target row (within the matrix's dimensions as supplied to
    /// [`mutation_trace`]).
    pub row: usize,
    /// Target column.
    pub col: usize,
    /// New cell value for upserts (small-integer scheme, so every
    /// precision stays bit-exact against the f64 reference). Ignored when
    /// `delete` is set.
    pub value: f64,
    /// Whether the mutation removes the cell instead of upserting it.
    pub delete: bool,
}

/// Which popularity ranks are large: `large` ranks spread evenly over
/// `0..n` (stride `ceil(n/large)`, shortfall filled from the cold end).
/// Rank 0 — the hottest tenant — is always large when any rank is, so
/// sharded traffic stays interleaved with the unsharded stream instead of
/// hiding in the cold tail.
fn large_ranks(n: usize, large: usize) -> Vec<bool> {
    let large = large.min(n);
    let mut flags = vec![false; n];
    if large == 0 {
        return flags;
    }
    let mut marked = 0;
    for k in (0..n).step_by(n.div_ceil(large)) {
        if marked == large {
            break;
        }
        flags[k] = true;
        marked += 1;
    }
    for k in (0..n).rev() {
        if marked == large {
            break;
        }
        if !flags[k] {
            flags[k] = true;
            marked += 1;
        }
    }
    flags
}

/// Generates the trace described by `spec`.
///
/// Guarantees every matrix index appears at least once when
/// `spec.requests >= spec.n_matrices` (the first `n_matrices` requests
/// cycle through all matrices so the registry's cold-miss count is exactly
/// the matrix count), then samples popularity Zipf-style.
///
/// # Panics
/// Panics if the spec has no matrices or no widths.
pub fn serve_trace(spec: &TraceSpec) -> Vec<TraceRequest> {
    assert!(spec.n_matrices > 0, "trace needs at least one matrix");
    assert!(!spec.widths.is_empty(), "trace needs at least one width");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let large = large_ranks(spec.n_matrices, spec.large_matrices);
    // Cumulative Zipf mass over matrix ranks.
    let weights: Vec<f64> = (0..spec.n_matrices)
        .map(|k| 1.0 / ((k + 1) as f64).powf(spec.zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();

    let mut out = Vec::with_capacity(spec.requests);
    for seq in 0..spec.requests {
        let matrix = if seq < spec.n_matrices {
            seq // warm every matrix once, deterministically
        } else {
            let mut p = rng.gen::<f64>() * total;
            let mut pick = spec.n_matrices - 1;
            for (k, w) in weights.iter().enumerate() {
                if p < *w {
                    pick = k;
                    break;
                }
                p -= *w;
            }
            pick
        };
        let n_cols = spec.widths[rng.gen_range(0..spec.widths.len())];
        out.push(TraceRequest {
            seq,
            matrix,
            n_cols,
            large: large[matrix],
        });
    }
    out
}

/// Generates the mutation schedule of a dynamic trace: for each request
/// position an independent Bernoulli draw at [`TraceSpec::mutate_rate`]
/// emits one cell mutation to apply before that request. Targets are drawn
/// Zipf-style over the tenants' popularity ranks (`dims[k]` gives tenant
/// `k`'s `(nrows, ncols)`), so the hottest tenant — large whenever any is —
/// mutates most; roughly one in five mutations is a deletion, the rest
/// upsert small-integer values, so replays stay bit-exact in every
/// precision.
///
/// A separate RNG stream (seed ⊕ a fixed tweak) keeps the request trace
/// byte-identical whether or not mutations are enabled — the dynamic trace
/// is the static trace plus a schedule, not a different trace.
///
/// Returns an empty schedule when the rate is zero.
///
/// # Panics
/// Panics if `dims` has fewer entries than `spec.n_matrices`.
pub fn mutation_trace(spec: &TraceSpec, dims: &[(usize, usize)]) -> Vec<TraceMutation> {
    assert!(
        dims.len() >= spec.n_matrices,
        "need dimensions for all {} tenants, got {}",
        spec.n_matrices,
        dims.len()
    );
    if spec.mutate_rate <= 0.0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (0..spec.n_matrices)
        .map(|k| 1.0 / ((k + 1) as f64).powf(spec.zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x6d75_7461_7465); // "mutate"
    let mut out = Vec::new();
    for seq in 0..spec.requests {
        if rng.gen::<f64>() >= spec.mutate_rate {
            continue;
        }
        let mut p = rng.gen::<f64>() * total;
        let mut pick = spec.n_matrices - 1;
        for (k, w) in weights.iter().enumerate() {
            if p < *w {
                pick = k;
                break;
            }
            p -= *w;
        }
        let matrix = pick;
        let (nrows, ncols) = dims[matrix];
        let delete = rng.gen::<f64>() < 0.2;
        // Small nonzero integers: exact in f16/bf16/f32/f64 alike.
        let value = [-2.0, -1.0, 1.0, 2.0][rng.gen_range(0..4usize)];
        out.push(TraceMutation {
            seq,
            matrix,
            row: rng.gen_range(0..nrows),
            col: rng.gen_range(0..ncols),
            value,
            delete,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let spec = TraceSpec::default();
        assert_eq!(serve_trace(&spec), serve_trace(&spec));
        let other = TraceSpec {
            seed: 7,
            ..TraceSpec::default()
        };
        assert_ne!(serve_trace(&spec), serve_trace(&other));
    }

    #[test]
    fn every_matrix_appears_and_widths_are_from_the_set() {
        let spec = TraceSpec {
            requests: 200,
            n_matrices: 5,
            widths: vec![8, 16],
            zipf_s: 1.2,
            seed: 3,
            large_matrices: 0,
            mutate_rate: 0.0,
        };
        let trace = serve_trace(&spec);
        assert_eq!(trace.len(), 200);
        for m in 0..5 {
            assert!(trace.iter().any(|r| r.matrix == m), "matrix {m} unused");
        }
        assert!(trace.iter().all(|r| r.n_cols == 8 || r.n_cols == 16));
        assert!(trace.iter().all(|r| r.matrix < 5));
        assert_eq!(trace[3].seq, 3);
    }

    #[test]
    fn zipf_skew_favors_rank_zero() {
        let spec = TraceSpec {
            requests: 2000,
            n_matrices: 4,
            widths: vec![8],
            zipf_s: 1.0,
            seed: 11,
            large_matrices: 0,
            mutate_rate: 0.0,
        };
        let trace = serve_trace(&spec);
        let mut counts = [0usize; 4];
        for r in &trace {
            counts[r.matrix] += 1;
        }
        assert!(
            counts[0] > counts[3] * 2,
            "rank 0 must dominate rank 3: {counts:?}"
        );
    }

    #[test]
    fn large_tenants_interleave_with_small_ones() {
        let spec = TraceSpec {
            requests: 400,
            n_matrices: 4,
            widths: vec![8],
            zipf_s: 1.0,
            seed: 9,
            large_matrices: 2,
            mutate_rate: 0.0,
        };
        let trace = serve_trace(&spec);
        // Ranks 0 and 2 are large (stride 2); flags follow the matrix.
        assert!(trace.iter().all(|r| r.large == (r.matrix % 2 == 0)));
        let n_large = trace.iter().filter(|r| r.large).count();
        assert!(
            n_large > 0 && n_large < trace.len(),
            "both kinds must appear: {n_large} large of {}",
            trace.len()
        );
        // Interleaved, not phase-separated: both kinds appear in the
        // steady-state (post-warmup) half of the trace.
        let tail = &trace[trace.len() / 2..];
        assert!(tail.iter().any(|r| r.large));
        assert!(tail.iter().any(|r| !r.large));
        // The hottest tenant is large, so sharded traffic dominates.
        assert!(trace.iter().filter(|r| r.matrix == 0).all(|r| r.large));
    }

    #[test]
    fn large_rank_selection_clamps_and_spreads() {
        assert_eq!(large_ranks(4, 0), vec![false; 4]);
        assert_eq!(large_ranks(4, 2), vec![true, false, true, false]);
        assert_eq!(large_ranks(3, 5), vec![true, true, true], "clamped");
        let six = large_ranks(6, 4);
        assert_eq!(six.iter().filter(|&&f| f).count(), 4);
        assert!(six[0], "rank 0 is always large when any rank is");
    }

    #[test]
    fn mutation_schedule_is_deterministic_and_leaves_requests_unchanged() {
        let static_spec = TraceSpec::default();
        let dynamic_spec = TraceSpec {
            mutate_rate: 0.25,
            ..TraceSpec::default()
        };
        // The request stream is invariant under the mutation rate.
        assert_eq!(serve_trace(&static_spec), serve_trace(&dynamic_spec));
        let dims = vec![(64, 64); 4];
        let muts = mutation_trace(&dynamic_spec, &dims);
        assert_eq!(muts, mutation_trace(&dynamic_spec, &dims), "replayable");
        assert!(!muts.is_empty(), "rate 0.25 over 256 requests must fire");
        assert!(muts.len() < 256);
        for m in &muts {
            assert!(m.matrix < 4);
            assert!(m.row < 64 && m.col < 64);
            assert!(m.seq < 256);
            assert!(m.delete || m.value.abs() == 1.0 || m.value.abs() == 2.0);
        }
        // Sorted by schedule position (construction order).
        assert!(muts.windows(2).all(|w| w[0].seq <= w[1].seq));
        // Zero rate: empty schedule.
        assert!(mutation_trace(&static_spec, &dims).is_empty());
    }

    #[test]
    fn mutations_reach_large_tenants_within_their_dimensions() {
        let spec = TraceSpec {
            requests: 400,
            large_matrices: 2,
            mutate_rate: 0.5,
            ..TraceSpec::default()
        };
        // Ranks 0 and 2 are large (stride 2) and twice the dimension.
        let dims = vec![(128, 128), (64, 64), (128, 128), (64, 64)];
        let muts = mutation_trace(&spec, &dims);
        for k in 0..4 {
            assert!(
                muts.iter().any(|m| m.matrix == k),
                "tenant {k} never mutated"
            );
        }
        assert!(
            muts.iter().any(|m| m.row >= 64),
            "large tenants use their rows"
        );
        for m in &muts {
            assert!(m.row < dims[m.matrix].0 && m.col < dims[m.matrix].1);
        }
        // Which tenants are large only shows through their dimensions.
        let uniform = vec![(64, 64); 4];
        let small = TraceSpec {
            large_matrices: 0,
            ..spec.clone()
        };
        assert_eq!(
            mutation_trace(&small, &uniform),
            mutation_trace(&spec, &uniform)
        );
    }

    #[test]
    #[should_panic(expected = "at least one matrix")]
    fn rejects_empty_matrix_set() {
        let _ = serve_trace(&TraceSpec {
            n_matrices: 0,
            ..TraceSpec::default()
        });
    }
}
