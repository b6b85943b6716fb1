//! Seeded inputs: tenant matrices, right-hand-side panels, and the bitwise
//! oracle comparison. Every input is a pure function of the workload seed;
//! nothing here is timed.

use smat_formats::{Csr, Dense, Element, F16};

/// SplitMix64: a cheap, well-mixed 64-bit hash for deriving sub-seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The Table I mimic named `name` at `scale`, with its generator seed
/// salted by the workload seed: each seed draws a fresh instance of the
/// same structure class (the banded mimic has no randomness and repeats).
pub fn mimic(name: &str, seed: u64, scale: f64) -> Csr<F16> {
    let m = smat_workloads::by_name(name).expect("a Table I mimic name");
    smat_workloads::Mimic {
        seed: m.seed ^ mix(seed),
        ..m
    }
    .generate(scale)
}

/// Dense `rows × cols` panel of small integers in `[-3, 3]` keyed by `key`.
/// Small integers keep every product and partial sum exact, so the kernel
/// must match the f64 reference bit for bit.
pub fn panel(rows: usize, cols: usize, key: u64) -> Dense<F16> {
    Dense::from_fn(rows, cols, |i, j| {
        let h = mix(key ^ mix(((i as u64) << 32) | j as u64));
        F16::from_f64((h % 7) as f64 - 3.0)
    })
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Splits `n` into counts proportional to the Zipf(`s`) weights of `ranks`
/// ranks (largest remainder), so every seed draws the same multiset.
pub fn zipf_quota(n: usize, ranks: usize, s: f64) -> Vec<usize> {
    let w: Vec<f64> = (0..ranks).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// One request of a serving trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub seq: usize,
    /// Popularity rank of the target tenant (0 is the hottest).
    pub tenant: usize,
    pub width: usize,
    /// Which of the tenant's precomputed right-hand sides to send.
    pub variant: u64,
}

/// Seed of the request and write order, which is the same for every
/// workload seed: batch composition and registry residency follow the
/// order, and orders drawn per seed moved simulated GFLOP/s by up to 7%
/// and host throughput by far more than run-to-run noise.
const ORDER_SEED: u64 = 0x006f_7264_6572;

/// A Zipf(`s`) trace with fixed proportions and a fixed order: tenant `k`
/// gets its exact [`zipf_quota`] share of `n` requests, each tenant's
/// requests cycle through `widths`, and the workload seed picks only the
/// right-hand-side variants.
pub fn quota_trace(
    n: usize,
    ranks: usize,
    s: f64,
    widths: &[usize],
    variants: u64,
    seed: u64,
) -> Vec<Request> {
    let mut pairs = Vec::with_capacity(n);
    for (tenant, &count) in zipf_quota(n, ranks, s).iter().enumerate() {
        pairs.extend((0..count).map(|j| (tenant, widths[j % widths.len()])));
    }
    shuffle(&mut pairs, ORDER_SEED);
    pairs
        .into_iter()
        .enumerate()
        .map(|(seq, (tenant, width))| Request {
            seq,
            tenant,
            width,
            variant: mix(seed ^ mix(seq as u64)) % variants,
        })
        .collect()
}

/// One cell write scheduled before request `seq`; `value` 0 deletes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mutation {
    pub seq: usize,
    pub tenant: usize,
    pub row: usize,
    pub col: usize,
    pub value: f64,
}

/// `round(rate·n)` cell writes at fixed request positions, spread over the
/// tenants by the same Zipf quota as the requests. Which cells are written
/// and which writes delete (one in five) is fixed too, because compaction
/// decisions follow the overlay's structure; the workload seed picks the
/// small integers the other writes store, exact in every precision.
pub fn quota_mutations(
    n: usize,
    rate: f64,
    dims: &[(usize, usize)],
    s: f64,
    seed: u64,
) -> Vec<Mutation> {
    let m = ((rate * n as f64).round() as usize).min(n);
    let mut positions: Vec<usize> = (0..n).collect();
    shuffle(&mut positions, ORDER_SEED ^ 0x6d75_7461_7465);
    positions.truncate(m);
    positions.sort_unstable();
    let mut tenants = Vec::with_capacity(m);
    for (tenant, &count) in zipf_quota(m, dims.len(), s).iter().enumerate() {
        tenants.extend(std::iter::repeat_n(tenant, count));
    }
    shuffle(&mut tenants, ORDER_SEED ^ 0x7465_6e61_6e74);
    positions
        .into_iter()
        .zip(tenants)
        .map(|(seq, tenant)| {
            let h = mix(ORDER_SEED ^ mix(0x6365_6c6c ^ seq as u64));
            let (rows, cols) = dims[tenant];
            let value = if h.is_multiple_of(5) {
                0.0
            } else {
                [-2.0, -1.0, 1.0, 2.0][(mix(seed ^ h) % 4) as usize]
            };
            Mutation {
                seq,
                tenant,
                row: (mix(h ^ 1) % rows as u64) as usize,
                col: (mix(h ^ 2) % cols as u64) as usize,
                value,
            }
        })
        .collect()
}

/// Bitwise equality of two products (shape and every element's bits).
pub fn same_bits(a: &Dense<F16>, b: &Dense<F16>) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Flips the lowest bit of the first element: the self-test's deliberately
/// corrupted output.
pub fn corrupt(d: &mut Dense<F16>) {
    if let Some(x) = d.as_mut_slice().first_mut() {
        *x = F16::from_bits(x.to_bits() ^ 1);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        assert!(same_bits(&panel(40, 8, 3), &panel(40, 8, 3)));
        assert!(!same_bits(&panel(40, 8, 3), &panel(40, 8, 4)));
        let a = mimic("cant", 1, 0.01);
        assert_eq!(a, mimic("cant", 1, 0.01));
        assert_ne!(a, mimic("cant", 2, 0.01));
    }

    #[test]
    fn quota_traces_fix_mix_and_order_and_seed_the_data() {
        let a = quota_trace(100, 9, 1.0, &[8, 16, 32], 4, 1);
        let b = quota_trace(100, 9, 1.0, &[8, 16, 32], 4, 2);
        let shape = |t: &[Request]| t.iter().map(|r| (r.tenant, r.width)).collect::<Vec<_>>();
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(a, b);
        assert_eq!(zipf_quota(100, 9, 1.0).iter().sum::<usize>(), 100);
        let muts = quota_mutations(100, 0.3, &[(10, 10); 4], 0.5, 3);
        assert_eq!(muts.len(), 30);
        assert!(muts.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(muts.iter().all(|m| m.row < 10 && m.col < 10));
        let other = quota_mutations(100, 0.3, &[(10, 10); 4], 0.5, 4);
        assert!(muts
            .iter()
            .zip(&other)
            .all(|(x, y)| (x.seq, x.tenant, x.row, x.col) == (y.seq, y.tenant, y.row, y.col)));
        assert!(muts
            .iter()
            .zip(&other)
            .all(|(x, y)| (x.value == 0.0) == (y.value == 0.0)));
        assert!(muts.iter().zip(&other).any(|(x, y)| x.value != y.value));
    }

    #[test]
    fn corruption_is_caught_bitwise() {
        let p = panel(16, 8, 9);
        let mut q = p.clone();
        corrupt(&mut q);
        assert!(!same_bits(&p, &q));
    }
}
