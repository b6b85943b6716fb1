//! Helpers shared by the serve integration tests: deterministic test
//! operands, the process-global-state gate, and the trace-replay driver
//! ([`replay`]).

// Each test binary compiles this module whole but uses only a subset.
#![allow(dead_code)]

pub mod replay;

use std::sync::{Mutex, MutexGuard, PoisonError};

use smat::SmatConfig;
use smat_formats::{Coo, Csr, Dense, Element, Fnv1a, MatrixFingerprint, F16};
use smat_serve::MatrixKey;

/// Five entries per row on a shifted diagonal pattern; the values shift
/// with the pattern.
pub fn matrix(n: usize, shift: usize) -> Csr<F16> {
    pattern(n, shift, shift)
}

/// [`matrix`]'s sparsity pattern with values that ignore the shift.
pub fn matrix_fixed_values(n: usize, shift: usize) -> Csr<F16> {
    pattern(n, shift, 0)
}

fn pattern(n: usize, shift: usize, value_shift: usize) -> Csr<F16> {
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        for j in 0..5 {
            coo.push(
                r,
                (r * 3 + j * 11 + shift) % n,
                F16::from_f64(((r + j + value_shift) % 5) as f64 - 2.0),
            );
        }
    }
    coo.to_csr()
}

/// A `k × n` right-hand side of half-integers in `[-1.5, 1.5]`.
pub fn rhs(k: usize, n: usize, salt: usize) -> Dense<F16> {
    Dense::from_fn(k, n, |i, j| {
        F16::from_f64((((i + 2 * j + salt) % 7) as f64 - 3.0) / 2.0)
    })
}

/// A `k × n` right-hand side of integers in `[-2, 2]`.
pub fn int_rhs(k: usize, n: usize, salt: usize) -> Dense<F16> {
    Dense::from_fn(k, n, |i, j| {
        F16::from_f64(((i + 2 * j + salt) % 5) as f64 - 2.0)
    })
}

/// Request `seq`'s `k × n` panel of half-integers in `[-2, 2]`; the
/// position salts it, so requests differ while replays regenerate
/// identical data.
pub fn panel(k: usize, n: usize, seq: usize) -> Dense<F16> {
    Dense::from_fn(k, n, |i, j| {
        F16::from_f64((((i + 3 * j + 7 * seq) % 9) as f64 - 4.0) / 2.0)
    })
}

/// Request `seq`'s width when a test cycles through 4, 8 and 12 columns.
pub fn width(seq: usize) -> usize {
    4 + (seq % 3) * 4
}

/// FNV-1a over the f64 renderings of `c`'s elements: two equal digests
/// mean bitwise-equal panels.
pub fn digest(c: &Dense<F16>) -> u64 {
    let mut h = Fnv1a::new();
    for v in c.as_slice() {
        h.write_u64(v.to_f64().to_bits());
    }
    h.finish()
}

/// The registry key `a` gets under `cfg`.
pub fn key_of(a: &Csr<F16>, cfg: &SmatConfig) -> MatrixKey {
    MatrixKey::new(MatrixFingerprint::of_csr(a), cfg)
}

/// Serializes the tests of a binary that turns on a process-wide recorder
/// (the tracer, the lock-order engine); the harness runs tests on parallel
/// threads by default, so every test of such a binary holds it.
pub fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}
