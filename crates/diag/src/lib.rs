//! # smat-diag
//!
//! The typed-diagnostic core shared by every static-analysis pass in the
//! workspace: the format verifiers (`smat-formats`/`smat-analyze`), the
//! kernel-schedule hazard analyzer (`smat-analyze`), and the pipeline
//! pre-flight hook (`smat`).
//!
//! A [`Diagnostic`] is a machine-readable finding: a stable [`DiagCode`]
//! (`F###` for format invariants, `S###` for schedule hazards, `C###` for
//! concurrency findings from `smat-sanitize`), a [`Severity`], a structured
//! [`Location`], and a human-readable message.
//! Diagnostics serialize to JSON through the workspace serde shim so tools
//! can consume `--format json` output of the analyzer CLI.

#![forbid(unsafe_code)]

use serde::Serialize;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Informational: worth reporting, never blocks anything.
    Note,
    /// Suspicious but executable: the launch can run, likely slower or with
    /// higher risk than intended (e.g. bank-conflicted smem layout).
    Warning,
    /// A violated invariant: executing would compute garbage, panic, or
    /// exceed a hard device limit. Pre-flight rejects on any error.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.
///
/// `F###` codes are structural/format invariants; `S###` codes are
/// kernel-schedule hazards; `C###` codes are concurrency findings from the
/// `smat-sanitize` lock-order analysis and interleaving model checker.
/// Codes are append-only: once published, a code keeps its meaning so
/// downstream tooling can match on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
#[non_exhaustive]
pub enum DiagCode {
    // --- format invariants (F0xx) ---
    /// Row/panel/column pointer array has the wrong length.
    RowPtrLength,
    /// Pointer array does not start at 0.
    RowPtrStart,
    /// Pointer array does not end at the entry count.
    RowPtrEnd,
    /// Pointer array decreases somewhere.
    RowPtrNonMonotone,
    /// A column index is out of range.
    ColIdxOutOfBounds,
    /// Column indices within a row are not strictly increasing (unsorted or
    /// duplicated).
    ColIdxUnsorted,
    /// Index and value array lengths disagree.
    ArityMismatch,
    /// A stored payload value is NaN or infinite.
    NonFinitePayload,
    /// Matrix dimensions are inconsistent with each other or with an
    /// operand (e.g. `A.ncols != B.nrows`).
    DimensionMismatch,
    /// A block dimension (height, width, vector length, or stride) is zero.
    BlockDimZero,
    /// Recorded scalar nonzero count disagrees with the stored payload.
    NnzInconsistent,
    /// A permutation image is out of range.
    PermOutOfRange,
    /// A permutation maps two sources to the same image.
    PermDuplicate,
    /// A permutation's length disagrees with the dimension it permutes.
    PermLengthMismatch,
    /// A padding slot that must be zero holds a nonzero value.
    PaddingNotZero,
    /// A COO entry lies outside the matrix dimensions.
    EntryOutOfBounds,
    /// Duplicate COO coordinates (legal before `compact`, suspicious after).
    DuplicateEntry,
    /// A packed block row's decoded block count (bitmap popcount or varint
    /// entry count) disagrees with the stored block count from `row_ptr`.
    PackedPopcountMismatch,
    /// A packed block row's delta stream decodes a zero gap (non-monotone
    /// block columns) or a column out of range.
    PackedDeltaNonMonotone,
    /// A packed index stream slice is structurally corrupt: truncated
    /// varint, or offsets that are non-monotone / run past the stream.
    PackedStreamCorrupt,

    // --- kernel-schedule hazards (S0xx) ---
    /// Per-block shared memory request exceeds the SM's capacity.
    SmemOverflow,
    /// Declared `footprint_bytes` is smaller than what the kernel's operands
    /// actually occupy — the OOM check would pass vacuously.
    FootprintUnderreported,
    /// The working set exceeds device memory.
    DeviceOom,
    /// Explicit warp→SM assignment length disagrees with the warp count
    /// (unmapped or phantom warps).
    AssignmentLength,
    /// An assignment entry names an SM the device does not have (the engine
    /// would silently wrap it modulo `num_sms`).
    AssignmentSmOutOfRange,
    /// The assignment leaves some SMs idle while others are oversubscribed.
    AssignmentImbalance,
    /// The staged-tile shared memory layout exposes `ldmatrix` bank
    /// conflicts.
    BankConflict,
    /// Async pipelining declared with a stage depth that cannot overlap
    /// copy and compute.
    AsyncNoDoubleBuffer,
    /// Shared memory budget only covers a single stage buffer although the
    /// copy mode is async-pipelined: commits serialize on one buffer.
    AsyncSmemSingleBuffered,
    /// Pipeline stage depth exceeds the block-row iteration count: the
    /// pipeline never fills and prologue latency dominates.
    AsyncStagesExceedWork,

    // --- concurrency findings (C0xx, from smat-sanitize) ---
    /// The accumulated lock-order graph contains a cycle: two (or more)
    /// locks are acquired in contradicting orders on different code paths —
    /// a potential AB-BA deadlock.
    LockOrderCycle,
    /// `Condvar::wait` was entered while a *different* mutex was still
    /// held: the sleeping thread keeps that lock, so the thread meant to
    /// signal it can deadlock against it.
    CondvarWaitHoldingLock,
    /// A blocking wait that is not a condvar on the held mutex (thread
    /// park, oneshot/channel receive) was entered while a lock was held.
    LockHeldAcrossPark,
    /// A thread re-acquired a non-reentrant lock it already holds
    /// (self-deadlock with `std`-style mutexes).
    DoubleAcquire,
    /// The model checker found a schedule in which every live thread is
    /// blocked on a lock or join — a reachable deadlock.
    ModelDeadlock,
    /// The model checker found a schedule in which every live thread is
    /// parked on a condvar with no pending notify — a lost wakeup.
    ModelLostWakeup,
    /// A model-checked execution panicked (a protocol invariant asserted
    /// inside the model body failed under some schedule).
    ModelInvariantViolation,
    /// The model checker hit its schedule budget before exhausting the
    /// state space; remaining schedules were sampled by random walk only.
    ModelExplorationTruncated,
}

impl DiagCode {
    /// The stable short code (`F001`, `S003`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::RowPtrLength => "F001",
            DiagCode::RowPtrStart => "F002",
            DiagCode::RowPtrEnd => "F003",
            DiagCode::RowPtrNonMonotone => "F004",
            DiagCode::ColIdxOutOfBounds => "F005",
            DiagCode::ColIdxUnsorted => "F006",
            DiagCode::ArityMismatch => "F007",
            DiagCode::NonFinitePayload => "F008",
            DiagCode::DimensionMismatch => "F009",
            DiagCode::BlockDimZero => "F010",
            DiagCode::NnzInconsistent => "F011",
            DiagCode::PermOutOfRange => "F012",
            DiagCode::PermDuplicate => "F013",
            DiagCode::PermLengthMismatch => "F014",
            DiagCode::PaddingNotZero => "F015",
            DiagCode::EntryOutOfBounds => "F016",
            DiagCode::DuplicateEntry => "F017",
            DiagCode::PackedPopcountMismatch => "F018",
            DiagCode::PackedDeltaNonMonotone => "F019",
            DiagCode::PackedStreamCorrupt => "F020",
            DiagCode::SmemOverflow => "S001",
            DiagCode::FootprintUnderreported => "S002",
            DiagCode::DeviceOom => "S003",
            DiagCode::AssignmentLength => "S004",
            DiagCode::AssignmentSmOutOfRange => "S005",
            DiagCode::AssignmentImbalance => "S006",
            DiagCode::BankConflict => "S007",
            DiagCode::AsyncNoDoubleBuffer => "S008",
            DiagCode::AsyncSmemSingleBuffered => "S009",
            DiagCode::AsyncStagesExceedWork => "S010",
            DiagCode::LockOrderCycle => "C001",
            DiagCode::CondvarWaitHoldingLock => "C002",
            DiagCode::LockHeldAcrossPark => "C003",
            DiagCode::DoubleAcquire => "C004",
            DiagCode::ModelDeadlock => "C005",
            DiagCode::ModelLostWakeup => "C006",
            DiagCode::ModelInvariantViolation => "C007",
            DiagCode::ModelExplorationTruncated => "C008",
        }
    }

    /// The default severity findings with this code carry.
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::AssignmentImbalance
            | DiagCode::BankConflict
            | DiagCode::AsyncSmemSingleBuffered
            | DiagCode::AsyncStagesExceedWork
            | DiagCode::DuplicateEntry
            | DiagCode::LockHeldAcrossPark => Severity::Warning,
            DiagCode::ModelExplorationTruncated => Severity::Note,
            _ => Severity::Error,
        }
    }
}

impl std::fmt::Display for DiagCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in a structure (or schedule) a finding points.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub enum Location {
    /// No specific location (whole-structure findings).
    Whole,
    /// Index into a row/panel pointer array.
    RowPtr {
        /// Array index.
        index: usize,
    },
    /// A row (or block row / panel) of the matrix.
    Row {
        /// Row index.
        row: usize,
    },
    /// Flat position in an index or value array.
    Pos {
        /// Array position.
        pos: usize,
    },
    /// Index into a permutation vector.
    Perm {
        /// Permutation source index.
        index: usize,
    },
    /// A warp of the launch grid.
    Warp {
        /// Flat warp id.
        warp: usize,
    },
    /// A streaming multiprocessor.
    Sm {
        /// SM index.
        sm: usize,
    },
    /// A named scalar field of a config structure.
    Field {
        /// Field name.
        name: &'static str,
    },
    /// A named lock (mutex/rwlock) tracked by the sanitizer.
    Lock {
        /// The lock's label (or `mutex#<id>` when unlabeled).
        name: String,
    },
    /// A model-checker thread.
    Thread {
        /// Model thread index (0 = the model body's root thread).
        thread: usize,
    },
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Whole => write!(f, "-"),
            Location::RowPtr { index } => write!(f, "row_ptr[{index}]"),
            Location::Row { row } => write!(f, "row {row}"),
            Location::Pos { pos } => write!(f, "pos {pos}"),
            Location::Perm { index } => write!(f, "perm[{index}]"),
            Location::Warp { warp } => write!(f, "warp {warp}"),
            Location::Sm { sm } => write!(f, "sm {sm}"),
            Location::Field { name } => write!(f, "{name}"),
            Location::Lock { name } => write!(f, "lock {name}"),
            Location::Thread { thread } => write!(f, "thread t{thread}"),
        }
    }
}

/// One machine-readable finding of a static-analysis pass.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable code identifying the invariant or hazard class.
    pub code: DiagCode,
    /// Severity of the finding.
    pub severity: Severity,
    /// Structured location of the finding.
    pub location: Location,
    /// Human-readable explanation with the concrete offending values.
    pub message: String,
}

impl Diagnostic {
    /// A finding at `code`'s default severity.
    pub fn new(code: DiagCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            location,
            message: message.into(),
        }
    }

    /// A finding with an explicit severity override.
    pub fn with_severity(
        code: DiagCode,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            location,
            message: message.into(),
        }
    }

    /// Whether the finding blocks execution.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] at {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// Convenience queries over a batch of findings.
pub trait DiagnosticsExt {
    /// Whether any finding is an [`Severity::Error`].
    fn has_errors(&self) -> bool;
    /// Number of error-severity findings.
    fn error_count(&self) -> usize;
    /// The distinct codes present, in first-seen order.
    fn codes(&self) -> Vec<DiagCode>;
}

impl DiagnosticsExt for [Diagnostic] {
    fn has_errors(&self) -> bool {
        self.iter().any(Diagnostic::is_error)
    }

    fn error_count(&self) -> usize {
        self.iter().filter(|d| d.is_error()).count()
    }

    fn codes(&self) -> Vec<DiagCode> {
        let mut out = Vec::new();
        for d in self {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_typed() {
        let d = Diagnostic::new(
            DiagCode::RowPtrNonMonotone,
            Location::RowPtr { index: 3 },
            "row_ptr decreases: 7 -> 5",
        );
        assert_eq!(
            d.to_string(),
            "error [F004] at row_ptr[3]: row_ptr decreases: 7 -> 5"
        );
        assert!(d.is_error());
    }

    #[test]
    fn codes_are_unique() {
        let all = [
            DiagCode::RowPtrLength,
            DiagCode::RowPtrStart,
            DiagCode::RowPtrEnd,
            DiagCode::RowPtrNonMonotone,
            DiagCode::ColIdxOutOfBounds,
            DiagCode::ColIdxUnsorted,
            DiagCode::ArityMismatch,
            DiagCode::NonFinitePayload,
            DiagCode::DimensionMismatch,
            DiagCode::BlockDimZero,
            DiagCode::NnzInconsistent,
            DiagCode::PermOutOfRange,
            DiagCode::PermDuplicate,
            DiagCode::PermLengthMismatch,
            DiagCode::PaddingNotZero,
            DiagCode::EntryOutOfBounds,
            DiagCode::DuplicateEntry,
            DiagCode::PackedPopcountMismatch,
            DiagCode::PackedDeltaNonMonotone,
            DiagCode::PackedStreamCorrupt,
            DiagCode::SmemOverflow,
            DiagCode::FootprintUnderreported,
            DiagCode::DeviceOom,
            DiagCode::AssignmentLength,
            DiagCode::AssignmentSmOutOfRange,
            DiagCode::AssignmentImbalance,
            DiagCode::BankConflict,
            DiagCode::AsyncNoDoubleBuffer,
            DiagCode::AsyncSmemSingleBuffered,
            DiagCode::AsyncStagesExceedWork,
            DiagCode::LockOrderCycle,
            DiagCode::CondvarWaitHoldingLock,
            DiagCode::LockHeldAcrossPark,
            DiagCode::DoubleAcquire,
            DiagCode::ModelDeadlock,
            DiagCode::ModelLostWakeup,
            DiagCode::ModelInvariantViolation,
            DiagCode::ModelExplorationTruncated,
        ];
        let strs: std::collections::HashSet<&str> = all.iter().map(|c| c.as_str()).collect();
        assert_eq!(strs.len(), all.len());
    }

    #[test]
    fn concurrency_codes_have_the_c_prefix_and_expected_severities() {
        let c = [
            DiagCode::LockOrderCycle,
            DiagCode::CondvarWaitHoldingLock,
            DiagCode::LockHeldAcrossPark,
            DiagCode::DoubleAcquire,
            DiagCode::ModelDeadlock,
            DiagCode::ModelLostWakeup,
            DiagCode::ModelInvariantViolation,
            DiagCode::ModelExplorationTruncated,
        ];
        for code in c {
            assert!(code.as_str().starts_with('C'), "{code}");
        }
        assert_eq!(
            DiagCode::LockHeldAcrossPark.default_severity(),
            Severity::Warning
        );
        assert_eq!(
            DiagCode::ModelExplorationTruncated.default_severity(),
            Severity::Note
        );
        assert_eq!(DiagCode::LockOrderCycle.default_severity(), Severity::Error);
        assert_eq!(
            Diagnostic::new(
                DiagCode::LockOrderCycle,
                Location::Lock {
                    name: "registry.entries".into()
                },
                "cycle: registry.entries -> slot.waiters -> registry.entries",
            )
            .to_string(),
            "error [C001] at lock registry.entries: cycle: registry.entries -> \
             slot.waiters -> registry.entries"
        );
    }

    #[test]
    fn serializes_to_json() {
        let d = Diagnostic::new(
            DiagCode::SmemOverflow,
            Location::Field {
                name: "shared_bytes_per_block",
            },
            "needs 200000 B, SM has 164 KiB",
        );
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"SmemOverflow\""), "{json}");
        assert!(json.contains("\"Error\""), "{json}");
    }

    #[test]
    fn batch_queries() {
        let batch = [
            Diagnostic::new(DiagCode::BankConflict, Location::Whole, "w"),
            Diagnostic::new(DiagCode::DeviceOom, Location::Whole, "e"),
            Diagnostic::new(DiagCode::DeviceOom, Location::Whole, "e2"),
        ];
        assert!(batch.has_errors());
        assert_eq!(batch.error_count(), 2);
        assert_eq!(
            batch.codes(),
            vec![DiagCode::BankConflict, DiagCode::DeviceOom]
        );
    }
}
