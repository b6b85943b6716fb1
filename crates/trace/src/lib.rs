//! `smat-trace`: low-overhead structured tracing and metrics for the whole
//! SMaT stack.
//!
//! The paper's argument is an attribution argument — Eq. (1) splits total
//! time into per-block work and startup cost, and §VI narrates *where
//! cycles go* matrix by matrix. This crate makes those attributions
//! first-class at runtime instead of end-of-run aggregates:
//!
//! * **Two clocks.** Host monotonic time for what the CPU did (prepare
//!   phases, admission, queue waits) and simulated GPU time for what the
//!   modeled device did (launches, per-SM busy segments). See
//!   [`event::Track`].
//! * **Lock-free hot path.** Recording appends to a per-thread buffer;
//!   buffers batch into shared slots at span boundaries. With tracing off,
//!   every instrumentation site costs a single relaxed atomic load
//!   ([`enabled`]).
//! * **Exporters.** [`chrome_trace_json`] emits Chrome Trace Event JSON
//!   (loadable in Perfetto / `chrome://tracing`, with devices and SMs as
//!   tracks); [`summary_table`] renders a per-span roll-up for terminals.
//!
//! Instrumentation lives in `smat` (pipeline phases), `smat-gpusim`
//! (per-launch, per-SM sim-time segments), and `smat-serve` (request
//! lifecycle). Enable with [`enable`] or the `--trace <path>` flag of the
//! `reproduce` harness; consume with [`drain`] → [`chrome_trace_json`].
//! See DESIGN.md §11 for the model.
//!
//! ```
//! use smat_trace as trace;
//!
//! trace::enable();
//! {
//!     let mut span = trace::span("bcsr_convert", "pipeline");
//!     span.arg("nblocks", 42u64);
//! } // records on drop
//! let events = trace::drain();
//! assert_eq!(events.len(), 1);
//! let json = trace::chrome_trace_json(&events);
//! assert!(json.contains("bcsr_convert"));
//! trace::disable();
//! ```

pub mod chrome;
pub mod event;
pub mod recorder;
pub mod summary;

pub use chrome::chrome_trace_json;
pub use event::{ArgValue, Phase, TraceEvent, Track};
pub use recorder::{
    complete_from, disable, drain, enable, enabled, flush_current_thread, host_now_ns, instant,
    record_launch, reset, span, thread_names, SpanGuard, TraceHandle,
};
pub use summary::{span_stats, summary_table, SpanStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// The recorder is process-global, so tests share state; this guard
    /// serializes them and resets between runs.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        enable();
        g
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = serial();
        disable();
        {
            let _s = span("ignored", "test");
        }
        instant("ignored", "test", Vec::new());
        record_launch(0, "ignored", 100, &[50], Vec::new());
        assert!(drain().is_empty());
    }

    #[test]
    fn span_guard_records_complete_event_with_args() {
        let _g = serial();
        {
            let mut s = span("work", "test");
            s.arg("n", 8u64);
            std::thread::sleep(Duration::from_millis(2));
        }
        let events = drain();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "work");
        assert_eq!(e.cat, "test");
        assert_eq!(e.phase, Phase::Complete);
        assert!(e.dur_ns >= 1_000_000, "span of >=2ms, got {}ns", e.dur_ns);
        assert_eq!(e.args, vec![("n", ArgValue::U64(8))]);
        assert!(matches!(e.track, Track::Host { .. }));
        disable();
    }

    #[test]
    fn nested_spans_nest_in_time() {
        let _g = serial();
        {
            let _outer = span("outer", "test");
            std::thread::sleep(Duration::from_millis(1));
            let _inner = span("inner", "test");
        }
        let events = drain();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
        disable();
    }

    #[test]
    fn launches_advance_the_device_sim_cursor() {
        let _g = serial();
        record_launch(3, "k1", 1000, &[400, 0, 600], Vec::new());
        record_launch(3, "k2", 500, &[500], Vec::new());
        let events = drain();
        let device: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.track, Track::Device { device: 3 }))
            .collect();
        assert_eq!(device.len(), 2);
        assert_eq!((device[0].ts_ns, device[0].dur_ns), (0, 1000));
        assert_eq!((device[1].ts_ns, device[1].dur_ns), (1000, 500));
        // SM segments: zero-busy SMs are skipped.
        let sms: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.track, Track::Sm { device: 3, .. }))
            .collect();
        assert_eq!(sms.len(), 3);
        disable();
    }

    #[test]
    fn cross_thread_events_are_drained_after_join() {
        let _g = serial();
        let h = std::thread::spawn(|| {
            let _s = span("worker", "test");
        });
        h.join().unwrap();
        let events = drain();
        assert!(events.iter().any(|e| e.name == "worker"));
        disable();
    }

    #[test]
    fn complete_from_uses_the_caller_start_time() {
        let _g = serial();
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(3));
        complete_from("waited", "test", start, vec![("seq", 7u64.into())]);
        let events = drain();
        assert_eq!(events.len(), 1);
        assert!(events[0].dur_ns >= 2_000_000);
        disable();
    }

    #[test]
    fn chrome_export_is_loadable_shape() {
        let _g = serial();
        {
            let _s = span("phase", "pipeline");
        }
        record_launch(0, "kernel", 2000, &[1000, 1000], Vec::new());
        let events = drain();
        let json = chrome_trace_json(&events);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("device 0 (sim)"));
        assert!(json.contains("SM 1"));
        disable();
    }

    #[test]
    fn summary_groups_by_category_and_name() {
        let _g = serial();
        {
            let _a = span("alpha", "test");
        }
        {
            let _a = span("alpha", "test");
        }
        record_launch(0, "kernel", 1_000_000, &[1_000_000], Vec::new());
        let events = drain();
        let stats = span_stats(&events);
        assert_eq!(stats[&("test".into(), "alpha".into())].count, 2);
        assert_eq!(stats[&("sim".into(), "kernel".into())].count, 1);
        let table = summary_table(&events);
        assert!(table.contains("alpha"));
        assert!(table.contains("device 0"));
        disable();
    }
}
