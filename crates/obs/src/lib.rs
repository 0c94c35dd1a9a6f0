//! `cati-obs` — telemetry for the CATI pipeline.
//!
//! Three layers, all dependency-free (vendored `serde`/`serde_json`
//! only) and safe to leave permanently wired into hot paths:
//!
//! - **Structured tracing**: [`SpanGuard`] / [`span!`] time nested
//!   regions (`train.stage2_2`) and report them as typed
//!   [`Event::SpanClose`] events; nesting is tracked per thread, so
//!   spans opened on rayon-shim workers stay isolated.
//! - **Metrics registry** ([`metrics::Metrics`]): monotonic counters,
//!   gauges, and fixed-bucket histograms (non-finite observations
//!   land in an `invalid` bucket instead of panicking), snapshotted
//!   into a serializable [`metrics::MetricsSnapshot`].
//! - **Run manifests** ([`manifest`], [`recorder::Recorder`]): every
//!   instrumented run can write a `results/runs/<name>.jsonl` capturing
//!   config, seed, git revision, per-stage timings, per-epoch losses,
//!   and final metrics; `cati report` renders and diffs them.
//!
//! Instrumented code talks to a single [`Observer`] trait object. The
//! default [`NullObserver`] makes every event a no-op virtual call, so
//! telemetry never perturbs determinism (observers only *read* the
//! computation) and costs ≈nothing when disabled.

// The crate is `forbid(unsafe_code)` except under `alloc-profile`,
// whose `GlobalAlloc` impl requires two audited `unsafe` blocks that
// delegate straight to `System` (see `alloc.rs`).
#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-profile", deny(unsafe_code))]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

#[cfg(feature = "alloc-profile")]
pub mod alloc;
pub mod chrome_trace;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod prometheus;
pub mod recorder;

pub use manifest::{git_rev, peak_rss_bytes, Manifest};
pub use metrics::{Metrics, MetricsSnapshot};
pub use profile::SpanTree;
pub use recorder::{LogFormat, Recorder, RecorderConfig};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Severity of a [`Event::Message`], ordered most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error,
    /// Suspicious but survivable conditions.
    Warn,
    /// Progress lines a user running `--log-level info` wants.
    Info,
    /// High-volume detail (span opens, counter ticks).
    Debug,
}

impl Level {
    /// Parses a `--log-level` argument (defaults to `Info` for
    /// unknown input).
    pub fn parse(s: &str) -> Level {
        match s {
            "error" => Level::Error,
            "warn" => Level::Warn,
            "debug" => Level::Debug,
            _ => Level::Info,
        }
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// One typed telemetry event. Borrowed payloads keep emission
/// allocation-free on hot paths; observers that retain events copy
/// what they need.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A span began (`path` is the dot-joined nesting path).
    SpanOpen {
        /// Full dot-joined span path.
        path: &'a str,
    },
    /// A span finished after `nanos` nanoseconds.
    SpanClose {
        /// Full dot-joined span path.
        path: &'a str,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
        /// Heap bytes allocated on this thread while the span was the
        /// innermost open span (0 unless the `alloc-profile` feature
        /// is enabled).
        alloc_bytes: u64,
        /// Heap allocation count attributed like `alloc_bytes`.
        alloc_count: u64,
    },
    /// A monotonic counter increment.
    Counter {
        /// Registry name of the counter.
        name: &'static str,
        /// Amount to add.
        delta: u64,
    },
    /// A gauge assignment (last write wins).
    Gauge {
        /// Registry name of the gauge.
        name: &'static str,
        /// New value.
        value: f64,
    },
    /// Declares a histogram's bucket bounds before first observation
    /// (idempotent; the first registration wins).
    RegisterHistogram {
        /// Registry name of the histogram.
        name: &'static str,
        /// Ascending inclusive upper bucket bounds.
        bounds: &'a [f64],
    },
    /// One histogram observation.
    Observe {
        /// Registry name of the histogram.
        name: &'static str,
        /// Observed value (non-finite values count as `invalid`).
        value: f64,
    },
    /// Mean training loss of one stage epoch.
    EpochLoss {
        /// Stage name (e.g. `stage2_2`).
        stage: &'a str,
        /// Zero-based epoch index.
        epoch: usize,
        /// Mean per-sample loss.
        loss: f64,
    },
    /// Global gradient L2 norm of one minibatch (only computed when
    /// [`Observer::wants_batch_stats`] returns true).
    GradNorm {
        /// Stage name.
        stage: &'a str,
        /// Zero-based minibatch index within the epoch.
        batch: usize,
        /// L2 norm over all parameter gradients.
        norm: f64,
    },
    /// A human-readable progress line.
    Message {
        /// Severity.
        level: Level,
        /// The line (no trailing newline).
        text: &'a str,
    },
}

/// Receives telemetry events from instrumented code.
///
/// Implementations must be cheap and side-effect-free with respect to
/// the computation being observed: training and inference results are
/// bit-identical whatever observer is installed.
pub trait Observer: Send + Sync {
    /// Handles one event.
    fn event(&self, event: &Event<'_>);

    /// Whether instrumented code should compute optional, costly
    /// per-batch statistics (gradient norms). The default `false`
    /// keeps the no-op path free of extra arithmetic.
    fn wants_batch_stats(&self) -> bool {
        false
    }
}

/// The zero-cost default observer: every event is discarded.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn event(&self, _event: &Event<'_>) {}
}

/// A ready-made `&'static dyn`-able no-op observer, for call sites
/// that don't care about telemetry: `Cati::train(.., &cati_obs::NOOP)`.
pub static NOOP: NullObserver = NullObserver;

/// An observer that forwards human-readable [`Event::Message`] lines
/// to a closure and ignores everything else — the adapter for legacy
/// `FnMut(&str)`-style progress callbacks (made `Fn` by the shared
/// observer contract).
pub struct FnObserver<F: Fn(&str) + Send + Sync>(pub F);

impl<F: Fn(&str) + Send + Sync> Observer for FnObserver<F> {
    fn event(&self, event: &Event<'_>) {
        if let Event::Message { text, .. } = event {
            (self.0)(text);
        }
    }
}

/// One open span on a thread's stack. Under `alloc-profile` each
/// frame also tracks heap activity attributed to it while it is the
/// *innermost* open span: `self_*` accumulates finished slices, and
/// `mark_*` remembers the thread counters when this frame last became
/// innermost (on its own entry, or when a child closed).
struct SpanFrame {
    path: String,
    #[cfg(feature = "alloc-profile")]
    self_bytes: u64,
    #[cfg(feature = "alloc-profile")]
    self_count: u64,
    #[cfg(feature = "alloc-profile")]
    mark_bytes: u64,
    #[cfg(feature = "alloc-profile")]
    mark_count: u64,
}

thread_local! {
    /// Per-thread stack of open span frames. Worker threads spawned by
    /// the rayon shim start with an empty stack, so their spans root
    /// at their own names and never interleave with other threads'.
    static SPAN_STACK: RefCell<Vec<SpanFrame>> = const { RefCell::new(Vec::new()) };
}

static NEXT_THREAD_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// A small positive integer identifying the calling thread, stable for
/// the thread's lifetime and dense across the process (first caller
/// gets 1). Used by [`Recorder`] to stamp span records with a thread
/// identity the Chrome-trace exporter can lane spans by; unlike
/// `std::thread::ThreadId` it serializes naturally.
pub fn thread_token() -> u64 {
    THREAD_TOKEN.with(|token| {
        if token.get() == 0 {
            token.set(NEXT_THREAD_TOKEN.fetch_add(1, Ordering::Relaxed));
        }
        token.get()
    })
}

/// An RAII timer for one span: emits [`Event::SpanOpen`] on entry and
/// [`Event::SpanClose`] with the elapsed time on drop. Nest guards
/// lexically; the dot-joined path records the nesting.
pub struct SpanGuard<'a> {
    obs: &'a dyn Observer,
    path: String,
    start: Instant,
}

impl<'a> SpanGuard<'a> {
    /// Opens a span named `name` under the thread's current span (if
    /// any).
    pub fn enter(obs: &'a dyn Observer, name: &str) -> SpanGuard<'a> {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            #[cfg(feature = "alloc-profile")]
            let (now_count, now_bytes) = alloc::thread_counters();
            #[cfg(feature = "alloc-profile")]
            if let Some(top) = stack.last_mut() {
                // The parent stops being innermost: bank its slice.
                top.self_bytes += now_bytes.saturating_sub(top.mark_bytes);
                top.self_count += now_count.saturating_sub(top.mark_count);
            }
            let path = match stack.last() {
                Some(parent) => format!("{}.{name}", parent.path),
                None => name.to_string(),
            };
            stack.push(SpanFrame {
                path: path.clone(),
                #[cfg(feature = "alloc-profile")]
                self_bytes: 0,
                #[cfg(feature = "alloc-profile")]
                self_count: 0,
                #[cfg(feature = "alloc-profile")]
                mark_bytes: now_bytes,
                #[cfg(feature = "alloc-profile")]
                mark_count: now_count,
            });
            path
        });
        obs.event(&Event::SpanOpen { path: &path });
        SpanGuard {
            obs,
            path,
            start: Instant::now(),
        }
    }

    /// The full dot-joined path of this span.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        #[allow(unused_mut)]
        let mut alloc_totals = (0u64, 0u64);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            #[cfg(feature = "alloc-profile")]
            let (now_count, now_bytes) = alloc::thread_counters();
            // Guards drop LIFO in normal use; tolerate out-of-order
            // drops by removing the matching entry wherever it is.
            if let Some(i) = stack.iter().rposition(|f| f.path == self.path) {
                #[allow(clippy::let_underscore_untyped)]
                let _frame = stack.remove(i);
                #[cfg(feature = "alloc-profile")]
                {
                    alloc_totals = (
                        _frame
                            .self_bytes
                            .wrapping_add(now_bytes.saturating_sub(_frame.mark_bytes)),
                        _frame
                            .self_count
                            .wrapping_add(now_count.saturating_sub(_frame.mark_count)),
                    );
                    if let Some(top) = stack.last_mut() {
                        // The parent is innermost again: restart its
                        // slice at the current counters.
                        top.mark_bytes = now_bytes;
                        top.mark_count = now_count;
                    }
                }
            }
        });
        self.obs.event(&Event::SpanClose {
            path: &self.path,
            nanos,
            alloc_bytes: alloc_totals.0,
            alloc_count: alloc_totals.1,
        });
    }
}

#[cfg(all(test, feature = "alloc-profile"))]
#[global_allocator]
static TEST_COUNTING_ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Opens a [`SpanGuard`] with a format-string name:
/// `let _g = span!(obs, "train.{stage}");`.
#[macro_export]
macro_rules! span {
    ($obs:expr, $($fmt:tt)+) => {
        $crate::SpanGuard::enter($obs, &format!($($fmt)+))
    };
}

/// Emits an [`Event::Message`] with format-string text:
/// `info!(obs, "extracted {n} VUCs");`.
#[macro_export]
macro_rules! info {
    ($obs:expr, $($fmt:tt)+) => {
        $crate::Observer::event($obs, &$crate::Event::Message {
            level: $crate::Level::Info,
            text: &format!($($fmt)+),
        })
    };
}

/// Emits a [`Level::Warn`] [`Event::Message`] with format-string
/// text: `warn!(obs, "cache write failed: {e}");`.
#[macro_export]
macro_rules! warn {
    ($obs:expr, $($fmt:tt)+) => {
        $crate::Observer::event($obs, &$crate::Event::Message {
            level: $crate::Level::Warn,
            text: &format!($($fmt)+),
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Capture(Mutex<Vec<String>>);

    impl Observer for Capture {
        fn event(&self, event: &Event<'_>) {
            if let Event::SpanClose { path, .. } = event {
                self.0.lock().unwrap().push(path.to_string());
            }
        }
    }

    #[test]
    fn spans_nest_lexically() {
        let cap = Capture::default();
        {
            let _a = SpanGuard::enter(&cap, "outer");
            {
                let _b = span!(&cap, "inner{}", 1);
            }
        }
        let got = cap.0.lock().unwrap().clone();
        assert_eq!(got, vec!["outer.inner1".to_string(), "outer".to_string()]);
    }

    /// A 1 MiB `Vec` allocated while `outer.inner` is the innermost
    /// open span must be charged to it — not to `outer`, whose
    /// self-allocation only covers its own bookkeeping.
    #[cfg(feature = "alloc-profile")]
    #[test]
    fn allocations_attribute_to_the_innermost_span() {
        #[derive(Default)]
        struct AllocCapture(Mutex<Vec<(String, u64, u64)>>);
        impl Observer for AllocCapture {
            fn event(&self, event: &Event<'_>) {
                if let Event::SpanClose {
                    path,
                    alloc_bytes,
                    alloc_count,
                    ..
                } = event
                {
                    self.0
                        .lock()
                        .unwrap()
                        .push((path.to_string(), *alloc_bytes, *alloc_count));
                }
            }
        }
        const BIG: usize = 1 << 20;
        let cap = AllocCapture::default();
        {
            let _outer = SpanGuard::enter(&cap, "alloc_outer");
            {
                let _inner = SpanGuard::enter(&cap, "alloc_inner");
                let v: Vec<u8> = Vec::with_capacity(BIG);
                drop(v);
            }
        }
        let got = cap.0.lock().unwrap().clone();
        let inner = got
            .iter()
            .find(|(p, ..)| p == "alloc_outer.alloc_inner")
            .expect("inner span close");
        let outer = got
            .iter()
            .find(|(p, ..)| p == "alloc_outer")
            .expect("outer span close");
        assert!(
            inner.1 >= BIG as u64,
            "inner span owns the {BIG}-byte Vec, saw {} bytes",
            inner.1
        );
        assert!(inner.2 >= 1, "inner span saw no allocations");
        assert!(
            outer.1 < BIG as u64,
            "outer self-allocation ({} bytes) must exclude the child's Vec",
            outer.1
        );
    }

    #[test]
    fn fn_observer_receives_messages_only() {
        let lines = Mutex::new(Vec::new());
        let obs = FnObserver(|s: &str| lines.lock().unwrap().push(s.to_string()));
        obs.event(&Event::Counter {
            name: "x",
            delta: 1,
        });
        info!(&obs, "hello {}", 42);
        assert_eq!(lines.into_inner().unwrap(), vec!["hello 42".to_string()]);
    }
}
