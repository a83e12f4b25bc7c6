//! `tb-obs`: lock-free per-worker scheduler tracing and metrics.
//!
//! Every layer of the runtime records fixed-size binary events
//! ([`EventKind`]) into a per-thread bounded ring ([`ring::Ring`]).
//! Recording takes no locks and performs no allocation on the hot path
//! (the ring itself is allocated once, on the thread's first event), and
//! the whole API compiles to empty inline functions when the `trace`
//! cargo feature is off. With the feature on, tracing is still gated by a
//! single relaxed [`enabled`] load, default off — so instrumented code
//! pays one load + branch until someone calls [`set_enabled`]`(true)` or
//! sets `TB_TRACE=1`.
//!
//! Drains export two ways:
//! - [`drain_all`] + [`chrome::chrome_trace_json`]: a Chrome trace-event
//!   JSON document, one track per worker, loadable in Perfetto.
//! - [`metrics_snapshot`]: aggregate per-kind totals, drop counts and
//!   trace bytes, surfaced through `tb-service`'s `ServiceStats`.

pub mod chrome;
pub mod event;
pub mod hist;
#[cfg(feature = "trace")]
pub mod ring;

pub use chrome::chrome_trace_json;
pub use event::{Event, EventKind, Track};
pub use hist::LogHistogram;

/// Per-ring totals reported in [`MetricsSnapshot`].
#[derive(Clone, Debug, Default)]
pub struct RingStat {
    pub name: String,
    pub recorded: u64,
    pub dropped: u64,
}

/// Aggregate tracing totals across every registered ring.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Whether recording is currently enabled (runtime flag).
    pub enabled: bool,
    /// Events ever recorded, summed over rings (exact, monotone).
    pub events_recorded: u64,
    /// Events lost to ring overwrite — committed drops plus the overflow
    /// a drain would discover right now. Nonzero means the trace is a
    /// truncated window, not a complete history.
    pub events_dropped: u64,
    /// Bytes of event storage ever written (`events_recorded * 32`).
    pub trace_bytes: u64,
    /// Exact per-kind totals (only kinds with nonzero counts).
    pub by_kind: Vec<(&'static str, u64)>,
    pub rings: Vec<RingStat>,
}

#[cfg(feature = "trace")]
mod imp {
    use std::cell::OnceCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    use crate::event::{EventKind, Track, KIND_COUNT};
    use crate::ring::Ring;
    use crate::{MetricsSnapshot, RingStat};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    static RING_CAPACITY: AtomicUsize = AtomicUsize::new(8192);
    static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
    static ANON_THREADS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static TL_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    }

    /// The event clock. `Instant::elapsed` costs ~40 ns per call on the
    /// measuring host — comparable to the rest of `record` combined — so
    /// on x86_64 timestamps come from `rdtsc` (a few ns), converted to
    /// nanoseconds with a rate calibrated once, at first enable, against
    /// a ~2 ms `Instant` window (fixed-point: ns-per-tick << 16).
    /// Invariant-TSC hardware keeps the counter synchronized across
    /// cores; if a reading does drift on exotic hardware, the exporter's
    /// per-track (ts, seq) sort still produces a valid document — the
    /// clock's accuracy affects span *lengths*, never safety. Other
    /// arches keep the `Instant` clock.
    #[cfg(target_arch = "x86_64")]
    mod clock {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::time::Instant;

        static BASE: AtomicU64 = AtomicU64::new(0);
        /// Nanoseconds per TSC tick in 16.16 fixed point; 0 = uncalibrated.
        static MULT: AtomicU64 = AtomicU64::new(0);

        #[inline]
        fn tsc() -> u64 {
            // SAFETY: rdtsc has no memory effects and is available on
            // every x86_64 (it predates the 64-bit ISA).
            unsafe { core::arch::x86_64::_rdtsc() }
        }

        /// Calibrate the tick rate (first call only; ~2 ms, off the hot
        /// path — it runs inside `set_enabled(true)`).
        pub fn calibrate() {
            if MULT.load(Ordering::Acquire) != 0 {
                return;
            }
            let t0 = Instant::now();
            let c0 = tsc();
            while t0.elapsed().as_micros() < 2_000 {
                std::hint::spin_loop();
            }
            let ticks = tsc().wrapping_sub(c0).max(1);
            let mult = (t0.elapsed().as_nanos() << 16) / ticks as u128;
            BASE.store(c0, Ordering::Relaxed);
            MULT.store((mult as u64).max(1), Ordering::Release);
        }

        /// Nanoseconds since calibration (0 before first enable).
        #[inline]
        pub fn now_ns() -> u64 {
            let mult = MULT.load(Ordering::Relaxed);
            if mult == 0 {
                return 0;
            }
            let dt = tsc().wrapping_sub(BASE.load(Ordering::Relaxed));
            ((dt as u128 * mult as u128) >> 16) as u64
        }
    }

    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub fn set_enabled(on: bool) {
        if on {
            EPOCH.get_or_init(Instant::now);
            #[cfg(target_arch = "x86_64")]
            clock::calibrate();
        }
        ENABLED.store(on, Ordering::Relaxed);
    }

    pub fn init_from_env() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            if matches!(std::env::var("TB_TRACE").as_deref(), Ok("1") | Ok("true") | Ok("on")) {
                set_enabled(true);
            }
        });
    }

    /// Nanoseconds since the trace epoch (first enable).
    #[inline]
    pub fn now_ns() -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            clock::now_ns()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
        }
    }

    /// Set the per-thread ring capacity (events; rounded up to a power of
    /// two). Applies to rings created after the call.
    pub fn set_ring_capacity(events: usize) {
        RING_CAPACITY.store(events.max(8), Ordering::Relaxed);
    }

    fn new_thread_ring() -> Arc<Ring> {
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{}", ANON_THREADS.fetch_add(1, Ordering::Relaxed)));
        let ring = Arc::new(Ring::new(name, RING_CAPACITY.load(Ordering::Relaxed)));
        REGISTRY.lock().unwrap().push(Arc::clone(&ring));
        ring
    }

    /// Record one event on the calling thread's ring. One relaxed load +
    /// branch when tracing is off; lock-free and allocation-free when on
    /// (the thread's ring is created and registered on its first event —
    /// the only time this path ever takes a lock or allocates).
    #[inline]
    pub fn record(kind: EventKind, arg0: u32, arg: u64) {
        if !enabled() {
            return;
        }
        let ts = now_ns();
        // try_with: a thread recording during TLS teardown just drops the
        // event rather than panicking.
        let _ = TL_RING.try_with(|cell| {
            cell.get_or_init(new_thread_ring).record(ts, kind, arg0, arg);
        });
    }

    /// Drain every registered ring: all events recorded since the last
    /// drain, one [`Track`] per thread (threads that recorded nothing
    /// since are omitted). Rings of exited threads stay registered so
    /// their tail is never lost.
    pub fn drain_all() -> Vec<Track> {
        let rings = REGISTRY.lock().unwrap();
        let mut out = Vec::new();
        for ring in rings.iter() {
            let (events, _lost) = ring.drain();
            if !events.is_empty() {
                out.push(Track { name: ring.name().to_owned(), events });
            }
        }
        out
    }

    pub fn metrics_snapshot() -> MetricsSnapshot {
        let rings = REGISTRY.lock().unwrap();
        let mut snap = MetricsSnapshot { enabled: enabled(), ..Default::default() };
        let mut by_kind = [0u64; KIND_COUNT];
        for ring in rings.iter() {
            let recorded = ring.recorded();
            let dropped = ring.dropped();
            snap.events_recorded += recorded;
            snap.events_dropped += dropped;
            snap.trace_bytes += ring.bytes_recorded();
            for kind in EventKind::ALL {
                by_kind[kind as usize] += ring.kind_count(kind);
            }
            snap.rings.push(RingStat { name: ring.name().to_owned(), recorded, dropped });
        }
        for kind in EventKind::ALL {
            let n = by_kind[kind as usize];
            if n > 0 {
                snap.by_kind.push((kind.name(), n));
            }
        }
        snap
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    //! Feature-off stubs: every entry point is an empty inline function,
    //! so instrumented call sites compile to nothing at all.
    use crate::event::{EventKind, Track};
    use crate::MetricsSnapshot;

    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    pub fn set_enabled(_on: bool) {}

    pub fn init_from_env() {}

    #[inline(always)]
    pub fn now_ns() -> u64 {
        0
    }

    pub fn set_ring_capacity(_events: usize) {}

    #[inline(always)]
    pub fn record(_kind: EventKind, _arg0: u32, _arg: u64) {}

    pub fn drain_all() -> Vec<Track> {
        Vec::new()
    }

    pub fn metrics_snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

pub use imp::{
    drain_all, enabled, init_from_env, metrics_snapshot, now_ns, record, set_enabled, set_ring_capacity,
};

/// Convenience for service stats: `(events_dropped, trace_bytes)`.
pub fn trace_totals() -> (u64, u64) {
    let snap = metrics_snapshot();
    (snap.events_dropped, snap.trace_bytes)
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    // One test fn: the registry and enable flag are process-global, so
    // phases must not interleave with each other.
    #[test]
    fn thread_local_rings_register_and_drain() {
        set_enabled(true);
        let _ = drain_all(); // discard anything earlier tests recorded

        record(EventKind::Spawn, 1, 10);
        record(EventKind::StealHit, 1, 0);
        let h = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                for i in 0..5 {
                    record(EventKind::InjectorPush, 0, i);
                }
            })
            .unwrap();
        h.join().unwrap();

        let tracks = drain_all();
        let worker = tracks.iter().find(|t| t.name == "obs-test-worker").expect("worker track");
        assert_eq!(worker.events.len(), 5);
        assert!(worker.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let mine: u64 = tracks
            .iter()
            .filter(|t| t.name != "obs-test-worker")
            .map(|t| {
                t.events.iter().filter(|e| matches!(e.kind, EventKind::Spawn | EventKind::StealHit)).count()
                    as u64
            })
            .sum();
        assert_eq!(mine, 2);

        let snap = metrics_snapshot();
        assert!(snap.enabled);
        assert!(snap.events_recorded >= 7);
        assert_eq!(snap.trace_bytes, snap.events_recorded * 32);
        assert!(snap.by_kind.iter().any(|&(n, c)| n == "injector_push" && c >= 5));

        // Disabled: recording is a no-op, drains return nothing new.
        set_enabled(false);
        record(EventKind::Spawn, 0, 0);
        assert!(drain_all().is_empty());
    }
}
