//! The live metrics registry the pipeline publishes into.
//!
//! [`LiveRegistry`] is the bridge between the acquisition pipeline's
//! deterministic merge loop and the `/metrics` endpoint: as each work
//! item's thread-local delta is merged (in attribute order), the loop
//! also calls [`LiveRegistry::publish_item`]; at each epoch boundary it
//! calls [`LiveRegistry::end_epoch`]. Because the registry only ever
//! sees those deterministic deltas — never raw worker-thread or engine
//! cache state — a scrape taken after a run completes is byte-identical
//! at any worker count.
//!
//! Counters live in a lock-free [`SharedMetrics`]; gauges, histograms,
//! and the sliding window sit behind one mutex taken only on publish and
//! scrape (both far off the per-query hot path — the `overhead` bench
//! pins the publish cost under 1% of acquisition wall-clock).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use webiq_trace::{Gauge, GaugeSet, HistSet, MetricSet, SharedMetrics};

use crate::prom;
use crate::window::WindowedMetrics;

/// Epochs a registry's sliding window spans by default.
pub const DEFAULT_WINDOW: usize = 8;

/// Recover a mutex guard even if a panicking thread poisoned the lock —
/// the registry stays scrapeable (this library never panics).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// State behind the registry's single mutex: everything that is not a
/// plain counter.
#[derive(Debug)]
struct Inner {
    gauges: GaugeSet,
    hists: HistSet,
    window: WindowedMetrics,
    epochs: u64,
}

/// Aggregated live metrics, fed by the pipeline and scraped by
/// [`crate::MetricsServer`].
#[derive(Debug)]
pub struct LiveRegistry {
    counters: SharedMetrics,
    items: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for LiveRegistry {
    fn default() -> Self {
        LiveRegistry::new()
    }
}

impl LiveRegistry {
    /// A registry with the [`DEFAULT_WINDOW`]-epoch sliding window.
    pub fn new() -> Self {
        LiveRegistry::with_window(DEFAULT_WINDOW)
    }

    /// A registry whose sliding window spans `window` epochs.
    pub fn with_window(window: usize) -> Self {
        LiveRegistry {
            counters: SharedMetrics::new(),
            items: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                gauges: GaugeSet::new(),
                hists: HistSet::new(),
                window: WindowedMetrics::new(window),
                epochs: 0,
            }),
        }
    }

    /// Fold one completed work item's counter and histogram deltas into
    /// the registry. Called from the pipeline's merge loop, once per
    /// item, in deterministic order.
    pub fn publish_item(&self, counters: &MetricSet, hists: &HistSet) {
        self.counters.merge(counters);
        if hists != &HistSet::new() {
            lock(&self.inner).hists.merge(hists);
        }
        self.items.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a dataset-shape gauge (max-merged, like the tracer's).
    pub fn gauge(&self, g: Gauge, v: u64) {
        lock(&self.inner).gauges.set(g, v);
    }

    /// Mark an epoch boundary (one domain's acquisition finished): the
    /// current cumulative counters enter the sliding window.
    pub fn end_epoch(&self) {
        let snap = self.counters.snapshot();
        let mut inner = lock(&self.inner);
        inner.window.push(snap);
        inner.epochs = inner.epochs.saturating_add(1);
    }

    /// Work items published so far.
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// A coherent copy of everything the registry holds.
    pub fn snapshot(&self) -> RegistrySnapshot {
        // Counters first: a concurrent publish between the two reads can
        // only make counters *older* than the locked state, never ahead
        // of histograms they belong with after the run has quiesced.
        let counters = self.counters.snapshot();
        let items = self.items();
        let inner = lock(&self.inner);
        RegistrySnapshot {
            counters,
            gauges: inner.gauges,
            hists: inner.hists,
            window_delta: inner.window.delta(),
            window_epochs: inner.window.len(),
            epochs: inner.epochs,
            items,
        }
    }

    /// The registry rendered in Prometheus text exposition format.
    ///
    /// This render is a pure function of the published deltas — it is
    /// what deterministic artifacts (baselines, trace-diff inputs) must
    /// be built from.
    pub fn render(&self) -> String {
        prom::render(&self.snapshot())
    }

    /// [`render`](LiveRegistry::render) plus the process-wide profiling
    /// appendix (`webiq_prof_*` families from [`webiq_prof::snapshot`]).
    ///
    /// The appendix reports scheduling-dependent facts — lock
    /// contention, cache traffic, per-stage wall-clock — so this render
    /// is **not** deterministic across runs or thread counts. It is what
    /// the live `/metrics` endpoint serves; anything that needs
    /// byte-stable output must use [`render`](LiveRegistry::render) or
    /// strip the `webiq_prof_` families from a scrape.
    pub fn render_live(&self) -> String {
        let mut out = self.render();
        out.push_str(&webiq_prof::snapshot().render_prom());
        out
    }
}

/// A point-in-time copy of a [`LiveRegistry`], ready for rendering.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Cumulative counters.
    pub counters: MetricSet,
    /// Dataset-shape gauges (max-merged).
    pub gauges: GaugeSet,
    /// Cumulative histograms.
    pub hists: HistSet,
    /// Counter deltas across the sliding window.
    pub window_delta: MetricSet,
    /// Epochs the window currently covers.
    pub window_epochs: usize,
    /// Epoch boundaries seen over the registry's lifetime.
    pub epochs: u64,
    /// Work items published.
    pub items: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_trace::{Counter, HistKey};

    #[test]
    fn publish_accumulates_counters_hists_and_items() {
        let reg = LiveRegistry::new();
        let mut m = MetricSet::new();
        m.add(Counter::ProbesIssued, 3);
        let mut h = HistSet::new();
        h.observe(HistKey::ProbesPerAttr, 3);
        reg.publish_item(&m, &h);
        reg.publish_item(&m, &HistSet::new());
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get(Counter::ProbesIssued), 6);
        assert_eq!(snap.hists.count(HistKey::ProbesPerAttr), 1);
        assert_eq!(snap.items, 2);
    }

    #[test]
    fn gauges_max_merge() {
        let reg = LiveRegistry::new();
        reg.gauge(Gauge::Interfaces, 5);
        reg.gauge(Gauge::Interfaces, 3);
        assert_eq!(reg.snapshot().gauges.get(Gauge::Interfaces), 5);
    }

    #[test]
    fn epochs_feed_the_window() {
        let reg = LiveRegistry::with_window(2);
        let mut m = MetricSet::new();
        m.add(Counter::AttrsTotal, 4);
        reg.publish_item(&m, &HistSet::new());
        reg.end_epoch();
        reg.publish_item(&m, &HistSet::new());
        reg.end_epoch();
        let snap = reg.snapshot();
        assert_eq!(snap.epochs, 2);
        assert_eq!(snap.window_epochs, 2);
        assert_eq!(snap.window_delta.get(Counter::AttrsTotal), 8);
    }
}
