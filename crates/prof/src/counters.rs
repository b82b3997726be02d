//! The process-wide profiling registry: typed counters, peak gauges, and
//! per-stage timer accumulators behind relaxed atomics.
//!
//! Everything recorded here is *scheduling-dependent* — which thread won
//! a lock, which worker pulled which item, how long a stage took — so
//! none of it may enter the deterministic trace/obs stream (see
//! `webiq_trace::metrics` for that contract). The registry is a single
//! `static`: instrumentation sites anywhere in the workspace call the
//! free functions ([`incr`], [`add`], [`record_peak`],
//! [`record_worker`]) without any plumbing, and measurement tools take
//! [`snapshot`]s or [`reset`] between runs. All operations are relaxed
//! atomic adds/maxes: wait-free, allocation-free, and cheap enough to
//! stay always-on (the `overhead` bench holds the total under 1% of
//! acquisition wall-clock).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of [`ProfCounter`] variants (the fixed registry size).
pub const NUM_PROF_COUNTERS: usize = 15;

/// Every profiling counter, in serialization order. The `WorkerMax*`
/// variants are *peaks* (merged by maximum, exported as gauges); all
/// others are monotonic tallies (exported as counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProfCounter {
    /// Cache-shard lock acquisitions (every `lock_shard` call).
    ShardLockAcquire,
    /// Shard acquisitions that found the lock held (`try_lock` failed
    /// and the caller blocked).
    ShardLockContended,
    /// Snippet-cache lookups served from the LRU.
    SearchCacheHit,
    /// Snippet-cache lookups that missed.
    SearchCacheMiss,
    /// Snippet-cache inserts that evicted an LRU entry.
    SearchCacheEvict,
    /// Hit-count-cache lookups served from the sharded map.
    HitCacheHit,
    /// Hit-count-cache lookups that missed.
    HitCacheMiss,
    /// Parsed-query-cache lookups served from the LRU.
    ParseCacheHit,
    /// Parsed-query-cache lookups that missed.
    ParseCacheMiss,
    /// Parsed-query-cache inserts that evicted an LRU entry.
    ParseCacheEvict,
    /// Acquisition worker loops completed (sequential runs count one).
    WorkerRuns,
    /// Work items processed across all workers.
    WorkerItems,
    /// Engine queries issued across all workers.
    WorkerQueries,
    /// Peak: most items processed by any single worker.
    WorkerMaxItems,
    /// Peak: most engine queries issued by any single worker.
    WorkerMaxQueries,
}

impl ProfCounter {
    /// All counters, in serialization order.
    pub const ALL: [ProfCounter; NUM_PROF_COUNTERS] = [
        ProfCounter::ShardLockAcquire,
        ProfCounter::ShardLockContended,
        ProfCounter::SearchCacheHit,
        ProfCounter::SearchCacheMiss,
        ProfCounter::SearchCacheEvict,
        ProfCounter::HitCacheHit,
        ProfCounter::HitCacheMiss,
        ProfCounter::ParseCacheHit,
        ProfCounter::ParseCacheMiss,
        ProfCounter::ParseCacheEvict,
        ProfCounter::WorkerRuns,
        ProfCounter::WorkerItems,
        ProfCounter::WorkerQueries,
        ProfCounter::WorkerMaxItems,
        ProfCounter::WorkerMaxQueries,
    ];

    /// The counter's stable snake_case name (the `webiq_prof_*` series
    /// name minus the prefix).
    pub fn name(self) -> &'static str {
        match self {
            ProfCounter::ShardLockAcquire => "lock_shard_acquire",
            ProfCounter::ShardLockContended => "lock_shard_contended",
            ProfCounter::SearchCacheHit => "search_cache_hit",
            ProfCounter::SearchCacheMiss => "search_cache_miss",
            ProfCounter::SearchCacheEvict => "search_cache_evict",
            ProfCounter::HitCacheHit => "hit_cache_hit",
            ProfCounter::HitCacheMiss => "hit_cache_miss",
            ProfCounter::ParseCacheHit => "parse_cache_hit",
            ProfCounter::ParseCacheMiss => "parse_cache_miss",
            ProfCounter::ParseCacheEvict => "parse_cache_evict",
            ProfCounter::WorkerRuns => "worker_runs",
            ProfCounter::WorkerItems => "worker_items",
            ProfCounter::WorkerQueries => "worker_queries",
            ProfCounter::WorkerMaxItems => "worker_max_items",
            ProfCounter::WorkerMaxQueries => "worker_max_queries",
        }
    }

    /// Inverse of [`ProfCounter::name`].
    pub fn from_name(name: &str) -> Option<ProfCounter> {
        ProfCounter::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Is this a peak (max-merged) counter rather than a monotonic tally?
    pub fn is_peak(self) -> bool {
        matches!(
            self,
            ProfCounter::WorkerMaxItems | ProfCounter::WorkerMaxQueries
        )
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Number of [`Stage`] variants.
pub const NUM_STAGES: usize = 7;

/// The pipeline stages the timing plane attributes wall-clock to, in
/// serialization order. Stages may nest ([`Stage::Probe`] time is also
/// inside [`Stage::Borrow`]; every engine round-trip is inside whichever
/// stage issued it), so shares are reported against the tree, not summed
/// across all stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// A cache-missing engine query (index matching + simulated
    /// round-trip), inside whichever component issued it.
    EngineQuery,
    /// Surface-Web instance discovery (§2): extraction queries and
    /// candidate harvesting, including verification.
    Extract,
    /// The §2.2 verification phase: outlier removal + PMI validation.
    Verify,
    /// Deep-Web borrow validation of one candidate attribute (§4).
    Borrow,
    /// Attr-Surface naive-Bayes validation of borrowed values (§3).
    Bayes,
    /// One Deep-Web probe submission (inside [`Stage::Borrow`]).
    Probe,
    /// The matcher's agglomerative cluster-merge loop (§5).
    ClusterMerge,
}

impl Stage {
    /// All stages, in serialization order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::EngineQuery,
        Stage::Extract,
        Stage::Verify,
        Stage::Borrow,
        Stage::Bayes,
        Stage::Probe,
        Stage::ClusterMerge,
    ];

    /// The stage's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::EngineQuery => "engine_query",
            Stage::Extract => "extract",
            Stage::Verify => "verify",
            Stage::Borrow => "borrow",
            Stage::Bayes => "bayes",
            Stage::Probe => "probe",
            Stage::ClusterMerge => "cluster_merge",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// The registry's storage: one relaxed atomic per counter, plus a
/// nanosecond accumulator and a call tally per stage.
struct Registry {
    counts: [AtomicU64; NUM_PROF_COUNTERS],
    stage_nanos: [AtomicU64; NUM_STAGES],
    stage_calls: [AtomicU64; NUM_STAGES],
}

/// The single process-wide registry. A `static` (not a `OnceLock`): the
/// instrumentation sits on lock/cache hot paths where even a
/// load-and-branch per call would be measurable, and the zero state is
/// `const`-constructible.
static REGISTRY: Registry = Registry {
    counts: [const { AtomicU64::new(0) }; NUM_PROF_COUNTERS],
    stage_nanos: [const { AtomicU64::new(0) }; NUM_STAGES],
    stage_calls: [const { AtomicU64::new(0) }; NUM_STAGES],
};

/// Add 1 to `c`.
#[inline]
pub fn incr(c: ProfCounter) {
    REGISTRY.counts[c.idx()].fetch_add(1, Ordering::Relaxed);
}

/// Add `n` to `c`.
#[inline]
pub fn add(c: ProfCounter, n: u64) {
    REGISTRY.counts[c.idx()].fetch_add(n, Ordering::Relaxed);
}

/// Raise the peak counter `c` to at least `v` (no-op when `v` is below
/// the recorded peak). Intended for the `WorkerMax*` variants but safe
/// on any counter.
#[inline]
pub fn record_peak(c: ProfCounter, v: u64) {
    REGISTRY.counts[c.idx()].fetch_max(v, Ordering::Relaxed);
}

/// Record one finished acquisition worker loop: its item and query
/// totals feed both the sums and the peaks, from which a profile report
/// derives mean load and imbalance.
pub fn record_worker(items: u64, queries: u64) {
    incr(ProfCounter::WorkerRuns);
    add(ProfCounter::WorkerItems, items);
    add(ProfCounter::WorkerQueries, queries);
    record_peak(ProfCounter::WorkerMaxItems, items);
    record_peak(ProfCounter::WorkerMaxQueries, queries);
}

/// Credit `nanos` of wall-clock (and one call) to `stage`. Called by
/// [`crate::timing::time`]; public so the timing module stays the only
/// place that *reads* clocks while the accumulator lives here.
#[inline]
pub fn record_stage(stage: Stage, nanos: u64) {
    REGISTRY.stage_nanos[stage.idx()].fetch_add(nanos, Ordering::Relaxed);
    REGISTRY.stage_calls[stage.idx()].fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time copy of the whole registry.
pub fn snapshot() -> ProfSnapshot {
    let mut s = ProfSnapshot::new();
    for (v, a) in s.counts.iter_mut().zip(REGISTRY.counts.iter()) {
        *v = a.load(Ordering::Relaxed);
    }
    for (v, a) in s.stage_nanos.iter_mut().zip(REGISTRY.stage_nanos.iter()) {
        *v = a.load(Ordering::Relaxed);
    }
    for (v, a) in s.stage_calls.iter_mut().zip(REGISTRY.stage_calls.iter()) {
        *v = a.load(Ordering::Relaxed);
    }
    s
}

/// Zero every counter and stage accumulator. For single-purpose
/// measurement processes (the `experiments profile` sweep resets between
/// thread counts); long-lived services should diff [`snapshot`]s instead.
pub fn reset() {
    for a in &REGISTRY.counts {
        a.store(0, Ordering::Relaxed);
    }
    for a in &REGISTRY.stage_nanos {
        a.store(0, Ordering::Relaxed);
    }
    for a in &REGISTRY.stage_calls {
        a.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the profiling registry: counter values plus
/// per-stage nanosecond and call accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfSnapshot {
    counts: [u64; NUM_PROF_COUNTERS],
    stage_nanos: [u64; NUM_STAGES],
    stage_calls: [u64; NUM_STAGES],
}

impl ProfSnapshot {
    /// An all-zero snapshot.
    pub const fn new() -> Self {
        ProfSnapshot {
            counts: [0; NUM_PROF_COUNTERS],
            stage_nanos: [0; NUM_STAGES],
            stage_calls: [0; NUM_STAGES],
        }
    }

    /// Current value of `c`.
    pub fn get(&self, c: ProfCounter) -> u64 {
        self.counts[c.idx()]
    }

    /// Set `c` to `v` — for building snapshots from parsed artifacts
    /// (Prometheus text, `PROF_BASELINE.json` sweep points).
    pub fn set(&mut self, c: ProfCounter, v: u64) {
        self.counts[c.idx()] = v;
    }

    /// Set stage `s`'s accumulators — the parsing counterpart of
    /// [`ProfSnapshot::stage_nanos`] / [`ProfSnapshot::stage_calls`].
    pub fn set_stage(&mut self, s: Stage, nanos: u64, calls: u64) {
        self.stage_nanos[s.idx()] = nanos;
        self.stage_calls[s.idx()] = calls;
    }

    /// Accumulated wall-clock nanoseconds of `s`.
    pub fn stage_nanos(&self, s: Stage) -> u64 {
        self.stage_nanos[s.idx()]
    }

    /// Accumulated wall-clock of `s`, in seconds.
    pub fn stage_secs(&self, s: Stage) -> f64 {
        self.stage_nanos(s) as f64 / 1e9
    }

    /// Number of timed calls recorded under `s`.
    pub fn stage_calls(&self, s: Stage) -> u64 {
        self.stage_calls[s.idx()]
    }

    /// True when nothing has been recorded.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&v| v == 0)
            && self.stage_nanos.iter().all(|&v| v == 0)
            && self.stage_calls.iter().all(|&v| v == 0)
    }

    /// Activity between `earlier` and `self`: tallies and stage
    /// accumulators subtract (saturating); peak counters keep `self`'s
    /// value — a peak is not recoverable over a sub-interval, and the
    /// later peak is the tightest bound available.
    pub fn diff(&self, earlier: &ProfSnapshot) -> ProfSnapshot {
        let mut out = *self;
        for &c in &ProfCounter::ALL {
            if !c.is_peak() {
                out.set(c, self.get(c).saturating_sub(earlier.get(c)));
            }
        }
        for (o, b) in out.stage_nanos.iter_mut().zip(earlier.stage_nanos.iter()) {
            *o = o.saturating_sub(*b);
        }
        for (o, b) in out.stage_calls.iter_mut().zip(earlier.stage_calls.iter()) {
            *o = o.saturating_sub(*b);
        }
        out
    }

    /// Fraction of shard-lock acquisitions that found the lock held, in
    /// `[0, 1]` (0 when no acquisitions were recorded).
    pub fn contention_ratio(&self) -> f64 {
        ratio(
            self.get(ProfCounter::ShardLockContended),
            self.get(ProfCounter::ShardLockAcquire),
        )
    }

    /// Cache hit rate of the named hit/miss pair, in `[0, 1]`.
    pub fn hit_rate(&self, hit: ProfCounter, miss: ProfCounter) -> f64 {
        ratio(self.get(hit), self.get(hit) + self.get(miss))
    }

    /// Worker load imbalance: `max_items / mean_items − 1`, so 0 means
    /// perfectly even and 1 means the busiest worker did twice the mean.
    /// 0 when fewer than two worker loops were recorded.
    pub fn imbalance(&self) -> f64 {
        let runs = self.get(ProfCounter::WorkerRuns);
        let items = self.get(ProfCounter::WorkerItems);
        if runs < 2 || items == 0 {
            return 0.0;
        }
        let mean = items as f64 / runs as f64;
        (self.get(ProfCounter::WorkerMaxItems) as f64 / mean - 1.0).max(0.0)
    }

    /// Total wall-clock credited to all stages, in nanoseconds. Stages
    /// nest, so this over-counts relative to elapsed time; useful only
    /// as an upper bound (e.g. the overhead bench's op budget).
    pub fn total_stage_nanos(&self) -> u64 {
        self.stage_nanos
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Render as Prometheus text: `webiq_prof_*_total` counters,
    /// `webiq_prof_worker_max_*` peak gauges, and per-stage
    /// `webiq_prof_stage_<name>_{nanos,calls}_total` accumulators.
    /// Families appear in fixed order with zero values included, so
    /// equal snapshots render byte-identically.
    pub fn render_prom(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &c in &ProfCounter::ALL {
            let name = c.name();
            if c.is_peak() {
                let _ = writeln!(out, "# TYPE webiq_prof_{name} gauge");
                let _ = writeln!(out, "webiq_prof_{name} {}", self.get(c));
            } else {
                let _ = writeln!(out, "# TYPE webiq_prof_{name}_total counter");
                let _ = writeln!(out, "webiq_prof_{name}_total {}", self.get(c));
            }
        }
        for &s in &Stage::ALL {
            let name = s.name();
            let _ = writeln!(out, "# TYPE webiq_prof_stage_{name}_nanos_total counter");
            let _ = writeln!(
                out,
                "webiq_prof_stage_{name}_nanos_total {}",
                self.stage_nanos(s)
            );
            let _ = writeln!(out, "# TYPE webiq_prof_stage_{name}_calls_total counter");
            let _ = writeln!(
                out,
                "webiq_prof_stage_{name}_calls_total {}",
                self.stage_calls(s)
            );
        }
        out
    }

    /// Parse the `webiq_prof_*` series out of Prometheus text (a
    /// `/metrics` scrape or a [`ProfSnapshot::render_prom`] file).
    /// Comment lines, non-prof families, and malformed values are
    /// skipped — absent series simply stay zero.
    pub fn from_prom_text(text: &str) -> ProfSnapshot {
        let mut s = ProfSnapshot::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((name, value)) = line.split_once(' ') else {
                continue;
            };
            let Ok(v) = value.trim().parse::<u64>() else {
                continue;
            };
            let Some(rest) = name.strip_prefix("webiq_prof_") else {
                continue;
            };
            if let Some(stage_part) = rest.strip_prefix("stage_") {
                if let Some(stage) = stage_part
                    .strip_suffix("_nanos_total")
                    .and_then(Stage::from_name)
                {
                    s.stage_nanos[stage.idx()] = v;
                } else if let Some(stage) = stage_part
                    .strip_suffix("_calls_total")
                    .and_then(Stage::from_name)
                {
                    s.stage_calls[stage.idx()] = v;
                }
            } else if let Some(c) = rest
                .strip_suffix("_total")
                .and_then(ProfCounter::from_name)
                .or_else(|| ProfCounter::from_name(rest).filter(|c| c.is_peak()))
            {
                s.set(c, v);
            }
        }
        s
    }
}

/// `n / d` as a ratio, 0 when the denominator is 0.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests that reset it must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn names_roundtrip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &c in &ProfCounter::ALL {
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
            assert_eq!(ProfCounter::from_name(c.name()), Some(c));
        }
        assert_eq!(ProfCounter::ALL.len(), NUM_PROF_COUNTERS);
        for &s in &Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::ALL.len(), NUM_STAGES);
        assert_eq!(ProfCounter::from_name("nope"), None);
        assert_eq!(Stage::from_name("nope"), None);
    }

    #[test]
    fn incr_add_peak_and_reset() {
        let _g = lock();
        reset();
        incr(ProfCounter::ShardLockAcquire);
        add(ProfCounter::ShardLockAcquire, 4);
        record_peak(ProfCounter::WorkerMaxItems, 9);
        record_peak(ProfCounter::WorkerMaxItems, 3); // below peak: no-op
        record_stage(Stage::Extract, 1_000);
        let s = snapshot();
        assert_eq!(s.get(ProfCounter::ShardLockAcquire), 5);
        assert_eq!(s.get(ProfCounter::WorkerMaxItems), 9);
        assert_eq!(s.stage_nanos(Stage::Extract), 1_000);
        assert_eq!(s.stage_calls(Stage::Extract), 1);
        assert!((s.stage_secs(Stage::Extract) - 1e-6).abs() < 1e-15);
        reset();
        assert!(snapshot().is_zero());
    }

    #[test]
    fn record_worker_feeds_sums_and_peaks() {
        let _g = lock();
        reset();
        record_worker(10, 100);
        record_worker(4, 20);
        let s = snapshot();
        assert_eq!(s.get(ProfCounter::WorkerRuns), 2);
        assert_eq!(s.get(ProfCounter::WorkerItems), 14);
        assert_eq!(s.get(ProfCounter::WorkerQueries), 120);
        assert_eq!(s.get(ProfCounter::WorkerMaxItems), 10);
        assert_eq!(s.get(ProfCounter::WorkerMaxQueries), 100);
        // mean items = 7, max = 10 -> imbalance = 10/7 - 1
        assert!((s.imbalance() - (10.0 / 7.0 - 1.0)).abs() < 1e-12);
        reset();
    }

    #[test]
    fn diff_subtracts_tallies_and_keeps_peaks() {
        let mut a = ProfSnapshot::new();
        a.set(ProfCounter::ShardLockAcquire, 10);
        a.set(ProfCounter::WorkerMaxItems, 5);
        let mut b = ProfSnapshot::new();
        b.set(ProfCounter::ShardLockAcquire, 25);
        b.set(ProfCounter::WorkerMaxItems, 8);
        b.stage_nanos[Stage::Verify as usize] = 300;
        let d = b.diff(&a);
        assert_eq!(d.get(ProfCounter::ShardLockAcquire), 15);
        assert_eq!(d.get(ProfCounter::WorkerMaxItems), 8); // peak kept
        assert_eq!(d.stage_nanos(Stage::Verify), 300);
        // saturation, never wrap
        assert_eq!(a.diff(&b).get(ProfCounter::ShardLockAcquire), 0);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = ProfSnapshot::new();
        assert_eq!(s.contention_ratio(), 0.0);
        assert_eq!(
            s.hit_rate(ProfCounter::SearchCacheHit, ProfCounter::SearchCacheMiss),
            0.0
        );
        assert_eq!(s.imbalance(), 0.0);
        let mut s = ProfSnapshot::new();
        s.set(ProfCounter::ShardLockAcquire, 8);
        s.set(ProfCounter::ShardLockContended, 2);
        assert!((s.contention_ratio() - 0.25).abs() < 1e-12);
        s.set(ProfCounter::SearchCacheHit, 3);
        s.set(ProfCounter::SearchCacheMiss, 1);
        assert!(
            (s.hit_rate(ProfCounter::SearchCacheHit, ProfCounter::SearchCacheMiss) - 0.75).abs()
                < 1e-12
        );
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut s = ProfSnapshot::new();
        s.set(ProfCounter::ShardLockAcquire, 42);
        s.set(ProfCounter::SearchCacheEvict, 7);
        s.set(ProfCounter::WorkerMaxQueries, 99);
        s.stage_nanos[Stage::EngineQuery as usize] = 123_456;
        s.stage_calls[Stage::EngineQuery as usize] = 78;
        let text = s.render_prom();
        assert!(text.contains("# TYPE webiq_prof_lock_shard_acquire_total counter\n"));
        assert!(text.contains("webiq_prof_lock_shard_acquire_total 42\n"));
        assert!(text.contains("# TYPE webiq_prof_worker_max_queries gauge\n"));
        assert!(text.contains("webiq_prof_worker_max_queries 99\n"));
        assert!(text.contains("webiq_prof_stage_engine_query_nanos_total 123456\n"));
        assert!(text.contains("webiq_prof_stage_engine_query_calls_total 78\n"));
        // zero-valued families are present, not skipped
        assert!(text.contains("webiq_prof_hit_cache_miss_total 0\n"));
        assert_eq!(ProfSnapshot::from_prom_text(&text), s);
        // equal snapshots render byte-identically
        assert_eq!(s.render_prom(), s.render_prom());
    }

    #[test]
    fn parse_skips_foreign_and_malformed_lines() {
        let text = "\
# HELP something
webiq_items_total 5
webiq_prof_lock_shard_acquire_total notanumber
webiq_prof_lock_shard_contended_total 3
webiq_prof_stage_bogus_nanos_total 9
garbage
";
        let s = ProfSnapshot::from_prom_text(text);
        assert_eq!(s.get(ProfCounter::ShardLockContended), 3);
        assert_eq!(s.get(ProfCounter::ShardLockAcquire), 0);
        for &stage in &Stage::ALL {
            assert_eq!(s.stage_nanos(stage), 0);
        }
    }

    #[test]
    fn total_stage_nanos_sums_all_stages() {
        let mut s = ProfSnapshot::new();
        s.stage_nanos[Stage::Extract as usize] = 10;
        s.stage_nanos[Stage::Probe as usize] = 32;
        assert_eq!(s.total_stage_nanos(), 42);
    }
}
