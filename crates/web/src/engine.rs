//! The search-engine façade: `search` and `num_hits` over the index.
//!
//! This is the interface WebIQ's components program against — the same
//! surface the paper used via Google's Web API: top-k result *snippets*
//! for extraction queries and *hit counts* for validation queries. Query
//! traffic is counted so the overhead analysis (Fig. 8) can report the
//! number of search-engine round-trips per component.
//!
//! The engine is fully `Sync` and designed to be shared across the
//! parallel acquisition workers (see DESIGN.md, "Parallel acquisition
//! architecture"):
//!
//! - the hit-count cache is sharded N ways so unrelated queries never
//!   contend on one lock;
//! - search results and parsed queries sit behind bounded LRU caches
//!   storing `Arc`s, so repeated extraction queries are served without
//!   re-matching or re-parsing;
//! - every issued query additionally bumps the `webiq-trace`
//!   *thread-local* counters ([`Counter::EngineSearchIssued`] /
//!   [`Counter::EngineHitIssued`]), so a worker can measure exactly the
//!   queries its own work item issued, independent of cache state or
//!   scheduling — the basis of the deterministic per-component cost
//!   accounting in `webiq-core`. Cache hit/miss tallies, which *do*
//!   depend on scheduling, live only in the process-wide `webiq-prof`
//!   registry (which also attributes evictions and times cache-missing
//!   queries) and never enter the deterministic trace stream. A cache hit
//!   rate is `1 - misses / issued`: the prof miss delta over the
//!   thread-local issued count;
//! - a [`QueryBatch`] of queries that are all known before the first is
//!   sent can be fetched up front with [`QueryEngine::prefetch`], which
//!   overlaps its simulated round-trips (8 in flight) so the scorer's
//!   one-by-one calls that follow all hit the cache.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use webiq_prof::{ProfCounter, Stage};
use webiq_trace::Counter;

use crate::cache::{ShardedLru, ShardedMap};
use crate::corpus::Corpus;
use crate::error::WebError;
use crate::index::InvertedIndex;
use crate::query::{self, Query};

/// A result snippet: a text window around the first match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snippet {
    /// Source document id.
    pub doc_id: u32,
    /// The snippet text (a contiguous slice of the document).
    pub text: String,
}

/// The two query primitives WebIQ's components program against — the
/// surface the paper used via Google's Web API. [`SearchEngine`]
/// implements it directly; resilience wrappers (fault injection, retry,
/// quota — see `webiq-core`'s `resilience` module) implement it by
/// delegation, so every extraction/validation routine is generic over
/// whether it talks to the raw engine or a guarded one.
pub trait QueryEngine {
    /// Top-`k` result snippets for `query` (extraction queries).
    fn search(&self, query: &str, k: usize) -> Vec<Snippet>;

    /// Number of pages matching `query` (validation queries).
    fn num_hits(&self, query: &str) -> u64;

    /// True while hit-count evidence is trustworthy. A quota-exhausted
    /// wrapper returns false, telling validation to degrade from
    /// PMI-based Web checks to statistics-only filtering.
    fn validation_available(&self) -> bool {
        true
    }

    /// Warm the engine's caches for every query in `batch`, so the
    /// one-by-one `search`/`num_hits` calls that follow are served
    /// locally. Results never change; only the waiting does. The default
    /// does nothing, which keeps wrappers that meter each call (fault
    /// injection, retry, breaker, quota) strictly per-call.
    fn prefetch(&self, _batch: QueryBatch<'_>) {}
}

impl QueryEngine for SearchEngine {
    fn search(&self, query: &str, k: usize) -> Vec<Snippet> {
        SearchEngine::search(self, query, k)
    }

    fn num_hits(&self, query: &str) -> u64 {
        SearchEngine::num_hits(self, query)
    }

    fn prefetch(&self, batch: QueryBatch<'_>) {
        SearchEngine::prefetch(self, batch);
    }
}

/// A wave of engine queries whose strings are all known before the first
/// one is sent — the unit of [`QueryEngine::prefetch`]. Duplicates are
/// allowed; they cost nothing extra.
#[derive(Debug, Clone, Copy)]
pub enum QueryBatch<'a> {
    /// Hit-count queries (`num_hits`).
    Hits(&'a [String]),
    /// Search queries (`search`), each for its top `k` snippets.
    Search {
        /// The query strings.
        queries: &'a [String],
        /// Snippets per query, as the later `search` calls will ask.
        k: usize,
    },
}

impl QueryBatch<'_> {
    /// Number of queries in the batch, duplicates included.
    fn len(&self) -> usize {
        match self {
            QueryBatch::Hits(queries) | QueryBatch::Search { queries, .. } => queries.len(),
        }
    }
}

/// Requests a batching client keeps in flight at once: a batch of `n`
/// cache misses waits ⌈n / 8⌉ round-trips instead of `n`.
const BATCH_IN_FLIGHT: usize = 8;

/// Wall-clock round-trips a batch of `misses` cache misses waits for
/// with [`BATCH_IN_FLIGHT`] requests in flight. Each miss still takes
/// one full round-trip; the round-trips overlap, none gets shorter.
fn batch_round_trips(misses: usize) -> usize {
    misses.div_ceil(BATCH_IN_FLIGHT)
}

/// Bounded capacity of the search (snippet) result cache.
const SEARCH_CACHE_CAP: usize = 4096;
/// Bounded capacity of the parsed-query memo.
const PARSE_CACHE_CAP: usize = 8192;

/// The simulated search engine.
///
/// ```
/// use webiq_web::{Corpus, SearchEngine};
/// let engine = SearchEngine::new(Corpus::from_texts([
///     "airlines such as Delta and United fly from Boston",
///     "a page about gardening",
/// ])).expect("corpus is non-empty");
/// assert_eq!(engine.num_hits("\"airlines such as\""), 1);
/// assert_eq!(engine.num_hits("boston -gardening"), 1);
/// let snippets = engine.search("\"airlines such as\"", 10);
/// assert!(snippets[0].text.contains("Delta"));
/// ```
pub struct SearchEngine {
    corpus: Corpus,
    index: InvertedIndex,
    hit_cache: ShardedMap<u64>,
    search_cache: ShardedLru<(String, usize), Arc<Vec<Snippet>>>,
    parse_cache: ShardedLru<String, Arc<Query>>,
    /// Simulated network round-trip, in microseconds, charged to each
    /// cache *miss* (a cache hit is a local lookup). 0 = disabled.
    latency_us: AtomicU64,
}

impl SearchEngine {
    /// Index `corpus` and stand up the engine. An empty corpus is valid
    /// (every query answers zero hits); the only failure is an abnormal
    /// index-build worker termination, propagated as [`WebError`].
    pub fn new(corpus: Corpus) -> Result<Self, WebError> {
        let index = InvertedIndex::build(&corpus)?;
        Ok(SearchEngine {
            corpus,
            index,
            hit_cache: ShardedMap::new(),
            search_cache: ShardedLru::new(SEARCH_CACHE_CAP),
            parse_cache: ShardedLru::new(PARSE_CACHE_CAP),
            latency_us: AtomicU64::new(0),
        })
    }

    /// Charge every cache-missing query a simulated network round-trip of
    /// `us` microseconds (the paper cites 0.1-0.5 s per Google query).
    /// Makes the engine I/O-bound like its real counterpart, so benchmarks
    /// can observe round-trip overlap, both from the parallel executor and
    /// from [`SearchEngine::prefetch`], which waits ⌈n / 8⌉ round-trips
    /// for a batch of `n` misses. Results and counters are unaffected.
    /// 0 disables the latency, and with it batching: a prefetch at
    /// latency 0 does nothing.
    pub fn set_simulated_latency_us(&self, us: u64) {
        self.latency_us.store(us, Ordering::Relaxed);
    }

    /// Sleep for the configured simulated round-trip, if any. Called on
    /// the issuing thread outside any cache lock.
    fn simulate_round_trip(&self) {
        let us = self.latency_us();
        if us > 0 {
            // Opt-in latency simulation: models the network's own round-trip
            // (off by default, enabled only by chaos/latency experiments); no
            // deterministic output depends on when this thread wakes.
            // lint:allow(no-sleep) simulated network round-trip; output never depends on wake time
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    fn latency_us(&self) -> u64 {
        self.latency_us.load(Ordering::Relaxed)
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.index.doc_count()
    }

    /// Parse `query`, memoised through a bounded LRU keyed by the raw
    /// query string.
    fn parse_cached(&self, query: &str) -> Arc<Query> {
        if let Some(q) = self.parse_cache.get(query, &query.to_string()) {
            webiq_prof::incr(ProfCounter::ParseCacheHit);
            return q;
        }
        webiq_prof::incr(ProfCounter::ParseCacheMiss);
        let q = Arc::new(query::parse(query));
        if self
            .parse_cache
            .insert(query, query.to_string(), Arc::clone(&q))
            .is_some()
        {
            webiq_prof::incr(ProfCounter::ParseCacheEvict);
        }
        q
    }

    /// Documents matching a parsed query, ascending; each with the position
    /// of the first phrase match (or 0 when the query has no phrases).
    fn matching_docs(&self, q: &Query) -> Vec<(u32, u32)> {
        if q.is_empty() {
            return Vec::new();
        }
        // Start from the most selective phrase, or from keyword postings.
        let mut candidates: Option<Vec<(u32, u32)>> = None;
        for phrase in &q.phrases {
            let docs = self.index.phrase_docs(phrase);
            candidates = Some(match candidates {
                None => docs,
                Some(prev) => intersect_keep_first_pos(&prev, &docs),
            });
        }
        let mut result: Vec<(u32, u32)> = match candidates {
            Some(c) => c,
            None => {
                // keyword-only query: seed with the first keyword's docs
                let first = &q.keywords[0];
                self.index
                    .term_docs(first)
                    .into_iter()
                    .map(|d| (d, 0))
                    .collect()
            }
        };
        for kw in &q.keywords {
            let docs = self.index.term_docs(kw);
            result.retain(|(d, _)| docs.binary_search(d).is_ok());
            if result.is_empty() {
                break;
            }
        }
        for ex in &q.excluded {
            let docs = self.index.term_docs(ex);
            result.retain(|(d, _)| docs.binary_search(d).is_err());
            if result.is_empty() {
                break;
            }
        }
        result
    }

    /// Number of pages matching `query` — the `NumHits` oracle of §2.2.
    /// Results are memoised in a sharded cache, and `webiq-prof` counts
    /// each call as a cache hit or miss. Racing threads that miss on the
    /// same fresh query may each count a miss; the cached value itself is
    /// a pure function of the query, so results are unaffected.
    pub fn num_hits(&self, query: &str) -> u64 {
        webiq_trace::incr(Counter::EngineHitIssued);
        if let Some(hits) = self.hit_cache.get(query) {
            webiq_prof::incr(ProfCounter::HitCacheHit);
            return hits;
        }
        webiq_prof::time(Stage::EngineQuery, || {
            self.simulate_round_trip();
            self.fetch_hits(query)
        })
    }

    /// Serve a hit-count cache miss: count it, answer it from the index
    /// and cache the answer. The caller charges the round-trip.
    fn fetch_hits(&self, query: &str) -> u64 {
        webiq_prof::incr(ProfCounter::HitCacheMiss);
        let q = self.parse_cached(query);
        let hits = self.matching_docs(&q).len() as u64;
        self.hit_cache.insert(query.to_string(), hits);
        hits
    }

    /// Top-`k` snippets for `query`, in ascending doc-id order (the
    /// deterministic stand-in for relevance order). Results are memoised
    /// per `(query, k)` in a bounded LRU; `webiq-prof` counts each call as
    /// a cache hit or miss.
    pub fn search(&self, query: &str, k: usize) -> Vec<Snippet> {
        webiq_trace::incr(Counter::EngineSearchIssued);
        let key = (query.to_string(), k);
        if let Some(hit) = self.search_cache.get(query, &key) {
            webiq_prof::incr(ProfCounter::SearchCacheHit);
            return hit.as_ref().clone();
        }
        webiq_prof::time(Stage::EngineQuery, || {
            self.simulate_round_trip();
            self.fetch_search(query, key).as_ref().clone()
        })
    }

    /// Serve a search cache miss for `key = (query, k)`: count it, build
    /// the snippets from the index and cache them. The caller charges the
    /// round-trip.
    fn fetch_search(&self, query: &str, key: (String, usize)) -> Arc<Vec<Snippet>> {
        webiq_prof::incr(ProfCounter::SearchCacheMiss);
        let q = self.parse_cached(query);
        let snippets: Vec<Snippet> = self
            .matching_docs(&q)
            .into_iter()
            .take(key.1)
            .filter_map(|(doc_id, pos)| {
                // Doc ids come from the index; a miss means index/corpus
                // drift and the snippet is dropped rather than panicking.
                let doc = self.corpus.get(doc_id)?;
                Some(Snippet {
                    doc_id,
                    text: make_snippet(&doc.text, pos),
                })
            })
            .collect();
        let snippets = Arc::new(snippets);
        if self
            .search_cache
            .insert(query, key, Arc::clone(&snippets))
            .is_some()
        {
            webiq_prof::incr(ProfCounter::SearchCacheEvict);
        }
        snippets
    }

    /// Fetch every uncached query of `batch` on the calling thread and
    /// wait for them as a client with 8 requests in flight would:
    /// ⌈misses / 8⌉ simulated round-trips in one
    /// [`Stage::EngineQuery`] timer. Duplicates and cached queries cost
    /// nothing. Each miss is counted in the `webiq-prof` registry exactly
    /// as a one-by-one call would count it, but the thread-local issued
    /// counters do not move: the scorer's own calls that follow issue the
    /// queries (and find them cached), so the deterministic per-item
    /// accounting is unchanged.
    ///
    /// Batches of at most one query, and every batch while the simulated
    /// latency is 0, are left to the one-by-one calls: there is no
    /// waiting to overlap.
    pub fn prefetch(&self, batch: QueryBatch<'_>) {
        if batch.len() <= 1 || self.latency_us() == 0 {
            return;
        }
        webiq_prof::time(Stage::EngineQuery, || {
            let mut seen = BTreeSet::new();
            let mut misses = 0;
            match batch {
                QueryBatch::Hits(queries) => {
                    for query in queries.iter().filter(|q| seen.insert(q.as_str())) {
                        if self.hit_cache.get(query).is_none() {
                            self.fetch_hits(query);
                            misses += 1;
                        }
                    }
                }
                QueryBatch::Search { queries, k } => {
                    for query in queries.iter().filter(|q| seen.insert(q.as_str())) {
                        let key = (query.clone(), k);
                        if self.search_cache.get(query, &key).is_none() {
                            self.fetch_search(query, key);
                            misses += 1;
                        }
                    }
                }
            }
            for _ in 0..batch_round_trips(misses) {
                self.simulate_round_trip();
            }
        });
    }
}

/// Intersect two `(doc, first_pos)` lists on doc id, keeping the first
/// list's position (the earliest phrase anchor).
fn intersect_keep_first_pos(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Extract a snippet window around token position `pos`: a few tokens of
/// left context and a generous right context (cue-phrase completions are to
/// the right of the match).
fn make_snippet(text: &str, pos: u32) -> String {
    const LEFT: usize = 5;
    const RIGHT: usize = 40;
    // Token boundaries in byte offsets, consistent enough with the index
    // tokenizer for windowing purposes.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        let is_word = c.is_alphanumeric() || c == '$';
        match (is_word, start) {
            (true, None) => start = Some(i),
            (false, Some(s))
                if (!matches!(c, '\'' | '-' | '.' | ',')
                    || !text[i + c.len_utf8()..]
                        .chars()
                        .next()
                        .is_some_and(char::is_alphanumeric)) =>
            {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, text.len()));
    }
    if spans.is_empty() {
        return text.to_string();
    }
    let last = spans.len() - 1;
    let pos = (pos as usize).min(last);
    let from = spans.get(pos.saturating_sub(LEFT)).map_or(0, |s| s.0);
    let to = spans
        .get((pos + RIGHT).min(last))
        .map_or_else(|| text.len(), |s| s.1);
    // extend to end of sentence punctuation if adjacent
    let mut end = to;
    let bytes = text.as_bytes();
    while end < bytes.len() && matches!(bytes[end], b'.' | b'!' | b'?' | b',') {
        end += 1;
    }
    text[from..end].to_string()
}

/// Serialises every test in this crate that queries an engine: the
/// `webiq-prof` registry is process-wide, so the counter delta a test
/// takes is exact only while no other test sends queries.
#[cfg(test)]
pub(crate) fn prof_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_prof::ProfSnapshot;

    fn corpus() -> Corpus {
        Corpus::from_texts([
            "Flights depart daily. Popular departure cities such as Boston, Chicago, and LAX are listed.",
            "Delta is an airline based in Atlanta.",
            "airlines such as Delta and United fly from Boston",
            "cities such as Boston and Chicago host many flights",
            "random page about gardening and tomatoes",
        ])
    }

    /// A test engine that holds [`prof_lock`] for as long as it lives.
    struct Locked {
        engine: SearchEngine,
        _prof: std::sync::MutexGuard<'static, ()>,
    }

    impl std::ops::Deref for Locked {
        type Target = SearchEngine;
        fn deref(&self) -> &SearchEngine {
            &self.engine
        }
    }

    fn engine() -> Locked {
        let _prof = prof_lock();
        Locked {
            engine: SearchEngine::new(corpus()).expect("engine"),
            _prof,
        }
    }

    /// The prof registry's movement since `before`.
    fn prof_since(before: &ProfSnapshot) -> ProfSnapshot {
        webiq_prof::snapshot().diff(before)
    }

    /// Cache-missing queries of both kinds in a prof delta.
    fn misses(d: &ProfSnapshot) -> u64 {
        d.get(ProfCounter::SearchCacheMiss) + d.get(ProfCounter::HitCacheMiss)
    }

    #[test]
    fn num_hits_counts_matching_docs() {
        let e = engine();
        assert_eq!(e.num_hits("boston"), 3);
        // "cities such as" also matches inside "departure cities such as"
        assert_eq!(e.num_hits(r#""cities such as""#), 2);
        // both matching docs also contain "flights"
        assert_eq!(e.num_hits(r#""cities such as" +flights"#), 2);
        assert_eq!(e.num_hits(r#""cities such as" +host"#), 1);
        assert_eq!(e.num_hits("nonexistentterm"), 0);
        assert_eq!(e.num_hits(""), 0);
    }

    #[test]
    fn search_returns_snippets_containing_phrase() {
        let e = engine();
        let snippets = e.search(r#""departure cities such as""#, 5);
        assert_eq!(snippets.len(), 1);
        assert!(
            snippets[0]
                .text
                .contains("departure cities such as Boston, Chicago, and LAX"),
            "snippet: {}",
            snippets[0].text
        );
    }

    #[test]
    fn search_respects_k() {
        let e = engine();
        assert_eq!(e.search("boston", 2).len(), 2);
        assert_eq!(e.search("boston", 10).len(), 3);
    }

    #[test]
    fn keyword_conjunction() {
        let e = engine();
        assert_eq!(e.num_hits("boston chicago"), 2);
        assert_eq!(e.num_hits("boston gardening"), 0);
    }

    #[test]
    fn exclusion_filters_documents() {
        let e = engine();
        let with = e.num_hits("boston");
        let without = e.num_hits("boston -chicago");
        assert!(without < with, "{without} !< {with}");
        assert_eq!(e.num_hits("boston -boston"), 0);
    }

    #[test]
    fn multiple_phrases_intersect() {
        let e = engine();
        assert_eq!(e.num_hits(r#""such as" "fly from""#), 1);
    }

    #[test]
    fn prof_counts_cache_misses() {
        let e = engine();
        let before = webiq_prof::snapshot();
        let _ = e.search("boston", 3);
        let _ = e.num_hits("boston");
        let _ = e.num_hits("delta");
        let d = prof_since(&before);
        assert_eq!(d.get(ProfCounter::SearchCacheMiss), 1);
        assert_eq!(d.get(ProfCounter::HitCacheMiss), 2);
        assert_eq!(misses(&d), 3);
    }

    #[test]
    fn hit_rate_is_one_minus_misses_over_issued() {
        let e = engine();
        let (prof_before, trace_before) = (webiq_prof::snapshot(), webiq_trace::snapshot());
        let _ = e.num_hits("boston");
        let _ = e.num_hits("boston"); // cache hit
        let _ = e.search("boston", 3);
        let _ = e.search("boston", 3); // cache hit
        let d = webiq_trace::snapshot().diff(&trace_before);
        let issued = d.get(Counter::EngineHitIssued) + d.get(Counter::EngineSearchIssued);
        let missed = misses(&prof_since(&prof_before));
        assert_eq!(missed, 2);
        assert_eq!(issued, 4);
        assert!((1.0 - missed as f64 / issued as f64 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thread_issued_counters_advance() {
        let e = engine();
        let before = webiq_trace::snapshot();
        let _ = e.num_hits("boston");
        let _ = e.num_hits("boston"); // cached, still issued
        let _ = e.search("delta", 4);
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(
            d.get(Counter::EngineHitIssued) + d.get(Counter::EngineSearchIssued),
            3
        );
    }

    #[test]
    fn trace_counters_mirror_engine_traffic() {
        let e = engine();
        let (prof_before, before) = (webiq_prof::snapshot(), webiq_trace::snapshot());
        let _ = e.num_hits("seattle");
        let _ = e.num_hits("seattle"); // cached, still issued
        let _ = e.search("atlanta", 4);
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(d.get(Counter::EngineHitIssued), 2);
        assert_eq!(d.get(Counter::EngineSearchIssued), 1);
        // cache hit/miss tallies live in the prof registry only, never
        // in the thread-local trace counters
        let p = prof_since(&prof_before);
        assert_eq!(p.get(ProfCounter::HitCacheHit), 1);
        assert_eq!(p.get(ProfCounter::HitCacheMiss), 1);
    }

    #[test]
    fn prof_registry_attributes_cache_traffic() {
        let e = engine();
        let before = webiq_prof::snapshot();
        let _ = e.num_hits("a quite unusual profiling query");
        let _ = e.num_hits("a quite unusual profiling query"); // cache hit
        let _ = e.search("another unusual profiling query", 3);
        let d = prof_since(&before);
        // Engine traffic is exact under the prof lock. The shard locks
        // are also taken by this crate's cache tests, which do not hold
        // it, so they stay a lower bound.
        assert_eq!(d.get(ProfCounter::HitCacheMiss), 1, "{d:?}");
        assert_eq!(d.get(ProfCounter::HitCacheHit), 1, "{d:?}");
        assert_eq!(d.get(ProfCounter::SearchCacheMiss), 1, "{d:?}");
        assert_eq!(d.get(ProfCounter::ParseCacheMiss), 2, "{d:?}");
        assert!(d.get(ProfCounter::ShardLockAcquire) >= 1, "{d:?}");
        assert_eq!(d.stage_calls(Stage::EngineQuery), 2, "{d:?}");
    }

    #[test]
    fn search_cache_returns_identical_results() {
        let e = engine();
        let before = webiq_prof::snapshot();
        let a = e.search("boston", 10);
        let b = e.search("boston", 10);
        assert_eq!(a, b);
        assert_eq!(prof_since(&before).get(ProfCounter::SearchCacheMiss), 1);
        // a different k is a different cache entry, not a stale slice
        assert_eq!(e.search("boston", 2).len(), 2);
    }

    #[test]
    fn hit_cache_returns_consistent_results() {
        let e = engine();
        let a = e.num_hits(r#""cities such as""#);
        let b = e.num_hits(r#""cities such as""#);
        assert_eq!(a, b);
    }

    #[test]
    fn snippet_window_has_left_context() {
        let e = engine();
        let snippets = e.search(r#""cities such as" +host"#, 5);
        assert_eq!(snippets.len(), 1);
        assert!(snippets[0].text.starts_with("cities such as"));
    }

    #[test]
    fn empty_corpus() {
        let _prof = prof_lock();
        let e = SearchEngine::new(Corpus::default()).expect("empty corpus is valid");
        assert_eq!(e.num_hits("anything"), 0);
        assert!(e.search("anything", 5).is_empty());
    }

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|x| (*x).to_string()).collect()
    }

    /// An engine whose cache misses cost a 1 µs simulated round-trip, so
    /// prefetch batches are served.
    fn latency_engine() -> Locked {
        let e = engine();
        e.set_simulated_latency_us(1);
        e
    }

    #[test]
    fn prefetch_counts_one_miss_per_distinct_query() {
        let e = latency_engine();
        let (before, trace_before) = (webiq_prof::snapshot(), webiq_trace::snapshot());
        let queries = strings(&["boston", "delta", r#""cities such as""#, "gardening"]);
        e.prefetch(QueryBatch::Hits(&queries));
        assert_eq!(prof_since(&before).get(ProfCounter::HitCacheMiss), 4);
        let d = webiq_trace::snapshot().diff(&trace_before);
        assert_eq!(
            d.get(Counter::EngineHitIssued) + d.get(Counter::EngineSearchIssued),
            0
        );
        let searches = strings(&["boston", "chicago", "flights"]);
        e.prefetch(QueryBatch::Search {
            queries: &searches,
            k: 3,
        });
        assert_eq!(prof_since(&before).get(ProfCounter::SearchCacheMiss), 3);
        // the scorer's calls that follow are all served from the cache
        for q in &queries {
            let _ = e.num_hits(q);
        }
        for q in &searches {
            let _ = e.search(q, 3);
        }
        let d = prof_since(&before);
        assert_eq!(misses(&d), 7);
        assert_eq!(d.get(ProfCounter::HitCacheHit), 4);
        assert_eq!(d.get(ProfCounter::SearchCacheHit), 3);
    }

    #[test]
    fn prefetch_skips_duplicates_and_cached_queries() {
        let e = latency_engine();
        let before = webiq_prof::snapshot();
        let _ = e.num_hits("boston");
        let _ = e.search("delta", 4);
        assert_eq!(misses(&prof_since(&before)), 2);
        e.prefetch(QueryBatch::Hits(&strings(&[
            "boston", "chicago", "chicago", "boston", "chicago",
        ])));
        let hit_misses = |d: ProfSnapshot| d.get(ProfCounter::HitCacheMiss);
        let search_misses = |d: ProfSnapshot| d.get(ProfCounter::SearchCacheMiss);
        assert_eq!(hit_misses(prof_since(&before)), 2, "only chicago is new");
        e.prefetch(QueryBatch::Search {
            queries: &strings(&["delta", "delta", "atlanta", "atlanta"]),
            k: 4,
        });
        assert_eq!(search_misses(prof_since(&before)), 2, "only atlanta is new");
        // a different k is a different cache entry
        e.prefetch(QueryBatch::Search {
            queries: &strings(&["delta", "atlanta"]),
            k: 1,
        });
        assert_eq!(search_misses(prof_since(&before)), 4);
    }

    #[test]
    fn prefetched_results_equal_one_by_one_results() {
        let hits = strings(&[
            "boston",
            r#""cities such as" +flights"#,
            "boston -chicago",
            "nonexistentterm",
            "",
        ]);
        let searches = strings(&["boston", r#""cities such as""#, "delta", "tomatoes"]);
        let batched = latency_engine();
        // `batched` holds the prof lock
        let plain = SearchEngine::new(corpus()).expect("engine");
        batched.prefetch(QueryBatch::Hits(&hits));
        for k in [1, 2, 10] {
            batched.prefetch(QueryBatch::Search {
                queries: &searches,
                k,
            });
        }
        let before = webiq_prof::snapshot();
        for q in &hits {
            assert_eq!(batched.num_hits(q), plain.num_hits(q), "{q}");
        }
        for k in [1, 2, 10] {
            for q in &searches {
                assert_eq!(batched.search(q, k), plain.search(q, k), "{q} k={k}");
            }
        }
        // every batched call was cached: each miss is one of `plain`'s
        let plain_misses = (hits.len() + 3 * searches.len()) as u64;
        assert_eq!(misses(&prof_since(&before)), plain_misses);
    }

    #[test]
    fn prefetch_leaves_thread_issued_counters_alone() {
        let e = latency_engine();
        let (prof_before, before) = (webiq_prof::snapshot(), webiq_trace::snapshot());
        e.prefetch(QueryBatch::Hits(&strings(&[
            "seattle", "atlanta", "boston",
        ])));
        e.prefetch(QueryBatch::Search {
            queries: &strings(&["seattle", "atlanta"]),
            k: 2,
        });
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(d.get(Counter::EngineHitIssued), 0);
        assert_eq!(d.get(Counter::EngineSearchIssued), 0);
        assert_eq!(misses(&prof_since(&prof_before)), 5);
    }

    #[test]
    fn batch_charges_one_round_trip_per_eight_misses() {
        assert_eq!(batch_round_trips(0), 0);
        assert_eq!(batch_round_trips(1), 1);
        assert_eq!(batch_round_trips(8), 1);
        assert_eq!(batch_round_trips(9), 2);
        assert_eq!(batch_round_trips(16), 2);
        assert_eq!(batch_round_trips(17), 3);
    }

    #[test]
    fn prefetch_is_a_noop_without_latency_or_with_one_query() {
        let e = engine();
        let before = webiq_prof::snapshot();
        e.prefetch(QueryBatch::Hits(&strings(&["boston", "delta"])));
        e.prefetch(QueryBatch::Search {
            queries: &strings(&["boston", "delta"]),
            k: 3,
        });
        assert_eq!(
            misses(&prof_since(&before)),
            0,
            "latency 0 leaves the batch alone"
        );
        e.set_simulated_latency_us(1);
        e.prefetch(QueryBatch::Hits(&strings(&["boston"])));
        e.prefetch(QueryBatch::Hits(&[]));
        assert_eq!(
            misses(&prof_since(&before)),
            0,
            "a single query is left to its call"
        );
    }

    #[test]
    fn engine_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<SearchEngine>();
    }
}
