//! Concurrency smoke tests: the engine is shared by the parallel
//! acquisition workers, so `num_hits`/`search` must stay correct and
//! consistent when hammered from many threads at once.

use std::sync::{Mutex, MutexGuard, PoisonError};

use webiq_prof::ProfCounter;
use webiq_web::{gen, SearchEngine};

/// Serialises the tests of this file: the `webiq-prof` registry is
/// process-wide, so a counter delta is exact only while no other test
/// sends queries.
fn prof_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn build_engine() -> SearchEngine {
    let concepts = vec![
        gen::ConceptSpec {
            key: "airfare/city".into(),
            lexicalizations: vec!["departure city".into(), "city".into()],
            object: "flight".into(),
            domain_terms: vec!["airfare".into(), "travel".into()],
            instances: vec![
                "Boston".into(),
                "Chicago".into(),
                "Denver".into(),
                "Seattle".into(),
                "Atlanta".into(),
            ],
            confusers: vec!["the following".into()],
            richness: 1.0,
        },
        gen::ConceptSpec {
            key: "airfare/airline".into(),
            lexicalizations: vec!["airline".into()],
            object: "flight".into(),
            domain_terms: vec!["airfare".into(), "travel".into()],
            instances: vec!["Delta".into(), "United".into(), "JetBlue".into()],
            confusers: vec![],
            richness: 1.0,
        },
    ];
    SearchEngine::new(gen::generate(&concepts, &gen::GenConfig::default())).expect("engine")
}

/// 8 threads issue interleaved hit-count and snippet queries; every thread
/// must observe exactly the answers a single-threaded run computes.
#[test]
fn concurrent_queries_match_sequential_answers() {
    let _prof = prof_lock();
    let engine = build_engine();
    let queries: Vec<String> = vec![
        "boston".into(),
        "chicago".into(),
        "delta".into(),
        r#""departure cities such as""#.into(),
        r#""airlines such as""#.into(),
        "airfare +travel".into(),
        "boston -chicago".into(),
        "seattle denver".into(),
    ];
    // sequential ground truth (also warms some cache shards on purpose)
    let expected_hits: Vec<u64> = queries.iter().map(|q| engine.num_hits(q)).collect();
    let expected_snippets: Vec<Vec<String>> = queries
        .iter()
        .map(|q| engine.search(q, 5).into_iter().map(|s| s.text).collect())
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let engine = &engine;
            let queries = &queries;
            let expected_hits = &expected_hits;
            let expected_snippets = &expected_snippets;
            scope.spawn(move || {
                for round in 0..50 {
                    // each thread walks the query list at a different phase
                    let i = (t + round) % queries.len();
                    assert_eq!(engine.num_hits(&queries[i]), expected_hits[i], "query {i}");
                    let got: Vec<String> = engine
                        .search(&queries[i], 5)
                        .into_iter()
                        .map(|s| s.text)
                        .collect();
                    assert_eq!(got, expected_snippets[i], "query {i}");
                }
            });
        }
    });
}

/// Thread-local issued-query counters attribute traffic to the thread that
/// issued it, independent of what other threads do: diffing
/// `webiq_trace::snapshot()` around a call sequence measures exactly that
/// thread's traffic.
#[test]
fn thread_issued_counters_are_per_thread() {
    let _prof = prof_lock();
    let engine = build_engine();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let engine = &engine;
                scope.spawn(move || {
                    let before = webiq_trace::snapshot();
                    for i in 0..(t + 1) * 3 {
                        let _ = engine.num_hits(&format!("boston chicago {}", i % 4));
                    }
                    webiq_trace::snapshot()
                        .diff(&before)
                        .get(webiq_trace::Counter::EngineHitIssued)
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let issued = h.join().expect("worker");
            assert_eq!(issued, (t as u64 + 1) * 3, "thread {t}");
        }
    });
}

/// Global prof counts under contention: every call is exactly one cache
/// hit or miss, so their sum is the issued count; miss counts are bounded
/// by the distinct query set (racing duplicate misses allowed) and at
/// least the distinct-set size.
#[test]
fn global_stats_sane_under_contention() {
    let _prof = prof_lock();
    let engine = build_engine();
    let before = webiq_prof::snapshot();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 40;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let _ = engine.num_hits(&format!("boston {}", (t + i) % 10));
                }
            });
        }
    });
    let d = webiq_prof::snapshot().diff(&before);
    let misses = d.get(ProfCounter::HitCacheMiss);
    let issued = d.get(ProfCounter::HitCacheHit) + misses;
    assert_eq!(issued, THREADS * PER_THREAD);
    assert!(misses >= 10, "misses {misses}");
    assert!(
        misses <= 10 * THREADS,
        "misses {misses} exceed worst-case racing bound"
    );
    let hit_rate = 1.0 - misses as f64 / issued as f64;
    assert!(hit_rate > 0.5, "hit rate {hit_rate}");
}
