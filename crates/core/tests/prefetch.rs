//! Round-trip batching: every engine query a scorer issues one by one
//! must have been sent in the wave prefetched just before it, and every
//! prefetched query must then be issued — so a batch can neither miss
//! the scorer's traffic (and leave its round-trips unoverlapped) nor
//! fetch queries nobody asks (extra round-trips). One wave per
//! dependency step: extraction searches, then validation hit counts for
//! an attribute without instances; training vectors, then the borrowed
//! pool's posteriors for one with pre-defined instances.

use std::cell::RefCell;
use std::collections::BTreeSet;

use webiq_core::{attr_surface, surface, DomainInfo, WebIQConfig};
use webiq_data::{corpus, kb};
use webiq_web::{gen, GenConfig, QueryBatch, QueryEngine, SearchEngine, Snippet};

/// One engine interaction, in call order.
#[derive(Debug)]
enum Call {
    /// A prefetched wave: the kind (`search` with its `k`, or `hits`)
    /// and its queries.
    Wave(Option<usize>, Vec<String>),
    Search(String, usize),
    Hits(String),
}

/// A [`QueryEngine`] over the real engine that logs every call.
struct Recording<'a> {
    engine: &'a SearchEngine,
    log: RefCell<Vec<Call>>,
}

impl<'a> Recording<'a> {
    fn new(engine: &'a SearchEngine) -> Self {
        Recording {
            engine,
            log: RefCell::new(Vec::new()),
        }
    }

    /// The log split into waves: each wave with the calls that follow it.
    /// Panics if a call comes before the first wave.
    fn waves(&self) -> Vec<(Option<usize>, Vec<String>, Vec<Call>)> {
        let mut waves: Vec<(Option<usize>, Vec<String>, Vec<Call>)> = Vec::new();
        for call in self.log.take() {
            match call {
                Call::Wave(k, queries) => waves.push((k, queries, Vec::new())),
                other => waves
                    .last_mut()
                    .unwrap_or_else(|| panic!("{other:?} issued before any wave"))
                    .2
                    .push(other),
            }
        }
        waves
    }
}

impl QueryEngine for Recording<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<Snippet> {
        self.log
            .borrow_mut()
            .push(Call::Search(query.to_string(), k));
        self.engine.search(query, k)
    }

    fn num_hits(&self, query: &str) -> u64 {
        self.log.borrow_mut().push(Call::Hits(query.to_string()));
        self.engine.num_hits(query)
    }

    fn prefetch(&self, batch: QueryBatch<'_>) {
        let call = match batch {
            QueryBatch::Hits(queries) => Call::Wave(None, queries.to_vec()),
            QueryBatch::Search { queries, k } => Call::Wave(Some(k), queries.to_vec()),
        };
        self.log.borrow_mut().push(call);
        self.engine.prefetch(batch);
    }
}

/// Assert a wave is exactly the traffic that follows it: same kind, same
/// `k`, same distinct queries.
fn assert_wave_matches(k: Option<usize>, wave: &[String], calls: &[Call]) {
    let mut issued = BTreeSet::new();
    for call in calls {
        match (call, k) {
            (Call::Search(q, got), Some(want)) => {
                assert_eq!(*got, want, "search for {q} asked a different k");
                issued.insert(q.as_str());
            }
            (Call::Hits(q), None) => {
                issued.insert(q.as_str());
            }
            _ => panic!("{call:?} does not belong to a {k:?} wave"),
        }
    }
    let prefetched: BTreeSet<&str> = wave.iter().map(String::as_str).collect();
    assert_eq!(prefetched, issued, "the wave and the calls after it differ");
}

fn airfare_engine() -> SearchEngine {
    let def = kb::domain("airfare").expect("domain");
    let engine = SearchEngine::new(gen::generate(
        &corpus::concept_specs(def),
        &GenConfig::default(),
    ))
    .expect("engine");
    engine.set_simulated_latency_us(1);
    engine
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

#[test]
fn surface_discovery_sends_one_search_wave_then_one_hits_wave() {
    let engine = airfare_engine();
    let rec = Recording::new(&engine);
    let info = DomainInfo {
        object: "flight".into(),
        domain_terms: vec!["airfare".into()],
        sibling_terms: Vec::new(),
    };
    let cfg = WebIQConfig::default();
    let result = surface::discover(&rec, "Departure city", &info, &cfg);
    assert!(!result.instances.is_empty());
    let waves = rec.waves();
    assert_eq!(waves.len(), 2, "{waves:?}");
    let (k, queries, calls) = &waves[0];
    assert_eq!(*k, Some(cfg.snippets_per_query));
    assert_eq!(queries.len(), result.extraction_queries);
    assert_wave_matches(*k, queries, calls);
    // the search wave is in issue order, one query per call
    let searched: Vec<&str> = calls
        .iter()
        .filter_map(|c| match c {
            Call::Search(q, _) => Some(q.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(
        searched,
        queries.iter().map(String::as_str).collect::<Vec<_>>()
    );
    let (k, queries, calls) = &waves[1];
    assert_wave_matches(*k, queries, calls);
}

#[test]
fn bayes_verification_sends_a_training_wave_then_a_pool_wave() {
    let engine = airfare_engine();
    let rec = Recording::new(&engine);
    let cfg = WebIQConfig::default();
    let accepted = attr_surface::verify_borrowed(
        &rec,
        "Airline",
        &strings(&["Air Canada", "American", "Delta", "United"]),
        &strings(&["Economy", "First Class", "Jan", "1"]),
        &strings(&["Aer Lingus", "Lufthansa", "Economy", "Jan"]),
        &cfg,
    );
    assert!(accepted.contains(&"Aer Lingus".to_string()), "{accepted:?}");
    let waves = rec.waves();
    assert_eq!(waves.len(), 2, "{waves:?}");
    for (k, queries, calls) in &waves {
        assert_wave_matches(*k, queries, calls);
    }
}

#[test]
fn failed_training_sends_no_wave() {
    let engine = airfare_engine();
    let rec = Recording::new(&engine);
    let accepted = attr_surface::verify_borrowed(
        &rec,
        "Airline",
        &strings(&["Delta"]),
        &strings(&["Economy"]),
        &strings(&["Aer Lingus", "Lufthansa"]),
        &WebIQConfig::default(),
    );
    assert!(accepted.is_empty());
    assert!(
        rec.waves().is_empty(),
        "too few positives must cost nothing"
    );
}
