//! The instance-extraction phase (§2.1): label syntax analysis, extraction
//! query formulation, and candidate extraction from result snippets.

use std::collections::BTreeMap;

use webiq_nlp::chunk::{self, LabelForm, NounPhrase};
use webiq_nlp::pos::{self, Tagged};
use webiq_trace::Counter;
use webiq_web::{QueryBatch, QueryEngine};

use crate::config::WebIQConfig;
use crate::patterns::{extraction_patterns, CompletionSide, MaterializedPattern, PatternKind};

/// Domain information used to scope extraction queries (§2.1: the object
/// name, the domain name, and labels/instances of sibling attributes).
#[derive(Debug, Clone, Default)]
pub struct DomainInfo {
    /// The real-world object name (`"book"`).
    pub object: String,
    /// Domain terms, most specific first (`["book", "bookstore"]`).
    pub domain_terms: Vec<String>,
    /// Content keywords from the labels of the *other* attributes on the
    /// same interface (`["title", "isbn"]` for a bookstore's `author`).
    /// §2.1 appends these to extraction queries to narrow their scope.
    pub sibling_terms: Vec<String>,
}

/// One candidate with its occurrence count across snippets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Display form (original casing from the first sighting).
    pub text: String,
    /// How many snippets yielded it (redundancy-based confidence).
    pub count: usize,
}

/// Result of the extraction phase.
#[derive(Debug, Clone, Default)]
pub struct ExtractionOutcome {
    /// Candidates in first-seen order.
    pub candidates: Vec<Candidate>,
    /// Number of extraction queries posed.
    pub queries: usize,
}

/// Analyze an attribute label and return the noun phrases usable for query
/// formulation (§2.1). Empty when the label has no noun phrase — the
/// extraction phase then terminates with no instances.
pub fn label_noun_phrases(label: &str) -> Vec<NounPhrase> {
    let form = chunk::classify_label(label);
    form.noun_phrases().into_iter().cloned().collect()
}

/// The primary noun phrase of a label, if any.
pub fn primary_noun_phrase(label: &str) -> Option<NounPhrase> {
    label_noun_phrases(label).into_iter().next()
}

/// Is the label form "benign" for Surface extraction (§4 intro: noun or
/// noun phrase)? Prepositional and verb-phrase labels formulate queries
/// from their inner NP but are considered less reliable.
pub fn label_is_benign(label: &str) -> bool {
    matches!(
        chunk::classify_label(label),
        LabelForm::NounPhrase(_) | LabelForm::Conjunction(_)
    )
}

/// Build the search-engine query string for a pattern: the quoted cue
/// phrase plus `+keyword` scoping from the domain info.
pub fn build_query(pattern: &MaterializedPattern, info: &DomainInfo, cfg: &WebIQConfig) -> String {
    let mut q = format!("\"{}\"", pattern.cue);
    for term in info.domain_terms.iter().take(cfg.scope_keywords) {
        // multi-word domain terms ("real estate") are quoted
        if term.contains(' ') {
            q.push_str(&format!(" \"{term}\""));
        } else {
            q.push_str(&format!(" +{term}"));
        }
    }
    // §2.1: "It also adds to such queries keywords formed from labels of
    // other attributes" — the paper's `"authors such as" +book +title
    // +isbn`. AND-semantics make each keyword a strict filter, so the
    // count is configurable (0 disables).
    for term in info.sibling_terms.iter().take(cfg.sibling_keywords) {
        q.push_str(&format!(" +{term}"));
    }
    q
}

/// Join the original (cased) token texts of a span.
fn span_text(tagged: &[Tagged], span: (usize, usize)) -> String {
    tagged[span.0..span.1]
        .iter()
        .map(|t| t.token.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Extract completions from one snippet for one pattern: find the cue
/// phrase, then parse the NP list on the completion side.
pub fn completions(snippet: &str, pattern: &MaterializedPattern) -> Vec<String> {
    let lower = snippet.to_lowercase();
    let Some(pos_byte) = lower.find(&pattern.cue) else {
        return Vec::new();
    };
    match pattern.side {
        CompletionSide::After => {
            let after = &snippet[pos_byte + pattern.cue.len()..];
            let tagged = pos::tag(after);
            let spans = chunk::parse_np_list_spans(&tagged);
            let texts: Vec<String> = spans.iter().map(|s| span_text(&tagged, *s)).collect();
            match pattern.kind {
                PatternKind::Set => texts,
                PatternKind::Singleton => texts.into_iter().take(1).collect(),
            }
        }
        CompletionSide::Before => {
            let before = &snippet[..pos_byte];
            let tagged = pos::tag(before);
            let spans = trailing_np_list(&tagged);
            let texts: Vec<String> = spans.iter().map(|s| span_text(&tagged, *s)).collect();
            match pattern.kind {
                PatternKind::Set => texts,
                PatternKind::Singleton => texts.into_iter().rev().take(1).collect(),
            }
        }
    }
}

/// The NP list forming the *suffix* of a tagged sequence (completions that
/// precede a cue, as in `NP₁, …, NPₙ, and other Ls`). A single trailing
/// separator (the comma before `and other`) is tolerated.
fn trailing_np_list(tagged: &[Tagged]) -> Vec<(usize, usize)> {
    let mut end = tagged.len();
    // tolerate one trailing "," separator
    while let Some(prev) = end.checked_sub(1).and_then(|i| tagged.get(i)) {
        if prev.tag == webiq_nlp::Tag::SYM && prev.token.text == "," {
            end -= 1;
        } else {
            break;
        }
    }
    let slice = &tagged[..end];
    // longest suffix that parses as an NP list consuming the whole suffix
    for start in 0..slice.len() {
        let spans = chunk::parse_np_list_spans(&slice[start..]);
        if let Some(last) = spans.last() {
            if start + last.1 == slice.len() {
                return spans.iter().map(|(a, b)| (start + a, start + b)).collect();
            }
        }
    }
    Vec::new()
}

/// Should a raw completion string be kept as a candidate? Drops empty
/// strings, bare stopwords, and echoes of the label itself.
fn plausible(text: &str, label_lower: &str) -> bool {
    let t = text.trim();
    if t.is_empty() || t.len() > 60 {
        return false;
    }
    let lower = t.to_lowercase();
    if lower == label_lower || label_lower.contains(&lower) && lower.len() > 3 {
        return false;
    }
    if t.split_whitespace().all(webiq_nlp::stopwords::is_stopword) {
        return false;
    }
    true
}

/// Run the full extraction phase for one attribute label. Traced as an
/// `extract` span; poses one [`Counter::ExtractQueries`] per query and
/// tallies raw yields under [`Counter::CandidatesExtracted`].
pub fn extract_candidates<E: QueryEngine>(
    engine: &E,
    label: &str,
    info: &DomainInfo,
    cfg: &WebIQConfig,
) -> ExtractionOutcome {
    let _span = webiq_trace::span("extract");
    let nps = label_noun_phrases(label);
    if nps.is_empty() {
        return ExtractionOutcome::default();
    }
    let label_lower = label.trim().trim_end_matches(':').to_lowercase();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new(); // lower → index
    let mut candidates: Vec<Candidate> = Vec::new();

    // Every NP × pattern query is known up front: send them as one wave.
    let patterns: Vec<MaterializedPattern> = nps
        .iter()
        .flat_map(|np| extraction_patterns(np, &info.object))
        .collect();
    let queries: Vec<String> = patterns.iter().map(|p| build_query(p, info, cfg)).collect();
    engine.prefetch(QueryBatch::Search {
        queries: &queries,
        k: cfg.snippets_per_query,
    });
    for (pattern, query) in patterns.iter().zip(&queries) {
        webiq_trace::incr(Counter::ExtractQueries);
        for snippet in engine.search(query, cfg.snippets_per_query) {
            for text in completions(&snippet.text, pattern) {
                if !plausible(&text, &label_lower) {
                    continue;
                }
                let key = text.to_lowercase();
                match seen.get(&key) {
                    Some(&idx) => candidates[idx].count += 1,
                    None => {
                        seen.insert(key, candidates.len());
                        candidates.push(Candidate { text, count: 1 });
                    }
                }
            }
        }
    }
    webiq_trace::add(Counter::CandidatesExtracted, candidates.len() as u64);
    ExtractionOutcome {
        candidates,
        queries: queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_web::{Corpus, SearchEngine};

    fn cfg() -> WebIQConfig {
        WebIQConfig::default()
    }

    fn info() -> DomainInfo {
        DomainInfo {
            object: "flight".into(),
            domain_terms: vec!["travel".into()],
            sibling_terms: Vec::new(),
        }
    }

    #[test]
    fn paper_snippet_example() {
        // Fig. 2: the snippet "... departure cities such as Boston,
        // Chicago, and LAX" yields exactly those three instances.
        let np = primary_noun_phrase("Departure city").expect("np");
        let pattern = &extraction_patterns(&np, "flight")[0];
        let got = completions(
            "Check fares from departure cities such as Boston, Chicago, and LAX. More info.",
            pattern,
        );
        assert_eq!(got, vec!["Boston", "Chicago", "LAX"]);
    }

    #[test]
    fn multiword_completions_keep_casing() {
        let np = primary_noun_phrase("Airline").expect("np");
        let pattern = &extraction_patterns(&np, "flight")[0];
        let got = completions(
            "airlines such as Air Canada and Aer Lingus fly here",
            pattern,
        );
        assert_eq!(got, vec!["Air Canada", "Aer Lingus"]);
    }

    #[test]
    fn s4_extracts_preceding_list() {
        let np = primary_noun_phrase("Airline").expect("np");
        let s4 = extraction_patterns(&np, "flight")
            .into_iter()
            .find(|p| p.id == "s4")
            .expect("s4");
        let got = completions("Delta, United, and other airlines serve this hub", &s4);
        assert!(got.contains(&"Delta".to_string()), "{got:?}");
        assert!(got.contains(&"United".to_string()), "{got:?}");
    }

    #[test]
    fn g4_extracts_single_preceding_np() {
        let np = primary_noun_phrase("Author").expect("np");
        let g4 = extraction_patterns(&np, "book")
            .into_iter()
            .find(|p| p.id == "g4")
            .expect("g4");
        let got = completions("Stephen King is the author of many novels", &g4);
        assert_eq!(got, vec!["Stephen King"]);
    }

    #[test]
    fn g1_extracts_following_np() {
        let np = primary_noun_phrase("Author").expect("np");
        let g1 = extraction_patterns(&np, "book")
            .into_iter()
            .find(|p| p.id == "g1")
            .expect("g1");
        let got = completions("We know the author of the book is Mark Twain.", &g1);
        assert_eq!(got, vec!["Mark Twain"]);
    }

    #[test]
    fn no_cue_no_completions() {
        let np = primary_noun_phrase("Airline").expect("np");
        let pattern = &extraction_patterns(&np, "flight")[0];
        assert!(completions("nothing relevant here", pattern).is_empty());
    }

    #[test]
    fn query_formatting_matches_google_syntax() {
        let np = primary_noun_phrase("Author").expect("np");
        let pattern = &extraction_patterns(&np, "book")[0];
        let info = DomainInfo {
            object: "book".into(),
            domain_terms: vec!["book".into()],
            sibling_terms: Vec::new(),
        };
        let q = build_query(pattern, &info, &cfg());
        assert_eq!(q, "\"authors such as\" +book");
    }

    #[test]
    fn sibling_keywords_narrow_queries() {
        let np = primary_noun_phrase("Author").expect("np");
        let pattern = &extraction_patterns(&np, "book")[0];
        let info = DomainInfo {
            object: "book".into(),
            domain_terms: vec!["book".into()],
            sibling_terms: vec!["title".into(), "isbn".into(), "publisher".into()],
        };
        let cfg = WebIQConfig {
            sibling_keywords: 2,
            ..WebIQConfig::default()
        };
        let q = build_query(pattern, &info, &cfg);
        // the paper's example query, exactly
        assert_eq!(q, "\"authors such as\" +book +title +isbn");
        // disabled by default
        assert_eq!(
            build_query(pattern, &info, &WebIQConfig::default()),
            "\"authors such as\" +book"
        );
    }

    #[test]
    fn multiword_domain_terms_are_quoted() {
        let np = primary_noun_phrase("City").expect("np");
        let pattern = &extraction_patterns(&np, "home")[0];
        let info = DomainInfo {
            object: "home".into(),
            domain_terms: vec!["real estate".into()],
            sibling_terms: Vec::new(),
        };
        let q = build_query(pattern, &info, &cfg());
        assert_eq!(q, "\"cities such as\" \"real estate\"");
    }

    #[test]
    fn prepositional_label_uses_inner_np() {
        let nps = label_noun_phrases("From city");
        assert_eq!(nps.len(), 1);
        assert_eq!(nps[0].text(), "city");
        assert!(label_noun_phrases("From").is_empty());
        assert!(!label_is_benign("From city"));
        assert!(label_is_benign("Departure city"));
    }

    #[test]
    fn end_to_end_extraction_against_engine() {
        let engine = SearchEngine::new(Corpus::from_texts([
            "Popular departure cities such as Boston, Chicago, and Denver are listed. This page is about travel.",
            "We feature such departure cities as Seattle and Atlanta. This page is about travel.",
            "This page is about gardening.",
        ])).expect("engine");
        let outcome = extract_candidates(&engine, "Departure city", &info(), &cfg());
        let texts: Vec<&str> = outcome.candidates.iter().map(|c| c.text.as_str()).collect();
        assert!(texts.contains(&"Boston"), "{texts:?}");
        assert!(texts.contains(&"Seattle"), "{texts:?}");
        assert!(outcome.queries >= 8);
    }

    #[test]
    fn label_without_np_yields_nothing() {
        let engine = SearchEngine::new(Corpus::from_texts(["anything"])).expect("engine");
        let outcome = extract_candidates(&engine, "From", &info(), &cfg());
        assert!(outcome.candidates.is_empty());
        assert_eq!(outcome.queries, 0);
    }

    #[test]
    fn duplicate_candidates_counted() {
        let engine = SearchEngine::new(Corpus::from_texts([
            "cities such as Boston and Chicago. This page is about travel.",
            "more cities such as Boston and Denver here. This page is about travel.",
        ]))
        .expect("engine");
        let outcome = extract_candidates(&engine, "City", &info(), &cfg());
        let boston = outcome
            .candidates
            .iter()
            .find(|c| c.text == "Boston")
            .expect("boston extracted");
        assert_eq!(boston.count, 2);
    }

    #[test]
    fn conjunction_label_covers_both_nps() {
        let engine = SearchEngine::new(Corpus::from_texts([
            "first names such as Alice and Bob. This page is about travel.",
            "last names such as Smith and Jones. This page is about travel.",
        ]))
        .expect("engine");
        let outcome = extract_candidates(&engine, "First name or last name", &info(), &cfg());
        let texts: Vec<&str> = outcome.candidates.iter().map(|c| c.text.as_str()).collect();
        assert!(texts.contains(&"Alice"), "{texts:?}");
        assert!(texts.contains(&"Smith"), "{texts:?}");
    }

    #[test]
    fn label_echo_filtered() {
        assert!(!plausible("city", "city"));
        assert!(plausible("Boston", "city"));
        assert!(!plausible("", "city"));
        assert!(!plausible("the", "city"));
    }
}
