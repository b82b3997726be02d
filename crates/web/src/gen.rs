//! Synthetic Surface-Web corpus generation.
//!
//! The paper queried Google over the 2006 Web; we regenerate the *relevant
//! statistical structure* of that Web from per-domain concept
//! specifications:
//!
//! - **Hearst-pattern sentences** (`departure cities such as Boston,
//!   Chicago, and LAX`) are what the extraction queries of Fig. 4 harvest;
//! - **proximity co-occurrences** (`Make: Honda, Model: Accord`) and
//!   **singleton patterns** (`the author of the book is J. K. Rowling`)
//!   feed the validation queries;
//! - **popularity skew** (Zipf-weighted instance mentions) creates the
//!   popularity bias that motivates PMI over raw hit counts;
//! - **confuser sentences** inject false completions that the outlier and
//!   Web-validation phases must remove;
//! - **noise documents** dilute everything, as the real Web does.
//!
//! Generation is fully deterministic given the seed.

use webiq_nlp::inflect;
use webiq_rng::{SliceRandom, StdRng};

use crate::corpus::Corpus;

/// Specification of one semantic concept appearing on the simulated Web.
#[derive(Debug, Clone)]
pub struct ConceptSpec {
    /// Stable identifier, e.g. `"airfare/city"`.
    pub key: String,
    /// Singular lexicalizations (noun phrases) the Web uses for this
    /// concept: `["departure city", "origin city", "city"]`. The first is
    /// the canonical one.
    pub lexicalizations: Vec<String>,
    /// The real-world object the concept belongs to (`"flight"`, `"book"`).
    pub object: String,
    /// Domain words sprinkled into pages so `+keyword` scoping works.
    pub domain_terms: Vec<String>,
    /// Instances in descending popularity order (Zipf-weighted).
    pub instances: Vec<String>,
    /// False completions occasionally emitted after cue phrases.
    pub confusers: Vec<String>,
    /// Relative Web coverage of the concept: scales the number of
    /// concept-focused documents (1.0 = the configured
    /// [`GenConfig::docs_per_concept`]; 0.0 = the Web never discusses this
    /// concept in extractable patterns).
    pub richness: f64,
}

impl ConceptSpec {
    /// Plural form of a lexicalization, pluralising the *head noun* —
    /// `"departure city"` → `"departure cities"`, `"class of service"` →
    /// `"classes of service"` — via the same chunker WebIQ's own label
    /// analysis uses.
    pub fn plural_of(lex: &str) -> String {
        match webiq_nlp::chunk::classify_label(lex) {
            webiq_nlp::chunk::LabelForm::NounPhrase(np) => np.plural_text(),
            _ => match lex.rsplit_once(' ') {
                Some((front, head)) => format!("{front} {}", inflect::pluralize(head)),
                None => inflect::pluralize(lex),
            },
        }
    }
}

/// Tuning knobs for corpus generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Documents generated per concept.
    pub docs_per_concept: usize,
    /// Pure-noise documents appended to the corpus.
    pub noise_docs: usize,
    /// Probability that a Hearst-pattern list contains one confuser.
    pub confuser_rate: f64,
    /// Mean number of instance-popularity documents for the most popular
    /// instance (scaled down the Zipf tail).
    pub popularity_docs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            docs_per_concept: 140,
            noise_docs: 150,
            confuser_rate: 0.18,
            popularity_docs: 12,
            seed: 0x5eed,
        }
    }
}

/// Zipf-weighted instance pick: instance `i` has weight `1/(i+1)^power`.
/// `power` = 1 gives the classic skew (popularity pages); the flatter 0.5
/// is used inside Hearst lists so tail instances still get enumerated.
fn pick_instance<'a>(rng: &mut StdRng, instances: &'a [String], power: f64) -> Option<&'a str> {
    if instances.is_empty() {
        return None;
    }
    let weights: Vec<f64> = (0..instances.len())
        .map(|i| 1.0 / (i as f64 + 1.0).powf(power))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut roll = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if roll < *w {
            return Some(&instances[i]);
        }
        roll -= w;
    }
    instances.last().map(String::as_str)
}

/// Pick `n` distinct instances, Zipf-weighted, preserving no particular
/// order. Returns fewer when the inventory is small.
fn pick_distinct<'a>(rng: &mut StdRng, instances: &'a [String], n: usize) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    let mut attempts = 0;
    while out.len() < n.min(instances.len()) && attempts < 50 {
        attempts += 1;
        if let Some(inst) = pick_instance(rng, instances, 0.5) {
            if !out.contains(&inst) {
                out.push(inst);
            }
        }
    }
    out
}

/// Render a comma list with Oxford `and`.
fn comma_list(items: &[&str]) -> String {
    match items {
        [] => String::new(),
        [only] => (*only).to_string(),
        [a, b] => format!("{a} and {b}"),
        _ => match items.split_last() {
            Some((last, head)) => format!("{}, and {last}", head.join(", ")),
            None => String::new(),
        },
    }
}

/// Generate the sentences of one concept-focused document. `siblings` are
/// the other concepts of the same domain: real pages that enumerate
/// authors also mention titles and ISBNs, which is what makes the paper's
/// sibling-keyword query scoping ("authors such as" +book +title)
/// effective.
fn concept_sentences(
    rng: &mut StdRng,
    c: &ConceptSpec,
    siblings: &[&ConceptSpec],
    confuser_rate: f64,
) -> Vec<String> {
    let Some(lex) = c.lexicalizations.choose(rng).map(String::as_str) else {
        return Vec::new();
    };
    let plural = ConceptSpec::plural_of(lex);
    let mut sentences = Vec::new();
    // Template mix: Hearst set patterns dominate (they are what the real
    // Web's enumeration pages look like), followed by proximity mentions
    // and singleton patterns.
    static TEMPLATES: &[u8] = &[0, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 8, 8, 9];
    let n_sent = rng.gen_range(2..=4);
    for _ in 0..n_sent {
        let template = TEMPLATES.choose(rng).copied().unwrap_or(0);
        let list_len = rng.gen_range(2..=4usize);
        let mut items: Vec<&str> = pick_distinct(rng, &c.instances, list_len);
        if items.is_empty() {
            continue;
        }
        // Occasionally poison a list with a confuser (false completion).
        if !c.confusers.is_empty() && rng.gen_bool(confuser_rate) {
            if let Some(confuser) = c.confusers.choose(rng) {
                items.push(confuser.as_str());
            }
        }
        let Some(&x) = items.first() else { continue };
        let s = match template {
            // Hearst set patterns s1–s4
            0 => format!(
                "Popular {plural} such as {} are listed on this page.",
                comma_list(&items)
            ),
            1 => format!("We feature such {plural} as {}.", comma_list(&items)),
            2 => format!("{plural} including {} are available.", comma_list(&items)),
            3 => format!("{}, and other {plural}.", comma_list(&items)),
            // singleton patterns g1–g4
            4 => format!("The {lex} of the {} is {x}.", c.object),
            5 => format!("{x} is the {lex} of the {}.", c.object),
            6 => format!("{x} is the {lex}."),
            7 => format!("The {lex} is {x}."),
            // proximity patterns
            8 => format!("{}: {x}.", capitalize(lex)),
            _ => format!("Find the {} by {lex} {x}.", c.object),
        };
        sentences.push(s);
    }
    // sibling-concept mentions: half the pages carry a proximity line for
    // one or two other attributes of the same domain
    if !siblings.is_empty() && rng.gen_bool(0.5) {
        let n = rng.gen_range(1..=2usize.min(siblings.len()));
        for _ in 0..n {
            let Some(sib) = siblings.choose(rng) else {
                continue;
            };
            let (Some(lex), Some(x)) = (
                sib.lexicalizations.first(),
                pick_instance(rng, &sib.instances, 0.5),
            ) else {
                continue;
            };
            sentences.push(format!("{}: {x}.", capitalize(lex)));
        }
    }
    // domain scatter so `+domain` keyword restrictions match
    if !c.domain_terms.is_empty() && rng.gen_bool(0.8) {
        sentences.push(format!(
            "This page is about {}.",
            c.domain_terms.join(" and ")
        ));
    }
    sentences
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Filler vocabulary for noise pages.
static NOISE_WORDS: &[&str] = &[
    "garden", "weather", "recipe", "soccer", "news", "music", "forum", "photo", "holiday",
    "museum", "review", "tutorial", "history", "concert", "festival", "market", "gallery",
    "village", "bridge", "mountain", "river", "cooking",
];

/// Generate the full corpus for a set of concepts.
pub fn generate(concepts: &[ConceptSpec], config: &GenConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut corpus = Corpus::default();

    // Domain grouping (key prefix up to '/') so sibling mentions stay
    // within a domain when corpora for several domains are merged.
    let domain_of = |c: &ConceptSpec| c.key.split('/').next().unwrap_or("").to_string();

    for c in concepts {
        let domain = domain_of(c);
        let siblings: Vec<&ConceptSpec> = concepts
            .iter()
            .filter(|s| s.key != c.key && domain_of(s) == domain)
            .collect();
        // concept-focused pages, scaled by the concept's Web richness
        let n_docs = (config.docs_per_concept as f64 * c.richness).round() as usize;
        for _ in 0..n_docs {
            let sentences = concept_sentences(&mut rng, c, &siblings, config.confuser_rate);
            if !sentences.is_empty() {
                corpus.push(sentences.join(" "));
            }
        }
        // instance-popularity pages: instance mentioned *without* the
        // concept, inflating NumHits(x) for popular instances.
        for (rank, instance) in c.instances.iter().enumerate() {
            let docs = (config.popularity_docs as f64 / (rank as f64 + 1.0)).ceil() as usize;
            for _ in 0..docs {
                let filler = NOISE_WORDS.choose(&mut rng).copied().unwrap_or("article");
                corpus.push(format!(
                    "{instance} appears in this {filler} article. Read more about {instance}."
                ));
            }
        }
    }

    // pure-noise pages
    for _ in 0..config.noise_docs {
        let n = rng.gen_range(6..=14);
        let words: Vec<&str> = (0..n)
            .filter_map(|_| NOISE_WORDS.choose(&mut rng).copied())
            .collect();
        corpus.push(format!("{}.", words.join(" ")));
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;

    fn city_concept() -> ConceptSpec {
        ConceptSpec {
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
                "Portland".into(),
            ],
            confusers: vec!["the following options".into()],
            richness: 1.0,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let c = [city_concept()];
        let cfg = GenConfig::default();
        let a = generate(&c, &cfg);
        let b = generate(&c, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.text, y.text);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let c = [city_concept()];
        let a = generate(
            &c,
            &GenConfig {
                seed: 1,
                ..GenConfig::default()
            },
        );
        let b = generate(
            &c,
            &GenConfig {
                seed: 2,
                ..GenConfig::default()
            },
        );
        let same = a.iter().zip(b.iter()).all(|(x, y)| x.text == y.text);
        assert!(!same);
    }

    #[test]
    fn hearst_patterns_are_searchable() {
        let c = [city_concept()];
        let corpus = generate(&c, &GenConfig::default());
        let _prof = crate::engine::prof_lock();
        let engine = SearchEngine::new(corpus).expect("engine");
        // At least one of the cue phrases must be present and completed by
        // instances.
        let hits = engine.num_hits(r#""departure cities such as""#)
            + engine.num_hits(r#""such departure cities as""#)
            + engine.num_hits(r#""departure cities including""#)
            + engine.num_hits(r#""and other departure cities""#);
        assert!(hits > 0, "no Hearst sentences generated");
    }

    #[test]
    fn popular_instances_have_more_hits() {
        let c = [city_concept()];
        let corpus = generate(&c, &GenConfig::default());
        let _prof = crate::engine::prof_lock();
        let engine = SearchEngine::new(corpus).expect("engine");
        let boston = engine.num_hits("boston");
        let portland = engine.num_hits("portland");
        assert!(
            boston > portland,
            "popularity skew missing: boston={boston} portland={portland}"
        );
    }

    #[test]
    fn domain_terms_present() {
        let c = [city_concept()];
        let corpus = generate(&c, &GenConfig::default());
        let _prof = crate::engine::prof_lock();
        let engine = SearchEngine::new(corpus).expect("engine");
        assert!(engine.num_hits("airfare") > 0);
    }

    #[test]
    fn noise_docs_generated() {
        let corpus = generate(
            &[],
            &GenConfig {
                noise_docs: 10,
                ..GenConfig::default()
            },
        );
        assert_eq!(corpus.len(), 10);
    }

    #[test]
    fn plural_of_multiword() {
        assert_eq!(ConceptSpec::plural_of("departure city"), "departure cities");
        assert_eq!(ConceptSpec::plural_of("airline"), "airlines");
    }

    #[test]
    fn comma_list_forms() {
        assert_eq!(comma_list(&[]), "");
        assert_eq!(comma_list(&["a"]), "a");
        assert_eq!(comma_list(&["a", "b"]), "a and b");
        assert_eq!(comma_list(&["a", "b", "c"]), "a, b, and c");
    }

    #[test]
    fn empty_instance_list_yields_no_concept_pages() {
        let mut c = city_concept();
        c.instances.clear();
        let corpus = generate(
            &[c],
            &GenConfig {
                noise_docs: 0,
                ..GenConfig::default()
            },
        );
        // only the domain-scatter sentences may appear; concept pages with
        // no instances produce either nothing or domain-only pages
        for d in corpus.iter() {
            assert!(!d.text.contains("such as ,"));
        }
    }
}
