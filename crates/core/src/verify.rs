//! The instance-verification phase (§2.2): statistical outlier removal
//! followed by Web validation with PMI-scored validation queries.

use webiq_prof::Stage;
use webiq_stats::{outlier, pmi};
use webiq_trace::Counter;
use webiq_web::{QueryBatch, QueryEngine};

use crate::config::WebIQConfig;

/// A candidate that survived verification, with its confidence score.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedInstance {
    /// The instance text.
    pub text: String,
    /// Average validation score across the validation phrases.
    pub score: f64,
}

/// Outcome of the verification phase.
#[derive(Debug, Clone, Default)]
pub struct VerificationOutcome {
    /// Survivors, best first (at most `k`).
    pub instances: Vec<ValidatedInstance>,
    /// Candidates removed by the outlier phase.
    pub outliers_removed: usize,
    /// Candidates removed by Web validation.
    pub validation_removed: usize,
}

/// The hit-count queries behind one validation score: the joint query
/// `"V x"`, then, for PMI, the phrase marginal `"V"` and the candidate
/// marginal `"x"` — in the order the scorers issue them. The one source
/// of these strings, so a prefetched batch cannot drift from what the
/// scorers later ask.
pub(crate) fn validation_queries(phrase: &str, candidate: &str, use_pmi: bool) -> Vec<String> {
    let joint = format!("\"{phrase} {candidate}\"");
    if !use_pmi {
        return vec![joint];
    }
    vec![joint, format!("\"{phrase}\""), format!("\"{candidate}\"")]
}

/// Warm `engine` for validating every one of `candidates` against every
/// phrase: one [`QueryBatch`] of all their [`validation_queries`], whose
/// round-trips the engine may overlap. The scoring that follows then
/// issues the same queries one by one, unchanged.
pub(crate) fn prefetch_validation<'c, E: QueryEngine>(
    engine: &E,
    phrases: &[String],
    candidates: impl IntoIterator<Item = &'c String>,
    use_pmi: bool,
) {
    let queries: Vec<String> = candidates
        .into_iter()
        .flat_map(|c| {
            phrases
                .iter()
                .flat_map(move |p| validation_queries(p, c, use_pmi))
        })
        .collect();
    engine.prefetch(QueryBatch::Hits(&queries));
}

/// Compute the validation score of `candidate` against one validation
/// phrase (§2.2): `PMI(V, x) = NumHits(V + x) / (NumHits(V) · NumHits(x))`,
/// or the raw joint hit count when `use_pmi` is off (the ablation that
/// exhibits popularity bias).
pub fn validation_score<E: QueryEngine>(
    engine: &E,
    phrase: &str,
    candidate: &str,
    use_pmi: bool,
) -> f64 {
    validation_hits(engine, phrase, candidate, use_pmi).1
}

/// The hit counts of [`validation_queries`], in issue order, and the
/// score they give.
fn validation_hits<E: QueryEngine>(
    engine: &E,
    phrase: &str,
    candidate: &str,
    use_pmi: bool,
) -> (Vec<u64>, f64) {
    let hits: Vec<u64> = validation_queries(phrase, candidate, use_pmi)
        .iter()
        .map(|q| engine.num_hits(q))
        .collect();
    let score = match hits[..] {
        [joint, v, x] => pmi::pmi(joint, v, x),
        [joint] => joint as f64,
        // validation_queries yields one query or three
        _ => 0.0,
    };
    (hits, score)
}

/// The full validation vector of a candidate across all phrases.
pub fn validation_vector<E: QueryEngine>(
    engine: &E,
    phrases: &[String],
    candidate: &str,
    use_pmi: bool,
) -> Vec<f64> {
    phrases
        .iter()
        .map(|p| validation_score(engine, p, candidate, use_pmi))
        .collect()
}

/// Average validation score (the paper's confidence score).
pub fn confidence<E: QueryEngine>(
    engine: &E,
    phrases: &[String],
    candidate: &str,
    use_pmi: bool,
) -> f64 {
    let scores = validation_vector(engine, phrases, candidate, use_pmi);
    pmi::average(&scores)
}

/// [`confidence`] plus the per-phrase evidence behind it: the joint and
/// marginal hit counts and the PMI score of every validation phrase, as
/// decision terms (`joint_i`, `vhits_i`, `xhits_i`, `pmi_i`). Issues
/// exactly the same engine queries in exactly the same order as
/// [`confidence`], so swapping one for the other cannot perturb the
/// deterministic counter stream.
pub fn confidence_with_evidence<E: QueryEngine>(
    engine: &E,
    phrases: &[String],
    candidate: &str,
    use_pmi: bool,
) -> (f64, Vec<(String, f64)>) {
    let mut terms = Vec::new();
    let mut scores = Vec::with_capacity(phrases.len());
    for (i, phrase) in phrases.iter().enumerate() {
        let (hits, s) = validation_hits(engine, phrase, candidate, use_pmi);
        for (name, h) in ["joint", "vhits", "xhits"].iter().zip(&hits) {
            terms.push((format!("{name}_{i}"), *h as f64));
        }
        if use_pmi {
            terms.push((format!("pmi_{i}"), s));
        }
        scores.push(s);
    }
    (pmi::average(&scores), terms)
}

/// Run the verification phase over extraction candidates: outlier
/// detection (when enabled), then Web validation, returning the top `k`
/// by confidence. Traced as a `verify` span; removals and survivors are
/// tallied under [`Counter::OutliersRemoved`],
/// [`Counter::ValidationRejected`], and [`Counter::ValidationAccepted`].
///
/// When the engine reports that hit-count evidence is no longer
/// trustworthy ([`QueryEngine::validation_available`] — e.g. the daily
/// quota is exhausted), Web validation degrades to **statistics-only**
/// filtering: the outlier phase still runs, but survivors are kept
/// unscored rather than burning queries that would be denied anyway.
/// The validation counters are left untouched in that mode — the stage
/// genuinely did not run.
pub fn verify_candidates<E: QueryEngine>(
    engine: &E,
    phrases: &[String],
    candidates: &[String],
    cfg: &WebIQConfig,
) -> VerificationOutcome {
    webiq_prof::time(Stage::Verify, || {
        verify_candidates_inner(engine, phrases, candidates, cfg)
    })
}

/// One candidate's validation evidence: text, score, and the named
/// terms behind the score, ready for an `instance_validate` record.
type CandidateEvidence = (String, f64, Vec<(String, f64)>);

/// [`verify_candidates`] minus the profiling wrapper, so the wall-clock
/// stage timer brackets exactly one verification pass.
fn verify_candidates_inner<E: QueryEngine>(
    engine: &E,
    phrases: &[String],
    candidates: &[String],
    cfg: &WebIQConfig,
) -> VerificationOutcome {
    let _span = webiq_trace::span("verify");
    let (kept, outliers_removed) = if cfg.outlier_phase {
        let r = outlier::remove_outliers_with(candidates, cfg.discordancy);
        (r.kept, r.removed.len())
    } else {
        (
            candidates
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            0,
        )
    };

    if !engine.validation_available() {
        let mut instances: Vec<ValidatedInstance> = kept
            .into_iter()
            .map(|text| ValidatedInstance { text, score: 0.0 })
            .collect();
        instances.sort_by(|a, b| a.text.cmp(&b.text));
        instances.truncate(cfg.k);
        webiq_trace::add(Counter::OutliersRemoved, outliers_removed as u64);
        return VerificationOutcome {
            instances,
            outliers_removed,
            validation_removed: 0,
        };
    }

    prefetch_validation(engine, phrases, &kept, cfg.use_pmi);
    let evidence: Vec<CandidateEvidence> = kept
        .into_iter()
        .map(|text| {
            let (score, mut terms) = confidence_with_evidence(engine, phrases, &text, cfg.use_pmi);
            terms.push(("score".to_string(), score));
            terms.push(("threshold".to_string(), cfg.min_validation_score));
            (text, score, terms)
        })
        .collect();
    let mut scored: Vec<ValidatedInstance> = evidence
        .iter()
        .map(|(text, score, _)| ValidatedInstance {
            text: text.clone(),
            score: *score,
        })
        .collect();
    let before = scored.len();
    scored.retain(|v| v.score > cfg.min_validation_score);
    let validation_removed = before - scored.len();

    scored.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.text.cmp(&b.text))
    });
    scored.truncate(cfg.k);
    // one provenance record per candidate, in extraction order; accept
    // means "survived the threshold AND the top-k cut"
    let accepted: std::collections::BTreeSet<&str> =
        scored.iter().map(|v| v.text.as_str()).collect();
    for (text, _, terms) in &evidence {
        let refs: Vec<(&str, f64)> = terms.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        webiq_why::record::instance_validate(text, accepted.contains(text.as_str()), &refs);
    }
    webiq_trace::add(Counter::OutliersRemoved, outliers_removed as u64);
    webiq_trace::add(Counter::ValidationRejected, validation_removed as u64);
    webiq_trace::add(Counter::ValidationAccepted, scored.len() as u64);
    VerificationOutcome {
        instances: scored,
        outliers_removed,
        validation_removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq_web::{Corpus, SearchEngine};

    fn engine() -> SearchEngine {
        SearchEngine::new(Corpus::from_texts([
            // strong evidence for Honda/Toyota as makes
            "makes such as Honda and Toyota are common",
            "Make: Honda. Model: Accord.",
            "Make: Toyota. Model: Camry.",
            "this car's make is Honda",
            // Economy appears a lot but never near "make"
            "economy class is cheap",
            "economy news economy report economy",
            "the economy grows",
        ]))
        .expect("engine")
    }

    fn phrases() -> Vec<String> {
        vec!["make".into(), "makes such as".into()]
    }

    #[test]
    fn validation_queries_are_joint_then_marginals() {
        assert_eq!(
            validation_queries("makes such as", "Honda", true),
            ["\"makes such as Honda\"", "\"makes such as\"", "\"Honda\""]
        );
        assert_eq!(
            validation_queries("make", "Honda", false),
            ["\"make Honda\""]
        );
    }

    #[test]
    fn evidence_terms_follow_the_scored_queries() {
        let e = engine();
        for use_pmi in [true, false] {
            let (score, terms) = confidence_with_evidence(&e, &phrases(), "Honda", use_pmi);
            assert_eq!(score, confidence(&e, &phrases(), "Honda", use_pmi));
            let names: Vec<&str> = terms.iter().map(|(n, _)| n.as_str()).collect();
            let want: &[&str] = if use_pmi {
                &[
                    "joint_0", "vhits_0", "xhits_0", "pmi_0", "joint_1", "vhits_1", "xhits_1",
                    "pmi_1",
                ]
            } else {
                &["joint_0", "joint_1"]
            };
            assert_eq!(names, want);
            assert_eq!(terms[0].1, e.num_hits("\"make Honda\"") as f64);
        }
    }

    #[test]
    fn instances_outscore_non_instances() {
        let e = engine();
        let honda = confidence(&e, &phrases(), "Honda", true);
        let economy = confidence(&e, &phrases(), "Economy", true);
        assert!(honda > economy, "honda={honda} economy={economy}");
        assert_eq!(economy, 0.0);
    }

    #[test]
    fn pmi_corrects_popularity_bias() {
        // raw joint hits would rank a popular co-occurring term higher than
        // a rare true instance; PMI normalises by the marginals
        let e = SearchEngine::new(Corpus::from_texts([
            "makes such as Honda",
            "makes such as Star every day",
            "Star here",
            "Star there",
            "Star again",
            "Star a lot",
            "Star star",
            "Star news",
            "Star reviews",
            "Star ratings",
        ]))
        .expect("engine");
        let p = vec!["makes such as".to_string()];
        let honda_pmi = confidence(&e, &p, "Honda", true);
        let star_pmi = confidence(&e, &p, "Star", true);
        assert!(
            honda_pmi > star_pmi,
            "pmi: honda={honda_pmi} star={star_pmi}"
        );
        let honda_raw = confidence(&e, &p, "Honda", false);
        let star_raw = confidence(&e, &p, "Star", false);
        assert!(
            honda_raw <= star_raw,
            "raw: honda={honda_raw} star={star_raw}"
        );
    }

    #[test]
    fn verify_keeps_true_instances_and_drops_noise() {
        let e = engine();
        let candidates: Vec<String> = ["Honda", "Toyota", "Economy"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let out = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        let texts: Vec<&str> = out.instances.iter().map(|i| i.text.as_str()).collect();
        assert!(texts.contains(&"Honda"));
        assert!(texts.contains(&"Toyota"));
        assert!(!texts.contains(&"Economy"));
        assert_eq!(out.validation_removed, 1);
    }

    #[test]
    fn top_k_is_respected() {
        let e = engine();
        let candidates: Vec<String> = vec!["Honda".into(), "Toyota".into()];
        let cfg = WebIQConfig {
            k: 1,
            ..WebIQConfig::default()
        };
        let out = verify_candidates(&e, &phrases(), &candidates, &cfg);
        assert_eq!(out.instances.len(), 1);
    }

    #[test]
    fn outlier_phase_removes_overlong_junk() {
        let e = engine();
        let mut candidates: Vec<String> = [
            "Honda", "Toyota", "Nissan", "Mazda", "Subaru", "Lexus", "Acura", "Jeep", "Dodge",
            "Buick", "Chevy", "Saturn",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        candidates.push("a very long extraction artifact that is clearly not a car make".into());
        let out = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        assert_eq!(out.outliers_removed, 1);

        // ablation: with the outlier phase off, the junk reaches (and is
        // rejected by) Web validation instead — costing validation queries
        let cfg = WebIQConfig {
            outlier_phase: false,
            ..WebIQConfig::default()
        };
        let out2 = verify_candidates(&e, &phrases(), &candidates, &cfg);
        assert_eq!(out2.outliers_removed, 0);
        assert!(out2.validation_removed >= 1);
    }

    #[test]
    fn grubbs_variant_is_usable() {
        use webiq_stats::DiscordancyTest;
        let e = engine();
        // n = 6: the 3σ rule cannot fire, Grubbs can
        let candidates: Vec<String> = ["Honda", "Toyota", "Nissan", "Mazda", "Subaru"]
            .iter()
            .map(|s| (*s).to_string())
            .chain(["an extremely long extraction artifact that is not a make".to_string()])
            .collect();
        let sigma = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        let cfg = WebIQConfig {
            discordancy: DiscordancyTest::Grubbs,
            ..WebIQConfig::default()
        };
        let grubbs = verify_candidates(&e, &phrases(), &candidates, &cfg);
        assert_eq!(sigma.outliers_removed, 0);
        assert_eq!(grubbs.outliers_removed, 1);
    }

    #[test]
    fn empty_candidates() {
        let e = engine();
        let out = verify_candidates(&e, &phrases(), &[], &WebIQConfig::default());
        assert!(out.instances.is_empty());
    }

    #[test]
    fn ordering_is_deterministic() {
        let e = engine();
        let candidates: Vec<String> = vec!["Toyota".into(), "Honda".into()];
        let a = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        let b = verify_candidates(&e, &phrases(), &candidates, &WebIQConfig::default());
        assert_eq!(a.instances, b.instances);
    }
}
