//! `perfbench`: the WebIQ end-to-end benchmark.
//!
//! One *op* matches one domain: acquire instances → enrich the matcher's
//! inputs → match → evaluate against gold. The five paper domains run back
//! to back, pass after pass, in a closed loop with one client. A run does a
//! fixed number of passes per 45 seconds of `--seconds`, so every run of a
//! workload does the same work and yields the same number of samples. Each
//! op builds its domain's inputs first (dataset, corpus, index, Deep-Web
//! sources) with a fresh, cold `SearchEngine`; that build, repeated
//! [`SETUP_BUILDS`] times, is timed as set-up, apart from the op.
//!
//! With `--trace 0` the run reports the end-to-end metrics. With
//! `--trace 1` it first runs untraced passes as a reference, then traced
//! passes with the program's tracer on and the benchmark's own spans
//! around each layer call, and reports the per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md`.

mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use webiq::core::acquire::{self, case1_candidates, case2_candidates, Acquisition};
use webiq::core::{Components, WebIQConfig};
use webiq::data::records::{build_deep_source, RecordOptions};
use webiq::data::{corpus, generate_domain, DomainDef, GenOptions};
use webiq::matcher::cluster::{cluster_logged, similarity_matrix, Item};
use webiq::matcher::{match_attributes, similarity, MatchAttribute, MatchConfig, MatchResult};
use webiq::pipeline::{DomainPipeline, THRESHOLD};
use webiq::prof::{ProfCounter, Stage};
use webiq::store::Store;
use webiq::trace::{Counter, Tracer};
use webiq::web::{gen, GenConfig, SearchEngine};

use spans::Spans;
use stats::{mean, median, percentile, tail_percentile, Fnv};

/// The paper's five domains, in run order.
const DOMAINS: [&str; 5] = ["airfare", "auto", "book", "job", "realestate"];
/// The seed the committed expected outputs were recorded at.
const DEFAULT_SEED: u64 = 0x1ce0;
/// The `--seconds` a workload's `passes` are sized for.
const NOMINAL_SECONDS: f64 = 45.0;
/// Interfaces per domain: the paper's ICQ scale.
const INTERFACES: usize = 20;
/// Simulated engine round-trip per cache miss, in microseconds.
const LATENCY_US: u64 = 1000;
/// Builds of a domain's inputs per op: the op uses the last, and every one
/// is a `setup_s` sample, so each domain's set-up time is the median of many
/// builds spread over the run.
const SETUP_BUILDS: usize = 5;

#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    /// Acquisition worker threads. Matching is single-threaded.
    threads: usize,
    /// Attach a fresh persistent store to each op (cold writes, fsync,
    /// compaction), then reopen it and replay the run warm as a check.
    store: bool,
    /// Passes per [`NOMINAL_SECONDS`] of `--seconds`.
    passes: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "latency20",
        threads: 2,
        store: true,
        // 40 ops, so that p75 has ten ops beyond it and is the tail.
        passes: 8,
    },
    Workload {
        name: "latency20_seq",
        threads: 1,
        store: false,
        passes: 2,
    },
];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("domain_s_p50", "s"),
    ("domain_s_tail", "s"),
    ("attrs_per_s", "1/s"),
    ("engine_round_trips", "count"),
    ("f1_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Counts and seconds are
/// per pass (one op per domain).
const PER_LAYER: [(&str, &str); 40] = [
    ("data.build_s", "s"),
    ("data.attributes", "count"),
    ("web.corpus_s", "s"),
    ("web.index_s", "s"),
    ("web.queries", "count"),
    ("web.misses", "count"),
    ("web.hit_ratio", "ratio"),
    ("web.busy_s", "s"),
    ("core.acquire_s", "s"),
    ("core.extract_busy_s", "s"),
    ("core.extract_self_s", "s"),
    ("core.verify_busy_s", "s"),
    ("core.bayes_busy_s", "s"),
    ("core.borrow_busy_s", "s"),
    ("core.borrow_self_s", "s"),
    ("core.prefilter_s", "s"),
    ("core.prefilter_calls", "count"),
    ("core.validation_accept_ratio", "ratio"),
    ("core.borrow_probed", "count"),
    ("core.borrow_accept_ratio", "ratio"),
    ("deep.sources_s", "s"),
    ("deep.probes", "count"),
    ("deep.probe_busy_s", "s"),
    ("deep.server_error_ratio", "ratio"),
    ("matcher.input_s", "s"),
    ("matcher.sim_s", "s"),
    ("matcher.pairs", "count"),
    ("matcher.cluster_s", "s"),
    ("matcher.iterations", "count"),
    ("matcher.merges", "count"),
    ("matcher.evaluate_s", "s"),
    ("store.open_s", "s"),
    ("store.records_recovered", "count"),
    ("store.replay_s", "s"),
    ("store.warm_hits", "count"),
    ("store.records_written", "count"),
    ("store.compact_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("op.unattributed_s", "s"),
    ("op.wall_s", "s"),
];

const USAGE: &str = "usage: perfbench --workload <latency20|latency20_seq> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--expected FILE] \
[--interfaces N] [--domains a,b,...]";

struct Args {
    workload: Workload,
    /// Interfaces per domain ([`INTERFACES`] unless a test shrinks it).
    interfaces: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    expected: PathBuf,
    domains: Vec<&'static DomainDef>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: WORKLOADS[0],
        interfaces: INTERFACES,
        seed: DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        expected: PathBuf::from("perfbench/expected.tsv"),
        domains: Vec::new(),
    };
    let mut workload = None;
    let mut domains: Vec<String> = DOMAINS.iter().map(|d| (*d).to_string()).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("must be a finite number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--expected" => args.expected = PathBuf::from(value),
            "--interfaces" => {
                let n: usize = value.parse().map_err(|_| bad("not a count"))?;
                if n < 2 {
                    return Err(bad("at least 2 interfaces"));
                }
                args.interfaces = n;
            }
            "--domains" => domains = value.split(',').map(str::to_string).collect(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    for d in &domains {
        let def = webiq::data::domain(d)
            .filter(|_| DOMAINS.contains(&d.as_str()))
            .ok_or_else(|| format!("unknown domain {d:?}"))?;
        args.domains.push(def);
    }
    if args.domains.is_empty() {
        return Err("no domains".into());
    }
    Ok(args)
}

/// Expected per-domain outputs at [`DEFAULT_SEED`], keyed by interface
/// count and domain: `(digest, F-1 in % to two places)`. Outputs do not
/// depend on the thread count, the simulated latency or the store, so every
/// workload shares them.
struct Expected(BTreeMap<(usize, String), (String, String)>);

impl Expected {
    /// Parse the tab-separated file: `interfaces domain digest f1_pct` per
    /// line; `#` starts a comment. A missing file is empty, which fails
    /// every op of a default-size run (see [`Bench::check_outputs`]).
    fn load(path: &Path) -> Result<Self, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let (4, Ok(n)) = (f.len(), f[0].parse::<usize>()) else {
                return Err(format!("{}:{}: malformed line", path.display(), i + 1));
            };
            map.insert((n, f[1].to_string()), (f[2].to_string(), f[3].to_string()));
        }
        Ok(Expected(map))
    }
}

/// Per-layer sums over the measured ops.
#[derive(Default)]
struct Acc(BTreeMap<&'static str, f64>);

impl Acc {
    fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_default() += v;
    }

    fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }
}

/// One completed, correct op.
struct OpSample {
    domain: &'static str,
    wall_s: f64,
    attrs: usize,
    f1_pct: f64,
}

struct Bench {
    args: Args,
    expected: Expected,
    spans: Spans,
    work_dir: PathBuf,
    next_op: u64,
    /// Seconds of each build of a domain's inputs.
    setup_s: BTreeMap<&'static str, Vec<f64>>,
    acc: Acc,
    attempted: u64,
    failed: u64,
    /// Each domain's first `(digest, F-1)`: later ops must repeat it.
    first: BTreeMap<&'static str, (String, String)>,
    /// Domains whose split matcher path was checked against
    /// `match_attributes`.
    split_checked: Vec<&'static str>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok(last) => println!("{last}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: Args) -> Result<String, String> {
    let expected = Expected::load(&args.expected)?;
    let work_dir = args.out.join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let mut b = Bench {
        spans: Spans::new(false),
        args,
        expected,
        work_dir,
        next_op: 0,
        setup_s: BTreeMap::new(),
        acc: Acc::default(),
        attempted: 0,
        failed: 0,
        first: BTreeMap::new(),
        split_checked: Vec::new(),
    };
    let (ops, passes, reference) = b.measure();
    let _ = std::fs::remove_dir_all(&b.work_dir);
    b.report(&ops, passes, &reference)
}

impl Bench {
    /// Run the measured passes: `(ops, passes, reference untraced op
    /// walls)`.
    fn measure(&mut self) -> (Vec<OpSample>, usize, Vec<f64>) {
        // One untimed op first, so the measured ops start with allocator
        // and page-cache state settled.
        self.run_op(0, false);
        self.setup_s.clear();
        self.acc = Acc::default();
        let w = self.args.workload;
        let passes = (w.passes as f64 * self.args.seconds / NOMINAL_SECONDS + 1e-9) as usize;
        if !self.args.trace {
            let passes = passes.max(1);
            return (self.passes(passes, false), passes, Vec::new());
        }
        // The untraced reference passes give the tracing overhead; only
        // the traced passes feed the per-layer metrics.
        let passes = (passes / 2).max(1);
        let reference = self.passes(passes, false);
        self.spans.set_enabled(true);
        self.acc = Acc::default();
        let ops = self.passes(passes, true);
        (ops, passes, reference.iter().map(|o| o.wall_s).collect())
    }

    /// `count` passes over the domains; the samples of the ops that
    /// succeeded.
    fn passes(&mut self, count: usize, traced: bool) -> Vec<OpSample> {
        let mut ops = Vec::new();
        for _ in 0..count {
            for i in 0..self.args.domains.len() {
                ops.extend(self.run_op(i, traced));
            }
        }
        ops
    }

    /// Build, run and check the op of domain `i`; a failed op is counted
    /// and reported, and yields no sample.
    fn run_op(&mut self, i: usize, traced: bool) -> Option<OpSample> {
        let def = self.args.domains[i];
        self.attempted += 1;
        self.next_op += 1;
        let op = self.next_op;
        let store_dir = self
            .args
            .workload
            .store
            .then(|| self.work_dir.join(format!("op-{op}")));
        let outcome = self
            .setup(def, op, traced)
            .and_then(|p| self.op(&p, op, traced, store_dir.as_deref()));
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        outcome
            .map_err(|e| {
                self.failed += 1;
                self.spans.close_all();
                eprintln!("perfbench: op failed ({}): {e}", def.key);
            })
            .ok()
    }

    /// Build the domain's inputs [`SETUP_BUILDS`] times, timing each; the
    /// op uses the last build. Only that build is traced, so the per-layer
    /// set-up figures count one build per op.
    fn setup(
        &mut self,
        def: &'static DomainDef,
        op: u64,
        traced: bool,
    ) -> Result<DomainPipeline, String> {
        self.spans.set_enabled(false);
        for _ in 1..SETUP_BUILDS {
            drop(self.build(def, op)?);
        }
        self.spans.set_enabled(traced);
        self.build(def, op)
    }

    /// Build one domain's inputs, the same assembly as
    /// `DomainPipeline::from_def` at the workload's interface count.
    fn build(&mut self, def: &'static DomainDef, op: u64) -> Result<DomainPipeline, String> {
        let (seed, interfaces) = (self.args.seed, self.args.interfaces);
        let root = self.spans.open("setup", op);
        let t = Instant::now();
        let dataset = self.spans.span("data.build", op, || {
            generate_domain(
                def,
                &GenOptions {
                    seed,
                    interfaces,
                    ..GenOptions::default()
                },
            )
        });
        let corpus = self.spans.span("web.corpus", op, || {
            gen::generate(
                &corpus::concept_specs(def),
                &GenConfig {
                    seed: seed ^ 0xc0ffee,
                    confuser_rate: 0.25,
                    ..GenConfig::default()
                },
            )
        });
        let engine = self
            .spans
            .span("web.index", op, || SearchEngine::new(corpus))
            .map_err(|e| format!("index build: {e}"))?;
        engine.set_simulated_latency_us(LATENCY_US);
        let sources = self.spans.span("deep.sources", op, || {
            dataset
                .interfaces
                .iter()
                .map(|i| {
                    build_deep_source(
                        def,
                        i,
                        &RecordOptions {
                            seed,
                            failure_rate: 0.05,
                            ..RecordOptions::default()
                        },
                    )
                })
                .collect()
        });
        self.setup_s
            .entry(def.key)
            .or_default()
            .push(t.elapsed().as_secs_f64());
        self.spans.close(root);
        Ok(DomainPipeline {
            def,
            dataset,
            engine,
            sources,
        })
    }

    /// One op: (create store →) acquire → enrich → match → evaluate, then
    /// the correctness checks and, when traced, the standalone probes.
    fn op(
        &mut self,
        p: &DomainPipeline,
        op: u64,
        traced: bool,
        store_dir: Option<&Path>,
    ) -> Result<OpSample, String> {
        let tracer = if traced {
            Tracer::memory().0
        } else {
            Tracer::disabled()
        };
        let prof0 = webiq::prof::snapshot();
        let thread0 = webiq::trace::snapshot();
        let mcfg = MatchConfig::with_threshold(THRESHOLD);

        let root = self.spans.open("op", op);
        let t = Instant::now();
        let store = match store_dir {
            Some(dir) => Some(Arc::new(
                self.spans.span("store.create", op, || open_store(dir))?,
            )),
            None => None,
        };
        let cfg = acquire_config(self.args.workload.threads, tracer.clone(), store.clone());
        let acq = self
            .spans
            .span("core.acquire", op, || run_acquire(p, &cfg))?;
        let attrs = self
            .spans
            .span("matcher.input", op, || p.enriched_attributes(&acq));
        let result = if traced {
            self.match_split(&attrs, &mcfg, op)
        } else {
            self.spans
                .span("matcher.match", op, || match_attributes(&attrs, &mcfg))
        };
        let f1 = self
            .spans
            .span("matcher.evaluate", op, || result.evaluate(&p.dataset));
        let wall_s = t.elapsed().as_secs_f64();
        self.spans.close(root);

        let prof = webiq::prof::snapshot().diff(&prof0);
        let thread = webiq::trace::snapshot().diff(&thread0);
        let totals = tracer.totals().counters;
        let a = &mut self.acc;
        let n = attrs.len() as f64;
        a.add("data.attributes", n);
        a.add("matcher.pairs", n * (n - 1.0) / 2.0);
        a.add(
            "web.misses",
            (prof.get(ProfCounter::SearchCacheMiss) + prof.get(ProfCounter::HitCacheMiss)) as f64,
        );
        a.add("deep_probes", prof.stage_calls(Stage::Probe) as f64);
        a.add(
            "web.queries",
            (totals.get(Counter::EngineSearchIssued) + totals.get(Counter::EngineHitIssued)) as f64,
        );
        for (k, s) in [
            ("web.busy_s", Stage::EngineQuery),
            ("core.extract_busy_s", Stage::Extract),
            ("core.verify_busy_s", Stage::Verify),
            ("core.bayes_busy_s", Stage::Bayes),
            ("core.borrow_busy_s", Stage::Borrow),
            ("deep.probe_busy_s", Stage::Probe),
        ] {
            a.add(k, prof.stage_secs(s));
        }
        for (k, c) in [
            ("validation_accepted", Counter::ValidationAccepted),
            ("validation_rejected", Counter::ValidationRejected),
            ("core.borrow_probed", Counter::BorrowProbed),
            ("borrow_accepted", Counter::BorrowAccepted),
            ("deep.probes", Counter::ProbesIssued),
            ("probe_server_errors", Counter::ProbeServerError),
        ] {
            a.add(k, totals.get(c) as f64);
        }
        for (k, c) in [
            ("matcher.iterations", Counter::ClusterIterations),
            ("matcher.merges", Counter::ClusterMerges),
            ("store.records_written", Counter::StoreRecordsWritten),
        ] {
            a.add(k, thread.get(c) as f64);
        }

        // Correctness: outputs repeat the committed values (default seed)
        // and the domain's first op.
        let inst = instances_digest(&acq);
        let f1_pct = f1.f1 * 100.0;
        let key = p.def.key;
        self.check_outputs(key, &output_digest(&inst, &result), f1_pct)?;
        if let (Some(store), Some(dir)) = (store, store_dir) {
            // Release the op's handles so the replay recovers from disk.
            drop((store, cfg));
            self.replay_check(p, dir, &inst, op)?;
        }
        if traced && !self.split_checked.contains(&key) {
            let check = self.spans.open("check", op);
            let direct = match_attributes(&attrs, &mcfg);
            self.spans.close(check);
            if direct.clusters != result.clusters {
                return Err(
                    "similarity_matrix + cluster_logged differ from match_attributes".into(),
                );
            }
            self.split_checked.push(key);
        }
        if traced {
            self.prefilter_probe(p, op);
            if let Some(dir) = store_dir {
                self.compact_probe(dir, op)?;
            }
        }
        Ok(OpSample {
            domain: key,
            wall_s,
            attrs: attrs.len(),
            f1_pct,
        })
    }

    /// The store's read path, outside the op's time: reopen the op's store
    /// (recovery), replay the run warm, and check that it equals the cold
    /// run and reaches no engine.
    fn replay_check(
        &mut self,
        p: &DomainPipeline,
        dir: &Path,
        cold: &str,
        op: u64,
    ) -> Result<(), String> {
        let prof0 = webiq::prof::snapshot();
        let thread0 = webiq::trace::snapshot();
        let root = self.spans.open("check", op);
        let store = Arc::new(self.spans.span("store.open", op, || open_store(dir))?);
        let cfg = acquire_config(
            self.args.workload.threads,
            Tracer::disabled(),
            Some(Arc::clone(&store)),
        );
        let warm = self
            .spans
            .span("store.replay", op, || run_acquire(p, &cfg))?;
        self.spans.close(root);
        let prof = webiq::prof::snapshot().diff(&prof0);
        let hits = webiq::trace::snapshot()
            .diff(&thread0)
            .get(Counter::StoreWarmHit);
        let issued = [
            ProfCounter::SearchCacheHit,
            ProfCounter::SearchCacheMiss,
            ProfCounter::HitCacheHit,
            ProfCounter::HitCacheMiss,
        ]
        .into_iter()
        .map(|c| prof.get(c))
        .sum::<u64>();
        let r = store.recovery_stats();
        self.acc.add(
            "store.records_recovered",
            (r.snapshot_records + r.wal_records) as f64,
        );
        self.acc.add("store.warm_hits", hits as f64);
        let inst = instances_digest(&warm);
        if hits == 0 || issued != 0 || inst != cold {
            return Err(format!(
                "warm replay: {hits} warm hits, {issued} engine queries, \
                 instances {inst} against cold {cold}"
            ));
        }
        Ok(())
    }

    /// The matcher as `match_attributes` runs it, with the similarity
    /// matrix and the clustering timed apart.
    fn match_split(&mut self, attrs: &[MatchAttribute], cfg: &MatchConfig, op: u64) -> MatchResult {
        let items: Vec<Item<_>> = attrs
            .iter()
            .map(|a| Item {
                id: a.r,
                interface: a.r.0,
            })
            .collect();
        let sim = self.spans.span("matcher.sim", op, || {
            similarity_matrix(&items, |i, j| similarity(&attrs[i], &attrs[j], cfg))
        });
        let (clusters, _) = self.spans.span("matcher.cluster", op, || {
            cluster_logged(&items, &sim, cfg.threshold)
        });
        MatchResult {
            clusters: clusters
                .into_iter()
                .map(|c| c.into_iter().map(|i| attrs[i].r).collect())
                .collect(),
        }
    }

    /// Standalone timing of the §5 borrow-candidate prefilters over every
    /// attribute: case 1 for instance-less attributes, case 2 for those
    /// with pre-defined instances.
    fn prefilter_probe(&mut self, p: &DomainPipeline, op: u64) {
        let cfg = WebIQConfig::default();
        let ds = &p.dataset;
        let root = self.spans.open("probe", op);
        let (calls, found) = self.spans.span("core.prefilter", op, || {
            let (mut calls, mut found) = (0usize, 0usize);
            for (r, a) in ds.attributes() {
                let c = if a.has_instances() {
                    case2_candidates(ds, r, &a.instances, &cfg)
                } else {
                    case1_candidates(ds, r, &a.label, &cfg)
                };
                calls += 1;
                found += c.len();
            }
            (calls, found)
        });
        std::hint::black_box(found);
        self.spans.close(root);
        self.acc.add("core.prefilter_calls", calls as f64);
    }

    /// Standalone timing of a compaction over the op's store contents,
    /// rewritten into a scratch store.
    fn compact_probe(&mut self, dir: &Path, op: u64) -> Result<(), String> {
        let records = open_store(dir)?.state_snapshot().to_records();
        let scratch_dir = self.work_dir.join(format!("compact-{op}"));
        let root = self.spans.open("probe", op);
        let scratch = open_store(&scratch_dir)?;
        for rec in records {
            scratch.put(rec).map_err(|e| format!("store put: {e}"))?;
        }
        let done = self.spans.span("store.compact", op, || scratch.compact());
        self.spans.close(root);
        drop(scratch);
        let _ = std::fs::remove_dir_all(&scratch_dir);
        done.map_err(|e| format!("store compact: {e}"))
    }

    /// At [`DEFAULT_SEED`] the outputs must equal the expected file's row,
    /// which must exist at the default size; a run shrunk by
    /// `--interfaces` checks a row only if the file has one. At any seed
    /// they must repeat the domain's first op.
    fn check_outputs(
        &mut self,
        key: &'static str,
        digest: &str,
        f1_pct: f64,
    ) -> Result<(), String> {
        let f1 = format!("{f1_pct:.2}");
        if self.args.seed == DEFAULT_SEED {
            let n = self.args.interfaces;
            match self.expected.0.get(&(n, key.to_string())) {
                Some((d, e)) if d != digest || *e != f1 => {
                    return Err(format!(
                        "output {digest} F-1 {f1} differs from expected {d} F-1 {e}"
                    ));
                }
                None if n == INTERFACES => {
                    return Err(format!(
                        "no expected output for {n} interfaces, {key} in {}",
                        self.args.expected.display()
                    ));
                }
                _ => {}
            }
        }
        let (d, e) = self
            .first
            .entry(key)
            .or_insert_with(|| (digest.to_string(), f1.clone()));
        if d != digest || *e != f1 {
            return Err(format!(
                "output {digest} F-1 {f1} differs from the domain's first op {d} F-1 {e}"
            ));
        }
        Ok(())
    }

    /// Compute the metrics, write the run record and spans, print the
    /// metric table, and return the result line.
    fn report(&self, ops: &[OpSample], passes: usize, reference: &[f64]) -> Result<String, String> {
        let w = self.args.workload;
        let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
        let p50 = median(&walls);
        let tail_pct = tail_percentile(walls.len());
        let sum_wall: f64 = walls.iter().sum();
        let per_pass = |x: f64| x / passes.max(1) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let a = &self.acc;

        let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
        if self.args.trace {
            let usage = self.spans.usage();
            let span_s = |name: &str| per_pass(usage.get(name).map_or(0.0, |u| u.total_s));
            let queries = a.get("web.queries");
            let values: BTreeMap<&str, f64> = [
                ("data.build_s", span_s("data.build")),
                ("data.attributes", per_pass(a.get("data.attributes"))),
                ("web.corpus_s", span_s("web.corpus")),
                ("web.index_s", span_s("web.index")),
                ("web.queries", per_pass(queries)),
                ("web.misses", per_pass(a.get("web.misses"))),
                (
                    "web.hit_ratio",
                    ratio(queries - a.get("web.misses"), queries),
                ),
                ("web.busy_s", per_pass(a.get("web.busy_s"))),
                ("core.acquire_s", span_s("core.acquire")),
                (
                    "core.extract_busy_s",
                    per_pass(a.get("core.extract_busy_s")),
                ),
                (
                    "core.extract_self_s",
                    per_pass(a.get("core.extract_busy_s") - a.get("core.verify_busy_s")),
                ),
                ("core.verify_busy_s", per_pass(a.get("core.verify_busy_s"))),
                ("core.bayes_busy_s", per_pass(a.get("core.bayes_busy_s"))),
                ("core.borrow_busy_s", per_pass(a.get("core.borrow_busy_s"))),
                (
                    "core.borrow_self_s",
                    per_pass(a.get("core.borrow_busy_s") - a.get("deep.probe_busy_s")),
                ),
                ("core.prefilter_s", span_s("core.prefilter")),
                (
                    "core.prefilter_calls",
                    per_pass(a.get("core.prefilter_calls")),
                ),
                (
                    "core.validation_accept_ratio",
                    ratio(
                        a.get("validation_accepted"),
                        a.get("validation_accepted") + a.get("validation_rejected"),
                    ),
                ),
                ("core.borrow_probed", per_pass(a.get("core.borrow_probed"))),
                (
                    "core.borrow_accept_ratio",
                    ratio(a.get("borrow_accepted"), a.get("core.borrow_probed")),
                ),
                ("deep.sources_s", span_s("deep.sources")),
                ("deep.probes", per_pass(a.get("deep.probes"))),
                ("deep.probe_busy_s", per_pass(a.get("deep.probe_busy_s"))),
                (
                    "deep.server_error_ratio",
                    ratio(a.get("probe_server_errors"), a.get("deep.probes")),
                ),
                ("matcher.input_s", span_s("matcher.input")),
                ("matcher.sim_s", span_s("matcher.sim")),
                ("matcher.pairs", per_pass(a.get("matcher.pairs"))),
                ("matcher.cluster_s", span_s("matcher.cluster")),
                ("matcher.iterations", per_pass(a.get("matcher.iterations"))),
                ("matcher.merges", per_pass(a.get("matcher.merges"))),
                ("matcher.evaluate_s", span_s("matcher.evaluate")),
                ("store.open_s", span_s("store.open")),
                (
                    "store.records_recovered",
                    per_pass(a.get("store.records_recovered")),
                ),
                ("store.replay_s", span_s("store.replay")),
                ("store.warm_hits", per_pass(a.get("store.warm_hits"))),
                (
                    "store.records_written",
                    per_pass(a.get("store.records_written")),
                ),
                ("store.compact_s", span_s("store.compact")),
                ("trace.overhead_frac", ratio(p50, median(reference)) - 1.0),
                (
                    "op.unattributed_s",
                    per_pass(usage.get("op").map_or(0.0, |u| u.self_s)),
                ),
                ("op.wall_s", per_pass(sum_wall)),
            ]
            .into_iter()
            .collect();
            for (name, unit) in PER_LAYER {
                metrics.push((name, values.get(name).copied().unwrap_or(0.0), unit));
            }
        } else {
            let f1_mean = ops.iter().map(|o| o.f1_pct).sum::<f64>() / ops.len().max(1) as f64;
            let attrs: usize = ops.iter().map(|o| o.attrs).sum();
            let values = [
                mean(self.setup_s.values().map(|b| median(b))),
                p50,
                percentile(&walls, tail_pct),
                ratio(attrs as f64, sum_wall),
                per_pass(a.get("web.misses")),
                f1_mean,
                stats::peak_rss_mb(),
            ];
            for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
                metrics.push((name, v, unit));
            }
        }
        // Reported alongside, outside the gated metric set: a count whose
        // spread over seeds follows the inputs more than the code, and the
        // failure share (also the result's `failed` / `attempted`), which is
        // 0 on a correct run.
        let failed_frac = ratio(self.failed as f64, self.attempted as f64);
        let extra: [(&str, f64, &str); 4] = [
            ("deep_probes", per_pass(a.get("deep_probes")), "count"),
            ("failed_frac", failed_frac, "ratio"),
            ("domain_s_tail_pct", tail_pct, "percentile"),
            ("ops", ops.len() as f64, "count"),
        ];

        let mut table = String::new();
        for (name, v, unit) in metrics.iter().chain(extra.iter()) {
            let _ = writeln!(table, "{name:<30} {v:>16.6} {unit}");
        }
        print!("{table}");
        let correct = self.failed == 0 && !ops.is_empty();
        let record = self.run_record(&metrics, &extra, passes, ops, reference.len(), correct);
        let stem = format!(
            "{}-seed{}-trace{}",
            w.name,
            self.args.seed,
            u8::from(self.args.trace)
        );
        std::fs::create_dir_all(&self.args.out)
            .and_then(|()| std::fs::write(self.args.out.join(format!("{stem}.json")), &record))
            .map_err(|e| format!("{}: {e}", self.args.out.display()))?;
        if self.args.trace {
            std::fs::write(
                self.args.out.join(format!("{stem}.spans.jsonl")),
                self.spans.jsonl(),
            )
            .map_err(|e| format!("{}: {e}", self.args.out.display()))?;
            print!("{}", self.spans.table());
        }
        println!("record {record}");

        Ok(format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted,
            self.failed,
            json_metrics(&metrics)
        ))
    }

    /// The run record: environment, parameters, sample counts, metrics
    /// and per-domain outputs, as one JSON object.
    fn run_record(
        &self,
        metrics: &[(&str, f64, &str)],
        extra: &[(&str, f64, &str)],
        passes: usize,
        ops: &[OpSample],
        reference_ops: usize,
        correct: bool,
    ) -> String {
        let w = self.args.workload;
        let outputs = self
            .first
            .iter()
            .map(|(d, (digest, f1))| {
                let walls: Vec<f64> = ops
                    .iter()
                    .filter(|o| o.domain == *d)
                    .map(|o| o.wall_s)
                    .collect();
                format!(
                    r#""{d}": {{"digest": "{digest}", "f1_pct": {f1}, "op_s_p50": {}, "setup_s_p50": {}}}"#,
                    num(median(&walls)),
                    num(self.setup_s.get(d).map_or(0.0, |b| median(b)))
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
        let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let names: Vec<String> = self
            .args
            .domains
            .iter()
            .map(|d| format!(r#""{}""#, d.key))
            .collect();
        format!(
            concat!(
                r#"{{"workload": "{}", "seed": {}, "trace": {}, "seconds": {}, "#,
                r#""params": {{"interfaces": {}, "latency_us": {}, "store": {}, "setup_builds_per_op": {}, "domains": [{}]}}, "#,
                r#""available_parallelism": {}, "acquisition_threads": {}, "matching_threads": 1, "#,
                r#""build_profile": "{}", "commit": "{}", "#,
                r#""samples": {{"ops": {}, "passes": {}, "setups": {}, "reference_ops": {}, "attempted": {}, "failed": {}}}, "#,
                r#""correct": {}, "metrics": {{{}}}, "extra": {{{}}}, "outputs": {{{}}}}}"#
            ),
            w.name,
            self.args.seed,
            u8::from(self.args.trace),
            num(self.args.seconds),
            self.args.interfaces,
            LATENCY_US,
            w.store,
            SETUP_BUILDS,
            names.join(", "),
            cores,
            w.threads,
            profile,
            json_escape(&commit),
            ops.len(),
            passes,
            self.setup_s.values().map(Vec::len).sum::<usize>(),
            reference_ops,
            self.attempted,
            self.failed,
            correct,
            json_metrics(metrics),
            json_metrics(extra),
            outputs,
        )
    }
}

fn open_store(dir: &Path) -> Result<Store, String> {
    Store::open(dir).map_err(|e| format!("store open {}: {e}", dir.display()))
}

fn acquire_config(threads: usize, tracer: Tracer, store: Option<Arc<Store>>) -> WebIQConfig {
    WebIQConfig {
        threads: Some(threads),
        tracer,
        store,
        ..WebIQConfig::default()
    }
}

fn run_acquire(p: &DomainPipeline, cfg: &WebIQConfig) -> Result<Acquisition, String> {
    acquire::acquire(
        &p.dataset,
        p.def,
        &p.engine,
        &p.sources,
        Components::ALL,
        cfg,
    )
    .map_err(|e| format!("acquire: {e}"))
}

/// Digest of the acquired instances, attribute by attribute.
fn instances_digest(acq: &Acquisition) -> String {
    let mut h = Fnv::new();
    for (r, values) in &acq.acquired {
        h.num(r.0 as u64).num(r.1 as u64).num(values.len() as u64);
        for v in values {
            h.str(v);
        }
    }
    h.hex()
}

/// Digest of an op's outputs: its instances digest and the clusters.
fn output_digest(instances: &str, result: &MatchResult) -> String {
    let mut h = Fnv::new();
    h.str(instances);
    for c in &result.clusters {
        h.num(c.len() as u64);
        for r in c {
            h.num(r.0 as u64).num(r.1 as u64);
        }
    }
    h.hex()
}

/// `"name": {"value": v, "unit": "u"}` pairs, comma-separated.
fn json_metrics(rows: &[(&str, f64, &str)]) -> String {
    rows.iter()
        .map(|(n, v, u)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, num(*v)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, print as 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            c => c.to_string(),
        })
        .collect()
}
