//! What tracing, live observability, the retry layer, profiling, decision
//! provenance and the store cost a single-threaded acquisition (all
//! components, seed [`SEED`], a fresh pipeline per run) of each fig-6
//! domain. For every (domain, rep) each [`Arm`] runs once, in an order
//! rotated by one each rep so a slow phase of the host falls on all arms
//! alike. An arm reports the median and IQR of its [`REPS`] runs; one
//! with an off mode adds `delta_pct` next to `noise_floor_pct` (the off
//! arm's IQR over its median). Those costs sit far below that floor, so
//! each "<1%" verdict is an analytic bound: per-op costs from tight
//! loops × one run's deterministic op counts, as a share of a median
//! wall-clock. Writes `BENCH_overhead.json` at the workspace root.

use std::path::PathBuf;
use std::sync::Arc;

use webiq::core::{persist, Acquisition, Components, WebIQConfig};
use webiq::data::records::{build_deep_source, RecordOptions};
use webiq::fault::{CircuitBreaker, FaultConfig, FaultPlan, QuotaTracker, VirtualClock};
use webiq::matcher::MatchConfig;
use webiq::obs::LiveRegistry;
use webiq::pipeline::{DomainPipeline, THRESHOLD};
use webiq::prof::{incr, time, ProfCounter, Stage};
use webiq::store::{BorrowRecord, Record, RunCompleteRecord, Store};
use webiq::trace::{Counter, HistKey, HistSet, MetricSet, SharedBuf, Tracer};
use webiq_bench::experiments::SEED;
use webiq_bench::json::{obj, Json};
use webiq_bench::timing::{black_box, fmt_time, quartiles, time_once, Quartiles};

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overhead.json");
const REPS: usize = 5;
const WORKLOAD: &str = "1-thread acquisition (+ matching in the why arm); arms rotated each rep";
const KEYS: [&str; 5] = ["airfare", "auto", "book", "job", "realestate"];

/// One configuration of the timed run (see [`ARMS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Baseline,
    TraceNoop,
    TraceJsonl,
    Obs,
    Store,
    Why,
    FaultOff,
    FaultArmed,
}

/// Every arm in its base order, with its name and its off mode: the arm
/// it differs from by its subsystem alone. `why` (traced acquisition plus
/// matching) has none; the fault pair runs on failure-free sources.
const ARMS: [(Arm, &str, Option<Arm>); 8] = [
    (Arm::Baseline, "baseline", None),
    (Arm::TraceNoop, "trace_noop", Some(Arm::Baseline)),
    (Arm::TraceJsonl, "trace_jsonl", Some(Arm::Baseline)),
    (Arm::Obs, "obs", Some(Arm::Baseline)),
    (Arm::Store, "store", Some(Arm::Baseline)),
    (Arm::Why, "why", None),
    (Arm::FaultOff, "fault_off", None),
    (Arm::FaultArmed, "fault_armed", Some(Arm::FaultOff)),
];

fn single_thread() -> WebIQConfig {
    WebIQConfig {
        threads: Some(1),
        ..WebIQConfig::default()
    }
}

/// A fresh pipeline for `key`. With `clean`, its deep sources never fail:
/// the default sources' legacy 5% request-keyed failures are permanent,
/// so an armed retry layer would retry them and trip circuit breakers —
/// real resilience work, not overhead.
fn pipeline(key: &'static str, clean: bool) -> DomainPipeline {
    let mut p = DomainPipeline::build(key, SEED).expect("domain");
    if clean {
        let opts = RecordOptions {
            seed: SEED,
            ..RecordOptions::default()
        };
        let interfaces = &p.dataset.interfaces;
        p.sources = interfaces
            .iter()
            .map(|i| build_deep_source(p.def, i, &opts))
            .collect();
    }
    p
}

fn acquire(p: &DomainPipeline, cfg: &WebIQConfig) -> Acquisition {
    p.acquire(Components::ALL, cfg).expect("acquisition")
}

/// Acquisition plus traced matching: the work the `why` arm times.
fn acquire_and_match(p: &DomainPipeline, cfg: &WebIQConfig) -> Acquisition {
    let acq = acquire(p, cfg);
    let attrs = p.enriched_attributes(&acq);
    p.match_and_evaluate_traced(&attrs, &MatchConfig::with_threshold(THRESHOLD), &cfg.tracer);
    acq
}

/// A store in a fresh scratch directory.
fn fresh_store(tag: &str) -> (Arc<Store>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("webiq-overhead-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Arc::new(Store::open(&dir).expect("open store")), dir)
}

/// Armed but idle: the quota arms the wrappers on every call, yet with
/// zero injection rates (any positive rate fires on draw 0) and a quota
/// no run can exhaust, no fault ever fires.
fn idle_fault() -> FaultConfig {
    FaultConfig {
        daily_quota: u64::MAX,
        ..FaultConfig::default()
    }
}

/// Seconds one run of `arm` on `key` takes. Building the pipeline,
/// opening the store and flushing the tracer are not timed.
fn run(arm: Arm, key: &'static str) -> f64 {
    let p = pipeline(key, matches!(arm, Arm::FaultOff | Arm::FaultArmed));
    let mut cfg = single_thread();
    let mut store_dir = None;
    match arm {
        Arm::TraceNoop => cfg.tracer = Tracer::noop(),
        Arm::TraceJsonl => cfg.tracer = Tracer::jsonl(Box::new(std::io::sink())),
        Arm::Why => cfg.tracer = Tracer::jsonl(Box::new(SharedBuf::new())),
        Arm::Obs => cfg.obs = Some(Arc::new(LiveRegistry::new())),
        Arm::Store => {
            let (store, dir) = fresh_store(key);
            cfg.store = Some(store);
            store_dir = Some(dir);
        }
        Arm::FaultArmed => cfg.fault = idle_fault(),
        Arm::Baseline | Arm::FaultOff => {}
    }
    let (_acq, secs) = time_once(|| match arm {
        Arm::Why => acquire_and_match(&p, &cfg),
        _ => acquire(&p, &cfg),
    });
    cfg.tracer.flush();
    if let Some(dir) = store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    secs
}

/// Every arm's [`REPS`] run times on `key`, indexed like [`ARMS`]; rep
/// `r` starts from `ARMS[r % 8]`.
fn time_arms(key: &'static str) -> Vec<Vec<f64>> {
    let mut times = vec![Vec::with_capacity(REPS); ARMS.len()];
    for rep in 0..REPS {
        for i in 0..ARMS.len() {
            let slot = (rep + i) % ARMS.len();
            times[slot].push(run(ARMS[slot].0, key));
        }
    }
    times
}

/// Mean ns per call of `op` over `reps` calls in a tight loop.
fn per_op_ns(reps: u64, mut op: impl FnMut(u64)) -> f64 {
    let ((), secs) = time_once(|| (0..reps).for_each(&mut op));
    secs * 1e9 / reps as f64
}

/// One run's deterministic op counts and the ns they cost by the bound.
type Counted = (Vec<(&'static str, u64)>, f64);

/// A subsystem's tight-loop per-op costs, the arm whose median its bound
/// is a share of, and how to count one run of a domain.
struct Subsystem {
    name: &'static str,
    op_ns: Vec<(&'static str, f64)>,
    denominator: Arm,
    count: Box<dyn Fn(&'static str) -> Counted>,
}

fn trace() -> Subsystem {
    // the disabled path: no item buffer is active, so a span guard's
    // open and close both short-circuit
    let incr = per_op_ns(1_000_000, |_| webiq::trace::incr(Counter::AttrsTotal));
    let span = per_op_ns(1_000_000, |_| drop(black_box(webiq::trace::span("bench"))));
    Subsystem {
        name: "trace",
        op_ns: vec![("incr_ns", incr), ("span_ns", span)],
        denominator: Arm::Baseline,
        // An over-count of a run's instrumentation ops: every counter
        // unit (a bulk `add` counts one op per unit) and every span event
        // (two per guard, each charged a full guard).
        count: Box::new(move |key| {
            let (tracer, handle) = Tracer::memory();
            let cfg = WebIQConfig {
                tracer: tracer.clone(),
                ..single_thread()
            };
            acquire(&pipeline(key, false), &cfg);
            let counters = tracer.totals().counters;
            let units: u64 = counters.nonzero().iter().map(|(_, v)| v).sum();
            let events = handle.events().len() as u64;
            let counts = vec![("counter_units", units), ("span_events", events)];
            (counts, units as f64 * incr + events as f64 * span)
        }),
    }
}

fn obs() -> Subsystem {
    // a representative per-attribute delta
    let reg = LiveRegistry::new();
    let mut m = MetricSet::new();
    m.add(Counter::AttrsTotal, 1);
    m.add(Counter::ExtractQueries, 12);
    m.add(Counter::CandidatesExtracted, 30);
    m.add(Counter::ValidationAccepted, 9);
    m.add(Counter::ProbesIssued, 6);
    let mut h = HistSet::new();
    h.observe(HistKey::CandidatesPerAttr, 30);
    h.observe(HistKey::ProbesPerAttr, 6);
    let publish = per_op_ns(200_000, |_| reg.publish_item(&m, &h));
    Subsystem {
        name: "obs",
        op_ns: vec![("publish_ns", publish)],
        denominator: Arm::Baseline,
        count: Box::new(move |key| {
            let reg = Arc::new(LiveRegistry::new());
            let cfg = WebIQConfig {
                obs: Some(Arc::clone(&reg)),
                ..single_thread()
            };
            acquire(&pipeline(key, false), &cfg);
            let items = reg.items();
            let counts = vec![("items_published", items)];
            // +4: one end_epoch and three gauge sets, each charged a publish
            (counts, (items + 4) as f64 * publish)
        }),
    }
}

fn fault() -> Subsystem {
    // The no-fault path: a plan draw, a breaker gate, a quota consume
    // and a success record. The plan carries a live transient rate so the
    // draw pays its full mixing cost (a disabled plan short-circuits).
    let cfg = FaultConfig::chaos(1, 1e-9);
    let plan = FaultPlan::from_config(&cfg);
    let clock = VirtualClock::new();
    let breaker = CircuitBreaker::from_config(&cfg);
    let quota = QuotaTracker::new(u64::MAX);
    let mut passed = 0u64;
    let wrapper = per_op_ns(200_000, |i| {
        if breaker.allow(&clock) && plan.decide("engine/search", i, 0).is_none() {
            quota.try_consume(1);
            breaker.record_success();
            passed += 1;
        }
    });
    assert!(passed > 0, "the near-idle plan fired on every call");
    Subsystem {
        name: "fault",
        op_ns: vec![("wrapper_ns", wrapper)],
        denominator: Arm::FaultOff,
        count: Box::new(move |key| {
            let off = acquire(&pipeline(key, true), &single_thread());
            let armed_cfg = WebIQConfig {
                fault: idle_fault(),
                ..single_thread()
            };
            let armed = acquire(&pipeline(key, true), &armed_cfg);
            same_output(key, "fault_armed", &armed, &off);
            let r = &off.report;
            let costs = [&r.surface_cost, &r.attr_surface_cost, &r.attr_deep_cost];
            let calls: u64 = costs.iter().map(|c| c.engine_queries + c.probes).sum();
            (vec![("guarded_calls", calls)], calls as f64 * wrapper)
        }),
    }
}

fn prof() -> Subsystem {
    let incr_ns = per_op_ns(200_000, |_| incr(black_box(ProfCounter::SearchCacheHit)));
    // two clock reads and two atomic adds around a trivial body
    let timer_ns = per_op_ns(200_000, |_| _ = time(Stage::Extract, || black_box(1u64)));
    Subsystem {
        name: "prof",
        op_ns: vec![("incr_ns", incr_ns), ("stage_timer_ns", timer_ns)],
        denominator: Arm::Baseline,
        // Every unit recorded by a batched `add` (say 30 cache hits
        // folded into one atomic op) is billed as its own increment.
        count: Box::new(move |key| {
            let p = pipeline(key, false);
            webiq::prof::reset();
            acquire(&p, &single_thread());
            let snap = webiq::prof::snapshot();
            let counters = ProfCounter::ALL.iter().filter(|c| !c.is_peak());
            let units: u64 = counters.map(|&c| snap.get(c)).sum();
            let calls: u64 = Stage::ALL.iter().map(|&s| snap.stage_calls(s)).sum();
            let counts = vec![("counter_units", units), ("stage_calls", calls)];
            (counts, units as f64 * incr_ns + calls as f64 * timer_ns)
        }),
    }
}

/// One decision record with four evidence terms.
fn record_decision(_: u64) {
    let terms = [
        ("joint_0", 17.0),
        ("vhits_0", 120.0),
        ("xhits_0", 350.0),
        ("pmi_0", 0.0004),
    ];
    webiq::why::record::instance_validate(black_box("candidate"), true, &terms);
}

fn why() -> Subsystem {
    // enabled: a traced item is installed and takes the record
    let (tracer, _handle) = Tracer::memory();
    let item = tracer.item("attribute", "bench");
    let record = per_op_ns(50_000, record_decision);
    tracer.submit(item.finish());
    // disabled: no traced item, the record is one thread-local borrow
    let noop = per_op_ns(50_000, record_decision);
    Subsystem {
        name: "why",
        op_ns: vec![("record_ns", record), ("noop_ns", noop)],
        denominator: Arm::Why,
        count: Box::new(move |key| {
            let buf = SharedBuf::new();
            let cfg = WebIQConfig {
                tracer: Tracer::jsonl(Box::new(buf.clone())),
                ..single_thread()
            };
            acquire_and_match(&pipeline(key, false), &cfg);
            cfg.tracer.flush();
            let text = buf.contents_string();
            let decisions = text.matches("{\"ev\":\"decision\"").count() as u64;
            (vec![("decisions", decisions)], decisions as f64 * record)
        }),
    }
}

fn store() -> Subsystem {
    // An ordinary put (frame + CRC + append + in-memory apply) rides the
    // page cache; only a run's one `RunComplete` commit marker fsyncs.
    let (s, dir) = fresh_store("put");
    let put = per_op_ns(2_000, |i| {
        let rec = BorrowRecord {
            domain: "bench".to_string(),
            attr: format!("attr{i}"),
            lender: "lender".to_string(),
            accepted: i % 2 == 0,
        };
        s.put(Record::Borrow(rec)).expect("put");
    });
    let durable_put = per_op_ns(50, |i| {
        let counters = Counter::ALL.iter().map(|c| (c.name().to_string(), i));
        let rec = RunCompleteRecord {
            domain: "bench".to_string(),
            fingerprint: i,
            counters: counters.collect(),
        };
        s.put(Record::RunComplete(rec)).expect("durable put");
    });
    drop(s);
    let _ = std::fs::remove_dir_all(dir);
    Subsystem {
        name: "store",
        op_ns: vec![("put_ns", put), ("durable_put_ns", durable_put)],
        denominator: Arm::Baseline,
        // facts × put, one durable put, the input fingerprint and the
        // final compaction of the run's real fact set
        count: Box::new(move |key| {
            let p = pipeline(key, false);
            let (store, dir) = fresh_store(key);
            let cfg = WebIQConfig {
                store: Some(Arc::clone(&store)),
                ..single_thread()
            };
            let persisted = acquire(&p, &cfg);
            let facts = store.state_snapshot().len() as u64;
            let ((), compact_secs) = time_once(|| store.compact().expect("compact"));
            drop(store);
            let _ = std::fs::remove_dir_all(dir);
            let plain = single_thread();
            let fault = plain.resolved_fault();
            let docs = p.engine.doc_count() as u64;
            let (_, fingerprint_secs) = time_once(|| {
                persist::run_fingerprint(&p.dataset, p.def, Components::ALL, &plain, &fault, docs)
            });
            same_output(key, "store", &persisted, &acquire(&p, &plain));
            let fixed_ns = (compact_secs + fingerprint_secs) * 1e9;
            let counts = vec![("facts", facts)];
            (counts, facts as f64 * put + durable_put + fixed_ns)
        }),
    }
}

fn same_output(key: &str, arm: &str, on: &Acquisition, off: &Acquisition) {
    assert!(
        on.acquired == off.acquired && on.degraded == off.degraded,
        "{key}: the {arm} arm acquired something other than its off arm"
    );
}

fn main() {
    let subsystems = [trace(), obs(), fault(), prof(), why(), store()];
    // untimed: the process's first acquisition pays one-off warm-up costs
    run(Arm::Baseline, KEYS[0]);

    let mut domains = Vec::new();
    let mut per_domain: Vec<Vec<Json>> = vec![Vec::new(); subsystems.len()];
    let mut worst = vec![0.0f64; subsystems.len()];
    for key in KEYS {
        let stats: Vec<Quartiles> = time_arms(key).iter().map(|t| quartiles(t)).collect();
        let mut line = Vec::new();
        let mut arms = Vec::new();
        for (arm, name, off) in ARMS {
            let q = stats[arm as usize];
            let mut fields = vec![
                ("median_secs", q.median.into()),
                ("iqr_secs", q.iqr().into()),
            ];
            let mut shown = format!("{name} {}", fmt_time(q.median));
            if let Some(off) = off {
                let base = stats[off as usize];
                let delta_pct = 100.0 * (q.median - base.median) / base.median;
                let floor_pct = 100.0 * base.iqr() / base.median;
                fields.push(("off", ARMS[off as usize].1.into()));
                fields.push(("delta_pct", delta_pct.into()));
                fields.push(("noise_floor_pct", floor_pct.into()));
                shown += &format!(" ({delta_pct:+.1}% ±{floor_pct:.1}%)");
            }
            arms.push((name, obj(fields)));
            line.push(shown);
        }
        println!("overhead/{key:<11} {}", line.join(" | "));
        domains.push(obj([("key", key.into()), ("arms", obj(arms))]));

        for (i, s) in subsystems.iter().enumerate() {
            let (counts, ns) = (s.count)(key);
            let pct = 100.0 * ns / (stats[s.denominator as usize].median * 1e9);
            worst[i] = worst[i].max(pct);
            let counts = counts.into_iter().map(|(k, n)| (k.to_string(), n.into()));
            let key = [("key".to_string(), key.into())];
            let bound = [(format!("{}_bound_pct", s.name), pct.into())];
            per_domain[i].push(obj(key.into_iter().chain(counts).chain(bound)));
        }
    }

    let mut report_subsystems = Vec::new();
    for ((s, domains), worst) in subsystems.iter().zip(per_domain).zip(worst) {
        let name = s.name;
        println!("overhead/{name:<11} bound {worst:.4}% worst domain (<1% target)");
        let op_ns = s.op_ns.iter().map(|&(k, ns)| (k.to_string(), ns.into()));
        let bound_of = ARMS[s.denominator as usize].1;
        let summary = [
            ("bound_of".to_string(), bound_of.into()),
            ("domains".to_string(), Json::Arr(domains)),
            (format!("{name}_bound_pct_max"), worst.into()),
            (format!("{name}_overhead_under_1pct"), (worst < 1.0).into()),
        ];
        report_subsystems.push((name, obj(op_ns.chain(summary))));
    }

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let report = obj([
        ("seed", SEED.into()),
        ("reps", REPS.into()),
        ("threads", 1u64.into()),
        ("available_parallelism", cpus.into()),
        ("workload", WORKLOAD.into()),
        ("domains", Json::Arr(domains)),
        ("subsystems", obj(report_subsystems)),
    ]);
    std::fs::write(OUT_PATH, report.pretty() + "\n").expect("write BENCH_overhead.json");
    println!("wrote {OUT_PATH}");
}
