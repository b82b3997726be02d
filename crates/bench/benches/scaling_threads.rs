//! Parallel-acquisition scaling: full-domain acquisition (all three WebIQ
//! components) swept over 1/2/4/8 worker threads, one cold run per
//! configuration on a freshly built pipeline so every measurement pays the
//! same cache-empty cost. Emits `BENCH_parallel.json` next to the
//! workspace root with wall-clock per domain, queries served, and the
//! engine cache hit-rate, alongside the printed summary.
//!
//! Acquisition against the real Web is I/O-bound: the paper cites
//! 0.1-0.5 s of retrieval latency per Google query, dwarfing local
//! compute. To measure what the parallel executor buys in that regime,
//! each cache-missing engine query is charged a simulated round-trip of
//! [`LATENCY_US`] (a 1:300 scale-down of the paper's 0.3 s); cache hits
//! stay free, exactly as a local snippet cache would behave. Workers
//! overlap the round-trips, so wall-clock improves with the thread count
//! even though results are byte-identical. Each worker also overlaps the
//! round-trips of one attribute's batched query waves (8 in flight, see
//! `QueryEngine::prefetch`), at every thread count including 1, so the
//! speedup measured here is what threads add on top of batching.

use webiq::core::{Components, WebIQConfig};
use webiq::pipeline::DomainPipeline;
use webiq::prof::ProfCounter;
use webiq_bench::experiments::SEED;
use webiq_bench::json::{obj, Json};
use webiq_bench::timing::{fmt_time, time_once};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
/// Simulated round-trip per cache-missing query (1 ms = the paper's 0.3 s
/// per query scaled 1:300 to keep the sweep short).
const LATENCY_US: u64 = 1000;

struct Run {
    threads: usize,
    secs: f64,
    queries: u64,
    cache_hit_rate: f64,
}

fn run_domain(key: &'static str) -> (Vec<Run>, &'static str) {
    let mut runs = Vec::new();
    let mut display = "";
    for threads in THREAD_COUNTS {
        // a fresh pipeline per configuration: acquisition must start from
        // cold engine caches or later configurations would measure cache
        // warmth rather than parallelism
        let p = DomainPipeline::build(key, SEED).expect("domain");
        p.engine.set_simulated_latency_us(LATENCY_US);
        display = p.def.display;
        let cfg = WebIQConfig {
            threads: Some(threads),
            ..WebIQConfig::default()
        };
        let before = webiq::prof::snapshot();
        let (acq, secs) = time_once(|| p.acquire(Components::ALL, &cfg).expect("acquisition"));
        let d = webiq::prof::snapshot().diff(&before);
        let r = &acq.report;
        let issued = r.surface_cost.engine_queries + r.attr_surface_cost.engine_queries;
        let queries = issued + r.attr_deep_cost.probes;
        // prefetched misses count too: the queries they answer are issued later
        let misses = d.get(ProfCounter::SearchCacheMiss) + d.get(ProfCounter::HitCacheMiss);
        let cache_hit_rate = 1.0 - misses as f64 / issued as f64;
        println!(
            "scaling_threads/{key:<11} {threads} thread(s): {:>10}   {queries} queries   \
             cache hit-rate {:.1}%",
            fmt_time(secs),
            100.0 * cache_hit_rate,
        );
        runs.push(Run {
            threads,
            secs,
            queries,
            cache_hit_rate,
        });
    }
    (runs, display)
}

fn secs_at(runs: &[Run], threads: usize) -> f64 {
    runs.iter()
        .find(|r| r.threads == threads)
        .map_or(f64::NAN, |r| r.secs)
}

fn main() {
    let keys: [&'static str; 5] = ["airfare", "auto", "book", "job", "realestate"];
    let mut domain_objs = Vec::new();
    let mut total_1t = 0.0;
    let mut total_4t = 0.0;

    for key in keys {
        let (runs, display) = run_domain(key);
        let (t1, t4) = (secs_at(&runs, 1), secs_at(&runs, 4));
        total_1t += t1;
        total_4t += t4;
        println!(
            "scaling_threads/{key:<11} speedup at 4 threads: {:.2}x\n",
            t1 / t4
        );
        domain_objs.push(obj([
            ("domain", display.into()),
            ("key", key.into()),
            (
                "runs",
                Json::Arr(
                    runs.iter()
                        .map(|r| {
                            obj([
                                ("threads", r.threads.into()),
                                ("secs", r.secs.into()),
                                ("queries", r.queries.into()),
                                ("cache_hit_rate", r.cache_hit_rate.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("speedup_4t", (t1 / t4).into()),
        ]));
    }

    let report = obj([
        ("seed", SEED.into()),
        (
            "thread_counts",
            Json::Arr(THREAD_COUNTS.iter().map(|&t| t.into()).collect()),
        ),
        ("domains", Json::Arr(domain_objs)),
        (
            "summary",
            obj([
                ("total_secs_1t", total_1t.into()),
                ("total_secs_4t", total_4t.into()),
                ("speedup_4t", (total_1t / total_4t).into()),
            ]),
        ),
    ]);
    std::fs::write(OUT_PATH, report.pretty() + "\n").expect("write BENCH_parallel.json");
    println!(
        "total: {} (1 thread) -> {} (4 threads), {:.2}x; wrote {OUT_PATH}",
        fmt_time(total_1t),
        fmt_time(total_4t),
        total_1t / total_4t,
    );
}
