//! Analyzer wall-clock for the webiq-flow passes: how long the
//! cross-crate flow analysis (walk + parse + call-graph + three passes)
//! takes over the real workspace, broken into its stages. The analyzer
//! runs in CI on every push, so its cost is a budget worth pinning —
//! a regression here means the parser or resolution grew superlinear.
//!
//! Each stage is measured [`REPS`] times and the median kept. Emits
//! `BENCH_flow.json` next to the workspace root.

use webiq_bench::json::obj;
use webiq_bench::timing::{fmt_time, median, time_once};
use webiq_lint::flow;
use webiq_lint::graph::{self, ParsedSource};
use webiq_lint::{parse, walk, Scope};

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow.json");
const REPS: usize = 7;

fn measure(f: impl Fn()) -> f64 {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let ((), secs) = time_once(&f);
        times.push(secs);
    }
    median(&times)
}

fn main() {
    let root = walk::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");

    // stage inputs, computed once so each stage is timed in isolation
    let files = walk::workspace_sources(&root).expect("walk workspace");
    let closure = graph::dep_closure(&root);
    let sources: Vec<ParsedSource> = files
        .iter()
        .map(|f| ParsedSource {
            rel: f.rel.clone(),
            crate_name: f.crate_name.clone(),
            is_bin: f.is_bin,
            parsed: parse::parse_file(&f.text),
        })
        .collect();

    let walk_secs = measure(|| {
        let fs = walk::workspace_sources(&root).expect("walk");
        assert!(!fs.is_empty());
    });
    let parse_secs = measure(|| {
        for f in &files {
            let p = parse::parse_file(&f.text);
            std::hint::black_box(&p);
        }
    });
    let graph_secs = measure(|| {
        let g = graph::build(&sources, &closure);
        std::hint::black_box(g.nodes.len());
    });
    let full_secs = measure(|| {
        let r = flow::analyze_files(&files, &closure, &Scope::default());
        assert!(r.violations.is_empty());
    });
    let end_to_end_secs = measure(|| {
        let r = flow::flow_workspace(&root).expect("flow");
        assert!(r.violations.is_empty());
    });

    let report = flow::flow_workspace(&root).expect("flow");
    println!(
        "flow_overhead: walk {} | parse {} | graph {} | analyze {} | end-to-end {}  \
         ({} files, {} fns, {} edges)",
        fmt_time(walk_secs),
        fmt_time(parse_secs),
        fmt_time(graph_secs),
        fmt_time(full_secs),
        fmt_time(end_to_end_secs),
        report.stats.files,
        report.stats.functions,
        report.stats.edges,
    );

    let out = obj([
        ("reps", REPS.into()),
        ("files", report.stats.files.into()),
        ("functions", report.stats.functions.into()),
        ("edges", report.stats.edges.into()),
        ("walk_secs", walk_secs.into()),
        ("parse_secs", parse_secs.into()),
        ("graph_secs", graph_secs.into()),
        ("analyze_secs", full_secs.into()),
        ("end_to_end_secs", end_to_end_secs.into()),
    ]);
    std::fs::write(OUT_PATH, out.pretty() + "\n").expect("write BENCH_flow.json");
    println!("wrote {OUT_PATH}");
}
