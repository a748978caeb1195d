//! One repeatable benchmark for Smoke. See `README.md` for the workloads, the
//! metrics, and the replicate and mix rules that make the numbers repeat.
//!
//! Everything here times *calls into* the crates from the outside; nothing
//! under `crates/`, `src/` or `vendor/` is edited or instrumented.

pub mod gen;
pub mod harness;
pub mod oracle;
pub mod report;
pub mod script;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};

use harness::Args;
use report::{Report, J};
use trace::Tracer;

/// `--seconds` when none is given; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--seed` when none is given; `aa.sh` runs seeds 14–23.
pub const DEFAULT_SEED: u64 = 14;

pub const USAGE: &str =
    "usage: smoke-benchmark --workload <capture_ops|plan_inproc|serve_mix|paged_budget25> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--rows-scale <f>]";

/// Parses the driver's command line. `--trace` takes `0`/`1`, or nothing.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        rows_scale: 1.0,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--rows-scale" => {
                args.rows_scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--rows-scale: {e}"))?
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workloads::WORKLOADS.iter().any(|w| w.0 == args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(args.seconds) || args.seconds > 600.0 || !positive(args.rows_scale) {
        return Err("--seconds (at most 600) and --rows-scale must be positive".to_string());
    }
    Ok(args)
}

/// `benchmark/out`, next to this package's manifest when run through cargo
/// from a checkout, else under the current directory.
pub fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from("out")
    }
}

/// Creates `out/tmp` and points `TMPDIR` at it, so that the pager's temp
/// segment files (`SegmentStore::temp` asks `std::env::temp_dir`) stay inside
/// the checkout like everything else a run writes. Call before any thread
/// starts.
pub fn confine_temp_files(out: &Path) -> std::io::Result<()> {
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", std::fs::canonicalize(&tmp)?);
    Ok(())
}

/// Fixes glibc malloc's thresholds for the life of the process: blocks up to
/// 32 MiB come from the heap, and the heap is never trimmed.
///
/// By default both thresholds move with the process's allocation history, so
/// whether a query's half-megabyte result buffer is a fresh `mmap` (and 130
/// page faults) or a reused heap block depends on what was freed before it —
/// and that differs from seed to seed. Over six seeds `plan_inproc`'s
/// `trace_p95_ms` ranged 12.7 % with the defaults and 5.6 % with the
/// thresholds fixed (`trace_qps` 7 % and 3 %). A no-op off glibc.
pub fn steady_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores three integers in malloc's own state;
        // it is called before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
        }
    }
}

fn env_block(args: &Args) -> Vec<(String, J)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    // The driver's checkout is not a git repository; a developer's is.
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok(),
            None => Some(head),
        })
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("workload".into(), J::str(&args.workload)),
        ("seed".into(), J::Int(args.seed as i64)),
        ("seconds".into(), J::Num(args.seconds)),
        ("rows_scale".into(), J::Num(args.rows_scale)),
        ("nproc".into(), J::Int(nproc as i64)),
        ("rustc".into(), J::str(rustc)),
        ("commit".into(), J::str(commit)),
        ("page_size".into(), J::Int(smoke_pager::PAGE_SIZE as i64)),
    ]
}

/// Runs one workload and returns its report; `tracer` holds the spans.
pub fn run(args: &Args) -> Result<(Report, Tracer), Box<dyn std::error::Error>> {
    let mut report = Report {
        env: env_block(args),
        scaled_down: args.rows_scale != 1.0,
        ..Report::default()
    };
    let mut tracer = Tracer::new(args.trace);
    match args.workload.as_str() {
        "capture_ops" => workloads::capture_ops::run(args, &mut report, &mut tracer)?,
        "plan_inproc" => workloads::plan_inproc::run(args, &mut report, &mut tracer)?,
        "serve_mix" => workloads::serve_mix::run(args, &mut report, &mut tracer)?,
        "paged_budget25" => workloads::paged_budget25::run(args, &mut report, &mut tracer)?,
        other => return Err(format!("unknown workload `{other}`").into()),
    }
    report.e2e("peak_rss_mib", harness::peak_rss_mib());
    for (name, value) in report.end_to_end.iter().chain(report.per_layer.iter()) {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}").into());
        }
    }
    Ok((report, tracer))
}
