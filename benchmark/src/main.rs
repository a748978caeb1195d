use std::process::ExitCode;

use smoke_benchmark::{confine_temp_files, out_dir, parse_args, run, steady_allocator, USAGE};

fn main() -> ExitCode {
    steady_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = confine_temp_files(&out) {
        eprintln!("cannot prepare {}: {e}", out.display());
        return ExitCode::from(2);
    }

    let (report, tracer) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let full = report.to_json(args.trace).render();
    let report_path = out.join(format!("{}.report.json", args.workload));
    if let Err(e) = std::fs::write(&report_path, &full) {
        eprintln!("cannot write {}: {e}", report_path.display());
    }
    if args.trace {
        let spans_path = out.join(format!("{}.spans.json", args.workload));
        if let Err(e) = std::fs::write(&spans_path, tracer.to_json(&args.workload).render()) {
            eprintln!("cannot write {}: {e}", spans_path.display());
        }
    }
    eprintln!("{full}");
    for problem in &report.problems {
        eprintln!("PROBLEM: {problem}");
    }
    println!("{}", report.driver_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
