//! Drives the `experiments` binary the way CI and the verify notes do.

use std::process::{Command, Output};

const FIGURES: [&str; 14] = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig21", "fig22", "fig23",
];

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn help_lists_exactly_the_paper_figures() {
    let out = experiments(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout
        .lines()
        .skip_while(|l| *l != "Experiments:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(listed, FIGURES);
}

#[test]
fn usage_errors_exit_non_zero() {
    for args in [
        &["fig99"][..],
        &["fig5", "nope"],
        &["fig5", "--scale", "big"],
        &["fig5", "--scale"],
        &["fig5", "--runs", "x"],
        &["fig5", "--json", "out.json"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        assert!(String::from_utf8(out.stderr).unwrap().contains("Usage:"));
    }
}

/// `--runs 1` leaves no run to count if the warm-up is not clamped: every
/// latency then reads 0 and every overhead is infinite.
#[test]
fn fig5_single_run_measures_something() {
    let out = experiments(&["fig5", "--runs", "1", "--scale", "0.1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut captures = 0;
    let mut overheads = 0;
    for line in stdout.lines().filter(|l| l.starts_with("fig5 ")) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let value: f64 = cols[4].parse().unwrap();
        match cols[3] {
            "capture_ms" => {
                assert!(value > 0.0, "{line}");
                captures += 1;
            }
            "overhead_x" => {
                assert!(value.is_finite(), "{line}");
                overheads += 1;
            }
            _ => {}
        }
    }
    // 2 sizes x 2 group counts x 8 techniques.
    assert_eq!((captures, overheads), (32, 32));
}
