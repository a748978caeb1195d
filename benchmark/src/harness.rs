//! What the four workloads share: arguments, the set-up clock, replicate
//! windows, reply checking, and the folding of windows into the eight
//! end-to-end metrics.

use std::time::{Duration, Instant};

use crate::oracle::{BinRow, Fingerprint};
use crate::report::{Report, J};
use crate::script::{Class, Item};
use crate::stats::{self, Better};

/// A trace query must be answered, correct, and within this to meet the SLO.
pub const SLO_MS: f64 = 100.0;
/// Set-up runs this many times per process; `setup_s` is their quiet total.
pub const SETUP_REPEATS: usize = 5;
/// Every phase runs at least this many timed replicates, whatever `--seconds`.
pub const MIN_REPLICATES: usize = 3;
/// Minimum share of samples around p50 / p95 that must belong to the
/// intended class, or the run fails.
pub const MIN_PURITY: f64 = 0.8;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every row count; 1.0 is the benchmark, 0.01 the test suite.
    pub rows_scale: f64,
}

impl Args {
    pub fn rows(&self, full: usize) -> usize {
        ((full as f64 * self.rows_scale) as usize).max(2_000)
    }

    /// Group count for `rows` rows: the full count at full size, fewer when
    /// the tests scale rows down, so that no Zipf rank is left without rows.
    pub fn groups(&self, full: usize, rows: usize) -> usize {
        (rows / 200).clamp(10, full)
    }
}

/// Times the program's set-up segments (never the benchmark's own input
/// generation or oracle work). A segment is a list of parts, one per timed
/// call: a warm-up window is one part per query.
#[derive(Debug, Default)]
pub struct SetupClock {
    segments: Vec<(&'static str, Vec<f64>)>,
}

impl SetupClock {
    pub fn segment<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }

    pub fn add(&mut self, name: &'static str, d: Duration) {
        match self.segments.iter_mut().find(|s| s.0 == name) {
            Some(s) => s.1.push(d.as_secs_f64()),
            None => self.segments.push((name, vec![d.as_secs_f64()])),
        }
    }

    pub fn total(&self) -> f64 {
        self.segments.iter().flat_map(|s| s.1.iter()).sum()
    }

    /// The set-up none of `clocks` quite saw: every part at the fastest any
    /// of them timed it — the replicate rule applied to set-up. Set-ups that
    /// did not time the same parts (one of them failed) are compared whole.
    pub fn quiet(clocks: &[SetupClock]) -> SetupClock {
        let first = clocks.first().expect("at least one set-up");
        let same_shape = |c: &SetupClock| {
            c.segments.len() == first.segments.len()
                && c.segments
                    .iter()
                    .zip(&first.segments)
                    .all(|(a, b)| a.0 == b.0 && a.1.len() == b.1.len())
        };
        if !clocks.iter().all(same_shape) {
            let total = stats::best(
                &clocks.iter().map(SetupClock::total).collect::<Vec<_>>(),
                Better::Lower,
            );
            return SetupClock {
                segments: vec![("whole", vec![total])],
            };
        }
        let segments = (0..first.segments.len())
            .map(|s| {
                let parts = (0..first.segments[s].1.len())
                    .map(|p| {
                        clocks
                            .iter()
                            .map(|c| c.segments[s].1[p])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect();
                (first.segments[s].0, parts)
            })
            .collect();
        SetupClock { segments }
    }

    pub fn to_json(&self) -> J {
        J::Obj(
            self.segments
                .iter()
                .map(|(k, v)| (k.to_string(), J::Num(v.iter().sum())))
                .collect(),
        )
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each fixture before the
/// next is built, keeps the last, and records `setup_s` as the total of
/// [`SetupClock::quiet`] over them. (The fastest whole set-up of a run spread
/// 0.07–0.29 between runs over two ten-run campaigns, the median set-up
/// 0.09–0.53; part by part it is 0.03–0.07.)
pub fn repeat_setup<F>(report: &mut Report, mut setup: impl FnMut(&mut SetupClock) -> F) -> F {
    let mut clocks = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let mut clock = SetupClock::default();
        last = Some(setup(&mut clock));
        clocks.push(clock);
    }
    let quiet = SetupClock::quiet(&clocks);
    let totals: Vec<f64> = clocks.iter().map(SetupClock::total).collect();
    report.e2e("setup_s", quiet.total());
    report.replicate_values("setup_s", &totals);
    report.note("setup_segments_s", quiet.to_json());
    last.expect("SETUP_REPEATS > 0")
}

/// One timed item of a capture phase: `rows` base-table rows consumed per
/// repetition, one wall time per repetition.
#[derive(Debug, Clone)]
pub struct CaptureItem {
    pub name: &'static str,
    pub rows: usize,
    pub instrumented: bool,
    pub secs: Vec<f64>,
}

impl CaptureItem {
    pub fn new(name: &'static str, rows: usize, instrumented: bool) -> Self {
        CaptureItem {
            name,
            rows,
            instrumented,
            secs: Vec::new(),
        }
    }

    /// Rate of the best repetition.
    pub fn mrows_per_s(&self) -> f64 {
        self.rows as f64 / 1e6 / stats::best(&self.secs, Better::Lower)
    }
}

/// Σ rows ÷ Σ folded times over the instrumented items; `fold` picks one
/// time out of an item's repetitions.
pub fn capture_rate(items: &[CaptureItem], fold: impl Fn(&[f64]) -> f64) -> f64 {
    let inst = items.iter().filter(|i| i.instrumented);
    let rows: usize = inst.clone().map(|i| i.rows).sum();
    let secs: f64 = inst.map(|i| fold(&i.secs)).sum();
    rows as f64 / 1e6 / secs
}

/// Runs interleaved repetitions of `rep` until `budget` is spent (and at
/// least [`MIN_REPLICATES`] times), stopping at the first error.
/// Interleaving spreads a disturbance over every item instead of landing it
/// on one.
pub fn repeat_until<E>(
    budget: Duration,
    mut rep: impl FnMut(usize) -> Result<(), E>,
) -> Result<(), E> {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPLICATES || start.elapsed() < budget {
        rep(reps)?;
        reps += 1;
    }
    Ok(())
}

/// A reply in the oracle's terms.
pub struct Answer<'a> {
    pub rids: &'a [u32],
    pub rows: Option<Vec<BinRow>>,
}

/// Why a reply did not count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    Error,
    Shed,
    Wrong,
}

/// One replicate of a trace script.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// `(latency ms, class)` of every answered query.
    pub samples: Vec<(f64, Class)>,
    pub attempted: u64,
    pub errors: u64,
    pub shed: u64,
    pub wrong: u64,
    pub late: u64,
    /// Σ over clients of completed ÷ time spent waiting for replies.
    pub qps: f64,
    /// Where each client's samples end in `samples` (one entry for a
    /// one-client window, one per client after [`Window::merge`]).
    pub lane_ends: Vec<usize>,
}

impl Window {
    pub fn record(&mut self, class: Class, latency: Duration, verdict: Result<(), Miss>) {
        self.attempted += 1;
        let ms = latency.as_secs_f64() * 1e3;
        match verdict {
            Ok(()) => {
                if ms > SLO_MS {
                    self.late += 1;
                }
                self.samples.push((ms, class));
            }
            Err(Miss::Error) => self.errors += 1,
            Err(Miss::Shed) => self.shed += 1,
            Err(Miss::Wrong) => self.wrong += 1,
        }
    }

    /// Closes a one-client window: closed loop, no think time, so the rate
    /// is completions over the time spent inside queries (reply checking
    /// happens between queries and is the benchmark's own cost).
    pub fn close(&mut self) {
        let busy: f64 = self.samples.iter().map(|s| s.0).sum::<f64>() / 1e3;
        self.qps = self.samples.len() as f64 / busy;
        self.lane_ends = vec![self.samples.len()];
    }

    /// Folds the windows of concurrent clients, replaying at the same time,
    /// into one.
    pub fn merge(parts: Vec<Window>) -> Window {
        let mut out = Window::default();
        for p in parts {
            let offset = out.samples.len();
            out.lane_ends
                .extend(p.lane_ends.iter().map(|end| offset + end));
            out.samples.extend(p.samples);
            out.attempted += p.attempted;
            out.errors += p.errors;
            out.shed += p.shed;
            out.wrong += p.wrong;
            out.late += p.late;
            out.qps += p.qps;
        }
        out
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.wrong
    }

    pub fn quantile_ms(&self, p: f64) -> f64 {
        let lat: Vec<f64> = self.samples.iter().map(|s| s.0).collect();
        stats::percentile_sorted(&stats::sorted(&lat), p)
    }
}

/// Checks replies against the oracle: rid-for-rid while `learning` (the
/// warm-up replicate), by fingerprint afterwards.
pub struct Verifier {
    known: Vec<Option<Fingerprint>>,
    pub mismatches: Vec<String>,
}

impl Verifier {
    pub fn new(script_len: usize) -> Self {
        Verifier {
            known: vec![None; script_len],
            mismatches: Vec::new(),
        }
    }

    /// Warm-up: `expected` comes from the oracle and is compared in full.
    pub fn learn(
        &mut self,
        idx: usize,
        item: &Item,
        got: &Answer<'_>,
        expected: &Answer<'_>,
    ) -> bool {
        let ok = got.rids == expected.rids && got.rows == expected.rows;
        if ok {
            self.known[idx] = Some(Fingerprint::of(got.rids, got.rows.as_deref()));
        } else if self.mismatches.len() < 8 {
            self.mismatches.push(format!(
                "query {idx} {:?}: got {} rids / rows {:?}, oracle says {} rids / rows {:?}",
                item.query,
                got.rids.len(),
                got.rows,
                expected.rids.len(),
                expected.rows
            ));
        }
        ok
    }

    /// Timed replicates: length + fold of the reply against the fingerprint
    /// the oracle-checked warm-up left behind.
    pub fn check(&mut self, idx: usize, item: &Item, got: &Answer<'_>) -> bool {
        let ok = self.known[idx] == Some(Fingerprint::of(got.rids, got.rows.as_deref()));
        if !ok && self.mismatches.len() < 8 {
            self.mismatches.push(format!(
                "query {idx} {:?}: timed reply ({} rids) differs from the oracle-checked one",
                item.query,
                got.rids.len()
            ));
        }
        ok
    }
}

/// Which classes p50 and p95 are meant to sit in, for the purity check.
pub struct Intent {
    pub p50: &'static [Class],
    pub p95: &'static [Class],
}

/// The quiet latency of every query of a script, with the query's class:
/// windows replay the same queries in the same order, so query `i` has one
/// latency per window, and its quiet latency is the fastest of them — the
/// replicate rule applied to the single query. Only windows in which every
/// query was answered line up; `None` when there is none.
pub fn quiet_latencies(windows: &[Window]) -> Option<Vec<(f64, Class)>> {
    let whole: Vec<&Window> = windows
        .iter()
        .filter(|w| w.samples.len() as u64 == w.attempted)
        .collect();
    let first = whole.first()?;
    let n = first.samples.len();
    if n == 0 || whole.iter().any(|w| w.samples.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| {
                let replays: Vec<f64> = whole.iter().map(|w| w.samples[i].0).collect();
                (stats::best(&replays, Better::Lower), first.samples[i].1)
            })
            .collect(),
    )
}

/// Folds the timed windows into the trace metrics and the `bench.*` sanity
/// metrics, and adds the operation counts.
///
/// The end-to-end numbers are taken over the script's quiet latencies
/// ([`quiet_latencies`]): `trace_p50_ms` and `trace_p95_ms` are their
/// percentiles, `trace_qps` is Σ over clients of queries ÷ Σ quiet latency,
/// and class purity is judged on them too. The per-window figures stay in
/// the report as replicate values and as the `bench.*_med` layer metrics.
pub fn summarize_trace(report: &mut Report, windows: &[Window], intent: &Intent) {
    let p50: Vec<f64> = windows.iter().map(|w| w.quantile_ms(0.50)).collect();
    let p95: Vec<f64> = windows.iter().map(|w| w.quantile_ms(0.95)).collect();
    let qps: Vec<f64> = windows.iter().map(|w| w.qps).collect();
    report.layer("bench.trace_p50_med_ms", stats::median(&p50));
    report.layer("bench.trace_p95_med_ms", stats::median(&p95));
    report.layer("bench.trace_qps_med", stats::median(&qps));
    report.layer("bench.replicate_spread_frac", stats::iqr_over_median(&qps));
    report.replicate_values("trace_p50_ms", &p50);
    report.replicate_values("trace_p95_ms", &p95);
    report.replicate_values("trace_qps", &qps);

    // With no window free of failed queries the run is reported incorrect
    // whatever the metrics say; they are then taken over every answer there is.
    let quiet = quiet_latencies(windows);
    let mut samples: Vec<(f64, Class)> = match &quiet {
        Some(quiet) => quiet.clone(),
        None => windows
            .iter()
            .flat_map(|w| w.samples.iter().copied())
            .collect(),
    };
    match &quiet {
        Some(quiet) => {
            let mut start = 0;
            let mut rate = 0.0;
            let whole = windows
                .iter()
                .find(|w| w.samples.len() == quiet.len())
                .expect("quiet latencies come from a whole window");
            for &end in &whole.lane_ends {
                let busy: f64 = quiet[start..end].iter().map(|s| s.0).sum::<f64>() / 1e3;
                rate += (end - start) as f64 / busy;
                start = end;
            }
            report.e2e("trace_qps", rate);
            let ms: Vec<f64> = quiet.iter().map(|s| s.0).collect();
            report.note("quiet_latency_ms", J::nums(&ms));
        }
        None => report.e2e("trace_qps", stats::best(&qps, Better::Higher)),
    }
    let sorted = stats::sorted(&samples.iter().map(|s| s.0).collect::<Vec<f64>>());
    report.e2e("trace_p50_ms", stats::percentile_sorted(&sorted, 0.50));
    report.e2e("trace_p95_ms", stats::percentile_sorted(&sorted, 0.95));

    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(Window::failed).sum();
    let late: u64 = windows.iter().map(|w| w.late).sum();
    report.attempted += attempted;
    report.failed += failed;
    report.e2e(
        "trace_slo_frac",
        (attempted - failed - late) as f64 / attempted.max(1) as f64,
    );
    report.note(
        "trace_ops",
        J::obj([
            ("windows", J::Int(windows.len() as i64)),
            (
                "queries_per_window",
                J::Int(windows.first().map_or(0, |w| w.attempted) as i64),
            ),
            ("attempted", J::Int(attempted as i64)),
            (
                "errors",
                J::Int(windows.iter().map(|w| w.errors).sum::<u64>() as i64),
            ),
            (
                "shed",
                J::Int(windows.iter().map(|w| w.shed).sum::<u64>() as i64),
            ),
            (
                "wrong",
                J::Int(windows.iter().map(|w| w.wrong).sum::<u64>() as i64),
            ),
            ("late", J::Int(late as i64)),
        ]),
    );

    // Purity: is each percentile inside the class plateau it was designed to
    // sit in? Judged on the quiet latencies the percentiles are taken from,
    // so that noise which pushes cheap queries up the ranking of some windows
    // does not fail a run whose script is sound.
    let mut purity = |p: f64, intended: &[Class]| {
        stats::class_purity(&mut samples, p, 0.03, |c| intended.contains(&c))
    };
    let pur50 = purity(0.50, intent.p50);
    let pur95 = purity(0.95, intent.p95);
    report.layer("bench.p50_class_purity", pur50);
    report.layer("bench.p95_class_purity", pur95);
    for (name, purity) in [("p50", pur50), ("p95", pur95)] {
        if purity < MIN_PURITY && !report.scaled_down {
            report.problem(format!(
                "{name} class purity {purity:.3} is below {MIN_PURITY}: the percentile straddles two query classes"
            ));
        }
    }
    report.note("class_latency_ms", class_table(&samples));
    for (name, p) in [("p50_band_classes", 0.50), ("p95_band_classes", 0.95)] {
        let band = stats::quantile_band(&mut samples, p, 0.03).to_vec();
        report.note(name, class_shares(&band));
    }
}

/// Share of each class among `samples`.
fn class_shares(samples: &[(f64, Class)]) -> J {
    J::Obj(
        Class::ALL
            .iter()
            .map(|&c| (c, samples.iter().filter(|s| s.1 == c).count()))
            .filter(|&(_, n)| n > 0)
            .map(|(c, n)| {
                (
                    c.name().to_string(),
                    J::Num(n as f64 / samples.len() as f64),
                )
            })
            .collect(),
    )
}

/// Median latency and share of each class, for the report.
fn class_table(pooled: &[(f64, Class)]) -> J {
    J::Obj(
        Class::ALL
            .iter()
            .filter_map(|&class| {
                let lat: Vec<f64> = pooled
                    .iter()
                    .filter(|s| s.1 == class)
                    .map(|s| s.0)
                    .collect();
                if lat.is_empty() {
                    return None;
                }
                Some((
                    class.name().to_string(),
                    J::obj([
                        ("share", J::Num(lat.len() as f64 / pooled.len() as f64)),
                        ("median_ms", J::Num(stats::median(&lat))),
                        (
                            "p95_ms",
                            J::Num(stats::percentile_sorted(&stats::sorted(&lat), 0.95)),
                        ),
                    ]),
                ))
            })
            .collect(),
    )
}

/// Folds a capture phase into `capture_mrows_per_s` and its layer twins.
pub fn summarize_capture(report: &mut Report, items: &[CaptureItem]) {
    report.e2e(
        "capture_mrows_per_s",
        capture_rate(items, |secs| stats::best(secs, Better::Lower)),
    );
    report.layer(
        "core.capture_med_mrows_per_s",
        capture_rate(items, stats::median),
    );
    let reps = items.first().map_or(0, |i| i.secs.len());
    report.attempted += (reps * items.len()) as u64;
    for item in items {
        report.replicate_values(format!("capture.{}_s", item.name), &item.secs);
    }
    report.note("capture_repetitions", J::Int(reps as i64));
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Query;

    fn window(lat_ms: &[f64]) -> Window {
        let mut w = Window::default();
        for &ms in lat_ms {
            w.record(Class::Brush, Duration::from_secs_f64(ms / 1e3), Ok(()));
        }
        w.close();
        w
    }

    #[test]
    fn window_counts_late_and_failed_separately() {
        let mut w = window(&[1.0, 2.0, 150.0]);
        w.record(Class::Wide, Duration::from_millis(1), Err(Miss::Shed));
        w.record(Class::Wide, Duration::from_millis(1), Err(Miss::Wrong));
        assert_eq!(
            (w.attempted, w.late, w.failed(), w.samples.len()),
            (5, 1, 2, 3)
        );
    }

    #[test]
    fn qps_is_completions_over_time_inside_queries() {
        let w = window(&[1.0, 1.0, 2.0]);
        assert!((w.qps - 750.0).abs() < 1e-6, "{}", w.qps);
        let both = Window::merge(vec![w.clone(), w]);
        assert!((both.qps - 1500.0).abs() < 1e-6);
        assert_eq!(both.samples.len(), 6);
    }

    fn quiet_ms(windows: &[Window]) -> Option<Vec<f64>> {
        quiet_latencies(windows).map(|q| q.into_iter().map(|s| s.0).collect())
    }

    #[test]
    fn quiet_latency_is_each_querys_fastest_replay() {
        // Three replays of a three-query script; a burst hits a different
        // query in each.
        let windows = [
            window(&[1.0, 2.0, 9.0]),
            window(&[1.5, 8.0, 3.0]),
            window(&[7.0, 2.5, 3.5]),
        ];
        assert_eq!(quiet_ms(&windows), Some(vec![1.0, 2.0, 3.0]));
        let mut report = Report::default();
        summarize_trace(
            &mut report,
            &windows,
            &Intent {
                p50: &[Class::Brush],
                p95: &[Class::Brush],
            },
        );
        assert_eq!(report.end_to_end["trace_p50_ms"], 2.0);
        assert!((report.end_to_end["trace_p95_ms"] - 2.9).abs() < 1e-12);
        assert!((report.end_to_end["trace_qps"] - 500.0).abs() < 1e-9);
        // The typical window (p50 2, 3 and 3.5 ms) stays visible next to it.
        assert_eq!(report.per_layer["bench.trace_p50_med_ms"], 3.0);

        // A window with an unanswered query does not line up and is left out.
        let mut broken = window(&[0.1, 0.1]);
        broken.record(Class::Brush, Duration::from_millis(1), Err(Miss::Error));
        let with_broken = [windows[0].clone(), broken];
        assert_eq!(quiet_ms(&with_broken), Some(vec![1.0, 2.0, 9.0]));
        assert_eq!(quiet_ms(&with_broken[1..]), None);
    }

    #[test]
    fn merged_windows_keep_their_lanes_and_rate_each_on_its_own() {
        let lanes = |a: &[f64], b: &[f64]| Window::merge(vec![window(a), window(b)]);
        let windows = [
            lanes(&[1.0, 1.0], &[2.0, 6.0]),
            lanes(&[3.0, 1.0], &[2.0, 2.0]),
        ];
        assert_eq!(windows[0].lane_ends, vec![2, 4]);
        let mut report = Report::default();
        summarize_trace(
            &mut report,
            &windows,
            &Intent {
                p50: &[Class::Brush],
                p95: &[Class::Brush],
            },
        );
        // Quiet latencies 1, 1 | 2, 2: 2 / 2 ms + 2 / 4 ms.
        assert!((report.end_to_end["trace_qps"] - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn capture_rate_is_sum_of_rows_over_sum_of_folded_times() {
        let mut a = CaptureItem::new("a", 1_000_000, true);
        a.secs = vec![0.5, 0.25, 1.0];
        let mut b = CaptureItem::new("b", 3_000_000, true);
        b.secs = vec![0.75, 1.5, 2.0];
        let mut base = CaptureItem::new("base", 9_000_000, false);
        base.secs = vec![0.1, 0.1, 0.1];
        let items = [a, b, base];
        assert_eq!(capture_rate(&items, |s| stats::best(s, Better::Lower)), 4.0);
        assert_eq!(capture_rate(&items, stats::median), 2.0);
    }

    #[test]
    fn verifier_learns_from_the_oracle_then_checks_fingerprints() {
        let item = Item {
            class: Class::Brush,
            query: Query::Backward { key: 1 },
        };
        let mut v = Verifier::new(1);
        let good = Answer {
            rids: &[1, 5],
            rows: None,
        };
        assert!(v.learn(
            0,
            &item,
            &good,
            &Answer {
                rids: &[1, 5],
                rows: None
            }
        ));
        assert!(v.check(0, &item, &good));
        assert!(!v.check(
            0,
            &item,
            &Answer {
                rids: &[1, 6],
                rows: None
            }
        ));
        assert!(!v.learn(
            0,
            &item,
            &good,
            &Answer {
                rids: &[1],
                rows: None
            }
        ));
        assert_eq!(v.mismatches.len(), 2);
    }

    #[test]
    fn setup_is_repeated_and_folded_part_by_part() {
        let mut report = Report::default();
        let mut calls = 0;
        let fixture = repeat_setup(&mut report, |clock| {
            calls += 1;
            // `load` gets faster with every set-up, the two `warm` parts slower.
            clock.add("load", Duration::from_millis(10 * (7 - calls)));
            clock.add("warm", Duration::from_millis(calls));
            clock.add("warm", Duration::from_millis(2 * calls));
            calls
        });
        assert_eq!(
            (fixture, calls),
            (SETUP_REPEATS as u64, SETUP_REPEATS as u64)
        );
        // 20 ms (the last load) + 1 ms + 2 ms (the first warm-up).
        assert!((report.end_to_end["setup_s"] - 0.023).abs() < 1e-12);
        assert_eq!(report.replicates[0].1.len(), SETUP_REPEATS);
        assert!((report.replicates[0].1[0] - 0.063).abs() < 1e-12);
    }

    #[test]
    fn set_ups_of_different_shape_are_compared_whole() {
        let mut a = SetupClock::default();
        a.add("load", Duration::from_millis(5));
        a.add("warm", Duration::from_millis(5));
        let mut b = SetupClock::default();
        b.add("load", Duration::from_millis(1));
        assert!((SetupClock::quiet(&[a, b]).total() - 0.001).abs() < 1e-12);
    }
}
