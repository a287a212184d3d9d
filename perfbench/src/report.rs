//! What a workload hands back, and the result line built from it.

use crate::stats::median;

/// Everything one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Set-up time of each repetition (inputs built, server started and
    /// connected), seconds.
    pub setup_secs: Vec<f64>,
    /// Median wall-clock of one unit a user waits for, seconds: one
    /// exploration, one full simulation matrix, or one request, less the
    /// host's steal share (see [`StealMark`]).
    pub wall_secs: f64,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed (wrong answer, error frame).
    pub failed: u64,
    /// One line per failed check, for the log.
    pub failures: Vec<String>,
    /// Peak resident set after the first full pass, MB: one unit of the
    /// workload's footprint. Later passes only add allocator noise.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced run only), in declaration order.
    pub layers: Vec<Metric>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation, recording `failures` against it.
    pub fn check(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push(Metric { name, unit, value });
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// This process's peak resident set so far, MB (`VmHWM`); 0 where the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Busy and stolen CPU ticks of this machine so far, summed over its
/// CPUs, from the first line of `/proc/stat`.
fn machine_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let t: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal …
    let busy = t.first()? + t.get(1)? + t.get(2)? + t.get(5)? + t.get(6)?;
    Some((busy, *t.get(7)?))
}

/// A point in time for [`StealMark::share_since`].
///
/// On a virtual machine the hypervisor may run other guests on this
/// machine's CPUs while our threads are runnable: "steal" time, which
/// inflates wall-clock without any change in the program. The share of
/// busy CPU time stolen over an interval estimates the share of that
/// interval our runnable threads lost, so `wall × (1 − share)` is the
/// wall-clock the program would have taken on the CPUs it was given. On
/// hardware without steal the share is 0 and nothing changes.
#[derive(Debug, Clone, Copy)]
pub struct StealMark(Option<(u64, u64)>);

impl StealMark {
    /// Marks now.
    #[must_use]
    pub fn now() -> Self {
        StealMark(machine_ticks())
    }

    /// The share of busy CPU time stolen since this mark, in `[0, 1)`;
    /// 0 when the machine does not report it.
    #[must_use]
    pub fn share_since(&self) -> f64 {
        let (Some((busy0, steal0)), Some((busy1, steal1))) = (self.0, machine_ticks()) else {
            return 0.0;
        };
        let busy = busy1.saturating_sub(busy0) as f64;
        let steal = steal1.saturating_sub(steal0) as f64;
        if busy + steal > 0.0 {
            (steal / (busy + steal)).min(0.99)
        } else {
            0.0
        }
    }
}

/// Work per second as a `#` line for people, e.g. `"states/s"`.
#[must_use]
pub fn throughput_note(work: f64, secs: f64, unit: &str) -> String {
    format!(
        "throughput: {:.1} {unit} ({work} in {secs:.3} s timed)",
        work / secs.max(f64::MIN_POSITIVE)
    )
}

/// The end-to-end metrics of an untraced run.
#[must_use]
pub fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&outcome.setup_secs),
        },
        Metric {
            name: "wall_s",
            unit: "s",
            value: outcome.wall_secs,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: outcome.peak_rss_mb,
        },
    ]
}

/// Formats a metric value for JSON: full precision, and `0` in place of
/// the non-finite values JSON cannot carry.
#[must_use]
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The machine-readable result: the last line of standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "wall_s",
                unit: "s",
                value: 1.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failed_checks_are_counted_once_per_operation() {
        let mut out = Outcome::default();
        out.check(Vec::new());
        out.check(vec!["a".into(), "b".into()]);
        assert_eq!((out.attempted, out.failed, out.failures.len()), (2, 1, 2));
    }

    #[test]
    fn end_to_end_reports_the_workload_figures() {
        let out = Outcome {
            setup_secs: vec![0.3, 0.1, 0.2],
            wall_secs: 2.0,
            peak_rss_mb: 12.5,
            ..Outcome::default()
        };
        let m = end_to_end(&out);
        let names: Vec<&str> = m.iter().map(|m| m.name).collect();
        assert_eq!(names, ["setup_s", "wall_s", "peak_rss_mb"]);
        assert_eq!(m[0].value, 0.2);
        assert_eq!(m[1].value, 2.0);
        assert_eq!(m[2].value, 12.5);
        assert!(peak_rss_mb() > 0.0);
        let share = StealMark::now().share_since();
        assert!((0.0..1.0).contains(&share));
        assert_eq!(json_number(f64::NAN), "0");
    }
}
