//! `slx-perfbench` — the repository's seconds-scale benchmark.
//!
//! ```text
//! slx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public API of the library crates,
//! checks every output against a known answer, and prints as its last
//! line one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: the end-to-end ones with `--trace 0`, the per-layer ones
//! (from a separate traced run) with `--trace 1`. See `README.md` beside
//! this crate for the workloads and what each metric should move.

mod explore;
mod report;
mod serve;
mod simulate;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use slx_core::engine::knobs;

use report::{end_to_end, result_line, Metric, Outcome};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "explore-resident",
    "explore-durable",
    "simulate-tm",
    "serve-closed-loop",
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them; a layer a workload does not run
/// reports 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("engine.level_ms_p50", "ms"),
    ("engine.level_ms_max", "ms"),
    ("engine.levels", "count"),
    ("engine.configs", "count"),
    ("engine.transitions", "count"),
    ("engine.dedup_hits", "count"),
    ("engine.orbit_hits", "count"),
    ("engine.fresh_ratio", "ratio"),
    ("engine.peak_frontier", "count"),
    ("engine.threads", "count"),
    ("engine.shards", "count"),
    ("engine.spill_bytes", "B"),
    ("engine.spill_chunks", "count"),
    ("engine.peak_resident_bytes", "B"),
    ("engine.degraded_levels", "count"),
    ("engine.ckpt_images", "count"),
    ("engine.ckpt_image_bytes", "B"),
    ("engine.ckpt_level_ms_p50", "ms"),
    ("engine.plain_level_ms_p50", "ms"),
    ("engine.io_retries", "count"),
    ("engine.faults_injected", "count"),
    ("explorer.safety_calls", "count"),
    ("explorer.safety_ms", "ms"),
    ("explorer.digest_calls", "count"),
    ("explorer.digest_ms", "ms"),
    ("explorer.outside_ms", "ms"),
    ("memory.events", "count"),
    ("memory.decide_ms", "ms"),
    ("memory.step_ms", "ms"),
    ("memory.decide_growth", "ratio"),
    ("memory.commits", "count"),
    ("memory.aborts", "count"),
    ("memory.commit_ratio", "ratio"),
    ("safety.certify_ms", "ms"),
    ("safety.history_actions", "count"),
    ("server.connect_ms", "ms"),
    ("server.run_ms_p50", "ms"),
    ("server.overhead_ms_p50", "ms"),
    ("server.overhead_ms_p95", "ms"),
    ("server.progress_frames", "count"),
    ("server.frame_bytes", "B"),
    ("server.error_frames", "count"),
    ("server.req_p50_ms", "ms"),
    ("server.req_p95_ms", "ms"),
    ("server.req_samples", "count"),
    ("server.req_per_s", "1/s"),
    ("trace.overhead_x", "ratio"),
];

/// Where runs keep their scratch files and traces, relative to the
/// checkout root the benchmark runs from (short, so unix socket paths
/// stay within their length limit).
const RUN_DIR: &str = "perfbench/.run";

/// Minimum timed passes of the explore and simulate workloads, however
/// short `--seconds` is.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Knobs no builder method can pin: the fault plan (the server's socket
/// paths consult it) and the checkpoint directory (a checker without
/// `with_checkpoint` honours it, and there is no "off" pin).
fn unpinnable_knobs_set() -> Vec<&'static str> {
    let mut set = Vec::new();
    if knobs::SLX_ENGINE_FAULT_PLAN.text_value().is_some() {
        set.push(knobs::SLX_ENGINE_FAULT_PLAN.name);
    }
    if knobs::SLX_ENGINE_CHECKPOINT_DIR.path_value().is_some() {
        set.push(knobs::SLX_ENGINE_CHECKPOINT_DIR.name);
    }
    set
}

/// The checkout's git revision, read from `.git` in the working
/// directory only (never a repository above it); `unknown` elsewhere.
fn git_revision() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fresh scratch directory for one test, under the run directory.
#[cfg(test)]
fn test_work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test work dir");
    dir
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs the named workload in `work`.
fn run_workload(args: &Args, work: &Path, tracer: Option<&mut Tracer>) -> Outcome {
    let threads = nproc();
    match args.workload.as_str() {
        "explore-resident" | "explore-durable" => {
            let mode = if args.workload == "explore-resident" {
                explore::Mode::Resident
            } else {
                explore::Mode::Durable
            };
            let p = explore::Params {
                mode,
                depth: explore::DEPTH,
                threads,
            };
            explore::run(
                &p,
                args.seed,
                args.seconds,
                MIN_PASSES,
                tracer,
                work,
                &explore::known_answer(mode),
            )
        }
        "simulate-tm" => simulate::run(
            &simulate::Params::full(),
            args.seed,
            args.seconds,
            MIN_PASSES,
            tracer,
            Some(&simulate::TABLE),
        ),
        _ => {
            let mut out = serve::run(
                &serve::Params::full(threads.min(serve::WORKERS)),
                args.seed,
                args.seconds,
                tracer,
                work,
            );
            let left = serve::leftovers(work);
            if !left.is_empty() {
                out.check(vec![format!("checkpoint files left behind: {left:?}")]);
            }
            out
        }
    }
}

/// The traced run's per-layer metrics, every declared one in order.
fn per_layer(outcome: &Outcome) -> (Vec<Metric>, Vec<String>) {
    let mut undeclared = Vec::new();
    for m in &outcome.layers {
        if !PER_LAYER
            .iter()
            .any(|(name, unit)| *name == m.name && *unit == m.unit)
        {
            undeclared.push(format!(
                "per-layer metric {} ({}) is not declared",
                m.name, m.unit
            ));
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: outcome
                .layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value),
        })
        .collect();
    (metrics, undeclared)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("slx-perfbench: {e}");
            eprintln!(
                "usage: slx-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let unpinnable = unpinnable_knobs_set();
    if !unpinnable.is_empty() {
        eprintln!(
            "slx-perfbench: refusing to run with {} set: no builder method pins it, \
             so the measured configuration would not be the declared one",
            unpinnable.join(", ")
        );
        return ExitCode::from(2);
    }

    let work = PathBuf::from(RUN_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("slx-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut tracer = args.trace.then(Tracer::new);
    let mut outcome = run_workload(&args, &work, tracer.as_mut());
    match std::fs::remove_dir_all(&work) {
        Ok(()) => {}
        Err(e) => outcome.check(vec![format!("cannot remove {}: {e}", work.display())]),
    }

    println!(
        "# slx-perfbench workload={} seed={} seconds={} trace={} nproc={} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_revision()
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
    println!(
        "# error_rate: {} failed of {} checked",
        outcome.failed, outcome.attempted
    );
    let metrics = match &tracer {
        None => end_to_end(&outcome),
        Some(tracer) => {
            let (metrics, undeclared) = per_layer(&outcome);
            for u in undeclared {
                outcome.check(vec![u]);
            }
            let path = PathBuf::from(RUN_DIR)
                .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            match tracer.write_jsonl(&path) {
                Ok(n) => println!("# trace: {n} spans written to {}", path.display()),
                Err(e) => outcome.check(vec![format!("cannot write {}: {e}", path.display())]),
            }
            metrics
        }
    };
    for m in &metrics {
        println!(
            "# {:<28} {:>16} {}",
            m.name,
            report::json_number(m.value),
            m.unit
        );
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        let ok = parse_args(&strings(&[
            "--workload",
            "simulate-tm",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("simulate-tm", 3, 10.0, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "simulate-tm"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "simulate-tm",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in PER_LAYER {
            assert!(declared(name, unit), "{name} ({unit}) missing");
        }
        let e2e = end_to_end(&Outcome::default());
        for m in &e2e {
            assert!(declared(m.name, m.unit), "{} ({}) missing", m.name, m.unit);
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            PER_LAYER.len() + e2e.len()
        );
    }

    #[test]
    fn every_layer_metric_a_workload_reports_is_declared() {
        let mut out = Outcome::default();
        out.layer("engine.configs", "count", 5.0);
        out.layer("made.up", "ms", 1.0);
        let (metrics, undeclared) = per_layer(&out);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.name == "engine.configs")
                .map(|m| m.value),
            Some(5.0)
        );
        assert_eq!(undeclared.len(), 1);
    }
}
