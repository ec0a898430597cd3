//! What a run measured, and how it is printed: one line per metric for a
//! reader, then the result line the gate parses.

use crate::layers::{self, Tally};
use crate::stats::{self, FailRatio};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, measured with tracing off: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_mean", "ms"),
    ("ops_per_s", "1/s"),
    ("warm_ms_p50", "ms"),
    ("warm_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, measured by the traced run: name and unit. Times
/// and counts are means per traced operation; a layer a workload never
/// calls reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("simpoint.select_ms", "ms"),
    ("simpoint.select_ms.simpoint", "ms"),
    ("simpoint.select_ms.stratified2p", "ms"),
    ("simpoint.select_ms.rss", "ms"),
    ("simpoint.slices", "count"),
    ("simpoint.k", "count"),
    ("simpoint.self_ms", "ms"),
    ("simpoint.share_pct", "%"),
    ("core.profile_ms", "ms"),
    ("core.profile_insts", "count"),
    ("core.profile_ns_per_inst", "ns/inst"),
    ("core.profile_share_pct", "%"),
    ("core.replay_ms", "ms"),
    ("core.replay_regions", "count"),
    ("core.replay_insts", "count"),
    ("core.replay_ms_per_region", "ms"),
    ("core.self_ms", "ms"),
    ("uarch.truth_ms", "ms"),
    ("uarch.truth_ns_per_inst", "ns/inst"),
    ("uarch.replay_ms", "ms"),
    ("uarch.replay_regions", "count"),
    ("uarch.replay_insts", "count"),
    ("uarch.replay_ms_per_region", "ms"),
    ("uarch.replay_share_pct", "%"),
    ("uarch.self_ms", "ms"),
    ("pinball.regionals_ms", "ms"),
    ("pinball.self_ms", "ms"),
    ("serve.prepare_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.executions", "count"),
    ("serve.mem_hits", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.busy_rejects", "count"),
    ("serve.stage_hits", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.warm_alone_ms_p50", "ms"),
    ("serve.warm_wait_ms_p90", "ms"),
    ("serve.retries", "count"),
    ("serve.self_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Fewest rotations a batch run makes. With one warm sample per input,
/// `warm_ms_p90` of `compare-coarse` was the slowest report of the run and
/// spread by 26% across ten runs.
pub const MIN_ROTATIONS: usize = 3;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Times `SETUP_REPS` set-ups.
///
/// # Errors
///
/// Returns the first set-up failure.
pub fn time_setups(mut setup: impl FnMut() -> Result<(), String>) -> Result<Vec<Duration>, String> {
    (0..SETUP_REPS)
        .map(|_| {
            let started = Instant::now();
            setup().map(|()| started.elapsed())
        })
        .collect()
}

/// The closed loop of the batch workloads: one caller runs `op(i)` for
/// every `i < n` in order, and repeats. It stops only after whole
/// rotations, so every run weighs each input equally, and after at least
/// [`MIN_ROTATIONS`], so the first-asked (cold) class exists and the
/// repeated (warm) class has two samples of every input. Past that it
/// stops at the rotation boundary nearest to `window`, so a run lasts
/// `window` give or take half a rotation. `op` returns its latency in
/// milliseconds and whether its output passed the check.
pub fn rotations(
    n: usize,
    window: Duration,
    mut op: impl FnMut(usize) -> (f64, bool),
) -> (Vec<Op>, Duration) {
    let mut ops = Vec::new();
    let started = Instant::now();
    let mut cycle = 0;
    let mut last = Duration::ZERO;
    while cycle < MIN_ROTATIONS || started.elapsed() + last / 2 < window {
        let rotation = Instant::now();
        for i in 0..n {
            let (ms, ok) = op(i);
            ops.push(Op {
                ms,
                warm: cycle > 0,
                ok,
            });
        }
        cycle += 1;
        last = rotation.elapsed();
    }
    (ops, started.elapsed())
}

/// One timed operation: a document, a report or a reply.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Latency in milliseconds.
    pub ms: f64,
    /// Whether this process had asked for the same input before.
    pub warm: bool,
    /// Whether the output passed every check.
    pub ok: bool,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check or that returned an error.
    pub failed: u64,
    /// Why the run is not correct, beyond the failed operations.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for a reader, printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records the timed operations of a run and the checks they passed.
    pub fn count(&mut self, ops: &[Op]) {
        self.attempted += ops.len() as u64;
        self.failed += ops.iter().filter(|o| !o.ok).count() as u64;
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a line for a reader.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Ends a batch workload's run: records its operations, then fills the
    /// end-to-end metrics, or, for a traced run, the per-layer metrics
    /// from `(tracer, tally, untraced op ms)`.
    pub fn finish(
        &mut self,
        ops: &[Op],
        window: Duration,
        setups: &[Duration],
        traced: Option<(&Tracer, &Tally, f64)>,
    ) {
        self.count(ops);
        match traced {
            None => self.end_to_end(ops, window, setups, peak_rss_mib()),
            Some((t, tally, untraced_ms)) => layers::per_layer(self, t, tally, untraced_ms),
        }
    }

    /// Fills every end-to-end metric from the measured window. `peak_mib`
    /// is the memory high-water mark read when the window closed, before
    /// any output check of the benchmark's own.
    pub fn end_to_end(&mut self, ops: &[Op], window: Duration, setups: &[Duration], peak_mib: f64) {
        let ms = |pick: &dyn Fn(&Op) -> bool| -> Vec<f64> {
            ops.iter().filter(|o| pick(o)).map(|o| o.ms).collect()
        };
        let all = ms(&|_| true);
        let warm = ms(&|o| o.warm);
        let cold = ms(&|o| !o.warm);
        let setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
        self.set("setup_s", stats::median(&setup).unwrap_or(0.0));
        self.set("op_ms_mean", mean(&all));
        self.set("ops_per_s", all.len() as f64 / window.as_secs_f64());
        self.set("warm_ms_p50", stats::median(&warm).unwrap_or(0.0));
        self.set("warm_ms_p90", stats::percentile(&warm, 90.0).unwrap_or(0.0));
        self.set("peak_rss_mib", peak_mib);
        for (class, samples) in [("op", &all), ("cold", &cold), ("warm", &warm)] {
            self.note(format!(
                "{class}_ms p50 = {} ms, mean = {} ms (n={})",
                stats::median(samples).unwrap_or(0.0),
                mean(samples),
                samples.len()
            ));
            self.note(match stats::tail(samples) {
                Some(t) => format!(
                    "{class}_ms tail: p{} = {} ms (n={})",
                    t.level, t.value, t.count
                ),
                None => format!(
                    "{class}_ms tail: none with {} samples beyond it (n={})",
                    stats::TAIL_SUPPORT,
                    samples.len()
                ),
            });
        }
        self.note(format!(
            "samples: setup n={} ops n={} cold n={} warm n={} window {} s",
            setup.len(),
            all.len(),
            cold.len(),
            warm.len(),
            window.as_secs_f64()
        ));
    }

    /// Whether every output passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Prints the lines for a reader, then the result line. `traced`
    /// selects the per-layer metric set.
    pub fn print(&self, traced: bool) {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for line in &self.notes {
            println!("# {line}");
        }
        for problem in &self.problems {
            println!("# PROBLEM: {problem}");
        }
        let fail = FailRatio {
            failed: self.failed,
            attempted: self.attempted,
        };
        println!("# fail_ratio = {} (failed/attempted)", fail.render());
        let mut fields = Vec::with_capacity(set.len());
        for (name, unit) in set {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("# {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
    }
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |a, b| a + b) / samples.len().max(1) as f64
}

/// The process's resident-memory high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_util::json::{self, Value};

    /// The metric lists here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, expected) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = expected
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
