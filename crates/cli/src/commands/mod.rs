//! Subcommand implementations.

mod audit;
mod compare;
mod lint;
mod perf;
mod plan;
mod serve;

pub use audit::audit;
pub use compare::compare;
pub use lint::{explain, lint};
pub use perf::perf;
pub use plan::plan;
pub use serve::{request, serve};

use crate::args::Options;
use sampsim_cache::configs;
use sampsim_core::metrics::{aggregate_weighted, whole_as_aggregate, AggregatedMetrics};
use sampsim_core::pipeline::{PinPointsConfig, Pipeline};
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::stage_cache::NoCache;
use sampsim_pinball::store;
use sampsim_serve::service::{self, find_benchmark, RunRequest};
use sampsim_simpoint::{KmeansMode, SimPointOptions, StrategySpec};
use sampsim_spec2017::BenchmarkSpec;
use sampsim_util::stats::with_commas;
use sampsim_util::table::{fmt_f, Table};
use sampsim_workload::Program;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Boxed error for command results.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// A usage-class failure (bad operands rather than a failed run): `main`
/// maps it to exit code 2, like argument-parse errors.
#[derive(Debug)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// Opens `path` for writing up front, so a bad report path fails fast
/// (exit 2) instead of after minutes of pipeline work.
fn create_report_file(path: &str) -> Result<std::fs::File, UsageError> {
    std::fs::File::create(path).map_err(|e| UsageError(format!("cannot write {path}: {e}")))
}

/// `--validate FILE` for the report commands: checks `path` with
/// `validate` and prints `{path}: valid {what}` on stdout. An unreadable
/// file or an invalid report is a usage-class failure (exit 2).
fn validate_file(path: &str, validate: fn(&str) -> Result<(), String>, what: &str) -> CmdResult {
    let text = std::fs::read_to_string(path)
        .map_err(|e| UsageError(format!("cannot read {path}: {e}")))?;
    validate(&text).map_err(|e| UsageError(format!("{path}: {e}")))?;
    println!("{path}: valid {what}");
    Ok(())
}

/// Resolves `--strategy` against the engine registry. A spec that does
/// not parse — unregistered name or malformed parameters — is a
/// usage-class failure (SA130, exit 2), same class as a bad flag value,
/// caught before any pipeline work starts.
fn validated_strategy(options: &Options) -> Result<Option<StrategySpec>, UsageError> {
    let Some(name) = &options.strategy else {
        return Ok(None);
    };
    let report = sampsim_analyze::lint_strategy_name(name);
    if let Some(d) = report.diagnostics().first() {
        return Err(UsageError(format!("[{}] {}", d.rule.code(), d.message)));
    }
    Ok(Some(
        StrategySpec::parse_spec(name).expect("lint-validated strategy specs always parse"),
    ))
}

fn pipeline_config(options: &Options) -> Result<PinPointsConfig, UsageError> {
    let mut config = PinPointsConfig {
        slice_size: options.slice.unwrap_or_else(|| options.scale.apply(10_000)),
        ..PinPointsConfig::default()
    };
    if let Some(maxk) = options.maxk {
        config.simpoint = SimPointOptions {
            max_k: maxk,
            ..config.simpoint
        };
    }
    if let Some(mode) = &options.kmeans_mode {
        let mode = KmeansMode::parse(mode).ok_or_else(|| {
            UsageError(format!(
                "bad --kmeans-mode value: {mode} (one of: lloyd, minibatch)"
            ))
        })?;
        config.simpoint = SimPointOptions {
            kmeans_mode: mode,
            ..config.simpoint
        };
    }
    if let Some(spec) = validated_strategy(options)? {
        config.strategy = spec;
    }
    Ok(config)
}

fn build(spec: &BenchmarkSpec, options: &Options) -> Program {
    spec.scaled(options.scale).build()
}

/// `sampsim list`.
pub fn list() -> CmdResult {
    let mut table = Table::new(vec![
        "Benchmark".into(),
        "Suite".into(),
        "Whole insts (full scale)".into(),
        "Table II pts".into(),
        "Table II 90pct".into(),
    ]);
    for spec in sampsim_spec2017::suite() {
        table.row(vec![
            spec.name().to_string(),
            spec.suite().label().to_string(),
            with_commas(spec.workload().total_insts),
            spec.table2_points().to_string(),
            spec.table2_points_90().to_string(),
        ]);
    }
    table.print();
    Ok(())
}

/// `sampsim run <bench> [-o FILE]` — profile, cluster, replay, aggregate;
/// print one deterministic JSON document to stdout (and, with `-o`, to
/// `FILE`).
///
/// The document is rendered by `sampsim_serve::service` — the same code
/// path the daemon replies through, so served responses are byte-identical
/// to this stdout by construction. It contains only deterministic
/// quantities (no wall-clock, no resolved worker count), and every float
/// is printed with Rust's shortest-round-trip formatting, so the bytes
/// are identical for every `--jobs` value. The CLI integration tests rely
/// on this.
pub fn run(bench: &str, out: Option<&str>, options: &Options) -> CmdResult {
    validated_strategy(options)?;
    let request = RunRequest {
        bench: bench.to_string(),
        scale: options.scale.factor(),
        slice: options.slice,
        maxk: options.maxk,
        strategy: options.strategy.clone(),
        kmeans: options.kmeans_mode.clone(),
    };
    let prepared = service::prepare(&request)?;
    let mut sink = out.map(create_report_file).transpose()?;
    eprintln!(
        "running the sampling study for {} ({} instructions, jobs = {})...",
        prepared.name,
        with_commas(prepared.program.total_insts()),
        options.jobs
    );
    let document = service::execute_prepared(&prepared, options.jobs, &NoCache)?;
    println!("{document}");
    if let Some(file) = &mut sink {
        writeln!(file, "{document}")?;
    }
    Ok(())
}

/// `sampsim profile <bench>`.
pub fn profile(bench: &str, options: &Options) -> CmdResult {
    let spec = find_benchmark(bench)?;
    let program = build(&spec, options);
    eprintln!(
        "profiling {} ({} instructions)...",
        spec.name(),
        with_commas(program.total_insts())
    );
    let metrics = runs::run_whole_functional(&program, configs::allcache_table1());
    print_aggregate(
        &format!("{} whole run", spec.name()),
        &whole_as_aggregate(&metrics),
    );
    println!(
        "\n{} instructions in {:.2}s ({:.1} M inst/s simulated)",
        with_commas(metrics.instructions),
        metrics.wall_seconds,
        metrics.instructions as f64 / metrics.wall_seconds / 1e6
    );
    Ok(())
}

/// `sampsim simpoints <bench> [-o DIR]`.
pub fn simpoints(bench: &str, out: Option<&str>, options: &Options) -> CmdResult {
    let spec = find_benchmark(bench)?;
    let program = build(&spec, options);
    let config = pipeline_config(options)?;
    eprintln!(
        "slicing {} at {} instructions/slice, MaxK = {}...",
        spec.name(),
        config.slice_size,
        config.simpoint.max_k
    );
    let result = Pipeline::new(config).run(&program)?;
    let mut table = Table::new(vec![
        "Slice".into(),
        "Cluster".into(),
        "Weight %".into(),
        "Warmup insts".into(),
    ]);
    table.title(format!(
        "{}: {} slices -> {} simulation points (k = {})",
        spec.name(),
        result.num_slices,
        result.regional.len(),
        result.simpoints.k
    ));
    for pb in &result.regional {
        table.row(vec![
            pb.slice_index.to_string(),
            pb.cluster.to_string(),
            fmt_f(pb.weight * 100.0, 2),
            with_commas(pb.warmup_insts()),
        ]);
    }
    table.print();
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)?;
        let path = Path::new(dir).join(format!("{}.pb", spec.name()));
        store::save_regions(&path, &result.regional)?;
        let wpath = Path::new(dir).join(format!("{}.whole.pb", spec.name()));
        store::save_whole(&wpath, &result.whole)?;
        println!(
            "\nsaved {} regional pinballs to {} (replay with `sampsim replay {}`)",
            result.regional.len(),
            path.display(),
            path.display()
        );
    }
    Ok(())
}

/// `sampsim replay <FILE>`.
pub fn replay(path: &str, options: &Options) -> CmdResult {
    let regions = store::load_regions(Path::new(path))?;
    let first = regions.first().ok_or("pinball file contains no regions")?;
    let spec = find_benchmark(&first.program_name)?;
    let program = build(&spec, options);
    eprintln!(
        "replaying {} regions of {} with ldstmix + allcache (warm)...",
        regions.len(),
        first.program_name
    );
    let metrics = runs::run_regions_functional_jobs(
        &program,
        &regions,
        configs::allcache_table1(),
        WarmupMode::Checkpointed,
        options.jobs,
    )?;
    let agg = aggregate_weighted(&metrics);
    print_aggregate(&format!("{} regional run", first.program_name), &agg);
    println!(
        "\nreplayed {} instructions across {} regions",
        with_commas(agg.total_instructions),
        regions.len()
    );
    Ok(())
}

/// `sampsim report <bench>`.
pub fn report(bench: &str, options: &Options) -> CmdResult {
    let spec = find_benchmark(bench)?;
    let program = build(&spec, options);
    let config = pipeline_config(options)?;
    eprintln!(
        "running the full study for {} (whole + regions)...",
        spec.name()
    );
    let mut pp = config;
    pp.profile_cache = Some(configs::allcache_table1());
    let pipeline = Pipeline::new(pp.clone());
    let result = pipeline.run_jobs(&program, options.jobs)?;
    let whole = whole_as_aggregate(&result.whole_metrics);
    let runs_spec: [(&str, WarmupMode); 2] = [
        ("Regional (cold)", WarmupMode::None),
        ("Warmup Regional", WarmupMode::Checkpointed),
    ];
    let mut table = Table::new(vec![
        "Run".into(),
        "Insts".into(),
        "NO_MEM%".into(),
        "MEM_R%".into(),
        "MEM_W%".into(),
        "L1D%".into(),
        "L2%".into(),
        "L3%".into(),
    ]);
    table.title(format!(
        "{}: {} points over {} slices",
        spec.name(),
        result.regional.len(),
        result.num_slices
    ));
    let push = |table: &mut Table, label: &str, agg: &AggregatedMetrics| {
        let mr = agg.miss_rates.expect("cache stats");
        table.row(vec![
            label.to_string(),
            with_commas(agg.total_instructions),
            fmt_f(agg.mix_pct[0], 2),
            fmt_f(agg.mix_pct[1], 2),
            fmt_f(agg.mix_pct[2], 2),
            fmt_f(mr.l1d, 2),
            fmt_f(mr.l2, 2),
            fmt_f(mr.l3, 2),
        ]);
    };
    push(&mut table, "Whole", &whole);
    for (label, mode) in runs_spec {
        let metrics = runs::run_regions_functional_jobs(
            &program,
            &result.regional,
            configs::allcache_table1(),
            mode,
            options.jobs,
        )?;
        push(&mut table, label, &aggregate_weighted(&metrics));
    }
    table.print();
    Ok(())
}

/// `sampsim trace <bench> -o FILE [--limit N]`.
pub fn trace(bench: &str, out: &str, limit: Option<u64>, options: &Options) -> CmdResult {
    use sampsim_pin::engine;
    use sampsim_pin::tools::TraceWriter;
    let spec = find_benchmark(bench)?;
    let program = build(&spec, options);
    let cap = limit.unwrap_or(u64::MAX);
    eprintln!(
        "tracing {} ({} instructions max) to {out}...",
        spec.name(),
        if cap == u64::MAX {
            "all".to_string()
        } else {
            with_commas(cap)
        }
    );
    let mut writer = TraceWriter::create(Path::new(out), program.digest(), program.name())?;
    let mut exec = sampsim_workload::Executor::new(&program);
    engine::run_one(&mut exec, cap, &mut writer);
    let written = writer.finish()?;
    println!(
        "wrote {} records ({} bytes) to {out}",
        with_commas(written),
        with_commas(std::fs::metadata(out)?.len())
    );
    Ok(())
}

fn print_aggregate(title: &str, agg: &AggregatedMetrics) {
    let mut table = Table::new(vec!["Metric".into(), "Value".into()]);
    table.title(title.to_string());
    for (i, label) in ["NO_MEM %", "MEM_R %", "MEM_W %", "MEM_RW %"]
        .iter()
        .enumerate()
    {
        table.row(vec![label.to_string(), fmt_f(agg.mix_pct[i], 2)]);
    }
    if let Some(mr) = agg.miss_rates {
        table.row(vec!["L1I miss %".into(), fmt_f(mr.l1i, 3)]);
        table.row(vec!["L1D miss %".into(), fmt_f(mr.l1d, 3)]);
        table.row(vec!["L2 miss %".into(), fmt_f(mr.l2, 3)]);
        table.row(vec!["L3 miss %".into(), fmt_f(mr.l3, 3)]);
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_benchmark_exact_and_substring() {
        assert_eq!(find_benchmark("505.mcf_r").unwrap().name(), "505.mcf_r");
        assert_eq!(find_benchmark("xalanc").unwrap().name(), "623.xalancbmk_s");
        assert!(find_benchmark("nope").is_err());
        // "mcf" matches both mcf_r and mcf_s.
        let err = find_benchmark("mcf").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
    }

    #[test]
    fn pipeline_config_respects_flags() {
        let opts = Options {
            scale: sampsim_util::scale::Scale::new(0.5),
            slice: Some(1234),
            maxk: Some(7),
            ..Options::default()
        };
        let c = pipeline_config(&opts).unwrap();
        assert_eq!(c.slice_size, 1234);
        assert_eq!(c.simpoint.max_k, 7);
        let defaults = pipeline_config(&Options {
            scale: sampsim_util::scale::Scale::new(0.5),
            slice: None,
            maxk: None,
            ..Options::default()
        })
        .unwrap();
        assert_eq!(defaults.slice_size, 5_000);
    }

    #[test]
    fn pipeline_config_validates_strategy_names() {
        let named = |name: &str| Options {
            strategy: Some(name.to_string()),
            ..Options::default()
        };
        for name in sampsim_simpoint::STRATEGY_NAMES {
            let config = pipeline_config(&named(name)).unwrap();
            assert_eq!(config.strategy.name(), *name);
        }
        let err = pipeline_config(&named("frobnicate")).unwrap_err();
        assert!(err.0.contains("SA130"), "{}", err.0);
        assert!(err.0.contains("frobnicate"), "{}", err.0);
    }

    #[test]
    fn pipeline_config_validates_kmeans_mode() {
        let named = |name: &str| Options {
            kmeans_mode: Some(name.to_string()),
            ..Options::default()
        };
        let config = pipeline_config(&named("minibatch")).unwrap();
        assert_eq!(config.simpoint.kmeans_mode, KmeansMode::MiniBatch);
        let config = pipeline_config(&named("lloyd")).unwrap();
        assert_eq!(config.simpoint.kmeans_mode, KmeansMode::Lloyd);
        let err = pipeline_config(&named("frobnicate")).unwrap_err();
        assert!(err.0.contains("frobnicate"), "{}", err.0);
        assert!(err.0.contains("minibatch"), "{}", err.0);
    }

    #[test]
    fn pipeline_config_accepts_parameterized_strategy_specs() {
        let named = |name: &str| Options {
            strategy: Some(name.to_string()),
            ..Options::default()
        };
        let config = pipeline_config(&named("rss:set_size=8,replicates=4")).unwrap();
        assert_eq!(config.strategy.name(), "rss");
        let err = pipeline_config(&named("rss:set_size=nope")).unwrap_err();
        assert!(err.0.contains("SA130"), "{}", err.0);
        assert!(err.0.contains("set_size"), "{}", err.0);
    }
}
