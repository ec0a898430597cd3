//! The request-independent service layer: benchmark resolution, request
//! validation, and the deterministic run-document computation.
//!
//! `sampsim run` and the daemon both call [`run_document`] (or its two
//! halves, [`prepare`] and [`execute_prepared`]), so a served reply is
//! byte-identical to CLI stdout *by construction* — there is exactly one
//! code path that renders the document.

use crate::protocol;
use sampsim_analyze::Diagnostic;
use sampsim_cache::configs;
use sampsim_core::metrics::{aggregate_weighted, whole_as_aggregate, AggregatedMetrics};
use sampsim_core::pipeline::{PinPointsConfig, Pipeline, PipelineResult, Preflight};
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::stage_cache::{response_key, StageCache};
use sampsim_core::CoreError;
use sampsim_exec::Jobs;
use sampsim_simpoint::{KmeansMode, SimPointOptions, StrategySpec};
use sampsim_spec2017::{benchmark, BenchmarkId, BenchmarkSpec};
use sampsim_util::json;
use sampsim_util::scale::Scale;
use sampsim_workload::Program;
use std::fmt;

/// A validated run request: everything that determines the response bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Benchmark name or unique substring.
    pub bench: String,
    /// Workload scale factor (must be finite and positive).
    pub scale: f64,
    /// Slice-size override (`None` = default 10 000, scaled).
    pub slice: Option<u64>,
    /// `MaxK` override (`None` = default 35).
    pub maxk: Option<usize>,
    /// Sampling-strategy spec (`None` = `simpoint`): a registry name or
    /// a parameterized form like `rss:set_size=8,replicates=4`. Validated
    /// during [`prepare`]; a malformed spec yields the typed
    /// `invalid-config` reply with rule `SA130`, and a statistically
    /// unsound one the `SA14x` rule that rejected it.
    pub strategy: Option<String>,
    /// Clustering-kernel override (`None` = `lloyd`): `lloyd` or
    /// `minibatch` (see `sampsim_simpoint::KmeansMode`). An unknown label
    /// is a `bad-request` reply.
    pub kmeans: Option<String>,
}

/// A request that passed validation and is ready to execute.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Resolved canonical benchmark name.
    pub name: String,
    /// The scaled program to sample.
    pub program: Program,
    /// The pipeline configuration (lint-clean).
    pub config: PinPointsConfig,
    /// Content-addressed key identifying the response bytes (see
    /// `sampsim_core::stage_cache::response_key`).
    pub key: u64,
    /// The completed preflight analysis, keyed to `(program, config)`.
    /// [`execute_prepared`] hands it back to the pipeline so validation
    /// runs exactly once per request instead of once in `prepare` and
    /// again inside `Pipeline::run`.
    pub preflight: Preflight,
}

/// Why a request could not be served.
#[derive(Debug)]
pub enum ServiceError {
    /// The benchmark pattern matched zero or several suite entries.
    UnknownBench(String),
    /// A request field failed validation.
    BadRequest(String),
    /// The derived pipeline configuration failed the `sampsim-analyze`
    /// lint pass; carries the structured diagnostics.
    InvalidConfig(Vec<Diagnostic>),
    /// The pipeline itself failed.
    Internal(String),
}

impl ServiceError {
    /// Stable machine-readable error code used in failure replies.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownBench(_) => "unknown-bench",
            ServiceError::BadRequest(_) => "bad-request",
            ServiceError::InvalidConfig(_) => "invalid-config",
            ServiceError::Internal(_) => "internal",
        }
    }

    /// Renders the failure reply line for this error.
    pub fn reply(&self) -> String {
        match self {
            ServiceError::InvalidConfig(diags) => {
                protocol::invalid_config_reply(&self.to_string(), diags)
            }
            other => protocol::error_reply(other.code(), &other.to_string()),
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownBench(msg) | ServiceError::BadRequest(msg) => f.write_str(msg),
            ServiceError::InvalidConfig(diags) => {
                let codes: Vec<&str> = diags.iter().map(|d| d.rule.code()).collect();
                write!(f, "configuration failed lint: {}", codes.join(", "))
            }
            ServiceError::Internal(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Config(diags) => ServiceError::InvalidConfig(diags),
            other => ServiceError::Internal(other.to_string()),
        }
    }
}

/// Resolves a benchmark name or unique substring against the suite.
///
/// # Errors
///
/// Returns a human-readable message when nothing matches or the pattern
/// is ambiguous.
pub fn find_benchmark(pattern: &str) -> Result<BenchmarkSpec, String> {
    if let Some(id) = BenchmarkId::from_name(pattern) {
        return Ok(benchmark(id));
    }
    let matches: Vec<BenchmarkId> = BenchmarkId::ALL
        .iter()
        .copied()
        .filter(|id| id.name().contains(pattern))
        .collect();
    match matches.as_slice() {
        [one] => Ok(benchmark(*one)),
        [] => Err(format!(
            "no benchmark matches '{pattern}' (try `sampsim list`)"
        )),
        many => Err(format!(
            "'{pattern}' is ambiguous: {}",
            many.iter()
                .map(|id| id.name())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Validates a request end to end: benchmark resolution, scale check,
/// config construction, and the full `sampsim-analyze` preflight — config
/// lints plus the program-level passes (IR structure, phase graph, memory
/// abstract interpretation against the `allcache` hierarchy). Pure —
/// nothing is executed.
///
/// # Errors
///
/// Returns the typed [`ServiceError`] the failure reply is rendered from.
pub fn prepare(request: &RunRequest) -> Result<Prepared, ServiceError> {
    let spec = find_benchmark(&request.bench).map_err(ServiceError::UnknownBench)?;
    if !(request.scale.is_finite() && request.scale > 0.0) {
        return Err(ServiceError::BadRequest(format!(
            "scale must be finite and positive, got {}",
            request.scale
        )));
    }
    let scale = Scale::new(request.scale);
    let program = spec.scaled(scale).build();
    let mut config = PinPointsConfig {
        slice_size: request.slice.unwrap_or_else(|| scale.apply(10_000)),
        profile_cache: Some(configs::allcache_table1()),
        ..PinPointsConfig::default()
    };
    if let Some(maxk) = request.maxk {
        config.simpoint = SimPointOptions {
            max_k: maxk,
            ..config.simpoint
        };
    }
    if let Some(mode) = &request.kmeans {
        let mode = KmeansMode::parse(mode).ok_or_else(|| {
            ServiceError::BadRequest(format!(
                "unknown kmeans mode {mode:?} (one of: lloyd, minibatch)"
            ))
        })?;
        config.simpoint = SimPointOptions {
            kmeans_mode: mode,
            ..config.simpoint
        };
    }
    if let Some(name) = &request.strategy {
        let report = sampsim_analyze::lint_strategy_name(name);
        if report.has_errors() {
            return Err(ServiceError::InvalidConfig(report.into_diagnostics()));
        }
        config.strategy =
            StrategySpec::parse_spec(name).expect("lint-validated strategy specs always parse");
    }
    let preflight = Pipeline::new(config.clone()).preflight_checked(&program);
    if preflight.report().has_errors() {
        return Err(ServiceError::InvalidConfig(
            preflight.report().clone().into_diagnostics(),
        ));
    }
    let key = response_key(&program, &config);
    Ok(Prepared {
        name: spec.name().to_string(),
        program,
        config,
        key,
        preflight,
    })
}

/// Runs the full sampling study for a prepared request and renders the
/// deterministic run document (no trailing newline). The profiling stage
/// is memoized through `cache`; the output is bit-identical for every
/// `jobs` value and cache state.
///
/// # Errors
///
/// Returns [`ServiceError`] on pipeline failure.
pub fn execute_prepared(
    prepared: &Prepared,
    jobs: Jobs,
    cache: &dyn StageCache,
) -> Result<String, ServiceError> {
    let result = Pipeline::new(prepared.config.clone()).run_jobs_cached_preflighted(
        &prepared.program,
        jobs,
        cache,
        &prepared.preflight,
    )?;
    let regions = runs::run_regions_functional_jobs(
        &prepared.program,
        &result.regional,
        configs::allcache_table1(),
        WarmupMode::Checkpointed,
        jobs,
    )?;
    let agg = aggregate_weighted(&regions);
    let whole = whole_as_aggregate(&result.whole_metrics);
    Ok(run_json(&prepared.name, &result, &whole, &agg))
}

/// [`prepare`] + [`execute_prepared`] in one call.
///
/// # Errors
///
/// Returns [`ServiceError`] on validation or pipeline failure.
pub fn run_document(
    request: &RunRequest,
    jobs: Jobs,
    cache: &dyn StageCache,
) -> Result<String, ServiceError> {
    execute_prepared(&prepare(request)?, jobs, cache)
}

/// Renders the `sampsim run` JSON document. Hand-assembled (the build has
/// no serializer dependency); all floats go through [`json::number`] so
/// the text is the shortest exact representation of the bit pattern.
pub fn run_json(
    name: &str,
    result: &PipelineResult,
    whole: &AggregatedMetrics,
    regional: &AggregatedMetrics,
) -> String {
    fn mix(m: &[f64; 4]) -> String {
        let parts: Vec<String> = m.iter().map(|v| json::number(*v)).collect();
        format!("[{}]", parts.join(","))
    }
    fn agg_obj(a: &AggregatedMetrics) -> String {
        let mut fields = vec![
            format!("\"instructions\":{}", a.total_instructions),
            format!("\"mix_pct\":{}", mix(&a.mix_pct)),
        ];
        if let Some(mr) = a.miss_rates {
            fields.push(format!(
                "\"miss_rates_pct\":{{\"l1i\":{},\"l1d\":{},\"l2\":{},\"l3\":{}}}",
                json::number(mr.l1i),
                json::number(mr.l1d),
                json::number(mr.l2),
                json::number(mr.l3)
            ));
            fields.push(format!("\"l3_accesses\":{}", a.total_l3_accesses));
        }
        if let Some(cpi) = a.cpi {
            fields.push(format!("\"cpi\":{}", json::number(cpi)));
        }
        format!("{{{}}}", fields.join(","))
    }
    let points: Vec<String> = result
        .regional
        .iter()
        .map(|pb| {
            format!(
                "{{\"slice\":{},\"cluster\":{},\"weight\":{}}}",
                pb.slice_index,
                pb.cluster,
                json::number(pb.weight)
            )
        })
        .collect();
    format!(
        "{{\"benchmark\":{},\"slices\":{},\"k\":{},\"points\":[{}],\"whole\":{},\"regional\":{}}}",
        json::string(name),
        result.num_slices,
        result.simpoints.k,
        points.join(","),
        agg_obj(whole),
        agg_obj(regional)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_core::stage_cache::{MemoryStageCache, NoCache};

    #[test]
    fn suite_and_strategy_names_render_without_escapes() {
        // The writers route names through `json::string`; for every name
        // the suite and the registry can produce, that is the same bytes
        // as the plain quoted interpolation the documents always had.
        let suite = sampsim_spec2017::suite();
        let names = suite
            .iter()
            .map(|s| s.name())
            .chain(sampsim_simpoint::STRATEGY_NAMES.iter().copied());
        for name in names {
            assert_eq!(json::string(name), format!("\"{name}\""));
        }
    }

    fn tiny_request() -> RunRequest {
        RunRequest {
            bench: "omnetpp_s".into(),
            scale: 0.002,
            slice: None,
            maxk: Some(6),
            strategy: None,
            kmeans: None,
        }
    }

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
    fn prepare_validates_and_keys() {
        let p = prepare(&tiny_request()).unwrap();
        assert_eq!(p.name, "620.omnetpp_s");
        assert_eq!(p.config.simpoint.max_k, 6);
        // Default slice is scaled: 10_000 * 0.002 = 20.
        assert_eq!(p.config.slice_size, 20);
        // The key is a pure function of the request.
        assert_eq!(prepare(&tiny_request()).unwrap().key, p.key);
        // A different maxk changes the key.
        let other = prepare(&RunRequest {
            maxk: Some(7),
            ..tiny_request()
        })
        .unwrap();
        assert_ne!(other.key, p.key);
    }

    #[test]
    fn prepare_rejects_bad_requests_typed() {
        let unknown = prepare(&RunRequest {
            bench: "nope".into(),
            ..tiny_request()
        })
        .unwrap_err();
        assert_eq!(unknown.code(), "unknown-bench");
        let invalid = prepare(&RunRequest {
            slice: Some(0),
            ..tiny_request()
        })
        .unwrap_err();
        assert_eq!(invalid.code(), "invalid-config");
        let reply = invalid.reply();
        assert!(reply.contains("\"rules\":"), "{reply}");
        assert!(reply.contains("SA020"), "{reply}");
        let maxk = prepare(&RunRequest {
            maxk: Some(0),
            ..tiny_request()
        })
        .unwrap_err();
        assert!(maxk.reply().contains("SA021"), "{}", maxk.reply());
    }

    #[test]
    fn strategy_requests_validate_and_key() {
        // An unregistered name is the typed invalid-config reply with
        // the SA130 rule attached.
        let unknown = prepare(&RunRequest {
            strategy: Some("frobnicate".into()),
            ..tiny_request()
        })
        .unwrap_err();
        assert_eq!(unknown.code(), "invalid-config");
        let reply = unknown.reply();
        assert!(reply.contains("SA130"), "{reply}");
        assert!(reply.contains("\"rules\":"), "{reply}");
        // Every registered name prepares; an explicit "simpoint" shares
        // the default's response key, the others change it.
        let base = prepare(&tiny_request()).unwrap();
        for name in sampsim_simpoint::STRATEGY_NAMES {
            let p = prepare(&RunRequest {
                strategy: Some((*name).into()),
                ..tiny_request()
            })
            .unwrap();
            if *name == "simpoint" {
                assert_eq!(p.key, base.key);
            } else {
                assert_ne!(p.key, base.key, "{name}");
            }
        }
    }

    #[test]
    fn kmeans_mode_requests_validate_and_key() {
        let base = prepare(&tiny_request()).unwrap();
        // Explicit "lloyd" is the default: same response key.
        let lloyd = prepare(&RunRequest {
            kmeans: Some("lloyd".into()),
            ..tiny_request()
        })
        .unwrap();
        assert_eq!(lloyd.key, base.key);
        // "minibatch" switches the kernel and changes the key.
        let mb = prepare(&RunRequest {
            kmeans: Some("minibatch".into()),
            ..tiny_request()
        })
        .unwrap();
        assert_eq!(
            mb.config.simpoint.kmeans_mode,
            sampsim_simpoint::KmeansMode::MiniBatch
        );
        assert_ne!(mb.key, base.key);
        // Unknown labels are a typed bad-request.
        let err = prepare(&RunRequest {
            kmeans: Some("hamerly".into()),
            ..tiny_request()
        })
        .unwrap_err();
        assert_eq!(err.code(), "bad-request");
        assert!(err.to_string().contains("hamerly"), "{err}");
    }

    #[test]
    fn unsound_strategy_specs_reject_typed() {
        // SA144: one rss replicate. The reply is the typed invalid-config
        // shape carrying the rule object, same front door as SA130.
        let unsound = prepare(&RunRequest {
            strategy: Some("rss:set_size=30,replicates=1".into()),
            ..tiny_request()
        })
        .unwrap_err();
        assert_eq!(unsound.code(), "invalid-config");
        let reply = unsound.reply();
        assert!(reply.contains("SA144"), "{reply}");
        assert!(reply.contains("\"rules\":"), "{reply}");
        // SA142: a starved stratified2p pilot.
        let starved = prepare(&RunRequest {
            strategy: Some("stratified2p:pilot=1".into()),
            ..tiny_request()
        })
        .unwrap_err();
        assert_eq!(starved.code(), "invalid-config");
        assert!(starved.reply().contains("SA142"), "{}", starved.reply());
        // The clean twins prepare (and carry a reusable preflight token).
        for spec in ["rss:set_size=30,replicates=2", "stratified2p:pilot=2"] {
            let p = prepare(&RunRequest {
                strategy: Some(spec.into()),
                ..tiny_request()
            })
            .unwrap();
            assert!(!p.preflight.report().has_errors(), "{spec}");
        }
    }

    #[test]
    fn run_document_is_cache_invariant() {
        let req = tiny_request();
        let cold = run_document(&req, sampsim_exec::SERIAL, &NoCache).unwrap();
        let cache = MemoryStageCache::new();
        let miss = run_document(&req, sampsim_exec::SERIAL, &cache).unwrap();
        let hit = run_document(&req, sampsim_exec::SERIAL, &cache).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cold, miss);
        assert_eq!(cold, hit);
        assert!(cold.starts_with("{\"benchmark\":\"620.omnetpp_s\""));
    }
}
