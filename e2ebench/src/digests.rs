//! Committed digests of every document and report the workloads ask for.
//!
//! A document's digest is the FNV-1a 64 hash of its bytes. The table pins
//! the byte-identity invariant: a change that alters any `run` document,
//! served reply or compare report fails the benchmark's output check.
//! `e2ebench digests` recomputes the table; regenerate it only for a
//! change meant to alter those bytes.

use crate::inputs::{self, SCALE};
use sampsim_core::compare::compare_strategies;
use sampsim_core::stage_cache::NoCache;
use sampsim_exec::Jobs;
use sampsim_serve::service::{self, RunRequest};
use sampsim_util::hash::fnv64;

/// `(label, digest)` for every `run` document and compare report.
const DIGESTS: &[(&str, u64)] = &[
    ("run/502.gcc_r/maxk35", 0x91ece9ed00f65688),
    ("run/503.bwaves_r/maxk35", 0x673f472ac609c7dc),
    ("run/605.mcf_s/maxk35", 0x7ec01b3e3edec812),
    ("run/620.omnetpp_s/maxk35", 0xcd08cd1e45b07cb3),
    ("run/505.mcf_r/maxk4", 0xfa45178e857727b0),
    ("run/505.mcf_r/maxk5", 0x254af3590c431fb1),
    ("run/505.mcf_r/maxk6", 0x106a2567629c03a2),
    ("run/557.xz_r/maxk4", 0x4eafd05233154b69),
    ("run/557.xz_r/maxk5", 0x2874ba98dc2425d5),
    ("run/557.xz_r/maxk6", 0x2874ba98dc2425d5),
    ("run/620.omnetpp_s/maxk5", 0xd8a9a73328653d9c),
    ("run/620.omnetpp_s/maxk6", 0xd8a9a73328653d9c),
    ("compare/502.gcc_r/slice1030", 0x85ae4e42924a9155),
    ("compare/502.gcc_r/slice1040", 0xca8ba15843304eef),
    ("compare/502.gcc_r/slice1050", 0x28b8e668a75ce510),
    ("compare/605.mcf_s/slice1590", 0xa54a8d16fdd99ed6),
    ("compare/605.mcf_s/slice1600", 0x4537f475feebd50a),
    ("compare/605.mcf_s/slice1610", 0x66b5681b49e12f03),
];

/// The label of a `run` document at the workloads' scale.
pub fn run_label(request: &RunRequest) -> String {
    format!(
        "run/{}/maxk{}",
        request.bench,
        request.maxk.unwrap_or_default()
    )
}

/// The label of a compare report.
pub fn compare_label(bench: &str, slice: u64) -> String {
    format!("compare/{bench}/slice{slice}")
}

/// Whether `doc` hashes to the committed digest of `label`.
pub fn matches(label: &str, doc: &str) -> bool {
    DIGESTS
        .iter()
        .any(|(l, d)| *l == label && *d == fnv64(doc.as_bytes()))
}

/// Recomputes every digest, as the table's source lines.
///
/// # Errors
///
/// Returns the first failure.
pub fn generate(jobs: Jobs) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut requests = inputs::run_exact_rotation(0);
    requests.sort_by(|a, b| a.bench.cmp(&b.bench));
    requests.extend(
        inputs::WARM_CANDIDATES
            .iter()
            .map(|(bench, maxk)| inputs::request(bench, SCALE, *maxk)),
    );
    for request in &requests {
        let doc = service::run_document(request, jobs, &NoCache).map_err(|e| e.to_string())?;
        lines.push(format!(
            "    (\"{}\", {:#018x}),",
            run_label(request),
            fnv64(doc.as_bytes())
        ));
    }
    for (bench, slice) in inputs::COMPARE_INPUTS {
        let (program, config) = inputs::compare_input(bench, slice)?;
        let report = compare_strategies(&program, &config, inputs::COMPARE_REPLICATES, jobs)
            .map_err(|e| e.to_string())?;
        lines.push(format!(
            "    (\"{}\", {:#018x}),",
            compare_label(bench, slice),
            fnv64(report.to_json().as_bytes())
        ));
    }
    Ok(lines)
}
