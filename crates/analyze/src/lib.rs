//! # sampsim-analyze
//!
//! Static analysis for the sampling pipeline: lints over workload IR,
//! sampling configurations and cache hierarchies, plus post-hoc audits of
//! SimPoint results and regional pinballs.
//!
//! Every finding is a [`Diagnostic`] carrying a stable rule code
//! (`SA0xx`), a [`Severity`], a [`Location`] and fixed help text; passes
//! collect them into a [`Report`] which renders as human-readable text
//! ([`render_human`]) or JSON lines ([`render_json_lines`]).
//!
//! Rule families:
//!
//! * `SA001`–`SA014` — workload IR ([`lint_program`])
//! * `SA020`–`SA028` — sampling configuration ([`lint_sampling_config`])
//! * `SA030`–`SA034` — cache-hierarchy geometry ([`lint_hierarchy`])
//! * `SA040`–`SA049` — artifact audits ([`audit_simpoints`],
//!   [`audit_regions`], [`audit_bbvs`])
//! * `SA100`–`SA104` — memory abstract interpretation ([`lint_memory`])
//! * `SA110` — phase-graph structure ([`lint_phase_graph`])
//! * `SA120`–`SA125` — static-vs-dynamic audit oracle
//!   ([`audit_bbvs_static`], [`audit_cursors`], [`AuditSummary`])
//! * `SA130` — sampling-strategy validation ([`lint_strategy_name`])
//! * `SA140`–`SA145` — statistical soundness ([`lint_soundness`])
//!
//! The deeper passes are built on a small reusable framework: a worklist
//! fixpoint solver over join-semilattices ([`fixpoint`]), a
//! phase-transition graph with reachability/dominance/SCC passes
//! ([`cfg`]), and abstract domains for address streams ([`absint`]). See
//! `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod artifact;
pub mod cfg;
pub mod config;
pub mod diag;
pub mod fixpoint;
pub mod render;
pub mod soundness;
pub mod staticbbv;
pub mod workload;

pub use absint::{lint_memory, Interval, MemorySummary, StrideClass};
pub use artifact::{audit_bbvs, audit_regions, audit_simpoints, WEIGHT_SUM_TOLERANCE};
pub use cfg::{lint_phase_graph, PhaseGraph};
pub use config::{
    lint_hierarchy, lint_sampling_config, lint_simpoint_options, lint_strategy_name, SamplingConfig,
};
pub use diag::{Diagnostic, Location, Report, Rule, Severity};
pub use fixpoint::{solve, BitSet, JoinSemiLattice};
pub use render::{diagnostic_json, render_human, render_json_lines, DIAGNOSTIC};
pub use soundness::{
    lint_soundness, materialized_bytes_estimate, predicted_instructions, SoundnessInput,
    CLT_MIN_SAMPLES, DEFAULT_MATERIALIZED_BUDGET_BYTES, WEIGHT_CONCENTRATION_BOUND,
};
pub use staticbbv::{
    audit_bbvs_static, audit_cursors, diagnose_unreadable_artifact, AuditSummary, StaticBbvBounds,
};
pub use workload::{diagnose_ir_error, lint_program, lint_program_parts};
