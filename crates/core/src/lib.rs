//! Meissa's core: test case generation for data plane CFGs.
//!
//! * [`symstate`] — the symbolic state of §3.2: the value stack `V`
//!   (field → symbolic expression) and translation of IR expressions into
//!   solver terms, including the §4 hash treatment.
//! * [`exec`] — Algorithm 1: DFS path enumeration with early termination
//!   backed by incremental SMT solving; emits a test case template per
//!   valid path.
//! * [`summary`] — Algorithm 2: code summary. Pipelines are summarized in
//!   topological order; public pre-conditions (intersection of all entry
//!   paths' constraints and agreeing values) prune the per-pipeline search,
//!   and each surviving valid path is re-encoded as one guard predicate plus
//!   atomic effect assignments via `@` auxiliary variables.
//! * [`session`] — the [`session::SolveSession`] bundle (term pool +
//!   incremental solver + cumulative statistics) threaded through every
//!   layer instead of loose `(pool, solver, stats)` parameters; the unit of
//!   per-worker state for the parallel explorer.
//! * [`parallel`] — the work-stealing parallel explorer: subtree tasks over
//!   per-worker sessions, minipool term translation at task boundaries, a
//!   deterministic DFS-order merge, and the batch runner behind code
//!   summary's concurrent group searches and seed extensions.
//! * [`template`] — test case templates and their instantiation into
//!   concrete input states: one long-lived [`template::Instantiator`]
//!   solver per plan (assumption solving, model reuse, hash
//!   post-filtering).
//! * [`engine`] — the top-level [`engine::Meissa`] façade used by the test
//!   driver, examples, and benchmarks; collects the statistics the paper's
//!   figures report (time, SMT calls, possible paths).
//! * [`stateful`] — k-packet sequence testing: the CFG unrolled with
//!   register state threaded between copies ([`meissa_ir::unroll`]),
//!   sequence templates, and per-packet case splitting; `k = 1` delegates
//!   to the single-packet engine byte-for-byte.
//! * [`backend`] — the predicate-backend abstraction: every probe routes
//!   through a [`backend::PredicateBackend`] (incremental SMT solver or the
//!   hermetic BDD engine) picked per probe by [`backend::BackendRouter`].
//! * [`coverage`] — coverage accounting (path / branch / statement).

pub mod backend;
pub mod coverage;
pub mod engine;
pub mod exec;
pub(crate) mod parallel;
pub mod session;
pub mod stateful;
pub mod summary;
pub mod symstate;
pub mod template;

pub use backend::{default_backend, BackendKind, BackendRouter, PredicateBackend};
pub use engine::{Meissa, MeissaConfig, RunOutput, RunStats};
pub use exec::{ExecConfig, ExecOutput, ExecStats};
pub use session::SolveSession;
pub use stateful::{SequenceCase, SequenceTemplate, StatefulRunOutput};
pub use template::{HashObligation, Instantiator, TestTemplate};
