//! # smst-lint — the in-tree invariant lint engine
//!
//! The equivalence suites (`config_runner_equivalence`,
//! `chaos_determinism`, the halo/pool tests) all assume
//! bit-for-bit replay. The invariants that make replay true are
//! conventions, not types: wall-clock reads stay on observed paths,
//! entropy flows only through seeded `smst-rng` streams, deterministic
//! modules never iterate hash-ordered containers, and `unsafe` lives
//! only in the pool's buffer core with a written safety argument per
//! site. This crate turns those conventions into machine-checked rules.
//!
//! ## Rule catalog
//!
//! | rule | meaning |
//! |------|---------|
//! | `clock` | `Instant::now()` / `SystemTime` outside the clock allowlist |
//! | `unsafe-file` | `unsafe` outside the allowlisted unsafe core |
//! | `safety-comment` | `unsafe` without an adjacent `// SAFETY:` comment |
//! | `unsafe-attr` | crate root without `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]` |
//! | `rng` | `thread_rng` / `random()` / `RandomState` anywhere |
//! | `hash-order` | `HashMap` / `HashSet` in a deterministic module |
//! | `schema-parity` | `smst-*-v1` tag emitted with no `analyze::ingest` acceptor, or vice versa |
//! | `bad-suppression` | malformed / reason-less suppression (never suppressible) |
//! | `unused-suppression` | suppression matching no diagnostic (never suppressible) |
//!
//! Suppress a finding with a plain line comment on (or directly above)
//! the offending line; the reason is mandatory:
//!
//! ```text
//! smst-lint: allow(clock, reason = "observer-gated round timing")
//! ```
//!
//! The analysis is lexical, not semantic: the [`lexer`] tokenizes real
//! Rust (raw strings, nested block comments, lifetimes vs char
//! literals) so identifier checks never fire inside strings or
//! comments, but it does not resolve paths — `use std::time::Instant as
//! Clock` would evade the clock rule. For this repo's conventions
//! (idiomatic call sites, reviewed suppressions) that trade keeps the
//! engine dependency-free and fast enough to run on every push.
//!
//! The CLI (`smst-lint`) walks a workspace, prints diagnostics, writes
//! the `smst-lint-v1` artifact (`ANALYSIS_lint.json`) that
//! `smst-analyze ingest` accepts, and exits 0 (clean), 1 (unsuppressed
//! diagnostics), or 2 (unreadable source) — the same contract as
//! `smst-analyze check`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::fs;
use std::path::Path;

use rules::{Diagnostic, LintConfig, SourceFile};
use walk::ScanError;

/// The outcome of linting one root: everything the CLI and the tests
/// need to render reports and decide exit codes.
#[derive(Debug)]
pub struct LintRun {
    /// How many `.rs` files the walk visited.
    pub files: usize,
    /// All diagnostics, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintRun {
    /// Diagnostics no suppression covers — nonzero means the gate fails.
    pub fn unsuppressed(&self) -> usize {
        rules::unsuppressed(&self.diagnostics)
    }
}

/// Walks `root`, lexes every `.rs` file, and runs the full rule set
/// under `cfg`. Unreadable files abort with [`ScanError`] (the CLI's
/// exit 2); lexing itself is infallible.
pub fn lint_root(root: &Path, cfg: &LintConfig) -> Result<LintRun, ScanError> {
    let rel_paths = walk::collect_sources(root, &cfg.skip_dirs)?;
    let mut sources = Vec::with_capacity(rel_paths.len());
    for rel in &rel_paths {
        let text = fs::read_to_string(root.join(rel)).map_err(|source| ScanError {
            path: root.join(rel),
            source,
        })?;
        sources.push(SourceFile::parse(walk::rel_display(rel), &text));
    }
    let diagnostics = rules::run_lints(&sources, cfg);
    Ok(LintRun {
        files: sources.len(),
        diagnostics,
    })
}
