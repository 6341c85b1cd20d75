//! The invariant rules, the suppression grammar, and the engine that
//! applies both to a lexed workspace.
//!
//! Every rule encodes one convention the equivalence suites silently
//! assume (see the crate docs for the catalog). Rules work on
//! [`Token`] streams, never raw text, so words in
//! comments or strings can not trip identifier-based checks.
//!
//! # Suppressions
//!
//! A diagnostic is suppressed by a **plain** `//` line comment (doc
//! comments do not count) of the form
//!
//! ```text
//! smst-lint: allow(<rule>, reason = "<why this site is exempt>")
//! ```
//!
//! after the `//`. A trailing comment suppresses its own line; a comment
//! alone on a line suppresses the next line that carries code. The reason
//! is mandatory — a suppression that cannot say why it exists is a
//! [`RULE_BAD_SUPPRESSION`] diagnostic, and one that matches no
//! diagnostic is [`RULE_UNUSED_SUPPRESSION`]: the suppression inventory
//! must stay exactly as large as the set of real, justified exemptions.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt;

/// Rule id: wall-clock read (`Instant::now` / `SystemTime`) outside the
/// clock allowlist.
pub const RULE_CLOCK: &str = "clock";
/// Rule id: `unsafe` in a file outside the unsafe allowlist.
pub const RULE_UNSAFE_FILE: &str = "unsafe-file";
/// Rule id: `unsafe` without an adjacent `// SAFETY:` comment.
pub const RULE_SAFETY_COMMENT: &str = "safety-comment";
/// Rule id: crate root missing `#![forbid(unsafe_code)]` /
/// `#![deny(unsafe_code)]`.
pub const RULE_UNSAFE_ATTR: &str = "unsafe-attr";
/// Rule id: ambient randomness (`thread_rng` / `random()` /
/// `RandomState`).
pub const RULE_RNG: &str = "rng";
/// Rule id: hash-ordered container (`HashMap` / `HashSet`) in a
/// deterministic module.
pub const RULE_HASH_ORDER: &str = "hash-order";
/// Rule id: schema tag emitted with no acceptor, or accepted but never
/// emitted.
pub const RULE_SCHEMA_PARITY: &str = "schema-parity";
/// Meta rule id: a suppression comment that does not parse, names an
/// unknown rule, or omits its reason. Never suppressible.
pub const RULE_BAD_SUPPRESSION: &str = "bad-suppression";
/// Meta rule id: a well-formed suppression that matched no diagnostic.
/// Never suppressible.
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";

/// The suppressible rules, in catalog order (the meta rules are not:
/// a suppression can only name these).
pub const RULES: [&str; 7] = [
    RULE_CLOCK,
    RULE_UNSAFE_FILE,
    RULE_SAFETY_COMMENT,
    RULE_UNSAFE_ATTR,
    RULE_RNG,
    RULE_HASH_ORDER,
    RULE_SCHEMA_PARITY,
];

/// What the engine checks and where. Paths are workspace-relative with
/// `/` separators; matching is by prefix, so `crates/telemetry/` covers
/// the whole crate and `crates/engine/src/pool.rs` exactly one file.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Files allowed to read the wall clock.
    pub clock_allow: Vec<String>,
    /// Files allowed to contain `unsafe` at all ([`RULE_SAFETY_COMMENT`]
    /// still applies inside them).
    pub unsafe_allow: Vec<String>,
    /// Modules whose code must be iteration-order deterministic: any
    /// `HashMap`/`HashSet` here is flagged (`BTreeMap`/`Vec` are the
    /// sanctioned containers — without type inference, possession is the
    /// checkable proxy for iteration).
    pub deterministic: Vec<String>,
    /// The schema-parity acceptor file: every `smst-*-v1` tag emitted
    /// anywhere else must appear in a `const` item here, and vice versa.
    pub acceptor_file: String,
    /// Directory names skipped entirely during the walk.
    pub skip_dirs: Vec<String>,
    /// How many lines above an `unsafe` token a `// SAFETY:` comment may
    /// start and still count as adjacent.
    pub safety_window: usize,
}

impl LintConfig {
    /// The repository's own invariants — what the CI `lint-gate` runs.
    pub fn repo_default() -> Self {
        let own = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        LintConfig {
            // telemetry and the bench harness exist to measure wall time;
            // examples print demo timings; the pool's phased paths time
            // dispatch/compute/barrier/exchange (and never read the clock
            // unobserved — pinned by the round_latency bench)
            // the net transport polls connect/accept deadlines, and the
            // remote coordinator times observed rounds plus the worker
            // teardown grace period — wall time never feeds round state
            // (pinned by the remote_equivalence bit-for-bit suite)
            clock_allow: own(&[
                "crates/telemetry/",
                "crates/bench/",
                "crates/engine/src/pool.rs",
                "crates/net/src/remote.rs",
                "crates/net/src/transport.rs",
                "examples/",
            ]),
            // the pool's dispatch core, and the counting `#[global_allocator]`
            // of the verifier's zero-allocation test (`GlobalAlloc` is an
            // unsafe trait; the impl only forwards to `System`)
            unsafe_allow: own(&[
                "crates/engine/src/pool.rs",
                "crates/core/tests/zero_alloc.rs",
            ]),
            deterministic: own(&[
                "crates/core/",
                "crates/graph/",
                "crates/engine/",
                "crates/sim/",
                "crates/telemetry/",
                "crates/adversary/",
                "crates/analyze/",
                "crates/lint/",
                "crates/net/",
                "crates/rng/",
            ]),
            acceptor_file: "crates/analyze/src/ingest.rs".to_string(),
            skip_dirs: own(&["target", ".git", "fixtures"]),
            safety_window: 10,
        }
    }
}

/// One finding, suppressed or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired (one of the `RULE_*` ids).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong, specifically.
    pub message: String,
    /// Whether a line-scoped suppression covers it.
    pub suppressed: bool,
    /// The suppression's mandatory reason, when suppressed.
    pub reason: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if let Some(reason) = &self.reason {
            write!(f, " (suppressed: {reason})")?;
        }
        Ok(())
    }
}

/// One lexed source file, ready for the rule engine.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Lexes `text` as the file at `rel_path`.
    pub fn parse(rel_path: impl Into<String>, text: &str) -> Self {
        SourceFile {
            rel_path: rel_path.into(),
            tokens: lex(text),
        }
    }
}

/// A parsed, well-formed suppression comment.
#[derive(Debug, Clone)]
struct Suppression {
    rule: &'static str,
    reason: String,
    comment_line: usize,
    target_line: usize,
    used: bool,
}

fn path_matches(rel_path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p.as_str()))
}

/// Is this a crate root (`src/lib.rs` of some crate, or the workspace
/// root's `src/lib.rs`)?
fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs" || rel_path.ends_with("/src/lib.rs")
}

/// Extracts every `smst-…-v1` schema tag embedded in `text`.
fn schema_tags(text: &str) -> Vec<String> {
    let mut tags = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("smst-") {
        let tail = &rest[at..];
        let end = tail
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
            .unwrap_or(tail.len());
        let candidate = &tail[..end];
        // shape: smst-<family>-v1 with a non-empty family
        if let Some(family) = candidate
            .strip_prefix("smst-")
            .and_then(|s| s.strip_suffix("-v1"))
        {
            if !family.is_empty() {
                tags.push(candidate.to_string());
            }
        }
        rest = &rest[at + 5..];
    }
    tags
}

/// The engine: runs every rule over `files` under `cfg`, applies
/// suppressions, and returns the diagnostics sorted by
/// `(file, line, rule)`.
pub fn run_lints(files: &[SourceFile], cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut suppressions: BTreeMap<String, Vec<Suppression>> = BTreeMap::new();
    let mut bad: Vec<Diagnostic> = Vec::new();
    // (tag, file, line, on_const_line) across the whole workspace
    let mut tag_sites: Vec<(String, String, usize, bool)> = Vec::new();

    for file in files {
        let (sup, mut bad_here) = collect_suppressions(file);
        suppressions.insert(file.rel_path.clone(), sup);
        bad.append(&mut bad_here);
        lint_file(file, cfg, &mut diags, &mut tag_sites);
    }
    schema_parity(cfg, &tag_sites, &mut diags);

    // line-scoped suppression: same file, same rule, matching target line
    for d in &mut diags {
        if let Some(sups) = suppressions.get_mut(&d.file) {
            if let Some(s) = sups
                .iter_mut()
                .find(|s| s.rule == d.rule && s.target_line == d.line)
            {
                s.used = true;
                d.suppressed = true;
                d.reason = Some(s.reason.clone());
            }
        }
    }
    for (file, sups) in &suppressions {
        for s in sups.iter().filter(|s| !s.used) {
            diags.push(Diagnostic {
                rule: RULE_UNUSED_SUPPRESSION,
                file: file.clone(),
                line: s.comment_line,
                message: format!(
                    "suppression for `{}` matches no diagnostic on line {}; delete it",
                    s.rule, s.target_line
                ),
                suppressed: false,
                reason: None,
            });
        }
    }
    diags.append(&mut bad);
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags
}

/// Count of diagnostics no suppression covers — the gate's exit signal.
pub fn unsuppressed(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| !d.suppressed).count()
}

fn push(diags: &mut Vec<Diagnostic>, rule: &'static str, file: &str, line: usize, message: String) {
    diags.push(Diagnostic {
        rule,
        file: file.to_string(),
        line,
        message,
        suppressed: false,
        reason: None,
    });
}

/// Parses every suppression comment in `file`; malformed ones become
/// [`RULE_BAD_SUPPRESSION`] diagnostics immediately.
fn collect_suppressions(file: &SourceFile) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    // lines carrying at least one non-comment token, for trailing vs
    // standalone placement and next-code-line targeting
    let code_lines: Vec<usize> = {
        let mut lines: Vec<usize> = file
            .tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|t| t.line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    };
    for token in &file.tokens {
        if token.kind != TokenKind::LineComment {
            continue;
        }
        // plain `//` only: doc comments (`///`, `//!`) routinely *quote*
        // the grammar without meaning it
        let body = &token.text[2..];
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let Some(rest) = body.trim_start().strip_prefix("smst-lint:") else {
            continue;
        };
        match parse_allow(rest) {
            Ok((rule, reason)) => {
                let trailing = code_lines.binary_search(&token.line).is_ok();
                let target_line = if trailing {
                    token.line
                } else {
                    let next = code_lines.partition_point(|&l| l <= token.line);
                    code_lines.get(next).copied().unwrap_or(token.line + 1)
                };
                sups.push(Suppression {
                    rule,
                    reason,
                    comment_line: token.line,
                    target_line,
                    used: false,
                });
            }
            Err(why) => bad.push(Diagnostic {
                rule: RULE_BAD_SUPPRESSION,
                file: file.rel_path.clone(),
                line: token.line,
                message: why,
                suppressed: false,
                reason: None,
            }),
        }
    }
    (sups, bad)
}

/// Parses the `allow(<rule>, reason = "…")` tail of a suppression.
fn parse_allow(rest: &str) -> Result<(&'static str, String), String> {
    let rest = rest.trim_start();
    let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.trim_end().strip_suffix(')'))
    else {
        return Err(format!(
            "suppression must be `allow(<rule>, reason = \"…\")`, got `{}`",
            rest.trim()
        ));
    };
    let (rule_text, tail) = match inner.split_once(',') {
        Some((r, t)) => (r.trim(), t.trim()),
        None => {
            return Err(format!(
                "suppression of `{}` is missing its mandatory reason",
                inner.trim()
            ))
        }
    };
    let Some(rule) = RULES.iter().find(|r| **r == rule_text) else {
        return Err(format!(
            "unknown rule `{rule_text}` (suppressible rules: {})",
            RULES.join(", ")
        ));
    };
    let reason = tail
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .and_then(|t| t.strip_prefix('"'))
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or("");
    if reason.trim().is_empty() {
        return Err(format!(
            "suppression of `{rule_text}` is missing its mandatory reason"
        ));
    }
    Ok((rule, reason.trim().to_string()))
}

/// All single-file rules over one source file.
fn lint_file(
    file: &SourceFile,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
    tag_sites: &mut Vec<(String, String, usize, bool)>,
) {
    let path = file.rel_path.as_str();
    // comment-free view for identifier/sequence matching
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let comments: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let ident_at = |i: usize, text: &str| {
        code.get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
    };
    let punct_at = |i: usize, text: &str| {
        code.get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
    };
    // lines whose code tokens include `const` — the acceptor shape for
    // schema parity
    let const_lines: Vec<usize> = {
        let mut lines: Vec<usize> = code
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text == "const")
            .map(|t| t.line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    };

    let clock_allowed = path_matches(path, &cfg.clock_allow);
    let unsafe_allowed = path_matches(path, &cfg.unsafe_allow);
    let deterministic = path_matches(path, &cfg.deterministic);
    let mut has_unsafe_attr = false;

    for (i, t) in code.iter().enumerate() {
        if t.kind == TokenKind::Str {
            for tag in schema_tags(&t.text) {
                let on_const = const_lines.binary_search(&t.line).is_ok();
                tag_sites.push((tag, path.to_string(), t.line, on_const));
            }
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant"
                if !clock_allowed
                    && punct_at(i + 1, ":")
                    && punct_at(i + 2, ":")
                    && ident_at(i + 3, "now") =>
            {
                push(
                    diags,
                    RULE_CLOCK,
                    path,
                    t.line,
                    "`Instant::now()` outside the clock allowlist: wall time must \
                     not leak into deterministic round state"
                        .to_string(),
                );
            }
            "SystemTime" if !clock_allowed => {
                push(
                    diags,
                    RULE_CLOCK,
                    path,
                    t.line,
                    "`SystemTime` outside the clock allowlist".to_string(),
                );
            }
            "unsafe" => {
                if !unsafe_allowed {
                    push(
                        diags,
                        RULE_UNSAFE_FILE,
                        path,
                        t.line,
                        "`unsafe` outside the allowlisted unsafe core".to_string(),
                    );
                }
                let covered = comments.iter().any(|c| {
                    c.text.contains("SAFETY:")
                        && c.line <= t.line
                        && c.line + cfg.safety_window >= t.line
                });
                if !covered {
                    push(
                        diags,
                        RULE_SAFETY_COMMENT,
                        path,
                        t.line,
                        format!(
                            "`unsafe` without a `// SAFETY:` comment within the \
                             {} lines above it",
                            cfg.safety_window
                        ),
                    );
                }
            }
            "thread_rng" | "RandomState" => {
                push(
                    diags,
                    RULE_RNG,
                    path,
                    t.line,
                    format!(
                        "`{}` is ambient randomness; seeded `smst-rng` streams are \
                         the only sanctioned entropy",
                        t.text
                    ),
                );
            }
            "random" if punct_at(i + 1, "(") => {
                // qualified calls — `FaultPlan::random(n, f, seed)`,
                // `rng.random()` — are seeded constructors/methods and
                // sanctioned; the ambient forms are the bare free
                // function (`use rand::random`) and `rand::random()`
                let qualified = i >= 1
                    && (punct_at(i - 1, ":") || punct_at(i - 1, ".") || ident_at(i - 1, "fn"));
                let via_rand = i >= 3
                    && punct_at(i - 1, ":")
                    && punct_at(i - 2, ":")
                    && ident_at(i - 3, "rand");
                if !qualified || via_rand {
                    push(
                        diags,
                        RULE_RNG,
                        path,
                        t.line,
                        "`random()` is ambient randomness; seeded `smst-rng` \
                         streams are the only sanctioned entropy"
                            .to_string(),
                    );
                }
            }
            "HashMap" | "HashSet" if deterministic => {
                push(
                    diags,
                    RULE_HASH_ORDER,
                    path,
                    t.line,
                    format!(
                        "`{}` in a deterministic module: iteration order is \
                         seed-dependent, use `BTreeMap`/`BTreeSet`/`Vec`",
                        t.text
                    ),
                );
            }
            // #![forbid(unsafe_code)] / #![deny(unsafe_code)]
            "forbid" | "deny"
                if i >= 3
                    && punct_at(i - 3, "#")
                    && punct_at(i - 2, "!")
                    && punct_at(i - 1, "[")
                    && punct_at(i + 1, "(")
                    && ident_at(i + 2, "unsafe_code") =>
            {
                has_unsafe_attr = true;
            }
            _ => {}
        }
    }

    if is_crate_root(path) && !has_unsafe_attr {
        push(
            diags,
            RULE_UNSAFE_ATTR,
            path,
            1,
            "crate root lacks `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`".to_string(),
        );
    }
}

/// The cross-file check: every emitted tag must have an acceptor `const`,
/// every acceptor must correspond to a real writer.
fn schema_parity(
    cfg: &LintConfig,
    tag_sites: &[(String, String, usize, bool)],
    diags: &mut Vec<Diagnostic>,
) {
    let mut accepted: BTreeMap<&str, usize> = BTreeMap::new();
    for (tag, file, line, on_const) in tag_sites {
        if file == &cfg.acceptor_file && *on_const {
            accepted.entry(tag).or_insert(*line);
        }
    }
    let mut emitted: BTreeMap<&str, ()> = BTreeMap::new();
    for (tag, file, line, _) in tag_sites {
        if file == &cfg.acceptor_file {
            continue;
        }
        emitted.insert(tag, ());
        if !accepted.contains_key(tag.as_str()) {
            push(
                diags,
                RULE_SCHEMA_PARITY,
                file,
                *line,
                format!(
                    "schema tag \"{tag}\" has no acceptor const in {}",
                    cfg.acceptor_file
                ),
            );
        }
    }
    for (tag, line) in &accepted {
        if !emitted.contains_key(tag) {
            push(
                diags,
                RULE_SCHEMA_PARITY,
                &cfg.acceptor_file,
                *line,
                format!("acceptor for \"{tag}\" matches no writer: dead schema version"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
        run_lints(&[SourceFile::parse(path, src)], cfg)
    }

    fn bare_config() -> LintConfig {
        LintConfig {
            clock_allow: vec![],
            unsafe_allow: vec![],
            deterministic: vec!["det/".to_string()],
            acceptor_file: "accept.rs".to_string(),
            skip_dirs: vec![],
            safety_window: 10,
        }
    }

    #[test]
    fn clock_reads_flag_with_exact_lines() {
        let src = "fn f() {\n    let t = Instant::now();\n}\n";
        let diags = lint_one("a.rs", src, &bare_config());
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].rule, diags[0].line), (RULE_CLOCK, 2));
        // the word in a comment or string never fires
        let quiet = "// Instant::now() in prose\nconst S: &str = \"Instant::now()\";\n";
        assert!(lint_one("a.rs", quiet, &bare_config()).is_empty());
    }

    #[test]
    fn clock_allowlist_is_a_path_prefix() {
        let mut cfg = bare_config();
        cfg.clock_allow = vec!["timing/".to_string()];
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(lint_one("timing/x.rs", src, &cfg).is_empty());
        assert_eq!(lint_one("other/x.rs", src, &cfg).len(), 1);
    }

    #[test]
    fn unsafe_needs_allowlist_and_safety_comment() {
        let cfg = {
            let mut c = bare_config();
            c.unsafe_allow = vec!["core.rs".to_string()];
            c
        };
        let documented = "// SAFETY: pinned by the dispatch protocol.\nunsafe { work() }\n";
        assert!(lint_one("core.rs", documented, &cfg).is_empty());
        // allowlisted file, missing comment: safety-comment still fires
        let bare = "unsafe { work() }\n";
        let diags = lint_one("core.rs", bare, &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_SAFETY_COMMENT);
        // non-allowlisted file: both rules fire
        let diags = lint_one("elsewhere.rs", documented, &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_UNSAFE_FILE);
    }

    #[test]
    fn safety_window_is_bounded() {
        let mut cfg = bare_config();
        cfg.unsafe_allow = vec!["core.rs".to_string()];
        cfg.safety_window = 2;
        let far = "// SAFETY: too far away.\nfn a() {}\nfn b() {}\nunsafe { work() }\n";
        let diags = lint_one("core.rs", far, &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].rule, diags[0].line), (RULE_SAFETY_COMMENT, 4));
    }

    #[test]
    fn crate_roots_need_an_unsafe_attribute() {
        let cfg = bare_config();
        assert_eq!(
            lint_one("crates/x/src/lib.rs", "pub fn f() {}\n", &cfg)[0].rule,
            RULE_UNSAFE_ATTR
        );
        assert!(lint_one(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
            &cfg
        )
        .is_empty());
        assert!(lint_one(
            "crates/x/src/lib.rs",
            "//! Docs.\n#![deny(unsafe_code)]\npub fn f() {}\n",
            &cfg
        )
        .is_empty());
        // non-root files carry no such obligation
        assert!(lint_one("crates/x/src/other.rs", "pub fn f() {}\n", &cfg).is_empty());
    }

    #[test]
    fn ambient_randomness_is_flagged_everywhere() {
        let src = "let a = thread_rng();\nlet b = random();\nuse std::collections::hash_map::RandomState;\n";
        let diags = lint_one("any.rs", src, &bare_config());
        let rules: Vec<_> = diags.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(rules, vec![(RULE_RNG, 1), (RULE_RNG, 2), (RULE_RNG, 3)]);
        // `random` as a plain word (no call) is not entropy
        assert!(lint_one("any.rs", "let random = 3;\n", &bare_config()).is_empty());
    }

    #[test]
    fn seeded_random_constructors_and_methods_are_sanctioned() {
        let cfg = bare_config();
        assert!(lint_one("a.rs", "let p = FaultPlan::random(n, f, seed);\n", &cfg).is_empty());
        assert!(lint_one("a.rs", "let v = rng.random();\n", &cfg).is_empty());
        // defining a seeded constructor named `random` is fine too
        assert!(lint_one(
            "a.rs",
            "pub fn random(n: usize, seed: u64) -> Self {}\n",
            &cfg
        )
        .is_empty());
        // ...but the rand crate's ambient entry points still flag
        assert_eq!(lint_one("a.rs", "let v = rand::random();\n", &cfg).len(), 1);
        assert_eq!(lint_one("a.rs", "let v = random();\n", &cfg).len(), 1);
    }

    #[test]
    fn hash_containers_flag_only_in_deterministic_modules() {
        let src = "use std::collections::HashMap;\n";
        let cfg = bare_config();
        assert_eq!(lint_one("det/writer.rs", src, &cfg).len(), 1);
        assert!(lint_one("free/reader.rs", src, &cfg).is_empty());
    }

    #[test]
    fn schema_parity_checks_both_directions() {
        let cfg = bare_config();
        // tags are assembled at runtime so this test file never becomes an
        // emitter in the workspace's own lint run
        let orphan = format!("smst-orph{}-v1", "an");
        let ghost = format!("smst-gho{}-v1", "st");
        let good = format!("smst-go{}-v1", "od");
        let writer = format!(
            "fn emit() -> String {{ format!(\"{{{{\\\"schema\\\":\\\"{orphan}\\\"}}}}\") }}\nconst T: &str = \"{good}\";\n"
        );
        let acceptor =
            format!("pub const SCHEMA_GOOD: &str = \"{good}\";\npub const SCHEMA_GHOST: &str = \"{ghost}\";\n");
        let files = [
            SourceFile::parse("writer.rs", &writer),
            SourceFile::parse("accept.rs", &acceptor),
        ];
        let diags = run_lints(&files, &cfg);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_SCHEMA_PARITY);
        assert_eq!(diags[0].file, "accept.rs");
        assert!(diags[0].message.contains(&ghost));
        assert_eq!(diags[1].file, "writer.rs");
        assert!(diags[1].message.contains(&orphan));
    }

    #[test]
    fn suppression_round_trips_reason_onto_the_diagnostic() {
        let src = "// smst-lint: allow(clock, reason = \"observer-gated timing\")\n\
                   let t = Instant::now();\n";
        let diags = lint_one("a.rs", src, &bare_config());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].suppressed);
        assert_eq!(diags[0].reason.as_deref(), Some("observer-gated timing"));
        assert_eq!(unsuppressed(&diags), 0);
    }

    #[test]
    fn trailing_suppressions_cover_their_own_line() {
        let src = "let t = Instant::now(); // smst-lint: allow(clock, reason = \"demo timing\")\n";
        let diags = lint_one("a.rs", src, &bare_config());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].suppressed);
    }

    #[test]
    fn standalone_suppressions_skip_blank_lines_to_the_next_code_line() {
        let src = "// smst-lint: allow(clock, reason = \"demo\")\n\n\nlet t = Instant::now();\n";
        let diags = lint_one("a.rs", src, &bare_config());
        assert!(diags[0].suppressed, "{diags:?}");
    }

    #[test]
    fn reasons_are_mandatory() {
        let src = "// smst-lint: allow(clock)\nlet t = Instant::now();\n";
        let diags = lint_one("a.rs", src, &bare_config());
        let bad: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RULE_BAD_SUPPRESSION)
            .collect();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("mandatory reason"), "{bad:?}");
        // and the clock diagnostic stays unsuppressed
        assert_eq!(unsuppressed(&diags), 2);
    }

    #[test]
    fn unknown_rules_and_malformed_grammar_are_bad_suppressions() {
        let unknown = "// smst-lint: allow(telepathy, reason = \"x\")\nfn f() {}\n";
        let diags = lint_one("a.rs", unknown, &bare_config());
        assert_eq!(diags[0].rule, RULE_BAD_SUPPRESSION);
        assert!(diags[0].message.contains("unknown rule"));
        let malformed = "// smst-lint: disallow(clock)\nfn f() {}\n";
        let diags = lint_one("a.rs", malformed, &bare_config());
        assert_eq!(diags[0].rule, RULE_BAD_SUPPRESSION);
    }

    #[test]
    fn unused_suppressions_are_flagged() {
        let src = "// smst-lint: allow(clock, reason = \"nothing here\")\nfn f() {}\n";
        let diags = lint_one("a.rs", src, &bare_config());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_UNUSED_SUPPRESSION);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn doc_comments_quoting_the_grammar_are_inert() {
        let src = "/// smst-lint: allow(clock, reason = \"just documentation\")\nfn f() {}\n";
        assert!(lint_one("a.rs", src, &bare_config()).is_empty());
        let inner = "//! smst-lint: allow(clock, reason = \"also documentation\")\nfn f() {}\n";
        assert!(lint_one("a.rs", inner, &bare_config()).is_empty());
    }

    #[test]
    fn diagnostics_sort_by_file_line_rule() {
        let a = SourceFile::parse("b.rs", "let t = SystemTime::now();\n");
        let b = SourceFile::parse("a.rs", "let t = thread_rng();\nlet u = Instant::now();\n");
        let diags = run_lints(&[a, b], &bare_config());
        let keys: Vec<_> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(keys, vec![("a.rs", 1), ("a.rs", 2), ("b.rs", 1)]);
    }
}
