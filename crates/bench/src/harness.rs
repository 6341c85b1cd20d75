//! What the smoke binaries and the repository benchmark share.
//!
//! The smoke binaries (`campaign_smoke`, `chaos_smoke`, `remote_smoke`)
//! honour `$SMST_BENCH_SMOKE` to shrink their sizes for CI — see
//! [`smoke_mode`] — and the benchmark's report and trace writers escape
//! strings through [`json_string`]. Timing lives in the repository
//! benchmark (`crates/bench/e2e`, declared by `BENCHMARK.json`).

/// The workspace's JSON string escaping, re-exported for the artifact
/// writers that already import it from here.
pub use smst_telemetry::json::json_string;

/// `true` when `$SMST_BENCH_SMOKE` is set (to anything but `0`): the smoke
/// binaries shrink to CI sizes.
pub fn smoke_mode() -> bool {
    std::env::var_os("SMST_BENCH_SMOKE").is_some_and(|v| v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }
}
