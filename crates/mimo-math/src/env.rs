//! Centralized parsing for the `SPLITBEAM_*` environment knobs.
//!
//! Every runtime knob in the workspace (`SPLITBEAM_KERNEL`,
//! `SPLITBEAM_JITTER_NS`, `SPLITBEAM_STREAMING`, the fault-injection family,
//! the bench workload sizes, …) is a string in the process environment, and
//! every consumer historically re-implemented the same three lines of
//! `var → trim → parse` with slightly different whitespace and error
//! handling. This module is the single implementation they all share.
//!
//! # Malformed values
//!
//! The contract, uniformly: **unset, blank, and malformed values all fall
//! back to the caller's default.** A typo in a knob can therefore never abort
//! a run or silently flip a boolean on — `SPLITBEAM_JITTER_NS=fuor` behaves
//! exactly like an unset `SPLITBEAM_JITTER_NS`. The one intentional asymmetry
//! is [`flag`], where *only* the literal truthy spellings enable a feature, so
//! a malformed value keeps the feature off. Each behavior is pinned by a test
//! below.

use std::str::FromStr;

/// The raw value of `name`, trimmed; `None` when the variable is unset,
/// non-UTF-8, or blank.
pub fn raw(name: &str) -> Option<String> {
    std::env::var(name)
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

/// Parses `name` as a `T`; `None` when unset, blank, or malformed.
pub fn parse<T: FromStr>(name: &str) -> Option<T> {
    raw(name).and_then(|v| v.parse().ok())
}

/// Parses `name` as a `T`, falling back to `default` when unset, blank, or
/// malformed.
pub fn parse_or<T: FromStr>(name: &str, default: T) -> T {
    parse(name).unwrap_or(default)
}

/// Truthiness of `name`: `1` or `true` (case-insensitive, trimmed) is `true`;
/// unset, blank, and *everything else* — including typos like `ture` — is
/// `false`, so a malformed value can never switch a feature on.
pub fn flag(name: &str) -> bool {
    matches!(
        raw(name).map(|v| v.to_ascii_lowercase()).as_deref(),
        Some("1") | Some("true")
    )
}

/// Parses `name` as a comma-separated list of `T`. `None` when the variable
/// is unset or blank, or when **any** element is malformed — a half-valid
/// list falls back whole rather than being silently truncated.
pub fn parse_list<T: FromStr>(name: &str) -> Option<Vec<T>> {
    let spec = raw(name)?;
    let items: Vec<T> = spec
        .split(',')
        .map(|p| p.trim().parse().ok())
        .collect::<Option<Vec<T>>>()?;
    if items.is_empty() {
        None
    } else {
        Some(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses a variable name unique to itself so the suite is safe
    // under cargo's default parallel test execution.

    #[test]
    fn raw_trims_and_drops_blank() {
        std::env::set_var("SPLITBEAM_ENVTEST_RAW", "  hello ");
        assert_eq!(raw("SPLITBEAM_ENVTEST_RAW").as_deref(), Some("hello"));
        std::env::set_var("SPLITBEAM_ENVTEST_RAW_BLANK", "   ");
        assert_eq!(raw("SPLITBEAM_ENVTEST_RAW_BLANK"), None);
        assert_eq!(raw("SPLITBEAM_ENVTEST_RAW_UNSET"), None);
    }

    #[test]
    fn parse_or_falls_back_on_malformed() {
        std::env::set_var("SPLITBEAM_ENVTEST_USIZE", "42");
        assert_eq!(parse_or::<usize>("SPLITBEAM_ENVTEST_USIZE", 7), 42);
        // The historical failure mode this module exists to pin down: a typo
        // must behave exactly like an unset variable.
        std::env::set_var("SPLITBEAM_ENVTEST_TYPO", "fuor");
        assert_eq!(parse_or::<usize>("SPLITBEAM_ENVTEST_TYPO", 7), 7);
        assert_eq!(parse::<usize>("SPLITBEAM_ENVTEST_TYPO"), None);
        std::env::set_var("SPLITBEAM_ENVTEST_NEG", "-3");
        assert_eq!(parse_or::<usize>("SPLITBEAM_ENVTEST_NEG", 7), 7);
        assert_eq!(parse_or::<i64>("SPLITBEAM_ENVTEST_NEG", 7), -3);
        std::env::set_var("SPLITBEAM_ENVTEST_F64", " 0.25 ");
        assert_eq!(parse_or::<f64>("SPLITBEAM_ENVTEST_F64", 0.0), 0.25);
        assert_eq!(parse_or::<u64>("SPLITBEAM_ENVTEST_UNSET", 9), 9);
    }

    #[test]
    fn flag_accepts_only_literal_truthy_spellings() {
        for (value, want) in [
            ("1", true),
            ("true", true),
            (" TRUE ", true),
            ("0", false),
            ("false", false),
            ("yes", false),
            ("on", false),
            ("ture", false), // malformed stays off
            ("", false),
        ] {
            std::env::set_var("SPLITBEAM_ENVTEST_FLAG", value);
            assert_eq!(flag("SPLITBEAM_ENVTEST_FLAG"), want, "value {value:?}");
        }
        assert!(!flag("SPLITBEAM_ENVTEST_FLAG_UNSET"));
    }

    #[test]
    fn parse_list_is_all_or_nothing() {
        std::env::set_var("SPLITBEAM_ENVTEST_LIST", "0.05, 0.4");
        assert_eq!(
            parse_list::<f64>("SPLITBEAM_ENVTEST_LIST"),
            Some(vec![0.05, 0.4])
        );
        // One malformed element poisons the whole list.
        std::env::set_var("SPLITBEAM_ENVTEST_LIST_BAD", "0.05, x");
        assert_eq!(parse_list::<f64>("SPLITBEAM_ENVTEST_LIST_BAD"), None);
        assert_eq!(parse_list::<f64>("SPLITBEAM_ENVTEST_LIST_UNSET"), None);
    }
}
