//! Shared machine-readable report writer for the `BENCH_PR*.json` series.
//!
//! The workspace's offline serde shim carries no serializer, so the benchmark
//! binaries used to hand-roll their JSON with `writeln!` — one private copy
//! per binary. This module is the single schema helper they all share now:
//! an insertion-ordered JSON value tree with the conventions the reports rely
//! on (finite floats rendered with six decimals, non-finite floats as `null`,
//! two-space pretty printing, `SPLITBEAM_BENCH_OUT` output override).

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order, matching the historical
/// hand-rolled output.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// A float, rendered with six decimals; non-finite values render as `null`.
    Float(f64),
    /// A string (escaped minimally: backslash, quote, control characters).
    Str(String),
    /// An ordered list.
    Array(Vec<JsonValue>),
    /// An insertion-ordered object.
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Int(i64::from(v))
    }
}
impl From<u8> for JsonValue {
    fn from(v: u8) -> Self {
        JsonValue::Int(i64::from(v))
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Int(v as i64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl JsonValue {
    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.6}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}  \"");
                    escape_into(out, key);
                    out.push_str("\": ");
                    value.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

/// Builder for one `BENCH_PR<N>.json` document (a top-level JSON object).
#[derive(Debug, Clone, Default)]
pub struct JsonReport {
    fields: Vec<(String, JsonValue)>,
}

impl JsonReport {
    /// Starts an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a top-level field (insertion order is preserved).
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Renders the document with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        JsonValue::Object(self.fields.clone()).render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes the report to `SPLITBEAM_BENCH_OUT` (when set) or `default_name`
    /// and returns the path written.
    pub fn write(&self, default_name: &str) -> String {
        let out_path =
            mimo_math::env::raw("SPLITBEAM_BENCH_OUT").unwrap_or_else(|| default_name.to_string());
        std::fs::write(&out_path, self.render()).expect("write benchmark report");
        out_path
    }
}

/// Convenience: builds an object value from `(key, value)` pairs.
pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The kernel-dispatch object every benchmark report embeds under `"kernel"`.
pub fn kernel_dispatch_value() -> JsonValue {
    let report = mimo_math::kernel::dispatch_report();
    object(vec![
        ("requested", report.requested.into()),
        ("selected", report.selected.into()),
        ("selected_f32_gemm", report.selected_f32_gemm.into()),
        ("selected_int8", report.selected_int8.into()),
        ("avx2_fma_available", report.avx2_fma_available.into()),
        ("avx512f_available", report.avx512f_available.into()),
        ("avx512bw_available", report.avx512bw_available.into()),
        ("avx512_vnni_available", report.avx512_vnni_available.into()),
    ])
}

/// The autotune object reports embed under `"tune"`: the blocking parameters
/// the one-shot startup probe selected (or the pinned defaults under
/// `SPLITBEAM_TUNE=off`).
pub fn tune_value() -> JsonValue {
    let params = mimo_math::kernel::tune::params();
    object(vec![
        ("f32_k_block", params.f32_k_block.into()),
        ("int8_group_block", params.int8_group_block.into()),
        ("int8_panel4", params.int8_panel4.into()),
        ("probed", params.probed.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_nested_document() {
        let doc = JsonReport::new()
            .field("pr", 3usize)
            .field("ratio", 0.25f64)
            .field("nan_becomes_null", f64::NAN)
            .field("ok", true)
            .field(
                "nested",
                object(vec![
                    ("name", "x\"y".into()),
                    ("items", vec![JsonValue::Int(1), JsonValue::Int(2)].into()),
                ]),
            )
            .render();
        assert!(doc.starts_with("{\n  \"pr\": 3,\n  \"ratio\": 0.250000"));
        assert!(doc.contains("\"nan_becomes_null\": null"));
        assert!(doc.contains("\"name\": \"x\\\"y\""));
        assert!(doc.contains("\"items\": [\n      1,\n      2\n    ]"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn kernel_dispatch_object_has_expected_fields() {
        match kernel_dispatch_value() {
            JsonValue::Object(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    vec![
                        "requested",
                        "selected",
                        "selected_f32_gemm",
                        "selected_int8",
                        "avx2_fma_available",
                        "avx512f_available",
                        "avx512bw_available",
                        "avx512_vnni_available",
                    ]
                );
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn tune_object_has_expected_fields() {
        match tune_value() {
            JsonValue::Object(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    vec!["f32_k_block", "int8_group_block", "int8_panel4", "probed"]
                );
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn empty_containers_render_compactly() {
        let doc = JsonReport::new()
            .field("a", JsonValue::Array(Vec::new()))
            .field("o", JsonValue::Object(Vec::new()))
            .render();
        assert!(doc.contains("\"a\": []"));
        assert!(doc.contains("\"o\": {}"));
    }
}
