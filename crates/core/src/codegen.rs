//! A small `${name}`-substitution template engine — the stand-in for the
//! Apache Velocity templates the Java Graft uses to generate JUnit files
//! — plus helpers for rendering captured values as Rust literals.

use std::collections::BTreeMap;

use graft_codec::TaggedBytes;
use graft_pregel::AggValue;

/// A text template with `${name}` placeholders.
pub struct Template {
    source: &'static str,
}

/// Errors from rendering a template.
#[derive(Debug, PartialEq, Eq)]
pub enum TemplateError {
    /// A `${name}` placeholder had no binding.
    MissingVariable(String),
    /// A `${` was never closed.
    UnterminatedPlaceholder(usize),
}

impl std::fmt::Display for TemplateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemplateError::MissingVariable(name) => {
                write!(f, "template variable ${{{name}}} is not bound")
            }
            TemplateError::UnterminatedPlaceholder(at) => {
                write!(f, "unterminated ${{ at byte {at}")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

impl Template {
    /// Wraps a template string.
    pub const fn new(source: &'static str) -> Self {
        Self { source }
    }

    /// Substitutes every `${name}` with its binding.
    pub fn render(&self, vars: &BTreeMap<&str, String>) -> Result<String, TemplateError> {
        let mut out = String::with_capacity(self.source.len());
        let mut rest = self.source;
        let mut offset = 0;
        while let Some(start) = rest.find("${") {
            out.push_str(&rest[..start]);
            let after = &rest[start + 2..];
            let end =
                after.find('}').ok_or(TemplateError::UnterminatedPlaceholder(offset + start))?;
            let name = &after[..end];
            let value =
                vars.get(name).ok_or_else(|| TemplateError::MissingVariable(name.to_string()))?;
            out.push_str(value);
            offset += start + 2 + end + 1;
            rest = &after[end + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }
}

/// Renders an [`AggValue`] as a Rust constructor expression.
pub fn agg_value_literal(value: &AggValue) -> String {
    match value {
        AggValue::Long(v) => format!("AggValue::Long({v})"),
        AggValue::Double(v) => format!("AggValue::Double({})", f64_literal(*v)),
        AggValue::Bool(v) => format!("AggValue::Bool({v})"),
        AggValue::Text(v) => format!("AggValue::Text({v:?}.to_string())"),
        AggValue::Pair(k, v) => format!("AggValue::Pair({k}, {})", f64_literal(*v)),
    }
}

/// Renders an `f64` as a Rust expression of the same value: `{:?}` does
/// for finite values, not for NaN and the infinities.
fn f64_literal(v: f64) -> String {
    if v.is_nan() {
        "f64::NAN".to_string()
    } else if v.is_infinite() {
        format!("f64::{}INFINITY", if v < 0.0 { "NEG_" } else { "" })
    } else {
        format!("{v:?}")
    }
}

/// Best-effort cleanup of `std::any::type_name` output into paths a user
/// crate can actually write: strips `alloc`/`core` internals down to the
/// prelude names and drops crate-internal module chains for local types.
pub fn clean_type_name(raw: &str) -> String {
    let mut s = raw.to_string();
    for (from, to) in [
        ("alloc::string::String", "String"),
        ("alloc::vec::Vec", "Vec"),
        ("alloc::boxed::Box", "Box"),
        ("core::option::Option", "Option"),
        ("core::result::Result", "Result"),
    ] {
        s = s.replace(from, to);
    }
    s
}

/// Renders a `Debug`-formatted value, assuming (as the paper's generated
/// JUnit code does) that the user's types round-trip through their
/// constructor syntax. Primitives, tuples, `String`s (via `.to_string()`
/// hints are not needed for `&str` comparisons), and plain derive-Debug
/// structs/enums all render usably.
pub fn debug_literal<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// Renders a type-erased trace value as a Rust literal, best-effort: the
/// type-erased analogue of [`debug_literal`] used when generating test
/// source from an untyped trace (the debug server's repro download).
/// Numbers and bools are exact (the writer keeps `.0` on integral
/// floats), `null` maps back to `()`, and composite values fall back to
/// their JSON rendering — readable, though the user may need to adjust
/// them to their constructor syntax.
pub fn json_literal(value: &TaggedBytes) -> String {
    match value.json() {
        json if json == "null" => "()".to_string(),
        json if json.starts_with('"') => format!("{:?}", value.text()),
        json => json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitutes_in_order() {
        let t = Template::new("fn ${name}() -> ${ty} { ${body} }");
        let mut vars = BTreeMap::new();
        vars.insert("name", "answer".to_string());
        vars.insert("ty", "u32".to_string());
        vars.insert("body", "42".to_string());
        assert_eq!(t.render(&vars).unwrap(), "fn answer() -> u32 { 42 }");
    }

    #[test]
    fn repeated_and_adjacent_placeholders() {
        let t = Template::new("${a}${a}-${b}");
        let mut vars = BTreeMap::new();
        vars.insert("a", "x".to_string());
        vars.insert("b", "y".to_string());
        assert_eq!(t.render(&vars).unwrap(), "xx-y");
    }

    #[test]
    fn missing_variable_is_an_error() {
        let t = Template::new("${missing}");
        assert_eq!(
            t.render(&BTreeMap::new()),
            Err(TemplateError::MissingVariable("missing".into()))
        );
    }

    #[test]
    fn unterminated_placeholder_is_an_error() {
        let t = Template::new("abc ${oops");
        assert_eq!(t.render(&BTreeMap::new()), Err(TemplateError::UnterminatedPlaceholder(4)));
    }

    #[test]
    fn literal_text_without_placeholders_passes_through() {
        let t = Template::new("no placeholders here }{ $");
        assert_eq!(t.render(&BTreeMap::new()).unwrap(), "no placeholders here }{ $");
    }

    #[test]
    fn agg_literals() {
        assert_eq!(agg_value_literal(&AggValue::Long(-3)), "AggValue::Long(-3)");
        assert_eq!(agg_value_literal(&AggValue::Double(0.5)), "AggValue::Double(0.5)");
        assert_eq!(
            agg_value_literal(&AggValue::Text("MIS".into())),
            "AggValue::Text(\"MIS\".to_string())"
        );
        assert_eq!(agg_value_literal(&AggValue::Pair(1, 2.5)), "AggValue::Pair(1, 2.5)");
        assert_eq!(agg_value_literal(&AggValue::Double(f64::NAN)), "AggValue::Double(f64::NAN)");
        assert_eq!(
            agg_value_literal(&AggValue::Double(f64::NEG_INFINITY)),
            "AggValue::Double(f64::NEG_INFINITY)"
        );
        assert_eq!(
            agg_value_literal(&AggValue::Pair(-1, f64::INFINITY)),
            "AggValue::Pair(-1, f64::INFINITY)"
        );
    }

    #[test]
    fn type_name_cleanup() {
        assert_eq!(clean_type_name("alloc::string::String"), "String");
        assert_eq!(
            clean_type_name("alloc::vec::Vec<core::option::Option<u64>>"),
            "Vec<Option<u64>>"
        );
        assert_eq!(clean_type_name("u64"), "u64");
    }
}
