//! The JSON scalar writers the three telemetry crates' hand-rolled
//! exporters share.

use std::fmt::Write as _;

/// Appends a JSON string literal (quotes, backslashes and control bytes
/// escaped). The one copy the three telemetry crates' exporters share.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Appends an `f64` as JSON: finite values print plainly; non-finite
/// ones (legal in a stream that *reports on* NaNs) become the strings
/// `"NaN"` / `"Infinity"` / `"-Infinity"`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
}

/// Appends the `,` between the elements of a JSON array or object:
/// nothing before the first (`*first`, which it clears), a comma after.
pub fn push_json_sep(out: &mut String, first: &mut bool) {
    if !std::mem::take(first) {
        out.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_f64_non_finite() {
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        out.push(',');
        push_json_f64(&mut out, f64::INFINITY);
        out.push(',');
        push_json_f64(&mut out, 1.5);
        assert_eq!(out, "\"NaN\",\"Infinity\",1.5");
    }
}
