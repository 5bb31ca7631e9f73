//! JSON text helpers: quoting for output, and comparison up to whitespace.
//! The workspace has no JSON crate and builds offline.

/// Quotes a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text with every whitespace character outside strings removed, so
/// two layouts of the same document compare equal.
pub fn squeeze(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in text.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        } else if c.is_whitespace() {
            continue;
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squeeze_keeps_strings_and_drops_layout() {
        let a = "{\n  \"a b\": [1, \"x\\\" y\"]\n}\n";
        assert_eq!(squeeze(a), "{\"a b\":[1,\"x\\\" y\"]}");
        assert_eq!(squeeze(&quote("p \"q\"")), quote("p \"q\""));
        assert_ne!(squeeze("\"a b\""), squeeze("\"ab\""));
    }
}
