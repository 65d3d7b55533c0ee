//! Nearest-match suggestions for user-supplied names.
//!
//! Shared by the `TargetClass` and spec parsers and by the `faultlab`
//! verbs — flags, modes, and the `--model` / `--mode` focus, matched
//! against the row labels and column names a matrix prints — so every
//! "unknown X" error offers a did-you-mean hint by the same rule.

/// Levenshtein edit distance between two ASCII-ish strings.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest candidate to `input`, if any is plausibly what the user
/// meant: within edit distance 3, or a prefix relationship in either
/// direction (so `net` suggests `net-drop` and `transientt` suggests
/// `transient`).
pub fn suggest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|&v| (edit_distance(input, v), v))
        .filter(|&(d, v)| d <= 3 || v.starts_with(input) || input.starts_with(v))
        .min_by_key(|&(d, _)| d)
        .map(|(_, v)| v)
}

/// Format the standard "unknown X" error, appending a did-you-mean hint
/// when one of `candidates` is close to `input`.
pub fn unknown(what: &str, input: &str, candidates: &[&str]) -> String {
    match suggest(input, candidates) {
        Some(v) => format!("unknown {what} `{input}` (did you mean `{v}`?)"),
        None => format!("unknown {what} `{input}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_exact() {
        assert_eq!(edit_distance("transient", "transient"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("sitting", "kitten"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    #[test]
    fn suggests_the_closest_plausible_candidate() {
        let cands = ["transient", "held-flip", "stuck-at-0", "net-drop"];
        assert_eq!(suggest("transiet", &cands), Some("transient"));
        assert_eq!(suggest("net", &cands), Some("net-drop"));
        assert_eq!(suggest("zzzzzzzzzz", &cands), None);
    }

    #[test]
    fn unknown_formats_with_and_without_hint() {
        assert_eq!(
            unknown("fault model", "transiet", &["transient"]),
            "unknown fault model `transiet` (did you mean `transient`?)"
        );
        assert_eq!(
            unknown("fault model", "qqqqqqqqqq", &["transient"]),
            "unknown fault model `qqqqqqqqqq`"
        );
    }
}
