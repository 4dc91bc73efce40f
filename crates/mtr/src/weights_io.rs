//! Plain-text (de)serialization of k-class weight settings — the MTR
//! counterpart of `dtr_routing::weights_io`, with an explicit class
//! count.
//!
//! ```text
//! # dtr mtr-weights v1
//! classes 3
//! wmax 20
//! links 6
//! w 0 17 3 9
//! w 1 17 3 9
//! ...
//! ```
//!
//! Every `w` line is `w <link_id> <weight_class_0> ... <weight_class_k-1>`;
//! all links must be present exactly once.

use dtr_net::LinkId;

use crate::weights::MtrWeightSetting;

/// Errors raised when parsing the MTR weights text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// `classes` / `wmax` / `links` headers missing or out of order.
    MissingHeader,
    /// Line failed to parse; contains (line number, description).
    Malformed(usize, String),
    /// A link id out of range, duplicated, or missing; or a weight out of
    /// range.
    Coverage(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing 'classes'/'wmax'/'links' headers"),
            ParseError::Malformed(line, what) => write!(f, "line {line}: {what}"),
            ParseError::Coverage(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize to the v1 text format.
pub fn to_text(w: &MtrWeightSetting) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("# dtr mtr-weights v1\n");
    let _ = writeln!(s, "classes {}", w.num_classes());
    let _ = writeln!(s, "wmax {}", w.wmax());
    let _ = writeln!(s, "links {}", w.num_links());
    for i in 0..w.num_links() {
        let _ = write!(s, "w {i}");
        for v in w.link_weights(LinkId::new(i)) {
            let _ = write!(s, " {v}");
        }
        s.push('\n');
    }
    s
}

/// Parse the v1 text format.
pub fn from_text(text: &str) -> Result<MtrWeightSetting, ParseError> {
    let mut classes: Option<usize> = None;
    let mut wmax: Option<u32> = None;
    let mut links: Option<usize> = None;
    // per_link[i] = Some(k weights).
    let mut per_link: Vec<Option<Vec<u32>>> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("classes") => {
                let k: usize = field(&mut parts, lineno, "class count")?;
                if k == 0 {
                    return Err(ParseError::Coverage("need at least one class".into()));
                }
                // The parsed setting holds one vector per class; refuse
                // a count no text of this size could mean before
                // allocating from it.
                if k > text.len() {
                    return Err(ParseError::Coverage(format!(
                        "classes {k} exceeds what the text can cover"
                    )));
                }
                classes = Some(k);
            }
            Some("wmax") => {
                let v: u32 = field(&mut parts, lineno, "wmax value")?;
                if v == 0 {
                    return Err(ParseError::Malformed(
                        lineno,
                        "wmax must be at least 1".into(),
                    ));
                }
                wmax = Some(v);
            }
            Some("links") => {
                let n: usize = field(&mut parts, lineno, "link count")?;
                // Each link needs a `w` line of its own, so a count past
                // the text's line count can never be covered: refuse it
                // before preallocating from an untrusted header.
                if n > text.lines().count() {
                    return Err(ParseError::Coverage(format!(
                        "links {n} exceeds what the text can cover"
                    )));
                }
                links = Some(n);
                per_link = vec![None; n];
            }
            Some("w") => {
                let (Some(k), Some(_), Some(n)) = (classes, wmax, links) else {
                    return Err(ParseError::MissingHeader);
                };
                let id: usize = field(&mut parts, lineno, "link id")?;
                if id >= n {
                    return Err(ParseError::Coverage(format!(
                        "link id {id} out of range (links {n})"
                    )));
                }
                if per_link[id].is_some() {
                    return Err(ParseError::Coverage(format!("duplicate link id {id}")));
                }
                let mut ws = Vec::with_capacity(k);
                for c in 0..k {
                    ws.push(field(&mut parts, lineno, &format!("class-{c} weight"))?);
                }
                if parts.next().is_some() {
                    return Err(ParseError::Malformed(
                        lineno,
                        format!("more than {k} weights on a w line"),
                    ));
                }
                per_link[id] = Some(ws);
            }
            Some(other) => {
                return Err(ParseError::Malformed(
                    lineno,
                    format!("unknown directive '{other}'"),
                ))
            }
            None => unreachable!(),
        }
    }

    let (Some(k), Some(wmax), Some(n)) = (classes, wmax, links) else {
        return Err(ParseError::MissingHeader);
    };
    let mut per_class = vec![Vec::with_capacity(n); k];
    for (i, slot) in per_link.iter().enumerate() {
        let Some(ws) = slot else {
            return Err(ParseError::Coverage(format!("link {i} missing")));
        };
        for (c, &v) in ws.iter().enumerate() {
            if !(1..=wmax).contains(&v) {
                return Err(ParseError::Coverage(format!(
                    "link {i} class {c}: weight {v} outside [1,{wmax}]"
                )));
            }
            per_class[c].push(v);
        }
    }
    Ok(MtrWeightSetting::from_vecs(per_class, wmax))
}

fn field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    lineno: usize,
    what: &str,
) -> Result<T, ParseError> {
    parts
        .next()
        .ok_or_else(|| ParseError::Malformed(lineno, format!("missing {what}")))?
        .parse()
        .map_err(|_| ParseError::Malformed(lineno, format!("invalid {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oversized_headers_are_errors_not_panics() {
        for n in ["18446744073709551615", "1152921504606846976"] {
            let text = format!("classes 2\nwmax 20\nlinks {n}\n");
            assert!(
                matches!(from_text(&text), Err(ParseError::Coverage(_))),
                "links {n}"
            );
        }
        let text = "classes 18446744073709551615\nwmax 20\nlinks 0\n";
        assert!(matches!(from_text(text), Err(ParseError::Coverage(_))));
        assert!(matches!(
            from_text("classes 1\nwmax 0\nlinks 0\n"),
            Err(ParseError::Malformed(2, _))
        ));
    }

    #[test]
    fn round_trip_three_classes() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = MtrWeightSetting::random(3, 10, 20, &mut rng);
        let back = from_text(&to_text(&w)).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn round_trip_single_class() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = MtrWeightSetting::random(1, 5, 7, &mut rng);
        assert_eq!(from_text(&to_text(&w)).unwrap(), w);
    }

    #[test]
    fn dtr_projection_survives_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = MtrWeightSetting::random(2, 6, 20, &mut rng);
        let back = from_text(&to_text(&w)).unwrap();
        assert_eq!(w.to_dtr(), back.to_dtr());
    }

    #[test]
    fn missing_headers_rejected() {
        assert_eq!(from_text(""), Err(ParseError::MissingHeader));
        assert_eq!(
            from_text("classes 2\nwmax 20\n"),
            Err(ParseError::MissingHeader)
        );
        assert_eq!(
            from_text("wmax 20\nlinks 1\nw 0 1 1\n"),
            Err(ParseError::MissingHeader)
        );
    }

    #[test]
    fn wrong_weight_arity_rejected() {
        let short = "classes 3\nwmax 20\nlinks 1\nw 0 1 2\n";
        assert!(matches!(from_text(short), Err(ParseError::Malformed(..))));
        let long = "classes 2\nwmax 20\nlinks 1\nw 0 1 2 3\n";
        assert!(matches!(from_text(long), Err(ParseError::Malformed(..))));
    }

    #[test]
    fn duplicate_missing_and_range_errors() {
        let dup = "classes 1\nwmax 20\nlinks 2\nw 0 1\nw 0 2\n";
        assert!(matches!(from_text(dup), Err(ParseError::Coverage(_))));
        let missing = "classes 1\nwmax 20\nlinks 2\nw 0 1\n";
        assert!(matches!(from_text(missing), Err(ParseError::Coverage(_))));
        let range = "classes 1\nwmax 20\nlinks 1\nw 0 21\n";
        assert!(matches!(from_text(range), Err(ParseError::Coverage(_))));
        let zero_classes = "classes 0\nwmax 20\nlinks 1\nw 0 1\n";
        assert!(matches!(
            from_text(zero_classes),
            Err(ParseError::Coverage(_))
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# saved\nclasses 2\n\nwmax 20\nlinks 1\n# link 0\nw 0 7 13\n";
        let w = from_text(text).unwrap();
        assert_eq!(w.get(0, LinkId::new(0)), 7);
        assert_eq!(w.get(1, LinkId::new(0)), 13);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ParseError::MissingHeader.to_string().contains("headers"));
        assert!(ParseError::Malformed(3, "bad".into())
            .to_string()
            .contains("line 3"));
        assert!(ParseError::Coverage("x missing".into())
            .to_string()
            .contains("missing"));
    }
}
