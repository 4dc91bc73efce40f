//! Plain-text (de)serialization of weight settings — so an optimized
//! solution can be exported to (or imported from) router-configuration
//! tooling.
//!
//! ```text
//! # dtr weights v1
//! wmax 20
//! links 6
//! w 0 3 17
//! w 1 3 17
//! ...
//! ```
//!
//! Every `w` line is `w <link_id> <delay_weight> <throughput_weight>`;
//! all links must be present exactly once.
//!
//! The k-class format (`dtr_mtr::weights_io`) adds a `classes k` header
//! and carries k weights per `w` line. One parser, [`parse`], reads both:
//! each header may appear once, before the first `w` line, and a `w`
//! line carries exactly k weights. The two-class entry point
//! [`from_text`] refuses a `classes` header, and the k-class one requires
//! it, so neither format is mistaken for the other.

use crate::weights::{Class, WeightSetting};

/// Errors raised when parsing a weights text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// `classes` / `wmax` / `links` headers missing.
    MissingHeader,
    /// Line failed to parse (including a repeated or misplaced header);
    /// contains (line number, description).
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
pub fn to_text(w: &WeightSetting) -> String {
    write_text(w, "# dtr weights v1", false)
}

/// Serialize a setting of any class count: the `comment` line, a
/// `classes` header when `with_classes` (the k-class format), `wmax`,
/// `links`, then one `w` line per link carrying its weights in class
/// order.
pub fn write_text(w: &WeightSetting, comment: &str, with_classes: bool) -> String {
    use std::fmt::Write as _;
    let k = w.num_classes();
    let links = w.num_links();
    let mut s = format!("{comment}\n");
    if with_classes {
        let _ = writeln!(s, "classes {k}");
    }
    let _ = writeln!(s, "wmax {}", w.wmax());
    let _ = writeln!(s, "links {links}");
    for i in 0..links {
        let _ = write!(s, "w {i}");
        for c in 0..k {
            let _ = write!(s, " {}", w.weights(c)[i]);
        }
        s.push('\n');
    }
    s
}

/// Parse the two-class v1 text format (no `classes` header).
pub fn from_text(text: &str) -> Result<WeightSetting, ParseError> {
    parse(text, Some(Class::ALL.len()))
}

/// Parse a weights text. `classes: Some(k)` fixes the class count and
/// refuses a `classes` header (the two-class format); `None` requires
/// the header and takes k from it.
pub fn parse(text: &str, classes: Option<usize>) -> Result<WeightSetting, ParseError> {
    let mut k = classes;
    let mut wmax: Option<u32> = None;
    let mut links: Option<usize> = None;
    let mut seen_w = false;
    // per_link[i] = Some(k weights).
    let mut per_link: Vec<Option<Vec<u32>>> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(directive) = parts.next() else {
            continue;
        };
        // Each header once, before the first `w` line.
        let once = |present: bool| {
            if present || seen_w {
                Err(ParseError::Malformed(
                    lineno,
                    format!("'{directive}' header repeated or after a w line"),
                ))
            } else {
                Ok(())
            }
        };
        match directive {
            "classes" => {
                if classes.is_some() {
                    return Err(ParseError::Malformed(
                        lineno,
                        "a 'classes' header in a two-class weights file".into(),
                    ));
                }
                once(k.is_some())?;
                let n: usize = field(&mut parts, lineno, "class count")?;
                if n == 0 {
                    return Err(ParseError::Coverage("need at least one class".into()));
                }
                // The parsed setting holds one vector per class; refuse
                // a count no text of this size could mean before
                // allocating from it.
                if n > text.len() {
                    return Err(ParseError::Coverage(format!(
                        "classes {n} exceeds what the text can cover"
                    )));
                }
                k = Some(n);
            }
            "wmax" => {
                once(wmax.is_some())?;
                let v: u32 = field(&mut parts, lineno, "wmax value")?;
                if v == 0 {
                    return Err(ParseError::Malformed(
                        lineno,
                        "wmax must be at least 1".into(),
                    ));
                }
                wmax = Some(v);
            }
            "links" => {
                once(links.is_some())?;
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
            "w" => {
                let (Some(k), Some(_), Some(n)) = (k, wmax, links) else {
                    return Err(ParseError::MissingHeader);
                };
                seen_w = true;
                let id: usize = field(&mut parts, lineno, "link id")?;
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
                if id >= n {
                    return Err(ParseError::Coverage(format!(
                        "link id {id} out of range (links {n})"
                    )));
                }
                if per_link[id].is_some() {
                    return Err(ParseError::Coverage(format!("duplicate link id {id}")));
                }
                per_link[id] = Some(ws);
            }
            other => {
                return Err(ParseError::Malformed(
                    lineno,
                    format!("unknown directive '{other}'"),
                ))
            }
        }
    }

    let (Some(k), Some(wmax), Some(n)) = (k, wmax, links) else {
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
    Ok(WeightSetting::from_class_vecs(per_class, wmax))
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
    use dtr_net::LinkId;

    #[test]
    fn oversized_headers_are_errors_not_panics() {
        for n in ["18446744073709551615", "1152921504606846976"] {
            let text = format!("wmax 20\nlinks {n}\n");
            assert!(
                matches!(from_text(&text), Err(ParseError::Coverage(_))),
                "links {n}"
            );
        }
        assert!(matches!(
            from_text("wmax 0\nlinks 0\n"),
            Err(ParseError::Malformed(1, _))
        ));
    }
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = WeightSetting::random(10, 20, &mut rng);
        let text = to_text(&w);
        let back = from_text(&text).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn missing_headers_rejected() {
        assert_eq!(from_text("w 0 1 1\n"), Err(ParseError::MissingHeader));
        assert_eq!(from_text(""), Err(ParseError::MissingHeader));
        assert_eq!(from_text("wmax 20\n"), Err(ParseError::MissingHeader));
    }

    #[test]
    fn duplicate_and_missing_links_rejected() {
        let dup = "wmax 20\nlinks 2\nw 0 1 1\nw 0 2 2\n";
        assert!(matches!(from_text(dup), Err(ParseError::Coverage(_))));
        let missing = "wmax 20\nlinks 2\nw 0 1 1\n";
        assert!(matches!(from_text(missing), Err(ParseError::Coverage(_))));
    }

    #[test]
    fn out_of_range_weight_rejected() {
        let text = "wmax 20\nlinks 1\nw 0 25 1\n";
        assert!(matches!(from_text(text), Err(ParseError::Coverage(_))));
        let text = "wmax 20\nlinks 1\nw 0 0 1\n";
        assert!(matches!(from_text(text), Err(ParseError::Coverage(_))));
    }

    #[test]
    fn out_of_range_id_rejected() {
        let text = "wmax 20\nlinks 1\nw 5 1 1\n";
        assert!(matches!(from_text(text), Err(ParseError::Coverage(_))));
    }

    #[test]
    fn text_layout_is_pinned() {
        let w = WeightSetting::from_vecs(vec![3, 5], vec![17, 2], 20);
        let text = "# dtr weights v1\nwmax 20\nlinks 2\nw 0 3 17\nw 1 5 2\n";
        assert_eq!(to_text(&w), text);
    }

    #[test]
    fn extra_weight_rejected() {
        let text = "wmax 20\nlinks 1\nw 0 1 1 7\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed(3, _))));
    }

    #[test]
    fn headers_appear_once_before_the_first_w_line() {
        let repeated = "wmax 20\nwmax 20\nlinks 1\nw 0 1 1\n";
        assert!(matches!(
            from_text(repeated),
            Err(ParseError::Malformed(2, _))
        ));
        let late = "wmax 20\nlinks 1\nw 0 1 1\nlinks 1\n";
        assert!(matches!(from_text(late), Err(ParseError::Malformed(4, _))));
        // The two-class format has no `classes` header.
        let classes = "classes 2\nwmax 20\nlinks 1\nw 0 1 1\n";
        assert!(matches!(
            from_text(classes),
            Err(ParseError::Malformed(1, _))
        ));
    }

    #[test]
    fn comments_ignored() {
        let text = "# saved by dtr\nwmax 20\nlinks 1\n# the only link\nw 0 7 13\n";
        let w = from_text(text).unwrap();
        assert_eq!(w.get(Class::Delay, LinkId::new(0)), 7);
        assert_eq!(w.get(Class::Throughput, LinkId::new(0)), 13);
    }
}
