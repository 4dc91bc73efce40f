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

use crate::weights::{Class, WeightSetting};
use dtr_net::LinkId;

/// Errors raised when parsing the weights text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// `wmax` / `links` headers missing or out of order.
    MissingHeader,
    /// Line failed to parse; contains (line number, description).
    Malformed(usize, String),
    /// A link id out of range, duplicated, or missing.
    Coverage(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing 'wmax'/'links' headers"),
            ParseError::Malformed(line, what) => write!(f, "line {line}: {what}"),
            ParseError::Coverage(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize to the v1 text format.
pub fn to_text(w: &WeightSetting) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("# dtr weights v1\n");
    let _ = writeln!(s, "wmax {}", w.wmax());
    let _ = writeln!(s, "links {}", w.num_links());
    for i in 0..w.num_links() {
        let l = LinkId::new(i);
        let _ = writeln!(
            s,
            "w {} {} {}",
            i,
            w.get(Class::Delay, l),
            w.get(Class::Throughput, l)
        );
    }
    s
}

/// Parse the v1 text format.
pub fn from_text(text: &str) -> Result<WeightSetting, ParseError> {
    let mut wmax: Option<u32> = None;
    let mut links: Option<usize> = None;
    let mut delay: Vec<Option<u32>> = Vec::new();
    let mut tput: Vec<Option<u32>> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
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
                delay = vec![None; n];
                tput = vec![None; n];
            }
            Some("w") => {
                let (Some(_), Some(n)) = (wmax, links) else {
                    return Err(ParseError::MissingHeader);
                };
                let id: usize = field(&mut parts, lineno, "link id")?;
                let wd: u32 = field(&mut parts, lineno, "delay weight")?;
                let wt: u32 = field(&mut parts, lineno, "throughput weight")?;
                if id >= n {
                    return Err(ParseError::Coverage(format!(
                        "link id {id} out of range (links {n})"
                    )));
                }
                if delay[id].is_some() {
                    return Err(ParseError::Coverage(format!("duplicate link id {id}")));
                }
                delay[id] = Some(wd);
                tput[id] = Some(wt);
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

    let (Some(wmax), Some(n)) = (wmax, links) else {
        return Err(ParseError::MissingHeader);
    };
    let mut dv = Vec::with_capacity(n);
    let mut tv = Vec::with_capacity(n);
    for i in 0..n {
        match (delay[i], tput[i]) {
            (Some(d), Some(t)) => {
                if !(1..=wmax).contains(&d) || !(1..=wmax).contains(&t) {
                    return Err(ParseError::Coverage(format!(
                        "link {i}: weights ({d},{t}) outside [1,{wmax}]"
                    )));
                }
                dv.push(d);
                tv.push(t);
            }
            _ => return Err(ParseError::Coverage(format!("link {i} missing"))),
        }
    }
    Ok(WeightSetting::from_vecs(dv, tv, wmax))
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
    fn comments_ignored() {
        let text = "# saved by dtr\nwmax 20\nlinks 1\n# the only link\nw 0 7 13\n";
        let w = from_text(text).unwrap();
        assert_eq!(w.get(Class::Delay, LinkId::new(0)), 7);
        assert_eq!(w.get(Class::Throughput, LinkId::new(0)), 13);
    }
}
