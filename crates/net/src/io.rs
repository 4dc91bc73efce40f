//! Plain-text (de)serialization of networks.
//!
//! A deliberately simple line format — easy to diff, easy to generate
//! from other tools, stable across versions:
//!
//! ```text
//! # dtr network v1
//! nodes 3
//! node 0 0.0 0.0
//! node 1 1.0 0.0
//! node 2 0.5 1.0
//! link 0 1 500000000 0.005
//! link 1 0 500000000 0.005
//! ```
//!
//! `link` lines are *directed*; duplex pairing is re-derived on load from
//! matching reverse lines, exactly as the builder does.

use crate::builder::NetworkBuilder;
use crate::geometry::Point;
use crate::graph::Network;
use crate::ids::NodeId;

/// Errors raised when parsing the network text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// First non-comment line must be `nodes <count>`.
    MissingHeader,
    /// Line failed to parse; contains (line number, description).
    Malformed(usize, String),
    /// Construction failed after parsing (duplicate link, bad capacity…).
    Build(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing 'nodes <count>' header"),
            ParseError::Malformed(line, what) => write!(f, "line {line}: {what}"),
            ParseError::Build(e) => write!(f, "network construction failed: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a network to the v1 text format.
pub fn to_text(net: &Network) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("# dtr network v1\n");
    let _ = writeln!(s, "nodes {}", net.num_nodes());
    for v in net.nodes() {
        let p = net.position(v);
        let _ = writeln!(s, "node {} {} {}", v, p.x, p.y);
    }
    for l in net.links() {
        let link = net.link(l);
        let _ = writeln!(
            s,
            "link {} {} {} {}",
            link.src, link.dst, link.capacity, link.prop_delay
        );
    }
    s
}

/// Parse the v1 text format. Requires strong connectivity (the format
/// stores full networks, not fragments).
pub fn from_text(text: &str) -> Result<Network, ParseError> {
    let mut b = NetworkBuilder::new();
    let mut declared_nodes: Option<usize> = None;
    let mut seen_nodes = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("nodes") => {
                let n: usize = parse_field(&mut parts, lineno, "node count")?;
                declared_nodes = Some(n);
            }
            Some("node") => {
                if declared_nodes.is_none() {
                    return Err(ParseError::MissingHeader);
                }
                let id: usize = parse_field(&mut parts, lineno, "node id")?;
                let x: f64 = parse_field(&mut parts, lineno, "x coordinate")?;
                let y: f64 = parse_field(&mut parts, lineno, "y coordinate")?;
                if id != seen_nodes {
                    return Err(ParseError::Malformed(
                        lineno,
                        format!(
                            "node ids must be dense and ordered; expected {seen_nodes}, got {id}"
                        ),
                    ));
                }
                b.try_add_node(Point::new(x, y))
                    .map_err(|e| ParseError::Build(e.to_string()))?;
                seen_nodes += 1;
            }
            Some("link") => {
                let src: usize = parse_field(&mut parts, lineno, "source node")?;
                let dst: usize = parse_field(&mut parts, lineno, "destination node")?;
                let cap: f64 = parse_field(&mut parts, lineno, "capacity")?;
                let delay: f64 = parse_field(&mut parts, lineno, "propagation delay")?;
                // Endpoints past the u32 id space are a typed error, not
                // a panic: the text is untrusted.
                let node = |v: usize, what: &str| {
                    NodeId::try_new(v).map_err(|_| {
                        ParseError::Malformed(lineno, format!("{what} {v} out of range"))
                    })
                };
                let (src, dst) = (node(src, "source node")?, node(dst, "destination node")?);
                b.add_link(src, dst, cap, delay)
                    .map_err(|e| ParseError::Build(e.to_string()))?;
            }
            Some(other) => {
                return Err(ParseError::Malformed(
                    lineno,
                    format!("unknown directive '{other}'"),
                ))
            }
            None => unreachable!("empty lines are skipped"),
        }
    }

    match declared_nodes {
        None => Err(ParseError::MissingHeader),
        Some(n) if n != seen_nodes => Err(ParseError::Build(format!(
            "header declares {n} nodes but {seen_nodes} were defined"
        ))),
        Some(_) => b.build().map_err(|e| ParseError::Build(e.to_string())),
    }
}

fn parse_field<'a, T: std::str::FromStr>(
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

    fn sample() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.5));
        let d = b.add_node(Point::new(0.25, 1.0));
        b.add_duplex_link(a, c, 500e6, 5e-3).unwrap();
        b.add_duplex_link(c, d, 250e6, 7.5e-3).unwrap();
        b.add_duplex_link(d, a, 500e6, 2e-3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn endpoint_past_the_id_space_is_an_error_not_a_panic() {
        let text = "nodes 2\nnode 0 0 0\nnode 1 1 0\nlink 0 4294967296 1e9 0.001\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed(4, _))));
        let text = "nodes 2\nnode 0 0 0\nnode 1 1 0\nlink 18446744073709551615 0 1e9 0.001\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed(4, _))));
    }

    #[test]
    fn round_trip_preserves_everything() {
        let net = sample();
        let text = to_text(&net);
        let back = from_text(&text).unwrap();
        assert_eq!(back.num_nodes(), net.num_nodes());
        assert_eq!(back.num_links(), net.num_links());
        for l in net.links() {
            assert_eq!(back.link(l).src, net.link(l).src);
            assert_eq!(back.link(l).dst, net.link(l).dst);
            assert_eq!(back.link(l).capacity, net.link(l).capacity);
            assert_eq!(back.link(l).prop_delay, net.link(l).prop_delay);
            assert_eq!(back.reverse_link(l), net.reverse_link(l));
        }
        for v in net.nodes() {
            assert_eq!(back.position(v), net.position(v));
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nnodes 2\nnode 0 0 0\nnode 1 1 1\n# mid comment\nlink 0 1 1e9 0.001\nlink 1 0 1e9 0.001\n";
        let net = from_text(text).unwrap();
        assert_eq!(net.num_nodes(), 2);
    }

    #[test]
    fn missing_header_rejected() {
        assert!(matches!(
            from_text("node 0 0 0\n"),
            Err(ParseError::MissingHeader)
        ));
        assert!(matches!(from_text(""), Err(ParseError::MissingHeader)));
    }

    #[test]
    fn non_dense_node_ids_rejected() {
        let text = "nodes 2\nnode 0 0 0\nnode 2 1 1\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed(3, _))));
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let text = "nodes 3\nnode 0 0 0\nnode 1 1 1\nlink 0 1 1e9 0.001\nlink 1 0 1e9 0.001\n";
        assert!(matches!(from_text(text), Err(ParseError::Build(_))));
    }

    #[test]
    fn malformed_link_reports_line() {
        let text = "nodes 2\nnode 0 0 0\nnode 1 1 1\nlink 0 nope 1e9 0.001\n";
        match from_text(text) {
            Err(ParseError::Malformed(4, what)) => assert!(what.contains("destination")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unknown_directive_rejected() {
        let text = "nodes 1\nnode 0 0 0\nfrobnicate 1 2 3\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed(3, _))));
    }
}
