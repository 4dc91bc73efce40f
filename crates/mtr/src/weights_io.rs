//! Plain-text (de)serialization of k-class weight settings — the MTR
//! counterpart of `dtr_routing::weights_io`, with an explicit class
//! count. Both directions are that module's one codec
//! ([`dtr_routing::weights_io::write_text`] and
//! [`dtr_routing::weights_io::parse`], with the `classes` header
//! required).
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
//! all links must be present exactly once, and each header appears once,
//! before the first `w` line.

pub use dtr_routing::weights_io::ParseError;

use dtr_routing::WeightSetting;

/// Serialize to the v1 text format.
pub fn to_text(w: &WeightSetting) -> String {
    dtr_routing::weights_io::write_text(w, "# dtr mtr-weights v1", true)
}

/// Parse the v1 text format.
pub fn from_text(text: &str) -> Result<WeightSetting, ParseError> {
    dtr_routing::weights_io::parse(text, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_net::LinkId;
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
        let w = WeightSetting::random_k(3, 10, 20, &mut rng);
        let back = from_text(&to_text(&w)).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn text_layout_is_pinned() {
        let w = WeightSetting::from_class_vecs(vec![vec![3, 5], vec![17, 2], vec![1, 20]], 20);
        let text = "# dtr mtr-weights v1\nclasses 3\nwmax 20\nlinks 2\nw 0 3 17 1\nw 1 5 2 20\n";
        assert_eq!(to_text(&w), text);
    }

    #[test]
    fn round_trip_single_class() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = WeightSetting::random_k(1, 5, 7, &mut rng);
        assert_eq!(from_text(&to_text(&w)).unwrap(), w);
    }

    /// A two-class setting reads back the same through either format.
    #[test]
    fn two_class_setting_round_trips_through_both_formats() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = WeightSetting::random_k(2, 6, 20, &mut rng);
        let back = from_text(&to_text(&w)).unwrap();
        let dtr_io = dtr_routing::weights_io::from_text(&dtr_routing::weights_io::to_text(&w));
        assert_eq!(back, w);
        assert_eq!(dtr_io.unwrap(), w);
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
    fn larger_class_count_after_w_lines_is_an_error() {
        // Used to trip `WeightSetting::from_vecs`' length assert.
        let text = "classes 2\nwmax 20\nlinks 1\nw 0 1 1\nclasses 3\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed(5, _))));
    }

    #[test]
    fn smaller_class_count_after_w_lines_is_an_error() {
        // Used to index past the per-class vectors.
        let text = "classes 3\nwmax 20\nlinks 1\nw 0 1 1 1\nclasses 2\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed(5, _))));
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
