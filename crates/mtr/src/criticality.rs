//! k-class criticality and the k-way Algorithm 1 merge — both live in
//! `dtr_core`, written once for every class count; these are their
//! k-class names.
//!
//! Criticality stays exactly the paper's quantity (Eqs. 8–9: mean minus
//! left-tail mean of the conditional failure-cost distribution), computed
//! per class and normalized by the class's summed left-tail means
//! (§IV-D2). The merge generalizes Algorithm 1 from two sorted lists to
//! k; with `k = 2` it is line-for-line Algorithm 1.

use dtr_core::FailureUniverse;

pub use dtr_core::criticality::Criticality as KWayCriticality;
pub use dtr_core::selection::{select as select_k, CriticalSet as KWaySelection};

use crate::params::MtrParams;

/// Target critical-set size for a universe of `universe_len` failable
/// links: the one Phase-1c sizing rule,
/// [`FailureUniverse::target_size_for`] (`⌈f·len⌉` clamped to
/// `[1, len]`).
pub fn target_size(params: &MtrParams, universe_len: usize) -> usize {
    FailureUniverse::target_size_for(universe_len, params.critical_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_size_is_the_ceil_clamped_rule() {
        for f in [0.05, 0.1, 0.15, 0.25] {
            let params = MtrParams {
                critical_fraction: f,
                ..MtrParams::paper_default(0)
            };
            for len in 1..=500usize {
                let rule = ((len as f64 * f).ceil() as usize).clamp(1, len);
                assert_eq!(target_size(&params, len), rule, "len {len}, f {f}");
            }
        }
    }
}
