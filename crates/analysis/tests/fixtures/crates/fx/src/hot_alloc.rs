//! hot-alloc fixture: allocation inside the registered kernel must
//! fire; the same pattern in an unregistered function must not.

pub fn hot_kernel(dst: &mut [u32], src: &[u32]) {
    let staged = src.to_vec();
    let mut spare = Vec::with_capacity(src.len());
    for (d, s) in dst.iter_mut().zip(&staged) {
        *d = *s;
        spare.push(*s);
    }
}

pub fn cold_helper(src: &[u32]) -> Vec<u32> {
    src.to_vec()
}
