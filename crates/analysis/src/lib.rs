//! # dtr-analysis — determinism & hot-path static-analysis pass
//!
//! Every performance claim in this workspace rests on a bit-for-bit
//! determinism contract (parallel == serial, cached == uncached,
//! repair == full-route) and a zero-steady-state-allocation guarantee.
//! Both are enforced *dynamically* by the equivalence suites and the
//! counting allocator; this crate is the *static* counterpart: a
//! dependency-free, token-level scanner over `crates/*/src` and `src/`
//! that rejects the source patterns which can silently break those
//! contracts before any test seed happens to catch them.
//!
//! See `DETERMINISM.md` at the workspace root for the invariant
//! contract, how to run the pass locally, and how to extend the
//! hot-path registry and the allowlist.
//!
//! ## Lint families
//!
//! * **Determinism** — `det-hash-iter` (ordered iteration over
//!   `HashMap`/`HashSet` outside test code), `det-partial-sort`
//!   (`sort_by` on `partial_cmp` without a total tie-break key),
//!   `det-float-fold` (float `sum`/`fold` fed by a hash-collection
//!   iterator).
//! * **Hot-path allocation** — `hot-alloc`: the registry
//!   `crates/analysis/hot_paths.toml` lists functions the counting
//!   allocator already proves allocation-free; their bodies must stay
//!   textually free of `Vec::new`, `with_capacity`, `vec!`, `collect`,
//!   `to_vec`, `.clone()`, `format!`, `String::`, `to_string`,
//!   `to_owned` and `Box::new`.
//! * **Policy** — `policy-unsafe` (`#![forbid(unsafe_code)]` in every
//!   crate root), `policy-time` (`std::time`/`Instant` outside the
//!   bench crate), `policy-thread` (`thread::spawn`/`thread::scope`
//!   outside `dtr_core::parallel`).
//!
//! The scanner is hand-rolled (the build environment is offline, so no
//! `syn`): it understands line/block comments (nested), string / raw
//! string / char literals, and `#[cfg(test)]` regions, and blanks them
//! before matching, so patterns inside strings, docs or test code never
//! fire. Findings print as `path:line: [lint-id] message`; vetted
//! exceptions live in `crates/analysis/allowlist.txt` (every entry must
//! carry a justification comment and a line snippet — no blanket
//! file-level suppressions — and entries that stop matching fail the
//! pass as stale).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One analyzer hit, reported as `path:line: [lint-id] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable lint identifier (`det-hash-iter`, ...).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Raw source text of the offending line (for allowlist matching).
    pub line_text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// All lint ids the pass can emit (allowlist entries must use one).
pub const LINT_IDS: &[&str] = &[
    "det-hash-iter",
    "det-partial-sort",
    "det-float-fold",
    "hot-alloc",
    "policy-unsafe",
    "policy-time",
    "policy-thread",
];

/// One registered allocation-free function (`hot_paths.toml` entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotPath {
    /// Workspace-relative file holding the function.
    pub file: String,
    /// Bare function name (matched as `fn <name>` outside test code).
    pub function: String,
}

/// One vetted exception (`allowlist.txt` entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative file the exception applies to.
    pub file: String,
    /// Lint id being suppressed.
    pub lint: String,
    /// Substring of the offending source line (never empty: a snippet is
    /// what keeps an entry from being a blanket file-level suppression).
    pub snippet: String,
    /// 1-based line in `allowlist.txt`, for stale-entry reporting.
    pub defined_at: usize,
}

/// Parsed configuration: hot-path registry + allowlist.
#[derive(Clone, Debug, Default)]
pub struct Config {
    pub hot_paths: Vec<HotPath>,
    pub allowlist: Vec<AllowEntry>,
}

/// Outcome of an [`analyze_tree`] run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings not covered by the allowlist, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an allowlist entry.
    pub suppressed: Vec<Finding>,
    /// Allowlist entries that suppressed nothing (fail the pass).
    pub stale_allowlist: Vec<AllowEntry>,
    /// Registry entries whose function no longer exists (fail the pass).
    pub stale_hot_paths: Vec<HotPath>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the pass should exit 0.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
            && self.stale_allowlist.is_empty()
            && self.stale_hot_paths.is_empty()
    }
}

/// Errors loading configuration or walking the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ConfigError {}

// ---------------------------------------------------------------------
// Source scanning: comment/string blanking and #[cfg(test)] regions.
// ---------------------------------------------------------------------

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Blank comments and string/char-literal *contents* (and the literal
/// delimiters themselves) with spaces, preserving byte offsets and
/// newlines, so later token matching can never fire inside them.
///
/// Handles `//` line comments, nested `/* */` block comments, `"..."`
/// with escapes, raw strings `r"..."` / `r#"..."#` (any `#` depth),
/// byte/char literals, and lifetimes (`'a` is *not* a char literal).
pub fn clean_source(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for v in &mut out[from..to] {
            if *v != b'\n' {
                *v = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(b.len(), |p| i + p);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'r' | b'b'
                if {
                    // Raw (byte) string: r"..." / r#"..."# / br"..."
                    let mut j = i + 1;
                    if b[i] == b'b' && j < b.len() && b[j] == b'r' {
                        j += 1;
                    } else if b[i] == b'b' {
                        j = usize::MAX; // b"..." handled by the '"' arm
                    }
                    j != usize::MAX
                        && (i == 0 || !is_ident_char(b[i - 1]))
                        && j < b.len()
                        && (b[j] == b'"' || b[j] == b'#')
                } =>
            {
                let start = i;
                let mut j = i + 1;
                if b[j] == b'r' {
                    j += 1;
                }
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    j += 1;
                    // Scan for `"` followed by `hashes` hash marks.
                    'raw: while j < b.len() {
                        if b[j] == b'"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < b.len() && b[j + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    blank(&mut out, start, j);
                    i = j;
                } else {
                    i += 1; // `r#ident` raw identifier or bare `r`/`b`
                }
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut out, start, i.min(b.len()));
            }
            b'\'' => {
                // Char literal vs lifetime: a char literal closes with a
                // `'` after one (possibly escaped) character.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    let end = (j + 1).min(b.len());
                    blank(&mut out, i, end);
                    i = end;
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    blank(&mut out, i, i + 3);
                    i += 3;
                } else {
                    i += 1; // lifetime
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Byte ranges covered by `#[cfg(test)]` items (attribute through the
/// end of the annotated item, including `mod tests { ... }` bodies).
pub fn test_regions(clean: &[u8]) -> Vec<(usize, usize)> {
    let text = clean;
    let needle = b"#[cfg(test)]";
    let mut regions = Vec::new();
    let mut i = 0;
    while let Some(p) = find_from(text, needle, i) {
        let start = p;
        let mut j = p + needle.len();
        // Skip whitespace and any further attributes before the item.
        loop {
            while j < text.len() && (text[j] as char).is_whitespace() {
                j += 1;
            }
            if j < text.len() && text[j] == b'#' {
                // Skip the bracketed attribute.
                while j < text.len() && text[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        // The item ends at the first `;` at depth 0 (e.g. `use` under
        // cfg) or at the brace matching its first `{`.
        let mut end = text.len();
        let mut k = j;
        while k < text.len() {
            match text[k] {
                b';' => {
                    end = k + 1;
                    break;
                }
                b'{' => {
                    end = match_brace(text, k);
                    break;
                }
                _ => k += 1,
            }
        }
        regions.push((start, end));
        i = end.max(p + 1);
    }
    regions
}

/// Position just past the brace matching `text[open]` (`text[open]`
/// must be `{`); `text.len()` if unbalanced.
fn match_brace(text: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < text.len() {
        match text[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    text.len()
}

fn find_from(text: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= text.len() || needle.is_empty() {
        return None;
    }
    text[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Find `needle` as a whole word (ident-boundary on both sides).
fn find_word(text: &[u8], needle: &str, from: usize) -> Option<usize> {
    let nb = needle.as_bytes();
    let mut i = from;
    while let Some(p) = find_from(text, nb, i) {
        let before_ok = p == 0 || !is_ident_char(text[p - 1]);
        let after = p + nb.len();
        let after_ok = after >= text.len() || !is_ident_char(text[after]);
        if before_ok && after_ok {
            return Some(p);
        }
        i = p + 1;
    }
    None
}

fn line_of(src: &str, pos: usize) -> usize {
    src.as_bytes()[..pos.min(src.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

fn line_text(src: &str, pos: usize) -> String {
    let b = src.as_bytes();
    let pos = pos.min(b.len());
    let start = b[..pos]
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |p| p + 1);
    let end = b[pos..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |p| pos + p);
    src[start..end].to_string()
}

fn in_regions(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(s, e)| pos >= s && pos < e)
}

fn skip_ws(text: &[u8], mut i: usize) -> usize {
    while i < text.len() && (text[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

fn read_ident(text: &[u8], mut i: usize) -> (usize, String) {
    let start = i;
    while i < text.len() && is_ident_char(text[i]) {
        i += 1;
    }
    (i, String::from_utf8_lossy(&text[start..i]).into_owned())
}

// ---------------------------------------------------------------------
// Per-file analysis.
// ---------------------------------------------------------------------

/// The role a file plays for the policy lints, derived from its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileRole {
    /// `lib.rs` / `main.rs` / `src/bin/*.rs`: must carry
    /// `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// Bench crate: wall-clock measurement is its purpose.
    pub time_allowed: bool,
    /// `dtr_core::parallel`: the only sanctioned home of scoped thread
    /// fan-out.
    pub threads_allowed: bool,
}

/// Derive the [`FileRole`] of a workspace-relative path.
pub fn role_of(rel: &str) -> FileRole {
    let file_name = rel.rsplit('/').next().unwrap_or(rel);
    let crate_root = file_name == "lib.rs" && rel.ends_with("src/lib.rs")
        || file_name == "main.rs" && rel.ends_with("src/main.rs")
        || rel.contains("/src/bin/");
    FileRole {
        crate_root,
        time_allowed: rel.starts_with("crates/bench/"),
        threads_allowed: rel == "crates/core/src/parallel.rs",
    }
}

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

const HOT_ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "with_capacity",
    "vec!",
    "collect",
    "to_vec",
    ".clone()",
    "format!",
    "String::",
    "to_string",
    "to_owned",
    "Box::new",
];

/// Analyze one file; `rel` is its workspace-relative path. `hot_fns`
/// are the registry functions expected in this file; each one found
/// (outside test code) is recorded in `hot_seen` by registry index.
pub fn analyze_file(
    rel: &str,
    src: &str,
    hot_fns: &[(usize, &str)],
    hot_seen: &mut [bool],
) -> Vec<Finding> {
    let clean = clean_source(src);
    let regions = test_regions(&clean);
    let role = role_of(rel);
    let mut out = Vec::new();
    let mut push = |pos: usize, lint: &'static str, message: String| {
        out.push(Finding {
            file: rel.to_string(),
            line: line_of(src, pos),
            lint,
            message,
            line_text: line_text(src, pos).trim().to_string(),
        });
    };

    // --- policy-unsafe: crate roots must forbid unsafe code. ---
    if role.crate_root && !src.contains("#![forbid(unsafe_code)]") {
        push(
            0,
            "policy-unsafe",
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    // --- determinism: hash-collection iteration + float folds. ---
    let hash_vars = hash_collection_vars(&clean);
    for (var, kind) in &hash_vars {
        let mut i = 0;
        while let Some(p) = find_word(&clean, var, i) {
            i = p + var.len();
            if in_regions(&regions, p) {
                continue;
            }
            // `for x in var` / `for x in &var` / `&mut var`.
            let mut before = p;
            while before > 0
                && ((clean[before - 1] as char).is_whitespace()
                    || clean[before - 1] == b'&'
                    || clean[before - 1] == b'*')
            {
                before -= 1;
            }
            let for_loop = before >= 2
                && &clean[before - 2..before] == b"in"
                && (before == 2 || !is_ident_char(clean[before - 3]))
                // `for x in mut_var` — make sure this `in` belongs to a
                // `for`, not e.g. a doc word (comments are blanked, so
                // any bare `in` here is the keyword).
                ;
            // `var.method()` with an ordered-iteration method.
            let after = skip_ws(&clean, i);
            let mut method = String::new();
            let mut chain_end = after;
            if after < clean.len() && clean[after] == b'.' {
                let (e, m) = read_ident(&clean, skip_ws(&clean, after + 1));
                method = m;
                chain_end = e;
            }
            let iter_call = HASH_ITER_METHODS.contains(&method.as_str());
            if !for_loop && !iter_call {
                continue;
            }
            let how = if for_loop {
                "`for` loop".to_string()
            } else {
                format!("`.{method}()`")
            };
            push(
                p,
                "det-hash-iter",
                format!(
                    "iteration over {kind} `{var}` ({how}) outside test code: \
                     hash order is nondeterministic across processes; use \
                     `BTreeMap`/sorted keys or add a justified allowlist entry"
                ),
            );
            // Unordered float reduction fed by the same chain?
            let stmt_end = clean[chain_end..]
                .iter()
                .position(|&c| c == b';' || c == b'{')
                .map_or(clean.len(), |q| chain_end + q);
            let chain = &clean[chain_end..stmt_end];
            if find_word(chain, "sum", 0).is_some() || find_word(chain, "fold", 0).is_some() {
                push(
                    p,
                    "det-float-fold",
                    format!(
                        "float reduction (`sum`/`fold`) fed by the {kind} `{var}` \
                         iterator: the accumulation order is nondeterministic"
                    ),
                );
            }
        }
    }

    // --- det-partial-sort: sort_by on partial_cmp without tie-break. ---
    for sort_fn in ["sort_by", "sort_unstable_by"] {
        let mut i = 0;
        while let Some(p) = find_word(&clean, sort_fn, i) {
            i = p + sort_fn.len();
            if in_regions(&regions, p) {
                continue;
            }
            let open = skip_ws(&clean, i);
            if open >= clean.len() || clean[open] != b'(' {
                continue;
            }
            let close = match_paren(&clean, open);
            let body = &clean[open..close];
            let has_partial = find_word(body, "partial_cmp", 0).is_some();
            let has_total =
                find_word(body, "total_cmp", 0).is_some() || find_from(body, b".then", 0).is_some();
            if has_partial && !has_total {
                push(
                    p,
                    "det-partial-sort",
                    format!(
                        "`{sort_fn}` comparator uses `partial_cmp` without a total \
                         tie-break key: ties keep input order (stable) or become \
                         unspecified (unstable); use `total_cmp` and/or `.then(..)` \
                         with an index key"
                    ),
                );
            }
            i = close;
        }
    }

    // --- hot-alloc: registered functions stay allocation-free. ---
    for &(idx, name) in hot_fns {
        let mut i = 0;
        while let Some(p) = find_word(&clean, "fn", i) {
            i = p + 2;
            let after = skip_ws(&clean, i);
            let (e, ident) = read_ident(&clean, after);
            if ident != name {
                continue;
            }
            if in_regions(&regions, p) {
                continue;
            }
            let Some(open) = clean[e..].iter().position(|&c| c == b'{').map(|q| e + q) else {
                continue;
            };
            let close = match_brace(&clean, open);
            hot_seen[idx] = true;
            for pat in HOT_ALLOC_PATTERNS {
                let mut j = open;
                let ident_like = pat.bytes().all(is_ident_char);
                loop {
                    let hit = if ident_like {
                        find_word(&clean[..close], pat, j)
                    } else {
                        find_from(&clean[..close], pat.as_bytes(), j)
                    };
                    let Some(h) = hit else { break };
                    j = h + pat.len();
                    push(
                        h,
                        "hot-alloc",
                        format!(
                            "`{pat}` inside hot-path function `{name}` (registered \
                             allocation-free in crates/analysis/hot_paths.toml)"
                        ),
                    );
                }
            }
            i = close;
        }
    }

    // --- policy-time / policy-thread. ---
    if !role.time_allowed {
        for pat in ["std::time", "Instant"] {
            let mut i = 0;
            while let Some(p) = find_word(&clean, pat, i) {
                i = p + pat.len();
                if in_regions(&regions, p)
                    || (pat == "Instant" && covered_by(&clean, p, "std::time"))
                {
                    continue; // `std::time::Instant` reports once
                }
                push(
                    p,
                    "policy-time",
                    format!(
                        "`{pat}` outside the bench crate: wall-clock must never \
                         feed optimization logic (allowlist reporting-only uses)"
                    ),
                );
            }
        }
    }
    if !role.threads_allowed {
        for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
            let mut i = 0;
            while let Some(p) = find_from(&clean, pat.as_bytes(), i) {
                i = p + pat.len();
                if in_regions(&regions, p) {
                    continue;
                }
                push(
                    p,
                    "policy-thread",
                    format!(
                        "`{pat}` outside the sanctioned parallel module \
                         (crates/core/src/parallel.rs)"
                    ),
                );
            }
        }
    }

    out
}

/// `true` if `pos` falls inside an occurrence of `outer` (used to
/// collapse `std::time::Instant` into a single finding).
fn covered_by(clean: &[u8], pos: usize, outer: &str) -> bool {
    let start = pos.saturating_sub(outer.len() + 2);
    find_from(&clean[..pos.min(clean.len())], outer.as_bytes(), start).is_some()
}

/// Position just past the paren matching `text[open]`.
fn match_paren(text: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < text.len() {
        match text[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    text.len()
}

/// Identifiers bound to `HashMap`/`HashSet` in this file: `let` bindings
/// whose initializer or type names a hash collection, and struct fields
/// or typed parameters declared `name: HashMap<..>`.
fn hash_collection_vars(clean: &[u8]) -> Vec<(String, &'static str)> {
    let mut vars: BTreeMap<String, &'static str> = BTreeMap::new();
    for (ty, kind) in [("HashMap", "HashMap"), ("HashSet", "HashSet")] {
        let mut i = 0;
        while let Some(p) = find_word(clean, ty, i) {
            i = p + ty.len();
            // Statement start: after the previous `;`, `{` or `}`.
            let stmt = clean[..p]
                .iter()
                .rposition(|&c| c == b';' || c == b'{' || c == b'}')
                .map_or(0, |q| q + 1);
            let seg = &clean[stmt..p];
            if find_word(seg, "use", 0).is_some() {
                continue; // import, not a binding
            }
            if let Some(l) = find_word(seg, "let", 0) {
                let mut j = skip_ws(seg, l + 3);
                let (e, first) = read_ident(seg, j);
                if first == "mut" {
                    j = skip_ws(seg, e);
                } else {
                    j = l + 3;
                    j = skip_ws(seg, j);
                }
                let (_, name) = read_ident(seg, j);
                if !name.is_empty() {
                    vars.insert(name, kind);
                }
                continue;
            }
            // Field / typed-param form: `name : ... HashMap` with a `:`
            // directly between the ident and the type.
            if let Some(colon) = seg.iter().rposition(|&c| c == b':') {
                // Reject `::` paths (`std::collections::HashMap`).
                if colon > 0 && seg[colon - 1] == b':' {
                    continue;
                }
                let mut k = colon;
                while k > 0 && (seg[k - 1] as char).is_whitespace() {
                    k -= 1;
                }
                let start = {
                    let mut s = k;
                    while s > 0 && is_ident_char(seg[s - 1]) {
                        s -= 1;
                    }
                    s
                };
                if start < k {
                    let name = String::from_utf8_lossy(&seg[start..k]).into_owned();
                    vars.insert(name, kind);
                }
            }
        }
    }
    vars.into_iter().collect()
}

// ---------------------------------------------------------------------
// Configuration parsing (hand-rolled: the build env is offline).
// ---------------------------------------------------------------------

/// Parse the `hot_paths.toml` registry: a sequence of `[[hot_path]]`
/// tables with string-valued `file` and `function` keys (a strict
/// subset of TOML; anything else is an error).
pub fn parse_hot_paths(text: &str) -> Result<Vec<HotPath>, ConfigError> {
    let mut out: Vec<HotPath> = Vec::new();
    let mut current: Option<(Option<String>, Option<String>)> = None;
    let finish = |cur: &mut Option<(Option<String>, Option<String>)>,
                  out: &mut Vec<HotPath>,
                  lno: usize|
     -> Result<(), ConfigError> {
        if let Some((f, func)) = cur.take() {
            match (f, func) {
                (Some(file), Some(function)) => out.push(HotPath { file, function }),
                _ => {
                    return Err(ConfigError(format!(
                        "hot_paths.toml:{lno}: [[hot_path]] needs both `file` and `function`"
                    )))
                }
            }
        }
        Ok(())
    };
    for (lno, raw) in text.lines().enumerate() {
        let lno = lno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[hot_path]]" {
            finish(&mut current, &mut out, lno)?;
            current = Some((None, None));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfigError(format!(
                "hot_paths.toml:{lno}: unrecognized line `{raw}`"
            )));
        };
        let key = key.trim();
        let value = value.trim();
        let Some(value) = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .map(str::to_string)
        else {
            return Err(ConfigError(format!(
                "hot_paths.toml:{lno}: `{key}` must be a quoted string"
            )));
        };
        let Some(entry) = current.as_mut() else {
            return Err(ConfigError(format!(
                "hot_paths.toml:{lno}: key outside a [[hot_path]] table"
            )));
        };
        match key {
            "file" => entry.0 = Some(value),
            "function" => entry.1 = Some(value),
            _ => {
                return Err(ConfigError(format!(
                    "hot_paths.toml:{lno}: unknown key `{key}`"
                )))
            }
        }
    }
    finish(&mut current, &mut out, text.lines().count())?;
    Ok(out)
}

/// Parse `allowlist.txt`. Entries are `file: lint-id: line-snippet`;
/// every entry (or contiguous entry group) must be immediately preceded
/// by a `#` justification comment, the lint id must exist, and the
/// snippet must be non-empty (no blanket file-level suppressions).
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, ConfigError> {
    let mut out = Vec::new();
    let mut prev_commented = false;
    for (lno, raw) in text.lines().enumerate() {
        let lno = lno + 1;
        let line = raw.trim();
        if line.is_empty() {
            prev_commented = false;
            continue;
        }
        if line.starts_with('#') {
            prev_commented = true;
            continue;
        }
        let Some((file, rest)) = line.split_once(": ") else {
            return Err(ConfigError(format!(
                "allowlist.txt:{lno}: expected `file: lint-id: snippet`, got `{raw}`"
            )));
        };
        let Some((lint, snippet)) = rest.split_once(": ") else {
            return Err(ConfigError(format!(
                "allowlist.txt:{lno}: expected `file: lint-id: snippet`, got `{raw}`"
            )));
        };
        let (file, lint, snippet) = (file.trim(), lint.trim(), snippet.trim());
        if !LINT_IDS.contains(&lint) {
            return Err(ConfigError(format!(
                "allowlist.txt:{lno}: unknown lint id `{lint}`"
            )));
        }
        if snippet.is_empty() {
            return Err(ConfigError(format!(
                "allowlist.txt:{lno}: empty snippet — blanket file-level \
                 suppressions are not allowed"
            )));
        }
        if !prev_commented {
            return Err(ConfigError(format!(
                "allowlist.txt:{lno}: entry is missing a `#` justification \
                 comment on the line(s) above"
            )));
        }
        out.push(AllowEntry {
            file: file.to_string(),
            lint: lint.to_string(),
            snippet: snippet.to_string(),
            defined_at: lno,
        });
    }
    Ok(out)
}

impl Config {
    /// Load the registry and allowlist from their canonical locations
    /// under `root` (`crates/analysis/{hot_paths.toml,allowlist.txt}`).
    /// Missing files are treated as empty.
    pub fn load(root: &Path) -> Result<Config, ConfigError> {
        let read = |p: PathBuf| -> Result<String, ConfigError> {
            if p.exists() {
                fs::read_to_string(&p)
                    .map_err(|e| ConfigError(format!("cannot read {}: {e}", p.display())))
            } else {
                Ok(String::new())
            }
        };
        Ok(Config {
            hot_paths: parse_hot_paths(&read(root.join("crates/analysis/hot_paths.toml"))?)?,
            allowlist: parse_allowlist(&read(root.join("crates/analysis/allowlist.txt"))?)?,
        })
    }
}

// ---------------------------------------------------------------------
// Tree walking and the full pass.
// ---------------------------------------------------------------------

/// Workspace-relative paths of every `.rs` file under `src/` and
/// `crates/*/src/`, sorted (deterministic output order).
pub fn source_files(root: &Path) -> Result<Vec<String>, ConfigError> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", crates_dir.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for m in members {
            roots.push(m.join("src"));
        }
    }
    for dir in roots {
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    let mut rels: Vec<String> = out
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), ConfigError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| ConfigError(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Run the full pass over the workspace at `root` with `config`.
pub fn analyze_tree(root: &Path, config: &Config) -> Result<Report, ConfigError> {
    let files = source_files(root)?;
    let mut hot_seen = vec![false; config.hot_paths.len()];
    let mut all: Vec<Finding> = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))
            .map_err(|e| ConfigError(format!("cannot read {rel}: {e}")))?;
        let hot_fns: Vec<(usize, &str)> = config
            .hot_paths
            .iter()
            .enumerate()
            .filter(|(_, h)| h.file == *rel)
            .map(|(i, h)| (i, h.function.as_str()))
            .collect();
        all.extend(analyze_file(rel, &src, &hot_fns, &mut hot_seen));
    }
    all.sort_by(|a, b| {
        (&a.file, a.line, a.lint)
            .cmp(&(&b.file, b.line, b.lint))
            .then_with(|| a.message.cmp(&b.message))
    });

    let mut used = vec![0usize; config.allowlist.len()];
    let (mut findings, mut suppressed) = (Vec::new(), Vec::new());
    for f in all {
        let hit = config.allowlist.iter().enumerate().find(|(_, e)| {
            e.file == f.file && e.lint == f.lint && f.line_text.contains(&e.snippet)
        });
        match hit {
            Some((i, _)) => {
                used[i] += 1;
                suppressed.push(f);
            }
            None => findings.push(f),
        }
    }
    let stale_allowlist = config
        .allowlist
        .iter()
        .zip(&used)
        .filter(|(_, &u)| u == 0)
        .map(|(e, _)| e.clone())
        .collect();
    let stale_hot_paths = config
        .hot_paths
        .iter()
        .zip(&hot_seen)
        .filter(|(_, &s)| !s)
        .map(|(h, _)| h.clone())
        .collect();
    Ok(Report {
        findings,
        suppressed,
        stale_allowlist,
        stale_hot_paths,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleaning_blanks_comments_strings_and_chars() {
        let src = r##"let a = "HashMap in a string"; // HashMap in a comment
/* HashMap /* nested */ still comment */ let c = 'x';
let r = r#"raw HashMap"#; let lt: &'static str = "s";"##;
        let clean = clean_source(src);
        assert!(find_word(&clean, "HashMap", 0).is_none());
        assert!(
            find_word(&clean, "static", 0).is_some(),
            "lifetime survives"
        );
        assert_eq!(clean.len(), src.len(), "offsets preserved");
    }

    #[test]
    fn test_regions_cover_cfg_test_mods_and_items() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn x() {}\n}\nfn tail() {}\n";
        let clean = clean_source(src);
        let r = test_regions(&clean);
        assert_eq!(r.len(), 1);
        let inside = src.find("fn x").unwrap();
        let after = src.find("fn tail").unwrap();
        assert!(in_regions(&r, inside));
        assert!(!in_regions(&r, after));
    }

    #[test]
    fn hash_iteration_flagged_outside_tests_only() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) -> u32 {\n\
                       let mut s = 0;\n\
                       for (_, v) in &m { s += v; }\n\
                       s\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g(m: super::HashMap<u32, u32>) { for _ in m.keys() {} }\n\
                   }\n";
        let f = analyze_file("crates/x/src/a.rs", src, &[], &mut []);
        let hash: Vec<_> = f.iter().filter(|f| f.lint == "det-hash-iter").collect();
        assert_eq!(hash.len(), 1, "{f:?}");
        assert_eq!(hash[0].line, 4);
    }

    #[test]
    fn lookup_only_hash_use_is_clean() {
        let src = "use std::collections::HashMap;\n\
                   struct S { index: HashMap<u32, u32> }\n\
                   impl S { fn get(&self, k: u32) -> Option<u32> { self.index.get(&k).copied() } }\n";
        let f = analyze_file("crates/x/src/a.rs", src, &[], &mut []);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_fold_fired_by_hash_fed_sum() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n";
        let f = analyze_file("crates/x/src/a.rs", src, &[], &mut []);
        assert!(f.iter().any(|f| f.lint == "det-float-fold"), "{f:?}");
        assert!(f.iter().any(|f| f.lint == "det-hash-iter"));
    }

    #[test]
    fn partial_sort_requires_total_key() {
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let good = "fn f(v: &mut Vec<f64>) { v.sort_unstable_by(f64::total_cmp); }\n\
                    fn g(v: &mut Vec<(f64, u32)>) {\n\
                        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));\n\
                    }\n";
        assert_eq!(
            analyze_file("crates/x/src/a.rs", bad, &[], &mut [])
                .iter()
                .filter(|f| f.lint == "det-partial-sort")
                .count(),
            1
        );
        assert!(analyze_file("crates/x/src/a.rs", good, &[], &mut []).is_empty());
    }

    #[test]
    fn hot_alloc_scans_only_registered_bodies() {
        let src = "fn cold() { let _v: Vec<u32> = (0..3).collect(); }\n\
                   fn hot_kernel(dst: &mut [u32]) {\n\
                       let v = dst.to_vec();\n\
                       dst[0] = v[0];\n\
                   }\n";
        let mut seen = vec![false];
        let f = analyze_file("crates/x/src/a.rs", src, &[(0, "hot_kernel")], &mut seen);
        assert!(seen[0]);
        assert_eq!(
            f.iter().filter(|f| f.lint == "hot-alloc").count(),
            1,
            "{f:?}"
        );
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn policy_lints_respect_roles() {
        let src = "#![forbid(unsafe_code)]\n\
                   use std::time::Instant;\n\
                   fn f() { std::thread::spawn(|| ()); }\n";
        let in_core = analyze_file("crates/x/src/lib.rs", src, &[], &mut []);
        assert_eq!(
            in_core.iter().filter(|f| f.lint == "policy-time").count(),
            1,
            "std::time::Instant reports once: {in_core:?}"
        );
        assert_eq!(
            in_core.iter().filter(|f| f.lint == "policy-thread").count(),
            1
        );
        let in_bench = analyze_file("crates/bench/src/lib.rs", src, &[], &mut []);
        assert!(in_bench.iter().all(|f| f.lint != "policy-time"));
        let in_par = analyze_file("crates/core/src/parallel.rs", src, &[], &mut []);
        assert!(in_par.iter().all(|f| f.lint != "policy-thread"));
    }

    #[test]
    fn missing_forbid_unsafe_flagged_on_crate_roots_only() {
        let src = "pub fn f() {}\n";
        let root = analyze_file("crates/x/src/lib.rs", src, &[], &mut []);
        assert_eq!(root.iter().filter(|f| f.lint == "policy-unsafe").count(), 1);
        let module = analyze_file("crates/x/src/m.rs", src, &[], &mut []);
        assert!(module.is_empty());
        let bin = analyze_file("crates/x/src/bin/tool.rs", src, &[], &mut []);
        assert_eq!(bin.iter().filter(|f| f.lint == "policy-unsafe").count(), 1);
    }

    #[test]
    fn hot_paths_toml_round_trip_and_errors() {
        let ok = "# registry\n[[hot_path]]\nfile = \"a.rs\"\nfunction = \"f\"\n\n\
                  [[hot_path]]\nfile = \"b.rs\"\nfunction = \"g\"\n";
        let hp = parse_hot_paths(ok).unwrap();
        assert_eq!(hp.len(), 2);
        assert_eq!(hp[1].function, "g");
        assert!(parse_hot_paths("[[hot_path]]\nfile = \"a.rs\"\n").is_err());
        assert!(parse_hot_paths("file = \"a.rs\"\n").is_err());
        assert!(parse_hot_paths("[[hot_path]]\nfile = unquoted\n").is_err());
    }

    #[test]
    fn allowlist_requires_comment_snippet_and_known_lint() {
        let ok = "# timing is reporting-only\ncrates/x/src/a.rs: policy-time: Instant::now\n";
        assert_eq!(parse_allowlist(ok).unwrap().len(), 1);
        assert!(parse_allowlist("crates/x/src/a.rs: policy-time: Instant::now\n").is_err());
        assert!(parse_allowlist("# c\ncrates/x/src/a.rs: no-such-lint: x\n").is_err());
        assert!(parse_allowlist("# c\ncrates/x/src/a.rs: policy-time: \n").is_err());
    }
}
