//! Project-specific static analysis for the loramesher-repro workspace.
//!
//! The whole evaluation methodology of this reproduction rests on the
//! simulator being strictly deterministic (byte-identical traces for
//! equal seeds, jobs-invariant sweep aggregates) and on the protocol
//! core never panicking on over-the-air input. Nothing in the language
//! enforces either property, so this crate does: a small, dependency-
//! free analyzer that walks the workspace's `.rs` sources with a
//! hand-rolled comment/string-aware lexer and reports violations of
//! five project rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `d1` | no `HashMap`/`HashSet` in determinism-critical crates — iteration order feeds traces and RNG draws |
//! | `d2` | no `Instant::now`/`SystemTime`/`thread_rng` outside `bench`/`testkit` — simulated time only |
//! | `r1` | no `unwrap`/`expect`/`panic!`/`[]`-indexing in `core`'s packet/codec/routing/stack hot paths — frame decode returns `Err`, never panics |
//! | `c1` | no bare `as` narrowing casts to `u8`/`u16`/`i8`/`i16` in determinism-critical crates — addresses, lengths and sequence numbers use `try_from` or checked helpers |
//! | `n1` | no `std::` paths in the `no_std`-capable crates (`core`, `lora-phy`) outside `#[cfg(feature = "std")]` items and test code — `--no-default-features` must keep building |
//!
//! Individual sites can be exempted with a written justification:
//!
//! ```text
//! // meshlint::allow(d1): keyed lookups only; never iterated.
//! use std::collections::HashMap;
//! ```
//!
//! The directive suppresses findings of that rule on the same line and
//! on the next line, and **must** carry a non-empty reason after the
//! colon — a reasonless allow is itself reported.
//!
//! Test code is out of scope: `tests/`, `benches/`, `examples/` and
//! `fixtures/` directories are skipped wholesale, and `#[cfg(test)]`
//! modules inside source files are excised before matching.
//!
//! [`Baseline`] supports ratcheting: grandfathered findings recorded in
//! a baseline file are tolerated (and tracked for burn-down) while any
//! *new* finding fails the run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod parser;

/// The project rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in determinism-critical crates.
    D1,
    /// No wall-clock or OS entropy outside `bench`/`testkit`.
    D2,
    /// No panic paths in (or reachable from) the protocol hot files.
    R1,
    /// No bare narrowing `as` casts in determinism-critical crates.
    C1,
    /// No ungated `std::` paths in `no_std`-capable crates.
    N1,
    /// No shared-state machinery reachable from worker-evaluated
    /// regions (parallel purity).
    P1,
    /// Event insertion in shard-aware sim code must use a
    /// coordinator-issued seq.
    S1,
    /// No order-sensitive accumulation into captured state inside
    /// worker-evaluated regions.
    F1,
    /// A `meshlint::allow` directive that suppresses nothing.
    E1,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::D1,
        Rule::D2,
        Rule::R1,
        Rule::C1,
        Rule::N1,
        Rule::P1,
        Rule::S1,
        Rule::F1,
        Rule::E1,
    ];

    /// The identifier used in `meshlint::allow(<id>)` directives and
    /// baseline entries.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "d1",
            Rule::D2 => "d2",
            Rule::R1 => "r1",
            Rule::C1 => "c1",
            Rule::N1 => "n1",
            Rule::P1 => "p1",
            Rule::S1 => "s1",
            Rule::F1 => "f1",
            Rule::E1 => "e1",
        }
    }

    /// Parses a rule identifier.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        match id.trim() {
            "d1" => Some(Rule::D1),
            "d2" => Some(Rule::D2),
            "r1" => Some(Rule::R1),
            "c1" => Some(Rule::C1),
            "n1" => Some(Rule::N1),
            "p1" => Some(Rule::P1),
            "s1" => Some(Rule::S1),
            "f1" => Some(Rule::F1),
            "e1" => Some(Rule::E1),
            _ => None,
        }
    }

    /// One-line description of the invariant the rule protects.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D1 => "hashed collection in a determinism-critical crate",
            Rule::D2 => "wall clock or OS entropy outside bench/testkit",
            Rule::R1 => "panic path in (or reachable from) a protocol hot file",
            Rule::C1 => "bare narrowing `as` cast in a determinism-critical crate",
            Rule::N1 => "ungated `std::` path in a no_std-capable crate",
            Rule::P1 => "shared-state machinery reachable from a worker-evaluated region",
            Rule::S1 => "locally fabricated seq passed to a shard event-insertion method",
            Rule::F1 => "order-sensitive accumulation into captured state in a worker region",
            Rule::E1 => "stale escape: allow directive suppresses nothing",
        }
    }

    /// The suggested fix appended to every finding.
    #[must_use]
    pub fn hint(self) -> &'static str {
        match self {
            Rule::D1 => {
                "use BTreeMap/BTreeSet (deterministic iteration), or justify with \
                 // meshlint::allow(d1): <why iteration order cannot leak>"
            }
            Rule::D2 => {
                "thread simulated time (Duration/SimTime) and the seeded SimRng through \
                 instead; wall clock and OS entropy break replayability"
            }
            Rule::R1 => {
                "decode of untrusted input must return Err, never panic: use get()/try_from \
                 and propagate a CodecError"
            }
            Rule::C1 => {
                "use u16::try_from(..) / u8::try_from(..) or the checked helpers in \
                 loramesher::cast; a silent wrap corrupts addresses, lengths and seqs"
            }
            Rule::N1 => {
                "use core::/alloc:: equivalents, or gate the item behind \
                 #[cfg(feature = \"std\")] so --no-default-features keeps building"
            }
            Rule::P1 => {
                "workers must be pure evaluators: move the shared state behind the \
                 coordinator's commit step (evaluate in parallel, commit sequentially)"
            }
            Rule::S1 => {
                "take the seq from the coordinator counter (alloc_seq / schedule_at_seq / \
                 schedule_timer_seq); a fabricated seq breaks the (time, seq) shard merge"
            }
            Rule::F1 => {
                "return per-item results and reduce on the coordinator in roster order; \
                 worker-side accumulation depends on chunk boundaries (thread count)"
            }
            Rule::E1 => {
                "the code this directive excused is gone: delete the \
                 // meshlint::allow(..) comment to keep escapes honest"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at one site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Extra context for call-graph findings (the witness path, the
    /// fabricated expression, …). Empty for plain token findings.
    /// Deliberately excluded from [`Finding::baseline_key`]: the
    /// witness path may shift while the violation stays the same.
    pub detail: String,
}

impl Finding {
    /// The key under which this finding is tracked in a [`Baseline`].
    /// Line numbers are deliberately excluded so unrelated edits above a
    /// grandfathered site do not turn it into a "new" finding.
    #[must_use]
    pub fn baseline_key(&self) -> String {
        format!("{}|{}|{}", self.rule.id(), self.file, self.snippet)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}\n    {}",
            self.file,
            self.line,
            self.col,
            self.rule.id(),
            self.rule.summary(),
            self.snippet,
        )?;
        if !self.detail.is_empty() {
            write!(f, "\n    note: {}", self.detail)?;
        }
        write!(f, "\n    fix: {}", self.rule.hint())
    }
}

/// A malformed `meshlint::allow` directive (unknown rule or missing
/// reason). These always fail the run: a broken escape hatch must not
/// silently stop suppressing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectiveError {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for DirectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: bad directive: {}",
            self.file, self.line, self.message
        )
    }
}

/// What to scan and which rules apply where.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root; all reported paths are relative to it.
    pub root: PathBuf,
    /// Directories under the root to walk (default: `crates`, `src`).
    pub scan_roots: Vec<String>,
    /// Path prefixes (relative, forward slashes) excluded entirely.
    pub skip_prefixes: Vec<String>,
    /// Crate names (the directory under `crates/`) whose sources are
    /// determinism-critical: rules `d1` and `c1` apply.
    pub deterministic_crates: Vec<String>,
    /// Crate names exempt from rule `d2` (they legitimately measure
    /// wall time or host entropy).
    pub wallclock_crates: Vec<String>,
    /// Files (relative paths) forming the protocol hot path: rule `r1`.
    pub hot_path_files: Vec<String>,
    /// Crate names that must keep building with `--no-default-features`
    /// (`no_std` + `alloc`): rule `n1`.
    pub no_std_crates: Vec<String>,
    /// Names of the fork-join entry points whose final argument is a
    /// worker-evaluated region: rules `p1` and `f1` (applied in
    /// determinism-critical crates).
    pub par_entries: Vec<String>,
    /// Files (relative paths) where shard-aware event insertion lives:
    /// rule `s1` checks the seq argument of `schedule_at_seq` /
    /// `schedule_timer_seq` calls there.
    pub seq_files: Vec<String>,
}

impl Config {
    /// The configuration for this workspace.
    #[must_use]
    pub fn workspace(root: impl Into<PathBuf>) -> Self {
        Config {
            root: root.into(),
            scan_roots: vec!["crates".into(), "src".into()],
            skip_prefixes: Vec::new(),
            // meshlint self-lints: the analyzer is held to d1/d2/c1
            // like the code it polices. Its rule tables spell the
            // forbidden tokens inside string literals, which the lexer
            // masks, so self-scanning is exact rather than noisy.
            deterministic_crates: vec![
                "radio-sim".into(),
                "core".into(),
                "scenario".into(),
                "mesh-baselines".into(),
                "meshlint".into(),
            ],
            wallclock_crates: vec!["bench".into(), "testkit".into()],
            hot_path_files: vec![
                "crates/core/src/codec.rs".into(),
                "crates/core/src/packet.rs".into(),
                "crates/core/src/routing.rs".into(),
                // The layered stack sits on the frame receive/dispatch
                // path: over-the-air input flows through all of it.
                "crates/core/src/stack/mod.rs".into(),
                "crates/core/src/stack/app.rs".into(),
                "crates/core/src/stack/bus.rs".into(),
                "crates/core/src/stack/routing.rs".into(),
                // Every stack's channel access and frame emission.
                "crates/core/src/mac.rs".into(),
                "crates/core/src/stack/transport.rs".into(),
                // The flooding stack (protocol refactor PR) receives
                // over-the-air frames just like the mesh stack: its
                // dispatch, dedup cache, app codec and AES-CTR sealer
                // are all reachable from hostile input.
                "crates/core/src/flood/mod.rs".into(),
                "crates/core/src/flood/dedup.rs".into(),
                "crates/core/src/flood/message.rs".into(),
                "crates/core/src/flood/crypto.rs".into(),
                "crates/radio-sim/src/event.rs".into(),
                "crates/radio-sim/src/metrics.rs".into(),
                // Shard partitioning runs on every event-engine batch
                // decision and every mobility tick's scoped invalidation.
                "crates/radio-sim/src/shard.rs".into(),
                // The spatial grid sits under every link-cache row fill;
                // the fork-join helper hosts every worker-thread region.
                "crates/radio-sim/src/grid.rs".into(),
                "crates/radio-sim/src/par.rs".into(),
            ],
            no_std_crates: vec!["core".into(), "lora-phy".into()],
            par_entries: vec![
                "run_chunks".into(),
                "map_chunks".into(),
                // The parallel batch commit (PR 9): whole per-band
                // event batches run inside the closure, so everything
                // it reaches is held to the worker-purity contract.
                "commit_bands".into(),
            ],
            seq_files: vec![
                "crates/radio-sim/src/sim.rs".into(),
                "crates/radio-sim/src/event.rs".into(),
                "crates/radio-sim/src/shard.rs".into(),
                // Protocol stacks never mint engine seqs themselves —
                // the substrate contract (`loramesher::driver`) says
                // timers and transmissions go through the MAC. If a
                // stack ever grows a direct event-insertion call, its
                // seq must still be coordinator-issued. One entry per
                // stack the contract names: mesh, flooding, star.
                "crates/core/src/stack/mod.rs".into(),
                "crates/core/src/flood/mod.rs".into(),
                "crates/mesh-baselines/src/star.rs".into(),
            ],
        }
    }

    /// The crate name a relative path belongs to (`crates/<name>/...`),
    /// or `None` for the root package.
    fn crate_of(rel: &str) -> Option<&str> {
        rel.strip_prefix("crates/")?.split('/').next()
    }

    fn rules_for(&self, rel: &str) -> Vec<Rule> {
        let mut rules = Vec::new();
        let krate = Self::crate_of(rel);
        let deterministic = krate.is_some_and(|c| self.deterministic_crates.iter().any(|d| d == c));
        if deterministic {
            rules.push(Rule::D1);
            rules.push(Rule::C1);
        }
        let wallclock_ok = krate.is_some_and(|c| self.wallclock_crates.iter().any(|w| w == c));
        if !wallclock_ok {
            rules.push(Rule::D2);
        }
        if self.hot_path_files.iter().any(|f| f == rel) {
            rules.push(Rule::R1);
        }
        if krate.is_some_and(|c| self.no_std_crates.iter().any(|n| n == c)) {
            rules.push(Rule::N1);
        }
        rules.sort_unstable();
        rules
    }
}

/// Result of analysing one source tree.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Violations, in path → line order.
    pub findings: Vec<Finding>,
    /// Sites suppressed by a well-formed allow directive.
    pub allowed: usize,
    /// Malformed directives (always fatal).
    pub directive_errors: Vec<DirectiveError>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// One scanned file: everything the line rules and graph rules need.
struct FileScan {
    rel: String,
    krate: String,
    stem: String,
    source_lines: Vec<String>,
    masked: Masked,
    masked_lines: Vec<String>,
    lines_index: parser::Lines,
    test_lines: std::collections::BTreeSet<usize>,
    std_gated: std::collections::BTreeSet<usize>,
    rules: Vec<Rule>,
    parsed: parser::ParsedFile,
    /// Parallel to `masked.allows`: whether each directive suppressed
    /// anything. Stale ones become `e1` findings.
    allow_used: Vec<bool>,
    hot: bool,
}

impl FileScan {
    fn new(cfg: &Config, rel: &str, source: &str) -> FileScan {
        let rules = cfg.rules_for(rel);
        let masked = mask(source);
        let test_lines = test_region_lines(&masked.text);
        // Gated regions are found on the raw source: masking blanks
        // the `"std"` literal inside the attribute.
        let std_gated = if rules.contains(&Rule::N1) {
            cfg_std_region_lines(source)
        } else {
            std::collections::BTreeSet::new()
        };
        let parsed = parser::parse(&masked.text, &cfg.par_entries);
        let allow_used = vec![false; masked.allows.len()];
        let stem = file_stem(rel);
        FileScan {
            rel: rel.to_string(),
            krate: Config::crate_of(rel).unwrap_or("").to_string(),
            stem,
            source_lines: source.lines().map(str::to_string).collect(),
            masked_lines: masked.text.lines().map(str::to_string).collect(),
            lines_index: parser::Lines::new(&masked.text),
            masked,
            test_lines,
            std_gated,
            rules,
            parsed,
            allow_used,
            hot: cfg.hot_path_files.iter().any(|f| f == rel),
        }
    }

    fn source_line(&self, line_no: usize) -> &str {
        self.source_lines
            .get(line_no.wrapping_sub(1))
            .map_or("", String::as_str)
    }

    fn masked_line(&self, line_no: usize) -> &str {
        self.masked_lines
            .get(line_no.wrapping_sub(1))
            .map_or("", String::as_str)
    }

    /// Indices into `masked.allows` covering `rule` at `line`.
    fn allow_indices(&self, rule: Rule, line: usize) -> Vec<usize> {
        self.masked
            .allows
            .iter()
            .enumerate()
            .filter(|&(_, &(l, r))| r == rule && (l == line || l + 1 == line))
            .map(|(i, _)| i)
            .collect()
    }

    /// If an allow covers `rule` at `line`, marks it used.
    fn use_allow(&mut self, rule: Rule, line: usize) -> bool {
        let idxs = self.allow_indices(rule, line);
        for &i in &idxs {
            self.allow_used[i] = true;
        }
        !idxs.is_empty()
    }
}

/// The file stem used for `path::fn()` resolution: `mod.rs` files take
/// their parent directory's name.
fn file_stem(rel: &str) -> String {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    let stem = base.strip_suffix(".rs").unwrap_or(base);
    if stem == "mod" {
        let mut parts: Vec<&str> = rel.split('/').collect();
        parts.pop();
        parts.pop().unwrap_or(stem).to_string()
    } else {
        stem.to_string()
    }
}

/// Walks the configured tree and applies every rule: the per-line
/// token rules first, then the call-graph rules (`r1`-transitive,
/// `p1`, `s1`, `f1`), then stale-escape detection (`e1`).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directory or file).
pub fn analyze(cfg: &Config) -> io::Result<Analysis> {
    let mut files = Vec::new();
    for scan_root in &cfg.scan_roots {
        let dir = cfg.root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut analysis = Analysis::default();
    let mut scans = Vec::new();
    for path in files {
        let rel = relative_slash_path(&cfg.root, &path);
        if cfg
            .skip_prefixes
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
        {
            continue;
        }
        let source = fs::read_to_string(&path)?;
        let scan = FileScan::new(cfg, &rel, &source);
        for err in &scan.masked.directive_errors {
            analysis.directive_errors.push(DirectiveError {
                file: rel.clone(),
                line: err.0,
                message: err.1.clone(),
            });
        }
        scans.push(scan);
        analysis.files_scanned += 1;
    }
    for scan in &mut scans {
        line_rules(scan, &mut analysis);
    }
    graph_rules(cfg, &mut scans, &mut analysis);
    stale_escapes(&scans, &mut analysis);
    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(analysis)
}

/// Analyses a single file's source text with the per-line token rules
/// (the pure core, used directly by the fixture tests). Call-graph
/// rules need the whole workspace and only run under [`analyze`].
/// Appends to `out`.
pub fn analyze_source(cfg: &Config, rel: &str, source: &str, out: &mut Analysis) {
    let mut scan = FileScan::new(cfg, rel, source);
    for err in &scan.masked.directive_errors {
        out.directive_errors.push(DirectiveError {
            file: rel.to_string(),
            line: err.0,
            message: err.1.clone(),
        });
    }
    line_rules(&mut scan, out);
}

/// Applies the per-line token rules to one file.
fn line_rules(scan: &mut FileScan, out: &mut Analysis) {
    if scan.rules.is_empty() {
        return;
    }
    for idx in 0..scan.masked_lines.len() {
        let line_no = idx + 1;
        if scan.test_lines.contains(&line_no) {
            continue;
        }
        for rule in scan.rules.clone() {
            if rule == Rule::N1 && scan.std_gated.contains(&line_no) {
                continue;
            }
            for col in match_rule(rule, &scan.masked_lines[idx]) {
                if scan.use_allow(rule, line_no) {
                    out.allowed += 1;
                    continue;
                }
                out.findings.push(Finding {
                    rule,
                    file: scan.rel.clone(),
                    line: line_no,
                    col,
                    snippet: snippet_of(&scan.source_lines[idx]),
                    detail: String::new(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Call-graph rules: r1-transitive, p1, s1, f1, and stale escapes (e1)
// ---------------------------------------------------------------------

/// Builds the workspace call graph and applies the semantic rules.
fn graph_rules(cfg: &Config, scans: &mut [FileScan], out: &mut Analysis) {
    let deps = callgraph::CrateDeps::load(&cfg.root);
    let entries: Vec<callgraph::Entry> = scans
        .iter()
        .map(|s| callgraph::Entry {
            rel: s.rel.clone(),
            krate: s.krate.clone(),
            stem: s.stem.clone(),
            parsed: s.parsed.clone(),
            test_fn: s
                .parsed
                .fns
                .iter()
                .map(|f| s.test_lines.contains(&f.sig_line))
                .collect(),
        })
        .collect();
    let graph = callgraph::Graph::build(entries, &deps);
    rule_r1_transitive(scans, &graph, out);
    rule_p1(cfg, scans, &graph, &deps, out);
    rule_s1(cfg, scans, out);
    rule_f1(cfg, scans, out);
}

/// Matcher hits inside one fn's body, split into live sites and the
/// allow-directive indices that suppressed the rest. The allows are
/// *conditional*: they only count as used if the fn turns out to be
/// reachable from code the rule applies to.
fn body_sites(
    scan: &FileScan,
    f: &parser::FnDef,
    rule: Rule,
    matcher: &dyn Fn(&str) -> Vec<usize>,
) -> (Vec<(usize, usize)>, Vec<usize>) {
    let Some(body) = f.body else {
        return (Vec::new(), Vec::new());
    };
    let (lo, hi) = scan.lines_index.line_range(body);
    let mut sites = Vec::new();
    let mut allows = Vec::new();
    for line_no in lo..=hi {
        if scan.test_lines.contains(&line_no) {
            continue;
        }
        for col in matcher(scan.masked_line(line_no)) {
            let idxs = scan.allow_indices(rule, line_no);
            if idxs.is_empty() {
                sites.push((line_no, col));
            } else {
                allows.extend(idxs);
            }
        }
    }
    (sites, allows)
}

/// `r1`-transitive: a hot-file fn must not reach a panicking helper,
/// however many crates away. Panic sites *in* hot files are reported
/// directly by the line rules; this pass only chases calls that leave
/// the hot set, anchoring each finding at the call site where they do.
fn rule_r1_transitive(scans: &mut [FileScan], graph: &callgraph::Graph, out: &mut Analysis) {
    let mut panicky: BTreeMap<callgraph::FnId, (usize, usize)> = BTreeMap::new();
    let mut cond_allows: BTreeMap<callgraph::FnId, Vec<usize>> = BTreeMap::new();
    let mut roots = Vec::new();
    for (fi, scan) in scans.iter().enumerate() {
        for (ni, f) in scan.parsed.fns.iter().enumerate() {
            if scan.test_lines.contains(&f.sig_line) {
                continue;
            }
            if scan.hot {
                roots.push((fi, ni));
                continue;
            }
            let (sites, allows) = body_sites(scan, f, Rule::R1, &|l| match_rule(Rule::R1, l));
            if let Some(&site) = sites.first() {
                panicky.insert((fi, ni), site);
            }
            if !allows.is_empty() {
                cond_allows.insert((fi, ni), allows);
            }
        }
    }
    if roots.is_empty() {
        return;
    }
    let parents = graph.reach(&roots);
    for (id, idxs) in &cond_allows {
        if parents.contains_key(id) {
            for &ai in idxs {
                scans[id.0].allow_used[ai] = true;
            }
        }
    }
    let mut seen = BTreeSet::new();
    for &id in parents.keys() {
        let Some(&(pline, _)) = panicky.get(&id) else {
            continue;
        };
        let path = graph.path_to(&parents, id);
        // The anchor: the first edge that leaves the hot set.
        let mut anchor = None;
        for (k, &((afi, ani), ci)) in path.iter().enumerate() {
            let callee_file = if k + 1 < path.len() {
                path[k + 1].0 .0
            } else {
                id.0
            };
            if scans[afi].hot && !scans[callee_file].hot {
                anchor = Some((k, (afi, ani), ci));
                break;
            }
        }
        let Some((k, (afi, ani), ci)) = anchor else {
            continue;
        };
        let call = scans[afi].parsed.fns[ani].calls[ci].clone();
        if !seen.insert((afi, call.line, call.col, id)) {
            continue;
        }
        if scans[afi].use_allow(Rule::R1, call.line) {
            out.allowed += 1;
            continue;
        }
        let chain: Vec<String> = path[k..]
            .iter()
            .map(|&((cfi, cni), cci)| scans[cfi].parsed.fns[cni].calls[cci].name.clone())
            .collect();
        let detail = format!(
            "reaches {}; panic site {}:{}: {}",
            chain.join(" -> "),
            scans[id.0].rel,
            pline,
            snippet_of(scans[id.0].source_line(pline)),
        );
        let snippet = snippet_of(scans[afi].source_line(call.line));
        out.findings.push(Finding {
            rule: Rule::R1,
            file: scans[afi].rel.clone(),
            line: call.line,
            col: call.col,
            snippet,
            detail,
        });
    }
}

/// `p1`: code reachable from a worker-evaluated region must not touch
/// shared-state machinery — workers evaluate, the coordinator commits.
fn rule_p1(
    cfg: &Config,
    scans: &mut [FileScan],
    graph: &callgraph::Graph,
    deps: &callgraph::CrateDeps,
    out: &mut Analysis,
) {
    let mut impure: BTreeMap<callgraph::FnId, usize> = BTreeMap::new();
    let mut cond_allows: BTreeMap<callgraph::FnId, Vec<usize>> = BTreeMap::new();
    for (fi, scan) in scans.iter().enumerate() {
        for (ni, f) in scan.parsed.fns.iter().enumerate() {
            if scan.test_lines.contains(&f.sig_line) {
                continue;
            }
            let (sites, allows) = body_sites(scan, f, Rule::P1, &impurity_cols);
            if let Some(&(line, _)) = sites.first() {
                impure.insert((fi, ni), line);
            }
            if !allows.is_empty() {
                cond_allows.insert((fi, ni), allows);
            }
        }
    }
    for fi in 0..scans.len() {
        let krate = scans[fi].krate.clone();
        if !cfg.deterministic_crates.contains(&krate) {
            continue;
        }
        let regions = scans[fi].parsed.regions.clone();
        for region in regions {
            // Direct hits on the region's own lines.
            let (lo, hi) = scans[fi].lines_index.line_range(region.body);
            for line_no in lo..=hi {
                if scans[fi].test_lines.contains(&line_no) {
                    continue;
                }
                let ml = scans[fi].masked_line(line_no).to_string();
                for col in impurity_cols(&ml) {
                    if scans[fi].use_allow(Rule::P1, line_no) {
                        out.allowed += 1;
                        continue;
                    }
                    let snippet = snippet_of(scans[fi].source_line(line_no));
                    out.findings.push(Finding {
                        rule: Rule::P1,
                        file: scans[fi].rel.clone(),
                        line: line_no,
                        col,
                        snippet,
                        detail: format!("inside worker region entered at line {}", region.line),
                    });
                }
            }
            // Transitive hits through the calls the region makes.
            let mut roots = Vec::new();
            let mut origin: BTreeMap<callgraph::FnId, (usize, usize)> = BTreeMap::new();
            for ((_, ni), ci) in graph.calls_in_span(fi, region.body) {
                let call = scans[fi].parsed.fns[ni].calls[ci].clone();
                for &t in graph.targets(fi, ni, ci) {
                    origin.entry(t).or_insert((call.line, call.col));
                    roots.push(t);
                }
            }
            if roots.is_empty() {
                // Function-path form: `par::map_chunks(t, items, helper)`.
                if let Some((name, qual)) = region_path_target(&scans[fi].masked.text, region.body)
                {
                    for id in graph.resolve(fi, &name, qual.as_deref(), false, None, deps) {
                        origin.entry(id).or_insert((region.line, 1));
                        roots.push(id);
                    }
                }
            }
            if roots.is_empty() {
                continue;
            }
            let parents = graph.reach(&roots);
            for (id, idxs) in &cond_allows {
                if parents.contains_key(id) {
                    for &ai in idxs {
                        scans[id.0].allow_used[ai] = true;
                    }
                }
            }
            let mut seen = BTreeSet::new();
            for &id in parents.keys() {
                let Some(&iline) = impure.get(&id) else {
                    continue;
                };
                let path = graph.path_to(&parents, id);
                let root = path.first().map_or(id, |&(caller, _)| caller);
                let &(oline, ocol) = origin.get(&root).unwrap_or(&(region.line, 1));
                if !seen.insert((oline, ocol, id)) {
                    continue;
                }
                if scans[fi].use_allow(Rule::P1, oline) {
                    out.allowed += 1;
                    continue;
                }
                let mut chain = vec![scans[root.0].parsed.fns[root.1].name.clone()];
                for &((cfi, cni), cci) in &path {
                    chain.push(scans[cfi].parsed.fns[cni].calls[cci].name.clone());
                }
                let detail = format!(
                    "worker region (line {}) reaches {}; shared-state token at {}:{}: {}",
                    region.line,
                    chain.join(" -> "),
                    scans[id.0].rel,
                    iline,
                    snippet_of(scans[id.0].source_line(iline)),
                );
                let snippet = snippet_of(scans[fi].source_line(oline));
                out.findings.push(Finding {
                    rule: Rule::P1,
                    file: scans[fi].rel.clone(),
                    line: oline,
                    col: ocol,
                    snippet,
                    detail,
                });
            }
        }
    }
}

/// The `name`/`qual` of a region whose body is a bare function path
/// rather than a closure.
fn region_path_target(masked: &str, span: parser::Span) -> Option<(String, Option<String>)> {
    let text = masked.get(span.start..span.end)?.trim();
    if text.is_empty()
        || !text
            .bytes()
            .all(|b| is_ident_byte(b) || b == b':' || b.is_ascii_whitespace())
    {
        return None;
    }
    let segs: Vec<&str> = text.split("::").map(str::trim).collect();
    let name = (*segs.last()?).to_string();
    if name.is_empty() || name.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
        return None;
    }
    let qual = if segs.len() >= 2 {
        Some(segs[segs.len() - 2].to_string())
    } else {
        None
    };
    Some((name, qual))
}

/// `s1`: in shard-aware sim files, the seq handed to
/// `schedule_at_seq`/`schedule_timer_seq` must be a plain binding or a
/// direct `alloc_seq()` draw — never a literal, arithmetic, or a field
/// read (a locally fabricated counter).
fn rule_s1(cfg: &Config, scans: &mut [FileScan], out: &mut Analysis) {
    for scan in scans.iter_mut() {
        if !cfg.seq_files.contains(&scan.rel) {
            continue;
        }
        let masked_text = scan.masked.text.clone();
        let fns = scan.parsed.fns.clone();
        for f in &fns {
            if scan.test_lines.contains(&f.sig_line) {
                continue;
            }
            for call in &f.calls {
                if call.name != "schedule_at_seq" && call.name != "schedule_timer_seq" {
                    continue;
                }
                if scan.test_lines.contains(&call.line) {
                    continue;
                }
                let args = parser::call_args(&masked_text, call.open);
                let Some(seq) = args.get(1) else {
                    continue;
                };
                let text = normalize_ws(masked_text.get(seq.start..seq.end).unwrap_or(""));
                if seq_arg_ok(&text) {
                    continue;
                }
                if scan.use_allow(Rule::S1, call.line) {
                    out.allowed += 1;
                    continue;
                }
                let snippet = snippet_of(scan.source_line(call.line));
                out.findings.push(Finding {
                    rule: Rule::S1,
                    file: scan.rel.clone(),
                    line: call.line,
                    col: call.col,
                    snippet,
                    detail: format!("seq argument `{text}` is not a coordinator-issued seq"),
                });
            }
        }
    }
}

fn normalize_ws(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Whether a seq argument is acceptable: a plain identifier (a binding
/// whose provenance the differential tests cover) or an expression
/// ending in a direct `alloc_seq()` draw from the coordinator counter.
fn seq_arg_ok(text: &str) -> bool {
    let t = text.trim();
    let bytes = t.as_bytes();
    let ident = !t.is_empty()
        && (bytes[0].is_ascii_alphabetic() || bytes[0] == b'_')
        && bytes.iter().all(|&b| is_ident_byte(b));
    ident || t.ends_with("alloc_seq()")
}

/// `f1`: compound accumulation (`+=`/`-=`/`*=`) inside a worker region
/// whose left-hand side is captured from outside the region. Per-item
/// math on region-local bindings is fine; captured accumulators make
/// the result depend on chunk boundaries, i.e. on the thread count.
fn rule_f1(cfg: &Config, scans: &mut [FileScan], out: &mut Analysis) {
    for scan in scans.iter_mut() {
        if !cfg.deterministic_crates.contains(&scan.krate) {
            continue;
        }
        let regions = scan.parsed.regions.clone();
        for region in regions {
            let (lo, hi) = scan.lines_index.line_range(region.body);
            let region_lines: Vec<String> =
                (lo..=hi).map(|l| scan.masked_line(l).to_string()).collect();
            let bound = region_bound_idents(&region_lines);
            for (off, ml) in region_lines.iter().enumerate() {
                let line_no = lo + off;
                if scan.test_lines.contains(&line_no) {
                    continue;
                }
                for (col, base) in captured_accum_sites(ml, &bound) {
                    if scan.use_allow(Rule::F1, line_no) {
                        out.allowed += 1;
                        continue;
                    }
                    let snippet = snippet_of(scan.source_line(line_no));
                    out.findings.push(Finding {
                        rule: Rule::F1,
                        file: scan.rel.clone(),
                        line: line_no,
                        col,
                        snippet,
                        detail: format!(
                            "`{base}` is captured from outside the worker region entered at \
                             line {}",
                            region.line
                        ),
                    });
                }
            }
        }
    }
}

/// Identifiers bound *inside* a region: closure parameters on the
/// first line, `let` bindings (pattern idents up to `=`) and `for`
/// loop bindings (idents up to `in`). Over-collecting here only makes
/// `f1` more conservative.
fn region_bound_idents(lines: &[String]) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    let collect_idents = |text: &str, bound: &mut BTreeSet<String>| {
        let bytes = text.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            if is_ident_byte(bytes[i]) && !bytes[i].is_ascii_digit() {
                let s = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                let word = &text[s..i];
                if word != "mut" && word != "ref" {
                    bound.insert(word.to_string());
                }
            } else {
                i += 1;
            }
        }
    };
    for (idx, line) in lines.iter().enumerate() {
        if idx == 0 {
            // Closure parameters: `|a, &mut b| { ..` on the entry line.
            if let Some(a) = line.find('|') {
                if let Some(b_rel) = line[a + 1..].find('|') {
                    collect_idents(&line[a + 1..a + 1 + b_rel], &mut bound);
                }
            }
        }
        for col in word_matches(line, "let") {
            let after = &line[col - 1 + 3..];
            let upto = after.find('=').map_or(after, |e| &after[..e]);
            collect_idents(upto, &mut bound);
        }
        for col in word_matches(line, "for") {
            let after = &line[col - 1 + 3..];
            let upto = after.find(" in ").map_or(after, |e| &after[..e]);
            collect_idents(upto, &mut bound);
        }
    }
    bound
}

/// `(column, base identifier)` of compound assignments on the line
/// whose receiver chain starts at an identifier not in `bound`.
fn captured_accum_sites(line: &str, bound: &BTreeSet<String>) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for op in ["+=", "-=", "*="] {
        let mut from = 0usize;
        while let Some(pos) = find_from(line, op, from) {
            from = pos + op.len();
            let Some(base) = lvalue_base(line, pos) else {
                continue;
            };
            if base != "_" && !bound.contains(&base) {
                out.push((pos + 1, base));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The leftmost identifier of the lvalue ending just before `op_pos`
/// (`self.stats[i].total` → `self`). `None` when the expression spans
/// lines or is not an identifier chain.
fn lvalue_base(line: &str, op_pos: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut p = op_pos;
    while p > 0 && bytes[p - 1].is_ascii_whitespace() {
        p -= 1;
    }
    let mut base = None;
    loop {
        loop {
            match bytes.get(p.wrapping_sub(1)) {
                Some(&b')') => p = match_back_line(bytes, p - 1, b'(', b')')?,
                Some(&b']') => p = match_back_line(bytes, p - 1, b'[', b']')?,
                _ => break,
            }
        }
        if p == 0 || !is_ident_byte(bytes[p - 1]) {
            break;
        }
        let mut s = p;
        while s > 0 && is_ident_byte(bytes[s - 1]) {
            s -= 1;
        }
        base = Some(line[s..p].to_string());
        let mut q = s;
        while q > 0 && bytes[q - 1].is_ascii_whitespace() {
            q -= 1;
        }
        if q >= 1 && bytes[q - 1] == b'.' {
            p = q - 1;
        } else if q >= 2 && &bytes[q - 2..q] == b"::" {
            p = q - 2;
        } else {
            break;
        }
    }
    base
}

/// Like the parser's group matcher but line-local: `None` when the
/// group opens on an earlier line.
fn match_back_line(bytes: &[u8], close_at: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = close_at;
    loop {
        if bytes[j] == close {
            depth += 1;
        } else if bytes[j] == open {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

/// Shared-state tokens forbidden in worker-reachable code.
fn impurity_cols(line: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    for needle in [
        "Mutex",
        "RwLock",
        "RefCell",
        "UnsafeCell",
        "OnceLock",
        "OnceCell",
        "LazyLock",
        "thread_local",
        "transmute",
        "static mut",
        "unsafe",
        "Cell",
        // Coordinator-only simulator state (PR 9): workers inside a
        // `commit_bands` region must never mint global sequence numbers
        // or write the live trace — both are merged by the coordinator
        // in `(time, seq)` order after the batch.
        "alloc_seq",
        "Trace",
    ] {
        cols.extend(word_matches(line, needle));
    }
    // `Atomic*` is an identifier prefix (AtomicUsize, AtomicBool, ..).
    let mut from = 0usize;
    while let Some(pos) = find_from(line, "Atomic", from) {
        if pos == 0 || !is_ident_byte(line.as_bytes()[pos - 1]) {
            cols.push(pos + 1);
        }
        from = pos + "Atomic".len();
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// `e1`: every allow directive that suppressed nothing is itself a
/// finding, so escapes cannot outlive the code they excused.
fn stale_escapes(scans: &[FileScan], out: &mut Analysis) {
    for scan in scans {
        for (ai, &(line, rule)) in scan.masked.allows.iter().enumerate() {
            if scan.allow_used[ai] {
                continue;
            }
            out.findings.push(Finding {
                rule: Rule::E1,
                file: scan.rel.clone(),
                line,
                col: 1,
                snippet: snippet_of(scan.source_line(line)),
                detail: format!("allow({}) no longer suppresses any finding here", rule.id()),
            });
        }
    }
}

fn snippet_of(line: &str) -> String {
    let trimmed = line.trim();
    if trimmed.len() > 120 {
        let mut cut = 120;
        while !trimmed.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &trimmed[..cut])
    } else {
        trimmed.to_string()
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    const SKIP_DIRS: [&str; 5] = ["target", "tests", "benches", "examples", "fixtures"];
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

// ---------------------------------------------------------------------
// Lexing: masking comments and literals, extracting allow directives
// ---------------------------------------------------------------------

/// A source file with comments, string literals and char literals
/// blanked out (newlines preserved), plus the allow directives and
/// directive errors found in the comments.
struct Masked {
    text: String,
    /// `(line, rule)` pairs: rule findings on `line` or `line + 1` are
    /// suppressed.
    allows: Vec<(usize, Rule)>,
    /// `(line, message)` for malformed directives.
    directive_errors: Vec<(usize, String)>,
}

impl Masked {
    /// Rule-level suppression check (analysis paths track usage via
    /// [`FileScan::use_allow`] instead; this stays for the lexer tests).
    #[cfg(test)]
    fn is_allowed(&self, rule: Rule, line: usize) -> bool {
        self.allows
            .iter()
            .any(|&(l, r)| r == rule && (l == line || l + 1 == line))
    }
}

/// Blanks every byte of comments and string/char literals (except
/// newlines) so the rule matchers can scan raw text without false hits,
/// while collecting `meshlint::allow` directives from the comments.
fn mask(source: &str) -> Masked {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut allows = Vec::new();
    let mut errors = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in out.iter_mut().take(to).skip(from) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = memchr_newline(bytes, i);
                // Doc comments (`///`, `//!`) are prose — a directive
                // quoted in documentation must not take effect (or be
                // reported stale).
                let doc = matches!(bytes.get(i + 2), Some(&b'/') | Some(&b'!'));
                if !doc {
                    parse_directive(source, i, end, line, &mut allows, &mut errors);
                }
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                // Keep the delimiters so `""` stays lexically a string.
                blank(&mut out, start + 1, i.saturating_sub(1));
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                // r"...", r#"..."#, br"...", rb#"..."# etc.
                let start = i;
                while i < bytes.len() && (bytes[i] == b'r' || bytes[i] == b'b') {
                    i += 1;
                }
                let mut hashes = 0usize;
                while bytes.get(i) == Some(&b'#') {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                loop {
                    match bytes.get(i) {
                        None => break,
                        Some(b'\n') => {
                            line += 1;
                            i += 1;
                        }
                        Some(b'"') if closing_hashes(bytes, i + 1) >= hashes => {
                            i += 1 + hashes;
                            break;
                        }
                        Some(_) => i += 1,
                    }
                }
                blank(&mut out, start, i);
            }
            b'\'' => {
                // Char literal vs lifetime: a lifetime is `'` followed by
                // an identifier NOT terminated by a closing `'`.
                let next = bytes.get(i + 1).copied();
                let is_lifetime = next.is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
                    && bytes.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    i += 2;
                } else {
                    let start = i;
                    i += 1;
                    if bytes.get(i) == Some(&b'\\') {
                        i += 2; // escaped char
                                // \x41, \u{...}
                        while i < bytes.len() && bytes[i] != b'\'' {
                            i += 1;
                        }
                    } else {
                        // Possibly multibyte; advance to the closing quote.
                        while i < bytes.len() && bytes[i] != b'\'' && bytes[i] != b'\n' {
                            i += 1;
                        }
                    }
                    if bytes.get(i) == Some(&b'\'') {
                        i += 1;
                    }
                    blank(&mut out, start, i);
                }
            }
            _ => i += 1,
        }
    }

    Masked {
        text: String::from_utf8(out).unwrap_or_default(),
        allows,
        directive_errors: errors,
    }
}

fn memchr_newline(bytes: &[u8], from: usize) -> usize {
    bytes
        .iter()
        .skip(from)
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| from + p)
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // Only treat r/b prefixes as raw strings when not part of a longer
    // identifier (e.g. `for` ends in 'r').
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') && j - i < 2 {
        j += 1;
    }
    if j == i {
        return false;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"') && bytes.get(i).is_some_and(|&c| c == b'r' || c == b'b') && {
        // Require an actual `r` in the prefix unless it is `b"..."`.
        let prefix = &bytes[i..j];
        prefix.contains(&b'r') || prefix == b"b"
    }
}

fn closing_hashes(bytes: &[u8], from: usize) -> usize {
    bytes.iter().skip(from).take_while(|&&b| b == b'#').count()
}

/// Parses a `meshlint::allow(<rule>): <reason>` directive out of a line
/// comment spanning `bytes[start..end)`.
fn parse_directive(
    source: &str,
    start: usize,
    end: usize,
    line: usize,
    allows: &mut Vec<(usize, Rule)>,
    errors: &mut Vec<(usize, String)>,
) {
    let comment = source.get(start..end).unwrap_or("");
    let Some(pos) = comment.find("meshlint::allow") else {
        return;
    };
    let rest = comment.get(pos + "meshlint::allow".len()..).unwrap_or("");
    let Some(open) = rest.find('(') else {
        errors.push((line, "expected `(<rule>)` after meshlint::allow".into()));
        return;
    };
    let Some(close) = rest.find(')') else {
        errors.push((line, "unclosed `(` in meshlint::allow".into()));
        return;
    };
    let ids = rest.get(open + 1..close).unwrap_or("");
    let after = rest.get(close + 1..).unwrap_or("").trim_start();
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if reason.is_empty() {
        errors.push((
            line,
            "meshlint::allow requires a written reason: `// meshlint::allow(<rule>): <why>`".into(),
        ));
        return;
    }
    for id in ids.split(',') {
        match Rule::from_id(id) {
            Some(Rule::E1) => errors.push((
                line,
                "e1 (stale escape) cannot be allowed: delete the stale directive instead".into(),
            )),
            Some(rule) => allows.push((line, rule)),
            None => errors.push((line, format!("unknown rule '{}'", id.trim()))),
        }
    }
}

/// Lines (1-based) covered by `#[cfg(test)] mod … { … }` regions in the
/// masked text.
fn test_region_lines(masked: &str) -> std::collections::BTreeSet<usize> {
    let bytes = masked.as_bytes();
    let mut lines = std::collections::BTreeSet::new();
    let mut search_from = 0usize;
    while let Some(found) = find_from(masked, "#[cfg(test)]", search_from) {
        let attr_end = found + "#[cfg(test)]".len();
        search_from = attr_end;
        // Skip whitespace and further attributes, then require `mod`.
        let mut j = attr_end;
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') {
                // Skip a bracketed attribute.
                while j < bytes.len() && bytes[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        if !masked.get(j..).is_some_and(|r| r.starts_with("mod")) {
            continue; // cfg(test) on something other than a module
        }
        let Some(open_rel) = masked.get(j..).and_then(|r| r.find('{')) else {
            continue;
        };
        let open = j + open_rel;
        let mut depth = 0i64;
        let mut k = open;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let first_line = line_of(bytes, found);
        let last_line = line_of(bytes, k.min(bytes.len().saturating_sub(1)));
        for l in first_line..=last_line {
            lines.insert(l);
        }
        search_from = k;
    }
    lines
}

/// Lines (1-based) covered by items gated behind `#[cfg(feature =
/// "std")]` in the *raw* source (masking would blank the `"std"`
/// literal). Covers the attribute through the end of the item: the
/// matching `}` of its first brace block, or the terminating `;` for
/// brace-less items (`use`, type aliases, gated re-exports).
fn cfg_std_region_lines(source: &str) -> std::collections::BTreeSet<usize> {
    const ATTR: &str = "#[cfg(feature = \"std\")]";
    let bytes = source.as_bytes();
    let mut lines = std::collections::BTreeSet::new();
    let mut search_from = 0usize;
    while let Some(found) = find_from(source, ATTR, search_from) {
        search_from = found + ATTR.len();
        // Skip whitespace and further attributes to the item itself.
        let mut j = search_from;
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') {
                while j < bytes.len() && bytes[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        // Find the end of the item: a `;` before any `{`, or the
        // matching close of the first brace block.
        let mut k = j;
        let mut depth = 0i64;
        let mut entered = false;
        while k < bytes.len() {
            match bytes[k] {
                b';' if !entered => break,
                b'{' => {
                    depth += 1;
                    entered = true;
                }
                b'}' => {
                    depth -= 1;
                    if entered && depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let first_line = line_of(bytes, found);
        let last_line = line_of(bytes, k.min(bytes.len().saturating_sub(1)));
        for l in first_line..=last_line {
            lines.insert(l);
        }
        search_from = k.max(search_from);
    }
    lines
}

fn find_from(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    haystack.get(from..)?.find(needle).map(|p| from + p)
}

fn line_of(bytes: &[u8], pos: usize) -> usize {
    1 + bytes.iter().take(pos).filter(|&&b| b == b'\n').count()
}

// ---------------------------------------------------------------------
// Rule matchers
// ---------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `text[pos..pos+len]` sits on identifier boundaries.
fn on_boundary(text: &str, pos: usize, len: usize) -> bool {
    let bytes = text.as_bytes();
    let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
    let after_ok = pos + len >= bytes.len() || !is_ident_byte(bytes[pos + len]);
    before_ok && after_ok
}

/// All boundary-respecting occurrences of `needle` in `line`, as
/// 1-based columns.
fn word_matches(line: &str, needle: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_from(line, needle, from) {
        if on_boundary(line, pos, needle.len()) {
            cols.push(pos + 1);
        }
        from = pos + needle.len();
    }
    cols
}

/// Columns (1-based) where `rule` fires on one masked line.
fn match_rule(rule: Rule, line: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    match rule {
        Rule::D1 => {
            cols.extend(word_matches(line, "HashMap"));
            cols.extend(word_matches(line, "HashSet"));
        }
        Rule::D2 => {
            cols.extend(word_matches(line, "Instant"));
            cols.extend(word_matches(line, "SystemTime"));
            cols.extend(word_matches(line, "thread_rng"));
        }
        Rule::R1 => {
            // Method-call forms: the char before `.` is part of the
            // receiver, so plain substring search is exact.
            for needle in [".unwrap()", ".expect("] {
                let mut from = 0usize;
                while let Some(pos) = find_from(line, needle, from) {
                    cols.push(pos + 1);
                    from = pos + needle.len();
                }
            }
            // Macro forms need identifier boundaries so `debug_assert!`
            // (compiled out in release, permitted) does not match
            // `assert!`.
            for needle in [
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
                "assert!",
                "assert_eq!",
                "assert_ne!",
            ] {
                cols.extend(word_matches(line, needle));
            }
            cols.extend(index_expr_cols(line));
        }
        Rule::C1 => {
            for needle in ["as u8", "as u16", "as i8", "as i16"] {
                for col in word_matches(line, needle) {
                    // Require the keyword form ` as u16`, not an
                    // identifier that happens to end with "as".
                    let before = line.as_bytes().get(col.wrapping_sub(2)).copied();
                    if before.is_none() || before == Some(b' ') || before == Some(b'(') {
                        cols.push(col);
                    }
                }
            }
        }
        Rule::N1 => {
            // `std::` as a path segment: `use std::…`, `std::vec::Vec`,
            // `::std::…` — but not `my_std::`.
            let mut from = 0usize;
            while let Some(pos) = find_from(line, "std::", from) {
                if pos == 0 || !is_ident_byte(line.as_bytes()[pos - 1]) {
                    cols.push(pos + 1);
                }
                from = pos + "std::".len();
            }
        }
        // These rules are semantic, not per-line: `p1`/`s1`/`f1` run on
        // the call graph and the parse tree, `e1` on directive usage.
        Rule::P1 | Rule::S1 | Rule::F1 | Rule::E1 => {}
    }
    cols.sort_unstable();
    cols
}

/// Columns of `[` tokens that open an *index expression*: the previous
/// non-space character is an identifier character, `)`, or `]` — i.e.
/// `frame[0]`, `f()[1]`, `m[a][b]` — as opposed to array literals,
/// types, attributes (`#[...]`) and macro brackets (`vec![...]`).
fn index_expr_cols(line: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut cols = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let Some(j) = bytes.iter().take(i).rposition(|&c| c != b' ') else {
            continue;
        };
        let p = bytes[j];
        if !(is_ident_byte(p) || p == b')' || p == b']') {
            continue;
        }
        // `&'a [u8]`: an identifier that is really a lifetime name — walk
        // to its start and check for a leading tick. Keywords (`&mut
        // [T]`, `dyn [..]`, the slice pattern of `if let [a, b] = ..`)
        // are never the receiver of an index expression.
        if is_ident_byte(p) {
            let mut s = j;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            if s > 0 && bytes[s - 1] == b'\'' {
                continue;
            }
            if matches!(&bytes[s..=j], b"mut" | b"dyn" | b"in" | b"let") {
                continue;
            }
        }
        cols.push(i + 1);
    }
    cols
}

// ---------------------------------------------------------------------
// Baseline ratcheting
// ---------------------------------------------------------------------

/// Grandfathered findings: a multiset of [`Finding::baseline_key`]s.
///
/// New findings (beyond the baselined count per key) fail the run;
/// baselined ones are tracked so the debt is visible and can only burn
/// down (stale entries are reported for removal).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<String, usize>,
}

/// How an analysis compares against a baseline.
#[derive(Clone, Debug, Default)]
pub struct Ratchet {
    /// Findings not covered by the baseline — these fail the run.
    pub new: Vec<Finding>,
    /// Findings tolerated because the baseline grandfathers them.
    pub grandfathered: Vec<Finding>,
    /// Baseline entries no longer observed: `(key, count)` pairs that
    /// should be deleted to lock in the progress.
    pub stale: Vec<(String, usize)>,
}

impl Baseline {
    /// An empty baseline: every finding is new.
    #[must_use]
    pub fn empty() -> Self {
        Baseline::default()
    }

    /// Builds a baseline grandfathering exactly the given findings.
    #[must_use]
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut counts = BTreeMap::new();
        for f in findings {
            *counts.entry(f.baseline_key()).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Parses the baseline file format: one `rule|file|snippet` key per
    /// line (repeated keys grandfather multiple identical sites); `#`
    /// lines and blank lines are ignored.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut counts = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            *counts.entry(line.to_string()).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Loads a baseline file; a missing file is an empty baseline.
    ///
    /// # Errors
    ///
    /// Propagates read errors other than `NotFound`.
    pub fn load(path: &Path) -> io::Result<Self> {
        match fs::read_to_string(path) {
            Ok(text) => Ok(Self::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::empty()),
            Err(e) => Err(e),
        }
    }

    /// Serialises to the line-per-key format, sorted.
    #[must_use]
    pub fn serialize(&self) -> String {
        let mut out = String::from(
            "# meshlint baseline: grandfathered findings (burn these down; never add).\n\
             # One `rule|file|snippet` key per line; regenerate with `meshlint --write-baseline`.\n",
        );
        for (key, count) in &self.counts {
            for _ in 0..*count {
                out.push_str(key);
                out.push('\n');
            }
        }
        out
    }

    /// Number of grandfathered keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.values().sum()
    }

    /// Whether nothing is grandfathered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Splits findings into new vs grandfathered and reports stale
    /// baseline entries.
    #[must_use]
    pub fn ratchet(&self, findings: &[Finding]) -> Ratchet {
        let mut remaining = self.counts.clone();
        let mut result = Ratchet::default();
        for f in findings {
            let key = f.baseline_key();
            match remaining.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    result.grandfathered.push(f.clone());
                }
                _ => result.new.push(f.clone()),
            }
        }
        result.stale = remaining.into_iter().filter(|&(_, n)| n > 0).collect();
        result
    }
}

// ---------------------------------------------------------------------
// JSON output (hand-rolled: the crate must stay dependency-free)
// ---------------------------------------------------------------------

/// Escapes a string for inclusion in JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders machine-readable results: every finding plus the ratchet
/// summary.
#[must_use]
pub fn to_json(ratchet: &Ratchet, analysis: &Analysis) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    let render = |f: &Finding, is_new: bool| {
        format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \
             \"snippet\": \"{}\", \"detail\": \"{}\", \"hint\": \"{}\", \"new\": {}}}",
            f.rule.id(),
            json_escape(&f.file),
            f.line,
            f.col,
            json_escape(&f.snippet),
            json_escape(&f.detail),
            json_escape(f.rule.hint()),
            is_new
        )
    };
    let rows: Vec<String> = ratchet
        .new
        .iter()
        .map(|f| render(f, true))
        .chain(ratchet.grandfathered.iter().map(|f| render(f, false)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str(&format!(
        "\n  ],\n  \"new\": {},\n  \"grandfathered\": {},\n  \"stale_baseline_entries\": {},\n  \
         \"allowed\": {},\n  \"directive_errors\": {},\n  \"files_scanned\": {}\n}}\n",
        ratchet.new.len(),
        ratchet.grandfathered.len(),
        ratchet.stale.len(),
        analysis.allowed,
        analysis.directive_errors.len(),
        analysis.files_scanned
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let a = \"HashMap\"; // HashMap here\nlet b = 'x';\n/* HashMap\nHashMap */ let c = 1;\n";
        let m = mask(src);
        assert!(!m.text.contains("HashMap"));
        assert!(m.text.contains("let a ="));
        assert!(m.text.contains("let c = 1;"));
        assert_eq!(m.text.lines().count(), src.lines().count());
    }

    #[test]
    fn masking_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet r = r#\"Instant::now\"#;\n";
        let m = mask(src);
        assert!(!m.text.contains("Instant"));
        assert!(m.text.contains("fn f<'a>"));
    }

    #[test]
    fn directive_parsing() {
        let src = "// meshlint::allow(d1): keyed lookups only\nuse std::collections::HashMap;\n";
        let m = mask(src);
        assert_eq!(m.allows, vec![(1, Rule::D1)]);
        assert!(m.is_allowed(Rule::D1, 1));
        assert!(m.is_allowed(Rule::D1, 2));
        assert!(!m.is_allowed(Rule::D1, 3));
        assert!(!m.is_allowed(Rule::D2, 2));
    }

    #[test]
    fn directive_without_reason_is_an_error() {
        let m = mask("// meshlint::allow(d1)\nuse std::collections::HashMap;\n");
        assert!(m.allows.is_empty());
        assert_eq!(m.directive_errors.len(), 1);
        let m2 = mask("// meshlint::allow(bogus): because\n");
        assert_eq!(m2.directive_errors.len(), 1);
    }

    #[test]
    fn cfg_test_regions_are_excised() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap() }\n}\nfn after() {}\n";
        let lines = test_region_lines(src);
        assert!(lines.contains(&2) && lines.contains(&5));
        assert!(!lines.contains(&1) && !lines.contains(&6));
    }

    #[test]
    fn index_expression_detection() {
        assert_eq!(index_expr_cols("let x = frame[0];"), vec![14]);
        assert!(index_expr_cols("#[derive(Debug)]").is_empty());
        assert!(index_expr_cols("let v = vec![1, 2];").is_empty());
        assert!(index_expr_cols("let t: [u8; 4] = [0; 4];").is_empty());
        assert_eq!(index_expr_cols("f()[1]"), vec![4]);
        assert!(index_expr_cols("fn take(&mut self) -> Result<&'a [u8], E> {").is_empty());
        assert!(index_expr_cols("frame: &'static [u8],").is_empty());
        assert!(index_expr_cols("pub fn run_chunks<T>(items: &mut [T]) {").is_empty());
        assert!(index_expr_cols("F: Fn(usize, &mut [T]) + Sync,").is_empty());
        assert!(index_expr_cols("for x in [1, 2, 3] {").is_empty());
        assert!(index_expr_cols("if let [a, b, c, d] = *col {").is_empty());
        // A real index after `mut` binding still fires on the receiver.
        assert_eq!(index_expr_cols("let mut y = frame[0];"), vec![18]);
    }

    #[test]
    fn c1_requires_keyword_position() {
        assert!(match_rule(Rule::C1, "let atlas u8 = 1;").is_empty());
        assert_eq!(match_rule(Rule::C1, "let x = n as u16;").len(), 1);
        assert!(match_rule(Rule::C1, "let x = n as u64;").is_empty());
        assert!(match_rule(Rule::C1, "let x = alias u8;").is_empty());
    }

    #[test]
    fn n1_matches_std_path_segments_only() {
        assert_eq!(match_rule(Rule::N1, "use std::time::Duration;"), vec![5]);
        assert_eq!(match_rule(Rule::N1, "let e: ::std::fmt::Error;"), vec![10]);
        assert!(match_rule(Rule::N1, "use my_std::helpers;").is_empty());
        assert!(match_rule(Rule::N1, "use alloc::vec::Vec;").is_empty());
        assert!(match_rule(Rule::N1, "use core::time::Duration;").is_empty());
    }

    #[test]
    fn n1_respects_std_feature_gates_and_test_code() {
        let cfg = Config::workspace("/nonexistent");
        let src = "\
use alloc::vec::Vec;\n\
#[cfg(feature = \"std\")]\n\
impl std::error::Error for E {}\n\
#[cfg(feature = \"std\")]\n\
pub use std::time::Duration;\n\
fn ungated() { let _ = std::mem::take(&mut 0); }\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::time::Duration;\n\
}\n";
        let mut out = Analysis::default();
        analyze_source(&cfg, "crates/core/src/error.rs", src, &mut out);
        let n1: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == Rule::N1).collect();
        assert_eq!(n1.len(), 1, "findings: {n1:?}");
        assert_eq!(n1[0].line, 6);
        // The same source in a std-only crate raises no n1 findings.
        let mut std_ok = Analysis::default();
        analyze_source(&cfg, "crates/radio-sim/src/lib.rs", src, &mut std_ok);
        assert!(std_ok.findings.iter().all(|f| f.rule != Rule::N1));
    }

    #[test]
    fn cfg_std_region_covers_braced_and_braceless_items() {
        let src = "\
#[cfg(feature = \"std\")]\n\
#[derive(Debug)]\n\
impl Thing {\n\
    fn f(&self) {}\n\
}\n\
fn open() {}\n\
#[cfg(feature = \"std\")]\n\
use std::io;\n\
fn also_open() {}\n";
        let lines = cfg_std_region_lines(src);
        for l in 1..=5 {
            assert!(lines.contains(&l), "line {l} should be gated");
        }
        assert!(!lines.contains(&6));
        assert!(lines.contains(&7) && lines.contains(&8));
        assert!(!lines.contains(&9));
    }

    #[test]
    fn baseline_ratchet_counts_multiset() {
        let f = |line: usize| Finding {
            rule: Rule::D1,
            file: "a.rs".into(),
            line,
            col: 1,
            snippet: "use std::collections::HashMap;".into(),
            detail: String::new(),
        };
        let base = Baseline::from_findings(&[f(1)]);
        // Same key at a different line: still grandfathered (keys are
        // line-independent); a second occurrence is new.
        let r = base.ratchet(&[f(9), f(12)]);
        assert_eq!(r.grandfathered.len(), 1);
        assert_eq!(r.new.len(), 1);
        assert!(r.stale.is_empty());
        // Burned-down finding leaves a stale entry.
        let r2 = base.ratchet(&[]);
        assert_eq!(r2.stale.len(), 1);
        // Round-trip through the file format.
        assert_eq!(Baseline::parse(&base.serialize()), base);
    }
}
