//! The workspace program model and the whole-program rules R7–R10.
//!
//! [`ItemGraph`] stitches every file's [`crate::parser::ParsedFile`] into
//! one view: functions with their crate/module/impl coordinates, a
//! heuristic identifier-resolved call graph, and the flattened `use`
//! surface. Resolution is deliberately conservative-by-name —
//! `Type::name(..)` pins the receiver, `.name(..)` fans out to every
//! impl of that method name, and std vocabulary produces no edges at all
//! (see [`crate::parser::BUILTIN_CALLS`]) — so a missing edge is always
//! possible but a *wrong* conclusion needs two rules to fail at once.
//!
//! The rules:
//!
//! * **R7 `hot_path`** — no transient-allocation, I/O or panic-family
//!   calls transitively reachable (depth ≤ [`R7_DEPTH`]) from the
//!   declared hot set: the bitmap kernel module, `verify_pair`,
//!   `grow_candidates`, every `BoundaryKernel` impl,
//!   `OccArena::push_extend`, and the `PatternPool` interning family
//!   (`intern*` — the merge/exchange hot path hits the pool once per
//!   emission). Structural allocations (arena growth,
//!   bitmap construction) are the hot path's job; `format!`-family
//!   strings, `Box::new` and stray `unwrap`s are not. Panic sites that
//!   already carry a `lint: allow(panic, …)` contract are treated as
//!   documented.
//! * **R8 `facade`** — every name `ftpm_core` re-exports must be
//!   re-exported by the `ftpm` facade too. PRs 2–8 each had to remember
//!   this by hand; now drift is a lint failure.
//! * **R9 `sink_seam`** — every public `mine_*` entry point in
//!   `ftpm_core` must transitively reach the one mining seam
//!   (`mine_parallel_internal` / `mine_exchange_internal`, depth ≤
//!   [`R9_DEPTH`]). One-off mining
//!   loops cannot share the sink/boundary/correlation plumbing, so they
//!   are banned outright. `reference.rs` is exempt by design: the oracle
//!   must stay independent of the machinery it checks.
//! * **R10 `concurrency`** — thread spawns, channels and shared-state
//!   primitives only in `parallel.rs` / `executor.rs` / `schedule.rs`
//!   (the seam a distributed worker loop will plug into). The `bench`
//!   crate is exempt: its allocation tracker is atomics-based
//!   instrumentation, not mining concurrency.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::lexer::{Lexed, TokenKind};
use crate::parser::{Call, CallKind, ParsedFile, BUILTIN_CALLS};
use crate::report::Violation;
use crate::rules::{allowed, Allow, FileContext};

/// Maximum call-graph depth R7 follows from a hot root.
pub const R7_DEPTH: usize = 4;

/// Maximum call-graph depth R9 follows from a `mine_*` entry point.
pub const R9_DEPTH: usize = 8;

/// The mining seam every public `mine_*` entry point must reach (R9).
const SINK_SEAMS: &[&str] = &["mine_parallel_internal", "mine_exchange_internal"];

/// Files allowed to touch concurrency primitives (R10).
const CONCURRENCY_FILES: &[&str] = &[
    "crates/core/src/parallel.rs",
    "crates/core/src/executor.rs",
    "crates/core/src/schedule.rs",
];

/// Concurrency idents R10 confines (plus any ident starting `Atomic`).
const CONCURRENCY_IDENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "spawn",
    "channel",
    "sync_channel",
];

/// Macro names R7 bans in the hot set (the `debug_assert*` family is
/// release-free and always fine).
const R7_BANNED_MACROS: &[&str] = &[
    "format", "println", "print", "eprintln", "eprint", "dbg", "panic", "unreachable",
    "todo", "unimplemented", "assert", "assert_eq", "assert_ne",
];

/// Method/free call names R7 bans in the hot set.
const R7_BANNED_CALLS: &[&str] = &["to_string", "to_owned", "unwrap", "expect"];

/// Panic-family names whose existing `lint: allow(panic, …)` contract
/// also satisfies R7 (the site is documented, not accidental).
const PANIC_FAMILY: &[&str] = &[
    "panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq",
    "assert_ne", "unwrap", "expect",
];

/// One analyzed file, as the program model consumes it.
pub struct FileRecord {
    pub ctx: FileContext,
    pub src: String,
    pub lexed: Lexed,
    pub parsed: ParsedFile,
    pub allows: Vec<Allow>,
    pub test_regions: Vec<(usize, usize)>,
}

/// One function in the workspace model.
struct FnNode {
    /// Index into the file list.
    file: usize,
    name: String,
    /// Full module path: file-derived plus inline `mod`s.
    modules: Vec<String>,
    is_pub: bool,
    impl_type: Option<String>,
    impl_trait: Option<String>,
    line: u32,
    calls: Vec<Call>,
    in_test: bool,
}

/// The workspace program model.
pub struct ItemGraph<'a> {
    files: &'a [FileRecord],
    fns: Vec<FnNode>,
    /// Function ids by bare name, for call resolution.
    by_name: HashMap<String, Vec<usize>>,
}

/// Module path a file contributes to its items: `src/lib.rs`,
/// `src/main.rs` and `mod.rs` add nothing; `src/a/b.rs` adds `a::b`;
/// `src/bin/x.rs` adds `x` (its own target, same crate namespace for
/// resolution purposes); `tests/x.rs` adds `x`.
fn file_modules(rel: &str) -> Vec<String> {
    let mut parts: Vec<&str> = rel.split('/').collect();
    // Strip `crates/<name>/` and the source root segment.
    if parts.first() == Some(&"crates") {
        parts.drain(..2);
    }
    if matches!(parts.first(), Some(&"src") | Some(&"tests") | Some(&"benches")) {
        parts.remove(0);
    }
    let mut out: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
    if let Some(last) = out.last_mut() {
        *last = last.trim_end_matches(".rs").to_string();
    }
    match out.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            out.pop();
        }
        _ => {}
    }
    out.retain(|s| s != "bin");
    out
}

/// Maps a dependency name in a path call to a workspace crate directory
/// name (`ftpm_core` → `core`, the facade stays `ftpm`).
fn crate_of_path_root(seg: &str) -> Option<&str> {
    match seg {
        "ftpm" => Some("ftpm"),
        "ftpm_analyzer" => Some("analyzer"),
        _ => seg.strip_prefix("ftpm_"),
    }
}

impl<'a> ItemGraph<'a> {
    /// Builds the model over every analyzed file.
    pub fn build(files: &'a [FileRecord]) -> ItemGraph<'a> {
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let base = file_modules(&f.ctx.rel_path);
            for item in &f.parsed.fns {
                let mut modules = base.clone();
                modules.extend(item.modules.iter().cloned());
                fns.push(FnNode {
                    file: fi,
                    name: item.name.clone(),
                    modules,
                    is_pub: item.is_pub,
                    impl_type: item.impl_type.clone(),
                    impl_trait: item.impl_trait.clone(),
                    line: item.line,
                    calls: item.calls.clone(),
                    in_test: item.in_test || f.ctx.is_test_file,
                });
            }
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        ItemGraph { files, fns, by_name }
    }

    fn crate_name(&self, id: usize) -> &str {
        &self.files[self.fns[id].file].ctx.crate_name
    }

    fn rel_path(&self, id: usize) -> &str {
        &self.files[self.fns[id].file].ctx.rel_path
    }

    /// True when `id` can be the callee of a call in `caller`: not test
    /// code, and not in a leaf crate (`bench`/`ftpm`/`analyzer` — crates
    /// nothing else depends on) unless the caller is in that same crate.
    /// Name-based resolution would otherwise fan library calls out into
    /// binaries that can never be on the callee side.
    fn candidate(&self, caller: usize, id: usize) -> bool {
        const LEAF_CRATES: &[&str] = &["bench", "ftpm", "analyzer"];
        let cc = self.crate_name(id);
        !self.fns[id].in_test
            && (cc == self.crate_name(caller) || !LEAF_CRATES.contains(&cc))
    }

    /// Candidate callees of one call site, per the resolution heuristics.
    fn resolve(&self, caller: usize, call: &CallKind) -> Vec<usize> {
        let ids_named = |name: &str| -> &[usize] {
            self.by_name.get(name).map_or(&[][..], Vec::as_slice)
        };
        match call {
            CallKind::Macro(_) => Vec::new(),
            CallKind::Method(name) => {
                if BUILTIN_CALLS.contains(&name.as_str()) {
                    return Vec::new();
                }
                ids_named(name)
                    .iter()
                    .copied()
                    .filter(|&id| {
                        self.fns[id].impl_type.is_some() && self.candidate(caller, id)
                    })
                    .collect()
            }
            CallKind::Free(name) => {
                if BUILTIN_CALLS.contains(&name.as_str()) {
                    return Vec::new();
                }
                let all = ids_named(name);
                let caller_node = &self.fns[caller];
                let same_module: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&id| {
                        self.candidate(caller, id)
                            && self.fns[id].impl_type.is_none()
                            && self.crate_name(id) == self.crate_name(caller)
                            && self.fns[id].modules == caller_node.modules
                    })
                    .collect();
                if !same_module.is_empty() {
                    return same_module;
                }
                let same_crate: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&id| {
                        self.candidate(caller, id)
                            && self.fns[id].impl_type.is_none()
                            && self.crate_name(id) == self.crate_name(caller)
                    })
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                all.iter()
                    .copied()
                    .filter(|&id| {
                        self.candidate(caller, id) && self.fns[id].impl_type.is_none()
                    })
                    .collect()
            }
            CallKind::Path(seg, name) => {
                let all = ids_named(name);
                let caller_node = &self.fns[caller];
                if seg == "Self" {
                    return all
                        .iter()
                        .copied()
                        .filter(|&id| {
                            self.candidate(caller, id)
                                && self.fns[id].impl_type == caller_node.impl_type
                                && self.crate_name(id) == self.crate_name(caller)
                        })
                        .collect();
                }
                if seg == "crate" || seg == "self" || seg == "super" {
                    return all
                        .iter()
                        .copied()
                        .filter(|&id| {
                            self.candidate(caller, id)
                                && self.crate_name(id) == self.crate_name(caller)
                        })
                        .collect();
                }
                if let Some(krate) = crate_of_path_root(seg) {
                    return all
                        .iter()
                        .copied()
                        .filter(|&id| !self.fns[id].in_test && self.crate_name(id) == krate)
                        .collect();
                }
                // `Type::name` (an impl of Type) or `module::name`.
                all.iter()
                    .copied()
                    .filter(|&id| {
                        self.candidate(caller, id)
                            && (self.fns[id].impl_type.as_deref() == Some(seg.as_str())
                                || self.fns[id].modules.last().map(String::as_str)
                                    == Some(seg.as_str()))
                    })
                    .collect()
            }
        }
    }

    /// Breadth-first reachable set from `roots`, up to `depth` edges.
    /// Returns each reached function with the id path that reached it
    /// (root first).
    fn reachable(&self, roots: &[usize], depth: usize) -> Vec<(usize, Vec<usize>)> {
        let mut seen: HashSet<usize> = roots.iter().copied().collect();
        let mut queue: VecDeque<(usize, Vec<usize>)> = roots
            .iter()
            .map(|&r| (r, vec![r]))
            .collect();
        let mut out = Vec::new();
        while let Some((id, chain)) = queue.pop_front() {
            out.push((id, chain.clone()));
            if chain.len() > depth {
                continue;
            }
            for call in &self.fns[id].calls {
                for callee in self.resolve(id, &call.kind) {
                    if seen.insert(callee) {
                        let mut next = chain.clone();
                        next.push(callee);
                        queue.push_back((callee, next));
                    }
                }
            }
        }
        out
    }

    fn chain_names(&self, chain: &[usize]) -> String {
        chain
            .iter()
            .map(|&id| self.fns[id].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// The R7 hot set: bitmap kernel fns, the L2 verifier, the growth
    /// loop, the monomorphized boundary kernels, the arena's extend
    /// path, and the pattern pool's interning family (once per emitted
    /// pattern on the merge/exchange path).
    fn hot_roots(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&id| {
                let f = &self.fns[id];
                if f.in_test {
                    return false;
                }
                (self.crate_name(id) == "bitmap"
                    && f.modules.first().map(String::as_str) == Some("kernel"))
                    || f.name == "verify_pair"
                    || f.name == "grow_candidates"
                    || f.impl_trait.as_deref() == Some("BoundaryKernel")
                    || (f.impl_type.as_deref() == Some("OccArena") && f.name == "push_extend")
                    || (f.impl_type.as_deref() == Some("PatternPool")
                        && f.name.starts_with("intern"))
            })
            .collect()
    }

    /// R7: hot-path purity.
    pub fn check_hot_path(&self, out: &mut Vec<Violation>) {
        let roots = self.hot_roots();
        for (id, chain) in self.reachable(&roots, R7_DEPTH) {
            let f = &self.fns[id];
            let allows = &self.files[f.file].allows;
            for call in &f.calls {
                let name = match &call.kind {
                    CallKind::Macro(n) => {
                        if !R7_BANNED_MACROS.contains(&n.as_str()) {
                            continue;
                        }
                        format!("{n}!")
                    }
                    CallKind::Method(n) | CallKind::Free(n) => {
                        if !R7_BANNED_CALLS.contains(&n.as_str()) {
                            continue;
                        }
                        n.clone()
                    }
                    CallKind::Path(seg, n) => {
                        let boxed = seg == "Box" && n == "new";
                        let string = seg == "String" && (n == "new" || n == "from");
                        if !boxed && !string && !R7_BANNED_CALLS.contains(&n.as_str()) {
                            continue;
                        }
                        format!("{seg}::{n}")
                    }
                };
                let bare = name.trim_end_matches('!');
                let documented_panic = PANIC_FAMILY.contains(&bare)
                    && allowed(allows, "panic", call.line);
                if documented_panic || allowed(allows, "hot_path", call.line) {
                    continue;
                }
                out.push(Violation {
                    rule: "R7/hot_path".into(),
                    file: self.rel_path(id).to_string(),
                    line: call.line,
                    message: format!(
                        "`{name}` is reachable from the hot set via `{}` (depth {}); \
                         the hot path must stay free of transient allocation, I/O and \
                         undocumented panics — restructure, or annotate with \
                         `// lint: allow(hot_path, reason)`",
                        self.chain_names(&chain),
                        chain.len() - 1,
                    ),
                });
            }
        }
    }

    /// R8: facade coverage — every `pub use` leaf of `ftpm_core`'s crate
    /// root must be re-exported from `ftpm_core` by the facade crate
    /// root. Skipped when either crate root is absent from the file set
    /// (fixture corpora).
    pub fn check_facade(&self, out: &mut Vec<Violation>) {
        let core_lib = self
            .files
            .iter()
            .find(|f| f.ctx.rel_path == "crates/core/src/lib.rs");
        let facade_lib = self
            .files
            .iter()
            .find(|f| f.ctx.rel_path == "crates/ftpm/src/lib.rs");
        let (Some(core_lib), Some(facade_lib)) = (core_lib, facade_lib) else {
            return;
        };
        let mut facade: HashSet<&str> = HashSet::new();
        let mut facade_glob = false;
        for u in &facade_lib.parsed.uses {
            if u.path.first().map(String::as_str) == Some("ftpm_core") {
                if u.visible == "*" {
                    facade_glob = true;
                }
                facade.insert(u.visible.as_str());
            }
        }
        if facade_glob {
            return;
        }
        for u in &core_lib.parsed.uses {
            if !u.is_pub || u.visible == "*" || u.visible == "_" {
                continue;
            }
            if facade.contains(u.visible.as_str()) {
                continue;
            }
            if allowed(&core_lib.allows, "facade", u.line) {
                continue;
            }
            out.push(Violation {
                rule: "R8/facade".into(),
                file: core_lib.ctx.rel_path.clone(),
                line: u.line,
                message: format!(
                    "`{}` is exported by ftpm_core but not re-exported by the `ftpm` \
                     facade; add it to the facade's `pub use ftpm_core::{{..}}` list \
                     (or annotate with `// lint: allow(facade, reason)` for a \
                     deliberately internal export)",
                    u.visible
                ),
            });
        }
    }

    /// R9: sink-seam discipline for `ftpm_core`'s public miners.
    pub fn check_sink_seam(&self, out: &mut Vec<Violation>) {
        for id in 0..self.fns.len() {
            let f = &self.fns[id];
            if self.crate_name(id) != "core"
                || !f.is_pub
                || f.in_test
                || !f.name.starts_with("mine_")
                || self.rel_path(id) == "crates/core/src/reference.rs"
            {
                continue;
            }
            if SINK_SEAMS.contains(&f.name.as_str()) {
                continue;
            }
            let reached = self.reachable(&[id], R9_DEPTH);
            let hits_seam = reached
                .iter()
                .any(|(r, _)| SINK_SEAMS.contains(&self.fns[*r].name.as_str()));
            if hits_seam {
                continue;
            }
            let allows = &self.files[f.file].allows;
            if allowed(allows, "sink_seam", f.line) {
                continue;
            }
            out.push(Violation {
                rule: "R9/sink_seam".into(),
                file: self.rel_path(id).to_string(),
                line: f.line,
                message: format!(
                    "public miner `{}` never reaches the mining seam \
                     (mine_parallel_internal / mine_exchange_internal, \
                     depth ≤ {R9_DEPTH}); route it through the `_internal`/`_with_sink` \
                     family so every miner shares the sink, boundary and correlation \
                     plumbing — or annotate an oracle with \
                     `// lint: allow(sink_seam, reason)`",
                    f.name
                ),
            });
        }
    }

    /// R10: concurrency confinement — token-level, over the whole file
    /// set, so the rule catches primitives in type positions and paths
    /// the call-shaped parser does not model.
    pub fn check_concurrency(&self, out: &mut Vec<Violation>) {
        for f in self.files {
            if CONCURRENCY_FILES.contains(&f.ctx.rel_path.as_str())
                || f.ctx.crate_name == "bench"
                || f.ctx.is_test_file
            {
                continue;
            }
            let in_test = |pos: usize| {
                f.test_regions.iter().any(|&(s, e)| pos >= s && pos < e)
            };
            for (i, t) in f.lexed.tokens.iter().enumerate() {
                if t.kind != TokenKind::Ident || in_test(t.start) {
                    continue;
                }
                let word = f.lexed.text(&f.src, i);
                let concurrent = CONCURRENCY_IDENTS.contains(&word)
                    || (word.starts_with("Atomic") && word.len() > "Atomic".len());
                if !concurrent || allowed(&f.allows, "concurrency", t.line) {
                    continue;
                }
                out.push(Violation {
                    rule: "R10/concurrency".into(),
                    file: f.ctx.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "concurrency primitive `{word}` outside \
                         core/src/{{parallel,executor,schedule}}.rs; threads, channels \
                         and shared state are confined to the pool/executor/sequencer \
                         seam (the bench crate's instrumentation is exempt) — or \
                         annotate with `// lint: allow(concurrency, reason)`"
                    ),
                });
            }
        }
    }

    /// Runs every whole-program rule.
    pub fn check_all(&self, out: &mut Vec<Violation>) {
        self.check_hot_path(out);
        self.check_facade(out);
        self.check_sink_seam(out);
        self.check_concurrency(out);
    }
}
