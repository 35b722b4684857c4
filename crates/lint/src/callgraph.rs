//! Workspace symbol table + call graph.
//!
//! Built over the per-file ASTs ([`crate::parse`]), this module indexes
//! every function in the workspace and resolves each call site to zero,
//! one, or several candidate definitions — by name plus path/receiver
//! heuristics, since detlint has no type inference. The resolution rules
//! and their blind spots are documented in DESIGN.md ("detlint v2");
//! everything the resolver is *not* sure about is accounted for rather
//! than guessed:
//!
//! - **strict** site — exactly one candidate survived path/receiver
//!   filtering (after same-file / same-crate preference). These are the
//!   only edges R003 panic-reachability walks: a wrong strict edge would
//!   fabricate a panic chain.
//! - **ambiguous** site — several candidates remain. These "loose" edges
//!   are used by D006 determinism taint, where over-approximation is the
//!   point (missing an edge hides real taint).
//! - **external** site — no workspace candidate (std, vendored shims, or
//!   a resolver blind spot). Counted and reported so a reviewer can see
//!   how much of the graph is dark.
//!
//! Method calls with ubiquitous std names (`len`, `push`, `iter`, …) are
//! never resolved by bare-name fallback: a workspace type that happens to
//! define `len` must not capture every `.len()` in the tree.

use crate::ast::{walk_fns, Ast, Body, EventKind, Span};
use std::collections::BTreeMap;

/// One parsed source file, as the graph and flow analyses consume it.
pub struct FileAst {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Owning crate (`cloudsim`, `gateway`, …).
    pub crate_name: String,
    /// Raw source, for snippets in diagnostics.
    pub src: String,
    /// The parsed item tree.
    pub ast: Ast,
    /// Byte ranges inside `#[cfg(test)]` / `#[test]` code.
    pub test_regions: Vec<(usize, usize)>,
}

/// One function in the workspace graph.
pub struct FnNode {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Bare name.
    pub name: String,
    /// Display path (`cloudsim::shard::ShardPool::drive_tick`).
    pub qual: String,
    /// Logical path *excluding* the name: `[crate, file mods…, inline
    /// mods…, impl type?]`. Call-path suffixes match against this.
    pub logical_path: Vec<String>,
    /// Enclosing `impl`/`trait` type, when associated.
    pub impl_ty: Option<String>,
    /// Declared `pub` in any form.
    pub is_pub: bool,
    /// Lexically inside test code (file- or region-level).
    pub in_test: bool,
    /// Definition span.
    pub span: Span,
    /// Parsed body (`None` for bodiless trait signatures).
    pub body: Option<Body>,
    /// Resolved call sites, in source order.
    pub calls: Vec<CallSite>,
}

/// One call site inside a function body, after resolution.
pub struct CallSite {
    /// Index of the originating event in `body.events`.
    pub event_idx: usize,
    /// Span of the called name.
    pub span: Span,
    /// What the call looked like in source (`ShardPool::new`, `s.drain`).
    pub display: String,
    /// Candidate callee indices (into [`CallGraph::fns`]).
    pub targets: Vec<usize>,
    /// True when `targets` has exactly one entry *and* resolution was
    /// unambiguous — the only kind of edge R003 will traverse.
    pub strict: bool,
}

/// Resolution accounting, surfaced in the report and JSON output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Functions indexed.
    pub functions: usize,
    /// Call sites resolved to exactly one workspace function.
    pub resolved_edges: usize,
    /// Call sites with several surviving candidates (loose edges).
    pub ambiguous_edges: usize,
    /// Call sites with no workspace candidate (std/vendored/blind-spot).
    pub external_calls: usize,
}

/// The workspace call graph.
pub struct CallGraph {
    /// Every function, in (file, span) order.
    pub fns: Vec<FnNode>,
    /// Resolution accounting.
    pub stats: GraphStats,
}

/// Method names so common in std that bare-name fallback must never
/// resolve them to a workspace function.
const COMMON_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "chain",
    "chars",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "connect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "ok",
    "or_insert",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "recv",
    "remove",
    "replace",
    "resize",
    "retain",
    "rev",
    "send",
    "set_len",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "splice",
    "split",
    "split_at",
    "starts_with",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "try_recv",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "wait",
    "windows",
    "with_capacity",
    "write",
    "write_all",
    "zip",
];

impl CallGraph {
    /// Index every function and resolve every call site.
    pub fn build(files: &[FileAst]) -> CallGraph {
        let mut fns: Vec<FnNode> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let fmods = file_mods(&file.path);
            let file_test = file.crate_name == "tests"
                || file.path.contains("/tests/")
                || file.path.contains("/benches/");
            walk_fns(&file.ast.items, &mut |mods, impl_ty, def| {
                let in_test = file_test
                    || file
                        .test_regions
                        .iter()
                        .any(|&(s, e)| def.span.start >= s && def.span.start < e);
                let mut logical = vec![file.crate_name.clone()];
                logical.extend(fmods.iter().cloned());
                logical.extend(mods.iter().cloned());
                if let Some(t) = impl_ty {
                    logical.push(t.to_string());
                }
                let qual = format!("{}::{}", logical.join("::"), def.name);
                fns.push(FnNode {
                    file: fi,
                    name: def.name.clone(),
                    qual,
                    logical_path: logical,
                    impl_ty: impl_ty.map(str::to_string),
                    is_pub: def.is_pub,
                    in_test,
                    span: def.span,
                    body: def.body.clone(),
                    calls: Vec::new(),
                });
            });
        }

        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }

        let mut stats = GraphStats {
            functions: fns.len(),
            ..GraphStats::default()
        };
        let mut all_calls: Vec<Vec<CallSite>> = Vec::with_capacity(fns.len());
        for i in 0..fns.len() {
            let mut calls = Vec::new();
            let Some(body) = &fns[i].body else {
                all_calls.push(calls);
                continue;
            };
            for (ei, ev) in body.events.iter().enumerate() {
                let (display, res) = match &ev.kind {
                    EventKind::Call { path } => {
                        (path.join("::"), resolve_path_call(&fns, &by_name, i, path))
                    }
                    EventKind::MethodCall { name, recv } => (
                        format!("{recv}.{name}"),
                        resolve_method_call(&fns, &by_name, i, name, recv),
                    ),
                    _ => continue,
                };
                let (targets, strict) = match res {
                    Resolution::Strict(t) => {
                        stats.resolved_edges += 1;
                        (vec![t], true)
                    }
                    Resolution::Ambiguous(ts) => {
                        stats.ambiguous_edges += 1;
                        (ts, false)
                    }
                    Resolution::External => {
                        stats.external_calls += 1;
                        (Vec::new(), false)
                    }
                    Resolution::Skip => continue,
                };
                calls.push(CallSite {
                    event_idx: ei,
                    span: ev.span,
                    display,
                    targets,
                    strict,
                });
            }
            all_calls.push(calls);
        }
        for (f, calls) in fns.iter_mut().zip(all_calls) {
            f.calls = calls;
        }
        CallGraph { fns, stats }
    }

    /// Reverse adjacency over loose edges (strict + ambiguous): for each
    /// function, the `(caller, call-site span)` pairs that may reach it.
    pub fn loose_callers(&self) -> Vec<Vec<(usize, Span)>> {
        let mut radj: Vec<Vec<(usize, Span)>> = vec![Vec::new(); self.fns.len()];
        for (caller, f) in self.fns.iter().enumerate() {
            for site in &f.calls {
                for &t in &site.targets {
                    radj[t].push((caller, site.span));
                }
            }
        }
        radj
    }
}

enum Resolution {
    /// Exactly one candidate; safe for reachability.
    Strict(usize),
    /// Several candidates; usable only for over-approximating analyses.
    Ambiguous(Vec<usize>),
    /// No workspace candidate.
    External,
    /// Not a resolvable call at all (constructor/variant casing).
    Skip,
}

/// Resolve a free/path call `a::b::name(…)`.
fn resolve_path_call(
    fns: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    path: &[String],
) -> Resolution {
    let Some(name) = path.last() else {
        return Resolution::Skip;
    };
    let upper = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
    let Some(candidates) = by_name.get(name.as_str()) else {
        // `Some(x)`, `Ok(x)`, `KnobId(v)` — tuple constructors and enum
        // variants look like calls; don't count them against resolution.
        return if upper {
            Resolution::Skip
        } else {
            Resolution::External
        };
    };
    // Normalize the written prefix: `crate`/`self`/`super` say nothing
    // about the target's logical path; `Self` means the caller's type.
    let mut prefix: Vec<&str> = Vec::new();
    for seg in &path[..path.len() - 1] {
        match seg.as_str() {
            "crate" | "self" | "super" | "std" | "core" | "alloc" => {}
            "Self" => match &fns[caller].impl_ty {
                Some(t) => prefix.push(t),
                None => return Resolution::External,
            },
            s => prefix.push(s),
        }
    }
    let survivors: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| is_ordered_subseq(&prefix, &fns[c].logical_path))
        .collect();
    narrow(fns, caller, survivors, upper)
}

/// Resolve a method call `recv.name(…)`.
fn resolve_method_call(
    fns: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    name: &str,
    recv: &str,
) -> Resolution {
    let Some(candidates) = by_name.get(name) else {
        return Resolution::External;
    };
    let on_self = recv == "self" || recv.starts_with("self.");
    // A call on another receiver is not the caller recursing: a method
    // wrapping a same-named inner one (`bg.tick(..)` in `fn tick`) must
    // reach the inner one, not end the walk at itself.
    let assoc: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| fns[c].impl_ty.is_some() && (on_self || c != caller))
        .collect();
    if assoc.is_empty() {
        return Resolution::External;
    }
    // `self.method()` — the caller's own impl type is strong evidence and
    // bypasses the common-name guard.
    if on_self {
        if let Some(ty) = &fns[caller].impl_ty {
            let own: Vec<usize> = assoc
                .iter()
                .copied()
                .filter(|&c| fns[c].impl_ty.as_deref() == Some(ty))
                .collect();
            match own.len() {
                1 => return Resolution::Strict(own[0]),
                0 => {}
                _ => return Resolution::Ambiguous(own),
            }
        }
    }
    // Bare-name fallback: refuse ubiquitous std method names outright —
    // one workspace `fn len` must not capture every `.len()` call.
    if COMMON_METHODS.contains(&name) {
        return Resolution::External;
    }
    narrow(fns, caller, assoc, false)
}

/// Shared candidate narrowing: same file beats same crate beats
/// ambiguity; `upper` marks constructor-cased names whose failure to
/// narrow is a skip, not an external call.
fn narrow(fns: &[FnNode], caller: usize, survivors: Vec<usize>, upper: bool) -> Resolution {
    match survivors.len() {
        0 => {
            if upper {
                Resolution::Skip
            } else {
                Resolution::External
            }
        }
        1 => Resolution::Strict(survivors[0]),
        _ => {
            let same_file: Vec<usize> = survivors
                .iter()
                .copied()
                .filter(|&c| fns[c].file == fns[caller].file)
                .collect();
            if same_file.len() == 1 {
                return Resolution::Strict(same_file[0]);
            }
            let same_crate: Vec<usize> = survivors
                .iter()
                .copied()
                .filter(|&c| fns[c].logical_path.first() == fns[caller].logical_path.first())
                .collect();
            if same_crate.len() == 1 {
                return Resolution::Strict(same_crate[0]);
            }
            Resolution::Ambiguous(survivors)
        }
    }
}

/// `needle` appears in `haystack` in order (not necessarily contiguous),
/// so `cloudsim::ShardPool::new` still matches a definition whose logical
/// path is `[cloudsim, shard, ShardPool]`.
fn is_ordered_subseq(needle: &[&str], haystack: &[String]) -> bool {
    let mut hi = 0;
    'outer: for n in needle {
        while hi < haystack.len() {
            if haystack[hi] == *n {
                hi += 1;
                continue 'outer;
            }
            hi += 1;
        }
        return false;
    }
    true
}

/// Module path implied by a file's location: path components after the
/// last `src/`, minus the `lib.rs`/`main.rs`/`mod.rs` stems.
fn file_mods(path: &str) -> Vec<String> {
    let comps: Vec<&str> = path.split('/').collect();
    let after_src = comps
        .iter()
        .rposition(|c| *c == "src")
        .map(|i| i + 1)
        .unwrap_or(comps.len().saturating_sub(1));
    let mut mods: Vec<String> = Vec::new();
    for (i, c) in comps.iter().enumerate().skip(after_src) {
        if i + 1 == comps.len() {
            let stem = c.strip_suffix(".rs").unwrap_or(c);
            if !matches!(stem, "lib" | "main" | "mod") {
                mods.push(stem.to_string());
            }
        } else {
            mods.push((*c).to_string());
        }
    }
    mods
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, parse, rules};

    fn file(path: &str, crate_name: &str, src: &str) -> FileAst {
        let tokens = lexer::tokenize(src);
        let code = lexer::code_tokens(&tokens);
        FileAst {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            src: src.to_string(),
            ast: parse::parse(src, &code),
            test_regions: rules::test_regions(src, &code),
        }
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let fi = g.fns.iter().position(|f| f.qual.ends_with(from)).unwrap();
        g.fns[fi]
            .calls
            .iter()
            .any(|s| s.strict && g.fns[s.targets[0]].qual.ends_with(to))
    }

    #[test]
    fn resolves_same_file_free_calls() {
        let g = CallGraph::build(&[file(
            "crates/cloudsim/src/a.rs",
            "cloudsim",
            "fn top() { helper(); } fn helper() {}",
        )]);
        assert_eq!(g.stats.functions, 2);
        assert_eq!(g.stats.resolved_edges, 1);
        assert!(edge(&g, "a::top", "a::helper"));
    }

    #[test]
    fn resolves_cross_crate_path_calls() {
        let files = vec![
            file(
                "crates/ctrlplane/src/director.rs",
                "ctrlplane",
                "pub fn reconcile() { cloudsim::shard::spin_up(); }",
            ),
            file(
                "crates/cloudsim/src/shard.rs",
                "cloudsim",
                "pub fn spin_up() {}",
            ),
        ];
        let g = CallGraph::build(&files);
        assert!(edge(&g, "director::reconcile", "shard::spin_up"));
    }

    #[test]
    fn resolves_assoc_fn_by_type_suffix() {
        let files = vec![
            file("crates/a/src/x.rs", "a", "fn go() { Pool::new(); }"),
            file(
                "crates/b/src/pool.rs",
                "b",
                "pub struct Pool; impl Pool { pub fn new() -> Pool { Pool } } \
                 pub struct Other; impl Other { pub fn new() -> Other { Other } }",
            ),
        ];
        let g = CallGraph::build(&files);
        assert!(edge(&g, "x::go", "Pool::new"));
        assert_eq!(g.stats.resolved_edges, 1);
    }

    #[test]
    fn self_method_resolves_within_impl() {
        let g = CallGraph::build(&[file(
            "crates/a/src/x.rs",
            "a",
            "struct S; impl S { fn outer(&self) { self.inner(); } fn inner(&self) {} } \
             struct T; impl T { fn inner(&self) {} }",
        )]);
        assert!(edge(&g, "S::outer", "S::inner"));
    }

    #[test]
    fn method_on_another_receiver_skips_the_caller() {
        let files = vec![
            file(
                "crates/simdb/src/engine.rs",
                "simdb",
                "pub struct Db; impl Db { \
                   pub fn tick(&mut self, bg: &mut BgWriter) { bg.tick(); } } \
                 pub enum Storage { Lsm } impl Storage { \
                   fn background(&mut self, tree: &mut LsmTree) { tree.background(); } }",
            ),
            file(
                "crates/simdb/src/bgwriter.rs",
                "simdb",
                "pub struct BgWriter; impl BgWriter { pub fn tick(&mut self) {} }",
            ),
            file(
                "crates/simdb/src/lsm.rs",
                "simdb",
                "pub struct LsmTree; impl LsmTree { pub fn background(&mut self) {} }",
            ),
        ];
        let g = CallGraph::build(&files);
        assert!(edge(&g, "Db::tick", "BgWriter::tick"));
        assert!(edge(&g, "Storage::background", "LsmTree::background"));
        assert!(!edge(&g, "Db::tick", "Db::tick"));
    }

    #[test]
    fn common_method_names_stay_external() {
        let g = CallGraph::build(&[file(
            "crates/a/src/x.rs",
            "a",
            "struct S; impl S { fn len(&self) -> usize { 0 } } \
             fn go(v: Vec<u8>) { v.len(); }",
        )]);
        assert_eq!(g.stats.resolved_edges, 0);
        assert_eq!(g.stats.external_calls, 1);
    }

    #[test]
    fn constructors_are_skipped_not_external() {
        let g = CallGraph::build(&[file(
            "crates/a/src/x.rs",
            "a",
            "fn go() -> Option<u8> { Some(1) }",
        )]);
        assert_eq!(g.stats.external_calls, 0);
        assert_eq!(g.stats.ambiguous_edges, 0);
    }

    #[test]
    fn same_name_cross_crate_is_ambiguous() {
        let files = vec![
            file("crates/a/src/x.rs", "a", "fn go() { tick(); }"),
            file("crates/b/src/y.rs", "b", "pub fn tick() {}"),
            file("crates/c/src/z.rs", "c", "pub fn tick() {}"),
        ];
        let g = CallGraph::build(&files);
        assert_eq!(g.stats.ambiguous_edges, 1);
        assert_eq!(g.stats.resolved_edges, 0);
        let go = g.fns.iter().position(|f| f.name == "go").unwrap();
        assert_eq!(g.fns[go].calls[0].targets.len(), 2);
    }

    #[test]
    fn test_fns_are_marked() {
        let g = CallGraph::build(&[file(
            "crates/a/src/x.rs",
            "a",
            "fn runtime() {} #[cfg(test)] mod t { fn helper() {} }",
        )]);
        let rt = g.fns.iter().find(|f| f.name == "runtime").unwrap();
        let h = g.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(!rt.in_test);
        assert!(h.in_test);
    }
}
