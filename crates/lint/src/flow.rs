//! Interprocedural analyses over the workspace call graph: R003
//! panic-reachability, R004 lock discipline, D006 determinism taint.
//!
//! These are the rules the token-pattern engine structurally could not
//! express: each one reasons across function boundaries (R003, D006) or
//! across statements within a body (R004). They run once per workspace,
//! after every file is parsed and the call graph is built, and emit the
//! same [`Finding`] type as the per-file rules — plus a populated
//! `chain` so the CLI can print the full entry-point→panic or
//! sink→source path.
//!
//! Precision posture (see DESIGN.md):
//! - **R003** walks only *strict* edges — an invented edge would
//!   fabricate a panic chain, so ambiguity terminates the walk.
//! - **D006** walks *loose* edges (strict + ambiguous) — taint is an
//!   over-approximation and a missed edge hides a real leak.
//! - **R004** is intraprocedural and lexical about guard scopes: a guard
//!   lives from its `let` to the end of the smallest enclosing block or
//!   an explicit `drop(guard)`.

use crate::ast::{Body, EventKind, Span};
use crate::callgraph::{CallGraph, FileAst};
use crate::rules::{ChainHop, Finding, PANIC_FREE_CRATES, SIM_CRATES};

/// Macros that abort the thread.
const PANIC_MACROS: &[&str] = &["panic", "unimplemented", "todo"];
/// Methods that abort the thread on the unhappy path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Methods that can block the calling thread indefinitely. `wait` (a
/// condvar atomically *releasing* its guard) is deliberately absent.
const BLOCKING_METHODS: &[&str] = &[
    "join",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "write_all",
    "read_exact",
    "read_to_end",
    "flush",
    "wait_timeout",
    "park",
    "park_timeout",
    "sleep",
];
/// Telemetry/fingerprint sinks for D006: calls that fold values into the
/// event log or replay fingerprint.
const SINKS: &[&str] = &["emit", "emit_batch", "fingerprint", "mix", "mix_u64"];
/// Crates whose sink calls D006 guards (the determinism contract holders).
const SINK_CRATES: &[&str] = &["telemetry", "core"];

/// Run all interprocedural rules. `hash_sites` carries, per file, the
/// byte position and line of every hash-order iteration site (computed
/// by the per-file engine, crate scoping *not* applied — a hash-order
/// source in any crate can taint a sink in a scoped crate).
pub fn run(files: &[FileAst], graph: &CallGraph, hash_sites: &[Vec<(usize, u32)>]) -> Vec<Finding> {
    let mut out = Vec::new();
    r003_panic_reachability(files, graph, &mut out);
    r004_lock_discipline(files, graph, &mut out);
    d006_determinism_taint(files, graph, hash_sites, &mut out);
    out
}

fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line as usize - 1)
        .unwrap_or("")
        .trim()
        .to_string()
}

fn finding(
    rule: &'static str,
    files: &[FileAst],
    file_idx: usize,
    span: Span,
    message: String,
    chain: Vec<ChainHop>,
) -> Finding {
    let f = &files[file_idx];
    Finding {
        rule,
        file: f.path.clone(),
        line: span.line,
        col: span.col,
        snippet: line_snippet(&f.src, span.line),
        message,
        in_test: false,
        chain,
    }
}

// --------------------------- R003 ----------------------------------

/// Entry points whose transitive call tree must be panic-free: the
/// control plane and gateway public surface (plus gateway binaries'
/// `main`), the `ShardPool` worker entry points that PR 5's persistent
/// fleet shards run on, and simdb's `Backend` trait `tick`/`apply_config`
/// impls, in whatever file they live — the per-tick hot path every fleet
/// node runs, where one panic takes the whole drive down.
fn is_entry(files: &[FileAst], n: &crate::callgraph::FnNode) -> bool {
    if n.in_test || n.body.is_none() {
        return false;
    }
    let f = &files[n.file];
    match f.crate_name.as_str() {
        "ctrlplane" => n.is_pub,
        "gateway" => n.is_pub || (f.path.contains("/src/bin/") && n.name == "main"),
        "cloudsim" if f.path.ends_with("shard.rs") => {
            n.name == "worker_main" || (n.impl_ty.as_deref() == Some("ShardPool") && n.is_pub)
        }
        "simdb" => {
            n.trait_impl.as_deref() == Some("Backend")
                && matches!(n.name.as_str(), "tick" | "apply_config")
        }
        _ => false,
    }
}

fn r003_panic_reachability(files: &[FileAst], graph: &CallGraph, out: &mut Vec<Finding>) {
    let n = graph.fns.len();
    let mut visited = vec![false; n];
    // parent[i] = (caller, call-site span) on the BFS-shortest chain.
    let mut parent: Vec<Option<(usize, Span)>> = vec![None; n];
    let mut entry_of: Vec<usize> = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for (i, node) in graph.fns.iter().enumerate() {
        if is_entry(files, node) {
            visited[i] = true;
            entry_of[i] = i;
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        for site in &graph.fns[u].calls {
            if !site.strict {
                continue; // ambiguity terminates the walk — no invented chains
            }
            let t = site.targets[0];
            if visited[t] || graph.fns[t].in_test {
                continue;
            }
            visited[t] = true;
            parent[t] = Some((u, site.span));
            entry_of[t] = entry_of[u];
            queue.push_back(t);
        }
    }

    for (i, node) in graph.fns.iter().enumerate() {
        if !visited[i] {
            continue;
        }
        // Direct panics in the panic-free crates are R001's (lexical)
        // findings already; R003 adds the *reachable* ones beyond them.
        if PANIC_FREE_CRATES.contains(&files[node.file].crate_name.as_str()) {
            continue;
        }
        let Some(body) = &node.body else { continue };
        for ev in &body.events {
            let what = match &ev.kind {
                EventKind::MacroCall { name } if PANIC_MACROS.contains(&name.as_str()) => {
                    format!("{name}!")
                }
                EventKind::MethodCall { name, .. } if PANIC_METHODS.contains(&name.as_str()) => {
                    format!(".{name}()")
                }
                _ => continue,
            };
            // Build the entry→panic chain from the BFS parents.
            let mut hops = vec![ChainHop {
                function: node.qual.clone(),
                file: files[node.file].path.clone(),
                line: ev.span.line,
            }];
            let mut cur = i;
            while let Some((p, span)) = parent[cur] {
                hops.push(ChainHop {
                    function: graph.fns[p].qual.clone(),
                    file: files[graph.fns[p].file].path.clone(),
                    line: span.line,
                });
                cur = p;
            }
            hops.reverse();
            let entry = &graph.fns[entry_of[i]];
            let depth = hops.len() - 1;
            let message = if depth == 0 {
                format!(
                    "`{what}` can abort fleet entry point `{}`; return a typed \
                     error or restructure so the invariant holds",
                    entry.qual
                )
            } else {
                format!(
                    "`{what}` panics and is reachable from entry point `{}` \
                     ({depth} call{} deep); return a typed error up the chain",
                    entry.qual,
                    if depth == 1 { "" } else { "s" }
                )
            };
            out.push(finding("R003", files, node.file, ev.span, message, hops));
        }
    }
}

// --------------------------- R004 ----------------------------------

struct Guard {
    name: String,
    recv: String,
    method: String,
    bind_span: Span,
    scope_end: usize,
}

fn r004_lock_discipline(files: &[FileAst], graph: &CallGraph, out: &mut Vec<Finding>) {
    for node in &graph.fns {
        if node.in_test || files[node.file].crate_name == "bench" {
            continue;
        }
        let Some(body) = &node.body else { continue };
        let guards = collect_guards(body);
        if guards.is_empty() {
            continue;
        }
        let drops: Vec<(String, usize)> = body
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::GuardDrop { name } => Some((name.clone(), e.span.start)),
                _ => None,
            })
            .collect();
        let live = |pos: usize| -> Vec<&Guard> {
            guards
                .iter()
                .filter(|g| {
                    pos >= g.bind_span.end
                        && pos < g.scope_end
                        && !drops
                            .iter()
                            .any(|(n, dp)| *n == g.name && *dp >= g.bind_span.end && *dp < pos)
                })
                .collect()
        };
        for ev in &body.events {
            let pos = ev.span.start;
            match &ev.kind {
                EventKind::MethodCall { name, recv } => {
                    let held = live(pos);
                    if held.is_empty() {
                        continue;
                    }
                    if matches!(name.as_str(), "lock" | "read" | "write") {
                        if let Some(g) = held.iter().find(|g| g.recv == *recv) {
                            out.push(finding(
                                "R004",
                                files,
                                node.file,
                                ev.span,
                                format!(
                                    "`{recv}.{name}()` re-locks `{recv}` while guard \
                                     `{}` (line {}) is still live — self-deadlock",
                                    g.name, g.bind_span.line
                                ),
                                Vec::new(),
                            ));
                            continue;
                        }
                    }
                    if BLOCKING_METHODS.contains(&name.as_str()) {
                        let g = held[0];
                        out.push(finding(
                            "R004",
                            files,
                            node.file,
                            ev.span,
                            format!(
                                "`.{name}()` can block while `{}.{}()` guard `{}` \
                                 (line {}) is live; drop the guard before blocking",
                                g.recv, g.method, g.name, g.bind_span.line
                            ),
                            Vec::new(),
                        ));
                    } else if PANIC_METHODS.contains(&name.as_str()) {
                        let g = held[0];
                        out.push(finding(
                            "R004",
                            files,
                            node.file,
                            ev.span,
                            format!(
                                "`.{name}()` can panic while `{}.{}()` guard `{}` \
                                 (line {}) is live, wedging every other locker; \
                                 handle the error outside the critical section",
                                g.recv, g.method, g.name, g.bind_span.line
                            ),
                            Vec::new(),
                        ));
                    }
                }
                EventKind::MacroCall { name } if PANIC_MACROS.contains(&name.as_str()) => {
                    if let Some(g) = live(pos).first() {
                        out.push(finding(
                            "R004",
                            files,
                            node.file,
                            ev.span,
                            format!(
                                "`{name}!` can panic while `{}.{}()` guard `{}` \
                                 (line {}) is live, wedging every other locker",
                                g.recv, g.method, g.name, g.bind_span.line
                            ),
                            Vec::new(),
                        ));
                    }
                }
                EventKind::Call { path } => {
                    let last = path.last().map(String::as_str).unwrap_or("");
                    if matches!(last, "sleep" | "park" | "park_timeout") {
                        if let Some(g) = live(pos).first() {
                            out.push(finding(
                                "R004",
                                files,
                                node.file,
                                ev.span,
                                format!(
                                    "`{last}` blocks while `{}.{}()` guard `{}` \
                                     (line {}) is live; drop the guard first",
                                    g.recv, g.method, g.name, g.bind_span.line
                                ),
                                Vec::new(),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn collect_guards(body: &Body) -> Vec<Guard> {
    body.events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::GuardBind { name, recv, method } => Some(Guard {
                name: name.clone(),
                recv: recv.clone(),
                method: method.clone(),
                bind_span: e.span,
                scope_end: body.enclosing_block(e.span.start).end,
            }),
            _ => None,
        })
        .collect()
}

// --------------------------- D006 ----------------------------------

fn d006_determinism_taint(
    files: &[FileAst],
    graph: &CallGraph,
    hash_sites: &[Vec<(usize, u32)>],
    out: &mut Vec<Finding>,
) {
    let n = graph.fns.len();
    // Direct sources: (kind, line of the sourcing operation).
    let mut source: Vec<Option<(&'static str, u32)>> = vec![None; n];
    for (i, node) in graph.fns.iter().enumerate() {
        let Some(body) = &node.body else { continue };
        for ev in &body.events {
            let EventKind::Call { path } = &ev.kind else {
                continue;
            };
            let last = path.last().map(String::as_str).unwrap_or("");
            let prev = path
                .len()
                .checked_sub(2)
                .map(|k| path[k].as_str())
                .unwrap_or("");
            let kind = if last == "now" && matches!(prev, "Instant" | "SystemTime") {
                "wall-clock read"
            } else if matches!(last, "thread_rng" | "from_entropy" | "from_os_rng")
                || (last == "random" && prev == "rand")
            {
                "entropy-seeded RNG"
            } else {
                continue;
            };
            if source[i].is_none() {
                source[i] = Some((kind, ev.span.line));
            }
        }
    }
    for (fi, sites) in hash_sites.iter().enumerate() {
        for &(byte, line) in sites {
            for (i, node) in graph.fns.iter().enumerate() {
                if node.file == fi && node.span.contains_pos(byte) && source[i].is_none() {
                    source[i] = Some(("hash-order iteration", line));
                }
            }
        }
    }

    // Propagate taint up through callers over loose edges.
    let radj = graph.loose_callers();
    let mut seen = vec![false; n];
    // tainted_via[u] = (callee that tainted u, call-site line in u).
    let mut via: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for (i, s) in source.iter().enumerate() {
        if s.is_some() {
            seen[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &(caller, span) in &radj[u] {
            if !seen[caller] {
                seen[caller] = true;
                via[caller] = Some((u, span.line));
                queue.push_back(caller);
            }
        }
    }

    for (i, node) in graph.fns.iter().enumerate() {
        if node.in_test || via[i].is_none() {
            continue;
        }
        let crate_name = files[node.file].crate_name.as_str();
        if !SIM_CRATES.contains(&crate_name) && !SINK_CRATES.contains(&crate_name) {
            continue;
        }
        let Some(body) = &node.body else { continue };
        for ev in &body.events {
            let sink = match &ev.kind {
                EventKind::MethodCall { name, .. } if SINKS.contains(&name.as_str()) => name,
                EventKind::Call { path }
                    if path.last().is_some_and(|l| SINKS.contains(&l.as_str())) =>
                {
                    path.last().unwrap()
                }
                _ => continue,
            };
            // Chain: sink fn → … → the direct source fn.
            let mut hops = Vec::new();
            let mut cur = i;
            let (src_kind, src_qual) = loop {
                match via[cur] {
                    Some((next, line)) => {
                        hops.push(ChainHop {
                            function: graph.fns[cur].qual.clone(),
                            file: files[graph.fns[cur].file].path.clone(),
                            line,
                        });
                        cur = next;
                    }
                    None => {
                        let (kind, line) = source[cur].unwrap_or(("unknown source", 0));
                        hops.push(ChainHop {
                            function: graph.fns[cur].qual.clone(),
                            file: files[graph.fns[cur].file].path.clone(),
                            line,
                        });
                        break (kind, graph.fns[cur].qual.clone());
                    }
                }
            };
            let depth = hops.len() - 1;
            out.push(finding(
                "D006",
                files,
                node.file,
                ev.span,
                format!(
                    "`{sink}` feeds the event log/fingerprint from a function \
                     that transitively calls `{src_qual}` ({src_kind}, {depth} \
                     call{} away); nondeterminism would reach replay state — \
                     thread seeded/tick-derived values instead",
                    if depth == 1 { "" } else { "s" }
                ),
                hops,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
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

    fn run_flow(files: Vec<FileAst>) -> Vec<Finding> {
        let graph = CallGraph::build(&files);
        let hash_sites = vec![Vec::new(); files.len()];
        run(&files, &graph, &hash_sites)
    }

    fn ids(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    // ----------------------- R003 -----------------------------------

    #[test]
    fn r003_reports_reachable_panic_with_chain() {
        let files = vec![
            file(
                "crates/ctrlplane/src/director.rs",
                "ctrlplane",
                "pub fn reconcile() { simdb::engine::apply_all(); }",
            ),
            file(
                "crates/simdb/src/engine.rs",
                "simdb",
                "pub fn apply_all() { pick_slot(); }\n\
                 fn pick_slot() { let v: Vec<u8> = Vec::new(); v.first().unwrap(); }",
            ),
        ];
        let f = run_flow(files);
        assert_eq!(ids(&f), vec!["R003"]);
        assert_eq!(f[0].file, "crates/simdb/src/engine.rs");
        assert_eq!(f[0].chain.len(), 3);
        assert_eq!(f[0].chain[0].function, "ctrlplane::director::reconcile");
        assert_eq!(f[0].chain[2].function, "simdb::engine::pick_slot");
        assert!(f[0].message.contains("reconcile"));
    }

    #[test]
    fn r003_skips_unreachable_and_test_panics() {
        let files = vec![
            file(
                "crates/ctrlplane/src/director.rs",
                "ctrlplane",
                "pub fn reconcile() { simdb::engine::apply_all(); }",
            ),
            file(
                "crates/simdb/src/engine.rs",
                "simdb",
                "pub fn apply_all() {}\n\
                 fn dead_code() { x.unwrap(); }\n\
                 #[cfg(test)] mod t { fn t() { y.unwrap(); } }",
            ),
        ];
        assert!(run_flow(files).is_empty());
    }

    #[test]
    fn r003_does_not_duplicate_r001_in_panic_free_crates() {
        // A panic directly in ctrlplane is R001's finding; R003 stays out.
        let files = vec![file(
            "crates/ctrlplane/src/director.rs",
            "ctrlplane",
            "pub fn reconcile() { helper(); }\nfn helper() { x.unwrap(); }",
        )];
        assert!(run_flow(files).is_empty());
    }

    #[test]
    fn r003_covers_shardpool_worker_entries() {
        let files = vec![file(
            "crates/cloudsim/src/shard.rs",
            "cloudsim",
            "fn worker_main() { deep(); }\nfn deep() { panic!(\"lane\"); }",
        )];
        let f = run_flow(files);
        assert_eq!(ids(&f), vec!["R003"]);
        assert_eq!(f[0].chain.len(), 2);
        assert!(f[0].message.contains("worker_main"));
    }

    #[test]
    fn r003_roots_simdb_backend_impls_in_any_file() {
        let files = vec![file(
            "crates/simdb/src/engine.rs",
            "simdb",
            "impl Backend for SimDatabase {\n\
                 fn tick(&mut self, dt_ms: u64) { settle(dt_ms); }\n\
                 fn now(&self) -> u64 { self.clock.unwrap() }\n\
             }\n\
             fn settle(dt_ms: u64) { slot.expect(\"slot\"); }",
        )];
        let f = run_flow(files);
        assert_eq!(ids(&f), vec!["R003"], "{f:#?}");
        assert_eq!(f[0].chain.len(), 2);
        assert!(f[0].message.contains("tick"), "{}", f[0].message);
    }

    #[test]
    fn r003_stops_at_ambiguous_edges() {
        let files = vec![
            file(
                "crates/ctrlplane/src/d.rs",
                "ctrlplane",
                "pub fn go() { tick(); }",
            ),
            file("crates/a/src/x.rs", "a", "pub fn tick() { v.unwrap(); }"),
            file("crates/b/src/y.rs", "b", "pub fn tick() { w.unwrap(); }"),
        ];
        assert!(run_flow(files).is_empty());
    }

    // ----------------------- R004 -----------------------------------

    #[test]
    fn r004_flags_panic_blocking_and_double_lock_under_guard() {
        let src = "
            fn worker(&self) {
                let mut s = self.state.lock();
                s.push(1);
                self.tx.send(2).unwrap();
                std::thread::sleep(d);
                let again = self.state.lock();
            }";
        let f = run_flow(vec![file("crates/cloudsim/src/w.rs", "cloudsim", src)]);
        let rules: Vec<_> = ids(&f);
        assert_eq!(rules, vec!["R004", "R004", "R004"]);
        assert!(f[0].message.contains("can panic"));
        assert!(f[1].message.contains("blocks"));
        assert!(f[2].message.contains("re-locks"));
    }

    #[test]
    fn r004_respects_scope_end_and_drop() {
        let src = "
            fn ok(&self) {
                { let s = self.state.lock(); s.push(1); }
                self.rx.recv().unwrap();
                let g = self.state.lock();
                drop(g);
                std::thread::sleep(d);
            }";
        let f = run_flow(vec![file("crates/cloudsim/src/w.rs", "cloudsim", src)]);
        assert!(f.is_empty(), "got: {:?}", ids(&f));
    }

    #[test]
    fn r004_ignores_deref_copy_and_bind_own_statement() {
        // `*slot.out.lock()` holds no live guard; `.expect` inside the
        // bind statement itself is part of acquiring, not holding.
        let src = "
            fn read(&self) -> u64 {
                let g = self.cell.lock().expect(\"poisoned\");
                let out = *self.other.lock();
                out + *g
            }";
        let f = run_flow(vec![file("crates/cloudsim/src/w.rs", "cloudsim", src)]);
        assert!(f.is_empty(), "got: {:?}", ids(&f));
    }

    // ----------------------- D006 -----------------------------------

    #[test]
    fn d006_traces_taint_from_source_to_sink() {
        let files = vec![
            file(
                "crates/cloudsim/src/engine.rs",
                "cloudsim",
                "pub fn record(&mut self) { let j = jitter(); self.log.emit(j); }",
            ),
            file(
                "crates/cloudsim/src/jit.rs",
                "cloudsim",
                "pub fn jitter() -> u64 { stamp() }\n\
                 fn stamp() -> u64 { Instant::now().as_micros() }",
            ),
        ];
        let f = run_flow(files);
        assert_eq!(ids(&f), vec!["D006"]);
        assert_eq!(f[0].file, "crates/cloudsim/src/engine.rs");
        assert_eq!(f[0].chain.len(), 3);
        assert!(f[0].message.contains("wall-clock read"));
        assert!(f[0].chain[2].function.ends_with("jit::stamp"));
    }

    #[test]
    fn d006_requires_a_cross_function_chain() {
        // Source and sink in the same fn is D001's (local) finding.
        let files = vec![file(
            "crates/cloudsim/src/engine.rs",
            "cloudsim",
            "pub fn record(&mut self) { self.log.emit(Instant::now().as_micros()); }",
        )];
        assert!(run_flow(files).iter().all(|f| f.rule != "D006"));
    }

    #[test]
    fn d006_ignores_sinks_outside_scoped_crates() {
        let files = vec![file(
            "crates/workload/src/gen.rs",
            "workload",
            "pub fn record(&mut self) { self.log.emit(jitter()); }\n\
                 pub fn jitter() -> u64 { Instant::now().as_micros() }",
        )];
        assert!(run_flow(files).is_empty());
    }

    #[test]
    fn d006_flags_entropy_rng_sources_too() {
        let files = vec![
            file(
                "crates/scenario/src/plan.rs",
                "scenario",
                "pub fn seal(&mut self) { self.fp.mix_u64(salt()); }",
            ),
            file(
                "crates/scenario/src/salt.rs",
                "scenario",
                "pub fn salt() -> u64 { rand::thread_rng().gen() }",
            ),
        ];
        let f = run_flow(files);
        assert_eq!(ids(&f), vec!["D006"]);
        assert!(f[0].message.contains("entropy-seeded RNG"));
    }
}
