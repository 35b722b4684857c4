//! `autodbaas-lint` (detlint): a from-scratch determinism & robustness
//! lint engine for the AutoDBaaS workspace.
//!
//! The reproduction's value rests on bit-for-bit replayable simulation —
//! the chaos engine asserts FNV-fingerprint-identical event logs and the
//! parallel fleet drive asserts thread-count invariance — yet nothing
//! *statically* prevented a future PR from reintroducing wall-clock reads,
//! unseeded RNG, or hash-iteration-order dependence into a sim path. This
//! crate is that gate. It carries its own Rust lexer ([`lexer`]) so it has
//! zero external dependencies, a rule registry ([`rules`]) with per-crate
//! scoping, and one suppression syntax, `// detlint-allow: <RULE> <reason>`,
//! that requires a reason.
//!
//! v2 adds structural analysis on top of the same lexer: a
//! recursive-descent parser ([`parse`] → [`ast`]) producing a coarse
//! span-accurate item tree per file, a workspace symbol table and call
//! graph ([`callgraph`]) with explicit resolved/ambiguous/external
//! accounting, and interprocedural rules ([`flow`]): R003
//! panic-reachability from fleet entry points (with the full call chain
//! in the diagnostic), R004 lock discipline, and D006 determinism taint
//! from wall-clock/RNG/hash-order sources into event-log and fingerprint
//! sinks. S002 (SAFETY-audited `unsafe`) rides on the token layer.
//!
//! Three entry points:
//! - `cargo run -p autodbaas-lint` — human output, exit 1 on findings;
//! - `tests/lint_clean.rs` (tier-1) — fails the build on any active
//!   finding via [`run_workspace`];
//! - `cargo run -p autodbaas-lint -- --json` — machine-readable output
//!   (schema v3; v1 consumers fail loudly on the missing `active` field).

pub mod ast;
pub mod callgraph;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;

use callgraph::GraphStats;
use rules::{all_rules, FileCtx, Finding, Rule};
use std::path::{Path, PathBuf};

/// How one finding was disposed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Live violation: fails the gate.
    Active,
    /// Silenced by a reasoned `detlint-allow` comment.
    Suppressed,
}

/// One finding plus its disposition.
#[derive(Debug, Clone)]
pub struct Diagnosed {
    /// The underlying finding.
    pub finding: Finding,
    /// What happened to it.
    pub disposition: Disposition,
}

/// One source file handed to [`lint_sources`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Owning crate ([`crate_of`] derives it from the path).
    pub crate_name: String,
    /// File contents.
    pub src: String,
}

/// The result of linting a set of sources.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every finding with allow-suppression already applied; in (file,
    /// line) order once [`run_workspace`] returns it.
    pub diagnostics: Vec<Diagnosed>,
    /// Files analyzed.
    pub files_scanned: usize,
    /// Call-graph resolution accounting.
    pub graph: GraphStats,
}

impl Report {
    /// Findings that fail the gate.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.diagnostics
            .iter()
            .filter(|d| d.disposition == Disposition::Active)
            .map(|d| &d.finding)
    }

    /// Number of gate-failing findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// True when the gate passes.
    pub fn is_clean(&self) -> bool {
        self.active_count() == 0
    }
}

/// A `// detlint-allow: RULES reason` comment, parsed.
#[derive(Debug, Clone)]
struct Allow {
    rules: Vec<String>,
    reason: String,
    line: u32,
    col: u32,
}

const ALLOW_MARKER: &str = "detlint-allow:";

/// Parse every `detlint-allow` comment in a token stream.
fn parse_allows(src: &str, tokens: &[lexer::Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(
            t.kind,
            lexer::TokKind::LineComment | lexer::TokKind::BlockComment
        ) {
            continue;
        }
        let text = t.text(src);
        let Some(pos) = text.find(ALLOW_MARKER) else {
            continue;
        };
        let rest = text[pos + ALLOW_MARKER.len()..]
            .trim_end_matches("*/")
            .trim();
        let (rules_part, reason) = match rest.split_once(char::is_whitespace) {
            Some((r, why)) => (r, why.trim()),
            None => (rest, ""),
        };
        let rules: Vec<String> = rules_part
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        // Only a list of plausible rule ids (a letter + digits, like D001)
        // counts as a directive — prose *describing* the syntax, such as
        // "detlint-allow: <RULE> <reason>" in documentation, does not.
        let plausible = |s: &str| {
            let mut cs = s.chars();
            cs.next().is_some_and(|c| c.is_ascii_alphabetic())
                && cs.clone().next().is_some()
                && cs.all(|c| c.is_ascii_digit())
        };
        if rules.is_empty() && rest.is_empty() {
            // Bare "detlint-allow:" — an allow someone forgot to finish.
        } else if !rules.iter().all(|r| plausible(r)) {
            continue;
        }
        out.push(Allow {
            rules,
            reason: reason.to_string(),
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// S001 findings for a file's allow comments: every allow must carry a
/// reason and name known rules.
fn s001_findings(path: &str, src: &str, allows: &[Allow]) -> Vec<Diagnosed> {
    let mut out = Vec::new();
    for a in allows {
        let line_snip = src
            .lines()
            .nth(a.line as usize - 1)
            .unwrap_or("")
            .trim()
            .to_string();
        if a.reason.is_empty() || a.rules.is_empty() {
            out.push(Diagnosed {
                finding: Finding {
                    rule: "S001",
                    file: path.to_string(),
                    line: a.line,
                    col: a.col,
                    snippet: line_snip.clone(),
                    message: "detlint-allow without a reason: write \
                              `// detlint-allow: <RULE> <why this is safe>`"
                        .to_string(),
                    in_test: false,
                    chain: Vec::new(),
                },
                disposition: Disposition::Active,
            });
            continue;
        }
        if let Some(bogus) = a
            .rules
            .iter()
            .find(|r| !all_rules().iter().any(|rule| rule.id == **r))
        {
            out.push(Diagnosed {
                finding: Finding {
                    rule: "S001",
                    file: path.to_string(),
                    line: a.line,
                    col: a.col,
                    snippet: line_snip,
                    message: format!("detlint-allow names unknown rule `{bogus}`"),
                    in_test: false,
                    chain: Vec::new(),
                },
                disposition: Disposition::Active,
            });
        }
    }
    out
}

/// Apply suppressions: a reasoned allow on line L silences matching
/// findings on L (trailing comment) and L+1 (comment-above style).
fn apply_allows(findings: Vec<Finding>, allows: &[Allow]) -> Vec<Diagnosed> {
    findings
        .into_iter()
        .map(|f| {
            let suppressed = allows.iter().any(|a| {
                !a.reason.is_empty()
                    && a.rules.iter().any(|r| r == f.rule)
                    && (a.line == f.line || a.line + 1 == f.line)
            });
            Diagnosed {
                disposition: if suppressed {
                    Disposition::Suppressed
                } else {
                    Disposition::Active
                },
                finding: f,
            }
        })
        .collect()
}

/// Lint one file's source with the **per-file** rules only (D001–D005,
/// R001, R002, S001, S002). The interprocedural rules (R003, R004, D006)
/// need the whole workspace — use [`lint_sources`] for those. `path`
/// must be workspace-relative with forward slashes; `crate_name` scopes
/// the rules.
pub fn lint_source(path: &str, crate_name: &str, src: &str) -> Vec<Diagnosed> {
    let tokens = lexer::tokenize(src);
    let code = lexer::code_tokens(&tokens);
    let regions = rules::test_regions(src, &code);
    let ctx = FileCtx {
        path,
        crate_name,
        src,
        tokens: &tokens,
        code: &code,
        test_regions: &regions,
    };
    let mut findings = Vec::new();
    for rule in all_rules() {
        (rule.check)(&ctx, &mut findings);
    }
    let allows = parse_allows(src, &tokens);
    let mut out = s001_findings(path, src, &allows);
    out.extend(apply_allows(findings, &allows));
    out
}

/// Lint a set of sources with the full v2 pipeline: per-file rules, then
/// parse → call graph → interprocedural rules, with allow suppression
/// applied to everything. This is what [`run_workspace`] runs on the real
/// tree and what fixture tests feed synthetic workspaces into.
pub fn lint_sources(files: &[SourceFile]) -> Report {
    let mut diagnostics = Vec::new();
    let mut parsed: Vec<callgraph::FileAst> = Vec::with_capacity(files.len());
    let mut all_allows: Vec<Vec<Allow>> = Vec::with_capacity(files.len());
    let mut hash_sites: Vec<Vec<(usize, u32)>> = Vec::with_capacity(files.len());
    for f in files {
        let tokens = lexer::tokenize(&f.src);
        let code = lexer::code_tokens(&tokens);
        let regions = rules::test_regions(&f.src, &code);
        let ctx = FileCtx {
            path: &f.path,
            crate_name: &f.crate_name,
            src: &f.src,
            tokens: &tokens,
            code: &code,
            test_regions: &regions,
        };
        let mut findings = Vec::new();
        for rule in all_rules() {
            (rule.check)(&ctx, &mut findings);
        }
        let allows = parse_allows(&f.src, &tokens);
        diagnostics.extend(s001_findings(&f.path, &f.src, &allows));
        diagnostics.extend(apply_allows(findings, &allows));
        // Hash-iteration sites feed D006 source detection in *every*
        // crate (taint crosses crate boundaries; D003's crate scoping
        // does not apply here). A reviewed `detlint-allow: D003` clears
        // the site as a taint source too — its mandatory reason asserts
        // the iteration is order-independent (e.g. collected then
        // sorted), which is exactly the property D006 propagates.
        let d003_allowed = |line: u32| {
            allows.iter().any(|a| {
                !a.reason.is_empty()
                    && a.rules.iter().any(|r| r == "D003")
                    && (a.line == line || a.line + 1 == line)
            })
        };
        hash_sites.push(
            rules::hash_iteration_sites(&ctx)
                .into_iter()
                .map(|(i, _)| (code[i].start, code[i].line))
                .filter(|&(_, line)| !d003_allowed(line))
                .collect(),
        );
        parsed.push(callgraph::FileAst {
            path: f.path.clone(),
            crate_name: f.crate_name.clone(),
            src: f.src.clone(),
            ast: parse::parse(&f.src, &code),
            test_regions: regions,
        });
        all_allows.push(allows);
    }

    let graph = callgraph::CallGraph::build(&parsed);
    let flow_findings = flow::run(&parsed, &graph, &hash_sites);
    for finding in flow_findings {
        let allows = files
            .iter()
            .position(|f| f.path == finding.file)
            .map(|i| all_allows[i].as_slice())
            .unwrap_or(&[]);
        diagnostics.extend(apply_allows(vec![finding], allows));
    }
    Report {
        diagnostics,
        files_scanned: files.len(),
        graph: graph.stats,
    }
}

/// Crate name for a workspace-relative path.
pub fn crate_of(rel_path: &str) -> &str {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        return rest.split('/').next().unwrap_or("unknown");
    }
    match rel_path.split('/').next() {
        Some("src") => "autodbaas",
        Some("tests") => "tests",
        Some("examples") => "examples",
        _ => "unknown",
    }
}

/// Collect the workspace's own `.rs` files (vendored stand-ins, lint
/// fixtures and build output excluded), as workspace-relative
/// forward-slash paths, sorted so reports are stable.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds known-bad snippets the rule tests feed to
            // `lint_sources` directly; linting them would fail the gate
            // by design.
            if name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let paths = workspace_files(root)?;
    let mut sources = Vec::with_capacity(paths.len());
    for file in &paths {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let crate_name = crate_of(&rel).to_string();
        sources.push(SourceFile {
            path: rel,
            crate_name,
            src: std::fs::read_to_string(file)?,
        });
    }
    let mut report = lint_sources(&sources);
    report.diagnostics.sort_by(|a, b| {
        (&a.finding.file, a.finding.line, a.finding.rule).cmp(&(
            &b.finding.file,
            b.finding.line,
            b.finding.rule,
        ))
    });
    Ok(report)
}

/// The rule registry entry for an id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    all_rules().iter().find(|r| r.id == id)
}

/// Render the report for humans.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let f = &d.finding;
        let tag = match d.disposition {
            Disposition::Active => "",
            Disposition::Suppressed => " [allowed]",
        };
        if d.disposition == Disposition::Active {
            out.push_str(&format!(
                "{}: {}:{}:{}: {}\n    {}\n",
                f.rule, f.file, f.line, f.col, f.message, f.snippet
            ));
            if !f.chain.is_empty() {
                out.push_str("    call chain:\n");
                for (k, hop) in f.chain.iter().enumerate() {
                    out.push_str(&format!(
                        "      {}. {} ({}:{})\n",
                        k + 1,
                        hop.function,
                        hop.file,
                        hop.line
                    ));
                }
            }
        } else {
            out.push_str(&format!(
                "{}{}: {}:{}:{}\n",
                f.rule, tag, f.file, f.line, f.col
            ));
        }
    }
    let suppressed = report
        .diagnostics
        .iter()
        .filter(|d| d.disposition == Disposition::Suppressed)
        .count();
    let g = &report.graph;
    out.push_str(&format!(
        "detlint: {} files, {} fns, {} call edges (+{} ambiguous, {} external), \
         {} active finding(s), {} allowed\n",
        report.files_scanned,
        g.functions,
        g.resolved_edges,
        g.ambiguous_edges,
        g.external_calls,
        report.active_count(),
        suppressed
    ));
    if report.active_count() > 0 {
        out.push_str("run `cargo run -p autodbaas-lint -- --explain <RULE>` for rule details\n");
    }
    out
}

/// Render the report as JSON, schema v3 (hand-rolled; no serde in this
/// workspace). v2 moved the per-disposition counts under `counts` and
/// dropped the v1 top-level `active` field on purpose: a v1 consumer that
/// reads `.active` must fail loudly rather than silently mis-parse, and
/// `schema_version` tells it why. v3 drops `counts.baselined` with the
/// baseline file.
pub fn render_json(report: &Report) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut items = Vec::new();
    for d in &report.diagnostics {
        let f = &d.finding;
        let disp = match d.disposition {
            Disposition::Active => "active",
            Disposition::Suppressed => "suppressed",
        };
        let chain = f
            .chain
            .iter()
            .map(|h| {
                format!(
                    "{{\"function\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                    esc(&h.function),
                    esc(&h.file),
                    h.line
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        items.push(format!(
            "{{\"rule\":\"{}\",\"category\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
             \"message\":\"{}\",\"snippet\":\"{}\",\"in_test\":{},\"disposition\":\"{}\",\
             \"chain\":[{}]}}",
            esc(f.rule),
            rules::category(f.rule),
            esc(&f.file),
            f.line,
            f.col,
            esc(&f.message),
            esc(&f.snippet),
            f.in_test,
            disp,
            chain
        ));
    }
    let suppressed = report
        .diagnostics
        .iter()
        .filter(|d| d.disposition == Disposition::Suppressed)
        .count();
    let g = &report.graph;
    format!(
        "{{\"schema_version\":3,\"files_scanned\":{},\
         \"counts\":{{\"active\":{},\"suppressed\":{}}},\
         \"callgraph\":{{\"functions\":{},\"resolved_edges\":{},\
         \"ambiguous_edges\":{},\"external_calls\":{}}},\
         \"findings\":[{}]}}\n",
        report.files_scanned,
        report.active_count(),
        suppressed,
        g.functions,
        g.resolved_edges,
        g.ambiguous_edges,
        g.external_calls,
        items.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_silences_same_and_next_line_only() {
        let src = "\
// detlint-allow: D001 startup banner only, never enters a replayed path
fn f() { let t = Instant::now(); }
fn g() { let t = Instant::now(); }
fn h() { let t = Instant::now(); } // detlint-allow: D001 trailing, same line
";
        let ds = lint_source("crates/simdb/src/x.rs", "simdb", src);
        let active: Vec<_> = ds
            .iter()
            .filter(|d| d.disposition == Disposition::Active)
            .collect();
        let suppressed: Vec<_> = ds
            .iter()
            .filter(|d| d.disposition == Disposition::Suppressed)
            .collect();
        assert_eq!(active.len(), 1, "line 3 is not covered by either allow");
        assert_eq!(active[0].finding.line, 3);
        assert_eq!(suppressed.len(), 2);
    }

    #[test]
    fn allow_without_reason_is_its_own_finding() {
        let src = "// detlint-allow: D001\nfn f() { let t = Instant::now(); }\n";
        let ds = lint_source("crates/simdb/src/x.rs", "simdb", src);
        // The reasonless allow does NOT suppress, and adds S001.
        let rules: Vec<_> = ds
            .iter()
            .filter(|d| d.disposition == Disposition::Active)
            .map(|d| d.finding.rule)
            .collect();
        assert!(rules.contains(&"S001"));
        assert!(rules.contains(&"D001"));
    }

    #[test]
    fn allow_with_unknown_rule_is_flagged() {
        let src = "// detlint-allow: D999 sounds plausible\nfn f() {}\n";
        let ds = lint_source("crates/simdb/src/x.rs", "simdb", src);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].finding.rule, "S001");
        assert!(ds[0].finding.message.contains("D999"));
    }

    #[test]
    fn multi_rule_allow_covers_both() {
        let src = "\
// detlint-allow: D001,D002 fixture exercising both rules at once
fn f() { let t = Instant::now(); let r = rand::thread_rng(); }
";
        let ds = lint_source("crates/simdb/src/x.rs", "simdb", src);
        assert!(ds.iter().all(|d| d.disposition == Disposition::Suppressed));
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/simdb/src/wal.rs"), "simdb");
        assert_eq!(crate_of("src/main.rs"), "autodbaas");
        assert_eq!(crate_of("tests/lint_clean.rs"), "tests");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples");
    }

    #[test]
    fn every_rule_has_an_explain_page() {
        for r in all_rules() {
            assert!(r.explain.len() > 100, "{} explain page is too thin", r.id);
            assert!(r.explain.contains(r.id));
            assert!(rule_by_id(r.id).is_some());
        }
        assert!(rule_by_id("D999").is_none());
    }

    #[test]
    fn json_v3_shape_escapes_and_counts() {
        let src = "fn f() { let t = Instant::now(); } // has \"quotes\" in line\n";
        let ds = lint_source("crates/simdb/src/x.rs", "simdb", src);
        let report = Report {
            diagnostics: ds,
            files_scanned: 1,
            ..Report::default()
        };
        let json = render_json(&report);
        assert!(json.contains("\"schema_version\":3"));
        assert!(json.contains("\"counts\":{\"active\":1,\"suppressed\":0}"));
        assert!(json.contains("\"category\":\"determinism\""));
        assert!(json.contains("\"chain\":[]"));
        assert!(json.contains("\"callgraph\":"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(!json.contains("\n\""), "newlines must be escaped");
        // The v1 top-level field is gone: v1 consumers must break loudly.
        assert!(!json.contains("{\"files_scanned\""));
        assert!(!json.contains(",\"active\":"));
    }

    #[test]
    fn lint_sources_runs_flow_rules_and_applies_allows() {
        let files = vec![
            SourceFile {
                path: "crates/ctrlplane/src/d.rs".into(),
                crate_name: "ctrlplane".into(),
                src: "pub fn reconcile() { simdb::apply(); }".into(),
            },
            SourceFile {
                path: "crates/simdb/src/lib.rs".into(),
                crate_name: "simdb".into(),
                src: "pub fn apply() { x.unwrap(); }".into(),
            },
        ];
        let run = lint_sources(&files);
        let active: Vec<_> = run
            .diagnostics
            .iter()
            .filter(|d| d.disposition == Disposition::Active)
            .collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].finding.rule, "R003");
        assert_eq!(active[0].finding.chain.len(), 2);
        assert!(run.graph.functions == 2 && run.graph.resolved_edges == 1);

        // A reasoned allow at the panic site suppresses the flow finding.
        let files_allowed = vec![
            files[0].clone(),
            SourceFile {
                path: "crates/simdb/src/lib.rs".into(),
                crate_name: "simdb".into(),
                src: "pub fn apply() {\n    // detlint-allow: R003 x is Some by construction\n    x.unwrap();\n}".into(),
            },
        ];
        let run = lint_sources(&files_allowed);
        assert!(
            run.diagnostics
                .iter()
                .all(|d| d.disposition == Disposition::Suppressed),
            "flow findings must honor detlint-allow"
        );
    }

    #[test]
    fn d003_allow_clears_the_site_as_a_d006_taint_source() {
        let sink = SourceFile {
            path: "crates/cloudsim/src/rec.rs".into(),
            crate_name: "cloudsim".into(),
            src: "pub fn record(&mut self) { self.log.emit(simdb::agg::tally()); }".into(),
        };
        let bare = "pub fn tally() -> u64 {\n\
                    \x20   let counts: HashMap<u32, u64> = HashMap::new();\n\
                    \x20   let mut v: Vec<u64> = counts.values().copied().collect();\n\
                    \x20   v.sort_unstable();\n\
                    \x20   v[0]\n\
                    }";
        let run = lint_sources(&[
            sink.clone(),
            SourceFile {
                path: "crates/simdb/src/agg.rs".into(),
                crate_name: "simdb".into(),
                src: bare.into(),
            },
        ]);
        assert!(
            run.diagnostics
                .iter()
                .any(|d| d.finding.rule == "D006" && d.disposition == Disposition::Active),
            "unallowed hash iteration must taint the sink"
        );

        // The same workspace with a reviewed D003 allow at the iteration
        // site: the allow's reason asserts order-independence, so the
        // site stops seeding D006 taint entirely (not merely suppressed).
        let allowed = bare.replace(
            "    let mut v",
            "    // detlint-allow: D003 collected then sorted before use\n    let mut v",
        );
        let run = lint_sources(&[
            sink,
            SourceFile {
                path: "crates/simdb/src/agg.rs".into(),
                crate_name: "simdb".into(),
                src: allowed,
            },
        ]);
        assert!(
            run.diagnostics.iter().all(|d| d.finding.rule != "D006"),
            "a D003-allowed site must not seed D006 taint"
        );
    }

    #[test]
    fn render_human_prints_the_call_chain() {
        let files = vec![
            SourceFile {
                path: "crates/ctrlplane/src/d.rs".into(),
                crate_name: "ctrlplane".into(),
                src: "pub fn reconcile() { simdb::apply(); }".into(),
            },
            SourceFile {
                path: "crates/simdb/src/lib.rs".into(),
                crate_name: "simdb".into(),
                src: "pub fn apply() { x.unwrap(); }".into(),
            },
        ];
        let text = render_human(&lint_sources(&files));
        assert!(text.contains("call chain:"));
        assert!(text.contains("1. ctrlplane::d::reconcile"));
        assert!(text.contains("2. simdb::apply"));
    }
}
