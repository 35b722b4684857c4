//! The detlint rule set: determinism (D···) and robustness (R···) rules,
//! plus the engine-level suppression rule (S001).
//!
//! Every rule is a pure function over a [`FileCtx`] — the lexed tokens of
//! one file plus enough workspace context (crate name, test regions) to
//! scope itself. Rules match *token patterns*, never raw text, so string
//! literals and comments can't produce false positives; the trade-off is
//! that rules are heuristic (no type inference), which the
//! `detlint-allow` escape hatch exists to absorb.

use crate::lexer::{TokKind, Token};

/// One hop of an interprocedural call chain (entry→panic for R003,
/// sink→source for D006).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Display path of the function (`cloudsim::shard::ShardPool::new`).
    pub function: String,
    /// Workspace-relative file.
    pub file: String,
    /// Line of the call into the next hop (or of the panic/source itself
    /// on the last hop).
    pub line: u32,
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D001`, `R002`, `S001`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The trimmed source line.
    pub snippet: String,
    /// Human-readable diagnostic.
    pub message: String,
    /// True when the finding sits inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Interprocedural call chain (empty for single-site rules).
    pub chain: Vec<ChainHop>,
}

/// Report category for a rule id: `D…` rules guard determinism, `R…`
/// robustness, `S…` lint-engine hygiene.
pub fn category(rule_id: &str) -> &'static str {
    match rule_id.as_bytes().first() {
        Some(b'D') => "determinism",
        Some(b'R') => "robustness",
        _ => "hygiene",
    }
}

/// Lexed view of one source file.
pub struct FileCtx<'a> {
    /// Workspace-relative path (`crates/simdb/src/knobs.rs`).
    pub path: &'a str,
    /// Crate the file belongs to (`simdb`, `autodbaas`, `tests`, …).
    pub crate_name: &'a str,
    /// Raw source.
    pub src: &'a str,
    /// All tokens including comments.
    pub tokens: &'a [Token],
    /// Tokens with comments stripped — what patterns match against.
    pub code: &'a [Token],
    /// Byte ranges lexically inside `#[cfg(test)]` modules / `#[test]` fns.
    pub test_regions: &'a [(usize, usize)],
}

impl FileCtx<'_> {
    fn in_test(&self, byte: usize) -> bool {
        self.crate_name == "tests"
            // Per-crate integration tests (`crates/X/tests/…`) and bench
            // harnesses compile into test binaries, not the runtime.
            || self.path.contains("/tests/")
            || self.path.contains("/benches/")
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| byte >= s && byte < e)
    }

    fn line_snippet(&self, line: u32) -> String {
        self.src
            .lines()
            .nth(line as usize - 1)
            .unwrap_or("")
            .trim()
            .to_string()
    }

    fn finding(&self, rule: &'static str, tok: &Token, message: String) -> Finding {
        Finding {
            rule,
            file: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            snippet: self.line_snippet(tok.line),
            message,
            in_test: self.in_test(tok.start),
            chain: Vec::new(),
        }
    }

    /// Positions `i` in `code` where the token texts starting at `i` equal
    /// `pat` element-wise.
    fn match_seq(&self, pat: &[&str]) -> Vec<usize> {
        let mut out = Vec::new();
        if self.code.len() < pat.len() {
            return out;
        }
        'outer: for i in 0..=self.code.len() - pat.len() {
            for (j, want) in pat.iter().enumerate() {
                if self.code[i + j].text(self.src) != *want {
                    continue 'outer;
                }
            }
            out.push(i);
        }
        out
    }
}

/// A registered rule.
pub struct Rule {
    /// Stable id.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The `--explain` page.
    pub explain: &'static str,
    /// The matcher.
    pub check: fn(&FileCtx<'_>, &mut Vec<Finding>),
}

/// Crates whose tick/telemetry output must be bit-for-bit reproducible.
pub(crate) const SIM_CRATES: &[&str] = &[
    "simdb",
    "cloudsim",
    "ctrlplane",
    "tuner",
    "scenario",
    "snapshot",
];
/// Crates whose runtime paths must never panic on request content.
pub(crate) const PANIC_FREE_CRATES: &[&str] = &["ctrlplane", "gateway", "snapshot"];

/// The gateway's binaries (daemon + loadgen) are measurement/driver
/// shells like the `bench` crate: they may read the wall clock. The
/// library — routing, admission, codec — stays in D001 scope.
fn is_gateway_bin(ctx: &FileCtx<'_>) -> bool {
    ctx.crate_name == "gateway" && ctx.path.contains("/src/bin/")
}
/// Crates where hash-order can reach event logs or tick results.
const ORDER_SENSITIVE_CRATES: &[&str] = &[
    "simdb",
    "cloudsim",
    "ctrlplane",
    "core",
    "telemetry",
    "scenario",
];

/// The full rule registry, in report order.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            id: "D001",
            title: "wall-clock read in simulation/control-plane code",
            explain: "\
D001 — wall-clock reads in deterministic code

`SystemTime::now()` and `Instant::now()` read the host clock, which makes
any value derived from them differ between runs. The chaos engine (PR 2)
asserts FNV-fingerprint-identical event logs across replays, and the
fleet drive asserts thread-count invariance; a single wall-clock read in
`simdb` (both storage engines — the LSM engine's compaction scheduling
is as replay-sensitive as the page-heap checkpointer), `cloudsim`,
`ctrlplane`, `tuner` or `scenario` silently breaks
both — `scenario` additionally promises that `(profile, seed)` pins plan
generation, shrinking and bug-base replay bit-for-bit. All simulation
time must come from the tick counter (`SimTime`). The
`gateway` library is also in scope: its routing/admission layers take
`now_ms` as a parameter so they replay deterministically, and its only
sanctioned wall-clock reads live in `clock.rs` behind reasoned allows.

Allowed: the `bench` crate and the gateway's binaries
(`crates/gateway/src/bin/`) — wall-clock measurement is their purpose.
Fix: thread `SimTime`/tick counters through instead; if a wall-clock
read is genuinely outside every replayed path, add
`// detlint-allow: D001 <why this cannot reach sim state>`.",
            check: |ctx, out| {
                let in_scope = SIM_CRATES.contains(&ctx.crate_name)
                    || (ctx.crate_name == "gateway" && !is_gateway_bin(ctx));
                if !in_scope {
                    return;
                }
                for clock in ["SystemTime", "Instant"] {
                    for i in ctx.match_seq(&[clock, "::", "now"]) {
                        out.push(ctx.finding(
                            "D001",
                            &ctx.code[i],
                            format!(
                                "`{clock}::now()` in `{}` breaks replay determinism; \
                                 derive time from `SimTime` ticks instead",
                                ctx.crate_name
                            ),
                        ));
                    }
                }
            },
        },
        Rule {
            id: "D002",
            title: "unseeded or entropy-seeded RNG construction",
            explain: "\
D002 — unseeded / entropy-seeded RNG

`thread_rng()`, `SeedableRng::from_entropy()`, `OsRng` and
`rand::random()` pull seeds from OS entropy, so every run draws a
different stream. Every RNG in this workspace must be constructed with
`StdRng::seed_from_u64(seed)` (or an explicitly derived seed such as
`seed ^ SALT`) so reruns are bit-for-bit identical.

Allowed: the `bench` crate only.
Fix: accept a `seed: u64` parameter and use `seed_from_u64`; derive
per-component seeds by XOR-ing distinct salts.",
            check: |ctx, out| {
                if ctx.crate_name == "bench" {
                    return;
                }
                for (i, t) in ctx.code.iter().enumerate() {
                    if t.kind != TokKind::Ident {
                        continue;
                    }
                    let text = t.text(ctx.src);
                    let entropy_ctor = matches!(
                        text,
                        "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng"
                    );
                    // `rand::random` — require the path prefix so locals
                    // named `random` don't trip the rule.
                    let rand_random = text == "random"
                        && i >= 2
                        && ctx.code[i - 1].text(ctx.src) == "::"
                        && ctx.code[i - 2].text(ctx.src) == "rand";
                    if entropy_ctor || rand_random {
                        out.push(ctx.finding(
                            "D002",
                            t,
                            format!(
                                "`{text}` seeds from OS entropy; construct RNGs with \
                                 `StdRng::seed_from_u64(seed)` so runs replay identically"
                            ),
                        ));
                    }
                }
            },
        },
        Rule {
            id: "D003",
            title: "iteration over HashMap/HashSet in order-sensitive code",
            explain: "\
D003 — hash-order iteration in sim/control-plane code

`std::collections::HashMap`/`HashSet` iteration order depends on the
per-process SipHash key, so any float accumulation, event emission or
Vec built by iterating one differs between runs even at identical seeds.
In `simdb` (both storage engines included — an unordered map in the LSM
compaction planner would shuffle write-amp between runs), `cloudsim`,
`ctrlplane`, `core`, `telemetry` and `scenario` that order can reach
telemetry, event logs, tick results or shrunk counterexamples.

The rule tracks names declared with a HashMap/HashSet type (fields,
params, lets) and flags `.iter()`, `.keys()`, `.values()`, `.drain()`,
`.retain()`, `.into_iter()` and `for … in` over them.

Fix: switch the container to `BTreeMap`/`BTreeSet` (keys here are small
ints/strings — the hash win is negligible), or collect + sort before
consuming. Integer-only reductions are order-safe but still flagged:
keeping the container ordered is cheaper than re-auditing every use.",
            check: |ctx, out| {
                if !ORDER_SENSITIVE_CRATES.contains(&ctx.crate_name) {
                    return;
                }
                for (i, msg) in hash_iteration_sites(ctx) {
                    out.push(ctx.finding("D003", &ctx.code[i], msg));
                }
            },
        },
        Rule {
            id: "D004",
            title: "float accumulation across thread-partitioned work",
            explain: "\
D004 — float reduction in thread-spawning files

Float addition is not associative: summing per-chunk partials in a file
that partitions work across threads gives results that depend on chunk
count, so `shards = 4` and `= 8` diverge in the low bits — which
the fleet drive's shard-count-invariance test will catch only long
after the PR landed. This rule flags `sum::<f32|f64>()` turbofish
reductions and `fold(0.0, …)` float folds in any order-sensitive-crate
file that also spawns threads.

Fix: accumulate integers (fixed-point) across chunks, reduce in a fixed
chunk-index order on the coordinating thread, or keep per-node floats
and never cross-reduce them in the parallel section.",
            check: |ctx, out| {
                if !ORDER_SENSITIVE_CRATES.contains(&ctx.crate_name) {
                    return;
                }
                let spawns = ctx
                    .code
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text(ctx.src) == "spawn");
                if !spawns {
                    return;
                }
                for fty in ["f32", "f64"] {
                    for i in ctx.match_seq(&["sum", "::", "<", fty, ">"]) {
                        out.push(ctx.finding(
                            "D004",
                            &ctx.code[i],
                            format!(
                                "`sum::<{fty}>()` in a thread-spawning file: float \
                                 reduction order must not depend on thread/chunk count"
                            ),
                        ));
                    }
                }
                for i in ctx.match_seq(&["fold", "("]) {
                    // fold(0.0, …) or fold((0.0, …) — a float init literal.
                    for j in [i + 2, i + 3] {
                        if let Some(t) = ctx.code.get(j) {
                            let text = t.text(ctx.src);
                            if t.kind == TokKind::Number
                                && (text.contains('.')
                                    || text.contains("f3")
                                    || text.contains("f6"))
                            {
                                out.push(
                                    ctx.finding(
                                        "D004",
                                        &ctx.code[i],
                                        "float `fold` in a thread-spawning file: float \
                                     reduction order must not depend on thread/chunk count"
                                            .to_string(),
                                    ),
                                );
                                break;
                            }
                            if text != "(" {
                                break;
                            }
                        }
                    }
                }
            },
        },
        Rule {
            id: "D005",
            title: "thread spawn inside a loop",
            explain: "\
D005 — thread spawn inside a loop

Spawning a thread per loop iteration is how the fleet drive originally
worked: a `std::thread::scope` fan-out per tick paid a spawn, a stack
and a join for every shard on every one of millions of ticks, and the
sharded tick engine (`cloudsim::shard::ShardPool`) exists precisely to
delete that cost. A `spawn` inside a `for`/`while`/`loop` body is
either that regression coming back, or an unbounded thread-per-item
pattern that a large fleet or a hostile client can turn into resource
exhaustion. Flagged in non-test code: any `spawn(…)` call and any
`thread::scope(…)` call lexically inside a loop body.

Allowed: the `bench` crate.
Fix: hoist a fixed-size worker pool out of the loop and feed it through
channels or a generation barrier (see `ShardPool`); for loops that
genuinely build a bounded pool once — not per tick or per request —
add `// detlint-allow: D005 <why this loop runs once per build>`.",
            check: |ctx, out| {
                if ctx.crate_name == "bench" {
                    return;
                }
                let regions = loop_body_regions(ctx);
                if regions.is_empty() {
                    return;
                }
                for (i, t) in ctx.code.iter().enumerate() {
                    if t.kind != TokKind::Ident || ctx.in_test(t.start) {
                        continue;
                    }
                    let text = t.text(ctx.src);
                    let called = ctx.code.get(i + 1).map(|t| t.text(ctx.src)) == Some("(");
                    // Any `spawn(…)` — free fn, `thread::spawn`, builder or
                    // scope method — plus `thread::scope(…)` itself, which
                    // builds and joins a whole scope per call.
                    let spawn_call = text == "spawn" && called;
                    let scope_call = text == "scope"
                        && called
                        && i >= 2
                        && ctx.code[i - 1].text(ctx.src) == "::"
                        && ctx.code[i - 2].text(ctx.src) == "thread";
                    if !(spawn_call || scope_call)
                        || !regions.iter().any(|&(s, e)| t.start >= s && t.start < e)
                    {
                        continue;
                    }
                    let what = if spawn_call {
                        "`spawn` inside a loop starts a thread per iteration"
                    } else {
                        "`thread::scope` inside a loop spawns and joins a \
                         whole scope per iteration"
                    };
                    out.push(ctx.finding(
                        "D005",
                        t,
                        format!(
                            "{what}; hoist a persistent worker pool out of \
                             the loop (see `cloudsim::shard::ShardPool`)"
                        ),
                    ));
                }
            },
        },
        Rule {
            id: "D006",
            title: "determinism taint flowing into event-log/fingerprint sinks",
            explain: "\
D006 — determinism taint reaching replay-visible sinks

D001–D003 flag wall-clock reads, entropy-seeded RNGs and hash-order
iteration *where they happen* — but only inside the scoped crates, and
only locally. D006 lifts them to a flow property: a function anywhere in
the workspace that reads `Instant::now()`/`SystemTime::now()`, builds a
`thread_rng()`/`from_entropy()` RNG, or iterates a hash container is a
taint *source*; any function in the sim crates (or `telemetry`/`core`)
that calls `emit`/`emit_batch`/`fingerprint`/`mix`/`mix_u64` is a
*sink*. If a sink function transitively calls a source function over the
workspace call graph (loose edges — over-approximate on purpose), the
nondeterministic value can reach the event log or replay fingerprint,
and the chaos engine's bit-for-bit replay contract breaks. The
diagnostic prints the sink→source call chain.

Same-function source+sink is D001–D003's (local) finding and is not
re-reported. Blind spots: taint through stored state (write a timestamp
to a field, emit it later) and through function pointers is not tracked.
Fix: thread seeded/tick-derived values through the chain, or add
`// detlint-allow: D006 <why the tainted value cannot reach the sink
payload>` at the sink line.",
            check: |_ctx, _out| {
                // Emitted by the interprocedural engine (`flow.rs`),
                // which needs the whole-workspace call graph.
            },
        },
        Rule {
            id: "R001",
            title: "panicking call in control-plane/gateway runtime path",
            explain: "\
R001 — unwrap/expect/panic! in control-plane and gateway runtime paths

The control plane (`ctrlplane`) must keep running through faults — PR
2's whole point — and the `gateway` sits on a network socket where any
byte sequence an attacker sends must produce a typed error, never a
worker-thread abort. A `unwrap()`/`expect()` on a path the reconciler,
apply pipeline or request router exercises turns a recoverable
condition into a fleet-wide outage. The `snapshot` codec is held to the
same bar: a corrupted or truncated snapshot file must surface as a typed
`SnapError`, never a decoder panic — restore paths run inside the same
resumable harness processes. Flagged in non-test code of all three
crates (gateway binaries included): `.unwrap()`, `.expect(…)`,
`panic!`, `unimplemented!`, `todo!`.

Not flagged: `unwrap_or*` (total functions), `assert!` (intentional
invariant checks), and anything inside `#[cfg(test)]` / `#[test]`.
Fix: return a typed error (see `ApplyError`, `FrameError`) or
restructure so the invariant holds by construction; for
impossible-by-construction cases add
`// detlint-allow: R001 <why it cannot fire>`.",
            check: |ctx, out| {
                if !PANIC_FREE_CRATES.contains(&ctx.crate_name) {
                    return;
                }
                for (i, t) in ctx.code.iter().enumerate() {
                    if t.kind != TokKind::Ident || ctx.in_test(t.start) {
                        continue;
                    }
                    let text = t.text(ctx.src);
                    let method_call = |want: &str| {
                        text == want
                            && i > 0
                            && ctx.code[i - 1].text(ctx.src) == "."
                            && ctx.code.get(i + 1).map(|t| t.text(ctx.src)) == Some("(")
                    };
                    let macro_call = |want: &str| {
                        text == want && ctx.code.get(i + 1).map(|t| t.text(ctx.src)) == Some("!")
                    };
                    if method_call("unwrap") || method_call("expect") {
                        out.push(ctx.finding(
                            "R001",
                            t,
                            format!(
                                "`.{text}()` in a `{}` runtime path can abort \
                                 the fleet; return a typed error instead",
                                ctx.crate_name
                            ),
                        ));
                    } else if macro_call("panic")
                        || macro_call("unimplemented")
                        || macro_call("todo")
                    {
                        out.push(ctx.finding(
                            "R001",
                            t,
                            format!(
                                "`{text}!` in a `{}` runtime path can abort \
                                 the fleet; return a typed error instead",
                                ctx.crate_name
                            ),
                        ));
                    }
                }
            },
        },
        Rule {
            id: "R002",
            title: "lossy `as` cast in knob/unit arithmetic",
            explain: "\
R002 — lossy numeric `as` casts in knob/unit code

Knob values flow through `f64` (bytes, milliseconds, counts) and are
indexed by compact ids; an `as u16`/`as u32`/`as i32`/`as f32` cast in
that arithmetic silently truncates or wraps when a fleet grows past the
assumed bound, corrupting knob ids or planner estimates instead of
failing. Flagged in `simdb`'s knob/planner files: `as` casts to u8,
u16, u32, i8, i16, i32 and f32.

Fix: use `TryFrom` (`u16::try_from(i).expect(…)` is fine in simdb — the
panic names the violated bound), widen the target type, or clamp
explicitly before casting and add
`// detlint-allow: R002 <the bound that makes this lossless>`.",
            check: |ctx, out| {
                let knob_file = ctx.crate_name == "simdb"
                    && (ctx.path.ends_with("knobs.rs") || ctx.path.ends_with("planner.rs"));
                if !knob_file {
                    return;
                }
                const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
                for (i, t) in ctx.code.iter().enumerate() {
                    if t.kind == TokKind::Ident && t.text(ctx.src) == "as" {
                        if let Some(target) = ctx.code.get(i + 1) {
                            let ty = target.text(ctx.src);
                            if NARROW.contains(&ty) {
                                out.push(ctx.finding(
                                    "R002",
                                    t,
                                    format!(
                                        "`as {ty}` in knob/unit arithmetic truncates \
                                         silently; use `{ty}::try_from` or clamp first"
                                    ),
                                ));
                            }
                        }
                    }
                }
            },
        },
        Rule {
            id: "R003",
            title: "panic transitively reachable from a fleet entry point",
            explain: "\
R003 — panic reachable from control-plane/gateway/shard entry points

R001 sees a panic only where it is written; R003 walks the workspace
call graph. Entry points are the public functions of `ctrlplane` and
`gateway` (plus the gateway binaries' `main`), the `ShardPool`
worker entry points in `cloudsim/src/shard.rs` (`worker_main` and the
pool's public surface) — the threads PR 5 keeps alive for the life of
the fleet, where one panic wedges a shard barrier forever — and the
`Backend` trait `tick`/`apply_config` impls anywhere in the `simdb`
crate (today `SimDatabase`'s, in `engine.rs`, which reach both storage
engines): the per-tick hot path every fleet node runs, where a
reachable panic takes the whole drive down with it. From those
roots R003 traverses only *strict* (unambiguously resolved) call edges
and flags every reachable `panic!`/`unimplemented!`/`todo!`/
`.unwrap()`/`.expect(…)` in non-test code, printing the full
entry→panic call chain in the diagnostic.

Panics written directly in `ctrlplane`/`gateway` are already R001
findings and are not re-reported. Blind spots (documented in DESIGN.md):
calls the resolver cannot pin to one definition (trait objects,
same-name functions across crates, common std method names) terminate
the walk; `assert!`/`unreachable!` and slice indexing are deliberate
invariant checks and are not panic sources.
Fix: return a typed error up the chain; for panics that guard
impossible-by-construction states, add
`// detlint-allow: R003 <the invariant>` at the panic site.",
            check: |_ctx, _out| {
                // Emitted by the interprocedural engine (`flow.rs`).
            },
        },
        Rule {
            id: "R004",
            title: "blocking or panicking call while a lock guard is live",
            explain: "\
R004 — lock discipline: nothing slow or fallible under a guard

A `Mutex`/`RwLock` guard bound with
`let g = x.lock()/.read()/.write()` is live from its `let` to the end
of the smallest enclosing block (or an explicit `drop(g)`). While it is
live, R004 flags: (1) re-locking the same receiver — self-deadlock with
the vendored parking_lot shim, which has no reentrancy or poisoning;
(2) calls that can block indefinitely (`join`, channel `recv`, socket
`accept`/`connect`, `write_all`, `flush`, `sleep`, `park`, …) — every
other thread contending that lock stalls behind the blocked holder, the
exact pathology the gateway's p99 and the shard barrier cannot absorb;
(3) panic-capable calls (`unwrap`/`expect`/`panic!`) — a panic while
holding a guard wedges every later locker.

Not flagged: `Condvar::wait` (atomically releases the guard — that is
the designed pattern), deref-copies like `let v = *cell.lock();` (the
temporary guard dies at the semicolon), and the `.unwrap()` that is
part of the guard-binding statement itself (acquiring, not holding).
Fix: shrink the critical section — copy what you need out of the guard,
drop it, then block/handle errors; or add
`// detlint-allow: R004 <why this cannot stall other lockers>`.",
            check: |_ctx, _out| {
                // Emitted by the interprocedural engine (`flow.rs`).
            },
        },
        Rule {
            id: "S001",
            title: "detlint-allow suppression without a reason",
            explain: "\
S001 — suppression without a justification

`// detlint-allow: <RULE> <reason>` silences a rule on the same or next
line, but only with a non-empty reason: an unexplained suppression is
indistinguishable from a silenced bug two PRs later. S001 fires on any
`detlint-allow` comment whose reason is missing. S001 itself cannot be
suppressed.

Fix: state the bound or invariant that makes the finding a false
positive, e.g. `// detlint-allow: R002 profile length is < 2^16 by
construction`.",
            check: |_ctx, _out| {
                // S001 is emitted by the suppression pass in the engine
                // (it needs the parsed allow comments), not by a matcher.
            },
        },
        Rule {
            id: "S002",
            title: "unsafe block without a `// SAFETY:` comment",
            explain: "\
S002 — every unsafe block must state its invariant

An `unsafe { … }` block is a claim that the author has checked an
invariant the compiler cannot — in this workspace, most prominently the
disjoint-index raw-pointer lanes in `cloudsim::shard`, where workers
write `&mut` references derived from a shared base pointer and the
whole soundness argument is \"strided index sets never overlap\". That
argument must be written down where the `unsafe` is, mirroring rustc's
own internal convention: S002 requires a comment containing `SAFETY:`
on the same line as the `unsafe` keyword or somewhere in the contiguous
run of comment lines directly above it (no blank line in between),
stating the invariant that makes the block sound.

Scope: every non-test `unsafe` block in the workspace. `unsafe fn`
declarations and `unsafe impl`s are signature-level contracts and are
not flagged — the rule targets the blocks where the dereference
actually happens.
Fix: write the invariant, e.g. `// SAFETY: shard stride partitions
0..n disjointly; no two workers receive the same index`. There is no
allow escape — if you can justify the block, that justification *is*
the SAFETY comment.",
            check: |ctx, out| {
                for (i, t) in ctx.code.iter().enumerate() {
                    if t.kind != TokKind::Ident
                        || t.text(ctx.src) != "unsafe"
                        || ctx.code.get(i + 1).map(|n| n.text(ctx.src)) != Some("{")
                        || ctx.in_test(t.start)
                    {
                        continue;
                    }
                    // A comment documents the block if it sits on the same
                    // line, or anywhere in the contiguous run of comment
                    // lines directly above (a blank line breaks the run —
                    // a SAFETY comment separated from its block describes
                    // something else).
                    let comments: Vec<(u32, u32, bool)> = ctx
                        .tokens
                        .iter()
                        .filter(|c| matches!(c.kind, TokKind::LineComment | TokKind::BlockComment))
                        .map(|c| {
                            let text = c.text(ctx.src);
                            let end = c.line + text.matches('\n').count() as u32;
                            (c.line, end, text.contains("SAFETY:"))
                        })
                        .collect();
                    let mut documented = comments
                        .iter()
                        .any(|&(start, end, safety)| safety && start <= t.line && end >= t.line);
                    let mut cursor = t.line.saturating_sub(1);
                    while !documented && cursor > 0 {
                        let Some(&(start, _, safety)) =
                            comments.iter().find(|&&(_, end, _)| end == cursor)
                        else {
                            break;
                        };
                        documented = safety;
                        cursor = start.saturating_sub(1);
                    }
                    if !documented {
                        out.push(
                            ctx.finding(
                                "S002",
                                t,
                                "unsafe block without a `// SAFETY:` comment; state \
                             the invariant that makes it sound directly above"
                                    .to_string(),
                            ),
                        );
                    }
                }
            },
        },
    ]
}

/// Hash-container iteration sites in one file: `(code token index,
/// message)` pairs. D003 reports these in order-sensitive crates; D006
/// additionally treats the *containing function* as a determinism-taint
/// source in every crate (taint can cross crate boundaries through
/// calls, so the source detection must not be crate-scoped).
pub(crate) fn hash_iteration_sites(ctx: &FileCtx<'_>) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let names = hash_container_names(ctx);
    if names.is_empty() {
        return out;
    }
    const ITERS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_iter",
        "into_keys",
        "into_values",
    ];
    for i in 0..ctx.code.len() {
        let t = &ctx.code[i];
        if t.kind != TokKind::Ident || !names.contains(&t.text(ctx.src)) {
            continue;
        }
        let name = t.text(ctx.src);
        // `name.iter()` / `self.name.values()` — the receiver
        // ident is immediately left of the dot either way.
        if i + 2 < ctx.code.len()
            && ctx.code[i + 1].text(ctx.src) == "."
            && ITERS.contains(&ctx.code[i + 2].text(ctx.src))
            && ctx.code.get(i + 3).map(|t| t.text(ctx.src)) == Some("(")
        {
            let method = ctx.code[i + 2].text(ctx.src);
            out.push((
                i,
                format!(
                    "`{name}.{method}()` iterates a hash container in \
                     hash order; use BTreeMap/BTreeSet or sort first"
                ),
            ));
            continue;
        }
        // `for k in name {` / `for k in &name {` /
        // `for k in &mut name {` / `for k in name.X {` forms:
        // look back past `&`/`mut` for the `in` keyword, and
        // require the loop body to open right after (so calls
        // like `map.get(k)` inside other exprs don't match).
        let mut back = i;
        while back > 0 && matches!(ctx.code[back - 1].text(ctx.src), "&" | "mut") {
            back -= 1;
        }
        if back > 0
            && ctx.code[back - 1].text(ctx.src) == "in"
            && ctx.code.get(i + 1).map(|t| t.text(ctx.src)) == Some("{")
        {
            out.push((
                i,
                format!(
                    "`for … in {name}` iterates a hash container in \
                     hash order; use BTreeMap/BTreeSet or sort first"
                ),
            ));
        }
    }
    out
}

/// Names declared in this file with a HashMap/HashSet type: struct fields
/// and fn params (`name: HashMap<…>`), typed lets, and inferred lets
/// (`let name = HashMap::new()`).
fn hash_container_names<'a>(ctx: &FileCtx<'a>) -> Vec<&'a str> {
    let mut names: Vec<&str> = Vec::new();
    let code = ctx.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text(ctx.src);
        if text != "HashMap" && text != "HashSet" {
            continue;
        }
        // Walk left over a path prefix (`std :: collections ::`) and
        // `& mut` sigils to find what introduced this type mention.
        let mut j = i;
        while j >= 2 && code[j - 1].text(ctx.src) == "::" && code[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        while j >= 1
            && (matches!(code[j - 1].text(ctx.src), "&" | "mut")
                || code[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && code[j - 1].text(ctx.src) == ":" && code[j - 2].kind == TokKind::Ident {
            // `name : HashMap<…>` — field, param or typed let.
            names.push(code[j - 2].text(ctx.src));
        } else if j >= 2 && code[j - 1].text(ctx.src) == "=" {
            // `let [mut] name = HashMap::new()`.
            let mut k = j - 1;
            if k >= 1 && code[k - 1].kind == TokKind::Ident {
                k -= 1;
                names.push(code[k].text(ctx.src));
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Byte ranges of `for`/`while`/`loop` bodies, brace-matched over code
/// tokens (nested loops yield nested, overlapping ranges — harmless for
/// containment checks). The `for` of `impl Trait for Type` and of HRTB
/// `for<'a>` bounds is not a loop and is excluded by its neighbors: a
/// loop's `for` is never preceded by an identifier or `>`, and never
/// followed by `<`.
fn loop_body_regions(ctx: &FileCtx<'_>) -> Vec<(usize, usize)> {
    let code = ctx.code;
    let mut regions = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let kw = t.text(ctx.src);
        if !matches!(kw, "for" | "while" | "loop") {
            continue;
        }
        if kw == "for" {
            let impl_for =
                i > 0 && (code[i - 1].kind == TokKind::Ident || code[i - 1].text(ctx.src) == ">");
            let hrtb = code.get(i + 1).map(|t| t.text(ctx.src)) == Some("<");
            if impl_for || hrtb {
                continue;
            }
        }
        // The body `{` is the first brace at paren/bracket depth 0 after
        // the header (closure braces in the header sit inside call parens);
        // a `;` first means this wasn't a loop statement after all.
        let mut open = None;
        let mut depth = 0i32;
        for (j, t) in code.iter().enumerate().skip(i + 1) {
            match t.text(ctx.src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let mut braces = 0i32;
        for (j, t) in code.iter().enumerate().skip(open) {
            match t.text(ctx.src) {
                "{" => braces += 1,
                "}" => {
                    braces -= 1;
                    if braces == 0 {
                        regions.push((code[open].start, code[j].end));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    regions
}

/// Lexical `#[cfg(test)]` / `#[test]` region detection over code tokens:
/// returns byte ranges covering the attributed item's braces.
pub fn test_regions(src: &str, code: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let is_cfg_test = i + 6 < code.len()
            && code[i].text(src) == "#"
            && code[i + 1].text(src) == "["
            && code[i + 2].text(src) == "cfg"
            && code[i + 3].text(src) == "("
            && code[i + 4].text(src) == "test"
            && code[i + 5].text(src) == ")"
            && code[i + 6].text(src) == "]";
        let is_test_attr = i + 2 < code.len()
            && code[i].text(src) == "#"
            && code[i + 1].text(src) == "["
            && code[i + 2].text(src) == "test"
            && code.get(i + 3).map(|t| t.text(src)) == Some("]");
        if !is_cfg_test && !is_test_attr {
            i += 1;
            continue;
        }
        // Find the attributed item's opening brace within a short window
        // (further attributes, `pub`, `fn name(args)`, `mod name`).
        let attr_end = if is_cfg_test { i + 7 } else { i + 4 };
        let mut open = None;
        let mut depth_parens = 0i32;
        for (j, t) in code.iter().enumerate().skip(attr_end).take(64) {
            match t.text(src) {
                "(" | "[" => depth_parens += 1,
                ")" | "]" => depth_parens -= 1,
                "{" if depth_parens == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth_parens == 0 => break, // `#[cfg(test)] use …;`
                _ => {}
            }
        }
        let Some(open) = open else {
            i = attr_end;
            continue;
        };
        // Brace-match (over code tokens, so braces in literals are immune).
        let mut depth = 0i32;
        let mut close = code.len() - 1;
        for (j, t) in code.iter().enumerate().skip(open) {
            match t.text(src) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        regions.push((code[i].start, code[close].end));
        i = close + 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    /// Run all rules over a synthetic file with the given path/crate.
    pub(crate) fn run_on(path: &str, crate_name: &str, src: &str) -> Vec<Finding> {
        let tokens = lexer::tokenize(src);
        let code = lexer::code_tokens(&tokens);
        let regions = test_regions(src, &code);
        let ctx = FileCtx {
            path,
            crate_name,
            src,
            tokens: &tokens,
            code: &code,
            test_regions: &regions,
        };
        let mut out = Vec::new();
        for rule in all_rules() {
            (rule.check)(&ctx, &mut out);
        }
        out
    }

    fn ids(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    // ------------------------- D001 ---------------------------------

    #[test]
    fn d001_catches_wall_clock_in_sim_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = run_on("crates/cloudsim/src/x.rs", "cloudsim", src);
        assert_eq!(ids(&f), vec!["D001"]);
        assert_eq!(f[0].line, 1);
        assert!(f[0].snippet.contains("Instant::now"));
        let f = run_on(
            "crates/simdb/src/x.rs",
            "simdb",
            "let t = SystemTime::now();",
        );
        assert_eq!(ids(&f), vec!["D001"]);
    }

    #[test]
    fn d001_allows_bench_and_strings_and_comments() {
        assert!(run_on("crates/bench/src/x.rs", "bench", "Instant::now();").is_empty());
        let masked = r#"let s = "Instant::now()"; // Instant::now()"#;
        assert!(run_on("crates/simdb/src/x.rs", "simdb", masked).is_empty());
    }

    #[test]
    fn d001_covers_gateway_lib_but_not_gateway_bins() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = run_on("crates/gateway/src/router.rs", "gateway", src);
        assert_eq!(ids(&f), vec!["D001"]);
        // The daemon and loadgen are measurement shells, like `bench`.
        assert!(run_on("crates/gateway/src/bin/loadgen.rs", "gateway", src).is_empty());
        assert!(run_on("crates/gateway/src/bin/gateway.rs", "gateway", src).is_empty());
    }

    #[test]
    fn d001_and_d003_cover_the_scenario_crate() {
        // The scenario simulator promises (profile, seed) ⇒ identical
        // plans, shrinks and replays, so it inherits the full
        // determinism ruleset.
        let clock = "fn f() { let t = std::time::Instant::now(); }";
        let f = run_on("crates/scenario/src/explore.rs", "scenario", clock);
        assert_eq!(ids(&f), vec!["D001"]);
        let iter = "fn f(m: &HashMap<u8, u8>) { m.iter().count(); }";
        let f = run_on("crates/scenario/src/shrink.rs", "scenario", iter);
        assert_eq!(ids(&f), vec!["D003"]);
    }

    // ------------------------- D002 ---------------------------------

    #[test]
    fn d002_catches_entropy_rngs_everywhere_but_bench() {
        for call in [
            "let mut r = rand::thread_rng();",
            "let r = StdRng::from_entropy();",
            "let v: u8 = rand::random();",
            "let r = OsRng;",
        ] {
            let f = run_on("crates/workload/src/x.rs", "workload", call);
            assert_eq!(ids(&f), vec!["D002"], "missed: {call}");
            assert!(run_on("crates/bench/src/x.rs", "bench", call).is_empty());
        }
    }

    #[test]
    fn d002_ignores_seeded_and_unrelated_idents() {
        let src = "let mut rng = StdRng::seed_from_u64(42); let random = 3; f(random);";
        assert!(run_on("crates/workload/src/x.rs", "workload", src).is_empty());
    }

    // ------------------------- D003 ---------------------------------

    #[test]
    fn d003_catches_field_param_and_let_iteration() {
        let src = "
            struct S { tenants: HashMap<u64, f64> }
            impl S {
                fn total(&self) -> f64 { self.tenants.values().sum() }
            }
            fn f(a: &HashMap<u32, u64>) -> usize { a.keys().count() }
            fn g() {
                let seen: std::collections::HashSet<u32> = Default::default();
                for k in &seen { let _ = k; }
                let m = HashMap::new();
                m.iter().count();
            }";
        let f = run_on("crates/ctrlplane/src/x.rs", "ctrlplane", src);
        assert_eq!(ids(&f), vec!["D003", "D003", "D003", "D003"]);
        assert!(f[0].message.contains("tenants.values()"));
        assert!(f[2].message.contains("for … in seen"));
    }

    #[test]
    fn d003_ignores_keyed_access_and_out_of_scope_crates() {
        let src = "
            struct S { m: HashMap<u64, u64> }
            impl S { fn get(&self, k: u64) -> Option<&u64> { self.m.get(&k) } }";
        assert!(run_on("crates/simdb/src/x.rs", "simdb", src).is_empty());
        // Same iteration in the workload crate: out of D003 scope.
        let iter = "fn f(m: &HashMap<u8, u8>) { m.iter().count(); }";
        assert!(run_on("crates/workload/src/x.rs", "workload", iter).is_empty());
    }

    #[test]
    fn d003_ignores_strings_mentioning_hashmap_iter() {
        let src = r#"fn f() { let s = "HashMap::iter is order-dependent"; let _ = s; }"#;
        assert!(run_on("crates/simdb/src/x.rs", "simdb", src).is_empty());
    }

    // ------------------------- D004 ---------------------------------

    #[test]
    fn d004_catches_float_reductions_in_spawning_files() {
        let src = "
            fn drive() {
                std::thread::scope(|s| { s.spawn(|| {}); });
                let total = partials.iter().sum::<f64>();
                let other = xs.iter().fold(0.0, |a, b| a + b);
            }";
        let f = run_on("crates/cloudsim/src/x.rs", "cloudsim", src);
        assert_eq!(ids(&f), vec!["D004", "D004"]);
    }

    #[test]
    fn d004_ignores_int_folds_and_non_spawning_files() {
        let spawning_int = "
            fn drive() { s.spawn(|| {}); let t = xs.iter().fold((0u64, 0u64), f); }";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", spawning_int).is_empty());
        let no_spawn = "fn f() { let t: f64 = xs.iter().sum::<f64>(); }";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", no_spawn).is_empty());
    }

    // ------------------------- D005 ---------------------------------

    #[test]
    fn d005_catches_spawns_and_scopes_inside_loops() {
        let src = "
            fn f() {
                for i in 0..n {
                    std::thread::spawn(move || work(i));
                }
                while keep_going() {
                    pool.spawn(task);
                }
                loop {
                    std::thread::scope(|s| { s.spawn(|| {}); });
                }
            }";
        let f = run_on("crates/gateway/src/x.rs", "gateway", src);
        // The `loop` body yields two findings: the per-iteration scope
        // and the spawn inside it.
        assert_eq!(ids(&f), vec!["D005", "D005", "D005", "D005"]);
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("per iteration"));
    }

    #[test]
    fn d005_ignores_spawns_outside_loops_and_in_tests() {
        let once = "fn serve() { std::thread::spawn(worker); std::thread::scope(run); }";
        assert!(run_on("crates/gateway/src/x.rs", "gateway", once).is_empty());
        let in_test = "
            #[cfg(test)]
            mod t {
                fn f() { for _ in 0..4 { std::thread::spawn(|| {}); } }
            }";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", in_test).is_empty());
        let bench = "fn f() { for _ in 0..4 { std::thread::spawn(|| {}); } }";
        assert!(run_on("crates/bench/src/x.rs", "bench", bench).is_empty());
    }

    #[test]
    fn d005_impl_for_is_not_a_loop() {
        // `impl … for …` braces must not register as a loop body, and
        // neither must HRTB `for<'a>` bounds.
        let src = "
            impl Worker for Pool {
                fn go(&self) { self.spawn(job); }
            }
            fn hrtb<F: for<'a> Fn(&'a str)>(f: F) { pool.spawn(f); }";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", src).is_empty());
    }

    #[test]
    fn d001_d002_cover_the_snapshot_crate() {
        let f = run_on(
            "crates/snapshot/src/lib.rs",
            "snapshot",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(ids(&f), vec!["D001"]);
        let f = run_on(
            "crates/snapshot/src/lib.rs",
            "snapshot",
            "fn f() { let mut r = rand::thread_rng(); }",
        );
        assert_eq!(ids(&f), vec!["D002"]);
    }

    // ------------------------- R001 ---------------------------------

    #[test]
    fn r001_catches_panicking_calls_in_ctrlplane_runtime() {
        let src = "
            fn apply(&mut self) {
                let slot = self.tuners.iter_mut().min().unwrap();
                let x = self.get().expect(\"present\");
                if bad { panic!(\"boom\") }
                unimplemented!()
            }";
        let f = run_on("crates/ctrlplane/src/x.rs", "ctrlplane", src);
        assert_eq!(ids(&f), vec!["R001", "R001", "R001", "R001"]);
    }

    #[test]
    fn r001_exempts_tests_total_functions_and_other_crates() {
        let test_mod = "
            fn runtime() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); y.expect(\"msg\"); panic!(\"ok\"); }
            }";
        assert!(run_on("crates/ctrlplane/src/x.rs", "ctrlplane", test_mod).is_empty());
        let total = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); }";
        assert!(run_on("crates/ctrlplane/src/x.rs", "ctrlplane", total).is_empty());
        assert!(run_on("crates/simdb/src/x.rs", "simdb", "fn f() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn r001_covers_the_snapshot_codec() {
        // A decoder panic on attacker-shaped bytes is exactly what the
        // SnapError vocabulary exists to prevent.
        let f = run_on(
            "crates/snapshot/src/lib.rs",
            "snapshot",
            "fn decode() { let v = bytes.get(i).unwrap(); }",
        );
        assert_eq!(ids(&f), vec!["R001"]);
    }

    #[test]
    fn r001_catches_runtime_code_even_with_test_mod_below() {
        let src = "
            fn runtime() { x.unwrap(); }
            #[cfg(test)]
            mod tests { fn t() { y.unwrap(); } }";
        let f = run_on("crates/ctrlplane/src/x.rs", "ctrlplane", src);
        assert_eq!(ids(&f), vec!["R001"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn r001_covers_gateway_runtime_including_bins() {
        let src = "fn serve_one() { let req = decode(buf).unwrap(); }";
        let f = run_on("crates/gateway/src/server.rs", "gateway", src);
        assert_eq!(ids(&f), vec!["R001"]);
        assert!(f[0].message.contains("`gateway`"));
        // Unlike D001, the bins get no pass: a panicking daemon is an
        // outage regardless of where the wall clock lives.
        let f = run_on("crates/gateway/src/bin/gateway.rs", "gateway", src);
        assert_eq!(ids(&f), vec!["R001"]);
        assert!(run_on("crates/workload/src/x.rs", "workload", src).is_empty());
        // Per-crate integration tests compile into test binaries.
        let f = run_on("crates/gateway/tests/codec_fuzz.rs", "gateway", src);
        assert!(
            f.iter().all(|f| f.in_test),
            "tests/ dir must count as test code"
        );
    }

    // ------------------------- R002 ---------------------------------

    #[test]
    fn r002_catches_narrowing_casts_in_knob_files() {
        let src = "fn id(i: usize) -> KnobId { KnobId(i as u16) }";
        let f = run_on("crates/simdb/src/knobs.rs", "simdb", src);
        assert_eq!(ids(&f), vec!["R002"]);
        assert!(f[0].message.contains("as u16"));
        let f = run_on(
            "crates/simdb/src/planner.rs",
            "simdb",
            "let w = x.max(0.0) as u32;",
        );
        assert_eq!(ids(&f), vec!["R002"]);
    }

    #[test]
    fn r002_ignores_widening_and_other_files() {
        let widen = "fn f(i: u16) -> usize { i as usize + x as u64 as usize }";
        assert!(run_on("crates/simdb/src/knobs.rs", "simdb", widen).is_empty());
        let narrow = "let x = i as u16;";
        assert!(run_on("crates/simdb/src/engine.rs", "simdb", narrow).is_empty());
    }

    // ------------------------- S002 ---------------------------------

    #[test]
    fn s002_catches_undocumented_unsafe_blocks() {
        let src = "fn lane(&self, i: usize) -> &mut Node { unsafe { &mut *self.base.add(i) } }";
        let f = run_on("crates/cloudsim/src/shard.rs", "cloudsim", src);
        assert_eq!(ids(&f), vec!["S002"]);
        assert!(f[0].message.contains("SAFETY:"));
    }

    #[test]
    fn s002_accepts_safety_comments_same_line_or_in_block_above() {
        let same_line = "fn f() { let x = unsafe { g() }; } // SAFETY: g is total";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", same_line).is_empty());
        let above = "
            // SAFETY: indices are strided disjointly across workers, so no
            // two shards ever alias the same node.
            fn f(&self) { let n = unsafe { &mut *self.base.add(0) }; }";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", above).is_empty());
        // SAFETY on the *first* line of a long contiguous comment block
        // still counts — the run, not the marker line, must touch the
        // `unsafe` line.
        let long_block = "
            fn f(&self) {
                // SAFETY: base points at nodes[0] for the whole epoch and
                // the index stays inside this shard's range, which is
                // disjoint from every other shard's range, so this is
                // the only live &mut to the node.
                let n = unsafe { &mut *self.base.add(0) };
            }";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", long_block).is_empty());
        // A blank line severs the run: that comment describes something
        // else.
        let severed = "
            // SAFETY: too far away to plausibly describe this block.

            fn f(&self) { let n = unsafe { &mut *self.base.add(0) }; }";
        let f = run_on("crates/cloudsim/src/x.rs", "cloudsim", severed);
        assert_eq!(ids(&f), vec!["S002"]);
        // Comment lines directly above, but none of them carries SAFETY:.
        let undocumented = "
            // disjoint strides, trust me
            fn f(&self) { let n = unsafe { &mut *self.base.add(0) }; }";
        let f = run_on("crates/cloudsim/src/x.rs", "cloudsim", undocumented);
        assert_eq!(ids(&f), vec!["S002"]);
    }

    #[test]
    fn s002_exempts_tests_and_unsafe_fn_declarations() {
        let in_test = "
            #[cfg(test)]
            mod t { fn f() { let x = unsafe { g() }; } }";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", in_test).is_empty());
        // `unsafe fn` is a signature-level contract, not a block.
        let decl = "unsafe fn raw(&self) -> *mut u8 { self.base }";
        assert!(run_on("crates/cloudsim/src/x.rs", "cloudsim", decl).is_empty());
    }

    // ------------------------- regions ------------------------------

    #[test]
    fn test_region_detection_brace_matches() {
        let src = "
            fn a() { let s = \"}\"; }
            #[cfg(test)]
            mod tests {
                fn helper() { let x = \"{\"; }
                #[test]
                fn t() {}
            }
            fn b() {}";
        let tokens = lexer::tokenize(src);
        let code = lexer::code_tokens(&tokens);
        let regions = test_regions(src, &code);
        assert_eq!(regions.len(), 1, "nested #[test] folds into the mod region");
        let (s, e) = regions[0];
        let a_pos = src.find("fn a").unwrap();
        let b_pos = src.find("fn b").unwrap();
        let helper = src.find("fn helper").unwrap();
        assert!(a_pos < s && helper > s && helper < e && b_pos >= e);
    }
}
