//! Recursive-descent item/expression parser over the detlint lexer.
//!
//! Grammar subset (see DESIGN.md "detlint v2" for the full table): items
//! (`mod`, `fn`, `impl`, `trait`, and an opaque bucket for everything
//! else), function signatures with generics skipped by angle matching
//! (`->` / `=>` arrows are exempt from closing a generic), and bodies
//! flattened into the event stream described in [`crate::ast`].
//!
//! Design rules, in priority order:
//!
//! 1. **Never panic.** Every loop either advances the cursor or returns;
//!    malformed input degrades to `Item::Other` / skipped tokens. The
//!    parser fuzz suite (`tests/parser_fuzz.rs`) drives this with token
//!    soup and mutated real sources.
//! 2. **Spans are exact.** Every node span is a token-boundary byte range
//!    inside the file.
//! 3. **Prefer under-claiming.** When the parser is unsure whether
//!    something is a call, it records nothing; the analyses that consume
//!    the AST are reachability-style and an invented edge is worse than a
//!    missed one (the call graph separately accounts for what it could
//!    not resolve).

use crate::ast::{Ast, Body, Event, EventKind, FnDef, Item, Span};
use crate::lexer::{TokKind, Token};

/// Parse one file's code tokens (comments already stripped) into an AST.
/// Never panics; unparseable stretches become `Item::Other` or are
/// skipped token-by-token.
pub fn parse(src: &str, code: &[Token]) -> Ast {
    let mut p = Parser { src, code, i: 0 };
    Ast {
        items: p.items(false),
    }
}

/// Keywords that can never begin a call expression.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "move", "in",
    "let", "fn", "mut", "ref", "as", "where", "impl", "dyn", "unsafe", "pub", "use", "mod",
    "struct", "enum", "trait", "const", "static", "type", "await", "async", "box", "self", "Self",
    "super", "crate",
];

struct Parser<'a> {
    src: &'a str,
    code: &'a [Token],
    i: usize,
}

impl<'a> Parser<'a> {
    fn text(&self, idx: usize) -> &'a str {
        self.code.get(idx).map_or("", |t| t.text(self.src))
    }

    fn at(&self, s: &str) -> bool {
        self.text(self.i) == s
    }

    fn peek_is(&self, ahead: usize, s: &str) -> bool {
        self.text(self.i + ahead) == s
    }

    fn kind(&self, idx: usize) -> Option<TokKind> {
        self.code.get(idx).map(|t| t.kind)
    }

    fn span_of(&self, idx: usize) -> Span {
        match self.code.get(idx) {
            Some(t) => Span {
                start: t.start,
                end: t.end,
                line: t.line,
                col: t.col,
            },
            None => {
                // Past EOF: a zero-width span at the end of input.
                let end = self.src.len();
                Span {
                    start: end,
                    end,
                    line: 1,
                    col: 1,
                }
            }
        }
    }

    fn span_range(&self, from: usize, to_incl: usize) -> Span {
        let a = self.span_of(from);
        let b = self.span_of(to_incl.min(self.code.len().saturating_sub(1)).max(from));
        Span {
            start: a.start,
            end: b.end.max(a.end),
            line: a.line,
            col: a.col,
        }
    }

    fn eof(&self) -> bool {
        self.i >= self.code.len()
    }

    /// Skip one balanced delimiter group starting at the cursor (which
    /// must sit on `(`, `[` or `{`). Returns the index of the closing
    /// token (or the last token if unbalanced).
    fn skip_balanced(&mut self) -> usize {
        let mut depth = 0i64;
        while !self.eof() {
            match self.text(self.i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        let close = self.i;
                        self.i += 1;
                        return close;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Skip `#[…]` / `#![…]` attributes at the cursor.
    fn skip_attrs(&mut self) {
        loop {
            if self.at("#")
                && (self.peek_is(1, "[") || (self.peek_is(1, "!") && self.peek_is(2, "[")))
            {
                // Move onto the `[` and balance it.
                self.i += if self.peek_is(1, "[") { 1 } else { 2 };
                self.skip_balanced();
            } else {
                return;
            }
        }
    }

    /// Skip a generics group; the cursor sits on `<`. A `>` preceded by
    /// `-` or `=` is an arrow (`->`, `=>`), not a closer.
    fn skip_generics(&mut self) {
        let mut depth = 0i64;
        let mut prev = "";
        while !self.eof() {
            let t = self.text(self.i);
            match t {
                "<" => depth += 1,
                ">" if prev != "-" && prev != "=" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.i += 1;
                        return;
                    }
                }
                // Generics never contain these at depth ≥ 1 in valid
                // code; bail out rather than eat the whole file on soup.
                "{" | "}" | ";" => return,
                _ => {}
            }
            prev = t;
            self.i += 1;
        }
    }

    /// Skip to the next `;` at delimiter depth 0, consuming balanced
    /// groups along the way (handles `const X: T = { … };`).
    fn skip_to_semi(&mut self) {
        while !self.eof() {
            match self.text(self.i) {
                ";" => {
                    self.i += 1;
                    return;
                }
                "(" | "[" | "{" => {
                    self.skip_balanced();
                }
                // A stray closer means we ran past our item.
                ")" | "]" | "}" => return,
                _ => self.i += 1,
            }
        }
    }

    /// Parse items until EOF (`inside == false`) or a closing `}`.
    fn items(&mut self, inside: bool) -> Vec<Item> {
        let mut out = Vec::new();
        while !self.eof() {
            if inside && self.at("}") {
                break;
            }
            let start = self.i;
            if let Some(item) = self.item() {
                out.push(item);
            }
            if self.i == start {
                // Recovery: always make progress.
                self.i += 1;
            }
        }
        out
    }

    /// Try to parse one item at the cursor.
    fn item(&mut self) -> Option<Item> {
        self.skip_attrs();
        if self.eof() {
            return None;
        }
        let start = self.i;
        let mut is_pub = false;
        if self.at("pub") {
            is_pub = true;
            self.i += 1;
            if self.at("(") {
                self.skip_balanced(); // pub(crate), pub(super), …
            }
        }
        // Leading fn qualifiers.
        let mut is_unsafe = false;
        loop {
            match self.text(self.i) {
                "unsafe" if !self.peek_is(1, "{") => {
                    is_unsafe = true;
                    self.i += 1;
                }
                "async" | "default" => self.i += 1,
                "const" if self.peek_is(1, "fn") => self.i += 1,
                "extern" if self.kind(self.i + 1) == Some(TokKind::Str) => {
                    self.i += 2; // extern "C"
                }
                _ => break,
            }
        }
        match self.text(self.i) {
            "fn" => {
                let def = self.fn_def(start, is_pub, is_unsafe);
                Some(Item::Fn(def))
            }
            "mod" => Some(self.mod_item(start)),
            "impl" => Some(self.impl_item(start, false)),
            "trait" => Some(self.impl_item(start, true)),
            "struct" | "enum" | "union" => {
                self.i += 1;
                // name, generics, then `;` / `(…);` / `{…}`.
                if self.kind(self.i) == Some(TokKind::Ident) {
                    self.i += 1;
                }
                if self.at("<") {
                    self.skip_generics();
                }
                while !self.eof() {
                    match self.text(self.i) {
                        ";" => {
                            self.i += 1;
                            break;
                        }
                        "{" => {
                            self.skip_balanced();
                            break;
                        }
                        "(" | "[" => {
                            self.skip_balanced();
                        }
                        "}" => break,
                        _ => self.i += 1,
                    }
                }
                Some(Item::Other {
                    span: self.span_range(start, self.i.saturating_sub(1)),
                })
            }
            "use" | "static" | "type" | "extern" | "const" => {
                self.skip_to_semi();
                Some(Item::Other {
                    span: self.span_range(start, self.i.saturating_sub(1)),
                })
            }
            "macro_rules" => {
                self.i += 1; // macro_rules
                if self.at("!") {
                    self.i += 1;
                }
                if self.kind(self.i) == Some(TokKind::Ident) {
                    self.i += 1;
                }
                if self.at("{") || self.at("(") || self.at("[") {
                    self.skip_balanced();
                }
                Some(Item::Other {
                    span: self.span_range(start, self.i.saturating_sub(1)),
                })
            }
            _ => {
                // Not an item start we know; let the caller's recovery
                // advance one token.
                None
            }
        }
    }

    fn mod_item(&mut self, start: usize) -> Item {
        self.i += 1; // mod
        let name = if self.kind(self.i) == Some(TokKind::Ident) {
            let n = self.text(self.i).to_string();
            self.i += 1;
            n
        } else {
            String::new()
        };
        if self.at(";") {
            self.i += 1;
            return Item::Mod {
                name,
                span: self.span_range(start, self.i.saturating_sub(1)),
                items: Vec::new(),
            };
        }
        if self.at("{") {
            self.i += 1;
            let items = self.items(true);
            if self.at("}") {
                self.i += 1;
            }
            return Item::Mod {
                name,
                span: self.span_range(start, self.i.saturating_sub(1)),
                items,
            };
        }
        Item::Other {
            span: self.span_range(start, self.i),
        }
    }

    /// `impl [Trait for] Type { assoc-items }` or `trait Name { items }`.
    fn impl_item(&mut self, start: usize, is_trait: bool) -> Item {
        self.i += 1; // impl | trait
        if self.at("<") {
            self.skip_generics();
        }
        let mut self_ty = self.type_path();
        if !is_trait && self.at("for") {
            self.i += 1;
            self_ty = self.type_path();
        }
        // Skip bounds / where clause up to the body.
        while !self.eof() && !self.at("{") && !self.at(";") && !self.at("}") {
            if self.at("(") || self.at("[") {
                self.skip_balanced();
            } else if self.at("<") {
                self.skip_generics();
            } else {
                self.i += 1;
            }
        }
        let mut fns = Vec::new();
        if self.at("{") {
            self.i += 1;
            while !self.eof() && !self.at("}") {
                let item_start = self.i;
                self.skip_attrs();
                let mut is_pub = false;
                if self.at("pub") {
                    is_pub = true;
                    self.i += 1;
                    if self.at("(") {
                        self.skip_balanced();
                    }
                }
                let mut is_unsafe = false;
                loop {
                    match self.text(self.i) {
                        "unsafe" if !self.peek_is(1, "{") => {
                            is_unsafe = true;
                            self.i += 1;
                        }
                        "async" | "default" => self.i += 1,
                        "const" if self.peek_is(1, "fn") => self.i += 1,
                        "extern" if self.kind(self.i + 1) == Some(TokKind::Str) => self.i += 2,
                        _ => break,
                    }
                }
                if self.at("fn") {
                    fns.push(self.fn_def(item_start, is_pub, is_unsafe));
                } else if self.at("type") || self.at("const") || self.at("static") || self.at("use")
                {
                    self.skip_to_semi();
                } else if self.at("{") || self.at("(") || self.at("[") {
                    self.skip_balanced();
                } else {
                    self.i += 1; // recovery
                }
                if self.i == item_start {
                    self.i += 1;
                }
            }
            if self.at("}") {
                self.i += 1;
            }
        } else if self.at(";") {
            self.i += 1;
        }
        Item::Impl {
            self_ty,
            span: self.span_range(start, self.i.saturating_sub(1)),
            fns,
        }
    }

    /// Read a type path for impl headers: the final plain segment of
    /// `a::b::Type<…>` (generics skipped, references ignored).
    fn type_path(&mut self) -> String {
        let mut last = String::new();
        loop {
            match self.text(self.i) {
                "&" | "*" | "mut" | "dyn" | "'" => self.i += 1,
                _ if self.kind(self.i) == Some(TokKind::Lifetime) => self.i += 1,
                _ => break,
            }
        }
        while !self.eof() {
            if self.kind(self.i) == Some(TokKind::Ident) && !self.at("for") && !self.at("where") {
                last = self.text(self.i).to_string();
                self.i += 1;
                if self.at("<") {
                    self.skip_generics();
                }
                if self.at("::") {
                    self.i += 1;
                    continue;
                }
            }
            break;
        }
        last
    }

    /// `fn name ( params ) [-> ret] [where …] ( { body } | ; )`.
    /// The cursor sits on `fn`.
    fn fn_def(&mut self, start: usize, is_pub: bool, is_unsafe: bool) -> FnDef {
        self.i += 1; // fn
        let name = if self.kind(self.i) == Some(TokKind::Ident) {
            let n = self.text(self.i).to_string();
            self.i += 1;
            n
        } else {
            String::new()
        };
        if self.at("<") {
            self.skip_generics();
        }
        if self.at("(") {
            self.skip_balanced();
        }
        // Return type / where clause: skip to `{` or `;` at depth 0;
        // `-> impl Fn(…)` parens are balanced away, generics are angle
        // matched so `-> Option<Box<dyn Fn() -> u64>>` cannot strand us.
        while !self.eof() && !self.at("{") && !self.at(";") && !self.at("}") {
            if self.at("(") || self.at("[") {
                self.skip_balanced();
            } else if self.at("<") {
                self.skip_generics();
            } else {
                self.i += 1;
            }
        }
        let body = if self.at("{") {
            Some(self.body())
        } else {
            if self.at(";") {
                self.i += 1;
            }
            None
        };
        FnDef {
            name,
            is_pub,
            is_unsafe,
            span: self.span_range(start, self.i.saturating_sub(1)),
            body,
        }
    }

    /// Find the index of the `}` matching the `{` at `open` (or the last
    /// token when unbalanced).
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open;
        while j < self.code.len() {
            match self.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Parse a function body; the cursor sits on `{`. Consumes through the
    /// matching `}` and returns the flattened event stream.
    fn body(&mut self) -> Body {
        let open = self.i;
        let close = self.matching_brace(open);
        let mut body = Body {
            span: self.span_range(open, close),
            events: Vec::new(),
            blocks: Vec::new(),
        };
        // Record every brace block (body included) for guard scoping.
        let mut stack: Vec<usize> = Vec::new();
        for j in open..=close.min(self.code.len().saturating_sub(1)) {
            match self.text(j) {
                "{" => stack.push(j),
                "}" => {
                    if let Some(o) = stack.pop() {
                        body.blocks.push(self.span_range(o, j));
                    }
                }
                _ => {}
            }
        }

        let mut j = open + 1;
        while j < close {
            self.scan_event(j, close, &mut body);
            j += 1;
        }
        self.i = close + 1;
        body
    }

    /// Record the event (if any) rooted at token `j` inside a body that
    /// ends at `close`.
    fn scan_event(&self, j: usize, close: usize, body: &mut Body) {
        let t = match self.code.get(j) {
            Some(t) => t,
            None => return,
        };
        let text = t.text(self.src);

        // `unsafe { … }` block.
        if text == "unsafe" && self.text(j + 1) == "{" {
            let end = self.matching_brace(j + 1).min(close);
            body.events.push(Event {
                kind: EventKind::UnsafeBlock,
                span: self.span_range(j, end),
            });
            return;
        }

        // `let` statement: look ahead for a guard binding.
        if text == "let" {
            if let Some(ev) = self.guard_bind(j, close) {
                body.events.push(ev);
            }
            return;
        }

        if t.kind != TokKind::Ident {
            // `name[…]` indexing — recorded at the `[`.
            if text == "["
                && j > 0
                && self.kind(j - 1) == Some(TokKind::Ident)
                && !EXPR_KEYWORDS.contains(&self.text(j - 1))
            {
                body.events.push(Event {
                    kind: EventKind::Index {
                        recv: self.receiver_chain(j - 1),
                    },
                    span: self.span_of(j - 1),
                });
            }
            return;
        }

        // `drop(name)` — explicit guard release.
        if text == "drop"
            && self.text(j + 1) == "("
            && self.kind(j + 2) == Some(TokKind::Ident)
            && self.text(j + 3) == ")"
        {
            body.events.push(Event {
                kind: EventKind::GuardDrop {
                    name: self.text(j + 2).to_string(),
                },
                span: self.span_range(j, j + 3),
            });
            return;
        }

        // Macro call `name!…`.
        if self.text(j + 1) == "!" && self.text(j + 2) != "=" {
            body.events.push(Event {
                kind: EventKind::MacroCall {
                    name: text.to_string(),
                },
                span: self.span_of(j),
            });
            return;
        }

        if self.text(j + 1) != "(" {
            return;
        }
        // Method call `recv.name(…)`.
        if j > 0 && self.text(j - 1) == "." {
            body.events.push(Event {
                kind: EventKind::MethodCall {
                    name: text.to_string(),
                    recv: if j >= 2 {
                        self.receiver_chain(j - 2)
                    } else {
                        "<expr>".into()
                    },
                },
                span: self.span_of(j),
            });
            return;
        }
        // Free/path call `foo(…)` / `a::b::foo(…)` — skip keywords and
        // definitions (`fn name(`).
        if EXPR_KEYWORDS.contains(&text) {
            return;
        }
        if j > 0 && self.text(j - 1) == "fn" {
            return;
        }
        let mut path = vec![text.to_string()];
        let mut k = j;
        while k >= 2 && self.text(k - 1) == "::" && self.kind(k - 2) == Some(TokKind::Ident) {
            path.insert(0, self.text(k - 2).to_string());
            k -= 2;
        }
        body.events.push(Event {
            kind: EventKind::Call { path },
            span: self.span_of(j),
        });
    }

    /// Textual receiver chain ending at token `last` (inclusive): walks
    /// left over `ident (. ident)*` / `self` / simple paths. Returns
    /// `"<expr>"` for anything else (call results, indexes, parens).
    fn receiver_chain(&self, last: usize) -> String {
        if self.kind(last) != Some(TokKind::Ident) {
            return "<expr>".to_string();
        }
        let mut first = last;
        while first >= 2
            && (self.text(first - 1) == "." || self.text(first - 1) == "::")
            && self.kind(first - 2) == Some(TokKind::Ident)
        {
            first -= 2;
        }
        let mut out = String::new();
        let mut k = first;
        while k <= last {
            out.push_str(self.text(k));
            k += 1;
        }
        out
    }

    /// Try to read a guard binding from the `let` at token `j`:
    /// `let [mut] name = <chain>.lock()/.read()/.write()[.unwrap()|.expect(…)];`
    /// A leading `*` (deref copy) or a pattern destructure disqualifies.
    fn guard_bind(&self, j: usize, close: usize) -> Option<Event> {
        let mut k = j + 1;
        if self.text(k) == "mut" {
            k += 1;
        }
        if self.kind(k) != Some(TokKind::Ident) {
            return None; // tuple/struct pattern — not a simple guard
        }
        let name = self.text(k).to_string();
        k += 1;
        // Optional type ascription: skip to `=` at depth 0.
        if self.at_idx(k, ":") {
            let mut depth = 0i64;
            while k < close {
                match self.text(k) {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" => depth -= 1,
                    "=" if depth <= 0 => break,
                    ";" if depth <= 0 => return None,
                    _ => {}
                }
                k += 1;
            }
        }
        if !self.at_idx(k, "=") {
            return None;
        }
        k += 1;
        let init_start = k;
        // Find the terminating `;` at depth 0.
        let mut depth = 0i64;
        let mut semi = None;
        let mut m = k;
        while m < close {
            match self.text(m) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => {
                    semi = Some(m);
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        let semi = semi?;
        if init_start >= semi || self.text(init_start) == "*" {
            return None; // empty init or deref copy (guard is a temporary)
        }
        // Strip one trailing `.unwrap()` / `.expect(…)`.
        let mut end = semi; // exclusive
        if end >= 4 && self.text(end - 1) == ")" {
            // find the `(` that closes at end-1 by walking back
            let mut d = 0i64;
            let mut open = None;
            let mut q = end - 1;
            loop {
                match self.text(q) {
                    ")" | "]" | "}" => d += 1,
                    "(" | "[" | "{" => {
                        d -= 1;
                        if d == 0 {
                            open = Some(q);
                            break;
                        }
                    }
                    _ => {}
                }
                if q == init_start {
                    break;
                }
                q -= 1;
            }
            let open = open?;
            if open >= 2
                && matches!(self.text(open - 1), "unwrap" | "expect")
                && self.text(open - 2) == "."
            {
                end = open - 2;
            }
        }
        // Now require the tail `… . lock|read|write ( )`.
        if end < init_start + 4 || self.text(end - 1) != ")" || self.text(end - 2) != "(" {
            return None;
        }
        let method = self.text(end - 3);
        if !matches!(method, "lock" | "read" | "write") || self.text(end - 4) != "." {
            return None;
        }
        if end - 4 <= init_start {
            return None;
        }
        let recv = self.receiver_chain_bounded(init_start, end - 5);
        Some(Event {
            kind: EventKind::GuardBind {
                name,
                recv,
                method: method.to_string(),
            },
            span: self.span_range(j, semi),
        })
    }

    fn at_idx(&self, idx: usize, s: &str) -> bool {
        self.text(idx) == s
    }

    /// Receiver chain for the tokens in `[lo, hi]`, not walking past `lo`.
    fn receiver_chain_bounded(&self, lo: usize, hi: usize) -> String {
        if hi < lo || self.kind(hi) != Some(TokKind::Ident) {
            return "<expr>".to_string();
        }
        let mut first = hi;
        while first >= lo + 2
            && (self.text(first - 1) == "." || self.text(first - 1) == "::")
            && self.kind(first - 2) == Some(TokKind::Ident)
        {
            first -= 2;
        }
        if first > lo {
            // Something before the chain (e.g. `&`): keep just the chain.
        }
        let mut out = String::new();
        let mut k = first;
        while k <= hi {
            out.push_str(self.text(k));
            k += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn ast_of(src: &str) -> Ast {
        let toks = lexer::tokenize(src);
        let code = lexer::code_tokens(&toks);
        parse(src, &code)
    }

    fn fn_names(ast: &Ast) -> Vec<String> {
        let mut out = Vec::new();
        crate::ast::walk_fns(&ast.items, &mut |_, ty, f| {
            out.push(match ty {
                Some(t) => format!("{t}::{}", f.name),
                None => f.name.clone(),
            });
        });
        out
    }

    #[test]
    fn parses_mods_fns_impls() {
        let src = "
            mod inner {
                pub fn a() {}
                impl Widget { fn b(&self) {} }
            }
            impl Display for Widget { fn fmt(&self) {} }
            trait Runner { fn run(&self); fn twice(&self) { self.run(); } }
            pub fn top() {}";
        let ast = ast_of(src);
        assert_eq!(
            fn_names(&ast),
            vec![
                "a",
                "Widget::b",
                "Widget::fmt",
                "Runner::run",
                "Runner::twice",
                "top"
            ]
        );
    }

    #[test]
    fn pub_and_unsafe_flags() {
        let ast = ast_of("pub fn a() {} unsafe fn b() {} pub(crate) fn c() {}");
        let mut flags = Vec::new();
        crate::ast::walk_fns(&ast.items, &mut |_, _, f| {
            flags.push((f.name.clone(), f.is_pub, f.is_unsafe));
        });
        assert_eq!(
            flags,
            vec![
                ("a".to_string(), true, false),
                ("b".to_string(), false, true),
                ("c".to_string(), true, false),
            ]
        );
    }

    fn events_of(src: &str) -> Vec<EventKind> {
        let ast = ast_of(src);
        let mut out = Vec::new();
        crate::ast::walk_fns(&ast.items, &mut |_, _, f| {
            if let Some(b) = &f.body {
                out.extend(b.events.iter().map(|e| e.kind.clone()));
            }
        });
        out
    }

    #[test]
    fn calls_methods_macros() {
        let evs = events_of("fn f() { helper(1); a::b::g(); x.run(); panic!(\"x\"); }");
        assert!(evs.contains(&EventKind::Call {
            path: vec!["helper".into()]
        }));
        assert!(evs.contains(&EventKind::Call {
            path: vec!["a".into(), "b".into(), "g".into()]
        }));
        assert!(evs.contains(&EventKind::MethodCall {
            name: "run".into(),
            recv: "x".into()
        }));
        assert!(evs.contains(&EventKind::MacroCall {
            name: "panic".into()
        }));
    }

    #[test]
    fn method_chains_and_fields() {
        let evs = events_of("fn f(&self) { self.slots.out.lock(); helper().finish(); }");
        assert!(evs.contains(&EventKind::MethodCall {
            name: "lock".into(),
            recv: "self.slots.out".into()
        }));
        assert!(evs.contains(&EventKind::MethodCall {
            name: "finish".into(),
            recv: "<expr>".into()
        }));
    }

    #[test]
    fn unsafe_blocks_and_guard_binds() {
        let src = "
            fn f(&self) {
                let node = unsafe { &mut *base.add(i) };
                let mut s = self.state.lock();
                let g = m.lock().unwrap();
                let out = *slot.out.lock();
                drop(s);
            }";
        let evs = events_of(src);
        assert!(evs.iter().any(|e| matches!(e, EventKind::UnsafeBlock)));
        assert!(evs.contains(&EventKind::GuardBind {
            name: "s".into(),
            recv: "self.state".into(),
            method: "lock".into()
        }));
        assert!(evs.contains(&EventKind::GuardBind {
            name: "g".into(),
            recv: "m".into(),
            method: "lock".into()
        }));
        // Deref copy is not a live guard.
        assert!(!evs
            .iter()
            .any(|e| matches!(e, EventKind::GuardBind { name, .. } if name == "out")));
        assert!(evs.contains(&EventKind::GuardDrop { name: "s".into() }));
    }

    #[test]
    fn fn_definitions_are_not_calls() {
        let evs = events_of("fn f() { fn g() {} g(); }");
        let calls: Vec<_> = evs
            .iter()
            .filter(|e| matches!(e, EventKind::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 1);
    }

    #[test]
    fn generics_with_arrows_do_not_derail() {
        let src = "fn f<F: Fn(u32) -> u64>(g: F) -> Option<Box<dyn Fn() -> u64>> { g(1); None }";
        let evs = events_of(src);
        assert!(evs.contains(&EventKind::Call {
            path: vec!["g".into()]
        }));
    }

    #[test]
    fn spans_stay_in_bounds_on_malformed_input() {
        for src in [
            "fn",
            "fn f(",
            "impl {",
            "mod m { fn",
            "fn f() { let x = ",
            "trait T { fn a(&self)",
            "fn f() { a.lock( }",
            "}} fn f() {}",
        ] {
            let ast = ast_of(src);
            let check = |s: &Span| {
                assert!(s.end <= src.len(), "{src:?}: span {s:?} out of bounds");
                assert!(s.start <= s.end);
            };
            for item in &ast.items {
                check(item.span());
            }
            crate::ast::walk_fns(&ast.items, &mut |_, _, f| {
                check(&f.span);
                if let Some(b) = &f.body {
                    check(&b.span);
                    for e in &b.events {
                        check(&e.span);
                    }
                    for blk in &b.blocks {
                        check(blk);
                    }
                }
            });
        }
    }

    #[test]
    fn enclosing_block_finds_smallest() {
        let src = "fn f() { a(); { let g = m.lock(); b(); } c(); }";
        let ast = ast_of(src);
        let mut seen = false;
        crate::ast::walk_fns(&ast.items, &mut |_, _, f| {
            let body = f.body.as_ref().unwrap();
            let bind = body
                .events
                .iter()
                .find(|e| matches!(e.kind, EventKind::GuardBind { .. }))
                .unwrap();
            let blk = body.enclosing_block(bind.span.start);
            // The inner block, not the whole body.
            assert!(blk.start > body.span.start && blk.end < body.span.end);
            seen = true;
        });
        assert!(seen);
    }
}
