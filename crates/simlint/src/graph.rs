//! Workspace symbol table, call-site extraction, and the call graph.
//!
//! simlint's transitive rules all reduce to one question: *which
//! workspace functions can this function reach?* This module answers it.
//! Every parsed function from every linted file becomes a node; call
//! sites inside each body (`helper(..)`, `Type::method(..)`,
//! `recv.method(..)`) become edges, resolved by name against the
//! workspace symbol table. Resolution is deliberately name-based and
//! over-approximate — simlint has no type inference — with three
//! precision levers: a candidate's parameter count must match the call
//! site's argument count (so `pool.run(jobs, &f)` never resolves to a
//! zero-parameter `run` elsewhere), candidates defined in the *same
//! file* as the call shadow all others (local helpers win over
//! coincidental same-name fns elsewhere), and functions inside
//! `#[cfg(test)]` modules or test targets are never resolution
//! candidates (test scaffolding cannot capture production call edges). Calls that resolve to nothing —
//! `Vec::push`, `std::mem::swap`, trait methods on std types — simply
//! have no edge: the standard library is trusted, the workspace is
//! checked.

use crate::ast::{FieldDef, ParsedFn};
use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, VecDeque};

/// One file's contribution to the graph, borrowed from the lint driver.
pub struct FileView<'a> {
    /// Comment-free token stream.
    pub code: &'a [Token],
    /// Parsed functions, in source order.
    pub fns: &'a [ParsedFn],
    /// Named struct fields declared in this file.
    pub fields: &'a [FieldDef],
    /// Workspace-relative path label.
    pub file: &'a str,
    /// Crate directory name (`core`, `campaign`, `fixture`, ...).
    pub krate: &'a str,
    /// File stem (`world`, `medium`), used in display names.
    pub stem: &'a str,
    /// Whole file is a test/bench/example target.
    pub test_target: bool,
}

/// A function node: `(file index, fn index)` into the linted files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeId(pub usize, pub usize);

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `recv.name(..)` — matched against every method named `name`.
    Method(String),
    /// `Type::name(..)` / `Self::name(..)` — matched per type.
    TypeMethod(String, String),
    /// `name(..)` / `module::name(..)` — matched against free fns.
    Free(String),
}

impl Callee {
    /// The bare function name, for display.
    pub fn name(&self) -> &str {
        match self {
            Callee::Method(n) | Callee::Free(n) => n,
            Callee::TypeMethod(_, n) => n,
        }
    }
}

/// A method call's receiver, when it is recognizably simple. Anything
/// more complex (a chained call, a local, a path) is `Unknown` and the
/// callee resolves by name alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// Receiver expression not recognized.
    Unknown,
    /// `self.name(..)` — resolve against the caller's own type first.
    SelfDirect,
    /// `self.field.name(..)` — resolve against the field's declared
    /// type first.
    SelfField(String),
}

/// One raw call site before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawCall {
    /// What the call names.
    pub callee: Callee,
    /// Token index of the callee name.
    pub tok: usize,
    /// Number of arguments (receiver excluded).
    pub args: usize,
    /// Receiver shape, for method calls.
    pub recv: Recv,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What the call names.
    pub callee: Callee,
    /// Token index of the callee name in the file's code stream.
    pub tok: usize,
    /// Number of arguments at the call site (receiver excluded).
    pub args: usize,
    /// Workspace functions the name resolves to (empty: external code).
    pub resolved: Vec<NodeId>,
}

/// The workspace call graph over every linted file.
pub struct Graph<'a> {
    /// The files, in lint order.
    pub files: &'a [FileView<'a>],
    /// Call sites per node, in source order.
    pub calls: BTreeMap<NodeId, Vec<CallSite>>,
}

/// Keywords and expression heads that look like `ident (` but are never
/// function calls.
const NOT_CALLS: &[&str] = &[
    "if", "else", "while", "loop", "for", "match", "return", "break", "continue", "move", "in",
    "as", "where", "unsafe", "let", "mut", "ref", "fn", "impl", "pub", "use", "crate", "super",
    "dyn", "await", "yield", "true", "false", "self", "Self",
];

fn is_punct(code: &[Token], i: usize, text: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn ident_at(code: &[Token], i: usize) -> Option<&str> {
    code.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// Skips a `::<...>` turbofish starting at the first `:`; returns the
/// index after the closing `>`, or `i` when there is none.
fn skip_turbofish(code: &[Token], i: usize) -> usize {
    if !(is_punct(code, i, ":") && is_punct(code, i + 1, ":") && is_punct(code, i + 2, "<")) {
        return i;
    }
    let mut angle = 0i32;
    let mut k = i + 2;
    while k < code.len() {
        let t = &code[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        return k + 1;
                    }
                }
                "-" if is_punct(code, k + 1, ">") => k += 1,
                ";" | "{" => return i, // not a turbofish after all
                _ => {}
            }
        }
        k += 1;
    }
    i
}

/// `|` opens a closure parameter list (rather than being bitwise-or)
/// when it follows an argument separator, a borrow, or `move`/`mut`.
fn closure_head(code: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &code[i - 1];
    match prev.kind {
        TokenKind::Punct => matches!(prev.text.as_str(), "(" | "," | "&" | "="),
        TokenKind::Ident => prev.text == "move" || prev.text == "mut",
        _ => false,
    }
}

/// Skips a closure parameter list `|...|` opening at `open`; returns the
/// index after the closing `|`.
fn skip_closure_pipes(code: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open + 1;
    while i < code.len() {
        let t = &code[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return i; // unbalanced — not a closure after all
                    }
                    depth -= 1;
                }
                "|" if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    code.len()
}

/// Counts the comma-separated arguments of the call whose `(` sits at
/// `open`. Commas inside nested delimiters, turbofish lists, and closure
/// parameter pipes do not separate arguments; a trailing comma separates
/// nothing.
fn count_args(code: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut any = false;
    let mut i = open;
    while i < code.len() {
        let t = &code[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => {
                    depth += 1;
                    if depth > 1 {
                        any = true;
                    }
                    i += 1;
                    continue;
                }
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return if any { commas + 1 } else { 0 };
                    }
                    any = true;
                    i += 1;
                    continue;
                }
                ":" if depth == 1 => {
                    let j = skip_turbofish(code, i);
                    if j > i {
                        any = true;
                        i = j;
                        continue;
                    }
                }
                "|" if depth == 1 && closure_head(code, i) => {
                    any = true;
                    i = skip_closure_pipes(code, i);
                    continue;
                }
                "," if depth == 1 => {
                    if !is_punct(code, i + 1, ")") {
                        commas += 1;
                    }
                    i += 1;
                    continue;
                }
                _ => {}
            }
        }
        if depth >= 1 {
            any = true;
        }
        i += 1;
    }
    if any {
        commas + 1
    } else {
        0
    }
}

/// Classifies the receiver tokens in front of a method call's `.` at
/// `dot` (the index of the `.` before the callee name).
fn classify_recv(code: &[Token], dot: usize) -> Recv {
    // `self.name(..)` — but not `x.self...`, which is not Rust anyway.
    if dot >= 1 && ident_at(code, dot - 1) == Some("self") {
        return Recv::SelfDirect;
    }
    // `self.field.name(..)` — exactly one field deep.
    if dot >= 3 && is_punct(code, dot - 2, ".") && ident_at(code, dot - 3) == Some("self") {
        if let Some(field) = ident_at(code, dot - 1) {
            return Recv::SelfField(field.to_string());
        }
    }
    Recv::Unknown
}

/// Extracts the call sites in `[start, end)` of one body.
pub fn extract_calls(code: &[Token], start: usize, end: usize) -> Vec<RawCall> {
    let mut out = Vec::new();
    for i in start..end.min(code.len()) {
        let Some(name) = ident_at(code, i) else {
            continue;
        };
        if NOT_CALLS.contains(&name) {
            continue;
        }
        // The name must be followed by `(`, possibly via a turbofish
        // (`collect::<Vec<_>>(..)`). A following `!` is a macro.
        if is_punct(code, i + 1, "!") {
            continue;
        }
        let after = skip_turbofish(code, i + 1);
        if !is_punct(code, after, "(") {
            continue;
        }
        // Nested `fn name(..)` declarations are not calls.
        if i > 0 && ident_at(code, i - 1) == Some("fn") {
            continue;
        }
        let mut recv = Recv::Unknown;
        let callee = if i > 0 && is_punct(code, i - 1, ".") {
            recv = classify_recv(code, i - 1);
            Callee::Method(name.to_string())
        } else if i >= 2 && is_punct(code, i - 1, ":") && is_punct(code, i - 2, ":") {
            match ident_at(code, i - 3) {
                // `Vec::<u8>::new(..)` — qualifier ends in `>`; treat as
                // external rather than guessing the type.
                None => continue,
                Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                    Callee::TypeMethod(q.to_string(), name.to_string())
                }
                Some("self") if i >= 4 && is_punct(code, i - 4, ":") => {
                    // `crate::self::..` never happens; plain `self::f(..)`:
                    Callee::Free(name.to_string())
                }
                Some(_) => Callee::Free(name.to_string()),
            }
        } else {
            Callee::Free(name.to_string())
        };
        out.push(RawCall {
            callee,
            tok: i,
            args: count_args(code, after),
            recv,
        });
    }
    out
}

/// Candidate indexes over resolvable functions: methods by name, methods
/// by `(type, name)`, free functions by name, and struct field types by
/// `(owner, field)` for receiver-based narrowing.
struct SymbolTable {
    methods: BTreeMap<String, Vec<NodeId>>,
    type_methods: BTreeMap<(String, String), Vec<NodeId>>,
    free: BTreeMap<String, Vec<NodeId>>,
    fields: BTreeMap<(String, String), String>,
}

impl<'a> Graph<'a> {
    /// Builds the symbol table and resolves every call site.
    pub fn build(files: &'a [FileView<'a>]) -> Graph<'a> {
        let mut table = SymbolTable {
            methods: BTreeMap::new(),
            type_methods: BTreeMap::new(),
            free: BTreeMap::new(),
            fields: BTreeMap::new(),
        };
        for fv in files {
            for fd in fv.fields {
                table
                    .fields
                    .entry((fd.owner.clone(), fd.field.clone()))
                    .or_insert_with(|| fd.ty.clone());
            }
        }
        for (fi, fv) in files.iter().enumerate() {
            for (ni, f) in fv.fns.iter().enumerate() {
                // Test scaffolding and bodyless trait signatures are
                // never call targets.
                if fv.test_target || f.in_cfg_test || f.body.is_none() {
                    continue;
                }
                let id = NodeId(fi, ni);
                match &f.self_type {
                    Some(ty) => {
                        table.methods.entry(f.name.clone()).or_default().push(id);
                        table
                            .type_methods
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    None => table.free.entry(f.name.clone()).or_default().push(id),
                }
            }
        }
        let mut calls: BTreeMap<NodeId, Vec<CallSite>> = BTreeMap::new();
        for (fi, fv) in files.iter().enumerate() {
            for (ni, f) in fv.fns.iter().enumerate() {
                let Some((start, end)) = f.body else {
                    continue;
                };
                let id = NodeId(fi, ni);
                let sites = extract_calls(fv.code, start, end)
                    .into_iter()
                    .map(|raw| {
                        let resolved = resolve(&table, files, fi, f, &raw);
                        CallSite {
                            callee: raw.callee,
                            tok: raw.tok,
                            args: raw.args,
                            resolved,
                        }
                    })
                    .collect();
                calls.insert(id, sites);
            }
        }
        Graph { files, calls }
    }

    /// The parsed function behind a node.
    pub fn node(&self, id: NodeId) -> &ParsedFn {
        &self.files[id.0].fns[id.1]
    }

    /// `crate::stem::name` (or `stem::name` outside `crates/`), the form
    /// propagation chains print.
    pub fn display(&self, id: NodeId) -> String {
        let fv = &self.files[id.0];
        let f = &fv.fns[id.1];
        if fv.krate == "fixture" || fv.krate == "main" {
            format!("{}::{}", fv.stem, f.name)
        } else {
            format!("{}::{}::{}", fv.krate, fv.stem, f.name)
        }
    }

    /// Deduplicated outgoing edges of a node, in call order.
    pub fn edges(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = Vec::new();
        if let Some(sites) = self.calls.get(&id) {
            for site in sites {
                for &to in &site.resolved {
                    if to != id && !seen.contains(&to) {
                        seen.push(to);
                    }
                }
            }
        }
        seen
    }

    /// Every node carrying `marker` directly (outside test code).
    pub fn roots(&self, marker: &str) -> Vec<NodeId> {
        let mut roots = Vec::new();
        for (fi, fv) in self.files.iter().enumerate() {
            if fv.test_target {
                continue;
            }
            for (ni, f) in fv.fns.iter().enumerate() {
                if !f.in_cfg_test && f.markers.iter().any(|m| m == marker) {
                    roots.push(NodeId(fi, ni));
                }
            }
        }
        roots
    }

    /// Breadth-first reach from `roots`, returning each reached node at
    /// call-depth ≥ 1 with its shortest chain `[root, .., node]`.
    /// Nodes that carry `marker` themselves are skipped (they are
    /// scanned directly), as are test nodes and bodyless signatures.
    pub fn propagate(&self, marker: &str, roots: &[NodeId]) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for &r in roots {
            // A root is its own parent; the map doubles as the visited set.
            parent.entry(r).or_insert(r);
            queue.push_back(r);
        }
        let mut reached = Vec::new();
        while let Some(at) = queue.pop_front() {
            for to in self.edges(at) {
                if parent.contains_key(&to) {
                    continue;
                }
                let fv = &self.files[to.0];
                let f = &fv.fns[to.1];
                if fv.test_target || f.in_cfg_test || f.body.is_none() {
                    continue;
                }
                parent.insert(to, at);
                queue.push_back(to);
                if !f.markers.iter().any(|m| m == marker) {
                    let mut chain = vec![to];
                    let mut cur = to;
                    while parent[&cur] != cur {
                        cur = parent[&cur];
                        chain.push(cur);
                    }
                    chain.reverse();
                    reached.push((to, chain));
                }
            }
        }
        reached
    }
}

/// Resolves one callee reference against the symbol table, in
/// decreasing order of confidence: a recognized `self`/`self.field`
/// receiver narrows a method call to its type's own methods; candidates
/// whose arity does not match the call site are dropped — a
/// `recv.run(jobs, &f)` call cannot mean a zero-parameter `run` method
/// elsewhere in the workspace — and same-file candidates shadow the
/// rest. An empty result means external code.
fn resolve(
    table: &SymbolTable,
    files: &[FileView<'_>],
    caller_file: usize,
    caller: &ParsedFn,
    raw: &RawCall,
) -> Vec<NodeId> {
    let (callee, args) = (&raw.callee, raw.args);
    if let Callee::Method(name) = callee {
        let recv_ty: Option<&str> = match &raw.recv {
            Recv::SelfDirect => caller.self_type.as_deref(),
            Recv::SelfField(field) => caller.self_type.as_deref().and_then(|s| {
                table
                    .fields
                    .get(&(s.to_string(), field.clone()))
                    .map(String::as_str)
            }),
            Recv::Unknown => None,
        };
        if let Some(ty) = recv_ty {
            let narrowed: Vec<NodeId> = table
                .type_methods
                .get(&(ty.to_string(), name.clone()))
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .filter(|id| {
                    let f = &files[id.0].fns[id.1];
                    f.takes_self && f.params == args
                })
                .copied()
                .collect();
            if !narrowed.is_empty() {
                return narrowed;
            }
            // No match on the receiver's own type: fall through to
            // name-based resolution, which still finds trait-default
            // methods and Deref targets.
        }
    }
    let candidates: &[NodeId] = match callee {
        Callee::Method(name) => table.methods.get(name).map_or(&[], Vec::as_slice),
        Callee::Free(name) => table.free.get(name).map_or(&[], Vec::as_slice),
        Callee::TypeMethod(ty, name) => {
            let ty = if ty == "Self" {
                match &caller.self_type {
                    Some(t) => t.as_str(),
                    None => return Vec::new(),
                }
            } else {
                ty.as_str()
            };
            table
                .type_methods
                .get(&(ty.to_string(), name.clone()))
                .map_or(&[], Vec::as_slice)
        }
    };
    let fits = |id: &&NodeId| {
        let f = &files[id.0].fns[id.1];
        match callee {
            // `.name(a, b)` — the receiver is the `self` parameter.
            Callee::Method(_) => f.takes_self && f.params == args,
            Callee::Free(_) => f.params == args,
            // `Type::name(..)` reaches associated fns directly and
            // methods in UFCS form (receiver as first argument).
            Callee::TypeMethod(..) => f.params == args || (f.takes_self && f.params + 1 == args),
        }
    };
    let fitting: Vec<NodeId> = candidates.iter().filter(fits).copied().collect();
    let same_file: Vec<NodeId> = fitting
        .iter()
        .copied()
        .filter(|id| id.0 == caller_file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    fitting
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_fns;
    use crate::lexer::lex;

    fn view(src: &str) -> (Vec<Token>, Vec<ParsedFn>) {
        let code: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        let fns = parse_fns(&code);
        (code, fns)
    }

    #[test]
    fn extracts_method_path_and_free_calls() {
        let (code, fns) = view(
            "fn f(&mut self) {\n\
                 helper(1);\n\
                 self.medium.deliver(pkt);\n\
                 SimTime::from_nanos(5);\n\
                 Self::reset(self);\n\
                 let v: Vec<u32> = xs.iter().collect::<Vec<u32>>();\n\
                 if x { vec![1]; }\n\
             }\n",
        );
        let (start, end) = fns[0].body.unwrap();
        let calls: Vec<(Callee, usize)> = extract_calls(&code, start, end)
            .into_iter()
            .map(|r| (r.callee, r.args))
            .collect();
        assert_eq!(
            calls,
            vec![
                (Callee::Free("helper".into()), 1),
                (Callee::Method("deliver".into()), 1),
                (Callee::TypeMethod("SimTime".into(), "from_nanos".into()), 1),
                (Callee::TypeMethod("Self".into(), "reset".into()), 1),
                (Callee::Method("iter".into()), 0),
                (Callee::Method("collect".into()), 0),
            ],
            "keywords and macros are not calls"
        );
    }

    #[test]
    fn argument_counts_ignore_closure_and_nested_commas() {
        let (code, fns) = view(
            "fn f() {\n\
                 pool.run(jobs, &|j| { touch(j, 1); });\n\
                 g(point(1, 2), xs.collect::<HashMap<u32, u32>>());\n\
                 h(a, b,);\n\
                 sort_by(|a, b| a.cmp(b));\n\
             }\n",
        );
        let (start, end) = fns[0].body.unwrap();
        let args: Vec<(String, usize)> = extract_calls(&code, start, end)
            .into_iter()
            .map(|r| (r.callee.name().to_string(), r.args))
            .collect();
        assert_eq!(
            args,
            vec![
                ("run".to_string(), 2),
                ("touch".to_string(), 2),
                ("g".to_string(), 2),
                ("point".to_string(), 2),
                ("collect".to_string(), 0),
                ("h".to_string(), 2),
                ("sort_by".to_string(), 1),
                ("cmp".to_string(), 1),
            ]
        );
    }

    #[test]
    fn self_field_receivers_resolve_by_declared_type() {
        // `self.scheme.build()` must reach SchemeSpec::build only, not
        // the same-arity same-file SimConfigBuilder::build that plain
        // name-based resolution (even with shadowing) would include.
        let (code_a, fns_a) = view(
            "struct Models { scheme: SchemeSpec }\n\
             impl Models {\n\
                 fn heard(&mut self) { let p = self.scheme.build(); }\n\
             }\n\
             impl SchemeSpec {\n\
                 fn build(&self) -> u32 { 1 }\n\
             }\n\
             impl SimConfigBuilder {\n\
                 fn build(&self) -> u32 { 2 }\n\
             }\n",
        );
        let fields_a = crate::ast::parse_fields(&code_a);
        let files = vec![FileView {
            code: &code_a,
            fns: &fns_a,
            fields: &fields_a,
            file: "a.rs",
            krate: "fixture",
            stem: "a",
            test_target: false,
        }];
        let graph = Graph::build(&files);
        // heard is fns_a[0]; SchemeSpec::build is fns_a[1].
        assert_eq!(graph.edges(NodeId(0, 0)), vec![NodeId(0, 1)]);
    }

    #[test]
    fn arity_mismatch_beats_same_file_shadowing() {
        // `self.pool.run(jobs, &f)` must resolve to the two-parameter
        // `run` in another file, not the zero-parameter `run` method
        // that happens to live in the caller's own file.
        let (code_a, fns_a) = view(
            "impl World {\n\
                 fn advance(&mut self, jobs: u32, f: u32) { self.pool.run(jobs, &f); }\n\
                 fn run(self) {}\n\
             }\n",
        );
        let (code_b, fns_b) = view(
            "impl Pool {\n\
                 fn run(&self, jobs: u32, f: &u32) {}\n\
             }\n",
        );
        let files = vec![
            FileView {
                code: &code_a,
                fns: &fns_a,
                fields: &[],
                file: "a.rs",
                krate: "fixture",
                stem: "a",
                test_target: false,
            },
            FileView {
                code: &code_b,
                fns: &fns_b,
                fields: &[],
                file: "b.rs",
                krate: "fixture",
                stem: "b",
                test_target: false,
            },
        ];
        let graph = Graph::build(&files);
        assert_eq!(graph.edges(NodeId(0, 0)), vec![NodeId(1, 0)]);
    }

    #[test]
    fn same_file_candidates_shadow_other_files() {
        let (code_a, fns_a) = view("fn go() { lock(); }\nfn lock() {}\n");
        let (code_b, fns_b) = view("fn lock() {}\n");
        let files = vec![
            FileView {
                code: &code_a,
                fns: &fns_a,
                fields: &[],
                file: "a.rs",
                krate: "fixture",
                stem: "a",
                test_target: false,
            },
            FileView {
                code: &code_b,
                fns: &fns_b,
                fields: &[],
                file: "b.rs",
                krate: "fixture",
                stem: "b",
                test_target: false,
            },
        ];
        let graph = Graph::build(&files);
        assert_eq!(graph.edges(NodeId(0, 0)), vec![NodeId(0, 1)]);
    }

    #[test]
    fn propagation_reaches_transitive_callees_with_chains() {
        let (code, fns) = view(
            "#[cfg_attr(simlint, hot_path)]\n\
             fn root() { mid(); }\n\
             fn mid() { leaf(); }\n\
             fn leaf() {}\n",
        );
        let files = vec![FileView {
            code: &code,
            fns: &fns,
            fields: &[],
            file: "x.rs",
            krate: "fixture",
            stem: "x",
            test_target: false,
        }];
        let graph = Graph::build(&files);
        let roots = graph.roots("hot_path");
        assert_eq!(roots, vec![NodeId(0, 0)]);
        let reached = graph.propagate("hot_path", &roots);
        let chains: Vec<(String, Vec<String>)> = reached
            .iter()
            .map(|(id, chain)| {
                (
                    graph.display(*id),
                    chain.iter().map(|c| graph.display(*c)).collect(),
                )
            })
            .collect();
        assert_eq!(
            chains,
            vec![
                (
                    "x::mid".to_string(),
                    vec!["x::root".to_string(), "x::mid".to_string()]
                ),
                (
                    "x::leaf".to_string(),
                    vec![
                        "x::root".to_string(),
                        "x::mid".to_string(),
                        "x::leaf".to_string()
                    ]
                ),
            ]
        );
    }

    #[test]
    fn test_fns_are_neither_candidates_nor_reached() {
        let (code, fns) = view(
            "#[cfg_attr(simlint, hot_path)]\n\
             fn root() { probe(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 pub fn probe() { vec![1]; }\n\
             }\n",
        );
        let files = vec![FileView {
            code: &code,
            fns: &fns,
            fields: &[],
            file: "x.rs",
            krate: "fixture",
            stem: "x",
            test_target: false,
        }];
        let graph = Graph::build(&files);
        assert!(graph
            .propagate("hot_path", &graph.roots("hot_path"))
            .is_empty());
    }
}
