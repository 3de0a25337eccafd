//! The lock-order registry (`LOCKS.md`) and the `lock-order` rule.
//!
//! The campaign server holds real mutexes across threads, and its
//! freedom from deadlock rests on one convention: locks are always
//! acquired in the same global order (writer before counts before the
//! queue's state). PR 9 wrote that convention into comments; this module
//! makes it a checked artifact. `LOCKS.md` declares each lock's rank,
//! and the rule derives the actual *acquired-while-held* graph from the
//! source — `.lock()` sites (plus `.read()`/`.write()` on receivers
//! declared as `RwLock`), guard live ranges, and calls made while a
//! guard is held, followed through the workspace call graph — then
//! errors on any cycle and on any edge that contradicts the declared
//! ranks.
//!
//! A lock's identity is `(crate, receiver identifier)`: `writer.lock()`
//! in `campaign` is the lock named `writer`, wherever the binding came
//! from. This is name-based, like the rest of simlint — precise enough
//! for a workspace that names its mutexes once, and checkable without
//! type inference. Guards bound with `let` are held to the end of the
//! enclosing block (or an explicit `drop(guard)`); temporary guards die
//! at the end of their statement. One known limit, documented in
//! DESIGN.md §15: a guard *returned* from a helper (`let st =
//! lock(&self.state)`) creates its held-range inside the helper's
//! caller only as far as the statement — cross-function guard returns
//! are not tracked, so long-lived helper guards should be acquired
//! directly where they are held.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::{Graph, NodeId};
use crate::lexer::{Token, TokenKind};
use crate::rules::{Diagnostic, RULE_LOCK_ORDER};

/// One declared lock rank.
#[derive(Debug, Clone)]
pub struct LockEntry {
    /// Acquisition rank; lower ranks are taken first.
    pub order: u32,
    /// 1-based registry line, for diagnostics.
    pub line: u32,
    /// Free-text notes column.
    pub notes: String,
}

/// The parsed `LOCKS.md` registry: `| order | crate | lock | notes |`
/// markdown rows. Rows whose order cell is not an integer are prose
/// (headers, separators) and are skipped.
#[derive(Debug, Default)]
pub struct LockRegistry {
    /// Path the registry was loaded from, for diagnostics.
    pub path: String,
    entries: BTreeMap<(String, String), LockEntry>,
    /// `(line, crate, lock)` of rows that repeat an existing key.
    pub duplicates: Vec<(u32, String, String)>,
}

impl LockRegistry {
    /// Parses registry text; never fails (non-table lines are prose).
    pub fn parse(path: &str, text: &str) -> LockRegistry {
        let mut registry = LockRegistry {
            path: path.to_string(),
            ..LockRegistry::default()
        };
        for (idx, line) in text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let trimmed = line.trim();
            if !trimmed.starts_with('|') {
                continue;
            }
            let cells: Vec<&str> = trimmed
                .trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect();
            if cells.len() < 3 {
                continue;
            }
            let Ok(order) = cells[0].parse::<u32>() else {
                continue;
            };
            let krate = cells[1].to_string();
            let name = cells[2].to_string();
            let notes = cells.get(3).copied().unwrap_or("").to_string();
            let key = (krate.clone(), name.clone());
            match registry.entries.entry(key) {
                std::collections::btree_map::Entry::Occupied(_) => {
                    registry.duplicates.push((line_no, krate, name));
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(LockEntry {
                        order,
                        line: line_no,
                        notes,
                    });
                }
            }
        }
        registry
    }

    /// The declared entry for a `(crate, lock)` pair.
    pub fn get(&self, krate: &str, name: &str) -> Option<&LockEntry> {
        self.entries.get(&(krate.to_string(), name.to_string()))
    }

    /// All entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, String), &LockEntry)> {
        self.entries.iter()
    }

    /// True when no rows parsed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `(crate, receiver ident)` — the identity of one lock.
type LockId = (String, String);

/// One direct acquisition site inside a function body.
struct Site {
    lock: LockId,
    /// Token index of the `lock`/`read`/`write` method name.
    tok: usize,
}

/// One acquired-while-held edge, first occurrence wins.
struct EdgeRec {
    file: String,
    line: u32,
    col: u32,
    /// Call path from the holding fn to the acquiring fn (displays);
    /// empty for a nested acquisition in the same body.
    chain: Vec<String>,
}

fn is_punct(code: &[Token], i: usize, text: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(code: &[Token], i: usize, text: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn ident_at(code: &[Token], i: usize) -> Option<&str> {
    code.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// Receivers declared with a `: RwLock<..>` type (field or binding),
/// per crate. `.read()`/`.write()` acquire only on these; everywhere
/// else those names are I/O (`FrameReader::read`, `Write::write`).
fn rwlock_receivers(graph: &Graph<'_>) -> BTreeSet<LockId> {
    let mut out = BTreeSet::new();
    for fv in graph.files {
        let code = fv.code;
        for i in 0..code.len() {
            if ident_at(code, i) != Some("RwLock") {
                continue;
            }
            // Walk back over the `std::sync::` path prefix, then demand
            // `name :` type-ascription position.
            let mut j = i;
            while j >= 3
                && is_punct(code, j - 1, ":")
                && is_punct(code, j - 2, ":")
                && ident_at(code, j - 3).is_some()
            {
                j -= 3;
            }
            if j >= 2 && is_punct(code, j - 1, ":") && !is_punct(code, j - 2, ":") {
                if let Some(name) = ident_at(code, j - 2) {
                    out.insert((fv.krate.to_string(), name.to_string()));
                }
            }
        }
    }
    out
}

/// Direct acquisition sites of every non-test function.
fn direct_acquires(graph: &Graph<'_>, rwlocks: &BTreeSet<LockId>) -> BTreeMap<NodeId, Vec<Site>> {
    let mut out: BTreeMap<NodeId, Vec<Site>> = BTreeMap::new();
    for (fi, fv) in graph.files.iter().enumerate() {
        if fv.test_target {
            continue;
        }
        for (ni, f) in fv.fns.iter().enumerate() {
            if f.in_cfg_test {
                continue;
            }
            let Some((start, end)) = f.body else {
                continue;
            };
            let code = fv.code;
            let mut sites = Vec::new();
            for i in start..end.min(code.len()) {
                let Some(method) = ident_at(code, i) else {
                    continue;
                };
                if !matches!(method, "lock" | "read" | "write") {
                    continue;
                }
                if i == 0 || !is_punct(code, i - 1, ".") || !is_punct(code, i + 1, "(") {
                    continue;
                }
                let Some(receiver) = ident_at(code, i.wrapping_sub(2)) else {
                    continue;
                };
                let lock = (fv.krate.to_string(), receiver.to_string());
                if method != "lock" && !rwlocks.contains(&lock) {
                    continue;
                }
                sites.push(Site { lock, tok: i });
            }
            if !sites.is_empty() {
                out.insert(NodeId(fi, ni), sites);
            }
        }
    }
    out
}

/// The guard's live token range `(site.tok, end_exclusive)`. `let`-bound
/// guards live to the end of the enclosing block or an explicit
/// `drop(name)`; temporaries die at the statement's `;`.
fn guard_range(code: &[Token], site_tok: usize, body_end: usize) -> (usize, usize) {
    // Receiver chain start: `self.shared.state.lock()` → index of `self`.
    let mut j = site_tok.wrapping_sub(2);
    while j >= 2 && is_punct(code, j - 1, ".") && ident_at(code, j - 2).is_some() {
        j -= 2;
    }
    let mut guard_name: Option<&str> = None;
    if j >= 2 && is_punct(code, j - 1, "=") {
        if let Some(name) = ident_at(code, j - 2) {
            let let_bound = is_ident(code, j.wrapping_sub(3), "let")
                || (is_ident(code, j.wrapping_sub(3), "mut")
                    && is_ident(code, j.wrapping_sub(4), "let"));
            if let_bound {
                guard_name = Some(name);
            }
        }
    }
    let mut depth = 0i32;
    let mut k = site_tok + 1;
    while k < body_end.min(code.len()) {
        let t = &code[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    if depth == 0 {
                        return (site_tok, k);
                    }
                    depth -= 1;
                }
                ";" if depth == 0 && guard_name.is_none() => return (site_tok, k),
                _ => {}
            }
        }
        if let Some(name) = guard_name {
            if is_ident(code, k, "drop")
                && is_punct(code, k + 1, "(")
                && is_ident(code, k + 2, name)
            {
                return (site_tok, k);
            }
        }
        k += 1;
    }
    (site_tok, body_end)
}

/// Locks transitively acquired by calling `from`, with the call path
/// `[from, .., acquiring fn]` and the acquisition site.
fn trans_acquires(
    graph: &Graph<'_>,
    acquires: &BTreeMap<NodeId, Vec<Site>>,
    from: NodeId,
) -> Vec<(LockId, Vec<NodeId>, NodeId, usize)> {
    let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    parent.insert(from, from);
    let mut queue = VecDeque::from([from]);
    let mut found = Vec::new();
    while let Some(at) = queue.pop_front() {
        if let Some(sites) = acquires.get(&at) {
            for site in sites {
                let mut path = vec![at];
                let mut cur = at;
                while parent[&cur] != cur {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                found.push((site.lock.clone(), path, at, site.tok));
            }
        }
        for to in graph.edges(at) {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(to) {
                e.insert(at);
                queue.push_back(to);
            }
        }
    }
    found
}

/// Runs the lock-order analysis. `workspace` additionally demands that
/// every acquired lock is registered and every registered lock is
/// acquired somewhere (the registry cannot rot).
pub fn check(graph: &Graph<'_>, registry: &LockRegistry, workspace: bool) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (line, krate, name) in &registry.duplicates {
        diags.push(Diagnostic {
            file: registry.path.clone(),
            line: *line,
            col: 1,
            rule: RULE_LOCK_ORDER,
            message: format!("duplicate registry row for lock `{name}` in crate `{krate}`"),
            chain: Vec::new(),
        });
    }

    let rwlocks = rwlock_receivers(graph);
    let acquires = direct_acquires(graph, &rwlocks);

    // Acquired-while-held edges, first witness per (holder, acquired).
    let mut edges: BTreeMap<(LockId, LockId), EdgeRec> = BTreeMap::new();
    let mut first_site: BTreeMap<LockId, (String, u32, u32)> = BTreeMap::new();
    for (&node, sites) in &acquires {
        let fv = &graph.files[node.0];
        let body_end = fv.fns[node.1].body.map(|(_, e)| e).unwrap_or(0);
        for site in sites {
            let tok = &fv.code[site.tok];
            first_site
                .entry(site.lock.clone())
                .or_insert_with(|| (fv.file.to_string(), tok.line, tok.col));
            let (_, held_end) = guard_range(fv.code, site.tok, body_end);
            // Nested direct acquisitions while this guard is live.
            for other in sites {
                if other.tok > site.tok && other.tok < held_end {
                    let at = &fv.code[other.tok];
                    edges
                        .entry((site.lock.clone(), other.lock.clone()))
                        .or_insert_with(|| EdgeRec {
                            file: fv.file.to_string(),
                            line: at.line,
                            col: at.col,
                            chain: Vec::new(),
                        });
                }
            }
            // Calls made while the guard is live: everything the callee
            // transitively acquires is acquired under this lock.
            if let Some(calls) = graph.calls.get(&node) {
                for call in calls {
                    if call.tok <= site.tok || call.tok >= held_end {
                        continue;
                    }
                    let at = &fv.code[call.tok];
                    for callee in &call.resolved {
                        for (lock, path, _, _) in trans_acquires(graph, &acquires, *callee) {
                            let mut chain = vec![graph.display(node)];
                            chain.extend(path.iter().map(|n| graph.display(*n)));
                            edges
                                .entry((site.lock.clone(), lock))
                                .or_insert_with(|| EdgeRec {
                                    file: fv.file.to_string(),
                                    line: at.line,
                                    col: at.col,
                                    chain,
                                });
                        }
                    }
                }
            }
        }
    }

    // Declared-order violations.
    for ((held, acquired), rec) in &edges {
        let (Some(h), Some(a)) = (
            registry.get(&held.0, &held.1),
            registry.get(&acquired.0, &acquired.1),
        ) else {
            continue;
        };
        if h.order > a.order {
            diags.push(Diagnostic {
                file: rec.file.clone(),
                line: rec.line,
                col: rec.col,
                rule: RULE_LOCK_ORDER,
                message: format!(
                    "lock `{}` (crate `{}`, rank {}) acquired while holding `{}` \
                     (crate `{}`, rank {}): violates the declared order in {}",
                    acquired.1, acquired.0, a.order, held.1, held.0, h.order, registry.path
                ),
                chain: rec.chain.clone(),
            });
        }
    }

    // Cycles (including self-edges: re-acquiring a held std Mutex is a
    // guaranteed deadlock). DFS over the sorted lock set; every back
    // edge is reported once, at its witness site.
    let mut adj: BTreeMap<&LockId, Vec<&LockId>> = BTreeMap::new();
    for (held, acquired) in edges.keys() {
        adj.entry(held).or_default().push(acquired);
    }
    let lock_label = |l: &LockId| format!("{}::{}", l.0, l.1);
    let mut done: BTreeSet<&LockId> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>() {
        if done.contains(start) {
            continue;
        }
        let mut stack: Vec<(&LockId, usize)> = vec![(start, 0)];
        let mut on_stack: Vec<&LockId> = vec![start];
        while let Some((at, next)) = stack.last_mut() {
            let succs = adj.get(*at).map(Vec::as_slice).unwrap_or(&[]);
            if *next < succs.len() {
                let to = succs[*next];
                *next += 1;
                if let Some(pos) = on_stack.iter().position(|l| l == &to) {
                    // Back edge `at → to` closes a cycle.
                    let rec = &edges[&((*at).clone(), to.clone())];
                    let mut labels: Vec<String> =
                        on_stack[pos..].iter().map(|l| lock_label(l)).collect();
                    labels.push(lock_label(to));
                    diags.push(Diagnostic {
                        file: rec.file.clone(),
                        line: rec.line,
                        col: rec.col,
                        rule: RULE_LOCK_ORDER,
                        message: format!("lock acquisition cycle: {}", labels.join(" → ")),
                        chain: rec.chain.clone(),
                    });
                } else if !done.contains(to) {
                    stack.push((to, 0));
                    on_stack.push(to);
                }
            } else {
                done.insert(*at);
                on_stack.pop();
                stack.pop();
            }
        }
    }

    if workspace {
        for (lock, (file, line, col)) in &first_site {
            if registry.get(&lock.0, &lock.1).is_none() {
                diags.push(Diagnostic {
                    file: file.clone(),
                    line: *line,
                    col: *col,
                    rule: RULE_LOCK_ORDER,
                    message: format!(
                        "lock `{}` in crate `{}` is not registered in {}",
                        lock.1,
                        lock.0,
                        if registry.path.is_empty() {
                            "the lock registry (pass --locks LOCKS.md)"
                        } else {
                            &registry.path
                        }
                    ),
                    chain: Vec::new(),
                });
            }
        }
        for ((krate, name), entry) in registry.iter() {
            if !first_site.contains_key(&(krate.clone(), name.clone())) {
                diags.push(Diagnostic {
                    file: registry.path.clone(),
                    line: entry.line,
                    col: 1,
                    rule: RULE_LOCK_ORDER,
                    message: format!(
                        "registered lock `{name}` for crate `{krate}` (\"{}\") has no \
                         acquisition site; remove the row",
                        entry.notes
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_fns;
    use crate::graph::FileView;
    use crate::lexer::lex;

    struct Owned {
        code: Vec<Token>,
        fns: Vec<crate::ast::ParsedFn>,
    }

    fn owned(src: &str) -> Owned {
        let code: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        let fns = parse_fns(&code);
        Owned { code, fns }
    }

    fn run(src: &str, registry: &LockRegistry, workspace: bool) -> Vec<Diagnostic> {
        let o = owned(src);
        let files = vec![FileView {
            code: &o.code,
            fns: &o.fns,
            fields: &[],
            file: "t.rs",
            krate: "fixture",
            stem: "t",
            test_target: false,
        }];
        let graph = Graph::build(&files);
        check(&graph, registry, workspace)
    }

    #[test]
    fn registry_parses_ranked_rows_and_flags_duplicates() {
        let reg = LockRegistry::parse(
            "LOCKS.md",
            "| order | crate | lock | notes |\n\
             |---|---|---|---|\n\
             | 1 | campaign | writer | stream |\n\
             | 2 | campaign | counts | totals |\n\
             | 2 | campaign | counts | again |\n",
        );
        assert_eq!(reg.get("campaign", "writer").unwrap().order, 1);
        assert_eq!(reg.duplicates.len(), 1);
    }

    #[test]
    fn nested_acquisition_against_declared_order_errors() {
        let reg = LockRegistry::parse(
            "LOCKS.md",
            "| 1 | fixture | writer | |\n| 2 | fixture | counts | |\n",
        );
        let ok = run(
            "fn good(&self) { let w = self.writer.lock(); self.counts.lock(); }\n",
            &reg,
            false,
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run(
            "fn bad(&self) { let c = self.counts.lock(); self.writer.lock(); }\n",
            &reg,
            false,
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("violates the declared order"));
    }

    #[test]
    fn sequential_guards_do_not_create_edges() {
        let reg = LockRegistry::parse(
            "LOCKS.md",
            "| 1 | fixture | writer | |\n| 2 | fixture | counts | |\n",
        );
        // Temporary guards die at their statement; no held-across edge.
        let diags = run(
            "fn fine(&self) { self.counts.lock().n += 1; self.writer.lock().flush(); }\n",
            &reg,
            false,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn drop_releases_a_let_bound_guard() {
        let reg = LockRegistry::parse(
            "LOCKS.md",
            "| 1 | fixture | writer | |\n| 2 | fixture | counts | |\n",
        );
        let diags = run(
            "fn fine(&self) { let c = self.counts.lock(); use_it(&c); drop(c); \
             self.writer.lock(); }\n",
            &reg,
            false,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cycles_error_without_any_registry() {
        let diags = run(
            "fn ab(&self) { let a = self.alpha.lock(); self.beta.lock(); }\n\
             fn ba(&self) { let b = self.beta.lock(); self.alpha.lock(); }\n",
            &LockRegistry::default(),
            false,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("lock acquisition cycle"));
    }

    #[test]
    fn interprocedural_edges_carry_call_chains() {
        let reg = LockRegistry::parse(
            "LOCKS.md",
            "| 1 | fixture | writer | |\n| 2 | fixture | state | |\n",
        );
        let src = "struct S;\n\
             impl S {\n\
                 fn outer(&self) { let w = self.writer.lock(); self.submit(1); }\n\
                 fn submit(&self, x: u32) { helper(&self.state); }\n\
             }\n\
             fn helper(state: &Mutex<u32>) { let s = state.lock(); }\n";
        let diags = run(src, &reg, false);
        assert!(diags.is_empty(), "declared order holds: {diags:?}");
        let reg_rev = LockRegistry::parse(
            "LOCKS.md",
            "| 2 | fixture | writer | |\n| 1 | fixture | state | |\n",
        );
        let diags = run(src, &reg_rev, false);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(
            diags[0].chain,
            vec!["t::outer", "t::submit", "t::helper"],
            "witness chain names the call path"
        );
    }

    #[test]
    fn read_write_acquire_only_on_declared_rwlocks() {
        // FrameWriter-style `.write()` on a plain field is I/O, not a lock.
        let diags = run(
            "struct S { table: std::sync::RwLock<u32> }\n\
             fn io(&self) { let w = self.writer.lock(); self.out.write(b); }\n\
             fn rw(&self) { let g = self.table.read(); self.table.write(); }\n",
            &LockRegistry::default(),
            false,
        );
        // `table` read-then-write is a self-edge → cycle (upgrade deadlock).
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("table → fixture::table"),
            "{diags:?}"
        );
    }

    #[test]
    fn workspace_mode_demands_registration_and_liveness() {
        let reg = LockRegistry::parse(
            "LOCKS.md",
            "| 1 | fixture | writer | stream |\n| 2 | fixture | ghost | gone |\n",
        );
        let diags = run(
            "fn f(&self) { let w = self.writer.lock(); }\n\
             fn g(&self) { let q = self.rogue.lock(); }\n",
            &reg,
            true,
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.message.contains("`rogue`") && d.message.contains("not registered")));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("`ghost`") && d.message.contains("no acquisition site")));
    }
}
