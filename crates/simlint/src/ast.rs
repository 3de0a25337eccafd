//! A recursive-descent item parser on top of the lexer.
//!
//! simlint needs more than per-file token scans: transitive rules
//! (`hot-path-alloc` through a helper, `fork-escape` out of the
//! workspace) require knowing *which function* every token belongs to
//! and *what that function is called*. This module parses the comment-free token
//! stream into a flat list of function items — free functions, inherent
//! and trait-impl methods, and trait default methods — each carrying its
//! simlint markers, its enclosing `impl`/`trait` type, its module path,
//! and the token range of its body.
//!
//! The parser is total and loss-tolerant, like the lexer: anything it
//! does not recognize is skipped, so a file that does not compile still
//! yields every function it can find. Function bodies are *not* parsed
//! into expressions — rules scan body token ranges directly, and
//! call-site extraction lives in [`crate::graph`]. Nested `fn` items
//! inside a body are deliberately attributed to the enclosing function:
//! their effects execute (if at all) under the caller's annotations, and
//! treating them as part of the enclosing body errs on the side of the
//! invariant.

use crate::lexer::{Token, TokenKind};

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct ParsedFn {
    /// The function's own name (`advance`, `new`, `r#loop`).
    pub name: String,
    /// Enclosing `impl` type or `trait` name, `None` for free functions.
    pub self_type: Option<String>,
    /// Inline-module path from the file root (`["tests"]`, `[]`).
    pub modules: Vec<String>,
    /// `#[cfg_attr(simlint, <marker>)]` markers on this fn, in order.
    pub markers: Vec<String>,
    /// Body range in code-token indices, braces excluded:
    /// `(first_body_token, index_of_closing_brace)`. `None` for
    /// bodyless trait methods.
    pub body: Option<(usize, usize)>,
    /// 1-based position of the fn's name token, for diagnostics.
    pub line: u32,
    /// 1-based column of the fn's name token.
    pub col: u32,
    /// Inside a `#[cfg(test)]` module or itself `#[cfg(test)]`/`#[test]`.
    pub in_cfg_test: bool,
    /// First parameter is a `self` receiver (`self`, `&self`, `&'a mut
    /// self`, `mut self`, `self: Box<Self>`).
    pub takes_self: bool,
    /// Number of parameters excluding the `self` receiver. Call-site
    /// resolution matches this against the argument count, which is the
    /// main defence against name collisions across the workspace.
    pub params: usize,
}

/// One named struct field: `owner.field` has head type `ty`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// The struct's name.
    pub owner: String,
    /// The field's name.
    pub field: String,
    /// The first meaningful type name in the field's declaration.
    pub ty: String,
}

/// Wrapper types that are transparent for method-receiver purposes:
/// a call through `policy: Box<dyn Policy>` lands on `Policy`'s methods.
const TRANSPARENT_WRAPPERS: &[&str] = &[
    "Box", "Rc", "Arc", "RefCell", "Cell", "Mutex", "RwLock", "Option",
];

/// Scans a file for named-field struct declarations and records each
/// field's head type. The call graph uses this to resolve
/// `self.field.method(..)` receivers by type instead of by name alone.
/// Fields whose head type is a generic parameter or primitive yield no
/// entry and fall back to name-based resolution.
pub fn parse_fields(code: &[Token]) -> Vec<FieldDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !is_ident(code, i, "struct") {
            i += 1;
            continue;
        }
        let Some(owner) = ident_at(code, i + 1).map(str::to_string) else {
            i += 1;
            continue;
        };
        // Past generics and any where clause to the body; `;` or `(`
        // means a unit or tuple struct with no named fields.
        let mut k = i + 2;
        while k < code.len() {
            if is_punct(code, k, "<") {
                k = skip_generics(code, k, code.len()) + 1;
                continue;
            }
            if is_punct(code, k, "{") || is_punct(code, k, ";") || is_punct(code, k, "(") {
                break;
            }
            k += 1;
        }
        if !is_punct(code, k, "{") {
            i = k + 1;
            continue;
        }
        let close = match_delim(code, k, "{", "}", code.len());
        let mut f = k + 1;
        while f < close {
            if is_punct(code, f, "#") && is_punct(code, f + 1, "[") {
                f = match_delim(code, f + 1, "[", "]", close) + 1;
                continue;
            }
            if is_ident(code, f, "pub") {
                f += 1;
                if is_punct(code, f, "(") {
                    f = match_delim(code, f, "(", ")", close) + 1;
                }
                continue;
            }
            let field = match ident_at(code, f) {
                Some(n) if is_punct(code, f + 1, ":") => n.to_string(),
                _ => {
                    f += 1;
                    continue;
                }
            };
            // Type tokens run to the comma at depth 0; the head is the
            // first non-wrapper capitalized name (`Box<dyn Policy>` →
            // `Policy`, `&'a [Frame]` → `Frame`).
            let mut t = f + 2;
            let mut depth = 0usize;
            let mut ty: Option<String> = None;
            while t < close {
                let tok = &code[t];
                if tok.kind == TokenKind::Punct {
                    match tok.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => break,
                        _ => {}
                    }
                } else if ty.is_none()
                    && tok.kind == TokenKind::Ident
                    && tok.text.len() > 1
                    && tok.text.chars().next().is_some_and(char::is_uppercase)
                    && !TRANSPARENT_WRAPPERS.contains(&tok.text.as_str())
                {
                    ty = Some(tok.text.clone());
                }
                t += 1;
            }
            if let Some(ty) = ty {
                out.push(FieldDef {
                    owner: owner.clone(),
                    field,
                    ty,
                });
            }
            f = t + 1;
        }
        i = close + 1;
    }
    out
}

/// Attributes collected in front of the next item.
#[derive(Default, Clone)]
struct PendingAttrs {
    markers: Vec<String>,
    cfg_test: bool,
}

struct Parser<'a> {
    code: &'a [Token],
    fns: Vec<ParsedFn>,
}

/// Parses the comment-free token stream of one file into its functions.
pub fn parse_fns(code: &[Token]) -> Vec<ParsedFn> {
    let mut parser = Parser {
        code,
        fns: Vec::new(),
    };
    let end = code.len();
    parser.items(0, end, &mut Vec::new(), None, false);
    parser.fns
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

/// Index of the matching closer for the opener at `open`, or `limit`
/// when unbalanced.
pub(crate) fn match_delim(
    code: &[Token],
    open: usize,
    open_c: &str,
    close_c: &str,
    limit: usize,
) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < limit.min(code.len()) {
        let tok = &code[i];
        if tok.kind == TokenKind::Punct {
            if tok.text == open_c {
                depth += 1;
            } else if tok.text == close_c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    limit
}

/// Skips a balanced `<...>` generic list opening at `open`; `->` arrows
/// inside do not close it. Returns the index of the closing `>`.
fn skip_generics(code: &[Token], open: usize, limit: usize) -> usize {
    let mut angle = 0i32;
    let mut i = open;
    while i < limit.min(code.len()) {
        let t = &code[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        return i;
                    }
                }
                "-" if is_punct(code, i + 1, ">") => i += 1,
                _ => {}
            }
        }
        i += 1;
    }
    limit
}

/// Counts the parameters in the signature parens `open..=close`
/// (indices of `(` and `)`), returning `(takes_self, non_self_params)`.
/// Commas inside nested delimiters or generic lists do not separate
/// parameters, and a trailing comma separates nothing.
fn count_params(code: &[Token], open: usize, close: usize) -> (bool, usize) {
    let mut j = open + 1;
    while j < close
        && (is_punct(code, j, "&")
            || code[j].kind == TokenKind::Lifetime
            || is_ident(code, j, "mut"))
    {
        j += 1;
    }
    let takes_self = j < close && is_ident(code, j, "self");
    if open + 1 >= close {
        return (false, 0);
    }
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut i = open + 1;
    while i < close {
        let t = &code[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "<" => {
                    i = skip_generics(code, i, close);
                }
                "," if depth == 0 && i + 1 < close => commas += 1,
                _ => {}
            }
        }
        i += 1;
    }
    let items = commas + 1;
    if takes_self {
        (true, items - 1)
    } else {
        (false, items)
    }
}

impl Parser<'_> {
    /// Parses the item sequence in `[i, end)`; `modules` and `self_type`
    /// describe the enclosing scope.
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        modules: &mut Vec<String>,
        self_type: Option<&str>,
        in_test: bool,
    ) {
        let mut pending = PendingAttrs::default();
        while i < end.min(self.code.len()) {
            // Attribute: harvest simlint markers and cfg(test), skip rest.
            if is_punct(self.code, i, "#") && is_punct(self.code, i + 1, "[") {
                let close = match_delim(self.code, i + 1, "[", "]", end);
                self.harvest_attr(i + 2, close, &mut pending);
                i = close + 1;
                continue;
            }
            let Some(word) = ident_at(self.code, i) else {
                // Stray punctuation between items never carries attrs
                // forward — except `!` right after `#` (inner attrs) and
                // visibility parens, which precede the item keyword.
                if !matches!(self.code[i].text.as_str(), "(" | ")" | "!") {
                    pending = PendingAttrs::default();
                }
                i += 1;
                continue;
            };
            match word {
                // Qualifiers that may sit between attrs and the keyword
                // (including `pub(crate)` / `pub(in path)` path words —
                // `const` items fall through to the catch-all via `=`).
                "pub" | "unsafe" | "const" | "async" | "extern" | "default" | "crate" | "in"
                | "super" | "self" => {
                    i += 1;
                }
                "fn" => {
                    i = self.item_fn(i, end, modules, self_type, in_test, &pending);
                    pending = PendingAttrs::default();
                }
                "impl" => {
                    i = self.item_impl(i, end, modules, in_test || pending.cfg_test);
                    pending = PendingAttrs::default();
                }
                "trait" => {
                    i = self.item_trait(i, end, modules, in_test || pending.cfg_test);
                    pending = PendingAttrs::default();
                }
                "mod" => {
                    i = self.item_mod(i, end, modules, self_type, in_test, &pending);
                    pending = PendingAttrs::default();
                }
                "macro_rules" => {
                    // `macro_rules! name { ... }` bodies are token soup
                    // (they may contain `fn` fragments); skip wholesale.
                    let mut j = i + 1;
                    while j < end && !is_punct(self.code, j, "{") {
                        j += 1;
                    }
                    i = match_delim(self.code, j, "{", "}", end) + 1;
                    pending = PendingAttrs::default();
                }
                _ => {
                    // Any other item (struct, enum, use, static, type,
                    // let in a const block, ...): skip one token; item
                    // bodies contain nothing that parses as a fn except
                    // via the keywords handled above.
                    i += 1;
                    pending = PendingAttrs::default();
                }
            }
        }
    }

    /// `# [ ... ]` contents in `[i, close)`.
    fn harvest_attr(&mut self, i: usize, close: usize, pending: &mut PendingAttrs) {
        let code = self.code;
        if is_ident(code, i, "cfg_attr")
            && is_punct(code, i + 1, "(")
            && is_ident(code, i + 2, "simlint")
            && is_punct(code, i + 3, ",")
        {
            if let Some(marker) = ident_at(code, i + 4) {
                pending.markers.push(marker.to_string());
            }
        }
        if is_ident(code, i, "cfg")
            && is_punct(code, i + 1, "(")
            && is_ident(code, i + 2, "test")
            && is_punct(code, i + 3, ")")
        {
            pending.cfg_test = true;
        }
        if is_ident(code, i, "test") && close == i + 1 {
            pending.cfg_test = true;
        }
    }

    /// Parses `fn name ... { body }` starting at the `fn` keyword;
    /// returns the index after the item.
    fn item_fn(
        &mut self,
        i: usize,
        end: usize,
        modules: &[String],
        self_type: Option<&str>,
        in_test: bool,
        pending: &PendingAttrs,
    ) -> usize {
        let Some(name) = ident_at(self.code, i + 1) else {
            // `fn(A) -> B` function-pointer type in an odd position.
            return i + 1;
        };
        let name_tok = &self.code[i + 1];
        // Parameter list: the first `(` after the name, generics skipped.
        let mut p = i + 2;
        if is_punct(self.code, p, "<") {
            p = skip_generics(self.code, p, end) + 1;
        }
        let (takes_self, params) = if is_punct(self.code, p, "(") {
            let close = match_delim(self.code, p, "(", ")", end);
            count_params(self.code, p, close)
        } else {
            (false, 0)
        };
        // Signature: scan to the body `{` (or `;` for trait methods) at
        // zero parenthesis depth, skipping generic lists so `where T:
        // Fn() -> Ordering` comparisons cannot misbalance the scan.
        let mut k = i + 2;
        let mut paren = 0i32;
        while k < end.min(self.code.len()) {
            let t = &self.code[k];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    "<" if paren == 0 => {
                        k = skip_generics(self.code, k, end);
                    }
                    "{" if paren == 0 => break,
                    ";" if paren == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        let body = if is_punct(self.code, k, "{") {
            let close = match_delim(self.code, k, "{", "}", end);
            Some((k + 1, close))
        } else {
            None
        };
        self.fns.push(ParsedFn {
            name: name.to_string(),
            self_type: self_type.map(str::to_string),
            modules: modules.to_vec(),
            markers: pending.markers.clone(),
            body,
            line: name_tok.line,
            col: name_tok.col,
            in_cfg_test: in_test || pending.cfg_test,
            takes_self,
            params,
        });
        match body {
            Some((_, close)) => close + 1,
            None => k + 1,
        }
    }

    /// `impl<G> Type { ... }` / `impl Trait for Type { ... }`.
    fn item_impl(
        &mut self,
        i: usize,
        end: usize,
        modules: &mut Vec<String>,
        in_test: bool,
    ) -> usize {
        // Find the body brace; remember the last ident seen and the last
        // ident after a `for`, skipping generic lists.
        let mut k = i + 1;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while k < end.min(self.code.len()) {
            let t = &self.code[k];
            match t.kind {
                TokenKind::Punct if t.text == "<" => {
                    k = skip_generics(self.code, k, end);
                }
                TokenKind::Punct if t.text == "{" => break,
                TokenKind::Punct if t.text == ";" => return k + 1,
                TokenKind::Ident if t.text == "for" => saw_for = true,
                TokenKind::Ident if t.text == "where" => {
                    // `impl<T> Foo<T> where ...` — type name already seen.
                }
                TokenKind::Ident => {
                    if saw_for {
                        // First path segment after `for` wins unless a
                        // later segment follows (`a::B` — keep last).
                        after_for = Some(t.text.clone());
                    } else {
                        last_ident = Some(t.text.clone());
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if !is_punct(self.code, k, "{") {
            return k + 1;
        }
        let close = match_delim(self.code, k, "{", "}", end);
        let ty = after_for.or(last_ident);
        self.items(k + 1, close, modules, ty.as_deref(), in_test);
        close + 1
    }

    /// `trait Name { ... }` — default methods get the trait as their
    /// self type, so `.method()` call sites can resolve to them.
    fn item_trait(
        &mut self,
        i: usize,
        end: usize,
        modules: &mut Vec<String>,
        in_test: bool,
    ) -> usize {
        let name = ident_at(self.code, i + 1).map(str::to_string);
        let mut k = i + 2;
        while k < end.min(self.code.len()) {
            if is_punct(self.code, k, "<") {
                k = skip_generics(self.code, k, end) + 1;
                continue;
            }
            if is_punct(self.code, k, "{") {
                break;
            }
            if is_punct(self.code, k, ";") {
                return k + 1;
            }
            k += 1;
        }
        if !is_punct(self.code, k, "{") {
            return k + 1;
        }
        let close = match_delim(self.code, k, "{", "}", end);
        self.items(k + 1, close, modules, name.as_deref(), in_test);
        close + 1
    }

    /// `mod name { ... }` or `mod name;`.
    fn item_mod(
        &mut self,
        i: usize,
        end: usize,
        modules: &mut Vec<String>,
        self_type: Option<&str>,
        in_test: bool,
        pending: &PendingAttrs,
    ) -> usize {
        let Some(name) = ident_at(self.code, i + 1) else {
            return i + 1;
        };
        let name = name.to_string();
        if is_punct(self.code, i + 2, ";") {
            return i + 3;
        }
        if !is_punct(self.code, i + 2, "{") {
            return i + 2;
        }
        let close = match_delim(self.code, i + 2, "{", "}", end);
        modules.push(name);
        self.items(
            i + 3,
            close,
            modules,
            self_type,
            in_test || pending.cfg_test,
        );
        modules.pop();
        close + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<ParsedFn> {
        let code: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        parse_fns(&code)
    }

    #[test]
    fn free_fns_and_methods() {
        let fns = parse(
            "fn free(a: u32) -> u32 { a }\n\
             struct W;\n\
             impl W {\n\
                 pub fn method(&self) {}\n\
             }\n\
             impl std::fmt::Display for W {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
             }\n",
        );
        let names: Vec<(Option<&str>, &str)> = fns
            .iter()
            .map(|f| (f.self_type.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![(None, "free"), (Some("W"), "method"), (Some("W"), "fmt")]
        );
        assert!(fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn markers_and_cfg_test_modules() {
        let fns = parse(
            "#[cfg_attr(simlint, hot_path)]\n\
             pub(crate) fn hot(&mut self) { work(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn probe() { hot(); }\n\
             }\n",
        );
        assert_eq!(fns[0].markers, vec!["hot_path".to_string()]);
        assert!(!fns[0].in_cfg_test);
        assert_eq!(fns[1].name, "probe");
        assert!(fns[1].in_cfg_test);
        assert_eq!(fns[1].modules, vec!["tests".to_string()]);
    }

    #[test]
    fn generic_signatures_find_their_bodies() {
        let fns = parse(
            "fn generic<T: Ord, F: Fn(T) -> bool>(xs: Vec<T>, f: F) -> Option<T>\n\
             where T: Clone {\n\
                 xs.into_iter().find(|x| f(x.clone()))\n\
             }\n\
             trait Policy {\n\
                 fn required(&self) -> bool;\n\
                 fn provided(&self) -> bool { !self.required() }\n\
             }\n",
        );
        assert_eq!(fns.len(), 3);
        assert!(fns[0].body.is_some(), "where-clause fn has a body");
        assert_eq!(fns[1].name, "required");
        assert!(fns[1].body.is_none(), "bodyless trait method");
        assert_eq!(fns[2].self_type.as_deref(), Some("Policy"));
        assert!(fns[2].body.is_some());
    }

    #[test]
    fn arity_counts_skip_self_generics_and_trailing_commas() {
        let fns = parse(
            "fn zero() {}\n\
             fn one(x: u32) -> u32 { x }\n\
             fn generic(m: HashMap<u32, Vec<(u8, u8)>>, f: impl Fn(u32, u32) -> u32) {}\n\
             fn trailing(a: u32, b: u32,) {}\n\
             impl W {\n\
                 fn only_self(&mut self) {}\n\
                 fn method<'a>(&'a self, jobs: &[Job], f: &dyn Fn(&Job)) {}\n\
                 fn boxed(self: Box<Self>, n: u32) {}\n\
                 fn assoc(n: u32) -> W { W }\n\
             }\n",
        );
        let got: Vec<(&str, bool, usize)> = fns
            .iter()
            .map(|f| (f.name.as_str(), f.takes_self, f.params))
            .collect();
        assert_eq!(
            got,
            vec![
                ("zero", false, 0),
                ("one", false, 1),
                ("generic", false, 2),
                ("trailing", false, 2),
                ("only_self", true, 0),
                ("method", true, 2),
                ("boxed", true, 1),
                ("assoc", false, 1),
            ]
        );
    }

    #[test]
    fn nested_fns_belong_to_the_outer_body() {
        let fns = parse(
            "fn outer() {\n\
                 fn inner() { vec![1] }\n\
                 inner();\n\
             }\n\
             fn after() {}\n",
        );
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "after"], "inner stays in outer's body");
    }

    #[test]
    fn impl_generics_do_not_leak_the_type_name() {
        let fns = parse(
            "impl<'a, T: Ord> Wrapper<'a, T> {\n\
                 fn get(&self) -> &T { &self.0 }\n\
             }\n",
        );
        assert_eq!(fns[0].self_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn struct_fields_record_head_types() {
        let code: Vec<Token> = lex("pub struct World<P> {\n\
                 pub scheme: SchemeSpec,\n\
                 policy: Box<dyn ReplyPolicy>,\n\
                 frames: &'static [Frame],\n\
                 counts: HashMap<u64, u32>,\n\
                 pool: P,\n\
                 n: u32,\n\
             }\n\
             struct Unit;\n\
             struct Pair(u32, u32);\n")
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
        let fields: Vec<(String, String, String)> = parse_fields(&code)
            .into_iter()
            .map(|f| (f.owner, f.field, f.ty))
            .collect();
        let w = "World".to_string();
        assert_eq!(
            fields,
            vec![
                (w.clone(), "scheme".into(), "SchemeSpec".into()),
                (w.clone(), "policy".into(), "ReplyPolicy".into()),
                (w.clone(), "frames".into(), "Frame".into()),
                (w.clone(), "counts".into(), "HashMap".into()),
            ],
            "generic-param and primitive fields yield no entry"
        );
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let fns = parse(
            "macro_rules! gen {\n\
                 ($n:ident) => { fn $n() {} };\n\
             }\n\
             fn real() {}\n",
        );
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }
}
