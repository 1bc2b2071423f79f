//! A lightweight brace-tree parser over the lexer's token stream.
//!
//! The scope-aware rules (hot-path-alloc, float-reduction-order) need to
//! know *which function* a token lives in, which the flat token stream
//! cannot answer. This module builds exactly the structure required and no
//! more:
//!
//! - a tree of `{ ... }` **blocks** (every brace pair, from item bodies
//!   down to struct literals — the rules only care about containment, so
//!   over-approximating "block" is fine and keeps the parser trivial);
//! - a list of **`fn` items** with their name, attributes, visibility and
//!   body block, recognised the same way `fn_spans` in `rules.rs` does
//!   (`fn` + identifier; `body_open` finds the body: the first `{`
//!   outside brackets, unless a `;` outside brackets ends the signature
//!   first; where-clauses cannot contain `{`, and bracket depth skips the
//!   `;` of an array type such as `[u8; N]`).
//!
//! The parser is deliberately *lossless*: [`Tree::flatten`] walks the tree
//! and re-emits every raw token index in order. The proptest in
//! `tests/parser_roundtrip.rs` checks `flatten() == 0..tokens.len()` on
//! every workspace source, so any structural bug that drops or duplicates
//! a token is caught against the whole codebase on every run.
//!
//! Like the lexer, this parser is dependency-free and heuristic-but-sound
//! for the rules built on it: braces cannot occur inside `Str`/`Char`/
//! `Comment` tokens after lexing, so block nesting derived from `Punct('{')`
//! / `Punct('}')` alone is exact for any source that compiles.

use crate::lexer::{Tok, Token};

/// A structural failure; reported like a lex error (the file would not
/// compile anyway, but the linter must not panic on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

/// One `{ ... }` pair. Indices are into the *raw* token stream.
#[derive(Debug, Clone)]
pub struct Block {
    /// Raw index of the opening `{`.
    pub open: usize,
    /// Raw index of the matching `}`.
    pub close: usize,
    /// Parent block id, `None` for top-level blocks.
    pub parent: Option<usize>,
    /// Child block ids in source order.
    pub children: Vec<usize>,
}

/// A `fn` item: signature metadata plus its body block (if any).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Raw index of the `fn` keyword.
    pub fn_tok: usize,
    /// Body block id into [`Tree::blocks`]; `None` for bodiless
    /// declarations (trait methods, extern fns).
    pub body: Option<usize>,
    /// Head identifiers of the outer attributes on the item, in order
    /// (`#[inline(always)] #[cfg(test)]` -> `["inline", "cfg"]`).
    pub attrs: Vec<String>,
    /// Carries `#[test]` or a `cfg`-family attribute mentioning `test`.
    pub is_test: bool,
    /// Declared `pub` (any visibility: `pub`, `pub(crate)`, ...).
    pub is_pub: bool,
}

/// The brace tree plus all `fn` items of one file.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    /// Block arena, in opening-brace order (so `open` is ascending).
    pub blocks: Vec<Block>,
    /// Top-level block ids in source order.
    pub roots: Vec<usize>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
}

impl Tree {
    /// Parses the token stream into a brace tree with `fn` items.
    pub fn parse(tokens: &[Token]) -> Result<Tree, ParseError> {
        let mut tree = Tree::default();
        let mut stack: Vec<usize> = Vec::new();
        for (i, t) in tokens.iter().enumerate() {
            match t.tok {
                Tok::Punct('{') => {
                    let id = tree.blocks.len();
                    let parent = stack.last().copied();
                    tree.blocks.push(Block {
                        open: i,
                        close: usize::MAX,
                        parent,
                        children: Vec::new(),
                    });
                    match parent {
                        Some(p) => tree.blocks[p].children.push(id),
                        None => tree.roots.push(id),
                    }
                    stack.push(id);
                }
                Tok::Punct('}') => {
                    let Some(id) = stack.pop() else {
                        return Err(ParseError {
                            line: t.line,
                            message: "unmatched `}`".to_string(),
                        });
                    };
                    tree.blocks[id].close = i;
                }
                _ => {}
            }
        }
        if let Some(&id) = stack.last() {
            return Err(ParseError {
                line: tokens[tree.blocks[id].open].line,
                message: "unclosed `{`".to_string(),
            });
        }
        tree.collect_fns(tokens);
        Ok(tree)
    }

    /// Re-emits every raw token index in source order by walking the tree.
    /// For a correct parse this is exactly `0..num_tokens` — the round-trip
    /// invariant the parser proptest pins.
    pub fn flatten(&self, num_tokens: usize) -> Vec<usize> {
        fn emit(blocks: &[Block], ids: &[usize], from: usize, to: usize, out: &mut Vec<usize>) {
            let mut cursor = from;
            for &id in ids {
                let b = &blocks[id];
                out.extend(cursor..b.open);
                out.push(b.open);
                emit(blocks, &b.children, b.open + 1, b.close, out);
                out.push(b.close);
                cursor = b.close + 1;
            }
            out.extend(cursor..to);
        }
        let mut out = Vec::with_capacity(num_tokens);
        emit(&self.blocks, &self.roots, 0, num_tokens, &mut out);
        out
    }

    /// The innermost `fn` (index into [`Tree::fns`]) whose body contains
    /// raw token index `i`, if any.
    pub fn innermost_fn_at(&self, i: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter_map(|(fi, f)| f.body.map(|b| (fi, &self.blocks[b])))
            .filter(|(_, blk)| blk.open < i && i < blk.close)
            .max_by_key(|(_, blk)| blk.open)
            .map(|(fi, _)| fi)
    }

    /// Finds the block whose opening brace is at raw index `open`.
    /// Blocks are created in opening order, so binary search applies.
    pub(crate) fn block_at_open(&self, open: usize) -> Option<usize> {
        self.blocks.binary_search_by_key(&open, |b| b.open).ok()
    }

    fn collect_fns(&mut self, tokens: &[Token]) {
        // Work in code (comment-free) index space: attributes and the
        // signature may have comments interleaved.
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.tok, Tok::Comment(_)))
            .map(|(i, _)| i)
            .collect();
        let n = code.len();
        let tok = |ci: usize| &tokens[code[ci]].tok;
        for ci in 0..n {
            if !matches!(tok(ci), Tok::Ident(s) if s == "fn") {
                continue;
            }
            // `fn` must introduce a named item — skips `Fn(...)` bounds and
            // `fn(...)` pointer types.
            let Some(Tok::Ident(name)) = (ci + 1 < n).then(|| tok(ci + 1)) else {
                continue;
            };
            let name = name.clone();
            let body = body_open(tok, ci + 1, n).and_then(|j| self.block_at_open(code[j]));
            let (attrs, is_test, is_pub) = Self::signature_head(tokens, &code, ci);
            self.fns.push(FnItem {
                name,
                line: tokens[code[ci]].line,
                fn_tok: code[ci],
                body,
                attrs,
                is_test,
                is_pub,
            });
        }
    }

    /// Walks backwards from the `fn` keyword (code index `fn_ci`) over
    /// signature modifiers and outer attributes, capturing attribute heads
    /// and visibility.
    fn signature_head(tokens: &[Token], code: &[usize], fn_ci: usize) -> (Vec<String>, bool, bool) {
        let tok = |ci: usize| &tokens[code[ci]].tok;
        let mut attrs_rev: Vec<String> = Vec::new();
        let mut is_test = false;
        let mut is_pub = false;
        let mut ci = fn_ci;
        while ci > 0 {
            let prev = ci - 1;
            match tok(prev) {
                // Qualifiers: `pub const unsafe extern "C" fn`, `async fn`.
                Tok::Ident(s)
                    if matches!(s.as_str(), "pub" | "const" | "unsafe" | "async" | "extern") =>
                {
                    if s == "pub" {
                        is_pub = true;
                    }
                    ci = prev;
                }
                // ABI string of `extern "C"`.
                Tok::Str => ci = prev,
                // Restricted visibility: the `(crate)` / `(in path)` of
                // `pub(crate)` — scan back to its `(`; the `pub` before it
                // is handled on the next iteration.
                Tok::Punct(')') => {
                    let mut depth = 0usize;
                    let mut k = prev;
                    loop {
                        match tok(k) {
                            Tok::Punct(')') => depth += 1,
                            Tok::Punct('(') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if k == 0 {
                            break;
                        }
                        k -= 1;
                    }
                    // Only a visibility restriction follows `pub`; anything
                    // else ends the signature head.
                    if k > 0 && matches!(tok(k - 1), Tok::Ident(s) if s == "pub") {
                        ci = k;
                    } else {
                        break;
                    }
                }
                // Outer attribute: `#[...]` — scan back to its `[`, then
                // require the `#` before it.
                Tok::Punct(']') => {
                    let mut depth = 0usize;
                    let mut k = prev;
                    loop {
                        match tok(k) {
                            Tok::Punct(']') => depth += 1,
                            Tok::Punct('[') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if k == 0 {
                            break;
                        }
                        k -= 1;
                    }
                    if k == 0 || *tok(k - 1) != Tok::Punct('#') {
                        break;
                    }
                    let mut head: Option<&str> = None;
                    for a in k + 1..prev {
                        if let Tok::Ident(s) = tok(a) {
                            if head.is_none() {
                                head = Some(s);
                            }
                            if s == "test" && matches!(head, Some("test") | Some("cfg")) {
                                is_test = true;
                            }
                        }
                    }
                    attrs_rev.push(head.unwrap_or("").to_string());
                    ci = k - 1;
                }
                _ => break,
            }
        }
        attrs_rev.reverse();
        (attrs_rev, is_test, is_pub)
    }
}

/// Code index of the `{` that opens the body of an item (`fn`, `impl`,
/// `trait`) whose header runs from code index `from`, or `None` when a `;`
/// ends the header first (a bodiless declaration). Only tokens outside
/// `(...)` and `[...]` count, so neither the `;` of an array type
/// (`[u8; N]`, `[[f32; L]; R]`) nor a `{` in its length ends the header.
pub(crate) fn body_open<'t>(
    tok: impl Fn(usize) -> &'t Tok,
    from: usize,
    n: usize,
) -> Option<usize> {
    let mut depth = 0usize;
    for j in from..n {
        match tok(j) {
            Tok::Punct('(' | '[') => depth += 1,
            Tok::Punct(')' | ']') => depth = depth.saturating_sub(1),
            Tok::Punct('{') if depth == 0 => return Some(j),
            Tok::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Tree {
        Tree::parse(&lex(src).expect("fixture must lex")).expect("fixture must parse")
    }

    #[test]
    fn nesting_and_roundtrip() {
        let src = r#"
            mod m {
                fn a() { if true { let s = S { x: 1 }; } }
            }
            fn b() {}
        "#;
        let tokens = lex(src).expect("lex");
        let tree = Tree::parse(&tokens).expect("parse");
        assert_eq!(tree.roots.len(), 2, "mod block + fn b block");
        assert_eq!(
            tree.flatten(tokens.len()),
            (0..tokens.len()).collect::<Vec<_>>()
        );
        // mod body > fn a body > if body > struct literal.
        let deepest = tree
            .blocks
            .iter()
            .map(|b| {
                let mut depth = 0;
                let mut p = b.parent;
                while let Some(pp) = p {
                    depth += 1;
                    p = tree.blocks[pp].parent;
                }
                depth
            })
            .max();
        assert_eq!(deepest, Some(3));
    }

    #[test]
    fn fn_items_capture_name_body_attrs_visibility() {
        let src = r#"
            /// Docs.
            #[inline(always)]
            #[cfg(feature = "x")]
            pub(crate) unsafe extern "C" fn kernel(p: *mut f32) { loop {} }
            fn helper() -> usize where usize: Sized { 0 }
            trait T { fn decl(&self); }
            #[test]
            fn check() {}
        "#;
        let tree = parse(src);
        let names: Vec<&str> = tree.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["kernel", "helper", "decl", "check"]);
        let kernel = &tree.fns[0];
        assert_eq!(kernel.attrs, vec!["inline", "cfg"]);
        assert!(kernel.is_pub);
        assert!(!kernel.is_test);
        assert!(kernel.body.is_some());
        assert!(!tree.fns[1].is_pub);
        assert!(tree.fns[2].body.is_none(), "trait decl has no body");
        assert!(tree.fns[3].is_test);
    }

    #[test]
    fn array_types_in_a_signature_keep_the_body() {
        let src = r#"
            fn le_bytes(b: &[u8]) -> [u8; 4] { [b[0], b[1], b[2], b[3]] }
            fn store(acc: &[[f32; 4]; 2], out: &mut [f32]) where f32: Copy { out[0] = acc[0][0]; }
            fn sized(x: [u8; { 2 + 2 }]) -> u8 { x[0] }
            trait T { fn raw(&self) -> [u8; 4]; fn next(&self) {} }
        "#;
        let tree = parse(src);
        let bodies: Vec<(&str, bool)> = tree
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.body.is_some()))
            .collect();
        assert_eq!(
            bodies,
            vec![
                ("le_bytes", true),
                ("store", true),
                ("sized", true),
                ("raw", false),
                ("next", true)
            ]
        );
        // Blocks in opening order: le_bytes, store, the length `{ 2 + 2 }`,
        // then sized's own body.
        assert_eq!(tree.fns[2].body, Some(3), "the length's block is no body");
    }

    #[test]
    fn fn_bounds_and_pointer_types_are_not_items() {
        let src = "fn apply<F: Fn(u32) -> u32>(f: F, p: fn(u32) -> u32) -> u32 { f(p(1)) }";
        let tree = parse(src);
        assert_eq!(tree.fns.len(), 1);
        assert_eq!(tree.fns[0].name, "apply");
    }

    #[test]
    fn innermost_fn_handles_nesting_and_closures() {
        let src = r#"
            fn outer() {
                let c = |x: u32| { x + 1 };
                fn inner() { let v = 1; }
            }
        "#;
        let tokens = lex(src).expect("lex");
        let tree = Tree::parse(&tokens).expect("parse");
        // Token inside `inner`'s body resolves to `inner`, not `outer`.
        let v_idx = tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("v".to_string()))
            .expect("v exists");
        let fi = tree.innermost_fn_at(v_idx).expect("inside a fn");
        assert_eq!(tree.fns[fi].name, "inner");
        // Token inside the closure body still belongs to `outer`.
        let x_idx = tokens
            .iter()
            .rposition(|t| t.tok == Tok::Ident("x".to_string()))
            .expect("x exists");
        let fo = tree.innermost_fn_at(x_idx).expect("inside a fn");
        assert_eq!(tree.fns[fo].name, "outer");
        // The `fn` keyword of a top-level item is inside no fn body.
        assert_eq!(tree.innermost_fn_at(0), None);
    }

    #[test]
    fn unbalanced_braces_error_with_line() {
        let toks = lex("fn f() {\n{\n}").expect("lex");
        let err = Tree::parse(&toks).expect_err("unclosed");
        assert_eq!(err.line, 1);
        let toks = lex("fn f() {}\n}").expect("lex");
        let err = Tree::parse(&toks).expect_err("unmatched");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn flatten_roundtrips_empty_and_flat_sources() {
        for src in ["", "let x = 1;", "{}", "{}{}", "{{}}"] {
            let tokens = lex(src).expect("lex");
            let tree = Tree::parse(&tokens).expect("parse");
            assert_eq!(
                tree.flatten(tokens.len()),
                (0..tokens.len()).collect::<Vec<_>>(),
                "src = {src:?}"
            );
        }
    }
}
