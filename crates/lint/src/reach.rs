//! Reachability over the workspace call graph (DESIGN.md §12).
//!
//! A plain BFS with parent tracking: the derived-hot-path rule needs the
//! reachable *set*, and the panic-free rule additionally wants a witness
//! call chain (`root -> a -> b`) so an over-ceiling diagnostic tells the
//! reader *why* the flagged site is on the serving path. Cycles
//! (recursion, mutual recursion) are handled by the visited set.

use crate::callgraph::CallGraph;

/// BFS result: membership plus one shortest parent chain per node.
pub struct Reach {
    /// `reached[n]` — is node `n` reachable from the seed set?
    pub reached: Vec<bool>,
    /// BFS parent of each reached node (`None` for seeds and unreached).
    pub parent: Vec<Option<usize>>,
}

/// Everything transitively reachable from `seeds` (seeds included),
/// traversing **all** edges — including conservative name-fallback ones.
/// This is the sound over-approximation the panic-free rule wants.
pub fn reachable(graph: &CallGraph, seeds: &[usize]) -> Reach {
    bfs(&graph.edges, seeds)
}

/// Reachability over only the precisely-resolved edges. The derived
/// hot-path rule uses this: as a perf ratchet backstopped by the dynamic
/// allocation counter, it trades the fallback edges away rather than
/// declare every `.map()`/`.push()` name collision hot.
pub fn reachable_precise(graph: &CallGraph, seeds: &[usize]) -> Reach {
    bfs(&graph.precise, seeds)
}

fn bfs(edges: &[Vec<usize>], seeds: &[usize]) -> Reach {
    let n = edges.len();
    let mut reached = vec![false; n];
    let mut parent = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in seeds {
        if s < n && !reached[s] {
            reached[s] = true;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if !reached[v] {
                reached[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    Reach { reached, parent }
}

impl Reach {
    /// Renders the witness chain from a seed down to `node` as
    /// `seed -> ... -> node` using qualified fn paths. Long chains are
    /// elided in the middle; the endpoints are what a reader needs.
    pub fn chain_to(&self, graph: &CallGraph, node: usize) -> String {
        let quals = self.chain_quals(graph, node);
        if quals.len() <= 5 {
            quals.join(" -> ")
        } else {
            format!(
                "{} -> {} -> ... -> {} -> {}",
                quals[0],
                quals[1],
                quals[quals.len() - 2],
                quals[quals.len() - 1]
            )
        }
    }

    /// The full witness chain, never elided — what `check --github` and
    /// `check --sarif` annotations carry so a reviewer can audit every
    /// hop without re-running the lint locally.
    pub fn full_chain_to(&self, graph: &CallGraph, node: usize) -> String {
        self.chain_quals(graph, node).join(" -> ")
    }

    fn chain_quals<'g>(&self, graph: &'g CallGraph, node: usize) -> Vec<&'g str> {
        let mut rev = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent[cur] {
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.iter().map(|&n| graph.nodes[n].qual.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallGraph, FileSource};
    use crate::lexer::{lex, Tok};
    use crate::parser::Tree;
    use crate::rules::FileMeta;

    fn graph(src: &str) -> CallGraph {
        let tokens = lex(src).expect("lex");
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.tok, Tok::Comment(_)))
            .map(|(i, _)| i)
            .collect();
        let tree = Tree::parse(&tokens).expect("parse");
        let meta = FileMeta {
            rel_path: "crates/alpha/src/lib.rs".to_string(),
            crate_key: "alpha".to_string(),
            is_test_file: false,
        };
        CallGraph::build(&[FileSource {
            file: 0,
            meta: &meta,
            tokens: &tokens,
            code: &code,
            tree: &tree,
        }])
    }

    fn id(g: &CallGraph, qual: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qual == qual)
            .unwrap_or_else(|| panic!("no node {qual}"))
    }

    #[test]
    fn transitive_closure_and_unreached() {
        let g = graph(
            r#"
            pub fn a() { b(); }
            fn b() { c(); }
            fn c() {}
            fn island() {}
            "#,
        );
        let r = reachable(&g, &[id(&g, "alpha::a")]);
        assert!(r.reached[id(&g, "alpha::c")]);
        assert!(!r.reached[id(&g, "alpha::island")]);
        assert_eq!(
            r.chain_to(&g, id(&g, "alpha::c")),
            "alpha::a -> alpha::b -> alpha::c"
        );
    }

    #[test]
    fn recursion_cycles_terminate() {
        let g = graph(
            r#"
            pub fn a() { b(); }
            fn b() { a(); c(); }
            fn c() { c(); }
            "#,
        );
        let r = reachable(&g, &[id(&g, "alpha::a")]);
        assert!(r.reached[id(&g, "alpha::a")]);
        assert!(r.reached[id(&g, "alpha::b")]);
        assert!(r.reached[id(&g, "alpha::c")]);
    }

    #[test]
    fn precise_traversal_skips_name_fallback_edges() {
        // `xs[0].m()` on an untyped receiver is a fallback edge to every
        // `m`; `A::m()` is precise. Panic-free reachability must cross
        // both, the hot-path closure only the latter.
        let g = graph(
            r#"
            pub struct A;
            pub struct B;
            impl A { pub fn m(&self) {} }
            impl B { pub fn m(&self) {} }
            pub fn by_name(xs: &[A]) { xs[0].m(); }
            pub fn by_type() { A::m(&A); }
            "#,
        );
        let all = reachable(&g, &[id(&g, "alpha::by_name")]);
        assert!(all.reached[id(&g, "alpha::A::m")]);
        assert!(all.reached[id(&g, "alpha::B::m")]);
        let precise = reachable_precise(&g, &[id(&g, "alpha::by_name")]);
        assert!(!precise.reached[id(&g, "alpha::A::m")]);
        assert!(!precise.reached[id(&g, "alpha::B::m")]);
        let precise = reachable_precise(&g, &[id(&g, "alpha::by_type")]);
        assert!(precise.reached[id(&g, "alpha::A::m")]);
        assert!(!precise.reached[id(&g, "alpha::B::m")]);
    }

    #[test]
    fn multiple_seeds_union() {
        let g = graph(
            r#"
            pub fn a() { shared(); }
            pub fn b() { shared(); only_b(); }
            fn shared() {}
            fn only_b() {}
            "#,
        );
        let r = reachable(&g, &[id(&g, "alpha::a")]);
        assert!(!r.reached[id(&g, "alpha::only_b")]);
        let r = reachable(&g, &[id(&g, "alpha::a"), id(&g, "alpha::b")]);
        assert!(r.reached[id(&g, "alpha::only_b")]);
    }
}
