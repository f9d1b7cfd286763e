//! Directed, delay-annotated causal graphs.

use std::collections::BTreeMap;
use std::fmt;

/// One directed causal relation `from → to`, optionally annotated with the
/// causal delay in time slots (paper §3: the edge weight `d(e_{i,j})`).
///
/// A delay of `Some(0)` is *instantaneous* causality; `from == to` is
/// *self-causation*. Both are legal per the paper (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Cause series index.
    pub from: usize,
    /// Effect series index.
    pub to: usize,
    /// Causal delay in time slots, if known/predicted.
    pub delay: Option<usize>,
}

/// A directed causal graph over `n` time series.
///
/// Stored as a map keyed by `(from, to)` so edge insertion is idempotent
/// (re-adding an edge overwrites its delay) and iteration order is
/// deterministic — important for reproducible experiment output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalGraph {
    n: usize,
    edges: BTreeMap<(usize, usize), Option<usize>>,
}

impl CausalGraph {
    /// An empty graph over `n` series.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "graph needs at least one vertex");
        Self {
            n,
            edges: BTreeMap::new(),
        }
    }

    /// Number of vertices (time series).
    pub fn num_series(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Inserts (or updates) the edge `from → to`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, delay: Option<usize>) {
        assert!(
            from < self.n && to < self.n,
            "edge ({from},{to}) out of range"
        );
        self.edges.insert((from, to), delay);
    }

    /// Removes the edge `from → to` if present; returns whether it existed.
    pub fn remove_edge(&mut self, from: usize, to: usize) -> bool {
        self.edges.remove(&(from, to)).is_some()
    }

    /// `true` iff the edge `from → to` exists (regardless of delay).
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.edges.contains_key(&(from, to))
    }

    /// The delay annotation of `from → to`, if the edge exists.
    pub fn delay(&self, from: usize, to: usize) -> Option<Option<usize>> {
        self.edges.get(&(from, to)).copied()
    }

    /// Iterates edges in deterministic `(from, to)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges
            .iter()
            .map(|(&(from, to), &delay)| Edge { from, to, delay })
    }

    /// Edges excluding self-loops.
    pub fn non_self_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges().filter(|e| e.from != e.to)
    }

    /// The causes of series `to` (incoming edges).
    pub fn parents(&self, to: usize) -> Vec<Edge> {
        self.edges().filter(|e| e.to == to).collect()
    }

    /// Boolean adjacency matrix `a[from][to]`.
    pub fn adjacency(&self) -> Vec<Vec<bool>> {
        let mut a = vec![vec![false; self.n]; self.n];
        for e in self.edges() {
            a[e.from][e.to] = true;
        }
        a
    }

    /// Graphviz DOT rendering with nodes `S1…SN` (paper Fig. 8 style).
    /// `highlight` classifies each edge into a style class; see
    /// [`EdgeClass`].
    pub fn to_dot(&self, name: &str, classify: impl Fn(Edge) -> EdgeClass) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{name}\" {{\n"));
        out.push_str("  rankdir=LR;\n");
        for i in 0..self.n {
            out.push_str(&format!("  S{};\n", i + 1));
        }
        for e in self.edges() {
            let attrs = match classify(e) {
                EdgeClass::TruePositive => "color=black",
                EdgeClass::FalsePositive => "color=red",
                EdgeClass::FalseNegative => "color=black, style=dashed",
                EdgeClass::Plain => "color=black",
            };
            let label = e
                .delay
                .map(|d| format!(", label=\"{d}\""))
                .unwrap_or_default();
            out.push_str(&format!(
                "  S{} -> S{} [{attrs}{label}];\n",
                e.from + 1,
                e.to + 1
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Style class for DOT export, mirroring the paper's Fig. 8 legend: black =
/// true positive, red = false positive, dashed = false negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClass {
    /// Discovered and in the ground truth.
    TruePositive,
    /// Discovered but not in the ground truth.
    FalsePositive,
    /// In the ground truth but missed.
    FalseNegative,
    /// No classification (plain rendering).
    Plain,
}

impl fmt::Display for CausalGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CausalGraph(n={}, edges=[", self.n)?;
        for (k, e) in self.edges().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            match e.delay {
                Some(d) => write!(f, "S{}→S{}({d})", e.from + 1, e.to + 1)?,
                None => write!(f, "S{}→S{}", e.from + 1, e.to + 1)?,
            }
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_query_remove() {
        let mut g = CausalGraph::new(3);
        g.add_edge(0, 1, Some(2));
        g.add_edge(2, 2, Some(1)); // self-causation is legal
        g.add_edge(1, 2, Some(0)); // instantaneous is legal
        assert!(g.has_edge(0, 1));
        assert_eq!(g.delay(0, 1), Some(Some(2)));
        assert_eq!(g.num_edges(), 3);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn add_edge_is_idempotent_and_updates_delay() {
        let mut g = CausalGraph::new(2);
        g.add_edge(0, 1, Some(1));
        g.add_edge(0, 1, Some(3));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.delay(0, 1), Some(Some(3)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_bounds_checked() {
        CausalGraph::new(2).add_edge(0, 5, None);
    }

    #[test]
    fn adjacency_roundtrip() {
        let mut g = CausalGraph::new(3);
        g.add_edge(0, 1, None);
        g.add_edge(1, 2, None);
        g.add_edge(2, 0, None);
        let edges = [(0, 1), (1, 2), (2, 0)];
        for (from, row) in g.adjacency().iter().enumerate() {
            for (to, &set) in row.iter().enumerate() {
                assert_eq!(set, edges.contains(&(from, to)), "a[{from}][{to}]");
            }
        }
    }

    #[test]
    fn parents_and_non_self_edges() {
        let mut g = CausalGraph::new(3);
        g.add_edge(0, 2, Some(1));
        g.add_edge(1, 2, Some(2));
        g.add_edge(2, 2, Some(1));
        let p = g.parents(2);
        assert_eq!(p.len(), 3);
        assert_eq!(g.non_self_edges().count(), 2);
    }

    #[test]
    fn edges_iterate_deterministically() {
        let mut g = CausalGraph::new(4);
        g.add_edge(3, 0, None);
        g.add_edge(0, 1, None);
        g.add_edge(2, 1, None);
        let order: Vec<(usize, usize)> = g.edges().map(|e| (e.from, e.to)).collect();
        assert_eq!(order, vec![(0, 1), (2, 1), (3, 0)]);
    }

    #[test]
    fn dot_export_contains_styles() {
        let mut g = CausalGraph::new(2);
        g.add_edge(0, 1, Some(1));
        let dot = g.to_dot("test", |_| EdgeClass::FalsePositive);
        assert!(dot.contains("S1 -> S2"));
        assert!(dot.contains("color=red"));
        assert!(dot.contains("label=\"1\""));
    }

    #[test]
    fn display_is_compact() {
        let mut g = CausalGraph::new(2);
        g.add_edge(0, 1, Some(2));
        assert_eq!(format!("{g}"), "CausalGraph(n=2, edges=[S1→S2(2)])");
    }
}
