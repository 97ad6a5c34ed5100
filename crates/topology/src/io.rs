//! Import/export helpers: Graphviz DOT rendering and a JSON-friendly exchange format.
//!
//! [`Tree`] itself implements `serde::{Serialize, Deserialize}` (deserializing
//! validates the structure), so it can be stored directly with any serde
//! format. This module additionally provides:
//!
//! * [`to_dot`] — a Graphviz rendering (switches, loads, rates and optionally a
//!   coloring), convenient for eyeballing small instances such as the paper's figures;
//! * [`TreeSpec`] — a flat, human-editable exchange structure (parent vector + rates +
//!   loads + availability) that round-trips to and from [`Tree`].

use crate::{NodeId, Tree, TreeError};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Options controlling the DOT rendering.
#[derive(Debug, Clone, Default)]
pub struct DotOptions {
    /// Nodes to highlight as aggregation (blue) switches.
    pub blue: Vec<NodeId>,
    /// Whether to print the per-link rate on every edge label.
    pub show_rates: bool,
    /// Whether to print the load inside every node label.
    pub show_loads: bool,
}

/// Renders the tree (plus the virtual destination `d`) as a Graphviz DOT digraph with
/// edges directed towards the destination, mirroring the figures of the paper.
pub fn to_dot(tree: &Tree, options: &DotOptions) -> String {
    let mut out = String::new();
    let blue: std::collections::HashSet<NodeId> = options.blue.iter().copied().collect();
    writeln!(out, "digraph soar {{").unwrap();
    writeln!(out, "  rankdir=BT;").unwrap();
    writeln!(
        out,
        "  d [shape=box, style=filled, fillcolor=white, label=\"d\"];"
    )
    .unwrap();
    for v in tree.node_ids() {
        let fill = if blue.contains(&v) {
            "lightblue"
        } else {
            "lightcoral"
        };
        let mut label = format!("s{v}");
        if options.show_loads && tree.load(v) > 0 {
            write!(label, "\\nL={}", tree.load(v)).unwrap();
        }
        writeln!(
            out,
            "  n{v} [shape=circle, style=filled, fillcolor={fill}, label=\"{label}\"];"
        )
        .unwrap();
    }
    for v in tree.node_ids() {
        let target = match tree.parent(v) {
            Some(p) => format!("n{p}"),
            None => "d".to_string(),
        };
        if options.show_rates {
            writeln!(out, "  n{v} -> {target} [label=\"w={}\"];", tree.rate(v)).unwrap();
        } else {
            writeln!(out, "  n{v} -> {target};").unwrap();
        }
    }
    writeln!(out, "}}").unwrap();
    out
}

/// A flat, order-independent description of a tree, convenient for JSON files that are
/// edited by hand or produced by external tooling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeSpec {
    /// `parents[v]` is the parent of switch `v`; `parents[0]` is ignored (the root's
    /// parent is the destination). Must satisfy `parents[v] < v`.
    pub parents: Vec<NodeId>,
    /// Rate of the up-link of every switch (`rates[0]` is the `(r, d)` link).
    pub rates: Vec<f64>,
    /// Load `L(v)` of every switch.
    pub loads: Vec<u64>,
    /// Availability mask Λ; empty means "all available".
    #[serde(default)]
    pub available: Vec<bool>,
}

impl TreeSpec {
    /// Captures an existing tree into a spec.
    pub fn from_tree(tree: &Tree) -> Self {
        TreeSpec {
            parents: tree
                .node_ids()
                .map(|v| tree.parent(v).unwrap_or(0))
                .collect(),
            rates: tree.node_ids().map(|v| tree.rate(v)).collect(),
            loads: tree.loads(),
            available: tree.availability(),
        }
    }

    /// Builds the tree described by this spec.
    pub fn build(&self) -> Result<Tree, TreeError> {
        if self.rates.len() != self.parents.len() || self.loads.len() != self.parents.len() {
            return Err(TreeError::Inconsistent(
                "parents, rates and loads must have the same length".into(),
            ));
        }
        if !self.available.is_empty() && self.available.len() != self.parents.len() {
            return Err(TreeError::Inconsistent(
                "availability mask length mismatch".into(),
            ));
        }
        let mut tree = Tree::from_parents(&self.parents, &self.rates)?;
        tree.set_loads(&self.loads);
        if !self.available.is_empty() {
            tree.set_availability(&self.available);
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn sample_tree() -> Tree {
        let mut t = builders::complete_binary_tree(7);
        t.set_load(3, 2);
        t.set_load(4, 6);
        t.set_load(5, 5);
        t.set_load(6, 4);
        t.set_available(0, false);
        t.set_rate(0, 4.0);
        t
    }

    #[test]
    fn dot_contains_every_node_and_edge() {
        let t = sample_tree();
        let dot = to_dot(
            &t,
            &DotOptions {
                blue: vec![1, 2],
                show_rates: true,
                show_loads: true,
            },
        );
        assert!(dot.starts_with("digraph"));
        for v in t.node_ids() {
            assert!(dot.contains(&format!("n{v} [")));
        }
        // Root connects to the destination, others to their parents.
        assert!(dot.contains("n0 -> d"));
        assert!(dot.contains("n3 -> n1"));
        assert!(dot.contains("lightblue"));
        assert!(dot.contains("lightcoral"));
        assert!(dot.contains("L=6"));
        assert!(dot.contains("w=4"));
    }

    #[test]
    fn dot_minimal_options() {
        let t = sample_tree();
        let dot = to_dot(&t, &DotOptions::default());
        assert!(!dot.contains("w="));
        assert!(!dot.contains("L="));
    }

    #[test]
    fn spec_round_trip() {
        let t = sample_tree();
        let spec = TreeSpec::from_tree(&t);
        let rebuilt = spec.build().unwrap();
        assert_eq!(t, rebuilt);
    }

    #[test]
    fn spec_json_round_trip() {
        let t = sample_tree();
        let spec = TreeSpec::from_tree(&t);
        let json = serde_json::to_string(&spec).unwrap();
        let parsed: TreeSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, parsed);
        assert_eq!(parsed.build().unwrap(), t);
    }

    #[test]
    fn tree_serde_round_trip() {
        let t = sample_tree();
        let json = serde_json::to_string(&t).unwrap();
        let parsed: Tree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, parsed);
        parsed.validate().unwrap();
    }

    #[test]
    fn spec_validation_errors() {
        let spec = TreeSpec {
            parents: vec![0, 0],
            rates: vec![1.0],
            loads: vec![0, 0],
            available: vec![],
        };
        assert!(spec.build().is_err());

        let spec = TreeSpec {
            parents: vec![0, 0],
            rates: vec![1.0, 1.0],
            loads: vec![0, 0],
            available: vec![true],
        };
        assert!(spec.build().is_err());
    }

    #[test]
    fn spec_empty_availability_means_all_available() {
        let spec = TreeSpec {
            parents: vec![0, 0, 0],
            rates: vec![1.0, 1.0, 2.0],
            loads: vec![0, 3, 4],
            available: vec![],
        };
        let t = spec.build().unwrap();
        assert_eq!(t.n_available(), 3);
        assert_eq!(t.load(2), 4);
        assert_eq!(t.rate(2), 2.0);
    }
}
