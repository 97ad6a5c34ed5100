//! The weighted, loaded, rooted aggregation tree `T = (V, E, ω)` together with a
//! network load `L : S → ℕ` and an availability set `Λ ⊆ S`.
//!
//! Nodes are switches; the destination server `d` is virtual and sits above the
//! root, reachable through the root's up-link.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a switch in a [`Tree`]. Dense, starting at 0.
pub type NodeId = usize;

/// The id of the root switch `r`. The root is always node 0.
pub const ROOT: NodeId = 0;

/// Errors produced while building or mutating a [`Tree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A referenced node id does not exist.
    UnknownNode(NodeId),
    /// The parent referenced during construction has not been added yet.
    UnknownParent(NodeId),
    /// A link rate must be strictly positive and finite.
    InvalidRate(String),
    /// The tree must contain at least the root switch.
    Empty,
    /// Construction produced an inconsistent structure (duplicate child, cycle, ...).
    Inconsistent(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnknownNode(v) => write!(f, "unknown node id {v}"),
            TreeError::UnknownParent(v) => write!(f, "unknown parent id {v}"),
            TreeError::InvalidRate(msg) => write!(f, "invalid link rate: {msg}"),
            TreeError::Empty => write!(f, "a tree must contain at least the root switch"),
            TreeError::Inconsistent(msg) => write!(f, "inconsistent tree: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A single switch of the aggregation tree.
///
/// Every switch stores the properties of its *up-link* — the link towards its
/// parent (towards the destination `d` for the root) — which is the natural way
/// to attribute link quantities in a rooted tree where all traffic flows upward.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Node {
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    pub(crate) depth: usize,
    /// Rate ω of the up-link (messages / second). Strictly positive.
    pub(crate) rate: f64,
    /// Number of worker servers attached to this switch, `L(v)`.
    pub(crate) load: u64,
    /// Whether this switch belongs to the availability set Λ.
    pub(crate) available: bool,
}

impl Node {
    /// The parent switch, or `None` for the root (whose parent is the destination `d`).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The children of this switch, in insertion order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Hop distance `D(v)` from this switch to the root `r`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Rate ω of the up-link.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Transmission time ρ = 1/ω of the up-link.
    pub fn rho(&self) -> f64 {
        1.0 / self.rate
    }

    /// Load `L(v)`: number of worker servers attached to this switch.
    pub fn load(&self) -> u64 {
        self.load
    }

    /// Whether this switch is available for aggregation (`v ∈ Λ`).
    pub fn available(&self) -> bool {
        self.available
    }

    /// Whether this switch is a leaf of the switch tree.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// Incremental builder for [`Tree`].
///
/// ```
/// use soar_topology::TreeBuilder;
///
/// let mut b = TreeBuilder::new();
/// let r = b.root(1.0);              // root switch, up-link (r, d) rate 1
/// let a = b.child(r, 1.0).unwrap(); // first child of the root
/// let _ = b.child(a, 2.0).unwrap();
/// let tree = b.build().unwrap();
/// assert_eq!(tree.n_switches(), 3);
/// assert_eq!(tree.depth(a), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TreeBuilder {
    nodes: Vec<Node>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Creates a builder with capacity for `n` switches.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Adds the root switch with the given `(r, d)` up-link rate and returns its id.
    ///
    /// If a root already exists this is a no-op that returns [`ROOT`].
    pub fn root(&mut self, rate: f64) -> NodeId {
        if self.nodes.is_empty() {
            self.nodes.push(Node {
                parent: None,
                children: Vec::new(),
                depth: 0,
                rate,
                load: 0,
                available: true,
            });
        }
        ROOT
    }

    /// Adds a switch as a child of `parent` with the given up-link rate.
    pub fn child(&mut self, parent: NodeId, rate: f64) -> Result<NodeId, TreeError> {
        if parent >= self.nodes.len() {
            return Err(TreeError::UnknownParent(parent));
        }
        let id = self.nodes.len();
        let depth = self.nodes[parent].depth + 1;
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            depth,
            rate,
            load: 0,
            available: true,
        });
        self.nodes[parent].children.push(id);
        Ok(id)
    }

    /// Adds a switch as a child of `parent` with a rate, load, and availability.
    pub fn child_with(
        &mut self,
        parent: NodeId,
        rate: f64,
        load: u64,
        available: bool,
    ) -> Result<NodeId, TreeError> {
        let id = self.child(parent, rate)?;
        self.nodes[id].load = load;
        self.nodes[id].available = available;
        Ok(id)
    }

    /// Sets the load of an already-added switch.
    pub fn set_load(&mut self, v: NodeId, load: u64) -> Result<(), TreeError> {
        self.nodes
            .get_mut(v)
            .map(|n| n.load = load)
            .ok_or(TreeError::UnknownNode(v))
    }

    /// Number of switches added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no switch has been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalizes the builder into a validated [`Tree`].
    pub fn build(self) -> Result<Tree, TreeError> {
        Tree::from_nodes(self.nodes)
    }
}

/// The weighted, loaded aggregation tree.
///
/// See the [crate-level documentation](crate) for the modelling conventions.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct Tree {
    nodes: Vec<Node>,
    height: usize,
}

impl Deserialize for Tree {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // A document is outside input: its nodes go through the same validation
        // as a built tree, and `height`, derived from them, is recomputed.
        Tree::from_nodes(serde::field(value, "nodes")?)
            .map_err(|e| serde::Error::msg(e.to_string()))
    }
}

impl Tree {
    /// Builds a tree from a raw node arena, validating structure and rates.
    ///
    /// Runs in time linear in the number of switches, however wide the nodes.
    pub(crate) fn from_nodes(nodes: Vec<Node>) -> Result<Self, TreeError> {
        if nodes.is_empty() {
            return Err(TreeError::Empty);
        }
        if nodes[ROOT].parent.is_some() {
            return Err(TreeError::Inconsistent("node 0 must be the root".into()));
        }
        let n = nodes.len();
        let mut listed = vec![false; n];
        let mut n_listed = 0;
        for (id, node) in nodes.iter().enumerate() {
            if !(node.rate.is_finite() && node.rate > 0.0) {
                return Err(TreeError::InvalidRate(format!(
                    "node {id} has rate {}",
                    node.rate
                )));
            }
            if id != ROOT {
                let p = node.parent.ok_or_else(|| {
                    TreeError::Inconsistent(format!("non-root node {id} has no parent"))
                })?;
                if p >= n {
                    return Err(TreeError::UnknownParent(p));
                }
                if p >= id {
                    // Parents must precede children in the arena; this guarantees
                    // acyclicity and lets traversals be simple index scans.
                    return Err(TreeError::Inconsistent(format!(
                        "node {id} has parent {p} >= its own id; parents must be added first"
                    )));
                }
                if node.depth != nodes[p].depth + 1 {
                    return Err(TreeError::Inconsistent(format!(
                        "node {id} depth {} is not parent depth + 1",
                        node.depth
                    )));
                }
            }
            for &child in &node.children {
                if child >= n {
                    return Err(TreeError::UnknownNode(child));
                }
                if nodes[child].parent != Some(id) {
                    return Err(TreeError::Inconsistent(format!(
                        "node {id} lists {child} as a child, but {child}'s parent is {:?}",
                        nodes[child].parent
                    )));
                }
                if std::mem::replace(&mut listed[child], true) {
                    return Err(TreeError::Inconsistent(format!(
                        "node {id} lists {child} twice"
                    )));
                }
            }
            n_listed += node.children.len();
        }
        // Every listed child names its lister as parent and is listed once, so
        // listing n - 1 children means every non-root node is its parent's child.
        if n_listed != n - 1 {
            return Err(TreeError::Inconsistent(format!(
                "child lists name {n_listed} switches, expected {}",
                n - 1
            )));
        }
        let height = nodes.iter().map(|n| n.depth).max().unwrap_or(0);
        Ok(Tree { nodes, height })
    }

    /// Builds a tree from a parent vector.
    ///
    /// `parents[v]` is the parent of switch `v` and must satisfy `parents[v] < v`
    /// (parents listed before children); `parents[0]` is ignored (the root's parent
    /// is the destination). `rates[v]` is the rate of the up-link of `v`
    /// (`rates[0]` being the rate of the `(r, d)` link).
    pub fn from_parents(parents: &[NodeId], rates: &[f64]) -> Result<Self, TreeError> {
        if parents.is_empty() {
            return Err(TreeError::Empty);
        }
        if parents.len() != rates.len() {
            return Err(TreeError::Inconsistent(
                "parents and rates must have the same length".into(),
            ));
        }
        let mut builder = TreeBuilder::with_capacity(parents.len());
        builder.root(rates[0]);
        for v in 1..parents.len() {
            let p = parents[v];
            if p >= v {
                return Err(TreeError::Inconsistent(format!(
                    "parents[{v}] = {p} must be < {v}"
                )));
            }
            builder.child(p, rates[v])?;
        }
        builder.build()
    }

    /// Builds a tree from a parent vector with unit rates everywhere.
    pub fn from_parents_unit(parents: &[NodeId]) -> Result<Self, TreeError> {
        Self::from_parents(parents, &vec![1.0; parents.len()])
    }

    // ------------------------------------------------------------------
    // Basic accessors
    // ------------------------------------------------------------------

    /// Number of switches `n = |S|` in the tree (excluding the destination `d`).
    pub fn n_switches(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes counted the way the paper sizes topologies
    /// (`BT(n)` counts the destination): switches + 1.
    pub fn n_with_dest(&self) -> usize {
        self.nodes.len() + 1
    }

    /// The root switch id (always 0).
    pub fn root(&self) -> NodeId {
        ROOT
    }

    /// Immutable access to a node.
    pub fn node(&self, v: NodeId) -> &Node {
        &self.nodes[v]
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Parent of `v`, or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.nodes[v].parent
    }

    /// Children of `v`, in insertion order (the fixed order `c_1, ..., c_{C(v)}` of the paper).
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.nodes[v].children
    }

    /// Number of children `C(v)`.
    pub fn n_children(&self, v: NodeId) -> usize {
        self.nodes[v].children.len()
    }

    /// Whether `v` is a leaf switch.
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.nodes[v].children.is_empty()
    }

    /// Hop distance `D(v)` from `v` to the root `r`.
    pub fn depth(&self, v: NodeId) -> usize {
        self.nodes[v].depth
    }

    /// Hop distance from `v` to the destination `d` (= `D(v) + 1`).
    ///
    /// This is the largest meaningful value of the SOAR parameter `ℓ` at node `v`.
    pub fn dist_to_dest(&self, v: NodeId) -> usize {
        self.nodes[v].depth + 1
    }

    /// Height `h(T) = max_s D(s)` of the switch tree.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Rate ω of the up-link of `v`.
    pub fn rate(&self, v: NodeId) -> f64 {
        self.nodes[v].rate
    }

    /// Transmission time ρ(v) = 1/ω of the up-link of `v`.
    pub fn rho(&self, v: NodeId) -> f64 {
        1.0 / self.nodes[v].rate
    }

    /// Load `L(v)` at switch `v`.
    pub fn load(&self, v: NodeId) -> u64 {
        self.nodes[v].load
    }

    /// Whether `v ∈ Λ` (available for aggregation).
    pub fn available(&self, v: NodeId) -> bool {
        self.nodes[v].available
    }

    /// Sum of all loads, `Σ_v L(v)` — the number of worker servers.
    pub fn total_load(&self) -> u64 {
        self.nodes.iter().map(|n| n.load).sum()
    }

    /// Number of available switches `|Λ|`.
    pub fn n_available(&self) -> usize {
        self.nodes.iter().filter(|n| n.available).count()
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Sets the load of switch `v`.
    pub fn set_load(&mut self, v: NodeId, load: u64) {
        self.nodes[v].load = load;
    }

    /// Sets the rate of the up-link of `v`. Panics on non-positive or non-finite rates.
    pub fn set_rate(&mut self, v: NodeId, rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "link rate must be positive and finite, got {rate}"
        );
        self.nodes[v].rate = rate;
    }

    /// Marks switch `v` as available / unavailable for aggregation.
    pub fn set_available(&mut self, v: NodeId, available: bool) {
        self.nodes[v].available = available;
    }

    /// Marks every switch as available (Λ = S).
    pub fn set_all_available(&mut self) {
        for n in &mut self.nodes {
            n.available = true;
        }
    }

    /// Replaces the whole load vector. Panics if `loads.len() != n_switches()`.
    pub fn set_loads(&mut self, loads: &[u64]) {
        assert_eq!(loads.len(), self.nodes.len(), "load vector length mismatch");
        for (n, &l) in self.nodes.iter_mut().zip(loads) {
            n.load = l;
        }
    }

    /// Returns a copy of the load vector.
    pub fn loads(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.load).collect()
    }

    /// Returns a clone of this tree carrying a different load vector.
    pub fn with_loads(&self, loads: &[u64]) -> Tree {
        let mut t = self.clone();
        t.set_loads(loads);
        t
    }

    /// Replaces the availability vector. Panics on length mismatch.
    pub fn set_availability(&mut self, available: &[bool]) {
        assert_eq!(
            available.len(),
            self.nodes.len(),
            "availability vector length mismatch"
        );
        for (n, &a) in self.nodes.iter_mut().zip(available) {
            n.available = a;
        }
    }

    /// Returns a copy of the availability vector (Λ as a boolean mask).
    pub fn availability(&self) -> Vec<bool> {
        self.nodes.iter().map(|n| n.available).collect()
    }

    // ------------------------------------------------------------------
    // Traversals & structural queries
    // ------------------------------------------------------------------

    /// Iterator over all node ids, `0..n`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.nodes.len()
    }

    /// Iterator over the leaf switches.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |&v| self.is_leaf(v))
    }

    /// Iterator over the internal (non-leaf) switches.
    pub fn internal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |&v| !self.is_leaf(v))
    }

    /// A uniformly random leaf switch (every valid tree has at least one — a
    /// childless root is its own leaf).
    ///
    /// The workhorse of the churn generators: leaf-rate-change events and
    /// tenant footprints pick their switches through this.
    pub fn random_leaf<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        let leaves: Vec<NodeId> = self.leaves().collect();
        leaves[rng.random_range(0..leaves.len())]
    }

    /// Samples `count` *distinct* leaf switches uniformly (all leaves when the
    /// tree has fewer than `count`), in increasing id order — a deterministic
    /// order so that seeded churn timelines are reproducible.
    pub fn sample_leaves<R: rand::Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<NodeId> {
        let mut leaves: Vec<NodeId> = self.leaves().collect();
        // Partial Fisher-Yates: move a random remaining leaf into each slot.
        let take = count.min(leaves.len());
        for slot in 0..take {
            let pick = rng.random_range(slot..leaves.len());
            leaves.swap(slot, pick);
        }
        leaves.truncate(take);
        leaves.sort_unstable();
        leaves
    }

    /// Post-order traversal: every node appears after all nodes of its subtree.
    ///
    /// Because the arena stores parents before children, the reversed id order is a
    /// valid post-order; this method nevertheless computes an explicit DFS post-order
    /// so child order is respected.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        // Iterative DFS with an explicit stack of (node, next-child-index).
        let mut stack: Vec<(NodeId, usize)> = vec![(ROOT, 0)];
        while let Some(&(v, ci)) = stack.last() {
            if ci < self.nodes[v].children.len() {
                stack.last_mut().expect("stack is non-empty").1 += 1;
                stack.push((self.nodes[v].children[ci], 0));
            } else {
                order.push(v);
                stack.pop();
            }
        }
        order
    }

    /// Pre-order traversal: every node appears before all nodes of its subtree.
    pub fn pre_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![ROOT];
        while let Some(v) = stack.pop() {
            order.push(v);
            // Push children in reverse so they are visited in insertion order.
            for &c in self.nodes[v].children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Nodes grouped by depth: `levels()[d]` lists all switches at depth `d`.
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let mut levels = vec![Vec::new(); self.height + 1];
        for v in self.node_ids() {
            levels[self.depth(v)].push(v);
        }
        levels
    }

    /// All node ids of the subtree rooted at `v` (including `v`), in pre-order.
    pub fn subtree(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            out.push(u);
            for &c in self.nodes[u].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Number of switches in the subtree rooted at `v`.
    pub fn subtree_size(&self, v: NodeId) -> usize {
        self.subtree(v).len()
    }

    /// Total load in the subtree rooted at `v`.
    pub fn subtree_load(&self, v: NodeId) -> u64 {
        self.subtree(v).iter().map(|&u| self.load(u)).sum()
    }

    /// The ancestor of `v` at hop distance `ℓ`, or `None` if `ℓ` reaches the
    /// destination `d` or beyond (`ℓ > D(v)` reaches past the root).
    ///
    /// `ancestor_at(v, 0) == Some(v)`; `ancestor_at(v, D(v)) == Some(ROOT)`;
    /// `ancestor_at(v, D(v) + 1) == None` (the destination).
    pub fn ancestor_at(&self, v: NodeId, l: usize) -> Option<NodeId> {
        let mut cur = v;
        for _ in 0..l {
            cur = self.nodes[cur].parent?;
        }
        Some(cur)
    }

    /// Whether `anc` lies on the path from `v` to the root (inclusive of `v`).
    pub fn is_ancestor_or_self(&self, anc: NodeId, v: NodeId) -> bool {
        let mut cur = Some(v);
        while let Some(u) = cur {
            if u == anc {
                return true;
            }
            cur = self.nodes[u].parent;
        }
        false
    }

    /// The path from `v` up to (and including) the root, as node ids.
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.nodes[cur].parent {
            path.push(p);
            cur = p;
        }
        path
    }

    // ------------------------------------------------------------------
    // ρ path sums
    // ------------------------------------------------------------------

    /// Cumulative transmission times from `v` upward:
    /// entry `ℓ` is `ρ(v, Aᵉ_v)` — the sum of ρ over the first `ℓ` up-links starting at `v`.
    ///
    /// The returned vector has length `dist_to_dest(v) + 1`:
    /// index 0 is `0.0`, index `D(v) + 1` is the full path cost `ρ(v, d)`
    /// (including the `(r, d)` link).
    pub fn path_rho(&self, v: NodeId) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dist_to_dest(v) + 1);
        out.push(0.0);
        let mut acc = 0.0;
        let mut cur = Some(v);
        while let Some(u) = cur {
            acc += self.rho(u);
            out.push(acc);
            cur = self.nodes[u].parent;
        }
        out
    }

    /// `ρ(v, d)`: total transmission time of the path from `v` to the destination.
    pub fn rho_to_dest(&self, v: NodeId) -> f64 {
        *self
            .path_rho(v)
            .last()
            .expect("path_rho always has at least one entry")
    }

    /// `ρ(v, u)` where `u` is an ancestor of `v` — the summed ρ over the path,
    /// or `None` when `u` is not an ancestor of `v`.
    pub fn rho_between(&self, v: NodeId, ancestor: NodeId) -> Option<f64> {
        let mut acc = 0.0;
        let mut cur = v;
        loop {
            if cur == ancestor {
                return Some(acc);
            }
            acc += self.rho(cur);
            cur = self.nodes[cur].parent?;
        }
    }

    /// Validates internal invariants; used by property tests.
    pub fn validate(&self) -> Result<(), TreeError> {
        Tree::from_nodes(self.nodes.clone()).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 7-switch complete binary tree of the paper's Fig. 2 (loads 2, 6, 5, 4 on
    /// the leaves, unit rates).
    fn fig2_tree() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.root(1.0);
        let a = b.child(r, 1.0).unwrap();
        let bnode = b.child(r, 1.0).unwrap();
        let l1 = b.child(a, 1.0).unwrap();
        let l2 = b.child(a, 1.0).unwrap();
        let l3 = b.child(bnode, 1.0).unwrap();
        let l4 = b.child(bnode, 1.0).unwrap();
        let mut t = b.build().unwrap();
        t.set_load(l1, 2);
        t.set_load(l2, 6);
        t.set_load(l3, 5);
        t.set_load(l4, 4);
        t
    }

    #[test]
    fn builder_constructs_expected_shape() {
        let t = fig2_tree();
        assert_eq!(t.n_switches(), 7);
        assert_eq!(t.n_with_dest(), 8);
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaves().count(), 4);
        assert_eq!(t.children(ROOT), &[1, 2]);
        assert_eq!(t.parent(ROOT), None);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.depth(ROOT), 0);
        assert_eq!(t.depth(3), 2);
        assert_eq!(t.dist_to_dest(3), 3);
        assert_eq!(t.total_load(), 17);
    }

    #[test]
    fn from_parents_round_trip() {
        let parents = [0usize, 0, 0, 1, 1, 2, 2];
        let t = Tree::from_parents_unit(&parents).unwrap();
        assert_eq!(t.n_switches(), 7);
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.children(1), &[3, 4]);
        assert_eq!(t.children(2), &[5, 6]);
        assert!(t.is_leaf(6));
    }

    #[test]
    fn from_parents_rejects_forward_parent() {
        let parents = [0usize, 2, 1];
        assert!(Tree::from_parents_unit(&parents).is_err());
    }

    #[test]
    fn from_parents_rejects_length_mismatch() {
        assert!(Tree::from_parents(&[0, 0], &[1.0]).is_err());
    }

    #[test]
    fn empty_tree_is_an_error() {
        assert!(TreeBuilder::new().build().is_err());
        assert!(Tree::from_parents_unit(&[]).is_err());
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let mut b = TreeBuilder::new();
        b.root(0.0);
        assert!(matches!(b.build(), Err(TreeError::InvalidRate(_))));

        let mut b = TreeBuilder::new();
        b.root(f64::NAN);
        assert!(b.build().is_err());

        let mut b = TreeBuilder::new();
        b.root(f64::INFINITY);
        assert!(b.build().is_err());
    }

    #[test]
    fn post_order_places_children_before_parents() {
        let t = fig2_tree();
        let order = t.post_order();
        assert_eq!(order.len(), t.n_switches());
        let pos: Vec<usize> = {
            let mut p = vec![0; t.n_switches()];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for v in t.node_ids() {
            if let Some(p) = t.parent(v) {
                assert!(pos[v] < pos[p], "child {v} must precede parent {p}");
            }
        }
        // The root is last.
        assert_eq!(*order.last().unwrap(), ROOT);
    }

    #[test]
    fn pre_order_places_parents_before_children() {
        let t = fig2_tree();
        let order = t.pre_order();
        assert_eq!(order[0], ROOT);
        let pos: Vec<usize> = {
            let mut p = vec![0; t.n_switches()];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for v in t.node_ids() {
            if let Some(p) = t.parent(v) {
                assert!(pos[p] < pos[v]);
            }
        }
    }

    #[test]
    fn levels_partition_the_nodes() {
        let t = fig2_tree();
        let levels = t.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![0]);
        assert_eq!(levels[1], vec![1, 2]);
        assert_eq!(levels[2], vec![3, 4, 5, 6]);
    }

    #[test]
    fn subtree_and_sizes() {
        let t = fig2_tree();
        assert_eq!(t.subtree_size(ROOT), 7);
        assert_eq!(t.subtree_size(1), 3);
        assert_eq!(t.subtree_size(3), 1);
        assert_eq!(t.subtree_load(1), 8);
        assert_eq!(t.subtree_load(2), 9);
        let sub = t.subtree(2);
        assert!(sub.contains(&5) && sub.contains(&6) && sub.contains(&2));
        assert_eq!(sub.len(), 3);
    }

    #[test]
    fn ancestor_lookups() {
        let t = fig2_tree();
        assert_eq!(t.ancestor_at(3, 0), Some(3));
        assert_eq!(t.ancestor_at(3, 1), Some(1));
        assert_eq!(t.ancestor_at(3, 2), Some(ROOT));
        assert_eq!(t.ancestor_at(3, 3), None); // the destination d
        assert!(t.is_ancestor_or_self(ROOT, 3));
        assert!(t.is_ancestor_or_self(3, 3));
        assert!(!t.is_ancestor_or_self(2, 3));
        assert_eq!(t.path_to_root(3), vec![3, 1, 0]);
    }

    #[test]
    fn path_rho_prefix_sums() {
        let mut b = TreeBuilder::new();
        let r = b.root(2.0); // rho 0.5
        let a = b.child(r, 4.0).unwrap(); // rho 0.25
        let l = b.child(a, 1.0).unwrap(); // rho 1.0
        let t = b.build().unwrap();
        let pr = t.path_rho(l);
        assert_eq!(pr.len(), 4);
        assert!((pr[0] - 0.0).abs() < 1e-12);
        assert!((pr[1] - 1.0).abs() < 1e-12);
        assert!((pr[2] - 1.25).abs() < 1e-12);
        assert!((pr[3] - 1.75).abs() < 1e-12);
        assert!((t.rho_to_dest(l) - 1.75).abs() < 1e-12);
        assert_eq!(t.rho_between(l, a), Some(1.0));
        assert_eq!(t.rho_between(l, r), Some(1.25));
        assert_eq!(t.rho_between(l, l), Some(0.0));
        assert_eq!(t.rho_between(a, l), None);
    }

    #[test]
    fn load_and_availability_mutation() {
        let mut t = fig2_tree();
        assert!(t.available(0));
        t.set_available(0, false);
        assert!(!t.available(0));
        assert_eq!(t.n_available(), 6);
        t.set_all_available();
        assert_eq!(t.n_available(), 7);

        t.set_loads(&[0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(t.total_load(), 4);
        let loads = t.loads();
        assert_eq!(loads, vec![0, 0, 0, 1, 1, 1, 1]);

        let t2 = t.with_loads(&[1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(t2.total_load(), 7);
        assert_eq!(t.total_load(), 4, "with_loads must not mutate the original");

        t.set_availability(&[false, false, false, true, true, true, true]);
        assert_eq!(t.n_available(), 4);
        assert_eq!(
            t.availability(),
            vec![false, false, false, true, true, true, true]
        );
    }

    #[test]
    #[should_panic(expected = "load vector length mismatch")]
    fn set_loads_length_mismatch_panics() {
        let mut t = fig2_tree();
        t.set_loads(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn set_rate_rejects_zero() {
        let mut t = fig2_tree();
        t.set_rate(0, 0.0);
    }

    #[test]
    fn validate_accepts_built_trees() {
        assert!(fig2_tree().validate().is_ok());
    }

    #[test]
    fn leaf_sampling_is_distinct_in_range_and_seed_deterministic() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let tree = fig2_tree();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let v = tree.random_leaf(&mut rng);
            assert!(tree.is_leaf(v));
        }
        let sample = tree.sample_leaves(3, &mut rng);
        assert_eq!(sample.len(), 3);
        assert!(sample.windows(2).all(|w| w[0] < w[1]), "distinct + sorted");
        assert!(sample.iter().all(|&v| tree.is_leaf(v)));
        // Asking for more leaves than exist returns them all.
        let all = tree.sample_leaves(99, &mut rng);
        assert_eq!(all, tree.leaves().collect::<Vec<_>>());
        // Same seed, same draw.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(tree.sample_leaves(2, &mut a), tree.sample_leaves(2, &mut b));
    }

    #[test]
    fn builder_child_unknown_parent() {
        let mut b = TreeBuilder::new();
        b.root(1.0);
        assert!(matches!(b.child(7, 1.0), Err(TreeError::UnknownParent(7))));
        assert!(b.set_load(9, 1).is_err());
    }

    #[test]
    fn from_nodes_checks_child_lists_against_parents() {
        let nodes = fig2_tree().nodes;
        let broken = |edit: fn(&mut Vec<Node>)| {
            let mut nodes = nodes.clone();
            edit(&mut nodes);
            Tree::from_nodes(nodes)
        };
        assert!(broken(|_| ()).is_ok());
        // A child id past the arena.
        assert!(matches!(
            broken(|n| n[0].children = vec![1, 99]),
            Err(TreeError::UnknownNode(99))
        ));
        // A listed child whose parent is another node.
        assert!(broken(|n| n[0].children = vec![1, 3]).is_err());
        // A child listed twice, leaving its sibling unlisted.
        assert!(broken(|n| n[0].children = vec![1, 1]).is_err());
        // A child its parent does not list.
        assert!(broken(|n| n[0].children = vec![1]).is_err());
    }

    #[test]
    fn deserialization_validates_the_tree() {
        let json = serde_json::to_string(&fig2_tree()).unwrap();
        assert_eq!(serde_json::from_str::<Tree>(&json).unwrap(), fig2_tree());
        let bad = json.replacen(r#""children":[1,2]"#, r#""children":[1,99]"#, 1);
        assert_ne!(bad, json);
        let err = serde_json::from_str::<Tree>(&bad).unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn a_wide_star_builds_in_linear_time() {
        // Checking each child against its parent's list scans the root's
        // 200 000 children once per child: minutes in a debug build. The
        // linear check takes milliseconds.
        let started = std::time::Instant::now();
        let star = crate::builders::star(200_000);
        let elapsed = started.elapsed();
        assert_eq!(star.n_children(ROOT), 199_999);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "star(200 000) took {elapsed:?}"
        );
    }

    #[test]
    fn error_display_messages() {
        let msgs = [
            TreeError::UnknownNode(3).to_string(),
            TreeError::UnknownParent(4).to_string(),
            TreeError::InvalidRate("x".into()).to_string(),
            TreeError::Empty.to_string(),
            TreeError::Inconsistent("y".into()).to_string(),
        ];
        assert!(msgs[0].contains('3'));
        assert!(msgs[1].contains('4'));
        assert!(msgs[2].contains('x'));
        assert!(msgs[3].contains("root"));
        assert!(msgs[4].contains('y'));
    }
}
