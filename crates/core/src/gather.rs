//! SOAR-Gather (Algorithm 3 of the paper): the bottom-up dynamic-programming pass.
//!
//! Scanning the tree from the leaves towards the root, every switch `v` computes — for
//! every possible distance `ℓ` to its closest blue ancestor (or the destination) and
//! every possible number `i` of blue nodes placed inside its subtree — the minimum
//! utilization its subtree can contribute, conditioned on `v` being blue or red
//! (Lemma 6.2). The child subtrees are folded in one at a time through the prefix
//! recursion `Y_v^m` (Lemma 6.1 / the `mCost` procedure), whose arg-min split is
//! recorded for the coloring phase.
//!
//! ## Traversal and storage
//!
//! One driver, [`run_gather`], walks the tree **level by level, deepest first** —
//! a valid bottom-up order (all children of a node sit exactly one level deeper)
//! that doubles as the parallel schedule: nodes of one level touch disjoint arena
//! blocks and only read the already-finalized deeper region. A full pass fills
//! every node of each level; an incremental pass (`gather_update`) refills only a
//! dirty closure, grouped by depth. Without a pool each level runs inline on the
//! calling thread; with a [`soar-pool`](soar_pool) pool the level is carved into
//! contiguous stripes that fill concurrently. Children's `X` tables are
//! **borrowed as slices** from the [`GatherTables`] arena, so a warm
//! [`SolverWorkspace`](crate::workspace::SolverWorkspace) runs the whole pass
//! without a single heap allocation.
//!
//! The complexity is `O(n · h(T) · k²)` time as in Theorem 4.1.

use crate::node_dp::{fill_node, DpKernel, DpScratch, NodeTableMut};
use crate::tables::GatherTables;
use soar_pool::ThreadPool;
use soar_topology::{NodeId, Tree};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A position in the gather arenas: offsets into `x`, the `y_*` pair and
/// `splits`, which advance at different rates (compressed arenas give some
/// nodes no `Y` block, and only multi-child nodes have splits).
#[derive(Clone, Copy, Default)]
struct ArenaPos {
    cell: usize,
    y: usize,
    split: usize,
}

/// A mutable lease on a contiguous run of the arenas, starting at `base`.
struct Lease<'a> {
    x: &'a mut [f64],
    y_blue: &'a mut [f64],
    y_red: &'a mut [f64],
    splits: &'a mut [u32],
    base: ArenaPos,
}

impl<'a> Lease<'a> {
    /// Splits this lease at arena position `at`: returns the part before it and
    /// keeps the rest (which then starts at `at`).
    fn split_front(&mut self, at: ArenaPos) -> Lease<'a> {
        let (x, x_rest) = std::mem::take(&mut self.x).split_at_mut(at.cell - self.base.cell);
        let (y_blue, yb_rest) = std::mem::take(&mut self.y_blue).split_at_mut(at.y - self.base.y);
        let (y_red, yr_rest) = std::mem::take(&mut self.y_red).split_at_mut(at.y - self.base.y);
        let (splits, sp_rest) =
            std::mem::take(&mut self.splits).split_at_mut(at.split - self.base.split);
        let front = Lease {
            x,
            y_blue,
            y_red,
            splits,
            base: self.base,
        };
        *self = Lease {
            x: x_rest,
            y_blue: yb_rest,
            y_red: yr_rest,
            splits: sp_rest,
            base: at,
        };
        front
    }
}

/// Shared read-only state for filling the nodes of one level — the single home
/// of the per-node offset arithmetic, used identically by the inline level and
/// by every pool stripe, which is what keeps the two bit-identical by
/// construction.
struct LevelFill<'a> {
    tree: &'a Tree,
    n_i: usize,
    /// Whether ≤1-child nodes' `Y` blocks are elided (compressed arena).
    compressed: bool,
    /// The `mCost` kernel every node of the pass runs.
    kernel: DpKernel,
    /// Cell offset of the first strictly-deeper node: where `x_children` starts
    /// in the `X` arena.
    boundary: usize,
    x_children: &'a [f64],
    rho: &'a [f64],
    n_l: &'a [u32],
    cell_off: &'a [usize],
    y_off: &'a [usize],
    rho_off: &'a [usize],
    split_off: &'a [usize],
    split_len: &'a [usize],
}

impl LevelFill<'_> {
    /// Cells of node `v`'s `Y` blocks: 0 when elided (≤1 child in a compressed
    /// arena), its table size otherwise.
    fn y_cells(&self, v: NodeId) -> usize {
        if self.compressed && self.split_len[v] == 0 {
            0
        } else {
            self.n_l[v] as usize * self.n_i
        }
    }

    /// Arena position of node `v`'s first cell.
    fn start_of(&self, v: NodeId) -> ArenaPos {
        ArenaPos {
            cell: self.cell_off[v],
            y: self.y_off[v],
            split: self.split_off[v],
        }
    }

    /// Arena position one past node `v`'s last cell.
    fn end_of(&self, v: NodeId) -> ArenaPos {
        ArenaPos {
            cell: self.cell_off[v] + self.n_l[v] as usize * self.n_i,
            y: self.y_off[v] + self.y_cells(v),
            split: self.split_off[v] + self.split_len[v],
        }
    }

    /// Fills every node of `nodes` inside `lease`, which must cover their
    /// blocks. Returns the scratch growth count.
    fn fill(&self, nodes: &[NodeId], lease: Lease<'_>, scratch: &mut DpScratch) -> usize {
        let Lease {
            x,
            y_blue,
            y_red,
            splits,
            base,
        } = lease;
        let mut grew = 0;
        for &v in nodes {
            let rows = self.n_l[v] as usize;
            let start = self.start_of(v);
            let end = self.end_of(v);
            let children = self.tree.children(v);
            // Elided nodes get empty `Y` destinations; fill_node skips the
            // writes and `GatherTables::y_value` recomputes them on demand.
            grew += fill_node(
                NodeTableMut {
                    x: &mut x[start.cell - base.cell..end.cell - base.cell],
                    y_blue: &mut y_blue[start.y - base.y..end.y - base.y],
                    y_red: &mut y_red[start.y - base.y..end.y - base.y],
                    splits: &mut splits[start.split - base.split..end.split - base.split],
                },
                &self.rho[self.rho_off[v]..self.rho_off[v] + rows],
                self.tree.load(v),
                self.tree.available(v),
                self.n_i,
                children.len(),
                children.iter().map(|&c| {
                    let c_off = self.cell_off[c] - self.boundary;
                    &self.x_children[c_off..c_off + self.n_l[c] as usize * self.n_i]
                }),
                scratch,
                self.kernel,
            );
        }
        grew
    }

    /// Fills `nodes` on `pool`: up to `pool.threads()` contiguous stripes, one
    /// job (and one scratch) each, carved off the front of `lease` in arena
    /// order.
    fn fill_on_pool(
        &self,
        nodes: &[NodeId],
        mut lease: Lease<'_>,
        scratches: &mut [DpScratch],
        pool: &ThreadPool,
    ) -> usize {
        let grew = AtomicUsize::new(0);
        let per_stripe = nodes.len().div_ceil(pool.threads());
        pool.scope(|s| {
            for (stripe, scratch) in nodes.chunks(per_stripe).zip(scratches.iter_mut()) {
                let stripe_lease = lease.split_front(self.end_of(stripe[stripe.len() - 1]));
                let grew = &grew;
                s.spawn(move || {
                    let _stripe = soar_obs::span!("gather_stripe", stripe.len());
                    let local = self.fill(stripe, stripe_lease, scratch);
                    if local > 0 {
                        grew.fetch_add(local, Ordering::Relaxed);
                    }
                });
            }
        });
        grew.into_inner()
    }
}

/// Runs SOAR-Gather for budget `k` over the tree (its loads, rates and availability
/// set Λ) and returns the full set of DP tables.
///
/// Allocates a fresh arena per call; batch and sweep callers should prefer a
/// [`SolverWorkspace`](crate::workspace::SolverWorkspace), which reuses one arena
/// across gathers.
pub fn soar_gather(tree: &Tree, k: usize) -> GatherTables {
    let mut tables = GatherTables::new(tree, k);
    run_gather(
        &mut tables,
        tree,
        None,
        &mut Vec::new(),
        None,
        DpKernel::default(),
    );
    tables
}

/// Fills already-laid-out tables bottom-up, deepest level first. Returns the
/// number of scratch-buffer growths (0 when the scratches are warm).
///
/// `dirty: None` fills every node (a full pass). `Some(dirty)` refills only
/// those nodes — the incremental update behind `soar-online`'s epoch solves.
/// The set must then be **ancestor-closed** (a parent reads its children's `X`
/// tables, so a stale ancestor would fold refreshed child values into an old
/// table) and **sorted deepest-first**. Nodes outside the set keep their values
/// from the previous pass; since their loads, availability, ρ blocks and child
/// tables are unchanged, those values are exactly what a full pass would
/// recompute, so the partial pass is bit-identical to a full one. The layout
/// (tree shape, budget) must match the pass that filled the tables; callers go
/// through [`SolverWorkspace::gather_update`](crate::workspace::SolverWorkspace::gather_update),
/// which checks that. Link *rates* may have changed: every dirty node's ρ
/// prefix block is recomputed before the refill (bit-identical when the rates
/// are unchanged), and a changed up-link of `w` must dirty all of `subtree(w)`.
///
/// Without a `pool`, each level runs inline on the calling thread with
/// `scratches[0]`, leasing the whole level region (dirty nodes of one depth need
/// not be in arena order). With a pool, each level is carved into at most
/// `pool.threads()` contiguous stripes, one job and one scratch each; children
/// are finalized before their parents because levels are separated by the
/// scope barrier. The pool path needs the level's nodes in arena order, which
/// a full pass guarantees. Either way the per-node computation is the same, so
/// the results do not depend on the thread count.
pub(crate) fn run_gather(
    tables: &mut GatherTables,
    tree: &Tree,
    dirty: Option<&[NodeId]>,
    scratches: &mut Vec<DpScratch>,
    pool: Option<&ThreadPool>,
    kernel: DpKernel,
) -> usize {
    debug_assert!(
        dirty.is_none() || pool.is_none(),
        "pool stripes need a full level in arena order"
    );
    let stripes = pool.map_or(1, ThreadPool::threads);
    while scratches.len() < stripes {
        // DpScratch::new is heap-free; its buffers grow inside fill_node, where
        // the growth is counted.
        scratches.push(DpScratch::new());
    }
    for &v in dirty.unwrap_or_default() {
        tables.refresh_rho_node(tree, v);
    }
    let mut pending = dirty.unwrap_or_default();
    let mut grew = 0;
    for d in (0..tables.n_levels()).rev() {
        let GatherTables {
            n_i,
            compressed,
            x,
            y_blue,
            y_red,
            splits,
            rho,
            n_l,
            cell_off,
            y_off,
            rho_off,
            split_off,
            split_len,
            level_nodes,
            level_ranges,
            level_cell_end,
            ..
        } = &mut *tables;
        let (start, end) = level_ranges[d];
        let level = &level_nodes[start..end];
        let nodes = match dirty {
            None => level,
            Some(_) => {
                let here = pending.iter().take_while(|&&v| tree.depth(v) == d).count();
                let (nodes, rest) = pending.split_at(here);
                pending = rest;
                nodes
            }
        };
        if nodes.is_empty() {
            continue;
        }
        // One span per level on the *calling* thread (with a pool it covers the
        // whole fork/join; each stripe additionally records on its worker).
        let _level = soar_obs::span!("gather_level", d);
        let boundary = level_cell_end[d];
        // Everything at offsets >= boundary belongs to strictly deeper levels:
        // finalized children, read-only from here on.
        let (x_level, x_children) = x.split_at_mut(boundary);
        let ctx = LevelFill {
            tree,
            n_i: *n_i,
            compressed: *compressed,
            kernel,
            boundary,
            x_children,
            rho,
            n_l,
            cell_off,
            y_off,
            rho_off,
            split_off,
            split_len,
        };
        // Lease this level's region of every arena.
        let mut arena = Lease {
            x: x_level,
            y_blue,
            y_red,
            splits,
            base: ArenaPos::default(),
        };
        let _shallower = arena.split_front(ctx.start_of(level[0]));
        let region = arena.split_front(ctx.end_of(level[level.len() - 1]));
        grew += match pool {
            None => ctx.fill(nodes, region, &mut scratches[0]),
            Some(pool) => ctx.fill_on_pool(nodes, region, scratches, pool),
        };
    }
    debug_assert!(
        pending.is_empty(),
        "dirty nodes must be sorted deepest-first"
    );
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{Color, INF};
    use soar_topology::{builders, Tree};

    /// The Fig. 2 / Fig. 5 instance: complete binary tree over 7 switches, leaf loads
    /// 2, 6, 5, 4, unit rates, Λ = S.
    fn fig5_tree() -> Tree {
        let mut t = builders::complete_binary_tree(7);
        t.set_load(3, 2);
        t.set_load(4, 6);
        t.set_load(5, 5);
        t.set_load(6, 4);
        t
    }

    #[test]
    fn leaf_tables_match_fig5() {
        let tree = fig5_tree();
        let tables = soar_gather(&tree, 2);
        // Leaf with load 2 (node 3): rows ℓ = 0..3, columns i = 0..2.
        // Red row is ℓ·L, blue row is ℓ (for i ≥ 1); X is their minimum.
        for l in 0..4 {
            assert_eq!(tables.y(3, l, 0, Color::Red), 2.0 * l as f64);
            assert_eq!(tables.y(3, l, 0, Color::Blue), INF);
            assert_eq!(tables.x(3, l, 0), 2.0 * l as f64);
            for i in 1..=2 {
                assert_eq!(tables.y(3, l, i, Color::Blue), l as f64);
                assert_eq!(tables.x(3, l, i), (l as f64).min(2.0 * l as f64));
            }
        }
        // Leaf with load 6 (node 4): red row is 6ℓ.
        assert_eq!(tables.x(4, 1, 0), 6.0);
        assert_eq!(tables.x(4, 2, 0), 12.0);
        assert_eq!(tables.x(4, 3, 0), 18.0);
        assert_eq!(tables.x(4, 3, 1), 3.0);
        // Leaf with load 5 (node 5) and 4 (node 6).
        assert_eq!(tables.x(5, 2, 0), 10.0);
        assert_eq!(tables.x(6, 2, 0), 8.0);
    }

    #[test]
    fn internal_node_tables_match_fig5() {
        let tree = fig5_tree();
        let tables = soar_gather(&tree, 2);
        // Left internal switch (node 1, above loads 2 and 6).
        // Fig. 5: X(ℓ=0, ·) = (8, 3, 2); X(ℓ=1, ·) = (16, 6, 4); X(ℓ=2, ·) = (24, 9, 5).
        assert_eq!(tables.x(1, 0, 0), 8.0);
        assert_eq!(tables.x(1, 0, 1), 3.0);
        assert_eq!(tables.x(1, 0, 2), 2.0);
        assert_eq!(tables.x(1, 1, 0), 16.0);
        assert_eq!(tables.x(1, 1, 1), 6.0);
        assert_eq!(tables.x(1, 1, 2), 4.0);
        assert_eq!(tables.x(1, 2, 0), 24.0);
        assert_eq!(tables.x(1, 2, 1), 9.0);
        assert_eq!(tables.x(1, 2, 2), 5.0);
        // Conditioned values reported in Fig. 5(a): Y(ℓ=1, i=1, B) = 9, Y(ℓ=2, i=1, B) = 10.
        assert_eq!(tables.y(1, 1, 1, Color::Blue), 9.0);
        assert_eq!(tables.y(1, 2, 1, Color::Blue), 10.0);
        assert_eq!(tables.y(1, 0, 0, Color::Red), 8.0);

        // Right internal switch (node 2, above loads 5 and 4).
        // Fig. 5: X(ℓ=0, ·) = (9, 5, 2); X(ℓ=1, ·) = (18, 10, 4).
        assert_eq!(tables.x(2, 0, 0), 9.0);
        assert_eq!(tables.x(2, 0, 1), 5.0);
        assert_eq!(tables.x(2, 0, 2), 2.0);
        assert_eq!(tables.x(2, 1, 0), 18.0);
        assert_eq!(tables.x(2, 1, 1), 10.0);
        assert_eq!(tables.x(2, 1, 2), 4.0);
        assert_eq!(tables.y(2, 1, 1, Color::Blue), 10.0);
        assert_eq!(tables.y(2, 2, 1, Color::Blue), 11.0);
    }

    #[test]
    fn root_table_yields_the_known_optima() {
        let tree = fig5_tree();
        let tables = soar_gather(&tree, 4);
        // X_r(1, i) is the optimal utilization with exactly i blue nodes (Eq. 6):
        // all-red is 51; Fig. 3 reports 35, 20, 15, 11 for k = 1..4.
        assert_eq!(tables.optimum_with_exactly(0), 51.0);
        assert_eq!(tables.optimum_with_exactly(1), 35.0);
        assert_eq!(tables.optimum_with_exactly(2), 20.0);
        assert_eq!(tables.optimum_with_exactly(3), 15.0);
        assert_eq!(tables.optimum_with_exactly(4), 11.0);
        let (best_i, best) = tables.optimum();
        assert_eq!(best_i, 4);
        assert_eq!(best, 11.0);
        // The root's subtree-internal view (ℓ = 0) for i = 0 is the all-red cost minus
        // the 17 messages on the (r, d) link: 34, as printed in Fig. 5.
        assert_eq!(tables.x(0, 0, 0), 34.0);
        assert_eq!(tables.x(0, 0, 1), 24.0);
        assert_eq!(tables.x(0, 0, 2), 16.0);
    }

    #[test]
    fn unavailable_switches_are_never_counted_blue() {
        let mut tree = fig5_tree();
        // Make everything unavailable: the optimum for any k collapses to all-red.
        for v in 0..tree.n_switches() {
            tree.set_available(v, false);
        }
        let tables = soar_gather(&tree, 3);
        for i in 0..=3 {
            assert_eq!(tables.optimum_with_exactly(i), 51.0);
        }
    }

    #[test]
    fn larger_budget_never_hurts() {
        let tree = fig5_tree();
        let tables = soar_gather(&tree, 7);
        let mut prev = f64::INFINITY;
        for i in 0..=7 {
            let value = tables.optimum_with_exactly(i);
            // With positive loads everywhere at the leaves, exact-i optima are
            // non-increasing here (each extra blue node can be placed on a leaf).
            assert!(value <= prev + 1e-9);
            prev = value;
        }
        // All-blue over 7 unit-rate switches costs exactly one message per link = 7.
        assert_eq!(tables.optimum_with_exactly(7), 7.0);
    }

    #[test]
    fn single_switch_tree() {
        let mut tree = builders::path(1);
        tree.set_load(0, 5);
        let tables = soar_gather(&tree, 1);
        assert_eq!(tables.optimum_with_exactly(0), 5.0);
        assert_eq!(tables.optimum_with_exactly(1), 1.0);
    }

    #[test]
    fn heterogeneous_rates_scale_the_potentials() {
        let mut tree = fig5_tree();
        tree.apply_rates(&soar_topology::rates::RateScheme::paper_exponential());
        let tables = soar_gather(&tree, 2);
        // The all-red cost: leaves send over rate-1 links, internals over rate-2,
        // the root over rate-4: 17/4 + (8 + 9)/2 + (2 + 6 + 5 + 4)/1 = 29.75.
        assert!((tables.optimum_with_exactly(0) - 29.75).abs() < 1e-9);
    }

    #[test]
    fn gather_handles_high_arity_nodes() {
        let mut tree = builders::star(9);
        for v in 1..9 {
            tree.set_load(v, v as u64);
        }
        let tables = soar_gather(&tree, 3);
        // All-red: each leaf v sends v messages over 2 links (leaf → root → d).
        let all_red: f64 = (1..9).map(|v| 2.0 * v as f64).sum();
        assert_eq!(tables.optimum_with_exactly(0), all_red);
        // Best single blue node is the root: every leaf still sends v messages on its
        // own link, the root forwards 1.
        let root_blue: f64 = (1..9).map(|v| v as f64).sum::<f64>() + 1.0;
        assert_eq!(tables.optimum_with_exactly(1), root_blue);
    }

    #[test]
    fn partial_regather_of_a_dirty_path_matches_a_fresh_gather() {
        let mut tree = fig5_tree();
        let mut tables = soar_gather(&tree, 3);
        let mut scratches = Vec::new();
        let mut update = |tables: &mut GatherTables, tree: &Tree, dirty: &[NodeId]| {
            run_gather(
                tables,
                tree,
                Some(dirty),
                &mut scratches,
                None,
                DpKernel::default(),
            );
        };
        // Change one leaf's load: only its root path (leaf 4 -> 1 -> 0) is dirty.
        tree.set_load(4, 9);
        update(&mut tables, &tree, &[4, 1, 0]);
        assert_eq!(tables, soar_gather(&tree, 3));

        // Availability changes update through the same path.
        tree.set_available(5, false);
        update(&mut tables, &tree, &[5, 2, 0]);
        assert_eq!(tables, soar_gather(&tree, 3));

        // An empty dirty set leaves the tables untouched.
        let before = tables.clone();
        update(&mut tables, &tree, &[]);
        assert_eq!(tables, before);

        // A link-rate change: the ρ blocks of the link's whole subtree move,
        // so that subtree (plus the ancestor closure) is the dirty set and the
        // partial rho-arena reset brings the pass back to bit-identity.
        tree.set_rate(1, 0.5);
        let mut dirty: Vec<_> = tree.subtree(1);
        dirty.push(0);
        dirty.sort_by_key(|&v| (std::cmp::Reverse(tree.depth(v)), v));
        update(&mut tables, &tree, &dirty);
        assert_eq!(tables, soar_gather(&tree, 3));
    }

    #[test]
    fn parallel_gather_is_bit_identical_to_sequential() {
        // Several shapes, including high arity and a path, on a multi-worker pool.
        let pool = ThreadPool::new(4);
        let trees = vec![fig5_tree(), builders::star(17), builders::path(9), {
            let mut t = builders::complete_binary_tree(63);
            for (i, v) in t.leaves().collect::<Vec<_>>().into_iter().enumerate() {
                t.set_load(v, (i % 7 + 1) as u64);
            }
            t
        }];
        for tree in &trees {
            for k in [0usize, 1, 3, 6] {
                let sequential = soar_gather(tree, k);
                let mut tables = GatherTables::new(tree, k);
                let mut scratches = Vec::new();
                run_gather(
                    &mut tables,
                    tree,
                    None,
                    &mut scratches,
                    Some(&pool),
                    DpKernel::default(),
                );
                assert_eq!(
                    tables,
                    sequential,
                    "parallel gather diverged on n = {}, k = {k}",
                    tree.n_switches()
                );
            }
        }
    }
}
