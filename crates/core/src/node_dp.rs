//! The per-switch computation of SOAR-Gather, factored out of the tree traversal.
//!
//! A switch only needs *local* information to fill its DP table:
//!
//! * the prefix sums `ρ(v, Aᵉ_v)` of transmission times up its root path,
//! * its own load `L(v)` and availability (`v ∈ Λ`),
//! * the budget `k`,
//! * and the `X` tables reported by its children.
//!
//! This is exactly the information a switch has in the *distributed* rendition of
//! SOAR-Gather (Sec. 4.2), where children push their `X` tables upwards; the
//! `soar-dataplane` crate drives this same function from message-passing switch actors,
//! while [`crate::gather`] drives it from a centralized level-ordered traversal. Keeping a
//! single implementation guarantees the two agree.
//!
//! ## Hot-path shape
//!
//! The actual DP lives in [`fill_node`], which writes into caller-provided slices
//! ([`NodeTableMut`]) and reads children's `X` tables as borrowed slices — in the
//! centralized gather those are arena stripes, so **no per-node heap allocation**
//! happens at all once the [`DpScratch`] ping-pong buffers are warm. The `mCost`
//! inner loops are written against per-row subslices: the row bounds checks are
//! paid once per `(child, ℓ)` instead of once per `(child, ℓ, i, j)` lookup, and
//! the child's distance-1 row (the only row the blue recursion ever reads) is
//! hoisted out of the `ℓ` loop entirely.
//!
//! [`compute_node_table`] remains the allocating convenience wrapper used by the
//! dataplane's switch actors, which own their tables outright.

use crate::tables::{Color, DpTable, NodeTable, INF};

/// Which `mCost` inner-loop implementation a gather pass runs.
///
/// Both kernels are **bit-identical**: they produce exactly the same `X`/`Y`
/// values *and* the same recorded arg-min splits (property-tested in
/// `tests/kernel_identity.rs`).
///
/// * [`Pruned`](DpKernel::Pruned) — the production kernel. Scalar iteration
///   order plus two exact monotonicity prunes of the arg-min split search.
///   Every DP row is non-increasing in the budget index `i` (more blue nodes
///   never cost more), and f64 `+`/`min` are monotone, so the invariant
///   survives every fold without rounding caveats. The candidate range is
///   capped at the child row's *effective width* (the index where its trailing
///   plateau starts — beyond it every candidate is provably no better and loses
///   ties to an earlier split), and the scan exits early once the running
///   minimum is at or below a lower bound on every remaining candidate. For
///   leaf-heavy trees the effective width collapses to ≤ 1 and the quadratic
///   split search becomes linear.
/// * [`Scalar`](DpKernel::Scalar) — the straight-line reference double loop,
///   kept verbatim as the oracle the pruned kernel is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(rename_all = "lowercase")
)]
pub enum DpKernel {
    /// Reference double loop, no pruning.
    Scalar,
    /// Scalar order + exact effective-width cap + early exit.
    #[default]
    Pruned,
}

impl DpKernel {
    /// Stable name, as recorded in [`DpStats`](crate::api::DpStats) artifacts.
    pub fn name(self) -> &'static str {
        match self {
            DpKernel::Scalar => "scalar",
            DpKernel::Pruned => "pruned",
        }
    }
}

/// Reusable ping-pong buffers for the per-child prefix recursion (`Y^m`).
///
/// One scratch serves any number of consecutive [`fill_node`] calls; buffers only
/// grow (doubling), so a warm scratch performs no allocation. The buffers are
/// never cleared between nodes or children: every cell is overwritten before it is
/// read (the old INF refill between children was dead work — both buffers are
/// fully rewritten for every `(ℓ, i)` cell on the next child fold).
///
/// The scratch also counts the split candidates the kernel pruned
/// ([`pruned_splits`](DpScratch::pruned_splits)), which
/// [`DpStats`](crate::api::DpStats) reports per pass.
#[derive(Debug, Default)]
pub struct DpScratch {
    prev_blue: Vec<f64>,
    prev_red: Vec<f64>,
    cur_blue: Vec<f64>,
    cur_red: Vec<f64>,
    /// `(i, j)` split candidates the kernel never evaluated — by effective-width
    /// capping or early exit. 0 for `Scalar`.
    pruned_splits: usize,
}

impl DpScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// Makes the ping-pong buffers at least `cells` long. Returns the number of
    /// buffers that had to (re)allocate — 0 once warm.
    fn ensure(&mut self, cells: usize) -> usize {
        let mut grew = 0;
        for buf in [
            &mut self.prev_blue,
            &mut self.prev_red,
            &mut self.cur_blue,
            &mut self.cur_red,
        ] {
            if buf.len() < cells {
                if buf.capacity() < cells {
                    grew += 1;
                }
                buf.resize(cells.max(buf.capacity()), INF);
            }
        }
        grew
    }

    /// Split candidates pruned since the last
    /// [`reset_pruned_splits`](DpScratch::reset_pruned_splits).
    pub fn pruned_splits(&self) -> usize {
        self.pruned_splits
    }

    /// Zeroes the pruned-split count (called at the start of every gather pass).
    pub fn reset_pruned_splits(&mut self) {
        self.pruned_splits = 0;
    }

    /// Current heap footprint of the scratch buffers, in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.prev_blue.capacity()
            + self.prev_red.capacity()
            + self.cur_blue.capacity()
            + self.cur_red.capacity())
            * 8
    }
}

/// Index where `row`'s trailing plateau starts: the smallest `e` with
/// `row[j] == row[e]` (bitwise) for every `j ≥ e`.
///
/// DP rows are non-increasing in `i`, so every split candidate `j > e` is
/// provably no better than `j = e` *and* loses the first-strict-minimum
/// tie-break to it — capping the arg-min search at `e` is exact in both value
/// and recorded split. For a leaf child's `X` row the plateau starts at index
/// ≤ 1 (`[L·ρ, min(L·ρ, ρ), …]`), which is what collapses the quadratic split
/// search on leaf-heavy trees.
#[inline]
fn effective_width(row: &[f64]) -> usize {
    let mut e = row.len() - 1;
    while e > 0 && row[e - 1].to_bits() == row[e].to_bits() {
        e -= 1;
    }
    e
}

/// Mutable destination slices for one node's table, borrowed from the
/// [`GatherTables`](crate::tables::GatherTables) arena (or from an owned
/// [`NodeTable`]'s buffers). All slices are `n_l · n_i` cells, row-major in `ℓ`,
/// except `splits` which is `(C(v) - 1) · n_l · n_i · 2`.
pub struct NodeTableMut<'a> {
    /// `X_v` destination.
    pub x: &'a mut [f64],
    /// `Y_v(·, ·, B)` destination.
    pub y_blue: &'a mut [f64],
    /// `Y_v(·, ·, R)` destination.
    pub y_red: &'a mut [f64],
    /// Split-decision destination (empty for nodes with fewer than two children).
    pub splits: &'a mut [u32],
}

/// Fills one switch's DP table in place from its children's `X` tables.
///
/// * `path_rho[ℓ]` must hold `ρ(v, Aᵉ_v)` for `ℓ = 0 ..= D(v) + 1`; its length is
///   the number of rows `n_l`.
/// * `n_i` is `k + 1`.
/// * `children_x` yields each child's flat `X` table in child order (`n_l + 1`
///   rows of `n_i` columns — i.e. the child's own table); it must yield exactly
///   `n_children` items.
///
/// Returns the number of scratch buffers that had to grow (0 once warm).
#[allow(clippy::too_many_arguments)]
pub fn fill_node<'c>(
    out: NodeTableMut<'_>,
    path_rho: &[f64],
    load: u64,
    available: bool,
    n_i: usize,
    n_children: usize,
    children_x: impl Iterator<Item = &'c [f64]>,
    scratch: &mut DpScratch,
    kernel: DpKernel,
) -> usize {
    if n_children == 0 {
        fill_leaf(out, path_rho, load, available, n_i);
        0
    } else {
        fill_internal(
            out, path_rho, load, available, n_i, n_children, children_x, scratch, kernel,
        )
    }
}

/// Base case (Alg. 3, lines 1-9): a leaf aggregates (blue) for `1 · ρ` or forwards its
/// own workers (red) for `L(v) · ρ`.
///
/// An empty `out.y_blue` marks a `Y`-elided destination (compressed arena): the
/// `Y` rows are skipped and later recomputed on demand by
/// [`GatherTables::y_value`](crate::tables::GatherTables::y_value) with these
/// same expressions.
fn fill_leaf(out: NodeTableMut<'_>, path_rho: &[f64], load: u64, available: bool, n_i: usize) {
    let load = load as f64;
    let elide_y = out.y_blue.is_empty();
    for (l, &rho) in path_rho.iter().enumerate() {
        let red = rho * load;
        let blue = if available { rho } else { INF };
        let row = l * n_i;
        let x_row = &mut out.x[row..row + n_i];
        if !elide_y {
            let yb_row = &mut out.y_blue[row..row + n_i];
            let yr_row = &mut out.y_red[row..row + n_i];
            yr_row.fill(red);
            yb_row[0] = INF;
            yb_row[1..].fill(blue);
        }
        x_row[0] = red;
        x_row[1..].fill(red.min(blue));
    }
}

/// Recursive case (Alg. 3, lines 10-29): fold the children in one at a time through the
/// prefix recursion `Y^m`, recording the arg-min splits (`mCost`) along the way.
#[allow(clippy::too_many_arguments)]
fn fill_internal<'c>(
    out: NodeTableMut<'_>,
    path_rho: &[f64],
    load: u64,
    available: bool,
    n_i: usize,
    n_children: usize,
    mut children_x: impl Iterator<Item = &'c [f64]>,
    scratch: &mut DpScratch,
    kernel: DpKernel,
) -> usize {
    let n_l = path_rho.len();
    let cells = n_l * n_i;
    let load = load as f64;
    let grew = scratch.ensure(cells);
    let DpScratch {
        prev_blue,
        prev_red,
        cur_blue,
        cur_red,
        pruned_splits,
    } = scratch;

    for m_index in 0..n_children {
        let cx = children_x
            .next()
            .expect("children_x yields one table per child");
        // The only row the blue recursion reads: the child at distance 1.
        // Hoisted out of the ℓ loop (and its bounds check out of the j loop).
        let d1_row = &cx[n_i..2 * n_i];
        if m_index == 0 {
            // First child: Y^1 is a direct lookup, no split to record.
            let cur_blue = &mut cur_blue[..cells];
            let cur_red = &mut cur_red[..cells];
            for (l, &rho) in path_rho.iter().enumerate() {
                let row = l * n_i;
                // Red: c_1 is looked up at distance ℓ + 1; v's own workers travel
                // ℓ links to the barrier.
                let child_row = &cx[row + n_i..row + 2 * n_i];
                let cb_row = &mut cur_blue[row..row + n_i];
                let cr_row = &mut cur_red[row..row + n_i];
                let red_base = rho * load;
                for (cr, &c) in cr_row.iter_mut().zip(child_row) {
                    *cr = c + red_base;
                }
                // Blue: v consumes one blue node; c_1 is looked up at distance 1
                // with the remaining i - 1 nodes.
                cb_row[0] = INF;
                if available {
                    for (cb, &c) in cb_row[1..].iter_mut().zip(d1_row) {
                        *cb = c + rho;
                    }
                } else {
                    cb_row[1..].fill(INF);
                }
            }
        } else {
            let m = m_index + 1; // the paper's 1-based child index
            let prev_blue = &prev_blue[..cells];
            let prev_red = &prev_red[..cells];
            let cur_blue = &mut cur_blue[..cells];
            let cur_red = &mut cur_red[..cells];
            let split_block = &mut out.splits[(m - 2) * cells * 2..(m - 1) * cells * 2];
            // The blue fold always hands the child distance-1 costs, so its
            // effective width is shared by every ℓ row.
            let e_blue = match kernel {
                DpKernel::Scalar => 0,
                DpKernel::Pruned => effective_width(d1_row),
            };
            for l in 0..n_l {
                let row = l * n_i;
                let child_row = &cx[row + n_i..row + 2 * n_i];
                let pb_row = &prev_blue[row..row + n_i];
                let pr_row = &prev_red[row..row + n_i];
                let cb_row = &mut cur_blue[row..row + n_i];
                let cr_row = &mut cur_red[row..row + n_i];
                let split_row = &mut split_block[row * 2..(row + n_i) * 2];
                match kernel {
                    DpKernel::Scalar => {
                        mcost_row_scalar(
                            pb_row, pr_row, d1_row, child_row, available, cb_row, cr_row, split_row,
                        );
                    }
                    DpKernel::Pruned => {
                        let e_red = effective_width(child_row);
                        mcost_row_pruned(
                            pb_row,
                            pr_row,
                            d1_row,
                            child_row,
                            available,
                            e_blue,
                            e_red,
                            cb_row,
                            cr_row,
                            split_row,
                            pruned_splits,
                        );
                    }
                }
            }
        }
        std::mem::swap(prev_blue, cur_blue);
        std::mem::swap(prev_red, cur_red);
    }

    // Final stage: Y_v = Y^{C(v)}, X_v = min(Y_B, Y_R). An empty `out.y_blue`
    // marks a Y-elided destination (single-child node of a compressed arena —
    // its Y is the first-child fold, recomputed on demand by `y_value`).
    let prev_blue = &prev_blue[..cells];
    let prev_red = &prev_red[..cells];
    if out.y_blue.is_empty() {
        for i in 0..cells {
            out.x[i] = prev_blue[i].min(prev_red[i]);
        }
    } else {
        for i in 0..cells {
            let blue = prev_blue[i];
            let red = prev_red[i];
            out.y_blue[i] = blue;
            out.y_red[i] = red;
            out.x[i] = blue.min(red);
        }
    }
    grew
}

/// Reference `mCost` row: the full quadratic arg-min scan, first strict minimum
/// wins. The pruned kernel is property-tested bit-identical to this one.
#[allow(clippy::too_many_arguments)]
fn mcost_row_scalar(
    pb_row: &[f64],
    pr_row: &[f64],
    d1_row: &[f64],
    child_row: &[f64],
    available: bool,
    cb_row: &mut [f64],
    cr_row: &mut [f64],
    split_row: &mut [u32],
) {
    let n_i = cb_row.len();
    for i in 0..n_i {
        // mCost for color B: hand j blue nodes to c_m, keep i - j ≥ 1
        // in the prefix (one of them is v itself).
        let mut best_blue = INF;
        let mut best_blue_j = 0u32;
        if available && i >= 1 {
            for j in 0..i {
                let value = pb_row[i - j] + d1_row[j];
                if value < best_blue {
                    best_blue = value;
                    best_blue_j = j as u32;
                }
            }
        }
        // mCost for color R.
        let mut best_red = INF;
        let mut best_red_j = 0u32;
        for j in 0..=i {
            let value = pr_row[i - j] + child_row[j];
            if value < best_red {
                best_red = value;
                best_red_j = j as u32;
            }
        }
        cb_row[i] = best_blue;
        cr_row[i] = best_red;
        split_row[i * 2] = best_blue_j;
        split_row[i * 2 + 1] = best_red_j;
    }
}

/// One arg-min scan in scalar order with both exact prunes applied.
///
/// Candidates are `value(j) = p[i - j] + c[j]` for `j ∈ [0, hi]`; `p` and `c`
/// are non-increasing DP rows. `e` caps the scan at `c`'s effective width
/// (plateau candidates lose to `j = e`); the early exit fires once no remaining
/// candidate can be *strictly* below the running minimum: every `j' > j` has
/// `p[i - j'] ≥ p[i - j - 1]` and `c[j'] ≥ c[jmax]`. Returns `(min, arg, skipped)`.
#[inline]
fn argmin_pruned(p: &[f64], c: &[f64], i: usize, hi: usize, e: usize) -> (f64, u32, usize) {
    let jmax = hi.min(e);
    let tail_min = c[jmax];
    let mut best = INF;
    let mut best_j = 0u32;
    let mut j = 0;
    loop {
        let value = p[i - j] + c[j];
        if value < best {
            best = value;
            best_j = j as u32;
        }
        if j == jmax {
            break;
        }
        if best <= p[i - j - 1] + tail_min {
            return (best, best_j, hi - j);
        }
        j += 1;
    }
    (best, best_j, hi - jmax)
}

/// `mCost` row in scalar iteration order with effective-width capping and
/// early exit. Bit-identical to [`mcost_row_scalar`] (values and splits).
#[allow(clippy::too_many_arguments)]
fn mcost_row_pruned(
    pb_row: &[f64],
    pr_row: &[f64],
    d1_row: &[f64],
    child_row: &[f64],
    available: bool,
    e_blue: usize,
    e_red: usize,
    cb_row: &mut [f64],
    cr_row: &mut [f64],
    split_row: &mut [u32],
    pruned_splits: &mut usize,
) {
    let n_i = cb_row.len();
    let mut skipped = 0usize;
    for i in 0..n_i {
        let (best_blue, best_blue_j) = if available && i >= 1 {
            let (v, j, s) = argmin_pruned(pb_row, d1_row, i, i - 1, e_blue);
            skipped += s;
            (v, j)
        } else {
            (INF, 0)
        };
        let (best_red, best_red_j, s) = argmin_pruned(pr_row, child_row, i, i, e_red);
        skipped += s;
        cb_row[i] = best_blue;
        cr_row[i] = best_red;
        split_row[i * 2] = best_blue_j;
        split_row[i * 2 + 1] = best_red_j;
    }
    *pruned_splits += skipped;
}

/// Computes the full DP table of one switch from its children's `X` tables, as an
/// owned [`NodeTable`].
///
/// * `path_rho[ℓ]` must hold `ρ(v, Aᵉ_v)` for `ℓ = 0 ..= D(v) + 1`.
/// * `children_x[m]` is the flat `X` table of the `m`-th child (row-major in `ℓ`, with
///   `k + 1` columns and at least `D(v) + 3` rows — i.e. the child's own table).
///
/// The returned table contains `X_v`, the final-stage `Y_v(·, ·, B/R)` and the recorded
/// split decisions for children `m ≥ 2`. This is the entry point of the
/// *distributed* rendition (`soar-dataplane`), where every switch owns its table;
/// the centralized gather instead fills arena slices via [`fill_node`] and never
/// allocates per node.
pub fn compute_node_table(
    path_rho: &[f64],
    load: u64,
    available: bool,
    k: usize,
    children_x: &[Vec<f64>],
) -> NodeTable {
    let n_l = path_rho.len();
    let mut table = NodeTable::new(n_l, k + 1, children_x.len(), path_rho.to_vec());
    let mut scratch = DpScratch::new();
    fill_node(
        NodeTableMut {
            x: &mut table.x,
            y_blue: &mut table.y_blue,
            y_red: &mut table.y_red,
            splits: &mut table.splits,
        },
        path_rho,
        load,
        available,
        k + 1,
        children_x.len(),
        children_x.iter().map(|v| v.as_slice()),
        &mut scratch,
        DpKernel::default(),
    );
    table
}

/// Given a switch's own table and its actual distance `ℓ*` to the nearest barrier plus
/// the number of blue nodes `i` it must distribute, decides the switch's color exactly
/// as SOAR-Color does (Alg. 4, line 6; leaves are handled by the caller).
///
/// Generic over [`DpTable`] so it serves both the dataplane's owned tables and the
/// arena-backed views of the centralized solver.
pub fn decide_color<T: DpTable + ?Sized>(table: &T, l: usize, i: usize) -> Color {
    if table.y(l, i, Color::Blue) < table.y(l, i, Color::Red) {
        Color::Blue
    } else {
        Color::Red
    }
}

/// Computes how many blue nodes each child receives when `v` (whose table is given) has
/// `i` blue nodes to distribute, sits at distance `ℓ*` from its barrier, and takes the
/// given color. Returns one entry per child, in child order (Alg. 4, lines 9-16).
pub fn child_budgets<T: DpTable + ?Sized>(
    table: &T,
    n_children: usize,
    l: usize,
    i: usize,
    color: Color,
) -> Vec<usize> {
    let mut budgets = vec![0usize; n_children];
    let mut remaining = i;
    for m in (2..=n_children).rev() {
        let j = table.split(m, l, remaining, color) as usize;
        budgets[m - 1] = j;
        remaining -= j;
    }
    if n_children >= 1 {
        budgets[0] = match color {
            Color::Blue => remaining.saturating_sub(1),
            Color::Red => remaining,
        };
    }
    budgets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_table_values() {
        let table = compute_node_table(&[0.0, 1.0, 2.0], 3, true, 2, &[]);
        assert_eq!(table.x(1, 0), 3.0);
        assert_eq!(table.x(1, 1), 1.0);
        assert_eq!(table.x(2, 0), 6.0);
        assert_eq!(table.x(2, 2), 2.0);
        assert_eq!(table.y(2, 1, Color::Red), 6.0);
        assert_eq!(table.y(2, 1, Color::Blue), 2.0);

        let unavailable = compute_node_table(&[0.0, 1.0], 3, false, 2, &[]);
        assert_eq!(unavailable.x(1, 2), 3.0);
        assert_eq!(unavailable.y(1, 2, Color::Blue), INF);
    }

    #[test]
    fn internal_node_matches_manual_computation() {
        // Reproduce the left internal switch of Fig. 5 (children with loads 2 and 6,
        // unit rates): its children's X tables are X(ℓ, 0) = L·ℓ and X(ℓ, i ≥ 1) = ℓ.
        let k = 2;
        let child = |load: f64| -> Vec<f64> {
            let mut x = vec![0.0; 4 * (k + 1)];
            for l in 0..4 {
                x[l * (k + 1)] = load * l as f64;
                for i in 1..=k {
                    x[l * (k + 1) + i] = (l as f64).min(load * l as f64);
                }
            }
            x
        };
        let table = compute_node_table(&[0.0, 1.0, 2.0], 0, true, k, &[child(2.0), child(6.0)]);
        assert_eq!(table.x(0, 0), 8.0);
        assert_eq!(table.x(0, 1), 3.0);
        assert_eq!(table.x(0, 2), 2.0);
        assert_eq!(table.x(1, 0), 16.0);
        assert_eq!(table.x(1, 1), 6.0);
        assert_eq!(table.x(2, 1), 9.0);
    }

    #[test]
    fn decide_color_and_child_budgets() {
        let k = 2;
        let child = |load: f64| -> Vec<f64> {
            let mut x = vec![0.0; 4 * (k + 1)];
            for l in 0..4 {
                x[l * (k + 1)] = load * l as f64;
                for i in 1..=k {
                    x[l * (k + 1) + i] = (l as f64).min(load * l as f64);
                }
            }
            x
        };
        let table = compute_node_table(&[0.0, 1.0, 2.0], 0, true, k, &[child(2.0), child(6.0)]);
        // At ℓ = 1 with i = 1 the red configuration (child-2 blue) is cheaper than
        // being blue itself: X(1,1) = 6 comes from the red row.
        assert_eq!(decide_color(&table, 1, 1), Color::Red);
        let budgets = child_budgets(&table, 2, 1, 1, Color::Red);
        assert_eq!(budgets.iter().sum::<usize>(), 1);
        assert_eq!(
            budgets,
            vec![0, 1],
            "the heavy child receives the blue node"
        );

        // With i = 0 nothing is distributed.
        assert_eq!(child_budgets(&table, 2, 1, 0, Color::Red), vec![0, 0]);
    }

    #[test]
    fn scratch_reuse_is_allocation_free_and_result_invariant() {
        let k = 3;
        let child = |load: f64| -> Vec<f64> {
            let mut x = vec![0.0; 5 * (k + 1)];
            for l in 0..5 {
                x[l * (k + 1)] = load * l as f64;
                for i in 1..=k {
                    x[l * (k + 1) + i] = (l as f64).min(load * l as f64);
                }
            }
            x
        };
        let children: Vec<Vec<f64>> = vec![child(2.0), child(6.0), child(5.0)];
        let child_slices: Vec<&[f64]> = children.iter().map(|v| v.as_slice()).collect();
        let reference = compute_node_table(&[0.0, 1.0, 2.0, 3.0], 1, true, k, &children);

        let mut scratch = DpScratch::new();
        let n_l = 4;
        let n_i = k + 1;
        let cells = n_l * n_i;
        let mut runs = Vec::new();
        for round in 0..3 {
            let mut x = vec![0.0; cells];
            let mut yb = vec![0.0; cells];
            let mut yr = vec![0.0; cells];
            let mut splits = vec![0u32; 2 * cells * 2];
            let grew = fill_node(
                NodeTableMut {
                    x: &mut x,
                    y_blue: &mut yb,
                    y_red: &mut yr,
                    splits: &mut splits,
                },
                &[0.0, 1.0, 2.0, 3.0],
                1,
                true,
                n_i,
                3,
                child_slices.iter().copied(),
                &mut scratch,
                DpKernel::Scalar,
            );
            if round == 0 {
                assert!(grew > 0, "cold scratch must grow once");
            } else {
                assert_eq!(grew, 0, "warm scratch must not allocate");
            }
            runs.push((x, yb, yr, splits));
        }
        // Every reuse round is bit-identical to the first and to the owned wrapper.
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        assert_eq!(runs[0].0, reference.x);
        assert_eq!(runs[0].1, reference.y_blue);
        assert_eq!(runs[0].2, reference.y_red);
        assert_eq!(runs[0].3, reference.splits);
        assert!(scratch.memory_bytes() >= 4 * cells * 8);
    }
}
