//! Property tests of the allocation-free solve path (hand-rolled generators — the
//! build environment has no `proptest`):
//!
//! * a reused [`SolverWorkspace`] produces **bit-identical** `GatherTables`, costs
//!   and colorings to fresh allocation, across random instances and interleaved
//!   budgets (no state leaks between gathers);
//! * once warm for a shape, a workspace performs **zero** buffer (re)allocations,
//!   and the `SoarSolver` reports surface that through `DpStats::alloc_events`;
//! * the `soar-pool` level-parallel gather matches the sequential bottom-up pass
//!   exactly, and agrees with the brute-force oracle where the oracle is
//!   tractable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar::core::api::{solve_batch, DpStats, SoarSolver, Solver};
use soar::core::workspace::SolverWorkspace;
use soar::core::{soar_color, soar_gather, GatherTables};
use soar::prelude::*;
use soar_pool::ThreadPool;

/// A random φ-BIC instance: arbitrary recursive tree, mixed rates, partial Λ.
fn random_tree(rng: &mut StdRng, max_switches: usize) -> Tree {
    let n = rng.random_range(2usize..=max_switches);
    let mut parents = vec![0usize];
    for v in 1..n {
        parents.push(rng.random_range(0..v));
    }
    let rate_choices = [0.5f64, 1.0, 2.0, 4.0];
    let rates: Vec<f64> = (0..n)
        .map(|_| rate_choices[rng.random_range(0..rate_choices.len())])
        .collect();
    let mut tree = Tree::from_parents(&parents, &rates).unwrap();
    for v in 0..n {
        tree.set_load(v, rng.random_range(0u64..8));
        tree.set_available(v, rng.random_bool(0.8));
    }
    tree
}

/// One workspace reused across many random instances and interleaved budgets must
/// be indistinguishable from allocating fresh tables every time.
#[test]
fn reused_workspace_is_bit_identical_to_fresh_allocation() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut ws = SolverWorkspace::new();
    for _ in 0..48 {
        let tree = random_tree(&mut rng, 40);
        // Interleave budgets non-monotonically so every reset both shrinks and
        // grows the arena over the run.
        for k in [3usize, 0, 7, 1, 4] {
            let fresh: GatherTables = soar_gather(&tree, k);
            let reused = ws.gather(&tree, k);
            assert_eq!(
                *reused,
                fresh,
                "workspace state leaked into the tables (n = {}, k = {k})",
                tree.n_switches()
            );
            let (fresh_coloring, fresh_cost) = soar_color(&tree, &fresh);
            let (reused_coloring, reused_cost) = soar_color(&tree, ws.tables());
            assert_eq!(fresh_coloring, reused_coloring);
            assert_eq!(fresh_cost.to_bits(), reused_cost.to_bits());
        }
    }
}

/// After the warm-up pass on a shape, replaying the same shape never allocates —
/// even with smaller budgets and smaller trees interleaved in between.
#[test]
fn warm_workspace_never_allocates_again() {
    let mut rng = StdRng::seed_from_u64(7);
    let big = random_tree(&mut rng, 60);
    let small = random_tree(&mut rng, 12);
    let mut ws = SolverWorkspace::new();
    let _ = ws.gather(&big, 8);
    assert!(ws.last_alloc_events() > 0, "cold start must allocate");
    // Warm up on every shape the loop below replays (a smaller tree can still be
    // *deeper*, which grows the per-node scratch and level tables once).
    let combos: [(&Tree, usize); 4] = [(&big, 8), (&small, 8), (&big, 3), (&small, 1)];
    for &(tree, k) in &combos {
        let _ = ws.gather(tree, k);
    }
    let warm_total = ws.total_alloc_events();
    for round in 0..20 {
        let (tree, k) = combos[round % combos.len()];
        let _ = ws.gather(tree, k);
        assert_eq!(
            ws.last_alloc_events(),
            0,
            "round {round} allocated after warm-up"
        );
    }
    assert_eq!(ws.total_alloc_events(), warm_total);
}

/// The per-thread workspace behind `SoarSolver` makes repeat solves report zero
/// allocation events — the SolveReport-level view of the same invariant.
#[test]
fn soar_solver_reports_allocation_free_steady_state() {
    let instance = Instance::builder()
        .topology(TopologySpec::CompleteBinaryBt { n: 128 })
        .leaf_loads(LoadSpec::paper_power_law())
        .seed(3)
        .budget(8)
        .build()
        .unwrap();
    let warm_up: DpStats = SoarSolver.solve(&instance).dp.expect("SOAR reports stats");
    assert!(warm_up.arena_peak_bytes >= warm_up.table_bytes);
    for _ in 0..3 {
        let report = SoarSolver.solve(&instance);
        let dp = report.dp.expect("SOAR reports stats");
        assert_eq!(
            dp.alloc_events, 0,
            "steady-state solve performed heap allocations"
        );
        assert_eq!(dp.table_cells, warm_up.table_cells);
    }
    // Batch solves reuse per-worker workspaces; the tail of a large-enough batch
    // must contain allocation-free reports (the first solve per worker warms up).
    let instances: Vec<Instance> = (0..16).map(|_| instance.clone()).collect();
    let reports = solve_batch(&SoarSolver, &instances);
    assert!(
        reports
            .iter()
            .filter(|r| r.dp.expect("stats").alloc_events == 0)
            .count()
            >= reports.len().saturating_sub(soar_pool::global().threads()),
        "at most one warm-up solve per pool worker"
    );
}

/// Pool-parallel gather must equal the sequential result bit for bit, across
/// random shapes, budgets, pool sizes and both arena layouts (full and
/// compressed).
#[test]
fn parallel_gather_matches_sequential_on_random_instances() {
    let pools = [ThreadPool::new(2), ThreadPool::new(5)];
    let mut rng = StdRng::seed_from_u64(1234);
    let mut ws = SolverWorkspace::new();
    let mut sequential_ws = SolverWorkspace::new();
    for case in 0..32 {
        let tree = random_tree(&mut rng, 48);
        let k = rng.random_range(0usize..=6);
        for compressed in [false, true] {
            ws.set_compression(Some(compressed));
            sequential_ws.set_compression(Some(compressed));
            let sequential = sequential_ws.gather(&tree, k);
            if !compressed {
                assert_eq!(*sequential, soar_gather(&tree, k));
            }
            for pool in &pools {
                let parallel = ws.gather_parallel(&tree, k, pool);
                assert_eq!(
                    parallel,
                    sequential,
                    "case {case}: parallel gather diverged (n = {}, k = {k}, workers = {}, \
                     compressed: {compressed})",
                    tree.n_switches(),
                    pool.threads()
                );
            }
            // And the coloring drawn from the parallel tables is the optimum.
            let (coloring, cost_value) = soar_color(&tree, ws.tables());
            assert!((cost::phi(&tree, &coloring) - cost_value).abs() < 1e-9);
        }
    }
}

/// End-to-end cross-check against the exhaustive oracle, solved through a
/// workspace that was already used for *other* instances (stale-state hazard).
#[test]
fn workspace_solves_stay_optimal_against_brute_force() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut ws = SolverWorkspace::new();
    // Dirty the workspace with an unrelated larger instance first.
    let _ = ws.gather(&random_tree(&mut rng, 50), 6);
    for _ in 0..40 {
        let tree = random_tree(&mut rng, 10);
        let k = rng.random_range(0usize..=3);
        let solution = ws.solve(&tree, k);
        let exact = soar::core::brute_force(&tree, k);
        assert!(
            (solution.cost - exact.cost).abs() < 1e-9,
            "workspace SOAR {} vs oracle {} (n = {}, k = {k})",
            solution.cost,
            exact.cost,
            tree.n_switches()
        );
        assert!(solution.coloring.validate(&tree, k).is_ok());
        assert!((cost::phi(&tree, &solution.coloring) - solution.cost).abs() < 1e-9);
    }
}
