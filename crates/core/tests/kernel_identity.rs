//! Property tests: the pruned `mCost` kernel is **bit-identical** to the
//! scalar reference, and the compressed arena solves identically to the full
//! one.
//!
//! The pruned kernel claims *exactness*, not approximation: the
//! effective-width cap and the tail early-exit only ever discard candidates
//! that provably cannot win (values are non-increasing in the split index, and
//! ties resolve to the smallest index, which is visited first). These tests
//! pin that claim across adversarial shapes — small and wide budgets,
//! degenerate paths and stars, random trees with random loads / rates /
//! availability — by comparing whole [`GatherTables`] for equality, which
//! covers every `X` row, every `Y` row, and every recorded arg-min split.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar_core::workspace::SolverWorkspace;
use soar_core::{DpKernel, GatherTables};
use soar_topology::{builders, Tree};

/// Randomizes the DP inputs: loads everywhere (internal nodes included),
/// non-uniform rates, and a sprinkling of unavailable switches.
fn randomize(tree: &mut Tree, rng: &mut StdRng) {
    for v in 0..tree.n_switches() {
        if rng.random_bool(0.7) {
            tree.set_load(v, rng.random_range(0..100));
        }
        if rng.random_bool(0.3) {
            tree.set_available(v, false);
        }
        if rng.random_bool(0.4) {
            tree.set_rate(v, [0.25, 0.5, 1.0, 2.0, 4.0][rng.random_range(0..5usize)]);
        }
    }
}

fn gather_with(tree: &Tree, k: usize, kernel: DpKernel, compressed: bool) -> GatherTables {
    let mut ws = SolverWorkspace::new();
    ws.set_kernel(kernel);
    ws.set_compression(Some(compressed));
    let _ = ws.gather(tree, k);
    ws.into_tables()
}

/// The shapes under test. The tests run budgets from 0 up to `n_i = k + 1 = 66`
/// columns on each.
fn shapes(rng: &mut StdRng) -> Vec<(String, Tree)> {
    let mut shapes: Vec<(String, Tree)> = vec![
        ("path-17".into(), builders::path(17)),
        ("star-33".into(), builders::star(33)),
        ("caterpillar".into(), builders::caterpillar(9, 4)),
        ("bt-255".into(), builders::complete_binary_tree(255)),
        ("kary4-341".into(), builders::complete_kary_tree(4, 341)),
        ("fat-tree".into(), builders::two_tier_fat_tree(4, 6)),
    ];
    for (i, n) in [37usize, 120, 450].into_iter().enumerate() {
        shapes.push((format!("random-{i}"), builders::random_tree(n, rng)));
    }
    for (_, tree) in &mut shapes {
        randomize(tree, rng);
    }
    shapes
}

#[test]
fn pruned_kernel_is_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(0x50AB);
    for (name, tree) in shapes(&mut rng) {
        for k in [0usize, 3, 4, 16, 63, 64] {
            let reference = gather_with(&tree, k, DpKernel::Scalar, false);
            let candidate = gather_with(&tree, k, DpKernel::Pruned, false);
            assert_eq!(
                candidate, reference,
                "pruned kernel diverged from scalar on {name} at k = {k}"
            );
        }
    }
}

#[test]
fn compressed_arena_solves_and_y_values_match_the_full_arena() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for (name, tree) in shapes(&mut rng) {
        for k in [2usize, 7, 65] {
            let mut full_ws = SolverWorkspace::new();
            full_ws.set_compression(Some(false));
            let full_solution = full_ws.solve(&tree, k);

            let mut comp_ws = SolverWorkspace::new();
            comp_ws.set_compression(Some(true));
            let comp_solution = comp_ws.solve(&tree, k);

            // Compressed tables are structurally smaller, so compare the
            // *solve*: identical cost, identical coloring.
            assert_eq!(
                comp_solution, full_solution,
                "compressed solve diverged on {name} at k = {k}"
            );

            // And the on-demand Y recomputation must be bit-identical to the
            // rows the full arena stored — spot-check every elided node.
            let full = full_ws.tables();
            let comp = comp_ws.tables();
            assert!(comp.is_compressed());
            for v in 0..tree.n_switches() {
                if !comp.y_elided(v) {
                    continue;
                }
                for l in 0..=tree.dist_to_dest(v) {
                    for i in 0..=k {
                        for color in [soar_core::Color::Blue, soar_core::Color::Red] {
                            let stored = full.y(v, l, i, color);
                            let recomputed = comp.y_value(&tree, v, l, i, color);
                            assert!(
                                stored.to_bits() == recomputed.to_bits(),
                                "y_value diverged on {name} at k = {k}: \
                                 node {v}, l = {l}, i = {i}, {color:?}: \
                                 stored {stored}, recomputed {recomputed}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn incremental_updates_preserve_kernel_identity() {
    // Partial regathers run the same kernel as full passes; a dirty-path
    // refill must stay bit-identical to a from-scratch gather under both
    // kernels and both arena layouts (this is what keeps soar-online exact
    // when a kernel is forced or the arena is compressed).
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut tree = builders::complete_kary_tree(3, 121);
    randomize(&mut tree, &mut rng);
    let cases = [DpKernel::Scalar, DpKernel::Pruned]
        .into_iter()
        .flat_map(|kernel| [false, true].map(|compressed| (kernel, compressed)));
    for (kernel, compressed) in cases {
        let mut ws = SolverWorkspace::new();
        ws.set_kernel(kernel);
        ws.set_compression(Some(compressed));
        let _ = ws.gather(&tree, 6);
        // Touch one leaf; its root path is the ancestor-closed dirty set.
        let leaf = tree.leaves().last().unwrap();
        tree.set_load(leaf, 913);
        let mut dirty = vec![leaf];
        let mut v = leaf;
        while let Some(p) = tree.parent(v) {
            dirty.push(p);
            v = p;
        }
        let updated = ws.gather_update(&tree, 6, &dirty);
        let fresh = gather_with(&tree, 6, kernel, compressed);
        assert_eq!(
            *updated,
            fresh,
            "partial regather diverged under kernel {} (compressed: {compressed})",
            kernel.name()
        );
        tree.set_load(leaf, 0); // reset so every kernel sees the same sequence
    }
}
