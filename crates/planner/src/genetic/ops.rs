//! Genetic operators (§3.4.3): subtree crossover and subtree-replacement
//! mutation, both guarded by the size cap `S_max`.

use crate::genetic::init::random_tree;
use gridflow_plan::PlanNode;
use rand::Rng;

/// Subtree crossover (§3.4.3, Fig. 8), in place.
///
/// A random node is selected in each parent and the associated subtrees
/// are exchanged.  "In case the size of a new tree exceeds `S_max`,
/// crossover fails and both parents are kept" — untouched, returning
/// `false`.  Either way exactly two draws are consumed.
pub fn crossover<R: Rng>(a: &mut PlanNode, b: &mut PlanNode, rng: &mut R, smax: usize) -> bool {
    let (size_a, size_b) = (a.size(), b.size());
    let sub_a = a
        .node_at_mut(rng.gen_range(0..size_a))
        .expect("index in range");
    let sub_b = b
        .node_at_mut(rng.gen_range(0..size_b))
        .expect("index in range");
    let (moved_a, moved_b) = (sub_a.size(), sub_b.size());
    if size_a - moved_a + moved_b > smax || size_b - moved_b + moved_a > smax {
        return false;
    }
    std::mem::swap(sub_a, sub_b);
    true
}

/// Subtree-replacement mutation (§3.4.3, Fig. 9).
///
/// Each node of the tree is independently selected with probability
/// `rate`; a selected node's subtree is replaced by a randomly generated
/// tree ("using the same method as plan initialization").  "If the new
/// tree exceeds the size limitation, mutation fails and we keep the
/// original tree."  Returns the number of applied mutations.
pub fn mutate<R: Rng>(
    tree: &mut PlanNode,
    rng: &mut R,
    rate: f64,
    smax: usize,
    init_max_size: usize,
    activities: &[String],
) -> usize {
    let mut applied = 0;
    // Selections are sampled against the *current* tree: indices shift
    // and `size` changes as replacements land.
    let mut size = tree.size();
    let mut i = 0;
    while i < size {
        if rng.gen_bool(rate) {
            let slot = tree.node_at_mut(i).expect("index in range");
            let kept = size - slot.size();
            let budget = smax.saturating_sub(kept).max(1);
            let new_size = rng.gen_range(1..=budget.min(init_max_size));
            let replacement = random_tree(rng, new_size, activities);
            debug_assert_eq!(replacement.size(), new_size);
            if kept + new_size <= smax {
                *slot = replacement;
                size = kept + new_size;
                applied += 1;
            }
        }
        i += 1;
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn names() -> Vec<String> {
        vec!["A".into(), "B".into(), "C".into()]
    }

    fn sample_pair(rng: &mut ChaCha8Rng) -> (PlanNode, PlanNode) {
        (
            random_tree(rng, 12, &names()),
            random_tree(rng, 15, &names()),
        )
    }

    #[test]
    fn crossover_preserves_total_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            let (mut a, mut b) = sample_pair(&mut rng);
            let total = a.size() + b.size();
            crossover(&mut a, &mut b, &mut rng, 40);
            assert_eq!(a.size() + b.size(), total);
            assert!(a.is_gp_valid() && b.is_gp_valid());
        }
    }

    #[test]
    fn crossover_respects_smax() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (mut refused, mut applied) = (0, 0);
        for _ in 0..200 {
            let (mut a, mut b) = sample_pair(&mut rng);
            let parents = (a.clone(), b.clone());
            // The two draws a crossover consumes, applied or refused.
            let mut two_draws = rng.clone();
            two_draws.gen_range(0..a.size());
            two_draws.gen_range(0..b.size());
            if crossover(&mut a, &mut b, &mut rng, 16) {
                applied += 1;
                assert!(a.size() <= 16 && b.size() <= 16);
            } else {
                refused += 1;
                assert_eq!((a, b), parents, "a refused crossover keeps both parents");
            }
            assert_eq!(rng, two_draws);
        }
        assert!(
            refused > 0 && applied > 0,
            "{refused} refused, {applied} applied"
        );
    }

    #[test]
    fn crossover_at_roots_swaps_whole_trees() {
        // With both trees of size 1, the only choice is the root; children
        // are the parents swapped.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut a = PlanNode::terminal("A");
        let mut b = PlanNode::terminal("B");
        assert!(crossover(&mut a, &mut b, &mut rng, 40));
        assert_eq!(a, PlanNode::terminal("B"));
        assert_eq!(b, PlanNode::terminal("A"));
    }

    #[test]
    fn mutation_rate_zero_never_mutates() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut t = random_tree(&mut rng, 20, &names());
        let before = t.clone();
        let applied = mutate(&mut t, &mut rng, 0.0, 40, 20, &names());
        assert_eq!(applied, 0);
        assert_eq!(t, before);
    }

    #[test]
    fn mutation_rate_one_always_mutates_root() {
        // With rate 1 the root (index 0) is always selected, replacing the
        // whole tree.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut t = random_tree(&mut rng, 20, &names());
        let applied = mutate(&mut t, &mut rng, 1.0, 40, 20, &names());
        assert!(applied >= 1);
        assert!(t.size() <= 40);
        assert!(t.is_gp_valid());
    }

    #[test]
    fn mutation_respects_smax() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..100 {
            let mut t = random_tree(&mut rng, 35, &names());
            mutate(&mut t, &mut rng, 0.3, 40, 20, &names());
            assert!(t.size() <= 40, "size {} exceeds smax", t.size());
            assert!(t.is_gp_valid());
        }
    }

    #[test]
    fn refused_mutation_keeps_the_tree() {
        // Every node but the root of an oversized tree leaves more than
        // S_max nodes behind, so its replacement is drawn and refused.
        let oversized = PlanNode::Sequential(vec![PlanNode::terminal("A"); 30]);
        let mut drawn_and_refused = 0;
        for seed in 0..50 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut selections_only = rng.clone();
            let mut t = oversized.clone();
            if mutate(&mut t, &mut rng, 0.05, 5, 5, &names()) == 0 {
                assert_eq!(t, oversized);
                for _ in 0..oversized.size() {
                    selections_only.gen_bool(0.05);
                }
                if rng != selections_only {
                    drawn_and_refused += 1;
                }
            }
        }
        assert!(drawn_and_refused > 0);
    }

    #[test]
    fn mutated_terminals_come_from_activity_set() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut t = random_tree(&mut rng, 10, &names());
        mutate(&mut t, &mut rng, 1.0, 40, 20, &names());
        for a in t.activities() {
            assert!(names().iter().any(|n| n == a));
        }
    }
}
