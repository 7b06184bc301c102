//! Regenerate **Figure 8**: "An example of crossover performed on two
//! plan trees" — build the figure's two parents, cross them at a fixed
//! seed, and show parents and offspring.

use gridflow::prelude::*;
use gridflow_bench::banner;
use gridflow_planner::genetic::crossover;
use rand::SeedableRng;

fn t(name: &str) -> PlanNode {
    PlanNode::terminal(name)
}

fn print_tree(node: &PlanNode, depth: usize) {
    let pad = "  ".repeat(depth);
    match node {
        PlanNode::Terminal(name) => println!("{pad}{name}"),
        PlanNode::Sequential(c) => {
            println!("{pad}Sequential");
            c.iter().for_each(|n| print_tree(n, depth + 1));
        }
        PlanNode::Concurrent(c) => {
            println!("{pad}Concurrent");
            c.iter().for_each(|n| print_tree(n, depth + 1));
        }
        PlanNode::Selective(c) => {
            println!("{pad}Selective");
            c.iter().for_each(|(_, n)| print_tree(n, depth + 1));
        }
        PlanNode::Iterative { body, .. } => {
            println!("{pad}Iterative");
            body.iter().for_each(|n| print_tree(n, depth + 1));
        }
    }
}

fn main() {
    banner("Figure 8: crossover on plan trees");
    // Fig. 8(a): parent 1 = Sequential(A, Selective(B, C), D);
    //            parent 2 = Sequential(Concurrent(E, F), G).
    let parent1 = PlanNode::Sequential(vec![
        t("A"),
        PlanNode::selective_unguarded([t("B"), t("C")]),
        t("D"),
    ]);
    let parent2 = PlanNode::Sequential(vec![PlanNode::Concurrent(vec![t("E"), t("F")]), t("G")]);
    println!("(a) parents:\n\nparent 1 (size {}):", parent1.size());
    print_tree(&parent1, 1);
    println!("\nparent 2 (size {}):", parent2.size());
    print_tree(&parent2, 1);

    // Seed chosen so the exchanged subtrees are interior nodes, as in the
    // figure (the Selective subtree of parent 1 ↔ the Concurrent subtree
    // of parent 2).
    let mut chosen = None;
    for seed in 0..200u64 {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (mut c1, mut c2) = (parent1.clone(), parent2.clone());
        if crossover(&mut c1, &mut c2, &mut rng, 40) {
            let c1_has_concurrent = c1.controller_counts().1 > 0;
            let c2_has_selective = c2.controller_counts().2 > 0;
            if c1_has_concurrent && c2_has_selective {
                chosen = Some((seed, c1, c2));
                break;
            }
        }
    }
    let (seed, child1, child2) = chosen.expect("an interior-node crossover exists");
    println!("\n(b)+(c) after crossover (seed {seed}; subtrees exchanged):");
    println!("\nchild 1 (size {}):", child1.size());
    print_tree(&child1, 1);
    println!("\nchild 2 (size {}):", child2.size());
    print_tree(&child2, 1);
    println!(
        "\ninvariant: sizes conserve ({} + {} = {} + {})",
        parent1.size(),
        parent2.size(),
        child1.size(),
        child2.size()
    );
    assert_eq!(
        parent1.size() + parent2.size(),
        child1.size() + child2.size()
    );
}
