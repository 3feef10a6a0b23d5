//! Workload inputs are a pure function of the seed.

use perfbench::{gen, Scale};

fn batches(stream: gen::ChurnStream, count: usize) -> Vec<String> {
    stream.take(count).collect()
}

#[test]
fn the_same_seed_gives_byte_identical_spec_and_event_bodies() {
    let scale = Scale::smoke();
    for seed in [3, 4] {
        let (a, b) = (gen::sweep(seed, &scale), gen::sweep(seed, &scale));
        assert_eq!(a.ops, b.ops);
        for i in 0..2 * a.ops.len() {
            assert_eq!(a.body(i), b.body(i), "sweep op {i}");
        }
        let (a, b) = (gen::fresh(seed, &scale), gen::fresh(seed, &scale));
        for i in 0..4 {
            assert_eq!(a.body(i), b.body(i), "fresh op {i}");
        }
        let (a, b) = (gen::churn(seed, &scale), gen::churn(seed, &scale));
        assert_eq!(a.spec, b.spec);
        assert_eq!(batches(a.stream(), 30), batches(b.stream(), 30));
        assert_eq!(batches(a.probe_stream(), 8), batches(b.probe_stream(), 8));
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let scale = Scale::smoke();
    assert_ne!(
        gen::sweep(3, &scale).graph_text,
        gen::sweep(4, &scale).graph_text
    );
    assert_ne!(gen::fresh(3, &scale).body(0), gen::fresh(4, &scale).body(0));
    let fresh = gen::fresh(3, &scale);
    assert_ne!(
        fresh.body(0),
        fresh.body(1),
        "every fresh op uploads its own graph"
    );
    let (a, b) = (gen::churn(3, &scale), gen::churn(4, &scale));
    assert_ne!(a.spec, b.spec);
    assert_ne!(batches(a.stream(), 5), batches(b.stream(), 5));
}

#[test]
fn sweep_rung_k_takes_exactly_k_steps() {
    let scale = Scale::smoke();
    let inputs = gen::sweep(7, &scale);
    for seed_ops in inputs.ops.chunks(scale.sweep_rungs) {
        let steps: Vec<usize> = seed_ops.iter().map(|op| op.steps).collect();
        assert_eq!(steps, (1..=scale.sweep_rungs).collect::<Vec<_>>());
        assert!(
            seed_ops.windows(2).all(|w| w[1].theta < w[0].theta),
            "θ falls rung by rung"
        );
    }
}

#[test]
fn churn_batches_have_the_declared_size_and_probe_batches_only_delete() {
    let scale = Scale::smoke();
    let inputs = gen::churn(5, &scale);
    for batch in batches(inputs.stream(), 20) {
        assert_eq!(batch.lines().count(), scale.churn_batch);
        assert!(batch
            .lines()
            .all(|l| l.starts_with("+ ") || l.starts_with("- ")));
    }
    for batch in batches(inputs.probe_stream(), 5) {
        assert!(batch.lines().all(|l| l.starts_with("- ")), "{batch}");
    }
}
