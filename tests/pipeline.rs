//! End-to-end pipeline tests across crates: generate → serialize → reload →
//! normalize → match → prove → verify; plus edge-case key semantics and the
//! tree-shaped special case of Proposition 5.

use gk_datagen::{generate, GenConfig};
use keys_for_graphs::core::{normalize_graph, normalize_keys, prove, verify, write_keys, AlphaNum};
use keys_for_graphs::graph::{is_forest, write_graph};
use keys_for_graphs::prelude::*;

#[test]
fn generate_save_load_match_prove() {
    // Generate a workload, round-trip it through the text formats, and run
    // the whole stack on the reloaded copy.
    let w = generate(&GenConfig::dbpedia().with_scale(0.05).with_keys(9));
    let graph_text = write_graph(&w.graph);
    let keys_text = write_keys(w.keys.keys());

    let g = parse_graph(&graph_text).expect("serialized graph reparses");
    let ks = KeySet::parse(&keys_text).expect("serialized keys reparse");
    assert_eq!(g.num_triples(), w.graph.num_triples());

    let compiled = ks.compile(&g);
    let out = em_vc(&g, &compiled, 2, VcVariant::Opt { k: 4 });
    // Ids moved across serialization, so compare by entity labels.
    let label_pairs = |pairs: &[(EntityId, EntityId)], gr: &Graph| -> Vec<(String, String)> {
        let mut v: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (gr.entity_label(a), gr.entity_label(b));
                if x <= y {
                    (x, y)
                } else {
                    (y, x)
                }
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        label_pairs(&out.identified_pairs(), &g),
        label_pairs(&w.truth, &w.graph)
    );

    // Every identified pair has a verifiable proof.
    for (a, b) in out.identified_pairs().into_iter().take(10) {
        let p = prove(&g, &compiled, a, b).expect("identified pairs are provable");
        verify(&g, &compiled, &p).expect("proof verifies");
    }
}

#[test]
fn similarity_pipeline() {
    // Dirty data: spelling variants that only merge under normalization.
    let g = parse_graph(
        r#"
        p1:person username "Ada.Lovelace"
        p1:person works_at u1:employer
        u1:employer name_of "ACME Corp."
        p2:person username "ada lovelace"
        p2:person works_at u2:employer
        u2:employer name_of "acme corp"
        "#,
    )
    .unwrap();
    let keys = KeySet::parse(
        r#"
        key "P" person(x)   { x -username-> u*; x -works_at-> e:employer; }
        key "E" employer(x) { x -name_of-> n*; }
        "#,
    )
    .unwrap();

    // Exact matching finds nothing.
    let exact = chase_reference(&g, &keys.compile(&g), ChaseOrder::Deterministic);
    assert!(exact.identified_pairs().is_empty());

    // Normalized matching cascades: employers merge (value-based), then
    // the persons merge through the recursive key.
    let ng = normalize_graph(&g, &AlphaNum);
    let nk = normalize_keys(&keys, &AlphaNum);
    let compiled = nk.compile(&ng);
    let fuzzy = chase_reference(&ng, &compiled, ChaseOrder::Deterministic);
    assert_eq!(fuzzy.identified_pairs().len(), 2);
    let p1 = ng.entity_named("p1").unwrap();
    let p2 = ng.entity_named("p2").unwrap();
    assert!(
        fuzzy.eq.same(p1, p2),
        "persons merge through the employer merge"
    );
}

#[test]
fn constant_only_key_identifies_within_the_condition() {
    // A key that is *only* a constant condition identifies every pair of
    // entities satisfying it — degenerate but legal semantics.
    let g = parse_graph(
        r#"
        a:flagged tag "hot"
        b:flagged tag "hot"
        c:flagged tag "cold"
        "#,
    )
    .unwrap();
    let keys = KeySet::parse(r#"key "K" flagged(x) { x -tag-> "hot"; }"#).unwrap();
    let r = chase_reference(&g, &keys.compile(&g), ChaseOrder::Deterministic);
    let a = g.entity_named("a").unwrap();
    let b = g.entity_named("b").unwrap();
    assert_eq!(r.identified_pairs(), vec![gk_core::norm(a, b)]);
}

#[test]
fn shared_value_variable_across_two_triples() {
    // n* appears in two triples: both predicates must reach the SAME value
    // node (§2.1: same name ⇒ same pattern node).
    let g = parse_graph(
        r#"
        a:t p "x"
        a:t q "x"
        b:t p "x"
        b:t q "x"
        c:t p "x"
        c:t q "y"   # different q-value: must not merge with a/b
        "#,
    )
    .unwrap();
    let keys = KeySet::parse(r#"key "K" t(x) { x -p-> n*; x -q-> n*; }"#).unwrap();
    let r = chase_reference(&g, &keys.compile(&g), ChaseOrder::Deterministic);
    let a = g.entity_named("a").unwrap();
    let b = g.entity_named("b").unwrap();
    assert_eq!(r.identified_pairs(), vec![gk_core::norm(a, b)]);
}

#[test]
fn tree_case_proposition5() {
    // A tree-shaped catalogue: matching works and the tree check holds.
    let g = parse_graph(
        r#"
        root:cat name_of "electronics"
        a:item name_of "cable"
        b:item name_of "cable"
        c:item name_of "router"
        "#,
    )
    .unwrap();
    assert!(is_forest(&g), "no undirected cycles");
    // One value-based key on items — note the shared "cable" value makes
    // the *graph* non-tree if both edges existed; here names are attribute
    // edges to shared value nodes, so the forest check is on the data.
    let keys = KeySet::parse(r#"key "K" item(x) { x -name_of-> n*; }"#).unwrap();
    let r = chase_reference(&g, &keys.compile(&g), ChaseOrder::Deterministic);
    assert_eq!(r.identified_pairs().len(), 1);
}

#[test]
fn inactive_keys_are_reported_not_fatal() {
    let g = parse_graph("a:t p \"v\"").unwrap();
    let keys = KeySet::parse(
        r#"
        key "Active"  t(x) { x -p-> n*; }
        key "Ghost"   u(x) { x -q-> n*; }   // type u, pred q: absent
        "#,
    )
    .unwrap();
    let compiled = keys.compile(&g);
    assert_eq!(compiled.len(), 1);
    let ghost = keys.ids()[1];
    assert_eq!(keys.keys()[1].name, "Ghost");
    assert!(compiled.get(ghost).is_none());
    // Matching still runs fine.
    let out = em_mr(&g, &compiled, 2, MrVariant::Opt);
    assert!(out.identified_pairs().is_empty());
}

#[test]
fn deep_dependency_chain_cascades() {
    // c = 4: a chain of five duplicate pairs, each unlocked by the next.
    let cfg = GenConfig::synthetic()
        .with_keys(5)
        .with_chain(4)
        .with_radius(1)
        .with_scale(0.2);
    let w = generate(&cfg);
    assert_eq!(w.keys.longest_chain(), 4);
    let keys = w.keys.compile(&w.graph);
    let expected = chase_reference(&w.graph, &keys, ChaseOrder::Deterministic);
    assert_eq!(expected.identified_pairs(), w.truth);
    // The chase needs at least c+1 rounds; EM_MR mirrors that.
    assert!(expected.rounds >= 5);
    let mr = em_mr(&w.graph, &keys, 2, MrVariant::Base);
    assert!(mr.report.rounds >= 5, "rounds = {}", mr.report.rounds);
    assert_eq!(mr.identified_pairs(), w.truth);
    // The asynchronous algorithm needs no rounds at all.
    let vc = em_vc(&w.graph, &keys, 2, VcVariant::Base);
    assert_eq!(vc.identified_pairs(), w.truth);
    assert_eq!(vc.report.rounds, 1);
}

#[test]
fn transitive_closure_fires_dependencies() {
    // Regression test for a subtle completeness hazard in the optimized
    // algorithms: a recursive key's prerequisite pair can enter Eq *only
    // through the transitive closure* of other merges, while never being a
    // pairable candidate itself. The dependency watcher must still fire.
    //
    //   ua --p1="1"     uc --p1="1",p2="2"     ub --p2="2"
    //   (ua,uc) by KU1; (uc,ub) by KU2; (ua,ub) only via TC —
    //   and (ua,ub) is pairable by NEITHER key (no shared attribute).
    //   x1 -r-> ua, x2 -r-> ub: (x1,x2) needs exactly (ua,ub) ∈ Eq.
    let g = parse_graph(
        r#"
        ua:u p1 "1"
        uc:u p1 "1"
        uc:u p2 "2"
        ub:u p2 "2"
        x1:t n "nm"
        x2:t n "nm"
        x1:t r ua:u
        x2:t r ub:u
        "#,
    )
    .unwrap();
    let keys = KeySet::parse(
        r#"
        key "KT"  t(x) { x -n-> v*;  x -r-> y:u; }
        key "KU1" u(x) { x -p1-> v*; }
        key "KU2" u(x) { x -p2-> v*; }
        "#,
    )
    .unwrap()
    .compile(&g);
    let expected = chase_reference(&g, &keys, ChaseOrder::Deterministic).identified_pairs();
    let x1 = g.entity_named("x1").unwrap();
    let x2 = g.entity_named("x2").unwrap();
    assert!(
        expected.contains(&gk_core::norm(x1, x2)),
        "reference must identify (x1, x2): {expected:?}"
    );
    // All optimized variants must agree — they rely on the dep watcher.
    assert_eq!(
        em_mr(&g, &keys, 2, MrVariant::Opt).identified_pairs(),
        expected
    );
    assert_eq!(
        em_vc(&g, &keys, 2, VcVariant::Base).identified_pairs(),
        expected
    );
    assert_eq!(
        em_vc(&g, &keys, 2, VcVariant::Opt { k: 1 }).identified_pairs(),
        expected
    );
}

#[test]
fn run_reports_carry_substrate_metrics() {
    let w = generate(&GenConfig::google().with_scale(0.05).with_keys(6));
    let keys = w.keys.compile(&w.graph);
    let mr = em_mr(&w.graph, &keys, 2, MrVariant::Base);
    assert!(mr.report.shuffled_records > 0, "MapReduce must shuffle");
    assert!(mr.report.rounds >= 2);
    let vc = em_vc(&w.graph, &keys, 2, VcVariant::Base);
    assert!(vc.report.messages > 0, "vertex-centric must message");
    assert!(vc.report.extra("gp_nodes").is_some());
    let sim = em_vc_sim(&w.graph, &keys, 8, VcVariant::Base);
    assert!(sim.report.sim_seconds > 0.0);
    assert_eq!(sim.identified_pairs(), vc.identified_pairs());
}
