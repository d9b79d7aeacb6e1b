//! Integration tests for incremental maintenance of `chase(G, Σ)`:
//!
//! * insert-only delta chases must equal a from-scratch chase on the
//!   extended graph (monotonicity), including on generated workloads with
//!   recursive keys;
//! * the delta's frontier — block-mates of the entities near a change, and
//!   of the entities near *any* member of a class a merge grew — must not
//!   lose a pair in any of the shapes a key can take (recursive, no value
//!   on the anchor, a constant, a multi-valued blocking attribute);
//! * deletions are **not** monotone — reusing a stale `Eq` after removing a
//!   witness provably over-approximates, which is exactly why the serving
//!   layer's delete path re-derives every step it keeps and replaces the
//!   log (`mode=full-rechase`).

use gk_datagen::{generate, GenConfig};
use keys_for_graphs::core::{chase_incremental, chase_reference, ChaseOrder, EqRel};
use keys_for_graphs::prelude::*;

const KEYS: &str = r#"
    key "Q1" album(x)  { x -name_of-> n*; x -recorded_by-> a:artist; }
    key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
"#;

#[test]
fn insert_only_delta_equals_full_rechase() {
    // Staged inserts over the paper's Fig. 2 shape: each batch's delta
    // chase must land on exactly chase(G', Σ).
    let g = parse_graph(
        r#"
        alb1:album  name_of     "Anthology 2"
        alb1:album  recorded_by art1:artist
        art1:artist name_of     "The Beatles"
        alb2:album  name_of     "Anthology 2"
        alb2:album  recorded_by art2:artist
        art2:artist name_of     "The Beatles"
        "#,
    )
    .unwrap();
    let ks = KeySet::parse(KEYS).unwrap();
    let mut prev = chase_reference(&g, &ks.compile(&g), ChaseOrder::Deterministic).eq;
    let mut g = g;

    let batches: &[&[(&str, &str, &str)]] = &[
        // Years arrive: Q2 fires, Q3 cascades.
        &[
            ("alb1", "release_year", "1996"),
            ("alb2", "release_year", "1996"),
        ],
        // An unrelated album: no new identifications.
        &[("alb9", "name_of", "Abbey Road")],
        // It gains the duplicate attributes too.
        &[("alb9", "release_year", "1996")],
        &[("alb9", "name_of", "Anthology 2")],
    ];
    for (i, batch) in batches.iter().enumerate() {
        let mut b = GraphBuilder::from_graph(&g);
        let mut touched = Vec::new();
        for &(name, pred, value) in batch.iter() {
            let e = b.entity(name, "album");
            b.attr(e, pred, value);
            touched.push(e);
        }
        let g2 = b.freeze();
        let keys2 = ks.compile(&g2);
        let inc = chase_incremental(&g2, &keys2, &prev, &touched);
        let full = chase_reference(&g2, &keys2, ChaseOrder::Deterministic);
        assert_eq!(
            inc.identified_pairs(),
            full.identified_pairs(),
            "delta chase diverged from scratch chase after batch {i}"
        );
        prev = inc.eq;
        g = g2;
    }
    // The final closure: alb1=alb2=alb9 and art1=art2.
    assert_eq!(prev.num_identified_pairs(), 4);
}

#[test]
fn incremental_matches_full_on_generated_workload() {
    // A generated workload with planted duplicates, ingested in two halves:
    // chase the first half, then feed the remaining triples as one
    // insert-only batch and compare against the from-scratch result.
    let w = generate(
        &GenConfig::google()
            .with_scale(0.05)
            .with_keys(6)
            .with_seed(11),
    );
    let all: Vec<_> = w.graph.triples().collect();
    let half = all.len() / 2;

    // First half: copy triples [0, half) into a fresh builder carrying
    // every entity (ids stay aligned with the full graph).
    let mut b = GraphBuilder::new();
    for e in w.graph.entities() {
        let ty = b.intern_type(w.graph.type_str(w.graph.entity_type(e)));
        let fresh = b.fresh_entity(ty);
        assert_eq!(fresh, e);
    }
    for t in &all[..half] {
        let p = b.intern_pred(w.graph.pred_str(t.p));
        match t.o {
            Obj::Entity(o) => b.link_ids(t.s, p, o),
            Obj::Value(v) => {
                let nv = b.intern_value(w.graph.value_str(v));
                b.attr_ids(t.s, p, nv);
            }
        }
    }
    let g1 = b.freeze();
    let prev = chase_reference(&g1, &w.keys.compile(&g1), ChaseOrder::Deterministic).eq;

    // Second half arrives: extend and chase incrementally.
    let mut b2 = GraphBuilder::from_graph(&g1);
    let mut touched = Vec::new();
    for t in &all[half..] {
        let p = b2.intern_pred(w.graph.pred_str(t.p));
        match t.o {
            Obj::Entity(o) => {
                b2.link_ids(t.s, p, o);
                touched.push(o);
            }
            Obj::Value(v) => {
                let nv = b2.intern_value(w.graph.value_str(v));
                b2.attr_ids(t.s, p, nv);
            }
        }
        touched.push(t.s);
    }
    touched.sort_unstable();
    touched.dedup();
    let g2 = b2.freeze();
    let keys2 = w.keys.compile(&g2);
    let inc = chase_incremental(&g2, &keys2, &prev, &touched);
    let full = chase_reference(&g2, &keys2, ChaseOrder::Deterministic);
    assert_eq!(inc.identified_pairs(), full.identified_pairs());
    assert_eq!(
        inc.identified_pairs(),
        w.truth,
        "and both equal the planted truth"
    );
}

/// Streams `batches` of triple text into an overlay over `base`,
/// delta-chasing after each one, and requires the reference chase's
/// relation of the graph so far every time. Returns the final relation.
fn delta_tracks_reference(keys: &str, base: &str, batches: &[&str]) -> EqRel {
    let ks = KeySet::parse(keys).unwrap();
    let mut g = OverlayGraph::new(parse_graph(base).unwrap());
    let mut prev = chase_reference(&g, &ks.compile(&g), ChaseOrder::Deterministic).eq;
    for (i, batch) in batches.iter().enumerate() {
        let mut touched = Vec::new();
        for spec in parse_triple_specs(batch).unwrap() {
            let (s, o, _) = spec.apply_overlay(&mut g);
            touched.push(s);
            touched.extend(o);
        }
        let compiled = ks.compile(&g);
        let inc = chase_incremental(&g, &compiled, &prev, &touched);
        let full = chase_reference(&g, &compiled, ChaseOrder::Deterministic);
        assert_eq!(
            inc.identified_pairs(),
            full.identified_pairs(),
            "delta chase diverged from scratch chase after batch {i}"
        );
        prev = inc.eq;
    }
    prev
}

#[test]
fn recursive_block_mate_matches_only_after_a_later_batch() {
    // The artists are block-mates under Q3 from the start, but their pair
    // fails (and leaves the frontier) when batch 0 touches one of them: the
    // albums are not identified yet. Batch 1 identifies the albums; the
    // artists (lower ids) are swept before them and fail again, so only the
    // wake-up around the album merge brings the pair back.
    let eq = delta_tracks_reference(
        KEYS,
        r#"
        art1:artist name_of     "The Beatles"
        art2:artist name_of     "The Beatles"
        alb1:album  name_of     "Anthology 2"
        alb1:album  recorded_by art1:artist
        alb2:album  name_of     "Anthology 2"
        alb2:album  recorded_by art2:artist
        "#,
        &[
            r#"art1:artist born_in "Liverpool""#,
            r#"alb1:album release_year "1996"
               alb2:album release_year "1996""#,
        ],
    );
    assert_eq!(eq.num_identified_pairs(), 2, "albums, then artists");
}

#[test]
fn a_merge_wakes_pairs_near_every_member_of_the_classes_it_joins() {
    // a ~ a2 and b ~ b2 hold from the start. Naming a "B" certifies (a, b)
    // — and thereby identifies a2 with b2, which no step names. The people
    // work at a2 and b2, one hop from neither endpoint of the new step.
    let eq = delta_tracks_reference(
        r#"
        key "KO" org(x)    { x -name_of-> n*; }
        key "KP" person(x) { x -name_of-> n*; x -works_at-> y:org; }
        "#,
        r#"
        a:org      name_of  "A"
        a2:org     name_of  "A"
        b:org      name_of  "B"
        b2:org     name_of  "B"
        p1:person  name_of  "P"
        p1:person  works_at a2:org
        p2:person  name_of  "P"
        p2:person  works_at b2:org
        "#,
        &[r#"a:org name_of "B""#],
    );
    assert_eq!(eq.num_identified_pairs(), 6 + 1, "four orgs, two people");
}

#[test]
fn key_without_a_value_on_its_anchor_falls_back_to_the_type() {
    // KR has no blocking triple: any two artists may match, so the frontier
    // pairs an artist with its whole type (seed) or with every artist near
    // the merge (wake).
    let eq = delta_tracks_reference(
        r#"
        key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
        key "KR" artist(x) { a:album -recorded_by-> x; }
        "#,
        r#"
        art1:artist born_in     "Liverpool"
        art2:artist born_in     "Hamburg"
        alb1:album  name_of     "Anthology 2"
        alb1:album  recorded_by art1:artist
        alb2:album  name_of     "Anthology 2"
        alb2:album  recorded_by art2:artist
        alb3:album  name_of     "Abbey Road"
        alb3:album  release_year "1969"
        "#,
        &[
            // Wake side: the artists (lower ids) are swept, and fail, before
            // the album merge that identifies them.
            r#"alb1:album release_year "1996"
               alb2:album release_year "1996""#,
            // Seed side: a new artist recorded by an identified album joins.
            r#"alb2:album recorded_by art9:artist"#,
            // And one that is not stays apart.
            r#"alb3:album recorded_by art7:artist"#,
        ],
    );
    assert_eq!(
        eq.num_identified_pairs(),
        1 + 3,
        "albums; art1 = art2 = art9"
    );
}

#[test]
fn constant_slot_blocks_on_the_constant_only() {
    // KC's first anchor triple carries a constant: the block is the
    // subjects of (format, "LP"), and other formats do not pair.
    let eq = delta_tracks_reference(
        r#"key "KC" album(x) { x -format-> "LP"; x -name_of-> n*; }"#,
        r#"
        alb1:album name_of "Anthology 2"
        alb1:album format  "LP"
        alb2:album name_of "Anthology 2"
        alb2:album format  "CD"
        alb3:album name_of "Anthology 2"
        alb3:album format  "CD"
        "#,
        &[r#"alb2:album format "LP""#],
    );
    assert_eq!(eq.num_identified_pairs(), 1, "the two LPs only");
}

#[test]
fn second_value_on_the_blocking_predicate_joins_both_blocks() {
    // alb2 gains a second name (and a second year): it now sits in the "A"
    // block and the "B" block, and matches a mate in each.
    let eq = delta_tracks_reference(
        r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#,
        r#"
        alb1:album name_of "A"
        alb1:album release_year "1996"
        alb2:album name_of "B"
        alb2:album release_year "1996"
        alb3:album name_of "B"
        alb3:album release_year "1997"
        "#,
        &[r#"alb2:album name_of "A"
             alb2:album release_year "1997""#],
    );
    assert_eq!(eq.num_identified_pairs(), 3, "alb1 = alb2 = alb3");
}

#[test]
fn deletion_is_not_monotone_so_stale_eq_overapproximates() {
    // Remove the witness of an applied key: the stale Eq still contains the
    // merge, while the re-chased graph does not — the non-monotone case the
    // incremental path must NOT be used for.
    let g = parse_graph(
        r#"
        a1:album name_of "X"
        a1:album release_year "2000"
        a2:album name_of "X"
        a2:album release_year "2000"
        "#,
    )
    .unwrap();
    let ks = KeySet::parse(KEYS).unwrap();
    let before = chase_reference(&g, &ks.compile(&g), ChaseOrder::Deterministic);
    assert_eq!(before.eq.num_identified_pairs(), 1);

    // Drop a2's release year (rebuild without that triple).
    let mut b = GraphBuilder::new();
    for e in g.entities() {
        let ty = b.intern_type(g.type_str(g.entity_type(e)));
        let fresh = b.fresh_entity(ty);
        assert_eq!(fresh, e);
        b.set_entity_name(fresh, &g.entity_label(e));
    }
    let a2 = g.entity_named("a2").unwrap();
    let year = g.pred("release_year").unwrap();
    for t in g.triples() {
        if t.s == a2 && t.p == year {
            continue;
        }
        let p = b.intern_pred(g.pred_str(t.p));
        match t.o {
            Obj::Entity(o) => b.link_ids(t.s, p, o),
            Obj::Value(v) => {
                let nv = b.intern_value(g.value_str(v));
                b.attr_ids(t.s, p, nv);
            }
        }
    }
    let g2 = b.freeze();
    let keys2 = ks.compile(&g2);

    let full = chase_reference(&g2, &keys2, ChaseOrder::Deterministic);
    assert!(full.identified_pairs().is_empty(), "the witness is gone");
    assert!(
        before.eq.num_identified_pairs() > full.eq.num_identified_pairs(),
        "stale Eq over-approximates after deletion — the full re-chase is required"
    );
}

#[test]
fn server_delete_path_catches_the_non_monotone_case() {
    // The same scenario through the serving layer: DELETE must retract the
    // merge through the re-chase that replaces the log, and STATS must
    // attribute it to that path.
    let g = parse_graph(
        r#"
        a1:album name_of "X"
        a1:album release_year "2000"
        a2:album name_of "X"
        a2:album release_year "2000"
        "#,
    )
    .unwrap();
    let server = Server::new(g, KeySet::parse(KEYS).unwrap());
    assert!(server.handle("SAME a1 a2").starts_with("YES"));

    let r = server.handle(r#"DELETE a2:album release_year "2000""#);
    assert!(r.starts_with("OK mode=full-rechase"), "{r}");
    assert!(
        server.handle("SAME a1 a2").starts_with("NO"),
        "merge retracted"
    );
    let stats = server.handle("STATS");
    assert!(stats.contains("full_rechases=1"), "{stats}");
    assert!(stats.contains("incremental_advances=0"), "{stats}");
}
