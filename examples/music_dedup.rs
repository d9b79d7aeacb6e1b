//! Knowledge fusion in a music catalogue — the paper's running example
//! (Example 1/7): albums and artists are **mutually recursive**: an album
//! is identified by its name plus its primary artist, while an artist is
//! identified by name plus one recorded album. Value-based key Q2 breaks
//! the cycle, and identifications then cascade through the recursion.
//!
//! ```text
//! cargo run --example music_dedup
//! ```

use keys_for_graphs::prelude::*;

fn main() {
    // Fig. 2's G1, extended: two feeds ingested the same discography.
    let g = parse_graph(
        r#"
        # feed A
        alb1:album  name_of       "Anthology 2"
        alb1:album  release_year  "1996"
        alb1:album  recorded_by   art1:artist
        art1:artist name_of       "The Beatles"
        alb4:album  name_of       "Let It Be"
        alb4:album  recorded_by   art1:artist

        # feed B (same real-world entities, fresh ids)
        alb2:album  name_of       "Anthology 2"
        alb2:album  release_year  "1996"
        alb2:album  recorded_by   art2:artist
        art2:artist name_of       "The Beatles"
        alb5:album  name_of       "Let It Be"
        alb5:album  recorded_by   art2:artist

        # a genuinely different artist with a same-named album
        alb3:album  name_of       "Anthology 2"
        alb3:album  recorded_by   art3:artist
        art3:artist name_of       "John Farnham"
        "#,
    )
    .expect("valid graph");

    // Σ1 = {Q1, Q2, Q3} from Fig. 1. Q1 and Q3 are mutually recursive.
    let keys = KeySet::parse(
        r#"
        // An album is identified by its name and its primary artist.
        key "Q1" album(x) {
            x -name_of-> n*;
            x -recorded_by-> a:artist;
        }
        // ... or by its name and year of initial release.
        key "Q2" album(x) {
            x -name_of-> n*;
            x -release_year-> y*;
        }
        // An artist is identified by name and one recorded album.
        key "Q3" artist(x) {
            x -name_of-> n*;
            a:album -recorded_by-> x;
        }
        "#,
    )
    .expect("valid keys");
    println!(
        "Σ: {} keys, |Σ| = {}, {} recursive, longest dependency chain c = {}",
        keys.cardinality(),
        keys.total_size(),
        keys.recursive_count(),
        keys.longest_chain(),
    );

    let compiled = keys.compile(&g);

    // The sequential chase shows the cascade order.
    let chase = chase_reference(&g, &compiled, ChaseOrder::Deterministic);
    println!("\nchase steps ({} rounds):", chase.rounds);
    for s in &chase.steps {
        println!(
            "  {} <=> {}   (by {})",
            g.entity_label(s.pair.0),
            g.entity_label(s.pair.1),
            compiled
                .get(s.key)
                .expect("the chase cites compiled keys")
                .name,
        );
    }

    // The parallel algorithms agree.
    let mr = em_mr(&g, &compiled, 2, MrVariant::Opt);
    let vc = em_vc(&g, &compiled, 2, VcVariant::Opt { k: 4 });
    assert_eq!(mr.identified_pairs(), chase.identified_pairs());
    assert_eq!(vc.identified_pairs(), chase.identified_pairs());
    println!("\n{}", mr.report);
    println!("{}", vc.report);

    println!("\nfused catalogue:");
    for class in chase.eq.classes() {
        let names: Vec<String> = class.iter().map(|&e| g.entity_label(e)).collect();
        println!("  {}", names.join(" = "));
    }
    // John Farnham's "Anthology 2" must NOT be merged.
    let art3 = g.entity_named("art3").unwrap();
    assert!(chase.eq.classes().iter().all(|c| !c.contains(&art3)));
    println!("\nart3 (John Farnham) correctly kept distinct");
}
