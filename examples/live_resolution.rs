//! Live entity resolution: a resident server, queried and fed in-process
//! through the **typed** API (`Server::execute` with `Request`/`Response`
//! values — no string surgery).
//!
//! Models a music catalog that starts with one known duplicate pair and
//! receives streaming updates: a re-issued album arrives triple by triple,
//! and the moment its identifying attributes (Q2: name + release year) are
//! complete, the server merges it — and the recursive artist key (Q3)
//! cascades the merge to its artist. At the end, Σ itself evolves at
//! runtime: a discovered name-only artist key is installed with `AddKey`
//! and the closure grows without a restart. Every step prints the typed
//! request in its canonical wire form and the server's typed response, so
//! running this example shows the full query → ingest → advance → re-key
//! loop without any sockets.
//!
//! Run with: `cargo run --example live_resolution`

use keys_for_graphs::prelude::*;

/// Executes one typed request and prints the canonical request line plus
/// the rendered response — exactly what a TCP session would show.
fn ask(server: &Server, req: Request) {
    println!("> {}", req.render());
    for l in server.execute(req).render().lines() {
        println!("  {l}");
    }
}

fn same(a: &str, b: &str) -> Request {
    Request::Same {
        a: a.into(),
        b: b.into(),
    }
}

fn main() {
    let graph = parse_graph(
        r#"
        # The catalog at startup: alb1/alb2 are the same album under
        # different ids; alb3 is (so far) an unrelated release.
        alb1:album  name_of       "Anthology 2"
        alb1:album  release_year  "1996"
        alb1:album  recorded_by   art1:artist
        art1:artist name_of       "The Beatles"
        alb2:album  name_of       "Anthology 2"
        alb2:album  release_year  "1996"
        alb2:album  recorded_by   art2:artist
        art2:artist name_of       "The Beatles"
        alb3:album  name_of       "Anthology 2"
        alb3:album  recorded_by   art3:artist
        art3:artist name_of       "The Beatles"
        "#,
    )
    .expect("catalog parses");

    let keys = parse_keys(
        r#"
        key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
        key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
        "#,
    )
    .expect("keys parse");

    println!("== startup: chase(G, Σ) runs once, then stays resident ==");
    let server = Server::new(graph, KeySet::new(keys).expect("valid key set"));
    ask(&server, Request::Stats);

    println!("\n== the planted duplicate is already resolved ==");
    ask(&server, same("alb1", "alb2"));
    ask(
        &server,
        Request::Dups {
            entity: "art1".into(),
        },
    );
    ask(
        &server,
        Request::Explain {
            a: "art1".into(),
            b: "art2".into(),
        },
    );

    println!("\n== alb3 lacks a release year: Q2 cannot fire yet ==");
    ask(&server, same("alb1", "alb3"));

    println!("\n== a streamed insert completes alb3's key — watch the cascade ==");
    ask(
        &server,
        Request::Insert {
            batch: r#"alb3:album release_year "1996""#.into(),
        },
    );
    ask(&server, same("alb1", "alb3"));
    ask(
        &server,
        Request::Explain {
            a: "art1".into(),
            b: "art3".into(),
        },
    );

    println!("\n== new entities are first-class: a fourth copy arrives whole ==");
    ask(
        &server,
        Request::Insert {
            batch: r#"alb4:album name_of "Anthology 2" ; alb4:album release_year "1996" ; alb4:album recorded_by art4:artist ; art4:artist name_of "The Beatles""#.into(),
        },
    );
    ask(
        &server,
        Request::Dups {
            entity: "alb1".into(),
        },
    );
    ask(
        &server,
        Request::Rep {
            entity: "alb4".into(),
        },
    );

    println!("\n== deletion is non-monotone: the server re-chases inside the old classes ==");
    ask(
        &server,
        Request::Delete {
            batch: r#"alb4:album release_year "1996""#.into(),
        },
    );
    ask(&server, same("alb1", "alb4"));

    println!("\n== Σ is live too: install a discovered key without a restart ==");
    ask(&server, Request::Keys);
    ask(
        &server,
        Request::AddKey {
            dsl: r#"key "AN" artist(x) { x -name_of-> n*; }"#.into(),
        },
    );
    // art4's album split off again, but the new name-only key holds the
    // artist cluster together regardless.
    ask(&server, same("art1", "art4"));
    ask(&server, Request::Stats);

    // The typed response is data, not text: branch on it directly.
    match server.execute(same("art1", "art4")) {
        Response::Same { rep, .. } => {
            println!("\ntyped answer: art1 and art4 share canonical rep {rep}");
        }
        Response::NotSame { .. } => println!("\ntyped answer: distinct artists"),
        other => println!("\nunexpected: {}", other.render()),
    }
}
