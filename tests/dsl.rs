//! The key DSL parser returns `Ok` or `Err` on any text, never panics:
//! recovery feeds it the Σ text of a snapshot and of every persisted
//! `ADDKEY` record. Arbitrary strings, truncations and byte mutations of
//! the paper's six keys all go through both the parser and the key-set
//! constructor, and whatever parses must survive the `write_keys` round
//! trip a snapshot puts it through.

use keys_for_graphs::core::{parse_keys, write_keys, KeySet};
use proptest::prelude::*;

/// The paper's keys Q1–Q6 (Examples 1–7), in the DSL.
const PAPER_KEYS: &str = r#"
    // Q1: album identified by name and primary artist.
    key "Q1" album(x) {
        x -name_of-> n*;
        x -recorded_by-> a:artist;
    }

    # Q2: album identified by name and release year.
    key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }

    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }

    key "Q4" company(x) {
        x -name_of-> n*;
        ~p:company -name_of-> n*;
        ~p:company -parent_of-> x;
        q:company -parent_of-> x;
    }

    key "Q5" company(x) {
        x -name_of-> n*;
        ~p:company -name_of-> n*;
        ~p:company -parent_of-> x;
        ~p:company -parent_of-> d:company;
    }

    key "Q6" street(x) { x -zip_code-> z*; x -nation_of-> "UK"; }
"#;

/// Parses `text` both ways; what parses must re-parse from its rendering
/// to the same keys.
fn parse_all_ways(text: &str) {
    let parsed = parse_keys(text);
    let _ = KeySet::parse(text);
    if let Ok(keys) = parsed {
        let written = write_keys(&keys);
        assert_eq!(
            parse_keys(&written).as_ref(),
            Ok(&keys),
            "{text:?} renders as {written:?}"
        );
    }
}

#[test]
fn the_paper_keys_parse() {
    assert_eq!(KeySet::parse(PAPER_KEYS).unwrap().cardinality(), 6);
}

#[test]
fn control_characters_in_names_and_constants_round_trip() {
    // `write_keys` escapes them as Rust's string `Debug` does (`\r`,
    // `\u{8}`); a snapshot of such a Σ must still load.
    parse_all_ways("key \"K\r\u{1}\" t(x) { x -p-> \"\u{8}\0\t\"; }");
    parse_all_ways("key \"K\" t(x) { x -p-> \"\u{7f}\"; }");
    assert!(parse_keys(r#"key t(x) { x -p-> "\u{110000}"; }"#).is_err());
    assert!(parse_keys(r#"key t(x) { x -p-> "\u{1234567}"; }"#).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_keys_returns_on_any_text(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        cut in 0usize..1000,
        at in 0usize..1000,
        byte in any::<u8>(),
    ) {
        let paper = PAPER_KEYS.as_bytes();
        let at = paper.len() * at / 1000;
        let mut flipped = paper.to_vec();
        flipped[at] = byte;
        let mut spliced = paper[..at].to_vec();
        spliced.extend_from_slice(&noise);
        spliced.extend_from_slice(&paper[at..]);
        let mut removed = paper.to_vec();
        removed.remove(at);
        let truncated = &paper[..paper.len() * cut / 1000];
        for bytes in [&noise[..], truncated, &flipped, &spliced, &removed] {
            parse_all_ways(&String::from_utf8_lossy(bytes));
        }
    }
}
