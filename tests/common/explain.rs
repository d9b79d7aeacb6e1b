//! Cross-front `EXPLAIN` comparison, shared by `tests/recovery.rs` and
//! `crates/cluster/tests/cluster.rs` (which includes this file by `#[path]`).
//!
//! A proof is sliced out of the answering process's own step log, so two
//! fronts holding the same relation — a shard and a standalone server, a
//! server before and after a restart — may cite different steps, each a
//! valid proof. What they must agree on is *whether* the pair is provable;
//! the steps only have to check out against one shared copy of the graph.

use gk_core::proof::replay;
use gk_core::{norm, ChaseStep};
use gk_graph::GraphView;
use gk_server::{IndexState, ProofLine, Response};

/// Asserts that two fronts' answers to one `EXPLAIN` agree: the same
/// `PROOF` / `NOPROOF` head and target, and every line of either proof
/// re-derivable, in order, on the `standalone` state ([`replay`] finds each
/// line a witness under the lines before it, then verifies the whole
/// against the target).
pub fn assert_explanations_agree(standalone: &IndexState, want: &str, got: &str) {
    let parse = |text: &str| {
        Response::parse(text).unwrap_or_else(|e| panic!("unparseable answer {text:?}: {e}"))
    };
    match (parse(want), parse(got)) {
        (
            Response::Proof {
                a,
                b,
                steps: wanted,
            },
            Response::Proof {
                a: a2,
                b: b2,
                steps: given,
            },
        ) => {
            assert_eq!((&a, &b), (&a2, &b2), "proof targets differ");
            let entity = |name: &str| {
                standalone
                    .graph
                    .entity_named(name)
                    .unwrap_or_else(|| panic!("proof names unknown entity {name:?}"))
            };
            let line = |l: &ProofLine| ChaseStep {
                pair: norm(entity(&l.a), entity(&l.b)),
                key: standalone
                    .compiled
                    .keys
                    .iter()
                    .position(|k| k.name == l.key)
                    .unwrap_or_else(|| panic!("proof cites unknown key {:?}", l.key)),
            };
            for steps in [wanted, given] {
                let lines: Vec<ChaseStep> = steps.iter().map(line).collect();
                replay(
                    &standalone.graph,
                    &standalone.compiled,
                    &lines,
                    (entity(&a), entity(&b)),
                )
                .unwrap_or_else(|e| {
                    panic!("proof of {a} <=> {b} does not replay: {e}\n{steps:#?}")
                });
            }
        }
        (want, got) => assert_eq!(want, got, "EXPLAIN heads differ"),
    }
}
