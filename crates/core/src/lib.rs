//! # gk-core — Keys for Graphs
//!
//! A faithful implementation of *Keys for Graphs* (Fan, Fan, Tian & Dong,
//! PVLDB 8(12), 2015): keys defined as graph patterns `Q(x)`, possibly
//! **recursively**, interpreted via subgraph isomorphism; and the **entity
//! matching** problem — computing `chase(G, Σ)`, all entity pairs the keys
//! identify.
//!
//! * Define keys with the fluent [`Key::builder`] API or the textual DSL
//!   ([`parse_keys`]) that mirrors the paper's figures;
//! * analyse key sets ([`KeySet`]): size `|Σ|`, radius `d`, dependency
//!   chains `c`, mutual recursion;
//! * run entity matching with the sequential reference chase
//!   ([`chase_reference`]), the MapReduce algorithms (`EM_MR` family), or
//!   the asynchronous vertex-centric algorithms (`EM_VC` family);
//! * check key satisfaction `G |= Q(x)` and find duplicates
//!   ([`key_violations`], [`set_violations`]).
//!
//! ```
//! use gk_core::{KeySet, chase_reference, ChaseOrder};
//! use gk_graph::parse_graph;
//!
//! let g = parse_graph(r#"
//!     alb1:album name_of "Anthology 2"
//!     alb1:album release_year "1996"
//!     alb2:album name_of "Anthology 2"
//!     alb2:album release_year "1996"
//! "#).unwrap();
//! let keys = KeySet::parse(
//!     r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#,
//! ).unwrap();
//! let result = chase_reference(&g, &keys.compile(&g), ChaseOrder::default());
//! assert_eq!(result.identified_pairs().len(), 1);
//! ```

#![warn(missing_docs)]

mod analyze;
mod candidates;
mod chase;
mod discovery;
mod distributed;
mod dsl;
mod em_mr;
mod em_vc;
mod engine;
mod eqrel;
mod incremental;
mod kernel;
mod keyset;
mod metrics;
mod parallel;
mod pattern;
mod prep;
mod product;
pub mod proof;
mod report;
mod satisfies;
mod similarity;
mod tour;

pub use analyze::{analyze_entity, EntityAnalysis};
pub use candidates::{
    candidate_pairs, candidate_pairs_pruned, norm, pairing_filter, pairing_filter_timed,
    type_pair_count, CandidateMode, PairedCandidate,
};
pub use chase::{chase_reference, chase_reference_traced, ChaseOrder, ChaseResult, ChaseStep};
pub use discovery::{discover_value_keys, DiscoveredKey, DiscoveryConfig};
pub use distributed::{chase_shard_slice, ShardRole};
pub use dsl::{parse_keys, write_keys, DslError};
pub use em_mr::{em_mr, em_mr_sim, MatchOutcome, MrVariant};
pub use em_vc::{em_vc, em_vc_sim, VcVariant};
pub use engine::{AdvanceMode, ChaseEngine, ChaseStart};
pub use eqrel::EqRel;
pub use incremental::chase_incremental;
pub use keyset::{CompiledKey, CompiledKeySet, KeySet};
pub use metrics::ChaseMetrics;
pub use parallel::{chase_parallel, ParallelOpts};
pub use pattern::{Key, KeyBuilder, KeyError, KeyTriple, Term};
pub use prep::{prepare_base, prepare_opt, BasePrep, NeighborhoodCache, OptPrep};
pub use product::ProductGraph;
pub use proof::{prove, verify, Proof, ProofError, ProofStep};
pub use report::RunReport;
pub use satisfies::{key_violations, satisfies, set_violations, Violation};
pub use similarity::{
    normalize_graph, normalize_keys, AlphaNum, CaseFold, CustomNormalizer, Normalizer,
};
pub use tour::{Tour, TourStep};
