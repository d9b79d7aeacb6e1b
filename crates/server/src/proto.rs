//! The typed request/response surface of the protocol.
//!
//! [`Request`] and [`Response`] are the primary API: every verb the
//! server understands is a `Request` variant, every answer it can give is
//! a `Response` variant, and the textual line protocol is nothing but
//! [`Request::parse`] → [`Server::execute`](crate::Server::execute) →
//! [`Response::render`]. Both directions are **lossless**:
//!
//! * `Request::parse(req.render()) == Ok(req)` for every `Request`;
//! * `Response::parse(resp.render()) == Ok(resp)` for every `Response`;
//!
//! so a typed client ([`gk-client`](https://docs.rs) or any embedder) can
//! round-trip values over the wire without string surgery, while scripted
//! sessions and golden transcripts keep their exact byte-level shape.
//!
//! Each verb is one row of [`VERBS`]: its name, argument grammar, usage
//! signature, `HELP` line and [`Class`]. Malformed requests fail to parse
//! with a [`RequestError`] whose display form is the protocol's `ERR …`
//! payload — arity mistakes and trailing tokens all answer a uniform
//! `ERR usage: <verb signature>` line taken from the verb's row.

use crate::index::{AdvanceMode, AdvanceReport, KeyChange};
use gk_metrics::{MetricSnapshot, TraceNode};
use std::fmt::Write as _;
use Class::{Admin, Internal, Lookup, Mutation, Read, Trace};
use Grammar::{Bare, Cursor, CursorMerges, Name, OptCount, Pair, Text, Wrapped};

/// One request, as understood by [`crate::Server::execute`].
///
/// String payloads hold exactly what travels on the wire: entity *names*
/// (not ids — the server resolves them against its current snapshot),
/// triple batches in the `;`-separated text form, and key DSL text.
/// `Hash` lets a request serve as part of an answer-cache key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Request {
    /// `SAME` — are the two entities identified?
    Same {
        /// First entity name.
        a: String,
        /// Second entity name.
        b: String,
    },
    /// `DUPS` — the duplicate cluster of an entity.
    Dups {
        /// Entity name.
        entity: String,
    },
    /// `REP` — the canonical representative of an entity.
    Rep {
        /// Entity name.
        entity: String,
    },
    /// `EXPLAIN` — a verified key-application proof.
    Explain {
        /// First entity name.
        a: String,
        /// Second entity name.
        b: String,
    },
    /// `INSERT` — insert triples (`;` separates several).
    Insert {
        /// The raw batch text after the verb.
        batch: String,
    },
    /// `DELETE` — delete triples (`;` separates several).
    Delete {
        /// The raw batch text after the verb.
        batch: String,
    },
    /// `ADDKEY` — install one key into the live Σ.
    AddKey {
        /// The key definition in the DSL (one `key … { … }` block).
        dsl: String,
    },
    /// `DROPKEY` — remove a key from the live Σ by name.
    DropKey {
        /// The declared key name.
        name: String,
    },
    /// `KEYS` — list the declared keys and the key epoch.
    Keys,
    /// `SNAPSHOT` — persist a point-in-time snapshot.
    Snapshot,
    /// `COMPACT` — snapshot + truncate the WAL + fold the delta overlay.
    Compact,
    /// `STATS` — index and traffic counters.
    Stats,
    /// `METRICS` — the full metrics exposition.
    Metrics,
    /// `TRACE` — execute the wrapped request with per-request
    /// span tracing on, answering its result plus the recorded span tree.
    Trace {
        /// The wrapped request (itself neither `TRACE` nor `TRACES`).
        inner: Box<Request>,
    },
    /// `TRACES` — dump the flight recorder's retained traces.
    Traces {
        /// Max traces returned; `None` means the recorder's capacity.
        n: Option<usize>,
    },
    /// `SHARDCHASE` — (cluster-internal) chase this shard's slice to a
    /// local fixpoint and answer the merge log from `cursor`.
    ShardChase {
        /// First step-log position the caller has not yet seen.
        cursor: u64,
    },
    /// `MERGES` — (cluster-internal) absorb external merges from other
    /// shards, re-chase the slice, and answer the merge log from `cursor`.
    Merges {
        /// First step-log position the caller has not yet seen.
        cursor: u64,
        /// The external identifications to absorb, in coordinator order.
        merges: Vec<MergeEntry>,
    },
    /// `PING` — liveness check.
    Ping,
    /// `HELP` — the usage table.
    Help,
}

/// What a verb does, as far as the code around the protocol must know. The
/// answer cache and `TRACE`'s `lookup`/`analyze` phases read
/// [`Class::Lookup`]; the cluster router routes on every class; the
/// client's retry rule reads [`Request::is_update`], which the class
/// decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Entity queries answered from the relation alone (`SAME`, `DUPS`,
    /// `REP`): cacheable, and traced as a `lookup` plus an `analyze` phase.
    Lookup,
    /// Every other read-only verb.
    Read,
    /// Triple and key updates; the cluster router broadcasts them.
    Mutation,
    /// Persistence verbs each cluster shard runs on its own data dir.
    Admin,
    /// The cluster exchange verbs; the router refuses them.
    Internal,
    /// The tracing verbs, which `TRACE` cannot wrap.
    Trace,
}

/// How a verb's arguments are read off the request line, and the
/// [`Request`] they build.
enum Grammar {
    /// No arguments.
    Bare(Request),
    /// One entity name.
    Name(fn(String) -> Request),
    /// Two entity names.
    Pair(fn(String, String) -> Request),
    /// The rest of the line, verbatim and non-empty.
    Text(fn(String) -> Request),
    /// An optional count (`TRACES`).
    OptCount,
    /// A step-log cursor (`SHARDCHASE`).
    Cursor,
    /// A cursor, then a `;`-separated merge list (`MERGES`).
    CursorMerges,
    /// A whole request, itself not of [`Class::Trace`] (`TRACE`).
    Wrapped,
}

/// One verb of the protocol: a row of [`VERBS`].
pub struct Verb {
    /// Lowercase name; also the per-verb metric namespace
    /// (`gk_requests_<name>_total`, `gk_request_micros_<name>`).
    pub name: &'static str,
    /// The signature a malformed request is answered with
    /// (`ERR usage: <usage>`).
    pub usage: &'static str,
    /// The verb's line in `HELP`; empty for `HELP` itself.
    help: &'static str,
    grammar: Grammar,
    /// What the verb does.
    pub class: Class,
}

const fn verb(
    name: &'static str,
    class: Class,
    grammar: Grammar,
    usage: &'static str,
    help: &'static str,
) -> Verb {
    Verb {
        name,
        usage,
        help,
        grammar,
        class,
    }
}

/// The protocol: one row per verb, in `HELP` order. [`Request::parse`],
/// `ERR usage:`, `HELP`, the verb names and metric slots, cacheability,
/// `TRACE`'s phases, cluster routing and client retry all read it.
#[rustfmt::skip]
pub static VERBS: [Verb; 19] = [
    verb("same",       Lookup,   Pair(|a, b| Request::Same { a, b }),          "SAME <a> <b>",                               "SAME <a> <b>          are <a> and <b> identified?"),
    verb("dups",       Lookup,   Name(|entity| Request::Dups { entity }),      "DUPS <e>",                                   "DUPS <e>              duplicates of <e>"),
    verb("rep",        Lookup,   Name(|entity| Request::Rep { entity }),       "REP <e>",                                    "REP <e>               canonical representative of <e>"),
    verb("explain",    Read,     Pair(|a, b| Request::Explain { a, b }),       "EXPLAIN <a> <b>",                            "EXPLAIN <a> <b>       verified key-application proof for <a> <=> <b>"),
    verb("insert",     Mutation, Text(|batch| Request::Insert { batch }),      "INSERT <s:T> <p> <o> [; <s:T> <p> <o> ...]", "INSERT <s:T> <p> <o>  insert triple(s); separate several with ';'"),
    verb("delete",     Mutation, Text(|batch| Request::Delete { batch }),      "DELETE <s:T> <p> <o> [; <s:T> <p> <o> ...]", "DELETE <s:T> <p> <o>  delete triple(s); ';' separates; one re-chase per batch, bounded by the old classes"),
    verb("addkey",     Mutation, Text(|dsl| Request::AddKey { dsl }),          "ADDKEY key \"<name>\" <type>(x) { ... }",    "ADDKEY key \"N\" T(x) { ... }  install a key into the live Σ (monotone delta chase)"),
    verb("dropkey",    Mutation, Text(|name| Request::DropKey { name }),       "DROPKEY <name>",                             "DROPKEY <name>        remove a key from the live Σ (one re-chase, bounded by the old classes)"),
    verb("keys",       Read,     Bare(Request::Keys),                          "KEYS",                                       "KEYS                  list the declared keys and the key epoch"),
    verb("snapshot",   Admin,    Bare(Request::Snapshot),                      "SNAPSHOT",                                   "SNAPSHOT              persist a point-in-time snapshot (needs --data-dir)"),
    verb("compact",    Admin,    Bare(Request::Compact),                       "COMPACT",                                    "COMPACT               snapshot + fold the delta overlay, truncate the WAL, prune old snapshots"),
    verb("shardchase", Internal, Cursor,                                       "SHARDCHASE <cursor>",                        "SHARDCHASE <cursor>   (cluster-internal) chase the owned slice; answer the merge log from <cursor>"),
    verb("merges",     Internal, CursorMerges,                                 "MERGES <cursor> [<a> <b> \"<key>\" ; ...]",  "MERGES <cursor> [<a> <b> \"<key>\" ; ...]  (cluster-internal) absorb external merges, then as SHARDCHASE"),
    verb("stats",      Read,     Bare(Request::Stats),                         "STATS",                                      "STATS                 index + traffic counters"),
    verb("metrics",    Read,     Bare(Request::Metrics),                       "METRICS",                                    "METRICS               full metrics exposition (counters, gauges, latency histograms)"),
    verb("trace",      Trace,    Wrapped,                                      "TRACE <verb ...>",                           "TRACE <verb ...>      execute <verb> with span tracing; answers the span tree + the answer"),
    verb("traces",     Trace,    OptCount,                                     "TRACES [n]",                                 "TRACES [n]            dump the flight recorder's retained request traces (newest first)"),
    verb("ping",       Read,     Bare(Request::Ping),                          "PING",                                       "PING                  liveness check"),
    verb("help",       Read,     Bare(Request::Help),                          "HELP",                                       ""),
];

impl Verb {
    /// True for the verbs that change the index: the mutations, and
    /// `MERGES`, the one cluster-internal verb that carries merges to
    /// absorb.
    fn is_update(&self) -> bool {
        self.class == Mutation || matches!(self.grammar, CursorMerges)
    }

    /// Reads the arguments after the verb word (`rest` is trimmed).
    fn parse_args(&self, rest: &str) -> Result<Request, RequestError> {
        let usage = RequestError::Usage(self.usage);
        // Three words are enough to tell every fixed arity from one more.
        let mut buf = [""; 3];
        let mut len = 0;
        for (slot, word) in buf.iter_mut().zip(rest.split_whitespace()) {
            *slot = word;
            len += 1;
        }
        match (&self.grammar, &buf[..len]) {
            (Bare(req), []) => Ok(req.clone()),
            (Name(make), [e]) => Ok(make(e.to_string())),
            (Pair(make), [a, b]) => Ok(make(a.to_string(), b.to_string())),
            (Text(make), [_, ..]) => Ok(make(rest.to_string())),
            (OptCount, []) => Ok(Request::Traces { n: None }),
            (OptCount, [n]) => n
                .parse()
                .map(|n| Request::Traces { n: Some(n) })
                .map_err(|_| usage),
            (Cursor, [c]) => c
                .parse()
                .map(|cursor| Request::ShardChase { cursor })
                .map_err(|_| usage),
            (CursorMerges, [c, ..]) => {
                let entries = rest.split_once(char::is_whitespace).map_or("", |(_, r)| r);
                match (c.parse(), parse_merge_entries(entries)) {
                    (Ok(cursor), Some(merges)) => Ok(Request::Merges { cursor, merges }),
                    _ => Err(usage),
                }
            }
            (Wrapped, _) => match Request::parse(rest) {
                Ok(inner) if inner.class() != Trace => Ok(Request::Trace {
                    inner: Box::new(inner),
                }),
                // An empty or nested wrap is a TRACE arity mistake; a
                // malformed inner verb keeps its own diagnosis.
                Ok(_) | Err(RequestError::Empty) => Err(usage),
                Err(e) => Err(e),
            },
            _ => Err(usage),
        }
    }
}

/// The `HELP` answer: a header, then one line per listed verb.
pub(crate) fn help_text() -> String {
    let mut out = String::from("commands:");
    for v in VERBS.iter().filter(|v| !v.help.is_empty()) {
        out.push_str("\n  ");
        out.push_str(v.help);
    }
    out
}

/// Why a request line failed to parse. `Display` renders the exact `ERR`
/// payload the protocol answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The line was empty.
    Empty,
    /// The verb is not part of the protocol.
    UnknownVerb(String),
    /// Wrong arity or trailing tokens; carries the verb's usage signature.
    Usage(&'static str),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Empty => write!(f, "empty request (try HELP)"),
            RequestError::UnknownVerb(v) => write!(f, "unknown verb {v:?} (try HELP)"),
            RequestError::Usage(u) => write!(f, "usage: {u}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl Request {
    /// Parses one request line. Verbs are case-insensitive; arguments are
    /// taken verbatim. Arity mistakes — missing arguments, extra tokens,
    /// trailing garbage on a zero-argument verb — uniformly fail with
    /// [`RequestError::Usage`].
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let line = line.trim();
        if line.is_empty() {
            return Err(RequestError::Empty);
        }
        let (word, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match VERBS.iter().find(|v| v.name.eq_ignore_ascii_case(word)) {
            Some(verb) => verb.parse_args(rest),
            None => Err(RequestError::UnknownVerb(word.to_ascii_uppercase())),
        }
    }

    /// Renders the canonical request line (no trailing newline). For every
    /// value, `Request::parse(req.render()) == Ok(req)` — provided string
    /// payloads carry no embedded newline and names no whitespace, which
    /// the wire format cannot express in the first place.
    pub fn render(&self) -> String {
        match self {
            Request::Same { a, b } => format!("SAME {a} {b}"),
            Request::Dups { entity } => format!("DUPS {entity}"),
            Request::Rep { entity } => format!("REP {entity}"),
            Request::Explain { a, b } => format!("EXPLAIN {a} {b}"),
            Request::Insert { batch } => format!("INSERT {batch}"),
            Request::Delete { batch } => format!("DELETE {batch}"),
            Request::AddKey { dsl } => format!("ADDKEY {dsl}"),
            Request::DropKey { name } => format!("DROPKEY {name}"),
            Request::Keys => "KEYS".into(),
            Request::Snapshot => "SNAPSHOT".into(),
            Request::Compact => "COMPACT".into(),
            Request::Stats => "STATS".into(),
            Request::Metrics => "METRICS".into(),
            Request::Trace { inner } => format!("TRACE {}", inner.render()),
            Request::Traces { n: None } => "TRACES".into(),
            Request::Traces { n: Some(n) } => format!("TRACES {n}"),
            Request::ShardChase { cursor } => format!("SHARDCHASE {cursor}"),
            Request::Merges { cursor, merges } if merges.is_empty() => {
                format!("MERGES {cursor}")
            }
            Request::Merges { cursor, merges } => {
                format!("MERGES {cursor} {}", render_merge_entries(merges))
            }
            Request::Ping => "PING".into(),
            Request::Help => "HELP".into(),
        }
    }

    /// This request's row in [`VERBS`].
    pub(crate) fn slot(&self) -> usize {
        match self {
            Request::Same { .. } => 0,
            Request::Dups { .. } => 1,
            Request::Rep { .. } => 2,
            Request::Explain { .. } => 3,
            Request::Insert { .. } => 4,
            Request::Delete { .. } => 5,
            Request::AddKey { .. } => 6,
            Request::DropKey { .. } => 7,
            Request::Keys => 8,
            Request::Snapshot => 9,
            Request::Compact => 10,
            Request::ShardChase { .. } => 11,
            Request::Merges { .. } => 12,
            Request::Stats => 13,
            Request::Metrics => 14,
            Request::Trace { .. } => 15,
            Request::Traces { .. } => 16,
            Request::Ping => 17,
            Request::Help => 18,
        }
    }

    /// The lowercase verb name of this request (its [`Verb::name`]).
    pub fn verb(&self) -> &'static str {
        VERBS[self.slot()].name
    }

    /// This request's [`Class`].
    pub fn class(&self) -> Class {
        VERBS[self.slot()].class
    }

    /// The request a `TRACE` wraps, or the request itself.
    pub fn untraced(&self) -> &Request {
        match self {
            Request::Trace { inner } => inner,
            req => req,
        }
    }

    /// True for the verbs that mutate the index (triples, Σ or, on a
    /// cluster shard, the relation). A `TRACE` mutates exactly when its
    /// wrapped request does.
    pub fn is_update(&self) -> bool {
        VERBS[self.untraced().slot()].is_update()
    }

    /// The entity names this request addresses, in argument order: two
    /// for `SAME` and `EXPLAIN`, one for `DUPS` and `REP`, none otherwise.
    pub fn entities(&self) -> [Option<&str>; 2] {
        match self {
            Request::Same { a, b } | Request::Explain { a, b } => [Some(a.as_str()), Some(b)],
            Request::Dups { entity } | Request::Rep { entity } => [Some(entity.as_str()), None],
            _ => [None, None],
        }
    }
}

impl std::fmt::Display for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// One identification of a shipped merge log: the pair plus the name of
/// the certifying key. Travels in `MERGES` requests and `MERGELOG`
/// responses as `<a> <b> "<key>"` (the key name DSL-quoted).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MergeEntry {
    /// First entity name of the identified pair.
    pub a: String,
    /// Second entity name.
    pub b: String,
    /// Name of the certifying key.
    pub key: String,
}

impl MergeEntry {
    /// Renders the wire form `<a> <b> "<key>"`.
    fn render(&self) -> String {
        format!("{} {} {}", self.a, self.b, quote(&self.key))
    }

    /// Reads one entry off the front of `s`, returning it and the rest.
    fn read(s: &str) -> Option<(MergeEntry, &str)> {
        let (a, r) = s.split_once(char::is_whitespace)?;
        let (b, r) = r.trim_start().split_once(char::is_whitespace)?;
        let (key, r) = unquote(r.trim_start()).ok()?;
        Some((
            MergeEntry {
                a: a.to_string(),
                b: b.to_string(),
                key,
            },
            r.trim_start(),
        ))
    }
}

/// Parses a `;`-separated merge-entry list (the `MERGES` payload after
/// the cursor). Empty input is an empty list.
fn parse_merge_entries(s: &str) -> Option<Vec<MergeEntry>> {
    let mut rest = s.trim();
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (entry, r) = MergeEntry::read(rest)?;
        out.push(entry);
        rest = r;
        if let Some(r) = rest.strip_prefix(';') {
            rest = r.trim_start();
            if rest.is_empty() {
                return None; // trailing separator
            }
        } else if !rest.is_empty() {
            return None; // junk between entries
        }
    }
    Some(out)
}

/// Renders a merge-entry list in the `MERGES` payload form.
fn render_merge_entries(merges: &[MergeEntry]) -> String {
    merges
        .iter()
        .map(MergeEntry::render)
        .collect::<Vec<_>>()
        .join(" ; ")
}

/// One `  a <=> b by key` line of a rendered proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofLine {
    /// First entity name of the identified pair.
    pub a: String,
    /// Second entity name.
    pub b: String,
    /// Name of the certifying key.
    pub key: String,
}

/// One trace retained by the flight recorder, as answered by `TRACES`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedTrace {
    /// The server-assigned, monotonically increasing request id.
    pub id: u64,
    /// The traced request's verb (a lowercase [`Verb::name`]).
    pub verb: String,
    /// Whether the request crossed the slow-query threshold.
    pub slow: bool,
    /// The recorded span tree.
    pub root: TraceNode,
}

/// One response, as produced by [`crate::Server::execute`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `PONG`.
    Pong,
    /// `BYE` (answered to `QUIT` by the TCP framing).
    Bye,
    /// `YES <a> <=> <b> rep=<rep>`.
    Same {
        /// First queried name.
        a: String,
        /// Second queried name.
        b: String,
        /// The cluster's canonical representative.
        rep: String,
    },
    /// `NO <a> =/= <b>`.
    NotSame {
        /// First queried name.
        a: String,
        /// Second queried name.
        b: String,
    },
    /// `DUPS <e>: <d1> <d2> …`.
    Dups {
        /// The queried name.
        entity: String,
        /// The other members of its cluster.
        others: Vec<String>,
    },
    /// `NONE <e> has no duplicates`.
    NoDups {
        /// The queried name.
        entity: String,
    },
    /// `REP <rep>`.
    Rep {
        /// The canonical representative.
        rep: String,
    },
    /// `PROOF <a> <=> <b> steps=<n> verified` + one line per step.
    Proof {
        /// First queried name.
        a: String,
        /// Second queried name.
        b: String,
        /// The verified key-application steps.
        steps: Vec<ProofLine>,
    },
    /// `NOPROOF <a> and <b> are not identified`.
    NoProof {
        /// First queried name.
        a: String,
        /// Second queried name.
        b: String,
    },
    /// `OK mode=… triples=… …` — an applied triple update.
    Updated(AdvanceReport),
    /// `OK snapshot_seq=<seq> bytes=<n>`.
    Snapshotted {
        /// Version of the snapshot cut.
        seq: u64,
        /// Size of the snapshot file.
        bytes: u64,
    },
    /// `OK snapshot_seq=… bytes=… truncated_records=… removed_snapshots=…`.
    Compacted {
        /// Version of the compaction snapshot.
        seq: u64,
        /// Size of the snapshot file.
        bytes: u64,
        /// WAL records dropped.
        truncated_records: u64,
        /// Older snapshot files deleted.
        removed_snapshots: usize,
    },
    /// `OK added key=… keys=… active_keys=… key_epoch=… …`.
    KeyAdded(KeyChange),
    /// `OK dropped key=… keys=… active_keys=… key_epoch=… …`.
    KeyDropped(KeyChange),
    /// `KEYS n=… active=… epoch=…` + one indented DSL line per key.
    KeyList {
        /// Active (compiled) keys.
        active: usize,
        /// The key epoch.
        epoch: u64,
        /// One single-line DSL rendering per declared key, in order.
        keys: Vec<String>,
    },
    /// `STATS k=v …` — ordered counter pairs.
    Stats(Vec<(String, String)>),
    /// `METRICS` + the full text exposition, one sample per line.
    Metrics(Vec<MetricSnapshot>),
    /// `TRACE id=… spans=…` + the span tree + `ANSWER` + the wrapped
    /// verb's response, byte-identical to the untraced answer.
    Trace {
        /// The server-assigned request id.
        id: u64,
        /// The recorded span tree (rooted at the wrapped verb's span).
        root: TraceNode,
        /// The wrapped verb's answer, unchanged.
        answer: Box<Response>,
    },
    /// `TRACES n=… captured=…` + one header and indented span tree per
    /// retained trace, newest first.
    Traces {
        /// Traces captured by the recorder since startup.
        captured: u64,
        /// The returned traces, newest first.
        traces: Vec<RecordedTrace>,
    },
    /// `MERGELOG n=… next=…` + one indented `<a> <b> "<key>"` line per
    /// merge — the shard's step log from the requested cursor.
    MergeLog {
        /// The cursor to resume from next time (the shard's log length).
        next: u64,
        /// The shipped identifications, in shard log order.
        merges: Vec<MergeEntry>,
    },
    /// The multi-line usage table.
    Help(String),
    /// `ERR <reason>`.
    Err(String),
}

/// A response that did not parse (foreign or truncated text).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseError(pub String);

impl std::fmt::Display for ResponseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed response: {}", self.0)
    }
}

impl std::error::Error for ResponseError {}

/// Quotes a key name for a response line: DSL-style escapes, so the
/// payload stays on one line whatever the name contains.
fn quote(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Inverse of [`quote`]: reads a quoted name off the front of `s`,
/// returning the name and the rest.
fn unquote(s: &str) -> Result<(String, &str), ResponseError> {
    let inner = s
        .strip_prefix('"')
        .ok_or_else(|| ResponseError(format!("expected a quoted name at {s:?}")))?;
    let mut out = String::new();
    let mut chars = inner.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &inner[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                other => {
                    return Err(ResponseError(format!("bad escape {other:?} in {s:?}")));
                }
            },
            c => out.push(c),
        }
    }
    Err(ResponseError(format!("unterminated quoted name in {s:?}")))
}

impl Response {
    /// Renders the response text: possibly multi-line, never empty, no
    /// trailing newline — exactly what the line protocol answers.
    pub fn render(&self) -> String {
        match self {
            Response::Pong => "PONG".into(),
            Response::Bye => "BYE".into(),
            Response::Same { a, b, rep } => format!("YES {a} <=> {b} rep={rep}"),
            Response::NotSame { a, b } => format!("NO {a} =/= {b}"),
            Response::Dups { entity, others } if others.is_empty() => {
                // No trailing space: parse would read a phantom "" member.
                format!("DUPS {entity}:")
            }
            Response::Dups { entity, others } => {
                format!("DUPS {entity}: {}", others.join(" "))
            }
            Response::NoDups { entity } => format!("NONE {entity} has no duplicates"),
            Response::Rep { rep } => format!("REP {rep}"),
            Response::Proof { a, b, steps } => {
                let mut out = format!("PROOF {a} <=> {b} steps={} verified", steps.len());
                for s in steps {
                    let _ = write!(out, "\n  {} <=> {} by {}", s.a, s.b, s.key);
                }
                out
            }
            Response::NoProof { a, b } => format!("NOPROOF {a} and {b} are not identified"),
            Response::Updated(r) => format!(
                "OK mode={} triples={} touched={} new_entities={} new_pairs={} rounds={} iso={}",
                r.mode, r.triples, r.touched, r.new_entities, r.new_pairs, r.rounds, r.iso_checks
            ),
            Response::Snapshotted { seq, bytes } => {
                format!("OK snapshot_seq={seq} bytes={bytes}")
            }
            Response::Compacted {
                seq,
                bytes,
                truncated_records,
                removed_snapshots,
            } => format!(
                "OK snapshot_seq={seq} bytes={bytes} truncated_records={truncated_records} \
                 removed_snapshots={removed_snapshots}"
            ),
            Response::KeyAdded(c) => format!(
                "OK added key={} keys={} active_keys={} key_epoch={} identified_pairs={} \
                 rounds={} iso={}",
                quote(&c.name),
                c.keys,
                c.active_keys,
                c.key_epoch,
                c.identified_pairs,
                c.rounds,
                c.iso_checks
            ),
            Response::KeyDropped(c) => format!(
                "OK dropped key={} keys={} active_keys={} key_epoch={} identified_pairs={} \
                 rounds={} iso={}",
                quote(&c.name),
                c.keys,
                c.active_keys,
                c.key_epoch,
                c.identified_pairs,
                c.rounds,
                c.iso_checks
            ),
            Response::KeyList {
                active,
                epoch,
                keys,
            } => {
                let mut out = format!("KEYS n={} active={active} epoch={epoch}", keys.len());
                for k in keys {
                    let _ = write!(out, "\n  {k}");
                }
                out
            }
            Response::Stats(pairs) => {
                let mut out = String::from("STATS");
                for (k, v) in pairs {
                    let _ = write!(out, " {k}={v}");
                }
                out
            }
            Response::Metrics(snaps) => {
                let mut out = String::from("METRICS");
                for line in gk_metrics::render_exposition(snaps).lines() {
                    let _ = write!(out, "\n{line}");
                }
                out
            }
            Response::Trace { id, root, answer } => {
                // Span lines always start with indent + `span=`, so the
                // bare ANSWER line splits the tree from the wrapped
                // response unambiguously.
                let mut out = format!("TRACE id={id} spans={}", root.total_spans());
                for line in root.render().lines() {
                    let _ = write!(out, "\n{line}");
                }
                out.push_str("\nANSWER\n");
                out.push_str(&answer.render());
                out
            }
            Response::Traces { captured, traces } => {
                let mut out = format!("TRACES n={} captured={captured}", traces.len());
                for t in traces {
                    let _ = write!(out, "\ntrace id={} verb={} slow={}", t.id, t.verb, t.slow);
                    let mut tree = String::new();
                    t.root.render_into(1, &mut tree);
                    for line in tree.lines() {
                        let _ = write!(out, "\n{line}");
                    }
                }
                out
            }
            Response::MergeLog { next, merges } => {
                let mut out = format!("MERGELOG n={} next={next}", merges.len());
                for m in merges {
                    let _ = write!(out, "\n  {}", m.render());
                }
                out
            }
            Response::Help(text) => text.clone(),
            Response::Err(msg) => format!("ERR {msg}"),
        }
    }

    /// True for `ERR` responses.
    pub fn is_err(&self) -> bool {
        matches!(self, Response::Err(_))
    }

    /// Parses a response paragraph back into its typed form (inverse of
    /// [`Response::render`]).
    pub fn parse(text: &str) -> Result<Response, ResponseError> {
        let bad = |why: &str| ResponseError(format!("{why}: {text:?}"));
        let mut lines = text.lines();
        let first = lines.next().ok_or_else(|| bad("empty response"))?;
        let toks: Vec<&str> = first.split(' ').collect();
        match toks[0] {
            "PONG" if toks.len() == 1 => Ok(Response::Pong),
            "BYE" if toks.len() == 1 => Ok(Response::Bye),
            "YES" => match toks.as_slice() {
                ["YES", a, "<=>", b, rep] => Ok(Response::Same {
                    a: (*a).into(),
                    b: (*b).into(),
                    rep: rep
                        .strip_prefix("rep=")
                        .ok_or_else(|| bad("YES without rep="))?
                        .into(),
                }),
                _ => Err(bad("malformed YES")),
            },
            "NO" => match toks.as_slice() {
                ["NO", a, "=/=", b] => Ok(Response::NotSame {
                    a: (*a).into(),
                    b: (*b).into(),
                }),
                _ => Err(bad("malformed NO")),
            },
            "DUPS" if toks.len() >= 2 && toks[1].ends_with(':') => Ok(Response::Dups {
                entity: toks[1].trim_end_matches(':').into(),
                others: toks[2..].iter().map(|s| (*s).to_string()).collect(),
            }),
            "NONE" => {
                let entity = first
                    .strip_prefix("NONE ")
                    .and_then(|r| r.strip_suffix(" has no duplicates"))
                    .ok_or_else(|| bad("malformed NONE"))?;
                Ok(Response::NoDups {
                    entity: entity.into(),
                })
            }
            "REP" if toks.len() == 2 => Ok(Response::Rep {
                rep: toks[1].into(),
            }),
            "PROOF" => {
                let (a, b) = match toks.as_slice() {
                    ["PROOF", a, "<=>", b, _steps, "verified"] => (*a, *b),
                    _ => return Err(bad("malformed PROOF header")),
                };
                let mut steps = Vec::new();
                for line in lines {
                    let line = line
                        .strip_prefix("  ")
                        .ok_or_else(|| bad("unindented proof step"))?;
                    let (pair, key) = line
                        .split_once(" by ")
                        .ok_or_else(|| bad("proof step without key"))?;
                    let (sa, sb) = pair
                        .split_once(" <=> ")
                        .ok_or_else(|| bad("proof step without pair"))?;
                    steps.push(ProofLine {
                        a: sa.into(),
                        b: sb.into(),
                        key: key.into(),
                    });
                }
                Ok(Response::Proof {
                    a: a.into(),
                    b: b.into(),
                    steps,
                })
            }
            "NOPROOF" => {
                let rest = first
                    .strip_prefix("NOPROOF ")
                    .and_then(|r| r.strip_suffix(" are not identified"))
                    .ok_or_else(|| bad("malformed NOPROOF"))?;
                let (a, b) = rest
                    .split_once(" and ")
                    .ok_or_else(|| bad("NOPROOF pair"))?;
                Ok(Response::NoProof {
                    a: a.into(),
                    b: b.into(),
                })
            }
            "OK" => Self::parse_ok(first, &bad),
            "KEYS" => {
                let fields = kv_fields(&toks[1..])?;
                let active = field(&fields, "active")
                    .and_then(parse_usize)
                    .ok_or_else(|| bad("KEYS without active="))?;
                let epoch = field(&fields, "epoch")
                    .and_then(parse_u64)
                    .ok_or_else(|| bad("KEYS without epoch="))?;
                let n = field(&fields, "n")
                    .and_then(parse_usize)
                    .ok_or_else(|| bad("KEYS without n="))?;
                let keys: Vec<String> = lines
                    .map(|l| {
                        l.strip_prefix("  ")
                            .map(str::to_string)
                            .ok_or_else(|| bad("unindented key line"))
                    })
                    .collect::<Result<_, _>>()?;
                if keys.len() != n {
                    return Err(bad("KEYS count mismatch"));
                }
                Ok(Response::KeyList {
                    active,
                    epoch,
                    keys,
                })
            }
            "STATS" => {
                let pairs = toks[1..]
                    .iter()
                    .map(|t| {
                        t.split_once('=')
                            .map(|(k, v)| (k.to_string(), v.to_string()))
                            .ok_or_else(|| bad("STATS field without ="))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Stats(pairs))
            }
            "METRICS" if toks.len() == 1 => {
                let body: String = lines.map(|l| format!("{l}\n")).collect();
                let snaps = gk_metrics::parse_exposition(&body)
                    .map_err(|e| bad(&format!("bad exposition ({e})")))?;
                Ok(Response::Metrics(snaps))
            }
            "TRACE" => {
                let fields = kv_fields(&toks[1..])?;
                let id = field(&fields, "id")
                    .and_then(parse_u64)
                    .ok_or_else(|| bad("TRACE without id="))?;
                let spans = field(&fields, "spans")
                    .and_then(parse_usize)
                    .ok_or_else(|| bad("TRACE without spans="))?;
                let rest: Vec<&str> = lines.collect();
                let at = rest
                    .iter()
                    .position(|l| *l == "ANSWER")
                    .ok_or_else(|| bad("TRACE without ANSWER"))?;
                let (forest, used) = TraceNode::parse_forest(&rest[..at], 0)
                    .ok_or_else(|| bad("malformed span tree"))?;
                let root = match <[TraceNode; 1]>::try_from(forest) {
                    Ok([root]) if used == at => root,
                    _ => return Err(bad("TRACE must carry exactly one span tree")),
                };
                if root.total_spans() != spans {
                    return Err(bad("TRACE spans= mismatch"));
                }
                let answer = Response::parse(&rest[at + 1..].join("\n"))?;
                Ok(Response::Trace {
                    id,
                    root,
                    answer: Box::new(answer),
                })
            }
            "TRACES" => {
                let fields = kv_fields(&toks[1..])?;
                let n = field(&fields, "n")
                    .and_then(parse_usize)
                    .ok_or_else(|| bad("TRACES without n="))?;
                let captured = field(&fields, "captured")
                    .and_then(parse_u64)
                    .ok_or_else(|| bad("TRACES without captured="))?;
                let rest: Vec<&str> = lines.collect();
                let mut traces = Vec::new();
                let mut i = 0;
                while i < rest.len() {
                    let hdr = rest[i]
                        .strip_prefix("trace ")
                        .ok_or_else(|| bad("expected a trace header"))?;
                    let htoks: Vec<&str> = hdr.split(' ').collect();
                    let hfields = kv_fields(&htoks)?;
                    let id = field(&hfields, "id")
                        .and_then(parse_u64)
                        .ok_or_else(|| bad("trace header without id="))?;
                    let verb = field(&hfields, "verb")
                        .ok_or_else(|| bad("trace header without verb="))?
                        .to_string();
                    let slow = match field(&hfields, "slow") {
                        Some("true") => true,
                        Some("false") => false,
                        _ => return Err(bad("trace header without slow=")),
                    };
                    i += 1;
                    let (forest, used) = TraceNode::parse_forest(&rest[i..], 1)
                        .ok_or_else(|| bad("malformed span tree"))?;
                    let Ok([root]) = <[TraceNode; 1]>::try_from(forest) else {
                        return Err(bad("trace must carry exactly one span tree"));
                    };
                    i += used;
                    traces.push(RecordedTrace {
                        id,
                        verb,
                        slow,
                        root,
                    });
                }
                if traces.len() != n {
                    return Err(bad("TRACES count mismatch"));
                }
                Ok(Response::Traces { captured, traces })
            }
            "MERGELOG" => {
                let fields = kv_fields(&toks[1..])?;
                let n = field(&fields, "n")
                    .and_then(parse_usize)
                    .ok_or_else(|| bad("MERGELOG without n="))?;
                let next = field(&fields, "next")
                    .and_then(parse_u64)
                    .ok_or_else(|| bad("MERGELOG without next="))?;
                let merges: Vec<MergeEntry> = lines
                    .map(|l| {
                        let l = l
                            .strip_prefix("  ")
                            .ok_or_else(|| bad("unindented merge line"))?;
                        match MergeEntry::read(l) {
                            Some((m, "")) => Ok(m),
                            _ => Err(bad("malformed merge line")),
                        }
                    })
                    .collect::<Result<_, _>>()?;
                if merges.len() != n {
                    return Err(bad("MERGELOG count mismatch"));
                }
                Ok(Response::MergeLog { next, merges })
            }
            "commands:" => Ok(Response::Help(text.to_string())),
            "ERR" => Ok(Response::Err(
                first.strip_prefix("ERR ").unwrap_or("").to_string(),
            )),
            _ => Err(bad("unrecognized response")),
        }
    }

    /// Parses the `OK …` family, discriminated by its fields.
    fn parse_ok(
        first: &str,
        bad: &dyn Fn(&str) -> ResponseError,
    ) -> Result<Response, ResponseError> {
        let rest = first.strip_prefix("OK ").ok_or_else(|| bad("bare OK"))?;
        if let Some(keyed) = rest
            .strip_prefix("added key=")
            .or_else(|| rest.strip_prefix("dropped key="))
        {
            let added = rest.starts_with("added");
            let (name, tail) = unquote(keyed)?;
            let toks: Vec<&str> = tail.split_whitespace().collect();
            let fields = kv_fields(&toks)?;
            let get = |k: &str| field(&fields, k).ok_or_else(|| bad("missing key-change field"));
            let change = KeyChange {
                name,
                keys: parse_usize(get("keys")?).ok_or_else(|| bad("keys="))?,
                active_keys: parse_usize(get("active_keys")?).ok_or_else(|| bad("active_keys="))?,
                key_epoch: parse_u64(get("key_epoch")?).ok_or_else(|| bad("key_epoch="))?,
                identified_pairs: parse_usize(get("identified_pairs")?)
                    .ok_or_else(|| bad("identified_pairs="))?,
                rounds: parse_usize(get("rounds")?).ok_or_else(|| bad("rounds="))?,
                iso_checks: parse_u64(get("iso")?).ok_or_else(|| bad("iso="))?,
            };
            return Ok(if added {
                Response::KeyAdded(change)
            } else {
                Response::KeyDropped(change)
            });
        }
        let toks: Vec<&str> = rest.split_whitespace().collect();
        let fields = kv_fields(&toks)?;
        if let Some(mode) = field(&fields, "mode") {
            let get = |k: &str| {
                field(&fields, k)
                    .and_then(parse_usize)
                    .ok_or_else(|| bad("missing update field"))
            };
            return Ok(Response::Updated(AdvanceReport {
                mode: AdvanceMode::parse(mode).map_err(|e| bad(&e))?,
                triples: get("triples")?,
                touched: get("touched")?,
                new_entities: get("new_entities")?,
                new_pairs: get("new_pairs")?,
                rounds: get("rounds")?,
                iso_checks: field(&fields, "iso")
                    .and_then(parse_u64)
                    .ok_or_else(|| bad("iso="))?,
            }));
        }
        let seq = field(&fields, "snapshot_seq")
            .and_then(parse_u64)
            .ok_or_else(|| bad("OK without snapshot_seq="))?;
        let bytes = field(&fields, "bytes")
            .and_then(parse_u64)
            .ok_or_else(|| bad("OK without bytes="))?;
        if let Some(truncated) = field(&fields, "truncated_records") {
            Ok(Response::Compacted {
                seq,
                bytes,
                truncated_records: parse_u64(truncated).ok_or_else(|| bad("truncated_records="))?,
                removed_snapshots: field(&fields, "removed_snapshots")
                    .and_then(parse_usize)
                    .ok_or_else(|| bad("removed_snapshots="))?,
            })
        } else {
            Ok(Response::Snapshotted { seq, bytes })
        }
    }
}

impl std::fmt::Display for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

fn kv_fields<'a>(toks: &[&'a str]) -> Result<Vec<(&'a str, &'a str)>, ResponseError> {
    toks.iter()
        .map(|t| {
            t.split_once('=')
                .ok_or_else(|| ResponseError(format!("field without '=': {t:?}")))
        })
        .collect()
}

fn field<'a>(fields: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

fn parse_usize(v: &str) -> Option<usize> {
    v.parse().ok()
}

fn parse_u64(v: &str) -> Option<u64> {
    v.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_roundtrip(line: &str) -> Request {
        let req = Request::parse(line).unwrap();
        assert_eq!(req.render(), line, "canonical line must round-trip");
        assert_eq!(Request::parse(&req.render()), Ok(req.clone()));
        req
    }

    #[test]
    fn canonical_requests_roundtrip() {
        req_roundtrip("SAME a b");
        req_roundtrip("DUPS e1");
        req_roundtrip("REP e1");
        req_roundtrip("EXPLAIN a b");
        req_roundtrip(r#"INSERT a:t p "v" ; b:t q c:t"#);
        req_roundtrip(r#"DELETE a:t p "v""#);
        req_roundtrip(r#"ADDKEY key "Q" t(x) { x -p-> v*; }"#);
        req_roundtrip("DROPKEY Q");
        req_roundtrip("TRACE DUPS e1");
        req_roundtrip(r#"TRACE INSERT a:t p "v""#);
        req_roundtrip("TRACES");
        req_roundtrip("TRACES 5");
        req_roundtrip("SHARDCHASE 0");
        req_roundtrip("SHARDCHASE 42");
        req_roundtrip("MERGES 7");
        req_roundtrip(r#"MERGES 3 a1 a2 "Q2""#);
        req_roundtrip(r#"MERGES 3 a1 a2 "Q2" ; art1 art2 "Q with ; spaces""#);
        for bare in [
            "KEYS", "SNAPSHOT", "COMPACT", "STATS", "METRICS", "PING", "HELP",
        ] {
            req_roundtrip(bare);
        }
    }

    #[test]
    fn trace_wraps_any_verb_but_not_itself() {
        assert_eq!(
            Request::parse("trace same a b"),
            Ok(Request::Trace {
                inner: Box::new(Request::Same {
                    a: "a".into(),
                    b: "b".into()
                })
            })
        );
        assert!(!Request::parse("TRACE SAME a b").unwrap().is_update());
        assert!(Request::parse(r#"TRACE DELETE a:t p "v""#)
            .unwrap()
            .is_update());
        // Nesting is rejected, and so is an empty wrap.
        assert_eq!(Request::parse("TRACE TRACE SAME a b"), Err(usage("trace")));
        assert_eq!(Request::parse("TRACE TRACES"), Err(usage("trace")));
        assert_eq!(Request::parse("TRACE"), Err(usage("trace")));
        // A malformed inner verb keeps its own usage diagnosis.
        assert_eq!(Request::parse("TRACE SAME a"), Err(usage("same")));
        assert_eq!(Request::parse("TRACES five"), Err(usage("traces")));
        assert_eq!(Request::parse("TRACES 5 6"), Err(usage("traces")));
    }

    fn row(name: &str) -> &'static Verb {
        VERBS.iter().find(|v| v.name == name).unwrap()
    }

    fn usage(name: &str) -> RequestError {
        RequestError::Usage(row(name).usage)
    }

    #[test]
    fn verbs_are_case_insensitive_and_whitespace_tolerant() {
        assert_eq!(
            Request::parse("  same a   b "),
            Ok(Request::Same {
                a: "a".into(),
                b: "b".into()
            })
        );
        assert_eq!(Request::parse("ping"), Ok(Request::Ping));
    }

    /// One well-formed line and the arity mistakes of a row, built from
    /// its grammar alone.
    fn lines_for(v: &Verb) -> (String, Vec<String>) {
        let verb = v.name.to_uppercase();
        let (args, mistakes): (&str, &[&str]) = match v.grammar {
            Bare(_) => ("", &[" now"]),
            Name(_) => (" x", &["", " x y"]),
            Pair(_) => (" x y", &["", " x", " x y z"]),
            Text(_) => (" t", &[""]),
            OptCount => (" 3", &[" x", " 1 2"]),
            Cursor => (" 0", &["", " x", " 1 2"]),
            CursorMerges => (r#" 0 a b "k""#, &["", " x"]),
            Wrapped => (" PING", &["", " TRACE PING", " TRACES"]),
        };
        let bad = mistakes.iter().map(|m| format!("{verb}{m}")).collect();
        (format!("{verb}{args}"), bad)
    }

    #[test]
    fn every_row_parses_answers_its_usage_and_has_help_and_metrics() {
        let help = help_text();
        let metrics = crate::Server::new(
            gk_graph::parse_graph("a:t p \"v\"").unwrap(),
            gk_core::KeySet::parse("").unwrap(),
        )
        .index()
        .registry()
        .snapshot();
        for (i, v) in VERBS.iter().enumerate() {
            let (good, mistakes) = lines_for(v);
            let req = Request::parse(&good).unwrap();
            assert_eq!((req.slot(), req.render()), (i, good.clone()), "{good}");
            for line in mistakes {
                assert_eq!(
                    Request::parse(&line),
                    Err(RequestError::Usage(v.usage)),
                    "{line:?}"
                );
            }
            let listed = help
                .lines()
                .any(|l| l.starts_with(&format!("  {} ", v.name.to_uppercase())));
            assert_eq!(listed, v.name != "help", "HELP lists {}", v.name);
            let counter = format!("gk_requests_{}_total", v.name);
            assert!(metrics.iter().any(|m| m.name == counter), "{counter}");
        }
        // Malformed MERGES payloads after a good cursor.
        for line in [
            "MERGES 1 a",
            "MERGES 1 a b key",
            r#"MERGES 1 a b "k" ;"#,
            r#"MERGES 1 a b "k" junk"#,
        ] {
            assert_eq!(Request::parse(line), Err(usage("merges")), "{line:?}");
        }
        assert_eq!(Request::parse(""), Err(RequestError::Empty));
        assert_eq!(
            Request::parse("FROB x"),
            Err(RequestError::UnknownVerb("FROB".into()))
        );
        assert_eq!(usage("same").to_string(), "usage: SAME <a> <b>");
    }

    fn resp_roundtrip(resp: Response) {
        let text = resp.render();
        assert_eq!(Response::parse(&text), Ok(resp.clone()), "{text}");
    }

    #[test]
    fn responses_roundtrip() {
        resp_roundtrip(Response::Pong);
        resp_roundtrip(Response::Bye);
        resp_roundtrip(Response::Same {
            a: "a".into(),
            b: "b".into(),
            rep: "a".into(),
        });
        resp_roundtrip(Response::NotSame {
            a: "a".into(),
            b: "b".into(),
        });
        resp_roundtrip(Response::Dups {
            entity: "e".into(),
            others: vec!["f".into(), "g".into()],
        });
        // The server never emits an empty cluster, but the lossless
        // contract covers every value a typed embedder can build.
        resp_roundtrip(Response::Dups {
            entity: "e".into(),
            others: Vec::new(),
        });
        resp_roundtrip(Response::NoDups { entity: "e".into() });
        resp_roundtrip(Response::Rep { rep: "e".into() });
        resp_roundtrip(Response::Proof {
            a: "a".into(),
            b: "b".into(),
            steps: vec![
                ProofLine {
                    a: "a".into(),
                    b: "b".into(),
                    key: "Q with spaces".into(),
                },
                ProofLine {
                    a: "c".into(),
                    b: "d".into(),
                    key: "Q2".into(),
                },
            ],
        });
        resp_roundtrip(Response::NoProof {
            a: "a".into(),
            b: "b".into(),
        });
        resp_roundtrip(Response::Updated(AdvanceReport {
            mode: AdvanceMode::Incremental,
            triples: 2,
            touched: 1,
            new_entities: 0,
            new_pairs: 4,
            rounds: 2,
            iso_checks: 7,
        }));
        resp_roundtrip(Response::Snapshotted { seq: 3, bytes: 999 });
        resp_roundtrip(Response::Compacted {
            seq: 4,
            bytes: 1000,
            truncated_records: 7,
            removed_snapshots: 2,
        });
        resp_roundtrip(Response::KeyAdded(KeyChange {
            name: "Q \"odd\" name".into(),
            keys: 3,
            active_keys: 2,
            key_epoch: 1,
            identified_pairs: 9,
            rounds: 2,
            iso_checks: 41,
        }));
        resp_roundtrip(Response::KeyDropped(KeyChange {
            name: "Q2".into(),
            keys: 2,
            active_keys: 2,
            key_epoch: 2,
            identified_pairs: 5,
            rounds: 1,
            iso_checks: 3,
        }));
        resp_roundtrip(Response::KeyList {
            active: 1,
            epoch: 3,
            keys: vec![r#"key "Q2" album(x) { x -name_of-> n*; }"#.into()],
        });
        resp_roundtrip(Response::Stats(vec![
            ("engine".into(), "incremental".into()),
            ("entities".into(), "6".into()),
        ]));
        let reg = gk_metrics::Registry::new();
        reg.counter("gk_demo_total", "Demo counter.").add(7);
        reg.histogram("gk_demo_micros", "Demo latency.").observe(12);
        resp_roundtrip(Response::Metrics(reg.snapshot()));
        resp_roundtrip(Response::Metrics(Vec::new()));
        resp_roundtrip(Response::Help(
            "commands:\n  SAME <a> <b>          are <a> and <b> identified?".into(),
        ));
        resp_roundtrip(Response::Err("unknown entity \"ghost\"".into()));
        let tree = TraceNode {
            name: "dups".into(),
            micros: 120,
            counters: vec![("candidates".into(), 3)],
            children: vec![TraceNode {
                name: "analyze".into(),
                micros: 100,
                counters: vec![("iso_checks".into(), 1)],
                children: vec![],
            }],
        };
        resp_roundtrip(Response::Trace {
            id: 7,
            root: tree.clone(),
            answer: Box::new(Response::Dups {
                entity: "a1".into(),
                others: vec!["a2".into()],
            }),
        });
        // A traced multi-line answer survives the ANSWER split too.
        resp_roundtrip(Response::Trace {
            id: 8,
            root: tree.clone(),
            answer: Box::new(Response::Proof {
                a: "a".into(),
                b: "b".into(),
                steps: vec![ProofLine {
                    a: "a".into(),
                    b: "b".into(),
                    key: "Q2".into(),
                }],
            }),
        });
        resp_roundtrip(Response::Traces {
            captured: 9,
            traces: vec![
                RecordedTrace {
                    id: 8,
                    verb: "trace".into(),
                    slow: true,
                    root: tree.clone(),
                },
                RecordedTrace {
                    id: 7,
                    verb: "ping".into(),
                    slow: false,
                    root: TraceNode {
                        name: "ping".into(),
                        micros: 1,
                        counters: vec![],
                        children: vec![],
                    },
                },
            ],
        });
        resp_roundtrip(Response::Traces {
            captured: 0,
            traces: Vec::new(),
        });
        resp_roundtrip(Response::MergeLog {
            next: 0,
            merges: Vec::new(),
        });
        resp_roundtrip(Response::MergeLog {
            next: 9,
            merges: vec![
                MergeEntry {
                    a: "alb1".into(),
                    b: "alb2".into(),
                    key: "Q2".into(),
                },
                MergeEntry {
                    a: "art1".into(),
                    b: "art2".into(),
                    key: "Q \"odd\" ; name".into(),
                },
            ],
        });
    }

    #[test]
    fn merges_is_an_update_and_shardchase_is_not() {
        assert!(Request::parse(r#"MERGES 0 a b "k""#).unwrap().is_update());
        assert!(Request::parse("MERGES 4").unwrap().is_update());
        assert!(!Request::parse("SHARDCHASE 0").unwrap().is_update());
        assert_eq!(
            Request::parse(r#"MERGES 2 a b "k" ; c d "k2""#),
            Ok(Request::Merges {
                cursor: 2,
                merges: vec![
                    MergeEntry {
                        a: "a".into(),
                        b: "b".into(),
                        key: "k".into()
                    },
                    MergeEntry {
                        a: "c".into(),
                        b: "d".into(),
                        key: "k2".into()
                    },
                ],
            })
        );
    }

    #[test]
    fn malformed_trace_responses_do_not_parse() {
        assert!(Response::parse("TRACE id=1 spans=1").is_err(), "no tree");
        assert!(
            Response::parse("TRACE id=1 spans=1\nspan=x micros=1\nANSWER").is_err(),
            "empty answer"
        );
        assert!(
            Response::parse("TRACE id=1 spans=2\nspan=x micros=1\nANSWER\nPONG").is_err(),
            "span count mismatch"
        );
        assert!(
            Response::parse("TRACES n=1 captured=1").is_err(),
            "count mismatch"
        );
        assert!(
            Response::parse(
                "TRACES n=1 captured=1\ntrace id=1 verb=ping slow=maybe\n  span=x micros=1"
            )
            .is_err(),
            "bad slow flag"
        );
    }

    #[test]
    fn foreign_text_does_not_parse_as_a_response() {
        assert!(Response::parse("HELLO world").is_err());
        assert!(Response::parse("").is_err());
        assert!(Response::parse("YES a b").is_err());
    }
}
