//! Generated inputs: the graph and keys as the text files a user would
//! hand to `graphkeys`, hold-out splits, INSERT batches and read streams.
//! Everything is a function of the run seed.

use crate::stats::Rng;
use gk_core::{chase_reference, ChaseOrder, EqRel, KeySet};
use gk_datagen::{generate, GenConfig};
use gk_graph::{parse_graph, write_graph, GraphView};

/// `serve --threads` for every server and shard (= nproc on the
/// reference box; the load generator adds at most two more threads).
pub const SERVER_THREADS: usize = 2;
/// Triples per INSERT batch.
pub const BATCH_TRIPLES: usize = 16;
/// Pipelining depth of the pipelined read phase.
pub const PIPELINE_DEPTH: usize = 64;

/// A pair of entity names, smaller first.
pub type NamePair = (String, String);

/// One generated dataset in text form.
pub struct Dataset {
    /// The graph in the triple text format, one triple per line, grouped
    /// by subject.
    pub graph_text: String,
    /// The key set in the DSL, one key per line.
    pub keys_text: String,
    /// Every entity name.
    pub names: Vec<String>,
    /// The planted duplicate pairs by name, sorted.
    pub truth: Vec<NamePair>,
}

/// The serving scenarios' dataset: the Google-flavoured preset (30 keys,
/// c = 2, d = 2) at `scale`, under the preset's own seed. It is the same
/// under every run seed, as a deployment's data is; the run seed draws what
/// is asked of it.
pub fn dataset(scale: f64) -> Dataset {
    let w = generate(&GenConfig::google().with_scale(scale));
    let mut truth: Vec<NamePair> = w
        .truth
        .iter()
        .map(|&(a, b)| sorted_pair(w.graph.entity_label(a), w.graph.entity_label(b)))
        .collect();
    truth.sort();
    Dataset {
        graph_text: write_graph(&w.graph),
        keys_text: w.keys.keys().iter().map(|k| format!("{k}\n")).collect(),
        names: w
            .graph
            .entities()
            .map(|e| w.graph.entity_label(e))
            .collect(),
        truth,
    }
}

fn sorted_pair(a: String, b: String) -> NamePair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Dataset {
    pub fn keys(&self) -> KeySet {
        KeySet::parse(&self.keys_text).expect("generated keys parse")
    }

    /// Holds out a `share` of the subjects and streams the first `batches`
    /// batches' worth of them back, each subject's triples together. Which
    /// subjects, and in which order, is `scenario`'s draw and the same
    /// under every run seed: an INSERT costs 2 to 7 ms with the 2-hop
    /// neighbourhoods its batch touches, a run can afford a few dozen, and
    /// a seeded sample of them moved the median by +-8 % (a seeded order of
    /// one sample still by +-4 %), which no regression bound survives.
    pub fn split(&self, share: f64, batches: usize, scenario: u64) -> Split {
        let choose = &mut Rng::fork(GenConfig::google().seed, scenario);
        let mut base_text = String::with_capacity(self.graph_text.len());
        let mut base_names = Vec::new();
        let mut held: Vec<Vec<&str>> = Vec::new();
        let mut current: Option<(&str, bool)> = None;
        for line in self.graph_text.lines() {
            let subject = line.split(':').next().unwrap_or(line);
            if current.map(|(s, _)| s) != Some(subject) {
                let hold = choose.unit() < share;
                current = Some((subject, hold));
                if hold {
                    held.push(Vec::new());
                } else {
                    base_names.push(subject.to_string());
                }
            }
            if current.is_some_and(|(_, hold)| hold) {
                held.last_mut().expect("pushed above").push(line);
            } else {
                base_text.push_str(line);
                base_text.push('\n');
            }
        }
        for i in (1..held.len()).rev() {
            held.swap(i, choose.below(i + 1));
        }
        let mut triples = 0;
        held.retain(|subject| {
            let streamed = triples < batches * BATCH_TRIPLES;
            triples += subject.len();
            streamed
        });
        Split {
            base_text,
            base_names,
            stream: held.into_iter().flatten().map(str::to_string).collect(),
        }
    }
}

/// A base graph and the held-out triples that stream back into it.
pub struct Split {
    pub base_text: String,
    /// Subjects that stayed in the base: names a read can always resolve,
    /// however much of the stream has arrived.
    pub base_names: Vec<String>,
    /// The held-out triple lines that stream back, in arrival order.
    pub stream: Vec<String>,
}

impl Split {
    /// The stream as INSERT batch bodies (`t1 ; t2 ; …`, no verb) of
    /// [`BATCH_TRIPLES`] triples (the last one may be shorter).
    pub fn batches(&self) -> Vec<String> {
        self.stream
            .chunks(BATCH_TRIPLES)
            .map(|c| c.join(" ; "))
            .collect()
    }

    /// The graph text after the whole stream arrived.
    pub fn text_after(&self) -> String {
        let mut text = self.base_text.clone();
        for line in &self.stream {
            text.push_str(line);
            text.push('\n');
        }
        text
    }
}

/// The read mix: 40 % `SAME`, 30 % `REP`, 30 % `DUPS`, names uniform.
pub fn read_stream(names: &[String], n: usize, rng: &mut Rng) -> Vec<String> {
    (0..n)
        .map(|_| {
            let a = &names[rng.below(names.len())];
            match rng.below(10) {
                0..=3 => format!("SAME {a} {}", names[rng.below(names.len())]),
                4..=6 => format!("REP {a}"),
                _ => format!("DUPS {a}"),
            }
        })
        .collect()
}

/// The identified pairs of `eq` by entity name, sorted.
pub fn name_pairs<V: GraphView>(g: &V, eq: &EqRel) -> Vec<NamePair> {
    let mut pairs: Vec<NamePair> = eq
        .identified_pairs()
        .into_iter()
        .map(|(a, b)| sorted_pair(g.entity_label(a), g.entity_label(b)))
        .collect();
    pairs.sort();
    pairs
}

/// The oracle: `chase_reference` over `graph_text`, by name.
pub fn oracle_pairs(graph_text: &str, keys: &KeySet) -> Vec<NamePair> {
    let g = parse_graph(graph_text).expect("generated graph parses");
    let compiled = keys.compile(&g);
    let r = chase_reference(&g, &compiled, ChaseOrder::Deterministic);
    name_pairs(&g, &r.eq)
}

/// Reads `key=value` out of a `STATS`-style answer.
pub fn stat_field(answer: &str, key: &str) -> Option<f64> {
    answer
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_streams_back_to_the_same_graph() {
        let d = dataset(0.02);
        let (a, b) = (d.split(0.4, 5, 1), d.split(0.4, 5, 2));
        assert_ne!(a.stream, b.stream, "each scenario draws its own hold-out");
        assert!(a.stream.len() >= 5 * BATCH_TRIPLES);
        assert_eq!(a.batches().len(), a.stream.len().div_ceil(BATCH_TRIPLES));
        // Nothing is lost when everything held out streams back.
        let all = d.split(0.4, usize::MAX / BATCH_TRIPLES, 1);
        let streamed_back = all.text_after();
        let mut a: Vec<&str> = streamed_back.lines().collect();
        let mut b: Vec<&str> = d.graph_text.lines().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The planted truth is what the reference chase finds on the text.
        assert_eq!(oracle_pairs(&d.graph_text, &d.keys()), d.truth);
        assert_eq!(
            stat_field("STATS a=1 identified_pairs=42 b=x", "identified_pairs"),
            Some(42.0)
        );
    }
}
