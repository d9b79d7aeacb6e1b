//! The hand-rolled binary codec shared by snapshots and the WAL.
//!
//! The build environment has no registry access, so — like the dependency
//! shims under `vendor/` — the on-disk format is written by hand rather
//! than through a serialization framework. The format is deliberately
//! boring:
//!
//! * all integers are **fixed-width little-endian** (`u8`/`u32`/`u64`);
//! * strings are length-prefixed UTF-8 (`u32` byte count + bytes);
//! * every independently readable unit (a snapshot section, a WAL record)
//!   is a length-prefixed, CRC-checked **frame**: `u32` payload length,
//!   `u32` CRC-32 of the payload, payload bytes;
//! * files open with a magic string plus a **version byte**, so a future
//!   format revision can be detected instead of misread.
//!
//! Decoding never panics on foreign bytes: every read is bounds-checked
//! and returns [`CodecError`], which recovery treats as "stop here" (WAL
//! torn tail) or "try the previous file" (snapshot).

use gk_graph::{EntityId, Graph, GraphBuilder, Obj, ObjSpec, PredId, TripleSpec, TypeId, ValueId};

/// A malformed or truncated byte sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// The slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, and `CRC_TABLES[k][i]` is the CRC register after
/// byte `i` is followed by `k` zero bytes — so eight table reads fold eight
/// input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 checksum of `bytes` (IEEE, as used by gzip/PNG), eight bytes per
/// step (slicing-by-8). Bit-identical to the byte-at-a-time definition.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The little-endian `u32` at `bytes[at..at + 4]`, if the slice reaches.
pub fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let b = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The little-endian `u64` at `bytes[at..at + 8]`, if the slice reaches.
pub fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let lo = le_u32(bytes, at)? as u64;
    let hi = le_u32(bytes, at.checked_add(4)?)? as u64;
    Some(lo | hi << 32)
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Appends primitives to a byte buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Reads primitives off a byte slice, bounds-checked.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let lo = self.u32()? as u64;
        let hi = self.u32()? as u64;
        Ok(lo | hi << 32)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input —
    /// still UTF-8-checked, but with no allocation.
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).or_else(|_| err("invalid UTF-8 in string"))
    }

    /// Checks an element count read off the input against the bytes left:
    /// `n` elements of at least `min_bytes` each must fit, so a hostile
    /// count can neither over-allocate nor spin. Returns `n` as a `usize`.
    pub fn count(&self, n: u64, min_bytes: usize) -> Result<usize, CodecError> {
        match usize::try_from(n) {
            Ok(n) if n.saturating_mul(min_bytes) <= self.remaining() => Ok(n),
            _ => err(format!(
                "count {n} exceeds the {} bytes left at offset {}",
                self.remaining(),
                self.pos
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Graph
// ---------------------------------------------------------------------------

/// Object tag bytes in the triple and spec encodings.
const OBJ_ENTITY: u8 = 0;
const OBJ_VALUE: u8 = 1;

/// Encodes a frozen graph: the three interner tables in id order, the
/// entity table (type + optional external name), and the triple list.
/// Decoding with [`decode_graph`] reproduces the graph **id-for-id** —
/// entity, value, predicate and type ids are all preserved, which is what
/// keeps a persisted `EqRel` meaningful after restart.
pub fn encode_graph(g: &Graph, out: &mut Enc) {
    out.u32(g.num_types() as u32);
    for t in 0..g.num_types() as u32 {
        out.str(g.type_str(TypeId(t)));
    }
    out.u32(g.num_preds() as u32);
    for p in 0..g.num_preds() as u32 {
        out.str(g.pred_str(PredId(p)));
    }
    out.u32(g.num_values() as u32);
    for v in 0..g.num_values() as u32 {
        out.str(g.value_str(ValueId(v)));
    }
    out.u32(g.num_entities() as u32);
    for e in g.entities() {
        out.u32(g.entity_type(e).0);
        // `entity_label` answers `e<id>` for anonymous entities; only a
        // registered name resolves back to the entity.
        let label = g.entity_label(e);
        if g.entity_named(&label) == Some(e) {
            out.u8(1);
            out.str(&label);
        } else {
            out.u8(0);
        }
    }
    out.u64(g.num_triples() as u64);
    for t in g.triples() {
        out.u32(t.s.0);
        out.u32(t.p.0);
        match t.o {
            Obj::Entity(o) => {
                out.u8(OBJ_ENTITY);
                out.u32(o.0);
            }
            Obj::Value(v) => {
                out.u8(OBJ_VALUE);
                out.u32(v.0);
            }
        }
    }
}

/// Decodes a graph encoded by [`encode_graph`], rebuilding every interner
/// in id order so all ids round-trip. Strings are interned straight from
/// the input, and the tables are sized once from the section's counts
/// (each checked against the bytes left).
pub fn decode_graph(d: &mut Dec<'_>) -> Result<Graph, CodecError> {
    let mut b = GraphBuilder::new();
    let ntypes = d.u32()?;
    for want in 0..ntypes {
        if b.intern_type(d.str_ref()?).0 != want {
            return err("duplicate type string breaks id order");
        }
    }
    let npreds = d.u32()?;
    for want in 0..npreds {
        if b.intern_pred(d.str_ref()?).0 != want {
            return err("duplicate predicate string breaks id order");
        }
    }
    let nvalues = d.u32()?;
    b.reserve(d.count(nvalues.into(), 4)?, 0, 0);
    for want in 0..nvalues {
        if b.intern_value(d.str_ref()?).0 != want {
            return err("duplicate value string breaks id order");
        }
    }
    let nentities = d.u32()?;
    b.reserve(0, d.count(nentities.into(), 5)?, 0);
    for _ in 0..nentities {
        let ty = d.u32()?;
        if ty >= ntypes {
            return err(format!("entity type id {ty} out of range"));
        }
        let e = b.fresh_entity(TypeId(ty));
        if d.u8()? == 1 {
            let name = d.str_ref()?;
            if !b.try_set_entity_name(e, name) {
                return err(format!("duplicate entity name {name:?}"));
            }
        }
    }
    let ntriples = d.u64()?;
    b.reserve(0, 0, d.count(ntriples, 13)?);
    for _ in 0..ntriples {
        let s = d.u32()?;
        let p = d.u32()?;
        if s >= nentities || p >= npreds {
            return err("triple subject/predicate id out of range");
        }
        let tag = d.u8()?;
        let o = d.u32()?;
        match tag {
            OBJ_ENTITY if o < nentities => b.link_ids(EntityId(s), PredId(p), EntityId(o)),
            OBJ_VALUE if o < nvalues => b.attr_ids(EntityId(s), PredId(p), ValueId(o)),
            OBJ_ENTITY | OBJ_VALUE => return err("triple object id out of range"),
            other => return err(format!("unknown object tag {other}")),
        }
    }
    Ok(b.freeze())
}

// ---------------------------------------------------------------------------
// Chase steps (the step → key attribution)
// ---------------------------------------------------------------------------

/// One persisted chase step: the identified pair and a number naming the
/// certifying key. What the number means is the enclosing format's to say
/// — a compiled slot in a snapshot's steps section, a declared-Σ position
/// in a WAL outcome — and the server translates at that boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRow {
    /// The identified pair (normalized).
    pub pair: (EntityId, EntityId),
    /// The certifying key, as the enclosing format numbers keys.
    pub key: u32,
}

/// Encodes a step list: each identified pair with its key number.
pub fn encode_steps(steps: &[StepRow], out: &mut Enc) {
    out.u64(steps.len() as u64);
    for s in steps {
        out.u32(s.pair.0 .0);
        out.u32(s.pair.1 .0);
        out.u32(s.key);
    }
}

/// Decodes a step list encoded by [`encode_steps`].
pub fn decode_steps(d: &mut Dec<'_>) -> Result<Vec<StepRow>, CodecError> {
    let n = d.u64()?;
    let mut steps = Vec::with_capacity(d.count(n, 12)?);
    for _ in 0..n {
        let a = d.u32()?;
        let b = d.u32()?;
        let key = d.u32()?;
        steps.push(StepRow {
            pair: (EntityId(a), EntityId(b)),
            key,
        });
    }
    Ok(steps)
}

// ---------------------------------------------------------------------------
// Triple specs (the WAL payload unit)
// ---------------------------------------------------------------------------

/// Encodes one streamed triple exactly as the server accepted it.
pub fn encode_spec(s: &TripleSpec, out: &mut Enc) {
    out.str(&s.subject);
    out.str(&s.subject_type);
    out.str(&s.pred);
    match &s.object {
        ObjSpec::Entity { name, ty } => {
            out.u8(OBJ_ENTITY);
            out.str(name);
            out.str(ty);
        }
        ObjSpec::Value(v) => {
            out.u8(OBJ_VALUE);
            out.str(v);
        }
    }
}

/// Decodes a spec encoded by [`encode_spec`].
pub fn decode_spec(d: &mut Dec<'_>) -> Result<TripleSpec, CodecError> {
    let subject = d.str()?;
    let subject_type = d.str()?;
    let pred = d.str()?;
    let object = match d.u8()? {
        OBJ_ENTITY => ObjSpec::Entity {
            name: d.str()?,
            ty: d.str()?,
        },
        OBJ_VALUE => ObjSpec::Value(d.str()?),
        other => return err(format!("unknown object tag {other}")),
    };
    Ok(TripleSpec {
        subject,
        subject_type,
        pred,
        object,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gk_graph::parse_graph;

    /// The byte-at-a-time definition the sliced CRC must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic filler bytes (an LCG), so the CRC tests need no RNG.
    fn noise(n: usize) -> Vec<u8> {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_definition() {
        let buf = noise(64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn little_endian_helpers_stop_at_the_end() {
        let b = [1u8, 0, 0, 0, 2, 0, 0, 0, 9];
        assert_eq!(le_u32(&b, 0), Some(1));
        assert_eq!(le_u64(&b, 0), Some(1 | 2 << 32));
        assert_eq!(le_u32(&b, 6), None);
        assert_eq!(le_u64(&b, 2), None);
        assert_eq!(le_u32(&b, usize::MAX), None);
    }

    #[test]
    fn hostile_counts_error_without_allocating() {
        // A value count of 2^32-1 over a three-byte remainder.
        let mut e = Enc::new();
        e.u32(0);
        e.u32(0);
        e.u32(u32::MAX);
        e.u8(0);
        e.u8(0);
        e.u8(0);
        let bytes = e.into_bytes();
        assert!(decode_graph(&mut Dec::new(&bytes)).is_err());
        let mut e = Enc::new();
        e.u64(u64::MAX);
        assert!(decode_steps(&mut Dec::new(&e.into_bytes())).is_err());
    }

    #[test]
    fn duplicate_entity_name_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.u32(1);
        e.str("album");
        e.u32(0); // predicates
        e.u32(0); // values
        e.u32(2); // entities, both named "a1"
        for _ in 0..2 {
            e.u32(0);
            e.u8(1);
            e.str("a1");
        }
        e.u64(0); // triples
        let bytes = e.into_bytes();
        let got = decode_graph(&mut Dec::new(&bytes));
        assert!(matches!(&got, Err(CodecError(m)) if m.contains("duplicate entity name")));
    }

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.str("héllo\nworld");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.str().unwrap(), "héllo\nworld");
        assert!(d.is_done());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut e = Enc::new();
        e.str("abcdef");
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.str().is_err(), "cut at {cut} must error");
        }
        // A length prefix pointing past the end must not over-read.
        let mut d = Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(d.str().is_err());
    }

    fn fixture() -> Graph {
        parse_graph(
            r#"
            alb1:album  name_of       "Anthology 2"
            alb1:album  release_year  "1996"
            alb1:album  recorded_by   art1:artist
            art1:artist name_of       "The Beatles"
            alb2:album  name_of       "Anthology 2"
            "#,
        )
        .unwrap()
    }

    #[test]
    fn graph_roundtrips_id_for_id() {
        let g = fixture();
        let mut e = Enc::new();
        encode_graph(&g, &mut e);
        let bytes = e.into_bytes();
        let g2 = decode_graph(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(g2.num_entities(), g.num_entities());
        assert_eq!(g2.num_triples(), g.num_triples());
        assert_eq!(g2.num_values(), g.num_values());
        assert_eq!(g2.num_preds(), g.num_preds());
        assert_eq!(g2.num_types(), g.num_types());
        // Ids are preserved, not just counts.
        for e in g.entities() {
            assert_eq!(g2.entity_type(e), g.entity_type(e));
            assert_eq!(g2.entity_label(e), g.entity_label(e));
        }
        assert_eq!(
            g2.triples().collect::<Vec<_>>(),
            g.triples().collect::<Vec<_>>()
        );
        assert_eq!(g2.entity_named("alb2"), g.entity_named("alb2"));
        assert_eq!(g2.value("Anthology 2"), g.value("Anthology 2"));
    }

    #[test]
    fn graph_with_anonymous_entities_roundtrips() {
        let mut b = GraphBuilder::new();
        let t = b.intern_type("thing");
        let named = b.entity("n1", "thing");
        let anon = b.fresh_entity(t);
        b.link(named, "sees", anon);
        let g = b.freeze();
        let mut e = Enc::new();
        encode_graph(&g, &mut e);
        let bytes = e.into_bytes();
        let g2 = decode_graph(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(g2.entity_named("n1"), Some(named));
        assert_eq!(g2.entity_label(anon), g.entity_label(anon));
        assert_eq!(g2.num_triples(), 1);
    }

    #[test]
    fn graph_decode_rejects_out_of_range_ids() {
        let g = fixture();
        let mut e = Enc::new();
        encode_graph(&g, &mut e);
        let bytes = e.into_bytes();
        // Every truncation errors instead of panicking.
        for cut in [1usize, 5, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_graph(&mut Dec::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn steps_roundtrip() {
        let steps = vec![
            StepRow {
                pair: (EntityId(0), EntityId(3)),
                key: 1,
            },
            StepRow {
                pair: (EntityId(2), EntityId(7)),
                key: 0,
            },
        ];
        let mut e = Enc::new();
        encode_steps(&steps, &mut e);
        let bytes = e.into_bytes();
        assert_eq!(decode_steps(&mut Dec::new(&bytes)).unwrap(), steps);
    }

    #[test]
    fn specs_roundtrip() {
        let specs = gk_graph::parse_triple_specs(
            r#"
            alb3:album name_of "Antho\"logy; 2"
            alb3:album recorded_by art9:artist
            "#,
        )
        .unwrap();
        for s in &specs {
            let mut e = Enc::new();
            encode_spec(s, &mut e);
            let bytes = e.into_bytes();
            assert_eq!(&decode_spec(&mut Dec::new(&bytes)).unwrap(), s);
        }
    }
}
