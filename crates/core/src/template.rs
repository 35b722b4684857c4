//! Query templating (§3.1, after Ma et al. \[6\]).
//!
//! Queries pulled from the streaming log are normalised into *templates* —
//! the SQL text with literal parameters stripped — so that the TDE reasons
//! about a few dozen shapes instead of millions of instances. The store
//! remembers, per template, its frequency and the most frequent literal
//! values; plan evaluation substitutes those back in ("substituting the
//! actual (most frequent) parameters to the template").

use autodbaas_simdb::{QueryKind, QueryProfile};

/// Identifier of a template within a [`TemplateStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// Strip numeric literals from SQL-ish text: every digit run becomes `?`.
///
/// This is exactly the text-level normalisation the paper describes —
/// "converted to generic templates (having no actual
/// parameters/arguments)".
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_number = false;
    for ch in sql.chars() {
        if ch.is_ascii_digit() {
            if !in_number {
                out.push('?');
                in_number = true;
            }
        } else {
            in_number = false;
            out.push(ch);
        }
    }
    out
}

/// Literal pairs monitored per template. Workload literals are drawn from
/// ~10⁹ values, so an exact count per pair grows without bound; the TDE
/// only needs the *most frequent* pair, which a Space-Saving summary of
/// this many slots tracks in O(1) state.
const LITERAL_SLOTS: usize = 8;

/// One monitored literal pair. After `n` ingested instances a pair seen
/// `f` times that is still monitored has `f <= count <= f + n /
/// LITERAL_SLOTS`, and every pair with `f > n / LITERAL_SLOTS` *is*
/// monitored (Metwally et al.'s Space-Saving guarantee).
#[derive(Debug, Clone, Copy, Default)]
struct LiteralSlot {
    literals: [i64; 2],
    count: u64,
}

/// Aggregate knowledge about one template.
#[derive(Debug, Clone)]
pub struct TemplateEntry {
    /// Stable id.
    pub id: TemplateId,
    /// Normalised text.
    pub text: String,
    /// How many instances were observed.
    pub frequency: u64,
    /// A representative query instance (kept with the template so plans can
    /// be re-evaluated later); updated to track the most frequent literals.
    pub representative: QueryProfile,
    /// Space-Saving summary of the literal pairs seen, the most counted
    /// pair — the representative's — in slot 0. An unused slot has count 0
    /// and is therefore evicted before any used one.
    slots: [LiteralSlot; LITERAL_SLOTS],
}

impl TemplateEntry {
    /// Count one instance and its literals; the representative is copied
    /// only when slot 0 changes hands. A strict-majority pair always holds
    /// it: counts sum to `frequency` and never undercount.
    fn observe(&mut self, q: &QueryProfile) {
        self.frequency += 1;
        // One pass: the pair's slot if it is monitored, else the
        // least-counted slot (the first of equals), which the pair takes
        // over, count included.
        let (mut i, mut monitored) = (0, false);
        for (k, s) in self.slots.iter().enumerate() {
            if s.literals == q.literals {
                (i, monitored) = (k, true);
                break;
            }
            if s.count < self.slots[i].count {
                i = k;
            }
        }
        self.slots[i].literals = q.literals;
        self.slots[i].count += 1;
        let overtakes = self.slots[i].count > self.slots[0].count;
        if overtakes {
            self.slots.swap(0, i);
        }
        if overtakes || (i == 0 && !monitored) {
            self.representative = q.clone();
        }
    }
}

/// The template dictionary built from the streaming log.
#[derive(Debug, Default)]
pub struct TemplateStore {
    /// Memo of template ids, indexed by all that reaches a query's
    /// normalised text: `[kind][signs of the two literals]`.
    ///
    /// [`QueryProfile::render_sql`] has a fixed shape — `"{verb} t{table}
    /// WHERE k = {lit0} AND v < {lit1}"` — and [`normalize_sql`] collapses
    /// every digit run to `?`, so only the verb (no digits in any verb) and
    /// the literals' *signs* (the `-` of a negative literal survives
    /// stripping) reach the normalised text. Indexing an array by those
    /// replaces two string allocations and a string-keyed lookup per
    /// ingested query.
    by_key: [[Option<TemplateId>; 4]; QueryKind::ALL.len()],
    entries: Vec<TemplateEntry>,
}

impl TemplateStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one query instance; returns its template id.
    pub fn ingest(&mut self, q: &QueryProfile) -> TemplateId {
        let signs = usize::from(q.literals[0] < 0) * 2 + usize::from(q.literals[1] < 0);
        let memo = &mut self.by_key[q.kind.index()][signs];
        let id = match *memo {
            Some(id) => id,
            None => {
                // First sight of this kind and signs: kinds sharing a verb
                // normalise to the same text.
                let text = normalize_sql(&q.render_sql());
                let id = match self.entries.iter().find(|e| e.text == text) {
                    Some(e) => e.id,
                    None => {
                        let id = TemplateId(self.entries.len() as u32);
                        self.entries.push(TemplateEntry {
                            id,
                            text,
                            frequency: 0,
                            representative: q.clone(),
                            slots: Default::default(),
                        });
                        id
                    }
                };
                *memo = Some(id);
                id
            }
        };
        self.entries[id.0 as usize].observe(q);
        id
    }

    /// Entry for a template id.
    pub fn entry(&self, id: TemplateId) -> &TemplateEntry {
        &self.entries[id.0 as usize]
    }

    /// Number of distinct templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries.
    pub fn iter(&self) -> impl Iterator<Item = &TemplateEntry> {
        self.entries.iter()
    }

    /// Drop all state (workload switch).
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for TemplateId {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(TemplateId(u32::decode(r)?))
    }
}

autodbaas_snapshot::snap_struct!(LiteralSlot { literals, count });

autodbaas_snapshot::snap_struct!(TemplateEntry {
    id,
    text,
    frequency,
    representative,
    slots
});

// Entries are the primary data; the memo refills as queries arrive.
autodbaas_snapshot::snap_struct!(TemplateStore { entries } defaults { by_key: Default::default() });

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_simdb::QueryKind;

    fn q(kind: QueryKind, table: u32, lits: [i64; 2]) -> QueryProfile {
        let mut q = QueryProfile::new(kind, table);
        q.literals = lits;
        q
    }

    #[test]
    fn normalize_strips_digit_runs() {
        assert_eq!(
            normalize_sql("SELECT t12 WHERE k = 94321"),
            "SELECT t? WHERE k = ?"
        );
        assert_eq!(normalize_sql("no digits"), "no digits");
        assert_eq!(normalize_sql("a1b22c333"), "a?b?c?");
    }

    #[test]
    fn same_shape_different_literals_share_template() {
        let mut store = TemplateStore::new();
        let a = store.ingest(&q(QueryKind::PointSelect, 3, [1, 2]));
        let b = store.ingest(&q(QueryKind::PointSelect, 3, [99, 7]));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.entry(a).frequency, 2);
    }

    #[test]
    fn different_tables_are_different_templates() {
        // Table ids survive normalisation? No: digits in `t12` are also
        // stripped, so templates distinguish by shape, not table — matching
        // text-level templating on real SQL where the table *name* is not a
        // literal. Our rendering makes table ids digits, so same-kind
        // queries to different tables share a template. Distinguish by kind.
        let mut store = TemplateStore::new();
        let a = store.ingest(&q(QueryKind::PointSelect, 1, [1, 2]));
        let c = store.ingest(&q(QueryKind::Join, 1, [1, 2]));
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn representative_tracks_most_frequent_literals() {
        let mut store = TemplateStore::new();
        store.ingest(&q(QueryKind::Update, 0, [5, 5]));
        store.ingest(&q(QueryKind::Update, 0, [7, 7]));
        let id = store.ingest(&q(QueryKind::Update, 0, [7, 7]));
        assert_eq!(store.entry(id).representative.literals, [7, 7]);
    }

    #[test]
    fn clear_resets() {
        let mut store = TemplateStore::new();
        store.ingest(&q(QueryKind::Insert, 0, [0, 0]));
        store.clear();
        assert!(store.is_empty());
        // The key memo must reset too, or re-ingestion would return a
        // dangling id into the cleared entry list.
        let id = store.ingest(&q(QueryKind::Insert, 0, [0, 0]));
        assert_eq!(id, TemplateId(0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn memo_key_matches_text_normalisation_exactly() {
        // Only the kind and the literal signs survive normalisation:
        // magnitudes and table ids collapse to `?`, a negative literal
        // keeps its `-`. The fast-path key must draw the same boundaries.
        let mut store = TemplateStore::new();
        let a = store.ingest(&q(QueryKind::PointSelect, 1, [5, 7]));
        let same = store.ingest(&q(QueryKind::PointSelect, 42, [12345, 0]));
        assert_eq!(a, same);
        let neg = store.ingest(&q(QueryKind::PointSelect, 1, [-5, 7]));
        assert_ne!(a, neg);
        assert_eq!(
            store.entry(a).text,
            normalize_sql("SELECT t1 WHERE k = 5 AND v < 7")
        );
        assert_eq!(
            store.entry(neg).text,
            normalize_sql("SELECT t1 WHERE k = -5 AND v < 7")
        );
        assert_eq!(store.entry(a).frequency, 2);
    }
    #[test]
    fn all_distinct_literals_leave_the_store_a_fixed_size() {
        // The production case: literals drawn from ~10⁹ values never
        // repeat, so an exact per-pair count would grow with every query.
        let mut store = TemplateStore::new();
        let mut size_early = 0;
        for i in 0..1_000_000i64 {
            let id = store.ingest(&q(QueryKind::Update, 0, [i, 1_000_000 + i]));
            if i == 999 {
                size_early = autodbaas_snapshot::encode_to_vec(&store).len();
            }
            if i % 50_000 == 0 {
                let e = store.entry(id);
                assert_eq!(e.slots.iter().map(|s| s.count).sum::<u64>(), e.frequency);
                assert_eq!(e.representative.literals, e.slots[0].literals);
            }
        }
        assert_eq!(store.len(), 1);
        assert_eq!(store.entry(TemplateId(0)).frequency, 1_000_000);
        assert_eq!(
            autodbaas_snapshot::encode_to_vec(&store).len(),
            size_early,
            "template state must not grow with the number of distinct literals"
        );
    }

    #[test]
    fn store_round_trips_through_a_snapshot() {
        let mut store = TemplateStore::new();
        for i in 0..100i64 {
            store.ingest(&q(QueryKind::PointSelect, 0, [i % 7, -(i % 3)]));
            store.ingest(&q(QueryKind::RangeSelect, 1, [i, i]));
            store.ingest(&q(QueryKind::Delete, 2, [-i, 4]));
        }
        let bytes = autodbaas_snapshot::encode_to_vec(&store);
        let mut back: TemplateStore = autodbaas_snapshot::decode_from_slice(&bytes).unwrap();
        assert_eq!(autodbaas_snapshot::encode_to_vec(&back), bytes);
        // The memo starts empty and refills to the same ids.
        for probe in [
            q(QueryKind::PointSelect, 9, [1, -1]),
            q(QueryKind::RangeSelect, 9, [1, 1]),
            q(QueryKind::Delete, 9, [-1, 1]),
            q(QueryKind::Join, 9, [1, 1]),
        ] {
            assert_eq!(back.ingest(&probe), store.ingest(&probe));
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn summary_keeps_every_heavy_hitter_and_the_majority_is_representative(
            // Half the draws collapse onto literal 0, so streams with a
            // heavy hitter, with a strict majority and with neither all occur.
            stream in prop::collection::vec(0i64..40, 1..600),
        ) {
            let mut store = TemplateStore::new();
            let mut exact = std::collections::BTreeMap::<[i64; 2], u64>::new();
            for &v in &stream {
                let lits = [(v - 20).max(0), v % 2];
                store.ingest(&q(QueryKind::Insert, 0, lits));
                *exact.entry(lits).or_default() += 1;
            }
            let n = stream.len() as u64;
            let e = store.entry(TemplateId(0));
            prop_assert_eq!(e.frequency, n);
            prop_assert_eq!(e.slots.iter().map(|s| s.count).sum::<u64>(), n);
            prop_assert_eq!(e.representative.literals, e.slots[0].literals);
            prop_assert!(e.slots.iter().all(|s| s.count <= e.slots[0].count));
            for (lits, &f) in &exact {
                let slot = e.slots.iter().find(|s| s.count > 0 && s.literals == *lits);
                if f * LITERAL_SLOTS as u64 > n {
                    prop_assert!(slot.is_some(), "{lits:?} seen {f}/{n} times fell out");
                }
                if let Some(s) = slot {
                    prop_assert!(f <= s.count && s.count <= f + n / LITERAL_SLOTS as u64);
                }
                if 2 * f > n {
                    prop_assert_eq!(e.representative.literals, *lits);
                }
            }
        }
    }
}
