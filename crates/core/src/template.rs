//! Query templating (§3.1, after Ma et al. \[6\]).
//!
//! Queries are normalised into *templates* — the SQL text with literal
//! parameters stripped — so that a few dozen shapes stand for millions of
//! instances. The store remembers each template's text and frequency. The
//! TDE does not template: its detectors re-plan a reservoir sample of actual
//! query instances, not templates filled with their most frequent
//! parameters as in the paper. The store's user is
//! [`DriftDetector`](crate::DriftDetector), which compares template
//! distributions across windows.

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

/// Aggregate knowledge about one template.
#[derive(Debug, Clone)]
pub struct TemplateEntry {
    /// Stable id.
    pub id: TemplateId,
    /// Normalised text.
    pub text: String,
    /// How many instances were observed.
    pub frequency: u64,
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
                        });
                        id
                    }
                };
                *memo = Some(id);
                id
            }
        };
        self.entries[id.0 as usize].frequency += 1;
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
}

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
        // repeat. An entry keeps no per-literal state, so a stream of
        // distinct literals leaves one entry with its first text behind.
        let mut store = TemplateStore::new();
        for i in 0..1_000_000i64 {
            store.ingest(&q(QueryKind::Update, 0, [i, 1_000_000 + i]));
        }
        assert_eq!(store.len(), 1);
        let e = store.entry(TemplateId(0));
        assert_eq!(e.frequency, 1_000_000);
        assert_eq!(
            e.text,
            normalize_sql(&q(QueryKind::Update, 0, [0, 0]).render_sql())
        );
    }
}
