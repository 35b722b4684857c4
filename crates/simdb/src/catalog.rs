//! Table catalog: what data the simulated database holds.
//!
//! Sizes matter to the TDE — the working-set gauge compares the *actual
//! working page set* against `shared_buffers`, and the entropy filter has to
//! recognise "database much larger than buffer memory" situations. The
//! catalog tracks per-table row counts and widths and exposes the derived
//! byte/page sizes everything else consumes.

/// Logical page size of the simulated storage engine (PostgreSQL's 8 KiB).
pub const PAGE_BYTES: u64 = 8 * 1024;

/// One table's physical statistics.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table id; also its index in the catalog.
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// Live row count.
    pub rows: u64,
    /// Average row width in bytes.
    pub row_bytes: u32,
    /// Number of secondary indexes (affects write amplification and whether
    /// sorts can be satisfied by index order).
    pub indexes: u32,
}

impl Table {
    /// Heap size in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.rows * self.row_bytes as u64
    }

    /// Heap size in pages (rounded up).
    pub fn pages(&self) -> u64 {
        self.heap_bytes().div_ceil(PAGE_BYTES)
    }
}

/// The set of tables in one database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a table and return its id.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        rows: u64,
        row_bytes: u32,
        indexes: u32,
    ) -> u32 {
        let id = self.tables.len() as u32;
        self.tables.push(Table {
            id,
            name: name.into(),
            rows,
            row_bytes,
            indexes,
        });
        id
    }

    /// Table by id. Panics on a foreign id (caller bug).
    pub fn table(&self, id: u32) -> &Table {
        &self.tables[id as usize]
    }

    /// Mutable table access (row-count maintenance by the executor).
    pub fn table_mut(&mut self, id: u32) -> &mut Table {
        &mut self.tables[id as usize]
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables exist.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterate over tables.
    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// Total heap bytes across tables — the "database size" of §5.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.heap_bytes()).sum()
    }

    /// Total pages across tables.
    pub fn total_pages(&self) -> u64 {
        self.tables.iter().map(|t| t.pages()).sum()
    }

    /// Build a catalog of `n_tables` tables totalling ~`total_bytes`, with a
    /// Zipf-ish size skew (a few big tables, a long tail) like real schemas.
    pub fn synthetic(
        n_tables: usize,
        total_bytes: u64,
        row_bytes: u32,
        indexes_per_table: u32,
    ) -> Self {
        assert!(n_tables > 0);
        let mut cat = Self::new();
        // Harmonic weights: table k gets weight 1/(k+1).
        let weights: Vec<f64> = (0..n_tables).map(|k| 1.0 / (k + 1) as f64).collect();
        let norm: f64 = weights.iter().sum();
        for (k, w) in weights.iter().enumerate() {
            let bytes = (total_bytes as f64 * w / norm).max(row_bytes as f64);
            let rows = (bytes / row_bytes as f64).ceil() as u64;
            cat.add_table(format!("t{k}"), rows, row_bytes, indexes_per_table);
        }
        cat
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_struct!(Table {
    id,
    name,
    rows,
    row_bytes,
    indexes
});

/// Sizes are derived with plain arithmetic (`rows * row_bytes` and its sum
/// over tables), which a built catalog never overflows, but a snapshot is
/// untrusted: decode rejects a catalog whose table or total byte size does
/// not fit in `u64`. A total that fits also bounds the executor's chunk
/// address space, at most `total / PAGE_BYTES` plus two chunks per table.
impl autodbaas_snapshot::Snap for Catalog {
    fn encode(&self, w: &mut autodbaas_snapshot::SnapWriter) {
        self.tables.encode(w);
    }
    fn decode(
        r: &mut autodbaas_snapshot::SnapReader<'_>,
    ) -> Result<Self, autodbaas_snapshot::SnapError> {
        use autodbaas_snapshot::SnapError::Malformed;
        let tables = Vec::<Table>::decode(r)?;
        let mut total = 0u64;
        for t in &tables {
            let heap = t
                .rows
                .checked_mul(u64::from(t.row_bytes))
                .ok_or(Malformed("table size"))?;
            total = total.checked_add(heap).ok_or(Malformed("catalog size"))?;
        }
        Ok(Self { tables })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sizes_derive_from_rows() {
        let mut c = Catalog::new();
        let id = c.add_table("orders", 1000, 100, 2);
        let t = c.table(id);
        assert_eq!(t.heap_bytes(), 100_000);
        assert_eq!(t.pages(), 100_000u64.div_ceil(PAGE_BYTES));
    }

    #[test]
    fn synthetic_total_is_close_to_target() {
        let target = 1_000_000_000u64; // 1 GB
        let c = Catalog::synthetic(50, target, 200, 1);
        assert_eq!(c.len(), 50);
        let total = c.total_bytes();
        let err = (total as f64 - target as f64).abs() / target as f64;
        assert!(err < 0.01, "total {total} vs target {target}");
    }

    #[test]
    fn synthetic_sizes_are_skewed() {
        let c = Catalog::synthetic(10, 10_000_000, 100, 0);
        assert!(c.table(0).rows > c.table(9).rows * 5);
    }

    #[test]
    fn ids_are_dense() {
        let c = Catalog::synthetic(5, 1_000_000, 100, 0);
        for (i, t) in c.iter().enumerate() {
            assert_eq!(t.id as usize, i);
        }
    }

    #[test]
    fn pages_round_up() {
        let mut c = Catalog::new();
        let id = c.add_table("tiny", 1, 10, 0);
        assert_eq!(c.table(id).pages(), 1);
    }
}
