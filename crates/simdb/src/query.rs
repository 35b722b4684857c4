//! Structured query model.
//!
//! The simulator does not parse SQL; workload generators emit
//! [`QueryProfile`]s that carry exactly the features the planner, executor,
//! and TDE act on: how many rows are touched, how much working memory the
//! sort/hash/join stages demand, how much maintenance or temp-table memory
//! is needed, and how much data is written. The paper's TDE templates
//! query text (§3.1); ours acts on these features directly, so no SQL is
//! rendered anywhere.

use crate::knobs::KnobClass;
use std::fmt;

/// Kind of SQL statement, at the granularity the paper's classifier uses
/// (§3.1 groups queries into per-knob classes by kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryKind {
    /// Single-row lookup by key.
    PointSelect,
    /// Range scan over an index or table segment.
    RangeSelect,
    /// Multi-table join (hash or merge — demands working memory).
    Join,
    /// GROUP BY / aggregate with hashing.
    Aggregate,
    /// ORDER BY with an explicit sort.
    OrderBy,
    /// Complex aggregation over joins — the "heavy sorts" the paper adds to
    /// TPCC to trigger `work_mem` throttles.
    ComplexAggregate,
    /// Row insert.
    Insert,
    /// Row update.
    Update,
    /// Row delete (maintenance-memory pressure via dead-tuple cleanup).
    Delete,
    /// CREATE INDEX (maintenance work memory).
    CreateIndex,
    /// DROP INDEX.
    DropIndex,
    /// Temp-table creation plus aggregation over it (temp buffers).
    TempTable,
    /// ALTER TABLE (maintenance).
    AlterTable,
}

impl QueryKind {
    /// All kinds, in a stable order for histograms.
    pub const ALL: [QueryKind; 13] = [
        QueryKind::PointSelect,
        QueryKind::RangeSelect,
        QueryKind::Join,
        QueryKind::Aggregate,
        QueryKind::OrderBy,
        QueryKind::ComplexAggregate,
        QueryKind::Insert,
        QueryKind::Update,
        QueryKind::Delete,
        QueryKind::CreateIndex,
        QueryKind::DropIndex,
        QueryKind::TempTable,
        QueryKind::AlterTable,
    ];

    /// Stable index for per-kind arrays: the position in [`Self::ALL`],
    /// which lists the variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for statements that write table data (drive dirty pages + WAL).
    pub fn is_write(self) -> bool {
        matches!(
            self,
            QueryKind::Insert
                | QueryKind::Update
                | QueryKind::Delete
                | QueryKind::CreateIndex
                | QueryKind::AlterTable
        )
    }
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The feature vector of one query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// Statement kind.
    pub kind: QueryKind,
    /// Target table id (index into the catalog).
    pub table: u32,
    /// Rows read during execution.
    pub rows_examined: u64,
    /// Rows written (0 for reads).
    pub rows_written: u64,
    /// Bytes of work-area memory the sort/hash stages want
    /// (`work_mem` / `sort_buffer_size`+`join_buffer_size` pressure).
    pub sort_bytes: u64,
    /// Bytes of maintenance memory wanted (`maintenance_work_mem` /
    /// `key_buffer_size` pressure; index builds, deletes, alters).
    pub maintenance_bytes: u64,
    /// Bytes of temp-table memory wanted (`temp_buffers`/`tmp_table_size`).
    pub temp_bytes: u64,
    /// Whether the planner may parallelise this statement.
    pub parallelizable: bool,
    /// Access-locality exponent: chunk choice follows `r^locality` over the
    /// table (r uniform in [0,1)), so higher values concentrate accesses on
    /// a small hot set (TPCC's recent orders ≈ 6; YCSB zipf ≈ 2;
    /// Wikipedia's long tail ≈ 1.2 ≈ near-uniform).
    pub locality: f64,
}

impl QueryProfile {
    /// A minimal profile of the given kind against `table`; generators fill
    /// in the demand fields.
    pub fn new(kind: QueryKind, table: u32) -> Self {
        Self {
            kind,
            table,
            rows_examined: 1,
            rows_written: u64::from(kind.is_write()),
            sort_bytes: 0,
            maintenance_bytes: 0,
            temp_bytes: 0,
            parallelizable: false,
            locality: 2.0,
        }
    }

    /// Total working-memory demand across all three work-area categories.
    pub fn total_memory_demand(&self) -> u64 {
        self.sort_bytes + self.maintenance_bytes + self.temp_bytes
    }
}

/// Per-knob query classes (§3.1): "the classification of queries is done
/// based on the trigger of throttle from knobs … we create individual class
/// for each given knob."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Sort/hash/join working-memory users (`work_mem` class).
    WorkMem,
    /// Index builds, bulk deletes, alters (`maintenance_work_mem` class).
    Maintenance,
    /// Temp-table users (`temp_buffers` class).
    TempBuf,
    /// Write traffic that pressures the background writer.
    WriteHeavy,
    /// Large parallelizable scans (async/planner class).
    Parallel,
    /// Everything else (point reads and small scans).
    Other,
}

impl QueryClass {
    /// All classes in stable order — the histogram layout.
    pub const ALL: [QueryClass; 6] = [
        QueryClass::WorkMem,
        QueryClass::Maintenance,
        QueryClass::TempBuf,
        QueryClass::WriteHeavy,
        QueryClass::Parallel,
        QueryClass::Other,
    ];

    /// Stable index: the position in [`Self::ALL`], which lists the
    /// variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The knob class this query class throttles.
    pub fn knob_class(self) -> Option<KnobClass> {
        match self {
            QueryClass::WorkMem | QueryClass::Maintenance | QueryClass::TempBuf => {
                Some(KnobClass::Memory)
            }
            QueryClass::WriteHeavy => Some(KnobClass::BackgroundWriter),
            QueryClass::Parallel => Some(KnobClass::AsyncPlanner),
            QueryClass::Other => None,
        }
    }
}

/// Classify one query instance.
pub fn classify(q: &QueryProfile) -> QueryClass {
    // Temp-table demand wins (it implies aggregation over the temp table
    // too, but the throttle lands on the temp knob).
    if q.temp_bytes > 0 || q.kind == QueryKind::TempTable {
        return QueryClass::TempBuf;
    }
    if q.maintenance_bytes > 0
        || matches!(
            q.kind,
            QueryKind::CreateIndex | QueryKind::AlterTable | QueryKind::Delete
        )
    {
        return QueryClass::Maintenance;
    }
    if q.sort_bytes > 0
        || matches!(
            q.kind,
            QueryKind::Join
                | QueryKind::Aggregate
                | QueryKind::OrderBy
                | QueryKind::ComplexAggregate
        )
    {
        return QueryClass::WorkMem;
    }
    if q.kind.is_write() {
        return QueryClass::WriteHeavy;
    }
    if q.parallelizable || q.rows_examined > 100_000 {
        return QueryClass::Parallel;
    }
    QueryClass::Other
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_enum!(QueryKind {
    PointSelect = 0,
    RangeSelect = 1,
    Join = 2,
    Aggregate = 3,
    OrderBy = 4,
    ComplexAggregate = 5,
    Insert = 6,
    Update = 7,
    Delete = 8,
    CreateIndex = 9,
    DropIndex = 10,
    TempTable = 11,
    AlterTable = 12,
});

autodbaas_snapshot::snap_struct!(QueryProfile {
    kind,
    table,
    rows_examined,
    rows_written,
    sort_bytes,
    maintenance_bytes,
    temp_bytes,
    parallelizable,
    locality,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn q(kind: QueryKind) -> QueryProfile {
        QueryProfile::new(kind, 0)
    }

    #[test]
    fn class_index_is_the_position_in_all() {
        for (i, c) in QueryClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn kind_based_classification() {
        assert_eq!(
            classify(&q(QueryKind::ComplexAggregate)),
            QueryClass::WorkMem
        );
        assert_eq!(classify(&q(QueryKind::OrderBy)), QueryClass::WorkMem);
        assert_eq!(
            classify(&q(QueryKind::CreateIndex)),
            QueryClass::Maintenance
        );
        assert_eq!(classify(&q(QueryKind::Delete)), QueryClass::Maintenance);
        assert_eq!(classify(&q(QueryKind::TempTable)), QueryClass::TempBuf);
        assert_eq!(classify(&q(QueryKind::Insert)), QueryClass::WriteHeavy);
        assert_eq!(classify(&q(QueryKind::PointSelect)), QueryClass::Other);
    }

    #[test]
    fn demand_overrides_kind() {
        // A range select carrying sort demand classifies as WorkMem.
        let mut rs = q(QueryKind::RangeSelect);
        rs.sort_bytes = 1024;
        assert_eq!(classify(&rs), QueryClass::WorkMem);
        // Temp demand wins over sort demand.
        let mut tt = q(QueryKind::Aggregate);
        tt.temp_bytes = 1024;
        assert_eq!(classify(&tt), QueryClass::TempBuf);
    }

    #[test]
    fn big_parallel_scans_classify_async() {
        let mut big = q(QueryKind::RangeSelect);
        big.rows_examined = 1_000_000;
        assert_eq!(classify(&big), QueryClass::Parallel);
        let mut par = q(QueryKind::RangeSelect);
        par.parallelizable = true;
        assert_eq!(classify(&par), QueryClass::Parallel);
    }

    #[test]
    fn classes_map_to_knob_classes() {
        assert_eq!(QueryClass::WorkMem.knob_class(), Some(KnobClass::Memory));
        assert_eq!(
            QueryClass::WriteHeavy.knob_class(),
            Some(KnobClass::BackgroundWriter)
        );
        assert_eq!(
            QueryClass::Parallel.knob_class(),
            Some(KnobClass::AsyncPlanner)
        );
        assert_eq!(QueryClass::Other.knob_class(), None);
    }

    #[test]
    fn kind_index_is_the_position_in_all() {
        for (i, k) in QueryKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i, "{k}");
        }
    }

    #[test]
    fn write_classification() {
        assert!(QueryKind::Insert.is_write());
        assert!(QueryKind::CreateIndex.is_write());
        assert!(!QueryKind::Join.is_write());
        assert!(!QueryKind::TempTable.is_write()); // temp data is not table data
        assert!(!QueryKind::DropIndex.is_write()); // metadata only
    }

    #[test]
    fn memory_demand_sums_categories() {
        let mut q = QueryProfile::new(QueryKind::TempTable, 0);
        q.sort_bytes = 10;
        q.maintenance_bytes = 20;
        q.temp_bytes = 30;
        assert_eq!(q.total_memory_demand(), 60);
    }
}
