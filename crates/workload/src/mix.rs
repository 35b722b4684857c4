//! Data-driven workload mixes.
//!
//! Every benchmark (TPCC, YCSB, …) reduces to a weighted set of
//! [`TemplateSpec`]s — query shapes with parameter ranges — plus a catalog
//! layout and a default request rate. [`MixWorkload`] samples from the mix.

use crate::arrival::ArrivalProcess;
use autodbaas_simdb::{Catalog, QueryKind, QueryProfile};
use autodbaas_telemetry::dist::{categorical, Zipf};
use rand::{Rng, RngCore};

/// One query shape with parameter ranges. Ranges are sampled log-uniformly
/// so row counts span orders of magnitude like real template instances.
#[derive(Debug, Clone)]
pub struct TemplateSpec {
    /// Relative frequency in the mix.
    pub weight: f64,
    /// Statement kind.
    pub kind: QueryKind,
    /// Inclusive range of table ids this template targets.
    pub tables: (u32, u32),
    /// Rows examined, `[lo, hi]`.
    pub rows: (u64, u64),
    /// Rows written, `[lo, hi]`.
    pub writes: (u64, u64),
    /// Sort/hash work-area demand in bytes, `[lo, hi]`.
    pub sort_bytes: (u64, u64),
    /// Maintenance work-area demand in bytes, `[lo, hi]`.
    pub maintenance_bytes: (u64, u64),
    /// Temp-table demand in bytes, `[lo, hi]`.
    pub temp_bytes: (u64, u64),
    /// Whether the planner may parallelise it.
    pub parallelizable: bool,
    /// Access-locality exponent (see `QueryProfile::locality`).
    pub locality: f64,
}

impl TemplateSpec {
    /// A read template with everything zeroed; builders chain from here.
    pub fn read(weight: f64, kind: QueryKind, tables: (u32, u32), rows: (u64, u64)) -> Self {
        Self {
            weight,
            kind,
            tables,
            rows,
            writes: (0, 0),
            sort_bytes: (0, 0),
            maintenance_bytes: (0, 0),
            temp_bytes: (0, 0),
            parallelizable: false,
            locality: 2.0,
        }
    }

    /// A write template.
    pub fn write(
        weight: f64,
        kind: QueryKind,
        tables: (u32, u32),
        rows: (u64, u64),
        writes: (u64, u64),
    ) -> Self {
        let mut t = Self::read(weight, kind, tables, rows);
        t.writes = writes;
        t
    }

    /// Set the sort-memory demand range.
    pub fn with_sort(mut self, lo: u64, hi: u64) -> Self {
        self.sort_bytes = (lo, hi);
        self
    }

    /// Set the maintenance-memory demand range.
    pub fn with_maintenance(mut self, lo: u64, hi: u64) -> Self {
        self.maintenance_bytes = (lo, hi);
        self
    }

    /// Set the temp-table demand range.
    pub fn with_temp(mut self, lo: u64, hi: u64) -> Self {
        self.temp_bytes = (lo, hi);
        self
    }

    /// Mark parallelizable.
    pub fn parallel(self) -> Self {
        Self {
            parallelizable: true,
            ..self
        }
    }

    /// Set the access-locality exponent.
    pub fn with_locality(mut self, locality: f64) -> Self {
        self.locality = locality;
        self
    }
}

fn log_uniform(rng: &mut dyn RngCore, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        return lo;
    }
    let (l, h) = ((lo.max(1)) as f64, hi as f64);
    let x = (l.ln() + rng.gen::<f64>() * (h.ln() - l.ln())).exp();
    (x as u64).clamp(lo, hi)
}

/// A sampled workload: weighted templates over a catalog.
#[derive(Debug, Clone)]
pub struct MixWorkload {
    name: &'static str,
    templates: Vec<TemplateSpec>,
    weights: Vec<f64>,
    table_zipf: Zipf,
    table_offset: u32,
    catalog: Catalog,
    default_arrival: ArrivalProcess,
}

impl MixWorkload {
    /// Assemble a workload. `catalog` is the dataset this mix runs against;
    /// `default_arrival` is the paper's request rate for it.
    pub fn new(
        name: &'static str,
        templates: Vec<TemplateSpec>,
        catalog: Catalog,
        default_arrival: ArrivalProcess,
    ) -> Self {
        assert!(
            !templates.is_empty(),
            "a workload needs at least one template"
        );
        let weights = templates.iter().map(|t| t.weight).collect();
        let n_tables = catalog.len().max(1);
        Self {
            name,
            templates,
            weights,
            table_zipf: Zipf::new(n_tables, 0.9),
            table_offset: 0,
            catalog,
            default_arrival,
        }
    }

    /// Workload name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The dataset this workload runs against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The paper's request rate for this workload.
    pub fn default_arrival(&self) -> &ArrivalProcess {
        &self.default_arrival
    }

    /// Rebase all table ids by `offset` — used when several datasets are
    /// loaded into one instance (the Fig. 14 workload-switch experiment).
    pub fn rebase_tables(&mut self, offset: u32) {
        self.table_offset = offset;
    }

    /// Template list (inspection / adulteration).
    pub fn templates(&self) -> &[TemplateSpec] {
        &self.templates
    }

    /// Draw the next query.
    pub fn next_query(&self, rng: &mut dyn RngCore) -> QueryProfile {
        let idx = categorical(rng, &self.weights);
        self.instantiate(&self.templates[idx], rng)
    }

    /// Instantiate a specific template (used by the adulterator).
    pub fn instantiate(&self, t: &TemplateSpec, rng: &mut dyn RngCore) -> QueryProfile {
        // Pick a table: zipf over the template's table span, so the hot
        // tables stay hot.
        let span = t.tables.1.saturating_sub(t.tables.0) as usize + 1;
        let pick = if span <= 1 {
            t.tables.0
        } else {
            let z = self.table_zipf.sample(rng) % span;
            t.tables.0 + z as u32
        };
        let mut q = QueryProfile::new(t.kind, pick + self.table_offset);
        q.rows_examined = log_uniform(rng, t.rows.0, t.rows.1);
        q.rows_written = log_uniform(rng, t.writes.0, t.writes.1);
        q.sort_bytes = log_uniform(rng, t.sort_bytes.0, t.sort_bytes.1);
        q.maintenance_bytes = log_uniform(rng, t.maintenance_bytes.0, t.maintenance_bytes.1);
        q.temp_bytes = log_uniform(rng, t.temp_bytes.0, t.temp_bytes.1);
        q.parallelizable = t.parallelizable;
        q.locality = t.locality;
        q
    }
}

use autodbaas_snapshot::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(TemplateSpec {
    weight,
    kind,
    tables,
    rows,
    writes,
    sort_bytes,
    maintenance_bytes,
    temp_bytes,
    parallelizable,
    locality
});

impl Snap for MixWorkload {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_str(self.name);
        self.templates.encode(w);
        self.weights.encode(w);
        self.table_zipf.encode(w);
        self.table_offset.encode(w);
        self.catalog.encode(w);
        self.default_arrival.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        // Workload names are a small closed set; the telemetry interner
        // restores the `&'static str` without leaking per-decode.
        let name = autodbaas_telemetry::intern_kind(r.get_str()?);
        Ok(Self {
            name,
            templates: Snap::decode(r)?,
            weights: Snap::decode(r)?,
            table_zipf: Snap::decode(r)?,
            table_offset: Snap::decode(r)?,
            catalog: Snap::decode(r)?,
            default_arrival: Snap::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> MixWorkload {
        let catalog = Catalog::synthetic(4, 10_000_000, 100, 1);
        MixWorkload::new(
            "toy",
            vec![
                TemplateSpec::read(0.8, QueryKind::PointSelect, (0, 3), (1, 10)),
                TemplateSpec::write(0.2, QueryKind::Insert, (0, 3), (1, 1), (1, 5)),
            ],
            catalog,
            ArrivalProcess::Constant(100.0),
        )
    }

    #[test]
    fn mix_roughly_matches_weights() {
        let w = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let mut reads = 0;
        for _ in 0..5_000 {
            if w.next_query(&mut rng).kind == QueryKind::PointSelect {
                reads += 1;
            }
        }
        let frac = reads as f64 / 5_000.0;
        assert!((frac - 0.8).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn sampled_rows_respect_ranges() {
        let w = toy();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1_000 {
            let q = w.next_query(&mut rng);
            assert!(q.rows_examined >= 1 && q.rows_examined <= 10);
            assert!(q.table < 4);
        }
    }

    #[test]
    fn rebase_shifts_tables() {
        let mut w = toy();
        w.rebase_tables(100);
        let mut rng = StdRng::seed_from_u64(5);
        let q = w.next_query(&mut rng);
        assert!(q.table >= 100 && q.table < 104);
    }

    #[test]
    fn log_uniform_respects_bounds_and_degenerate_ranges() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let v = log_uniform(&mut rng, 10, 1000);
            assert!((10..=1000).contains(&v));
        }
        assert_eq!(log_uniform(&mut rng, 5, 5), 5);
        assert_eq!(log_uniform(&mut rng, 0, 0), 0);
    }

    #[test]
    fn log_uniform_is_log_scaled() {
        // Over [1, 1M], the geometric mean should be ~1000 (not ~500k).
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20_000;
        let mean_log: f64 = (0..n)
            .map(|_| (log_uniform(&mut rng, 1, 1_000_000).max(1) as f64).ln())
            .sum::<f64>()
            / n as f64;
        let geo = mean_log.exp();
        assert!((300.0..3000.0).contains(&geo), "geometric mean {geo}");
    }
}
