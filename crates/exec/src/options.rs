//! Execution options: the seed and scan configuration every stream is
//! opened with, and the scan layer's observability handles.

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Seed for all sampling operators in the plan (drawn in traversal
    /// order, so a given `(plan, seed)` pair is reproducible).
    pub seed: u64,
    /// Visit each streaming scan's blocks in a seeded random order instead
    /// of physical order (see [`crate::open_stream`]). This makes the
    /// online driver's random-scan-order assumption true by construction
    /// on sorted or clustered data. Off by default; materialized sides
    /// (join build sides, blocking samplers' inputs) ignore it. Turning it
    /// on changes which realization a `(plan, seed)` pair produces, but the
    /// shuffled realization is itself byte-reproducible per seed.
    pub shuffle_scan: bool,
    /// Disable projection/predicate pushdown into the streaming scans:
    /// every scan gathers every column and `Filter`s stay separate
    /// operators. The realized sample, lineage and estimates are identical
    /// either way (pruning only drops columns nothing downstream reads, and
    /// a predicate is only fused when no sampler sits between it and the
    /// scan) — this switch exists for benchmark baselines and for the
    /// differential tests that pin that equivalence.
    pub disable_pushdown: bool,
    /// Observability handles for the streaming scans (disabled no-ops by
    /// default; see [`ScanObs::new`]).
    pub scan_obs: ScanObs,
    /// Needed-column analysis override for projection pushdown. `None`
    /// (the default) analyzes the streamed plan itself, with its root
    /// output fully observed. A caller that streams a *sub*-plan and reads
    /// only part of its output — the online driver streams the aggregate's
    /// input but evaluates just the aggregate arguments and GROUP BY keys —
    /// passes the analysis of the full consuming plan here instead.
    pub scan_cols: Option<sa_plan::ScanColumnMap>,
}

/// Observability handles for the streaming scans. The default (disabled)
/// handles make every update a single untaken branch; [`ScanObs::new`]
/// wires the `sa_scan_*` counters into a live [`sa_obs::Registry`].
#[derive(Debug, Clone, Default)]
pub struct ScanObs {
    /// Column segments gathered, counted once per logical scan per stream
    /// open (a 2-column query over a 16-column table adds 2).
    pub cols_gathered: sa_obs::Counter,
    /// Blocks (pages) of a scan range whose rows were all dropped by a
    /// scan-level predicate — their non-predicate columns were never
    /// materialized into a batch.
    pub pages_skipped: sa_obs::Counter,
    /// Rows the streaming scans consumed (every row that had its chance to
    /// reach the output, before any scan-level predicate).
    pub rows_scanned: sa_obs::Counter,
    /// Rows the streaming scans materialized into batches (after the
    /// scan-level predicate; equals `rows_scanned` when nothing is pushed).
    pub rows_gathered: sa_obs::Counter,
}

impl ScanObs {
    /// Handles recording into `registry` under the `sa_scan_*` names.
    pub fn new(registry: &sa_obs::Registry) -> ScanObs {
        ScanObs {
            cols_gathered: registry.counter("sa_scan_cols_gathered_total"),
            pages_skipped: registry.counter("sa_scan_pages_skipped_total"),
            rows_scanned: registry.counter("sa_scan_rows_scanned_total"),
            rows_gathered: registry.counter("sa_scan_rows_gathered_total"),
        }
    }
}
