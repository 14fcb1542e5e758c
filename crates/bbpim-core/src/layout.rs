//! Mapping a pre-joined relation onto crossbar rows.
//!
//! A record occupies one row per partition. Row layout (per partition):
//!
//! ```text
//! chunk 0 (bits 0..16)   control: VALID, MASK, GROUP_MASK, spare
//! chunk 1 (bits 16..32)  TRANSFER chunk (host-written mask, two-xb)
//! bits 32..data_end      attributes, packed in schema order
//! data_end..cols-64      scratch (compute) region
//! cols-64..cols          result slot (aggregation write-back, row 0)
//! ```
//!
//! The control bits get whole 16-bit chunks so the host can read a
//! page's filter mask at one cache line per row (the 32× read reduction
//! of Section II-B) and write transfer masks without read-modify-write.
//!
//! `one-xb`/`pimdb` place every attribute in partition 0; `two-xb`
//! places fact attributes (prefix `lo_`) in partition 0 and dimension
//! attributes in partition 1 — the paper's worst-case split, since SSB
//! group keys are dimension attributes while aggregated attributes are
//! fact attributes.
//!
//! Attributes listed in `exclude` (by default the synthetic `*_phone`
//! columns, which no SSB query reads) stay in host memory only; this is
//! what lets the wide record meet the paper's fits-in-one-row claim
//! with honest bit widths.

use std::collections::{BTreeMap, BTreeSet};

use bbpim_db::schema::Schema;
use bbpim_sim::compiler::ColRange;
use bbpim_sim::config::SimConfig;

use crate::error::CoreError;
use crate::modes::EngineMode;

/// Column of the record-validity bit.
pub const VALID_COL: usize = 0;
/// Column of the query filter mask.
pub const MASK_COL: usize = 1;
/// Column of the per-subgroup mask used by pim-gb.
pub const GROUP_MASK_COL: usize = 2;
/// First column of the host-writable transfer chunk.
pub const TRANSFER_COL: usize = 16;
/// First data column.
pub const DATA_START_COL: usize = 32;
/// Bits reserved for the aggregation result slot.
pub const RESULT_BITS: usize = 64;
/// Minimum scratch columns a partition must retain.
pub const MIN_SCRATCH_COLS: usize = 24;

/// Where one attribute lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrPlacement {
    /// Vertical partition index (crossbar of the record).
    pub partition: usize,
    /// Columns within that crossbar.
    pub range: ColRange,
}

/// The computed layout of a relation on the PIM module.
#[derive(Debug, Clone)]
pub struct RecordLayout {
    partitions: usize,
    chunk_bits: usize,
    cols: usize,
    placements: BTreeMap<String, AttrPlacement>,
    excluded: BTreeSet<String>,
    scratch: Vec<ColRange>,
    result_slot: Vec<ColRange>,
}

/// Default exclusion predicate: host-only attributes.
pub fn default_excluded(name: &str) -> bool {
    name.ends_with("_phone")
}

impl RecordLayout {
    /// Compute the layout of `schema` for `mode` under `cfg`, using the
    /// default by-prefix partition rule (`lo_` fact attributes to
    /// partition 0, everything else to partition 1 in `two-xb`).
    ///
    /// # Errors
    ///
    /// [`CoreError::Layout`] when any partition's attributes plus the
    /// control chunks, result slot and [`MIN_SCRATCH_COLS`] exceed the
    /// crossbar width.
    pub fn build(
        schema: &Schema,
        cfg: &SimConfig,
        mode: EngineMode,
        extra_exclude: &[String],
    ) -> Result<Self, CoreError> {
        let partitions = mode.partitions();
        Self::build_custom(
            schema,
            cfg,
            partitions,
            |name| {
                if partitions == 1 || name.starts_with("lo_") {
                    0
                } else {
                    1
                }
            },
            extra_exclude,
        )
    }

    /// Compute a layout with an explicit attribute→partition assignment.
    ///
    /// This is the hook for the paper's Section III/V-A placement
    /// optimisation: "if prior knowledge of common subgroup identifiers
    /// is available, the most common ones can be placed on the same
    /// crossbar with the attributes from the fact relation", avoiding
    /// the per-subgroup mask transfers of the worst-case split.
    ///
    /// # Errors
    ///
    /// [`CoreError::Layout`] when the assignment names a partition out
    /// of range or a partition overflows the crossbar width.
    pub fn build_custom(
        schema: &Schema,
        cfg: &SimConfig,
        partitions: usize,
        assign: impl Fn(&str) -> usize,
        extra_exclude: &[String],
    ) -> Result<Self, CoreError> {
        let cols = cfg.crossbar_cols;
        let mut cursors = vec![DATA_START_COL; partitions];
        let mut placements = BTreeMap::new();
        let mut excluded = BTreeSet::new();
        for attr in schema.attrs() {
            if default_excluded(&attr.name) || extra_exclude.contains(&attr.name) {
                excluded.insert(attr.name.clone());
                continue;
            }
            let partition = assign(&attr.name);
            if partition >= partitions {
                return Err(CoreError::Layout(format!(
                    "attribute `{}` assigned to partition {partition} of {partitions}",
                    attr.name
                )));
            }
            let lo = cursors[partition];
            cursors[partition] += attr.bits;
            placements.insert(
                attr.name.clone(),
                AttrPlacement { partition, range: ColRange::new(lo, attr.bits) },
            );
        }
        let mut scratch = Vec::with_capacity(partitions);
        let mut result_slot = Vec::with_capacity(partitions);
        for (p, &data_end) in cursors.iter().enumerate() {
            let result_lo = cols
                .checked_sub(RESULT_BITS)
                .ok_or_else(|| CoreError::Layout(format!("crossbar has only {cols} columns")))?;
            if data_end + MIN_SCRATCH_COLS > result_lo {
                return Err(CoreError::Layout(format!(
                    "partition {p}: attributes end at column {data_end}, leaving fewer than \
                     {MIN_SCRATCH_COLS} scratch columns before the result slot at {result_lo} \
                     (crossbar width {cols})"
                )));
            }
            scratch.push(ColRange::new(data_end, result_lo - data_end));
            result_slot.push(ColRange::new(result_lo, RESULT_BITS));
        }
        Ok(RecordLayout {
            partitions,
            chunk_bits: cfg.read_width_bits,
            cols,
            placements,
            excluded,
            scratch,
            result_slot,
        })
    }

    /// Number of vertical partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Crossbar width this layout was built for.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Placement of an attribute.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] for excluded (host-only) attributes,
    /// [`CoreError::Layout`] for unknown names.
    pub fn placement(&self, name: &str) -> Result<AttrPlacement, CoreError> {
        if self.excluded.contains(name) {
            return Err(CoreError::Unsupported(format!(
                "attribute `{name}` is host-only (excluded from the PIM layout)"
            )));
        }
        self.placements
            .get(name)
            .copied()
            .ok_or_else(|| CoreError::Layout(format!("attribute `{name}` not in layout")))
    }

    /// Is the attribute excluded from PIM storage?
    pub fn is_excluded(&self, name: &str) -> bool {
        self.excluded.contains(name)
    }

    /// Iterate `(name, placement)` of all PIM-resident attributes.
    pub fn placements(&self) -> impl Iterator<Item = (&str, AttrPlacement)> {
        self.placements.iter().map(|(n, p)| (n.as_str(), *p))
    }

    /// Scratch region of a partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn scratch(&self, partition: usize) -> ColRange {
        self.scratch[partition]
    }

    /// Result slot of a partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn result_slot(&self, partition: usize) -> ColRange {
        self.result_slot[partition]
    }

    /// 16-bit chunks (per partition) the host must read to fetch the
    /// given attributes of one record — the paper's `s` parameter is the
    /// total count over partitions.
    ///
    /// # Errors
    ///
    /// Propagates [`RecordLayout::placement`] failures.
    pub fn chunks_for<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<BTreeMap<usize, BTreeSet<usize>>, CoreError> {
        let mut out: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for name in names {
            let p = self.placement(name)?;
            let first = p.range.lo / self.chunk_bits;
            let last = (p.range.end() - 1) / self.chunk_bits;
            out.entry(p.partition).or_default().extend(first..=last);
        }
        Ok(out)
    }

    /// Total reads per record (`s`) for a set of attributes.
    ///
    /// # Errors
    ///
    /// Propagates [`RecordLayout::placement`] failures.
    pub fn reads_per_record<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<usize, CoreError> {
        Ok(self.chunks_for(names)?.values().map(BTreeSet::len).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::ssb::{SsbDb, SsbParams};

    fn wide_schema() -> Schema {
        SsbDb::generate(&SsbParams::tiny_for_tests()).prejoin().schema().clone()
    }

    #[test]
    fn one_xb_fits_paper_geometry() {
        let layout =
            RecordLayout::build(&wide_schema(), &SimConfig::default(), EngineMode::OneXb, &[])
                .unwrap();
        assert_eq!(layout.partitions(), 1);
        assert!(layout.scratch(0).width >= MIN_SCRATCH_COLS);
        assert_eq!(layout.result_slot(0).end(), 512);
    }

    #[test]
    fn two_xb_splits_fact_and_dimensions() {
        let layout =
            RecordLayout::build(&wide_schema(), &SimConfig::default(), EngineMode::TwoXb, &[])
                .unwrap();
        assert_eq!(layout.partitions(), 2);
        assert_eq!(layout.placement("lo_revenue").unwrap().partition, 0);
        assert_eq!(layout.placement("d_year").unwrap().partition, 1);
        assert_eq!(layout.placement("p_brand1").unwrap().partition, 1);
    }

    #[test]
    fn phones_are_host_only() {
        let layout =
            RecordLayout::build(&wide_schema(), &SimConfig::default(), EngineMode::OneXb, &[])
                .unwrap();
        assert!(layout.is_excluded("c_phone"));
        assert!(matches!(layout.placement("s_phone"), Err(CoreError::Unsupported(_))));
    }

    #[test]
    fn attributes_start_after_control_chunks_and_do_not_overlap() {
        let layout =
            RecordLayout::build(&wide_schema(), &SimConfig::default(), EngineMode::OneXb, &[])
                .unwrap();
        let mut ranges: Vec<ColRange> = layout.placements().map(|(_, p)| p.range).collect();
        ranges.sort_by_key(|r| r.lo);
        assert!(ranges[0].lo >= DATA_START_COL);
        for w in ranges.windows(2) {
            assert!(w[0].end() <= w[1].lo, "overlap between {:?} and {:?}", w[0], w[1]);
        }
        assert!(ranges.last().unwrap().end() <= layout.scratch(0).lo);
    }

    #[test]
    fn chunks_for_counts_unique_chunks() {
        let layout =
            RecordLayout::build(&wide_schema(), &SimConfig::default(), EngineMode::OneXb, &[])
                .unwrap();
        // reading the same attribute twice costs its chunks once
        let s1 = layout.reads_per_record(["lo_revenue"]).unwrap();
        let s2 = layout.reads_per_record(["lo_revenue", "lo_revenue"]).unwrap();
        assert_eq!(s1, s2);
        // adding a far-away attribute adds chunks
        let s3 = layout.reads_per_record(["lo_revenue", "d_year"]).unwrap();
        assert!(s3 > s1);
    }

    #[test]
    fn too_narrow_crossbar_rejected() {
        // wide record cannot fit in 256 columns
        let cfg = SimConfig { crossbar_cols: 256, ..SimConfig::default() };
        let r = RecordLayout::build(&wide_schema(), &cfg, EngineMode::OneXb, &[]);
        assert!(matches!(r, Err(CoreError::Layout(_))));
    }

    #[test]
    fn custom_placement_colocates_group_keys_with_fact() {
        // the paper's optimisation: d_year/p_brand1 on the fact crossbar
        let hot = ["d_year", "p_brand1"];
        let layout = RecordLayout::build_custom(
            &wide_schema(),
            &SimConfig::default(),
            2,
            |name| {
                if name.starts_with("lo_") || hot.contains(&name) {
                    0
                } else {
                    1
                }
            },
            &[],
        )
        .unwrap();
        assert_eq!(layout.placement("d_year").unwrap().partition, 0);
        assert_eq!(layout.placement("p_brand1").unwrap().partition, 0);
        assert_eq!(layout.placement("d_month").unwrap().partition, 1);
        assert_eq!(layout.placement("lo_revenue").unwrap().partition, 0);
    }

    #[test]
    fn custom_placement_rejects_out_of_range_partition() {
        let r = RecordLayout::build_custom(&wide_schema(), &SimConfig::default(), 2, |_| 5, &[]);
        assert!(matches!(r, Err(CoreError::Layout(_))));
    }

    #[test]
    fn extra_exclusions_respected() {
        let layout = RecordLayout::build(
            &wide_schema(),
            &SimConfig::default(),
            EngineMode::OneXb,
            &["p_name".to_string()],
        )
        .unwrap();
        assert!(layout.is_excluded("p_name"));
    }
}
