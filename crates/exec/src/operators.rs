//! Vectorized physical operators.
//!
//! Every operator is a [`PageStream`]: a pull-based iterator of [`Page`]s
//! that terminates with an end page (paper §4.3 — the same marker later PRs
//! reuse to shut drivers down mid-query). Streaming operators (filter,
//! project, limit, join probe) transform one page at a time; blocking
//! operators (aggregates, sort, top-N) drain their child on the first pull
//! and then emit their buffered result.
//!
//! **Filter hand-over.** [`FilterOp`] does not have to copy the rows it
//! keeps: through [`PageStream::next_selected`] it hands on its *input* page
//! plus a [`Selection`] naming the survivors. Only [`ProjectOp`] and
//! [`PartialHashAggOp`] ask that way; `next_page` — what every other
//! operator, sink, exchange writer and test calls — still returns dense
//! pages, so an operator that does not ask for a selection can never see
//! one. A consumer works over the whole page and skips the unselected rows
//! when the selection is dense ([`Selection::is_dense`]), and copies the few
//! survivors out first when it is sparse.
//!
//! Aggregation follows the paper's two-phase model exactly: the partial
//! operator emits each aggregate's state as one ordinary page column — the
//! column it would finish to — and the final operator merges them (possibly
//! from many upstream tasks) and emits the finished values. Both phases run
//! on the vectorized hash engine: pages are hashed column-at-a-time
//! ([`accordion_data::hash::hash_columns`]), rows are mapped to dense group
//! ids by an open-addressing [`GroupTable`] — behind a small per-page memo
//! of recently seen keys, so a run of equal keys costs one typed cell
//! compare per row instead of a key encode and a table probe, and with the
//! first table slots of every 32 rows loaded together before any of them
//! is probed ([`GroupTable::warm`]), so a table past the cache takes its
//! misses a batch at a time — and typed [`AggAccumulator`] vectors are
//! updated with per-column kernels — no per-row `Value` materialization on
//! the hot path. Groups leave in the order somebody reads: a partial
//! aggregate emits them in table (first-seen) order, because its rows only
//! ever feed a final aggregate that merges each group whatever its arrival
//! order; a final aggregate does too when a sort covering every group
//! column follows it in its pipeline (see `PipelineSpec::table_order`), and
//! otherwise emits them sorted by their encoded key bytes (the iteration
//! order of the `BTreeMap` this engine replaced), so output is
//! deterministic for a given input set regardless of page arrival order.
//! Each output page is built from its own chunk of group ids.

use std::collections::VecDeque;
use std::sync::Arc;

use accordion_common::{AccordionError, Result};
use accordion_data::column::Column;
use accordion_data::grouptable::GroupTable;
use accordion_data::hash::{hash_columns, hash_rows};
use accordion_data::page::{DataPage, EndReason, Page};
use accordion_data::rowkey::{decode_keys_to_columns, encode_key_into, key_cells_equal};
use accordion_data::schema::{Schema, SchemaRef};
use accordion_data::sort::{sort_page, SortKey, TopNAccumulator};
use accordion_data::types::DataType;
use accordion_expr::agg::{AggAccumulator, AggSpec};
use accordion_expr::scalar::Expr;
use accordion_storage::split::{Split, SplitPages};

use crate::splits::{SplitFeed, SplitQueue};

/// Pull-based page iterator; yields `Page::End` exactly once, after which
/// callers must stop pulling.
pub trait PageStream {
    fn next_page(&mut self) -> Result<Page>;

    /// [`next_page`](PageStream::next_page) for a consumer that can work on
    /// part of a page: a filter may answer with its input page and the
    /// [`Selection`] of rows that passed, instead of a copy of those rows.
    /// The rows the stream produced are the selected ones (all of them
    /// without a selection), in page order. Streams that have nothing to
    /// hand over keep this default.
    fn next_selected(&mut self) -> Result<(Page, Option<Selection>)> {
        Ok((self.next_page()?, None))
    }
}

/// The rows of a page that passed a filter: ascending row ids, at least one
/// and not all of them (an untouched page travels without a selection, a
/// page with no survivor not at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection(Vec<u32>);

impl Selection {
    /// A consumer works on the whole page and skips the unselected rows
    /// when at least one row in this many survived, and copies the
    /// survivors out first otherwise: past that point, evaluating
    /// arguments for rows nobody wants costs more than the copy saves.
    const DENSE_ONE_IN: usize = 2;

    pub fn rows(&self) -> &[u32] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether this selection keeps enough of a `page_rows`-row page to be
    /// consumed in place rather than copied out.
    pub fn is_dense(&self, page_rows: usize) -> bool {
        self.len() * Self::DENSE_ONE_IN >= page_rows
    }
}

/// The dense page a selection stands for: the page itself without one, a
/// copy of the selected rows with one.
fn materialize(page: Arc<DataPage>, selection: Option<&Selection>) -> Arc<DataPage> {
    match selection {
        None => page,
        Some(sel) => Arc::new(page.gather(sel.rows())),
    }
}

/// How a consumer takes a handed-over page: as it is under a dense
/// selection (which it must then honour), as a dense copy of the survivors
/// under a sparse one.
fn dense_or_copied(
    page: Arc<DataPage>,
    selection: Option<Selection>,
) -> (Arc<DataPage>, Option<Selection>) {
    match selection {
        Some(sel) if sel.is_dense(page.row_count()) => (page, Some(sel)),
        sel => (materialize(page, sel.as_ref()), None),
    }
}

/// Boxed stream alias used to chain operators.
pub type BoxedStream = Box<dyn PageStream>;

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// The one scan operator: streams the pages of splits claimed one at a
/// time from a [`SplitFeed`], applying the scan's column projection. It
/// ends at the first claim that returns no split: the pool is exhausted,
/// or the task was retired (the paper's EndSignal, §4.3).
pub struct ScanSource {
    feed: SplitFeed,
    projection: Vec<usize>,
    page_rows: usize,
    current: Option<SplitPages>,
}

impl ScanSource {
    /// A scan of `splits` as the only claimant of a pool of its own.
    pub fn new(splits: Vec<Split>, projection: Vec<usize>, page_rows: usize) -> Self {
        let feed = SplitFeed::new(Arc::new(SplitQueue::new(splits)), 0, None);
        ScanSource::claiming(feed, projection, page_rows)
    }

    /// A scan claiming from its stage's split pool through `feed`.
    pub fn claiming(feed: SplitFeed, projection: Vec<usize>, page_rows: usize) -> Self {
        ScanSource {
            feed,
            projection,
            page_rows,
            current: None,
        }
    }
}

impl PageStream for ScanSource {
    fn next_page(&mut self) -> Result<Page> {
        loop {
            let current = match &mut self.current {
                Some(current) => current,
                None => match self.feed.claim() {
                    Some(split) => self.current.insert(split.open(self.page_rows)?),
                    None => return Ok(Page::end(EndReason::ScanExhausted)),
                },
            };
            match current.next_page()? {
                Some(page) if page.is_empty() => {}
                Some(page) => return Ok(Page::data(page.project(&self.projection))),
                None => self.current = None,
            }
        }
    }
}

/// Replays a pre-materialized list of pages, then ends with `end_reason`:
/// how operator tests and probes feed an operator. Pages are `Arc`-shared,
/// so replaying the same buffer to many consumers never deep-copies.
pub struct QueueSource {
    pages: VecDeque<Arc<DataPage>>,
    end_reason: EndReason,
}

impl QueueSource {
    pub fn new(pages: Vec<Arc<DataPage>>, end_reason: EndReason) -> Self {
        QueueSource {
            pages: pages.into(),
            end_reason,
        }
    }
}

impl PageStream for QueueSource {
    fn next_page(&mut self) -> Result<Page> {
        loop {
            match self.pages.pop_front() {
                Some(p) if p.is_empty() => continue,
                Some(p) => return Ok(Page::Data(p)),
                None => return Ok(Page::end(self.end_reason)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

/// Row filter: evaluates the predicate per page. Asked through
/// [`next_selected`](PageStream::next_selected) it hands on the input page
/// and the surviving row ids; asked through `next_page` it copies the
/// survivors into a dense page.
pub struct FilterOp {
    input: BoxedStream,
    predicate: Expr,
}

impl FilterOp {
    pub fn new(input: BoxedStream, predicate: Expr) -> Self {
        FilterOp { input, predicate }
    }
}

impl PageStream for FilterOp {
    fn next_page(&mut self) -> Result<Page> {
        Ok(match self.next_selected()? {
            (Page::Data(page), selection) => Page::Data(materialize(page, selection.as_ref())),
            (end, _) => end,
        })
    }

    fn next_selected(&mut self) -> Result<(Page, Option<Selection>)> {
        loop {
            match self.input.next_page()? {
                Page::End(e) => return Ok((Page::End(e), None)),
                Page::Data(page) => {
                    let indices = self.predicate.filter_indices(&page)?;
                    if indices.is_empty() {
                        continue;
                    }
                    let all = indices.len() == page.row_count();
                    return Ok((Page::Data(page), (!all).then_some(Selection(indices))));
                }
            }
        }
    }
}

/// Column computation: evaluates each projected expression vectorized. Under
/// a dense selection the expressions run over the whole input page and only
/// the output columns' survivors are copied; under a sparse one the
/// survivors are copied first.
pub struct ProjectOp {
    input: BoxedStream,
    exprs: Vec<Expr>,
}

impl ProjectOp {
    pub fn new(input: BoxedStream, exprs: Vec<Expr>) -> Self {
        ProjectOp { input, exprs }
    }
}

impl PageStream for ProjectOp {
    fn next_page(&mut self) -> Result<Page> {
        let (page, selection) = match self.input.next_selected()? {
            (Page::End(e), _) => return Ok(Page::End(e)),
            (Page::Data(page), selection) => (page, selection),
        };
        if self.exprs.is_empty() {
            let rows = selection.map_or(page.row_count(), |s| s.len());
            return Ok(Page::data(DataPage::row_count_only(rows)));
        }
        let (page, selection) = dense_or_copied(page, selection);
        let cols = self
            .exprs
            .iter()
            .map(|e| {
                let col = e.evaluate(&page)?;
                Ok(match &selection {
                    Some(sel) => col.gather(sel.rows()),
                    None => col,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Page::data(DataPage::new(cols)))
    }
}

/// Plain LIMIT: truncates the stream after `n` rows and stops pulling its
/// child (the end-signal path of the paper's shutdown protocol).
pub struct LimitOp {
    input: BoxedStream,
    remaining: usize,
}

impl LimitOp {
    pub fn new(input: BoxedStream, n: usize) -> Self {
        LimitOp {
            input,
            remaining: n,
        }
    }
}

impl PageStream for LimitOp {
    fn next_page(&mut self) -> Result<Page> {
        if self.remaining == 0 {
            return Ok(Page::end(EndReason::EndSignal));
        }
        match self.input.next_page()? {
            Page::End(e) => Ok(Page::End(e)),
            Page::Data(page) => {
                if page.row_count() <= self.remaining {
                    self.remaining -= page.row_count();
                    Ok(Page::Data(page))
                } else {
                    let cut = page.slice(0, self.remaining);
                    self.remaining = 0;
                    Ok(Page::data(cut))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Maps each row of a page to a dense group id: hash every key column at
/// once with the vectorized kernels, then — for a key the page's memo has
/// not just seen — encode the row's key into one amortized scratch buffer
/// and probe the open-addressing table.
///
/// The memo is what makes a run of equal keys (q1's six groups, an order's
/// lineitems) cheap: per page it remembers, for a few recent hashes, a row
/// that had that hash and the group it got. A later row with the same hash
/// **and** the same key cells as that row (typed, column-wise, validity
/// included — [`key_cells_equal`]) is the same key, so it takes the same id
/// with no encode and no probe. The table sees every distinct key in the
/// order it would have without the memo, so group ids, their key order and
/// the key arena are unchanged.
struct GroupIndex {
    table: GroupTable,
    key_scratch: Vec<u8>,
    memo: [Seen; MEMO_SLOTS],
    /// Per-row group ids of the page most recently passed to [`assign`].
    gids: Vec<u32>,
}

/// One memo entry: a row of the current page, its key hash and its group.
#[derive(Clone, Copy)]
struct Seen {
    hash: u64,
    row: u32,
    gid: u32,
}

const MEMO_SLOTS: usize = 64;
/// Rows whose first table slots are loaded together ([`GroupTable::warm`])
/// before any of them is probed, in every loop that probes a page of
/// hashes: 16 and 64 read within noise of 32.
const WARM_ROWS: usize = 32;
/// `Seen::row` of an empty memo slot; also the id of a row [`assign`] has
/// not reached yet.
const NONE: u32 = u32::MAX;

impl GroupIndex {
    fn new() -> Self {
        GroupIndex {
            table: GroupTable::new(),
            key_scratch: Vec::new(),
            memo: [Seen {
                hash: 0,
                row: NONE,
                gid: NONE,
            }; MEMO_SLOTS],
            gids: Vec::new(),
        }
    }

    /// Assigns every selected row of `page` (every row without a selection)
    /// a group id, inserting unseen keys, and leaves one id per page row in
    /// `self.gids`. An unselected row gets the id one past the last group:
    /// a spare accumulator slot the caller adds for the fold and drops
    /// after it, so the accumulator kernels need no notion of a selection.
    fn assign(&mut self, page: &DataPage, key_cols: &[usize], selection: Option<&Selection>) {
        let hashes = hash_rows(page, key_cols);
        for seen in self.memo.iter_mut() {
            seen.row = NONE;
        }
        self.gids.clear();
        match selection {
            None => {
                self.gids.reserve(hashes.len());
                for (row, &hash) in hashes.iter().enumerate() {
                    if row % WARM_ROWS == 0 {
                        self.table
                            .warm(&hashes[row..hashes.len().min(row + WARM_ROWS)]);
                    }
                    let gid = self.group_of(page, key_cols, row, hash);
                    self.gids.push(gid);
                }
            }
            Some(selection) => {
                self.gids.resize(hashes.len(), NONE);
                for &row in selection.rows() {
                    let row = row as usize;
                    self.gids[row] = self.group_of(page, key_cols, row, hashes[row]);
                }
                let spare = self.table.len() as u32;
                for gid in self.gids.iter_mut() {
                    *gid = if *gid == NONE { spare } else { *gid };
                }
            }
        }
    }

    #[inline]
    fn group_of(&mut self, page: &DataPage, key_cols: &[usize], row: usize, hash: u64) -> u32 {
        // Bits the table (low) and the hash exchange (high) do not index by.
        let slot = (hash >> 24) as usize % MEMO_SLOTS;
        let seen = self.memo[slot];
        if seen.row != NONE
            && seen.hash == hash
            && key_cells_equal(page, key_cols, row, seen.row as usize)
        {
            return seen.gid;
        }
        self.key_scratch.clear();
        encode_key_into(page, key_cols, row, &mut self.key_scratch);
        let gid = self.table.insert(hash, &self.key_scratch);
        self.memo[slot] = Seen {
            hash,
            row: row as u32,
            gid,
        };
        gid
    }

    /// Inserts the single empty-key group a global aggregate over zero
    /// rows still emits (COUNT(*) of an empty table is 0, not no-rows).
    fn insert_empty_key_group(&mut self) {
        self.table.insert(hash_columns(&[], 1)[0], &[]);
    }
}

/// Builds grouped-aggregation output pages column-wise, one page per
/// `page_rows` chunk of group ids: group-key columns decoded straight from
/// the table's key arena, then each aggregate's finished column gathered
/// from its accumulator vectors — a partial's state and a final's result
/// alike — with no intermediate `Vec<Value>` rows, and no page built whole
/// and then copied again in slices. Groups leave in table (first-seen)
/// order when `table_order`, in encoded-key byte order otherwise.
fn emit_group_pages(
    index: &GroupIndex,
    accs: &[AggAccumulator],
    table_order: bool,
    schema: &SchemaRef,
    key_count: usize,
    page_rows: usize,
) -> VecDeque<DataPage> {
    let order: Vec<u32> = if table_order {
        (0..index.table.len() as u32).collect()
    } else {
        index.table.sorted_ids()
    };
    let key_types: Vec<DataType> = schema.fields()[..key_count]
        .iter()
        .map(|f| f.data_type)
        .collect();
    order
        .chunks(page_rows.max(1))
        .map(|ids| {
            let mut cols = decode_keys_to_columns(
                ids.iter().map(|&g| index.table.key(g)),
                &key_types,
                ids.len(),
            );
            cols.extend(accs.iter().map(|acc| acc.finish_column(ids)));
            if cols.is_empty() {
                DataPage::row_count_only(ids.len())
            } else {
                DataPage::new(cols)
            }
        })
        .collect()
}

/// Partial (scan-side) phase of two-phase aggregation. Emits one row per
/// group, in table (first-seen) order: group values followed by each
/// aggregate's one-column state. Only a final aggregate reads them, and it
/// merges every group whatever order its rows arrive in.
pub struct PartialHashAggOp {
    input: BoxedStream,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    output_schema: SchemaRef,
    page_rows: usize,
    out: Option<VecDeque<DataPage>>,
}

impl PartialHashAggOp {
    pub fn new(
        input: BoxedStream,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        output_schema: Schema,
        page_rows: usize,
    ) -> Self {
        PartialHashAggOp {
            input,
            group_by,
            aggs,
            output_schema: Arc::new(output_schema),
            page_rows,
            out: None,
        }
    }

    fn consume_input(&mut self) -> Result<VecDeque<DataPage>> {
        let mut index = GroupIndex::new();
        let mut accs = AggAccumulator::for_specs(&self.aggs)?;
        loop {
            let (page, selection) = match self.input.next_selected()? {
                (Page::End(_), _) => break,
                (Page::Data(page), selection) => dense_or_copied(page, selection),
            };
            // Evaluate each aggregate's argument once per page, then fold
            // whole argument columns into the typed accumulators. Under a
            // (dense) selection the unselected rows fold into one spare
            // slot past the groups, which is dropped again: every group
            // still sees exactly its rows, in page order.
            let arg_cols = self
                .aggs
                .iter()
                .map(|a| a.input.as_ref().map(|e| e.evaluate(&page)).transpose())
                .collect::<Result<Vec<_>>>()?;
            index.assign(&page, &self.group_by, selection.as_ref());
            let group_count = index.table.len();
            for (acc, col) in accs.iter_mut().zip(&arg_cols) {
                acc.resize(group_count + selection.is_some() as usize);
                acc.update(col.as_ref(), &index.gids)?;
                acc.resize(group_count);
            }
        }
        // A global aggregate over zero rows still produces one row of
        // initial state (COUNT(*) of an empty table is 0, not no-rows).
        if self.group_by.is_empty() && index.table.is_empty() {
            index.insert_empty_key_group();
            for acc in accs.iter_mut() {
                acc.resize(1);
            }
        }
        Ok(emit_group_pages(
            &index,
            &accs,
            true,
            &self.output_schema,
            self.group_by.len(),
            self.page_rows,
        ))
    }
}

impl PageStream for PartialHashAggOp {
    fn next_page(&mut self) -> Result<Page> {
        if self.out.is_none() {
            let pages = self.consume_input()?;
            self.out = Some(pages);
        }
        match self.out.as_mut().unwrap().pop_front() {
            Some(p) => Ok(Page::data(p)),
            None => Ok(Page::end(EndReason::UpstreamFinished)),
        }
    }
}

/// Final (merge) phase: consumes the partial layout — group columns first,
/// then one state column per aggregate — and emits final values,
/// groups in encoded-key byte order unless
/// [`with_table_order`](Self::with_table_order) says nobody reads it.
pub struct FinalHashAggOp {
    input: BoxedStream,
    group_count: usize,
    aggs: Vec<AggSpec>,
    output_schema: SchemaRef,
    page_rows: usize,
    table_order: bool,
    out: Option<VecDeque<DataPage>>,
}

impl FinalHashAggOp {
    pub fn new(
        input: BoxedStream,
        group_count: usize,
        aggs: Vec<AggSpec>,
        output_schema: Schema,
        page_rows: usize,
    ) -> Self {
        FinalHashAggOp {
            input,
            group_count,
            aggs,
            output_schema: Arc::new(output_schema),
            page_rows,
            table_order: false,
            out: None,
        }
    }

    /// With `table_order`, emits groups in table (first-seen) order and
    /// skips the sort by key bytes: for a final whose rows a sort covering
    /// every group column reorders anyway, so arrival order cannot show
    /// (`PipelineSpec::table_order`, which the driver asks when it builds
    /// the operator).
    pub fn with_table_order(mut self, table_order: bool) -> Self {
        self.table_order = table_order;
        self
    }

    fn consume_input(&mut self) -> Result<VecDeque<DataPage>> {
        let group_cols: Vec<usize> = (0..self.group_count).collect();
        let width = self.group_count + self.aggs.len();
        let mut index = GroupIndex::new();
        let mut accs = AggAccumulator::for_specs(&self.aggs)?;
        loop {
            let page = match self.input.next_page()? {
                Page::End(_) => break,
                Page::Data(p) => p,
            };
            if page.num_columns() < width {
                return Err(AccordionError::Execution(format!(
                    "final aggregate expected ≥{width} partial columns, got {}",
                    page.num_columns()
                )));
            }
            index.assign(&page, &group_cols, None);
            let group_count = index.table.len();
            for (i, acc) in accs.iter_mut().enumerate() {
                acc.resize(group_count);
                acc.merge(page.column(self.group_count + i), &index.gids)?;
            }
        }
        if self.group_count == 0 && index.table.is_empty() {
            index.insert_empty_key_group();
            for acc in accs.iter_mut() {
                acc.resize(1);
            }
        }
        Ok(emit_group_pages(
            &index,
            &accs,
            self.table_order,
            &self.output_schema,
            self.group_count,
            self.page_rows,
        ))
    }
}

impl PageStream for FinalHashAggOp {
    fn next_page(&mut self) -> Result<Page> {
        if self.out.is_none() {
            let pages = self.consume_input()?;
            self.out = Some(pages);
        }
        match self.out.as_mut().unwrap().pop_front() {
            Some(p) => Ok(Page::data(p)),
            None => Ok(Page::end(EndReason::UpstreamFinished)),
        }
    }
}

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

/// ORDER BY + LIMIT via the shared [`TopNAccumulator`]: exactly a
/// [`LimitOp`] over a [`SortOp`], ties at the cut going to the earliest
/// arrival, without holding more than `2n` candidate rows.
pub struct TopNOp {
    input: BoxedStream,
    keys: Vec<SortKey>,
    n: usize,
    page_rows: usize,
    out: Option<VecDeque<DataPage>>,
}

impl TopNOp {
    /// `_schema` is the input's: output pages carry the input's columns.
    pub fn new(
        input: BoxedStream,
        keys: Vec<SortKey>,
        n: usize,
        _schema: Schema,
        page_rows: usize,
    ) -> Self {
        TopNOp {
            input,
            keys,
            n,
            page_rows,
            out: None,
        }
    }
}

impl PageStream for TopNOp {
    fn next_page(&mut self) -> Result<Page> {
        if self.out.is_none() {
            let mut acc = TopNAccumulator::new(self.keys.clone(), self.n);
            loop {
                match self.input.next_page()? {
                    Page::End(_) => break,
                    Page::Data(p) => acc.push_page(&p),
                }
            }
            self.out = Some(acc.finish(self.page_rows).into());
        }
        match self.out.as_mut().unwrap().pop_front() {
            Some(p) => Ok(Page::data(p)),
            None => Ok(Page::end(EndReason::UpstreamFinished)),
        }
    }
}

/// Full sort: buffers all input, sorts once, emits re-chunked pages.
pub struct SortOp {
    input: BoxedStream,
    keys: Vec<SortKey>,
    page_rows: usize,
    out: Option<VecDeque<DataPage>>,
}

impl SortOp {
    pub fn new(input: BoxedStream, keys: Vec<SortKey>, page_rows: usize) -> Self {
        SortOp {
            input,
            keys,
            page_rows,
            out: None,
        }
    }
}

impl PageStream for SortOp {
    fn next_page(&mut self) -> Result<Page> {
        if self.out.is_none() {
            let mut pages: Vec<Arc<DataPage>> = Vec::new();
            loop {
                match self.input.next_page()? {
                    Page::End(_) => break,
                    Page::Data(p) => pages.push(p),
                }
            }
            let mut out = VecDeque::new();
            if !pages.is_empty() {
                let whole = DataPage::concat(&pages.iter().map(Arc::as_ref).collect::<Vec<_>>());
                let sorted = sort_page(&whole, &self.keys);
                let mut offset = 0;
                while offset < sorted.row_count() {
                    let take = self.page_rows.max(1).min(sorted.row_count() - offset);
                    out.push_back(sorted.slice(offset, take));
                    offset += take;
                }
            }
            self.out = Some(out);
        }
        match self.out.as_mut().unwrap().pop_front() {
            Some(p) => Ok(Page::data(p)),
            None => Ok(Page::end(EndReason::UpstreamFinished)),
        }
    }
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Sentinel group id for build rows excluded by a NULL key.
const NO_GROUP: u32 = u32::MAX;

/// The materialized build side of a hash join, shared by all probe drivers.
/// Rows whose keys contain SQL NULL are excluded (NULL never equi-joins).
/// With no key columns every row lands in one bucket — that is exactly
/// cross-join semantics, so a join with no keys needs no special casing.
///
/// Layout: all build pages concatenated into one [`DataPage`], a
/// [`GroupTable`] mapping each distinct key to a group id, and a CSR index
/// (`starts`/`row_ids`) listing the build rows of each group in build
/// order. Probing returns a slice of row ids that feeds straight into the
/// column `gather` kernels.
pub struct JoinTable {
    build: Option<DataPage>,
    table: GroupTable,
    /// Group `g` matches build rows `row_ids[starts[g]..starts[g+1]]`.
    starts: Vec<u32>,
    row_ids: Vec<u32>,
}

impl JoinTable {
    pub fn build(pages: Vec<Arc<DataPage>>, keys: &[usize]) -> JoinTable {
        if pages.is_empty() {
            return JoinTable {
                build: None,
                table: GroupTable::new(),
                starts: vec![0],
                row_ids: Vec::new(),
            };
        }
        let refs: Vec<&DataPage> = pages.iter().map(|p| p.as_ref()).collect();
        let build = DataPage::concat(&refs);
        // Sized for a key per row up front: a table that starts at 16
        // slots rehashes everything it holds at every doubling on the way.
        let mut table = GroupTable::with_capacity(build.row_count());
        // Pass 1: vectorized hash, then assign each row its group id.
        let hashes = hash_rows(&build, keys);
        let nullable = nullable_keys(&build, keys);
        let mut scratch = Vec::new();
        let mut gid_of_row: Vec<u32> = Vec::with_capacity(build.row_count());
        for (row, &hash) in hashes.iter().enumerate() {
            if row % WARM_ROWS == 0 {
                table.warm(&hashes[row..hashes.len().min(row + WARM_ROWS)]);
            }
            if has_null_key(&build, &nullable, row) {
                gid_of_row.push(NO_GROUP);
                continue;
            }
            scratch.clear();
            encode_key_into(&build, keys, row, &mut scratch);
            gid_of_row.push(table.insert(hash, &scratch));
        }
        // Pass 2: CSR — count per group, prefix-sum, then fill in build-row
        // order (preserving the emission order of the map it replaced).
        let mut starts = vec![0u32; table.len() + 1];
        for &g in &gid_of_row {
            if g != NO_GROUP {
                starts[g as usize + 1] += 1;
            }
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut row_ids = vec![0u32; *starts.last().unwrap() as usize];
        for (row, &g) in gid_of_row.iter().enumerate() {
            if g == NO_GROUP {
                continue;
            }
            row_ids[cursor[g as usize] as usize] = row as u32;
            cursor[g as usize] += 1;
        }
        JoinTable {
            build: Some(build),
            table,
            starts,
            row_ids,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    fn build_page(&self) -> Option<&DataPage> {
        self.build.as_ref()
    }

    /// Build-row ids matching `key`; `hash` must come from the same page
    /// hash kernels used at build time.
    fn matches(&self, hash: u64, key: &[u8]) -> &[u32] {
        match self.table.get(hash, key) {
            Some(g) => {
                let g = g as usize;
                &self.row_ids[self.starts[g] as usize..self.starts[g + 1] as usize]
            }
            None => &[],
        }
    }
}

/// The key columns of `page` that have a validity mask — the only ones a
/// row's NULL check has to look at.
fn nullable_keys(page: &DataPage, keys: &[usize]) -> Vec<usize> {
    keys.iter()
        .copied()
        .filter(|&k| page.column(k).validity().is_some())
        .collect()
}

/// Whether `row` holds a NULL in one of the `nullable` key columns (NULL
/// never equi-joins, on either side).
#[inline]
fn has_null_key(page: &DataPage, nullable: &[usize], row: usize) -> bool {
    nullable.iter().any(|&k| !page.column(k).is_valid(row))
}

/// Streams probe pages against a [`JoinTable`], emitting probe ++ build
/// columns. Matches are collected as a pair of selection-index vectors
/// (probe row ids, build row ids) and the output page is assembled with the
/// column `gather` kernels — no per-row `Vec<Value>` assembly.
///
/// A probe row with the hash **and** the key cells ([`key_cells_equal`]) of
/// the row last looked up is the same key, so it takes that row's matches
/// with no encode and no table lookup: the grouped aggregate's per-page
/// memo, one entry deep — all a probe side clustered on its key (an order's
/// lineitems) needs. Like the build, the probe loads the first table slots
/// of every 32 rows together ([`GroupTable::warm`]) before looking any of
/// them up, so the lookups of a build side past the cache wait on one
/// batch of misses instead of one miss each.
pub struct HashJoinProbeOp {
    input: BoxedStream,
    table: Arc<JoinTable>,
    keys: Vec<usize>,
    output_schema: SchemaRef,
    key_scratch: Vec<u8>,
    /// Matching (probe row, build row) pairs of the page in hand; kept
    /// across pages for their capacity.
    probe_sel: Vec<u32>,
    build_sel: Vec<u32>,
}

impl HashJoinProbeOp {
    /// `page_rows` sizes the selection vectors (output batches may exceed
    /// it: the probe emits one output page per probe page).
    pub fn new(
        input: BoxedStream,
        table: Arc<JoinTable>,
        keys: Vec<usize>,
        output_schema: Schema,
        page_rows: usize,
    ) -> Self {
        HashJoinProbeOp {
            input,
            table,
            keys,
            output_schema: Arc::new(output_schema),
            key_scratch: Vec::new(),
            probe_sel: Vec::with_capacity(page_rows),
            build_sel: Vec::with_capacity(page_rows),
        }
    }

    /// Fills the selection vectors with the matches of `page`'s rows.
    fn probe(&mut self, page: &DataPage) {
        self.probe_sel.clear();
        self.build_sel.clear();
        let hashes = hash_rows(page, &self.keys);
        let nullable = nullable_keys(page, &self.keys);
        // The last row looked up in the table, and the build rows it found.
        let mut last: Option<(usize, &[u32])> = None;
        for (row, &hash) in hashes.iter().enumerate() {
            if row % WARM_ROWS == 0 {
                self.table
                    .table
                    .warm(&hashes[row..hashes.len().min(row + WARM_ROWS)]);
            }
            if has_null_key(page, &nullable, row) {
                continue;
            }
            let matches = match last {
                Some((seen, matches))
                    if hashes[seen] == hash && key_cells_equal(page, &self.keys, row, seen) =>
                {
                    matches
                }
                _ => {
                    self.key_scratch.clear();
                    encode_key_into(page, &self.keys, row, &mut self.key_scratch);
                    let matches = self.table.matches(hash, &self.key_scratch);
                    last = Some((row, matches));
                    matches
                }
            };
            self.probe_sel
                .resize(self.probe_sel.len() + matches.len(), row as u32);
            self.build_sel.extend_from_slice(matches);
        }
    }
}

impl PageStream for HashJoinProbeOp {
    fn next_page(&mut self) -> Result<Page> {
        loop {
            let page = match self.input.next_page()? {
                Page::End(e) => return Ok(Page::End(e)),
                Page::Data(p) => p,
            };
            if self.table.is_empty() {
                continue;
            }
            self.probe(&page);
            if self.probe_sel.is_empty() {
                continue;
            }
            let build = self
                .table
                .build_page()
                .expect("non-empty join table has build rows");
            let mut cols: Vec<Column> = page
                .columns()
                .iter()
                .map(|c| c.gather(&self.probe_sel))
                .collect();
            cols.extend(build.columns().iter().map(|c| c.gather(&self.build_sel)));
            debug_assert_eq!(cols.len(), self.output_schema.len());
            let out = if cols.is_empty() {
                DataPage::row_count_only(self.probe_sel.len())
            } else {
                DataPage::new(cols)
            };
            return Ok(Page::data(out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::column::Column;
    use accordion_data::schema::Field;
    use accordion_data::types::{DataType, Value};
    use accordion_expr::agg::AggKind;

    fn pages_source(pages: Vec<DataPage>) -> BoxedStream {
        Box::new(QueueSource::new(
            pages.into_iter().map(Arc::new).collect(),
            EndReason::UpstreamFinished,
        ))
    }

    fn drain(mut s: impl PageStream) -> Vec<DataPage> {
        let mut out = Vec::new();
        loop {
            match s.next_page().unwrap() {
                Page::End(_) => return out,
                Page::Data(p) => out.push(p.as_ref().clone()),
            }
        }
    }

    #[test]
    fn filter_and_project_stream() {
        let page = DataPage::new(vec![Column::from_i64(vec![1, 2, 3, 4])]);
        let filtered = FilterOp::new(
            pages_source(vec![page]),
            Expr::gt(Expr::col(0), Expr::lit_i64(2)),
        );
        let doubled = ProjectOp::new(
            Box::new(filtered),
            vec![Expr::mul(Expr::col(0), Expr::lit_i64(2))],
        );
        let out = drain(doubled);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].column(0).as_i64().unwrap(), &[6, 8]);
    }

    #[test]
    fn scan_source_at_zero_page_rows_terminates() {
        // `ScanSource::new` and `ExecOptions::page_rows` take any value; a
        // 0 used to make the split yield empty pages forever, which the
        // scan skipped forever.
        let page = DataPage::new(vec![Column::from_i64(vec![1, 2, 3])]);
        let split = Split {
            id: accordion_common::SplitId(0),
            table: "t".into(),
            pages: Arc::new(vec![page]),
            rows: 3,
        };
        let out = drain(ScanSource::new(vec![split], vec![0], 0));
        let rows: Vec<i64> = out
            .iter()
            .flat_map(|p| p.column(0).as_i64().unwrap().to_vec())
            .collect();
        assert_eq!(rows, vec![1, 2, 3]);
    }

    #[test]
    fn limit_cuts_across_pages() {
        let p1 = DataPage::new(vec![Column::from_i64(vec![1, 2])]);
        let p2 = DataPage::new(vec![Column::from_i64(vec![3, 4])]);
        let out = drain(LimitOp::new(pages_source(vec![p1, p2]), 3));
        let total: usize = out.iter().map(|p| p.row_count()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn partial_then_final_agg_round_trip() {
        // AVG(v) in the form the optimizer plans it: a FLOAT64 SUM and a
        // COUNT, one state column each.
        let aggs = vec![
            AggSpec::new(AggKind::Sum, Expr::col(1), DataType::Float64, "a#sum"),
            AggSpec::new(AggKind::Count, Expr::col(1), DataType::Int64, "a#count"),
        ];
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("a#sum", DataType::Float64),
            Field::new("a#count", DataType::Int64),
        ]);
        let page = DataPage::new(vec![
            Column::from_i64(vec![1, 2, 1, 2]),
            Column::from_i64(vec![10, 20, 30, 40]),
        ]);
        let partial = PartialHashAggOp::new(
            pages_source(vec![page]),
            vec![0],
            aggs.clone(),
            schema.clone(),
            8,
        );
        let fin = FinalHashAggOp::new(Box::new(partial), 1, aggs, schema, 8);
        let out = drain(fin);
        assert_eq!(out.len(), 1);
        let rows = out[0].rows();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int64(1), Value::Float64(40.0), Value::Int64(2)],
                vec![Value::Int64(2), Value::Float64(60.0), Value::Int64(2)],
            ]
        );
        // An AVG handed to an operator is refused, never computed.
        let avg = vec![AggSpec::new(
            AggKind::Avg,
            Expr::col(1),
            DataType::Int64,
            "a",
        )];
        let schema = Schema::new(vec![Field::new("a", DataType::Float64)]);
        let mut op = PartialHashAggOp::new(pages_source(vec![]), vec![], avg, schema, 8);
        assert!(matches!(op.next_page(), Err(AccordionError::Plan(_))));
    }

    #[test]
    fn global_agg_over_empty_input_yields_one_row() {
        let aggs = vec![AggSpec::count_star("c")];
        let partial_schema = Schema::new(vec![Field::new("c#p0", DataType::Int64)]);
        let final_schema = Schema::new(vec![Field::new("c", DataType::Int64)]);
        let partial = PartialHashAggOp::new(
            pages_source(vec![]),
            vec![],
            aggs.clone(),
            partial_schema,
            8,
        );
        let fin = FinalHashAggOp::new(Box::new(partial), 0, aggs, final_schema, 8);
        let out = drain(fin);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rows(), vec![vec![Value::Int64(0)]]);
    }

    #[test]
    fn group_memo_never_trusts_a_hash_alone() {
        use accordion_data::column::ColumnBuilder;
        // Rows 0/2 and 1/3 hold equal keys; row 4 is NULL, row 5 an empty
        // string. Every row is given the same (fake) hash, so all of them
        // meet in one memo slot: only the typed cell compare tells them
        // apart.
        let mut keys = ColumnBuilder::new(DataType::Utf8, 6);
        for v in ["a", "b", "a", "b"] {
            keys.push(Value::Utf8(v.into()));
        }
        keys.push(Value::Null);
        keys.push(Value::Utf8(String::new()));
        let page = DataPage::new(vec![keys.finish()]);
        let mut index = GroupIndex::new();
        let gids: Vec<u32> = (0..6)
            .map(|row| index.group_of(&page, &[0], row, 42))
            .collect();
        assert_eq!(gids, vec![0, 1, 0, 1, 2, 3]);
        assert_eq!(index.table.len(), 4);
        // And through `assign`, with real hashes, the ids are first-seen
        // order whether or not the memo is hit.
        index = GroupIndex::new();
        index.assign(&page, &[0], None);
        assert_eq!(index.gids, vec![0, 1, 0, 1, 2, 3]);
        // Unselected rows get the spare id one past the last group.
        index = GroupIndex::new();
        index.assign(&page, &[0], Some(&Selection(vec![1, 3, 4])));
        assert_eq!(index.gids, vec![2, 0, 2, 0, 1, 2]);
    }

    #[test]
    fn join_table_skips_null_keys_and_cross_joins_on_no_keys() {
        use accordion_data::column::ColumnBuilder;
        let mut b = ColumnBuilder::new(DataType::Int64, 3);
        b.push(Value::Int64(1));
        b.push(Value::Null);
        b.push(Value::Int64(2));
        let build_page = DataPage::new(vec![b.finish()]);
        let build_page = Arc::new(build_page);
        let t = JoinTable::build(vec![build_page.clone()], &[0]);
        assert_eq!(t.table.len(), 2, "null key row excluded");
        let cross = JoinTable::build(vec![build_page], &[]);
        let empty_key_hash = hash_columns(&[], 1)[0];
        assert_eq!(
            cross.matches(empty_key_hash, &[]).len(),
            3,
            "no keys ⇒ one bucket"
        );
    }

    #[test]
    fn join_probe_emits_selection_gathered_rows() {
        use accordion_data::column::ColumnBuilder;
        // Build side: key 1 appears twice (rows split across two pages),
        // key 3 once, one NULL-key row excluded.
        let bp1 = Arc::new(DataPage::new(vec![
            Column::from_i64(vec![1, 3]),
            Column::from_strings(&["a", "c"]),
        ]));
        let mut nk = ColumnBuilder::new(DataType::Int64, 2);
        nk.push(Value::Int64(1));
        nk.push(Value::Null);
        let bp2 = Arc::new(DataPage::new(vec![
            nk.finish(),
            Column::from_strings(&["b", "dead"]),
        ]));
        let table = Arc::new(JoinTable::build(vec![bp1, bp2], &[0]));
        // Probe side: 2 misses, NULL skipped, 1 hits twice, 3 hits once.
        let mut pk = ColumnBuilder::new(DataType::Int64, 4);
        pk.push(Value::Int64(2));
        pk.push(Value::Null);
        pk.push(Value::Int64(1));
        pk.push(Value::Int64(3));
        let probe = DataPage::new(vec![pk.finish(), Column::from_i64(vec![20, 0, 10, 30])]);
        let schema = Schema::new(vec![
            Field::new("pk", DataType::Int64),
            Field::new("pv", DataType::Int64),
            Field::new("bk", DataType::Int64),
            Field::new("bv", DataType::Utf8),
        ]);
        let op = HashJoinProbeOp::new(pages_source(vec![probe]), table, vec![0], schema, 8);
        let out = drain(op);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].rows(),
            vec![
                // Probe row for key 1 matches both build rows, in build order.
                vec![
                    Value::Int64(1),
                    Value::Int64(10),
                    Value::Int64(1),
                    Value::Utf8("a".into())
                ],
                vec![
                    Value::Int64(1),
                    Value::Int64(10),
                    Value::Int64(1),
                    Value::Utf8("b".into())
                ],
                vec![
                    Value::Int64(3),
                    Value::Int64(30),
                    Value::Int64(3),
                    Value::Utf8("c".into())
                ],
            ]
        );
    }

    #[test]
    fn sort_op_rechunks_sorted_output() {
        let p1 = DataPage::new(vec![Column::from_i64(vec![3, 1])]);
        let p2 = DataPage::new(vec![Column::from_i64(vec![2])]);
        let out = drain(SortOp::new(
            pages_source(vec![p1, p2]),
            vec![SortKey::asc(0)],
            2,
        ));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].column(0).as_i64().unwrap(), &[1, 2]);
        assert_eq!(out[1].column(0).as_i64().unwrap(), &[3]);
    }
}
