#include "sketch/arena.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace streammpc {

BankArena::BankArena(VertexId n, const L0Params& params)
    : n_(n),
      levels_(params.levels()),
      hot_levels_(params.levels() < kHotLevels ? params.levels()
                                               : kHotLevels),
      rows_(params.shape().rows),
      cells_per_level_(params.cells_per_level()),
      hot_cells_(cells_per_level_ * hot_levels_),
      overflow_(levels_ - hot_levels_) {}

std::uint32_t BankArena::page_for(Store& store, VertexId v,
                                  std::size_t cells) {
  if (store.page_of.empty()) store.page_of.assign(n_, kNoPage);
  std::uint32_t page = store.page_of[v];
  if (page == kNoPage) {
    page = store.pages++;
    store.page_of[v] = page;
    store.owner.push_back(v);
    // Fresh records value-initialize to the zero cell.
    store.cells.resize(static_cast<std::size_t>(store.pages) * cells);
    resident_add(v, cells * 4);
  }
  return page;
}

void BankArena::resident_add(VertexId v, std::uint64_t words) {
  for (std::size_t i = std::size_t{v} + 1; i < resident_tree_.size();
       i += i & (~i + 1)) {
    resident_tree_[i] += words;
  }
}

std::uint64_t BankArena::resident_prefix(VertexId end) const {
  std::uint64_t words = 0;
  for (std::size_t i = end; i > 0; i -= i & (~i + 1)) {
    words += resident_tree_[i];
  }
  return words;
}

std::uint64_t BankArena::resident_counters() const {
  const auto for_each_store = [&](const auto& fn) {
    fn(hot_, hot_cells_);
    for (const Store& store : overflow_) fn(store, cells_per_level_);
  };
  if (resident_tree_.empty()) {
    // Point values from the owner lists, then each node pushes its sum to
    // its Fenwick parent: O(n + pages).
    resident_tree_.assign(n_ + std::size_t{1}, 0);
    for_each_store([&](const Store& store, std::size_t cells) {
      for (const VertexId v : store.owner)
        resident_tree_[std::size_t{v} + 1] += cells * 4;
    });
    for (std::size_t i = 1; i < resident_tree_.size(); ++i) {
      const std::size_t parent = i + (i & (~i + 1));
      if (parent < resident_tree_.size())
        resident_tree_[parent] += resident_tree_[i];
    }
  }
  std::uint64_t mapped = 0;
  for_each_store([&](const Store& store, std::size_t) {
    if (!store.page_of.empty()) ++mapped;
  });
  return mapped;
}

BankArena::Store& BankArena::overflow_store(unsigned level) {
  return overflow_[level - hot_levels_];
}

void BankArena::apply(VertexId v, Coord c, std::int64_t delta,
                      const CoordPlan& plan, bool negated) {
  const __int128 s_delta = static_cast<__int128>(c) * delta;
  const std::uint64_t* terms =
      negated ? plan.term_neg.data() : plan.term_pos.data();
  // Hot prefix: one page lookup covers levels 0..min(depth, hot-1).
  // Cell pointers are taken AFTER page_for — it may grow the record
  // vector.
  {
    const std::uint32_t page = page_for(hot_, v, hot_cells_);
    ArenaCell* cells =
        hot_.cells.data() + static_cast<std::size_t>(page) * hot_cells_;
    const unsigned top = plan.depth < hot_levels_ ? plan.depth
                                                  : hot_levels_ - 1;
    for (unsigned j = 0; j <= top; ++j) {
      const std::uint64_t term = terms[j];
      const std::uint32_t* offsets =
          plan.offsets.data() + static_cast<std::size_t>(j) * rows_;
      ArenaCell* level_cells = cells + j * cells_per_level_;
      for (unsigned r = 0; r < rows_; ++r) {
        level_cells[offsets[r]].add_delta(delta, s_delta, term);
      }
    }
  }
  // Rare deep levels (depth >= hot happens with probability 2^-hot).
  for (unsigned j = hot_levels_; j <= plan.depth; ++j) {
    Store& store = overflow_store(j);
    const std::uint32_t page = page_for(store, v, cells_per_level_);
    ArenaCell* cells =
        store.cells.data() + static_cast<std::size_t>(page) * cells_per_level_;
    const std::uint64_t term = terms[j];
    const std::uint32_t* offsets =
        plan.offsets.data() + static_cast<std::size_t>(j) * rows_;
    for (unsigned r = 0; r < rows_; ++r) {
      cells[offsets[r]].add_delta(delta, s_delta, term);
    }
  }
}

void BankArena::prepare_pages(VertexId v, unsigned depth) {
  page_for(hot_, v, hot_cells_);
  for (unsigned j = hot_levels_; j <= depth && j < levels_; ++j) {
    page_for(overflow_store(j), v, cells_per_level_);
  }
}

void BankArena::snap_begin_store(StoreSnap& snap, const Store& store) {
  snap.watermark = store.pages;
  snap.had_map = !store.page_of.empty();
  snap.saved_mark.assign(store.pages, 0);
  snap.saved_pages.clear();
  snap.saved_cells.clear();
  snap.fresh_candidates.clear();
}

void BankArena::snap_save_page(StoreSnap& snap, const Store& store, VertexId v,
                               std::size_t cells) {
  if (store.page_of.empty() || store.page_of[v] == kNoPage) {
    // No page yet: any page this vertex acquires lies past the watermark
    // and is deallocated wholesale on rollback.  Duplicates are harmless
    // (the rollback reset is idempotent).
    snap.fresh_candidates.push_back(v);
    return;
  }
  const std::uint32_t page = store.page_of[v];
  // A page at or past the watermark was allocated after snapshot_begin;
  // rollback deallocates it wholesale, so there is no pre-image to save
  // (and saved_mark, sized at the watermark, must not be indexed by it).
  if (page >= snap.watermark) {
    snap.fresh_candidates.push_back(v);
    return;
  }
  if (snap.saved_mark[page]) return;  // first save wins — it IS the pre-image
  snap.saved_mark[page] = 1;
  snap.saved_pages.push_back(page);
  const std::size_t base = static_cast<std::size_t>(page) * cells;
  snap.saved_cells.insert(snap.saved_cells.end(), store.cells.begin() + base,
                          store.cells.begin() + base + cells);
}

void BankArena::snap_rollback_store(StoreSnap& snap, Store& store,
                                    std::size_t cells) {
  for (std::size_t i = 0; i < snap.saved_pages.size(); ++i) {
    const std::size_t dst =
        static_cast<std::size_t>(snap.saved_pages[i]) * cells;
    const std::size_t src = i * cells;
    std::copy(snap.saved_cells.begin() + src,
              snap.saved_cells.begin() + src + cells,
              store.cells.begin() + dst);
  }
  if (!store.page_of.empty()) {
    for (const VertexId v : snap.fresh_candidates) {
      if (store.page_of[v] != kNoPage && store.page_of[v] >= snap.watermark)
        store.page_of[v] = kNoPage;
    }
  }
  for (std::uint32_t p = snap.watermark; p < store.pages; ++p)
    resident_add(store.owner[p], 0 - cells * 4);
  store.pages = snap.watermark;
  store.cells.resize(static_cast<std::size_t>(store.pages) * cells);
  store.owner.resize(store.pages);
  if (!snap.had_map) store.page_of.clear();
}

void BankArena::snapshot_begin() {
  SMPC_CHECK_MSG(!txn_active_, "nested arena transactions are not supported");
  txn_active_ = true;
  snap_begin_store(hot_snap_, hot_);
  if (overflow_snap_.size() != overflow_.size())
    overflow_snap_.resize(overflow_.size());
  for (std::size_t i = 0; i < overflow_.size(); ++i)
    snap_begin_store(overflow_snap_[i], overflow_[i]);
}

void BankArena::snapshot_pages(VertexId v, unsigned depth) {
  SMPC_CHECK(txn_active_);
  snap_save_page(hot_snap_, hot_, v, hot_cells_);
  for (unsigned j = hot_levels_; j <= depth && j < levels_; ++j) {
    snap_save_page(overflow_snap_[j - hot_levels_], overflow_store(j), v,
                   cells_per_level_);
  }
}

void BankArena::rollback_pages() {
  SMPC_CHECK_MSG(txn_active_, "rollback_pages without snapshot_begin");
  snap_rollback_store(hot_snap_, hot_, hot_cells_);
  for (std::size_t i = 0; i < overflow_.size(); ++i)
    snap_rollback_store(overflow_snap_[i], overflow_[i], cells_per_level_);
  txn_active_ = false;
}

void BankArena::snapshot_commit() {
  SMPC_CHECK_MSG(txn_active_, "snapshot_commit without snapshot_begin");
  txn_active_ = false;
}

std::uint64_t BankArena::resident_words(VertexId lo, VertexId hi) const {
  std::uint64_t words = 0;
  add_resident_words(std::span(&words, 1),
                     [&](std::size_t) { return std::pair(lo, hi); });
  return words;
}

std::uint64_t BankArena::resident_words_scan(VertexId lo, VertexId hi) const {
  SMPC_CHECK(lo <= hi && hi <= n_);
  const auto store_words = [&](const Store& store, std::size_t cells) {
    if (store.page_of.empty()) return std::uint64_t{0};
    std::uint64_t pages = 0;
    for (VertexId v = lo; v < hi; ++v) {
      if (store.page_of[v] != kNoPage) ++pages;
    }
    // Same accounting as allocated_words(): 4 words per cell, half a word
    // per page-map entry.
    return pages * cells * 4 + (hi - lo) / 2;
  };
  std::uint64_t words = store_words(hot_, hot_cells_);
  for (const Store& store : overflow_) {
    words += store_words(store, cells_per_level_);
  }
  return words;
}

void BankArena::merge_into(const L0Params& params,
                           std::span<const VertexId> vertices,
                           L0Sampler& out) const {
  out.reset(params);
  const std::span<OneSparseCell> cells = out.mutable_cells(params);
  for (unsigned j = 0; j < levels_; ++j) {
    if (add_level(j, vertices,
                  cells.subspan(j * cells_per_level_, cells_per_level_)))
      out.set_active_levels(j + 1);
  }
}

bool BankArena::add_level(unsigned level, std::span<const VertexId> vertices,
                          std::span<OneSparseCell> out) const {
  SMPC_CHECK(level < levels_ && out.size() == cells_per_level_);
  const Store& store = store_of(level);
  if (store.page_of.empty()) return false;
  const bool hot = level < hot_levels_;
  const std::size_t page_cells = hot ? hot_cells_ : cells_per_level_;
  const ArenaCell* level_cells =
      store.cells.data() + (hot ? level * cells_per_level_ : 0);
  bool touched = false;
  for (const VertexId v : vertices) {
    SMPC_CHECK(v < n_);
    const std::uint32_t page = store.page_of[v];
    if (page == kNoPage) continue;
    const ArenaCell* cells =
        level_cells + static_cast<std::size_t>(page) * page_cells;
    for (std::size_t c = 0; c < cells_per_level_; ++c)
      out[c].add_raw(cells[c].w, cells[c].s(), cells[c].fp);
    touched = true;
  }
  return touched;
}

void BankArena::reset() {
  SMPC_CHECK_MSG(!txn_active_, "reset during an arena transaction");
  const auto reset_store = [&](Store& store, std::size_t cells) {
    // The owner reverse map names exactly the populated page-map entries,
    // so the wipe costs O(pages) instead of O(n) (O(pages log n) once the
    // resident counters are built).
    for (const VertexId v : store.owner) {
      store.page_of[v] = kNoPage;
      resident_add(v, 0 - cells * 4);
    }
    store.owner.clear();
    store.pages = 0;
    store.cells.clear();  // page_for re-zeroes on growth; capacity retained
  };
  reset_store(hot_, hot_cells_);
  for (Store& store : overflow_) reset_store(store, cells_per_level_);
}

void BankArena::merge_from(const BankArena& src) {
  SMPC_CHECK_MSG(src.n_ == n_ && src.levels_ == levels_ &&
                     src.hot_levels_ == hot_levels_ && src.rows_ == rows_ &&
                     src.cells_per_level_ == cells_per_level_,
                 "merge_from requires identical arena geometry");
  const auto merge_store = [&](Store& dst, const Store& source,
                               std::size_t cells) {
    for (std::uint32_t p = 0; p < source.pages; ++p) {
      const VertexId v = source.owner[p];
      // page_for may grow dst.cells — take the dst pointer after it.  The
      // source walk is sequential, so hint the next page's first record
      // one fold ahead (dst pages land wherever v hashes; the source side
      // is the predictable stream).
      const std::uint32_t dst_page = page_for(dst, v, cells);
      const ArenaCell* src_cells =
          source.cells.data() + static_cast<std::size_t>(p) * cells;
      ArenaCell* dst_cells =
          dst.cells.data() + static_cast<std::size_t>(dst_page) * cells;
      if (p + 1 < source.pages) {
        __builtin_prefetch(source.cells.data() +
                           static_cast<std::size_t>(p + 1) * cells);
      }
      for (std::size_t c = 0; c < cells; ++c) {
        dst_cells[c].accumulate(src_cells[c]);
      }
    }
  };
  merge_store(hot_, src.hot_, hot_cells_);
  for (std::size_t i = 0; i < overflow_.size(); ++i)
    merge_store(overflow_[i], src.overflow_[i], cells_per_level_);
}

L0Sampler BankArena::extract(const L0Params& params, VertexId v) const {
  SMPC_CHECK(v < n_);
  L0Sampler out;
  const auto has_page = [v](const Store& store) {
    return !store.page_of.empty() && store.page_of[v] != kNoPage;
  };
  bool touched = has_page(hot_);
  for (const Store& store : overflow_) touched = touched || has_page(store);
  // An untouched vertex stays a zero-allocation sampler, matching the
  // seed accessor's behavior.
  if (touched) merge_into(params, std::span<const VertexId>(&v, 1), out);
  return out;
}

std::uint64_t BankArena::allocated_words() const {
  // A cell record is 4 words (w 1, s 2, fp 1); page maps count half a
  // word per vertex entry.  Identical accounting to the SoA layout.
  std::uint64_t words = hot_.cells.size() * 4 + hot_.page_of.size() / 2;
  for (const Store& store : overflow_) {
    words += store.cells.size() * 4;
    words += store.page_of.size() / 2;
  }
  return words;
}

std::span<const ArenaCell> BankArena::level_records(unsigned level,
                                                    VertexId v) const {
  SMPC_CHECK(level < levels_ && v < n_);
  const Store& store = store_of(level);
  if (store.page_of.empty() || store.page_of[v] == kNoPage) return {};
  const std::size_t page_cells =
      level < hot_levels_ ? hot_cells_ : cells_per_level_;
  const std::size_t within =
      level < hot_levels_ ? level * cells_per_level_ : 0;
  return {store.cells.data() +
              static_cast<std::size_t>(store.page_of[v]) * page_cells + within,
          cells_per_level_};
}

}  // namespace streammpc
