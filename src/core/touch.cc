#include "core/touch.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "core/overlap_kernel.h"
#include "geom/grid.h"
#include "obs/trace.h"
#include "util/memory.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace touch {
namespace {

// Average extent per axis over a dataset (used to size local-join grid
// cells, paper section 5.2.2).
Vec3 AverageExtent(std::span<const Box> boxes) {
  if (boxes.empty()) return Vec3(0, 0, 0);
  double sx = 0;
  double sy = 0;
  double sz = 0;
  for (const Box& box : boxes) {
    const Vec3 e = box.Extent();
    sx += e.x;
    sy += e.y;
    sz += e.z;
  }
  const double inv = 1.0 / static_cast<double>(boxes.size());
  return Vec3(static_cast<float>(sx * inv), static_cast<float>(sy * inv),
              static_cast<float>(sz * inv));
}

// Per-axis grid resolution for one inner node: cells no smaller than
// `min_cell_edge` on each axis (a flat node gets one cell on its flat axis,
// see AxisResolutions), capped at `max_resolution` per axis and at
// `max_total_cells` overall (halving resolutions until the product fits).
std::array<int, 3> NodeGridResolution(const Box& node_mbr,
                                      const Vec3& min_cell_edge,
                                      int max_resolution,
                                      uint64_t max_total_cells) {
  std::array<int, 3> res =
      AxisResolutions(node_mbr, min_cell_edge, max_resolution);
  while (static_cast<uint64_t>(res[0]) * res[1] * res[2] > max_total_cells) {
    for (int& axis_res : res) axis_res = std::max(1, axis_res / 2);
  }
  return res;
}

// Dense per-node grid, reused across nodes via epoch stamping: a cell's list
// is only valid when its stamp matches the current epoch, so switching to
// the next node is O(1) instead of clearing (or re-allocating) every cell.
// Array indexing here replaced a hash map that dominated the join phase.
class ReusableGrid {
 public:
  void Reset(uint64_t total_cells) {
    if (cells_.size() < total_cells) {
      cells_.resize(total_cells);
      epoch_mark_.resize(total_cells, 0);
    }
    ++epoch_;
  }

  std::vector<uint32_t>& Cell(uint64_t index) {
    std::vector<uint32_t>& cell = cells_[index];
    if (epoch_mark_[index] != epoch_) {
      epoch_mark_[index] = epoch_;
      cell.clear();
    }
    return cell;
  }

  // Occupants of a cell, empty when untouched this epoch.
  std::span<const uint32_t> Occupants(uint64_t index) const {
    if (epoch_mark_[index] != epoch_) return {};
    return cells_[index];
  }

  size_t MemoryUsageBytes() const {
    return NestedVectorBytes(cells_) + VectorBytes(epoch_mark_);
  }

 private:
  std::vector<std::vector<uint32_t>> cells_;
  std::vector<uint32_t> epoch_mark_;
  uint32_t epoch_ = 0;
};

}  // namespace

JoinStats TouchJoin::Join(std::span<const Box> a, std::span<const Box> b,
                          ResultCollector& out) {
  bool build_on_a = true;
  switch (options_.join_order) {
    case TouchOptions::JoinOrder::kAuto:
      // The smaller dataset builds the tree: it is sparser (or has a smaller
      // extent), which improves filtering, and the tree is cheaper to build.
      build_on_a = a.size() <= b.size();
      break;
    case TouchOptions::JoinOrder::kBuildOnA:
      build_on_a = true;
      break;
    case TouchOptions::JoinOrder::kBuildOnB:
      build_on_a = false;
      break;
  }
  if (build_on_a) return JoinOriented(a, b, /*swapped=*/false, out);
  return JoinOriented(b, a, /*swapped=*/true, out);
}

JoinStats TouchJoin::JoinWithPrebuiltTree(const TouchTree& tree,
                                          std::span<const Box> a,
                                          std::span<const Box> b,
                                          ResultCollector& out,
                                          float probe_epsilon,
                                          CancellationToken cancel) {
  return JoinOriented(a, b, /*swapped=*/false, out, &tree, probe_epsilon,
                      std::move(cancel));
}

JoinStats TouchJoin::JoinOriented(std::span<const Box> build,
                                  std::span<const Box> probe, bool swapped,
                                  ResultCollector& out,
                                  const TouchTree* prebuilt,
                                  float probe_epsilon,
                                  CancellationToken cancel) {
  JoinStats stats;
  Timer total;
  if (build.empty() || probe.empty()) {
    stats.filtered = probe.size();
    stats.total_seconds = total.Seconds();
    return stats;
  }

  // The grid local join reads probe boxes through ProbeBox and needs no
  // copy; the nested-loop / plane-sweep ablations take raw spans, so for
  // them the enlargement is materialized once (and reported in
  // memory_bytes).
  std::vector<Box> enlarged_probe;
  if (probe_epsilon > 0 &&
      options_.local_join != LocalJoinStrategy::kGrid) {
    enlarged_probe.reserve(probe.size());
    for (const Box& box : probe) {
      enlarged_probe.push_back(box.Enlarged(probe_epsilon));
    }
    probe = enlarged_probe;
    probe_epsilon = 0;
  }
  const auto ProbeBox = [probe, probe_epsilon](uint32_t probe_id) {
    return probe_epsilon > 0 ? probe[probe_id].Enlarged(probe_epsilon)
                             : probe[probe_id];
  };

  // ---- Phase 1: tree building (Algorithm 2) — skipped when the caller
  // supplies a prebuilt/converted tree (paper section 4.3). ----
  Timer phase;
  std::optional<TouchTree> owned_tree;
  if (prebuilt == nullptr) {
    size_t leaf_capacity = options_.leaf_capacity;
    if (leaf_capacity == 0) {
      const size_t partitions = std::max<size_t>(1, options_.partitions);
      leaf_capacity = (build.size() + partitions - 1) / partitions;
    }
    owned_tree.emplace(build, leaf_capacity, options_.fanout);
  }
  const TouchTree& tree = prebuilt != nullptr ? *prebuilt : *owned_tree;
  stats.build_seconds = prebuilt != nullptr ? 0.0 : phase.Seconds();

  // ---- Phase 2: assignment of the probe dataset (Algorithm 3). ----
  phase.Reset();
  // Ambient phase span: attaches under the engine's "execute" span when one
  // is open on this thread, no-op otherwise (library callers untouched).
  SpanScope assign_span("touch-assign");
  std::vector<std::vector<uint32_t>> entities(tree.nodes().size());
  const std::span<const TouchTree::Node> nodes = tree.nodes();
  const std::span<const uint32_t> child_ids = tree.child_ids();
  // SoA slab over every node's child MBRs, in child_ids order, so each
  // descent step classifies a node's whole child range with the batched
  // overlap kernel (one node.children_begin/count range per node). Built
  // once per join, shared read-only with the local-join phase below.
  BoxSlab child_mbr_slab;
  child_mbr_slab.AssignGenerated(
      child_ids.size(), [&](size_t i) { return nodes[child_ids[i]].mbr; });
  for (uint32_t probe_id = 0; probe_id < probe.size(); ++probe_id) {
    // Cooperative cancellation, amortized over a power-of-two stride so the
    // check costs one branch on the hot path.
    if ((probe_id & 2047u) == 0 && cancel.stop_requested()) break;
    const Box box = ProbeBox(probe_id);
    uint32_t current = tree.root();
    ++stats.node_comparisons;
    if (!Intersects(box, nodes[current].mbr)) {
      ++stats.filtered;
      continue;
    }
    bool placed = false;
    while (!nodes[current].IsLeaf()) {
      // Count children whose MBR overlaps the object; stop at the second
      // (ClassifyOverlaps keeps the scalar loop's early exit and examined
      // count, so node_comparisons stays the paper's metric).
      const TouchTree::Node& node = nodes[current];
      size_t first = 0;
      const int hits = ClassifyOverlaps(
          child_mbr_slab, node.children_begin,
          node.children_begin + node.children_count, box, &first,
          &stats.node_comparisons);
      if (hits >= 2) {
        // Overlaps several children: assign to their parent (this node).
        entities[current].push_back(probe_id);
        placed = true;
        break;
      }
      if (hits == 0) {
        // Inside the node's MBR but outside every child: dead space, the
        // object cannot intersect anything in this subtree.
        ++stats.filtered;
        placed = true;  // handled (filtered)
        break;
      }
      current = child_ids[first];
    }
    if (!placed) {
      // Reached a leaf: assign to the leaf (lowest possible placement).
      entities[current].push_back(probe_id);
    }
  }
  stats.assign_seconds = phase.Seconds();
  assign_span.End();

  // ---- Phase 3: per-node local join (Algorithm 4). ----
  phase.Reset();
  // Calling-thread span; the parallel path's spawned workers carry no
  // ambient context, so the one span covers the phase's wall clock.
  SpanScope local_join_span("touch-local-join");
  const std::span<const uint32_t> item_ids = tree.item_ids();

  // Minimum grid cell edge per axis (see TouchOptions::cell_size_multiplier):
  // a multiple of the smaller average extent, and never below the larger
  // one, with both sides measured as joined — the probe side carries its
  // on-the-fly enlargement, just as a tree over an enlarged copy carries
  // its baked-in one.
  const Vec3 avg_build = AverageExtent(build);
  const Vec3 avg_probe =
      AverageExtent(probe) +
      Vec3(2 * probe_epsilon, 2 * probe_epsilon, 2 * probe_epsilon);
  const auto cell_edge = [&](float build_extent, float probe_extent) {
    return std::max(options_.cell_size_multiplier *
                        std::min(build_extent, probe_extent),
                    std::max(build_extent, probe_extent));
  };
  const Vec3 min_cell_edge(cell_edge(avg_build.x, avg_probe.x),
                           cell_edge(avg_build.y, avg_probe.y),
                           cell_edge(avg_build.z, avg_probe.z));

  // Per-worker scratch state; a single instance serves the sequential path.
  struct WorkerContext {
    JoinStats stats;
    ReusableGrid cells;
    std::vector<uint32_t> descent_stack;
    std::vector<uint32_t> hits;
    size_t max_grid_bytes = 0;
  };

  // Slabs for the grid local join, built once per join and shared
  // read-only across workers: the build items in item_ids order (so every
  // leaf's items are one contiguous range) and the probe boxes by probe id
  // with the remaining enlargement folded in (BoxAt round-trips the exact
  // ProbeBox floats, so reference-point dedup is unchanged). Like the
  // sweep's sorted copies, this probe scratch stays out of memory_bytes.
  BoxSlab item_slab;
  BoxSlab probe_slab;
  if (options_.local_join == LocalJoinStrategy::kGrid) {
    item_slab.AssignGenerated(
        item_ids.size(), [&](size_t i) { return build[item_ids[i]]; });
    probe_slab.Assign(probe, probe_epsilon);
  }

  // Joins one inner node's assigned probe entities against the build items
  // of its descendant leaves. `emit(build_id, probe_id)` must already handle
  // the swap back to (a, b) order.
  const auto join_node = [&](uint32_t node_id, WorkerContext& ctx,
                             auto&& emit) {
    const std::vector<uint32_t>& node_entities = entities[node_id];
    const TouchTree::Node& node = nodes[node_id];
    const auto items = item_ids.subspan(node.item_begin, node.ItemCount());

    // Subtree descent for entity-poor nodes: the probe object walks this
    // node's own hierarchy, pruning children by MBR, and is compared only
    // against the items of the leaves it reaches.
    const auto subtree_join = [&](uint32_t start_node, uint32_t probe_id) {
      const Box probe_box = probe_slab.BoxAt(probe_id);
      ctx.descent_stack.clear();
      ctx.descent_stack.push_back(start_node);
      while (!ctx.descent_stack.empty()) {
        const TouchTree::Node& current = nodes[ctx.descent_stack.back()];
        ctx.descent_stack.pop_back();
        ctx.hits.clear();
        if (current.IsLeaf()) {
          ctx.stats.comparisons +=
              CollectOverlaps(item_slab, current.item_begin,
                              current.item_end, probe_box, ctx.hits);
          for (const uint32_t pos : ctx.hits) emit(item_ids[pos], probe_id);
          continue;
        }
        // Matching children push in ascending order, as the scalar loop
        // did — this stack visits them last-pushed-first either way.
        ctx.stats.node_comparisons += CollectOverlaps(
            child_mbr_slab, current.children_begin,
            current.children_begin + current.children_count, probe_box,
            ctx.hits);
        for (const uint32_t pos : ctx.hits) {
          ctx.descent_stack.push_back(child_ids[pos]);
        }
      }
    };

    // Grid only where it pays: enough entities to amortize building it, and
    // not vastly fewer entities than descendant items (a handful of objects
    // descending a big subtree prunes most of it; a grid would make every
    // item probe cells for nothing).
    const bool grid_pays =
        node_entities.size() >= options_.grid_min_entities &&
        node_entities.size() * 16 >= items.size();
    if (options_.local_join == LocalJoinStrategy::kGrid && !grid_pays) {
      for (size_t i = 0; i < node_entities.size(); ++i) {
        if ((i & 1023u) == 0 && cancel.stop_requested()) return;
        subtree_join(node_id, node_entities[i]);
      }
      return;
    }
    if (options_.local_join == LocalJoinStrategy::kGrid) {
      // Equi-width grid over this node's region; the node's B entities are
      // scattered into the cells they overlap, then every descendant A
      // object probes the cells it overlaps. A pair straddling several
      // shared cells is reported only by the cell holding its reference
      // point.
      const std::array<int, 3> res =
          NodeGridResolution(node.mbr, min_cell_edge, options_.grid_resolution,
                             /*max_total_cells=*/uint64_t{1} << 18);
      const GridMapper grid(node.mbr, res[0], res[1], res[2]);
      const uint64_t stride_y = static_cast<uint64_t>(res[2]);
      const uint64_t stride_x = stride_y * static_cast<uint64_t>(res[1]);
      ctx.cells.Reset(static_cast<uint64_t>(res[0]) * res[1] * res[2]);
      for (const uint32_t probe_id : node_entities) {
        const CellRange range = grid.RangeOf(probe_slab.BoxAt(probe_id));
        for (int x = range.lo.x; x <= range.hi.x; ++x) {
          for (int y = range.lo.y; y <= range.hi.y; ++y) {
            const uint64_t base = static_cast<uint64_t>(x) * stride_x +
                                  static_cast<uint64_t>(y) * stride_y;
            for (int z = range.lo.z; z <= range.hi.z; ++z) {
              ctx.cells.Cell(base + static_cast<uint64_t>(z))
                  .push_back(probe_id);
            }
          }
        }
      }
      for (size_t item_index = 0; item_index < items.size(); ++item_index) {
        if ((item_index & 4095u) == 0 && cancel.stop_requested()) return;
        const uint32_t build_id = items[item_index];
        const Box& build_box = build[build_id];
        const CellRange range = grid.RangeOf(build_box);
        for (int x = range.lo.x; x <= range.hi.x; ++x) {
          for (int y = range.lo.y; y <= range.hi.y; ++y) {
            const uint64_t base = static_cast<uint64_t>(x) * stride_x +
                                  static_cast<uint64_t>(y) * stride_y;
            for (int z = range.lo.z; z <= range.hi.z; ++z) {
              // The cell's occupants are probe ids in scatter order; the
              // gather kernel tests them against this item in that order
              // and counts one comparison per occupant, like the scalar
              // loop it replaces.
              ctx.hits.clear();
              ctx.stats.comparisons += CollectOverlapsGather(
                  probe_slab,
                  ctx.cells.Occupants(base + static_cast<uint64_t>(z)),
                  build_box, ctx.hits);
              for (const uint32_t probe_id : ctx.hits) {
                const Box probe_box = probe_slab.BoxAt(probe_id);
                const CellCoord home =
                    grid.CellOf(ReferencePoint(build_box, probe_box));
                if (home.x == x && home.y == y && home.z == z) {
                  emit(build_id, probe_id);
                }
              }
            }
          }
        }
      }
      ctx.max_grid_bytes =
          std::max(ctx.max_grid_bytes, ctx.cells.MemoryUsageBytes());
    } else if (options_.local_join == LocalJoinStrategy::kNestedLoop) {
      LocalNestedLoop(build, items, probe, node_entities, &ctx.stats, emit);
    } else {
      LocalPlaneSweep(build, items, probe, node_entities, &ctx.stats, emit);
    }
  };

  // Inner nodes with work to do.
  std::vector<uint32_t> active_nodes;
  for (uint32_t node_id = 0; node_id < nodes.size(); ++node_id) {
    if (!entities[node_id].empty() && nodes[node_id].ItemCount() > 0) {
      active_nodes.push_back(node_id);
    }
  }

  size_t max_grid_bytes = 0;
  const int threads =
      std::clamp(options_.threads, 1,
                 static_cast<int>(std::thread::hardware_concurrency() > 0
                                      ? std::thread::hardware_concurrency()
                                      : 1));
  if (threads <= 1 || active_nodes.size() < 2) {
    WorkerContext ctx;
    const auto emit = [&](uint32_t build_id, uint32_t probe_id) {
      ++ctx.stats.results;
      if (swapped) {
        out.Emit(probe_id, build_id);
      } else {
        out.Emit(build_id, probe_id);
      }
    };
    for (const uint32_t node_id : active_nodes) {
      if (cancel.stop_requested()) break;
      join_node(node_id, ctx, emit);
    }
    stats.MergeCounters(ctx.stats);
    max_grid_bytes = ctx.max_grid_bytes;
  } else {
    // The inner-node joins are independent; workers pull node ids from a
    // shared counter and buffer their pairs per node, flushing into the
    // (single-threaded) collector under a mutex.
    std::vector<WorkerContext> contexts(static_cast<size_t>(threads));
    std::atomic<size_t> next_node{0};
    Mutex out_mutex;
    const auto worker = [&](WorkerContext& ctx) {
      std::vector<std::pair<uint32_t, uint32_t>> pending;
      const auto emit = [&](uint32_t build_id, uint32_t probe_id) {
        ++ctx.stats.results;
        if (swapped) {
          pending.emplace_back(probe_id, build_id);
        } else {
          pending.emplace_back(build_id, probe_id);
        }
      };
      while (true) {
        if (cancel.stop_requested()) break;
        const size_t index = next_node.fetch_add(1);
        if (index >= active_nodes.size()) break;
        join_node(active_nodes[index], ctx, emit);
        if (!pending.empty()) {
          const MutexLock lock(out_mutex);
          for (const auto& [a_id, b_id] : pending) out.Emit(a_id, b_id);
          pending.clear();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(contexts.size());
    for (WorkerContext& ctx : contexts) pool.emplace_back(worker, std::ref(ctx));
    for (std::thread& t : pool) t.join();
    for (const WorkerContext& ctx : contexts) {
      stats.MergeCounters(ctx.stats);
      max_grid_bytes = std::max(max_grid_bytes, ctx.max_grid_bytes);
    }
  }
  stats.join_seconds = phase.Seconds();
  local_join_span.End();

  stats.memory_bytes = tree.MemoryUsageBytes() + NestedVectorBytes(entities) +
                       max_grid_bytes + VectorBytes(enlarged_probe);
  stats.total_seconds = total.Seconds();
  return stats;
}

}  // namespace touch
