#ifndef TOUCH_CORE_TOUCH_H_
#define TOUCH_CORE_TOUCH_H_

#include "core/touch_tree.h"
#include "join/algorithm.h"
#include "join/local_join.h"
#include "util/cancellation.h"

namespace touch {

/// Tunable parameters of TOUCH (paper section 5.2). The defaults are the
/// paper's evaluated configuration: fanout 2, 1024 partitions, local-join
/// grid resolution 500.
struct TouchOptions {
  /// Number of STR buckets dataset A is grouped into (leaf count target);
  /// the leaf capacity becomes ceil(|A| / partitions).
  size_t partitions = 1024;
  /// If nonzero, a fixed leaf capacity overriding `partitions`.
  size_t leaf_capacity = 0;
  /// Children per inner node. Smaller fanout -> taller tree -> objects of B
  /// spread over more levels -> fewer comparisons (paper Figure 14).
  size_t fanout = 2;

  /// Local join strategy for inner-node vs descendant-leaf joins. The paper
  /// uses the space-oriented grid (Algorithm 4); the others are ablations.
  LocalJoinStrategy local_join = LocalJoinStrategy::kGrid;
  /// Maximum grid cells per dimension in the local join.
  int grid_resolution = 500;
  /// Lower bound of the local-join grid's cell edge ("considerably larger
  /// than the average size of the objects", section 5.2.2). Per axis, the
  /// edge is the larger of `cell_size_multiplier` times the smaller of the
  /// two datasets' average extents and the larger average extent itself.
  /// Both averages are taken as joined: the side a distance join enlarges
  /// counts with its 2*epsilon, whether the enlargement is baked into the
  /// tree's boxes or applied on the fly (`probe_epsilon`). For a plain join
  /// of similar objects this is the paper's 4x rule (its 500-cell grid over
  /// the 1000-unit space); once epsilon dwarfs the objects, cells track the
  /// enlarged side, so an average object overlaps at most two cells per
  /// axis instead of probing hundreds.
  float cell_size_multiplier = 4.0f;
  /// Nodes with fewer assigned entities than this skip the grid: each entity
  /// instead descends the node's own subtree, pruned by child MBRs — cheaper
  /// than building a grid (or sorting the whole descendant item range) for a
  /// handful of objects.
  size_t grid_min_entities = 8;

  /// Which dataset builds the tree (paper section 5.2.3 argues for the
  /// smaller one, which kAuto picks).
  enum class JoinOrder { kAuto, kBuildOnA, kBuildOnB };
  JoinOrder join_order = JoinOrder::kAuto;

  /// Worker threads for the join phase (phase 3). The per-inner-node local
  /// joins are independent, so they parallelize the same way the paper's
  /// BlueGene deployment parallelizes whole subsets across cores. 0 or 1
  /// keeps the paper's single-threaded execution; results are identical
  /// either way (only the result *order* may differ). Phases 1 and 2 stay
  /// single-threaded: they are a small fraction of the join on selective
  /// workloads.
  int threads = 1;
};

/// TOUCH: in-memory spatial join by hierarchical data-oriented partitioning
/// (the paper's contribution, section 4).
///
/// Three phases: (1) bulk-load a TouchTree over the build dataset with STR;
/// (2) assign every probe object to the lowest tree node whose MBR covers it
/// without overlapping a sibling — objects overlapping nothing are *filtered*
/// out entirely; (3) join each node's assigned probe objects against the A
/// objects in its descendant leaves through a per-node equi-width grid.
/// Single assignment means no replication, no duplicate results, and a small
/// memory footprint; data-oriented partitioning keeps comparison counts low
/// on skewed data.
class TouchJoin : public SpatialJoinAlgorithm {
 public:
  explicit TouchJoin(const TouchOptions& options = {}) : options_(options) {}

  std::string_view name() const override { return "touch"; }
  JoinStats Join(std::span<const Box> a, std::span<const Box> b,
                 ResultCollector& out) override;

  /// Runs phases 2 and 3 against a tree that is already built over dataset
  /// `a` (constructed directly or converted with TouchTree::FromRTree) —
  /// the paper's section-4.3 shortcut for pre-indexed datasets. The tree's
  /// item ids must index into `a`. Join order is not swapped; build time is
  /// whatever the caller already paid.
  ///
  /// `probe_epsilon` enlarges every box of `b` on the fly (assignment and
  /// local join read b[i].Enlarged(probe_epsilon)), equivalent to passing a
  /// pre-enlarged copy of `b` but without materializing one — with the
  /// default grid local join, no per-call probe copy exists at all, which is
  /// what makes the engine's cached distance joins allocation-free. The
  /// nested-loop / plane-sweep local-join ablations still materialize one
  /// copy (and account for it in JoinStats::memory_bytes).
  ///
  /// `cancel` is polled cooperatively inside the assignment and local-join
  /// loops (every few thousand objects / once per inner node): once it
  /// fires, the join stops emitting and returns early with partial stats.
  /// The caller decides what a partial run means (the engine flags the
  /// request Cancelled); a default token makes every check free.
  JoinStats JoinWithPrebuiltTree(const TouchTree& tree,
                                 std::span<const Box> a,
                                 std::span<const Box> b, ResultCollector& out,
                                 float probe_epsilon = 0.0f,
                                 CancellationToken cancel = {});

  const TouchOptions& options() const { return options_; }

 private:
  /// Runs the three phases with `build` as the tree-building dataset and
  /// `probe` as the assigned dataset. `swapped` is true when build==B, in
  /// which case emitted pairs are flipped back to (a, b) order.
  /// `probe_epsilon` enlarges probe boxes on the fly and `cancel` stops the
  /// run early (see JoinWithPrebuiltTree).
  JoinStats JoinOriented(std::span<const Box> build,
                         std::span<const Box> probe, bool swapped,
                         ResultCollector& out,
                         const TouchTree* prebuilt = nullptr,
                         float probe_epsilon = 0.0f,
                         CancellationToken cancel = {});

  TouchOptions options_;
};

}  // namespace touch

#endif  // TOUCH_CORE_TOUCH_H_
