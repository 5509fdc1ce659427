#include "geom/grid.h"

#include <algorithm>
#include <cmath>

namespace touch {

GridMapper::GridMapper(const Box& domain, int res_x, int res_y, int res_z)
    : domain_(domain) {
  res_[0] = std::max(1, res_x);
  res_[1] = std::max(1, res_y);
  res_[2] = std::max(1, res_z);
  const Vec3 extent = domain.Extent();
  const float ext[3] = {extent.x, extent.y, extent.z};
  for (int axis = 0; axis < 3; ++axis) {
    // Degenerate domains (flat along an axis) still get one valid cell.
    cell_w_[axis] = ext[axis] > 0 ? ext[axis] / static_cast<float>(res_[axis]) : 1.0f;
    inv_w_[axis] = 1.0f / cell_w_[axis];
  }
}

CellCoord GridMapper::CellOf(const Vec3& p) const {
  CellCoord c;
  const float rel[3] = {p.x - domain_.lo.x, p.y - domain_.lo.y,
                        p.z - domain_.lo.z};
  int* out[3] = {&c.x, &c.y, &c.z};
  for (int axis = 0; axis < 3; ++axis) {
    const int idx = static_cast<int>(std::floor(rel[axis] * inv_w_[axis]));
    *out[axis] = std::clamp(idx, 0, res_[axis] - 1);
  }
  return c;
}

CellRange GridMapper::RangeOf(const Box& box) const {
  return CellRange{CellOf(box.lo), CellOf(box.hi)};
}

Box GridMapper::CellBounds(const CellCoord& c) const {
  const Vec3 lo(domain_.lo.x + static_cast<float>(c.x) * cell_w_[0],
                domain_.lo.y + static_cast<float>(c.y) * cell_w_[1],
                domain_.lo.z + static_cast<float>(c.z) * cell_w_[2]);
  return Box(lo, Vec3(lo.x + cell_w_[0], lo.y + cell_w_[1], lo.z + cell_w_[2]));
}

std::array<int, 3> AxisResolutions(const Box& domain, const Vec3& min_cell_edge,
                                   int max_res) {
  const Vec3 extent = domain.Extent();
  const float ext[3] = {extent.x, extent.y, extent.z};
  const float edge[3] = {min_cell_edge.x, min_cell_edge.y, min_cell_edge.z};
  const int cap = std::max(1, max_res);
  std::array<int, 3> res{1, 1, 1};
  for (int axis = 0; axis < 3; ++axis) {
    if (!(ext[axis] > 0)) continue;  // flat axis: one cell
    if (!(edge[axis] > 0)) {
      res[axis] = cap;
      continue;
    }
    const float ratio = ext[axis] / edge[axis];
    res[axis] = ratio >= static_cast<float>(cap)
                    ? cap
                    : std::max(1, static_cast<int>(ratio));
  }
  return res;
}

}  // namespace touch
