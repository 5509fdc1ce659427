#include "geom/grid.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/rng.h"

namespace touch {
namespace {

TEST(GridMapperTest, CellOfCorners) {
  const GridMapper grid(MakeBox(0, 0, 0, 10, 10, 10), 10);
  const CellCoord lo = grid.CellOf(Vec3(0, 0, 0));
  EXPECT_EQ(lo.x, 0);
  EXPECT_EQ(lo.y, 0);
  EXPECT_EQ(lo.z, 0);
  // The max corner is clamped into the last cell.
  const CellCoord hi = grid.CellOf(Vec3(10, 10, 10));
  EXPECT_EQ(hi.x, 9);
  EXPECT_EQ(hi.y, 9);
  EXPECT_EQ(hi.z, 9);
}

TEST(GridMapperTest, PointsOutsideDomainClampIntoBoundaryCells) {
  const GridMapper grid(MakeBox(0, 0, 0, 10, 10, 10), 5);
  const CellCoord below = grid.CellOf(Vec3(-100, -1, 3));
  EXPECT_EQ(below.x, 0);
  EXPECT_EQ(below.y, 0);
  const CellCoord above = grid.CellOf(Vec3(50, 10.5f, 3));
  EXPECT_EQ(above.x, 4);
  EXPECT_EQ(above.y, 4);
}

TEST(GridMapperTest, RangeOfSmallBoxIsSingleCell) {
  const GridMapper grid(MakeBox(0, 0, 0, 100, 100, 100), 10);
  const CellRange r = grid.RangeOf(MakeBox(11, 11, 11, 12, 12, 12));
  EXPECT_EQ(r.Count(), 1u);
  EXPECT_EQ(r.lo.x, 1);
}

TEST(GridMapperTest, RangeOfSpanningBoxCoversMultipleCells) {
  const GridMapper grid(MakeBox(0, 0, 0, 100, 100, 100), 10);
  const CellRange r = grid.RangeOf(MakeBox(5, 5, 5, 35, 15, 5));
  EXPECT_EQ(r.lo.x, 0);
  EXPECT_EQ(r.hi.x, 3);
  EXPECT_EQ(r.lo.y, 0);
  EXPECT_EQ(r.hi.y, 1);
  EXPECT_EQ(r.Count(), 8u);
}

TEST(GridMapperTest, ResolutionOneIsASingleCell) {
  const GridMapper grid(MakeBox(0, 0, 0, 10, 10, 10), 1);
  EXPECT_EQ(grid.TotalCells(), 1u);
  const CellRange r = grid.RangeOf(MakeBox(-5, -5, -5, 50, 50, 50));
  EXPECT_EQ(r.Count(), 1u);
}

TEST(GridMapperTest, DegenerateFlatDomainStillMaps) {
  // A domain with zero extent on z (all boxes in one plane).
  const GridMapper grid(MakeBox(0, 0, 5, 10, 10, 5), 4);
  const CellCoord c = grid.CellOf(Vec3(9, 1, 5));
  EXPECT_EQ(c.x, 3);
  EXPECT_EQ(c.y, 0);
  EXPECT_EQ(c.z, 0);
}

TEST(GridMapperTest, AnisotropicResolution) {
  const GridMapper grid(MakeBox(0, 0, 0, 100, 10, 1), 10, 2, 1);
  EXPECT_EQ(grid.res_x(), 10);
  EXPECT_EQ(grid.res_y(), 2);
  EXPECT_EQ(grid.res_z(), 1);
  EXPECT_EQ(grid.TotalCells(), 20u);
}

TEST(GridMapperTest, CellBoundsTileTheDomain) {
  const GridMapper grid(MakeBox(0, 0, 0, 10, 10, 10), 5);
  const Box first = grid.CellBounds(CellCoord{0, 0, 0});
  EXPECT_FLOAT_EQ(first.hi.x, 2.0f);
  const Box last = grid.CellBounds(CellCoord{4, 4, 4});
  EXPECT_FLOAT_EQ(last.lo.x, 8.0f);
  EXPECT_FLOAT_EQ(last.hi.x, 10.0f);
}

TEST(GridMapperTest, EveryPointMapsIntoItsCellBounds) {
  const GridMapper grid(MakeBox(0, 0, 0, 37, 41, 13), 7, 3, 9);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const Vec3 p(rng.NextFloat() * 37, rng.NextFloat() * 41,
                 rng.NextFloat() * 13);
    const CellCoord c = grid.CellOf(p);
    const Box bounds = grid.CellBounds(c);
    // Allow a float ulp of slack at the boundary.
    EXPECT_GE(p.x, bounds.lo.x - 1e-4f);
    EXPECT_LE(p.x, bounds.hi.x + 1e-4f);
    EXPECT_GE(p.y, bounds.lo.y - 1e-4f);
    EXPECT_LE(p.y, bounds.hi.y + 1e-4f);
  }
}

TEST(GridMapperTest, PackUnpackRoundTrip) {
  const CellCoord c{123, 456, 789};
  const CellCoord r = GridMapper::UnpackKey(GridMapper::PackKey(c));
  EXPECT_EQ(r.x, 123);
  EXPECT_EQ(r.y, 456);
  EXPECT_EQ(r.z, 789);
}

TEST(GridMapperTest, PackKeyIsInjectiveOnDistinctCoords) {
  // Coordinates up to 2^21-1 per axis must produce distinct keys.
  const uint64_t k1 = GridMapper::PackKey(CellCoord{1, 0, 0});
  const uint64_t k2 = GridMapper::PackKey(CellCoord{0, 1, 0});
  const uint64_t k3 = GridMapper::PackKey(CellCoord{0, 0, 1});
  EXPECT_NE(k1, k2);
  EXPECT_NE(k2, k3);
  EXPECT_NE(k1, k3);
}

TEST(ReferencePointTest, IsMaxOfMinCorners) {
  const Box a = MakeBox(0, 0, 0, 5, 5, 5);
  const Box b = MakeBox(2, 1, 3, 8, 8, 8);
  EXPECT_EQ(ReferencePoint(a, b), Vec3(2, 1, 3));
}

TEST(ReferencePointTest, LiesInsideBothBoxesWhenIntersecting) {
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const Box a = CenteredBox(rng.NextFloat() * 10, rng.NextFloat() * 10,
                              rng.NextFloat() * 10, 1 + rng.NextFloat());
    const Box b = CenteredBox(rng.NextFloat() * 10, rng.NextFloat() * 10,
                              rng.NextFloat() * 10, 1 + rng.NextFloat());
    if (Intersects(a, b)) {
      const Vec3 ref = ReferencePoint(a, b);
      EXPECT_TRUE(ContainsPoint(a, ref));
      EXPECT_TRUE(ContainsPoint(b, ref));
    }
  }
}

TEST(AxisResolutionsTest, SizesEveryAxisOnItsOwn) {
  const std::array<int, 3> res =
      AxisResolutions(MakeBox(0, 0, 0, 100, 20, 8), Vec3(2, 2, 4), 500);
  EXPECT_EQ(res, (std::array<int, 3>{50, 10, 2}));
}

TEST(AxisResolutionsTest, FlatAxisGetsOneCellWithoutCoarseningTheOthers) {
  // Planar data: zero extent and zero average edge on z.
  const std::array<int, 3> res =
      AxisResolutions(MakeBox(0, 0, 0, 1000, 1000, 0), Vec3(2, 2, 0), 500);
  EXPECT_EQ(res, (std::array<int, 3>{500, 500, 1}));
}

TEST(AxisResolutionsTest, PointLikeObjectsHitTheCapAndRatiosClampToOne) {
  const std::array<int, 3> res = AxisResolutions(
      MakeBox(0, 0, 0, 1e30f, 10, 1), Vec3(1e-30f, 0, 100), 64);
  EXPECT_EQ(res, (std::array<int, 3>{64, 64, 1}));
}

}  // namespace
}  // namespace touch
