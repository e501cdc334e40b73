#include "wavelet/dwt_nd.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"
#include "wavelet/dwt1d.h"

namespace wavebatch {
namespace {

DenseCube RandomCube(const Schema& schema, uint64_t seed) {
  DenseCube cube(schema);
  Rng rng(seed);
  for (uint64_t i = 0; i < cube.size(); ++i) cube[i] = rng.Gaussian();
  return cube;
}

Schema Shape(const std::vector<uint32_t>& sizes) {
  std::vector<Dimension> dims;
  for (size_t i = 0; i < sizes.size(); ++i) {
    dims.push_back({std::string(1, static_cast<char>('a' + i)), sizes[i]});
  }
  Result<Schema> schema = Schema::Create(std::move(dims));
  WB_CHECK(schema.ok()) << schema.status();
  return std::move(schema).value();
}

// The reference the tiled passes must reproduce bit for bit: ForwardDwt1D
// (or InverseDwt1D) on every line of every axis, dimension 0 first, one
// line at a time.
void LineByLine(DenseCube& cube, const WaveletFilter& filter, bool forward) {
  uint64_t post = cube.size();
  for (size_t dim = 0; dim < cube.schema().num_dims(); ++dim) {
    const size_t n = cube.schema().dim(dim).size;
    post /= n;
    std::vector<double> line(n);
    for (uint64_t block = 0; block < cube.size(); block += n * post) {
      for (uint64_t q = 0; q < post; ++q) {
        for (size_t j = 0; j < n; ++j) line[j] = cube[block + q + j * post];
        if (forward) {
          ForwardDwt1D(line, filter);
        } else {
          InverseDwt1D(line, filter);
        }
        for (size_t j = 0; j < n; ++j) cube[block + q + j * post] = line[j];
      }
    }
  }
}

bool SameBits(const DenseCube& a, const DenseCube& b) {
  return a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(double)) == 0;
}

// Checks ForwardDwtNd and InverseDwtNd, each on its own copy of a random
// cube over `schema`, against LineByLine.
void ExpectTiledMatchesLineByLine(const Schema& schema,
                                  const WaveletFilter& filter) {
  const DenseCube cube = RandomCube(schema, 31);
  for (bool forward : {true, false}) {
    DenseCube tiled = cube;
    DenseCube reference = cube;
    if (forward) {
      ForwardDwtNd(tiled, filter);
    } else {
      InverseDwtNd(tiled, filter);
    }
    LineByLine(reference, filter, forward);
    EXPECT_TRUE(SameBits(tiled, reference))
        << (forward ? "forward" : "inverse") << " over " << schema.cell_count()
        << " cells, " << schema.num_dims() << " dims";
  }
}

class DwtNdTest : public ::testing::TestWithParam<WaveletKind> {
 protected:
  const WaveletFilter& filter() const {
    return WaveletFilter::Get(GetParam());
  }
};

TEST_P(DwtNdTest, RoundTrip2D) {
  Schema schema = Schema::Uniform(2, 16);
  DenseCube cube = RandomCube(schema, 3);
  DenseCube copy = cube;
  ForwardDwtNd(copy, filter());
  InverseDwtNd(copy, filter());
  for (uint64_t i = 0; i < cube.size(); ++i) {
    EXPECT_NEAR(copy[i], cube[i], 1e-9);
  }
}

TEST_P(DwtNdTest, RoundTrip3DMixedSizes) {
  Result<Schema> schema = Schema::Create({{"a", 8}, {"b", 4}, {"c", 16}});
  ASSERT_TRUE(schema.ok());
  DenseCube cube = RandomCube(*schema, 5);
  DenseCube copy = cube;
  ForwardDwtNd(copy, filter());
  InverseDwtNd(copy, filter());
  for (uint64_t i = 0; i < cube.size(); ++i) {
    EXPECT_NEAR(copy[i], cube[i], 1e-9);
  }
}

TEST_P(DwtNdTest, PreservesInnerProducts) {
  Schema schema = Schema::Uniform(3, 8);
  DenseCube a = RandomCube(schema, 11);
  DenseCube b = RandomCube(schema, 12);
  const double dot = a.Dot(b);
  ForwardDwtNd(a, filter());
  ForwardDwtNd(b, filter());
  EXPECT_NEAR(a.Dot(b), dot, 1e-8 * std::abs(dot) + 1e-8);
}

TEST_P(DwtNdTest, SeparableCubeFactorsIntoTensorProduct) {
  // For f[x,y] = u[x]·v[y], the standard transform satisfies
  // f̂[i,j] = û[i]·v̂[j] — the property the sparse query rewrite relies on.
  const size_t n = 16;
  Schema schema = Schema::Uniform(2, n);
  Rng rng(21);
  std::vector<double> u(n), v(n);
  for (auto& x : u) x = rng.Gaussian();
  for (auto& x : v) x = rng.Gaussian();
  DenseCube cube(schema);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      cube.at(std::vector<uint32_t>{static_cast<uint32_t>(i),
                                    static_cast<uint32_t>(j)}) = u[i] * v[j];
    }
  }
  ForwardDwtNd(cube, filter());
  std::vector<double> uh = u, vh = v;
  ForwardDwt1D(uh, filter());
  ForwardDwt1D(vh, filter());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(cube.at(std::vector<uint32_t>{static_cast<uint32_t>(i),
                                                static_cast<uint32_t>(j)}),
                  uh[i] * vh[j], 1e-9);
    }
  }
}

TEST_P(DwtNdTest, ConstantCubeSingleCoefficient) {
  Schema schema = Schema::Uniform(3, 4);
  DenseCube cube(schema);
  for (uint64_t i = 0; i < cube.size(); ++i) cube[i] = 2.0;
  ForwardDwtNd(cube, filter());
  EXPECT_NEAR(cube[0], 2.0 * std::sqrt(static_cast<double>(cube.size())),
              1e-9);
  for (uint64_t i = 1; i < cube.size(); ++i) {
    EXPECT_NEAR(cube[i], 0.0, 1e-10);
  }
}

TEST_P(DwtNdTest, TiledPassesMatchLineByLineBitForBit) {
  // d = 1..5. Size-2 axes are the smallest a Schema allows (it rejects
  // size 1). Axes whose stride is below the 8-line tile (1, 2 or 4) take
  // the single-line path; a stride of exactly 8 is one tile wide; the
  // 8192-long axis is 8 * 8192 = kDwtChunkCells cells per tile, so each
  // of its two tiles is a chunk of its own.
  const std::vector<std::vector<uint32_t>> shapes = {
      {2},          {64},         {2, 2},          {4, 2},
      {2, 16},      {16, 4},      {8192, 16},      {8, 2, 2},
      {2, 4, 32},   {4, 8, 2, 2}, {2, 2, 2, 2, 2}, {8, 4, 2, 4, 2},
      {16, 2, 8, 2, 4}};
  for (const std::vector<uint32_t>& sizes : shapes) {
    ExpectTiledMatchesLineByLine(Shape(sizes), filter());
  }
}

TEST_P(DwtNdTest, ManyChunksPerAxisMatchLineByLineBitForBit) {
  // 16^5 = 1 M cells: every axis pass covers kDwtChunkCells cells per
  // chunk, so each runs as 16 chunks on the shared pool.
  const Schema schema = Schema::Uniform(5, 16);
  ASSERT_GE(schema.cell_count(), 16 * kDwtChunkCells);
  ExpectTiledMatchesLineByLine(schema, filter());
}

INSTANTIATE_TEST_SUITE_P(AllFilters, DwtNdTest,
                         ::testing::Values(WaveletKind::kHaar,
                                           WaveletKind::kDb4,
                                           WaveletKind::kDb6,
                                           WaveletKind::kDb8));

}  // namespace
}  // namespace wavebatch
