#include "cube/schema.h"

#include <set>

#include "gtest/gtest.h"

namespace wavebatch {
namespace {

TEST(SchemaTest, CreateValid) {
  Result<Schema> s = Schema::Create({{"lat", 64}, {"lon", 32}});
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->num_dims(), 2u);
  EXPECT_EQ(s->dim(0).name, "lat");
  EXPECT_EQ(s->dim(1).size, 32u);
  EXPECT_EQ(s->bits(0), 6u);
  EXPECT_EQ(s->bits(1), 5u);
  EXPECT_EQ(s->total_bits(), 11u);
  EXPECT_EQ(s->cell_count(), 2048u);
}

TEST(SchemaTest, RejectsEmpty) {
  EXPECT_FALSE(Schema::Create({}).ok());
}

TEST(SchemaTest, RejectsNonPowerOfTwo) {
  EXPECT_FALSE(Schema::Create({{"x", 3}}).ok());
  EXPECT_FALSE(Schema::Create({{"x", 0}}).ok());
  EXPECT_FALSE(Schema::Create({{"x", 1}}).ok());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  EXPECT_FALSE(Schema::Create({{"x", 4}, {"x", 8}}).ok());
}

TEST(SchemaTest, RejectsEmptyName) {
  EXPECT_FALSE(Schema::Create({{"", 4}}).ok());
}

TEST(SchemaTest, RejectsOversizedDomain) {
  // 8 dims of 2^8 = 64 bits > 62.
  std::vector<Dimension> dims;
  for (int i = 0; i < 8; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    dims.push_back({std::move(name), 256});
  }
  EXPECT_FALSE(Schema::Create(dims).ok());
}

TEST(SchemaTest, UniformHelper) {
  Schema s = Schema::Uniform(3, 16);
  EXPECT_EQ(s.num_dims(), 3u);
  EXPECT_EQ(s.dim(2).name, "d2");
  EXPECT_EQ(s.cell_count(), 4096u);
}

TEST(SchemaTest, DimIndex) {
  Schema s = Schema::Uniform(3, 4);
  Result<size_t> i = s.DimIndex("d1");
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(*i, 1u);
  EXPECT_FALSE(s.DimIndex("nope").ok());
}

TEST(SchemaTest, Contains) {
  Schema s = Schema::Uniform(2, 8);
  EXPECT_TRUE(s.Contains(std::vector<uint32_t>{0, 7}));
  EXPECT_FALSE(s.Contains(std::vector<uint32_t>{0, 8}));
  EXPECT_FALSE(s.Contains(std::vector<uint32_t>{0}));
}

TEST(SchemaTest, PackUnpackRoundTrip) {
  Result<Schema> s = Schema::Create({{"a", 4}, {"b", 8}, {"c", 2}});
  ASSERT_TRUE(s.ok());
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = 0; b < 8; ++b) {
      for (uint32_t c = 0; c < 2; ++c) {
        std::vector<uint32_t> coords = {a, b, c};
        const uint64_t cell = s->Pack(coords);
        EXPECT_LT(cell, s->cell_count());
        EXPECT_EQ(s->Unpack(cell), coords);
      }
    }
  }
}

TEST(SchemaTest, PackIsRowMajorDim0Slowest) {
  Result<Schema> s = Schema::Create({{"a", 4}, {"b", 8}});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->Pack(std::vector<uint32_t>{0, 0}), 0u);
  EXPECT_EQ(s->Pack(std::vector<uint32_t>{0, 1}), 1u);
  EXPECT_EQ(s->Pack(std::vector<uint32_t>{1, 0}), 8u);
  EXPECT_EQ(s->Pack(std::vector<uint32_t>{3, 7}), 31u);
}

TEST(SchemaTest, PackDistinct) {
  Schema s = Schema::Uniform(2, 4);
  std::set<uint64_t> cells;
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = 0; b < 4; ++b) {
      cells.insert(s.Pack(std::vector<uint32_t>{a, b}));
    }
  }
  EXPECT_EQ(cells.size(), 16u);
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(Schema::Uniform(2, 4) == Schema::Uniform(2, 4));
  EXPECT_FALSE(Schema::Uniform(2, 4) == Schema::Uniform(2, 8));
  EXPECT_FALSE(Schema::Uniform(2, 4) == Schema::Uniform(3, 4));
}

TEST(SchemaTest, ToString) {
  Result<Schema> s = Schema::Create({{"lat", 64}, {"lon", 32}});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->ToString(), "lat:64 x lon:32");
}

}  // namespace
}  // namespace wavebatch
