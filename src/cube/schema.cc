#include "cube/schema.h"

#include <set>

#include "util/bits.h"
#include "util/check.h"

namespace wavebatch {

Result<Schema> Schema::Create(std::vector<Dimension> dims) {
  if (dims.empty()) {
    return Status::InvalidArgument("schema needs at least one dimension");
  }
  std::set<std::string> names;
  uint32_t total_bits = 0;
  std::vector<uint32_t> bits;
  bits.reserve(dims.size());
  for (const Dimension& d : dims) {
    if (d.name.empty()) {
      return Status::InvalidArgument("dimension name must be non-empty");
    }
    if (!names.insert(d.name).second) {
      return Status::InvalidArgument("duplicate dimension name: " + d.name);
    }
    if (d.size < 2 || !IsPowerOfTwo(d.size)) {
      return Status::InvalidArgument("dimension '" + d.name +
                                     "' size must be a power of two >= 2");
    }
    bits.push_back(ExactLog2(d.size));
    total_bits += bits.back();
  }
  if (total_bits > 62) {
    return Status::InvalidArgument(
        "domain too large: cell ids must fit in 62 bits");
  }
  Schema s;
  s.dims_ = std::move(dims);
  s.bits_ = std::move(bits);
  s.total_bits_ = total_bits;
  return s;
}

Schema Schema::Uniform(size_t num_dims, uint32_t size) {
  std::vector<Dimension> dims;
  dims.reserve(num_dims);
  for (size_t i = 0; i < num_dims; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    dims.push_back({std::move(name), size});
  }
  Result<Schema> r = Create(std::move(dims));
  WB_CHECK(r.ok()) << r.status();
  return std::move(r).value();
}

Result<size_t> Schema::DimIndex(const std::string& name) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i].name == name) return i;
  }
  return Status::NotFound("no dimension named '" + name + "'");
}

bool Schema::Contains(std::span<const uint32_t> coords) const {
  if (coords.size() != dims_.size()) return false;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (coords[i] >= dims_[i].size) return false;
  }
  return true;
}

uint64_t Schema::Pack(std::span<const uint32_t> coords) const {
  WB_CHECK(Contains(coords)) << "coords out of domain for " << ToString();
  uint64_t cell = 0;
  for (size_t i = 0; i < dims_.size(); ++i) {
    cell = (cell << bits_[i]) | coords[i];
  }
  return cell;
}

std::vector<uint32_t> Schema::Unpack(uint64_t cell) const {
  WB_CHECK_LT(cell, cell_count());
  std::vector<uint32_t> coords(dims_.size());
  for (size_t i = dims_.size(); i-- > 0;) {
    coords[i] = static_cast<uint32_t>(cell & ((uint64_t{1} << bits_[i]) - 1));
    cell >>= bits_[i];
  }
  return coords;
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) out += " x ";
    out += dims_[i].name + ":" + std::to_string(dims_[i].size);
  }
  return out;
}

}  // namespace wavebatch
