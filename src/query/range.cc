#include "query/range.h"

#include "util/check.h"

namespace wavebatch {

Result<Range> Range::Create(const Schema& schema,
                            std::vector<Interval> intervals) {
  if (intervals.size() != schema.num_dims()) {
    return Status::InvalidArgument(
        "range must have one interval per dimension (" +
        std::to_string(schema.num_dims()) + "), got " +
        std::to_string(intervals.size()));
  }
  for (size_t i = 0; i < intervals.size(); ++i) {
    const Interval& iv = intervals[i];
    if (iv.lo > iv.hi) {
      return Status::InvalidArgument("interval lo > hi in dimension " +
                                     schema.dim(i).name);
    }
    if (iv.hi >= schema.dim(i).size) {
      return Status::OutOfRange("interval exceeds dimension " +
                                schema.dim(i).name + " (size " +
                                std::to_string(schema.dim(i).size) + ")");
    }
  }
  return Range(std::move(intervals));
}

Range Range::All(const Schema& schema) {
  std::vector<Interval> intervals;
  intervals.reserve(schema.num_dims());
  for (size_t i = 0; i < schema.num_dims(); ++i) {
    intervals.push_back({0, schema.dim(i).size - 1});
  }
  return Range(std::move(intervals));
}

uint64_t Range::Volume() const {
  uint64_t v = 1;
  for (const Interval& iv : intervals_) v *= iv.length();
  return v;
}

bool Range::Contains(const Tuple& t) const {
  WB_CHECK_EQ(t.size(), intervals_.size());
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (!intervals_[i].Contains(t[i])) return false;
  }
  return true;
}

Range Range::Restrict(size_t dim, uint32_t lo, uint32_t hi) const {
  WB_CHECK_LT(dim, intervals_.size());
  WB_CHECK_LE(lo, hi);
  WB_CHECK_GE(lo, intervals_[dim].lo);
  WB_CHECK_LE(hi, intervals_[dim].hi);
  std::vector<Interval> intervals = intervals_;
  intervals[dim] = {lo, hi};
  return Range(std::move(intervals));
}

std::string Range::ToString() const {
  std::string out;
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i) out += "x";
    out += "[";
    out += std::to_string(intervals_[i].lo);
    out += ",";
    out += std::to_string(intervals_[i].hi);
    out += "]";
  }
  return out;
}

}  // namespace wavebatch
