#include "penalty/lp.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/fingerprint.h"
#include "util/table.h"

namespace wavebatch {

LpPenalty::LpPenalty(double p) : p_(p) {
  WB_CHECK_GE(p, 1.0) << "Lp penalties require p >= 1 (convexity)";
}

LpPenalty LpPenalty::Infinity() { return LpPenalty(); }

double LpPenalty::Apply(std::span<const double> e) const {
  if (is_infinity_) {
    double max_abs = 0.0;
    for (double v : e) max_abs = std::max(max_abs, std::abs(v));
    return max_abs;
  }
  if (p_ == 1.0) {
    double acc = 0.0;
    for (double v : e) acc += std::abs(v);
    return acc;
  }
  if (p_ == 2.0) {
    double acc = 0.0;
    for (double v : e) acc += v * v;
    return std::sqrt(acc);
  }
  double acc = 0.0;
  for (double v : e) acc += std::pow(std::abs(v), p_);
  return std::pow(acc, 1.0 / p_);
}

std::string LpPenalty::name() const {
  if (is_infinity_) return "linf";
  std::string name = "l";
  name += FormatDouble(p_, 3);
  return name;
}

std::string LpPenalty::Fingerprint() const {
  std::string fp;
  // The type tag is the family ("lp"), not name(): name() rounds p for
  // display, and two different exponents must never fingerprint equal.
  fingerprint::AppendString(fp, "lp");
  fingerprint::AppendU64(fp, is_infinity_ ? 1 : 0);
  fingerprint::AppendF64(fp, p_);
  return fp;
}

}  // namespace wavebatch
