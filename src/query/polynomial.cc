#include "query/polynomial.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/check.h"

namespace wavebatch {

Polynomial::Polynomial(size_t num_dims, std::vector<Monomial> terms)
    : num_dims_(num_dims) {
  // Canonicalize: merge equal exponent vectors, drop zero coefficients,
  // order terms deterministically.
  std::map<std::vector<uint32_t>, double> merged;
  for (Monomial& m : terms) {
    WB_CHECK_EQ(m.exponents.size(), num_dims_)
        << "monomial exponent count must match schema dimensionality";
    merged[std::move(m.exponents)] += m.coeff;
  }
  for (auto& [exps, coeff] : merged) {
    if (coeff != 0.0) terms_.push_back({coeff, exps});
  }
}

Polynomial Polynomial::Constant(size_t num_dims, double c) {
  if (c == 0.0) return Polynomial(num_dims);
  return Polynomial(num_dims,
                    {{c, std::vector<uint32_t>(num_dims, 0)}});
}

Polynomial Polynomial::Attribute(size_t num_dims, size_t dim) {
  return AttributePower(num_dims, dim, 1);
}

Polynomial Polynomial::AttributePower(size_t num_dims, size_t dim,
                                      uint32_t power) {
  WB_CHECK_LT(dim, num_dims);
  std::vector<uint32_t> exps(num_dims, 0);
  exps[dim] = power;
  return Polynomial(num_dims, {{1.0, std::move(exps)}});
}

uint32_t Polynomial::DegreeIn(size_t dim) const {
  WB_CHECK_LT(dim, num_dims_);
  uint32_t deg = 0;
  for (const Monomial& m : terms_) deg = std::max(deg, m.exponents[dim]);
  return deg;
}

uint32_t Polynomial::MaxVarDegree() const {
  uint32_t deg = 0;
  for (size_t i = 0; i < num_dims_; ++i) deg = std::max(deg, DegreeIn(i));
  return deg;
}

double Polynomial::Evaluate(const Tuple& t) const {
  WB_CHECK_EQ(t.size(), num_dims_);
  double acc = 0.0;
  for (const Monomial& m : terms_) {
    double term = m.coeff;
    for (size_t i = 0; i < num_dims_; ++i) {
      for (uint32_t e = 0; e < m.exponents[i]; ++e) {
        term *= static_cast<double>(t[i]);
      }
    }
    acc += term;
  }
  return acc;
}

Polynomial Polynomial::operator+(const Polynomial& other) const {
  WB_CHECK_EQ(num_dims_, other.num_dims_);
  std::vector<Monomial> terms = terms_;
  terms.insert(terms.end(), other.terms_.begin(), other.terms_.end());
  return Polynomial(num_dims_, std::move(terms));
}

Polynomial Polynomial::operator*(const Polynomial& other) const {
  WB_CHECK_EQ(num_dims_, other.num_dims_);
  std::vector<Monomial> terms;
  terms.reserve(terms_.size() * other.terms_.size());
  for (const Monomial& a : terms_) {
    for (const Monomial& b : other.terms_) {
      Monomial prod;
      prod.coeff = a.coeff * b.coeff;
      prod.exponents.resize(num_dims_);
      for (size_t i = 0; i < num_dims_; ++i) {
        prod.exponents[i] = a.exponents[i] + b.exponents[i];
      }
      terms.push_back(std::move(prod));
    }
  }
  return Polynomial(num_dims_, std::move(terms));
}

Polynomial Polynomial::operator*(double c) const {
  std::vector<Monomial> terms = terms_;
  for (Monomial& m : terms) m.coeff *= c;
  return Polynomial(num_dims_, std::move(terms));
}

std::string Polynomial::ToString() const {
  if (terms_.empty()) return "0";
  std::string out;
  for (size_t t = 0; t < terms_.size(); ++t) {
    const Monomial& m = terms_[t];
    if (t) out += " + ";
    bool has_var = false;
    std::string vars;
    for (size_t i = 0; i < num_dims_; ++i) {
      if (m.exponents[i] == 0) continue;
      if (has_var) vars += "*";
      vars += "x";
      vars += std::to_string(i);
      if (m.exponents[i] > 1) {
        vars += "^";
        vars += std::to_string(m.exponents[i]);
      }
      has_var = true;
    }
    if (!has_var) {
      out += std::to_string(m.coeff);
    } else if (m.coeff == 1.0) {
      out += vars;
    } else {
      out += std::to_string(m.coeff) + "*" + vars;
    }
  }
  return out;
}

}  // namespace wavebatch
