// Small dense-vector helpers for d-dimensional network coordinates.
#pragma once

#include <cmath>
#include <vector>

#include "util/check.h"

namespace p2p::coord {

using Vec = std::vector<double>;

// Over n contiguous components (a Vec's data, or one row of a flat
// coordinate buffer); the Vec overloads below share this arithmetic.
inline double SquaredDistance(const double* a, const double* b,
                              std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

inline double SquaredDistance(const Vec& a, const Vec& b) {
  P2P_DCHECK(a.size() == b.size());
  return SquaredDistance(a.data(), b.data(), a.size());
}

inline double Distance(const Vec& a, const Vec& b) {
  return std::sqrt(SquaredDistance(a, b));
}

inline Vec Add(const Vec& a, const Vec& b) {
  P2P_DCHECK(a.size() == b.size());
  Vec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] + b[i];
  return r;
}

inline Vec Sub(const Vec& a, const Vec& b) {
  P2P_DCHECK(a.size() == b.size());
  Vec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

inline Vec Scale(const Vec& a, double s) {
  Vec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] * s;
  return r;
}

// a + s * (b - a)
inline Vec Lerp(const Vec& a, const Vec& b, double s) {
  P2P_DCHECK(a.size() == b.size());
  Vec r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] + s * (b[i] - a[i]);
  return r;
}

}  // namespace p2p::coord
