// Downhill-simplex (Nelder–Mead) minimiser — the optimiser the paper's §4.1
// prescribes for solving node coordinates ("Node x updates its own
// coordinates by executing downhill simplex algorithm").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "coord/vec.h"
#include "util/check.h"

namespace p2p::coord {

struct NelderMeadOptions {
  std::size_t max_iterations = 400;
  // Convergence: stop when the simplex's value spread falls below this.
  double f_tolerance = 1e-8;
  // Initial simplex edge length (per-axis perturbation of the start point).
  double initial_step = 50.0;
  // Standard coefficients.
  double reflection = 1.0;
  double expansion = 2.0;
  double contraction = 0.5;
  double shrink = 0.5;
};

struct NelderMeadResult {
  double best_value = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

// A simplex's working storage. Reused across Minimize calls, it allocates
// only when a call needs more dimensions than any before it.
struct SimplexScratch {
  std::vector<double> rows;        // d + 1 vertices, then 4 d-wide buffers
  std::vector<double*> vertex;     // the vertex rows, swapped, never copied
  std::vector<double> vals;        // f at each vertex
  std::vector<std::size_t> order;  // vertices by value
};

namespace internal {

// order = 0..n-1 sorted by vals with std::sort. Returns true when the
// result orders the vertices by (value, index): libstdc++ sorts 16 elements
// or fewer with a plain insertion sort, which is stable, so it does there
// unless a value is NaN. Elsewhere the order is std::sort's alone.
inline bool SortVertices(const double* vals, std::size_t* order,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order, order + n, [vals](std::size_t a, std::size_t b) {
    return vals[a] < vals[b];
  });
#if defined(__GLIBCXX__)
  return n <= 16 &&
         std::none_of(vals, vals + n, [](double v) { return std::isnan(v); });
#else
  return false;
#endif
}

// With order by (value, index) except for order[n-1], whose value changed
// to a number (not NaN), moves that vertex to its place, which is where
// SortVertices would now put it.
inline void ReinsertLast(const double* vals, std::size_t* order,
                         std::size_t n) {
  const std::size_t v = order[n - 1];
  const double fv = vals[v];
  std::size_t j = n - 1;
  for (; j > 0; --j) {
    const std::size_t u = order[j - 1];
    if (!(fv < vals[u] || (fv == vals[u] && v < u))) break;
    order[j] = u;
  }
  order[j] = v;
}

}  // namespace internal

// Minimise f(p), where p points at x.size() coordinates, starting from x
// (overwritten with the best point). f is called directly, and the simplex
// lives in `scratch`.
template <typename F>
NelderMeadResult Minimize(F&& f, std::span<double> x,
                          const NelderMeadOptions& opt,
                          SimplexScratch& scratch) {
  const std::size_t d = x.size();
  P2P_CHECK_MSG(d > 0, "empty start point");

  // Initial simplex: start point plus one per-axis perturbed vertex.
  scratch.rows.resize((d + 5) * d);
  scratch.vertex.resize(d + 1);
  scratch.vals.resize(d + 1);
  scratch.order.resize(d + 1);
  double** const pts = scratch.vertex.data();
  double* const vals = scratch.vals.data();
  std::size_t* const idx = scratch.order.data();
  double* row = scratch.rows.data();
  for (std::size_t i = 0; i <= d; ++i, row += d) {
    pts[i] = row;
    std::copy(x.begin(), x.end(), row);
  }
  for (std::size_t i = 0; i < d; ++i) pts[i + 1][i] += opt.initial_step;
  for (std::size_t i = 0; i <= d; ++i) vals[i] = f(pts[i]);
  double* const centroid = row;
  double* xr = row + d;
  double* xe = row + 2 * d;
  double* xc = row + 3 * d;

  // out = a + s * (b - a) (out may be b).
  const auto lerp_into = [d](const double* a, const double* b, double s,
                             double* out) {
    for (std::size_t k = 0; k < d; ++k) out[k] = a[k] + s * (b[k] - a[k]);
  };

  // Vertices by value. A step other than a shrink replaces only the worst
  // vertex, with a value that passed a `<` test and so is not NaN. While
  // idx holds the others by (value, index), re-inserting that one gives
  // the order a full sort would.
  bool by_key = false;
  const auto order = [&] {
    if (by_key) {
      internal::ReinsertLast(vals, idx, d + 1);
    } else {
      by_key = internal::SortVertices(vals, idx, d + 1);
    }
  };

  NelderMeadResult result;
  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    order();
    const std::size_t best = idx[0];
    const std::size_t worst = idx[d];
    const std::size_t second_worst = idx[d - 1];

    if (std::abs(vals[worst] - vals[best]) <= opt.f_tolerance) {
      result.converged = true;
      result.iterations = iter;
      break;
    }

    // Centroid of all but the worst vertex.
    std::fill(centroid, centroid + d, 0.0);
    for (std::size_t i = 0; i <= d; ++i) {
      if (i == worst) continue;
      for (std::size_t k = 0; k < d; ++k) centroid[k] += pts[i][k];
    }
    for (std::size_t k = 0; k < d; ++k)
      centroid[k] /= static_cast<double>(d);

    // Reflection. An accepted trial point swaps rows with the worst vertex
    // instead of copying.
    lerp_into(pts[worst], centroid, 1.0 + opt.reflection, xr);
    const double fr = f(xr);
    if (fr < vals[best]) {
      // Expansion.
      lerp_into(pts[worst], centroid, 1.0 + opt.expansion, xe);
      const double fe = f(xe);
      if (fe < fr) {
        std::swap(pts[worst], xe);
        vals[worst] = fe;
      } else {
        std::swap(pts[worst], xr);
        vals[worst] = fr;
      }
    } else if (fr < vals[second_worst]) {
      std::swap(pts[worst], xr);
      vals[worst] = fr;
    } else {
      // Contraction (outside if the reflected point improved on the worst,
      // inside otherwise).
      const bool outside = fr < vals[worst];
      lerp_into(outside ? xr : pts[worst], centroid, 1.0 - opt.contraction,
                xc);
      const double fc = f(xc);
      if (fc < std::min(fr, vals[worst])) {
        std::swap(pts[worst], xc);
        vals[worst] = fc;
      } else {
        // Shrink toward the best vertex.
        for (std::size_t i = 0; i <= d; ++i) {
          if (i == best) continue;
          lerp_into(pts[best], pts[i], opt.shrink, pts[i]);
          vals[i] = f(pts[i]);
        }
        by_key = false;
      }
    }
    result.iterations = iter + 1;
  }

  order();
  std::copy(pts[idx[0]], pts[idx[0]] + d, x.begin());
  result.best_value = vals[idx[0]];
  return result;
}

// Minimise `f` starting from `x` (modified in place to the best point):
// the template above behind a std::function, for callers off the hot path.
NelderMeadResult Minimize(const std::function<double(const Vec&)>& f, Vec& x,
                          const NelderMeadOptions& options = {});

}  // namespace p2p::coord
