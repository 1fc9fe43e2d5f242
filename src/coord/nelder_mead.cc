#include "coord/nelder_mead.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace p2p::coord {

NelderMeadResult Minimize(const std::function<double(const Vec&)>& f, Vec& x,
                          const NelderMeadOptions& opt) {
  const std::size_t d = x.size();
  P2P_CHECK_MSG(d > 0, "empty start point");

  // Initial simplex: start point plus one per-axis perturbed vertex.
  std::vector<Vec> pts(d + 1, x);
  for (std::size_t i = 0; i < d; ++i) pts[i + 1][i] += opt.initial_step;
  std::vector<double> vals(d + 1);
  for (std::size_t i = 0; i <= d; ++i) vals[i] = f(pts[i]);

  // Every buffer is sized here once; the iterations only overwrite them,
  // with the same arithmetic in the same order as fresh temporaries.
  std::vector<std::size_t> idx(d + 1);
  Vec centroid(d), xr(d), xe(d), xc(d);
  // out = a + s * (b - a): Lerp into an existing buffer (out may be b).
  const auto lerp_into = [d](const Vec& a, const Vec& b, double s, Vec& out) {
    for (std::size_t k = 0; k < d; ++k) out[k] = a[k] + s * (b[k] - a[k]);
  };
  // Vertices by value. The index vector restarts from 0..d each time, so
  // ties break exactly as they do on a freshly built one.
  const auto order = [&] {
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return vals[a] < vals[b]; });
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
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i <= d; ++i) {
      if (i == worst) continue;
      for (std::size_t k = 0; k < d; ++k) centroid[k] += pts[i][k];
    }
    for (double& c : centroid) c /= static_cast<double>(d);

    // Reflection. An accepted trial point swaps buffers with the worst
    // vertex instead of copying.
    lerp_into(pts[worst], centroid, 1.0 + opt.reflection, xr);
    const double fr = f(xr);
    if (fr < vals[best]) {
      // Expansion.
      lerp_into(pts[worst], centroid, 1.0 + opt.expansion, xe);
      const double fe = f(xe);
      if (fe < fr) {
        pts[worst].swap(xe);
        vals[worst] = fe;
      } else {
        pts[worst].swap(xr);
        vals[worst] = fr;
      }
    } else if (fr < vals[second_worst]) {
      pts[worst].swap(xr);
      vals[worst] = fr;
    } else {
      // Contraction (outside if the reflected point improved on the worst,
      // inside otherwise).
      const bool outside = fr < vals[worst];
      lerp_into(outside ? xr : pts[worst], centroid, 1.0 - opt.contraction,
                xc);
      const double fc = f(xc);
      if (fc < std::min(fr, vals[worst])) {
        pts[worst].swap(xc);
        vals[worst] = fc;
      } else {
        // Shrink toward the best vertex.
        for (std::size_t i = 0; i <= d; ++i) {
          if (i == best) continue;
          lerp_into(pts[best], pts[i], opt.shrink, pts[i]);
          vals[i] = f(pts[i]);
        }
      }
    }
    result.iterations = iter + 1;
  }

  order();
  x = pts[idx[0]];
  result.best_value = vals[idx[0]];
  return result;
}

}  // namespace p2p::coord
