#include "coord/nelder_mead.h"

namespace p2p::coord {

NelderMeadResult Minimize(const std::function<double(const Vec&)>& f, Vec& x,
                          const NelderMeadOptions& opt) {
  SimplexScratch scratch;
  Vec point(x.size());
  return Minimize(
      [&](const double* p) {
        for (std::size_t k = 0; k < point.size(); ++k) point[k] = p[k];
        return f(point);
      },
      std::span<double>(x), opt, scratch);
}

}  // namespace p2p::coord
