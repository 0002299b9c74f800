// perfbench_selftest — checks of the benchmark's own generator and
// statistics. Exit 0 when every check holds.
//
//  1. The same seed gives the same op stream; another seed does not.
//  2. The live count stays within one key of its target.
//  3. Zipf rank frequencies match the closed form (i+1)^-theta / H(n,
//     theta): each of the top 20 ranks within 3% relative, total
//     variation distance below 0.01 (1e7 draws over 1000 ranks).
//  4. A 1 M-op Zipfian stream with 24% insert/delete over a 1 M-key
//     universe generates in well under 10 s (the draw stays O(1)).
//  5. quantile() equals the nearest-rank element of a full sort.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "gen.h"
#include "measure.h"

namespace {

int failures = 0;
void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;
  const Spec spec{.universe = 20'000,
                  .live = 10'000,
                  .mix = {.get = 50, .update = 25, .churn = 24, .scan = 1},
                  .zipf = true,
                  .theta = 0.99,
                  .scan_len = 100};

  {  // 1 + 2
    Workload a(spec, 7), b(spec, 7), c(spec, 8);
    bool same = true, differs = false, level = true;
    for (int i = 0; i < 200'000; ++i) {
      const OpRec x = a.next(), y = b.next(), z = c.next();
      same &= x.slot == y.slot && x.kind == y.kind && x.ver == y.ver &&
              x.expect == y.expect;
      differs |= x.slot != z.slot || x.kind != z.kind;
      const size_t live = a.live_count();
      level &= live + 1 >= spec.live && live <= spec.live + 1;
    }
    expect(same, "same seed, same stream");
    expect(differs, "another seed, another stream");
    expect(level, "live count stays within one key of its target");
    expect(a.key(0) == b.key(0) && a.key(0) != c.key(0),
           "same seed, same key universe");
  }

  {  // 3
    const size_t n = 1000, draws = 10'000'000;
    ZipfAlias z(n, 0.99);
    Rng rng(42);
    std::vector<uint64_t> hits(n, 0);
    for (size_t i = 0; i < draws; ++i) ++hits[z.draw(rng)];
    double h = 0;
    for (size_t i = 0; i < n; ++i) h += std::pow(double(i + 1), -0.99);
    bool top = true;
    double tv = 0;
    for (size_t i = 0; i < n; ++i) {
      const double p = std::pow(double(i + 1), -0.99) / h;
      const double f = double(hits[i]) / double(draws);
      if (i < 20 && std::fabs(f - p) > 0.03 * p) top = false;
      tv += std::fabs(f - p) / 2;
    }
    expect(top, "Zipf: top-20 rank frequencies within 3% of closed form");
    expect(tv < 0.01, "Zipf: total variation distance < 0.01");
  }

  {  // 4
    const Spec big{.universe = 1'000'000,
                   .live = 500'000,
                   .mix = {.get = 70, .update = 5, .churn = 24, .scan = 1},
                   .zipf = true,
                   .theta = 0.99,
                   .scan_len = 100};
    const auto t0 = std::chrono::steady_clock::now();
    Workload w(big, 3);
    size_t deletes = 0;
    for (int i = 0; i < 1'000'000; ++i)
      deletes += w.next(false).op() == Op::kDelete ? 1 : 0;
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    std::printf("     1M-op Zipfian stream with %zu deletes: %.2fs\n", deletes,
                s);
    expect(deletes > 100'000 && s < 10.0,
           "Zipf stream with deletes generates in O(1) per op");
  }

  {  // 5
    Rng rng(5);
    bool same = true;
    for (int round = 0; round < 200; ++round) {
      std::vector<double> v(1 + rng.below(500));
      for (double& x : v) x = double(rng.below(50));  // many ties
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      for (const double q : {0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
        std::vector<double> work = v;
        const size_t rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(v.size())));
        same &= quantile(work, q) == sorted[std::max<size_t>(rank, 1) - 1];
      }
    }
    expect(same, "quantile() matches the nearest rank of a full sort");
  }

  std::printf("%s\n", failures == 0 ? "selftest: all checks hold"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
