// Shared helpers for the bench binaries: CLI parsing and the paper's
// reference numbers, printed beside ours for every reproduced artifact.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace icgmm::bench {

struct Options {
  std::size_t requests = 1000000;
  bool quick = false;

  static Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        opt.quick = true;
        opt.requests = 300000;
      } else if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
        opt.requests = std::strtoull(argv[++i], nullptr, 10);
      }
    }
    return opt;
  }
};

/// Ends a bench's flag parsing: `flag` == nullptr means --help (usage on
/// stdout, exit 0); otherwise `flag` is unknown or lacks its value (error
/// and usage on stderr, exit 2).
[[noreturn]] inline void exit_usage(const char* usage,
                                    const char* flag = nullptr) {
  if (flag == nullptr) {
    std::fputs(usage, stdout);
    std::exit(0);
  }
  std::fprintf(stderr, "error: unknown flag or missing value: %s\n%s", flag,
               usage);
  std::exit(2);
}

/// Paper reference rows (DAC'24, Fig. 6 and Table 1), in the paper's order.
struct PaperRow {
  const char* benchmark;
  double lru_miss_pct;
  double gmm_miss_pct;
  double lru_amat_us;
  double gmm_amat_us;
  double amat_reduction_pct;
};

inline constexpr PaperRow kPaperRows[] = {
    {"parsec", 1.47, 1.15, 3.92, 3.29, 16.23},
    {"memtier", 2.67, 1.48, 2.98, 2.09, 29.87},
    {"hashmap", 36.78, 30.64, 18.10, 11.02, 39.14},
    {"heap", 13.45, 11.09, 16.48, 12.46, 24.39},
    {"sysbench", 2.10, 1.23, 3.87, 2.91, 24.79},
    {"stream", 3.87, 2.58, 156.39, 125.71, 19.62},
    {"dlrm", 2.08, 1.54, 70.65, 58.43, 17.30},
};

inline const PaperRow* paper_row(const std::string& name) {
  for (const PaperRow& row : kPaperRows) {
    if (name == row.benchmark) return &row;
  }
  return nullptr;
}

}  // namespace icgmm::bench
