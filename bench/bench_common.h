#ifndef OPENBG_BENCH_BENCH_COMMON_H_
#define OPENBG_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "core/openbg.h"
#include "kge/trainer.h"
#include "util/parse.h"
#include "util/string_util.h"

namespace openbg::bench {

/// Shared CLI for the table/figure reproduction binaries:
///   --scale <f>           multiplies the synthetic-world taxonomy sizes
///   --products <n>        product count
///   --seed <n>            world seed
///   --threads <n>         evaluator worker threads (metrics are identical
///                         to serial; only wall-clock changes)
///   --train-threads <n>   KGE trainer threads (0 = hardware); with
///                         --train-mode hogwild the updates race benignly,
///                         with deterministic they are bit-identical to 1
///                         thread
///   --train-mode <m>      'hogwild' (default) or 'deterministic'
///   --parse-policy <p>    'strict' (default) or 'skip': how file loaders
///                         treat malformed lines
///   (an unknown --train-mode / --parse-policy value exits 2; other flags
///   this parser does not know are skipped, so a bench can re-parse argv
///   for its own)
///   --max-parse-errors <n> abort a 'skip' load after n bad lines (0 = no
///                         limit)
///   --checkpoint-dir <d>  write/resume per-model trainer checkpoints
///                         under this directory (empty = disabled)
///   --ann <0|1>           rank with the IVF+int8 ANN path (src/ann) for
///                         models that expose a tail-scan spec; others
///                         fall back to the exact scan
///   --ann-nprobe <n>      clusters probed per ANN query (>= num_clusters
///                         degenerates to exact)
///   --ann-clusters <n>    IVF cluster count (0 = auto ~sqrt(E))
/// Defaults give a ~1/1000-of-paper world that runs each bench in minutes
/// on one core.
struct BenchArgs {
  double scale = 1.0;
  size_t products = 4000;
  uint64_t seed = 7;
  size_t threads = 1;
  size_t train_threads = 1;
  kge::TrainMode train_mode = kge::TrainMode::kHogwild;
  util::ParseOptions parse;
  std::string checkpoint_dir;
  bool ann = false;
  size_t ann_nprobe = 8;
  size_t ann_clusters = 0;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
      if (std::strcmp(argv[i], "--scale") == 0) {
        args.scale = std::atof(argv[i + 1]);
      } else if (std::strcmp(argv[i], "--products") == 0) {
        args.products = static_cast<size_t>(std::atoll(argv[i + 1]));
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        args.seed = static_cast<uint64_t>(std::atoll(argv[i + 1]));
      } else if (std::strcmp(argv[i], "--threads") == 0) {
        args.threads = static_cast<size_t>(std::atoll(argv[i + 1]));
      } else if (std::strcmp(argv[i], "--train-threads") == 0) {
        args.train_threads = static_cast<size_t>(std::atoll(argv[i + 1]));
      } else if (std::strcmp(argv[i], "--train-mode") == 0) {
        args.train_mode = EnumFlag<kge::TrainMode>(
            argv[i], argv[i + 1],
            {{"hogwild", kge::TrainMode::kHogwild},
             {"deterministic", kge::TrainMode::kDeterministic}});
      } else if (std::strcmp(argv[i], "--parse-policy") == 0) {
        args.parse.policy = EnumFlag<util::ParsePolicy>(
            argv[i], argv[i + 1],
            {{"strict", util::ParsePolicy::kStrict},
             {"skip", util::ParsePolicy::kSkipAndReport}});
      } else if (std::strcmp(argv[i], "--max-parse-errors") == 0) {
        args.parse.max_errors = static_cast<size_t>(std::atoll(argv[i + 1]));
      } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0) {
        args.checkpoint_dir = argv[i + 1];
      } else if (std::strcmp(argv[i], "--ann") == 0) {
        args.ann = std::atoi(argv[i + 1]) != 0;
      } else if (std::strcmp(argv[i], "--ann-nprobe") == 0) {
        args.ann_nprobe = static_cast<size_t>(std::atoll(argv[i + 1]));
      } else if (std::strcmp(argv[i], "--ann-clusters") == 0) {
        args.ann_clusters = static_cast<size_t>(std::atoll(argv[i + 1]));
      }
    }
    return args;
  }

  /// The value of enum flag `flag` named `value`. An unknown name exits 2
  /// with the accepted names, so a typo never silently picks the default.
  template <typename E>
  static E EnumFlag(const char* flag, const char* value,
                    std::initializer_list<std::pair<const char*, E>> names) {
    for (const auto& [name, e] : names) {
      if (std::strcmp(value, name) == 0) return e;
    }
    std::string accepted;
    for (const auto& [name, e] : names) {
      accepted += accepted.empty() ? "'" : ", '";
      accepted += name;
      accepted += "'";
    }
    std::fprintf(stderr, "%s: unknown value '%s' (expected %s)\n", flag, value,
                 accepted.c_str());
    std::exit(2);
  }

  core::OpenBG::Options ToOptions() const {
    core::OpenBG::Options opts;
    opts.world.scale = scale;
    opts.world.num_products = products;
    opts.world.seed = seed;
    return opts;
  }
};

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s of the OpenBG paper, ICDE 2023; synthetic\n",
              paper_ref);
  std::printf(" world stands in for the proprietary Alibaba data — see\n");
  std::printf(" DESIGN.md; compare *shapes*, not absolute values)\n");
  std::printf("================================================================\n");
}

}  // namespace openbg::bench

#endif  // OPENBG_BENCH_BENCH_COMMON_H_
