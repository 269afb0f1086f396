#include "core/study_runner.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace flexrt::core {

ShardSpec parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  FLEXRT_REQUIRE(slash != std::string::npos && slash > 0 &&
                     slash + 1 < text.size(),
                 "shard must look like k/N, e.g. 2/4");
  char* rest = nullptr;
  const long k = std::strtol(text.c_str(), &rest, 10);
  FLEXRT_REQUIRE(rest == text.c_str() + slash, "shard index is not a number");
  const long n = std::strtol(text.c_str() + slash + 1, &rest, 10);
  FLEXRT_REQUIRE(*rest == '\0', "shard count is not a number");
  FLEXRT_REQUIRE(n >= 1, "shard count must be >= 1");
  FLEXRT_REQUIRE(k >= 1 && k <= n, "shard index must be in [1, N]");
  return {static_cast<std::size_t>(k - 1), static_cast<std::size_t>(n)};
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t trials,
                                                const ShardSpec& shard) {
  FLEXRT_REQUIRE(shard.count >= 1 && shard.index < shard.count,
                 "invalid shard spec");
  const std::size_t per = trials / shard.count;
  const std::size_t rem = trials % shard.count;
  const std::size_t begin =
      shard.index * per + std::min(shard.index, rem);
  const std::size_t size = per + (shard.index < rem ? 1 : 0);
  return {begin, begin + size};
}

namespace {

/// Whole-token unsigned parse; throws ModelError on trailing garbage so a
/// typo like "--trials abc" fails loudly instead of silently running a
/// 0-trial study (same strictness as parse_shard).
std::uint64_t parse_count(const char* flag, const char* text, int base) {
  char* rest = nullptr;
  const unsigned long long v = std::strtoull(text, &rest, base);
  FLEXRT_REQUIRE(rest != text && *rest == '\0',
                 std::string(flag) + ": bad value '" + text + "'");
  return v;
}

}  // namespace

bool parse_study_flag(StudyOptions& opts, int argc, char** argv, int& i,
                      const char* trials_flag) {
  const std::string arg = argv[i];
  if (arg != trials_flag && arg != "--seed" && arg != "--shard") return false;
  if (i + 1 >= argc) throw ModelError(arg + ": missing value");
  const char* value = argv[++i];
  if (arg == trials_flag) {
    opts.trials = static_cast<std::size_t>(parse_count(trials_flag, value, 10));
  } else if (arg == "--seed") {
    opts.base_seed = parse_count("--seed", value, 0);
  } else {
    opts.shard = parse_shard(value);
  }
  return true;
}

Rng trial_rng(std::uint64_t base_seed, std::size_t index) noexcept {
  // Distinct per-trial streams: the Rng constructor splitmixes the seed, so
  // a golden-ratio stride on the index is enough to decorrelate trials.
  return Rng(base_seed + 0x9E3779B97F4A7C15ULL *
                             (static_cast<std::uint64_t>(index) + 1));
}

}  // namespace flexrt::core
