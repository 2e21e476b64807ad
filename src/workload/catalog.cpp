#include "workload/catalog.hpp"

#include "common/bytes.hpp"
#include "hash/md4.hpp"

namespace dtr::workload {

namespace {

struct TypeSpec {
  const char* type;
  const char* ext;
};

/// Size thresholds map a sampled size to a plausible content type.
TypeSpec type_for_size(std::uint64_t bytes, Rng& rng) {
  if (bytes < 20ull * 1000 * 1000) {
    return rng.chance(0.85) ? TypeSpec{"audio", "mp3"} : TypeSpec{"doc", "pdf"};
  }
  if (bytes < 120ull * 1000 * 1000) {
    return rng.chance(0.5) ? TypeSpec{"video", "avi"} : TypeSpec{"pro", "zip"};
  }
  return rng.chance(0.9) ? TypeSpec{"video", "avi"} : TypeSpec{"image", "iso"};
}

}  // namespace

FileCatalog::FileCatalog(const CatalogConfig& config, std::uint64_t seed)
    : config_(config),
      popularity_(config.popularity_zipf, config.file_count) {
  Rng rng(mix64(seed ^ 0xF11EC47A106ULL));
  ZipfSampler token_sampler(config_.token_zipf, config_.vocabulary);

  files_.reserve(config_.file_count);
  FileSizeModel size_model(config_.size_model);
  for (std::uint32_t i = 0; i < config_.file_count; ++i) {
    SyntheticFile f;
    std::uint64_t size = size_model.sample(rng);
    f.size = static_cast<std::uint32_t>(size);
    TypeSpec spec = type_for_size(size, rng);
    f.type = spec.type;

    // Name: 2-4 vocabulary tokens + serial + extension.  The serial keeps
    // names unique so provider-side dedup cannot collapse distinct files.
    std::size_t tokens = 2 + rng.below(3);
    std::string name;
    for (std::size_t t = 0; t < tokens; ++t) {
      if (t > 0) name += ' ';
      name += 'w';
      name += std::to_string(token_sampler(rng));
    }
    name += " f";
    name += std::to_string(i);
    name += '.';
    name += spec.ext;
    f.name = std::move(name);

    // fileID: MD4 of the synthetic identity — honest protocol behaviour
    // (forged IDs are injected by polluter clients, not by the catalog).
    f.id = Md4::digest(f.name);
    files_.push_back(std::move(f));
  }
}

std::size_t FileCatalog::sample_popular(Rng& rng) const {
  return static_cast<std::size_t>(popularity_(rng) - 1);
}

std::size_t FileCatalog::sample_uniform(Rng& rng) const {
  return static_cast<std::size_t>(rng.below(files_.size()));
}

}  // namespace dtr::workload
