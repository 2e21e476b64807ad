#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "hash/md5.hpp"

namespace dtr::core {

namespace {

// Guards against absurd section tables in corrupt files; generous versus
// the handful of subsystems a campaign actually snapshots.
constexpr std::uint32_t kMaxSections = 1024;
constexpr std::uint32_t kMaxSectionName = 256;

constexpr std::size_t kDigestSize = 16;
constexpr std::size_t kMinFileSize =
    sizeof(kCheckpointMagic) + 2 * sizeof(std::uint32_t) + kDigestSize;

}  // namespace

void CheckpointBuilder::add(std::string name, Bytes payload) {
  sections_.emplace_back(std::move(name), std::move(payload));
}

void JournalMark::save(ByteWriter& out) const {
  out.u64le(length);
  out.raw(digest.bytes.data(), digest.bytes.size());
}

bool JournalMark::restore(ByteReader& in) {
  length = in.u64le();
  const BytesView bytes = in.raw(digest.bytes.size());
  if (!in.ok() || !in.at_end()) return false;
  std::memcpy(digest.bytes.data(), bytes.data(), digest.bytes.size());
  return true;
}

namespace {

/// Feed the first `length` bytes of the file at `path` to `fn(BytesView)`
/// in bounded blocks.  Returns how many bytes were fed (less than `length`
/// when the file is shorter), or nullopt when it cannot be opened.
template <typename Fn>
std::optional<std::uint64_t> read_prefix(const std::string& path,
                                         std::uint64_t length, Fn&& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> block(1 << 16);
  std::uint64_t done = 0;
  while (done < length) {
    const std::uint64_t want = std::min<std::uint64_t>(block.size(),
                                                       length - done);
    in.read(reinterpret_cast<char*>(block.data()),
            static_cast<std::streamsize>(want));
    const auto got = static_cast<std::uint64_t>(in.gcount());
    if (got == 0) break;
    fn(BytesView(block.data(), static_cast<std::size_t>(got)));
    done += got;
  }
  return done;
}

}  // namespace

std::optional<Md5> verify_journal(const std::string& path,
                                  const JournalMark& mark,
                                  std::string& error) {
  Md5 md5;
  const std::optional<std::uint64_t> hashed =
      read_prefix(path, mark.length, [&](BytesView b) { md5.update(b); });
  if (!hashed) {
    error = "dataset journal '" + path + "' is missing";
    return std::nullopt;
  }
  if (*hashed < mark.length) {
    error = "dataset journal '" + path + "' is shorter than the snapshot's " +
            std::to_string(mark.length) + " bytes";
    return std::nullopt;
  }
  Md5 running = md5;
  if (md5.finish() != mark.digest) {
    error = "dataset journal '" + path +
            "' does not match the snapshot's digest (corrupt journal)";
    return std::nullopt;
  }
  return running;
}

bool copy_journal_prefix(const std::string& path, std::uint64_t length,
                         std::ostream& out) {
  const std::optional<std::uint64_t> copied =
      read_prefix(path, length, [&](BytesView b) {
        out.write(reinterpret_cast<const char*>(b.data()),
                  static_cast<std::streamsize>(b.size()));
      });
  return copied && *copied == length && out.good();
}

std::string CheckpointBuilder::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot open " + tmp + " for writing";
    // One pass: each byte is hashed as it is written.
    Md5 md5;
    const auto emit = [&](BytesView bytes) {
      md5.update(bytes);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    };
    ByteWriter header;
    header.raw(kCheckpointMagic, sizeof(kCheckpointMagic));
    header.u32le(kCheckpointVersion);
    header.u32le(static_cast<std::uint32_t>(sections_.size()));
    emit(header.view());
    for (const auto& [name, payload] : sections_) {
      ByteWriter entry;
      entry.u32le(static_cast<std::uint32_t>(name.size()));
      entry.raw(name.data(), name.size());
      entry.u64le(payload.size());
      emit(entry.view());
      emit(payload);
    }
    const Digest128 digest = md5.finish();
    out.write(reinterpret_cast<const char*>(digest.bytes.data()),
              static_cast<std::streamsize>(digest.bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return "short write to " + tmp;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return "cannot rename " + tmp + " to " + path;
  }
  return {};
}

std::optional<CheckpointView> CheckpointView::parse(BytesView data,
                                                    std::string& error) {
  if (data.size() < kMinFileSize) {
    error = "truncated checkpoint (shorter than the fixed header)";
    return std::nullopt;
  }
  if (std::memcmp(data.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    error = "not a checkpoint file (bad magic)";
    return std::nullopt;
  }
  // Verify the trailing digest before trusting any length field: a single
  // flipped bit anywhere — including in the section table — fails here.
  const std::size_t body_size = data.size() - kDigestSize;
  const Digest128 expect = Md5::digest(data.subspan(0, body_size));
  if (std::memcmp(expect.bytes.data(), data.data() + body_size, kDigestSize) !=
      0) {
    error = "checkpoint checksum mismatch (corrupt or truncated file)";
    return std::nullopt;
  }

  ByteReader in(data.subspan(0, body_size));
  in.skip(sizeof(kCheckpointMagic));
  const std::uint32_t version = in.u32le();
  if (version != kCheckpointVersion) {
    error = "unsupported checkpoint version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kCheckpointVersion) + ")";
    return std::nullopt;
  }
  const std::uint32_t count = in.u32le();
  if (count > kMaxSections) {
    error = "implausible section count";
    return std::nullopt;
  }

  CheckpointView view;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = in.u32le();
    if (!in.ok() || name_len == 0 || name_len > kMaxSectionName) {
      error = "malformed section name";
      return std::nullopt;
    }
    BytesView name_bytes = in.raw(name_len);
    std::string name(reinterpret_cast<const char*>(name_bytes.data()),
                     name_bytes.size());
    const std::uint64_t payload_len = in.u64le();
    if (!in.ok() || payload_len > in.remaining()) {
      error = "truncated section payload";
      return std::nullopt;
    }
    BytesView payload = in.raw(static_cast<std::size_t>(payload_len));
    auto [it, inserted] =
        view.sections_.emplace(std::move(name), Bytes(payload.begin(),
                                                      payload.end()));
    if (!inserted) {
      error = "duplicate section '" + it->first + "'";
      return std::nullopt;
    }
  }
  if (!in.ok() || !in.at_end()) {
    error = "trailing bytes after the last section";
    return std::nullopt;
  }
  return view;
}

std::optional<CheckpointView> CheckpointView::load(const std::string& path,
                                                   std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot read checkpoint file " + path;
    return std::nullopt;
  }
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return parse(data, error);
}

const Bytes* CheckpointView::section(std::string_view name) const {
  auto it = sections_.find(name);
  return it == sections_.end() ? nullptr : &it->second;
}

ByteReader CheckpointView::reader(std::string_view name) const {
  const Bytes* payload = section(name);
  if (payload == nullptr) {
    ByteReader failed{BytesView{}};
    failed.fail();
    return failed;
  }
  return ByteReader(*payload);
}

std::vector<std::string> CheckpointView::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) names.push_back(name);
  return names;
}

}  // namespace dtr::core
