#include "cli/archive.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/hash.h"

namespace rpr::cli {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kManifestName = "manifest.rpr";
constexpr std::string_view kMagic = "rpr-archive-v1";

std::string block_file_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "block_%03zu.rpr", index);
  return buf;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const fs::path& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("short write to " + path.string());
}

ArchiveManifest load_manifest(const fs::path& dir) {
  const auto bytes = read_file(dir / kManifestName);
  return ArchiveManifest::parse(
      std::string(bytes.begin(), bytes.end()));
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  return util::fnv1a64(bytes);
}

std::string ArchiveManifest::serialize() const {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "n " << code.n << '\n';
  out << "k " << code.k << '\n';
  out << "block_size " << block_size << '\n';
  out << "file_size " << file_size << '\n';
  out << "source " << source_name << '\n';
  for (std::size_t i = 0; i < checksums.size(); ++i) {
    out << "checksum " << i << ' ' << checksums[i] << '\n';
  }
  return out.str();
}

ArchiveManifest ArchiveManifest::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error("manifest: bad magic");
  }
  ArchiveManifest m;
  std::string key;
  while (in >> key) {
    if (key == "n") {
      in >> m.code.n;
    } else if (key == "k") {
      in >> m.code.k;
    } else if (key == "block_size") {
      in >> m.block_size;
    } else if (key == "file_size") {
      in >> m.file_size;
    } else if (key == "source") {
      in >> m.source_name;
    } else if (key == "checksum") {
      std::size_t index = 0;
      std::uint64_t value = 0;
      in >> index >> value;
      if (m.checksums.size() <= index) m.checksums.resize(index + 1);
      m.checksums[index] = value;
    } else {
      throw std::runtime_error("manifest: unknown key '" + key + "'");
    }
  }
  if (m.code.n == 0 || m.code.k == 0 || m.block_size == 0 ||
      m.checksums.size() != m.code.total()) {
    throw std::runtime_error("manifest: incomplete");
  }
  return m;
}

ArchiveManifest encode_file(const fs::path& input, const fs::path& dir,
                            rs::CodeConfig code) {
  const auto bytes = read_file(input);
  if (bytes.empty()) throw std::runtime_error("encode: empty input file");
  const rs::RSCode rs_code(code);

  ArchiveManifest m;
  m.code = code;
  m.file_size = bytes.size();
  m.block_size = (bytes.size() + code.n - 1) / code.n;
  m.source_name = input.filename().string();

  std::vector<rs::Block> stripe(code.total());
  for (std::size_t b = 0; b < code.n; ++b) {
    stripe[b].assign(m.block_size, 0);
    const std::size_t off = b * m.block_size;
    if (off < bytes.size()) {
      const std::size_t len =
          std::min<std::size_t>(m.block_size, bytes.size() - off);
      std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(off), len,
                  stripe[b].begin());
    }
  }
  rs_code.encode_stripe(stripe);

  fs::create_directories(dir);
  m.checksums.resize(code.total());
  for (std::size_t b = 0; b < code.total(); ++b) {
    m.checksums[b] = fnv1a64(stripe[b]);
    write_file(dir / block_file_name(b), stripe[b]);
  }
  const std::string manifest_text = m.serialize();
  write_file(dir / kManifestName,
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(manifest_text.data()),
                 manifest_text.size()));
  return m;
}

std::vector<std::size_t> VerifyReport::damaged() const {
  std::vector<std::size_t> out;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b] != BlockHealth::kOk) out.push_back(b);
  }
  return out;
}

VerifyReport verify_archive(const fs::path& dir) {
  VerifyReport report;
  report.manifest = load_manifest(dir);
  report.blocks.resize(report.manifest.code.total(), BlockHealth::kOk);
  for (std::size_t b = 0; b < report.manifest.code.total(); ++b) {
    const fs::path path = dir / block_file_name(b);
    if (!fs::exists(path)) {
      report.blocks[b] = BlockHealth::kMissing;
      continue;
    }
    const auto bytes = read_file(path);
    if (bytes.size() != report.manifest.block_size ||
        fnv1a64(bytes) != report.manifest.checksums[b]) {
      report.blocks[b] = BlockHealth::kCorrupt;
    }
  }
  return report;
}

namespace {

struct LoadedStripe {
  std::vector<rs::Block> stripe;
  /// Every block that had to be rebuilt: the pre-verified damage set plus
  /// any block whose bytes no longer matched the manifest at read time.
  std::vector<std::size_t> damaged;
};

/// Loads the stripe, decodes the damaged entries, and returns the full
/// stripe. Shared by repair and extract.
///
/// Every source block is re-verified against its manifest checksum *at read
/// time* (not just in the earlier verify pass — the file can change in
/// between); a mismatching source is never fed to the decoder and becomes
/// one more erasure. Rebuilt blocks are checked against the manifest before
/// being returned, so silently-wrong output is impossible.
LoadedStripe load_and_decode(const fs::path& dir, const VerifyReport& report) {
  const auto& m = report.manifest;
  LoadedStripe out;
  out.stripe.resize(m.code.total());
  out.damaged = report.damaged();
  for (std::size_t b = 0; b < m.code.total(); ++b) {
    if (report.blocks[b] != BlockHealth::kOk) continue;
    auto bytes = read_file(dir / block_file_name(b));
    if (bytes.size() != m.block_size || fnv1a64(bytes) != m.checksums[b]) {
      out.damaged.push_back(b);
      continue;
    }
    out.stripe[b].assign(bytes.begin(), bytes.end());
  }
  std::sort(out.damaged.begin(), out.damaged.end());
  if (out.damaged.size() > m.code.k) {
    throw std::runtime_error("archive unrecoverable: " +
                             std::to_string(out.damaged.size()) +
                             " blocks damaged, can tolerate " +
                             std::to_string(m.code.k));
  }
  if (!out.damaged.empty()) {
    const rs::RSCode rs_code(m.code);
    if (!rs_code.decode(out.stripe, out.damaged)) {
      throw std::runtime_error("archive decode failed");
    }
    for (const std::size_t b : out.damaged) {
      if (fnv1a64(out.stripe[b]) != m.checksums[b]) {
        throw std::runtime_error("decoded block " + std::to_string(b) +
                                 " failed checksum verification");
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::size_t> repair_archive(const fs::path& dir) {
  const VerifyReport report = verify_archive(dir);
  if (report.healthy()) return {};
  const LoadedStripe loaded = load_and_decode(dir, report);
  for (const std::size_t b : loaded.damaged) {
    write_file(dir / block_file_name(b), loaded.stripe[b]);
  }
  return loaded.damaged;
}

void extract_file(const fs::path& dir, const fs::path& output) {
  const VerifyReport report = verify_archive(dir);
  const auto& m = report.manifest;
  const LoadedStripe loaded = load_and_decode(dir, report);
  const auto& stripe = loaded.stripe;

  std::vector<std::uint8_t> bytes;
  bytes.reserve(m.file_size);
  for (std::size_t b = 0; b < m.code.n && bytes.size() < m.file_size; ++b) {
    const std::size_t len = std::min<std::size_t>(
        m.block_size, m.file_size - bytes.size());
    bytes.insert(bytes.end(), stripe[b].begin(),
                 stripe[b].begin() + static_cast<std::ptrdiff_t>(len));
  }
  write_file(output, bytes);
}

}  // namespace rpr::cli
