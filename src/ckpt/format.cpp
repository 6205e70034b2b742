#include "ckpt/format.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace iobts::ckpt {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void appendU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
  }
}

void appendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
  }
}

/// Strict little-endian cursor over the container bytes. Every read is
/// bounds-checked; running out of bytes is Truncated with the offset and
/// what was being read.
class Reader {
 public:
  Reader(const std::string& bytes, const std::string& origin)
      : bytes_(bytes), origin_(origin) {}

  std::size_t offset() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  std::string_view take(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw CheckpointError(
          ErrorKind::Truncated,
          origin_ + ": truncated checkpoint: need " + std::to_string(n) +
              " byte(s) for " + what + " at offset " + std::to_string(pos_) +
              ", only " + std::to_string(remaining()) + " left");
    }
    std::string_view view(bytes_.data() + pos_, n);
    pos_ += n;
    return view;
  }

  std::uint32_t u32(const char* what) {
    const std::string_view v = take(4, what);
    std::uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(static_cast<unsigned char>(v[i]))
             << (8 * i);
    }
    return out;
  }

  std::uint64_t u64(const char* what) {
    const std::string_view v = take(8, what);
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(static_cast<unsigned char>(v[i]))
             << (8 * i);
    }
    return out;
  }

 private:
  const std::string& bytes_;
  const std::string& origin_;
  std::size_t pos_ = 0;
};

}  // namespace

std::uint64_t fnv1a(const std::string& bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

namespace {

/// True when the last 8 bytes are the FNV-1a checksum of all before them.
bool trailerHolds(const std::string& bytes) {
  if (bytes.size() < 8) return false;
  const std::size_t body = bytes.size() - 8;
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[body + i]))
              << (8 * i);
  }
  return stored == fnv1a(bytes.substr(0, body));
}

}  // namespace

const char* errorKindName(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::Io: return "io";
    case ErrorKind::Truncated: return "truncated";
    case ErrorKind::BadMagic: return "bad_magic";
    case ErrorKind::BadVersion: return "bad_version";
    case ErrorKind::SectionChecksum: return "section_checksum";
    case ErrorKind::FileChecksum: return "file_checksum";
    case ErrorKind::Malformed: return "malformed";
    case ErrorKind::MissingSection: return "missing_section";
    case ErrorKind::ScenarioMismatch: return "scenario_mismatch";
    case ErrorKind::StateDivergence: return "state_divergence";
  }
  return "unknown";
}

const Section* CheckpointFile::find(const std::string& name) const noexcept {
  for (const Section& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Section& CheckpointFile::require(const std::string& name) const {
  const Section* s = find(name);
  if (s == nullptr) {
    throw CheckpointError(ErrorKind::MissingSection,
                          "checkpoint is missing required section '" + name +
                              "'");
  }
  return *s;
}

std::string encodeCheckpoint(const CheckpointFile& file) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  appendU32(out, kFormatVersion);
  appendU32(out, static_cast<std::uint32_t>(file.sections.size()));
  for (const Section& s : file.sections) {
    appendU32(out, static_cast<std::uint32_t>(s.name.size()));
    out.append(s.name);
    appendU64(out, s.payload.size());
    out.append(s.payload);
    appendU64(out, fnv1a(s.payload));
  }
  appendU64(out, fnv1a(out));
  return out;
}

CheckpointFile decodeCheckpoint(const std::string& bytes,
                                const std::string& origin) {
  Reader reader(bytes, origin);
  const std::string_view magic = reader.take(sizeof(kMagic), "file magic");
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError(ErrorKind::BadMagic,
                          origin + ": not a checkpoint file (bad magic)");
  }
  const std::uint32_t version = reader.u32("format version");
  if (version != kFormatVersion) {
    throw CheckpointError(
        ErrorKind::BadVersion,
        origin + ": checkpoint format version " + std::to_string(version) +
            " is not supported (this build reads version " +
            std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t count = reader.u32("section count");
  // The count is untrusted: bound it by the smallest section (u32 name
  // length, 1-byte name, u64 payload length, u64 checksum) before it sizes
  // an allocation. In an intact file -- trailer checksum holds -- the count
  // itself is wrong; otherwise the file was cut short.
  constexpr std::size_t kMinSectionBytes = 4 + 1 + 8 + 8;
  if (count > reader.remaining() / kMinSectionBytes) {
    const std::string detail =
        std::to_string(count) + " section(s) declared at offset " +
        std::to_string(reader.offset() - 4) + " cannot fit in the remaining " +
        std::to_string(reader.remaining()) + " byte(s)";
    if (trailerHolds(bytes)) {
      throw CheckpointError(ErrorKind::Malformed, origin + ": " + detail);
    }
    throw CheckpointError(ErrorKind::Truncated,
                          origin + ": truncated checkpoint: " + detail);
  }
  CheckpointFile file;
  file.sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Section section;
    const std::uint32_t name_len = reader.u32("section name length");
    section.name = std::string(reader.take(name_len, "section name"));
    if (section.name.empty() ||
        section.name.find('\0') != std::string::npos) {
      throw CheckpointError(ErrorKind::Malformed,
                            origin + ": section " + std::to_string(i) +
                                " has an empty or NUL-bearing name");
    }
    if (file.find(section.name) != nullptr) {
      throw CheckpointError(
          ErrorKind::Malformed,
          origin + ": duplicate section '" + section.name + "'");
    }
    const std::uint64_t payload_len = reader.u64("section payload length");
    section.payload =
        std::string(reader.take(payload_len, "section payload"));
    const std::uint64_t want = reader.u64("section checksum");
    const std::uint64_t got = fnv1a(section.payload);
    if (got != want) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    ": section '%s' payload checksum mismatch "
                    "(stored 0x%016llx, computed 0x%016llx)",
                    section.name.c_str(),
                    static_cast<unsigned long long>(want),
                    static_cast<unsigned long long>(got));
      throw CheckpointError(ErrorKind::SectionChecksum, origin + buf);
    }
    file.sections.push_back(std::move(section));
  }
  const std::size_t body_end = reader.offset();
  const std::uint64_t want = reader.u64("file checksum");
  const std::uint64_t got = fnv1a(bytes.substr(0, body_end));
  if (got != want) {
    char buf[112];
    std::snprintf(buf, sizeof(buf),
                  ": file checksum mismatch "
                  "(stored 0x%016llx, computed 0x%016llx)",
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got));
    throw CheckpointError(ErrorKind::FileChecksum, origin + buf);
  }
  if (reader.remaining() != 0) {
    throw CheckpointError(ErrorKind::Malformed,
                          origin + ": " + std::to_string(reader.remaining()) +
                              " trailing byte(s) after the file checksum");
  }
  return file;
}

void writeCheckpointFile(const std::string& path,
                         const CheckpointFile& file) {
  const std::string bytes = encodeCheckpoint(file);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw CheckpointError(ErrorKind::Io,
                            tmp + ": cannot open checkpoint for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      throw CheckpointError(ErrorKind::Io, tmp + ": short checkpoint write");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw CheckpointError(ErrorKind::Io, path + ": cannot publish checkpoint: " +
                                             ec.message());
  }
}

CheckpointFile readCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError(ErrorKind::Io,
                          path + ": cannot open checkpoint for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw CheckpointError(ErrorKind::Io, path + ": checkpoint read failed");
  }
  return decodeCheckpoint(bytes, path);
}

}  // namespace iobts::ckpt
