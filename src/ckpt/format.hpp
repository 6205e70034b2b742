// Checkpoint container format.
//
// A checkpoint file is a versioned, length-prefixed, checksummed section
// container:
//
//   magic[8]  = "IOBCKPT\n"
//   u32       format version (little-endian; currently 2)
//   u32       section count
//   per section, in order:
//     u32     name length, then name bytes (UTF-8, no NUL)
//     u64     payload length, then payload bytes
//     u64     FNV-1a checksum (hashName) of the payload bytes
//   u64       FNV-1a checksum of every preceding byte of the file
//
// All integers are little-endian (util/le_bytes.hpp), so the encoding is
// identical on every host. Section payloads are canonical `key=value`
// text (doubles rendered as C hexfloats, `%a`, which round-trip exactly);
// the container does not interpret them beyond the checksums.
//
// Reading is strict: every length is bounds-checked against the remaining
// bytes before use, per-section checksums are verified before the payload
// is surfaced, trailing garbage after the file checksum is an error, and
// every failure carries a CheckpointError::Kind that names the *first*
// defect precisely (truncation vs. bad magic vs. version skew vs. payload
// corruption vs. trailer corruption vs. structural damage). The invalid
// checkpoint corpus under checkpoints/invalid/ pins one diagnostic per
// kind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace iobts::ckpt {

/// Container format version this build writes and the only one it reads.
/// Bump on any change to the container layout *or* to the canonical state
/// sections (a version-1 reader must never half-understand version-2
/// state); readers reject other versions with BadVersion rather than
/// guessing.
inline constexpr std::uint32_t kFormatVersion = 2;

/// The 8-byte file magic.
inline constexpr char kMagic[8] = {'I', 'O', 'B', 'C', 'K', 'P', 'T', '\n'};

/// Everything that can be wrong with a checkpoint, from the outside in.
/// Each failure names the first defect found; the reader never continues
/// past a defect (a truncated file reports Truncated, not whatever the
/// garbage after the cut happens to decode as).
enum class ErrorKind : int {
  Io,               ///< cannot open / read / write the file at all
  Truncated,        ///< file ends before a declared length is satisfied
  BadMagic,         ///< first 8 bytes are not "IOBCKPT\n"
  BadVersion,       ///< container version this build does not speak
  SectionChecksum,  ///< a section payload fails its FNV checksum
  FileChecksum,     ///< the whole-file trailer checksum fails
  Malformed,        ///< structurally invalid (bad counts, duplicate or
                    ///< empty names, trailing bytes, unparseable meta)
  MissingSection,   ///< a required section is absent
  ScenarioMismatch, ///< checkpoint belongs to a different scenario
  StateDivergence,  ///< replay reached the watermark in a different state
};

/// Stable lowercase name for an ErrorKind ("truncated", "bad_magic", ...).
/// The invalid-corpus sweep keys on these.
const char* errorKindName(ErrorKind kind) noexcept;

class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(ErrorKind kind, std::string message)
      : std::runtime_error(std::move(message)), kind_(kind) {}

  ErrorKind kind() const noexcept { return kind_; }
  const char* kindName() const noexcept { return errorKindName(kind_); }

 private:
  ErrorKind kind_;
};

/// One named section: the unit of integrity. Payloads are opaque bytes to
/// the container (canonical text by convention of the layers above).
struct Section {
  std::string name;
  std::string payload;
};

/// A decoded checkpoint file: sections in file order. Section names are
/// unique (duplicates are Malformed).
struct CheckpointFile {
  std::vector<Section> sections;

  /// The section with `name`, or nullptr.
  const Section* find(const std::string& name) const noexcept;
  /// The section with `name`, or throw MissingSection naming it.
  const Section& require(const std::string& name) const;
};

/// Serialize to the container byte layout (including trailer checksum).
std::string encodeCheckpoint(const CheckpointFile& file);

/// Strict parse of container bytes; `origin` names the source (file path
/// or "<memory>") in diagnostics. Throws CheckpointError.
CheckpointFile decodeCheckpoint(const std::string& bytes,
                                const std::string& origin);

/// Encode and publish atomically (publishFile: write `path + ".tmp"`, then
/// rename it over `path`). Returns the container's size in bytes. Throws
/// CheckpointError{Io} on any filesystem failure.
std::size_t writeCheckpointFile(const std::string& path,
                                const CheckpointFile& file);

/// Read + decodeCheckpoint. Throws CheckpointError (Io if unreadable).
CheckpointFile readCheckpointFile(const std::string& path);

}  // namespace iobts::ckpt
