// Crash-safe file replacement and a checksummed, versioned framing format.
//
// atomic_write_file() is the durability primitive under checkpointing:
// write the payload to `<path>.tmp`, fsync the file, rename() it over
// `path`, and fsync the containing directory. A crash at any point leaves
// either the previous complete file or the new complete file — never a
// torn mix — and the stray `.tmp` from an interrupted write is simply
// overwritten by the next attempt.
//
// append_file_durable() is the journal primitive beside it: write the
// bytes to the end of an existing file opened with O_APPEND, then
// fdatasync. Opening per append means the bytes always land on the inode
// the path names now — after an atomic_write_file rename, the new one. A
// crash mid-append leaves the file's previous bytes intact plus at most a
// torn prefix of the new ones, which a checksummed record format detects.
//
// Framed files add a fixed binary header so readers can reject torn,
// truncated, or bit-rotted content deterministically instead of decoding
// garbage:
//
//   offset  size  field
//   0       4     magic "CCDF"
//   4       4     caller tag (e.g. "SCKP" for Stackelberg checkpoints)
//   8       4     format version (little-endian u32)
//   12      8     payload size in bytes (little-endian u64)
//   20      8     FNV-1a 64 checksum of the payload (little-endian u64)
//   28      -     payload
//
// read_framed_file() throws ccd::DataError (never UB, never a partial
// object) on any mismatch: missing file, short header, wrong magic or tag,
// version outside the caller's supported range, size mismatch, checksum
// mismatch. Version policy: readers state the [min, max] they decode;
// writers bump the version whenever the payload layout changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ccd::util {

/// FNV-1a 64-bit over a byte range (the framing checksum).
std::uint64_t fnv1a64(const void* data, std::size_t size);

/// Durably replace `path` with `payload` (write-temp + fsync + rename).
/// Throws ccd::DataError on any I/O failure.
void atomic_write_file(const std::string& path, const std::string& payload);

/// Durably append `bytes` to the existing file `path` (O_APPEND write +
/// fdatasync). Never creates the file. Throws ccd::DataError on any I/O
/// failure.
void append_file_durable(const std::string& path, const std::string& bytes);

/// Read a whole file; throws ccd::DataError when missing or unreadable.
std::string read_file(const std::string& path);

struct FramedPayload {
  std::uint32_t version = 0;
  std::string payload;
};

/// Atomically write `payload` framed under (tag, version). `tag` must be
/// exactly 4 bytes.
void write_framed_file(const std::string& path, const std::string& tag,
                       std::uint32_t version, const std::string& payload);

/// Read and verify a framed file written by write_framed_file. Throws
/// ccd::DataError on corruption, truncation, tag mismatch, or a version
/// outside [min_version, max_version].
FramedPayload read_framed_file(const std::string& path, const std::string& tag,
                               std::uint32_t min_version,
                               std::uint32_t max_version);

}  // namespace ccd::util
