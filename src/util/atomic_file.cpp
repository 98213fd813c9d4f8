#include "util/atomic_file.hpp"

#include <cerrno>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/error.hpp"
#include "util/wire.hpp"

namespace ccd::util {
namespace {

[[noreturn]] void io_error(const std::string& what, const std::string& path) {
  throw DataError(what + " '" + path + "': " + std::strerror(errno));
}

/// Directory part of `path` ("." when there is none), for the post-rename
/// directory fsync that makes the rename itself durable.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Write all of `bytes` to `fd`, retrying short writes and EINTR; closes
/// `fd` and throws on failure.
void write_all(int fd, const std::string& bytes, const std::string& path) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      io_error("cannot write", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void atomic_write_file(const std::string& path, const std::string& payload) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) io_error("cannot create", tmp);
  write_all(fd, payload, tmp);
  if (::fsync(fd) != 0) {
    ::close(fd);
    io_error("cannot fsync", tmp);
  }
  if (::close(fd) != 0) io_error("cannot close", tmp);

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    io_error("cannot rename over", path);
  }

  // fsync the directory so the rename survives a crash; best-effort on
  // filesystems that refuse O_RDONLY directory fds.
  const int dir_fd = ::open(parent_dir(path).c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

void append_file_durable(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) io_error("cannot open for append", path);
  write_all(fd, bytes, path);
  if (::fdatasync(fd) != 0) {
    ::close(fd);
    io_error("cannot fdatasync", path);
  }
  if (::close(fd) != 0) io_error("cannot close", path);
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_error("cannot open", path);
  std::string out;
  char buffer[1 << 16];
  while (true) {
    const ::ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      io_error("cannot read", path);
    }
    if (n == 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

void write_framed_file(const std::string& path, const std::string& tag,
                       std::uint32_t version, const std::string& payload) {
  atomic_write_file(path, wire::encode_frame(tag, version, payload));
}

FramedPayload read_framed_file(const std::string& path, const std::string& tag,
                               std::uint32_t min_version,
                               std::uint32_t max_version) {
  const std::string raw = read_file(path);
  const std::string context = "file '" + path + "'";
  const wire::FrameHeader header = wire::decode_frame_header(
      raw, tag, min_version, max_version,
      std::numeric_limits<std::uint64_t>::max(), context);
  FramedPayload result;
  result.version = header.version;
  result.payload = raw.substr(wire::kFrameHeaderSize);
  wire::verify_frame_payload(header, result.payload, context);
  return result;
}

}  // namespace ccd::util
