#include "util/durable_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>

namespace railcorr::util {

namespace {

void set_error(std::string* error, const char* what, const std::string& path) {
  if (error == nullptr) return;
  *error = std::string(what) + " '" + path + "': " + std::strerror(errno);
}

/// Directory component of `path` ("." when it has none) — for the
/// parent-directory fsync that makes a rename durable.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool fsync_dir(const std::string& dir, std::string* error) {
  int fd;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    set_error(error, "cannot open directory", dir);
    return false;
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  // Some filesystems refuse fsync on a directory fd (EINVAL); the
  // rename is then as durable as that filesystem allows.
  if (rc != 0 && errno != EINVAL) {
    set_error(error, "cannot fsync directory", dir);
    ::close(fd);
    return false;
  }
  ::close(fd);
  return true;
}

constexpr std::string_view kTrailerTag = "@railcorr-crc ";
static_assert(kTrailerTag.size() + 16 + 1 == kIntegrityTrailerBytes);

constexpr std::string_view kHexDigits = "0123456789abcdef";

/// Each byte's value as a lowercase hex digit, or 16 for any other
/// byte: parse_hex reads a digit with one lookup and no branch.
constexpr auto kHexValue = [] {
  std::array<std::uint8_t, 256> value{};
  value.fill(16);
  for (std::size_t digit = 0; digit < kHexDigits.size(); ++digit) {
    value[static_cast<unsigned char>(kHexDigits[digit])] =
        static_cast<std::uint8_t>(digit);
  }
  return value;
}();

}  // namespace

std::string hex16(std::uint64_t value) {
  std::string out(16, '0');
  write_hex(value, 16, out.data());
  return out;
}

void write_hex(std::uint64_t value, std::size_t width, char* out) {
  for (std::size_t i = width; i-- > 0;) {
    out[i] = kHexDigits[value & 0xF];
    value >>= 4;
  }
}

bool parse_hex16(std::string_view text, std::uint64_t& out) {
  return text.size() == 16 && parse_hex(text, out);
}

bool parse_hex(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  unsigned bad = 0;
  for (const char c : text) {
    const unsigned digit = kHexValue[static_cast<unsigned char>(c)];
    bad |= digit;
    value = (value << 4) | (digit & 0xF);
  }
  if ((bad & 16) != 0) return false;
  out = value;
  return true;
}

bool write_fully(int fd, const char* data, std::size_t size) noexcept {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> read_file_fully(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return std::nullopt;
  std::string content;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n > 0) {
      content.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    ::close(fd);
    return std::nullopt;
  }
  ::close(fd);
  return content;
}

bool atomic_write_file(const std::string& path, std::string_view content,
                       std::string* error) {
  // Same-directory staging: rename(2) is only atomic within one
  // filesystem. The pid suffix keeps concurrent writers of the same
  // target from clobbering each other's staging file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd;
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    set_error(error, "cannot create", tmp);
    return false;
  }
  if (!write_fully(fd, content.data(), content.size())) {
    set_error(error, "cannot write", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    set_error(error, "cannot fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "cannot rename into", path);
    ::unlink(tmp.c_str());
    return false;
  }
  return fsync_dir(parent_dir(path), error);
}

bool rename_durable(const std::string& from, const std::string& to,
                    std::string* error) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    set_error(error, "cannot rename into", to);
    return false;
  }
  return fsync_dir(parent_dir(to), error);
}

std::string integrity_trailer_line(std::string_view body) {
  return std::string(kTrailerTag) + hex16(fnv1a64(body));
}

void append_integrity_trailer(std::string& body) {
  if (!body.empty() && body.back() != '\n') body += '\n';
  body += integrity_trailer_line(body);
  body += '\n';
}

std::string with_integrity_trailer(std::string_view body) {
  std::string out;
  out.reserve(body.size() + 1 + kIntegrityTrailerBytes);
  out += body;
  append_integrity_trailer(out);
  return out;
}

TrailerSplit split_integrity_trailer(std::string_view document) {
  TrailerSplit split;
  split.body = document;
  std::string_view rest = document;
  if (!rest.empty() && rest.back() == '\n') rest.remove_suffix(1);
  const std::size_t eol = rest.find_last_of('\n');
  const std::string_view last =
      eol == std::string_view::npos ? rest : rest.substr(eol + 1);
  // A final line holding the tag past its start is a trailer whose line
  // break was lost (a flipped '\n'): present and malformed, so the
  // document reads as damaged, not as trailer-less with a hash glued to
  // its last line.
  const std::size_t tag = last.find(kTrailerTag);
  if (tag == std::string_view::npos) return split;
  split.present = true;
  // The body is everything before the trailer line (keeping the body's
  // own trailing newline), which is exactly what was hashed.
  split.body =
      eol == std::string_view::npos ? std::string_view{} : document.substr(0, eol + 1);
  std::uint64_t stated = 0;
  if (tag == 0 && parse_hex16(last.substr(kTrailerTag.size()), stated)) {
    split.stated = stated;
  }
  return split;
}

TrailerCheck check_integrity_trailer(std::string_view document) {
  const TrailerSplit split = split_integrity_trailer(document);
  TrailerCheck check;
  check.body = split.body;
  check.status = !split.present ? TrailerStatus::kMissing
                 : split.stated == fnv1a64(split.body)
                     ? TrailerStatus::kVerified
                     : TrailerStatus::kCorrupt;
  return check;
}

AppendLog::AppendLog(AppendLog&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

AppendLog& AppendLog::operator=(AppendLog&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

AppendLog::~AppendLog() { close(); }

bool AppendLog::open(const std::string& path, std::string* error) {
  close();
  do {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0) {
    set_error(error, "cannot open for append", path);
    return false;
  }
  return true;
}

bool AppendLog::append_line(std::string_view line) {
  if (fd_ < 0) return false;
  std::string buffer(line);
  buffer += '\n';
  if (!write_fully(fd_, buffer.data(), buffer.size())) return false;
  int rc;
  do {
    rc = ::fdatasync(fd_);
  } while (rc != 0 && errno == EINTR);
  return rc == 0;
}

void AppendLog::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace railcorr::util
