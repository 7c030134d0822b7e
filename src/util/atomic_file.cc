#include "util/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

#include "util/str.h"

namespace emsim::util {

namespace {

Status Errno(const char* what, const std::string& path) {
  return Status::IoError(StrFormat("%s %s: %s", what, path.c_str(), std::strerror(errno)));
}

/// fsync on the directory containing `path`, so the rename itself is
/// durable. Best-effort on filesystems that reject directory fsync.
void SyncParentDir(const std::string& path) {
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}

}  // namespace

Result<AtomicFile> AtomicFile::Create(const std::string& path) {
  AtomicFile file;
  file.path_ = path;
  file.temp_path_ = StrFormat("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));
  file.fd_ = ::open(file.temp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (file.fd_ < 0) {
    return Errno("cannot stage", file.temp_path_);
  }
  return file;
}

AtomicFile::AtomicFile(AtomicFile&& other) noexcept
    : path_(std::move(other.path_)), temp_path_(std::move(other.temp_path_)), fd_(other.fd_) {
  other.fd_ = -1;
  other.temp_path_.clear();
}

AtomicFile& AtomicFile::operator=(AtomicFile&& other) noexcept {
  if (this != &other) {
    Discard();
    path_ = std::move(other.path_);
    temp_path_ = std::move(other.temp_path_);
    fd_ = other.fd_;
    other.fd_ = -1;
    other.temp_path_.clear();
  }
  return *this;
}

AtomicFile::~AtomicFile() { Discard(); }

Status AtomicFile::Append(std::string_view data) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("AtomicFile: append after commit/discard");
  }
  while (!data.empty()) {
    ssize_t wrote = ::write(fd_, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("cannot write", temp_path_);
    }
    data.remove_prefix(static_cast<size_t>(wrote));
  }
  return Status::OK();
}

Status AtomicFile::Commit() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("AtomicFile: commit after commit/discard");
  }
  if (::fsync(fd_) != 0) {
    Status failed = Errno("cannot fsync", temp_path_);
    Discard();
    return failed;
  }
  (void)::close(fd_);
  fd_ = -1;
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    Status failed = Errno("cannot publish", path_);
    (void)::unlink(temp_path_.c_str());
    temp_path_.clear();
    return failed;
  }
  temp_path_.clear();
  SyncParentDir(path_);
  return Status::OK();
}

void AtomicFile::Discard() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
  if (!temp_path_.empty()) {
    (void)::unlink(temp_path_.c_str());
    temp_path_.clear();
  }
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  auto file = AtomicFile::Create(path);
  EMSIM_RETURN_IF_ERROR(file.status());
  EMSIM_RETURN_IF_ERROR(file->Append(contents));
  return file->Commit();
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Errno("cannot open", path);
  }
  std::string text;
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    text.append(buffer, got);
  }
  Status read = std::ferror(f) != 0 ? Errno("cannot read", path) : Status::OK();
  std::fclose(f);
  EMSIM_RETURN_IF_ERROR(read);
  return text;
}

}  // namespace emsim::util
